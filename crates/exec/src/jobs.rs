//! Worker-count policy and the wall-time switch.

use std::num::NonZeroUsize;

/// Resolves the worker count for a batch run: the explicit `flag` (a
/// `--jobs` argument), else the machine's available parallelism (1 if
/// unknown). An invalid value (non-numeric or zero) is a hard error, not
/// a silent fallback.
///
/// # Errors
///
/// A human-readable message naming the flag and the offending value.
pub fn resolve_jobs(flag: Option<&str>) -> Result<NonZeroUsize, String> {
    match flag {
        Some(raw) => {
            raw.parse().map_err(|_| format!("--jobs must be a positive integer, got '{raw}'"))
        }
        None => Ok(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)),
    }
}

/// Whether `REGPIPE_BENCH_TIMING=1` opts wall-clock time into reports and
/// human output. Off by default: timings are the only non-deterministic
/// part of a run, so without it every output byte-compares across job
/// counts and machines.
pub fn bench_timing() -> bool {
    std::env::var("REGPIPE_BENCH_TIMING").is_ok_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_flag_wins_and_is_strict() {
        assert_eq!(resolve_jobs(Some("3")).unwrap().get(), 3);
        assert!(resolve_jobs(Some("0")).unwrap_err().contains("--jobs"));
        assert!(resolve_jobs(Some("four")).unwrap_err().contains("'four'"));
    }

    #[test]
    fn default_is_at_least_one() {
        // No flag: the machine's parallelism, >= 1 by construction.
        assert!(resolve_jobs(None).unwrap().get() >= 1);
    }
}
