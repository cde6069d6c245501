//! Worker-count policy and the wall-time switch.

use std::num::NonZeroUsize;

/// Resolves the worker count for a batch run.
///
/// Precedence: the explicit `flag` (a `--jobs` argument), then the
/// `REGPIPE_JOBS` environment variable, then the machine's available
/// parallelism (1 if unknown). Invalid values — non-numeric or zero — are
/// hard errors rather than silent fallbacks, mirroring the strict
/// `REGPIPE_SUITE_SIZE` handling in `regpipe_loops`.
///
/// # Errors
///
/// A human-readable message naming the offending source and value.
pub fn resolve_jobs(flag: Option<&str>) -> Result<NonZeroUsize, String> {
    if let Some(raw) = flag {
        return parse_jobs("--jobs", raw);
    }
    if let Ok(raw) = std::env::var("REGPIPE_JOBS") {
        return parse_jobs("REGPIPE_JOBS", raw.as_str());
    }
    Ok(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
}

fn parse_jobs(source: &str, raw: &str) -> Result<NonZeroUsize, String> {
    raw.parse::<NonZeroUsize>()
        .map_err(|_| format!("{source} must be a positive integer, got '{raw}'"))
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
        // No flag: either REGPIPE_JOBS (if the harness sets it) or the
        // machine's parallelism — both are >= 1 by construction.
        if std::env::var("REGPIPE_JOBS").is_err() {
            assert!(resolve_jobs(None).unwrap().get() >= 1);
        }
    }
}
