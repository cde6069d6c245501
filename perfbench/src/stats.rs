//! Order statistics, setup repetition and process memory readings.

use std::time::{Duration, Instant};

/// Time-boxes a measurement loop: the first pass always runs, and a
/// further pass starts only if, taking as long as the previous one, it
/// still ends within the run's time.
pub struct TimeBox {
    started: Instant,
    limit: Duration,
    mark: Option<Instant>,
}

impl TimeBox {
    pub fn new(limit: Duration) -> Self {
        TimeBox { started: Instant::now(), limit, mark: None }
    }

    /// Whether to run another pass; call once at the top of each pass.
    pub fn next_pass(&mut self) -> bool {
        let now = Instant::now();
        let go = match self.mark {
            None => true,
            Some(previous) => (now - self.started) + (now - previous) <= self.limit,
        };
        self.mark = Some(now);
        go
    }
}

/// The generator seed of a run's `pass`-th corpus: the run's own seed for
/// the first, well-mixed derivatives of it (splitmix64) after that.
pub fn corpus_seed(seed: u64, pass: usize) -> u64 {
    if pass == 0 {
        return seed;
    }
    let mut z = seed ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating linearly
/// between the two closest ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Runs `build` `times` times and returns the last result together with
/// the median build time in seconds, normalised by [`calibrate`] runs
/// taken before each build, so set-up cost is reported as a median rather
/// than a single noisy reading.
pub fn repeat_setup<T>(times: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    // Building inputs is single-threaded everywhere.
    let (mut walls, mut calibrations) = (Vec::with_capacity(times), Vec::with_capacity(times));
    let mut last = None;
    for _ in 0..times.max(1) {
        calibrations.push(calibrate(1));
        let t0 = Instant::now();
        last = Some(std::hint::black_box(build()));
        walls.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), median(&walls) * speed_factor(&calibrations))
}

/// [`calibrate`]'s result on a quiet 2-core container (Linux VM, shared
/// host); normalised times are expressed at that machine speed.
const CALIBRATION_REF_S: f64 = 0.006;

/// Times a fixed CPU kernel that never touches regpipe (sorting and
/// FNV-hashing 20000 integers, ten times) on `threads` threads at once,
/// five times, and returns the median run time in seconds. Workloads that
/// keep both cores busy (two batch workers, or a client and a daemon)
/// calibrate on two threads, single-threaded ones on one, so the kernel
/// meets the machine the way the workload does. No change to the program
/// can move it.
pub fn calibrate(threads: usize) -> f64 {
    let kernel = || {
        let mut runs = [0.0; 5];
        for run in &mut runs {
            let t0 = Instant::now();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for round in 0..10u64 {
                let mut v: Vec<u64> = (0..20_000u64)
                    .map(|i| (i ^ round).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
                    .collect();
                v.sort_unstable();
                for x in &v {
                    for b in x.to_le_bytes() {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
            std::hint::black_box(h);
            *run = t0.elapsed().as_secs_f64();
        }
        runs
    };
    let runs: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(kernel)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("calibration thread panicked"))
            .collect()
    });
    median(&runs)
}

/// The factor that brings a run's wall times to the reference machine
/// speed: reference time / median of the run's [`calibrate`] results.
///
/// The host's speed drifts: within half an hour, one seed of `oracle-gap`
/// read 190 and 300 cells/s on an otherwise idle container, while the
/// kernel's time moved with it (0.039 s and 0.031 s for 50 rounds).
/// Scaling by the kernel's time removes most of that drift. A workload
/// calibrates before every pass, so a change of speed mid-run is
/// weighted like the passes it affected.
pub fn speed_factor(calibrations: &[f64]) -> f64 {
    CALIBRATION_REF_S / median(calibrations)
}

/// Peak resident set size of process `pid` (`"self"` for this process) in
/// MiB, read from the `VmHWM` line of `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
