//! Offline stand-in for the `criterion` crate, cut down to the one
//! sampling plan `regpipe bench` times its size points with.
//!
//! The build environment cannot reach crates.io, so the timing loop is
//! vendored: [`measure`] reports a mean wall-clock time per iteration
//! instead of criterion's full statistical analysis.

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

use std::hint::black_box;
use std::time::Instant;

/// One timing result from [`measure`]: how many iterations ran and how long
/// they took in total.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Iterations executed.
    pub iters: u64,
    /// Total wall time of those iterations, in nanoseconds.
    pub total_nanos: u128,
}

impl Measurement {
    /// Mean wall time per iteration, in nanoseconds.
    pub fn mean_nanos(&self) -> u128 {
        self.total_nanos / u128::from(self.iters.max(1))
    }
}

/// Times `f`: one warm-up pass sizes a ~200 ms sampling loop of between 10
/// and 10 000 iterations, whose total is the measurement.
pub fn measure<O>(mut f: impl FnMut() -> O) -> Measurement {
    let start = Instant::now();
    black_box(f());
    let per_iter = start.elapsed().as_nanos().max(1);
    let iters = (200_000_000 / per_iter).clamp(10, 10_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    Measurement { iters, total_nanos: start.elapsed().as_nanos() }
}
