//! Offline stand-in for the `criterion` crate. It holds no code.
//!
//! Wall time is measured by the `perfbench` harness and by
//! `REGPIPE_BENCH_TIMING=1 regpipe suite`. The crate stays a dependency of
//! `regpipe_bench` because `perfbench/Cargo.lock` lists it, and dropping it
//! would change that lockfile.
