//! Deterministic multi-threaded batch execution for the evaluation suite.
//!
//! The paper's evaluation (Section 5) compiles ~1258 loops at two register
//! budgets under three strategies — thousands of `compile` cells. This
//! crate fans those loops out across worker threads while keeping every
//! observable result **bit-identical to a sequential run**:
//!
//! * [`parallel_map`] — an ordered parallel map on [`std::thread::scope`]
//!   with a chunked atomic work queue. Results come back in input order
//!   regardless of worker count, so any deterministic per-item function
//!   stays deterministic under parallelism.
//! * [`BatchRequest`] / [`run_batch`] — the batch-compilation engine: each
//!   worker takes a `BenchLoop` and compiles its `budget × strategy` cells
//!   on one `regpipe_core::LoopRow`, which shares their common rounds and
//!   spill runs while giving every cell exactly what a lone `compile`
//!   returns. The cells are collected into a [`BatchReport`] (II,
//!   registers, spills, reschedules, wall time per cell) whose
//!   deterministic portion is byte-identical for any `--jobs` value.
//! * [`BatchReport::to_json`] — a machine-readable `BENCH_suite.json`
//!   rendering (schema `regpipe-bench-suite/v3`, see [`json`]) so the perf
//!   trajectory is trackable across PRs; v2 records the scheduler axis
//!   (`CompileOptions::scheduler`) as a top-level `scheduler` field.
//! * [`resolve_jobs`] — worker-count policy: the `--jobs` flag, else the
//!   machine's available parallelism. An invalid value is a hard error,
//!   never a silent fallback.
//!
//! Wall-clock times are the only non-deterministic fields; they are kept
//! out of [`BatchReport::to_json`] and human output unless timing is
//! explicitly requested ([`bench_timing`]).
//!
//! The crate has no registry dependencies (the environment is offline);
//! JSON support is a small vendored value model in [`json`].
//!
//! ```
//! use std::num::NonZeroUsize;
//! use regpipe_core::{CompileOptions, Strategy};
//! use regpipe_exec::{run_batch, BatchRequest};
//! use regpipe_loops::suite;
//! use regpipe_machine::MachineConfig;
//!
//! let loops = suite(7, 4);
//! let req = BatchRequest {
//!     machine: MachineConfig::p2l4(),
//!     budgets: vec![64, 32],
//!     strategies: vec![Strategy::BestOfAll],
//!     options: CompileOptions::default(),
//!     jobs: NonZeroUsize::new(2).unwrap(),
//! };
//! let report = run_batch(&loops, &req);
//! assert_eq!(report.cells.len(), 4 * 2);
//! // The deterministic rendering is identical for any job count.
//! let sequential = run_batch(&loops, &BatchRequest { jobs: NonZeroUsize::new(1).unwrap(), ..req.clone() });
//! assert_eq!(report.to_json(false), sequential.to_json(false));
//! ```

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

mod batch;
mod jobs;
pub mod json;
mod pmap;

pub use batch::{
    parse_strategy, run_batch, strategy_slug, BatchAggregate, BatchReport, BatchRequest,
    CellOutcome, CellStatus,
};
pub use jobs::{bench_timing, resolve_jobs};
pub use pmap::parallel_map;
