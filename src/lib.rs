//! # regpipe — register-constrained software pipelining
//!
//! Facade crate re-exporting the whole `regpipe` workspace: a from-scratch
//! reproduction of Llosa, Valero & Ayguadé, *"Heuristics for
//! Register-Constrained Software Pipelining"* (MICRO 1996).
//!
//! The pipeline, bottom-up:
//!
//! * [`ddg`] — loop data-dependence graphs (operations, distances, invariants).
//! * [`machine`] — VLIW machine models (the paper's P1L4/P2L4/P2L6) and the
//!   modulo reservation table.
//! * [`sched`] — MII computation and modulo schedulers: the
//!   register-sensitive HRMS and SMS (Swing) schedulers, a
//!   register-insensitive ASAP baseline, the exact branch-and-bound
//!   oracle, and the [`sched::SchedulerKind`] registry that makes the
//!   choice a first-class evaluation axis
//!   (`--scheduler hrms|sms|asap|exact`).
//! * [`regalloc`] — cyclic lifetimes, MaxLive, rotating-file and
//!   modulo-variable-expansion register allocation.
//! * [`spill`] — spill-code insertion into the dependence graph with the
//!   paper's redundancy optimizations and convergence safeguards.
//! * [`core`] — register-constrained compilation: `compile` runs one
//!   schedule-and-allocate round repeatedly under a `Strategy` —
//!   increase-II, iterative spilling (with the Max(LT) / Max(LT/Traf)
//!   heuristics and the two scheduling-time accelerations), or their
//!   "best of all" combination — and records a `TracePoint` per round.
//! * [`loops`] — the synthetic benchmark suite standing in for the paper's
//!   1258 Perfect Club loops, replicas of the paper's named loops, the
//!   seeded synthetic-kernel generator (`regpipe gen`), and on-disk corpus
//!   I/O (`regpipe suite --corpus` / `regpipe check`).
//! * [`exec`] — the deterministic multi-threaded batch-compilation engine
//!   (`BatchRequest` → `BatchReport`) behind `regpipe suite` and the
//!   `expt_*` harness, with its `BENCH_suite.json` report format.
//! * [`bench`](mod@bench) — the experiment drivers reproducing the paper's tables and
//!   figures, plus the `regpipe gap` optimality-gap harness and its
//!   `BENCH_gap.json` report format.
//! * [`serve`] — the persistent compile daemon (`regpipe serve`): a
//!   JSON-lines protocol over stdin or a unix socket, a sharded
//!   content-addressed LRU result cache, the `regpipe replay` load-driver
//!   and the `regpipe chaos` crash-recovery gate (protocol spec in
//!   `docs/serve.md`).
//!
//! The on-disk interchange formats (`.ddg` loops, `.mach` machine
//! descriptions, corpus directory layout) are specified in
//! `docs/formats.md` and implemented by [`ddg::textfmt`] and
//! [`machine::textfmt`]; `ARCHITECTURE.md` maps the crates and data flow.
//!
//! # Quickstart
//!
//! Compile the paper's running example (`x(i) = y(i)*a + y(i-3)`) for a
//! machine with 2 FUs of each kind and only 8 registers:
//!
//! ```
//! use regpipe::prelude::*;
//!
//! let ddg = regpipe::loops::paper::example_loop();
//! let machine = MachineConfig::p2l4();
//! let compiled = compile(&ddg, &machine, 8, &CompileOptions::default())?;
//! assert!(compiled.registers_used() <= 8);
//! # Ok::<(), regpipe::core::CompileError>(())
//! ```

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

pub use regpipe_bench as bench;
pub use regpipe_core as core;
pub use regpipe_ddg as ddg;
pub use regpipe_exec as exec;
pub use regpipe_loops as loops;
pub use regpipe_machine as machine;
pub use regpipe_regalloc as regalloc;
pub use regpipe_sched as sched;
pub use regpipe_serve as serve;
pub use regpipe_spill as spill;

/// Convenience re-exports for the common workflow.
pub mod prelude {
    pub use regpipe_core::{
        compile, CompileOptions, CompiledLoop, SpillDriverOptions, Strategy, TracePoint,
    };
    pub use regpipe_ddg::{Ddg, DdgBuilder, EdgeKind, OpId, OpKind};
    pub use regpipe_exec::{parallel_map, run_batch, BatchReport, BatchRequest};
    pub use regpipe_loops::{generate, load_corpus, write_corpus, BenchLoop, GenParams};
    pub use regpipe_machine::MachineConfig;
    pub use regpipe_regalloc::{allocate, LifetimeAnalysis};
    pub use regpipe_sched::{
        mii, AsapScheduler, HrmsScheduler, Schedule, Scheduler, SchedulerKind, SmsScheduler,
    };
    pub use regpipe_spill::{SelectHeuristic, SpillPolicy, SpillPolicyKind};
}
