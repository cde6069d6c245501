//! Register-constrained software pipelining.
//!
//! This crate is the paper's contribution proper: given a loop, a machine
//! and a register budget `R`, [`compile`] produces a modulo schedule whose
//! register requirement fits in `R`. Every [`Strategy`] repeats one round
//! (schedule, analyse lifetimes, allocate the rotating file) and differs
//! only in what it changes when the allocation exceeds `R`:
//!
//! * [`Strategy::IncreaseIi`] — reschedule at ever larger IIs until the
//!   requirement fits (Figure 1a, the Cydra 5 approach). Cheap, but
//!   performance decays quickly and — the paper's key negative result —
//!   it **never converges** for some loops, because loop invariants and
//!   the distance components of lifetimes put an II-independent floor
//!   under the register requirement (Section 3.1).
//! * [`Strategy::Spill`] — select lifetimes with a [`SpillPolicyKind`]
//!   (the paper's Max(LT) or Max(LT/Traf) by default), rewrite the graph
//!   with spill code, and reschedule until the requirement fits (Figure 1b,
//!   Section 4). [`SpillDriverOptions`] turns on Section 4.5's
//!   accelerations: spilling *several lifetimes at once* driven by an
//!   optimistic MaxLive estimate, and *II-search pruning* that restarts
//!   each reschedule at `max(MII, previous II)`.
//! * [`Strategy::BestOfAll`] — the Section 5 combination and the default:
//!   spill first, then probe the unspilled loop at IIs up to the spill
//!   result's II (binary search); keep whichever schedule is better.
//!
//! Each round leaves a [`TracePoint`] (MII, II, IIs tried, stage count,
//! registers, memory traffic), so a [`CompiledLoop`] or a [`Failure`]
//! explains itself: [`CompiledLoop::trace`] is the paper's Figure 4 or
//! Figure 7 series for that loop.
//!
//! The strategies are scheduler-agnostic — the paper's framework "can be
//! applied to any software pipelining technique". [`CompileOptions::scheduler`]
//! selects one from the `regpipe_sched` registry ([`SchedulerKind`]: HRMS,
//! SMS, the ASAP baseline or the exact oracle).
//!
//! A [`LoopRow`] compiles one loop at several budgets and strategies (a row
//! of the paper's evaluation matrix), under any `Scheduler`. Each cell
//! returns what `compile` would, but the row schedules each round on the
//! unspilled loop once and runs the spill strategy once per budget, sharing
//! them across cells; `compile` itself is a row of one cell.
//!
//! ```
//! use regpipe_core::{compile, CompileOptions};
//! use regpipe_ddg::{DdgBuilder, OpKind};
//! use regpipe_machine::MachineConfig;
//!
//! // A loop with a long loop-carried lifetime: y(i) = x(i) + x(i-5).
//! let mut b = DdgBuilder::new("stencil");
//! let ld = b.add_op(OpKind::Load, "ld x");
//! let add = b.add_op(OpKind::Add, "+");
//! let st = b.add_op(OpKind::Store, "st y");
//! b.reg(ld, add);
//! b.reg_dist(ld, add, 5);
//! b.reg(add, st);
//! let ddg = b.build()?;
//!
//! let machine = MachineConfig::p2l4();
//! let compiled = compile(&ddg, &machine, 4, &CompileOptions::default())
//!     .expect("fits in 4 registers after spilling");
//! assert!(compiled.registers_used() <= 4);
//! // The first round scheduled the unspilled loop and did not fit.
//! assert_eq!(compiled.trace()[0].spilled, 0);
//! assert!(compiled.trace()[0].regs > 4);
//! # Ok::<(), regpipe_ddg::DdgError>(())
//! ```

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

mod best_of_all;
mod compile;
mod increase_ii;
mod spill_driver;

pub use compile::{
    compile, CompileError, CompileOptions, CompiledLoop, Failure, FailureKind, LoopRow,
    Strategy, TracePoint,
};
// Part of `CompileOptions`' public surface: downstream crates select the
// scheduler and spill-policy axes without depending on `regpipe_sched` or
// `regpipe_spill` directly.
pub use regpipe_sched::SchedulerKind;
pub use regpipe_spill::SpillPolicyKind;
pub use spill_driver::SpillDriverOptions;
