//! Modulo scheduling.
//!
//! This crate implements the scheduling layer of the pipeline:
//!
//! * [`rec_mii`] / [`mii`] — the recurrence- and resource-constrained lower
//!   bounds on the initiation interval (paper Section 2.2).
//! * [`Schedule`] — a modulo schedule (II + start cycle per operation) with
//!   full verification against the dependence graph and machine model.
//! * [`SchedulerKind`] — the one handle on the built-in modulo schedulers:
//!   a serializable registry that itself implements [`Scheduler`], so the
//!   choice of scheduler is a first-class axis of the evaluation matrix
//!   (`--scheduler hrms|sms|asap|exact` on the CLI). It holds the paper's
//!   register-sensitive HRMS, whose ordering phase places each operation
//!   while only its predecessors *or* only its successors are scheduled and
//!   whose bidirectional placement keeps it close to its neighbours, so
//!   lifetimes stay short; Swing Modulo Scheduling, the same placement
//!   under an ordering by combined ASAP/ALAP *swing* priority; the
//!   register-insensitive ASAP baseline; and the exact oracle below.
//! * [`ExactScheduler`] — a branch-and-bound **optimality oracle**: it
//!   enumerates IIs from MII upward and exhaustively refutes each
//!   infeasible II within a deterministic node budget, reporting
//!   [`ExactStatus::Proven`] or [`ExactStatus::BudgetExhausted`] so
//!   results are never silently wrong (`regpipe gap` measures every
//!   heuristic against it).
//! * [`PipelinedLoop`] — the emitted code of a schedule: the prologue, the
//!   stage-annotated kernel (Figure 2e) and the epilogue, with a flat trace
//!   that replays them.
//!
//! `docs/algorithms.md` in the repository walks the HRMS and SMS ordering
//! and placement phases step by step on the same kernels, with the
//! lifetime/MaxLive tables that show where and why the orders diverge.
//!
//! Fixed (bonded) edges in the graph are honoured as the paper's *complex
//! operations*: bonded operations are placed atomically at exact offsets
//! (Section 4.3), which is what guarantees spill convergence.
//!
//! # Example
//!
//! ```
//! use regpipe_ddg::{DdgBuilder, OpKind};
//! use regpipe_machine::MachineConfig;
//! use regpipe_sched::{mii, SchedRequest, Scheduler, SchedulerKind};
//!
//! let mut b = DdgBuilder::new("dot");
//! let lx = b.add_op(OpKind::Load, "lx");
//! let ly = b.add_op(OpKind::Load, "ly");
//! let m = b.add_op(OpKind::Mul, "m");
//! let acc = b.add_op(OpKind::Add, "acc");
//! b.reg(lx, m);
//! b.reg(ly, m);
//! b.reg(m, acc);
//! b.reg_dist(acc, acc, 1); // sum += x*y : a recurrence
//! let g = b.build()?;
//!
//! let machine = MachineConfig::p2l4();
//! let sched = SchedulerKind::Hrms
//!     .schedule(&g, &machine, &SchedRequest::default())
//!     .expect("schedulable");
//! assert_eq!(sched.ii(), mii(&g, &machine)); // optimal: II = MII = 4
//! sched.verify(&g, &machine).expect("valid schedule");
//! # Ok::<(), regpipe_ddg::DdgError>(())
//! ```

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

mod analysis;
mod exact;
mod groups;
mod hrms;
mod loop_analysis;
mod pipeline;
mod recmii;
mod registry;
mod schedule;
mod sms;
mod stage;
#[cfg(test)]
mod testing;

pub mod deadline;

pub use analysis::TimeAnalysis;
pub use exact::{ExactOutcome, ExactScheduler, ExactStatus, DEFAULT_NODE_BUDGET};
pub use groups::ComplexGroups;
pub use loop_analysis::LoopAnalysis;
pub use pipeline::{KernelSlot, PipelinedLoop, TraceEntry};
pub use recmii::rec_mii;
pub use registry::SchedulerKind;
pub use schedule::{Schedule, VerifyError};
pub use stage::stage_schedule;

use std::error::Error;
use std::fmt;

use regpipe_ddg::Ddg;
use regpipe_machine::{res_mii, MachineConfig};

/// The minimum initiation interval: `max(ResMII, RecMII)` (Section 2.2).
pub fn mii(ddg: &Ddg, machine: &MachineConfig) -> u32 {
    res_mii(machine, ddg).max(rec_mii(ddg, machine))
}

/// Edge timing: the latency charged on a dependence edge.
///
/// Register and memory edges charge the producer's machine latency;
/// ordering edges charge zero (the consumer may start as soon as the
/// producer *starts*, minus δ·II).
pub fn edge_latency(machine: &MachineConfig, ddg: &Ddg, e: &regpipe_ddg::Edge) -> i64 {
    match e.kind() {
        regpipe_ddg::EdgeKind::Order => 0,
        _ => i64::from(machine.latency(ddg.op(e.from()).kind())),
    }
}

/// Options controlling a scheduling run.
#[derive(Clone, Debug, Default)]
pub struct SchedRequest {
    /// Lower bound for the II search; the scheduler starts at
    /// `max(min_ii, MII)`. The spill driver's *last-II pruning*
    /// (paper Section 4.5) is implemented by raising this.
    pub min_ii: Option<u32>,
    /// Upper bound for the II search (inclusive). Defaults to a bound at
    /// which any loop is schedulable sequentially.
    pub max_ii: Option<u32>,
}

impl SchedRequest {
    /// A request starting the II search at `min_ii`.
    pub fn starting_at(min_ii: u32) -> Self {
        SchedRequest { min_ii: Some(min_ii), max_ii: None }
    }

    /// A request for exactly one candidate II (used by binary-search modes).
    pub fn exactly(ii: u32) -> Self {
        SchedRequest { min_ii: Some(ii), max_ii: Some(ii) }
    }
}

/// Scheduling failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SchedError {
    /// No valid schedule was found up to (and including) `max_ii`.
    NoScheduleUpTo {
        /// The largest II attempted.
        max_ii: u32,
    },
    /// The request was inconsistent (e.g. `max_ii < MII`).
    InfeasibleRequest {
        /// The effective lower bound.
        min_ii: u32,
        /// The requested upper bound.
        max_ii: u32,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoScheduleUpTo { max_ii } => {
                write!(f, "no modulo schedule found with II <= {max_ii}")
            }
            SchedError::InfeasibleRequest { min_ii, max_ii } => {
                write!(f, "requested II range [{min_ii}, {max_ii}] is empty")
            }
        }
    }
}

impl Error for SchedError {}

/// A modulo scheduler.
///
/// Implementations search increasing IIs starting at `max(MII, min_ii)`
/// until a valid schedule is found or `max_ii` is exceeded. The trait is the
/// plug-in point the paper insists on: the spilling framework "can be
/// applied to any software pipelining technique". [`SchedulerKind`] is the
/// implementation for every built-in scheduler; `regpipe_core::LoopRow`
/// runs the paper's strategies over any other.
pub trait Scheduler {
    /// Schedules within a prebuilt [`LoopAnalysis`] context, letting
    /// repeated calls on the same loop (II sweeps, best-of-all probes,
    /// spill rounds between graph rewrites) share every II-independent
    /// computation. Results must not depend on where the context came
    /// from — it is a pure function of `(ddg, machine)`.
    ///
    /// A call must be a pure function of the context and the request, and
    /// a `min_ii` at or below the MII (or `None`) must mean the MII:
    /// `regpipe_core::LoopRow` answers a repeated request from a memo.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::NoScheduleUpTo`] if the II search is exhausted
    /// and [`SchedError::InfeasibleRequest`] for empty II ranges.
    fn schedule_in(
        &self,
        ctx: &LoopAnalysis<'_>,
        request: &SchedRequest,
    ) -> Result<Schedule, SchedError>;

    /// Schedules `ddg` on `machine`: builds the loop's [`LoopAnalysis`]
    /// and calls [`Scheduler::schedule_in`].
    ///
    /// # Errors
    ///
    /// As for [`Scheduler::schedule_in`].
    fn schedule(
        &self,
        ddg: &Ddg,
        machine: &MachineConfig,
        request: &SchedRequest,
    ) -> Result<Schedule, SchedError> {
        self.schedule_in(&LoopAnalysis::new(ddg, machine), request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};

    #[test]
    fn mii_takes_the_max_of_both_bounds() {
        // Resource-bound loop: 3 loads on one memory unit.
        let mut b = DdgBuilder::new("res");
        for i in 0..3 {
            b.add_op(OpKind::Load, format!("l{i}"));
        }
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        assert_eq!(mii(&g, &m), 3);

        // Recurrence-bound loop: add chain with distance 1 back edge.
        let mut b = DdgBuilder::new("rec");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Add, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 1);
        let g = b.build().unwrap();
        assert_eq!(mii(&g, &m), 8, "two adds of latency 4 over distance 1");
    }

    #[test]
    fn fallback_bound_is_generous() {
        let mut b = DdgBuilder::new("f");
        b.add_op(OpKind::Div, "d");
        b.add_op(OpKind::Add, "a");
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        assert!(LoopAnalysis::new(&g, &m).fallback_max_ii() >= 17 + 4);
    }

    #[test]
    fn sched_error_displays() {
        let e = SchedError::NoScheduleUpTo { max_ii: 9 };
        assert!(e.to_string().contains("9"));
    }
}
