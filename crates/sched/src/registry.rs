//! The scheduler registry: [`SchedulerKind`] is the one handle on the
//! built-in modulo schedulers, and it makes *which* scheduler runs a
//! first-class, serializable axis of the evaluation matrix, next to the
//! register-reduction strategy.
//!
//! The enum itself implements [`Scheduler`] by dispatch, so
//! `regpipe_core::compile` runs every round through it directly (and
//! `regpipe_core::LoopRow` accepts any other `Scheduler`) — no boxing,
//! `Copy` options structs keep working, and a `SchedulerKind` travels
//! through `CompileOptions`, `BatchRequest` and the `BENCH_*.json` reports
//! as a plain slug (`hrms`, `sms`, `asap`, `exact`).

use std::fmt;

use regpipe_ddg::OpId;

use crate::hrms::{ii_search, ordering_in, OrderWalk};
use crate::sms::swing_ordering;
use crate::{ExactScheduler, LoopAnalysis, SchedError, SchedRequest, Schedule, Scheduler};

/// Which modulo scheduler to run — the scheduler axis of the evaluation
/// matrix (`--scheduler` on the CLI).
///
/// All four share the per-loop [`LoopAnalysis`] context. The three
/// heuristics run one II walk with the warm-started timing analysis and
/// differ only in how the ordering phase arranges operations
/// ([`SchedulerKind::ordering`]), and hence in how register-sensitive the
/// resulting schedules are; the exact oracle searches start cycles by
/// branch and bound instead. `docs/algorithms.md` walks the orderings side
/// by side.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SchedulerKind {
    /// Hypernode Reduction Modulo Scheduling: the paper's core
    /// register-sensitive scheduler, in the HRMS/Swing style. See the
    /// [crate documentation](crate) for the algorithm outline.
    #[default]
    Hrms,
    /// Swing Modulo Scheduling: the successor heuristic. Its ordering
    /// phase walks the shared priority sets by each node's combined
    /// ASAP/ALAP *swing* priority — tightest deadline top-down, deepest
    /// origin bottom-up — where HRMS prefers readiness; the bidirectional
    /// placement phase and every II-independent analysis are shared.
    Sms,
    /// A top-down, register-*insensitive* baseline. There is no ordering
    /// phase: the group leaders are placed in topological (condensation)
    /// order, each as early as the dependences and the modulo reservation
    /// table allow. This is the classical list-scheduling approach that
    /// stretches lifetimes between producers and consumers scheduled long
    /// after them — exactly what register-sensitive schedulers like HRMS
    /// avoid. The paper cites results with such a scheduler (its reference
    /// \[21\]) as the motivation for register-aware scheduling; `regpipe`
    /// ships it as the baseline for ablation experiments.
    Asap,
    /// The branch-and-bound optimality oracle ([`ExactScheduler`]) with
    /// its default node budget — II-optimal whenever the search proves
    /// it, best-effort (HRMS incumbent) when the budget runs out. The
    /// budget is fixed here so the slug alone still identifies the
    /// result (serve cache keys and reports carry only the slug).
    Exact,
}

impl SchedulerKind {
    /// Every registered scheduler, in canonical (CLI help) order.
    pub const ALL: [SchedulerKind; 4] =
        [SchedulerKind::Hrms, SchedulerKind::Sms, SchedulerKind::Asap, SchedulerKind::Exact];

    /// The canonical CLI/report spelling.
    pub fn slug(self) -> &'static str {
        match self {
            SchedulerKind::Hrms => "hrms",
            SchedulerKind::Sms => "sms",
            SchedulerKind::Asap => "asap",
            SchedulerKind::Exact => "exact",
        }
    }

    /// Parses a CLI spelling (the inverse of [`SchedulerKind::slug`]).
    ///
    /// # Errors
    ///
    /// Names the unknown value and lists the registered schedulers.
    pub fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "hrms" => Ok(SchedulerKind::Hrms),
            "sms" => Ok(SchedulerKind::Sms),
            "asap" => Ok(SchedulerKind::Asap),
            "exact" => Ok(SchedulerKind::Exact),
            other => {
                Err(format!("unknown scheduler '{other}' (expected hrms, sms, asap or exact)"))
            }
        }
    }

    /// Runs the ordering phase on `ctx`'s loop in isolation: the sequence
    /// of complex-group leaders the scheduler places at `ii`, one per group.
    /// The HRMS order satisfies the pred-XOR-succ property: a group outside
    /// any recurrence is emitted while only its predecessors or only its
    /// successors are already ordered, never both.
    ///
    /// Returns `None` for [`SchedulerKind::Asap`] and
    /// [`SchedulerKind::Exact`], which have no ordering phase, and when the
    /// timing analysis is infeasible at `ii`.
    pub fn ordering(self, ctx: &LoopAnalysis<'_>, ii: u32) -> Option<Vec<OpId>> {
        let order = self.order()?;
        let analysis = ctx.time_analysis(ii, None)?;
        let mut leaders = Vec::with_capacity(ctx.groups().len());
        order(ctx, &analysis, &mut |leader| {
            leaders.push(leader);
            true
        });
        Some(leaders)
    }

    /// The ordering phase the II walk places by; without one (ASAP) it
    /// places the context's topological order ASAP-clamped.
    fn order(self) -> Option<OrderWalk> {
        match self {
            SchedulerKind::Hrms => Some(ordering_in),
            SchedulerKind::Sms => Some(swing_ordering),
            SchedulerKind::Asap | SchedulerKind::Exact => None,
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

impl Scheduler for SchedulerKind {
    fn schedule_in(
        &self,
        ctx: &LoopAnalysis<'_>,
        request: &SchedRequest,
    ) -> Result<Schedule, SchedError> {
        // Every compile round and best-of-all probe funnels through this
        // dispatch, so one cooperative deadline check-point here bounds
        // them all.
        crate::deadline::check();
        match self {
            SchedulerKind::Exact => {
                ExactScheduler::new().solve_in(ctx, request).map(|outcome| outcome.schedule)
            }
            list => ii_search(ctx, request, list.slug(), list.order()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};
    use regpipe_machine::MachineConfig;

    #[test]
    fn slugs_roundtrip_and_unknowns_are_named() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.slug()).unwrap(), kind);
            assert_eq!(kind.to_string(), kind.slug());
        }
        let err = SchedulerKind::parse("warp").unwrap_err();
        assert!(err.contains("unknown scheduler 'warp'"), "{err}");
        assert!(err.contains("hrms"), "lists the registry: {err}");
    }

    #[test]
    fn dispatch_matches_the_concrete_schedulers() {
        let mut b = DdgBuilder::new("d");
        let l = b.add_op(OpKind::Load, "l");
        let a = b.add_op(OpKind::Add, "a");
        let s = b.add_op(OpKind::Store, "s");
        b.reg(l, a);
        b.reg(a, s);
        b.reg_dist(a, a, 1);
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let req = SchedRequest::default();
        let ctx = LoopAnalysis::new(&g, &m);
        for kind in SchedulerKind::ALL {
            let via_kind = kind.schedule(&g, &m, &req).unwrap();
            assert_eq!(via_kind.scheduler(), kind.slug());
            let via_ctx = kind.schedule_in(&ctx, &req).unwrap();
            assert_eq!(via_ctx, via_kind, "{kind} context dispatch must be transparent");
        }
        let oracle = ExactScheduler::new().solve_in(&ctx, &req).unwrap();
        assert_eq!(SchedulerKind::Exact.schedule_in(&ctx, &req).unwrap(), oracle.schedule);
    }

    #[test]
    fn default_is_the_paper_scheduler() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Hrms);
    }

    #[test]
    fn asap_places_basic_loops() {
        let mut b = DdgBuilder::new("basic");
        let l = b.add_op(OpKind::Load, "l");
        let a = b.add_op(OpKind::Add, "a");
        let s = b.add_op(OpKind::Store, "s");
        b.reg(l, a);
        b.reg(a, s);
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let sched = SchedulerKind::Asap.schedule(&g, &m, &SchedRequest::default()).unwrap();
        sched.verify(&g, &m).unwrap();
        assert_eq!(sched.ii(), 2, "two memory ops on one unit");
    }

    #[test]
    fn asap_handles_recurrences() {
        let mut b = DdgBuilder::new("rec");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Mul, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 2);
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let sched = SchedulerKind::Asap.schedule(&g, &m, &SchedRequest::default()).unwrap();
        sched.verify(&g, &m).unwrap();
        assert_eq!(sched.ii(), 4, "cycle latency 8 over distance 2");
    }

    #[test]
    fn asap_stretches_lifetimes_relative_to_hrms() {
        // A producer with a long independent side chain: HRMS places the
        // consumer near the producer, ASAP pushes ops early regardless.
        let mut b = DdgBuilder::new("stretch");
        let ld = b.add_op(OpKind::Load, "ld");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(ld, st);
        // Independent noise filling the machine.
        for i in 0..6 {
            let x = b.add_op(OpKind::Add, format!("x{i}"));
            let y = b.add_op(OpKind::Mul, format!("y{i}"));
            b.reg(x, y);
        }
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let hrms = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::default()).unwrap();
        let asap = SchedulerKind::Asap.schedule(&g, &m, &SchedRequest::default()).unwrap();
        hrms.verify(&g, &m).unwrap();
        asap.verify(&g, &m).unwrap();
        let lt = |s: &Schedule| s.start(st) - s.start(ld);
        assert!(
            lt(&hrms) <= lt(&asap),
            "hrms lifetime {} should not exceed asap lifetime {}",
            lt(&hrms),
            lt(&asap)
        );
    }
}
