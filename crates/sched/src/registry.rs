//! The scheduler registry: [`SchedulerKind`] makes *which* modulo scheduler
//! runs a first-class, serializable axis of the evaluation matrix, next to
//! the register-reduction strategy.
//!
//! The enum itself implements [`Scheduler`] by dispatch, so
//! `regpipe_core::compile` runs every round through it directly (and
//! `regpipe_core::compile_with` accepts any other `Scheduler`) — no boxing,
//! `Copy` options structs keep working, and a `SchedulerKind` travels
//! through `CompileOptions`, `BatchRequest` and the `BENCH_*.json` reports
//! as a plain slug (`hrms`, `sms`, `asap`, `exact`).

use std::fmt;

use crate::{
    AsapScheduler, ExactScheduler, HrmsScheduler, LoopAnalysis, SchedError, SchedRequest,
    Schedule, Scheduler, SmsScheduler,
};

/// Which modulo scheduler to run — the scheduler axis of the evaluation
/// matrix (`--scheduler` on the CLI).
///
/// All three share the per-loop [`LoopAnalysis`] context and the
/// warm-started timing analysis; they differ in how the ordering phase
/// arranges operations and hence in how register-sensitive the resulting
/// schedules are. `docs/algorithms.md` walks the orderings side by side.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SchedulerKind {
    /// Hypernode Reduction Modulo Scheduling: the paper's core
    /// register-sensitive scheduler ([`HrmsScheduler`]).
    #[default]
    Hrms,
    /// Swing Modulo Scheduling: the successor heuristic ordering by
    /// combined ASAP/ALAP swing priority ([`SmsScheduler`]).
    Sms,
    /// The register-insensitive top-down baseline ([`AsapScheduler`]).
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
            SchedulerKind::Hrms => HrmsScheduler::new().schedule_in(ctx, request),
            SchedulerKind::Sms => SmsScheduler::new().schedule_in(ctx, request),
            SchedulerKind::Asap => AsapScheduler::new().schedule_in(ctx, request),
            SchedulerKind::Exact => ExactScheduler::new().schedule_in(ctx, request),
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
        for kind in SchedulerKind::ALL {
            let via_kind = kind.schedule(&g, &m, &req).unwrap();
            assert_eq!(via_kind.scheduler(), kind.slug());
            let direct = match kind {
                SchedulerKind::Hrms => HrmsScheduler::new().schedule(&g, &m, &req).unwrap(),
                SchedulerKind::Sms => SmsScheduler::new().schedule(&g, &m, &req).unwrap(),
                SchedulerKind::Asap => AsapScheduler::new().schedule(&g, &m, &req).unwrap(),
                SchedulerKind::Exact => ExactScheduler::new().schedule(&g, &m, &req).unwrap(),
            };
            assert_eq!(via_kind, direct, "{kind} dispatch must be transparent");
            let via_ctx = kind.schedule_in(&LoopAnalysis::new(&g, &m), &req).unwrap();
            assert_eq!(via_ctx, direct, "{kind} context dispatch must be transparent");
        }
    }

    #[test]
    fn default_is_the_paper_scheduler() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Hrms);
    }
}
