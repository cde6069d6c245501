//! Strategy 1: reschedule with an increased II (paper Section 3).

use regpipe_sched::{SchedRequest, Scheduler};

use crate::compile::{FailureKind, Fit, Run, Strategy};

/// Consecutive non-improving IIs after which the sweep gives up.
const PLATEAU_WINDOW: u32 = 12;

impl<S: Scheduler> Run<'_, S> {
    /// The Figure 1a sweep: schedule, allocate, and retry at `II + 1` until
    /// the allocation fits, detecting the loops for which this can never
    /// happen (stage count 1 or the II ceiling) or stops paying off (a
    /// plateau). The graph never changes, so every round schedules the loop
    /// as given. Only the stop test reads the budget, so the sweep at a
    /// tighter budget repeats the rounds of a looser one first.
    pub(crate) fn increase_ii(&mut self) -> Result<Fit, FailureKind> {
        let ctx = self.given;
        let cap = ctx.fallback_max_ii().max(ctx.mii());
        let mut since_improvement = 0u32;
        let mut ii = ctx.mii();
        loop {
            let best = self.best_regs();
            let round =
                self.given_round(&SchedRequest::starting_at(ii)).map_err(FailureKind::Sched)?;
            if self.fits(&round) {
                return Ok(Fit {
                    ddg: ctx.ddg().clone(),
                    round,
                    spilled: 0,
                    strategy: Strategy::IncreaseIi,
                });
            }
            if best.is_none_or(|b| round.allocation.total() < b) {
                since_improvement = 0;
            } else {
                since_improvement += 1;
            }
            // Stage count 1: no overlap left to remove. The remaining
            // requirement is the loop's floor; bigger IIs cannot help.
            if round.schedule.stage_count() == 1 {
                return Err(FailureKind::NeverConverges);
            }
            if since_improvement >= PLATEAU_WINDOW {
                return Err(FailureKind::Plateau);
            }
            if round.schedule.ii() >= cap {
                return Err(FailureKind::NeverConverges);
            }
            // The scheduler may have skipped infeasible IIs; continue from
            // what it actually found.
            ii = round.schedule.ii() + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use regpipe_machine::MachineConfig;

    use crate::compile::tests::{fig2, options, taps};
    use crate::compile::{compile, CompileError, FailureKind, Strategy};

    #[test]
    fn generous_budget_accepts_mii_schedule() {
        let m = MachineConfig::uniform(4, 2);
        let c = compile(&fig2(), &m, 32, &options(Strategy::IncreaseIi)).unwrap();
        assert_eq!(c.ii(), 1);
        assert_eq!(c.trace().len(), 1);
    }

    #[test]
    fn tight_budget_forces_larger_ii() {
        let m = MachineConfig::uniform(4, 2);
        // At II=1 the loop needs ~11 registers; at II=2, ~7 (Figure 3).
        let c = compile(&fig2(), &m, 7, &options(Strategy::IncreaseIi)).unwrap();
        assert!(c.ii() >= 2);
        assert!(c.registers_used() <= 7);
        assert!(c.trace().len() >= 2, "at least one refusal then success");
    }

    #[test]
    fn distance_floor_makes_budget_unreachable() {
        let m = MachineConfig::p2l4();
        let err = compile(&taps(), &m, 16, &options(Strategy::IncreaseIi)).unwrap_err();
        let CompileError::IncreaseIi(f) = err else { panic!("expected increase-II failure") };
        assert!(
            matches!(f.kind, FailureKind::NeverConverges | FailureKind::Plateau),
            "got {:?}",
            f.kind
        );
        assert!(f.best_regs.unwrap() > 16);
        assert!(f.trace.len() > 1);
    }

    #[test]
    fn trace_iis_are_strictly_increasing() {
        let m = MachineConfig::uniform(4, 2);
        let c = compile(&fig2(), &m, 5, &options(Strategy::IncreaseIi)).unwrap();
        for w in c.trace().windows(2) {
            assert!(w[1].ii > w[0].ii);
        }
    }
}
