//! Strategy 3: the "best of all" combination (paper Section 5).
//!
//! For a few loops increasing the II beats spilling. The paper proposes a
//! cheap combination: spill first; the spilled loop's II is an upper bound
//! for an II-increase schedule worth having. Probe the *unspilled* loop by
//! binary search between MII and that bound; if a fitting schedule exists
//! there, it is better or equal (same or lower II, no extra memory
//! traffic), so keep it — otherwise keep the spilled schedule.

use regpipe_sched::{SchedRequest, Scheduler};

use crate::compile::{FailureKind, Fit, Run, Strategy};
use crate::spill_driver::SpillDriverOptions;

impl<S: Scheduler> Run<'_, S> {
    /// Spill, then probe. Fails only if spilling fails (the probe is
    /// best-effort).
    pub(crate) fn best_of_all(&mut self, o: &SpillDriverOptions) -> Result<Fit, FailureKind> {
        let by_spill = self.spill(o)?;
        if by_spill.spilled == 0 {
            // Fit at first try: nothing to compare.
            return Ok(by_spill);
        }
        // Binary search the unspilled loop in [MII, spill II]. Register
        // requirements are treated as monotonically non-increasing in II
        // (true in the large; the paper makes the same assumption). Every
        // probe schedules the loop as given.
        let ctx = self.given;
        let (mut lo, mut hi) = (ctx.mii(), by_spill.round.schedule.ii());
        let mut probed = None;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            match self.given_round(&SchedRequest::exactly(mid)) {
                Ok(round) if self.fits(&round) => {
                    hi = round.schedule.ii().saturating_sub(1);
                    probed = Some(round);
                }
                _ => lo = mid + 1,
            }
            if hi == 0 {
                break;
            }
        }
        Ok(match probed {
            Some(round) => Fit {
                ddg: ctx.ddg().clone(),
                round,
                spilled: 0,
                strategy: Strategy::IncreaseIi,
            },
            None => by_spill,
        })
    }
}

#[cfg(test)]
mod tests {
    use regpipe_machine::MachineConfig;

    use crate::compile::tests::{fig2, options};
    use crate::compile::{compile, Strategy};

    #[test]
    fn generous_budget_short_circuits() {
        let m = MachineConfig::uniform(4, 2);
        let c = compile(&fig2(), &m, 32, &options(Strategy::BestOfAll)).unwrap();
        assert_eq!(c.strategy_used(), Strategy::Spill);
        assert_eq!(c.reschedules(), 1, "no probes");
        assert_eq!(c.ii(), 1);
    }

    #[test]
    fn result_is_no_worse_than_spill_alone() {
        let g = fig2();
        let m = MachineConfig::uniform(4, 2);
        for budget in [4, 5, 6, 7, 8] {
            let spill_only = compile(&g, &m, budget, &options(Strategy::Spill));
            let combined = compile(&g, &m, budget, &options(Strategy::BestOfAll));
            if let (Ok(s), Ok(c)) = (spill_only, combined) {
                assert!(
                    c.ii() <= s.ii(),
                    "budget {budget}: combined II {} vs spill II {}",
                    c.ii(),
                    s.ii()
                );
                assert!(c.registers_used() <= budget);
            }
        }
    }

    #[test]
    fn increase_ii_wins_when_overlap_is_the_only_problem() {
        // Short lifetimes, no distance components: halving overlap fixes
        // pressure without any memory traffic, so the probe should win or
        // tie — and the winner must never carry more memory ops.
        let g = fig2();
        let m = MachineConfig::uniform(4, 2);
        let c = compile(&g, &m, 7, &options(Strategy::BestOfAll)).unwrap();
        assert!(c.registers_used() <= 7);
        if c.strategy_used() == Strategy::IncreaseIi {
            assert_eq!(c.ddg().memory_ops(), g.memory_ops(), "no spill traffic");
        }
        c.schedule().verify(c.ddg(), &m).unwrap();
    }
}
