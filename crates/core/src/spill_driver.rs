//! Strategy 2: iterative spilling (paper Section 4, Figure 1b).

use regpipe_ddg::Ddg;
use regpipe_sched::{LoopAnalysis, SchedRequest, Scheduler};
use regpipe_spill::{
    candidates, spill_batch, RankContext, SelectHeuristic, SpillCandidate, SpillPolicy,
    SpillPolicyKind,
};

use crate::compile::{FailureKind, Fit, Round, Run, Strategy};

/// Options for the iterative spilling strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpillDriverOptions {
    /// Victim-ranking policy from the `regpipe_spill` registry; defaults to
    /// the paper's ranking.
    pub policy: SpillPolicyKind,
    /// Victim-selection heuristic (Section 4.1), consulted by the
    /// [`SpillPolicyKind::Paper`] policy.
    pub heuristic: SelectHeuristic,
    /// Spill several lifetimes per reschedule, driven by the optimistic
    /// MaxLive estimate (first acceleration of Section 4.5).
    pub multi_spill: bool,
    /// Restart each reschedule's II search at `max(MII, previous II)`
    /// (second acceleration of Section 4.5).
    pub last_ii_pruning: bool,
    /// When every lifetime has been spilled and the requirement is *still*
    /// above budget, sweep the II upward on the fully-spilled loop (its
    /// lifetimes are bonded, so pressure now genuinely shrinks with the II).
    /// This is an extension over the paper, whose flow simply fails to
    /// local scheduling at that point.
    pub ii_relief: bool,
    /// Safety cap on reschedule rounds.
    pub max_rounds: u32,
}

impl Default for SpillDriverOptions {
    /// The paper's best configuration: `Max(LT/Traf)` with both
    /// accelerations enabled.
    fn default() -> Self {
        SpillDriverOptions {
            policy: SpillPolicyKind::default(),
            heuristic: SelectHeuristic::MaxLtOverTraffic,
            multi_spill: true,
            last_ii_pruning: true,
            ii_relief: true,
            max_rounds: 256,
        }
    }
}

impl SpillDriverOptions {
    /// The paper's slow baseline: one lifetime per reschedule, full II
    /// exploration.
    pub fn unaccelerated(heuristic: SelectHeuristic) -> Self {
        SpillDriverOptions {
            policy: SpillPolicyKind::default(),
            heuristic,
            multi_spill: false,
            last_ii_pruning: false,
            ii_relief: true,
            max_rounds: 1024,
        }
    }
}

impl<S: Scheduler> Run<'_, S> {
    /// The spill strategy, and the first phase of best-of-all. It always
    /// opens a run, so its outcome depends on the budget alone: a
    /// [`LoopRow`](crate::LoopRow) runs it once per budget, and a later
    /// cell at that budget takes its result, calls and trace from the memo.
    pub(crate) fn spill(&mut self, o: &SpillDriverOptions) -> Result<Fit, FailureKind> {
        // A hit replaces the calls and trace wholesale, which is right only
        // while nothing ran before it in this compile.
        debug_assert!(self.calls == 0 && self.trace.is_empty(), "spill must open its compile");
        if let Some((result, calls, trace)) = self.memo.spills.get(&self.regs) {
            self.calls = *calls;
            self.trace = trace.clone();
            return result.clone();
        }
        let result = self.spill_rounds(o);
        let run = (result.clone(), self.calls, self.trace.clone());
        self.memo.spills.insert(self.regs, run);
        result
    }

    /// The Figure 1b loop: schedule → allocate → (if over budget) select
    /// victims → add spill code → reschedule, until the loop fits.
    fn spill_rounds(&mut self, o: &SpillDriverOptions) -> Result<Fit, FailureKind> {
        let machine = self.given.machine();
        let mut g = self.given.ddg().clone();
        let mut spilled = 0u32;
        let mut prev_ii: Option<u32> = None;
        loop {
            if self.calls >= o.max_rounds {
                return Err(FailureKind::RoundCap);
            }
            let round = if spilled == 0 {
                // Round 1 schedules the loop as given.
                self.given_round(&SchedRequest::default())
            } else {
                // One analysis context per round: the spill rewrite at the
                // end of the round is the only thing that invalidates it.
                let ctx = LoopAnalysis::new(&g, machine);
                let min_ii =
                    if o.last_ii_pruning { prev_ii.map(|p| p.max(ctx.mii())) } else { None };
                self.round(&ctx, &SchedRequest { min_ii, max_ii: None }, spilled)
            }
            .map_err(FailureKind::Sched)?;
            if self.fits(&round) {
                return Ok(Fit { ddg: g, round, spilled, strategy: Strategy::Spill });
            }
            let victims = self.victims(&g, &round, o);
            if victims.is_empty() {
                if o.ii_relief {
                    return self.relieve(g, round.schedule.ii(), spilled, o);
                }
                return Err(FailureKind::Unspillable);
            }
            spill_batch(&mut g, &victims);
            spilled += victims.len() as u32;
            prev_ii = Some(round.schedule.ii());
        }
    }

    /// The victims the configured policy ranks from this round's own
    /// lifetime analysis. The round counter feeds the stress policy's
    /// rotation.
    fn victims(&self, g: &Ddg, round: &Round, o: &SpillDriverOptions) -> Vec<SpillCandidate> {
        let pool = candidates(g, &round.analysis);
        let ctx = RankContext {
            analysis: &round.analysis,
            heuristic: o.heuristic,
            round: self.calls as usize,
        };
        let mut picked = if o.multi_spill {
            o.policy.select_batch(&pool, &ctx, self.regs)
        } else {
            Vec::new()
        };
        if picked.is_empty() {
            // One victim per round; with multi-spill, the optimistic
            // estimate already sits below budget but the real allocation
            // does not, so force progress.
            picked.extend(o.policy.select(&pool, &ctx));
        }
        picked.into_iter().cloned().collect()
    }

    /// Final fallback: everything spillable is spilled, so all remaining
    /// lifetimes are short and bonded and raising the II now reliably
    /// shrinks the pressure. Sweeps upward until the budget fits; stage
    /// count 1 or the scheduler's II ceiling means the loop's floor is
    /// above the budget.
    fn relieve(
        &mut self,
        g: Ddg,
        from_ii: u32,
        spilled: u32,
        o: &SpillDriverOptions,
    ) -> Result<Fit, FailureKind> {
        // The graph no longer changes: one context serves the sweep.
        let round = {
            let ctx = LoopAnalysis::new(&g, self.given.machine());
            let mut ii = from_ii + 1;
            loop {
                if ii > ctx.fallback_max_ii() {
                    return Err(FailureKind::Unspillable);
                }
                if self.calls >= o.max_rounds {
                    return Err(FailureKind::RoundCap);
                }
                let round = self
                    .round(&ctx, &SchedRequest::starting_at(ii), spilled)
                    .map_err(FailureKind::Sched)?;
                if self.fits(&round) {
                    break round;
                }
                if round.schedule.stage_count() == 1 {
                    return Err(FailureKind::Unspillable);
                }
                ii = round.schedule.ii() + 1;
            }
        };
        Ok(Fit { ddg: g, round, spilled, strategy: Strategy::Spill })
    }
}

#[cfg(test)]
mod tests {
    use regpipe_machine::MachineConfig;
    use regpipe_spill::SelectHeuristic;

    use super::SpillDriverOptions;
    use crate::compile::tests::{fig2, spill_options, taps};
    use crate::compile::{compile, FailureKind};

    #[test]
    fn no_spill_needed_under_generous_budget() {
        let m = MachineConfig::uniform(4, 2);
        let c =
            compile(&fig2(), &m, 32, &spill_options(SpillDriverOptions::default())).unwrap();
        assert_eq!(c.spilled(), 0);
        assert_eq!(c.reschedules(), 1);
        assert_eq!(c.ii(), 1);
    }

    #[test]
    fn spilling_reaches_tight_budget_on_fig2() {
        let m = MachineConfig::uniform(4, 2);
        let o = spill_options(SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLt));
        let c = compile(&fig2(), &m, 5, &o).unwrap();
        assert!(c.registers_used() <= 5);
        assert!(c.spilled() >= 1);
        c.schedule().verify(c.ddg(), &m).unwrap();
    }

    #[test]
    fn spilling_succeeds_where_increase_ii_cannot() {
        let m = MachineConfig::p2l4();
        let c =
            compile(&taps(), &m, 16, &spill_options(SpillDriverOptions::default())).unwrap();
        assert!(c.registers_used() <= 16);
        assert!(c.spilled() > 0);
        c.schedule().verify(c.ddg(), &m).unwrap();
        // Spilling adds memory traffic.
        assert!(c.memory_ops() > 14);
    }

    /// Runs `taps()` at `budget` on `m` with the given accelerations.
    fn accelerated(
        m: &MachineConfig,
        budget: u32,
        heuristic: SelectHeuristic,
        multi_spill: bool,
        last_ii_pruning: bool,
    ) -> crate::CompiledLoop {
        let o = SpillDriverOptions {
            multi_spill,
            last_ii_pruning,
            ..SpillDriverOptions::unaccelerated(heuristic)
        };
        compile(&taps(), m, budget, &spill_options(o)).unwrap()
    }

    #[test]
    fn multi_spill_uses_fewer_reschedules() {
        let m = MachineConfig::p2l4();
        let slow = accelerated(&m, 16, SelectHeuristic::MaxLt, false, false);
        let fast = accelerated(&m, 16, SelectHeuristic::MaxLt, true, false);
        assert!(
            fast.reschedules() < slow.reschedules(),
            "batch spilling must reduce rescheduling ({} vs {})",
            fast.reschedules(),
            slow.reschedules()
        );
    }

    #[test]
    fn last_ii_pruning_explores_fewer_iis() {
        let m = MachineConfig::p1l4();
        let base = accelerated(&m, 12, SelectHeuristic::MaxLtOverTraffic, false, false);
        let pruned = accelerated(&m, 12, SelectHeuristic::MaxLtOverTraffic, false, true);
        assert!(
            pruned.iis_explored() <= base.iis_explored(),
            "pruning must not explore more IIs ({} vs {})",
            pruned.iis_explored(),
            base.iis_explored()
        );
        // Both must still deliver a fitting schedule.
        assert!(pruned.registers_used() <= 12);
        assert!(base.registers_used() <= 12);
    }

    #[test]
    fn trace_records_every_reschedule() {
        let m = MachineConfig::p2l4();
        let o = spill_options(SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLt));
        let c = compile(&taps(), &m, 16, &o).unwrap();
        assert_eq!(c.trace().len() as u32, c.reschedules());
        assert_eq!(c.trace().last().unwrap().regs, c.registers_used());
        // Spill counts are non-decreasing along the trace.
        for w in c.trace().windows(2) {
            assert!(w[1].spilled >= w[0].spilled);
            assert!(w[1].memory_ops >= w[0].memory_ops);
        }
    }

    #[test]
    fn impossible_budget_reports_unspillable() {
        let m = MachineConfig::p2l4();
        let err =
            compile(&taps(), &m, 0, &spill_options(SpillDriverOptions::default())).unwrap_err();
        let kind = &err.failure().kind;
        assert!(matches!(kind, FailureKind::Unspillable | FailureKind::RoundCap), "{kind:?}");
    }

    /// Regression: with `max_rounds = 0` the strategy fails before any
    /// schedule/allocate round, so there is no best requirement to report.
    /// `best_regs` used to be a `u32::MAX` sentinel that leaked into the
    /// message as "4294967295 registers"; it must render as "n/a" now.
    #[test]
    fn round_cap_before_first_round_reports_no_best_regs() {
        let m = MachineConfig::p2l4();
        let capped = |max_rounds| {
            let o = SpillDriverOptions { max_rounds, ..SpillDriverOptions::default() };
            compile(&taps(), &m, 16, &spill_options(o)).unwrap_err()
        };
        let err = capped(0);
        assert_eq!(err.failure().kind, FailureKind::RoundCap);
        assert_eq!(err.failure().best_regs, None);
        let message = err.to_string();
        assert!(message.contains("n/a"), "message renders n/a: {message}");
        assert!(!message.contains("4294967295"), "sentinel leaked: {message}");
        // Once at least one round completes, the observation is real again.
        assert!(capped(1).failure().best_regs.is_some());
    }
}
