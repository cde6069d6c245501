//! Strategy 2: iterative spilling (paper Section 4, Figure 1b).

use std::error::Error;
use std::fmt;

use regpipe_ddg::Ddg;
use regpipe_machine::{MachineConfig, Mrt};
use regpipe_regalloc::{allocate, AllocationResult, LifetimeAnalysis};
use regpipe_sched::{
    HrmsScheduler, LoopAnalysis, SchedError, SchedRequest, Schedule, Scheduler,
};
use regpipe_spill::{
    candidates, spill_batch, RankContext, SelectHeuristic, SpillPolicy, SpillPolicyKind,
};

/// Options for the iterative spilling driver.
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

/// One row of the spill trace (the series of the paper's Figure 7).
#[derive(Clone, PartialEq, Debug)]
pub struct SpillTracePoint {
    /// Lifetimes spilled so far.
    pub spilled: u32,
    /// The rewritten loop's MII at this point.
    pub mii: u32,
    /// The II of the schedule found.
    pub ii: u32,
    /// Registers required.
    pub regs: u32,
    /// Memory operations per iteration in the loop body.
    pub memory_ops: u32,
    /// Memory-unit (bus) utilization of the schedule, percent.
    pub memory_utilization: f64,
}

/// Success: a register-fitting schedule of the (rewritten) loop.
#[derive(Clone, Debug)]
pub struct SpillOutcome {
    /// The rewritten dependence graph (spill code included).
    pub ddg: Ddg,
    /// The fitting schedule of the rewritten loop.
    pub schedule: Schedule,
    /// Its allocation.
    pub allocation: AllocationResult,
    /// Lifetimes spilled in total.
    pub spilled: u32,
    /// Times the loop was (re)scheduled, including the first attempt.
    pub reschedules: u32,
    /// Candidate IIs explored across all scheduling calls (the paper's
    /// scheduling-effort measure behind Figure 8c).
    pub iis_explored: u32,
    /// One point per reschedule (Figure 7's series).
    pub trace: Vec<SpillTracePoint>,
}

impl SpillOutcome {
    /// Memory operations per iteration after spilling (dynamic traffic).
    pub fn memory_ops(&self) -> u32 {
        self.ddg.memory_ops() as u32
    }

    /// The MII of the original (unspilled) loop is not retained here; the
    /// slowdown of spilling is judged against [`SpillOutcome::trace`]'s
    /// first point, which records the pre-spill schedule.
    pub fn first_ii(&self) -> u32 {
        self.trace.first().map_or(self.schedule.ii(), |p| p.ii)
    }
}

/// Failure of the spilling strategy.
#[derive(Clone, Debug)]
pub struct SpillFailure {
    /// Why the driver stopped.
    pub kind: SpillFailureKind,
    /// Best (lowest) register requirement observed, or `None` when the
    /// driver failed before completing a single schedule/allocate round
    /// (e.g. a round cap of 0, or an immediate scheduler error) — there is
    /// no observation to report in that case.
    pub best_regs: Option<u32>,
    /// The trace up to the failure.
    pub trace: Vec<SpillTracePoint>,
}

impl SpillFailure {
    /// `best_regs` rendered for humans: the number, or `n/a` when no
    /// round completed.
    fn best_regs_display(&self) -> String {
        self.best_regs.map_or_else(|| "n/a".to_string(), |r| r.to_string())
    }
}

/// Why spilling gave up.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SpillFailureKind {
    /// Every remaining lifetime is non-spillable and the requirement is
    /// still above budget: the loop intrinsically needs more registers
    /// (even acyclic scheduling could not help; cf. Section 3.1's third
    /// cause).
    Unspillable,
    /// The round cap was hit (diagnostics guard; not expected in practice).
    RoundCap,
    /// The scheduler failed.
    Sched(SchedError),
}

impl fmt::Display for SpillFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SpillFailureKind::Unspillable => write!(
                f,
                "no spillable lifetime left; loop floor is {} registers",
                self.best_regs_display()
            ),
            SpillFailureKind::RoundCap => write!(
                f,
                "spill driver hit its round cap at {} registers",
                self.best_regs_display()
            ),
            SpillFailureKind::Sched(e) => write!(f, "scheduling failed: {e}"),
        }
    }
}

impl Error for SpillFailure {}

/// The Figure 1b driver: schedule → allocate → (if over budget) select
/// victims → add spill code → reschedule, until the loop fits.
#[derive(Clone, Copy, Debug)]
pub struct SpillDriver<S = HrmsScheduler> {
    scheduler: S,
    options: SpillDriverOptions,
}

impl SpillDriver<HrmsScheduler> {
    /// Driver with the paper's HRMS core scheduler.
    pub fn new(options: SpillDriverOptions) -> Self {
        SpillDriver { scheduler: HrmsScheduler::new(), options }
    }
}

impl<S: Scheduler> SpillDriver<S> {
    /// Driver with a custom scheduler (the method is scheduler-agnostic —
    /// the convergence safeguards live in the graph rewrite, not here).
    pub fn with_scheduler(scheduler: S, options: SpillDriverOptions) -> Self {
        SpillDriver { scheduler, options }
    }

    /// The driver's options.
    pub fn options(&self) -> &SpillDriverOptions {
        &self.options
    }

    /// Runs the iterative spilling loop for a register budget of `regs`.
    ///
    /// # Errors
    ///
    /// [`SpillFailure`] when the loop cannot fit (nothing left to spill),
    /// the round cap is hit, or scheduling fails outright.
    pub fn run(
        &self,
        ddg: &Ddg,
        machine: &MachineConfig,
        regs: u32,
    ) -> Result<SpillOutcome, SpillFailure> {
        let mut g = ddg.clone();
        let mut trace: Vec<SpillTracePoint> = Vec::new();
        let mut spilled = 0u32;
        let mut reschedules = 0u32;
        let mut iis_explored = 0u32;
        // No allocation observed yet: failing before the first round must
        // report "n/a", not a u32::MAX sentinel leaking into messages.
        let mut best: Option<u32> = None;
        let mut prev_ii: Option<u32> = None;

        loop {
            // Cooperative deadline check-point: one per spill round.
            regpipe_sched::deadline::check();
            if reschedules >= self.options.max_rounds {
                return Err(SpillFailure {
                    kind: SpillFailureKind::RoundCap,
                    best_regs: best,
                    trace,
                });
            }
            // One analysis context per spill round: every II probe of this
            // round's schedule call shares it, and the spill rewrite at the
            // end of the round is the only thing that invalidates it.
            let ctx = LoopAnalysis::new(&g, machine);
            let current_mii = ctx.mii();
            let min_ii = if self.options.last_ii_pruning {
                prev_ii.map(|p| p.max(current_mii))
            } else {
                None
            };
            let sched = match self
                .scheduler
                .schedule_in(&ctx, &SchedRequest { min_ii, max_ii: None })
            {
                Ok(s) => s,
                Err(e) => {
                    return Err(SpillFailure {
                        kind: SpillFailureKind::Sched(e),
                        best_regs: best,
                        trace,
                    })
                }
            };
            drop(ctx);
            reschedules += 1;
            iis_explored += sched.iis_tried();
            let allocation = allocate(&g, &sched);
            best = Some(best.map_or(allocation.total(), |b| b.min(allocation.total())));
            trace.push(SpillTracePoint {
                spilled,
                mii: current_mii,
                ii: sched.ii(),
                regs: allocation.total(),
                memory_ops: g.memory_ops() as u32,
                memory_utilization: memory_utilization(&g, machine, &sched),
            });

            if allocation.total() <= regs {
                return Ok(SpillOutcome {
                    ddg: g,
                    schedule: sched,
                    allocation,
                    spilled,
                    reschedules,
                    iis_explored,
                    trace,
                });
            }

            // Select and apply victims. Ranking is delegated to the
            // configured policy; the round counter feeds the stress
            // policy's rotation.
            let analysis = LifetimeAnalysis::new(&g, &sched);
            let pool = candidates(&g, &analysis);
            let rank_ctx = RankContext {
                analysis: &analysis,
                heuristic: self.options.heuristic,
                round: reschedules as usize,
            };
            let policy = self.options.policy;
            let victims: Vec<_> = if self.options.multi_spill {
                let batch = policy
                    .select_batch(&pool, &rank_ctx, regs)
                    .into_iter()
                    .cloned()
                    .collect::<Vec<_>>();
                if batch.is_empty() {
                    // The optimistic estimate already sits below budget but
                    // the real allocation does not: force progress.
                    policy.select(&pool, &rank_ctx).into_iter().cloned().collect()
                } else {
                    batch
                }
            } else {
                policy.select(&pool, &rank_ctx).into_iter().cloned().collect()
            };
            if victims.is_empty() {
                if self.options.ii_relief {
                    return self.ii_relief(
                        g,
                        machine,
                        regs,
                        sched.ii(),
                        spilled,
                        reschedules,
                        iis_explored,
                        best,
                        trace,
                    );
                }
                return Err(SpillFailure {
                    kind: SpillFailureKind::Unspillable,
                    best_regs: best,
                    trace,
                });
            }
            // The one DDG mutation point of the driver: any LoopAnalysis of
            // `g` is stale from here on and is rebuilt next round.
            spill_batch(&mut g, &victims);
            spilled += victims.len() as u32;
            prev_ii = Some(sched.ii());
        }
    }

    /// Final fallback: everything spillable is spilled, so all remaining
    /// lifetimes are short and bonded — raising the II now reliably shrinks
    /// the pressure. Sweep upward until the budget fits or the schedule
    /// degenerates to one stage.
    #[allow(clippy::too_many_arguments)]
    fn ii_relief(
        &self,
        g: Ddg,
        machine: &MachineConfig,
        regs: u32,
        from_ii: u32,
        spilled: u32,
        mut reschedules: u32,
        mut iis_explored: u32,
        mut best: Option<u32>,
        mut trace: Vec<SpillTracePoint>,
    ) -> Result<SpillOutcome, SpillFailure> {
        // The graph no longer changes in this phase: one context serves
        // every sweep iteration. Scoped so `g` can be moved into the
        // outcome once the sweep settles.
        let fitted = {
            let ctx = LoopAnalysis::new(&g, machine);
            let mut ii = from_ii + 1;
            loop {
                // Cooperative deadline check-point: one per sweep step.
                regpipe_sched::deadline::check();
                if reschedules >= self.options.max_rounds {
                    break Err(SpillFailureKind::RoundCap);
                }
                let sched = match self
                    .scheduler
                    .schedule_in(&ctx, &SchedRequest { min_ii: Some(ii), max_ii: None })
                {
                    Ok(s) => s,
                    Err(e) => break Err(SpillFailureKind::Sched(e)),
                };
                reschedules += 1;
                iis_explored += sched.iis_tried();
                let allocation = allocate(&g, &sched);
                best = Some(best.map_or(allocation.total(), |b| b.min(allocation.total())));
                trace.push(SpillTracePoint {
                    spilled,
                    mii: ctx.mii(),
                    ii: sched.ii(),
                    regs: allocation.total(),
                    memory_ops: g.memory_ops() as u32,
                    memory_utilization: memory_utilization(&g, machine, &sched),
                });
                if allocation.total() <= regs {
                    break Ok((sched, allocation));
                }
                if sched.stage_count() == 1 {
                    // No overlap left: this is the loop's true floor.
                    break Err(SpillFailureKind::Unspillable);
                }
                ii = sched.ii() + 1;
            }
        };
        match fitted {
            Ok((schedule, allocation)) => Ok(SpillOutcome {
                ddg: g,
                schedule,
                allocation,
                spilled,
                reschedules,
                iis_explored,
                trace,
            }),
            Err(kind) => Err(SpillFailure { kind, best_regs: best, trace }),
        }
    }
}

/// Memory-unit utilization of `schedule`, in percent.
fn memory_utilization(ddg: &Ddg, machine: &MachineConfig, schedule: &Schedule) -> f64 {
    let mut mrt = Mrt::new(machine, schedule.ii());
    for (id, node) in ddg.ops() {
        if node.kind().is_memory() {
            // Placement always fits: the schedule was verified resource-legal.
            mrt.place(node.kind(), schedule.start(id));
        }
    }
    mrt.memory_utilization()
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};

    fn fig2() -> Ddg {
        let mut b = DdgBuilder::new("fig2");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg_dist(ld, add, 3);
        b.reg(mul, add);
        b.reg(add, st);
        b.build().unwrap()
    }

    /// A loop the increase-II strategy cannot fit in 16 registers but
    /// spilling can: wide long-distance taps whose consumers are pinned by
    /// zero-distance uses of the same values.
    fn taps() -> Ddg {
        let mut b = DdgBuilder::new("taps");
        for i in 0..7 {
            let ld = b.add_op(OpKind::Load, format!("ld{i}"));
            let add = b.add_op(OpKind::Add, format!("a{i}"));
            let st = b.add_op(OpKind::Store, format!("s{i}"));
            b.reg(ld, add);
            b.reg_dist(ld, add, 5);
            b.reg(add, st);
        }
        b.build().unwrap()
    }

    #[test]
    fn no_spill_needed_under_generous_budget() {
        let g = fig2();
        let m = MachineConfig::uniform(4, 2);
        let out = SpillDriver::new(SpillDriverOptions::default()).run(&g, &m, 32).unwrap();
        assert_eq!(out.spilled, 0);
        assert_eq!(out.reschedules, 1);
        assert_eq!(out.schedule.ii(), 1);
    }

    #[test]
    fn spilling_reaches_tight_budget_on_fig2() {
        let g = fig2();
        let m = MachineConfig::uniform(4, 2);
        let out = SpillDriver::new(SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLt))
            .run(&g, &m, 5)
            .unwrap();
        assert!(out.allocation.total() <= 5);
        assert!(out.spilled >= 1);
        out.schedule.verify(&out.ddg, &m).unwrap();
    }

    #[test]
    fn spilling_succeeds_where_increase_ii_cannot() {
        let g = taps();
        let m = MachineConfig::p2l4();
        let out = SpillDriver::new(SpillDriverOptions::default()).run(&g, &m, 16).unwrap();
        assert!(out.allocation.total() <= 16);
        assert!(out.spilled > 0);
        out.schedule.verify(&out.ddg, &m).unwrap();
        // Spilling adds memory traffic.
        assert!(out.memory_ops() > 14);
    }

    #[test]
    fn multi_spill_uses_fewer_reschedules() {
        let g = taps();
        let m = MachineConfig::p2l4();
        let slow = SpillDriver::new(SpillDriverOptions {
            heuristic: SelectHeuristic::MaxLt,
            multi_spill: false,
            last_ii_pruning: false,
            ii_relief: true,
            max_rounds: 1024,
            ..SpillDriverOptions::default()
        })
        .run(&g, &m, 16)
        .unwrap();
        let fast = SpillDriver::new(SpillDriverOptions {
            heuristic: SelectHeuristic::MaxLt,
            multi_spill: true,
            last_ii_pruning: false,
            ii_relief: true,
            max_rounds: 1024,
            ..SpillDriverOptions::default()
        })
        .run(&g, &m, 16)
        .unwrap();
        assert!(
            fast.reschedules < slow.reschedules,
            "batch spilling must reduce rescheduling ({} vs {})",
            fast.reschedules,
            slow.reschedules
        );
    }

    #[test]
    fn last_ii_pruning_explores_fewer_iis() {
        let g = taps();
        let m = MachineConfig::p1l4();
        let base = SpillDriver::new(SpillDriverOptions {
            heuristic: SelectHeuristic::MaxLtOverTraffic,
            multi_spill: false,
            last_ii_pruning: false,
            ii_relief: true,
            max_rounds: 1024,
            ..SpillDriverOptions::default()
        })
        .run(&g, &m, 12)
        .unwrap();
        let pruned = SpillDriver::new(SpillDriverOptions {
            heuristic: SelectHeuristic::MaxLtOverTraffic,
            multi_spill: false,
            last_ii_pruning: true,
            ii_relief: true,
            max_rounds: 1024,
            ..SpillDriverOptions::default()
        })
        .run(&g, &m, 12)
        .unwrap();
        assert!(
            pruned.iis_explored <= base.iis_explored,
            "pruning must not explore more IIs ({} vs {})",
            pruned.iis_explored,
            base.iis_explored
        );
        // Both must still deliver a fitting schedule.
        assert!(pruned.allocation.total() <= 12);
        assert!(base.allocation.total() <= 12);
    }

    #[test]
    fn trace_records_every_reschedule() {
        let g = taps();
        let m = MachineConfig::p2l4();
        let out = SpillDriver::new(SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLt))
            .run(&g, &m, 16)
            .unwrap();
        assert_eq!(out.trace.len() as u32, out.reschedules);
        assert_eq!(out.trace.last().unwrap().regs, out.allocation.total());
        // Spill counts are non-decreasing along the trace.
        for w in out.trace.windows(2) {
            assert!(w[1].spilled >= w[0].spilled);
            assert!(w[1].memory_ops >= w[0].memory_ops);
        }
    }

    #[test]
    fn impossible_budget_reports_unspillable() {
        let g = taps();
        let m = MachineConfig::p2l4();
        let err = SpillDriver::new(SpillDriverOptions::default()).run(&g, &m, 0).unwrap_err();
        assert!(matches!(err.kind, SpillFailureKind::Unspillable | SpillFailureKind::RoundCap));
    }

    /// Regression: with `max_rounds = 0` the driver fails before any
    /// schedule/allocate round, so there is no best requirement to report.
    /// `best_regs` used to be a `u32::MAX` sentinel that leaked into the
    /// message as "4294967295 registers"; it must render as "n/a" now.
    #[test]
    fn round_cap_before_first_round_reports_no_best_regs() {
        let g = taps();
        let m = MachineConfig::p2l4();
        let err = SpillDriver::new(SpillDriverOptions {
            max_rounds: 0,
            ..SpillDriverOptions::default()
        })
        .run(&g, &m, 16)
        .unwrap_err();
        assert_eq!(err.kind, SpillFailureKind::RoundCap);
        assert_eq!(err.best_regs, None);
        let message = err.to_string();
        assert!(message.contains("n/a"), "message renders n/a: {message}");
        assert!(!message.contains("4294967295"), "sentinel leaked: {message}");
        // Once at least one round completes, the observation is real again.
        let err = SpillDriver::new(SpillDriverOptions {
            max_rounds: 1,
            ..SpillDriverOptions::default()
        })
        .run(&g, &m, 16)
        .unwrap_err();
        assert!(err.best_regs.is_some());
    }
}
