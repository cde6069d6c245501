//! The `regpipe gap` harness: heuristic optimality gaps against the exact
//! branch-and-bound oracle, rendered as `BENCH_gap.json` (schema
//! `regpipe-bench-gap/v2`; v2 added the per-spill-policy section).
//!
//! Every loop is scheduled once by [`ExactScheduler`] and once by each
//! registered heuristic ([`gap_heuristics`]), all sharing one
//! [`LoopAnalysis`] context. The report records per-loop and aggregate
//! II/SC/MaxLive gaps (`heuristic − exact`), the oracle's
//! `Proven`/`BudgetExhausted` status, and its node counts. Gap fields are
//! only attributed to loops whose optimum the oracle *proved*: against an
//! unproven best-effort schedule a difference is not an optimality gap.
//!
//! Alongside the scheduler comparison, every loop is also compiled under
//! a fixed register budget once per registered [`SpillPolicyKind`]; the
//! report's `spill_policies` section totals spill counts and achieved IIs
//! per policy — restricted to the loops every policy fitted, so the
//! deltas against the baseline policy (`--spill-policy`) compare
//! identical loop sets.
//!
//! The report carries no wall-clock fields at all — unlike `BENCH_suite`
//! there is no timing opt-in — so runs byte-compare
//! across machines and `--jobs` values unconditionally (per-loop work is
//! fanned out with [`parallel_map`] and folded in loop order).

use std::num::NonZeroUsize;

use regpipe_core::{compile, CompileOptions, SpillPolicyKind};
use regpipe_exec::json::{self, Value};
use regpipe_exec::parallel_map;
use regpipe_loops::BenchLoop;
use regpipe_machine::MachineConfig;
use regpipe_regalloc::allocate;
use regpipe_sched::{ExactScheduler, LoopAnalysis, SchedRequest, Scheduler, SchedulerKind};

/// Default register budget for the per-spill-policy comparison
/// (`--spill-budget`): tight enough that small generated kernels actually
/// spill, loose enough that every policy usually fits.
pub const DEFAULT_SPILL_BUDGET: u32 = 16;

/// The heuristic side of the comparison: every registered scheduler
/// except the oracle itself, in registry order.
pub fn gap_heuristics() -> impl Iterator<Item = SchedulerKind> {
    SchedulerKind::ALL.into_iter().filter(|k| *k != SchedulerKind::Exact)
}

/// Configuration of one `regpipe gap` run.
#[derive(Clone, Debug)]
pub struct GapConfig {
    /// Machine model every schedule targets.
    pub machine: MachineConfig,
    /// The oracle's search budget per loop (`--node-budget`).
    pub node_budget: u64,
    /// Worker threads for the per-loop fan-out.
    pub jobs: NonZeroUsize,
    /// Where the loops came from (recorded in the report, e.g.
    /// `gen:seed=7,count=100,max_ops=12` or `corpus:<dir>`).
    pub source: String,
    /// Baseline policy the per-policy deltas are taken against
    /// (`--spill-policy`).
    pub spill_policy: SpillPolicyKind,
    /// Register budget for the per-policy compile comparison
    /// (`--spill-budget`).
    pub spill_budget: u32,
}

/// One schedule's quality numbers: the three axes the paper evaluates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SchedPoint {
    /// Initiation interval.
    pub ii: u32,
    /// Stage count.
    pub sc: u32,
    /// MaxLive plus invariants — the actual register requirement.
    pub max_live: u32,
}

/// One spill policy's compile outcome on one loop (`None` when the loop
/// did not fit the spill budget under that policy).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpillOutcome {
    /// Achieved initiation interval of the budgeted compile.
    pub ii: u32,
    /// Lifetimes spilled to fit the budget.
    pub spilled: u32,
}

/// One loop's oracle outcome next to every heuristic's schedule.
#[derive(Clone, Debug)]
pub struct LoopGap {
    /// Loop name (corpus file stem or generator serial).
    pub name: String,
    /// The oracle's (best-found) schedule quality.
    pub exact: SchedPoint,
    /// Whether the oracle *proved* `exact.ii` optimal within its budget.
    pub proven: bool,
    /// Search nodes the oracle charged.
    pub nodes: u64,
    /// One point per heuristic, in [`gap_heuristics`] order.
    pub heuristics: Vec<SchedPoint>,
    /// One budgeted-compile outcome per policy, in
    /// [`SpillPolicyKind::ALL`] order.
    pub spill: Vec<Option<SpillOutcome>>,
}

/// Aggregate of one spill policy over the comparable subset of a run
/// (the loops *every* policy fitted, so totals compare like with like).
#[derive(Clone, Copy, Debug)]
pub struct SpillPolicyAggregate {
    /// Which policy.
    pub policy: SpillPolicyKind,
    /// Loops this policy fitted within the budget (over all loops, not
    /// just the comparable subset).
    pub fitted: u32,
    /// Σ spilled lifetimes over the comparable subset.
    pub spilled_total: u64,
    /// Σ achieved II over the comparable subset.
    pub ii_total: u64,
    /// `spilled_total − baseline.spilled_total` (0 for the baseline).
    pub spilled_delta: i64,
    /// `ii_total − baseline.ii_total` (0 for the baseline).
    pub ii_delta: i64,
}

/// Aggregate gaps of one heuristic over the proven subset of a run.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerAggregate {
    /// Which heuristic.
    pub scheduler: SchedulerKind,
    /// Proven loops where the heuristic achieved the optimal II.
    pub ii_optimal: u32,
    /// Σ `heuristic II − optimal II` over proven loops (never negative:
    /// a heuristic II below a proven optimum would disprove the proof).
    pub ii_gap_total: u64,
    /// Σ `heuristic SC − exact SC` over proven loops (can be negative —
    /// the oracle optimizes II first, span second).
    pub sc_gap_total: i64,
    /// Σ `heuristic MaxLive − exact MaxLive` over proven loops (can be
    /// negative — the oracle does not optimize register pressure).
    pub max_live_gap_total: i64,
}

/// The collected result of a gap run.
#[derive(Clone, Debug)]
pub struct GapReport {
    /// The configuration that produced it.
    pub config: GapConfig,
    /// One entry per loop, in corpus order.
    pub loops: Vec<LoopGap>,
}

/// Runs the comparison: every loop through the oracle and every
/// registered heuristic. Results are identical for any worker count.
pub fn run_gap(loops: &[BenchLoop], config: &GapConfig) -> GapReport {
    let oracle = ExactScheduler::with_budget(config.node_budget);
    let per_loop = parallel_map(loops, config.jobs, |_, l| {
        let ctx = LoopAnalysis::new(&l.ddg, &config.machine);
        let request = SchedRequest::default();
        let outcome = oracle.solve_in(&ctx, &request).expect("corpus loops are schedulable");
        let heuristics = gap_heuristics()
            .map(|k| {
                let s = k.schedule_in(&ctx, &request).expect("corpus loops are schedulable");
                point(l, &s)
            })
            .collect();
        let spill = SpillPolicyKind::ALL
            .into_iter()
            .map(|policy| {
                let options = CompileOptions::with_spill_policy(policy);
                compile(&l.ddg, &config.machine, config.spill_budget, &options)
                    .ok()
                    .map(|c| SpillOutcome { ii: c.ii(), spilled: c.spilled() })
            })
            .collect();
        LoopGap {
            name: l.name.clone(),
            exact: point(l, &outcome.schedule),
            proven: outcome.proven(),
            nodes: outcome.nodes,
            heuristics,
            spill,
        }
    });
    GapReport { config: config.clone(), loops: per_loop }
}

fn point(l: &BenchLoop, s: &regpipe_sched::Schedule) -> SchedPoint {
    let a = allocate(&l.ddg, s);
    SchedPoint { ii: s.ii(), sc: s.stage_count(), max_live: a.max_live() }
}

impl GapReport {
    /// Loops whose optimal II the oracle proved.
    pub fn proven(&self) -> u32 {
        self.loops.iter().filter(|l| l.proven).count() as u32
    }

    /// Σ search nodes over all loops.
    pub fn nodes_total(&self) -> u64 {
        self.loops.iter().map(|l| l.nodes).sum()
    }

    /// Aggregates per heuristic (over the proven subset), in
    /// [`gap_heuristics`] order.
    pub fn aggregates(&self) -> Vec<SchedulerAggregate> {
        gap_heuristics()
            .enumerate()
            .map(|(i, scheduler)| {
                let mut agg = SchedulerAggregate {
                    scheduler,
                    ii_optimal: 0,
                    ii_gap_total: 0,
                    sc_gap_total: 0,
                    max_live_gap_total: 0,
                };
                for l in self.loops.iter().filter(|l| l.proven) {
                    let h = l.heuristics[i];
                    if h.ii == l.exact.ii {
                        agg.ii_optimal += 1;
                    }
                    agg.ii_gap_total += u64::from(h.ii - l.exact.ii);
                    agg.sc_gap_total += i64::from(h.sc) - i64::from(l.exact.sc);
                    agg.max_live_gap_total +=
                        i64::from(h.max_live) - i64::from(l.exact.max_live);
                }
                agg
            })
            .collect()
    }

    /// Loops that fitted the spill budget under *every* registered
    /// policy — the subset the per-policy totals and deltas range over.
    pub fn spill_comparable(&self) -> u32 {
        self.loops.iter().filter(|l| l.spill.iter().all(Option::is_some)).count() as u32
    }

    /// Per-policy totals and deltas against the configured baseline
    /// policy, in [`SpillPolicyKind::ALL`] order.
    pub fn spill_aggregates(&self) -> Vec<SpillPolicyAggregate> {
        let comparable: Vec<&LoopGap> =
            self.loops.iter().filter(|l| l.spill.iter().all(Option::is_some)).collect();
        let totals: Vec<SpillPolicyAggregate> = SpillPolicyKind::ALL
            .into_iter()
            .enumerate()
            .map(|(i, policy)| {
                let mut agg = SpillPolicyAggregate {
                    policy,
                    fitted: self.loops.iter().filter(|l| l.spill[i].is_some()).count() as u32,
                    spilled_total: 0,
                    ii_total: 0,
                    spilled_delta: 0,
                    ii_delta: 0,
                };
                for l in &comparable {
                    let o = l.spill[i].expect("comparable loops fitted every policy");
                    agg.spilled_total += u64::from(o.spilled);
                    agg.ii_total += u64::from(o.ii);
                }
                agg
            })
            .collect();
        let baseline_index = SpillPolicyKind::ALL
            .into_iter()
            .position(|p| p == self.config.spill_policy)
            .expect("the baseline policy is registered");
        let baseline = totals[baseline_index];
        totals
            .into_iter()
            .map(|mut agg| {
                agg.spilled_delta = agg.spilled_total as i64 - baseline.spilled_total as i64;
                agg.ii_delta = agg.ii_total as i64 - baseline.ii_total as i64;
                agg
            })
            .collect()
    }

    /// Renders `BENCH_gap.json` (schema `regpipe-bench-gap/v2`; v2 added
    /// the `spill_policy`/`spill_budget`/`spill_comparable`/
    /// `spill_policies` fields). Every field is deterministic; there are
    /// no timing fields to opt into.
    pub fn to_json(&self) -> String {
        let proven = self.proven();
        let aggregate = self
            .aggregates()
            .iter()
            .map(|a| {
                Value::Object(vec![
                    ("scheduler".into(), Value::Str(a.scheduler.slug().into())),
                    ("ii_optimal".into(), Value::uint(u64::from(a.ii_optimal))),
                    ("ii_gap_total".into(), Value::uint(a.ii_gap_total)),
                    ("sc_gap_total".into(), Value::Int(a.sc_gap_total)),
                    ("max_live_gap_total".into(), Value::Int(a.max_live_gap_total)),
                ])
            })
            .collect();
        let per_loop = self
            .loops
            .iter()
            .map(|l| {
                let schedulers = gap_heuristics()
                    .zip(&l.heuristics)
                    .map(|(k, h)| {
                        let mut pairs = vec![
                            ("scheduler".into(), Value::Str(k.slug().into())),
                            ("ii".into(), Value::uint(u64::from(h.ii))),
                            ("sc".into(), Value::uint(u64::from(h.sc))),
                            ("max_live".into(), Value::uint(u64::from(h.max_live))),
                        ];
                        if l.proven {
                            pairs.push((
                                "ii_gap".into(),
                                Value::uint(u64::from(h.ii - l.exact.ii)),
                            ));
                            pairs.push((
                                "sc_gap".into(),
                                Value::Int(i64::from(h.sc) - i64::from(l.exact.sc)),
                            ));
                            pairs.push((
                                "max_live_gap".into(),
                                Value::Int(i64::from(h.max_live) - i64::from(l.exact.max_live)),
                            ));
                        }
                        Value::Object(pairs)
                    })
                    .collect();
                Value::Object(vec![
                    ("name".into(), Value::Str(l.name.clone())),
                    ("proven".into(), Value::Bool(l.proven)),
                    ("nodes".into(), Value::uint(l.nodes)),
                    (
                        "exact".into(),
                        Value::Object(vec![
                            ("ii".into(), Value::uint(u64::from(l.exact.ii))),
                            ("sc".into(), Value::uint(u64::from(l.exact.sc))),
                            ("max_live".into(), Value::uint(u64::from(l.exact.max_live))),
                        ]),
                    ),
                    ("schedulers".into(), Value::Array(schedulers)),
                ])
            })
            .collect();
        let spill_policies = self
            .spill_aggregates()
            .iter()
            .map(|a| {
                Value::Object(vec![
                    ("policy".into(), Value::Str(a.policy.slug().into())),
                    ("fitted".into(), Value::uint(u64::from(a.fitted))),
                    ("spilled_total".into(), Value::uint(a.spilled_total)),
                    ("ii_total".into(), Value::uint(a.ii_total)),
                    ("spilled_delta".into(), Value::Int(a.spilled_delta)),
                    ("ii_delta".into(), Value::Int(a.ii_delta)),
                ])
            })
            .collect();
        let top = vec![
            ("machine".into(), Value::Str(self.config.machine.name().to_string())),
            ("source".into(), Value::Str(self.config.source.clone())),
            ("node_budget".into(), Value::uint(self.config.node_budget)),
            ("loops".into(), Value::uint(self.loops.len() as u64)),
            ("proven".into(), Value::uint(u64::from(proven))),
            ("unproven".into(), Value::uint(self.loops.len() as u64 - u64::from(proven))),
            ("nodes_total".into(), Value::uint(self.nodes_total())),
            ("spill_policy".into(), Value::Str(self.config.spill_policy.slug().into())),
            ("spill_budget".into(), Value::uint(u64::from(self.config.spill_budget))),
            ("spill_comparable".into(), Value::uint(u64::from(self.spill_comparable()))),
            ("spill_policies".into(), Value::Array(spill_policies)),
            ("aggregate".into(), Value::Array(aggregate)),
            ("per_loop".into(), Value::Array(per_loop)),
        ];
        json::report("regpipe-bench-gap/v2", top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_loops::{generate, GenParams};
    use regpipe_sched::DEFAULT_NODE_BUDGET;

    fn small_corpus(count: usize) -> Vec<BenchLoop> {
        let params = GenParams { min_ops: 2, max_ops: 8, ..GenParams::default() };
        generate(7, count, &params).unwrap()
    }

    fn config(node_budget: u64) -> GapConfig {
        GapConfig {
            machine: MachineConfig::p2l4(),
            node_budget,
            jobs: NonZeroUsize::new(2).unwrap(),
            source: "test".into(),
            spill_policy: SpillPolicyKind::default(),
            spill_budget: DEFAULT_SPILL_BUDGET,
        }
    }

    #[test]
    fn report_is_deterministic_across_worker_counts() {
        let loops = small_corpus(12);
        let a = run_gap(&loops, &config(DEFAULT_NODE_BUDGET)).to_json();
        let b = run_gap(
            &loops,
            &GapConfig { jobs: NonZeroUsize::new(5).unwrap(), ..config(DEFAULT_NODE_BUDGET) },
        )
        .to_json();
        assert_eq!(a, b, "worker count changed BENCH_gap.json bytes");
        assert!(!a.contains("wall"), "gap reports never carry timing");
        let doc = regpipe_exec::json::parse(&a).expect("report parses");
        assert_eq!(doc.get("schema"), Some(&Value::Str("regpipe-bench-gap/v2".into())));
        assert_eq!(doc.get("per_loop").and_then(Value::as_array).map(<[Value]>::len), Some(12));
    }

    #[test]
    fn proven_loops_never_show_a_negative_ii_gap() {
        let loops = small_corpus(15);
        let report = run_gap(&loops, &config(DEFAULT_NODE_BUDGET));
        assert!(report.proven() > 0, "small kernels must mostly prove");
        for l in report.loops.iter().filter(|l| l.proven) {
            for h in &l.heuristics {
                assert!(
                    h.ii >= l.exact.ii,
                    "{}: heuristic II {} below proven optimum {}",
                    l.name,
                    h.ii,
                    l.exact.ii
                );
            }
        }
    }

    #[test]
    fn spill_section_covers_every_policy_and_zeroes_the_baseline_deltas() {
        let loops = small_corpus(12);
        let report = run_gap(&loops, &config(DEFAULT_NODE_BUDGET));
        let aggs = report.spill_aggregates();
        assert_eq!(aggs.len(), SpillPolicyKind::ALL.len());
        assert!(report.spill_comparable() > 0, "small kernels must fit budget 16");
        let baseline = aggs
            .iter()
            .find(|a| a.policy == SpillPolicyKind::Paper)
            .expect("the baseline is registered");
        assert_eq!((baseline.spilled_delta, baseline.ii_delta), (0, 0));
        // A non-paper baseline re-centres the deltas, nothing else.
        let recentred = GapReport {
            config: GapConfig {
                spill_policy: SpillPolicyKind::MinNextUse,
                ..report.config.clone()
            },
            loops: report.loops.clone(),
        };
        let shifted = recentred.spill_aggregates();
        let minu = shifted.iter().find(|a| a.policy == SpillPolicyKind::MinNextUse).unwrap();
        assert_eq!((minu.spilled_delta, minu.ii_delta), (0, 0));
        for (a, b) in aggs.iter().zip(&shifted) {
            assert_eq!((a.spilled_total, a.ii_total), (b.spilled_total, b.ii_total));
        }
        let text = report.to_json();
        for policy in SpillPolicyKind::ALL {
            assert!(
                text.contains(&format!("\"policy\":\"{}\"", policy.slug())),
                "missing {policy} in:\n{text}"
            );
        }
    }

    #[test]
    fn zero_budget_runs_report_everything_unproven() {
        let loops = small_corpus(5);
        let report = run_gap(&loops, &config(0));
        assert_eq!(report.proven(), 0);
        let text = report.to_json();
        assert!(!text.contains("\"ii_gap\":"), "no gap fields without a proof:\n{text}");
        // Aggregates over an empty proven subset are all zero.
        for a in report.aggregates() {
            assert_eq!((a.ii_optimal, a.ii_gap_total), (0, 0));
        }
    }
}
