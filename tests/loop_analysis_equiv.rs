//! Equivalence gate for the `LoopAnalysis` caching layer, and the trace
//! contract of `compile`.
//!
//! The per-loop analysis context must be a pure optimization: every
//! schedule, allocation, spill decision, provenance counter and trace
//! point has to be byte-identical whether `compile` shares one context
//! across probes and rounds (the production path) or a `LoopRow` over a
//! wrapper scheduler whose `schedule_in` ignores the context it is handed
//! rebuilds everything from scratch on every scheduler call (the reference
//! path). A second family of properties checks cache *invalidation*:
//! after each spill rewrite, a context rebuilt on the mutated graph agrees
//! with the standalone computations (groups, MII, RecMII, ordering,
//! schedules) on that graph. A third checks that a `LoopRow`, which shares
//! rounds and spill runs across a loop's budget × strategy cells, returns
//! for every cell exactly what a lone `compile` does.

use proptest::prelude::*;

use regpipe::core::{CompileError, CompiledLoop, LoopRow, Strategy};
use regpipe::ddg::Ddg;
use regpipe::loops::paper::example_loop;
use regpipe::loops::{generate, suite, GenParams};
use regpipe::machine::MachineConfig;
use regpipe::prelude::*;
use regpipe::regalloc::LifetimeAnalysis;
use regpipe::sched::{
    mii, rec_mii, ComplexGroups, LoopAnalysis, SchedError, SchedRequest, Schedule,
};
use regpipe::spill::{candidates, spill_batch, RankContext};

/// Reference scheduler: delegates to HRMS but rebuilds the loop's context
/// on every `schedule_in` call instead of using the one it is handed.
/// Compiles run over this wrapper redo all II-independent analysis per
/// scheduler call — the pre-cache behaviour.
struct UncachedHrms;

impl Scheduler for UncachedHrms {
    fn schedule_in(
        &self,
        ctx: &LoopAnalysis<'_>,
        request: &SchedRequest,
    ) -> Result<Schedule, SchedError> {
        SchedulerKind::Hrms.schedule(ctx.ddg(), ctx.machine(), request)
    }
}

fn paper_machines() -> [MachineConfig; 3] {
    [MachineConfig::p1l4(), MachineConfig::p2l4(), MachineConfig::p2l6()]
}

/// One generated kernel per (seed, size) point; generation is deterministic
/// and always yields valid, finitely schedulable kernels.
fn kernel(seed: u64, ops: usize) -> Ddg {
    let params = GenParams { min_ops: ops, max_ops: ops, ..GenParams::default() };
    generate(seed, 1, &params).expect("valid knobs").remove(0).ddg
}

const STRATEGIES: [Strategy; 3] = [Strategy::IncreaseIi, Strategy::Spill, Strategy::BestOfAll];

/// Asserts two compile results are the same in every observable field.
fn assert_same_compile(
    cached: &Result<CompiledLoop, CompileError>,
    reference: &Result<CompiledLoop, CompileError>,
) {
    match (cached, reference) {
        (Ok(c), Ok(r)) => {
            assert_eq!(
                regpipe::ddg::textfmt::format(c.ddg()),
                regpipe::ddg::textfmt::format(r.ddg())
            );
            assert_eq!(c.schedule(), r.schedule());
            assert_eq!(c.allocation(), r.allocation());
            assert_eq!(c.strategy_used(), r.strategy_used());
            assert_eq!(c.spilled(), r.spilled());
            assert_eq!(c.reschedules(), r.reschedules());
            assert_eq!(c.trace(), r.trace());
        }
        (Err(c), Err(r)) => {
            let (cf, rf) = (c.failure(), r.failure());
            assert_eq!(cf.kind, rf.kind);
            assert_eq!(cf.best_regs, rf.best_regs);
            assert_eq!(cf.trace, rf.trace);
            assert_eq!(c.to_string(), r.to_string());
        }
        (c, r) => {
            panic!("outcomes diverged: cached ok={} reference ok={}", c.is_ok(), r.is_ok())
        }
    }
}

/// One round of the hand-run spill pipeline: allocate `s`, pick the paper
/// policy's victims and rewrite `g`. Returns false, leaving `g` as it was,
/// when the schedule fits `budget` or there is nothing to spill.
fn spill_step(g: &mut Ddg, s: &Schedule, budget: u32) -> bool {
    let analysis = LifetimeAnalysis::new(g, s);
    if analysis.max_live() == 0 {
        return false;
    }
    let pool = candidates(g, &analysis);
    let heuristic = SelectHeuristic::MaxLtOverTraffic;
    let rank = RankContext { analysis: &analysis, heuristic, round: 0 };
    let victims: Vec<_> =
        SpillPolicyKind::Paper.select(&pool, &rank).into_iter().cloned().collect();
    if victims.is_empty() || allocate(g, s).total() <= budget {
        return false;
    }
    spill_batch(g, &victims);
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached and uncached compiles are identical across all three
    /// strategies and all paper machines: same DDG text, same schedule
    /// (II + starts + iis_tried), same allocation, same spill/reschedule
    /// provenance, same trace, and the same error on failure.
    #[test]
    fn cached_and_uncached_compiles_are_identical(
        seed in 0u64..10_000,
        ops in 4usize..28,
        budget in prop::sample::select(vec![8u32, 16, 32, 64]),
    ) {
        let g = kernel(seed, ops);
        for machine in &paper_machines() {
            for strategy in STRATEGIES {
                let options = CompileOptions { strategy, ..CompileOptions::default() };
                let cached = compile(&g, machine, budget, &options);
                let reference =
                    LoopRow::new(&UncachedHrms, &g, machine, options.spill).compile(budget, strategy);
                assert_same_compile(&cached, &reference);
            }
        }
    }

    /// Invalidation: running the spill pipeline by hand, the context
    /// rebuilt after every rewrite agrees with from-scratch computations on
    /// the mutated graph — cached bounds, groups, and the schedules (with
    /// provenance) produced through the context.
    #[test]
    fn rebuilt_context_matches_from_scratch_after_each_spill_round(
        seed in 0u64..10_000,
        ops in 4usize..20,
        machine_idx in 0usize..3,
        budget in prop::sample::select(vec![6u32, 12, 24]),
    ) {
        let machine = paper_machines()[machine_idx].clone();
        let mut g = kernel(seed, ops);
        let scheduler = SchedulerKind::Hrms;
        for _round in 0..4 {
            let ctx = LoopAnalysis::new(&g, &machine);
            // Cached bounds match the standalone functions.
            prop_assert_eq!(ctx.mii(), mii(&g, &machine));
            prop_assert_eq!(ctx.rec_mii(), rec_mii(&g, &machine));
            // Groups match a from-scratch derivation.
            let fresh = ComplexGroups::new(&g, &machine);
            for (op, _) in g.ops() {
                prop_assert_eq!(ctx.groups().group_of(op), fresh.group_of(op));
                prop_assert_eq!(ctx.groups().offset(op), fresh.offset(op));
                prop_assert_eq!(ctx.groups().members_of(op), fresh.members_of(op));
            }
            // Scheduling through the context equals the fresh-context path,
            // provenance included.
            let via_ctx = scheduler.schedule_in(&ctx, &SchedRequest::default());
            let fresh = scheduler.schedule(&g, &machine, &SchedRequest::default());
            match (via_ctx, fresh) {
                (Ok(c), Ok(f)) => {
                    prop_assert_eq!(c.iis_tried(), f.iis_tried());
                    prop_assert_eq!(&c, &f);
                    drop(ctx);
                    if !spill_step(&mut g, &c, budget) {
                        break;
                    }
                }
                (c, f) => prop_assert!(
                    false,
                    "schedules diverged: ctx ok={} fresh ok={}",
                    c.is_ok(),
                    f.is_ok()
                ),
            }
        }
    }
}

/// `LoopAnalysis` takes RecMII from the bounds of its recurrence sets;
/// that must equal the whole-graph search of `rec_mii` on the first 300
/// loops of the built-in suite, a generated corpus and four 256-op
/// kernels, and on every graph the hand-run spill pipeline rewrites them
/// into at budgets 32 and 16, on each paper machine.
#[test]
fn rec_mii_from_recurrence_sets_equals_the_whole_graph_search() {
    let big = GenParams { min_ops: 256, max_ops: 256, ..GenParams::default() };
    let loops = suite(SUITE_SEED, 300)
        .into_iter()
        .chain(generate(7, 100, &GenParams::default()).unwrap())
        .chain(generate(SUITE_SEED, 4, &big).unwrap());
    let spill_machine = MachineConfig::p2l4();
    for l in loops {
        let mut rewritten = vec![l.ddg.clone()];
        for budget in [32, 16] {
            let mut g = l.ddg.clone();
            for _round in 0..4 {
                let request = SchedRequest::default();
                let Ok(s) = SchedulerKind::Hrms.schedule(&g, &spill_machine, &request) else {
                    break;
                };
                if !spill_step(&mut g, &s, budget) {
                    break;
                }
                rewritten.push(g.clone());
            }
        }
        for g in &rewritten {
            for machine in &paper_machines() {
                let cell = format!("{} ({} ops) on {machine}", l.name, g.num_ops());
                let from_sets = LoopAnalysis::new(g, machine).rec_mii();
                assert_eq!(from_sets, rec_mii(g, machine), "{cell}");
            }
        }
    }
}

/// The trace contract on the paper's Figure 2 loop: one point per
/// scheduler call for increase-II and spill (best-of-all's probes that
/// find no schedule record none), the effort counter is the trace's sum,
/// and the last point of increase-II and spill is the returned schedule.
/// A failure's `best_regs` is its trace's minimum.
#[test]
fn trace_has_one_point_per_round_and_sums_to_the_effort_counter() {
    let g = example_loop();
    for machine in &paper_machines() {
        for budget in [5, 7] {
            for strategy in STRATEGIES {
                let options = CompileOptions { strategy, ..CompileOptions::default() };
                let cell = format!("{} @ {budget}, {strategy:?}", machine.name());
                match compile(&g, machine, budget, &options) {
                    Ok(c) => {
                        let points = c.trace().len() as u32;
                        if strategy == Strategy::BestOfAll {
                            assert!(points <= c.reschedules(), "{cell}");
                        } else {
                            assert_eq!(points, c.reschedules(), "{cell}");
                            let last = c.trace().last().expect("at least one round");
                            assert_eq!(last.regs, c.registers_used(), "{cell}");
                            assert_eq!(last.ii, c.ii(), "{cell}");
                        }
                        let iis: u32 = c.trace().iter().map(|p| p.iis_tried).sum();
                        assert_eq!(c.iis_explored(), iis, "{cell}");
                    }
                    Err(e) => {
                        let f = e.failure();
                        assert!(!f.trace.is_empty(), "{cell}");
                        assert_eq!(f.best_regs, f.trace.iter().map(|p| p.regs).min(), "{cell}");
                        assert!(f.trace.iter().all(|p| p.regs > budget), "{cell}");
                    }
                }
            }
        }
    }
}

/// The seed of the built-in suite (`regpipe suite`).
const SUITE_SEED: u64 = 49626;

/// Every cell of a `LoopRow` equals a lone `compile` of it, field by field,
/// for each spill policy on the first `loops` loops of the built-in suite.
/// The row is asked at budgets 64,32,16 in the suite's strategy order, and
/// again at 16,32,64 with the strategies reversed, so each kind of sharing
/// (spill after best and best after spill, a sweep after a looser and
/// after a tighter budget) is met.
fn row_cells_equal_lone_compiles(scheduler: SchedulerKind, loops: usize) {
    let machine = MachineConfig::p2l4();
    let orders = [
        ([64, 32, 16], [Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi]),
        ([16, 32, 64], [Strategy::IncreaseIi, Strategy::Spill, Strategy::BestOfAll]),
    ];
    for policy in SpillPolicyKind::ALL {
        let mut options = CompileOptions::with_spill_policy(policy);
        options.scheduler = scheduler;
        for l in suite(SUITE_SEED, loops) {
            let lone: Vec<_> = [64, 32, 16]
                .into_iter()
                .flat_map(|regs| STRATEGIES.map(|strategy| (regs, strategy)))
                .map(|(regs, strategy)| {
                    let cell = CompileOptions { strategy, ..options };
                    ((regs, strategy), compile(&l.ddg, &machine, regs, &cell))
                })
                .collect();
            for (budgets, strategies) in orders {
                let mut row = LoopRow::new(&scheduler, &l.ddg, &machine, options.spill);
                for regs in budgets {
                    for strategy in strategies {
                        let cell = row.compile(regs, strategy);
                        let (_, alone) = lone
                            .iter()
                            .find(|(key, _)| *key == (regs, strategy))
                            .expect("every cell compiled alone");
                        assert_same_compile(&cell, alone);
                    }
                }
            }
        }
    }
}

#[test]
fn row_cells_equal_lone_compiles_under_hrms() {
    row_cells_equal_lone_compiles(SchedulerKind::Hrms, 40);
}

#[test]
fn row_cells_equal_lone_compiles_under_sms() {
    row_cells_equal_lone_compiles(SchedulerKind::Sms, 40);
}

#[test]
fn row_cells_equal_lone_compiles_under_asap() {
    row_cells_equal_lone_compiles(SchedulerKind::Asap, 40);
}

/// The exact oracle is slow in a debug build, so it covers fewer loops.
#[test]
fn row_cells_equal_lone_compiles_under_exact() {
    row_cells_equal_lone_compiles(SchedulerKind::Exact, 12);
}
