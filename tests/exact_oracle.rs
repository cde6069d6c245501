//! Differential tests of the exact branch-and-bound oracle
//! (`ExactScheduler`) against the whole heuristic registry:
//!
//! * over the `gen` knob space on small kernels (≤ 12 ops) and all paper
//!   machines, exact schedules verify, `exact II ≥ MII` always, and
//!   `exact II ≤ heuristic II` whenever the search proved optimality;
//! * hand-computed pins on the two `docs/algorithms.md` kernels (every
//!   number CLI-reproducible via `regpipe info --scheduler exact`) and on
//!   a recurrence-bound kernel where RecMII > ResMII;
//! * budget regressions: budgets 0 and 1 are `BudgetExhausted` with a
//!   valid best-effort schedule, and two budgets agree whenever both
//!   prove;
//! * bonded groups: node counts and optima pinned on the spilled final
//!   graphs of a generated corpus, the only loops here whose groups have
//!   members at non-zero bond offsets;
//! * the committed `BENCH_gap.json` is fresh, proves a majority of its
//!   corpus, and never reports a heuristic II below a proven optimum.

use std::num::NonZeroUsize;

use proptest::prelude::*;

use regpipe::bench::{run_gap, GapConfig, DEFAULT_SPILL_BUDGET};
use regpipe::core::{compile, CompileOptions, SpillPolicyKind, Strategy};
use regpipe::ddg::{Ddg, DdgBuilder, OpKind};
use regpipe::exec::json::{parse as parse_json, Value};
use regpipe::loops::{generate, paper, GenParams};
use regpipe::machine::{res_mii, MachineConfig};
use regpipe::regalloc::allocate;
use regpipe::sched::{
    mii, rec_mii, ExactScheduler, ExactStatus, LoopAnalysis, SchedError, SchedRequest,
    Scheduler, SchedulerKind, DEFAULT_NODE_BUDGET,
};

fn machines() -> Vec<MachineConfig> {
    vec![MachineConfig::p1l4(), MachineConfig::p2l4(), MachineConfig::p2l6()]
}

/// The heuristics the oracle is measured against.
fn heuristics() -> impl Iterator<Item = SchedulerKind> {
    SchedulerKind::ALL.into_iter().filter(|k| *k != SchedulerKind::Exact)
}

/// One small kernel from the `gen` stream — the same seed-stable
/// generator `regpipe gen` uses, so every failure replays from its knobs.
fn small_kernel(seed: u64, max_ops: usize, rec_density: f64) -> regpipe::loops::BenchLoop {
    let params = GenParams {
        min_ops: 2,
        max_ops,
        recurrence_density: rec_density,
        ..GenParams::default()
    };
    generate(seed, 1, &params).expect("knobs are valid").remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The differential harness: over the generator knob space, the
    /// oracle's schedule verifies, never beats MII, and — when the search
    /// proved optimality — is never beaten by any registered heuristic.
    #[test]
    fn exact_verifies_respects_mii_and_dominates_proven_heuristics(
        seed in any::<u64>(),
        max_ops in 2usize..=12,
        rec_pct in 0u32..=60,
        m_idx in 0usize..3,
    ) {
        let l = small_kernel(seed, max_ops, f64::from(rec_pct) / 100.0);
        let m = &machines()[m_idx];
        let ctx = LoopAnalysis::new(&l.ddg, m);
        let request = SchedRequest::default();
        let outcome = ExactScheduler::new()
            .solve_in(&ctx, &request)
            .expect("generated kernels are schedulable");
        prop_assert!(
            outcome.schedule.verify(&l.ddg, m).is_ok(),
            "invalid exact schedule: {:?}",
            outcome.schedule.verify(&l.ddg, m)
        );
        prop_assert!(
            outcome.schedule.ii() >= mii(&l.ddg, m),
            "exact II {} below MII {}",
            outcome.schedule.ii(),
            mii(&l.ddg, m)
        );
        if outcome.proven() {
            for kind in heuristics() {
                let h = kind.schedule_in(&ctx, &request).expect("schedulable");
                prop_assert!(
                    outcome.schedule.ii() <= h.ii(),
                    "proven optimum {} beaten by {kind} at II {}",
                    outcome.schedule.ii(),
                    h.ii()
                );
            }
        }
    }
}

/// docs/algorithms.md kernel 1 (the paper's Figure 2 chain): the oracle
/// proves II = 1 with SC = 11 and the chain's register bill, matching
/// `regpipe info fig2.ddg --scheduler exact` byte for byte.
#[test]
fn pins_the_fig2_chain() {
    let g = paper::example_loop();
    let m = MachineConfig::p2l4();
    let outcome = ExactScheduler::new()
        .solve_in(&LoopAnalysis::new(&g, &m), &SchedRequest::default())
        .expect("fig2 schedules");
    assert_eq!(outcome.status, ExactStatus::Proven);
    assert_eq!(outcome.schedule.ii(), 1, "2 memory ops on 2 memory units");
    assert_eq!(outcome.schedule.stage_count(), 11, "the 10-cycle chain is a hard floor");
    let a = allocate(&g, &outcome.schedule);
    assert_eq!((a.total(), a.max_live()), (18, 18), "17 variants + the invariant");
}

/// docs/algorithms.md kernel 2 (the asymmetric join): the oracle proves
/// II = 2 and tightens the span to SC = 4 — the SMS schedule HRMS's
/// readiness gate misses (`regpipe info join.ddg --scheduler exact`).
#[test]
fn pins_the_algorithms_doc_join_example() {
    let mut b = DdgBuilder::new("join");
    let a = b.add_op(OpKind::Load, "a");
    let st_b = b.add_op(OpKind::Store, "b");
    let c = b.add_op(OpKind::Load, "c");
    let d = b.add_op(OpKind::Mul, "d");
    let s = b.add_op(OpKind::Store, "s");
    b.reg(a, st_b);
    b.reg(a, d);
    b.reg(c, d);
    b.reg(d, s);
    let g = b.build().unwrap();
    let m = MachineConfig::p2l4();
    let ctx = LoopAnalysis::new(&g, &m);
    let outcome =
        ExactScheduler::new().solve_in(&ctx, &SchedRequest::default()).expect("join schedules");
    assert_eq!(outcome.status, ExactStatus::Proven);
    assert_eq!(outcome.schedule.ii(), 2, "4 memory ops on 2 memory units");
    assert_eq!(outcome.schedule.stage_count(), 4, "minimum span is 7 cycles");
    let alloc = allocate(&g, &outcome.schedule);
    assert_eq!((alloc.total(), alloc.max_live()), (5, 5));
    // No heuristic does better on either axis the oracle optimizes.
    for kind in heuristics() {
        let h = kind.schedule_in(&ctx, &SchedRequest::default()).unwrap();
        assert_eq!(h.ii(), 2, "{kind}");
        assert!(h.stage_count() >= outcome.schedule.stage_count(), "{kind}");
    }
}

/// A kernel where RecMII (8) strictly exceeds ResMII, so the II sweep's
/// lower bound — and the search's difference-constraint pruning — come
/// from the recurrence cycle, not the resource count.
#[test]
fn pins_a_recurrence_bound_kernel() {
    let mut b = DdgBuilder::new("rec");
    let l = b.add_op(OpKind::Load, "l");
    let a = b.add_op(OpKind::Add, "a");
    let c = b.add_op(OpKind::Add, "c");
    b.reg(l, a);
    b.reg(a, c);
    b.reg_dist(c, a, 1);
    let g = b.build().unwrap();
    let m = MachineConfig::p2l4();
    assert!(rec_mii(&g, &m) > res_mii(&m, &g), "the recurrence must dominate");
    assert_eq!(mii(&g, &m), 8, "two latency-4 adds over distance 1");
    let outcome = ExactScheduler::new()
        .solve_in(&LoopAnalysis::new(&g, &m), &SchedRequest::default())
        .expect("rec kernel schedules");
    assert_eq!(outcome.status, ExactStatus::Proven);
    assert_eq!(outcome.schedule.ii(), 8, "MII is achievable: proven at the recurrence bound");
}

/// Budgets 0 and 1 must exhaust — never panic, never claim a proof — and
/// still hand back a valid best-effort schedule respecting MII.
#[test]
fn tiny_budgets_exhaust_with_a_valid_best_effort_schedule() {
    for budget in [0, 1] {
        for seed in [1, 7, 23, 104] {
            let l = small_kernel(seed, 10, 0.3);
            for m in &machines() {
                let outcome = ExactScheduler::with_budget(budget)
                    .solve_in(&LoopAnalysis::new(&l.ddg, m), &SchedRequest::default())
                    .expect("the heuristic incumbent always exists");
                assert_eq!(
                    outcome.status,
                    ExactStatus::BudgetExhausted,
                    "budget {budget} cannot prove anything (seed {seed}, {})",
                    m.name()
                );
                assert!(!outcome.proven());
                assert!(!outcome.span_proven);
                assert!(outcome.schedule.verify(&l.ddg, m).is_ok());
                assert!(outcome.schedule.ii() >= mii(&l.ddg, m));
            }
        }
    }
}

/// A budget that runs out before any schedule is found names the II it
/// ran out at. gen_00000 of this corpus has MII 11 on P2L4, and HRMS
/// cannot schedule it at exactly that II, so a one-node search has no
/// incumbent to fall back on.
#[test]
fn an_exhausted_search_without_incumbent_names_the_ii_it_reached() {
    let params = GenParams { min_ops: 40, max_ops: 60, ..GenParams::default() };
    let l = generate(7, 60, &params).expect("knobs are valid").remove(0);
    let m = MachineConfig::p2l4();
    let ctx = LoopAnalysis::new(&l.ddg, &m);
    let request = SchedRequest::exactly(ctx.mii());
    assert_eq!(ctx.mii(), 11);
    assert!(SchedulerKind::Hrms.schedule_in(&ctx, &request).is_err(), "no incumbent at MII");
    let err = ExactScheduler::with_budget(1).solve_in(&ctx, &request).unwrap_err();
    assert_eq!(err, SchedError::NoScheduleUpTo { max_ii: 11 });
}

/// The spilled final graphs of `compile(.., Strategy::Spill)` on
/// `generate(7, 40)` (at most 12 ops, as `regpipe gap` draws them) at
/// budgets 8 and 6 that carry a bond.
fn bonded_spill_rewrites(m: &MachineConfig) -> Vec<Ddg> {
    let params = GenParams { max_ops: 12, ..GenParams::default() };
    let corpus = generate(7, 40, &params).expect("knobs are valid");
    let options = CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() };
    let mut graphs = Vec::new();
    for regs in [8, 6] {
        for l in &corpus {
            let Ok(compiled) = compile(&l.ddg, m, regs, &options) else { continue };
            if compiled.ddg().edges().any(|e| e.is_fixed()) {
                graphs.push(compiled.ddg().clone());
            }
        }
    }
    graphs
}

/// The oracle on bonded groups: its search folds the members' bond
/// offsets into the group constraints, and no generated or suite loop has
/// a bond, so the spill rewrites pin what it proves and the nodes it
/// spends there.
#[test]
fn pins_the_oracle_on_bonded_spill_rewrites() {
    let m = MachineConfig::p2l4();
    let (mut loops, mut proven, mut ii_sum, mut span_sum, mut nodes) = (0, 0, 0, 0, 0);
    for g in bonded_spill_rewrites(&m) {
        let outcome = ExactScheduler::new()
            .solve_in(&LoopAnalysis::new(&g, &m), &SchedRequest::default())
            .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        outcome.schedule.verify(&g, &m).unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        loops += 1;
        proven += usize::from(outcome.proven());
        ii_sum += outcome.schedule.ii();
        span_sum += outcome.schedule.last_start();
        nodes += outcome.nodes;
    }
    assert_eq!((loops, proven, ii_sum, span_sum, nodes), (44, 43, 484, 953, 850_081));
}

/// Two different budgets must agree on the optimal II whenever both
/// prove, and on the span whenever both tightened it to a proof.
#[test]
fn proofs_agree_across_budgets() {
    let m = MachineConfig::p2l4();
    let mut both_proved = 0;
    for seed in 0..24u64 {
        let l = small_kernel(seed, 9, 0.25);
        let ctx = LoopAnalysis::new(&l.ddg, &m);
        let small = ExactScheduler::with_budget(30_000)
            .solve_in(&ctx, &SchedRequest::default())
            .unwrap();
        let large = ExactScheduler::with_budget(DEFAULT_NODE_BUDGET)
            .solve_in(&ctx, &SchedRequest::default())
            .unwrap();
        if small.proven() && large.proven() {
            both_proved += 1;
            assert_eq!(small.schedule.ii(), large.schedule.ii(), "seed {seed}");
            if small.span_proven && large.span_proven {
                assert_eq!(
                    small.schedule.stage_count(),
                    large.schedule.stage_count(),
                    "seed {seed}: both proved the span but disagree"
                );
            }
        }
    }
    assert!(both_proved > 0, "the comparison must exercise real proofs");
}

/// The committed `BENCH_gap.json` (the ISSUE acceptance artifact): it
/// must parse, prove a majority of its corpus, never report a heuristic
/// II below a proven optimum, and match a fresh run bit for bit — so the
/// artifact can never silently go stale against the schedulers.
#[test]
fn committed_gap_report_is_fresh_and_never_undercuts_a_proven_optimum() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_gap.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_gap.json at repo root");
    let doc = parse_json(&text).expect("committed report parses");
    assert_eq!(doc.get("schema").and_then(Value::as_str), Some("regpipe-bench-gap/v2"));

    let loops = doc.get("loops").and_then(Value::as_i64).expect("loops count");
    let proven = doc.get("proven").and_then(Value::as_i64).expect("proven count");
    assert_eq!(loops, 100, "the acceptance corpus is gen --seed 7 --count 100");
    assert!(2 * proven > loops, "majority must prove: {proven}/{loops}");

    for entry in doc.get("per_loop").and_then(Value::as_array).expect("per_loop") {
        if entry.get("proven").and_then(Value::as_bool) != Some(true) {
            continue;
        }
        let name = entry.get("name").and_then(Value::as_str).unwrap_or("?");
        let exact_ii =
            entry.get("exact").and_then(|e| e.get("ii")).and_then(Value::as_i64).unwrap();
        for h in entry.get("schedulers").and_then(Value::as_array).expect("schedulers") {
            let ii = h.get("ii").and_then(Value::as_i64).unwrap();
            assert!(
                ii >= exact_ii,
                "{name}: heuristic II {ii} under proven optimum {exact_ii}"
            );
            let gap = h.get("ii_gap").and_then(Value::as_i64).unwrap();
            assert_eq!(gap, ii - exact_ii, "{name}: inconsistent ii_gap");
        }
    }

    // Freshness: regenerating the acceptance corpus report must give the
    // committed bytes (`regpipe gap` defaults: seed 7, count 100, max-ops
    // 12, p2l4, default node budget).
    let params = GenParams { max_ops: 12, ..GenParams::default() };
    let corpus = generate(7, 100, &params).expect("acceptance corpus generates");
    let config = GapConfig {
        machine: MachineConfig::p2l4(),
        node_budget: DEFAULT_NODE_BUDGET,
        jobs: NonZeroUsize::new(4).unwrap(),
        source: "gen:seed=7,count=100,max_ops=12".into(),
        spill_policy: SpillPolicyKind::default(),
        spill_budget: DEFAULT_SPILL_BUDGET,
    };
    let fresh = run_gap(&corpus, &config).to_json();
    assert_eq!(
        fresh, text,
        "BENCH_gap.json is stale — regenerate it with `regpipe gap` (defaults) at the repo root"
    );
}
