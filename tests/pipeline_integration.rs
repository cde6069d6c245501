//! End-to-end integration across all crates: suite loops through every
//! strategy on every machine, with full verification of the results.

use regpipe::core::CompileError;
use regpipe::loops::{paper, suite};
use regpipe::prelude::*;
use regpipe::regalloc::LifetimeAnalysis;
use regpipe::sched::SchedRequest;
use regpipe::spill::{candidates, spill, SelectHeuristic};

fn options(strategy: Strategy) -> CompileOptions {
    CompileOptions { strategy, ..CompileOptions::default() }
}

#[test]
fn whole_suite_compiles_under_32_registers_on_every_machine() {
    let loops = suite(101, 60);
    for machine in MachineConfig::paper_configs() {
        for l in &loops {
            let c = compile(&l.ddg, &machine, 32, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", l.name, machine.name()));
            assert!(c.registers_used() <= 32, "{} on {}", l.name, machine.name());
            c.schedule().verify(c.ddg(), &machine).unwrap();
            assert!(c.ii() >= mii(c.ddg(), &machine));
        }
    }
}

#[test]
fn strategies_rank_consistently() {
    // Where both succeed: best-of-all is at least as fast as spilling, and
    // never slower than increase-II.
    let loops = suite(77, 40);
    let m = MachineConfig::p2l4();
    for l in &loops {
        let spill = compile(
            &l.ddg,
            &m,
            32,
            &CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() },
        );
        let both = compile(&l.ddg, &m, 32, &CompileOptions::default());
        if let (Ok(s), Ok(b)) = (spill, both) {
            assert!(b.ii() <= s.ii(), "{}: best {} vs spill {}", l.name, b.ii(), s.ii());
        }
        let ii_only = compile(
            &l.ddg,
            &m,
            32,
            &CompileOptions { strategy: Strategy::IncreaseIi, ..CompileOptions::default() },
        );
        if let (Ok(i), Ok(b)) = (ii_only, compile(&l.ddg, &m, 32, &CompileOptions::default())) {
            assert!(b.ii() <= i.ii(), "{}: best {} vs increase-II {}", l.name, b.ii(), i.ii());
        }
    }
}

#[test]
fn spill_framework_works_with_the_register_insensitive_scheduler() {
    // "The techniques presented can also be used with other scheduling
    // techniques": run the strategies over the ASAP baseline.
    let g = paper::apsi50_like();
    let m = MachineConfig::p2l4();
    let options = CompileOptions { scheduler: SchedulerKind::Asap, ..options(Strategy::Spill) };
    let out = compile(&g, &m, 32, &options).expect("spilling converges under ASAP too");
    out.schedule().verify(out.ddg(), &m).unwrap();
    assert!(out.registers_used() <= 32);
}

#[test]
fn register_insensitive_scheduling_needs_more_registers() {
    // The motivation for HRMS: on high-pressure loops the ASAP baseline
    // stretches lifetimes. Compare MaxLive over a small suite.
    let loops = suite(303, 30);
    let m = MachineConfig::p2l4();
    let mut hrms_total = 0u64;
    let mut asap_total = 0u64;
    for l in &loops {
        let h = SchedulerKind::Hrms.schedule(&l.ddg, &m, &SchedRequest::default()).unwrap();
        let a = SchedulerKind::Asap.schedule(&l.ddg, &m, &SchedRequest::default()).unwrap();
        // Compare at the same II to isolate placement effects.
        if h.ii() == a.ii() {
            hrms_total += u64::from(LifetimeAnalysis::new(&l.ddg, &h).max_live());
            asap_total += u64::from(LifetimeAnalysis::new(&l.ddg, &a).max_live());
        }
    }
    assert!(
        hrms_total <= asap_total,
        "register-sensitive placement must not lose on aggregate: {hrms_total} vs {asap_total}"
    );
}

#[test]
fn increase_ii_failures_are_exactly_the_floor_bound_loops() {
    let m = MachineConfig::p2l4();
    let run = |g, regs| compile(&g, &m, regs, &options(Strategy::IncreaseIi));
    // The convergent paper loop fits, the floor-bound one does not.
    assert!(run(paper::apsi47_like(), 32).is_ok());
    assert!(matches!(run(paper::apsi50_like(), 32), Err(CompileError::IncreaseIi(_))));
    // With a file as large as the floor, it fits again.
    assert!(run(paper::apsi50_like(), 64).is_ok());
}

#[test]
fn spilling_monotonically_extends_the_graph() {
    let g = paper::apsi50_like();
    let m = MachineConfig::p2l4();
    let options = CompileOptions {
        spill: SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLt),
        ..options(Strategy::Spill)
    };
    let out = compile(&g, &m, 16, &options).unwrap();
    // Nodes are append-only; every original op survives the rewrites.
    assert!(out.ddg().num_ops() >= g.num_ops());
    for (id, node) in g.ops() {
        assert_eq!(out.ddg().op(id).kind(), node.kind());
        assert_eq!(out.ddg().op(id).name(), node.name());
    }
    // Traffic grows exactly by the added loads/stores.
    assert!(out.ddg().memory_ops() > g.memory_ops());
}

#[test]
fn best_of_all_reports_spill_statistics_even_when_increase_ii_wins() {
    let g = paper::example_loop();
    let m = MachineConfig::uniform(4, 2);
    let out = compile(&g, &m, 7, &options(Strategy::BestOfAll)).unwrap();
    // The spill run leads the trace whichever strategy won: it started over
    // budget and spilled at least once before the probes.
    assert!(out.trace()[0].regs > 7);
    assert!(out.trace().iter().any(|p| p.spilled > 0));
    assert!(out.reschedules() as usize >= out.trace().len());
    out.schedule().verify(out.ddg(), &m).unwrap();
    assert!(out.registers_used() <= 7);
}

#[test]
fn sixty_four_registers_rarely_need_any_spill() {
    // The paper: "when 64 registers are available there is almost no
    // performance degradation".
    let loops = suite(404, 50);
    let m = MachineConfig::p2l4();
    let mut spilled_loops = 0;
    for l in &loops {
        let c = compile(&l.ddg, &m, 64, &CompileOptions::default()).unwrap();
        if c.spilled() > 0 {
            spilled_loops += 1;
        }
    }
    assert!(spilled_loops <= 5, "{spilled_loops} of 50 needed spills at 64 regs");
}

/// Every spill candidate's cost is what its rewrite adds: the ranking
/// prices the reuse-store and producer-is-load cases exactly as `spill`
/// rewrites them, so Max(LT/Traf) ranks victims by the memory operations
/// they really cost.
#[test]
fn candidate_costs_equal_the_memory_ops_their_spill_adds() {
    let mut loops = suite(3, 300);
    loops.extend(generate(5, 300, &GenParams::default()).expect("valid knobs"));
    let mut checked = 0;
    for machine in [MachineConfig::p1l4(), MachineConfig::p2l4()] {
        for l in &loops {
            let s = SchedulerKind::Hrms.schedule(&l.ddg, &machine, &SchedRequest::default());
            let analysis = LifetimeAnalysis::new(&l.ddg, &s.unwrap());
            for candidate in candidates(&l.ddg, &analysis) {
                let report = spill(&mut l.ddg.clone(), &candidate);
                let added = report.stores_added + report.loads_added;
                assert_eq!(candidate.cost(), added, "{} on {machine}: {candidate}", l.name);
                checked += 1;
            }
        }
    }
    assert!(checked > 10_000, "only {checked} candidates checked");
}
