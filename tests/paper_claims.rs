//! The paper's headline claims as executable assertions, on a reduced
//! (seed-stable) suite — guarding the reproduction against silent drift.
//! The full-scale numbers come from `regpipe paper <artifact>`; these
//! tests check the *shapes* that make the paper's conclusions: who wins,
//! and where the technique breaks.

use regpipe::core::CompiledLoop;
use regpipe::loops::{suite, BenchLoop};
use regpipe::prelude::*;
use regpipe::sched::SchedRequest;
use regpipe::spill::SelectHeuristic;

fn reduced_suite() -> Vec<BenchLoop> {
    suite(0xC1DA, 200)
}

/// Compiles `l` at 32 registers with `strategy` and `spill`.
fn at_32(
    l: &BenchLoop,
    m: &MachineConfig,
    strategy: Strategy,
    spill: SpillDriverOptions,
) -> Option<CompiledLoop> {
    let options = CompileOptions { strategy, spill, ..CompileOptions::default() };
    compile(&l.ddg, m, 32, &options).ok()
}

fn increase_ii(l: &BenchLoop, m: &MachineConfig) -> Option<CompiledLoop> {
    at_32(l, m, Strategy::IncreaseIi, SpillDriverOptions::default())
}

fn spill(
    l: &BenchLoop,
    m: &MachineConfig,
    options: SpillDriverOptions,
) -> Option<CompiledLoop> {
    at_32(l, m, Strategy::Spill, options)
}

fn ideal(l: &BenchLoop, m: &MachineConfig) -> (u32, u32) {
    let s = SchedulerKind::Hrms.schedule(&l.ddg, m, &SchedRequest::default()).unwrap();
    let a = allocate(&l.ddg, &s);
    (s.ii(), a.total())
}

/// Section 3 / Table 1: a few loops never converge under increase-II, yet
/// they carry a disproportionate share of the execution cycles.
#[test]
fn claim_non_convergent_loops_are_few_but_heavy() {
    let loops = reduced_suite();
    let m = MachineConfig::p2l4();
    let mut bad = 0u32;
    let mut bad_cycles = 0u64;
    let mut total_cycles = 0u64;
    for l in &loops {
        let (ii, regs) = ideal(l, &m);
        total_cycles += l.cycles(ii);
        if regs > 32 && increase_ii(l, &m).is_none() {
            bad += 1;
            bad_cycles += l.cycles(ii);
        }
    }
    assert!(bad >= 1, "the phenomenon must exist");
    assert!(bad * 20 <= loops.len() as u32, "but only on a small minority ({bad})");
    let share = 100.0 * bad_cycles as f64 / total_cycles as f64;
    assert!(
        (10.0..60.0).contains(&share),
        "non-convergent loops carry an outsized cycle share, got {share:.1}%"
    );
}

/// Section 4 / Figure 7: spilling converges wherever the budget is
/// reachable, including on every loop increase-II fails on.
#[test]
fn claim_spilling_succeeds_where_increase_ii_fails() {
    let loops = reduced_suite();
    let m = MachineConfig::p2l4();
    for l in &loops {
        let (_, regs) = ideal(l, &m);
        if regs <= 32 || increase_ii(l, &m).is_some() {
            continue;
        }
        let out = spill(l, &m, SpillDriverOptions::default())
            .unwrap_or_else(|| panic!("{}: spilling must rescue this loop", l.name));
        assert!(out.registers_used() <= 32);
        out.schedule().verify(out.ddg(), &m).unwrap();
    }
}

/// Figure 8a/8b: Max(LT/Traf) produces no more cycles and no more traffic
/// than Max(LT) in aggregate at 32 registers.
#[test]
fn claim_traffic_aware_heuristic_wins_at_32_regs() {
    let loops = reduced_suite();
    let m = MachineConfig::p1l4();
    let run = |heuristic| {
        let mut cycles = 0u64;
        let mut refs = 0u64;
        for l in &loops {
            let options = SpillDriverOptions::unaccelerated(heuristic);
            let out = spill(l, &m, options).expect("fits after spilling");
            cycles += l.cycles(out.ii());
            refs += u64::from(out.memory_ops()) * l.weight;
        }
        (cycles, refs)
    };
    let (lt_cycles, lt_refs) = run(SelectHeuristic::MaxLt);
    let (tr_cycles, tr_refs) = run(SelectHeuristic::MaxLtOverTraffic);
    assert!(
        tr_cycles <= lt_cycles * 102 / 100,
        "Max(LT/Traf) within 2% on cycles: {tr_cycles} vs {lt_cycles}"
    );
    assert!(tr_refs <= lt_refs, "and strictly no worse on traffic: {tr_refs} vs {lt_refs}");
}

/// Figure 8c / Section 4.5: the accelerations reduce scheduling effort
/// substantially at a small performance cost.
#[test]
fn claim_accelerations_cut_effort_cheaply() {
    let loops = reduced_suite();
    let m = MachineConfig::p1l4();
    let run = |options: SpillDriverOptions| {
        let mut cycles = 0u64;
        let mut effort = 0u64;
        for l in &loops {
            let out = spill(l, &m, options).expect("fits");
            cycles += l.cycles(out.ii());
            effort += u64::from(out.iis_explored());
        }
        (cycles, effort)
    };
    let (slow_cycles, slow_effort) =
        run(SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLtOverTraffic));
    let (fast_cycles, fast_effort) = run(SpillDriverOptions::default());
    assert!(
        fast_effort * 3 <= slow_effort * 2,
        "≥1.5x fewer IIs explored: {fast_effort} vs {slow_effort}"
    );
    assert!(
        fast_cycles <= slow_cycles * 103 / 100,
        "at ≤3% cycle cost: {fast_cycles} vs {slow_cycles}"
    );
}

/// Figure 9: on loops where both strategies apply, spilling wins in
/// aggregate, and 64 registers nearly erase the problem.
#[test]
fn claim_spill_beats_increase_ii_and_64_regs_are_roomy() {
    let loops = reduced_suite();
    let m = MachineConfig::p2l4();
    let mut ii_cycles = 0u64;
    let mut spill_cycles = 0u64;
    let mut needed_64 = 0u32;
    for l in &loops {
        let (_, regs) = ideal(l, &m);
        if regs > 64 {
            needed_64 += 1;
        }
        if regs <= 32 {
            continue;
        }
        let (Some(a), Some(b)) =
            (increase_ii(l, &m), spill(l, &m, SpillDriverOptions::default()))
        else {
            continue;
        };
        ii_cycles += l.cycles(a.ii());
        spill_cycles += l.cycles(b.ii());
    }
    assert!(spill_cycles < ii_cycles, "spill {spill_cycles} vs increase-II {ii_cycles}");
    assert!(
        needed_64 * 10 <= loops.len() as u32,
        "few loops even exceed 64 registers ({needed_64})"
    );
}
