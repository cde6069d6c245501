//! The paper's evaluation (Section 5) and the optimality-gap harness.
//!
//! [`paper`] regenerates each of the paper's tables and figures, one
//! function per artifact, behind `regpipe paper <artifact>`. Every count
//! in Table 1 and Figures 8 and 9 comes from `regpipe_exec::run_batch`,
//! the engine behind `regpipe suite`; the ideal (infinite-register)
//! schedule is the increase-II cell at budget `u32::MAX`. Results are
//! identical for every worker count.
//!
//! Beyond the paper figures, [`run_gap`] backs the `regpipe gap` verb:
//! it schedules a corpus under the exact branch-and-bound oracle and
//! every registered heuristic and reports the optimality gaps, plus a
//! register-squeezed comparison of every registered spill policy
//! (`BENCH_gap.json`, schema `regpipe-bench-gap/v2`).

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

mod gap;
pub mod paper;

pub use gap::{
    gap_heuristics, run_gap, GapConfig, GapReport, LoopGap, SchedPoint, SchedulerAggregate,
    SpillOutcome, SpillPolicyAggregate, DEFAULT_SPILL_BUDGET,
};

use std::num::NonZeroUsize;

use regpipe_core::{CompileOptions, SpillDriverOptions, Strategy};
use regpipe_exec::{
    run_batch, BatchAggregate, BatchReport, BatchRequest, CellOutcome, CellStatus,
};
use regpipe_loops::BenchLoop;
use regpipe_machine::MachineConfig;
use regpipe_spill::SelectHeuristic;

/// The register budgets of the paper's evaluation.
pub(crate) const REGISTER_BUDGETS: [u32; 2] = [64, 32];

/// One spilling-heuristic variant of Figure 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Fig8Variant {
    /// Display label (matches the paper's bar names).
    pub label: &'static str,
    /// Spill-strategy options.
    pub options: SpillDriverOptions,
}

/// The four heuristic variants of Figure 8, in the paper's order.
pub(crate) fn fig8_variants() -> Vec<Fig8Variant> {
    let base = SpillDriverOptions::unaccelerated;
    vec![
        Fig8Variant { label: "Max(LT)", options: base(SelectHeuristic::MaxLt) },
        Fig8Variant { label: "Max(LT/Traf)", options: base(SelectHeuristic::MaxLtOverTraffic) },
        Fig8Variant {
            label: "Max(LT/Traf)+multi",
            options: SpillDriverOptions {
                multi_spill: true,
                ..base(SelectHeuristic::MaxLtOverTraffic)
            },
        },
        Fig8Variant {
            label: "Max(LT/Traf)+multi+lastII",
            options: SpillDriverOptions {
                multi_spill: true,
                last_ii_pruning: true,
                ..base(SelectHeuristic::MaxLtOverTraffic)
            },
        },
    ]
}

/// Compiles every loop at `budget` under each of `strategies` on `jobs`
/// workers: the batch engine behind every figure. Cells come back
/// loop-major, `strategies.len()` consecutive cells per loop.
fn batch(
    loops: &[BenchLoop],
    machine: &MachineConfig,
    budget: u32,
    strategies: &[Strategy],
    options: CompileOptions,
    jobs: NonZeroUsize,
) -> BatchReport {
    let request = BatchRequest {
        machine: machine.clone(),
        budgets: vec![budget],
        strategies: strategies.to_vec(),
        options,
        jobs,
    };
    run_batch(loops, &request)
}

/// The ideal (infinite-register) cell of every loop: at an unbounded
/// budget increase-II keeps its first round, the unconstrained schedule
/// at the MII.
pub(crate) fn ideal_batch(
    loops: &[BenchLoop],
    machine: &MachineConfig,
    jobs: NonZeroUsize,
) -> BatchReport {
    batch(loops, machine, u32::MAX, &[Strategy::IncreaseIi], CompileOptions::default(), jobs)
}

/// The `(ii, regs)` of a fitted cell.
fn fitted(cell: &CellOutcome) -> Option<(u32, u32)> {
    match cell.status {
        CellStatus::Fitted { ii, regs, .. } => Some((ii, regs)),
        CellStatus::Failed { .. } => None,
    }
}

/// Runs one spill variant over the suite on `jobs` worker threads. The
/// aggregate is identical for any worker count (its `wall` aside).
pub(crate) fn run_spill_variant(
    loops: &[BenchLoop],
    machine: &MachineConfig,
    regs: u32,
    spill: SpillDriverOptions,
    jobs: NonZeroUsize,
) -> BatchAggregate {
    let options = CompileOptions { spill, ..CompileOptions::default() };
    batch(loops, machine, regs, &[Strategy::Spill], options, jobs).total()
}

/// The ideal (infinite-register) aggregate for the same loops.
pub(crate) fn run_ideal(
    loops: &[BenchLoop],
    machine: &MachineConfig,
    jobs: NonZeroUsize,
) -> BatchAggregate {
    ideal_batch(loops, machine, jobs).total()
}

/// Table 1 numbers for one machine/budget: which loops never converge by
/// increasing the II, and the share of (ideal) cycles they represent.
pub(crate) struct Table1Row {
    /// Names of the non-convergent loops.
    pub non_convergent: Vec<String>,
    /// Their share of total ideal cycles, in percent.
    pub cycle_share: f64,
}

/// Computes one Table 1 row on `jobs` worker threads, given the machine's
/// [`ideal_batch`], which every budget shares.
pub(crate) fn table1_row(
    loops: &[BenchLoop],
    ideal: &BatchReport,
    machine: &MachineConfig,
    regs: u32,
    jobs: NonZeroUsize,
) -> Table1Row {
    // Loops whose ideal schedule fits converge at increase-II's first
    // round; only the rest are compiled with increase-II.
    let (over, over_ideal): (Vec<BenchLoop>, Vec<&CellOutcome>) = loops
        .iter()
        .zip(&ideal.cells)
        .filter(|(_, cell)| fitted(cell).is_some_and(|(_, ideal_regs)| ideal_regs > regs))
        .map(|(l, cell)| (l.clone(), cell))
        .unzip();
    let options = CompileOptions::default();
    let report = batch(&over, machine, regs, &[Strategy::IncreaseIi], options, jobs);
    let mut non_convergent = Vec::new();
    let mut bad_cycles = 0u64;
    for (ideal, cell) in over_ideal.into_iter().zip(&report.cells) {
        if fitted(cell).is_none() {
            non_convergent.push(cell.loop_name.clone());
            bad_cycles += ideal.cycles();
        }
    }
    let total_cycles = ideal.total().cycles;
    Table1Row {
        non_convergent,
        cycle_share: if total_cycles == 0 {
            0.0
        } else {
            100.0 * bad_cycles as f64 / total_cycles as f64
        },
    }
}

/// Figure 9 comparison over the subset of loops that (1) need a register
/// reduction and (2) converge under increase-II.
#[derive(Clone, Debug, Default)]
pub(crate) struct Fig9Row {
    /// Loops in the comparable subset.
    pub subset: u32,
    /// Σ cycles with increase-II.
    pub increase_ii_cycles: u64,
    /// Σ cycles with the best spill configuration.
    pub spill_cycles: u64,
    /// Σ cycles with best-of-all.
    pub best_cycles: u64,
    /// Loops where increase-II strictly beat spilling.
    pub increase_ii_wins: u32,
}

/// Computes one Figure 9 row on `jobs` worker threads.
pub(crate) fn fig9_row(
    loops: &[BenchLoop],
    machine: &MachineConfig,
    regs: u32,
    jobs: NonZeroUsize,
) -> Fig9Row {
    // Increase-II's first round is the ideal schedule, so a cell fitted in
    // one round needs no register reduction, and a failed one never
    // converges. Both are excluded, as in the paper; only the rest are
    // compiled with spill and best-of-all.
    let options = CompileOptions::default();
    let report = batch(loops, machine, regs, &[Strategy::IncreaseIi], options, jobs);
    let (subset, increase_ii): (Vec<BenchLoop>, Vec<&CellOutcome>) = loops
        .iter()
        .zip(&report.cells)
        .filter(|(_, cell)| {
            matches!(cell.status, CellStatus::Fitted { reschedules, .. } if reschedules > 1)
        })
        .map(|(l, cell)| (l.clone(), cell))
        .unzip();
    let strategies = [Strategy::Spill, Strategy::BestOfAll];
    let report = batch(&subset, machine, regs, &strategies, options, jobs);
    let mut row = Fig9Row::default();
    for (increase_ii, cells) in increase_ii.into_iter().zip(report.cells.chunks(2)) {
        let (spill, best) = (&cells[0], &cells[1]);
        let (Some((ii, _)), Some((spill_ii, _)), Some(_)) =
            (fitted(increase_ii), fitted(spill), fitted(best))
        else {
            continue;
        };
        row.subset += 1;
        row.increase_ii_cycles += increase_ii.cycles();
        row.spill_cycles += spill.cycles();
        row.best_cycles += best.cycles();
        if ii < spill_ii {
            row.increase_ii_wins += 1;
        }
    }
    row
}

/// Formats a cycle count in units of 10⁶ cycles, like the paper's axes
/// (scaled down from 10⁹ because the synthetic weights are smaller).
pub(crate) fn mcycles(c: u64) -> String {
    format!("{:.1}", c as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_loops::suite;

    const JOBS: NonZeroUsize = NonZeroUsize::new(2).unwrap();

    fn small_suite() -> Vec<BenchLoop> {
        suite(5, 40)
    }

    #[test]
    fn ideal_is_cheapest() {
        let loops = small_suite();
        let m = MachineConfig::p2l4();
        let ideal_agg = run_ideal(&loops, &m, JOBS);
        let constrained =
            run_spill_variant(&loops, &m, 32, SpillDriverOptions::default(), JOBS);
        assert!(constrained.failures == 0, "all loops must fit after spilling");
        assert!(constrained.cycles >= ideal_agg.cycles);
        assert!(constrained.memory_refs >= ideal_agg.memory_refs);
    }

    #[test]
    fn generous_budget_matches_ideal() {
        let loops = small_suite();
        let m = MachineConfig::p2l4();
        let ideal_agg = run_ideal(&loops, &m, JOBS);
        let roomy = run_spill_variant(&loops, &m, 4096, SpillDriverOptions::default(), JOBS);
        assert_eq!(roomy.cycles, ideal_agg.cycles);
        assert_eq!(roomy.spilled, 0);
    }

    #[test]
    fn accelerated_variant_reschedules_less() {
        let loops = small_suite();
        let m = MachineConfig::p1l4();
        let variants = fig8_variants();
        let slow = run_spill_variant(&loops, &m, 32, variants[1].options, JOBS);
        let fast = run_spill_variant(&loops, &m, 32, variants[3].options, JOBS);
        assert!(fast.reschedules <= slow.reschedules);
        assert!(fast.iis_explored <= slow.iis_explored);
    }

    #[test]
    fn table1_row_is_consistent() {
        let loops = small_suite();
        let m = MachineConfig::p2l4();
        let ideal = ideal_batch(&loops, &m, JOBS);
        let row = table1_row(&loops, &ideal, &m, 32, JOBS);
        assert!(row.cycle_share >= 0.0 && row.cycle_share <= 100.0);
        // 64 registers can only shrink the non-convergent set.
        let row64 = table1_row(&loops, &ideal, &m, 64, JOBS);
        assert!(row64.non_convergent.len() <= row.non_convergent.len());
    }

    #[test]
    fn fig9_best_never_loses() {
        let loops = small_suite();
        let m = MachineConfig::p2l4();
        let row = fig9_row(&loops, &m, 32, JOBS);
        assert!(row.best_cycles <= row.increase_ii_cycles.max(row.spill_cycles));
        if row.subset > 0 {
            assert!(row.best_cycles <= row.spill_cycles);
        }
    }
}
