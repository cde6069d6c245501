//! Shared experiment harness for the paper's evaluation (Section 5).
//!
//! The binaries in `src/bin/` regenerate each table and figure:
//!
//! | binary         | reproduces                                            |
//! |----------------|--------------------------------------------------------|
//! | `expt_example` | Figures 2/3/5/6 — the running example walkthrough      |
//! | `expt_fig4`    | Figure 4 — register requirement vs II, both APSI loops |
//! | `expt_fig7`    | Figure 7 — regs/MII/II/traffic vs lifetimes spilled    |
//! | `expt_table1`  | Table 1 — loops that never converge + their cycles     |
//! | `expt_fig8`    | Figure 8 — cycles / traffic / scheduling time          |
//! | `expt_fig9`    | Figure 9 — increase-II vs spill vs best-of-all         |
//!
//! Every count in Table 1 and Figures 8 and 9 comes from
//! `regpipe_exec::run_batch`, the engine behind `regpipe suite`; the
//! ideal (infinite-register) schedule is the increase-II cell at budget
//! `u32::MAX`.
//!
//! Beyond the paper figures, [`run_gap`] backs the `regpipe gap` verb:
//! it schedules a corpus under the exact branch-and-bound oracle and
//! every registered heuristic and reports the optimality gaps, plus a
//! register-squeezed comparison of every registered spill policy
//! (`BENCH_gap.json`, schema `regpipe-bench-gap/v2`).
//!
//! Run them in release mode, e.g.
//! `cargo run --release -p regpipe_bench --bin expt_table1`.
//! Every binary honours `REGPIPE_SUITE_SIZE` (default 1258; a set value
//! must be a positive integer — anything else is a hard error, not a
//! silent fallback) so quick passes are possible, and fans independent
//! per-loop work out across worker threads via `regpipe_exec` (its one
//! argument, `--jobs N`, else `REGPIPE_JOBS`, else all cores; see
//! [`expt_jobs`]) — results are identical for every worker count.

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

mod gap;

pub use gap::{
    gap_heuristics, run_gap, GapConfig, GapReport, LoopGap, SchedPoint, SchedulerAggregate,
    SpillOutcome, SpillPolicyAggregate, DEFAULT_SPILL_BUDGET,
};

use std::num::NonZeroUsize;

use regpipe_core::{CompileOptions, SpillDriverOptions, Strategy};
use regpipe_exec::{
    resolve_jobs, run_batch, BatchAggregate, BatchReport, BatchRequest, CellOutcome, CellStatus,
};
use regpipe_loops::{suite, suite_size_from_env, BenchLoop};
use regpipe_machine::MachineConfig;
use regpipe_spill::SelectHeuristic;

/// The suite size, honouring `REGPIPE_SUITE_SIZE` (default 1258).
///
/// A set but invalid value (unparsable or zero) is a hard error: the
/// process exits with a message rather than silently benchmarking 1258
/// loops. The parsing rule itself is [`regpipe_loops::parse_suite_size`].
pub fn suite_size() -> usize {
    suite_size_from_env().unwrap_or_else(|e| die(&e))
}

/// The worker count of an `expt_*` binary, read from its command line:
/// the only argument it takes is `--jobs N`; without it, `REGPIPE_JOBS`,
/// else all cores. Any other argument, or an invalid count, exits with
/// status 2 naming it. Call this first thing in `main`, before anything
/// is printed.
pub fn expt_jobs() -> NonZeroUsize {
    jobs_from_args(std::env::args().skip(1)).unwrap_or_else(|e| die(&e))
}

/// [`expt_jobs`] over an explicit argument list.
fn jobs_from_args(args: impl IntoIterator<Item = String>) -> Result<NonZeroUsize, String> {
    let mut args = args.into_iter();
    let mut flag = None;
    while let Some(arg) = args.next() {
        if arg != "--jobs" || flag.is_some() {
            return Err(format!("unexpected argument '{arg}' (usage: [--jobs N])"));
        }
        flag = Some(args.next().ok_or("--jobs needs a value (usage: [--jobs N])")?);
    }
    resolve_jobs(flag.as_deref())
}

fn die(message: &str) -> ! {
    eprintln!("regpipe-bench: {message}");
    std::process::exit(2);
}

/// The evaluation suite at the configured size (fixed seed).
pub fn evaluation_suite() -> Vec<BenchLoop> {
    suite(0xC1DA, suite_size())
}

/// The register budgets of the paper's evaluation.
pub const REGISTER_BUDGETS: [u32; 2] = [64, 32];

/// One spilling-heuristic variant of Figure 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fig8Variant {
    /// Display label (matches the paper's bar names).
    pub label: &'static str,
    /// Spill-strategy options.
    pub options: SpillDriverOptions,
}

/// The four heuristic variants of Figure 8, in the paper's order.
pub fn fig8_variants() -> Vec<Fig8Variant> {
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
fn ideal_batch(
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
pub fn run_spill_variant(
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
pub fn run_ideal(
    loops: &[BenchLoop],
    machine: &MachineConfig,
    jobs: NonZeroUsize,
) -> BatchAggregate {
    ideal_batch(loops, machine, jobs).total()
}

/// Table 1 numbers for one machine/budget: which loops never converge by
/// increasing the II, and the share of (ideal) cycles they represent.
pub struct Table1Row {
    /// Names of the non-convergent loops.
    pub non_convergent: Vec<String>,
    /// Their share of total ideal cycles, in percent.
    pub cycle_share: f64,
}

/// Computes one Table 1 row on `jobs` worker threads.
pub fn table1_row(
    loops: &[BenchLoop],
    machine: &MachineConfig,
    regs: u32,
    jobs: NonZeroUsize,
) -> Table1Row {
    // Loops whose ideal schedule fits converge at increase-II's first
    // round; only the rest are compiled with increase-II.
    let ideal = ideal_batch(loops, machine, jobs);
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
pub struct Fig9Row {
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
pub fn fig9_row(
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
pub fn mcycles(c: u64) -> String {
    format!("{:.1}", c as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOBS: NonZeroUsize = NonZeroUsize::new(2).unwrap();

    fn small_suite() -> Vec<BenchLoop> {
        suite(5, 40)
    }

    fn jobs_of(args: &[&str]) -> Result<NonZeroUsize, String> {
        jobs_from_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn expt_arguments_are_at_most_one_jobs_flag() {
        assert_eq!(jobs_of(&["--jobs", "3"]).unwrap().get(), 3);
        assert!(jobs_of(&["--jobs", "0"]).unwrap_err().contains("--jobs"));
        assert!(jobs_of(&["--jobs"]).unwrap_err().contains("needs a value"));
        // No argument: REGPIPE_JOBS if set, else all cores.
        if std::env::var("REGPIPE_JOBS").is_err() {
            assert!(jobs_of(&[]).unwrap().get() >= 1);
        }
    }

    #[test]
    fn expt_arguments_other_than_jobs_are_named_errors() {
        for (args, named) in [
            (&["--jbos", "1"][..], "'--jbos'"),
            (&["stray-arg"][..], "'stray-arg'"),
            (&["--jobs", "2", "extra"][..], "'extra'"),
            (&["--jobs", "2", "--jobs", "3"][..], "'--jobs'"),
        ] {
            let err = jobs_of(args).unwrap_err();
            assert!(err.contains(named) && err.contains("[--jobs N]"), "{args:?}: {err}");
        }
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
        let row = table1_row(&loops, &m, 32, JOBS);
        assert!(row.cycle_share >= 0.0 && row.cycle_share <= 100.0);
        // 64 registers can only shrink the non-convergent set.
        let row64 = table1_row(&loops, &m, 64, JOBS);
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
