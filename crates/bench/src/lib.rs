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
//! Beyond the paper figures, [`run_gap`] backs the `regpipe gap` verb:
//! it schedules a corpus under the exact branch-and-bound oracle and
//! every registered heuristic and reports the optimality gaps, plus a
//! register-squeezed comparison of every registered spill policy
//! (`BENCH_gap.json`, schema `regpipe-bench-gap/v2`).
//!
//! Run them in release mode, e.g.
//! `cargo run --release -p regpipe-bench --bin expt_table1`.
//! Every binary honours `REGPIPE_SUITE_SIZE` (default 1258; a set value
//! must be a positive integer — anything else is a hard error, not a
//! silent fallback) so quick passes are possible, and fans independent
//! per-loop work out across `REGPIPE_JOBS` / `--jobs` worker threads via
//! `regpipe_exec` — results are identical for every worker count.

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

mod compile_bench;
mod gap;

pub use compile_bench::{run_compile_bench, CompileBenchConfig, CompileBenchReport, SizePoint};
pub use gap::{
    gap_heuristics, run_gap, GapConfig, GapReport, LoopGap, SchedPoint, SchedulerAggregate,
    SpillOutcome, SpillPolicyAggregate, DEFAULT_SPILL_BUDGET,
};

use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use regpipe_core::{
    BestOfAllDriver, IncreaseIiDriver, SpillDriver, SpillDriverOptions, Winner,
};
use regpipe_exec::{parallel_map, resolve_jobs};
use regpipe_loops::{suite, suite_size_from_env, BenchLoop};
use regpipe_machine::MachineConfig;
use regpipe_regalloc::allocate;
use regpipe_sched::{HrmsScheduler, SchedRequest, Scheduler};
use regpipe_spill::SelectHeuristic;

/// The suite size, honouring `REGPIPE_SUITE_SIZE` (default 1258).
///
/// A set but invalid value (unparsable or zero) is a hard error: the
/// process exits with a message rather than silently benchmarking 1258
/// loops. The parsing rule itself is [`regpipe_loops::parse_suite_size`].
pub fn suite_size() -> usize {
    suite_size_from_env().unwrap_or_else(|e| die(&e))
}

/// The worker count for the harness's parallel sweeps: `REGPIPE_JOBS` if
/// set (strictly validated), otherwise the machine's parallelism.
pub fn harness_jobs() -> NonZeroUsize {
    resolve_jobs(None).unwrap_or_else(|e| die(&e))
}

/// Applies a `--jobs N` argument from an `expt_*` binary's command line by
/// exporting it as `REGPIPE_JOBS` (which [`harness_jobs`] then picks up).
/// Call this first thing in `main`, before any threads exist.
pub fn apply_jobs_flag() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        let value = args.get(i + 1).map(String::as_str).unwrap_or("");
        // Validate eagerly so a typo fails here, not mid-run.
        if let Err(e) = resolve_jobs(Some(value)) {
            die(&e);
        }
        std::env::set_var("REGPIPE_JOBS", value);
    }
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

/// Ideal (infinite registers) schedule: `(ii, regs)`.
pub fn ideal(l: &BenchLoop, machine: &MachineConfig) -> (u32, u32) {
    let s = HrmsScheduler::new()
        .schedule(&l.ddg, machine, &SchedRequest::default())
        .expect("suite loops are schedulable");
    let a = allocate(&l.ddg, &s);
    (s.ii(), a.total())
}

/// One spilling-heuristic variant of Figure 8.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fig8Variant {
    /// Display label (matches the paper's bar names).
    pub label: &'static str,
    /// Spill-driver configuration.
    pub options: SpillDriverOptions,
}

/// The four heuristic variants of Figure 8, in the paper's order.
pub fn fig8_variants() -> Vec<Fig8Variant> {
    let base = |heuristic| SpillDriverOptions {
        heuristic,
        multi_spill: false,
        last_ii_pruning: false,
        ii_relief: true,
        max_rounds: 1024,
        ..SpillDriverOptions::default()
    };
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

/// Aggregates of one (variant × machine × budget) run over the whole suite.
#[derive(Clone, Debug, Default)]
pub struct SuiteAggregate {
    /// Σ II·weight over all loops (execution cycles).
    pub cycles: u64,
    /// Σ memory-ops·weight (dynamic memory references).
    pub memory_refs: u64,
    /// Loops that could not be fitted (counted, excluded from sums).
    pub failures: u32,
    /// Σ reschedules.
    pub reschedules: u64,
    /// Σ candidate IIs explored by the scheduler.
    pub iis_explored: u64,
    /// Wall-clock time spent scheduling.
    pub sched_time: Duration,
    /// Σ lifetimes spilled.
    pub spilled: u64,
}

/// Runs one spill variant over the suite, one worker thread per
/// [`harness_jobs`] slot. Loops are independent, so the fold below visits
/// per-loop outcomes in suite order and the aggregate is identical for any
/// worker count (wall-clock `sched_time` aside).
pub fn run_spill_variant(
    loops: &[BenchLoop],
    machine: &MachineConfig,
    regs: u32,
    options: SpillDriverOptions,
) -> SuiteAggregate {
    let driver = SpillDriver::new(options);
    let per_loop = parallel_map(loops, harness_jobs(), |_, l| {
        let started = Instant::now();
        let outcome = driver.run(&l.ddg, machine, regs);
        (outcome, started.elapsed())
    });
    let mut agg = SuiteAggregate::default();
    for (l, (outcome, elapsed)) in loops.iter().zip(per_loop) {
        match outcome {
            Ok(out) => {
                agg.cycles += l.cycles(out.schedule.ii());
                agg.memory_refs += u64::from(out.memory_ops()) * l.weight;
                agg.reschedules += u64::from(out.reschedules);
                agg.iis_explored += u64::from(out.iis_explored);
                agg.sched_time += elapsed;
                agg.spilled += u64::from(out.spilled);
            }
            Err(_) => agg.failures += 1,
        }
    }
    agg
}

/// The ideal (infinite-register) aggregate for the same loops.
pub fn run_ideal(loops: &[BenchLoop], machine: &MachineConfig) -> SuiteAggregate {
    let per_loop = parallel_map(loops, harness_jobs(), |_, l| ideal(l, machine));
    let mut agg = SuiteAggregate::default();
    for (l, (ii, _)) in loops.iter().zip(per_loop) {
        agg.cycles += l.cycles(ii);
        agg.memory_refs += u64::from(l.ddg.memory_ops() as u32) * l.weight;
    }
    agg
}

/// Table 1 numbers for one machine/budget: which loops never converge by
/// increasing the II, and the share of (ideal) cycles they represent.
pub struct Table1Row {
    /// Names of the non-convergent loops.
    pub non_convergent: Vec<String>,
    /// Their share of total ideal cycles, in percent.
    pub cycle_share: f64,
}

/// Computes one Table 1 row.
pub fn table1_row(loops: &[BenchLoop], machine: &MachineConfig, regs: u32) -> Table1Row {
    let driver = IncreaseIiDriver::new();
    let per_loop = parallel_map(loops, harness_jobs(), |_, l| {
        let (ii, ideal_regs) = ideal(l, machine);
        // Loops that fit outright converged at the first try; only the
        // rest exercise the increase-II driver.
        let converges = ideal_regs <= regs || driver.run(&l.ddg, machine, regs).is_ok();
        (l.cycles(ii), converges)
    });
    let mut non_convergent = Vec::new();
    let mut bad_cycles = 0u64;
    let mut total_cycles = 0u64;
    for (l, (cycles, converges)) in loops.iter().zip(per_loop) {
        total_cycles += cycles;
        if !converges {
            non_convergent.push(l.name.clone());
            bad_cycles += cycles;
        }
    }
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

/// Computes one Figure 9 row.
pub fn fig9_row(loops: &[BenchLoop], machine: &MachineConfig, regs: u32) -> Fig9Row {
    let ii_driver = IncreaseIiDriver::new();
    let spill_driver = SpillDriver::new(SpillDriverOptions::default());
    let best_driver = BestOfAllDriver::new(SpillDriverOptions::default());
    // Per loop: `(ii_of_increase_ii, ii_of_spill, ii_of_best)` for the
    // comparable subset, `None` for loops that need no reduction or are
    // non-convergent (excluded, as in the paper).
    let per_loop = parallel_map(loops, harness_jobs(), |_, l| {
        let (_, ideal_regs) = ideal(l, machine);
        if ideal_regs <= regs {
            return None; // no reduction needed
        }
        let by_ii = ii_driver.run(&l.ddg, machine, regs).ok()?;
        let by_spill = spill_driver.run(&l.ddg, machine, regs).ok()?;
        let by_best = best_driver.run(&l.ddg, machine, regs).ok()?;
        debug_assert!(matches!(by_best.winner, Winner::Spill | Winner::IncreaseIi));
        Some((by_ii.schedule.ii(), by_spill.schedule.ii(), by_best.schedule.ii()))
    });
    let mut row = Fig9Row::default();
    for (l, iis) in loops.iter().zip(per_loop) {
        let Some((ii_ii, spill_ii, best_ii)) = iis else { continue };
        row.subset += 1;
        row.increase_ii_cycles += l.cycles(ii_ii);
        row.spill_cycles += l.cycles(spill_ii);
        row.best_cycles += l.cycles(best_ii);
        if ii_ii < spill_ii {
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

    fn small_suite() -> Vec<BenchLoop> {
        suite(5, 40)
    }

    #[test]
    fn ideal_is_cheapest() {
        let loops = small_suite();
        let m = MachineConfig::p2l4();
        let ideal_agg = run_ideal(&loops, &m);
        let constrained = run_spill_variant(&loops, &m, 32, SpillDriverOptions::default());
        assert!(constrained.failures == 0, "all loops must fit after spilling");
        assert!(constrained.cycles >= ideal_agg.cycles);
        assert!(constrained.memory_refs >= ideal_agg.memory_refs);
    }

    #[test]
    fn generous_budget_matches_ideal() {
        let loops = small_suite();
        let m = MachineConfig::p2l4();
        let ideal_agg = run_ideal(&loops, &m);
        let roomy = run_spill_variant(&loops, &m, 4096, SpillDriverOptions::default());
        assert_eq!(roomy.cycles, ideal_agg.cycles);
        assert_eq!(roomy.spilled, 0);
    }

    #[test]
    fn accelerated_variant_reschedules_less() {
        let loops = small_suite();
        let m = MachineConfig::p1l4();
        let variants = fig8_variants();
        let slow = run_spill_variant(&loops, &m, 32, variants[1].options);
        let fast = run_spill_variant(&loops, &m, 32, variants[3].options);
        assert!(fast.reschedules <= slow.reschedules);
        assert!(fast.iis_explored <= slow.iis_explored);
    }

    #[test]
    fn table1_row_is_consistent() {
        let loops = small_suite();
        let m = MachineConfig::p2l4();
        let row = table1_row(&loops, &m, 32);
        assert!(row.cycle_share >= 0.0 && row.cycle_share <= 100.0);
        // 64 registers can only shrink the non-convergent set.
        let row64 = table1_row(&loops, &m, 64);
        assert!(row64.non_convergent.len() <= row.non_convergent.len());
    }

    #[test]
    fn fig9_best_never_loses() {
        let loops = small_suite();
        let m = MachineConfig::p2l4();
        let row = fig9_row(&loops, &m, 32);
        assert!(row.best_cycles <= row.increase_ii_cycles.max(row.spill_cycles));
        if row.subset > 0 {
            assert!(row.best_cycles <= row.spill_cycles);
        }
    }
}
