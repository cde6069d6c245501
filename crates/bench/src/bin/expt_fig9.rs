//! Figure 9: increasing the II versus adding spill code versus the
//! best-of-all combination, on the subset of loops that (1) need a register
//! reduction and (2) converge under increase-II.

use regpipe_bench::{evaluation_suite, fig9_row, mcycles, suite_size, REGISTER_BUDGETS};
use regpipe_machine::MachineConfig;

fn main() {
    let jobs = regpipe_bench::expt_jobs();
    let loops = evaluation_suite();
    println!(
        "=== Figure 9: increase-II vs spill vs best-of-all ({} loops) ===\n",
        suite_size()
    );
    println!(
        "{:<8} {:>6} {:>8} {:>14} {:>12} {:>12} {:>10}",
        "config", "regs", "subset", "increase-II", "spill", "best", "II wins"
    );
    for machine in MachineConfig::paper_configs() {
        for regs in REGISTER_BUDGETS {
            let row = fig9_row(&loops, &machine, regs, jobs);
            println!(
                "{:<8} {:>6} {:>8} {:>13}M {:>11}M {:>11}M {:>10}",
                machine.name(),
                regs,
                row.subset,
                mcycles(row.increase_ii_cycles),
                mcycles(row.spill_cycles),
                mcycles(row.best_cycles),
                row.increase_ii_wins
            );
        }
    }
    println!(
        "\nPaper's shape: spilling beats increasing the II on average in every configuration;\n\
         a few loops prefer increase-II, and best-of-all matches or improves on both."
    );
}
