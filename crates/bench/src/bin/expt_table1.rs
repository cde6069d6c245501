//! Table 1: loops for which increasing the II never converges to the
//! available number of registers, and the share of execution cycles they
//! represent — per machine configuration and register-file size.

use regpipe_bench::{evaluation_suite, suite_size, table1_row, REGISTER_BUDGETS};
use regpipe_machine::MachineConfig;

fn main() {
    let jobs = regpipe_bench::expt_jobs();
    let loops = evaluation_suite();
    println!(
        "=== Table 1: non-convergence of the increase-II strategy ({} loops) ===\n",
        suite_size()
    );
    println!("{:<8} {:>6} {:>14} {:>14}", "config", "regs", "never-converge", "% of cycles");
    for machine in MachineConfig::paper_configs() {
        for regs in REGISTER_BUDGETS {
            let row = table1_row(&loops, &machine, regs, jobs);
            println!(
                "{:<8} {:>6} {:>14} {:>13.1}%",
                machine.name(),
                regs,
                row.non_convergent.len(),
                row.cycle_share
            );
        }
    }
    println!();
    // The paper observes the same loops fail regardless of configuration;
    // list the 32-register failures of P2L4 as the representative set.
    let row = table1_row(&loops, &MachineConfig::p2l4(), 32, jobs);
    println!("Non-convergent loops on P2L4 with 32 registers:");
    for name in row.non_convergent.iter().take(30) {
        println!("  {name}");
    }
    if row.non_convergent.len() > 30 {
        println!("  ... and {} more", row.non_convergent.len() - 30);
    }
    println!(
        "\nPaper's shape: a handful of loops (<2%), but ≈20% (64 regs) to ≈30% (32 regs) of cycles."
    );
}
