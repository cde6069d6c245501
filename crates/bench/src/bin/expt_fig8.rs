//! Figure 8: (a) execution cycles, (b) dynamic memory references and
//! (c) scheduling effort for the spilling-heuristic variants, across the
//! three machine configurations and both register-file sizes.

use regpipe_bench::{
    evaluation_suite, fig8_variants, mcycles, run_ideal, run_spill_variant, suite_size,
    REGISTER_BUDGETS,
};
use regpipe_exec::bench_timing;
use regpipe_machine::MachineConfig;

fn main() {
    let jobs = regpipe_bench::expt_jobs();
    let loops = evaluation_suite();
    println!("=== Figure 8: heuristic evaluation ({} loops) ===", suite_size());
    for machine in MachineConfig::paper_configs() {
        let ideal = run_ideal(&loops, &machine, jobs);
        for regs in REGISTER_BUDGETS {
            println!("\n--- {} with {} registers ---", machine.name(), regs);
            println!(
                "{:<28} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
                "variant", "Mcycles", "Mmem refs", "fail", "resched", "IIs tried", "time"
            );
            println!(
                "{:<28} {:>12} {:>12} {:>8} {:>10} {:>10} {:>10}",
                "ideal (infinite regs)",
                mcycles(ideal.cycles),
                mcycles(ideal.memory_refs),
                0,
                "-",
                "-",
                "-"
            );
            for variant in fig8_variants() {
                let agg = run_spill_variant(&loops, &machine, regs, variant.options, jobs);
                // Wall time is the one non-deterministic column: shown only
                // under REGPIPE_BENCH_TIMING=1, so default runs byte-compare.
                let time = if bench_timing() {
                    format!("{:>9.2}s", agg.wall.as_secs_f64())
                } else {
                    "         -".to_string()
                };
                println!(
                    "{:<28} {:>12} {:>12} {:>8} {:>10} {:>10} {time}",
                    variant.label,
                    mcycles(agg.cycles),
                    mcycles(agg.memory_refs),
                    agg.failures,
                    agg.reschedules,
                    agg.iis_explored,
                );
            }
        }
    }
    println!(
        "\nPaper's shape: Max(LT/Traf) ≤ Max(LT) in cycles and traffic; 64-register results ≈ ideal;\n\
         the two accelerations cost little performance but cut scheduling effort by an order of magnitude."
    );
}
