//! The paper's running example, step by step (Figures 2, 3, 5 and 6):
//! schedule, measure lifetimes, increase the II, then spill — showing how
//! each mechanism trades throughput, registers and memory traffic.
//!
//! Run with `cargo run --example spill_walkthrough`.

use regpipe::loops::paper::example_loop;
use regpipe::prelude::*;
use regpipe::regalloc::LifetimeAnalysis;
use regpipe::sched::SchedRequest;
use regpipe::spill::SelectHeuristic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = example_loop();
    let m = MachineConfig::uniform(4, 2); // the paper's didactic machine
    let scheduler = SchedulerKind::Hrms;

    println!("loop: x(i) = y(i)*a + y(i-3)\n{g}");

    // Step 1 — Figure 2: the throughput-optimal schedule (II = 1).
    let s1 = scheduler.schedule(&g, &m, &SchedRequest::default())?;
    let lt1 = LifetimeAnalysis::new(&g, &s1);
    println!("II = {}: {} variant registers (paper: 11)", s1.ii(), lt1.max_live_variants());
    for lt in lt1.lifetimes() {
        println!(
            "  {:<3} lives {:>2} cycles = {} (schedule) + {} (distance)",
            g.op(lt.producer()).name(),
            lt.length(),
            lt.sched_component(),
            lt.dist_component()
        );
    }

    // Step 2 — Figure 3: trade throughput for registers by raising the II.
    let s2 = scheduler.schedule(&g, &m, &SchedRequest::starting_at(2))?;
    let lt2 = LifetimeAnalysis::new(&g, &s2);
    println!(
        "\nII = {}: {} variant registers (paper: 7) — only the *scheduling* \
         components got cheaper; the distance component grew with the II",
        s2.ii(),
        lt2.max_live_variants()
    );

    // Step 3 — Figures 5/6: spill the long lifetime V1 instead.
    let options = CompileOptions {
        strategy: Strategy::Spill,
        spill: SpillDriverOptions {
            max_rounds: 16,
            ..SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLt)
        },
        ..CompileOptions::default()
    };
    let out = compile(&g, &m, 6, &options)?; // 5 variant regs + the invariant a
    println!(
        "\nafter spilling {} lifetime(s): II = {}, {} variant registers (paper: 5)",
        out.spilled(),
        out.ii(),
        out.allocation().variant_regs()
    );
    println!(
        "memory traffic rose from {} to {} operations per iteration — the \
         price of freeing registers",
        g.memory_ops(),
        out.ddg().memory_ops()
    );
    println!("\nfinal kernel:\n{}", out.pipeline().kernel());
    Ok(())
}
