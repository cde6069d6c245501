//! A mini evaluation over a 100-loop synthetic suite: how much throughput a
//! 32-register file costs relative to an unbounded one, per archetype.
//!
//! Run with `cargo run --release --example suite_report`.

use std::collections::BTreeMap;

use regpipe::loops::suite;
use regpipe::prelude::*;
use regpipe::sched::SchedRequest;

fn main() {
    let loops = suite(2026, 100);
    let machine = MachineConfig::p2l4();
    let spill = CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() };
    let scheduler = SchedulerKind::Hrms;

    // (loops, ideal cycles, constrained cycles, spills) per archetype.
    let mut per_kind: BTreeMap<String, (u32, u64, u64, u64)> = BTreeMap::new();
    for l in &loops {
        let kind = l.name.split('_').next().unwrap_or("?").to_string();
        let ideal = scheduler
            .schedule(&l.ddg, &machine, &SchedRequest::default())
            .expect("suite loops are schedulable");
        let constrained =
            compile(&l.ddg, &machine, 32, &spill).expect("spilling always fits 32");
        let entry = per_kind.entry(kind).or_default();
        entry.0 += 1;
        entry.1 += l.cycles(ideal.ii());
        entry.2 += l.cycles(constrained.ii());
        entry.3 += u64::from(constrained.spilled());
    }

    println!("=== 100-loop suite on {machine} with 32 registers ===\n");
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>9} {:>8}",
        "archetype", "loops", "ideal cycles", "constrained", "slowdown", "spills"
    );
    let mut tot = (0u32, 0u64, 0u64, 0u64);
    for (kind, (n, ideal, constrained, spills)) in &per_kind {
        println!(
            "{:<10} {:>6} {:>14} {:>14} {:>8.2}x {:>8}",
            kind,
            n,
            ideal,
            constrained,
            *constrained as f64 / *ideal as f64,
            spills
        );
        tot.0 += n;
        tot.1 += ideal;
        tot.2 += constrained;
        tot.3 += spills;
    }
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>8.2}x {:>8}",
        "TOTAL",
        tot.0,
        tot.1,
        tot.2,
        tot.2 as f64 / tot.1 as f64,
        tot.3
    );
    println!("\nHeavy stencils pay for their register floors; streams are free.");
}
