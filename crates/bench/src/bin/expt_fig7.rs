//! Figure 7: evolution of registers, MII, II and memory traffic as
//! lifetimes are spilled one at a time with Max(LT), for the APSI-47-like
//! and APSI-50-like loops.
//!
//! The four `(loop, budget)` traces are independent, so they run as a
//! fan-out on the `regpipe_exec` engine (`--jobs`/`REGPIPE_JOBS`) and are
//! printed in figure order afterwards, identical for any worker count.

use std::fmt::Write as _;

use regpipe_core::{compile, CompileOptions, SpillDriverOptions, Strategy, TracePoint};
use regpipe_exec::parallel_map;
use regpipe_loops::paper::{apsi47_like, apsi50_like};
use regpipe_machine::MachineConfig;
use regpipe_spill::SelectHeuristic;

fn trace(name: &str, g: &regpipe_ddg::Ddg, machine: &MachineConfig, budget: u32) -> String {
    let mut out = String::new();
    let options = CompileOptions {
        strategy: Strategy::Spill,
        spill: SpillDriverOptions {
            max_rounds: 512,
            ..SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLt)
        },
        ..CompileOptions::default()
    };
    let _ =
        writeln!(out, "--- {name}: Max(LT), one lifetime per reschedule, budget {budget} ---");
    let _ = writeln!(
        out,
        "{:>8} {:>5} {:>5} {:>6} {:>8} {:>9}",
        "spilled", "MII", "II", "regs", "mem ops", "bus use %"
    );
    match compile(g, machine, budget, &options) {
        Ok(run) => {
            for p in run.trace() {
                point(&mut out, p);
            }
            let _ = writeln!(
                out,
                "=> fits {budget} regs with {} lifetimes spilled, II {} (first II was {})\n",
                run.spilled(),
                run.ii(),
                run.trace()[0].ii
            );
        }
        Err(e) => {
            for p in &e.failure().trace {
                point(&mut out, p);
            }
            let _ = writeln!(out, "=> failed: {}\n", e.failure());
        }
    }
    out
}

fn point(out: &mut String, p: &TracePoint) {
    let _ = writeln!(
        out,
        "{:>8} {:>5} {:>5} {:>6} {:>8} {:>9.1}",
        p.spilled, p.mii, p.ii, p.regs, p.memory_ops, p.memory_utilization
    );
}

fn main() {
    let jobs = regpipe_bench::expt_jobs();
    let machine = MachineConfig::p2l4();
    println!("=== Figure 7: spilling trace ({machine}) ===\n");
    let cells = [
        ("Figure 7a: APSI-47-like", apsi47_like(), 32),
        ("Figure 7a: APSI-47-like", apsi47_like(), 16),
        ("Figure 7b: APSI-50-like", apsi50_like(), 32),
        ("Figure 7b: APSI-50-like", apsi50_like(), 16),
    ];
    let sections =
        parallel_map(&cells, jobs, |_, (name, g, budget)| trace(name, g, &machine, *budget));
    for section in sections {
        print!("{section}");
    }
}
