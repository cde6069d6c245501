//! Figure 4: register requirements as the II increases, for the convergent
//! APSI-47-like loop (4a) and the non-convergent APSI-50-like loop (4b).
//!
//! The two sweeps are independent, so they run as a two-item fan-out on
//! the `regpipe_exec` engine (`--jobs`/`REGPIPE_JOBS`); the sections are
//! printed in figure order afterwards, identical for any worker count.

use std::fmt::Write as _;

use regpipe_core::{compile, CompileOptions, Strategy};
use regpipe_exec::parallel_map;
use regpipe_loops::paper::{apsi47_like, apsi50_like};
use regpipe_machine::MachineConfig;
use regpipe_regalloc::allocate;
use regpipe_sched::{mii, HrmsScheduler, SchedRequest, Scheduler};

fn sweep(name: &str, g: &regpipe_ddg::Ddg, machine: &MachineConfig) -> String {
    let mut out = String::new();
    let lo = mii(g, machine);
    let _ = writeln!(out, "--- {name} (MII = {lo}) ---");
    let _ = writeln!(out, "{:>5} {:>6} {:>4}", "II", "regs", "SC");
    let mut last_regs = u32::MAX;
    let mut reached_16 = false;
    let mut reached_32 = false;
    for ii in lo..lo + 40 {
        let Ok(s) = HrmsScheduler::new().schedule(g, machine, &SchedRequest::exactly(ii))
        else {
            continue;
        };
        let a = allocate(g, &s);
        let _ = writeln!(out, "{:>5} {:>6} {:>4}", s.ii(), a.total(), s.stage_count());
        if a.total() <= 32 && !reached_32 {
            let _ = writeln!(
                out,
                "      ^ fits 32 registers (II {} = {:.0}% of peak throughput)",
                s.ii(),
                100.0 * f64::from(lo) / f64::from(s.ii())
            );
            reached_32 = true;
        }
        if a.total() <= 16 && !reached_16 {
            let _ = writeln!(out, "      ^ fits 16 registers");
            reached_16 = true;
        }
        if s.stage_count() == 1 && a.total() >= last_regs {
            let _ = writeln!(out, "      (stage count 1: the requirement has hit its floor)");
            break;
        }
        last_regs = a.total();
        if reached_16 {
            break;
        }
    }
    let increase_ii =
        CompileOptions { strategy: Strategy::IncreaseIi, ..CompileOptions::default() };
    match compile(g, machine, 32, &increase_ii) {
        Ok(run) => {
            let _ = writeln!(
                out,
                "=> converges to 32 registers at II {} ({} tries)\n",
                run.ii(),
                run.trace().len()
            );
        }
        Err(e) => {
            let _ = writeln!(out, "=> NEVER converges to 32 registers: {}\n", e.failure());
        }
    }
    out
}

fn main() {
    let jobs = regpipe_bench::expt_jobs();
    let machine = MachineConfig::p2l4();
    println!("=== Figure 4: behaviour under increasing II ({}) ===\n", machine);
    let figures = [
        ("Figure 4a: APSI-47-like (converges)", apsi47_like()),
        ("Figure 4b: APSI-50-like (does not converge)", apsi50_like()),
    ];
    let sections = parallel_map(&figures, jobs, |_, (name, g)| sweep(name, g, &machine));
    for section in sections {
        print!("{section}");
    }
}
