//! The paper's tables and figures, one function per artifact; the
//! `regpipe paper <artifact>` verb runs them.
//!
//! | artifact     | reproduces                                             |
//! |--------------|--------------------------------------------------------|
//! | [`example`]  | Figures 2/3/5/6 — the running example walkthrough      |
//! | [`fig4`]     | Figure 4 — register requirement vs II, both APSI loops |
//! | [`fig7`]     | Figure 7 — regs/MII/II/traffic vs lifetimes spilled    |
//! | [`fig8`]     | Figure 8 — cycles / traffic / scheduling effort        |
//! | [`fig9`]     | Figure 9 — increase-II vs spill vs best-of-all         |
//! | [`table1`]   | Table 1 — loops that never converge + their cycles     |
//! | [`ablation`] | ablations beyond the paper's figures                   |
//!
//! Each function prints its artifact to stdout. [`example`], [`fig4`] and
//! [`fig7`] run on the paper's named loops; the others run over the loops
//! they are given, in the paper's case the evaluation suite. Independent
//! work fans out over `jobs` worker threads on the `regpipe_exec` engine
//! and is printed in order afterwards, so the output is byte-identical for
//! every worker count. The one exception is [`fig8`]'s time column, which
//! shows wall time only under `REGPIPE_BENCH_TIMING=1`.

use std::fmt::Write as _;
use std::num::NonZeroUsize;

use regpipe_core::{compile, CompileOptions, SpillDriverOptions, Strategy, TracePoint};
use regpipe_ddg::{to_dot, Ddg};
use regpipe_exec::{bench_timing, parallel_map};
use regpipe_loops::paper::{apsi47_like, apsi50_like, example_loop};
use regpipe_loops::BenchLoop;
use regpipe_machine::MachineConfig;
use regpipe_regalloc::{allocate, LifetimeAnalysis, MveAllocator};
use regpipe_sched::{
    mii, stage_schedule, LoopAnalysis, PipelinedLoop, SchedRequest, Scheduler, SchedulerKind,
};
use regpipe_spill::{eliminate_dead_ops, SelectHeuristic};

use crate::{
    fig8_variants, fig9_row, ideal_batch, mcycles, run_ideal, run_spill_variant, table1_row,
    REGISTER_BUDGETS,
};

/// Figures 2, 3, 5 and 6: the paper's running example walkthrough.
///
/// `x(i) = y(i)*a + y(i-3)` on the didactic machine (4 universal units,
/// latency 2): schedule at II=1 (11 variant registers), reschedule at II=2
/// (7 registers), then spill V1 and land on 5 registers at II=2.
pub fn example(jobs: NonZeroUsize) {
    let g = example_loop();
    let m = MachineConfig::uniform(4, 2);
    let scheduler = SchedulerKind::Hrms;

    println!("=== Paper example: x(i) = y(i)*a + y(i-3) (Figures 2/3/5/6) ===\n");
    println!("{g}");
    println!("MII = {}\n", mii(&g, &m));

    // Figures 2 and 3 are independent schedules of the same graph (best II
    // and II = 2); compute both as a fan-out on the batch engine.
    let requests = [SchedRequest::default(), SchedRequest::starting_at(2)];
    let mut schedules = parallel_map(&requests, jobs, |_, req| {
        scheduler.schedule(&g, &m, req).expect("schedulable")
    })
    .into_iter();

    // Figure 2: II = 1.
    let s1 = schedules.next().unwrap();
    s1.verify(&g, &m).expect("valid");
    let lt1 = LifetimeAnalysis::new(&g, &s1);
    let a1 = allocate(&g, &s1);
    println!("--- Figure 2: II = {} ---", s1.ii());
    println!("{}", PipelinedLoop::new(&g, &s1).kernel());
    for lt in lt1.lifetimes() {
        println!(
            "  {:<4} LT {:>2} = sched {} + dist {}",
            g.op(lt.producer()).name(),
            lt.length(),
            lt.sched_component(),
            lt.dist_component()
        );
    }
    println!(
        "  MaxLive (variants) = {}   allocated = {} (paper: 11)\n",
        lt1.max_live_variants(),
        a1.variant_regs()
    );

    // Figure 3: II = 2.
    let s2 = schedules.next().unwrap();
    let lt2 = LifetimeAnalysis::new(&g, &s2);
    println!("--- Figure 3: II = {} ---", s2.ii());
    println!(
        "  MaxLive (variants) = {} (paper: 7)  — scheduling components shrank, distance components grew\n",
        lt2.max_live_variants()
    );

    // Figures 5/6: spill V1 and reschedule.
    let options = CompileOptions {
        strategy: Strategy::Spill,
        spill: SpillDriverOptions {
            max_rounds: 64,
            ..SpillDriverOptions::unaccelerated(SelectHeuristic::MaxLt)
        },
        ..CompileOptions::default()
    };
    // The paper's Figure 6 counts 5 *variant* registers; the invariant `a`
    // occupies one more, so the total budget is 6.
    let out = compile(&g, &m, 6, &options).expect("fits 6 registers after spilling");
    out.schedule().verify(out.ddg(), &m).expect("valid");
    println!("--- Figures 5/6: spill V1, budget 6 registers (5 variants + invariant a) ---");
    println!("{}", out.ddg());
    println!("{}", out.pipeline().kernel());
    println!(
        "  II = {} (paper: 2), variant regs = {} (paper: 5), lifetimes spilled = {}",
        out.ii(),
        out.allocation().variant_regs(),
        out.spilled()
    );
    println!("  memory ops/iteration: {} -> {}", g.memory_ops(), out.ddg().memory_ops());
    println!("\n--- DOT of the rewritten graph (Figure 5c/5d) ---");
    println!("{}", to_dot(out.ddg()));
}

/// Figure 4: register requirements as the II increases, for the convergent
/// APSI-47-like loop (4a) and the non-convergent APSI-50-like loop (4b).
///
/// The two sweeps are independent, so they run as a two-item fan-out.
pub fn fig4(jobs: NonZeroUsize) {
    let machine = MachineConfig::p2l4();
    println!("=== Figure 4: behaviour under increasing II ({}) ===\n", machine);
    let figures = [
        ("Figure 4a: APSI-47-like (converges)", apsi47_like()),
        ("Figure 4b: APSI-50-like (does not converge)", apsi50_like()),
    ];
    let sections = parallel_map(&figures, jobs, |_, (name, g)| fig4_sweep(name, g, &machine));
    for section in sections {
        print!("{section}");
    }
}

fn fig4_sweep(name: &str, g: &Ddg, machine: &MachineConfig) -> String {
    let mut out = String::new();
    let ctx = LoopAnalysis::new(g, machine);
    let lo = ctx.mii();
    let _ = writeln!(out, "--- {name} (MII = {lo}) ---");
    let _ = writeln!(out, "{:>5} {:>6} {:>4}", "II", "regs", "SC");
    let mut last_regs = u32::MAX;
    let mut reached_16 = false;
    let mut reached_32 = false;
    for ii in lo..lo + 40 {
        let Ok(s) = SchedulerKind::Hrms.schedule_in(&ctx, &SchedRequest::exactly(ii)) else {
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

/// Figure 7: evolution of registers, MII, II and memory traffic as
/// lifetimes are spilled one at a time with Max(LT), for the APSI-47-like
/// and APSI-50-like loops.
///
/// The four `(loop, budget)` traces are independent, so they run as a
/// fan-out.
pub fn fig7(jobs: NonZeroUsize) {
    let machine = MachineConfig::p2l4();
    println!("=== Figure 7: spilling trace ({machine}) ===\n");
    let cells = [
        ("Figure 7a: APSI-47-like", apsi47_like(), 32),
        ("Figure 7a: APSI-47-like", apsi47_like(), 16),
        ("Figure 7b: APSI-50-like", apsi50_like(), 32),
        ("Figure 7b: APSI-50-like", apsi50_like(), 16),
    ];
    let sections = parallel_map(&cells, jobs, |_, (name, g, budget)| {
        fig7_trace(name, g, &machine, *budget)
    });
    for section in sections {
        print!("{section}");
    }
}

fn fig7_trace(name: &str, g: &Ddg, machine: &MachineConfig, budget: u32) -> String {
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
                fig7_point(&mut out, p);
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
                fig7_point(&mut out, p);
            }
            let _ = writeln!(out, "=> failed: {}\n", e.failure());
        }
    }
    out
}

fn fig7_point(out: &mut String, p: &TracePoint) {
    let _ = writeln!(
        out,
        "{:>8} {:>5} {:>5} {:>6} {:>8} {:>9.1}",
        p.spilled, p.mii, p.ii, p.regs, p.memory_ops, p.memory_utilization
    );
}

/// Figure 8: (a) execution cycles, (b) dynamic memory references and
/// (c) scheduling effort for the spilling-heuristic variants over `loops`,
/// across the three machine configurations and both register-file sizes.
pub fn fig8(loops: &[BenchLoop], jobs: NonZeroUsize) {
    println!("=== Figure 8: heuristic evaluation ({} loops) ===", loops.len());
    for machine in MachineConfig::paper_configs() {
        let ideal = run_ideal(loops, &machine, jobs);
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
                let agg = run_spill_variant(loops, &machine, regs, variant.options, jobs);
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

/// Figure 9: increasing the II versus adding spill code versus the
/// best-of-all combination, on the subset of `loops` that (1) need a
/// register reduction and (2) converge under increase-II.
pub fn fig9(loops: &[BenchLoop], jobs: NonZeroUsize) {
    println!("=== Figure 9: increase-II vs spill vs best-of-all ({} loops) ===\n", loops.len());
    println!(
        "{:<8} {:>6} {:>8} {:>14} {:>12} {:>12} {:>10}",
        "config", "regs", "subset", "increase-II", "spill", "best", "II wins"
    );
    for machine in MachineConfig::paper_configs() {
        for regs in REGISTER_BUDGETS {
            let row = fig9_row(loops, &machine, regs, jobs);
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

/// Table 1: the loops of `loops` for which increasing the II never
/// converges to the available number of registers, and the share of
/// execution cycles they represent, per machine configuration and
/// register-file size.
pub fn table1(loops: &[BenchLoop], jobs: NonZeroUsize) {
    println!(
        "=== Table 1: non-convergence of the increase-II strategy ({} loops) ===\n",
        loops.len()
    );
    println!("{:<8} {:>6} {:>14} {:>14}", "config", "regs", "never-converge", "% of cycles");
    // The paper observes the same loops fail regardless of configuration;
    // the 32-register failures of P2L4 are listed as the representative set.
    let mut listed = Vec::new();
    for machine in MachineConfig::paper_configs() {
        let ideal = ideal_batch(loops, &machine, jobs);
        for regs in REGISTER_BUDGETS {
            let row = table1_row(loops, &ideal, &machine, regs, jobs);
            println!(
                "{:<8} {:>6} {:>14} {:>13.1}%",
                machine.name(),
                regs,
                row.non_convergent.len(),
                row.cycle_share
            );
            if machine == MachineConfig::p2l4() && regs == 32 {
                listed = row.non_convergent;
            }
        }
    }
    println!();
    println!("Non-convergent loops on P2L4 with 32 registers:");
    for name in listed.iter().take(30) {
        println!("  {name}");
    }
    if listed.len() > 30 {
        println!("  ... and {} more", listed.len() - 30);
    }
    println!(
        "\nPaper's shape: a handful of loops (<2%), but ≈20% (64 regs) to ≈30% (32 regs) of cycles."
    );
}

/// Ablations beyond the paper's figures, over `loops` and the two APSI
/// loops:
///
/// 1. **Scheduler register sensitivity** — HRMS vs the ASAP baseline at
///    equal IIs (the paper's motivation for using a register-sensitive
///    scheduler, citing its reference \[21\]).
/// 2. **Rotating register file vs MVE** — the register and code-size cost
///    of modulo variable expansion when no rotating file exists
///    (Section 2.3's alternative).
/// 3. **Dead-code elimination after spilling** — the paper keeps dead
///    loads (Figure 5c); what does removing them buy?
/// 4. **Stage scheduling post-pass** — register reduction at constant II
///    (the paper's reference \[13\]) applied on top of both schedulers.
pub fn ablation(loops: &[BenchLoop], jobs: NonZeroUsize) {
    let machine = MachineConfig::p2l4();
    let hrms = SchedulerKind::Hrms;
    let asap = SchedulerKind::Asap;

    // ------------------------------------------------------------------
    // 1. HRMS vs ASAP register pressure (same-II subset).
    // ------------------------------------------------------------------
    let per_loop = parallel_map(loops, jobs, |_, l| {
        let ctx = LoopAnalysis::new(&l.ddg, &machine);
        let h = hrms.schedule_in(&ctx, &SchedRequest::default()).unwrap();
        let a = asap.schedule_in(&ctx, &SchedRequest::default()).unwrap();
        if h.ii() != a.ii() {
            return None;
        }
        // 4. Stage scheduling on top of each.
        let hs = stage_schedule(&ctx, &h);
        let as_ = stage_schedule(&ctx, &a);
        Some((
            u64::from(allocate(&l.ddg, &h).total()),
            u64::from(allocate(&l.ddg, &a).total()),
            u64::from(allocate(&l.ddg, &hs).total()),
            u64::from(allocate(&l.ddg, &as_).total()),
        ))
    });
    let (mut n, mut hrms_regs, mut asap_regs, mut hrms_stage, mut asap_stage) =
        (0u32, 0u64, 0u64, 0u64, 0u64);
    for (h, a, hs, as_) in per_loop.into_iter().flatten() {
        n += 1;
        hrms_regs += h;
        asap_regs += a;
        hrms_stage += hs;
        asap_stage += as_;
    }
    println!(
        "=== Ablation 1/4: scheduler register sensitivity ({n} same-II loops, {machine}) ==="
    );
    println!("  total registers, HRMS:              {hrms_regs}");
    println!("  total registers, ASAP baseline:     {asap_regs}");
    println!("  total registers, HRMS + stage-sched: {hrms_stage}");
    println!("  total registers, ASAP + stage-sched: {asap_stage}");
    println!(
        "  -> register-sensitive scheduling saves {:.1}%; stage scheduling recovers {:.1}% of the ASAP penalty\n",
        100.0 * (asap_regs as f64 - hrms_regs as f64) / asap_regs as f64,
        100.0 * (asap_regs as f64 - asap_stage as f64)
            / (asap_regs as f64 - hrms_regs as f64).max(1.0)
    );

    // ------------------------------------------------------------------
    // 2. Rotating file vs MVE.
    // ------------------------------------------------------------------
    let per_loop = parallel_map(loops, jobs, |_, l| {
        let s = hrms.schedule(&l.ddg, &machine, &SchedRequest::default()).unwrap();
        let analysis = LifetimeAnalysis::new(&l.ddg, &s);
        let mve = MveAllocator::new().allocate(&analysis);
        (u64::from(allocate(&l.ddg, &s).total()), u64::from(mve.total()), mve.unroll())
    });
    let (mut rot_total, mut mve_total, mut worst_unroll) = (0u64, 0u64, 1u32);
    for (rot, mve, unroll) in per_loop {
        rot_total += rot;
        mve_total += mve;
        worst_unroll = worst_unroll.max(unroll);
    }
    println!("=== Ablation 2/4: rotating register file vs modulo variable expansion ===");
    println!("  total registers, rotating file: {rot_total}");
    println!("  total registers, MVE:           {mve_total}");
    println!("  worst kernel unroll under MVE:  x{worst_unroll}");
    println!(
        "  -> rotating hardware saves {:.1}% registers and all of the code growth\n",
        100.0 * (mve_total as f64 - rot_total as f64) / mve_total as f64
    );

    // ------------------------------------------------------------------
    // 3. DCE after spilling (paper keeps dead loads).
    // ------------------------------------------------------------------
    println!("=== Ablation 3/4: dead-code elimination after spilling (budget 32) ===");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "loop", "II", "mem ops", "II+dce", "mem+dce", "removed"
    );
    let spill = CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() };
    for g in [apsi47_like(), apsi50_like()] {
        let out = compile(&g, &machine, 32, &spill).expect("spill fits 32");
        let clean = eliminate_dead_ops(out.ddg());
        let post = hrms
            .schedule(&clean.ddg, &machine, &SchedRequest::default())
            .expect("cleaned graph schedules");
        post.verify(&clean.ddg, &machine).unwrap();
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
            g.name(),
            out.ii(),
            out.ddg().memory_ops(),
            post.ii(),
            clean.ddg.memory_ops(),
            clean.removed.len()
        );
    }
    println!("  -> removing dead loads trims memory traffic and can lower the MII\n");

    // ------------------------------------------------------------------
    // 4. Stage scheduling summary (printed above alongside ablation 1).
    // ------------------------------------------------------------------
    println!("=== Ablation 4/4: stage scheduling is reported with ablation 1 ===");
}
