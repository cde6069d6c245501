//! Ablations beyond the paper's figures:
//!
//! 1. **Scheduler register sensitivity** — HRMS vs the ASAP baseline at
//!    equal IIs (the paper's motivation for using a register-sensitive
//!    scheduler, citing its reference \[21\]).
//! 2. **Rotating register file vs MVE** — the register and code-size cost
//!    of modulo variable expansion when no rotating file exists
//!    (Section 2.3's alternative).
//! 3. **Dead-code elimination after spilling** — the paper keeps dead
//!    loads (Figure 5c); what does removing them buy?
//! 4. **Stage scheduling post-pass** — register reduction at constant II
//!    (the paper's reference \[13\]) applied on top of both schedulers.

use regpipe_bench::evaluation_suite;
use regpipe_core::{compile, CompileOptions, Strategy};
use regpipe_exec::parallel_map;
use regpipe_loops::paper;
use regpipe_machine::MachineConfig;
use regpipe_regalloc::{allocate, LifetimeAnalysis, MveAllocator};
use regpipe_sched::{stage_schedule, AsapScheduler, HrmsScheduler, SchedRequest, Scheduler};
use regpipe_spill::eliminate_dead_ops;

fn main() {
    let jobs = regpipe_bench::expt_jobs();
    let loops = evaluation_suite();
    let machine = MachineConfig::p2l4();
    let hrms = HrmsScheduler::new();
    let asap = AsapScheduler::new();

    // ------------------------------------------------------------------
    // 1. HRMS vs ASAP register pressure (same-II subset).
    // ------------------------------------------------------------------
    let per_loop = parallel_map(&loops, jobs, |_, l| {
        let h = hrms.schedule(&l.ddg, &machine, &SchedRequest::default()).unwrap();
        let a = asap.schedule(&l.ddg, &machine, &SchedRequest::default()).unwrap();
        if h.ii() != a.ii() {
            return None;
        }
        // 4. Stage scheduling on top of each.
        let hs = stage_schedule(&l.ddg, &machine, &h);
        let as_ = stage_schedule(&l.ddg, &machine, &a);
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
    let per_loop = parallel_map(&loops, jobs, |_, l| {
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
    for g in [paper::apsi47_like(), paper::apsi50_like()] {
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
