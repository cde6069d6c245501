//! A gallery of classic numeric kernels through the whole pipeline: MII
//! decomposition, scheduling, pressure charts, stage-scheduling recovery,
//! and the rotating-file vs MVE register bill.
//!
//! Run with `cargo run --release --example kernel_gallery`.

use regpipe::loops::kernels;
use regpipe::prelude::*;
use regpipe::regalloc::{pressure_chart, LifetimeAnalysis, MveAllocator};
use regpipe::sched::{stage_schedule, LoopAnalysis, SchedRequest, Scheduler};

fn main() {
    let machine = MachineConfig::p2l4();
    println!("machine: {machine}\n");
    println!(
        "{:<14} {:>4} {:>6} {:>4} {:>5} {:>7} {:>7} {:>9} {:>7}",
        "kernel", "ops", "RecMII", "MII", "II", "regs", "asap", "asap+stage", "MVE"
    );
    for g in kernels::all_kernels() {
        let ctx = LoopAnalysis::new(&g, &machine);
        let hrms = SchedulerKind::Hrms
            .schedule_in(&ctx, &SchedRequest::default())
            .expect("kernels schedule");
        let asap = SchedulerKind::Asap
            .schedule_in(&ctx, &SchedRequest::default())
            .expect("kernels schedule");
        let asap_staged = stage_schedule(&ctx, &asap);
        let hrms_alloc = allocate(&g, &hrms);
        let asap_alloc = allocate(&g, &asap);
        let staged_alloc = allocate(&g, &asap_staged);
        let mve = MveAllocator::new().allocate(&LifetimeAnalysis::new(&g, &hrms));
        println!(
            "{:<14} {:>4} {:>6} {:>4} {:>5} {:>7} {:>7} {:>9} {:>4}x{:<3}",
            g.name(),
            g.num_ops(),
            ctx.rec_mii(),
            ctx.mii(),
            hrms.ii(),
            hrms_alloc.total(),
            asap_alloc.total(),
            staged_alloc.total(),
            mve.total(),
            mve.unroll(),
        );
    }

    // Deep dive: the tri-diagonal recurrence, which no machine can speed up.
    let g = kernels::tridiagonal();
    let s = SchedulerKind::Hrms.schedule(&g, &machine, &SchedRequest::default()).unwrap();
    println!("\n--- tridiagonal elimination in detail ---");
    println!("{}", pressure_chart(&LifetimeAnalysis::new(&g, &s)));
    let c = compile(&g, &machine, 4, &CompileOptions::default()).expect("fits 4 registers");
    println!(
        "under a 4-register budget: II {} -> {}, {} spills, strategy {:?}",
        s.ii(),
        c.ii(),
        c.spilled(),
        c.strategy_used()
    );
}
