//! Figures 2, 3, 5 and 6: the paper's running example walkthrough.
//!
//! `x(i) = y(i)*a + y(i-3)` on the didactic machine (4 universal units,
//! latency 2): schedule at II=1 (11 variant registers), reschedule at II=2
//! (7 registers), then spill V1 and land on 5 registers at II=2.

use regpipe_core::{compile, CompileOptions, SpillDriverOptions, Strategy};
use regpipe_ddg::to_dot;
use regpipe_exec::parallel_map;
use regpipe_loops::paper::example_loop;
use regpipe_machine::MachineConfig;
use regpipe_regalloc::{allocate, LifetimeAnalysis};
use regpipe_sched::{mii, HrmsScheduler, Kernel, SchedRequest, Scheduler};
use regpipe_spill::SelectHeuristic;

fn main() {
    let jobs = regpipe_bench::expt_jobs();
    let g = example_loop();
    let m = MachineConfig::uniform(4, 2);
    let scheduler = HrmsScheduler::new();

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
    println!("{}", Kernel::new(&g, &s1));
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
    println!("{}", out.kernel());
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
