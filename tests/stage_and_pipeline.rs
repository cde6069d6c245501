//! Integration tests for the two scheduling extensions: the stage-scheduling
//! post-pass and whole-pipeline emission.

use regpipe::loops::{kernels, suite};
use regpipe::prelude::*;
use regpipe::regalloc::LifetimeAnalysis;
use regpipe::sched::{
    stage_schedule, LoopAnalysis, PipelinedLoop, SchedRequest, Scheduler, TraceEntry,
};

#[test]
fn stage_scheduling_never_hurts_across_the_suite() {
    let loops = suite(909, 60);
    let m = MachineConfig::p2l4();
    for l in &loops {
        let ctx = LoopAnalysis::new(&l.ddg, &m);
        for sched in [
            SchedulerKind::Hrms.schedule_in(&ctx, &SchedRequest::default()).unwrap(),
            SchedulerKind::Asap.schedule_in(&ctx, &SchedRequest::default()).unwrap(),
        ] {
            let before = LifetimeAnalysis::new(&l.ddg, &sched);
            let post = stage_schedule(&ctx, &sched);
            post.verify(&l.ddg, &m).unwrap_or_else(|e| panic!("{}: {e}", l.name));
            assert_eq!(post.ii(), sched.ii(), "{}: II untouched", l.name);
            let after = LifetimeAnalysis::new(&l.ddg, &post);
            // The pass minimizes the lifetime sum; the sum bounds average
            // pressure, so it must not grow.
            let sum = |a: &LifetimeAnalysis| a.lifetimes().map(|lt| lt.length()).sum::<i64>();
            assert!(
                sum(&after) <= sum(&before),
                "{}: lifetime sum grew {} -> {}",
                l.name,
                sum(&before),
                sum(&after)
            );
        }
    }
}

#[test]
fn stage_scheduling_preserves_modulo_slots() {
    let g = kernels::state_fragment();
    let m = MachineConfig::p2l4();
    let ctx = LoopAnalysis::new(&g, &m);
    let s = SchedulerKind::Asap.schedule_in(&ctx, &SchedRequest::default()).unwrap();
    let post = stage_schedule(&ctx, &s);
    let ii = i64::from(s.ii());
    for id in g.op_ids() {
        assert_eq!(post.start(id).rem_euclid(ii), s.start(id).rem_euclid(ii));
    }
}

#[test]
fn pipeline_trace_is_resource_legal_cycle_by_cycle() {
    use regpipe::machine::Mrt;
    // The modulo property promises the flat trace never oversubscribes a
    // functional unit in any absolute cycle; check it directly.
    let g = kernels::hydro_fragment();
    let m = MachineConfig::p1l4();
    let s = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::default()).unwrap();
    let p = PipelinedLoop::new(&g, &s);
    let trace = p.trace(12);
    let horizon = trace.iter().map(|e| e.cycle).max().unwrap() + 1;
    // An MRT with II == horizon is a plain (non-modulo) reservation table.
    let mut table = Mrt::new(&m, u32::try_from(horizon + 1).unwrap());
    for e in &trace {
        assert!(
            table.try_place(g.op(e.op).kind(), e.cycle),
            "unit oversubscribed at absolute cycle {} by {}",
            e.cycle,
            g.op(e.op).name()
        );
    }
}

#[test]
fn pipeline_code_size_grows_with_stage_count() {
    let g = kernels::inner_product();
    let m = MachineConfig::p2l6();
    let s = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::default()).unwrap();
    let p = PipelinedLoop::new(&g, &s);
    assert_eq!(p.code_size(), p.prologue_ops() + g.num_ops() + p.epilogue_ops());
    if s.stage_count() == 1 {
        assert_eq!(p.code_size(), g.num_ops());
    } else {
        assert!(p.code_size() > g.num_ops());
    }
}

#[test]
fn compiled_loops_emit_pipelines() {
    let m = MachineConfig::p2l4();
    for g in kernels::all_kernels() {
        let c = compile(&g, &m, 16, &CompileOptions::default()).unwrap();
        let p = c.pipeline();
        assert_eq!(p.ii(), c.ii());
        let txt = p.to_string();
        assert!(txt.contains("kernel"));
    }
}

/// Checks `schedule`'s emitted code against the modulo model at the fewest
/// iterations it can run (SC − 1), at SC and at SC + 3: the replayed
/// prologue, kernel repetitions and epilogue issue iteration k's instance
/// of op v at `start(v) + k·II`, and nothing else.
fn assert_emitted_trace_is_the_model(ddg: &Ddg, schedule: &Schedule) {
    let pipeline = PipelinedLoop::new(ddg, schedule);
    let (ii, sc) = (i64::from(schedule.ii()), u64::from(schedule.stage_count()));
    for n in [sc - 1, sc, sc + 3] {
        let mut model: Vec<TraceEntry> = (0..n)
            .flat_map(|k| {
                ddg.op_ids().map(move |op| TraceEntry {
                    cycle: schedule.start(op) + k as i64 * ii,
                    op,
                    iteration: k,
                })
            })
            .collect();
        model.sort_by_key(|e| (e.cycle, e.op));
        assert_eq!(pipeline.trace(n), model, "{} at II {ii}, SC {sc}, N {n}", ddg.name());
    }
}

/// The emitted-trace property over the built-in suite and a generated
/// corpus under every heuristic scheduler on the three paper machines,
/// plus the spill-compiled graphs, whose bonded reloads and stores make
/// longer pipelines, of the first 100 loops at budgets 32 and 16.
#[test]
fn emitted_trace_replays_the_modulo_model() {
    let mut loops = suite(49626, 300);
    loops.extend(generate(7, 100, &GenParams::default()).unwrap());
    let spill = CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() };
    for m in [MachineConfig::p1l4(), MachineConfig::p2l4(), MachineConfig::p2l6()] {
        for l in &loops {
            for kind in [SchedulerKind::Hrms, SchedulerKind::Sms, SchedulerKind::Asap] {
                let s = kind.schedule(&l.ddg, &m, &SchedRequest::default()).unwrap();
                assert_emitted_trace_is_the_model(&l.ddg, &s);
            }
        }
        for l in &loops[..100] {
            for budget in [32, 16] {
                let c = compile(&l.ddg, &m, budget, &spill).unwrap();
                assert_emitted_trace_is_the_model(c.ddg(), c.schedule());
            }
        }
    }
}
