//! Reproducibility: identical inputs produce identical outputs — a
//! requirement for a research artifact whose numbers must regenerate.

use regpipe::loops::{paper, suite};
use regpipe::prelude::*;
use regpipe::sched::SchedRequest;

#[test]
fn schedules_are_deterministic() {
    let g = paper::apsi50_like();
    let m = MachineConfig::p2l4();
    let a = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::default()).unwrap();
    let b = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::default()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn compilation_is_deterministic() {
    let g = paper::apsi50_like();
    let m = MachineConfig::p2l4();
    let a = compile(&g, &m, 24, &CompileOptions::default()).unwrap();
    let b = compile(&g, &m, 24, &CompileOptions::default()).unwrap();
    assert_eq!(a.ii(), b.ii());
    assert_eq!(a.registers_used(), b.registers_used());
    assert_eq!(a.spilled(), b.spilled());
    assert_eq!(a.schedule().starts(), b.schedule().starts());
}

#[test]
fn suites_are_seed_stable() {
    let a = suite(0xC1DA, 64);
    let b = suite(0xC1DA, 64);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.weight, y.weight);
        assert_eq!(x.ddg.num_ops(), y.ddg.num_ops());
        assert_eq!(x.ddg.num_edges(), y.ddg.num_edges());
    }
}

#[test]
fn full_pipeline_fixpoint_snapshot() {
    // A coarse snapshot guarding against silent behavioural drift: if this
    // changes, the `regpipe paper <artifact>` outputs need regenerating.
    let m = MachineConfig::p2l4();
    let g47 = paper::apsi47_like();
    let g50 = paper::apsi50_like();
    assert_eq!(mii(&g47, &m), 8);
    assert_eq!(mii(&g50, &m), 11);
    let c47 = compile(&g47, &m, 32, &CompileOptions::default()).unwrap();
    let c50 = compile(&g50, &m, 32, &CompileOptions::default()).unwrap();
    assert!(c47.ii() <= 14, "APSI-47 fits 32 regs near its MII (got {})", c47.ii());
    assert!(c50.spilled() > 0, "APSI-50 can only fit by spilling");
    assert!(c50.ii() <= 24, "got {}", c50.ii());
}
