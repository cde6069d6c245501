//! Round-trip tests of the text interchange format over real corpora:
//! every suite loop, every named kernel, and spilled graphs (which exercise
//! bonds, staggers, order edges and non-spillable marks).

use regpipe::ddg::textfmt;
use regpipe::loops::{kernels, paper, suite};
use regpipe::prelude::*;
use regpipe::sched::SchedRequest;

fn assert_equivalent(a: &Ddg, b: &Ddg) {
    assert_eq!(a.name(), b.name());
    assert_eq!(a.num_ops(), b.num_ops());
    assert_eq!(a.num_edges(), b.num_edges());
    assert_eq!(a.num_invariants(), b.num_invariants());
    for (id, node) in a.ops() {
        assert_eq!(node.kind(), b.op(id).kind());
        assert_eq!(a.is_value_marked_non_spillable(id), b.is_value_marked_non_spillable(id));
    }
    let edges = |g: &Ddg| {
        let mut v: Vec<_> = g
            .edges()
            .map(|e| (e.from(), e.to(), e.kind(), e.distance(), e.is_fixed(), e.stagger()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(edges(a), edges(b));
}

#[test]
fn suite_loops_round_trip() {
    for l in suite(55, 80) {
        let text = textfmt::format(&l.ddg);
        let back = textfmt::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", l.name));
        assert_equivalent(&l.ddg, &back);
    }
}

#[test]
fn named_kernels_round_trip() {
    for g in kernels::all_kernels() {
        let back = textfmt::parse(&textfmt::format(&g)).unwrap();
        assert_eq!(back.num_ops(), g.num_ops());
        assert_eq!(back.num_edges(), g.num_edges());
    }
}

#[test]
fn spilled_graphs_round_trip_with_bonds_intact() {
    let g = paper::apsi50_like();
    let m = MachineConfig::p2l4();
    let spill = CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() };
    let out = compile(&g, &m, 24, &spill).unwrap();
    let text = textfmt::format(out.ddg());
    let back = textfmt::parse(&text).unwrap();
    assert_equivalent(out.ddg(), &back);
    // The parsed graph schedules to the same II.
    let s = SchedulerKind::Hrms.schedule(&back, &m, &SchedRequest::default()).unwrap();
    s.verify(&back, &m).unwrap();
    assert_eq!(s.ii(), out.ii());
}

#[test]
fn parsed_corpus_compiles() {
    // Full cycle: generate -> serialize -> parse -> compile.
    for l in suite(66, 20) {
        let back = textfmt::parse(&textfmt::format(&l.ddg)).unwrap();
        let c = compile(&back, &MachineConfig::p1l4(), 32, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", l.name));
        assert!(c.registers_used() <= 32);
    }
}
