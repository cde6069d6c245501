//! Regression pins for scheduling provenance through the cached path.
//!
//! `Schedule::iis_tried` and the drivers' reschedule counters are the
//! paper's scheduling-effort measures (Figure 8c); the `LoopAnalysis`
//! caching layer must not change them. The exact values below were
//! captured from the pre-cache implementation on the paper's Figure 2
//! example and are pinned here verbatim.

use regpipe::loops::paper::example_loop;
use regpipe::machine::MachineConfig;
use regpipe::prelude::*;
use regpipe::sched::SchedRequest;

/// `(machine, unconstrained (ii, iis_tried), spill@5 (ii, spilled, resched),
/// best@5 resched, increase-ii@7 (ii, resched))`.
struct Pin {
    machine: MachineConfig,
    unconstrained: (u32, u32),
    spill_at_5: (u32, u32, u32),
    best_at_5_reschedules: u32,
    increase_ii_at_7: (u32, u32),
}

fn pins() -> Vec<Pin> {
    vec![
        Pin {
            machine: MachineConfig::p1l4(),
            unconstrained: (2, 1),
            spill_at_5: (5, 2, 2),
            best_at_5_reschedules: 5,
            increase_ii_at_7: (6, 5),
        },
        Pin {
            machine: MachineConfig::p2l4(),
            unconstrained: (1, 1),
            spill_at_5: (5, 4, 4),
            best_at_5_reschedules: 7,
            increase_ii_at_7: (5, 5),
        },
        Pin {
            machine: MachineConfig::uniform(4, 2),
            unconstrained: (1, 1),
            spill_at_5: (3, 4, 3),
            best_at_5_reschedules: 5,
            increase_ii_at_7: (3, 3),
        },
    ]
}

#[test]
fn figure2_provenance_counters_match_the_precache_implementation() {
    let g = example_loop();
    for pin in pins() {
        let m = &pin.machine;
        let s = SchedulerKind::Hrms.schedule(&g, m, &SchedRequest::default()).unwrap();
        assert_eq!(
            (s.ii(), s.iis_tried()),
            pin.unconstrained,
            "{}: unconstrained schedule provenance",
            m.name()
        );

        let spill = compile(
            &g,
            m,
            5,
            &CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() },
        )
        .unwrap();
        assert_eq!(
            (spill.ii(), spill.spilled(), spill.reschedules()),
            pin.spill_at_5,
            "{}: spill strategy provenance",
            m.name()
        );

        let best = compile(&g, m, 5, &CompileOptions::default()).unwrap();
        assert_eq!(
            best.reschedules(),
            pin.best_at_5_reschedules,
            "{}: best-of-all reschedules (spill rounds + probes)",
            m.name()
        );
        assert_eq!(best.ii(), spill.ii(), "{}: best-of-all keeps the spill II here", m.name());

        let inc = compile(
            &g,
            m,
            7,
            &CompileOptions { strategy: Strategy::IncreaseIi, ..CompileOptions::default() },
        )
        .unwrap();
        assert_eq!(
            (inc.ii(), inc.reschedules()),
            pin.increase_ii_at_7,
            "{}: increase-II sweep provenance",
            m.name()
        );
    }
}

/// `iis_tried` counts every candidate II the search visited, failed
/// placement attempts included. This generated kernel (seed 10, 8 ops)
/// wedges HRMS at its MII on P2L4 and succeeds one II later — the counter
/// must record both candidates, exactly as the pre-cache search did.
#[test]
fn iis_tried_counts_failed_placement_attempts() {
    use regpipe::loops::{generate, GenParams};
    let params = GenParams { min_ops: 8, max_ops: 8, ..GenParams::default() };
    let l = generate(10, 1, &params).unwrap().remove(0);
    let m = MachineConfig::p2l4();
    let s = SchedulerKind::Hrms.schedule(&l.ddg, &m, &SchedRequest::default()).unwrap();
    assert_eq!(s.ii(), 3);
    assert_eq!(s.iis_tried(), 2, "MII placement fails once before II 3 fits");
}
