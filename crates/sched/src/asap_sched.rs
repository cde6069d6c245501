//! Register-insensitive ASAP baseline scheduler.

use crate::hrms::ii_search;
use crate::loop_analysis::LoopAnalysis;
use crate::{SchedError, SchedRequest, Schedule, Scheduler};

/// A top-down, register-*insensitive* modulo scheduler.
///
/// Operations are placed in topological (condensation) order, each as early
/// as the dependences and the modulo reservation table allow. This is the
/// classical list-scheduling approach that maximizes distance between
/// producers and consumers scheduled long after them — exactly the lifetime
/// stretching that register-sensitive schedulers like HRMS avoid. The paper
/// cites results with such a scheduler (its reference \[21\]) as the
/// motivation for register-aware scheduling; `regpipe` ships it as the
/// baseline for ablation experiments.
#[derive(Clone, Copy, Default, Debug)]
pub struct AsapScheduler {
    _private: (),
}

impl AsapScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        AsapScheduler { _private: () }
    }
}

impl Scheduler for AsapScheduler {
    fn schedule_in(
        &self,
        ctx: &LoopAnalysis<'_>,
        request: &SchedRequest,
    ) -> Result<Schedule, SchedError> {
        // No ordering phase: only the context's forward topological order
        // of group leaders over zero-distance edges, placed ASAP-clamped.
        // Every placement window is bounded below by already-placed
        // intra-iteration predecessors and above only by loop-carried
        // edges, which relax as II grows.
        ii_search(ctx, request, "asap", None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};
    use regpipe_machine::MachineConfig;

    #[test]
    fn schedules_basic_loops() {
        let mut b = DdgBuilder::new("basic");
        let l = b.add_op(OpKind::Load, "l");
        let a = b.add_op(OpKind::Add, "a");
        let s = b.add_op(OpKind::Store, "s");
        b.reg(l, a);
        b.reg(a, s);
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let sched = AsapScheduler::new().schedule(&g, &m, &SchedRequest::default()).unwrap();
        sched.verify(&g, &m).unwrap();
        assert_eq!(sched.ii(), 2, "two memory ops on one unit");
    }

    #[test]
    fn handles_recurrences() {
        let mut b = DdgBuilder::new("rec");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Mul, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 2);
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let sched = AsapScheduler::new().schedule(&g, &m, &SchedRequest::default()).unwrap();
        sched.verify(&g, &m).unwrap();
        assert_eq!(sched.ii(), 4, "cycle latency 8 over distance 2");
    }

    #[test]
    fn asap_stretches_lifetimes_relative_to_hrms() {
        use crate::HrmsScheduler;
        // A producer with a long independent side chain: HRMS places the
        // consumer near the producer, ASAP pushes ops early regardless.
        let mut b = DdgBuilder::new("stretch");
        let ld = b.add_op(OpKind::Load, "ld");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(ld, st);
        // Independent noise filling the machine.
        for i in 0..6 {
            let x = b.add_op(OpKind::Add, format!("x{i}"));
            let y = b.add_op(OpKind::Mul, format!("y{i}"));
            b.reg(x, y);
        }
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let hrms = HrmsScheduler::new().schedule(&g, &m, &SchedRequest::default()).unwrap();
        let asap = AsapScheduler::new().schedule(&g, &m, &SchedRequest::default()).unwrap();
        hrms.verify(&g, &m).unwrap();
        asap.verify(&g, &m).unwrap();
        let lt = |s: &Schedule| s.start(st) - s.start(ld);
        assert!(
            lt(&hrms) <= lt(&asap),
            "hrms lifetime {} should not exceed asap lifetime {}",
            lt(&hrms),
            lt(&asap)
        );
    }
}
