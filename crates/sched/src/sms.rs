//! Swing Modulo Scheduling (SMS).
//!
//! SMS (Llosa, González, Ayguadé & Valero) is the direct successor of HRMS
//! by the same group and the second register-sensitive production scheduler
//! of this crate. Like HRMS it works in two phases over the shared
//! [`LoopAnalysis`] context — the recurrence-first priority sets, the
//! group constraint graph, the warm-started [`TimeAnalysis`] and the
//! placement machinery are all reused — but the **ordering phase** walks each
//! priority set by a different priority, the node's *swing*:
//!
//! * In a **top-down** sweep (some predecessors already ordered) the next
//!   node is the one with the **smallest ALAP** — the tightest deadline:
//!   placing it late would stretch the lifetimes of its (already placed)
//!   producers, so it is emitted before nodes that can still swing down.
//! * In a **bottom-up** sweep (some successors already ordered) the next
//!   node is the one with the **largest ASAP** — the deepest origin: it
//!   sits closest above its (already placed) consumers, so emitting it
//!   first lets the placement phase pull it down next to them.
//!
//! Ties break by smaller mobility, then group index, keeping the order
//! fully deterministic. Where the HRMS ordering of this crate strongly
//! prefers nodes whose same-direction neighbours are all ordered (a
//! robustness gate against unsatisfiable placement windows), SMS follows
//! the swing priority unconditionally; a node may therefore be emitted
//! between its neighbours and end up with scheduled operations on *both*
//! sides. The bidirectional placement handles that window, and when it is
//! infeasible at a candidate II the search simply moves on — the same
//! ASAP-clamped fallback HRMS uses guarantees the II search converges.
//!
//! The placement phase is identical to HRMS (`PlaceMode::Hrms`): scan up
//! from the earliest start when producers anchor the node, down from the
//! latest start when consumers do, at most II slots of the modulo
//! reservation table — operations hug their scheduled neighbours and
//! lifetimes stay near their dataflow minimum. The scan probes only the
//! cycles whose issue slot still has a free unit, found from the table's
//! saturation bits, and takes the first that fits, as a cycle-by-cycle scan
//! would.
//!
//! The worked comparison of both orderings on the same kernels lives in
//! `docs/algorithms.md`.

use regpipe_ddg::OpId;

use crate::analysis::TimeAnalysis;
use crate::hrms::{frontier_walk, group_priorities, Direction};
use crate::loop_analysis::LoopAnalysis;

/// The swing ordering (an [`OrderWalk`](crate::hrms::OrderWalk)): the
/// shared [`frontier_walk`] over the context's precomputed priority sets
/// (recurrences by decreasing RecMII, each with its connecting path nodes,
/// then the acyclic rest), emitting at each step the frontier group with
/// the best swing priority for the sweep direction: tightest deadline
/// (smallest ALAP) top-down, deepest origin (largest ASAP) bottom-up; ties
/// by smaller mobility, then index. Unlike the HRMS pick there is no
/// readiness gate — the swing is followed unconditionally.
pub(crate) fn swing_ordering(
    ctx: &LoopAnalysis<'_>,
    analysis: &TimeAnalysis,
    sink: &mut dyn FnMut(OpId) -> bool,
) -> bool {
    let (g_asap, g_alap, g_mob) = group_priorities(ctx, analysis);
    frontier_walk(
        ctx,
        // Fresh start: the least slack, then the tightest deadline — the
        // node whose placement window the rest of the set must be
        // arranged around.
        |v| (g_mob[v], g_alap[v], v),
        |v, dir, _ready| {
            let swing = match dir {
                Direction::TopDown => g_alap[v],
                Direction::BottomUp => -g_asap[v],
            };
            (swing, g_mob[v], v)
        },
        sink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mii, SchedError, SchedRequest, Schedule, Scheduler, SchedulerKind};
    use regpipe_ddg::{Ddg, DdgBuilder, OpKind};
    use regpipe_machine::MachineConfig;

    fn schedule_ok(ddg: &Ddg, machine: &MachineConfig) -> Schedule {
        let s = SchedulerKind::Sms
            .schedule(ddg, machine, &SchedRequest::default())
            .expect("schedulable");
        s.verify(ddg, machine).expect("valid");
        s
    }

    #[test]
    fn single_op_loop() {
        let mut b = DdgBuilder::new("one");
        b.add_op(OpKind::Add, "a");
        let g = b.build().unwrap();
        let s = schedule_ok(&g, &MachineConfig::p1l4());
        assert_eq!(s.ii(), 1);
        assert_eq!(s.scheduler(), "sms");
    }

    #[test]
    fn paper_example_achieves_ii_1_on_uniform_machine() {
        let mut b = DdgBuilder::new("fig2");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg_dist(ld, add, 3);
        b.reg(mul, add);
        b.reg(add, st);
        let g = b.build().unwrap();
        let m = MachineConfig::uniform(4, 2);
        let s = schedule_ok(&g, &m);
        assert_eq!(s.ii(), 1, "resource bound: 4 ops / 4 units");
    }

    #[test]
    fn recurrence_constrains_ii() {
        let mut b = DdgBuilder::new("rec");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Add, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 1);
        let g = b.build().unwrap();
        let s = schedule_ok(&g, &MachineConfig::p2l4());
        assert_eq!(s.ii(), 8);
    }

    #[test]
    fn bonded_pair_scheduled_atomically() {
        let mut b = DdgBuilder::new("bond");
        let p = b.add_op(OpKind::Add, "p");
        let s = b.add_op(OpKind::Store, "s");
        b.bond(p, s);
        let l = b.add_op(OpKind::Load, "l");
        let c = b.add_op(OpKind::Mul, "c");
        b.bond(l, c);
        b.mem(s, l, 1);
        let g = b.build().unwrap();
        let sched = schedule_ok(&g, &MachineConfig::p1l4());
        assert_eq!(sched.start(s) - sched.start(p), 4);
        assert_eq!(sched.start(c) - sched.start(l), 2);
    }

    #[test]
    fn honours_min_ii_and_rejects_empty_ranges() {
        let mut b = DdgBuilder::new("m");
        b.add_op(OpKind::Add, "a");
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let s = SchedulerKind::Sms.schedule(&g, &m, &SchedRequest::starting_at(5)).unwrap();
        assert_eq!(s.ii(), 5);
        let err = SchedulerKind::Sms
            .schedule(&g, &m, &SchedRequest { min_ii: Some(4), max_ii: Some(3) })
            .unwrap_err();
        assert!(matches!(err, SchedError::InfeasibleRequest { .. }));
    }

    /// The swing ordering follows deadlines where HRMS follows readiness:
    /// on a join whose arms have different depths the two emit visibly
    /// different orders (the kernel walked in `docs/algorithms.md`).
    #[test]
    fn swing_order_differs_from_hrms_on_asymmetric_joins() {
        let mut b = DdgBuilder::new("join");
        let a = b.add_op(OpKind::Load, "a");
        let bb = b.add_op(OpKind::Store, "b");
        let c = b.add_op(OpKind::Load, "c");
        let d = b.add_op(OpKind::Mul, "d");
        let s = b.add_op(OpKind::Store, "s");
        b.reg(a, bb);
        b.reg(a, d);
        b.reg(c, d);
        b.reg(d, s);
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let ctx = LoopAnalysis::new(&g, &m);
        let ii = ctx.mii();
        let sms = SchedulerKind::Sms.ordering(&ctx, ii).expect("feasible");
        let hrms = SchedulerKind::Hrms.ordering(&ctx, ii).expect("feasible");
        assert_ne!(sms, hrms, "orderings must diverge on the join kernel");
        // SMS takes the tight-deadline multiply before the slack store.
        let pos = |order: &[OpId], op: OpId| order.iter().position(|&x| x == op).unwrap();
        assert!(pos(&sms, d) < pos(&sms, bb), "sms follows the deadline: {sms:?}");
        assert!(pos(&hrms, bb) < pos(&hrms, d), "hrms follows readiness: {hrms:?}");
        // Both still schedule the kernel to a verified optimum.
        let s1 = schedule_ok(&g, &m);
        assert_eq!(s1.ii(), ii);
    }

    #[test]
    fn stress_random_graphs_schedule_and_verify() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let machines = [MachineConfig::p1l4(), MachineConfig::p2l4(), MachineConfig::p2l6()];
        for case in 0..150 {
            let n = rng.random_range(2..24usize);
            let mut b = DdgBuilder::new(format!("s{case}"));
            let kinds = [
                OpKind::Load,
                OpKind::Store,
                OpKind::Add,
                OpKind::Mul,
                OpKind::Copy,
                OpKind::Div,
            ];
            let ops: Vec<OpId> = (0..n)
                .map(|i| b.add_op(kinds[rng.random_range(0..kinds.len())], format!("n{i}")))
                .collect();
            for _ in 0..rng.random_range(0..2 * n) {
                let f = ops[rng.random_range(0..n)];
                let t = ops[rng.random_range(0..n)];
                if f == t {
                    continue;
                }
                let dist =
                    if t > f { rng.random_range(0..3u32) } else { rng.random_range(1..3u32) };
                if b.clone().build_unchecked().op(f).kind() == OpKind::Store {
                    b.mem(f, t, dist.max(if t > f { 0 } else { 1 }));
                } else {
                    b.reg_dist(f, t, dist);
                }
            }
            let Ok(g) = b.build() else { continue };
            let m = &machines[case % machines.len()];
            let s = SchedulerKind::Sms
                .schedule(&g, m, &SchedRequest::default())
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{g}"));
            s.verify(&g, m).unwrap_or_else(|e| panic!("case {case}: {e}\n{g}\n{s}"));
            assert!(s.ii() >= mii(&g, m));
        }
    }
}
