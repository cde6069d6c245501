//! Stage scheduling: a register-reducing post-pass.
//!
//! The paper's related work (its reference [13], Eichenberger & Davidson,
//! MICRO-28) reduces the register requirement of a finished modulo schedule
//! *without* touching the II: moving an operation by a whole multiple of II
//! keeps its modulo reservation slot — resources stay legal by construction
//! — while the dependence slack often allows entire stages of movement that
//! shorten lifetimes.
//!
//! This module implements a greedy variant: complex-operation groups are
//! repeatedly offered every feasible `k·II` shift given their neighbours'
//! current positions, and take the one minimizing the total lifetime sum
//! (the integral of register pressure). It converges because the total
//! lifetime strictly decreases with every accepted move.
//!
//! Used standalone or as a cheap companion to the spilling framework (the
//! paper lists post-pass reduction among the alternatives it contrasts
//! with).

use regpipe_ddg::{Ddg, EdgeKind};

use crate::loop_analysis::LoopAnalysis;
use crate::schedule::Schedule;

/// Applies stage scheduling to `schedule`, a schedule of `ctx`'s loop;
/// returns a schedule with the same II and modulo slots but (weakly)
/// smaller total lifetime.
///
/// The result always verifies if the input did.
pub fn stage_schedule(ctx: &LoopAnalysis<'_>, schedule: &Schedule) -> Schedule {
    let (groups, ii) = (ctx.groups(), i64::from(schedule.ii()));
    // A group's shifts bounded by its dependences on other groups, read
    // from the group constraints with every group at its leader's start.
    // In a schedule that verifies the members sit at their bond offsets,
    // so these keep every member's edges.
    shift_stages(ctx, schedule, |start, g| {
        let at = |h: usize| start[groups.leader(h).index()];
        let ins = ctx.ins.of(g).iter().filter(|e| e.other != g);
        let outs = ctx.outs.of(g).iter().filter(|e| e.other != g);
        (
            ins.map(|e| at(e.other) + e.lat - ii * e.dist - at(g)).max(),
            outs.map(|e| at(e.other) - e.lat + ii * e.dist - at(g)).min(),
        )
    })
}

/// The greedy pass behind [`stage_schedule`], with `window(start, g)`
/// giving the least and greatest shifts of group `g` its dependences allow
/// (either unbounded without one; the tests pass the per-member window the
/// group constraints replaced).
fn shift_stages(
    ctx: &LoopAnalysis<'_>,
    schedule: &Schedule,
    window: impl Fn(&[i64], usize) -> (Option<i64>, Option<i64>),
) -> Schedule {
    let (ddg, groups) = (ctx.ddg(), ctx.groups());
    let ii = i64::from(schedule.ii());
    let mut start: Vec<i64> = schedule.starts().to_vec();

    // A move never needs to exceed the schedule span: beyond it, no
    // lifetime it touches can keep shrinking. This also bounds the scan for
    // groups without external dependences (which have nothing to optimize).
    let span_stages = schedule.last_start() / ii + 2;

    let mut improved = true;
    let mut rounds = 0usize;
    while improved && rounds < 64 {
        improved = false;
        rounds += 1;
        for g in 0..groups.len() {
            let (least, greatest) = window(&start, g);
            if least.is_none() && greatest.is_none() {
                continue; // isolated group: no lifetime depends on it
            }
            // Feasible shift range in whole IIs.
            let min_shift = least.unwrap_or(i64::MIN).max(-span_stages * ii);
            let max_shift = greatest.unwrap_or(i64::MAX).min(span_stages * ii);
            let members = groups.members_of(groups.leader(g));
            // Whole-stage candidates within the window.
            let k_lo = min_shift.div_euclid(ii) + i64::from(min_shift.rem_euclid(ii) != 0);
            let k_hi = max_shift.div_euclid(ii);
            if k_lo > k_hi || (k_lo == 0 && k_hi == 0) {
                continue;
            }
            let base_cost = total_lifetime(ddg, &start, ii);
            let mut best: Option<(i64, i64)> = None; // (cost, k)
            for k in k_lo..=k_hi {
                if k == 0 {
                    continue;
                }
                for &m in members {
                    start[m.index()] += k * ii;
                }
                let cost = total_lifetime(ddg, &start, ii);
                for &m in members {
                    start[m.index()] -= k * ii;
                }
                if cost < base_cost && best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, k));
                }
            }
            if let Some((_, k)) = best {
                for &m in members {
                    start[m.index()] += k * ii;
                }
                improved = true;
            }
        }
    }
    Schedule::with_provenance(schedule.ii(), start, "stage-scheduled", schedule.iis_tried())
}

/// Σ over live values of their lifetime length — the integral of register
/// pressure over one II window (dividing by II gives the average pressure;
/// minimizing the sum minimizes the average and usually MaxLive).
fn total_lifetime(ddg: &Ddg, start: &[i64], ii: i64) -> i64 {
    let mut total = 0i64;
    for (id, node) in ddg.ops() {
        if !node.kind().defines_value() {
            continue;
        }
        let mut end: Option<i64> = None;
        for e in ddg.out_edges(id) {
            if e.kind() != EdgeKind::RegFlow {
                continue;
            }
            let t = start[e.to().index()] + ii * i64::from(e.distance());
            end = Some(end.map_or(t, |x: i64| x.max(t)));
        }
        if let Some(end) = end {
            total += (end - start[id.index()]).max(0);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{paper_machines, spill_rewrites};
    use crate::{edge_latency, SchedRequest, Scheduler, SchedulerKind};
    use regpipe_ddg::{DdgBuilder, OpKind};
    use regpipe_machine::MachineConfig;

    /// The window the group constraints replaced, kept as its reference:
    /// every member's own edges to other groups, at the member's start.
    fn member_window(
        ctx: &LoopAnalysis<'_>,
        start: &[i64],
        ii: i64,
        g: usize,
    ) -> (Option<i64>, Option<i64>) {
        let (ddg, machine, groups) = (ctx.ddg(), ctx.machine(), ctx.groups());
        let (mut least, mut greatest): (Option<i64>, Option<i64>) = (None, None);
        for &m in groups.members_of(groups.leader(g)) {
            for e in ddg.in_edges(m).filter(|e| groups.group_of(e.from()) != g) {
                let need = start[e.from().index()] + edge_latency(machine, ddg, e)
                    - ii * i64::from(e.distance());
                // start[m] + shift >= need
                least = least.max(Some(need - start[m.index()]));
            }
            for e in ddg.out_edges(m).filter(|e| groups.group_of(e.to()) != g) {
                let limit = start[e.to().index()] - edge_latency(machine, ddg, e)
                    + ii * i64::from(e.distance());
                // start[m] + shift <= limit
                let shift = limit - start[m.index()];
                greatest = Some(greatest.map_or(shift, |x| x.min(shift)));
            }
        }
        (least, greatest)
    }

    /// Stage scheduling makes the same schedule from the group constraints
    /// as from the per-member window, under HRMS and ASAP on three
    /// machines, over `suite(909, 60)` and the spill rewrites `compile`
    /// makes of it at budgets 32 and 16. Each schedule is also offered
    /// with group `g` delayed by `g mod 3` stages: its members keep their
    /// bond offsets, so the windows must still agree, and most groups then
    /// have lifetimes to shrink.
    #[test]
    fn group_windows_match_the_per_member_windows() {
        let loops: Vec<Ddg> =
            regpipe_loops::suite(909, 60).into_iter().map(|l| l.ddg).collect();
        let (mut moved, mut bonded) = (0, 0);
        for m in &paper_machines() {
            let rewrites = spill_rewrites(&loops, m, &[32, 16]);
            bonded += rewrites.len();
            for g in loops.iter().chain(&rewrites) {
                let ctx = LoopAnalysis::new(g, m);
                let groups = ctx.groups();
                for kind in [SchedulerKind::Hrms, SchedulerKind::Asap] {
                    let s =
                        kind.schedule_in(&ctx, &SchedRequest::default()).expect("schedulable");
                    let ii = i64::from(s.ii());
                    let delayed = groups.op_starts(|gi| {
                        s.start(groups.leader(gi)) + ii * i64::try_from(gi % 3).unwrap()
                    });
                    for input in [s.clone(), Schedule::new(s.ii(), delayed)] {
                        let reference = shift_stages(&ctx, &input, |start, gi| {
                            member_window(&ctx, start, ii, gi)
                        });
                        let post = stage_schedule(&ctx, &input);
                        assert_eq!(post, reference, "{kind} on {} ({m})", g.name());
                        moved += usize::from(post.starts() != input.starts());
                    }
                }
            }
        }
        assert!(bonded >= 50 && moved >= 400, "{bonded} spill rewrites, {moved} moved");
    }

    #[test]
    fn stage_scheduling_preserves_validity_and_ii() {
        let mut b = DdgBuilder::new("w");
        let shared = b.add_op(OpKind::Load, "ld");
        for i in 0..5 {
            let m = b.add_op(OpKind::Mul, format!("m{i}"));
            b.reg(shared, m);
            let s = b.add_op(OpKind::Store, format!("s{i}"));
            b.reg(m, s);
        }
        let g = b.build().unwrap();
        let machine = MachineConfig::p2l4();
        let s = SchedulerKind::Hrms.schedule(&g, &machine, &SchedRequest::default()).unwrap();
        let post = stage_schedule(&LoopAnalysis::new(&g, &machine), &s);
        assert_eq!(post.ii(), s.ii());
        post.verify(&g, &machine).expect("still valid");
    }

    #[test]
    fn stage_scheduling_shrinks_stretched_lifetimes() {
        // Hand-build a bad schedule: consumer three stages late. The ops
        // use three distinct FU classes so the modulo slots stay legal.
        let mut b = DdgBuilder::new("bad");
        let p = b.add_op(OpKind::Add, "p");
        let c = b.add_op(OpKind::Mul, "c");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(p, c);
        b.reg(c, st);
        let g = b.build().unwrap();
        let machine = MachineConfig::p1l4();
        // II = 4: p@0, c@12 (8 cycles of pointless slack), st@16.
        let bad = Schedule::new(4, vec![0, 12, 16]);
        bad.verify(&g, &machine).unwrap();
        let post = stage_schedule(&LoopAnalysis::new(&g, &machine), &bad);
        post.verify(&g, &machine).unwrap();
        let lt = |s: &Schedule| (s.start(c) - s.start(p)) + (s.start(st) - s.start(c));
        assert!(lt(&post) < lt(&bad), "{} vs {}", lt(&post), lt(&bad));
        assert_eq!(post.start(c) - post.start(p), 4, "one stage is the minimum");
    }

    #[test]
    fn modulo_slots_are_preserved() {
        let mut b = DdgBuilder::new("slots");
        let p = b.add_op(OpKind::Add, "p");
        let c = b.add_op(OpKind::Mul, "c");
        b.reg(p, c);
        let g = b.build().unwrap();
        let machine = MachineConfig::p1l4();
        let bad = Schedule::new(3, vec![1, 14]);
        let post = stage_schedule(&LoopAnalysis::new(&g, &machine), &bad);
        for (id, _) in g.ops() {
            assert_eq!(
                post.start(id).rem_euclid(3),
                bad.start(id).rem_euclid(3),
                "stage moves never change the modulo slot"
            );
        }
    }

    #[test]
    fn bonded_groups_move_as_units() {
        let mut b = DdgBuilder::new("bond");
        let l = b.add_op(OpKind::Load, "l");
        let c = b.add_op(OpKind::Mul, "c");
        b.bond(l, c);
        let p = b.add_op(OpKind::Add, "p");
        b.reg(p, c);
        let g = b.build().unwrap();
        let machine = MachineConfig::p2l4();
        // p@0; group placed far away: l@20, c@22 (II=4).
        let bad = Schedule::from_fixed(4, &[(l, 20), (c, 22), (p, 0)]);
        bad.verify(&g, &machine).unwrap();
        let post = stage_schedule(&LoopAnalysis::new(&g, &machine), &bad);
        post.verify(&g, &machine).unwrap();
        assert_eq!(post.start(c) - post.start(l), 2, "bond offset intact");
        assert!(post.start(c) - post.start(p) < 22, "group slid toward p");
    }

    #[test]
    fn already_tight_schedules_are_untouched() {
        let mut b = DdgBuilder::new("tight");
        let p = b.add_op(OpKind::Add, "p");
        let c = b.add_op(OpKind::Store, "c");
        b.reg(p, c);
        let g = b.build().unwrap();
        let machine = MachineConfig::p1l4();
        let s = Schedule::new(4, vec![0, 4]);
        let post = stage_schedule(&LoopAnalysis::new(&g, &machine), &s);
        assert_eq!(post.starts(), s.starts());
    }
}
