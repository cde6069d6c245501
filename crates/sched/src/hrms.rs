//! HRMS-style register-sensitive modulo scheduling.
//!
//! The paper uses HRMS (Hypernode Reduction Modulo Scheduling, by the same
//! authors) as its core scheduler. HRMS has two phases:
//!
//! 1. An **ordering phase** that arranges the operations so every operation
//!    is placed while only its predecessors *or* only its successors are
//!    already scheduled (recurrences are handled first, in decreasing order
//!    of their RecMII bound, together with the nodes on paths connecting
//!    them).
//! 2. A **placement phase** that walks the order, computing the earliest
//!    start implied by scheduled predecessors and/or the latest start
//!    implied by scheduled successors, and scanning at most II slots of the
//!    modulo reservation table in the direction that keeps the operation as
//!    close to its neighbours as possible. It takes the first slot of that
//!    scan where the operation fits. The scan jumps between open slots: the
//!    table's saturation bits name the cycles whose slot still has a free
//!    unit of the operation's class ([`Mrt::first_open`],
//!    [`Mrt::last_open`]), and only those are probed, since an operation
//!    holds its issue slot and fits nowhere else. A bonded group jumps
//!    until every member's issue slot is open. The slot chosen is the one
//!    a cycle-by-cycle scan would choose.
//!
//! Keeping operations close to their producers/consumers is what makes the
//! scheduler *register-sensitive*: lifetimes stay near their dataflow
//! minimum. Where the MICRO-28 description of HRMS leaves details open we
//! follow the ordering later formalized by the same group (Swing Modulo
//! Scheduling), which preserves the pred-XOR-succ property.
//!
//! Complex-operation groups (bonded spill code, Section 4.3 of the paper)
//! are ordered and placed atomically with exact member offsets.
//!
//! Everything II-independent — groups, the group constraint graph,
//! recurrence sets and their bounds, reachability, the fallback order —
//! lives in [`LoopAnalysis`] and is computed once per loop. Per candidate
//! II the search below re-runs only the (warm-started) timing analysis
//! and the two phases, interleaved: the ordering hands each group straight
//! to placement and stops at the first group that does not fit, so the
//! groups after it are never ordered.

use regpipe_ddg::{Ddg, OpId};
use regpipe_machine::{FuClass, Mrt};

use crate::analysis::TimeAnalysis;
use crate::groups::ComplexGroups;
use crate::loop_analysis::{GroupEdge, LoopAnalysis};
use crate::{SchedError, SchedRequest, Schedule};

const NEG_INF: i64 = i64::MIN / 4;

/// An ordering phase: hands the group leaders to the sink in scheduling
/// order until the sink returns false, and returns whether the sink
/// accepted every group.
pub(crate) type OrderWalk =
    fn(&LoopAnalysis<'_>, &TimeAnalysis, &mut dyn FnMut(OpId) -> bool) -> bool;

/// The II walk shared by the list schedulers, from `max(MII, min_ii)` up
/// to the request's ceiling. Each candidate II gets a warm-started timing
/// analysis and a bidirectional placement of the group leaders in the
/// order the `ordering` phase gives, each group placed as soon as it is
/// ordered; the ordering stops at the first group that does not fit.
/// When that wedges, or when there is no ordering (the ASAP baseline),
/// the context's forward topological order is placed ASAP-clamped: it
/// cannot drift and converges as the II grows, so the search degrades
/// gracefully instead of failing. `slug` names the scheduler in the
/// schedule's provenance.
pub(crate) fn ii_search(
    ctx: &LoopAnalysis<'_>,
    request: &SchedRequest,
    slug: &'static str,
    ordering: Option<OrderWalk>,
) -> Result<Schedule, SchedError> {
    search_with(ctx, request, slug, ordering, |placer, leader| placer.place(leader))
}

/// [`ii_search`] with `place` putting each ordered group on the table (the
/// tests pass the per-cycle probe the open-slot search replaced).
fn search_with(
    ctx: &LoopAnalysis<'_>,
    request: &SchedRequest,
    slug: &'static str,
    ordering: Option<OrderWalk>,
    place: impl Fn(&mut Placer<'_, '_>, OpId) -> bool,
) -> Result<Schedule, SchedError> {
    let lower = ctx.mii().max(request.min_ii.unwrap_or(1));
    let upper = request.max_ii.unwrap_or_else(|| ctx.fallback_max_ii());
    if upper < lower {
        return Err(SchedError::InfeasibleRequest { min_ii: lower, max_ii: upper });
    }
    let mut start = vec![None; ctx.groups().len()];
    let mut tried = 0u32;
    let mut prev: Option<TimeAnalysis> = None;
    for ii in lower..=upper {
        tried += 1;
        let Some(analysis) = ctx.time_analysis(ii, prev.as_ref()) else {
            continue;
        };
        let placed = ordering
            .and_then(|order| {
                let mut placer = Placer::new(ctx, ii, &analysis, PlaceMode::Hrms, &mut start)?;
                order(ctx, &analysis, &mut |leader| place(&mut placer, leader))
                    .then(|| placer.finish())
            })
            .or_else(|| {
                let mode = PlaceMode::AsapClamped;
                let mut placer = Placer::new(ctx, ii, &analysis, mode, &mut start)?;
                ctx.fallback
                    .iter()
                    .all(|&leader| place(&mut placer, leader))
                    .then(|| placer.finish())
            });
        if let Some(starts) = placed {
            return Ok(Schedule::with_provenance(ii, starts, slug, tried));
        }
        prev = Some(analysis);
    }
    Err(SchedError::NoScheduleUpTo { max_ii: upper })
}

// ----------------------------------------------------------------------
// Ordering phase (per-II half; the priority sets live in LoopAnalysis)
// ----------------------------------------------------------------------

/// Sweep direction of the ordering phase (shared with the SMS scheduler).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Direction {
    /// Expanding from ordered predecessors towards successors.
    TopDown,
    /// Expanding from ordered successors towards predecessors.
    BottomUp,
}

/// Group-level timing priorities: per complex group, the earliest member
/// ASAP, the latest member ALAP (both on the leader's clock) and the
/// minimum member mobility. Shared by the HRMS and SMS ordering phases.
pub(crate) fn group_priorities(
    ctx: &LoopAnalysis<'_>,
    analysis: &TimeAnalysis,
) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
    let groups = ctx.groups();
    let g = groups.len();
    let mut g_asap = vec![i64::MAX; g];
    let mut g_alap = vec![NEG_INF; g];
    let mut g_mob = vec![i64::MAX; g];
    for gi in 0..g {
        for &m in groups.members_of(groups.leader(gi)) {
            g_asap[gi] = g_asap[gi].min(analysis.asap(m) - groups.offset(m));
            g_alap[gi] = g_alap[gi].max(analysis.alap(m) - groups.offset(m));
            g_mob[gi] = g_mob[gi].min(analysis.mobility(m));
        }
    }
    (g_asap, g_alap, g_mob)
}

/// The HRMS ordering: walks the context's precomputed priority sets with
/// the timing analysis for this II (an [`OrderWalk`]).
///
/// Groups that are *ready* — all their same-set predecessors (top-down) or
/// successors (bottom-up) already ordered — are strongly preferred: ordering
/// an ancestor before its in-set descendant in a bottom-up sweep (or vice
/// versa) can anchor the two against different neighbours and leave the
/// in-between node an unsatisfiable window at every II. Ties fall back to
/// criticality, then mobility, then index.
pub(crate) fn ordering_in(
    ctx: &LoopAnalysis<'_>,
    analysis: &TimeAnalysis,
    sink: &mut dyn FnMut(OpId) -> bool,
) -> bool {
    let (g_asap, g_alap, g_mob) = group_priorities(ctx, analysis);
    let horizon: i64 = g_alap.iter().copied().max().unwrap_or(0);
    frontier_walk(
        ctx,
        // Fresh start: most critical (min mobility), earliest.
        |v| (g_mob[v], g_asap[v], v),
        |v, dir, ready| {
            let criticality = match dir {
                // Top-down: prefer the node with the longest path below it.
                Direction::TopDown => -(horizon - g_alap[v]),
                // Bottom-up: prefer the node with the longest path above it.
                Direction::BottomUp => -g_asap[v],
            };
            (!ready, criticality, g_mob[v], v)
        },
        sink,
    )
}

/// The ordering walk shared by the HRMS and SMS schedulers: alternating
/// top-down/bottom-up sweeps over the context's precomputed priority
/// sets, expanding a frontier from the already-ordered groups. The two
/// schedulers differ only in their keys, and the smallest key wins:
/// `seed_key` ranks a set's unordered groups for a fresh start when no
/// ordered group connects to them, and `pick_key(group, dir, ready)` ranks
/// the frontier for the sweep direction, where `ready` says that all the
/// group's same-set predecessors (top-down) or successors (bottom-up) are
/// already ordered. Every key ends in the group index, so keys never tie.
///
/// Each ordered group's leader goes straight to `sink`; the walk stops as
/// soon as `sink` returns false and returns whether `sink` accepted every
/// group.
/// Readiness comes from per-group counts of unordered same-set neighbours,
/// kept up to date as groups are ordered; a parallel edge repeats a
/// neighbour in both the count and its decrements.
pub(crate) fn frontier_walk<S: Ord, K: Ord>(
    ctx: &LoopAnalysis<'_>,
    seed_key: impl Fn(usize) -> S,
    pick_key: impl Fn(usize, Direction, bool) -> K,
    sink: &mut dyn FnMut(OpId) -> bool,
) -> bool {
    let groups = ctx.groups();
    let g = groups.len();
    let mut ordered = vec![false; g];
    // Members of the current set that are not ordered yet.
    let mut remaining = vec![false; g];
    let mut preds_left = vec![0usize; g];
    let mut succs_left = vec![0usize; g];
    let mut in_frontier = vec![false; g];
    for set in &ctx.sets {
        for &v in set {
            remaining[v] = true;
        }
        for &v in set {
            let left = |edges: &[GroupEdge]| {
                edges.iter().filter(|e| e.other != v && remaining[e.other]).count()
            };
            preds_left[v] = left(ctx.ins.of(v));
            succs_left[v] = left(ctx.outs.of(v));
        }
        let mut left = set.len();
        while left > 0 {
            let unordered = set.iter().copied().filter(|&v| remaining[v]);
            let td: Vec<usize> = unordered
                .clone()
                .filter(|&v| ctx.ins.of(v).iter().any(|e| ordered[e.other]))
                .collect();
            let (dir, start) = if !td.is_empty() {
                (Direction::TopDown, td)
            } else {
                let bu: Vec<usize> = unordered
                    .clone()
                    .filter(|&v| ctx.outs.of(v).iter().any(|e| ordered[e.other]))
                    .collect();
                if bu.is_empty() {
                    let seed = unordered.min_by_key(|&v| seed_key(v)).expect("non-empty");
                    (Direction::TopDown, vec![seed])
                } else {
                    (Direction::BottomUp, bu)
                }
            };
            for &v in &start {
                in_frontier[v] = true;
            }
            let mut frontier = start;
            while let Some(i) = (0..frontier.len()).min_by_key(|&i| {
                let v = frontier[i];
                let blocked = match dir {
                    Direction::TopDown => preds_left[v],
                    Direction::BottomUp => succs_left[v],
                };
                pick_key(v, dir, blocked == 0)
            }) {
                let v = frontier.swap_remove(i);
                in_frontier[v] = false;
                ordered[v] = true;
                remaining[v] = false;
                left -= 1;
                for e in ctx.outs.of(v) {
                    if remaining[e.other] {
                        preds_left[e.other] -= 1;
                    }
                }
                for e in ctx.ins.of(v) {
                    if remaining[e.other] {
                        succs_left[e.other] -= 1;
                    }
                }
                if !sink(groups.leader(v)) {
                    return false;
                }
                let next = match dir {
                    Direction::TopDown => ctx.outs.of(v),
                    Direction::BottomUp => ctx.ins.of(v),
                };
                for e in next {
                    if remaining[e.other] && !in_frontier[e.other] {
                        in_frontier[e.other] = true;
                        frontier.push(e.other);
                    }
                }
            }
        }
    }
    true
}

/// Group leaders in a forward topological order of the zero-distance edge
/// DAG; each group is placed at the position of its *last* member so all
/// free intra-iteration predecessors of every member come first.
pub(crate) fn topo_leader_order(ddg: &Ddg, groups: &ComplexGroups) -> Vec<OpId> {
    let node_order = regpipe_ddg::algo::topo_order_ignoring_back_edges(ddg);
    let mut position = vec![0usize; ddg.num_ops()];
    for (i, v) in node_order.iter().enumerate() {
        position[v.index()] = i;
    }
    let mut group_pos: Vec<(usize, usize)> = (0..groups.len())
        .map(|gi| {
            let last = groups
                .members_of(groups.leader(gi))
                .iter()
                .map(|m| position[m.index()])
                .max()
                .expect("groups are non-empty");
            (last, gi)
        })
        .collect();
    group_pos.sort_unstable();
    group_pos.into_iter().map(|(_, gi)| groups.leader(gi)).collect()
}

// ----------------------------------------------------------------------
// Placement phase (shared with the ASAP baseline)
// ----------------------------------------------------------------------

/// Placement policy for a [`Placer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PlaceMode {
    /// HRMS: operations hug their scheduled neighbours — upward scans from
    /// the earliest start when predecessors anchor them, downward scans from
    /// the latest start when successors do. Minimizes lifetimes but can
    /// wedge on graphs whose acyclic part straddles several recurrences.
    Hrms,
    /// ASAP with a dataflow clamp: every scan runs upward and never starts
    /// below the operation's ASAP level, so placements cannot drift
    /// unboundedly negative. Register-insensitive, but guaranteed to
    /// converge as II grows (placing everything at its ASAP fixpoint is
    /// dependence-feasible, and resource conflicts vanish at large II).
    AsapClamped,
}

/// The window scanned for one group: at most II candidate start cycles
/// `from..=to`, probed upward from `from` or, when `down`, downward from
/// `to`.
#[derive(Clone, Copy, Debug)]
struct SlotScan {
    from: i64,
    to: i64,
    down: bool,
}

impl SlotScan {
    /// The first cycle in scan order.
    fn first(self) -> i64 {
        if self.down {
            self.to
        } else {
            self.from
        }
    }

    /// The scan from `t` on, in scan order (`t` inside the window).
    fn starting_at(self, t: i64) -> SlotScan {
        if self.down {
            SlotScan { to: t, ..self }
        } else {
            SlotScan { from: t, ..self }
        }
    }

    /// The scan past `t`; empty once `t` was the window's last cycle.
    fn past(self, t: i64) -> SlotScan {
        if self.down {
            SlotScan { to: t - 1, ..self }
        } else {
            SlotScan { from: t + 1, ..self }
        }
    }

    /// The first cycle `t` in scan order at which `class` has a free unit
    /// in the slot of `t + offset`.
    fn open(self, mrt: &Mrt, class: FuClass, offset: i64) -> Option<i64> {
        let (from, to) = (self.from + offset, self.to + offset);
        let t = if self.down {
            mrt.last_open(class, from, to)
        } else {
            mrt.first_open(class, from, to)
        };
        Some(t? - offset)
    }
}

/// One placement attempt at one II: groups are placed one leader at a
/// time, in the order they are handed in, each into the first free slot of
/// its window.
pub(crate) struct Placer<'p, 'a> {
    ctx: &'p LoopAnalysis<'a>,
    analysis: &'p TimeAnalysis,
    mode: PlaceMode,
    ii: i64,
    mrt: Mrt,
    /// Start cycle per group leader (`None` = not yet placed); a buffer
    /// the II search reuses across attempts.
    start: &'p mut [Option<i64>],
}

impl<'p, 'a> Placer<'p, 'a> {
    /// An empty placement at `ii`, or `None` when the dependences inside
    /// some group cannot hold at this II, whatever the order.
    pub(crate) fn new(
        ctx: &'p LoopAnalysis<'a>,
        ii: u32,
        analysis: &'p TimeAnalysis,
        mode: PlaceMode,
        start: &'p mut [Option<i64>],
    ) -> Option<Self> {
        if !ctx.bonds_hold(ii) {
            return None;
        }
        start.fill(None);
        let mrt = Mrt::new(ctx.machine(), ii);
        Some(Placer { ctx, analysis, mode, ii: i64::from(ii), mrt, start })
    }

    /// Places the group led by `leader`; false when no slot of its window
    /// fits.
    pub(crate) fn place(&mut self, leader: OpId) -> bool {
        let groups = self.ctx.groups();
        let (ii64, start) = (self.ii, &*self.start);
        let g = groups.group_of(leader);
        debug_assert_eq!(groups.offset(leader), 0);

        // Window from scheduled neighbours, on the leader's clock (the
        // group's own start is unset, so its inner dependences take no part).
        let mut early: Option<i64> = None;
        let mut late: Option<i64> = None;
        for e in self.ctx.ins.of(g) {
            if let Some(tp) = start[e.other] {
                let c = tp + e.lat - ii64 * e.dist;
                early = Some(early.map_or(c, |x: i64| x.max(c)));
            }
        }
        for e in self.ctx.outs.of(g) {
            if let Some(ts) = start[e.other] {
                let c = ts - e.lat + ii64 * e.dist;
                late = Some(late.map_or(c, |x: i64| x.min(c)));
            }
        }

        // The group's ASAP level on the leader's clock.
        let members = groups.members_of(leader);
        let g_asap = members
            .iter()
            .map(|&m| self.analysis.asap(m) - groups.offset(m))
            .max()
            .expect("groups are non-empty");

        let Some(scan) = self.scan(early, late, g_asap) else {
            return false;
        };
        let Some(t) = self.first_fit(g, scan) else {
            return false;
        };
        self.start[g] = Some(t);
        true
    }

    /// The candidate start cycles, at most II of them, for a group whose
    /// window on the leader's clock is `early..=late` (either end open) and
    /// whose ASAP level is `g_asap`; `None` when no cycle is left.
    fn scan(&self, early: Option<i64>, late: Option<i64>, g_asap: i64) -> Option<SlotScan> {
        let ii64 = self.ii;
        Some(match (early, late) {
            (Some(e), Some(l)) => {
                if l < e {
                    return None;
                }
                let lo = match self.mode {
                    PlaceMode::Hrms => e,
                    // Clamp toward the dataflow level when the window allows.
                    PlaceMode::AsapClamped => {
                        if e.max(g_asap) <= l {
                            e.max(g_asap)
                        } else {
                            e
                        }
                    }
                };
                SlotScan { from: lo, to: l.min(lo + ii64 - 1), down: false }
            }
            (Some(e), None) => {
                let lo = match self.mode {
                    PlaceMode::Hrms => e,
                    PlaceMode::AsapClamped => e.max(g_asap),
                };
                SlotScan { from: lo, to: lo + ii64 - 1, down: false }
            }
            (None, Some(l)) => match self.mode {
                // Scan downward: place as late as possible, next to the
                // already-scheduled consumers.
                PlaceMode::Hrms => SlotScan { from: l - ii64 + 1, to: l, down: true },
                PlaceMode::AsapClamped => {
                    if l < g_asap {
                        return None;
                    }
                    SlotScan { from: g_asap, to: l.min(g_asap + ii64 - 1), down: false }
                }
            },
            (None, None) => SlotScan { from: g_asap, to: g_asap + ii64 - 1, down: false },
        })
    }

    /// Places group `g` at the first cycle of `scan`, in scan order, where
    /// it fits, and returns that cycle. Only cycles at which every member's
    /// issue slot has a free unit of its class are probed: an operation
    /// holds its issue slot, so the group fits nowhere else.
    fn first_fit(&mut self, g: usize, mut scan: SlotScan) -> Option<i64> {
        let (ddg, groups, machine) = (self.ctx.ddg(), self.ctx.groups(), self.ctx.machine());
        let members = groups.members_of(groups.leader(g));
        loop {
            // Each member's open-slot search moves the scan past that
            // member's full slots, until all members agree on its start.
            let mut agreed = 0;
            while agreed < members.len() {
                let m = members[agreed];
                let class = machine.class_of(ddg.op(m).kind());
                let t = scan.open(&self.mrt, class, groups.offset(m))?;
                if t == scan.first() {
                    agreed += 1;
                } else {
                    scan = scan.starting_at(t);
                    agreed = 0;
                }
            }
            let t = scan.first();
            if groups.place(ddg, &mut self.mrt, g, t) {
                return Some(t);
            }
            scan = scan.past(t);
        }
    }

    /// Per-op start cycles, once every group is placed.
    pub(crate) fn finish(self) -> Vec<i64> {
        self.ctx.groups().op_starts(|g| self.start[g].expect("all groups placed"))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::testing::{paper_machines, random_graph, reference_corpus};
    use crate::{mii, SchedError, Scheduler, SchedulerKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use regpipe_ddg::DdgBuilder;
    use regpipe_ddg::OpKind;
    use regpipe_machine::MachineConfig;

    fn schedule_ok(ddg: &Ddg, machine: &MachineConfig) -> Schedule {
        let s = SchedulerKind::Hrms
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
    }

    #[test]
    fn paper_example_achieves_ii_1_on_uniform_machine() {
        // Figure 2: x(i) = y(i)*a + y(i-3); 4 units, latency 2 -> II = 1.
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
        let m = MachineConfig::p2l4();
        let s = schedule_ok(&g, &m);
        assert_eq!(s.ii(), 8);
    }

    #[test]
    fn saturated_memory_unit() {
        let mut b = DdgBuilder::new("mem");
        let l1 = b.add_op(OpKind::Load, "l1");
        let l2 = b.add_op(OpKind::Load, "l2");
        let a = b.add_op(OpKind::Add, "a");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(l1, a);
        b.reg(l2, a);
        b.reg(a, st);
        let g = b.build().unwrap();
        let s = schedule_ok(&g, &MachineConfig::p1l4());
        assert_eq!(s.ii(), 3, "3 memory ops on one unit");
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
        let m = MachineConfig::p1l4();
        let sched = schedule_ok(&g, &m);
        assert_eq!(sched.start(s) - sched.start(p), 4);
        assert_eq!(sched.start(c) - sched.start(l), 2);
    }

    #[test]
    fn divider_heavy_loop() {
        let mut b = DdgBuilder::new("div");
        let l = b.add_op(OpKind::Load, "l");
        let d = b.add_op(OpKind::Div, "d");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(l, d);
        b.reg(d, st);
        let g = b.build().unwrap();
        let s = schedule_ok(&g, &MachineConfig::p1l4());
        assert_eq!(s.ii(), 17, "non-pipelined divide dominates");
        let s2 = schedule_ok(&g, &MachineConfig::p2l4());
        assert_eq!(s2.ii(), 9, "two div units halve the bound");
    }

    #[test]
    fn honours_min_ii_request() {
        let mut b = DdgBuilder::new("m");
        b.add_op(OpKind::Add, "a");
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let s = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::starting_at(5)).unwrap();
        assert_eq!(s.ii(), 5);
    }

    #[test]
    fn empty_ii_range_is_an_error() {
        let mut b = DdgBuilder::new("m");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Add, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 1); // MII 8
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let err = SchedulerKind::Hrms
            .schedule(&g, &m, &SchedRequest { min_ii: None, max_ii: Some(3) })
            .unwrap_err();
        assert!(matches!(err, SchedError::InfeasibleRequest { .. }));
    }

    /// An explicit `max_ii` is the search ceiling, verbatim: large enough to
    /// succeed, it caps nothing; one short of the only feasible II, the
    /// search exhausts with `NoScheduleUpTo` at exactly that bound. (This
    /// pins the simplification of a historical no-op
    /// `.max(request.max_ii.unwrap_or(0))` in the ceiling computation.)
    #[test]
    fn explicit_max_ii_is_honoured_verbatim() {
        let mut b = DdgBuilder::new("m");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Add, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 1); // MII 8 on P1L4
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let sched = SchedulerKind::Hrms
            .schedule(&g, &m, &SchedRequest { min_ii: None, max_ii: Some(8) })
            .expect("II 8 is feasible");
        assert_eq!(sched.ii(), 8);
        // A ceiling above the fallback bound must still be respected as
        // given (the old dead expression could never change it either).
        let huge = LoopAnalysis::new(&g, &m).fallback_max_ii() + 100;
        let sched = SchedulerKind::Hrms
            .schedule(&g, &m, &SchedRequest { min_ii: None, max_ii: Some(huge) })
            .unwrap();
        assert_eq!(sched.ii(), 8, "search still stops at the first feasible II");
        // min_ii above every feasible II with a matching max_ii: exhausted.
        let err = SchedulerKind::Hrms
            .schedule(&g, &m, &SchedRequest { min_ii: Some(9), max_ii: Some(7) })
            .unwrap_err();
        assert!(matches!(err, SchedError::InfeasibleRequest { min_ii: 9, max_ii: 7 }));
    }

    #[test]
    fn wide_independent_ops_fill_slots() {
        // 8 independent adds on 2 adders: II = 4, all slots used.
        let mut b = DdgBuilder::new("wide");
        for i in 0..8 {
            b.add_op(OpKind::Add, format!("a{i}"));
        }
        let g = b.build().unwrap();
        let s = schedule_ok(&g, &MachineConfig::p2l4());
        assert_eq!(s.ii(), 4);
    }

    #[test]
    fn stress_random_graphs_schedule_and_verify() {
        let mut rng = StdRng::seed_from_u64(42);
        let machines = paper_machines();
        for case in 0..150 {
            let Some(g) = random_graph(&mut rng, case, false) else { continue };
            let m = &machines[case % machines.len()];
            let s = SchedulerKind::Hrms
                .schedule(&g, m, &SchedRequest::default())
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{g}"));
            s.verify(&g, m).unwrap_or_else(|e| panic!("case {case}: {e}\n{g}\n{s}"));
            assert!(s.ii() >= mii(&g, m));
        }
    }

    /// The groups with an edge into `v` (`ins`) or out of it.
    fn neighbours<'c>(
        ctx: &'c LoopAnalysis<'_>,
        v: usize,
        ins: bool,
    ) -> impl Iterator<Item = usize> + 'c {
        let edges = if ins { ctx.ins.of(v) } else { ctx.outs.of(v) };
        edges.iter().map(|e| e.other)
    }

    /// The ordering walk the linear one replaced, kept as its reference: a
    /// `BTreeSet` frontier, and readiness recomputed from `remaining` at
    /// every pick.
    fn reference_walk(
        ctx: &LoopAnalysis<'_>,
        seed: impl Fn(&BTreeSet<usize>) -> usize,
        pick: impl Fn(&BTreeSet<usize>, &BTreeSet<usize>, Direction) -> Option<usize>,
    ) -> Vec<OpId> {
        let groups = ctx.groups();
        let mut order: Vec<usize> = Vec::with_capacity(groups.len());
        let mut ordered = vec![false; groups.len()];
        for set in &ctx.sets {
            let mut remaining: BTreeSet<usize> = set.iter().copied().collect();
            while !remaining.is_empty() {
                let td: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&v| neighbours(ctx, v, true).any(|p| ordered[p]))
                    .collect();
                let bu: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&v| neighbours(ctx, v, false).any(|s| ordered[s]))
                    .collect();
                let (mut frontier, dir): (BTreeSet<usize>, Direction) =
                    if !td.is_empty() && bu.is_empty() {
                        (td.into_iter().collect(), Direction::TopDown)
                    } else if !bu.is_empty() && td.is_empty() {
                        (bu.into_iter().collect(), Direction::BottomUp)
                    } else if td.is_empty() && bu.is_empty() {
                        ([seed(&remaining)].into_iter().collect(), Direction::TopDown)
                    } else {
                        (td.into_iter().collect(), Direction::TopDown)
                    };
                while let Some(v) = pick(&frontier, &remaining, dir) {
                    frontier.remove(&v);
                    if !remaining.remove(&v) {
                        continue;
                    }
                    ordered[v] = true;
                    order.push(v);
                    for w in neighbours(ctx, v, dir == Direction::BottomUp) {
                        if remaining.contains(&w) {
                            frontier.insert(w);
                        }
                    }
                }
            }
        }
        order.into_iter().map(|gi| groups.leader(gi)).collect()
    }

    /// The reference HRMS order: readiness probed in `remaining`.
    fn reference_hrms(ctx: &LoopAnalysis<'_>, analysis: &TimeAnalysis) -> Vec<OpId> {
        let (g_asap, g_alap, g_mob) = group_priorities(ctx, analysis);
        let horizon: i64 = g_alap.iter().copied().max().unwrap_or(0);
        reference_walk(
            ctx,
            |remaining| {
                remaining.iter().copied().min_by_key(|&v| (g_mob[v], g_asap[v], v)).unwrap()
            },
            |frontier, remaining, dir| {
                frontier.iter().copied().min_by_key(|&v| {
                    let not_ready = neighbours(ctx, v, dir == Direction::TopDown)
                        .any(|w| remaining.contains(&w) && w != v);
                    let criticality = match dir {
                        Direction::TopDown => -(horizon - g_alap[v]),
                        Direction::BottomUp => -g_asap[v],
                    };
                    (not_ready, criticality, g_mob[v], v)
                })
            },
        )
    }

    /// The reference SMS order: the swing priority over a `BTreeSet`.
    fn reference_sms(ctx: &LoopAnalysis<'_>, analysis: &TimeAnalysis) -> Vec<OpId> {
        let (g_asap, g_alap, g_mob) = group_priorities(ctx, analysis);
        reference_walk(
            ctx,
            |remaining| {
                remaining.iter().copied().min_by_key(|&v| (g_mob[v], g_alap[v], v)).unwrap()
            },
            |frontier, _remaining, dir| {
                frontier.iter().copied().min_by_key(|&v| {
                    let swing = match dir {
                        Direction::TopDown => g_alap[v],
                        Direction::BottomUp => -g_asap[v],
                    };
                    (swing, g_mob[v], v)
                })
            },
        )
    }

    /// Runs `order` until it has emitted `limit` leaders: the leaders, and
    /// whether the walk finished.
    fn walk(
        order: OrderWalk,
        ctx: &LoopAnalysis<'_>,
        analysis: &TimeAnalysis,
        limit: usize,
    ) -> (Vec<OpId>, bool) {
        let mut leaders = Vec::new();
        let finished = order(ctx, analysis, &mut |leader| {
            leaders.push(leader);
            leaders.len() < limit
        });
        (leaders, finished)
    }

    /// At MII, MII+1 and MII+3, the HRMS and SMS walks emit the reference
    /// order in full, and a walk stopped after k leaders emits exactly the
    /// reference's first k and reports that it did not finish.
    fn assert_walks_match_the_reference(g: &Ddg, m: &MachineConfig) {
        type Reference = fn(&LoopAnalysis<'_>, &TimeAnalysis) -> Vec<OpId>;
        let walks: [(&str, OrderWalk, Reference); 2] = [
            ("hrms", ordering_in, reference_hrms),
            ("sms", crate::sms::swing_ordering, reference_sms),
        ];
        let ctx = LoopAnalysis::new(g, m);
        for ii in [ctx.mii(), ctx.mii() + 1, ctx.mii() + 3] {
            let analysis = ctx.time_analysis(ii, None).expect("II at or above RecMII");
            for (name, order, reference) in walks {
                let expected = reference(&ctx, &analysis);
                let cell = format!("{name} on {} at II {ii} ({m})", g.name());
                assert_eq!(
                    walk(order, &ctx, &analysis, usize::MAX),
                    (expected.clone(), true),
                    "{cell}"
                );
                let n = expected.len();
                for k in [1, n / 2, n.saturating_sub(1)].into_iter().filter(|&k| 0 < k && k < n)
                {
                    let (prefix, finished) = walk(order, &ctx, &analysis, k);
                    assert_eq!(prefix, expected[..k], "{cell}, stopped after {k}");
                    assert!(!finished, "{cell}, stopped after {k}");
                }
            }
        }
    }

    #[test]
    fn linear_walk_matches_the_reference_walk() {
        for g in reference_corpus() {
            for m in &paper_machines() {
                assert_walks_match_the_reference(&g, m);
            }
        }
    }

    /// The all-or-nothing group placement the slot-based one replaced:
    /// every member's cycle wrapped on its own by `Mrt::try_place`.
    fn place_per_cycle(
        ddg: &Ddg,
        groups: &ComplexGroups,
        mrt: &mut Mrt,
        g: usize,
        t: i64,
    ) -> bool {
        let members = groups.members_of(groups.leader(g));
        for (placed, &m) in members.iter().enumerate() {
            if !mrt.try_place(ddg.op(m).kind(), t + groups.offset(m)) {
                for &p in &members[..placed] {
                    mrt.remove(ddg.op(p).kind(), t + groups.offset(p));
                }
                return false;
            }
        }
        true
    }

    /// The probe loop the open-slot search replaced, kept as its reference:
    /// the window folded from every member's cross-group edges in the
    /// graph, then each cycle of the scan probed in turn with
    /// [`place_per_cycle`].
    fn per_cycle_place(placer: &mut Placer<'_, '_>, leader: OpId) -> bool {
        let ctx = placer.ctx;
        let (ddg, groups, machine) = (ctx.ddg(), ctx.groups(), ctx.machine());
        let (ii, g, members) = (placer.ii, groups.group_of(leader), groups.members_of(leader));
        let op_start =
            |op: OpId| placer.start[groups.group_of(op)].map(|t| t + groups.offset(op));
        let (mut early, mut late): (Option<i64>, Option<i64>) = (None, None);
        for &m in members {
            let off = groups.offset(m);
            for e in ddg.in_edges(m).filter(|e| groups.group_of(e.from()) != g) {
                if let Some(tp) = op_start(e.from()) {
                    let lat = crate::edge_latency(machine, ddg, e);
                    let c = tp + lat - ii * i64::from(e.distance()) - off;
                    early = Some(early.map_or(c, |x| x.max(c)));
                }
            }
            for e in ddg.out_edges(m).filter(|e| groups.group_of(e.to()) != g) {
                if let Some(ts) = op_start(e.to()) {
                    let lat = crate::edge_latency(machine, ddg, e);
                    let c = ts - lat + ii * i64::from(e.distance()) - off;
                    late = Some(late.map_or(c, |x| x.min(c)));
                }
            }
        }
        let g_asap =
            members.iter().map(|&m| placer.analysis.asap(m) - groups.offset(m)).max().unwrap();
        let Some(scan) = placer.scan(early, late, g_asap) else { return false };
        let mrt = &mut placer.mrt;
        let mut probe = |t: &i64| place_per_cycle(ddg, groups, mrt, g, *t);
        let mut cycles = scan.from..=scan.to;
        let found =
            if scan.down { cycles.rev().find(&mut probe) } else { cycles.find(&mut probe) };
        let Some(t) = found else { return false };
        placer.start[g] = Some(t);
        true
    }

    /// Under HRMS, SMS and ASAP, starting at MII, MII + 1 and MII + 3, the
    /// II walk makes the same schedules, IIs tried included, with the
    /// open-slot search as with the per-cycle probe. The walk stops 16 IIs
    /// up: many bonded random graphs never schedule, and climbing to the
    /// fallback ceiling on each would only repeat the same probes.
    #[test]
    fn open_slot_placement_matches_the_per_cycle_probe() {
        for g in reference_corpus() {
            for m in &paper_machines() {
                let ctx = LoopAnalysis::new(&g, m);
                for ii in [ctx.mii(), ctx.mii() + 1, ctx.mii() + 3] {
                    let request = SchedRequest { min_ii: Some(ii), max_ii: Some(ii + 16) };
                    let orders: [(&str, Option<OrderWalk>); 3] = [
                        ("hrms", Some(ordering_in)),
                        ("sms", Some(crate::sms::swing_ordering)),
                        ("asap", None),
                    ];
                    for (slug, order) in orders {
                        let reference =
                            search_with(&ctx, &request, slug, order, per_cycle_place);
                        let cell = format!("{slug} on {} at II {ii} ({m})", g.name());
                        assert_eq!(ii_search(&ctx, &request, slug, order), reference, "{cell}");
                    }
                }
            }
        }
    }

    #[test]
    fn self_recurrence_group_is_ordered_first() {
        // An accumulator self-recurrence is a one-group recurrence: the
        // ordering phase must treat it as a recurrence set (highest RecMII
        // first), not as leftover acyclic work ordered after everything else.
        let mut b = DdgBuilder::new("acc");
        let feeders: Vec<_> = (0..4).map(|i| b.add_op(OpKind::Load, format!("f{i}"))).collect();
        let acc = b.add_op(OpKind::Div, "acc"); // latency makes its RecMII dominate
        for &f in &feeders {
            b.reg(f, acc);
        }
        b.reg_dist(acc, acc, 1);
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let ctx = LoopAnalysis::new(&g, &m);
        let order = SchedulerKind::Hrms.ordering(&ctx, ctx.mii()).expect("feasible analysis");
        assert_eq!(order[0], acc, "dominant self-recurrence must lead the order: {order:?}");
        schedule_ok(&g, &m);
    }
}
