//! The per-loop analysis context: everything a modulo scheduler derives
//! from a `(Ddg, MachineConfig)` pair that does *not* depend on the
//! candidate II, computed once and shared across the whole II search — and,
//! through the rounds of `regpipe_core::compile`, across entire compile runs.
//!
//! Before this layer existed every II probe rebuilt the complex-operation
//! groups, the group-level super graph, its SCCs, the per-recurrence RecMII
//! bounds (each a Bellman–Ford binary search), the reachability queries
//! of the ordering phase and the fallback topological order from scratch.
//! All of that is II-independent. [`LoopAnalysis`] hoists it out of the
//! loop. The per-recurrence bounds also give the loop's RecMII, the
//! largest of them, so no whole-graph search runs. What remains per II is
//! one (warm-started) timing analysis and the placement scan, fed one
//! group at a time by the alternating-direction inner ordering, which
//! stops at the first group that does not fit.
//!
//! # Invalidation
//!
//! A context is a pure function of the graph and machine it was built from
//! and holds borrows of both, so it can never outlive them. The compile
//! strategies must rebuild the context whenever the graph is *rewritten* —
//! spill-code insertion (`regpipe_spill::spill` /
//! `regpipe_spill::spill_batch`) is the only mutation point in the
//! pipeline.

use regpipe_ddg::algo::BitClosure;
use regpipe_ddg::{Ddg, OpId};
use regpipe_machine::{res_mii, MachineConfig};

use crate::analysis::TimeAnalysis;
use crate::groups::ComplexGroups;
use crate::recmii::subset_rec_bound;
use crate::{edge_latency, fallback_max_ii};

/// One dependence edge with its timing resolved against the machine model:
/// the Bellman–Ford relaxations and RecMII probes iterate edges many times,
/// so latencies are looked up once instead of per visit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimedEdge {
    /// Producer op index.
    pub from: usize,
    /// Consumer op index.
    pub to: usize,
    /// Latency charged on the edge.
    pub lat: i64,
    /// Dependence distance δ.
    pub dist: i64,
}

/// A cross-group dependence of one complex group, used by the placement
/// phase to fold scheduled neighbours into an early/late window on the
/// group leader's clock.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct WindowEdge {
    /// The op on the other end (producer for in-edges, consumer for out).
    pub other: usize,
    /// Latency charged on the edge, with the group member's bond offset
    /// folded in: `lat − offset` on an in-edge, so the leader starts no
    /// earlier than `t(other) + lat − II·δ`, and `lat + offset` on an
    /// out-edge, so it starts no later than `t(other) − lat + II·δ`.
    pub lat: i64,
    /// Dependence distance δ.
    pub dist: i64,
}

/// Window edges bucketed by group in one flat list: group `g`'s edges are
/// `edges[first[g]..first[g + 1]]`.
#[derive(Default)]
pub(crate) struct GroupEdges {
    edges: Vec<WindowEdge>,
    first: Vec<usize>,
}

impl GroupEdges {
    /// Buckets `(group, edge)` pairs over `groups` groups, in input order
    /// within each group.
    fn bucket(groups: usize, items: impl Iterator<Item = (usize, WindowEdge)> + Clone) -> Self {
        let mut first = vec![0; groups + 1];
        for (g, _) in items.clone() {
            first[g + 1] += 1;
        }
        for g in 0..groups {
            first[g + 1] += first[g];
        }
        let mut edges = vec![WindowEdge::default(); first[groups]];
        let mut next = first.clone();
        for (g, e) in items {
            edges[next[g]] = e;
            next[g] += 1;
        }
        GroupEdges { edges, first }
    }

    /// The edges of group `g`.
    pub(crate) fn of(&self, g: usize) -> &[WindowEdge] {
        &self.edges[self.first[g]..self.first[g + 1]]
    }
}

/// All edges of `ddg` with pre-resolved timing, in `ddg.edges()` order.
pub(crate) fn timed_edges(ddg: &Ddg, machine: &MachineConfig) -> Vec<TimedEdge> {
    ddg.edges()
        .map(|e| TimedEdge {
            from: e.from().index(),
            to: e.to().index(),
            lat: edge_latency(machine, ddg, e),
            dist: i64::from(e.distance()),
        })
        .collect()
}

/// Machine latency per operation, indexed by op.
pub(crate) fn op_latencies(ddg: &Ddg, machine: &MachineConfig) -> Vec<i64> {
    (0..ddg.num_ops())
        .map(|v| i64::from(machine.latency(ddg.op(OpId::new(v)).kind())))
        .collect()
}

/// The group-level super graph: adjacency between complex-group indices.
pub(crate) struct SuperGraph {
    /// Distinct successor groups per group.
    pub succs: Vec<Vec<usize>>,
    /// Distinct predecessor groups per group.
    pub preds: Vec<Vec<usize>>,
    /// Groups closed into a recurrence by a loop-carried edge internal to
    /// the group (e.g. an accumulator's self-edge). Tracked separately:
    /// `succs`/`preds` drop intra-group edges, so a one-group recurrence is
    /// invisible to the SCC pass.
    pub self_cyclic: Vec<bool>,
}

impl SuperGraph {
    fn new(ddg: &Ddg, groups: &ComplexGroups) -> Self {
        let g = groups.len();
        let mut succs = vec![Vec::new(); g];
        let mut preds = vec![Vec::new(); g];
        let mut self_cyclic = vec![false; g];
        for e in ddg.edges() {
            let gf = groups.group_of(e.from());
            let gt = groups.group_of(e.to());
            if gf != gt {
                if !succs[gf].contains(&gt) {
                    succs[gf].push(gt);
                }
                if !preds[gt].contains(&gf) {
                    preds[gt].push(gf);
                }
            } else if e.distance() > 0 {
                // Distance-0 intra-group edges (bonds and the free edges
                // between bonded members) are acyclic by validation; only a
                // carried edge closes a recurrence through the group.
                self_cyclic[gf] = true;
            }
        }
        SuperGraph { succs, preds, self_cyclic }
    }
}

/// An intra-group free edge's fixed separation vs. its timing requirement:
/// at II the group is placeable only if `sep ≥ lat − II·δ`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IntraFreeEdge {
    /// Bond-offset separation `offset(to) − offset(from)`.
    pub sep: i64,
    /// Latency charged on the edge.
    pub lat: i64,
    /// Dependence distance δ.
    pub dist: i64,
}

/// Everything the schedulers derive from a `(Ddg, MachineConfig)` pair
/// independently of the candidate II: complex-operation groups, pre-timed
/// edges, the group super graph and its SCC-derived priority sets (with
/// word-packed reachability), the fallback topological order, and the
/// `ResMII`/`RecMII`/`MII` bounds. Built once per graph and shared across
/// every II probe of a schedule call — and, through
/// [`Scheduler::schedule_in`](crate::Scheduler::schedule_in), across
/// repeated schedule calls on the same loop.
///
/// # Invalidation
///
/// The context borrows its graph and machine and is a pure function of
/// them; it must be rebuilt whenever the graph is rewritten (spill-code
/// insertion is the pipeline's only mutation point).
pub struct LoopAnalysis<'a> {
    ddg: &'a Ddg,
    machine: &'a MachineConfig,
    groups: ComplexGroups,
    latency: Vec<i64>,
    /// All edges with pre-resolved timing (the exact scheduler folds
    /// these into its group-level difference constraints per II).
    pub(crate) edges: Vec<TimedEdge>,
    /// Cross-group in-edges per group (placement's early bound).
    pub(crate) window_in: GroupEdges,
    /// Cross-group out-edges per group (placement's late bound).
    pub(crate) window_out: GroupEdges,
    /// Intra-group free edges (placement pre-check).
    pub(crate) intra_free: Vec<IntraFreeEdge>,
    pub(crate) sg: SuperGraph,
    /// The HRMS priority sets: recurrences by decreasing RecMII bound, each
    /// augmented with the groups on connecting paths, then the acyclic rest.
    pub(crate) sets: Vec<Vec<usize>>,
    /// Forward topological leader order (the ASAP/fallback placement order).
    pub(crate) fallback: Vec<OpId>,
    res_mii: u32,
    rec_mii: u32,
    fallback_max_ii: u32,
}

impl<'a> LoopAnalysis<'a> {
    /// Builds the context for `ddg` on `machine`.
    pub fn new(ddg: &'a Ddg, machine: &'a MachineConfig) -> Self {
        let groups = ComplexGroups::new(ddg, machine);
        let latency = op_latencies(ddg, machine);
        let edges = timed_edges(ddg, machine);

        // Cross-group edges, bucketed by the group at each end.
        let group = |v: usize| groups.group_of(OpId::new(v));
        let offset = |v: usize| groups.offset(OpId::new(v));
        let cross = edges.iter().filter(|e| group(e.from) != group(e.to));
        let window_in = GroupEdges::bucket(
            groups.len(),
            cross.clone().map(|e| {
                (
                    group(e.to),
                    WindowEdge { other: e.from, lat: e.lat - offset(e.to), dist: e.dist },
                )
            }),
        );
        let window_out = GroupEdges::bucket(
            groups.len(),
            cross.map(|e| {
                (
                    group(e.from),
                    WindowEdge { other: e.to, lat: e.lat + offset(e.from), dist: e.dist },
                )
            }),
        );
        let mut intra_free = Vec::new();
        for e in ddg.edges() {
            if !e.is_fixed() && groups.group_of(e.from()) == groups.group_of(e.to()) {
                intra_free.push(IntraFreeEdge {
                    sep: groups.offset(e.to()) - groups.offset(e.from()),
                    lat: edge_latency(machine, ddg, e),
                    dist: i64::from(e.distance()),
                });
            }
        }

        let sg = SuperGraph::new(ddg, &groups);
        let (sets, rec_mii) = priority_sets(ddg, machine, &groups, &sg);
        let fallback = crate::hrms::topo_leader_order(ddg, &groups);
        LoopAnalysis {
            res_mii: res_mii(machine, ddg),
            rec_mii,
            fallback_max_ii: fallback_max_ii(ddg, machine),
            ddg,
            machine,
            groups,
            latency,
            edges,
            window_in,
            window_out,
            intra_free,
            sg,
            sets,
            fallback,
        }
    }

    /// The graph this context was built from.
    pub fn ddg(&self) -> &'a Ddg {
        self.ddg
    }

    /// The machine this context was built for.
    pub fn machine(&self) -> &'a MachineConfig {
        self.machine
    }

    /// The complex-operation groups.
    pub fn groups(&self) -> &ComplexGroups {
        &self.groups
    }

    /// The resource-constrained II lower bound.
    pub fn res_mii(&self) -> u32 {
        self.res_mii
    }

    /// The recurrence-constrained II lower bound.
    pub fn rec_mii(&self) -> u32 {
        self.rec_mii
    }

    /// The minimum initiation interval `max(ResMII, RecMII)`.
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii)
    }

    /// The defensive upper bound on the II search
    /// ([`fallback_max_ii`](crate::fallback_max_ii)).
    pub fn fallback_max_ii(&self) -> u32 {
        self.fallback_max_ii
    }

    /// Timing analysis at `ii`, warm-started from `prev` (the solution at a
    /// smaller II of this same graph) when given.
    ///
    /// Returns `None` exactly when `ii < RecMII` — the same condition under
    /// which [`TimeAnalysis::new`] detects divergence, decided here against
    /// the cached bound without running the fixpoint at all.
    pub fn time_analysis(&self, ii: u32, prev: Option<&TimeAnalysis>) -> Option<TimeAnalysis> {
        if ii < self.rec_mii {
            return None;
        }
        let analysis =
            TimeAnalysis::compute(self.ddg.num_ops(), &self.edges, &self.latency, ii, prev);
        debug_assert!(analysis.is_some(), "analysis diverged at ii {ii} >= RecMII");
        analysis
    }
}

/// The II-independent half of the HRMS ordering phase: recurrence sets by
/// decreasing RecMII bound, each augmented with the groups on paths
/// connecting it to previously chosen sets, and a final set with the
/// acyclic rest. Also returns the loop's RecMII: every dependence cycle
/// lies inside one cyclic component of the super graph, so RecMII is the
/// largest component bound (1 without one).
///
/// Reachability runs on a word-packed transitive closure of the super graph
/// ([`BitClosure`]) instead of one BFS per query; chosen/recurrence rows are
/// unioned with bitwise ORs.
fn priority_sets(
    ddg: &Ddg,
    machine: &MachineConfig,
    groups: &ComplexGroups,
    sg: &SuperGraph,
) -> (Vec<Vec<usize>>, u32) {
    let g = groups.len();
    let sccs = regpipe_ddg::algo::sccs_of(&sg.succs);
    let mut rec_sets: Vec<(u32, Vec<usize>)> = Vec::new();
    for comp in &sccs {
        let cyclic = comp.len() > 1 || sg.self_cyclic[comp[0]];
        if cyclic {
            let members: Vec<OpId> = comp
                .iter()
                .flat_map(|&gi| groups.members_of(groups.leader(gi)).iter().copied())
                .collect();
            let bound = subset_rec_bound(ddg, machine, &members);
            rec_sets.push((bound, comp.clone()));
        }
    }
    rec_sets.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let rec_mii = rec_sets.first().map_or(1, |&(bound, _)| bound);

    let (fwd, bwd) = if rec_sets.len() > 1 {
        (BitClosure::new(&sg.succs), BitClosure::transposed(&sg.succs))
    } else {
        // With at most one recurrence set there are no path nodes to find.
        (BitClosure::new(&[]), BitClosure::new(&[]))
    };
    let words = fwd.words();
    // Union of closure rows over all chosen groups, forward and backward.
    let mut fwd_chosen = vec![0u64; words];
    let mut bwd_chosen = vec![0u64; words];
    let mut comp_fwd = vec![0u64; words];
    let mut comp_bwd = vec![0u64; words];
    let bit = |row: &[u64], v: usize| row[v / 64] >> (v % 64) & 1 == 1;

    let mut chosen = vec![false; g];
    let mut sets: Vec<Vec<usize>> = Vec::new();
    let mut any_chosen = false;
    for (_, comp) in &rec_sets {
        let mut set: Vec<usize> = comp.iter().copied().filter(|&x| !chosen[x]).collect();
        if any_chosen && !set.is_empty() {
            // Path nodes between previously chosen sets and this recurrence:
            // forward-reachable from a chosen group AND backward-reachable
            // from the recurrence, or vice versa.
            comp_fwd.fill(0);
            comp_bwd.fill(0);
            for &v in comp.iter() {
                for w in 0..words {
                    comp_fwd[w] |= fwd.row(v)[w];
                    comp_bwd[w] |= bwd.row(v)[w];
                }
            }
            for (v, &taken) in chosen.iter().enumerate() {
                if taken || set.contains(&v) {
                    continue;
                }
                let on_path = (bit(&fwd_chosen, v) && bit(&comp_bwd, v))
                    || (bit(&comp_fwd, v) && bit(&bwd_chosen, v));
                if on_path {
                    set.push(v);
                }
            }
        }
        if !set.is_empty() {
            for &v in &set {
                chosen[v] = true;
                if words > 0 {
                    for w in 0..words {
                        fwd_chosen[w] |= fwd.row(v)[w];
                        bwd_chosen[w] |= bwd.row(v)[w];
                    }
                }
            }
            any_chosen = true;
            sets.push(set);
        }
    }
    let rest: Vec<usize> = (0..g).filter(|&v| !chosen[v]).collect();
    if !rest.is_empty() {
        sets.push(rest);
    }
    (sets, rec_mii)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};

    #[test]
    fn context_caches_the_standalone_bounds() {
        let mut b = DdgBuilder::new("ctx");
        let ld = b.add_op(OpKind::Load, "ld");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(ld, add);
        b.reg(add, st);
        b.reg_dist(add, add, 1);
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let ctx = LoopAnalysis::new(&g, &m);
        assert_eq!(ctx.mii(), crate::mii(&g, &m));
        assert_eq!(ctx.rec_mii(), crate::rec_mii(&g, &m));
        assert_eq!(ctx.res_mii(), res_mii(&m, &g));
        assert_eq!(ctx.fallback_max_ii(), fallback_max_ii(&g, &m));
    }

    #[test]
    fn time_analysis_agrees_with_direct_construction() {
        let mut b = DdgBuilder::new("ta");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Mul, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 1);
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let ctx = LoopAnalysis::new(&g, &m);
        assert!(ctx.time_analysis(ctx.rec_mii() - 1, None).is_none());
        let via_ctx = ctx.time_analysis(ctx.rec_mii(), None).unwrap();
        let direct = TimeAnalysis::new(&g, &m, ctx.rec_mii()).unwrap();
        for v in 0..g.num_ops() {
            let op = OpId::new(v);
            assert_eq!(via_ctx.asap(op), direct.asap(op));
            assert_eq!(via_ctx.alap(op), direct.alap(op));
        }
    }
}
