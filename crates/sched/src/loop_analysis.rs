//! The per-loop analysis context: everything a modulo scheduler derives
//! from a `(Ddg, MachineConfig)` pair that does *not* depend on the
//! candidate II, computed once and shared across the whole II search — and,
//! through the rounds of `regpipe_core::compile`, across entire compile runs.
//!
//! Before this layer existed every II probe rebuilt the complex-operation
//! groups, the group-level graph, its SCCs, the per-recurrence RecMII
//! bounds (each a Bellman–Ford binary search), the reachability queries
//! of the ordering phase and the fallback topological order from scratch.
//! All of that is II-independent. [`LoopAnalysis`] hoists it out of the
//! loop and keeps the per-recurrence bounds
//! ([`rec_bounds`](LoopAnalysis::rec_bounds)). They also give the loop's
//! RecMII, the largest of them, so no whole-graph search runs. What
//! remains per II is one (warm-started) timing analysis and the placement
//! scan, fed one group at a time by the alternating-direction inner
//! ordering, which stops at the first group that does not fit.
//!
//! # The group constraint graph
//!
//! A dependence `m → m'` from group `g` to group `h` is the constraint
//! `t(h) − t(g) ≥ lat − II·δ` on the two leaders, with the bond offsets of
//! `m` and `m'` folded into `lat`. The context stores it at both ends, and
//! every search over groups reads these lists ([`GroupEdge`]).
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
use crate::edge_latency;
use crate::groups::ComplexGroups;
use crate::recmii::subset_rec_bound;

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

/// One dependence as a constraint between the leaders of its two groups:
/// with `g` the producer's group and `h` the consumer's,
/// `t(h) − t(g) ≥ lat − II·δ`.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct GroupEdge {
    /// The group on the other end: the producer's in an in-list, the
    /// consumer's in an out-list.
    pub other: usize,
    /// The edge's latency with the bond offsets of its ends folded in:
    /// `lat(e) + offset(from) − offset(to)`.
    pub lat: i64,
    /// Dependence distance δ.
    pub dist: i64,
}

/// Group edges bucketed by group in one flat list: group `g`'s edges are
/// `edges[first[g]..first[g + 1]]`, in edge order.
#[derive(Default)]
pub(crate) struct GroupEdges {
    edges: Vec<GroupEdge>,
    first: Vec<usize>,
}

impl GroupEdges {
    /// Buckets `(group, edge)` pairs over `groups` groups, in input order
    /// within each group.
    fn bucket(groups: usize, items: impl Iterator<Item = (usize, GroupEdge)> + Clone) -> Self {
        let mut first = vec![0; groups + 1];
        for (g, _) in items.clone() {
            first[g + 1] += 1;
        }
        for g in 0..groups {
            first[g + 1] += first[g];
        }
        let mut edges = vec![GroupEdge::default(); first[groups]];
        let mut next = first.clone();
        for (g, e) in items {
            edges[next[g]] = e;
            next[g] += 1;
        }
        GroupEdges { edges, first }
    }

    /// The edges of group `g`.
    pub(crate) fn of(&self, g: usize) -> &[GroupEdge] {
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

/// Everything the schedulers derive from a `(Ddg, MachineConfig)` pair
/// independently of the candidate II: complex-operation groups, pre-timed
/// edges, the group constraint graph and its SCC-derived priority sets
/// (with word-packed reachability), the fallback topological order, the
/// per-recurrence bounds and the `ResMII`/`RecMII`/`MII` bounds. Built once
/// per graph and shared across every II probe of a schedule call — and,
/// through [`Scheduler::schedule_in`](crate::Scheduler::schedule_in),
/// across repeated schedule calls on the same loop. Whatever needs a
/// loop's facts (the schedulers, [`stage_schedule`](crate::stage_schedule),
/// [`SchedulerKind::ordering`](crate::SchedulerKind::ordering)) takes the
/// caller's context.
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
    /// All edges with pre-resolved timing, for the per-op analyses.
    edges: Vec<TimedEdge>,
    /// Every dependence but the bonds, at its consumer's group.
    pub(crate) ins: GroupEdges,
    /// Every dependence but the bonds, at its producer's group.
    pub(crate) outs: GroupEdges,
    /// The least II at which every dependence inside a group holds
    /// (`i64::MAX` when one never does).
    bond_ii: i64,
    /// The HRMS priority sets: recurrences by decreasing RecMII bound, each
    /// augmented with the groups on connecting paths, then the acyclic rest.
    pub(crate) sets: Vec<Vec<usize>>,
    /// Forward topological leader order (the ASAP/fallback placement order).
    pub(crate) fallback: Vec<OpId>,
    res_mii: u32,
    /// One bound per recurrence, largest first.
    rec_bounds: Vec<u32>,
    fallback_max_ii: u32,
}

impl<'a> LoopAnalysis<'a> {
    /// Builds the context for `ddg` on `machine`.
    pub fn new(ddg: &'a Ddg, machine: &'a MachineConfig) -> Self {
        let groups = ComplexGroups::new(ddg, machine);
        let latency = op_latencies(ddg, machine);
        let edges = timed_edges(ddg, machine);

        let group = |v: usize| groups.group_of(OpId::new(v));
        let offset = |v: usize| groups.offset(OpId::new(v));
        // Every dependence but the bonds, which the offsets satisfy by
        // construction.
        let folded: Vec<(usize, usize, i64, i64)> = ddg
            .edges()
            .zip(&edges)
            .filter(|(bond, _)| !bond.is_fixed())
            .map(|(_, e)| {
                (group(e.from), group(e.to), e.lat + offset(e.from) - offset(e.to), e.dist)
            })
            .collect();
        let ins = GroupEdges::bucket(
            groups.len(),
            folded.iter().map(|&(g, h, lat, dist)| (h, GroupEdge { other: g, lat, dist })),
        );
        let outs = GroupEdges::bucket(
            groups.len(),
            folded.iter().map(|&(g, h, lat, dist)| (g, GroupEdge { other: h, lat, dist })),
        );

        // A dependence inside a group holds iff `lat ≤ II·δ`: from
        // ⌈lat/δ⌉ on when δ > 0, and at every II or at none when δ = 0.
        let bond_ii = folded
            .iter()
            .filter(|&&(g, h, ..)| g == h)
            .map(|&(_, _, lat, dist)| match dist {
                0 if lat > 0 => i64::MAX,
                0 => 0,
                _ => (lat + dist - 1).div_euclid(dist),
            })
            .max()
            .unwrap_or(0);

        let (sets, rec_bounds) = priority_sets(ddg.num_ops(), &groups, &edges, &outs);
        let fallback = crate::hrms::topo_leader_order(ddg, &groups);
        LoopAnalysis {
            res_mii: res_mii(machine, ddg),
            rec_bounds,
            fallback_max_ii: fallback_max_ii(ddg, machine),
            ddg,
            machine,
            groups,
            latency,
            edges,
            ins,
            outs,
            bond_ii,
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

    /// The recurrence-constrained II lower bound: the largest of
    /// [`rec_bounds`](Self::rec_bounds), 1 without a recurrence.
    pub fn rec_mii(&self) -> u32 {
        self.rec_bounds.first().copied().unwrap_or(1)
    }

    /// The recurrence bounds, largest first: one per recurrence of the loop
    /// (a cyclic strongly connected component of the group constraint
    /// graph), the least II at which no dependence cycle among its members
    /// is over-constrained (paper Section 2.2). Empty without a recurrence.
    pub fn rec_bounds(&self) -> &[u32] {
        &self.rec_bounds
    }

    /// The minimum initiation interval `max(ResMII, RecMII)`.
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii())
    }

    /// The defensive upper bound on the II search: the length of the fully
    /// sequential schedule, at which scheduling always succeeds.
    pub fn fallback_max_ii(&self) -> u32 {
        self.fallback_max_ii
    }

    /// Timing analysis at `ii`, warm-started from `prev` (the solution at a
    /// smaller II of this same graph) when given; the one constructor of
    /// [`TimeAnalysis`].
    ///
    /// Returns `None` exactly when `ii < RecMII`, where the fixpoint would
    /// diverge; decided against the cached bound without running it.
    pub fn time_analysis(&self, ii: u32, prev: Option<&TimeAnalysis>) -> Option<TimeAnalysis> {
        if ii < self.rec_mii() {
            return None;
        }
        let analysis =
            TimeAnalysis::compute(self.ddg.num_ops(), &self.edges, &self.latency, ii, prev);
        debug_assert!(analysis.is_some(), "analysis diverged at ii {ii} >= RecMII");
        analysis
    }

    /// Whether every dependence inside a group holds at `ii` with its
    /// members at their bond offsets (`lat ≤ II·δ`). When one does not, no
    /// placement of that group is valid at this II, whatever the order.
    pub(crate) fn bonds_hold(&self, ii: u32) -> bool {
        i64::from(ii) >= self.bond_ii
    }
}

/// A defensive upper bound on the II at which scheduling always succeeds:
/// the fully sequential schedule (sum of occupancies and latencies).
fn fallback_max_ii(ddg: &Ddg, machine: &MachineConfig) -> u32 {
    let mut total: u64 = 1;
    for (_, n) in ddg.ops() {
        total += u64::from(machine.latency(n.kind()).max(machine.occupancy(n.kind())));
    }
    u32::try_from(total.min(u64::from(u32::MAX))).unwrap_or(u32::MAX)
}

/// The II-independent half of the HRMS ordering phase: recurrence sets by
/// decreasing RecMII bound, each augmented with the groups on paths
/// connecting it to previously chosen sets, and a final set with the
/// acyclic rest. Also returns the bound of each cyclic component, in the
/// order the sets take them: every dependence cycle lies inside one
/// cyclic component of the group graph, so RecMII is the first (1 without
/// one).
///
/// Reachability runs on a word-packed transitive closure of the group graph
/// ([`BitClosure`]) instead of one BFS per query; chosen/recurrence rows are
/// unioned with bitwise ORs.
fn priority_sets(
    n: usize,
    groups: &ComplexGroups,
    edges: &[TimedEdge],
    outs: &GroupEdges,
) -> (Vec<Vec<usize>>, Vec<u32>) {
    let g = groups.len();
    // Distinct successor groups, in first-edge order, without the group
    // itself.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); g];
    for (v, succs) in succs.iter_mut().enumerate() {
        for e in outs.of(v).iter().filter(|e| e.other != v) {
            if !succs.contains(&e.other) {
                succs.push(e.other);
            }
        }
    }
    let sccs = regpipe_ddg::algo::sccs_of(&succs);
    let mut rec_sets: Vec<(u32, Vec<usize>)> = Vec::new();
    for comp in &sccs {
        // A lone group closes a recurrence only through a carried
        // dependence inside it (bonds have distance 0 by validation).
        let v = comp[0];
        let cyclic = comp.len() > 1 || outs.of(v).iter().any(|e| e.other == v && e.dist > 0);
        if cyclic {
            let members: Vec<OpId> = comp
                .iter()
                .flat_map(|&gi| groups.members_of(groups.leader(gi)).iter().copied())
                .collect();
            let bound = subset_rec_bound(n, edges, &members);
            rec_sets.push((bound, comp.clone()));
        }
    }
    rec_sets.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

    let (fwd, bwd) = if rec_sets.len() > 1 {
        (BitClosure::new(&succs), BitClosure::transposed(&succs))
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
    (sets, rec_sets.into_iter().map(|(bound, _)| bound).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{
        elementary_circuits, paper_machines, reference_corpus, spill_rewrites, Circuit,
    };
    use regpipe_ddg::{DdgBuilder, OpKind};

    /// The grouping `ComplexGroups::new` made with a union-find pass before
    /// its bond walk, kept as its reference: per op its group (numbered by
    /// smallest op) and its normalised offset, and per group its members
    /// by offset, then op.
    fn union_find_groups(
        ddg: &Ddg,
        machine: &MachineConfig,
    ) -> (Vec<usize>, Vec<i64>, Vec<Vec<OpId>>) {
        let n = ddg.num_ops();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for e in ddg.edges().filter(|e| e.is_fixed()) {
            let (ra, rb) =
                (find(&mut parent, e.from().index()), find(&mut parent, e.to().index()));
            if ra != rb {
                parent[ra] = rb;
            }
        }

        let mut offset = vec![0i64; n];
        let mut pinned = vec![false; n];
        let fixed: Vec<_> = ddg.edges().filter(|e| e.is_fixed()).collect();
        let bond_len = |e: &regpipe_ddg::Edge| {
            i64::from(machine.latency(ddg.op(e.from()).kind())) + i64::from(e.stagger())
        };
        for seed in 0..n {
            if pinned[seed] {
                continue;
            }
            pinned[seed] = true;
            let mut queue = vec![seed];
            while let Some(v) = queue.pop() {
                for e in &fixed {
                    let (f, t) = (e.from().index(), e.to().index());
                    let (w, want) = if f == v {
                        (t, offset[v] + bond_len(e))
                    } else if t == v {
                        (f, offset[v] - bond_len(e))
                    } else {
                        continue;
                    };
                    if !pinned[w] {
                        offset[w] = want;
                        pinned[w] = true;
                        queue.push(w);
                    }
                }
            }
        }

        let mut group_of = vec![usize::MAX; n];
        let mut members: Vec<Vec<OpId>> = Vec::new();
        for v in 0..n {
            let root = find(&mut parent, v);
            if group_of[root] == usize::MAX {
                group_of[root] = members.len();
                members.push(Vec::new());
            }
            group_of[v] = group_of[root];
            members[group_of[v]].push(OpId::new(v));
        }
        for group in &mut members {
            let min = group.iter().map(|m| offset[m.index()]).min().unwrap();
            for m in group.iter() {
                offset[m.index()] -= min;
            }
            group.sort_by_key(|m| (offset[m.index()], m.index()));
        }
        (group_of, offset, members)
    }

    /// Checks the context's group graph against the raw graph: the groups
    /// against the union-find reference, each group's in- and out-lists
    /// against the constraints derived from the free edges of
    /// `ddg.edges()`, `edge_latency` and the bond offsets, in edge order,
    /// and `bonds_hold` against the per-edge check on the free edges
    /// inside groups from MII − 2 to MII + 3 and on both sides of the
    /// least II at which it holds.
    fn assert_group_graph_matches_the_graph(g: &Ddg, m: &MachineConfig) {
        let ctx = LoopAnalysis::new(g, m);
        let groups = ctx.groups();
        let cell = format!("{} ({m})", g.name());

        let (group_of, offset, members) = union_find_groups(g, m);
        assert_eq!(groups.len(), members.len(), "{cell}");
        for (v, op) in g.ops().map(|(op, _)| (op.index(), op)) {
            assert_eq!(
                (groups.group_of(op), groups.offset(op)),
                (group_of[v], offset[v]),
                "{cell}"
            );
        }
        for (gi, expected) in members.iter().enumerate() {
            assert_eq!(groups.members_of(groups.leader(gi)), expected.as_slice(), "{cell}");
            assert_eq!(groups.leader(gi), expected[0], "{cell}");
        }

        let mut ins = vec![Vec::new(); groups.len()];
        let mut outs = vec![Vec::new(); groups.len()];
        for e in g.edges().filter(|e| !e.is_fixed()) {
            let (gf, gt) = (groups.group_of(e.from()), groups.group_of(e.to()));
            let lat = edge_latency(m, g, e) + groups.offset(e.from()) - groups.offset(e.to());
            let dist = i64::from(e.distance());
            ins[gt].push((gf, lat, dist));
            outs[gf].push((gt, lat, dist));
        }
        let flat = |edges: &[GroupEdge]| -> Vec<(usize, i64, i64)> {
            edges.iter().map(|e| (e.other, e.lat, e.dist)).collect()
        };
        for h in 0..groups.len() {
            assert_eq!(flat(ctx.ins.of(h)), ins[h], "{cell}: in-edges of group {h}");
            assert_eq!(flat(ctx.outs.of(h)), outs[h], "{cell}: out-edges of group {h}");
        }

        let least = u32::try_from(ctx.bond_ii).ok();
        let edges_ii = least.into_iter().flat_map(|b| [b.saturating_sub(1), b]);
        for ii in (ctx.mii().saturating_sub(2)..=ctx.mii() + 3).chain(edges_ii) {
            let per_edge = g
                .edges()
                .filter(|e| {
                    !e.is_fixed() && groups.group_of(e.from()) == groups.group_of(e.to())
                })
                .all(|e| {
                    let sep = groups.offset(e.to()) - groups.offset(e.from());
                    sep >= edge_latency(m, g, e) - i64::from(ii) * i64::from(e.distance())
                });
            assert_eq!(ctx.bonds_hold(ii), per_edge, "{cell} at II {ii}");
        }
    }

    /// The group graph against the raw graph on the reference corpus and
    /// the spill rewrites `compile` makes of it at budgets 32 and 16.
    #[test]
    fn group_graph_matches_the_raw_graph() {
        let loops = reference_corpus();
        for m in &paper_machines() {
            let rewrites = spill_rewrites(&loops, m, &[32, 16]);
            assert!(rewrites.len() >= 100, "only {} spill rewrites on {m}", rewrites.len());
            for g in loops.iter().chain(&rewrites) {
                assert_group_graph_matches_the_graph(g, m);
            }
        }
    }

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

    /// Below RecMII the context answers `None` from its cached bound, where
    /// the cold fixpoint diverges; from RecMII on both give the same
    /// analysis.
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
        let (edges, latency) = (timed_edges(&g, &m), op_latencies(&g, &m));
        let bounds = |t: TimeAnalysis| g.op_ids().map(|op| (t.asap(op), t.alap(op))).collect();
        for ii in ctx.rec_mii() - 1..=ctx.rec_mii() + 2 {
            let via_ctx: Option<Vec<_>> = ctx.time_analysis(ii, None).map(bounds);
            let direct = TimeAnalysis::compute(g.num_ops(), &edges, &latency, ii, None);
            assert_eq!(via_ctx.is_some(), ii >= ctx.rec_mii(), "II {ii}");
            assert_eq!(via_ctx, direct.map(bounds), "II {ii}");
        }
    }

    /// The recurrence bounds against Johnson's enumeration wherever it
    /// finishes under 2,000 circuits, on the reference corpus and the spill
    /// rewrites `compile` makes of it at budgets 32 and 16: RecMII is the
    /// largest circuit bound and the whole-graph search's, and on a loop
    /// without bonds, whose groups are its ops, each bound is the largest
    /// of the circuits in one recurrence of the graph.
    #[test]
    fn rec_bounds_match_the_circuit_reference() {
        let loops = reference_corpus();
        let (mut graphs, mut enumerated, mut unbonded) = (0, 0, 0);
        for m in &paper_machines() {
            for g in loops.iter().chain(&spill_rewrites(&loops, m, &[32, 16])) {
                let ctx = LoopAnalysis::new(g, m);
                let cell = format!("{} ({} ops) on {m}", g.name(), g.num_ops());
                assert_eq!(ctx.rec_mii(), crate::rec_mii(g, m), "{cell}");
                graphs += 1;
                let Some(circuits) = elementary_circuits(g, m, 2_000) else { continue };
                enumerated += 1;
                let largest = circuits.iter().map(Circuit::bound).max().unwrap_or(1);
                assert_eq!(ctx.rec_mii(), largest, "{cell}");
                if ctx.groups().len() < g.num_ops() {
                    continue;
                }
                unbonded += 1;
                let recurrences = regpipe_ddg::algo::recurrences(g);
                let bounds = recurrences.iter().map(|r| {
                    let inside = circuits.iter().filter(|c| r.ops().contains(&c.ops[0]));
                    inside.map(Circuit::bound).max().expect("a recurrence closes a circuit")
                });
                let mut bounds: Vec<u32> = bounds.collect();
                bounds.sort_unstable_by(|a, b| b.cmp(a));
                assert_eq!(ctx.rec_bounds(), bounds, "{cell}");
            }
        }
        assert!(
            enumerated * 2 > graphs,
            "circuits enumerated on only {enumerated} of {graphs}"
        );
        assert!(unbonded >= 1000, "only {unbonded} enumerated loops without bonds");
    }
}
