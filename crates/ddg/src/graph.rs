//! The dependence graph container.

use std::fmt;

use crate::edge::{Edge, EdgeId, EdgeKind};
use crate::invariant::{Invariant, InvariantId};
use crate::node::Node;
use crate::op::{OpId, OpKind};
use crate::validate::{self, DdgError};

/// A loop data-dependence graph `G = (V, E, δ)` (paper Section 2.1).
///
/// Nodes are operations of a single-basic-block loop body; edges are
/// dependences annotated with an iteration distance δ. Loop-invariant values
/// are tracked separately (they consume one register each but are not
/// produced by any node in the body).
///
/// The graph is an *append-only* node container: spilling adds stores and
/// loads but never removes operations (a fully-spilled load simply becomes
/// dead, as in the paper's Figure 5c). Edges may be removed.
///
/// Construction normally goes through [`crate::DdgBuilder`]; the mutating
/// methods here are what the spill rewriter uses.
#[derive(Clone, Debug)]
pub struct Ddg {
    name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// `succs[v]` / `preds[v]`: edge indices leaving / entering `v`.
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
    invariants: Vec<Invariant>,
    /// Per-node flag: the value defined by this node must not be spilled
    /// (it was created by spilling; re-spilling it would deadlock,
    /// paper Section 4.3).
    non_spillable: Vec<bool>,
}

impl Ddg {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Ddg {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            invariants: Vec::new(),
            non_spillable: Vec::new(),
        }
    }

    /// The loop's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the loop.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Nodes
    // ------------------------------------------------------------------

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.nodes.len()
    }

    /// The node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn op(&self, id: OpId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over all operation ids in index order.
    pub fn op_ids(&self) -> impl ExactSizeIterator<Item = OpId> + Clone + use<> {
        (0..self.nodes.len()).map(OpId::new)
    }

    /// Iterates over `(id, node)` pairs.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = (OpId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (OpId::new(i), n))
    }

    /// Appends an operation and returns its id.
    pub fn add_op(&mut self, kind: OpKind, name: impl Into<String>) -> OpId {
        let id = OpId::new(self.nodes.len());
        self.nodes.push(Node::new(kind, name));
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.non_spillable.push(false);
        id
    }

    // ------------------------------------------------------------------
    // Edges
    // ------------------------------------------------------------------

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds (e.g. stale after a removal).
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Edges leaving `v`.
    pub fn out_edges(&self, v: OpId) -> impl Iterator<Item = &Edge> {
        self.succs[v.index()].iter().map(|&i| &self.edges[i as usize])
    }

    /// Edges entering `v`.
    pub fn in_edges(&self, v: OpId) -> impl Iterator<Item = &Edge> {
        self.preds[v.index()].iter().map(|&i| &self.edges[i as usize])
    }

    /// Successor operations of `v` (may repeat if parallel edges exist).
    pub fn successors(&self, v: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.out_edges(v).map(|e| e.to())
    }

    /// Adds a dependence edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge(&mut self, edge: Edge) -> EdgeId {
        assert!(edge.from().index() < self.nodes.len(), "edge source out of bounds");
        assert!(edge.to().index() < self.nodes.len(), "edge target out of bounds");
        let id = EdgeId::new(self.edges.len());
        self.succs[edge.from().index()].push(id.index() as u32);
        self.preds[edge.to().index()].push(id.index() as u32);
        self.edges.push(edge);
        id
    }

    /// Removes every edge for which `pred` returns `true` and rebuilds the
    /// adjacency lists. Any previously obtained [`EdgeId`] is invalidated.
    ///
    /// Returns the number of edges removed.
    pub fn remove_edges_where(&mut self, mut pred: impl FnMut(&Edge) -> bool) -> usize {
        let before = self.edges.len();
        self.edges.retain(|e| !pred(e));
        let removed = before - self.edges.len();
        if removed > 0 {
            self.rebuild_adjacency();
        }
        removed
    }

    fn rebuild_adjacency(&mut self) {
        for l in &mut self.succs {
            l.clear();
        }
        for l in &mut self.preds {
            l.clear();
        }
        for (i, e) in self.edges.iter().enumerate() {
            self.succs[e.from().index()].push(i as u32);
            self.preds[e.to().index()].push(i as u32);
        }
    }

    // ------------------------------------------------------------------
    // Loop variants (register values) and spillability
    // ------------------------------------------------------------------

    /// The register-flow consumers of the value defined by `producer`,
    /// with their dependence distances: `(consumer, δ)` pairs.
    pub fn reg_consumers(&self, producer: OpId) -> impl Iterator<Item = (OpId, u32)> + '_ {
        self.out_edges(producer)
            .filter(|e| e.kind() == EdgeKind::RegFlow)
            .map(|e| (e.to(), e.distance()))
    }

    /// Operations that define a *live* loop variant (they define a value and
    /// at least one register consumer exists).
    pub fn live_variants(&self) -> impl Iterator<Item = OpId> + '_ {
        self.op_ids().filter(|&v| {
            self.op(v).kind().defines_value() && self.reg_consumers(v).next().is_some()
        })
    }

    /// Whether the value defined by `producer` may be spilled.
    ///
    /// A value is spillable when it is live, was not created by a previous
    /// spill (paper Section 4.3's deadlock-avoidance rule), and is not the
    /// source of a fixed (bonded) edge.
    pub fn is_value_spillable(&self, producer: OpId) -> bool {
        !self.non_spillable[producer.index()]
            && self.op(producer).kind().defines_value()
            && self.reg_consumers(producer).next().is_some()
            && !self.out_edges(producer).any(|e| e.is_fixed())
    }

    /// Marks the value defined by `producer` as non-spillable.
    pub fn mark_value_non_spillable(&mut self, producer: OpId) {
        self.non_spillable[producer.index()] = true;
    }

    /// Whether the value defined by `producer` carries the non-spillable mark.
    pub fn is_value_marked_non_spillable(&self, producer: OpId) -> bool {
        self.non_spillable[producer.index()]
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Number of declared invariants (spilled or not).
    pub fn num_invariants(&self) -> usize {
        self.invariants.len()
    }

    /// Number of invariants currently occupying a register.
    pub fn num_live_invariants(&self) -> usize {
        self.invariants.iter().filter(|i| !i.is_spilled()).count()
    }

    /// The invariant for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn invariant(&self, id: InvariantId) -> &Invariant {
        &self.invariants[id.index()]
    }

    /// Mutable access to the invariant for `id` (used by the spill rewriter).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn invariant_mut(&mut self, id: InvariantId) -> &mut Invariant {
        &mut self.invariants[id.index()]
    }

    /// Iterates over `(id, invariant)` pairs.
    pub fn invariants(&self) -> impl ExactSizeIterator<Item = (InvariantId, &Invariant)> {
        self.invariants.iter().enumerate().map(|(i, inv)| (InvariantId::new(i), inv))
    }

    /// Declares a loop-invariant value consumed by `uses`.
    ///
    /// # Panics
    ///
    /// Panics if any use is out of bounds.
    pub fn add_invariant(&mut self, name: impl Into<String>, uses: &[OpId]) -> InvariantId {
        for u in uses {
            assert!(u.index() < self.nodes.len(), "invariant use out of bounds");
        }
        let id = InvariantId::new(self.invariants.len());
        self.invariants.push(Invariant::new(name, uses.to_vec()));
        id
    }

    // ------------------------------------------------------------------
    // Derived statistics
    // ------------------------------------------------------------------

    /// Number of memory operations (loads + stores) in the body; this is the
    /// per-iteration dynamic memory traffic of the loop.
    pub fn memory_ops(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind().is_memory()).count()
    }

    /// Count of operations per kind, indexed by [`OpKind::index`].
    pub fn kind_histogram(&self) -> [usize; OpKind::ALL.len()] {
        let mut h = [0usize; OpKind::ALL.len()];
        for n in &self.nodes {
            h[n.kind().index()] += 1;
        }
        h
    }

    /// The largest dependence distance appearing on any edge.
    pub fn max_distance(&self) -> u32 {
        self.edges.iter().map(|e| e.distance()).max().unwrap_or(0)
    }

    /// Validates structural invariants; see [`DdgError`] for the rules.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn validate(&self) -> Result<(), DdgError> {
        validate::validate(self)
    }
}

impl fmt::Display for Ddg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ddg '{}': {} ops, {} edges, {} invariants",
            self.name,
            self.nodes.len(),
            self.edges.len(),
            self.invariants.len()
        )?;
        for (id, n) in self.ops() {
            writeln!(
                f,
                "  {id} = {n}{}",
                if self.non_spillable[id.index()] { " [ns]" } else { "" }
            )?;
        }
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        for (_, inv) in self.invariants() {
            writeln!(f, "  invariant {inv}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Ddg {
        // ld -> {mul, add} -> st
        let mut g = Ddg::new("diamond");
        let ld = g.add_op(OpKind::Load, "ld");
        let mul = g.add_op(OpKind::Mul, "mul");
        let add = g.add_op(OpKind::Add, "add");
        let st = g.add_op(OpKind::Store, "st");
        g.add_edge(Edge::new(ld, mul, EdgeKind::RegFlow, 0));
        g.add_edge(Edge::new(ld, add, EdgeKind::RegFlow, 2));
        g.add_edge(Edge::new(mul, st, EdgeKind::RegFlow, 0));
        g.add_edge(Edge::new(add, st, EdgeKind::RegFlow, 0));
        g
    }

    #[test]
    fn adjacency_tracks_edges() {
        let g = diamond();
        let ld = OpId::new(0);
        let st = OpId::new(3);
        assert_eq!(g.successors(ld).count(), 2);
        assert_eq!(g.in_edges(st).count(), 2);
        assert_eq!(g.in_edges(ld).count(), 0);
        assert_eq!(g.out_edges(st).count(), 0);
    }

    #[test]
    fn reg_consumers_report_distances() {
        let g = diamond();
        let mut cons: Vec<_> = g.reg_consumers(OpId::new(0)).collect();
        cons.sort();
        assert_eq!(cons, vec![(OpId::new(1), 0), (OpId::new(2), 2)]);
    }

    #[test]
    fn live_variants_exclude_stores_and_dead_values() {
        let mut g = diamond();
        let dead = g.add_op(OpKind::Add, "dead");
        let live: Vec<_> = g.live_variants().collect();
        assert!(live.contains(&OpId::new(0)));
        assert!(!live.contains(&OpId::new(3)), "stores define nothing");
        assert!(!live.contains(&dead), "no consumers, no lifetime");
    }

    #[test]
    fn remove_edges_rebuilds_adjacency() {
        let mut g = diamond();
        let removed = g.remove_edges_where(|e| e.from() == OpId::new(0));
        assert_eq!(removed, 2);
        assert_eq!(g.successors(OpId::new(0)).count(), 0);
        assert_eq!(g.num_edges(), 2);
        // Remaining edges still reachable through adjacency.
        assert_eq!(g.in_edges(OpId::new(3)).count(), 2);
    }

    #[test]
    fn spillability_rules() {
        let mut g = diamond();
        let ld = OpId::new(0);
        assert!(g.is_value_spillable(ld));
        g.mark_value_non_spillable(ld);
        assert!(!g.is_value_spillable(ld));
        // A store never defines a spillable value.
        assert!(!g.is_value_spillable(OpId::new(3)));
    }

    #[test]
    fn fixed_out_edge_blocks_spilling() {
        let mut g = diamond();
        // Bond mul to st: mul's value is now part of a complex op.
        g.add_edge(Edge::fixed(OpId::new(1), OpId::new(3)));
        assert!(!g.is_value_spillable(OpId::new(1)));
    }

    #[test]
    fn invariants_lifecycle() {
        let mut g = diamond();
        let id = g.add_invariant("a", &[OpId::new(1)]);
        assert_eq!(g.num_invariants(), 1);
        assert_eq!(g.num_live_invariants(), 1);
        g.invariant_mut(id).mark_spilled();
        assert_eq!(g.num_invariants(), 1);
        assert_eq!(g.num_live_invariants(), 0);
    }

    #[test]
    fn histogram_and_traffic() {
        let g = diamond();
        let h = g.kind_histogram();
        assert_eq!(h[OpKind::Load.index()], 1);
        assert_eq!(h[OpKind::Store.index()], 1);
        assert_eq!(g.memory_ops(), 2);
        assert_eq!(g.max_distance(), 2);
    }

    #[test]
    fn display_mentions_all_parts() {
        let mut g = diamond();
        g.add_invariant("a", &[OpId::new(1)]);
        let s = g.to_string();
        assert!(s.contains("diamond"));
        assert!(s.contains("invariant a"));
        assert!(s.contains("op0"));
    }
}
