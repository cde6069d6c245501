//! Dependence edges.

use std::fmt;

use crate::op::OpId;

/// Index of an edge inside a [`crate::Ddg`].
///
/// Edge ids are invalidated by edge removal (the spill rewriter removes the
/// register edges of the value it spills); they should be treated as
/// short-lived handles obtained from the graph's accessors.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn new(index: usize) -> Self {
        EdgeId(u32::try_from(index).expect("edge index overflows u32"))
    }

    /// The dense index of this edge.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The kind of a dependence edge (paper Section 2.1).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum EdgeKind {
    /// Register (flow) data dependence: the source operation produces a
    /// value in a register that the target consumes. Only *flow* register
    /// dependences exist in the model because register allocation happens
    /// after scheduling (paper Section 2.1).
    RegFlow,
    /// Memory data dependence (e.g. a spill store feeding a spill load).
    /// The full source latency must elapse before the target may issue.
    Mem,
    /// Ordering-only dependence with zero latency: the target may not start
    /// before the source *starts* (minus δ·II). Used by the spill rewriter
    /// to keep reloads connected to the original load without forcing them
    /// after its completion (the value is already in memory).
    Order,
}

impl EdgeKind {
    /// All edge kinds.
    pub const ALL: [EdgeKind; 3] = [EdgeKind::RegFlow, EdgeKind::Mem, EdgeKind::Order];
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeKind::RegFlow => "reg",
            EdgeKind::Mem => "mem",
            EdgeKind::Order => "ord",
        };
        f.write_str(s)
    }
}

/// A dependence edge `from → to` with iteration distance δ.
///
/// The scheduling constraint implied by an edge is
/// `t(to) ≥ t(from) + effective_latency(from) − δ·II`
/// where the effective latency depends on [`EdgeKind`] (zero for
/// [`EdgeKind::Order`], the machine latency of `from` otherwise).
///
/// When [`Edge::is_fixed`] the constraint becomes an *equality*
/// `t(to) = t(from) + latency(from) + stagger`: the two operations form part
/// of a "complex operation" and are scheduled as a unit (paper Section 4.3).
/// The stagger is zero for ordinary bonds; the spill rewriter staggers the
/// second and later reloads of one consumer by a cycle each so they do not
/// all claim the same memory-unit slot. Fixed edges always have distance
/// zero.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    from: OpId,
    to: OpId,
    kind: EdgeKind,
    distance: u32,
    fixed: bool,
    stagger: u32,
}

impl Edge {
    /// Creates a free (non-fixed) edge.
    pub fn new(from: OpId, to: OpId, kind: EdgeKind, distance: u32) -> Self {
        Edge { from, to, kind, distance, fixed: false, stagger: 0 }
    }

    /// Creates a fixed (bonded) register edge: `to` must be scheduled exactly
    /// `latency(from)` cycles after `from`.
    ///
    /// Fixed edges implement the paper's complex operations; they are always
    /// register edges with distance zero.
    ///
    /// An operation may be the target of several fixed edges as long as the
    /// implied offsets are consistent; offset consistency is machine
    /// dependent (latencies) and is checked when the scheduler derives the
    /// complex groups, not by graph validation.
    pub fn fixed(from: OpId, to: OpId) -> Self {
        Edge { from, to, kind: EdgeKind::RegFlow, distance: 0, fixed: true, stagger: 0 }
    }

    /// A fixed edge with an extra stagger:
    /// `t(to) = t(from) + latency(from) + stagger`. Used to bond several
    /// reloads to one consumer without forcing them into the same cycle.
    pub fn fixed_staggered(from: OpId, to: OpId, stagger: u32) -> Self {
        Edge { from, to, kind: EdgeKind::RegFlow, distance: 0, fixed: true, stagger }
    }

    /// Source operation.
    pub fn from(&self) -> OpId {
        self.from
    }

    /// Target operation.
    pub fn to(&self) -> OpId {
        self.to
    }

    /// Edge kind.
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }

    /// Dependence distance δ in iterations (0 for intra-iteration edges).
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Whether this edge bonds its endpoints into a complex operation.
    pub fn is_fixed(&self) -> bool {
        self.fixed
    }

    /// Extra cycles added to the bond offset (0 for free edges and plain
    /// bonds).
    pub fn stagger(&self) -> u32 {
        self.stagger
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -{}", self.from, self.kind)?;
        if self.distance > 0 {
            write!(f, "[{}]", self.distance)?;
        }
        if self.fixed {
            write!(f, "!")?;
        }
        write!(f, "-> {}", self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_accessors() {
        let e = Edge::new(OpId::new(0), OpId::new(1), EdgeKind::Mem, 3);
        assert_eq!(e.from(), OpId::new(0));
        assert_eq!(e.to(), OpId::new(1));
        assert_eq!(e.kind(), EdgeKind::Mem);
        assert_eq!(e.distance(), 3);
        assert!(!e.is_fixed());
    }

    #[test]
    fn fixed_edges_are_zero_distance_register_edges() {
        let e = Edge::fixed(OpId::new(2), OpId::new(3));
        assert!(e.is_fixed());
        assert_eq!(e.kind(), EdgeKind::RegFlow);
        assert_eq!(e.distance(), 0);
        assert_eq!(e.stagger(), 0);
    }

    #[test]
    fn staggered_bonds_carry_their_offset() {
        let e = Edge::fixed_staggered(OpId::new(0), OpId::new(1), 2);
        assert!(e.is_fixed());
        assert_eq!(e.stagger(), 2);
    }

    #[test]
    fn display_is_compact() {
        let e = Edge::new(OpId::new(0), OpId::new(1), EdgeKind::RegFlow, 3);
        assert_eq!(e.to_string(), "op0 -reg[3]-> op1");
        let f = Edge::fixed(OpId::new(0), OpId::new(1));
        assert_eq!(f.to_string(), "op0 -reg!-> op1");
    }
}
