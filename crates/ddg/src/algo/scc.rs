//! Strongly connected components (Tarjan) and recurrence detection.

use super::sccs_of;
use crate::graph::Ddg;
use crate::op::OpId;

/// A strongly connected component: a set of mutually reachable operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Scc {
    ops: Vec<OpId>,
    /// Whether the component contains at least one cycle (more than one node,
    /// or a self-loop).
    cyclic: bool,
}

impl Scc {
    /// The operations of the component, in discovery order.
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }

    /// Whether the component contains a dependence cycle — i.e. whether it is
    /// a *recurrence* in modulo-scheduling terms.
    pub fn is_recurrence(&self) -> bool {
        self.cyclic
    }

    /// Number of operations in the component.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the component is empty (never true for components returned by
    /// [`sccs`]).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Computes all strongly connected components with Tarjan's algorithm
/// ([`sccs_of`] over the graph's adjacency lists, so deep graphs cannot
/// overflow the stack).
///
/// Components are returned in *reverse topological order* (callees first),
/// as [`sccs_of`] returns them.
pub fn sccs(g: &Ddg) -> Vec<Scc> {
    let adj: Vec<Vec<usize>> = (0..g.num_ops())
        .map(|v| g.successors(OpId::new(v)).map(OpId::index).collect())
        .collect();
    sccs_of(&adj)
        .into_iter()
        .map(|comp| Scc {
            cyclic: comp.len() > 1 || adj[comp[0]].contains(&comp[0]),
            ops: comp.into_iter().map(OpId::new).collect(),
        })
        .collect()
}

/// The recurrences of the graph: SCCs that contain a cycle.
///
/// ```
/// use regpipe_ddg::{DdgBuilder, OpKind, algo};
/// let mut b = DdgBuilder::new("rec");
/// let a = b.add_op(OpKind::Add, "a");
/// let c = b.add_op(OpKind::Add, "b");
/// b.reg(a, c);
/// b.reg_dist(c, a, 1);
/// let g = b.build()?;
/// assert_eq!(algo::recurrences(&g).len(), 1);
/// # Ok::<(), regpipe_ddg::DdgError>(())
/// ```
pub fn recurrences(g: &Ddg) -> Vec<Scc> {
    sccs(g).into_iter().filter(Scc::is_recurrence).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::op::OpKind;

    fn two_recurrences() -> Ddg {
        // r1: a <-> b  (via distance-1 back edge)
        // r2: c -> d -> e -> c (distance 2 on the back edge)
        // bridge: b -> c
        let mut bld = DdgBuilder::new("two");
        let a = bld.add_op(OpKind::Add, "a");
        let b = bld.add_op(OpKind::Mul, "b");
        let c = bld.add_op(OpKind::Add, "c");
        let d = bld.add_op(OpKind::Add, "d");
        let e = bld.add_op(OpKind::Add, "e");
        bld.reg(a, b);
        bld.reg_dist(b, a, 1);
        bld.reg(b, c);
        bld.reg(c, d);
        bld.reg(d, e);
        bld.reg_dist(e, c, 2);
        bld.build().unwrap()
    }

    #[test]
    fn dag_has_no_recurrences() {
        let mut b = DdgBuilder::new("dag");
        let x = b.add_op(OpKind::Load, "x");
        let y = b.add_op(OpKind::Store, "y");
        b.reg(x, y);
        let g = b.build().unwrap();
        assert_eq!(sccs(&g).len(), 2);
        assert!(recurrences(&g).is_empty());
    }

    #[test]
    fn finds_both_recurrences() {
        let g = two_recurrences();
        let recs = recurrences(&g);
        assert_eq!(recs.len(), 2);
        let sizes: Vec<usize> = {
            let mut v: Vec<_> = recs.iter().map(Scc::len).collect();
            v.sort();
            v
        };
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn scc_order_is_reverse_topological() {
        let g = two_recurrences();
        let comps = sccs(&g);
        // The {c,d,e} component is downstream of {a,b}, so it must come first.
        let pos_ab = comps.iter().position(|s| s.ops().contains(&OpId::new(0))).unwrap();
        let pos_cde = comps.iter().position(|s| s.ops().contains(&OpId::new(2))).unwrap();
        assert!(pos_cde < pos_ab);
    }

    #[test]
    fn self_loop_is_a_recurrence() {
        let mut b = DdgBuilder::new("self");
        let a = b.add_op(OpKind::Add, "a");
        b.reg_dist(a, a, 1);
        let g = b.build().unwrap();
        let recs = recurrences(&g);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].len(), 1);
    }

    #[test]
    fn isolated_node_is_not_a_recurrence() {
        let mut b = DdgBuilder::new("iso");
        b.add_op(OpKind::Add, "a");
        let g = b.build().unwrap();
        assert!(recurrences(&g).is_empty());
        assert_eq!(sccs(&g).len(), 1);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let mut b = DdgBuilder::new("deep");
        let mut prev = b.add_op(OpKind::Add, "n0");
        for i in 1..20_000 {
            let cur = b.add_op(OpKind::Add, format!("n{i}"));
            b.reg(prev, cur);
            prev = cur;
        }
        let g = b.build().unwrap();
        assert_eq!(sccs(&g).len(), 20_000);
    }
}
