//! Topological orders.

use std::collections::VecDeque;

use crate::graph::Ddg;
use crate::op::OpId;

/// Kahn topological order that ignores loop-carried (distance > 0) edges.
///
/// Zero-distance edges form a DAG in any valid graph (guaranteed by
/// [`crate::Ddg::validate`]), so this always yields a complete order. Ties
/// are broken by operation index for determinism.
pub fn topo_order_ignoring_back_edges(g: &Ddg) -> Vec<OpId> {
    let n = g.num_ops();
    let mut indeg = vec![0usize; n];
    for e in g.edges() {
        if e.distance() == 0 {
            indeg[e.to().index()] += 1;
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut out = Vec::with_capacity(n);
    while let Some(v) = queue.pop_front() {
        out.push(OpId::new(v));
        for e in g.out_edges(OpId::new(v)) {
            if e.distance() == 0 {
                let w = e.to().index();
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push_back(w);
                }
            }
        }
    }
    debug_assert_eq!(out.len(), n, "zero-distance edges must form a DAG");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::op::OpKind;

    #[test]
    fn kahn_order_is_complete_and_forward() {
        let mut b = DdgBuilder::new("g");
        let x = b.add_op(OpKind::Load, "x");
        let y = b.add_op(OpKind::Add, "y");
        let z = b.add_op(OpKind::Store, "z");
        b.reg(x, y);
        b.reg(y, z);
        b.order(z, x, 1); // back edge: ignored
        let g = b.build().unwrap();
        let order = topo_order_ignoring_back_edges(&g);
        assert_eq!(order, vec![x, y, z]);
    }

    #[test]
    fn kahn_on_parallel_chains_is_deterministic() {
        let mut b = DdgBuilder::new("p");
        let a0 = b.add_op(OpKind::Add, "a0");
        let a1 = b.add_op(OpKind::Add, "a1");
        let s = b.add_op(OpKind::Store, "s");
        b.reg(a0, s);
        b.reg(a1, s);
        let g = b.build().unwrap();
        assert_eq!(topo_order_ignoring_back_edges(&g), vec![a0, a1, s]);
    }
}
