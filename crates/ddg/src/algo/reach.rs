//! Reachability queries.

/// Word-packed transitive closure over an arbitrary adjacency-list graph
/// (node = index into the list).
///
/// Built once in O((V+E)·V/64) by accumulating successor sets in reverse
/// topological order of the SCC condensation (one pass — no fixpoint
/// iteration), queried in O(1). Rows are exposed as `&[u64]` so callers can
/// union several sources with plain bitwise ORs; the schedulers use this to
/// find the operations lying *between* an already-ordered set and a
/// recurrence (the "path nodes" of the HRMS ordering phase) without a BFS
/// per query.
#[derive(Clone, Debug)]
pub struct BitClosure {
    n: usize,
    words: usize,
    /// `bits[v * words ..][..words]`: set of nodes reachable from v
    /// (including v itself).
    bits: Vec<u64>,
}

impl BitClosure {
    /// Builds the closure of the graph whose successors of `v` are
    /// `adj[v]`. Self-loops and duplicate edges are tolerated.
    pub fn new(adj: &[Vec<usize>]) -> Self {
        let n = adj.len();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        for v in 0..n {
            bits[v * words + v / 64] |= 1 << (v % 64);
        }
        // Tarjan SCCs emit components in reverse topological order of the
        // condensation, so by the time a component is closed every
        // successor outside it already has its final row: one OR pass per
        // edge suffices. Edges inside the component are handled by giving
        // all its members one shared row.
        for comp in sccs_of(adj) {
            // Union the members' direct-successor rows into the first
            // member's row, then copy it to the rest.
            let root = comp[0];
            for &v in &comp {
                for &s in &adj[v] {
                    if s == root {
                        continue;
                    }
                    let (dst, src) = disjoint_rows(&mut bits, words, root, s);
                    for w in 0..words {
                        dst[w] |= src[w];
                    }
                }
                if v != root {
                    bits[root * words + v / 64] |= 1 << (v % 64);
                }
            }
            for &v in comp.iter().skip(1) {
                let (dst, src) = disjoint_rows(&mut bits, words, v, root);
                dst.copy_from_slice(src);
            }
        }
        BitClosure { n, words, bits }
    }

    /// Builds the closure of the transposed graph (i.e. *backward*
    /// reachability of the original).
    pub fn transposed(adj: &[Vec<usize>]) -> Self {
        let mut rev = vec![Vec::new(); adj.len()];
        for (v, succs) in adj.iter().enumerate() {
            for &s in succs {
                rev[s].push(v);
            }
        }
        BitClosure::new(&rev)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the closure covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of `u64` words per row.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Whether `to` is reachable from `from` (every node reaches itself).
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        assert!(from < self.n && to < self.n, "node index out of bounds");
        self.bits[from * self.words + to / 64] >> (to % 64) & 1 == 1
    }

    /// The reachable set of `from`, as a packed bitset row.
    pub fn row(&self, from: usize) -> &[u64] {
        assert!(from < self.n, "node index out of bounds");
        &self.bits[from * self.words..(from + 1) * self.words]
    }
}

/// Two non-overlapping rows of the packed matrix, mutably and immutably.
fn disjoint_rows(
    bits: &mut [u64],
    words: usize,
    dst: usize,
    src: usize,
) -> (&mut [u64], &[u64]) {
    debug_assert_ne!(dst, src);
    let hi = dst.max(src);
    let (a, b) = bits.split_at_mut(hi * words);
    if dst < src {
        (&mut a[dst * words..(dst + 1) * words], &b[..words])
    } else {
        (&mut b[..words], &a[src * words..(src + 1) * words])
    }
}

/// Tarjan SCCs of an adjacency-list graph, in reverse topological order of
/// the condensation (iterative, shared by [`sccs`](super::sccs),
/// [`BitClosure`] and the scheduler's group-level priority sets).
pub fn sccs_of(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut on = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    let mut work: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        work.push((root, 0));
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on[root] = true;
        while let Some(&mut (v, ref mut cur)) = work.last_mut() {
            if *cur < adj[v].len() {
                let w = adj[v][*cur];
                *cur += 1;
                if index[w] == usize::MAX {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on[w] = true;
                    work.push((w, 0));
                } else if on[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(p, _)) = work.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan underflow");
                        on[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.push(comp);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::op::{OpId, OpKind};
    use crate::Ddg;

    /// The transitive closure of `g`'s edges, all kinds and distances.
    fn closure(g: &Ddg) -> BitClosure {
        let adj: Vec<Vec<usize>> = (0..g.num_ops())
            .map(|v| g.successors(OpId::new(v)).map(|s| s.index()).collect())
            .collect();
        BitClosure::new(&adj)
    }

    #[test]
    fn chain_reachability() {
        let mut b = DdgBuilder::new("chain");
        let x = b.add_op(OpKind::Add, "x");
        let y = b.add_op(OpKind::Add, "y");
        let z = b.add_op(OpKind::Add, "z");
        b.reg(x, y);
        b.reg(y, z);
        let g = b.build().unwrap();
        let r = closure(&g);
        assert!(r.reaches(x.index(), z.index()));
        assert!(!r.reaches(z.index(), x.index()));
        assert!(r.reaches(y.index(), y.index()));
        assert_eq!(r.row(x.index())[0].count_ones(), 3);
    }

    #[test]
    fn cycle_reaches_everything_in_it() {
        let mut b = DdgBuilder::new("cyc");
        let x = b.add_op(OpKind::Add, "x");
        let y = b.add_op(OpKind::Add, "y");
        b.reg(x, y);
        b.reg_dist(y, x, 1);
        let g = b.build().unwrap();
        let r = closure(&g);
        assert!(r.reaches(x.index(), y.index()));
        assert!(r.reaches(y.index(), x.index()));
    }

    #[test]
    fn disconnected_components_do_not_reach() {
        let mut b = DdgBuilder::new("disc");
        let x = b.add_op(OpKind::Add, "x");
        let y = b.add_op(OpKind::Add, "y");
        let g = b.build().unwrap();
        let r = closure(&g);
        assert!(!r.reaches(x.index(), y.index()));
        assert!(!r.reaches(y.index(), x.index()));
    }

    /// Reference BFS reachability, for cross-checking the bitset closure.
    fn bfs_reach(adj: &[Vec<usize>], from: usize) -> Vec<bool> {
        let mut seen = vec![false; adj.len()];
        let mut queue = vec![from];
        seen[from] = true;
        while let Some(v) = queue.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    queue.push(w);
                }
            }
        }
        seen
    }

    #[test]
    fn bit_closure_matches_bfs_on_random_adjacency() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for case in 0..60 {
            let n = rng.random_range(1..90usize);
            let mut adj = vec![Vec::new(); n];
            for _ in 0..rng.random_range(0..3 * n) {
                let f = rng.random_range(0..n);
                let t = rng.random_range(0..n);
                adj[f].push(t);
            }
            let closure = BitClosure::new(&adj);
            let back = BitClosure::transposed(&adj);
            for v in 0..n {
                let seen = bfs_reach(&adj, v);
                for (t, &reachable) in seen.iter().enumerate() {
                    assert_eq!(
                        closure.reaches(v, t),
                        reachable,
                        "case {case}: closure({v} -> {t})"
                    );
                    assert_eq!(
                        back.reaches(t, v),
                        reachable,
                        "case {case}: transpose({t} <- {v})"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_closure_rows_are_unionable() {
        // a -> b, c -> d: the union of rows a and c covers all four nodes.
        let adj = vec![vec![1], vec![], vec![3], vec![]];
        let closure = BitClosure::new(&adj);
        assert_eq!(closure.words(), 1);
        let union = closure.row(0)[0] | closure.row(2)[0];
        assert_eq!(union, 0b1111);
        assert!(!closure.is_empty());
        assert_eq!(closure.len(), 4);
    }

    #[test]
    fn sccs_of_emits_reverse_topological_components() {
        // 0 <-> 1 -> 2, 2 -> 3 <-> 4: the sink component {3,4} comes first.
        let adj = vec![vec![1], vec![0, 2], vec![3], vec![4], vec![3]];
        let comps = sccs_of(&adj);
        assert_eq!(comps.len(), 3);
        let mut sets: Vec<Vec<usize>> = comps
            .iter()
            .map(|c| {
                let mut s = c.clone();
                s.sort_unstable();
                s
            })
            .collect();
        assert_eq!(sets.remove(0), vec![3, 4], "sink SCC closed first");
        assert!(sets.contains(&vec![0, 1]));
        assert!(sets.contains(&vec![2]));
    }

    #[test]
    fn wide_graph_over_64_nodes() {
        // 70 sources all feeding one sink exercises multi-word bitsets.
        let mut b = DdgBuilder::new("wide");
        let sink = b.add_op(OpKind::Store, "sink");
        let mut srcs = Vec::new();
        for i in 0..70 {
            let s = b.add_op(OpKind::Load, format!("s{i}"));
            b.reg(s, sink);
            srcs.push(s);
        }
        let g = b.build().unwrap();
        let r = closure(&g);
        for &s in &srcs {
            assert!(r.reaches(s.index(), sink.index()));
            assert!(!r.reaches(sink.index(), s.index()));
        }
    }
}
