//! Recurrence-constrained minimum initiation interval.

use regpipe_ddg::algo::recurrences;
use regpipe_ddg::{Ddg, OpId};
use regpipe_machine::MachineConfig;

use crate::loop_analysis::{timed_edges, TimedEdge};

/// Computes `RecMII`: the smallest II such that no dependence cycle is
/// over-constrained, i.e. for every cycle `C`, `Lat(C) ≤ II · Dist(C)`
/// (paper Section 2.2). Returns 1 for acyclic graphs.
///
/// Implemented as a binary search over II with positive-cycle detection on
/// edge weights `lat(e) − II·δ(e)` (Bellman–Ford longest-path relaxation:
/// failure to converge within `n` passes proves a positive cycle), which is
/// exact and avoids enumerating the possibly-exponential set of circuits.
/// One relaxation-state buffer is allocated for the whole search and reused
/// across probes, and every infeasible probe extracts a positive-weight
/// circuit from the predecessor graph — `⌈Lat/Dist⌉` of that circuit is a
/// valid lower bound that usually collapses the remaining search range in
/// one step.
pub fn rec_mii(ddg: &Ddg, machine: &MachineConfig) -> u32 {
    rec_mii_over(ddg.num_ops(), &timed_edges(ddg, machine), !recurrences(ddg).is_empty())
}

/// [`rec_mii`] over pre-resolved edge timings, also the search behind
/// [`subset_rec_bound`]. `has_recurrence` short-circuits acyclic graphs to
/// 1 exactly as the standalone function does.
pub(crate) fn rec_mii_over(n: usize, edges: &[TimedEdge], has_recurrence: bool) -> u32 {
    if !has_recurrence {
        return 1;
    }
    // Upper bound: any circuit's latency is at most the sum of all edge
    // latencies, and its distance is at least 1.
    let hi_bound: i64 = edges.iter().map(|e| e.lat.max(0)).sum::<i64>().max(1);
    let mut scratch = CycleScratch::new(n);
    let mut lo = 1u32;
    let mut hi = u32::try_from(hi_bound).unwrap_or(u32::MAX);
    // Invariant: feasible(hi) is true, feasible(lo - 1) is false (or lo=1).
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match scratch.positive_cycle(edges, mid) {
            Some(circuit) => lo = circuit.bound().max(mid + 1).min(hi),
            None => hi = mid,
        }
    }
    lo
}

/// A positive-weight circuit found by a RecMII probe: its total latency and
/// dependence distance.
#[derive(Clone, Copy, Debug)]
struct CriticalCycle {
    latency: i64,
    distance: i64,
}

impl CriticalCycle {
    /// The II bound this circuit implies. The circuit is a genuine cycle of
    /// the graph, so `RecMII ≥ ⌈latency/distance⌉`; found at an infeasible
    /// probe, the bound is combined with `mid + 1` by the caller (the
    /// predecessor graph can in principle yield a zero-weight cycle, whose
    /// bound degenerates to `mid`).
    fn bound(self) -> u32 {
        if self.distance <= 0 {
            return 1; // malformed (validation forbids 0-distance cycles)
        }
        let b = (self.latency + self.distance - 1) / self.distance;
        u32::try_from(b.max(1)).unwrap_or(u32::MAX)
    }
}

/// Reusable Bellman–Ford state for positive-cycle probes: per-node path
/// values and predecessor edges, reset (not reallocated) per probe.
struct CycleScratch {
    n: usize,
    val: Vec<i64>,
    /// Index into the probe's edge list of the relaxation that last raised
    /// each node; `usize::MAX` when the node still sits at its 0 init.
    pred: Vec<usize>,
    /// Walk buffer for circuit extraction.
    seen_at: Vec<usize>,
}

impl CycleScratch {
    fn new(n: usize) -> Self {
        CycleScratch { n, val: vec![0; n], pred: vec![usize::MAX; n], seen_at: vec![0; n] }
    }

    /// Probes one II: `Some(circuit)` when a positive-weight cycle exists
    /// under `w(e) = lat(e) − II·δ(e)` (i.e. the II is infeasible), `None`
    /// when the II satisfies every recurrence.
    ///
    /// Longest-path relaxation from an all-zero init converges within `n`
    /// passes exactly when no positive cycle exists (simple paths have at
    /// most `n − 1` edges); one more changing pass proves infeasibility,
    /// and walking the predecessor edges from a node updated in that pass
    /// lands on a circuit of non-negative weight whose `⌈Lat/Dist⌉` seeds
    /// the search's next lower bound.
    fn positive_cycle(&mut self, edges: &[TimedEdge], ii: u32) -> Option<CriticalCycle> {
        let n = self.n;
        if n == 0 {
            return None;
        }
        self.val.fill(0);
        self.pred.fill(usize::MAX);
        let ii64 = i64::from(ii);
        let mut last_raised = usize::MAX;
        for _pass in 0..=n {
            let mut changed = false;
            for (idx, e) in edges.iter().enumerate() {
                let cand = self.val[e.from] + e.lat - ii64 * e.dist;
                if cand > self.val[e.to] {
                    self.val[e.to] = cand;
                    self.pred[e.to] = idx;
                    last_raised = e.to;
                    changed = true;
                }
            }
            if !changed {
                return None;
            }
        }
        Some(self.extract_cycle(edges, last_raised))
    }

    /// Walks predecessor edges from `start` until a node repeats, then sums
    /// the latencies/distances around the repeated segment. A predecessor
    /// chain after `n` changing passes is longer than any simple path, so a
    /// repeat is guaranteed; if the walk falls off a 0-init node anyway
    /// (defensive), the degenerate `(0, 0)` circuit makes [`bound`]
    /// harmless.
    fn extract_cycle(&mut self, edges: &[TimedEdge], start: usize) -> CriticalCycle {
        const UNSEEN: usize = usize::MAX;
        self.seen_at.fill(UNSEEN);
        let mut path: Vec<usize> = Vec::new(); // edge indices walked
        let mut v = start;
        loop {
            if self.seen_at[v] != UNSEEN {
                // The walk from `seen_at[v]` onward is the circuit.
                let mut latency = 0i64;
                let mut distance = 0i64;
                for &idx in &path[self.seen_at[v]..] {
                    latency += edges[idx].lat;
                    distance += edges[idx].dist;
                }
                return CriticalCycle { latency, distance };
            }
            self.seen_at[v] = path.len();
            let idx = self.pred[v];
            if idx == usize::MAX {
                return CriticalCycle { latency: 0, distance: 0 };
            }
            path.push(idx);
            v = edges[idx].from;
        }
    }
}

/// Recurrence bound of a node subset: the smallest II with no positive
/// cycle in the subgraph `edges` (the loop's timed edges over its `n` ops)
/// induces on `members`. II-independent, so [`crate::LoopAnalysis`]
/// computes it once per recurrence of the loop
/// ([`rec_bounds`](crate::LoopAnalysis::rec_bounds)): the ordering phase
/// ranks recurrence sets by it, and the loop's RecMII is the largest.
pub(crate) fn subset_rec_bound(n: usize, edges: &[TimedEdge], members: &[OpId]) -> u32 {
    let mut pos = vec![usize::MAX; n];
    for (i, m) in members.iter().enumerate() {
        pos[m.index()] = i;
    }
    let edges: Vec<TimedEdge> = edges
        .iter()
        .filter(|e| pos[e.from] != usize::MAX && pos[e.to] != usize::MAX)
        .map(|e| TimedEdge { from: pos[e.from], to: pos[e.to], ..*e })
        .collect();
    rec_mii_over(members.len(), &edges, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{elementary_circuits, Circuit};
    use regpipe_ddg::{DdgBuilder, OpKind};

    #[test]
    fn acyclic_graph_has_recmii_one() {
        let mut b = DdgBuilder::new("dag");
        let x = b.add_op(OpKind::Load, "x");
        let y = b.add_op(OpKind::Add, "y");
        b.reg(x, y);
        let g = b.build().unwrap();
        assert_eq!(rec_mii(&g, &MachineConfig::p1l4()), 1);
    }

    #[test]
    fn self_recurrence_bound() {
        // acc = acc + x, distance 1: RecMII = latency(add) = 4.
        let mut b = DdgBuilder::new("acc");
        let a = b.add_op(OpKind::Add, "a");
        b.reg_dist(a, a, 1);
        let g = b.build().unwrap();
        assert_eq!(rec_mii(&g, &MachineConfig::p1l4()), 4);
        assert_eq!(rec_mii(&g, &MachineConfig::p2l6()), 6);
    }

    #[test]
    fn distance_divides_the_bound() {
        // Same recurrence but distance 4: ceil(4/4) = 1... with two ops.
        let mut b = DdgBuilder::new("d4");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Mul, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 4);
        let g = b.build().unwrap();
        // Cycle latency 4 + 4 = 8 over distance 4 -> ceil(8/4) = 2.
        assert_eq!(rec_mii(&g, &MachineConfig::p1l4()), 2);
    }

    #[test]
    fn max_over_multiple_recurrences() {
        let mut b = DdgBuilder::new("two");
        let a = b.add_op(OpKind::Add, "a");
        b.reg_dist(a, a, 1); // bound 4
        let d = b.add_op(OpKind::Div, "d");
        b.reg_dist(d, d, 2); // bound ceil(17/2) = 9
        let g = b.build().unwrap();
        assert_eq!(rec_mii(&g, &MachineConfig::p1l4()), 9);
    }

    #[test]
    fn order_edges_contribute_zero_latency() {
        let mut b = DdgBuilder::new("ord");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Add, "c");
        b.reg(a, c); // latency 4
        b.order(c, a, 1); // latency 0
        let g = b.build().unwrap();
        // Cycle latency 4 + 0 = 4, distance 1.
        assert_eq!(rec_mii(&g, &MachineConfig::p1l4()), 4);
    }

    /// One bound per recurrence, largest first, and the largest is the
    /// whole-graph RecMII.
    #[test]
    fn per_recurrence_bounds_match_recmii() {
        let mut b = DdgBuilder::new("two");
        let a = b.add_op(OpKind::Add, "a");
        b.reg_dist(a, a, 1);
        let d = b.add_op(OpKind::Div, "d");
        b.reg_dist(d, d, 2);
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let ctx = crate::LoopAnalysis::new(&g, &m);
        assert_eq!(ctx.rec_bounds(), [9, 4]);
        assert_eq!(ctx.rec_bounds()[0], rec_mii(&g, &m));
    }

    #[test]
    fn recmii_agrees_with_circuit_enumeration_on_random_graphs() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let m = MachineConfig::p2l4();
        for case in 0..40 {
            let n = rng.random_range(2..10usize);
            let mut b = DdgBuilder::new(format!("r{case}"));
            let ops: Vec<_> = (0..n)
                .map(|i| {
                    let kind = match rng.random_range(0..4u32) {
                        0 => OpKind::Load,
                        1 => OpKind::Add,
                        2 => OpKind::Mul,
                        _ => OpKind::Copy,
                    };
                    b.add_op(kind, format!("n{i}"))
                })
                .collect();
            for _ in 0..rng.random_range(1..3 * n) {
                let f = ops[rng.random_range(0..n)];
                let t = ops[rng.random_range(0..n)];
                // Keep zero-distance edges forward to avoid 0-cycles.
                if t > f {
                    let d = rng.random_range(0..3u32);
                    b.reg_dist(f, t, d);
                } else {
                    b.reg_dist(f, t, rng.random_range(1..4u32));
                }
            }
            let Ok(g) = b.build() else { continue };
            let fast = rec_mii(&g, &m);
            if let Some(circuits) = elementary_circuits(&g, &m, 100_000) {
                let exact = circuits.iter().map(Circuit::bound).max().unwrap_or(1);
                assert_eq!(fast, exact, "case {case}:\n{g}");
            }
        }
    }
}
