//! Timing analysis: ASAP/ALAP starts, depth, height and mobility for a
//! candidate II.

use regpipe_ddg::OpId;

use crate::loop_analysis::TimedEdge;

/// Per-operation timing bounds at a fixed candidate II.
///
/// `asap` is the earliest start consistent with all dependences (longest
/// path from the graph's sources with edge weights `lat − δ·II`); `alap` is
/// the latest start that still allows every other operation to meet the
/// critical path length. `mobility = alap − asap` is the scheduling slack
/// used for tie-breaking in the ordering phase.
///
/// The analysis is only well-defined for `ii ≥ RecMII`; at smaller IIs the
/// longest-path iteration would not converge. Its one constructor,
/// [`LoopAnalysis::time_analysis`](crate::LoopAnalysis::time_analysis),
/// returns `None` there.
///
/// Alongside each bound the analysis tracks the total dependence *distance*
/// of the path that produced it. Those distances let the solution at one II
/// seed the fixpoint iteration at a larger II (see
/// [`LoopAnalysis::time_analysis`](crate::LoopAnalysis::time_analysis)):
/// the II sweep inside a scheduler warm-starts each analysis from the
/// previous one instead of relaxing from scratch.
#[derive(Clone, Debug)]
pub struct TimeAnalysis {
    ii: u32,
    asap: Vec<i64>,
    alap: Vec<i64>,
    horizon: i64,
    /// Σδ of the maximizing path behind each `asap` entry.
    asap_dist: Vec<i64>,
    /// Σδ of the binding path behind each `alap` entry.
    alap_dist: Vec<i64>,
}

impl TimeAnalysis {
    /// Core fixpoint computation over pre-resolved edge timings; `None`
    /// when it diverges (`ii < RecMII`).
    ///
    /// `warm` may carry the solution for a *smaller* II of the same graph.
    /// Each bound's recorded path distance gives a valid value of that same
    /// path at the new II (`asap − δ·ΔII`), which under-approximates the new
    /// ASAP fixpoint (and symmetrically over-approximates the new ALAP), so
    /// relaxation can start there and still converge to the exact same
    /// least/greatest fixpoint a cold start reaches — usually in one pass.
    pub(crate) fn compute(
        n: usize,
        edges: &[TimedEdge],
        latency: &[i64],
        ii: u32,
        warm: Option<&TimeAnalysis>,
    ) -> Option<Self> {
        let ii64 = i64::from(ii);
        let warm = warm.filter(|w| w.ii < ii);
        let delta = warm.map_or(0, |w| ii64 - i64::from(w.ii));

        // ASAP: least fixpoint of max-relaxation, floored at 0.
        let mut asap = vec![0i64; n];
        let mut asap_dist = vec![0i64; n];
        if let Some(w) = warm {
            for v in 0..n {
                let seeded = w.asap[v] - w.asap_dist[v] * delta;
                if seeded > 0 {
                    asap[v] = seeded;
                    asap_dist[v] = w.asap_dist[v];
                }
            }
        }
        let mut changed = true;
        let mut rounds = 0usize;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > n + 1 {
                return None; // positive cycle: ii < RecMII
            }
            for e in edges {
                let cand = asap[e.from] + e.lat - ii64 * e.dist;
                if cand > asap[e.to] {
                    asap[e.to] = cand;
                    asap_dist[e.to] = asap_dist[e.from] + e.dist;
                    changed = true;
                }
            }
        }
        // Critical path length: the makespan if every op ran to completion.
        let horizon = (0..n).map(|v| asap[v] + latency[v]).max().unwrap_or(0);

        // ALAP: greatest fixpoint of min-relaxation, capped at
        // `horizon − latency`.
        let mut alap: Vec<i64> = (0..n).map(|v| horizon - latency[v]).collect();
        let mut alap_dist = vec![0i64; n];
        if let Some(w) = warm {
            let shift = horizon - w.horizon;
            for v in 0..n {
                let seeded = w.alap[v] + w.alap_dist[v] * delta + shift;
                if seeded < alap[v] {
                    alap[v] = seeded;
                    alap_dist[v] = w.alap_dist[v];
                }
            }
        }
        changed = true;
        rounds = 0;
        while changed {
            changed = false;
            rounds += 1;
            if rounds > n + 1 {
                return None;
            }
            for e in edges {
                let cand = alap[e.to] - e.lat + ii64 * e.dist;
                if cand < alap[e.from] {
                    alap[e.from] = cand;
                    alap_dist[e.from] = alap_dist[e.to] + e.dist;
                    changed = true;
                }
            }
        }
        Some(TimeAnalysis { ii, asap, alap, horizon, asap_dist, alap_dist })
    }

    /// The II this analysis was computed for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Earliest feasible start of `op` (a.k.a. depth).
    pub fn asap(&self, op: OpId) -> i64 {
        self.asap[op.index()]
    }

    /// Latest start of `op` that keeps the critical path.
    pub fn alap(&self, op: OpId) -> i64 {
        self.alap[op.index()]
    }

    /// Scheduling slack of `op`.
    pub fn mobility(&self, op: OpId) -> i64 {
        self.alap[op.index()] - self.asap[op.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loop_analysis::{op_latencies, timed_edges};
    use regpipe_ddg::{Ddg, DdgBuilder, OpKind};
    use regpipe_machine::MachineConfig;

    /// The analysis at `ii` from a cold start, with divergence detected by
    /// the fixpoint itself rather than against a cached RecMII.
    fn cold(g: &Ddg, machine: &MachineConfig, ii: u32) -> Option<TimeAnalysis> {
        let (edges, latency) = (timed_edges(g, machine), op_latencies(g, machine));
        TimeAnalysis::compute(g.num_ops(), &edges, &latency, ii, None)
    }

    #[test]
    fn chain_asap_accumulates_latencies() {
        let mut b = DdgBuilder::new("chain");
        let l = b.add_op(OpKind::Load, "l"); // lat 2
        let m = b.add_op(OpKind::Mul, "m"); // lat 4
        let s = b.add_op(OpKind::Store, "s");
        b.reg(l, m);
        b.reg(m, s);
        let g = b.build().unwrap();
        let machine = MachineConfig::p1l4();
        let t = cold(&g, &machine, 1).unwrap();
        assert_eq!(t.asap(l), 0);
        assert_eq!(t.asap(m), 2);
        assert_eq!(t.asap(s), 6);
        assert_eq!(t.mobility(l), 0, "single chain: no slack");
        assert_eq!(t.mobility(s), 0);
    }

    #[test]
    fn loop_carried_edge_relaxes_with_ii() {
        let mut b = DdgBuilder::new("lc");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Add, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 1);
        let g = b.build().unwrap();
        let machine = MachineConfig::p1l4();
        // RecMII = 8: at II 8 the back edge is tight but feasible.
        assert!(cold(&g, &machine, 8).is_some());
        assert!(cold(&g, &machine, 7).is_none(), "diverges below RecMII");
    }

    #[test]
    fn side_branch_has_mobility() {
        // l -> add -> st and l -> st (short branch has slack).
        let mut b = DdgBuilder::new("slack");
        let l = b.add_op(OpKind::Load, "l");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Copy, "c");
        let s = b.add_op(OpKind::Store, "s");
        b.reg(l, a);
        b.reg(l, c); // copy lat 1, parallel to add lat 4
        b.reg(a, s);
        b.reg(c, s);
        let g = b.build().unwrap();
        let machine = MachineConfig::p1l4();
        let t = cold(&g, &machine, 4).unwrap();
        assert_eq!(t.mobility(a), 0);
        assert_eq!(t.mobility(c), 3, "copy can slide by lat(add)-lat(copy)");
    }

    /// Warm-started analyses must be indistinguishable from cold ones: the
    /// ASAP/ALAP fixpoints are unique, so any valid seeding converges to
    /// exactly the cold-start values.
    #[test]
    fn warm_start_matches_cold_start() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let machine = MachineConfig::p2l4();
        for case in 0..60 {
            let n = rng.random_range(2..16usize);
            let mut b = DdgBuilder::new(format!("w{case}"));
            let kinds = [OpKind::Load, OpKind::Add, OpKind::Mul, OpKind::Copy, OpKind::Div];
            let ops: Vec<_> = (0..n)
                .map(|i| b.add_op(kinds[rng.random_range(0..kinds.len())], format!("n{i}")))
                .collect();
            for _ in 0..rng.random_range(1..3 * n) {
                let f = ops[rng.random_range(0..n)];
                let t = ops[rng.random_range(0..n)];
                if t > f {
                    b.reg_dist(f, t, rng.random_range(0..3u32));
                } else if t < f {
                    b.reg_dist(f, t, rng.random_range(1..4u32));
                }
            }
            let Ok(g) = b.build() else { continue };
            let edges = timed_edges(&g, &machine);
            let latency = op_latencies(&g, &machine);
            let lo = crate::rec_mii(&g, &machine);
            let mut prev: Option<TimeAnalysis> = None;
            for ii in lo..lo + 6 {
                let cold = cold(&g, &machine, ii).expect("feasible at ii >= RecMII");
                let warm = TimeAnalysis::compute(n, &edges, &latency, ii, prev.as_ref())
                    .expect("warm start stays feasible");
                assert_eq!(warm.asap, cold.asap, "case {case} ii {ii}: asap\n{g}");
                assert_eq!(warm.alap, cold.alap, "case {case} ii {ii}: alap\n{g}");
                assert_eq!(warm.horizon, cold.horizon, "case {case} ii {ii}: horizon");
                prev = Some(warm);
            }
        }
    }
}
