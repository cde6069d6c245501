//! Loops, machines and the circuit enumeration shared by the reference
//! checks of the scheduler's modules.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regpipe_core::{compile, CompileOptions, Strategy};
use regpipe_ddg::{Ddg, DdgBuilder, OpId, OpKind};
use regpipe_machine::MachineConfig;

use crate::edge_latency;
use crate::groups::ComplexGroups;

/// A random loop of up to 23 ops of mixed kinds and random edges, the
/// loop-carried ones free to run backwards. With `bonds`, some
/// neighbouring ops are then bonded into complex-operation chains.
/// `None` when the draw is not a valid loop.
pub(crate) fn random_graph(rng: &mut StdRng, case: usize, bonds: bool) -> Option<Ddg> {
    let n = rng.random_range(2..24usize);
    let mut b = DdgBuilder::new(format!("s{case}"));
    let kinds =
        [OpKind::Load, OpKind::Store, OpKind::Add, OpKind::Mul, OpKind::Copy, OpKind::Div];
    let ops: Vec<(OpId, OpKind)> = (0..n)
        .map(|i| {
            let kind = kinds[rng.random_range(0..kinds.len())];
            (b.add_op(kind, format!("n{i}")), kind)
        })
        .collect();
    for _ in 0..rng.random_range(0..2 * n) {
        let (f, f_kind) = ops[rng.random_range(0..n)];
        let t = ops[rng.random_range(0..n)].0;
        if f == t {
            continue;
        }
        let dist = if t > f { rng.random_range(0..3u32) } else { rng.random_range(1..3u32) };
        if f_kind == OpKind::Store {
            b.mem(f, t, dist.max(if t > f { 0 } else { 1 }));
        } else {
            b.reg_dist(f, t, dist);
        }
    }
    if bonds {
        for pair in ops.windows(2) {
            if pair[0].1 != OpKind::Store && rng.random_range(0..3u32) == 0 {
                b.bond(pair[0].0, pair[1].0);
            }
        }
    }
    b.build().ok()
}

/// The loops the reference checks run on, each on P1L4, P2L4 and P2L6:
/// `suite(49626, 300)`, `generate(7, 200)`, four 256-op kernels (IIs
/// past 300, so MRT rows of several words) and the valid draws of 300
/// random graphs with bonded groups.
pub(crate) fn reference_corpus() -> Vec<Ddg> {
    use regpipe_loops::{generate, suite, GenParams};
    let big = GenParams { min_ops: 256, max_ops: 256, ..GenParams::default() };
    let mut loops: Vec<Ddg> = suite(49626, 300)
        .into_iter()
        .chain(generate(7, 200, &GenParams::default()).unwrap())
        .chain(generate(49626, 4, &big).unwrap())
        .map(|l| l.ddg)
        .collect();
    let mut rng = StdRng::seed_from_u64(42);
    let mut bonded = 0;
    for case in 0..300 {
        let Some(g) = random_graph(&mut rng, case, true) else { continue };
        bonded +=
            usize::from(ComplexGroups::new(&g, &MachineConfig::p1l4()).len() < g.num_ops());
        loops.push(g);
    }
    assert!(bonded >= 100, "only {bonded} random graphs have a bonded group");
    loops
}

pub(crate) fn paper_machines() -> [MachineConfig; 3] {
    [MachineConfig::p1l4(), MachineConfig::p2l4(), MachineConfig::p2l6()]
}

/// The final graphs `compile(.., Strategy::Spill)` makes from each of
/// `loops` on `machine` at each of `budgets` where it adds spill code:
/// loops with bonded groups (a spill store is bonded to its producer, a
/// reload to its consumer).
pub(crate) fn spill_rewrites(
    loops: &[Ddg],
    machine: &MachineConfig,
    budgets: &[u32],
) -> Vec<Ddg> {
    let options = CompileOptions { strategy: Strategy::Spill, ..CompileOptions::default() };
    let mut rewrites = Vec::new();
    for g in loops {
        for &regs in budgets {
            if let Ok(compiled) = compile(g, machine, regs, &options) {
                if compiled.spilled() > 0 {
                    rewrites.push(compiled.ddg().clone());
                }
            }
        }
    }
    rewrites
}

/// An elementary circuit of a loop's dependence graph: its ops in
/// traversal order (the closing edge runs from the last back to the
/// first), and the latency and distance summed around it.
#[derive(PartialEq, Eq, Debug)]
pub(crate) struct Circuit {
    pub ops: Vec<OpId>,
    pub latency: i64,
    pub distance: i64,
}

impl Circuit {
    /// The least II at which the circuit is not over-constrained,
    /// `⌈latency / distance⌉` and at least 1 (paper Section 2.2).
    pub(crate) fn bound(&self) -> u32 {
        let b = (self.latency + self.distance - 1).div_euclid(self.distance);
        u32::try_from(b.max(1)).unwrap()
    }
}

/// Johnson's elementary-circuit enumeration (SIAM J. Comput., 1975), the
/// reference the recurrence bounds are checked against: it lists every
/// circuit, where `rec_mii` and `LoopAnalysis` search for the least
/// feasible II, and shares no code with either. Of parallel edges it
/// keeps each one that no other dominates (one with at least its latency
/// at no more distance bounds the II at least as tightly), so the largest
/// [`Circuit::bound`] is exact. `None` once `cap` circuits are found
/// (some graphs have exponentially many).
pub(crate) fn elementary_circuits(
    ddg: &Ddg,
    machine: &MachineConfig,
    cap: usize,
) -> Option<Vec<Circuit>> {
    let n = ddg.num_ops();
    // Per op, the undominated edges out of it as (to, latency, distance).
    let mut adj: Vec<Vec<(usize, i64, i64)>> = vec![Vec::new(); n];
    for e in ddg.edges() {
        let (to, lat, dist) =
            (e.to().index(), edge_latency(machine, ddg, e), i64::from(e.distance()));
        let out = &mut adj[e.from().index()];
        if out.iter().any(|&(w, l, d)| w == to && l >= lat && d <= dist) {
            continue;
        }
        out.retain(|&(w, l, d)| !(w == to && l <= lat && d >= dist));
        out.push((to, lat, dist));
    }
    for out in &mut adj {
        out.sort_unstable();
    }

    struct Search<'a> {
        adj: &'a [Vec<(usize, i64, i64)>],
        blocked: Vec<bool>,
        block_map: Vec<Vec<usize>>,
        /// The path from the root: each op with the edge taken out of it.
        stack: Vec<(usize, i64, i64)>,
        out: Vec<Circuit>,
        cap: usize,
    }

    impl Search<'_> {
        fn unblock(&mut self, v: usize) {
            self.blocked[v] = false;
            for w in std::mem::take(&mut self.block_map[v]) {
                if self.blocked[w] {
                    self.unblock(w);
                }
            }
        }

        /// Extends the path at `v` through ops no smaller than the root
        /// `s`; whether it closed a circuit.
        fn circuit(&mut self, v: usize, s: usize) -> bool {
            let (adj, mut found) = (self.adj, false);
            self.blocked[v] = true;
            for &(w, lat, dist) in &adj[v] {
                if w < s || self.out.len() >= self.cap {
                    continue;
                }
                self.stack.push((v, lat, dist));
                if w == s {
                    self.out.push(Circuit {
                        ops: self.stack.iter().map(|&(x, ..)| OpId::new(x)).collect(),
                        latency: self.stack.iter().map(|&(_, l, _)| l).sum(),
                        distance: self.stack.iter().map(|&(.., d)| d).sum(),
                    });
                    found = true;
                } else if !self.blocked[w] {
                    found |= self.circuit(w, s);
                }
                self.stack.pop();
            }
            if found {
                self.unblock(v);
            } else {
                for &(w, ..) in &adj[v] {
                    if w >= s && !self.block_map[w].contains(&v) {
                        self.block_map[w].push(v);
                    }
                }
            }
            found
        }
    }

    let mut search = Search {
        adj: &adj,
        blocked: vec![false; n],
        block_map: vec![Vec::new(); n],
        stack: Vec::new(),
        out: Vec::new(),
        cap,
    };
    for s in 0..n {
        search.blocked.fill(false);
        search.block_map.iter_mut().for_each(Vec::clear);
        search.circuit(s, s);
        if search.out.len() >= cap {
            return None;
        }
    }
    Some(search.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The circuits of `b`'s loop on P1L4 (add latency 4), at most `cap`.
    fn circuits(b: DdgBuilder, cap: usize) -> Option<Vec<Circuit>> {
        elementary_circuits(&b.build().unwrap(), &MachineConfig::p1l4(), cap)
    }

    #[test]
    fn dag_has_no_circuits() {
        let mut b = DdgBuilder::new("dag");
        let x = b.add_op(OpKind::Add, "x");
        let y = b.add_op(OpKind::Add, "y");
        b.reg(x, y);
        assert_eq!(circuits(b, 100).unwrap(), vec![]);
    }

    #[test]
    fn simple_recurrence_yields_one_circuit() {
        let mut b = DdgBuilder::new("rec");
        let x = b.add_op(OpKind::Add, "x");
        let y = b.add_op(OpKind::Add, "y");
        b.reg(x, y);
        b.reg_dist(y, x, 2);
        let cs = circuits(b, 100).unwrap();
        assert_eq!(cs, vec![Circuit { ops: vec![x, y], latency: 8, distance: 2 }]);
        assert_eq!(cs[0].bound(), 4);
    }

    #[test]
    fn self_loop_is_a_circuit() {
        let mut b = DdgBuilder::new("self");
        let x = b.add_op(OpKind::Add, "x");
        b.reg_dist(x, x, 3);
        let cs = circuits(b, 100).unwrap();
        assert_eq!(cs, vec![Circuit { ops: vec![x], latency: 4, distance: 3 }]);
        assert_eq!(cs[0].bound(), 2);
    }

    #[test]
    fn two_nested_circuits_found() {
        // x -> y -> x (dist 1) and x -> y -> z -> x (dist 2).
        let mut b = DdgBuilder::new("nested");
        let x = b.add_op(OpKind::Add, "x");
        let y = b.add_op(OpKind::Add, "y");
        let z = b.add_op(OpKind::Add, "z");
        b.reg(x, y);
        b.reg_dist(y, x, 1);
        b.reg(y, z);
        b.reg_dist(z, x, 2);
        let cs = circuits(b, 100).unwrap();
        let mut found: Vec<(usize, i64)> =
            cs.iter().map(|c| (c.ops.len(), c.distance)).collect();
        found.sort_unstable();
        assert_eq!(found, vec![(2, 1), (3, 2)]);
    }

    #[test]
    fn cap_is_respected() {
        // The complete digraph on 6 nodes has 409 elementary circuits.
        let mut b = DdgBuilder::new("k6");
        let vs: Vec<_> = (0..6).map(|i| b.add_op(OpKind::Add, format!("v{i}"))).collect();
        for &u in &vs {
            for &v in &vs {
                if u != v {
                    b.reg_dist(u, v, 1);
                }
            }
        }
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        assert!(elementary_circuits(&g, &m, 10).is_none());
        assert!(elementary_circuits(&g, &m, 409).is_none());
        assert_eq!(elementary_circuits(&g, &m, 410).unwrap().len(), 409);
    }

    #[test]
    fn parallel_edges_keep_min_distance() {
        let mut b = DdgBuilder::new("par");
        let x = b.add_op(OpKind::Add, "x");
        let y = b.add_op(OpKind::Add, "y");
        b.reg(x, y);
        b.reg_dist(y, x, 5);
        b.reg_dist(y, x, 2); // tighter
        b.order(y, x, 3); // dominated: no latency, more distance
        b.order(y, x, 1); // less latency but less distance: its own circuit
        let cs = circuits(b, 100).unwrap();
        let mut found: Vec<(i64, i64)> = cs.iter().map(|c| (c.latency, c.distance)).collect();
        found.sort_unstable();
        assert_eq!(found, vec![(4, 1), (8, 2)]);
    }
}
