//! Loops and machines shared by the reference checks of the scheduler's
//! modules.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regpipe_core::{compile, CompileOptions, Strategy};
use regpipe_ddg::{Ddg, DdgBuilder, OpId, OpKind};
use regpipe_machine::MachineConfig;

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
