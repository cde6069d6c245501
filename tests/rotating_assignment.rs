//! Legality of the rotating-register assignments `compile` returns.
//!
//! Instance k of a lifetime `[s, e)` with rotating offset ρ lives in
//! register `(ρ + k) mod r` during `[s + k·II, e + k·II)`. Lifetimes i and
//! j clash exactly when some d ≡ ρ_i − ρ_j (mod r) makes `[s_i, e_i)` meet
//! `[s_j + d·II, e_j + d·II)`, with d ≠ 0 when i = j (two instances of one
//! lifetime). [`clash`] decides that per pair in closed form, so the check
//! runs in debug builds on 256-op kernels, whose steady state spans
//! thousands of cycles. On small loops it is checked against a
//! cycle-by-cycle simulation of the register file, also on assignments
//! with one ρ shifted by one.

use regpipe::core::{CompiledLoop, LoopRow, Strategy};
use regpipe::loops::{generate, suite, GenParams};
use regpipe::machine::MachineConfig;
use regpipe::prelude::*;

/// One lifetime on the rotating file: live during `[start, end)`, its
/// instance k in register `(rho + k) mod r`.
#[derive(Clone, Copy, Debug)]
struct Arc {
    start: i64,
    end: i64,
    rho: i64,
}

/// Whether an instance of `a` and an instance of `b` (two instances of one
/// lifetime when `same`) ever hold one of r registers at the same cycle.
fn clash(a: Arc, b: Arc, same: bool, ii: i64, r: i64) -> bool {
    // [a.start, a.end) meets [b.start + d·II, b.end + d·II) iff
    // a.start − b.end < d·II < a.end − b.start.
    let lo = (a.start - b.end).div_euclid(ii) + 1;
    let hi = (a.end - b.start - 1).div_euclid(ii);
    // The first such d that puts both in one register; d = 0 is an
    // instance meeting itself.
    let mut d = lo + (a.rho - b.rho - lo).rem_euclid(r);
    if same && d == 0 {
        d += r;
    }
    d <= hi
}

/// Whether any two lifetimes of `arcs`, or two instances of one, clash.
fn any_clash(arcs: &[Arc], ii: i64, r: i64) -> Option<(usize, usize)> {
    (0..arcs.len())
        .flat_map(|i| (i..arcs.len()).map(move |j| (i, j)))
        .find(|&(i, j)| clash(arcs[i], arcs[j], i == j, ii, r))
}

/// The register file run cycle by cycle over `[min start, max end)`, where
/// every clash shows up once shifted by whole IIs: whether two distinct
/// live instances ever share a register.
fn simulated_clash(arcs: &[Arc], ii: i64, r: i64) -> bool {
    let first = arcs.iter().map(|a| a.start).min().unwrap_or(0);
    let last = arcs.iter().map(|a| a.end).max().unwrap_or(0);
    (first..last).any(|t| {
        let mut owner: Vec<Option<(usize, i64)>> = vec![None; r as usize];
        for (i, a) in arcs.iter().enumerate() {
            // Instance k is live at t iff start + k·II <= t < end + k·II.
            for k in (t - a.end).div_euclid(ii) + 1..=(t - a.start).div_euclid(ii) {
                let reg = &mut owner[(a.rho + k).rem_euclid(r) as usize];
                if reg.is_some_and(|o| o != (i, k)) {
                    return true;
                }
                *reg = Some((i, k));
            }
        }
        false
    })
}

/// The arcs of `c`'s final allocation, with its II and rotating registers.
fn arcs_of(c: &CompiledLoop, cell: &str) -> (Vec<Arc>, i64, i64) {
    let analysis = LifetimeAnalysis::new(c.ddg(), c.schedule());
    let r = i64::from(c.allocation().variant_regs());
    let arcs = analysis
        .lifetimes()
        .map(|lt| {
            let rho = c.allocation().register(lt.producer());
            let rho = i64::from(rho.unwrap_or_else(|| panic!("{cell}: no register")));
            assert!(rho < r, "{cell}: {} in register {rho} of {r}", lt.producer());
            Arc { start: lt.start(), end: lt.end(), rho }
        })
        .collect();
    (arcs, i64::from(c.ii()), r)
}

fn assert_legal(c: &CompiledLoop, cell: &str) {
    let (arcs, ii, r) = arcs_of(c, cell);
    if let Some((i, j)) = any_clash(&arcs, ii, r) {
        panic!("{cell}: {:?} and {:?} clash at II {ii} on {r} registers", arcs[i], arcs[j]);
    }
}

/// Compiles every `budgets × strategies` cell of each loop on P2L4 and
/// hands the fitted ones to `check`; returns how many fitted.
fn for_each_fit(
    loops: &[Ddg],
    budgets: &[u32],
    strategies: &[Strategy],
    mut check: impl FnMut(&CompiledLoop, &str),
) -> usize {
    let machine = MachineConfig::p2l4();
    let options = CompileOptions::default();
    let mut fitted = 0;
    for g in loops {
        let mut row = LoopRow::new(&options.scheduler, g, &machine, options.spill);
        for &regs in budgets {
            for &strategy in strategies {
                if let Ok(c) = row.compile(regs, strategy) {
                    check(&c, &format!("{} at {regs} regs, {strategy:?}", g.name()));
                    fitted += 1;
                }
            }
        }
    }
    fitted
}

/// Every final allocation on the 256-op spill path (four kernels at 64 and
/// 32 registers under best-of-all and spill) and on 300 suite loops at 16
/// registers is legal.
#[test]
fn final_allocations_never_clash() {
    let big = GenParams { min_ops: 256, max_ops: 256, ..GenParams::default() };
    let kernels: Vec<Ddg> =
        generate(49626, 4, &big).unwrap().into_iter().map(|l| l.ddg).collect();
    let both = [Strategy::BestOfAll, Strategy::Spill];
    assert_eq!(for_each_fit(&kernels, &[64, 32], &both, assert_legal), 16);

    let loops: Vec<Ddg> = suite(49626, 300).into_iter().map(|l| l.ddg).collect();
    let all = [Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi];
    let fitted = for_each_fit(&loops, &[16], &all, assert_legal);
    assert!(fitted >= 600, "only {fitted} of 900 suite cells fit 16 registers");
}

/// On small loops the closed form agrees with the simulated register file,
/// on each final allocation and on every variant of it with one ρ shifted
/// by one, and many of those shifts clash.
#[test]
fn closed_form_matches_the_simulated_register_file() {
    let loops: Vec<Ddg> = suite(49626, 120).into_iter().map(|l| l.ddg).collect();
    let (mut shifted, mut clashing) = (0, 0);
    for_each_fit(&loops, &[16], &[Strategy::BestOfAll], |c, cell| {
        let (mut arcs, ii, r) = arcs_of(c, cell);
        assert!(!simulated_clash(&arcs, ii, r), "{cell}: the simulation finds a clash");
        assert_eq!(any_clash(&arcs, ii, r), None, "{cell}");
        for i in 0..arcs.len() {
            let rho = arcs[i].rho;
            arcs[i].rho = (rho + 1) % r;
            let simulated = simulated_clash(&arcs, ii, r);
            assert_eq!(
                any_clash(&arcs, ii, r).is_some(),
                simulated,
                "{cell}, lifetime {i} shifted"
            );
            shifted += 1;
            clashing += usize::from(simulated);
            arcs[i].rho = rho;
        }
    });
    assert!(3 * clashing >= shifted, "only {clashing} of {shifted} shifted assignments clash");
}
