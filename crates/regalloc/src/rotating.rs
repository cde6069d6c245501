//! Register allocation on a rotating register file.

use std::fmt;

use regpipe_ddg::OpId;

use crate::lifetime::LifetimeAnalysis;

/// The outcome of register allocation for one schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AllocationResult {
    variant_regs: u32,
    invariant_regs: u32,
    max_live: u32,
    /// Rotating register index per operation (None for ops without a
    /// lifetime).
    assignment: Vec<Option<u32>>,
}

impl AllocationResult {
    /// Rotating registers needed by the loop variants.
    pub fn variant_regs(&self) -> u32 {
        self.variant_regs
    }

    /// Static registers needed by the live loop invariants (one each).
    pub fn invariant_regs(&self) -> u32 {
        self.invariant_regs
    }

    /// Total register requirement of the schedule.
    pub fn total(&self) -> u32 {
        self.variant_regs + self.invariant_regs
    }

    /// The `MaxLive` lower bound the allocator was working against
    /// (variants + invariants).
    pub fn max_live(&self) -> u32 {
        self.max_live
    }

    /// How far the allocation landed above `MaxLive`; 0 means optimal.
    /// `MaxLive` is only a lower bound, so a positive excess can overstate
    /// the gap to the fewest registers possible: on 105 of the 3,612 small
    /// HRMS schedules the allocator's tests solve exactly, no allocation
    /// reaches `MaxLive`.
    pub fn excess(&self) -> u32 {
        self.total() - self.max_live
    }

    /// The rotating register assigned to the value defined by `op`.
    pub fn register(&self, op: OpId) -> Option<u32> {
        self.assignment.get(op.index()).copied().flatten()
    }
}

impl fmt::Display for AllocationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} regs ({} rotating + {} invariant; MaxLive {})",
            self.total(),
            self.variant_regs,
            self.invariant_regs,
            self.max_live
        )
    }
}

/// Allocator for rotating register files (the hardware model the paper
/// assumes, Section 2.3).
///
/// A rotating file renames registers every II cycles, so a lifetime longer
/// than the II occupies several consecutive rotating registers — one per
/// concurrently live instance. Put instance k of a lifetime `[s, e)` in
/// register `(ρ + k) mod r`. Register q at cycle t then holds whichever
/// lifetime covers the point `(t − q·II) mod r·II` of a circle of length
/// `r·II`, and every instance of the lifetime maps to the one arc
/// `[s − ρ·II, e − ρ·II)`. Two lifetimes clash exactly when their arcs
/// overlap, so an allocation is a packing of disjoint arcs whose starts are
/// fixed modulo II.
///
/// The allocator packs the arcs with an end-fit chain. It places one
/// lifetime at its own start, then repeatedly takes the unplaced lifetime
/// whose start comes soonest, modulo II, at or after the current end
/// (longest first, then adjacency order) and places it there. The chain's
/// span in whole IIs is r. The chain runs from the longest lifetime, and
/// then, while r stays above `MaxLive` (of the loop variants), from every
/// other lifetime in adjacency (start-time) order; the smallest r wins.
/// Only if the best chain ends above `MaxLive` does the allocator try
/// Rau et al.'s first-fit placement ("Register allocation for software
/// pipelined loops") at r = `MaxLive`, …, r_chain − 1, so it never needs
/// more registers than first-fit alone. The chain's work and memory are
/// bounded by the number of lifetimes, never by II or r; only the
/// fallback keeps a set of r bits.
///
/// On unconstrained HRMS schedules of the built-in 1258-loop suite (P2L4)
/// every loop allocates `MaxLive` or `MaxLive + 1` registers, 156 above
/// `MaxLive` in total (first-fit alone: 1,786), and the twelve 256-op
/// kernels of `gen --seed 49626 --count 12 --min-ops 256 --max-ops 256`
/// all land on `MaxLive`.
#[derive(Clone, Copy, Default, Debug)]
pub struct RotatingAllocator {
    _private: (),
}

impl RotatingAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        RotatingAllocator { _private: () }
    }

    /// Allocates registers for all lifetimes in `analysis`.
    pub fn allocate(&self, analysis: &LifetimeAnalysis) -> AllocationResult {
        let ii = i64::from(analysis.ii());
        let lifetimes = adjacency_order(analysis);
        let n_ops = analysis.lifetimes().map(|lt| lt.producer().index() + 1).max().unwrap_or(0);
        let floor = analysis.max_live_variants();

        let mut assignment: Vec<Option<u32>> = vec![None; n_ops];
        let mut variant_regs = 0;
        if !lifetimes.is_empty() {
            let (mut r, mut rho) = best_chain(&lifetimes, ii, floor);
            if let Some((r_ff, rho_ff)) =
                (floor..r).find_map(|r| try_allocate(&lifetimes, ii, r).map(|rho| (r, rho)))
            {
                (r, rho) = (r_ff, rho_ff);
            }
            for (&(_, _, op), rho) in lifetimes.iter().zip(rho) {
                assignment[op.index()] = Some(rho);
            }
            variant_regs = r;
        }
        AllocationResult {
            variant_regs,
            invariant_regs: analysis.live_invariants(),
            max_live: analysis.max_live(),
            assignment,
        }
    }
}

/// The lifetimes as `(start, end, producer)` in adjacency order: by start
/// cycle, longest first on ties so the big lifetimes grab compact runs
/// early.
fn adjacency_order(analysis: &LifetimeAnalysis) -> Vec<(i64, i64, OpId)> {
    let mut lifetimes: Vec<(i64, i64, OpId)> =
        analysis.lifetimes().map(|lt| (lt.start(), lt.end(), lt.producer())).collect();
    lifetimes.sort_by_key(|&(s, e, p)| (s, -(e - s), p));
    lifetimes
}

/// The end-fit chain with the fewest registers over the starts
/// [`RotatingAllocator`] tries: `(r, ρ per lifetime)`, for a non-empty
/// `lifetimes` in adjacency order. `floor` is `MaxLive`, where it stops.
fn best_chain(lifetimes: &[(i64, i64, OpId)], ii: i64, floor: u32) -> (u32, Vec<u32>) {
    let n = lifetimes.len();
    // The lifetimes by start residue, longest first, then in adjacency
    // order: the chain's choice at a residue is the first untaken entry
    // at or after it, found by binary search plus `next`.
    let mut by_residue: Vec<(i64, usize)> =
        lifetimes.iter().enumerate().map(|(i, &(s, _, _))| (s.rem_euclid(ii), i)).collect();
    by_residue.sort_by_key(|&(res, i)| (res, lifetimes[i].0 - lifetimes[i].1, i));
    let mut slot_of = vec![0; n];
    for (k, &(_, i)) in by_residue.iter().enumerate() {
        slot_of[i] = k;
    }
    // `next[k]` leads to the first untaken slot at or after k (n: none).
    let mut next = vec![0; n + 1];
    let (mut pos, mut best_pos) = (vec![0i64; n], vec![0i64; n]);

    // One chain from `first`, abandoned once it cannot beat `best` registers.
    let mut chain = |first: usize, best: u64, pos: &mut [i64]| -> Option<u64> {
        next.iter_mut().enumerate().for_each(|(k, nx)| *nx = k);
        next[slot_of[first]] = slot_of[first] + 1;
        let (origin, mut end) = (lifetimes[first].0, lifetimes[first].1);
        pos[first] = origin;
        for _ in 1..n {
            if span_regs(end - origin, ii) >= best {
                return None;
            }
            let q = end.rem_euclid(ii);
            let mut k = untaken(&mut next, by_residue.partition_point(|&(res, _)| res < q));
            if k == n {
                k = untaken(&mut next, 0);
            }
            next[k] = k + 1;
            let (s, e, _) = lifetimes[by_residue[k].1];
            let p = end + (s - end).rem_euclid(ii);
            pos[by_residue[k].1] = p;
            end = p + (e - s);
        }
        Some(span_regs(end - origin, ii)).filter(|&r| r < best)
    };

    // The longest lifetime, the first in adjacency order on ties.
    let longest = (0..n).min_by_key(|&i| (lifetimes[i].0 - lifetimes[i].1, i)).unwrap_or(0);
    let mut r = chain(longest, u64::MAX, &mut best_pos).unwrap_or(u64::MAX);
    for first in (0..n).filter(|&i| i != longest) {
        if r <= u64::from(floor) {
            break;
        }
        if let Some(better) = chain(first, r, &mut pos) {
            r = better;
            std::mem::swap(&mut pos, &mut best_pos);
        }
    }
    let rho = lifetimes
        .iter()
        .zip(&best_pos)
        .map(|(&(s, _, _), &p)| ((s - p) / ii).rem_euclid(r as i64) as u32)
        .collect();
    (u32::try_from(r).unwrap_or(u32::MAX), rho)
}

/// Registers a chain spanning `span` cycles needs: `⌈span / II⌉`.
fn span_regs(span: i64, ii: i64) -> u64 {
    (span + ii - 1).div_euclid(ii) as u64
}

/// The first untaken slot at or after `k`, compressing the path to it.
fn untaken(next: &mut [usize], k: usize) -> usize {
    let mut root = k;
    while next[root] != root {
        root = next[root];
    }
    let mut k = k;
    while next[k] != root {
        let up = next[k];
        next[k] = root;
        k = up;
    }
    root
}

/// One first-fit try: places the lifetimes (adjacency order) on an
/// `r`-register cylinder and returns the ρ of each on success.
fn try_allocate(lifetimes: &[(i64, i64, OpId)], ii: i64, r: u32) -> Option<Vec<u32>> {
    let r = i64::from(r);
    let mut rho_of: Vec<u32> = Vec::with_capacity(lifetimes.len());
    // (start, end, rho) of the lifetimes placed so far.
    let mut placed: Vec<(i64, i64, i64)> = Vec::with_capacity(lifetimes.len());
    // One bit per register the current lifetime may not take.
    let mut forbidden = vec![0u64; (r as usize).div_ceil(64)];

    for &(s_j, e_j, _) in lifetimes {
        let len_j = e_j - s_j;
        // Self-overlap: instance k and instance k+d share a register iff
        // d ≡ 0 (mod r); they overlap in time iff |d|·II < len. So we need
        // r ≥ ⌈len / II⌉.
        let needed = (len_j + ii - 1).div_euclid(ii);
        if needed > r {
            return None;
        }
        forbidden.fill(0);
        for &(s_i, e_i, rho_i) in &placed {
            // Instance j + d clashes with i iff rho_i ≡ rho_j + d (mod r),
            // so the overlapping offsets d_lo..=d_hi forbid the cyclic run
            // of registers rho_i − d_hi, …, rho_i − d_lo.
            let (d_lo, d_hi) = overlap_offsets((s_i, e_i), (s_j, e_j), ii);
            let run = d_hi - d_lo + 1;
            if run >= r {
                return None;
            }
            if run > 0 {
                mark_cyclic_run(&mut forbidden, (rho_i - d_hi).rem_euclid(r), run, r);
            }
        }
        let rho = first_clear(&forbidden, r)?;
        placed.push((s_j, e_j, rho));
        rho_of.push(rho as u32);
    }
    Some(rho_of)
}

/// The iteration offsets `d` at which lifetime `j`, shifted by `d·II`,
/// overlaps lifetime `i`: `[s_i, e_i)` and `[s_j + d·II, e_j + d·II)`
/// intersect iff `s_i − e_j < d·II < e_i − s_j`, that is for `d` in
/// `⌊(s_i − e_j)/II⌋ + 1 ..= ⌊(e_i − s_j − 1)/II⌋` (empty when `lo > hi`).
fn overlap_offsets((s_i, e_i): (i64, i64), (s_j, e_j): (i64, i64), ii: i64) -> (i64, i64) {
    ((s_i - e_j).div_euclid(ii) + 1, (e_i - s_j - 1).div_euclid(ii))
}

/// Sets the `len` bits `from, from + 1, …` of `bits`, wrapping at `r`
/// (`from < r`, `0 < len < r`).
fn mark_cyclic_run(bits: &mut [u64], from: i64, len: i64, r: i64) {
    let end = from + len;
    if end <= r {
        mark_run(bits, from as usize, end as usize);
    } else {
        mark_run(bits, from as usize, r as usize);
        mark_run(bits, 0, (end - r) as usize);
    }
}

/// Sets bits `lo..hi` of `bits`, a word at a time.
fn mark_run(bits: &mut [u64], lo: usize, hi: usize) {
    let mut i = lo;
    while i < hi {
        let (word, bit) = (i / 64, i % 64);
        let n = (hi - i).min(64 - bit);
        bits[word] |= (u64::MAX >> (64 - n)) << bit;
        i += n;
    }
}

/// The lowest register below `r` whose bit is clear, if any.
fn first_clear(bits: &[u64], r: i64) -> Option<i64> {
    let (word, w) = bits.iter().enumerate().find(|(_, &w)| w != u64::MAX)?;
    let c = (word * 64) as i64 + i64::from((!w).trailing_zeros());
    (c < r).then_some(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::LifetimeAnalysis;
    use regpipe_ddg::{Ddg, DdgBuilder, OpKind};
    use regpipe_sched::{Schedule, SchedulerKind};
    use std::sync::OnceLock;

    fn analyse(g: &Ddg, s: &Schedule) -> LifetimeAnalysis {
        LifetimeAnalysis::new(g, s)
    }

    /// Brute-force validity check: simulate the steady state over enough
    /// iterations and assert no two live instances share a register.
    fn assert_valid(analysis: &LifetimeAnalysis, result: &AllocationResult) {
        let ii = i64::from(analysis.ii());
        let r = i64::from(result.variant_regs());
        if r == 0 {
            return;
        }
        let lts: Vec<_> = analysis.lifetimes().collect();
        let horizon = lts.iter().map(|lt| lt.end()).max().unwrap_or(0) + 4 * ii;
        let span = 8; // iterations around steady state
                      // The cycle at which each register was last claimed, and by whom.
        let mut claimed: Vec<Option<(i64, OpId)>> = vec![None; r as usize];
        for t in -span * ii..horizon + span * ii {
            for lt in &lts {
                let rho = i64::from(result.register(lt.producer()).unwrap());
                // Instance k live at t iff start + k·II <= t < end + k·II.
                let k_hi = (t - lt.start()).div_euclid(ii);
                let k_lo = (t - lt.end()).div_euclid(ii) + 1;
                for k in k_lo..=k_hi {
                    if lt.start() + k * ii <= t && t < lt.end() + k * ii {
                        let phys = (rho + k).rem_euclid(r);
                        let slot = &mut claimed[phys as usize];
                        assert!(
                            !matches!(*slot, Some((at, o)) if at == t && o != lt.producer()),
                            "register clash at t={t} phys={phys} for {}",
                            lt.producer()
                        );
                        *slot = Some((t, lt.producer()));
                    }
                }
            }
        }
    }

    /// The allocator this one replaced: first-fit tried at r = `MaxLive`,
    /// `MaxLive + 1`, … until every lifetime fits. Returns that r.
    fn first_fit(analysis: &LifetimeAnalysis) -> u32 {
        let lifetimes = adjacency_order(analysis);
        if lifetimes.is_empty() {
            return 0;
        }
        let ii = i64::from(analysis.ii());
        (analysis.max_live_variants()..)
            .find(|&r| try_allocate(&lifetimes, ii, r).is_some())
            .unwrap()
    }

    /// The fewest rotating registers any allocation of `analysis` needs,
    /// by branch and bound over the arc packing: the longest lifetime is
    /// fixed at ρ = 0 and r = `MaxLive`, `MaxLive + 1`, … is tried below
    /// `upper`, the r of a known allocation. `None` when a try spends `cap`
    /// nodes without an answer.
    fn exact_regs(analysis: &LifetimeAnalysis, upper: u32, cap: u64) -> Option<u32> {
        let mut lts: Vec<(i64, i64)> =
            analysis.lifetimes().map(|lt| (lt.start(), lt.end())).collect();
        lts.sort_by_key(|&(s, e)| (s - e, s));
        let ii = i64::from(analysis.ii());
        for r in analysis.max_live_variants()..upper {
            if place(&lts, ii, i64::from(r), &mut vec![0], &mut 0, cap)? {
                return Some(r);
            }
        }
        Some(upper)
    }

    /// Extends `rho`, the ρ of `lts[..rho.len()]`, to every lifetime on an
    /// r-register file: `Some(true)` if an extension fits, `Some(false)` if
    /// none does, `None` once `nodes` passes `cap`.
    fn place(
        lts: &[(i64, i64)],
        ii: i64,
        r: i64,
        rho: &mut Vec<i64>,
        nodes: &mut u64,
        cap: u64,
    ) -> Option<bool> {
        let k = rho.len();
        if k == lts.len() {
            return Some(true);
        }
        for c in 0..r {
            *nodes += 1;
            if *nodes > cap {
                return None;
            }
            // Instance d of lifetime k clashes with lifetime i iff
            // ρ_i ≡ c + d (mod r) for an overlapping offset d.
            let free = (0..k).all(|i| {
                let (lo, hi) = overlap_offsets(lts[i], lts[k], ii);
                hi < lo || (hi - lo + 1 < r && (rho[i] - c - lo).rem_euclid(r) > hi - lo)
            });
            if free {
                rho.push(c);
                if place(lts, ii, r, rho, nodes, cap)? {
                    return Some(true);
                }
                rho.pop();
            }
        }
        Some(false)
    }

    /// The allocator's test corpus: HRMS and SMS schedules of the built-in
    /// suite's first 300 loops, `generate(7, 200)` and four 256-op kernels
    /// on every paper machine, with the II search started at MII, MII + 1
    /// and MII + 3. Built once and shared by the tests that read it.
    fn corpus() -> &'static [(String, SchedulerKind, LifetimeAnalysis)] {
        use regpipe_loops::{generate, suite, GenParams};
        use regpipe_machine::MachineConfig;
        use regpipe_sched::{mii, SchedRequest, Scheduler};
        static CORPUS: OnceLock<Vec<(String, SchedulerKind, LifetimeAnalysis)>> =
            OnceLock::new();
        CORPUS.get_or_init(|| {
            let big = GenParams { min_ops: 256, max_ops: 256, ..GenParams::default() };
            let loops: Vec<_> = suite(49626, 300)
                .into_iter()
                .chain(generate(7, 200, &GenParams::default()).unwrap())
                .chain(generate(49626, 4, &big).unwrap())
                .collect();
            let machines =
                [MachineConfig::p1l4(), MachineConfig::p2l4(), MachineConfig::p2l6()];
            let mut out = Vec::new();
            for l in &loops {
                for m in &machines {
                    for kind in [SchedulerKind::Hrms, SchedulerKind::Sms] {
                        for extra in [0, 1, 3] {
                            let request = SchedRequest::starting_at(mii(&l.ddg, m) + extra);
                            let s = kind.schedule(&l.ddg, m, &request).unwrap();
                            let name =
                                format!("{} on {m} under {kind:?} from MII+{extra}", l.name);
                            out.push((name, kind, analyse(&l.ddg, &s)));
                        }
                    }
                }
            }
            out
        })
    }

    #[test]
    fn closed_form_offsets_match_the_per_offset_scan() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2026);
        for case in 0..100_000 {
            let ii = rng.random_range(1..9i64);
            let lifetime = |rng: &mut StdRng| {
                let s = rng.random_range(-300..300i64);
                (s, s + rng.random_range(0..=50 * ii))
            };
            let (i, j) = (lifetime(&mut rng), lifetime(&mut rng));
            let (lo, hi) = overlap_offsets(i, j, ii);
            let reach = (i.1 - i.0) + (j.1 - j.0) + (i.0 - j.0).abs();
            let scanned: Vec<i64> = (-reach / ii - 2..=reach / ii + 2)
                .filter(|&d| i.0 < j.1 + d * ii && j.0 + d * ii < i.1)
                .collect();
            assert_eq!(
                scanned,
                (lo..=hi).collect::<Vec<_>>(),
                "case {case}: {i:?} {j:?} II {ii}"
            );
        }
    }

    /// Every allocation of the corpus is legal, at or above `MaxLive`,
    /// and never above first-fit's.
    #[test]
    fn allocations_are_legal_and_never_above_first_fit() {
        let (mut total, mut reference) = (0, 0);
        for (name, _, analysis) in corpus() {
            let res = RotatingAllocator::new().allocate(analysis);
            assert_valid(analysis, &res);
            let ff = first_fit(analysis);
            assert!(analysis.max_live_variants() <= res.variant_regs(), "{name}");
            assert!(
                res.variant_regs() <= ff,
                "{name}: {} > first-fit {ff}",
                res.variant_regs()
            );
            total += res.variant_regs();
            reference += ff;
        }
        println!("{} schedules: {total} registers (first-fit {reference})", corpus().len());
    }

    /// gen_00184 is a schedule where every chain needs a register more
    /// than first-fit, so the allocator must take the fallback.
    #[test]
    fn the_first_fit_fallback_beats_the_chain_on_gen_00184() {
        use regpipe_loops::{generate, GenParams};
        use regpipe_machine::MachineConfig;
        use regpipe_sched::{SchedRequest, Scheduler};
        let l = generate(7, 200, &GenParams::default()).unwrap().swap_remove(184);
        assert_eq!(l.name, "gen_00184");
        let s = SchedulerKind::Hrms
            .schedule(&l.ddg, &MachineConfig::p1l4(), &SchedRequest::default())
            .unwrap();
        let analysis = analyse(&l.ddg, &s);
        assert_eq!((analysis.lifetimes().count(), analysis.max_live_variants()), (6, 5));
        let ii = i64::from(analysis.ii());
        assert_eq!(best_chain(&adjacency_order(&analysis), ii, 5).0, 6);
        assert_eq!(first_fit(&analysis), 5);
        let res = RotatingAllocator::new().allocate(&analysis);
        assert_eq!(res.variant_regs(), 5);
        assert_valid(&analysis, &res);
        assert_eq!(exact_regs(&analysis, 6, 1_000), Some(5));
    }

    /// Against the exact minimum on every HRMS schedule of the corpus with
    /// at most 12 lifetimes: `MaxLive ≤ exact ≤ allocator ≤ first-fit`.
    #[test]
    fn allocations_are_bounded_by_the_exact_minimum() {
        let (mut proven, mut capped, mut on_exact, mut above_max_live) = (0, 0, 0, 0);
        for (name, kind, analysis) in corpus() {
            if *kind != SchedulerKind::Hrms || analysis.lifetimes().count() > 12 {
                continue;
            }
            let regs = RotatingAllocator::new().allocate(analysis).variant_regs();
            assert!(regs <= first_fit(analysis), "{name}");
            let Some(exact) = exact_regs(analysis, regs, 100_000) else {
                capped += 1;
                continue;
            };
            assert!(analysis.max_live_variants() <= exact && exact <= regs, "{name}");
            proven += 1;
            on_exact += u32::from(exact == regs);
            above_max_live += u32::from(exact > analysis.max_live_variants());
        }
        println!(
            "{proven} proven ({on_exact} allocated at the minimum, {above_max_live} with the \
             minimum above MaxLive), {capped} capped"
        );
        assert!(proven > 1_000, "{proven} proven");
    }

    #[test]
    fn fig2_allocation_achieves_maxlive() {
        let mut b = DdgBuilder::new("fig2");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg_dist(ld, add, 3);
        b.reg(mul, add);
        b.reg(add, st);
        let g = b.build().unwrap();
        let s = Schedule::new(1, vec![0, 2, 4, 6]);
        let analysis = analyse(&g, &s);
        let res = RotatingAllocator::new().allocate(&analysis);
        assert_eq!(res.max_live(), 11);
        assert!(res.total() <= 12, "MaxLive + 1 at worst, got {}", res.total());
        assert_valid(&analysis, &res);
    }

    #[test]
    fn empty_loop_needs_no_registers() {
        let mut b = DdgBuilder::new("stores");
        b.add_op(OpKind::Store, "s1");
        let g = b.build().unwrap();
        let s = Schedule::new(1, vec![0]);
        let res = RotatingAllocator::new().allocate(&analyse(&g, &s));
        assert_eq!(res.total(), 0);
        assert_eq!(res.excess(), 0);
    }

    #[test]
    fn long_self_overlapping_lifetime_needs_multiple_registers() {
        let mut b = DdgBuilder::new("long");
        let p = b.add_op(OpKind::Load, "p");
        let c = b.add_op(OpKind::Copy, "c");
        b.reg_dist(p, c, 4);
        let g = b.build().unwrap();
        // p@0, c@1, distance 4, II=2: lifetime [0, 9) -> 5 instances.
        let s = Schedule::from_fixed(2, &[(p, 0), (c, 1)]);
        let analysis = analyse(&g, &s);
        let res = RotatingAllocator::new().allocate(&analysis);
        assert_eq!(res.variant_regs(), 5);
        assert_valid(&analysis, &res);
    }

    #[test]
    fn disjoint_lifetimes_share_a_register() {
        let mut b = DdgBuilder::new("disjoint");
        let p1 = b.add_op(OpKind::Add, "p1");
        let c1 = b.add_op(OpKind::Copy, "c1");
        let p2 = b.add_op(OpKind::Add, "p2");
        let c2 = b.add_op(OpKind::Copy, "c2");
        b.reg(p1, c1);
        b.reg(p2, c2);
        let g = b.build().unwrap();
        // [0,2) and [2,4) at II=4: no overlap anywhere, ever — one rotating
        // register carries both values back to back.
        let s = Schedule::from_fixed(4, &[(p1, 0), (c1, 2), (p2, 2), (c2, 4)]);
        let analysis = analyse(&g, &s);
        assert_eq!(analysis.max_live_variants(), 1);
        let res = RotatingAllocator::new().allocate(&analysis);
        assert_eq!(res.variant_regs(), 1);
        assert_valid(&analysis, &res);
    }

    #[test]
    fn allocation_is_never_below_maxlive() {
        let mut b = DdgBuilder::new("x");
        let p1 = b.add_op(OpKind::Add, "p1");
        let p2 = b.add_op(OpKind::Mul, "p2");
        let c = b.add_op(OpKind::Store, "c");
        b.reg(p1, c);
        b.reg(p2, c);
        let g = b.build().unwrap();
        let s = Schedule::from_fixed(2, &[(p1, 0), (p2, 1), (c, 5)]);
        let analysis = analyse(&g, &s);
        let res = RotatingAllocator::new().allocate(&analysis);
        assert!(res.variant_regs() >= analysis.max_live_variants());
        assert_valid(&analysis, &res);
    }

    #[test]
    fn random_schedules_allocate_close_to_maxlive() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..60 {
            let n = rng.random_range(2..16usize);
            let ii = rng.random_range(1..6u32);
            let mut b = DdgBuilder::new(format!("r{case}"));
            let ops: Vec<OpId> = (0..n)
                .map(|i| {
                    let kind = if i % 3 == 0 { OpKind::Load } else { OpKind::Add };
                    b.add_op(kind, format!("n{i}"))
                })
                .collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.random_range(0..4u32) == 0 {
                        b.reg_dist(ops[i], ops[j], rng.random_range(0..3u32));
                    }
                }
            }
            let g = b.build().unwrap();
            let starts: Vec<i64> = (0..n).map(|_| rng.random_range(0..30i64)).collect();
            let s = Schedule::new(ii, starts);
            let analysis = analyse(&g, &s);
            let res = RotatingAllocator::new().allocate(&analysis);
            assert!(res.variant_regs() >= analysis.max_live_variants());
            assert!(
                res.variant_regs() <= analysis.max_live_variants().max(1) + 2,
                "case {case}: {} vs MaxLive {}",
                res.variant_regs(),
                analysis.max_live_variants()
            );
            assert_valid(&analysis, &res);
        }
    }
}
