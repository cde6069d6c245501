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

    /// How far the allocation landed above `MaxLive` (0 means optimal).
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
/// concurrently live instance. The allocator tries r = `MaxLive` (of the
/// loop variants), `MaxLive + 1`, … rotating registers in turn. Each try
/// places the lifetimes first-fit in start order (longest first on ties):
/// a lifetime takes the lowest rotation offset that clashes with no
/// lifetime already placed, and the try fails as soon as one finds none.
/// The first r at which every lifetime fits is the result. This is one of
/// the heuristics from Rau et al.'s "Register allocation for software
/// pipelined loops" that the paper leans on, but it often needs more than
/// `MaxLive + 1`: on unconstrained HRMS schedules of the built-in
/// 1258-loop suite (P2L4), 690 loops allocate above `MaxLive` and 472
/// need `MaxLive + 2` or more. ROADMAP item 2 plans an allocator that
/// lands on `MaxLive`.
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
        allocate_by(analysis, try_allocate)
    }
}

/// One first-fit try: `(lifetimes, II, r, ops)` to the per-op assignment.
type FirstFit = fn(&[(i64, i64, OpId)], i64, u32, usize) -> Option<Vec<Option<u32>>>;

/// The retry loop of [`RotatingAllocator::allocate`] over `try_allocate`.
fn allocate_by(analysis: &LifetimeAnalysis, try_allocate: FirstFit) -> AllocationResult {
    let ii = i64::from(analysis.ii());
    // Adjacency ordering: by start cycle, longest first on ties so the
    // big lifetimes grab compact runs early.
    let mut lifetimes: Vec<(i64, i64, OpId)> =
        analysis.lifetimes().map(|lt| (lt.start(), lt.end(), lt.producer())).collect();
    lifetimes.sort_by_key(|&(s, e, p)| (s, -(e - s), p));

    let max_live_variants = analysis.max_live_variants();
    let n_ops = analysis.lifetimes().map(|lt| lt.producer().index() + 1).max().unwrap_or(0);

    let mut r = max_live_variants.max(u32::from(!lifetimes.is_empty()));
    let (variant_regs, assignment) = loop {
        match try_allocate(&lifetimes, ii, r, n_ops) {
            Some(assignment) => break (if lifetimes.is_empty() { 0 } else { r }, assignment),
            None => r += 1,
        }
    };
    AllocationResult {
        variant_regs,
        invariant_regs: analysis.live_invariants(),
        max_live: analysis.max_live(),
        assignment,
    }
}

/// Attempts to place all lifetimes on an `r`-register cylinder; returns the
/// per-op register assignment on success.
fn try_allocate(
    lifetimes: &[(i64, i64, OpId)],
    ii: i64,
    r: u32,
    n_ops: usize,
) -> Option<Vec<Option<u32>>> {
    if lifetimes.is_empty() {
        return Some(vec![None; n_ops]);
    }
    let r = i64::from(r);
    let mut assignment: Vec<Option<u32>> = vec![None; n_ops];
    // (start, end, rho) of the lifetimes placed so far.
    let mut placed: Vec<(i64, i64, i64)> = Vec::with_capacity(lifetimes.len());
    // One bit per register the current lifetime may not take.
    let mut forbidden = vec![0u64; (r as usize).div_ceil(64)];

    for &(s_j, e_j, op) in lifetimes {
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
        assignment[op.index()] = Some(rho as u32);
    }
    Some(assignment)
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
    use regpipe_sched::Schedule;

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

    /// The per-offset scan the closed form replaced: every iteration
    /// offset around the overlap window is tested one by one, and each
    /// lifetime gets a fresh `forbidden` vector of length r.
    fn try_allocate_scan(
        lifetimes: &[(i64, i64, OpId)],
        ii: i64,
        r: u32,
        n_ops: usize,
    ) -> Option<Vec<Option<u32>>> {
        if lifetimes.is_empty() {
            return Some(vec![None; n_ops]);
        }
        let r = i64::from(r);
        let mut assignment: Vec<Option<u32>> = vec![None; n_ops];
        let mut placed: Vec<(i64, i64, i64)> = Vec::new();
        for &(s_j, e_j, op) in lifetimes {
            if (e_j - s_j + ii - 1).div_euclid(ii) > r {
                return None;
            }
            let mut forbidden = vec![false; r as usize];
            for &(s_i, e_i, rho_i) in &placed {
                for d in (s_i - e_j).div_euclid(ii)..=(e_i - s_j).div_euclid(ii) + 1 {
                    if s_i < e_j + d * ii && s_j + d * ii < e_i {
                        forbidden[(rho_i - d).rem_euclid(r) as usize] = true;
                    }
                }
            }
            let rho = (0..r).find(|&c| !forbidden[c as usize])?;
            placed.push((s_j, e_j, rho));
            assignment[op.index()] = Some(rho as u32);
        }
        Some(assignment)
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

    /// The closed-form try gives exactly the per-offset scan's allocation
    /// on HRMS schedules of the built-in suite, a generated corpus and
    /// four 256-op kernels, on every paper machine, and every allocation
    /// passes the brute-force steady-state check.
    #[test]
    fn closed_form_allocation_matches_the_scan_on_generated_schedules() {
        use regpipe_loops::{generate, suite, GenParams};
        use regpipe_machine::MachineConfig;
        use regpipe_sched::{SchedRequest, Scheduler, SchedulerKind};
        let big = GenParams { min_ops: 256, max_ops: 256, ..GenParams::default() };
        let loops = suite(49626, 300)
            .into_iter()
            .chain(generate(7, 100, &GenParams::default()).unwrap())
            .chain(generate(49626, 4, &big).unwrap());
        let machines = [MachineConfig::p1l4(), MachineConfig::p2l4(), MachineConfig::p2l6()];
        for l in loops {
            for m in &machines {
                let s =
                    SchedulerKind::Hrms.schedule(&l.ddg, m, &SchedRequest::default()).unwrap();
                let analysis = analyse(&l.ddg, &s);
                let res = RotatingAllocator::new().allocate(&analysis);
                assert_eq!(
                    res,
                    allocate_by(&analysis, try_allocate_scan),
                    "{} on {}",
                    l.name,
                    m
                );
                assert_valid(&analysis, &res);
            }
        }
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
