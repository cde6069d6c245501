//! Modulo variable expansion (MVE).
//!
//! Without a rotating register file, a lifetime longer than the II would be
//! overwritten by the next iteration's instance. Lam's modulo variable
//! expansion fixes this at compile time: unroll the kernel `K` times and
//! rename each variant's definitions across the copies (paper Section 2.3
//! mentions it as the software alternative to rotating hardware).

use std::fmt;

use crate::lifetime::LifetimeAnalysis;

/// The result of MVE-style allocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MveAllocation {
    unroll: u32,
    variant_regs: u32,
    invariant_regs: u32,
}

impl MveAllocation {
    /// The kernel unroll factor `K` (1 = no unrolling needed).
    pub fn unroll(&self) -> u32 {
        self.unroll
    }

    /// Registers needed by loop variants after renaming
    /// (`Σ ⌈lifetime / II⌉` — each variant needs one name per concurrently
    /// live instance).
    pub fn variant_regs(&self) -> u32 {
        self.variant_regs
    }

    /// Static registers for the live loop invariants.
    pub fn invariant_regs(&self) -> u32 {
        self.invariant_regs
    }

    /// Total register requirement.
    pub fn total(&self) -> u32 {
        self.variant_regs + self.invariant_regs
    }
}

impl fmt::Display for MveAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MVE: unroll x{}, {} regs ({} variant + {} invariant)",
            self.unroll,
            self.total(),
            self.variant_regs,
            self.invariant_regs
        )
    }
}

/// The most kernel copies MVE unrolls to.
const UNROLL_CAP: u64 = 64;

/// Modulo-variable-expansion allocator.
///
/// Uses the standard "smallest sufficient unroll" policy: `K` is the least
/// common multiple of each variant's instance count, capped at 64 kernel
/// copies (`min(lcm, 64)`). The register count does not depend on the
/// cap: each variant keeps one name per concurrently live instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct MveAllocator;

impl MveAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        MveAllocator
    }

    /// Computes the MVE allocation for `analysis`.
    pub fn allocate(&self, analysis: &LifetimeAnalysis) -> MveAllocation {
        let ii = analysis.ii();
        let mut unroll: u64 = 1;
        let mut variant_regs: u32 = 0;
        for lt in analysis.lifetimes() {
            let k = lt.concurrent_instances(ii).max(1);
            variant_regs += k;
            unroll = lcm(unroll, u64::from(k)).min(UNROLL_CAP);
        }
        MveAllocation {
            unroll: u32::try_from(unroll).expect("capped"),
            variant_regs,
            invariant_regs: analysis.live_invariants(),
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifetime::LifetimeAnalysis;
    use regpipe_ddg::{DdgBuilder, OpKind};
    use regpipe_sched::Schedule;

    #[test]
    fn short_lifetimes_need_no_unrolling() {
        let mut b = DdgBuilder::new("short");
        let p = b.add_op(OpKind::Add, "p");
        let c = b.add_op(OpKind::Store, "c");
        b.reg(p, c);
        let g = b.build().unwrap();
        let s = Schedule::new(4, vec![0, 4]); // lifetime 4 = II
        let alloc = MveAllocator::new().allocate(&LifetimeAnalysis::new(&g, &s));
        assert_eq!(alloc.unroll(), 1);
        assert_eq!(alloc.variant_regs(), 1);
    }

    #[test]
    fn unroll_is_lcm_of_instance_counts() {
        let mut b = DdgBuilder::new("mix");
        let p1 = b.add_op(OpKind::Add, "p1");
        let c1 = b.add_op(OpKind::Copy, "c1");
        let p2 = b.add_op(OpKind::Mul, "p2");
        let c2 = b.add_op(OpKind::Copy, "c2");
        b.reg(p1, c1);
        b.reg(p2, c2);
        let g = b.build().unwrap();
        // II=2: lifetime of p1 = 4 cycles (2 instances), p2 = 6 (3).
        let s = Schedule::from_fixed(2, &[(p1, 0), (c1, 4), (p2, 0), (c2, 6)]);
        let alloc = MveAllocator::new().allocate(&LifetimeAnalysis::new(&g, &s));
        assert_eq!(alloc.unroll(), 6, "lcm(2, 3)");
        assert_eq!(alloc.variant_regs(), 5, "2 + 3 names");
    }

    #[test]
    fn unroll_cap_is_respected() {
        // II=1: lifetimes of 5, 7 and 9 cycles, whose lcm 315 caps to 64.
        let mut b = DdgBuilder::new("caps");
        let mut starts = Vec::new();
        for (i, len) in [5, 7, 9].into_iter().enumerate() {
            let p = b.add_op(OpKind::Add, format!("p{i}"));
            let c = b.add_op(OpKind::Copy, format!("c{i}"));
            b.reg(p, c);
            starts.extend([(p, 0), (c, len)]);
        }
        let g = b.build().unwrap();
        let s = Schedule::from_fixed(1, &starts);
        let alloc = MveAllocator::new().allocate(&LifetimeAnalysis::new(&g, &s));
        assert_eq!(alloc.unroll(), 64, "min(lcm(5, 7, 9), 64)");
        assert_eq!(alloc.variant_regs(), 5 + 7 + 9);
    }

    #[test]
    fn mve_needs_at_least_rotating_requirement() {
        // MVE's per-variant ceil sum is never below the cylinder packing.
        let mut b = DdgBuilder::new("cmp");
        let p1 = b.add_op(OpKind::Add, "p1");
        let p2 = b.add_op(OpKind::Mul, "p2");
        let c = b.add_op(OpKind::Store, "c");
        b.reg(p1, c);
        b.reg(p2, c);
        let g = b.build().unwrap();
        let s = Schedule::from_fixed(3, &[(p1, 0), (p2, 1), (c, 7)]);
        let analysis = LifetimeAnalysis::new(&g, &s);
        let mve = MveAllocator::new().allocate(&analysis);
        let rot = crate::RotatingAllocator::new().allocate(&analysis);
        assert!(mve.total() >= rot.total());
    }
}
