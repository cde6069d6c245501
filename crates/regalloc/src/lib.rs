//! Register requirements of modulo schedules.
//!
//! Implements Sections 2.3–2.4 of the paper:
//!
//! * [`LifetimeAnalysis`] — per-loop-variant lifetimes with the paper's
//!   split into a *scheduling component* (`LTSch`, distance in cycles from
//!   producer to last consumer) and a *distance component* (`LTDist = δ·II`,
//!   due to loop-carried consumption). The distance component is the part
//!   that **grows** with the II — the reason increasing the II fails to
//!   converge on some loops (Section 3.1).
//! * `MaxLive` — the maximum number of simultaneously live values, an
//!   accurate lower bound for the registers required (the paper's register
//!   estimate in all examples).
//! * [`RotatingAllocator`] — actual allocation on a rotating register file.
//!   With instance k of a lifetime `[s, e)` in register `(ρ + k) mod r`,
//!   each lifetime is one arc `[s − ρ·II, e − ρ·II)` on a circle of `r·II`
//!   cycles, and an allocation is a packing of disjoint arcs. A multi-start
//!   end-fit chain packs them in work bounded by the number of lifetimes;
//!   Rau et al.'s first-fit is tried only below the chain's r, so the
//!   result never needs more registers than first-fit. On unconstrained
//!   HRMS schedules of the built-in suite (P2L4) every loop lands on
//!   `MaxLive` or `MaxLive + 1`.
//! * [`MveAllocator`] — modulo variable expansion for machines *without*
//!   rotating files (kernel unrolling + renaming), the alternative sketched
//!   in Section 2.3.
//!
//! ```
//! use regpipe_ddg::{DdgBuilder, OpKind};
//! use regpipe_sched::Schedule;
//! use regpipe_regalloc::LifetimeAnalysis;
//!
//! // Figure 2: x(i) = y(i)*a + y(i-3) at II = 1, hand schedule.
//! let mut b = DdgBuilder::new("fig2");
//! let ld = b.add_op(OpKind::Load, "Ld");
//! let mul = b.add_op(OpKind::Mul, "*");
//! let add = b.add_op(OpKind::Add, "+");
//! let st = b.add_op(OpKind::Store, "St");
//! b.reg(ld, mul);
//! b.reg_dist(ld, add, 3);
//! b.reg(mul, add);
//! b.reg(add, st);
//! b.invariant("a", &[mul]);
//! let g = b.build()?;
//! let schedule = Schedule::new(1, vec![0, 2, 4, 6]);
//!
//! let lt = LifetimeAnalysis::new(&g, &schedule);
//! assert_eq!(lt.max_live_variants(), 11);           // the paper's Figure 2f
//! assert_eq!(lt.max_live(), 12);                    // + the invariant `a`
//! assert_eq!(lt.lifetime(ld).unwrap().length(), 7); // LTSch 4 + LTDist 3
//! # Ok::<(), regpipe_ddg::DdgError>(())
//! ```

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

mod chart;
mod lifetime;
mod mve;
mod rotating;

pub use chart::pressure_chart;
pub use lifetime::{Lifetime, LifetimeAnalysis};
pub use mve::{MveAllocation, MveAllocator};
pub use rotating::{AllocationResult, RotatingAllocator};

use regpipe_ddg::Ddg;
use regpipe_sched::Schedule;

/// One-call allocation: lifetime analysis plus rotating-file allocation.
///
/// Returns the actual register requirement of `schedule` — rotating
/// registers for the loop variants plus one static register per live
/// loop-invariant. This is what the register-constrained drivers compare
/// against the machine's register file size.
pub fn allocate(ddg: &Ddg, schedule: &Schedule) -> AllocationResult {
    let analysis = LifetimeAnalysis::new(ddg, schedule);
    RotatingAllocator::new().allocate(&analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};

    #[test]
    fn allocate_combines_variants_and_invariants() {
        let mut b = DdgBuilder::new("l");
        let ld = b.add_op(OpKind::Load, "ld");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(ld, st);
        b.invariant("a", &[st]);
        b.invariant("b", &[st]);
        let g = b.build().unwrap();
        let s = Schedule::new(2, vec![0, 2]);
        let res = allocate(&g, &s);
        assert_eq!(res.invariant_regs(), 2);
        assert!(res.variant_regs() >= 1);
        assert_eq!(res.total(), res.variant_regs() + res.invariant_regs());
    }
}
