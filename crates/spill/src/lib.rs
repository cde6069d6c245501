//! Spill-code insertion for software-pipelined loops (paper Section 4).
//!
//! Spilling a lifetime stores the value to memory right after it is
//! produced and reloads it just before each use, so the value occupies a
//! register only for a few cycles around the accesses instead of its whole
//! producer-to-last-consumer span. Software pipelining makes this harder
//! than the acyclic case:
//!
//! * lifetimes cross iteration boundaries (the spill store and its reloads
//!   can be δ iterations apart);
//! * the schedule is dense, so spill operations usually force a
//!   *reschedule* (handled by `regpipe_core::compile`);
//! * naive rescheduling can move the reloads away from their consumers and
//!   *increase* pressure, or re-select the fresh spill lifetimes and loop
//!   forever.
//!
//! The paper's safeguards — implemented here — are to mark every
//! spill-created value **non-spillable** and to **bond** spill operations to
//! their producer/consumer so they are scheduled as one *complex operation*
//! (fixed edges in `regpipe-ddg`, honoured atomically by the schedulers).
//!
//! Selection heuristics (Section 4.1): [`SelectHeuristic::MaxLt`] picks the
//! longest lifetime; [`SelectHeuristic::MaxLtOverTraffic`] divides by the
//! number of memory operations the spill would add, trading fewer freed
//! registers for less bus traffic — the paper's preferred variant.
//!
//! Victim *ranking* as a whole is pluggable: [`SpillPolicyKind`] is a
//! registry of [`SpillPolicy`] implementations — the paper's heuristic
//! ranking (`paper`, the default), two next-use-distance policies in the
//! Braun & Hack tradition (`min-next-use`, `furthest-next-use`), and a
//! `round-robin` stress policy — with a documented determinism contract so
//! every policy reproduces byte-identical results across job counts,
//! transports and caches.
//!
//! Rewrite optimizations (Section 4.2): values produced by a load are
//! reloaded without a store (the datum is already in memory); values already
//! consumed by a store reuse that store; loop invariants are stored once
//! before the loop and only the reloads appear in the body.
//!
//! ```
//! use regpipe_ddg::{DdgBuilder, OpKind};
//! use regpipe_sched::Schedule;
//! use regpipe_regalloc::LifetimeAnalysis;
//! use regpipe_spill::{candidates, spill, RankContext, SelectHeuristic, SpillPolicy, SpillPolicyKind};
//!
//! // Figure 2 loop at II=1: V1 (the load's value) is the longest lifetime.
//! let mut b = DdgBuilder::new("fig2");
//! let ld = b.add_op(OpKind::Load, "Ld");
//! let mul = b.add_op(OpKind::Mul, "*");
//! let add = b.add_op(OpKind::Add, "+");
//! let st = b.add_op(OpKind::Store, "St");
//! b.reg(ld, mul);
//! b.reg_dist(ld, add, 3);
//! b.reg(mul, add);
//! b.reg(add, st);
//! let mut g = b.build()?;
//! let schedule = Schedule::new(1, vec![0, 2, 4, 6]);
//! let analysis = LifetimeAnalysis::new(&g, &schedule);
//!
//! let cands = candidates(&g, &analysis);
//! let ctx = RankContext { analysis: &analysis, heuristic: SelectHeuristic::MaxLt, round: 0 };
//! let victim = SpillPolicyKind::Paper.select(&cands, &ctx).unwrap().clone();
//! let report = spill(&mut g, &victim);
//! assert_eq!(report.stores_added, 0, "producer is a load: no store needed");
//! assert_eq!(report.loads_added, 2, "one reload per use");
//! g.validate()?;
//! # Ok::<(), regpipe_ddg::DdgError>(())
//! ```

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

mod candidate;
mod dce;
mod policy;
mod rewrite;

pub use candidate::{candidates, SelectHeuristic, SpillCandidate};
pub use dce::{eliminate_dead_ops, DceReport};
pub use policy::{RankContext, SpillPolicy, SpillPolicyKind};
pub use rewrite::{spill, spill_batch, SpillOptimization, SpillReport};
