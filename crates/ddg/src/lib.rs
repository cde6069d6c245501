//! Loop data-dependence graph (DDG) substrate for software pipelining.
//!
//! This crate provides the graph representation used throughout `regpipe`:
//! a loop body is a set of operations ([`Node`]) connected by dependence
//! edges ([`Edge`]) annotated with a *dependence distance* δ (the number of
//! iterations the dependence spans), exactly as defined in Section 2.1 of
//! Llosa, Valero & Ayguadé, *"Heuristics for Register-Constrained Software
//! Pipelining"* (MICRO 1996).
//!
//! The representation is deliberately small and self-contained:
//!
//! * [`Ddg`] — the graph itself, with loop-invariant values as first-class
//!   citizens ([`Invariant`]) and per-value *non-spillable* marking (used by
//!   the spilling machinery to guarantee convergence, paper Section 4.3).
//! * [`DdgBuilder`] — ergonomic construction of loop bodies.
//! * [`algo`] — Tarjan SCCs (recurrence detection), topological orders
//!   and reachability.
//! * [`to_dot`] — Graphviz export for debugging and documentation.
//!
//! # Example
//!
//! The running example of the paper (Figure 2): `x(i) = y(i)*a + y(i-3)`.
//!
//! ```
//! use regpipe_ddg::{DdgBuilder, OpKind};
//!
//! let mut b = DdgBuilder::new("fig2");
//! let ld = b.add_op(OpKind::Load, "Ld");
//! let mul = b.add_op(OpKind::Mul, "*");
//! let add = b.add_op(OpKind::Add, "+");
//! let st = b.add_op(OpKind::Store, "St");
//! b.reg(ld, mul);          // y(i) feeds the multiply
//! b.reg_dist(ld, add, 3);  // y(i-3): loop-carried, distance 3
//! b.reg(mul, add);
//! b.reg(add, st);
//! b.invariant("a", &[mul]); // the loop-invariant scalar a
//! let ddg = b.build()?;
//!
//! assert_eq!(ddg.num_ops(), 4);
//! assert_eq!(ddg.num_invariants(), 1);
//! assert!(regpipe_ddg::algo::recurrences(&ddg).is_empty()); // no cycles
//! # Ok::<(), regpipe_ddg::DdgError>(())
//! ```

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

pub mod algo;
mod builder;
mod dot;
mod edge;
mod graph;
mod hash;
mod invariant;
mod node;
mod op;
pub mod textfmt;
mod validate;

pub use builder::DdgBuilder;
pub use dot::to_dot;
pub use edge::{Edge, EdgeId, EdgeKind};
pub use graph::Ddg;
pub use hash::{content_hash, fnv1a};
pub use invariant::{Invariant, InvariantId};
pub use node::Node;
pub use op::{OpId, OpKind};
pub use validate::DdgError;
