//! Graph algorithms over dependence graphs.
//!
//! Everything a modulo scheduler needs from graph theory: strongly connected
//! components (recurrence detection), topological orders and reachability.

mod reach;
mod scc;
mod topo;

pub use reach::{sccs_of, BitClosure};
pub use scc::{recurrences, sccs, Scc};
pub use topo::topo_order_ignoring_back_edges;
