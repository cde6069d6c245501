//! Operation identifiers and operation kinds.

use std::fmt;

/// Index of an operation (node) inside a [`crate::Ddg`].
///
/// `OpId`s are dense indices: they are assigned sequentially starting from
/// zero and remain stable for the lifetime of the graph (nodes are never
/// removed, only added — the spill rewriter disconnects nodes instead of
/// deleting them, mirroring the paper's treatment of dead loads).
///
/// ```
/// use regpipe_ddg::{DdgBuilder, OpKind};
/// let mut b = DdgBuilder::new("l");
/// let a = b.add_op(OpKind::Add, "a");
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(u32);

impl OpId {
    /// Creates an id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn new(index: usize) -> Self {
        OpId(u32::try_from(index).expect("operation index overflows u32"))
    }

    /// The dense index of this operation.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// The kind of an operation in the loop body.
///
/// The kinds mirror the operation classes of the paper's evaluation
/// machines (Section 5): memory operations (load/store), an adder, a
/// multiplier, and a non-pipelined divide/square-root unit. [`OpKind::Copy`]
/// models cheap register moves / address updates and executes on the adder.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Memory load. Produces a register value.
    Load,
    /// Memory store. Consumes values, produces none.
    Store,
    /// Floating-point (or integer) addition.
    Add,
    /// Multiplication.
    Mul,
    /// Division (long-latency, not pipelined on the paper's machines).
    Div,
    /// Square root (longest latency, not pipelined).
    Sqrt,
    /// Register move / trivial ALU op; executes on the adder.
    Copy,
}

impl OpKind {
    /// All operation kinds, in a fixed order usable for dense tables.
    pub const ALL: [OpKind; 7] = [
        OpKind::Load,
        OpKind::Store,
        OpKind::Add,
        OpKind::Mul,
        OpKind::Div,
        OpKind::Sqrt,
        OpKind::Copy,
    ];

    /// Dense index of this kind within [`OpKind::ALL`].
    pub fn index(self) -> usize {
        match self {
            OpKind::Load => 0,
            OpKind::Store => 1,
            OpKind::Add => 2,
            OpKind::Mul => 3,
            OpKind::Div => 4,
            OpKind::Sqrt => 5,
            OpKind::Copy => 6,
        }
    }

    /// Whether this operation accesses memory (contributes to memory
    /// traffic and occupies a load/store unit).
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// Whether this operation defines a register value.
    ///
    /// Stores consume values but define none; every other kind defines
    /// exactly one loop-variant value per iteration.
    pub fn defines_value(self) -> bool {
        !matches!(self, OpKind::Store)
    }

    /// The kind's name in the text formats (`.ddg` loops, `.mach` machine
    /// descriptions) and in `regpipe info`.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Add => "add",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Sqrt => "sqrt",
            OpKind::Copy => "copy",
        }
    }

    /// Reads a kind's [name](OpKind::name) or its
    /// [mnemonic](OpKind::mnemonic), which adds the `ld` and `st` aliases.
    pub fn parse(s: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|kind| kind.name() == s || kind.mnemonic() == s)
    }

    /// Short mnemonic used by [`std::fmt::Display`] and DOT export.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::Load => "ld",
            OpKind::Store => "st",
            OpKind::Add => "add",
            OpKind::Mul => "mul",
            OpKind::Div => "div",
            OpKind::Sqrt => "sqrt",
            OpKind::Copy => "copy",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_round_trips_index() {
        for i in [0usize, 1, 17, 100_000] {
            assert_eq!(OpId::new(i).index(), i);
        }
    }

    #[test]
    fn op_id_orders_by_index() {
        assert!(OpId::new(1) < OpId::new(2));
        assert_eq!(OpId::new(3), OpId::new(3));
    }

    #[test]
    fn all_kinds_have_unique_dense_indices() {
        let mut seen = [false; OpKind::ALL.len()];
        for kind in OpKind::ALL {
            assert!(!seen[kind.index()], "duplicate index for {kind}");
            seen[kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn memory_classification() {
        assert!(OpKind::Load.is_memory());
        assert!(OpKind::Store.is_memory());
        assert!(!OpKind::Add.is_memory());
        assert!(!OpKind::Div.is_memory());
    }

    #[test]
    fn only_stores_define_nothing() {
        for kind in OpKind::ALL {
            assert_eq!(kind.defines_value(), kind != OpKind::Store);
        }
    }

    #[test]
    fn display_uses_mnemonics() {
        assert_eq!(OpKind::Sqrt.to_string(), "sqrt");
        assert_eq!(format!("{}", OpId::new(4)), "op4");
        // Every mnemonic and every name reads back as its kind.
        for kind in OpKind::ALL {
            assert_eq!(OpKind::parse(kind.mnemonic()), Some(kind));
            assert_eq!(OpKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(OpKind::parse("fma"), None);
    }
}
