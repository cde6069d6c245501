//! Kernel extraction (paper Figure 2e).
//!
//! The kernel is the II-cycle block that the steady state iterates on: each
//! scheduled operation appears once, at cycle `t mod II`, annotated with its
//! stage `⌊t / II⌋`. The ramp-up (prologue) and ramp-down (epilogue) each
//! take `(SC − 1) · II` cycles.

use std::fmt;

use regpipe_ddg::{Ddg, OpId};

use crate::schedule::Schedule;

/// One operation's position in the kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KernelSlot {
    /// The operation.
    pub op: OpId,
    /// Kernel row (cycle modulo II).
    pub cycle: u32,
    /// Stage index (0 = newest iteration).
    pub stage: u32,
}

/// The kernel of a modulo schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Kernel {
    ii: u32,
    stage_count: u32,
    /// Rows indexed by cycle; each row sorted by stage then op.
    rows: Vec<Vec<KernelSlot>>,
    names: Vec<String>,
}

impl Kernel {
    /// Extracts the kernel of `schedule` for `ddg`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover the graph.
    pub fn new(ddg: &Ddg, schedule: &Schedule) -> Self {
        assert_eq!(ddg.num_ops(), schedule.num_ops(), "schedule/graph mismatch");
        let ii = schedule.ii();
        let mut rows: Vec<Vec<KernelSlot>> = vec![Vec::new(); ii as usize];
        for (id, _) in ddg.ops() {
            let t = schedule.start(id);
            let cycle = (t % i64::from(ii)) as u32;
            let stage = schedule.stage(id);
            rows[cycle as usize].push(KernelSlot { op: id, cycle, stage });
        }
        for row in &mut rows {
            row.sort_by_key(|s| (s.stage, s.op));
        }
        Kernel {
            ii,
            stage_count: schedule.stage_count(),
            rows,
            names: ddg.ops().map(|(_, n)| n.name().to_string()).collect(),
        }
    }

    /// The initiation interval (number of kernel rows).
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The stage count.
    pub fn stage_count(&self) -> u32 {
        self.stage_count
    }

    /// The slots issued at kernel `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `cycle >= ii`.
    pub fn row(&self, cycle: u32) -> &[KernelSlot] {
        &self.rows[cycle as usize]
    }

    /// Iterates over all slots in (cycle, stage) order.
    pub fn slots(&self) -> impl Iterator<Item = &KernelSlot> {
        self.rows.iter().flatten()
    }

    /// Length of the prologue (and of the epilogue) in cycles.
    pub fn prologue_cycles(&self) -> u32 {
        (self.stage_count - 1) * self.ii
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel: II={}, SC={}", self.ii, self.stage_count)?;
        for (cycle, row) in self.rows.iter().enumerate() {
            write!(f, "  {cycle:>3}:")?;
            for slot in row {
                write!(f, " {}[{}]", self.names[slot.op.index()], slot.stage)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};

    fn fig2_like() -> (Ddg, Schedule) {
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
        // The paper's Figure 2c schedule: Ld@0, *@2, +@4, St@6, II = 1.
        let s = Schedule::new(1, vec![0, 2, 4, 6]);
        (g, s)
    }

    #[test]
    fn fig2_kernel_has_seven_stages() {
        let (g, s) = fig2_like();
        let k = Kernel::new(&g, &s);
        assert_eq!(k.ii(), 1);
        assert_eq!(k.stage_count(), 7);
        // One row with all four ops at stages 0, 2, 4, 6 (Figure 2e).
        let stages: Vec<u32> = k.row(0).iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![0, 2, 4, 6]);
        assert_eq!(k.prologue_cycles(), 6);
    }

    #[test]
    fn kernel_rows_partition_ops() {
        let (g, _) = fig2_like();
        let s = Schedule::new(2, vec![0, 2, 4, 6]);
        let k = Kernel::new(&g, &s);
        assert_eq!(k.ii(), 2);
        assert_eq!(k.stage_count(), 4);
        assert_eq!(k.slots().count(), 4);
        assert_eq!(k.row(0).len(), 4, "all starts are even");
        assert_eq!(k.row(1).len(), 0);
    }

    #[test]
    fn display_prints_rows() {
        let (g, s) = fig2_like();
        let k = Kernel::new(&g, &s);
        let txt = k.to_string();
        assert!(txt.contains("II=1"));
        assert!(txt.contains("Ld[0]"));
        assert!(txt.contains("St[6]"));
    }
}
