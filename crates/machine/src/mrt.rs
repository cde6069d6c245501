//! Modulo reservation table.

use std::fmt;

use regpipe_ddg::OpKind;

use crate::config::{FuClass, MachineConfig};

/// A modulo reservation table for a candidate initiation interval.
///
/// In a modulo schedule, an operation issued at cycle `t` re-issues every II
/// cycles, so resource usage repeats with period II: it suffices to track
/// per-class usage *counts* for each cycle modulo II. A pipelined operation
/// occupies one slot at `t mod II`; a non-pipelined operation of occupancy
/// `o` occupies slots `t, t+1, …, t+o−1` (mod II). When `o > II` the window
/// wraps and some modulo cycles are covered more than once — the count per
/// cycle correctly reflects how many instances are simultaneously in flight
/// in the steady state, so multi-unit classes can sustain `II < o`.
///
/// ```
/// use regpipe_machine::{MachineConfig, Mrt};
/// use regpipe_ddg::OpKind;
///
/// let m = MachineConfig::p1l4();
/// let mut mrt = Mrt::new(&m, 2);
/// assert!(mrt.try_place(OpKind::Load, 0));
/// assert!(mrt.try_place(OpKind::Store, 1));
/// assert!(!mrt.try_place(OpKind::Load, 4), "mem unit full at cycle 0 (mod 2)");
/// mrt.remove(OpKind::Load, 0);
/// assert!(mrt.try_place(OpKind::Load, 4));
/// ```
#[derive(Clone, Debug)]
pub struct Mrt {
    ii: u32,
    /// Unit counts per class (snapshot from the machine).
    units: [u32; FuClass::ALL.len()],
    /// Occupancy per op kind (snapshot from the machine).
    occupancy: [u32; OpKind::ALL.len()],
    /// Class per op kind (snapshot from the machine).
    class: [usize; OpKind::ALL.len()],
    /// `usage[class][cycle]`: number of busy units.
    usage: Vec<Vec<u32>>,
}

impl Mrt {
    /// Creates an empty table for the given machine and II.
    ///
    /// # Panics
    ///
    /// Panics if `ii` is zero.
    pub fn new(machine: &MachineConfig, ii: u32) -> Self {
        assert!(ii > 0, "initiation interval must be positive");
        let mut units = [0u32; FuClass::ALL.len()];
        for c in FuClass::ALL {
            units[c.index()] = machine.units(c);
        }
        let mut occupancy = [0u32; OpKind::ALL.len()];
        let mut class = [0usize; OpKind::ALL.len()];
        for k in OpKind::ALL {
            occupancy[k.index()] = machine.occupancy(k);
            class[k.index()] = machine.class_of(k).index();
        }
        Mrt {
            ii,
            units,
            occupancy,
            class,
            usage: vec![vec![0; ii as usize]; FuClass::ALL.len()],
        }
    }

    /// The initiation interval this table was built for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Whether an operation of `kind` can issue at `cycle` (cycles may be
    /// negative: the table is modulo II).
    pub fn fits(&self, kind: OpKind, cycle: i64) -> bool {
        let c = self.class[kind.index()];
        let units = self.units[c];
        let occ = self.occupancy[kind.index()];
        // An occupancy spanning w full wraps consumes w units at *every*
        // modulo cycle plus one more at the first `occ mod II` cycles.
        let full_wraps = occ / self.ii;
        let residual = occ - full_wraps * self.ii;
        if full_wraps > units || (full_wraps == units && residual > 0) {
            return false;
        }
        for i in 0..occ.min(self.ii) {
            let idx = self.wrap(cycle + i64::from(i));
            let covered = full_wraps + u32::from(i < residual);
            if self.usage[c][idx] + covered > units {
                return false;
            }
        }
        true
    }

    /// Places an operation, updating the usage counts.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the placement overflows a unit class; use
    /// [`Mrt::try_place`] to check first.
    pub fn place(&mut self, kind: OpKind, cycle: i64) {
        let c = self.class[kind.index()];
        let occ = self.occupancy[kind.index()];
        for i in 0..occ {
            let idx = self.wrap(cycle + i64::from(i));
            self.usage[c][idx] += 1;
            debug_assert!(
                self.usage[c][idx] <= self.units[c],
                "over-subscribed {kind} at cycle {cycle} (ii {})",
                self.ii
            );
        }
    }

    /// Atomically checks and places; returns whether the placement happened.
    pub fn try_place(&mut self, kind: OpKind, cycle: i64) -> bool {
        if self.fits(kind, cycle) {
            self.place(kind, cycle);
            true
        } else {
            false
        }
    }

    /// Removes a previously placed operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation was not placed at `cycle` (usage underflow).
    pub fn remove(&mut self, kind: OpKind, cycle: i64) {
        let c = self.class[kind.index()];
        let occ = self.occupancy[kind.index()];
        for i in 0..occ {
            let idx = self.wrap(cycle + i64::from(i));
            assert!(self.usage[c][idx] > 0, "removing unplaced {kind} at {cycle}");
            self.usage[c][idx] -= 1;
        }
    }

    /// Usage count of `class` at modulo `cycle`.
    pub fn usage(&self, class: FuClass, cycle: i64) -> u32 {
        self.usage[class.index()][self.wrap(cycle)]
    }

    fn wrap(&self, cycle: i64) -> usize {
        (cycle.rem_euclid(i64::from(self.ii))) as usize
    }
}

impl fmt::Display for Mrt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MRT (II = {}):", self.ii)?;
        for class in FuClass::ALL {
            if self.units[class.index()] == 0 {
                continue;
            }
            write!(f, "  {class:>8}: ")?;
            for cycle in 0..self.ii {
                write!(
                    f,
                    "{}/{} ",
                    self.usage[class.index()][cycle as usize],
                    self.units[class.index()]
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_ops_take_one_slot() {
        let m = MachineConfig::p2l4();
        let mut mrt = Mrt::new(&m, 1);
        assert!(mrt.try_place(OpKind::Add, 0));
        assert!(mrt.try_place(OpKind::Add, 0));
        assert!(!mrt.try_place(OpKind::Add, 0), "only two adders");
        assert!(mrt.try_place(OpKind::Mul, 0), "different class still free");
    }

    #[test]
    fn negative_cycles_wrap_correctly() {
        let m = MachineConfig::p1l4();
        let mut mrt = Mrt::new(&m, 3);
        assert!(mrt.try_place(OpKind::Add, -1)); // ≡ cycle 2
        assert!(!mrt.try_place(OpKind::Add, 2));
        assert!(mrt.try_place(OpKind::Add, 0));
    }

    #[test]
    fn non_pipelined_op_blocks_window() {
        let m = MachineConfig::p1l4();
        let mut mrt = Mrt::new(&m, 40);
        assert!(mrt.try_place(OpKind::Div, 0)); // busy 0..17
        assert!(!mrt.try_place(OpKind::Div, 10), "unit busy");
        assert!(!mrt.try_place(OpKind::Div, 16));
        assert!(mrt.try_place(OpKind::Div, 17), "frees at 17");
        assert!(!mrt.try_place(OpKind::Div, 35), "34..52 wraps into 0..12");
    }

    #[test]
    fn two_divs_cannot_share_one_unit_within_their_total_occupancy() {
        // II = 20 < 2 * 17: a single non-pipelined unit can never execute
        // two divides per iteration.
        let m = MachineConfig::p1l4();
        let mut mrt = Mrt::new(&m, 20);
        assert!(mrt.try_place(OpKind::Div, 0));
        for t in 0..20 {
            assert!(!mrt.fits(OpKind::Div, t), "no slot at {t}");
        }
    }

    #[test]
    fn non_pipelined_longer_than_ii_needs_second_unit() {
        // Div occupancy 17 > II 9: one unit can never sustain it, two can.
        let one = MachineConfig::p1l4();
        let mrt1 = Mrt::new(&one, 9);
        assert!(!mrt1.fits(OpKind::Div, 0), "17 > 9 on a single unit");

        let two = MachineConfig::p2l4();
        let mut mrt2 = Mrt::new(&two, 9);
        assert!(mrt2.try_place(OpKind::Div, 0), "two units alternate iterations");
        assert!(!mrt2.try_place(OpKind::Div, 0), "but not a second div per iteration");
    }

    #[test]
    fn occupancy_exactly_ii_fills_one_unit() {
        let two = MachineConfig::p2l4();
        let mut mrt = Mrt::new(&two, 17);
        assert!(mrt.try_place(OpKind::Div, 3));
        assert!(mrt.try_place(OpKind::Div, 5), "second unit");
        assert!(!mrt.try_place(OpKind::Div, 9), "both units saturated");
    }

    #[test]
    fn remove_restores_capacity() {
        let m = MachineConfig::p1l4();
        let mut mrt = Mrt::new(&m, 4);
        assert!(mrt.try_place(OpKind::Load, 1));
        assert!(!mrt.try_place(OpKind::Store, 5)); // 5 mod 4 == 1
        mrt.remove(OpKind::Load, 1);
        assert!(mrt.try_place(OpKind::Store, 5));
    }

    #[test]
    #[should_panic(expected = "removing unplaced")]
    fn removing_unplaced_op_panics() {
        let m = MachineConfig::p1l4();
        let mut mrt = Mrt::new(&m, 4);
        mrt.remove(OpKind::Load, 0);
    }

    #[test]
    fn display_shows_usage() {
        let m = MachineConfig::p1l4();
        let mut mrt = Mrt::new(&m, 2);
        mrt.place(OpKind::Load, 0);
        let s = mrt.to_string();
        assert!(s.contains("II = 2"));
        assert!(s.contains("1/1"));
    }
}
