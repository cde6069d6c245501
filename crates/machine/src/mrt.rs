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
/// Beside the counts the table keeps one *saturation* bit per (class,
/// modulo cycle) of every class with units, set exactly when the usage
/// there has reached the class's unit count; a class with no units keeps
/// its bits clear and has no open slot. [`Mrt::first_open`] and
/// [`Mrt::last_open`] read those bits a word at a time to find the first
/// cycle of a window, scanned up or down over at most II cycles, whose
/// slot has a free unit. Every occupancy covers its issue slot, so an
/// operation can issue only at such a cycle: a placer probes those cycles
/// alone and finds the same first fit as one that probes every cycle.
///
/// The cycle-based methods wrap their cycle once. [`Mrt::slot`],
/// [`Mrt::slot_after`], [`Mrt::try_place_at`] and [`Mrt::remove_at`] take
/// a wrapped slot instead, so a group of operations at fixed offsets from
/// one base cycle is probed with one wrap and no further division.
///
/// ```
/// use regpipe_machine::{FuClass, MachineConfig, Mrt};
/// use regpipe_ddg::OpKind;
///
/// let m = MachineConfig::p1l4();
/// let mut mrt = Mrt::new(&m, 2);
/// assert!(mrt.try_place(OpKind::Load, 0));
/// assert!(mrt.try_place(OpKind::Store, 1));
/// assert!(!mrt.try_place(OpKind::Load, 4), "mem unit full at cycle 0 (mod 2)");
/// assert_eq!(mrt.first_open(FuClass::Memory, 4, 9), None, "both mem slots are full");
/// mrt.remove(OpKind::Load, 0);
/// assert_eq!(mrt.first_open(FuClass::Memory, 3, 9), Some(4));
/// assert!(mrt.try_place(OpKind::Load, 4));
/// ```
#[derive(Clone, Debug)]
pub struct Mrt {
    ii: u32,
    /// Unit counts per class (snapshot from the machine).
    units: [u32; FuClass::ALL.len()],
    /// Class per op kind (snapshot from the machine).
    class: [usize; OpKind::ALL.len()],
    /// Per op kind, `occupancy / II`: the units an instance holds at every
    /// modulo cycle once its occupancy wraps.
    wraps: [u32; OpKind::ALL.len()],
    /// Per op kind, `occupancy mod II`: the leading cycles of its window
    /// that hold one unit more than `wraps`.
    residual: [u32; OpKind::ALL.len()],
    /// `usage[class·II + slot]`: number of busy units.
    usage: Vec<u32>,
    /// `full[class·words + slot/64]`, bit `slot mod 64`: whether the usage
    /// there has reached the class's unit count (classes with units only).
    full: Vec<u64>,
    /// 64-bit words per class in `full`.
    words: usize,
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
        let mut class = [0usize; OpKind::ALL.len()];
        let mut wraps = [0u32; OpKind::ALL.len()];
        let mut residual = [0u32; OpKind::ALL.len()];
        for k in OpKind::ALL {
            let occ = machine.occupancy(k);
            class[k.index()] = machine.class_of(k).index();
            wraps[k.index()] = occ / ii;
            residual[k.index()] = occ % ii;
        }
        let slots = ii as usize;
        let words = slots.div_ceil(64);
        Mrt {
            ii,
            units,
            class,
            wraps,
            residual,
            usage: vec![0; FuClass::ALL.len() * slots],
            full: vec![0; FuClass::ALL.len() * words],
            words,
        }
    }

    /// The initiation interval this table was built for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The modulo slot of `cycle`: `cycle mod II`, in `0..II` also for a
    /// negative cycle.
    #[inline]
    pub fn slot(&self, cycle: i64) -> u32 {
        cycle.rem_euclid(i64::from(self.ii)) as u32
    }

    /// The slot `delta` cycles after `slot`, which must lie in `0..II`:
    /// `(slot + delta) mod II`, found without a division when
    /// `delta < II`.
    #[inline]
    pub fn slot_after(&self, slot: u32, delta: u64) -> u32 {
        let ii = u64::from(self.ii);
        let s = u64::from(slot) + delta;
        let wrapped = if s < ii {
            s
        } else if s - ii < ii {
            s - ii
        } else {
            s % ii
        };
        wrapped as u32
    }

    /// Whether an operation of `kind` can issue at `cycle` (cycles may be
    /// negative: the table is modulo II).
    pub fn fits(&self, kind: OpKind, cycle: i64) -> bool {
        self.fits_at(kind, self.slot(cycle))
    }

    /// Places an operation, updating the usage counts.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the placement overflows a unit class; use
    /// [`Mrt::try_place`] to check first.
    pub fn place(&mut self, kind: OpKind, cycle: i64) {
        self.place_at(kind, self.slot(cycle));
    }

    /// Atomically checks and places; returns whether the placement happened.
    pub fn try_place(&mut self, kind: OpKind, cycle: i64) -> bool {
        self.try_place_at(kind, self.slot(cycle))
    }

    /// [`Mrt::try_place`] at the modulo slot `slot` (in `0..II`) instead of
    /// a cycle: the same answer and the same table as `try_place` at any
    /// cycle whose [`Mrt::slot`] is `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below II.
    #[inline]
    pub fn try_place_at(&mut self, kind: OpKind, slot: u32) -> bool {
        assert!(slot < self.ii, "slot {slot} outside 0..{}", self.ii);
        if self.fits_at(kind, slot) {
            self.place_at(kind, slot);
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
        self.remove_at(kind, self.slot(cycle));
    }

    /// [`Mrt::remove`] at the modulo slot `slot` (in `0..II`) instead of a
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below II, or if the operation was not placed
    /// at `slot` (usage underflow).
    #[inline]
    pub fn remove_at(&mut self, kind: OpKind, slot: u32) {
        assert!(slot < self.ii, "slot {slot} outside 0..{}", self.ii);
        let (k, c) = (kind.index(), self.class[kind.index()]);
        for (idx, count) in self.cover(k, slot) {
            let before = self.usage[c * self.ii as usize + idx];
            assert!(before >= count, "removing unplaced {kind} at slot {slot}");
            self.set_usage(c, idx, before - count);
        }
    }

    /// Usage count of `class` at modulo `cycle`.
    pub fn usage(&self, class: FuClass, cycle: i64) -> u32 {
        self.usage[class.index() * self.ii as usize + self.slot(cycle) as usize]
    }

    /// The first cycle of the ascending window `from..=to`, cut to its
    /// first II cycles, at which `class` has a free unit:
    /// `(from..=to.min(from + II − 1)).find(|&t| usage(class, t) < units)`.
    /// `None` when there is none, and always for a class with no units.
    #[inline]
    pub fn first_open(&self, class: FuClass, from: i64, to: i64) -> Option<i64> {
        let len = self.window_len(class, from, to)?;
        let (row, n) = (self.full_row(class), self.ii as usize);
        let s = self.slot(from) as usize;
        let found = if s + len <= n {
            first_clear(row, s, s + len).map(|f| f - s)
        } else {
            first_clear(row, s, n)
                .map(|f| f - s)
                .or_else(|| first_clear(row, 0, s + len - n).map(|f| f + n - s))
        };
        found.map(|d| from + d as i64)
    }

    /// The last cycle of the window `from..=to` scanned downward and cut to
    /// its last II cycles, at which `class` has a free unit:
    /// `(from.max(to − II + 1)..=to).rev().find(|&t| usage(class, t) < units)`.
    /// `None` when there is none, and always for a class with no units.
    #[inline]
    pub fn last_open(&self, class: FuClass, from: i64, to: i64) -> Option<i64> {
        let len = self.window_len(class, from, to)?;
        let (row, n) = (self.full_row(class), self.ii as usize);
        let e = self.slot(to) as usize;
        let found = if len <= e + 1 {
            last_clear(row, e + 1 - len, e + 1).map(|f| e - f)
        } else {
            last_clear(row, 0, e + 1)
                .map(|f| e - f)
                .or_else(|| last_clear(row, n + e + 1 - len, n).map(|f| e + n - f))
        };
        found.map(|d| to - d as i64)
    }

    /// The cycles an open-slot search over `from..=to` may look at (at most
    /// II), or `None` when the window is empty or `class` has no units.
    #[inline]
    fn window_len(&self, class: FuClass, from: i64, to: i64) -> Option<usize> {
        if to < from || self.units[class.index()] == 0 {
            return None;
        }
        let span = to.saturating_sub(from).min(i64::from(self.ii) - 1);
        Some(span as usize + 1)
    }

    /// The saturation bits of `class`.
    #[inline]
    fn full_row(&self, class: FuClass) -> &[u64] {
        let c = class.index();
        &self.full[c * self.words..(c + 1) * self.words]
    }

    #[inline]
    fn fits_at(&self, kind: OpKind, slot: u32) -> bool {
        let k = kind.index();
        let (c, units) = (self.class[k], self.units[self.class[k]]);
        // An occupancy spanning w full wraps consumes w units at *every*
        // modulo cycle plus one more at the first `occ mod II` cycles.
        let (wraps, residual) = (self.wraps[k], self.residual[k]);
        if wraps > units || (wraps == units && residual > 0) {
            return false;
        }
        let row = &self.usage[c * self.ii as usize..];
        self.cover(k, slot).all(|(idx, count)| row[idx] + count <= units)
    }

    #[inline]
    fn place_at(&mut self, kind: OpKind, slot: u32) {
        let (k, c) = (kind.index(), self.class[kind.index()]);
        for (idx, count) in self.cover(k, slot) {
            let after = self.usage[c * self.ii as usize + idx] + count;
            debug_assert!(
                after <= self.units[c],
                "over-subscribed {kind} at slot {slot} (ii {})",
                self.ii
            );
            self.set_usage(c, idx, after);
        }
    }

    /// Sets the usage of class index `c` in slot `idx`, and its saturation
    /// bit to `usage ≥ units` (a class without units keeps its bits clear).
    #[inline]
    fn set_usage(&mut self, c: usize, idx: usize, usage: u32) {
        self.usage[c * self.ii as usize + idx] = usage;
        let (word, bit) = (&mut self.full[c * self.words + idx / 64], 1 << (idx % 64));
        if self.units[c] > 0 && usage >= self.units[c] {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The modulo slots an operation of kind index `k` issued in `slot`
    /// covers, walked by add-and-wrap (at most II of them), each with the
    /// units it holds there: `wraps`, plus one in the first `residual`.
    #[inline]
    fn cover(&self, k: usize, slot: u32) -> impl Iterator<Item = (usize, u32)> + use<> {
        let (n, wraps, residual) = (self.ii as usize, self.wraps[k], self.residual[k]);
        let span = if wraps > 0 { self.ii } else { residual };
        (0..span).scan(slot as usize, move |idx, i| {
            let at = *idx;
            *idx = if at + 1 == n { 0 } else { at + 1 };
            Some((at, wraps + u32::from(i < residual)))
        })
    }
}

/// The first clear bit of `row` in `lo..hi` (`lo < hi`).
#[inline]
fn first_clear(row: &[u64], lo: usize, hi: usize) -> Option<usize> {
    let mut w = lo / 64;
    let mut open = !row[w] & (!0u64 << (lo % 64));
    loop {
        if open != 0 {
            let f = w * 64 + open.trailing_zeros() as usize;
            return (f < hi).then_some(f);
        }
        w += 1;
        if w * 64 >= hi {
            return None;
        }
        open = !row[w];
    }
}

/// The last clear bit of `row` in `lo..hi` (`lo < hi`).
#[inline]
fn last_clear(row: &[u64], lo: usize, hi: usize) -> Option<usize> {
    let last = hi - 1;
    let mut w = last / 64;
    let mut open = !row[w] & (!0u64 >> (63 - last % 64));
    loop {
        if open != 0 {
            let f = w * 64 + 63 - open.leading_zeros() as usize;
            return (f >= lo).then_some(f);
        }
        if w * 64 <= lo {
            return None;
        }
        w -= 1;
        open = !row[w];
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
                    self.usage(class, i64::from(cycle)),
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
    #[should_panic(expected = "slot 4 outside 0..4")]
    fn a_slot_past_ii_panics() {
        let m = MachineConfig::p1l4();
        Mrt::new(&m, 4).try_place_at(OpKind::Load, 4);
    }

    #[test]
    #[should_panic(expected = "removing unplaced")]
    fn removing_unplaced_op_panics() {
        let m = MachineConfig::p1l4();
        let mut mrt = Mrt::new(&m, 4);
        mrt.remove(OpKind::Load, 0);
    }

    /// A small seeded generator (splitmix64) for the randomized checks.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo) as u64) as i64
        }
    }

    /// The per-cycle table the flat one replaced: every occupied cycle of
    /// an operation wrapped on its own, and `fits` read off the counts.
    struct PerCycle<'m> {
        machine: &'m MachineConfig,
        ii: i64,
        usage: Vec<Vec<u32>>,
    }

    impl PerCycle<'_> {
        fn usage(&self, class: FuClass, t: i64) -> u32 {
            self.usage[class.index()][t.rem_euclid(self.ii) as usize]
        }

        fn fits(&self, kind: OpKind, t: i64) -> bool {
            let class = self.machine.class_of(kind);
            let (units, occ, ii) =
                (self.machine.units(class), self.machine.occupancy(kind), self.ii);
            let mut trial = self.usage[class.index()].clone();
            for i in 0..i64::from(occ) {
                trial[(t + i).rem_euclid(ii) as usize] += 1;
            }
            trial.iter().all(|&u| u <= units)
        }

        fn add(&mut self, kind: OpKind, t: i64, placed: bool) {
            let row = &mut self.usage[self.machine.class_of(kind).index()];
            for i in 0..i64::from(self.machine.occupancy(kind)) {
                let u = &mut row[(t + i).rem_euclid(self.ii) as usize];
                *u = if placed { *u + 1 } else { *u - 1 };
            }
        }
    }

    /// The table and the per-cycle one agree on every count, every
    /// saturation bit is `usage ≥ units` (and a class without units keeps
    /// its bits clear), the open-slot searches equal their per-cycle
    /// definitions on random windows, and the slot arithmetic equals
    /// `rem_euclid`.
    fn assert_matches(mrt: &Mrt, reference: &PerCycle<'_>, rng: &mut Rng, step: &str) {
        let ii = reference.ii;
        for class in FuClass::ALL {
            let units = reference.machine.units(class);
            let row = mrt.full_row(class);
            for (w, word) in row.iter().enumerate() {
                for b in 0..64 {
                    let t = (w * 64 + b) as i64;
                    let bit = word >> b & 1 == 1;
                    let full = t < ii && units > 0 && reference.usage(class, t) >= units;
                    assert_eq!(bit, full, "{step}: {class} bit {t}");
                }
            }
            for t in 0..ii {
                assert_eq!(
                    mrt.usage(class, t),
                    reference.usage(class, t),
                    "{step}: {class} {t}"
                );
            }
            for _ in 0..2 {
                let from = rng.range(-3 * ii, 3 * ii);
                let to = from + rng.range(0, ii + 6) - 1;
                let open = |t: &i64| reference.usage(class, *t) < units;
                let up = (from..=to.min(from + ii - 1)).find(open);
                let down = (from.max(to - ii + 1)..=to).rev().find(open);
                let window = format!("{step}: {class} over {from}..={to}");
                assert_eq!(mrt.first_open(class, from, to), up, "{window} upward");
                assert_eq!(mrt.last_open(class, from, to), down, "{window} downward");
            }
        }
        let t = rng.range(-3 * ii, 3 * ii);
        let d = rng.range(0, 3 * ii) as u64;
        assert_eq!(i64::from(mrt.slot(t)), t.rem_euclid(ii), "{step}: slot of {t}");
        let after = i64::from(mrt.slot_after(mrt.slot(t), d));
        assert_eq!(after, (t + d as i64).rem_euclid(ii), "{step}: {d} after {t}");
        let kind = OpKind::ALL[rng.range(0, OpKind::ALL.len() as i64) as usize];
        assert_eq!(mrt.fits(kind, t), reference.fits(kind, t), "{step}: fits {kind} at {t}");
    }

    /// Random `place`/`try_place`/`remove` sequences, through the cycle and
    /// the slot entry points, on the paper's machines, a uniform machine
    /// (four classes without units) and one with a non-pipelined memory
    /// class, at IIs below, at and above each occupancy and one, two and
    /// five words wide. After every step the table must match the
    /// per-cycle one ([`assert_matches`]).
    #[test]
    fn open_slot_search_and_slot_arithmetic_match_the_per_cycle_table() {
        let mut serial_mem = MachineConfig::p1l4();
        serial_mem.set_pipelined(FuClass::Memory, false);
        serial_mem.set_latency(OpKind::Load, 70);
        let machines = [
            MachineConfig::p1l4(),
            MachineConfig::p2l4(),
            MachineConfig::p2l6(),
            MachineConfig::uniform(2, 3),
            serial_mem,
        ];
        let mut rng = Rng(49626);
        for m in &machines {
            for ii in [1u32, 2, 17, 63, 64, 65, 130, 307] {
                let mut mrt = Mrt::new(m, ii);
                let ii = i64::from(ii);
                let classes = FuClass::ALL.len();
                let mut reference =
                    PerCycle { machine: m, ii, usage: vec![vec![0; ii as usize]; classes] };
                let mut placed: Vec<(OpKind, i64)> = Vec::new();
                // Passes of one kind over a band of consecutive cycles fill
                // every unit of whole stretches of a row, so the searches
                // meet long full runs.
                let (mut kind, mut band, mut start, mut pos) = (OpKind::Add, 1, 0, 0);
                for step in 0..ii.clamp(24, 120) * 3 {
                    if rng.range(0, 16) == 0 {
                        kind = OpKind::ALL[rng.range(0, OpKind::ALL.len() as i64) as usize];
                        (band, start, pos) =
                            (rng.range(1, 2 * ii + 1), rng.range(-3 * ii, 3 * ii), 0);
                    }
                    let by_slot = rng.range(0, 2) == 0;
                    let what = match rng.range(0, 10) {
                        0..=6 => {
                            let t = start + pos % band;
                            pos += 1;
                            let fits = reference.fits(kind, t);
                            let done = if by_slot {
                                let base = t - rng.range(0, 2 * ii);
                                let slot = mrt.slot_after(mrt.slot(base), (t - base) as u64);
                                mrt.try_place_at(kind, slot)
                            } else {
                                mrt.try_place(kind, t)
                            };
                            assert_eq!(done, fits, "try_place {kind} at {t}");
                            if done {
                                reference.add(kind, t, true);
                                placed.push((kind, t));
                            }
                            format!("try_place {kind} at {t}")
                        }
                        7 => {
                            let t = rng.range(-3 * ii, 3 * ii);
                            if !reference.fits(kind, t) {
                                continue;
                            }
                            mrt.place(kind, t);
                            reference.add(kind, t, true);
                            placed.push((kind, t));
                            format!("place {kind} at {t}")
                        }
                        _ => {
                            if placed.is_empty() {
                                continue;
                            }
                            let i = rng.range(0, placed.len() as i64) as usize;
                            let (k, t) = placed.swap_remove(i);
                            if by_slot {
                                mrt.remove_at(k, mrt.slot(t));
                            } else {
                                mrt.remove(k, t);
                            }
                            reference.add(k, t, false);
                            format!("remove {k} at {t}")
                        }
                    };
                    let step = format!("{} at II {ii}, step {step}: {what}", m.name());
                    assert_matches(&mrt, &reference, &mut rng, &step);
                }
            }
        }
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
