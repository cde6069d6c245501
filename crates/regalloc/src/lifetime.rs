//! Lifetime analysis for modulo schedules.

use std::fmt;

use regpipe_ddg::{Ddg, OpId};
use regpipe_sched::Schedule;

/// The lifetime of one loop variant under a given schedule.
///
/// Following the paper's model, a value is live from the *start* of its
/// producer until the *start* of its last consumer (in absolute steady-state
/// time, i.e. accounting for loop-carried consumption δ·II cycles later).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lifetime {
    producer: OpId,
    start: i64,
    end: i64,
    next_use: i64,
    sched_component: i64,
    dist_component: i64,
    last_consumer: OpId,
}

impl Lifetime {
    /// The producing operation (the variant's identity).
    pub fn producer(&self) -> OpId {
        self.producer
    }

    /// Start cycle (the producer's issue cycle).
    pub fn start(&self) -> i64 {
        self.start
    }

    /// End cycle (issue cycle of the last consumer, plus δ·II if the last
    /// use is loop-carried). The value is live during `[start, end)`.
    pub fn end(&self) -> i64 {
        self.end
    }

    /// Total length in cycles (`LTSch + LTDist`).
    pub fn length(&self) -> i64 {
        self.end - self.start
    }

    /// Issue cycle of the *earliest* consumer (plus δ·II for loop-carried
    /// consumption) — the value's next use after being produced. Spill
    /// policies in the Braun & Hack tradition rank victims by the distance
    /// from [`Lifetime::start`] to this cycle.
    pub fn next_use(&self) -> i64 {
        self.next_use
    }

    /// Cycles from production to the first consumption
    /// (`next_use - start`). Can be 0 when one consumer fires at the
    /// production cycle while a later consumer keeps the value live.
    pub fn next_use_distance(&self) -> i64 {
        self.next_use - self.start
    }

    /// The scheduling component `LTSch` (Section 2.4): the distance in the
    /// *schedule* between producer and last consumer. Shrinks (in register
    /// terms) when the II is increased.
    pub fn sched_component(&self) -> i64 {
        self.sched_component
    }

    /// The distance component `LTDist = δ·II` (Section 2.4): grows
    /// proportionally to the II — the registers it requires can never be
    /// reduced by rescheduling with a larger II.
    pub fn dist_component(&self) -> i64 {
        self.dist_component
    }

    /// The consumer that keeps the value alive longest.
    pub fn last_consumer(&self) -> OpId {
        self.last_consumer
    }

    /// The number of simultaneously live instances of this variant
    /// (`⌈length / II⌉`): a lower bound on the registers it occupies alone.
    pub fn concurrent_instances(&self, ii: u32) -> u32 {
        let ii = i64::from(ii);
        u32::try_from((self.length() + ii - 1).div_euclid(ii).max(0)).unwrap_or(u32::MAX)
    }
}

impl fmt::Display for Lifetime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}, {}) len {} (sched {} + dist {})",
            self.producer,
            self.start,
            self.end,
            self.length(),
            self.sched_component,
            self.dist_component
        )
    }
}

/// Lifetimes, register pressure and `MaxLive` for a schedule.
#[derive(Clone, Debug)]
pub struct LifetimeAnalysis {
    ii: u32,
    /// Lifetime per op (None for stores, dead values, zero-length values).
    lifetimes: Vec<Option<Lifetime>>,
    /// Live loop-variant values per kernel cycle (variants only).
    pressure: Vec<u32>,
    live_invariants: u32,
    max_live: u32,
}

impl LifetimeAnalysis {
    /// Analyzes `schedule` for `ddg`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover the graph.
    pub fn new(ddg: &Ddg, schedule: &Schedule) -> Self {
        assert_eq!(ddg.num_ops(), schedule.num_ops(), "schedule/graph mismatch");
        let ii = schedule.ii();
        let ii64 = i64::from(ii);
        let mut lifetimes: Vec<Option<Lifetime>> = vec![None; ddg.num_ops()];
        let mut pressure = vec![0u32; ii as usize];

        for (id, node) in ddg.ops() {
            if !node.kind().defines_value() {
                continue;
            }
            let start = schedule.start(id);
            let mut best: Option<(i64, i64, OpId)> = None; // (end, dist_comp, consumer)
            let mut next_use = i64::MAX;
            for (consumer, dist) in ddg.reg_consumers(id) {
                let end = schedule.start(consumer) + i64::from(dist) * ii64;
                if best.is_none_or(|(e, _, _)| end > e) {
                    best = Some((end, i64::from(dist) * ii64, consumer));
                }
                next_use = next_use.min(end);
            }
            let Some((end, dist_component, last_consumer)) = best else {
                continue; // dead value: no register lifetime
            };
            if end <= start {
                continue; // zero-length: consumed as produced
            }
            cover(&mut pressure, start, end);
            lifetimes[id.index()] = Some(Lifetime {
                producer: id,
                start,
                end,
                next_use,
                sched_component: end - dist_component - start,
                dist_component,
                last_consumer,
            });
        }

        let live_invariants =
            u32::try_from(ddg.num_live_invariants()).expect("invariant count overflows u32");
        let max_live = pressure.iter().copied().max().unwrap_or(0) + live_invariants;
        LifetimeAnalysis { ii, lifetimes, pressure, live_invariants, max_live }
    }

    /// The schedule's initiation interval.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The lifetime of the value defined by `op`, if it has one.
    pub fn lifetime(&self, op: OpId) -> Option<&Lifetime> {
        self.lifetimes.get(op.index()).and_then(Option::as_ref)
    }

    /// All live lifetimes.
    pub fn lifetimes(&self) -> impl Iterator<Item = &Lifetime> {
        self.lifetimes.iter().flatten()
    }

    /// Loop-variant register pressure at each kernel cycle (Figure 2f).
    pub fn pressure(&self) -> &[u32] {
        &self.pressure
    }

    /// Number of loop invariants currently occupying a register.
    pub fn live_invariants(&self) -> u32 {
        self.live_invariants
    }

    /// `MaxLive`: the maximum number of simultaneously live values
    /// (loop variants at the worst kernel cycle, plus the invariants, which
    /// are live everywhere). An accurate lower bound on the registers
    /// required by the schedule.
    pub fn max_live(&self) -> u32 {
        self.max_live
    }

    /// `MaxLive` restricted to loop variants (the quantity the paper plots
    /// in its per-loop examples).
    pub fn max_live_variants(&self) -> u32 {
        self.max_live - self.live_invariants
    }

    /// Sum of the distance components, in registers (`Σ ⌈LTDist / II⌉`):
    /// the schedule-independent register floor contributed by loop-carried
    /// dependences (paper Section 3.1).
    pub fn distance_component_regs(&self) -> u32 {
        let ii = i64::from(self.ii);
        self.lifetimes()
            .map(|lt| u32::try_from((lt.dist_component() + ii - 1).div_euclid(ii)).unwrap_or(0))
            .sum()
    }
}

/// Adds the lifetime `[start, end)` to the per-slot `pressure` of a
/// kernel with II `pressure.len()`, in closed form: the value covers every
/// slot `⌊L/II⌋` times for its length `L`, plus once more for the `L mod
/// II` slots that follow `start`. The work is bounded by the II, not by
/// `L`.
fn cover(pressure: &mut [u32], start: i64, end: i64) {
    let ii = pressure.len() as i64;
    let len = end - start;
    let laps = u32::try_from(len / ii).unwrap_or(u32::MAX);
    if laps > 0 {
        for slot in pressure.iter_mut() {
            *slot = slot.saturating_add(laps);
        }
    }
    let first = start.rem_euclid(ii);
    for k in 0..len % ii {
        let slot = &mut pressure[((first + k) % ii) as usize];
        *slot = slot.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::DdgBuilder;
    use regpipe_ddg::OpKind;

    /// The paper's running example with its hand schedule at a given II.
    fn fig2(ii: u32) -> (Ddg, Schedule) {
        let mut b = DdgBuilder::new("fig2");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg_dist(ld, add, 3);
        b.reg(mul, add);
        b.reg(add, st);
        b.invariant("a", &[mul]);
        let g = b.build().unwrap();
        let s = Schedule::new(ii, vec![0, 2, 4, 6]);
        (g, s)
    }

    #[test]
    fn fig2_lifetimes_match_paper() {
        let (g, s) = fig2(1);
        let lt = LifetimeAnalysis::new(&g, &s);
        let v1 = lt.lifetime(OpId::new(0)).unwrap();
        assert_eq!(v1.sched_component(), 4, "LTSch of V1 (Figure 2d)");
        assert_eq!(v1.dist_component(), 3, "LTDist of V1 at II=1");
        assert_eq!(v1.length(), 7);
        assert_eq!(v1.last_consumer(), OpId::new(2));
        let v2 = lt.lifetime(OpId::new(1)).unwrap();
        assert_eq!(v2.length(), 2);
        assert_eq!(v2.dist_component(), 0);
        // Store defines nothing.
        assert!(lt.lifetime(OpId::new(3)).is_none());
    }

    #[test]
    fn fig2_maxlive_is_11_variants_plus_invariant() {
        let (g, s) = fig2(1);
        let lt = LifetimeAnalysis::new(&g, &s);
        assert_eq!(lt.max_live_variants(), 11, "Figure 2f");
        assert_eq!(lt.live_invariants(), 1);
        assert_eq!(lt.max_live(), 12);
    }

    #[test]
    fn fig3_increasing_ii_to_2_drops_variants_to_7() {
        // Same start cycles, II = 2 (the paper's Figure 3).
        let (g, s) = fig2(2);
        let lt = LifetimeAnalysis::new(&g, &s);
        assert_eq!(lt.max_live_variants(), 7, "Figure 3d");
        // The scheduling component is unchanged; the distance component
        // doubled from 3 to 6 cycles.
        let v1 = lt.lifetime(OpId::new(0)).unwrap();
        assert_eq!(v1.sched_component(), 4);
        assert_eq!(v1.dist_component(), 6);
    }

    #[test]
    fn next_use_is_the_earliest_consumption() {
        let (g, s) = fig2(1);
        let lt = LifetimeAnalysis::new(&g, &s);
        // V1 is consumed by the multiply at cycle 2 and (3 iterations
        // later) by the add at 4 + 3·II = 7: the next use is the multiply.
        let v1 = lt.lifetime(OpId::new(0)).unwrap();
        assert_eq!(v1.next_use(), 2);
        assert_eq!(v1.next_use_distance(), 2);
        assert_eq!(v1.end(), 7, "last use stays the loop-carried add");
        // Single-consumer lifetimes have next use == end.
        let v2 = lt.lifetime(OpId::new(1)).unwrap();
        assert_eq!(v2.next_use(), v2.end());
    }

    #[test]
    fn concurrent_instances_counts_overlap() {
        let (g, s) = fig2(1);
        let lt = LifetimeAnalysis::new(&g, &s);
        let v1 = lt.lifetime(OpId::new(0)).unwrap();
        assert_eq!(v1.concurrent_instances(1), 7, "7 cycles at II 1");

        let (g2, s2) = fig2(2);
        let lt2 = LifetimeAnalysis::new(&g2, &s2);
        let v1 = lt2.lifetime(OpId::new(0)).unwrap();
        assert_eq!(v1.length(), 10, "LTSch 4 + LTDist 6 at II 2");
        assert_eq!(v1.concurrent_instances(2), 5, "10 cycles / II 2");
    }

    #[test]
    fn distance_component_floor() {
        let (g, s) = fig2(1);
        let lt = LifetimeAnalysis::new(&g, &s);
        // Only V1 has a distance component: 3 registers at any II.
        assert_eq!(lt.distance_component_regs(), 3);
        let (g2, s2) = fig2(2);
        let lt2 = LifetimeAnalysis::new(&g2, &s2);
        assert_eq!(lt2.distance_component_regs(), 3, "floor is II-invariant");
    }

    #[test]
    fn dead_and_zero_length_values_have_no_lifetime() {
        let mut b = DdgBuilder::new("dead");
        let a = b.add_op(OpKind::Add, "a"); // dead: no consumers
        let c = b.add_op(OpKind::Copy, "c");
        let d = b.add_op(OpKind::Store, "d");
        b.reg(c, d);
        let g = b.build().unwrap();
        // c@0, d@0: zero-length lifetime (consumed at birth).
        let s = Schedule::from_fixed(1, &[(a, 0), (c, 0), (d, 0)]);
        let lt = LifetimeAnalysis::new(&g, &s);
        assert!(lt.lifetime(a).is_none());
        assert!(lt.lifetime(c).is_none());
        assert_eq!(lt.max_live(), 0);
    }

    #[test]
    fn pressure_wraps_modulo_ii() {
        let mut b = DdgBuilder::new("wrap");
        let p = b.add_op(OpKind::Add, "p");
        let c = b.add_op(OpKind::Copy, "c");
        b.reg(p, c);
        let g = b.build().unwrap();
        // p@1, c@4 normalizes to p@0, c@3 at II=2: live cycles 0,1,2 ->
        // kernel pressure [2, 1] (cycle 0 carries both instance overlaps).
        let s = Schedule::from_fixed(2, &[(p, 1), (c, 4)]);
        let lt = LifetimeAnalysis::new(&g, &s);
        assert_eq!(lt.pressure(), &[2, 1]);
        assert_eq!(lt.max_live(), 2);
    }

    /// The closed form of [`cover`] equals adding the lifetime one cycle at
    /// a time, on seeded random lifetimes up to 50·II long.
    #[test]
    fn closed_form_pressure_matches_the_per_cycle_count() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..500 {
            let ii = rng.random_range(1i64..=24);
            let mut closed = vec![0u32; ii as usize];
            let mut reference = vec![0u32; ii as usize];
            for _ in 0..rng.random_range(1..=8) {
                let start = rng.random_range(-3 * ii..=3 * ii);
                let end = start + rng.random_range(1..=50 * ii);
                cover(&mut closed, start, end);
                for t in start..end {
                    reference[t.rem_euclid(ii) as usize] += 1;
                }
            }
            assert_eq!(closed, reference, "II {ii}");
        }
    }

    #[test]
    fn spilled_invariants_do_not_count() {
        let mut b = DdgBuilder::new("inv");
        let a = b.add_op(OpKind::Add, "a");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(a, st);
        let iv = b.invariant("k", &[a]);
        let mut g = b.build().unwrap();
        let s = Schedule::new(1, vec![0, 4]);
        assert_eq!(LifetimeAnalysis::new(&g, &s).live_invariants(), 1);
        g.invariant_mut(iv).mark_spilled();
        assert_eq!(LifetimeAnalysis::new(&g, &s).live_invariants(), 0);
    }
}
