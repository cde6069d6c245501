//! The pluggable spill-policy registry.
//!
//! Spilling is split into three legs, and this module owns the middle one:
//!
//! 1. **analysis** — [`LifetimeAnalysis`](regpipe_regalloc::LifetimeAnalysis)
//!    plus [`candidates`](crate::candidates) turn a schedule into a pool of
//!    [`SpillCandidate`]s with their lifetimes, costs and next-use cycles;
//! 2. **candidate ranking** — a [`SpillPolicy`] orders the pool best-victim
//!    first (this module);
//! 3. **transform** — [`spill_batch`](crate::spill_batch) rewrites the graph
//!    for the chosen victims.
//!
//! `regpipe_core::compile` never ranks candidates itself: each spill round
//! builds the pool from that round's own lifetime analysis and hands it to
//! whichever [`SpillPolicyKind`] the compile options carry, in the same
//! registry shape as `regpipe_sched::SchedulerKind`.

use std::fmt;

use regpipe_regalloc::LifetimeAnalysis;

use crate::candidate::{
    key, paper_order, take_while_over_budget, SelectHeuristic, SpillCandidate,
};

/// The registered spill policies.
///
/// Slugs identify policies everywhere a result is keyed — report fields,
/// CLI flags, and the serve daemon's content-addressed cache key — so the
/// variants carry no payload.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SpillPolicyKind {
    /// The paper's Section 4.1 selection: rank by the configured
    /// [`SelectHeuristic`] (`Max(LT)` or `Max(LT/Traf)`). The default, and
    /// byte-identical to the pre-registry driver behaviour.
    #[default]
    Paper,
    /// Spill the value whose next use comes *soonest*. The contrarian
    /// counterpart of [`SpillPolicyKind::FurthestNextUse`]: reloads land
    /// close to the producer, so it trades pressure relief for locality.
    MinNextUse,
    /// Belady-style: spill the value whose next use is *furthest away*
    /// (the Braun & Hack ranking). Values idle the longest before their
    /// next consumption occupy a register least profitably.
    FurthestNextUse,
    /// Stress policy: a deterministic rotation over the identity-ordered
    /// pool, advanced by the reschedule round. Exists to exercise the
    /// spill strategy's convergence safeguards with adversarial victim choices,
    /// not to produce good schedules.
    RoundRobin,
}

impl SpillPolicyKind {
    /// Every registered policy, in registry order.
    pub const ALL: [SpillPolicyKind; 4] = [
        SpillPolicyKind::Paper,
        SpillPolicyKind::MinNextUse,
        SpillPolicyKind::FurthestNextUse,
        SpillPolicyKind::RoundRobin,
    ];

    /// The policy's stable identifier (CLI flag value, report field, cache
    /// key component).
    pub fn slug(self) -> &'static str {
        match self {
            SpillPolicyKind::Paper => "paper",
            SpillPolicyKind::MinNextUse => "min-next-use",
            SpillPolicyKind::FurthestNextUse => "furthest-next-use",
            SpillPolicyKind::RoundRobin => "round-robin",
        }
    }

    /// Parses a slug.
    ///
    /// # Errors
    ///
    /// Names the whole registry when the slug is unknown:
    ///
    /// ```
    /// use regpipe_spill::SpillPolicyKind;
    /// let err = SpillPolicyKind::parse("belady").unwrap_err();
    /// assert!(err.contains("unknown spill policy 'belady'"));
    /// assert!(err.contains("furthest-next-use"));
    /// ```
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "paper" => Ok(SpillPolicyKind::Paper),
            "min-next-use" => Ok(SpillPolicyKind::MinNextUse),
            "furthest-next-use" => Ok(SpillPolicyKind::FurthestNextUse),
            "round-robin" => Ok(SpillPolicyKind::RoundRobin),
            other => Err(format!(
                "unknown spill policy '{other}' (expected paper, min-next-use, \
                 furthest-next-use or round-robin)"
            )),
        }
    }
}

impl fmt::Display for SpillPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Everything a policy may rank over, besides the candidates themselves.
///
/// The fields of this struct *are* the determinism contract (see
/// [`SpillPolicy`]): a ranking must be a pure function of the candidate
/// pool and this context.
#[derive(Clone, Copy, Debug)]
pub struct RankContext<'a> {
    /// Lifetime analysis of the schedule the candidates were drawn from
    /// (provides next-use cycles, `MaxLive` and the II).
    pub analysis: &'a LifetimeAnalysis,
    /// The Section 4.1 heuristic; only [`SpillPolicyKind::Paper`] consults
    /// it, the next-use policies rank on the analysis alone.
    pub heuristic: SelectHeuristic,
    /// Completed reschedule rounds of the driving loop; only
    /// [`SpillPolicyKind::RoundRobin`] consults it.
    pub round: usize,
}

/// The candidate-ranking leg of the spill pipeline.
///
/// # Determinism contract
///
/// [`SpillPolicy::order`] must be a **pure function of the candidate pool
/// and the [`RankContext`]** — the lifetime analysis, the configured
/// heuristic, and the round counter. No hidden state, no iteration-order
/// dependence, no floating-point environment sensitivity: two calls with
/// equal inputs must produce the identical permutation, and the ordering
/// must be *total* (every tie broken, ultimately by candidate identity).
/// The batch engine, the serve cache and the differential oracle harness
/// all rely on this to reproduce results byte-identically at any job
/// count, on any transport, cached or not.
///
/// ```
/// use regpipe_ddg::{DdgBuilder, OpKind};
/// use regpipe_regalloc::LifetimeAnalysis;
/// use regpipe_sched::Schedule;
/// use regpipe_spill::{candidates, RankContext, SelectHeuristic, SpillPolicy, SpillPolicyKind};
///
/// let mut b = DdgBuilder::new("fig2");
/// let ld = b.add_op(OpKind::Load, "Ld");
/// let mul = b.add_op(OpKind::Mul, "*");
/// let add = b.add_op(OpKind::Add, "+");
/// let st = b.add_op(OpKind::Store, "St");
/// b.reg(ld, mul);
/// b.reg_dist(ld, add, 3);
/// b.reg(mul, add);
/// b.reg(add, st);
/// let g = b.build()?;
/// let schedule = Schedule::new(1, vec![0, 2, 4, 6]);
/// let analysis = LifetimeAnalysis::new(&g, &schedule);
/// let pool = candidates(&g, &analysis);
/// let ctx = RankContext { analysis: &analysis, heuristic: SelectHeuristic::MaxLt, round: 0 };
///
/// for policy in SpillPolicyKind::ALL {
///     // Same inputs, same permutation — the contract every policy obeys.
///     let a: Vec<_> = policy.ranked(&pool, &ctx);
///     let b: Vec<_> = policy.ranked(&pool, &ctx);
///     assert_eq!(a, b, "{policy} must rank deterministically");
/// }
/// # Ok::<(), regpipe_ddg::DdgError>(())
/// ```
pub trait SpillPolicy {
    /// Permutes `pool` so the best victim comes first, under the contract
    /// above.
    fn order(&self, pool: &mut [&SpillCandidate], ctx: &RankContext<'_>);

    /// The full ranking of `candidates`, best victim first.
    fn ranked<'a>(
        &self,
        candidates: &'a [SpillCandidate],
        ctx: &RankContext<'_>,
    ) -> Vec<&'a SpillCandidate> {
        let mut pool: Vec<&SpillCandidate> = candidates.iter().collect();
        self.order(&mut pool, ctx);
        pool
    }

    /// Picks the single best victim (the non-accelerated spill path).
    fn select<'a>(
        &self,
        candidates: &'a [SpillCandidate],
        ctx: &RankContext<'_>,
    ) -> Option<&'a SpillCandidate> {
        self.ranked(candidates, ctx).first().copied()
    }

    /// Greedy batch selection for the *multiple lifetimes at once*
    /// acceleration (Section 4.5), generic over the policy's order: keeps
    /// taking the next-ranked candidate while the optimistic
    /// `MaxLive`-based estimate stays at or above the register budget
    /// `available`. The estimate subtracts each victim's
    /// concurrent-instance count (`⌈lifetime / II⌉`, at least 1) and is
    /// deliberately optimistic so "spill code is not added in excess".
    fn select_batch<'a>(
        &self,
        candidates: &'a [SpillCandidate],
        ctx: &RankContext<'_>,
        available: u32,
    ) -> Vec<&'a SpillCandidate> {
        let (max_live, ii) = (ctx.analysis.max_live(), ctx.analysis.ii());
        take_while_over_budget(self.ranked(candidates, ctx), max_live, available, ii)
    }
}

impl SpillPolicy for SpillPolicyKind {
    fn order(&self, pool: &mut [&SpillCandidate], ctx: &RankContext<'_>) {
        // The paper ordering also breaks the next-use policies' distance
        // ties, so those stay total (and sensible) when distances collide.
        let paper = |a: &&SpillCandidate, b: &&SpillCandidate| paper_order(a, b, ctx.heuristic);
        match self {
            SpillPolicyKind::Paper => pool.sort_by(paper),
            SpillPolicyKind::MinNextUse => {
                pool.sort_by(|a, b| next_use_order(a, b, ctx).then(paper(a, b)))
            }
            SpillPolicyKind::FurthestNextUse => {
                pool.sort_by(|a, b| next_use_order(b, a, ctx).then(paper(a, b)))
            }
            SpillPolicyKind::RoundRobin => {
                pool.sort_by_key(|c| key(c));
                if !pool.is_empty() {
                    pool.rotate_left(ctx.round % pool.len());
                }
            }
        }
    }
}

/// Ascending next-use-distance order (`a` before `b` when `a`'s next use
/// comes sooner).
fn next_use_order(
    a: &SpillCandidate,
    b: &SpillCandidate,
    ctx: &RankContext<'_>,
) -> std::cmp::Ordering {
    next_use_distance(a, ctx).cmp(&next_use_distance(b, ctx))
}

/// Cycles from production to the candidate's first consumption.
///
/// Invariants have no producer in the schedule; they are live across the
/// whole kernel, so their next-use distance is defined as one II — the
/// furthest any use can be from "now" within the steady state.
fn next_use_distance(c: &SpillCandidate, ctx: &RankContext<'_>) -> i64 {
    match *c {
        SpillCandidate::Variant { producer, .. } => {
            ctx.analysis.lifetime(producer).map_or(i64::MAX, |lt| lt.next_use_distance())
        }
        SpillCandidate::Invariant { .. } => i64::from(ctx.analysis.ii()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::candidates;
    use regpipe_ddg::{Ddg, DdgBuilder, OpKind};
    use regpipe_sched::Schedule;

    fn fig2() -> (Ddg, LifetimeAnalysis) {
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
        let s = Schedule::new(1, vec![0, 2, 4, 6]);
        let analysis = LifetimeAnalysis::new(&g, &s);
        (g, analysis)
    }

    fn ctx(analysis: &LifetimeAnalysis) -> RankContext<'_> {
        RankContext { analysis, heuristic: SelectHeuristic::MaxLt, round: 0 }
    }

    #[test]
    fn slugs_roundtrip_and_unknowns_are_named() {
        for kind in SpillPolicyKind::ALL {
            assert_eq!(SpillPolicyKind::parse(kind.slug()), Ok(kind));
            assert_eq!(kind.to_string(), kind.slug());
        }
        let err = SpillPolicyKind::parse("lru").unwrap_err();
        assert!(err.contains("unknown spill policy 'lru'"), "{err}");
        for kind in SpillPolicyKind::ALL {
            assert!(err.contains(kind.slug()), "error names {kind}: {err}");
        }
    }

    #[test]
    fn default_is_the_paper_policy() {
        assert_eq!(SpillPolicyKind::default(), SpillPolicyKind::Paper);
    }

    #[test]
    fn min_next_use_prefers_the_soonest_consumed_value() {
        let (g, analysis) = fig2();
        let pool = candidates(&g, &analysis);
        let ctx = ctx(&analysis);
        // Distances: V1 -> 2 (the multiply), V2 -> 2 (the add at 4 minus
        // start 2), V3 -> 2, invariant -> II = 1. The invariant wins.
        let best = SpillPolicyKind::MinNextUse.select(&pool, &ctx).unwrap();
        assert!(matches!(best, SpillCandidate::Invariant { .. }), "got {best}");
        // FurthestNextUse puts the invariant last for the same reason.
        let ranked = SpillPolicyKind::FurthestNextUse.ranked(&pool, &ctx);
        assert!(matches!(ranked.last().unwrap(), SpillCandidate::Invariant { .. }));
    }

    #[test]
    fn furthest_next_use_is_min_reversed_modulo_ties() {
        let (g, analysis) = fig2();
        let pool = candidates(&g, &analysis);
        let ctx = ctx(&analysis);
        let min: Vec<i64> = SpillPolicyKind::MinNextUse
            .ranked(&pool, &ctx)
            .iter()
            .map(|c| next_use_distance(c, &ctx))
            .collect();
        let max: Vec<i64> = SpillPolicyKind::FurthestNextUse
            .ranked(&pool, &ctx)
            .iter()
            .map(|c| next_use_distance(c, &ctx))
            .collect();
        let mut reversed = max.clone();
        reversed.reverse();
        assert_eq!(min, reversed, "distance sequences mirror each other");
        assert!(min.windows(2).all(|w| w[0] <= w[1]), "min ascends: {min:?}");
    }

    #[test]
    fn round_robin_rotates_with_the_round_counter() {
        let (g, analysis) = fig2();
        let pool = candidates(&g, &analysis);
        let n = pool.len();
        assert!(n >= 2);
        let mut firsts = Vec::new();
        for round in 0..n {
            let ctx =
                RankContext { analysis: &analysis, heuristic: SelectHeuristic::MaxLt, round };
            firsts.push(SpillPolicyKind::RoundRobin.select(&pool, &ctx).unwrap().clone());
            // One full rotation returns to the start.
            let wrapped = RankContext { round: round + n, ..ctx };
            assert_eq!(
                SpillPolicyKind::RoundRobin.select(&pool, &ctx),
                SpillPolicyKind::RoundRobin.select(&pool, &wrapped),
            );
        }
        firsts.sort_by_key(key);
        firsts.dedup();
        assert_eq!(firsts.len(), n, "every candidate gets a turn as victim");
    }

    #[test]
    fn batch_selection_respects_every_policy_order() {
        let (g, analysis) = fig2();
        let pool = candidates(&g, &analysis);
        let ctx = ctx(&analysis);
        for policy in SpillPolicyKind::ALL {
            let ranked = policy.ranked(&pool, &ctx);
            let batch = policy.select_batch(&pool, &ctx, 2);
            assert!(!batch.is_empty(), "{policy} must make progress over budget");
            assert_eq!(&ranked[..batch.len()], &batch[..], "{policy} takes a prefix");
            assert!(policy.select_batch(&pool, &ctx, 32).is_empty(), "{policy} under budget");
        }
    }

    #[test]
    fn empty_pools_are_handled() {
        let (_, analysis) = fig2();
        let ctx = ctx(&analysis);
        for policy in SpillPolicyKind::ALL {
            assert!(policy.select(&[], &ctx).is_none());
            assert!(policy.select_batch(&[], &ctx, 0).is_empty());
        }
    }
}
