//! An exact modulo scheduler: branch-and-bound over the modulo-schedule
//! space, used as the *optimality oracle* the heuristic registry is
//! measured against (`regpipe gap`).
//!
//! The search enumerates candidate IIs from `max(MII, min_ii)` upward.
//! For each II it decides feasibility by a depth-first search over the
//! complex-operation groups (recurrence sets first, in the shared
//! [`LoopAnalysis`] priority order), assigning each group a start cycle
//! from a finite window and placing its members transactionally in a
//! modulo reservation table. The first feasible II is **optimal**,
//! because every smaller II in range was exhaustively refuted.
//!
//! # Pruning
//!
//! * **Lower bounds**: the II sweep starts at `max(ResMII, RecMII)` from
//!   the cached analysis, so no II below the classical bounds is ever
//!   searched.
//! * **Positive-cycle refutation**: the context's group constraint graph
//!   at a candidate II (edge weight `lat − II·δ`, with the bond offsets
//!   folded into `lat` once per loop) is checked for positive cycles; one
//!   positive cycle refutes the II without any enumeration, and so does a
//!   dependence inside a group that the bond offsets break at this II.
//! * **Finite complete windows**: each group's start is searched in
//!   `[est, est + (G+2)·II]`, where `est` is the least fixpoint of the
//!   difference constraints floored at 0. Any feasible schedule can be
//!   retimed — shifting operations by multiples of II, which preserves
//!   both the reservation table and all dependences — into these windows,
//!   so an exhausted search is a proof of infeasibility (see
//!   `docs/algorithms.md` for the argument).
//! * **Incremental bounds consistency**: every placement propagates
//!   earliest/latest bounds through the difference constraints with a
//!   trail-based undo stack; an empty window anywhere prunes the subtree.
//! * **Incumbent capping**: an HRMS schedule (computed through the same
//!   context) seeds the search, so the II sweep never probes beyond the
//!   heuristic's II — at that II the incumbent itself is the witness.
//!
//! # Budget, not wall clock
//!
//! The search is bounded by a **node budget** (one node per placement
//! attempt) rather than a timeout, so results are bit-reproducible on any
//! machine at any parallelism — the property every `BENCH_*.json`
//! determinism gate in this repository rests on. When the budget runs
//! out the scheduler returns the best schedule found so far and reports
//! [`ExactStatus::BudgetExhausted`]; it never silently claims optimality.

use regpipe_machine::Mrt;

use crate::loop_analysis::LoopAnalysis;
use crate::{SchedError, SchedRequest, Schedule, Scheduler, SchedulerKind};

/// Default node budget: generous for the small kernels the oracle is
/// meant for (a node is one placement attempt; ≤ ~12-op kernels usually
/// prove optimality in well under a thousand nodes).
pub const DEFAULT_NODE_BUDGET: u64 = 200_000;

/// How an [`ExactOutcome`] was concluded.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExactStatus {
    /// The schedule's II is proven optimal: every smaller II at or above
    /// the request's lower bound was exhaustively refuted.
    Proven,
    /// The node budget ran out first. The schedule is the best found so
    /// far (typically the HRMS incumbent) and carries no optimality
    /// claim.
    BudgetExhausted,
}

/// The result of an exact scheduling run: the best schedule found plus
/// an explicit statement of what was proven about it.
#[derive(Clone, Debug)]
pub struct ExactOutcome {
    /// The best schedule found (II-optimal iff `status` is `Proven`).
    pub schedule: Schedule,
    /// Whether the schedule's II is proven optimal.
    pub status: ExactStatus,
    /// Search nodes spent (placement attempts plus per-II overheads).
    pub nodes: u64,
    /// Whether the schedule's span (and hence stage count) is also
    /// proven minimal *at its II*. Span is tightened with leftover
    /// budget after the II proof; it may remain unproven even when the
    /// II is proven.
    pub span_proven: bool,
}

impl ExactOutcome {
    /// Whether the schedule's II is proven optimal.
    pub fn proven(&self) -> bool {
        self.status == ExactStatus::Proven
    }
}

/// The exact branch-and-bound modulo scheduler.
///
/// The search and pruning rules are specified in
/// `docs/algorithms.md` ("The exact oracle: branch and bound").
/// [`ExactScheduler::solve_in`] returns the best schedule found within
/// the node budget and whether it is proven optimal;
/// [`SchedulerKind::Exact`] runs it at the default budget and keeps only
/// the schedule.
#[derive(Clone, Copy, Debug)]
pub struct ExactScheduler {
    node_budget: u64,
}

impl Default for ExactScheduler {
    fn default() -> Self {
        ExactScheduler { node_budget: DEFAULT_NODE_BUDGET }
    }
}

impl ExactScheduler {
    /// The scheduler with the default node budget
    /// ([`DEFAULT_NODE_BUDGET`]). This is the configuration registered
    /// as `SchedulerKind::Exact`, so cache keys and reports that carry
    /// only the scheduler slug stay unambiguous.
    pub fn new() -> Self {
        ExactScheduler::default()
    }

    /// The scheduler with an explicit node budget (the `gap` verb's
    /// `--node-budget` knob). A budget of 0 proves nothing: the run
    /// returns the heuristic incumbent with
    /// [`ExactStatus::BudgetExhausted`].
    pub fn with_budget(node_budget: u64) -> Self {
        ExactScheduler { node_budget }
    }

    /// The configured node budget.
    pub fn node_budget(&self) -> u64 {
        self.node_budget
    }

    /// Runs the full search on a prebuilt context and reports the
    /// outcome, including proof status and nodes spent.
    ///
    /// # Errors
    ///
    /// [`SchedError::InfeasibleRequest`] for an empty II range and
    /// [`SchedError::NoScheduleUpTo`] when no schedule was found at all
    /// (every II in range refuted, or the budget ran out before any
    /// schedule — including the heuristic incumbent's — was obtained).
    pub fn solve_in(
        &self,
        ctx: &LoopAnalysis<'_>,
        request: &SchedRequest,
    ) -> Result<ExactOutcome, SchedError> {
        let lower = ctx.mii().max(request.min_ii.unwrap_or(1));
        let upper = request.max_ii.unwrap_or_else(|| ctx.fallback_max_ii());
        if upper < lower {
            return Err(SchedError::InfeasibleRequest { min_ii: lower, max_ii: upper });
        }

        // The heuristic incumbent: upper-bounds the II sweep and is the
        // best-so-far schedule whenever the budget runs out early.
        let incumbent = SchedulerKind::Hrms.schedule_in(ctx, request).ok();
        let mut budget = Budget::new(self.node_budget);
        let mut iis_tried = 0u32;
        let sweep_upper = incumbent.as_ref().map_or(upper, |s| s.ii().min(upper));

        let mut witness: Option<(u32, Vec<i64>)> = None;
        for ii in lower..=sweep_upper {
            iis_tried += 1;
            if !budget.charge() {
                return self.exhausted(incumbent, ii, iis_tried, budget.used);
            }
            if incumbent.as_ref().is_some_and(|s| s.ii() == ii) {
                // The incumbent witnesses feasibility at this II; charge
                // one node for the conclusion so a starved budget still
                // reports exhaustion instead of a free proof.
                if !budget.charge() {
                    return self.exhausted(incumbent, ii, iis_tried, budget.used);
                }
                let starts = incumbent.as_ref().expect("checked").starts().to_vec();
                witness = Some((ii, starts));
                break;
            }
            match decide(ctx, ii, None, &mut budget) {
                Decision::Sat(starts) => {
                    witness = Some((ii, starts));
                    break;
                }
                Decision::Unsat => {}
                Decision::Exhausted => {
                    return self.exhausted(incumbent, ii, iis_tried, budget.used);
                }
            }
        }

        let Some((ii, starts)) = witness else {
            // Every II in [lower, upper] was exhaustively refuted (the
            // sweep is only capped below `upper` when an incumbent
            // exists, and then the incumbent's own II yields a witness).
            return Err(SchedError::NoScheduleUpTo { max_ii: upper });
        };

        // II proven optimal. Tighten the span with the remaining budget:
        // repeatedly ask for a schedule whose last start beats the best
        // witness. An exhausted tightening search proves span minimality
        // at this II; running out of budget leaves it honest-but-open.
        let mut best = Schedule::with_provenance(ii, starts, "exact", iis_tried);
        if let Some(inc) = &incumbent {
            if inc.ii() == ii && inc.last_start() < best.last_start() {
                best = Schedule::with_provenance(ii, inc.starts().to_vec(), "exact", iis_tried);
            }
        }
        let mut span_proven = false;
        loop {
            let target = best.last_start() - 1;
            if target < 0 {
                span_proven = true;
                break;
            }
            if !budget.charge() {
                break;
            }
            match decide(ctx, ii, Some(target), &mut budget) {
                Decision::Sat(starts) => {
                    best = Schedule::with_provenance(ii, starts, "exact", iis_tried);
                }
                Decision::Unsat => {
                    span_proven = true;
                    break;
                }
                Decision::Exhausted => break,
            }
        }

        Ok(ExactOutcome {
            schedule: best,
            status: ExactStatus::Proven,
            nodes: budget.used,
            span_proven,
        })
    }

    /// The outcome when the budget runs out at `ii`: the incumbent, or
    /// no schedule found up to `ii` without one.
    fn exhausted(
        &self,
        incumbent: Option<Schedule>,
        ii: u32,
        iis_tried: u32,
        nodes: u64,
    ) -> Result<ExactOutcome, SchedError> {
        match incumbent {
            Some(s) => {
                let schedule =
                    Schedule::with_provenance(s.ii(), s.starts().to_vec(), "exact", iis_tried);
                Ok(ExactOutcome {
                    schedule,
                    status: ExactStatus::BudgetExhausted,
                    nodes,
                    span_proven: false,
                })
            }
            None => Err(SchedError::NoScheduleUpTo { max_ii: ii }),
        }
    }
}

// ----------------------------------------------------------------------
// The per-II decision search
// ----------------------------------------------------------------------

/// A deterministic node-budget meter. `charge` refuses once the budget
/// is spent, so a budget of 0 can never conclude anything.
struct Budget {
    used: u64,
    limit: u64,
}

impl Budget {
    fn new(limit: u64) -> Self {
        Budget { used: 0, limit }
    }

    fn charge(&mut self) -> bool {
        if self.used >= self.limit {
            return false;
        }
        self.used += 1;
        // The cooperative deadline check-point: every 1024 nodes is often
        // enough to bound latency and rare enough to cost nothing.
        if self.used & 0x3FF == 0 {
            crate::deadline::check();
        }
        true
    }
}

/// Outcome of one fixed-II (optionally span-capped) decision search.
enum Decision {
    /// A feasible assignment of start cycles (per op, unnormalized).
    Sat(Vec<i64>),
    /// The search space was exhausted: provably no schedule at this II
    /// (within the span cap, when one was given).
    Unsat,
    /// The node budget ran out mid-search: no conclusion.
    Exhausted,
}

/// Which window bound a trail entry restores.
#[derive(Clone, Copy)]
enum Bound {
    Lo,
    Hi,
}

/// Decides whether a modulo schedule exists at `ii` (with every start
/// cycle at most `cutoff`, when given); see the module docs for the
/// window-completeness argument.
fn decide(
    ctx: &LoopAnalysis<'_>,
    ii: u32,
    cutoff: Option<i64>,
    budget: &mut Budget,
) -> Decision {
    // A dependence inside a bonded group that the bond offsets break at
    // this II holds at no placement of the group.
    if !ctx.bonds_hold(ii) {
        return Decision::Unsat;
    }

    let ii64 = i64::from(ii);
    let groups = ctx.groups();
    let g = groups.len();
    // Earliest starts: least fixpoint of the group constraints
    // `t(h) − t(g) ≥ lat − II·δ` floored at 0. A positive cycle (no
    // fixpoint) refutes this II — the constraints are all necessary
    // conditions on any valid schedule. The constraints inside a group
    // never raise its start, as `bonds_hold` checked.
    let mut est = vec![0i64; g];
    for round in 0..=g {
        let mut changed = false;
        for gf in 0..g {
            for e in ctx.outs.of(gf) {
                let w = e.lat - ii64 * e.dist;
                if est[gf] + w > est[e.other] {
                    est[e.other] = est[gf] + w;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if round == g {
            return Decision::Unsat;
        }
    }

    // Complete search windows: any feasible schedule can be retimed (by
    // per-group multiples of II, preserving residues and hence the
    // reservation table) into `[est, est + (G+2)·II]`; a span cutoff
    // additionally caps every member start at `cutoff`.
    let slack = (g as i64 + 2) * ii64;
    let lo = est.clone();
    let mut hi = Vec::with_capacity(g);
    for (gi, &e) in est.iter().enumerate() {
        let mut h = e + slack;
        if let Some(u) = cutoff {
            // Members are sorted by offset: the last is the latest.
            let last = groups.members_of(groups.leader(gi)).last();
            h = h.min(u - groups.offset(*last.expect("groups are non-empty")));
        }
        if h < lo[gi] {
            return Decision::Unsat;
        }
        hi.push(h);
    }

    let order: Vec<usize> = ctx.sets.iter().flatten().copied().collect();
    debug_assert_eq!(order.len(), g, "priority sets must cover every group once");

    let mut search = Search {
        ctx,
        ii: ii64,
        lo,
        hi,
        order,
        mrt: Mrt::new(ctx.machine(), ii),
        trail: Vec::new(),
    };
    search.dfs(0, budget)
}

/// Mutable state of one fixed-II depth-first search.
struct Search<'c, 'a> {
    ctx: &'c LoopAnalysis<'a>,
    ii: i64,
    lo: Vec<i64>,
    hi: Vec<i64>,
    order: Vec<usize>,
    mrt: Mrt,
    /// Undo log of window tightenings: `(group, bound, previous value)`.
    trail: Vec<(usize, Bound, i64)>,
}

impl Search<'_, '_> {
    fn dfs(&mut self, depth: usize, budget: &mut Budget) -> Decision {
        let (ddg, groups) = (self.ctx.ddg(), self.ctx.groups());
        if depth == self.order.len() {
            return Decision::Sat(groups.op_starts(|g| self.lo[g]));
        }
        let gi = self.order[depth];
        let (wlo, whi) = (self.lo[gi], self.hi[gi]);
        let mut t = wlo;
        while t <= whi {
            if !budget.charge() {
                return Decision::Exhausted;
            }
            if groups.place(ddg, &mut self.mrt, gi, t) {
                let mark = self.trail.len();
                self.trail.push((gi, Bound::Lo, self.lo[gi]));
                self.trail.push((gi, Bound::Hi, self.hi[gi]));
                self.lo[gi] = t;
                self.hi[gi] = t;
                if self.propagate(gi) {
                    match self.dfs(depth + 1, budget) {
                        Decision::Sat(s) => return Decision::Sat(s),
                        Decision::Exhausted => {
                            self.undo(mark);
                            groups.remove(ddg, &mut self.mrt, gi, t);
                            return Decision::Exhausted;
                        }
                        Decision::Unsat => {}
                    }
                }
                self.undo(mark);
                groups.remove(ddg, &mut self.mrt, gi, t);
            }
            t += 1;
        }
        Decision::Unsat
    }

    /// Propagates window bounds through the group constraints to a
    /// fixpoint, starting from `seed`, recording every tightening on the
    /// trail. Returns `false` when some window empties (prune).
    fn propagate(&mut self, seed: usize) -> bool {
        let (ctx, ii) = (self.ctx, self.ii);
        let mut queue = vec![seed];
        while let Some(v) = queue.pop() {
            for e in ctx.outs.of(v) {
                let (w, wt) = (e.other, e.lat - ii * e.dist);
                let nl = self.lo[v] + wt;
                if nl > self.lo[w] {
                    if nl > self.hi[w] {
                        return false;
                    }
                    self.trail.push((w, Bound::Lo, self.lo[w]));
                    self.lo[w] = nl;
                    queue.push(w);
                }
            }
            for e in ctx.ins.of(v) {
                let (u, wt) = (e.other, e.lat - ii * e.dist);
                let nh = self.hi[v] - wt;
                if nh < self.hi[u] {
                    if nh < self.lo[u] {
                        return false;
                    }
                    self.trail.push((u, Bound::Hi, self.hi[u]));
                    self.hi[u] = nh;
                    queue.push(u);
                }
            }
        }
        true
    }

    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (gi, bound, prev) = self.trail.pop().expect("mark within trail");
            match bound {
                Bound::Lo => self.lo[gi] = prev,
                Bound::Hi => self.hi[gi] = prev,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mii;
    use regpipe_ddg::{Ddg, DdgBuilder, OpId, OpKind};
    use regpipe_machine::MachineConfig;

    fn search(
        oracle: ExactScheduler,
        ddg: &Ddg,
        machine: &MachineConfig,
        request: &SchedRequest,
    ) -> Result<ExactOutcome, SchedError> {
        oracle.solve_in(&LoopAnalysis::new(ddg, machine), request)
    }

    fn fig2() -> Ddg {
        let mut b = DdgBuilder::new("fig2");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg_dist(ld, add, 3);
        b.reg(mul, add);
        b.reg(add, st);
        b.build().unwrap()
    }

    #[test]
    fn proves_fig2_optimal_on_the_uniform_machine() {
        let g = fig2();
        let m = MachineConfig::uniform(4, 2);
        let out = search(ExactScheduler::new(), &g, &m, &SchedRequest::default()).unwrap();
        assert_eq!(out.schedule.ii(), 1, "4 ops on 4 units");
        assert_eq!(out.status, ExactStatus::Proven);
        out.schedule.verify(&g, &m).expect("valid");
        assert_eq!(out.schedule.ii(), mii(&g, &m));
    }

    #[test]
    fn proves_a_recurrence_bound_loop() {
        let mut b = DdgBuilder::new("rec");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Add, "c");
        b.reg(a, c);
        b.reg_dist(c, a, 1);
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let out = search(ExactScheduler::new(), &g, &m, &SchedRequest::default()).unwrap();
        assert_eq!(out.schedule.ii(), 8, "RecMII = 8 and it is achievable");
        assert!(out.proven());
        out.schedule.verify(&g, &m).expect("valid");
    }

    #[test]
    fn budget_zero_and_one_exhaust_without_claiming_proof() {
        let g = fig2();
        let m = MachineConfig::p2l4();
        for budget in [0, 1] {
            let out =
                search(ExactScheduler::with_budget(budget), &g, &m, &SchedRequest::default())
                    .unwrap();
            assert_eq!(out.status, ExactStatus::BudgetExhausted, "budget {budget}");
            assert!(!out.span_proven, "budget {budget}");
            out.schedule.verify(&g, &m).expect("best-so-far is still valid");
        }
    }

    #[test]
    fn budgets_agree_when_both_prove() {
        let g = fig2();
        let m = MachineConfig::p1l4();
        let a = search(ExactScheduler::with_budget(10_000), &g, &m, &SchedRequest::default())
            .unwrap();
        let b = search(ExactScheduler::new(), &g, &m, &SchedRequest::default()).unwrap();
        assert!(a.proven() && b.proven());
        assert_eq!(a.schedule.ii(), b.schedule.ii());
        if a.span_proven && b.span_proven {
            assert_eq!(a.schedule.last_start(), b.schedule.last_start());
        }
    }

    #[test]
    fn span_is_tightened_and_proven_on_small_kernels() {
        let g = fig2();
        let m = MachineConfig::uniform(4, 2);
        let out = search(ExactScheduler::new(), &g, &m, &SchedRequest::default()).unwrap();
        assert!(out.span_proven);
        // The dataflow chain Ld(2) -> *(2) -> +(2) -> St spans 6 cycles.
        assert_eq!(out.schedule.last_start(), 6);
    }

    #[test]
    fn honours_the_request_range() {
        let mut b = DdgBuilder::new("one");
        b.add_op(OpKind::Add, "a");
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let out = search(ExactScheduler::new(), &g, &m, &SchedRequest::starting_at(5)).unwrap();
        assert_eq!(out.schedule.ii(), 5, "proven optimal within [5, ..]");
        assert!(out.proven());
        let err = search(
            ExactScheduler::new(),
            &g,
            &m,
            &SchedRequest { min_ii: Some(9), max_ii: Some(7) },
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::InfeasibleRequest { .. }));
    }

    #[test]
    fn refutes_an_infeasible_ii_range_exhaustively() {
        // Two loads bonded 2 cycles apart on one memory unit: MII = 2,
        // but at II = 2 both land on the same modulo slot, so the search
        // must exhaust II = 2 and prove there is no schedule — not just
        // fail to find one.
        let mut b = DdgBuilder::new("bondclash");
        let l1 = b.add_op(OpKind::Load, "l1");
        let l2 = b.add_op(OpKind::Load, "l2");
        b.bond(l1, l2);
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        assert_eq!(mii(&g, &m), 2);
        let err = search(
            ExactScheduler::new(),
            &g,
            &m,
            &SchedRequest { min_ii: None, max_ii: Some(2) },
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::NoScheduleUpTo { max_ii: 2 }));
        // One more cycle of II separates the modulo slots again.
        let out = search(ExactScheduler::new(), &g, &m, &SchedRequest::default()).unwrap();
        assert_eq!(out.schedule.ii(), 3, "first feasible II above the clash");
        assert!(out.proven());
        out.schedule.verify(&g, &m).expect("valid");
    }

    #[test]
    fn recurrence_pruning_path_recmii_above_resmii() {
        // One load feeding a latency-4 add chain closed over distance 1:
        // RecMII = 8 while ResMII is tiny, so the sweep starts at the
        // recurrence bound and the first decision search must navigate
        // the cyclic priority set first.
        let mut b = DdgBuilder::new("recdom");
        let l = b.add_op(OpKind::Load, "l");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Add, "c");
        b.reg(l, a);
        b.reg(a, c);
        b.reg_dist(c, a, 1);
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let ctx = LoopAnalysis::new(&g, &m);
        assert!(ctx.rec_mii() > ctx.res_mii(), "recurrence must dominate");
        let out = ExactScheduler::new().solve_in(&ctx, &SchedRequest::default()).unwrap();
        assert_eq!(out.schedule.ii(), 8);
        assert!(out.proven());
        out.schedule.verify(&g, &m).expect("valid");
    }

    #[test]
    fn bonded_groups_are_placed_atomically() {
        let mut b = DdgBuilder::new("bond");
        let p = b.add_op(OpKind::Add, "p");
        let s = b.add_op(OpKind::Store, "s");
        b.bond(p, s);
        let l = b.add_op(OpKind::Load, "l");
        let c = b.add_op(OpKind::Mul, "c");
        b.bond(l, c);
        b.mem(s, l, 1);
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let out = search(ExactScheduler::new(), &g, &m, &SchedRequest::default()).unwrap();
        assert!(out.proven());
        out.schedule.verify(&g, &m).expect("valid");
        assert_eq!(out.schedule.start(s) - out.schedule.start(p), 4);
        assert_eq!(out.schedule.start(c) - out.schedule.start(l), 2);
    }

    #[test]
    fn exact_never_beats_mii_and_never_loses_to_hrms() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let machines = [MachineConfig::p1l4(), MachineConfig::p2l4(), MachineConfig::p2l6()];
        for case in 0..40 {
            let n = rng.random_range(2..10usize);
            let mut b = DdgBuilder::new(format!("x{case}"));
            let kinds = [OpKind::Load, OpKind::Add, OpKind::Mul, OpKind::Copy];
            let ops: Vec<OpId> = (0..n)
                .map(|i| b.add_op(kinds[rng.random_range(0..kinds.len())], format!("n{i}")))
                .collect();
            for _ in 0..rng.random_range(0..2 * n) {
                let f = ops[rng.random_range(0..n)];
                let t = ops[rng.random_range(0..n)];
                if f == t {
                    continue;
                }
                let dist =
                    if t > f { rng.random_range(0..3u32) } else { rng.random_range(1..3u32) };
                b.reg_dist(f, t, dist);
            }
            let Ok(g) = b.build() else { continue };
            let m = &machines[case % machines.len()];
            let out = search(ExactScheduler::new(), &g, m, &SchedRequest::default())
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{g}"));
            out.schedule.verify(&g, m).unwrap_or_else(|e| panic!("case {case}: {e}\n{g}"));
            assert!(out.schedule.ii() >= mii(&g, m), "case {case}");
            let hrms = SchedulerKind::Hrms.schedule(&g, m, &SchedRequest::default()).unwrap();
            if out.proven() {
                assert!(
                    out.schedule.ii() <= hrms.ii(),
                    "case {case}: proven-optimal II {} beaten by hrms {}\n{g}",
                    out.schedule.ii(),
                    hrms.ii()
                );
            }
        }
    }
}
