//! One-call compilation of a loop under a register budget, and the
//! schedule-and-allocate round every strategy is built from.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use regpipe_ddg::Ddg;
use regpipe_machine::{FuClass, MachineConfig};
use regpipe_regalloc::{AllocationResult, LifetimeAnalysis, RotatingAllocator};
use regpipe_sched::{
    LoopAnalysis, PipelinedLoop, SchedError, SchedRequest, Schedule, Scheduler, SchedulerKind,
};
use regpipe_spill::SpillPolicyKind;

use crate::spill_driver::SpillDriverOptions;

/// Which register-reduction strategy [`compile`] should use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Reschedule with increased IIs only (Figure 1a). May never converge.
    IncreaseIi,
    /// Iterative spilling (Figure 1b).
    Spill,
    /// Spill, then probe the unspilled loop up to the spill II and keep the
    /// better schedule (Section 5). The paper's recommended combination.
    BestOfAll,
}

/// Options for [`compile`].
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// The strategy; defaults to [`Strategy::BestOfAll`].
    pub strategy: Strategy,
    /// The core modulo scheduler every round runs; defaults to the
    /// paper's [`SchedulerKind::Hrms`]. The strategies are
    /// scheduler-agnostic, so `strategy × scheduler` is a full matrix.
    pub scheduler: SchedulerKind,
    /// Spill-strategy tuning (policy, heuristic and accelerations).
    pub spill: SpillDriverOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            strategy: Strategy::BestOfAll,
            scheduler: SchedulerKind::default(),
            spill: SpillDriverOptions::default(),
        }
    }
}

impl CompileOptions {
    /// Convenience: default options with a different spill policy.
    pub fn with_spill_policy(policy: SpillPolicyKind) -> Self {
        let mut o = CompileOptions::default();
        o.spill.policy = policy;
        o
    }

    /// The spill policy the spill-capable strategies will rank victims
    /// with (a shorthand for `options.spill.policy`). The increase-II
    /// strategy never spills, so the policy is inert there.
    pub fn spill_policy(&self) -> SpillPolicyKind {
        self.spill.policy
    }
}

/// One schedule-and-allocate round of a compile: a point of the paper's
/// Figure 4 (increase-II) or Figure 7 (spilling) series.
#[derive(Clone, PartialEq, Debug)]
pub struct TracePoint {
    /// Lifetimes spilled before this round (0 on the unspilled loop).
    pub spilled: u32,
    /// The MII of the loop this round scheduled.
    pub mii: u32,
    /// The II of the schedule found.
    pub ii: u32,
    /// Candidate IIs the scheduler visited to find it.
    pub iis_tried: u32,
    /// Stage count of that schedule.
    pub stage_count: u32,
    /// Registers its rotating allocation uses (variants + invariants).
    pub regs: u32,
    /// Memory operations per iteration in the loop body.
    pub memory_ops: u32,
    /// Memory-unit (bus) utilization of the schedule, percent.
    pub memory_utilization: f64,
}

/// A loop compiled under a register budget.
#[derive(Clone, Debug)]
pub struct CompiledLoop {
    ddg: Ddg,
    schedule: Schedule,
    allocation: AllocationResult,
    strategy_used: Strategy,
    spilled: u32,
    reschedules: u32,
    trace: Vec<TracePoint>,
}

impl CompiledLoop {
    /// The final loop body (with spill code if any was added).
    pub fn ddg(&self) -> &Ddg {
        &self.ddg
    }

    /// The final schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The final register allocation.
    pub fn allocation(&self) -> &AllocationResult {
        &self.allocation
    }

    /// Total registers used (rotating + invariants).
    pub fn registers_used(&self) -> u32 {
        self.allocation.total()
    }

    /// The achieved initiation interval.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }

    /// Which strategy produced the schedule.
    pub fn strategy_used(&self) -> Strategy {
        self.strategy_used
    }

    /// Lifetimes spilled along the way (0 when no reduction was needed).
    pub fn spilled(&self) -> u32 {
        self.spilled
    }

    /// Scheduler calls consumed, including best-of-all probes that found
    /// no schedule.
    pub fn reschedules(&self) -> u32 {
        self.reschedules
    }

    /// One point per round whose schedule was found, in order. For
    /// increase-II and spill the last point is the returned schedule; for
    /// best-of-all the spill rounds are followed by the probes.
    pub fn trace(&self) -> &[TracePoint] {
        &self.trace
    }

    /// Candidate IIs explored across all rounds (the paper's
    /// scheduling-effort measure behind Figure 8c): the sum of the
    /// trace's `iis_tried`.
    pub fn iis_explored(&self) -> u32 {
        self.trace.iter().map(|p| p.iis_tried).sum()
    }

    /// Memory operations per iteration of the final body.
    pub fn memory_ops(&self) -> u32 {
        self.ddg.memory_ops() as u32
    }

    /// The emitted code of the final schedule: prologue, stage-annotated
    /// kernel (Figure 2e) and epilogue.
    pub fn pipeline(&self) -> PipelinedLoop {
        PipelinedLoop::new(&self.ddg, &self.schedule)
    }
}

impl fmt::Display for CompiledLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "'{}': II={}, {} regs, {} spills, strategy {:?}",
            self.ddg.name(),
            self.ii(),
            self.registers_used(),
            self.spilled,
            self.strategy_used
        )
    }
}

/// Why a strategy gave up, with the rounds that led there.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Why the strategy stopped.
    pub kind: FailureKind,
    /// The lowest register requirement any round observed, or `None` when
    /// no round completed (a round cap of 0, or an immediate scheduler
    /// error).
    pub best_regs: Option<u32>,
    /// The rounds up to the failure (the paper's Figure 4b when the
    /// increase-II sweep never converges).
    pub trace: Vec<TracePoint>,
}

/// Why a strategy gave up.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// Increase-II reached stage count 1 or the scheduler's II ceiling: no
    /// overlap is left to remove, so the register floor of invariants,
    /// distance components and one iteration's values is above the budget.
    /// This loop **never converges** (Section 3.1).
    NeverConverges,
    /// Increase-II saw no improvement for 12 consecutive IIs while still
    /// above budget (practical cutoff for the same phenomenon).
    Plateau,
    /// Spilling ran out of spillable lifetimes, and raising the II of the
    /// fully spilled loop reached stage count 1 or the II ceiling: the loop
    /// intrinsically needs more registers (cf. Section 3.1's third cause).
    Unspillable,
    /// The spill strategy's round cap was hit (diagnostics guard).
    RoundCap,
    /// The scheduler failed outright.
    Sched(SchedError),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // "n/a" when no round completed: there is no observation to report.
        let best = self.best_regs.map_or_else(|| "n/a".to_string(), |r| r.to_string());
        match &self.kind {
            FailureKind::NeverConverges => {
                write!(f, "increasing the II never converges (floor {best} regs)")
            }
            FailureKind::Plateau => {
                write!(f, "register requirement plateaued at {best} regs above the budget")
            }
            FailureKind::Unspillable => {
                write!(f, "no spillable lifetime left; loop floor is {best} registers")
            }
            FailureKind::RoundCap => {
                write!(f, "spill driver hit its round cap at {best} registers")
            }
            FailureKind::Sched(e) => write!(f, "scheduling failed: {e}"),
        }
    }
}

impl Error for Failure {}

/// Compilation failure, by the strategy that reported it (best-of-all
/// fails only when its spill run does).
#[derive(Clone, Debug)]
pub enum CompileError {
    /// The increase-II strategy never converges for this loop/budget.
    IncreaseIi(Failure),
    /// The spilling strategy failed (nothing spillable / scheduler error).
    Spill(Failure),
}

impl CompileError {
    /// The failure, whichever strategy reported it.
    pub fn failure(&self) -> &Failure {
        match self {
            CompileError::IncreaseIi(f) | CompileError::Spill(f) => f,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::IncreaseIi(e) => write!(f, "increase-II strategy failed: {e}"),
            CompileError::Spill(e) => write!(f, "spill strategy failed: {e}"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(self.failure())
    }
}

/// Compiles `ddg` for `machine` so the schedule fits in `regs` registers.
///
/// Schedules at the best II the core scheduler
/// ([`CompileOptions::scheduler`]) finds; if the allocation exceeds the
/// budget, applies the selected register-reduction strategy.
///
/// # Errors
///
/// Returns [`CompileError`] when the chosen strategy cannot reach the
/// budget; the error carries the rounds' trace for diagnostics.
pub fn compile(
    ddg: &Ddg,
    machine: &MachineConfig,
    regs: u32,
    options: &CompileOptions,
) -> Result<CompiledLoop, CompileError> {
    LoopRow::new(&options.scheduler, ddg, machine, options.spill)
        .compile(regs, options.strategy)
}

/// One loop compiled at several budgets and strategies: a row of the
/// paper's evaluation matrix (Table 1, Figures 8 and 9).
///
/// A row takes any [`Scheduler`]: the paper's framework "can be applied
/// to any software pipelining technique". With `options.scheduler`, a row
/// of one cell is [`compile`].
///
/// Each [`LoopRow::compile`] returns exactly what a fresh row returns for
/// that budget and strategy: schedule, allocation, final graph, trace,
/// reschedules, failure kind and `best_regs`, in whatever order the cells
/// are asked for. The cells keep a memo in the row, so work that does not
/// depend on the cell is done once:
///
/// * the loop's [`LoopAnalysis`], which increase-II, spill round 1 and
///   best-of-all's probes all schedule in;
/// * every round on the loop as given, by request (with `min_ii` read as
///   `max(min_ii, MII)`): round 1 is shared by every strategy, an
///   increase-II sweep at a tighter budget replays the rounds of a looser
///   one, and repeated probes are scheduled once;
/// * the spill run at each budget, which the spill strategy and
///   best-of-all both start with.
///
/// A replayed round still counts as a scheduler call and leaves its
/// [`TracePoint`], so results never show the sharing; only the scheduler
/// sees fewer calls. That holds for a scheduler that keeps the
/// [`Scheduler::schedule_in`] contract: the same context and request give
/// the same result, and a request is fixed by `max(min_ii, MII)` and
/// `max_ii`. A row holds its memo until dropped, so build one per loop.
///
/// ```
/// use regpipe_core::{compile, CompileOptions, LoopRow, Strategy};
/// use regpipe_ddg::{DdgBuilder, OpKind};
/// use regpipe_machine::MachineConfig;
///
/// let mut b = DdgBuilder::new("stencil");
/// let ld = b.add_op(OpKind::Load, "ld x");
/// let add = b.add_op(OpKind::Add, "+");
/// let st = b.add_op(OpKind::Store, "st y");
/// b.reg(ld, add);
/// b.reg_dist(ld, add, 5);
/// b.reg(add, st);
/// let ddg = b.build()?;
///
/// let machine = MachineConfig::p2l4();
/// let options = CompileOptions::default();
/// let mut row = LoopRow::new(&options.scheduler, &ddg, &machine, options.spill);
/// for regs in [64, 4] {
///     for strategy in [Strategy::BestOfAll, Strategy::Spill] {
///         let cell = row.compile(regs, strategy).expect("fits");
///         let alone = compile(&ddg, &machine, regs, &CompileOptions { strategy, ..options })
///             .expect("fits");
///         assert_eq!(cell.schedule(), alone.schedule());
///         assert_eq!(cell.trace(), alone.trace());
///     }
/// }
/// # Ok::<(), regpipe_ddg::DdgError>(())
/// ```
pub struct LoopRow<'a, S> {
    scheduler: &'a S,
    given: LoopAnalysis<'a>,
    spill: SpillDriverOptions,
    memo: Memo,
}

impl<'a, S: Scheduler> LoopRow<'a, S> {
    /// A row for `ddg` on `machine`, scheduled by `scheduler`, whose spill
    /// runs use `spill`.
    pub fn new(
        scheduler: &'a S,
        ddg: &'a Ddg,
        machine: &'a MachineConfig,
        spill: SpillDriverOptions,
    ) -> Self {
        LoopRow {
            scheduler,
            given: LoopAnalysis::new(ddg, machine),
            spill,
            memo: Memo::default(),
        }
    }

    /// The cell at budget `regs` under `strategy`.
    ///
    /// # Errors
    ///
    /// As for [`compile`].
    pub fn compile(
        &mut self,
        regs: u32,
        strategy: Strategy,
    ) -> Result<CompiledLoop, CompileError> {
        let mut run = Run {
            scheduler: self.scheduler,
            given: &self.given,
            regs,
            calls: 0,
            trace: Vec::new(),
            memo: &mut self.memo,
        };
        let result = match strategy {
            Strategy::IncreaseIi => run.increase_ii(),
            Strategy::Spill => run.spill(&self.spill),
            Strategy::BestOfAll => run.best_of_all(&self.spill),
        };
        let best_regs = run.best_regs();
        let Run { calls, trace, .. } = run;
        match result {
            Ok(fit) => Ok(CompiledLoop {
                ddg: fit.ddg,
                schedule: fit.round.schedule,
                allocation: fit.round.allocation,
                strategy_used: fit.strategy,
                spilled: fit.spilled,
                reschedules: calls,
                trace,
            }),
            Err(kind) => {
                let failure = Failure { kind, best_regs, trace };
                Err(match strategy {
                    Strategy::IncreaseIi => CompileError::IncreaseIi(failure),
                    Strategy::Spill | Strategy::BestOfAll => CompileError::Spill(failure),
                })
            }
        }
    }
}

/// What the cells of a [`LoopRow`] share.
#[derive(Default)]
pub(crate) struct Memo {
    /// Rounds on the loop as given, keyed by request with `min_ii`
    /// normalised to `max(min_ii, MII)`.
    rounds: HashMap<(u32, Option<u32>), GivenRound>,
    /// The spill run at each budget.
    pub(crate) spills: HashMap<u32, SpillRun>,
}

/// A round on the loop as given: what it returned, and the trace point it
/// recorded if it found a schedule.
type GivenRound = Result<(Round, TracePoint), SchedError>;

/// A finished spill run, as [`Run::spill`] left it: its result, scheduler
/// calls and trace.
pub(crate) type SpillRun = (Result<Fit, FailureKind>, u32, Vec<TracePoint>);

/// One compile in progress: the scheduler and budget every round uses, and
/// what the rounds so far recorded. Each strategy is a method over it.
pub(crate) struct Run<'r, S> {
    scheduler: &'r S,
    /// The loop as given, analysed once for every round that schedules it
    /// unchanged.
    pub(crate) given: &'r LoopAnalysis<'r>,
    pub(crate) regs: u32,
    /// Scheduler calls made so far, failed ones included.
    pub(crate) calls: u32,
    /// One point per round whose schedule was found.
    pub(crate) trace: Vec<TracePoint>,
    /// What earlier cells of the row ran.
    pub(crate) memo: &'r mut Memo,
}

/// A strategy's fitting result.
#[derive(Clone)]
pub(crate) struct Fit {
    pub(crate) ddg: Ddg,
    pub(crate) round: Round,
    pub(crate) spilled: u32,
    pub(crate) strategy: Strategy,
}

/// What one round produced: a schedule, the lifetime analysis of it, and
/// the rotating allocation built from that analysis.
#[derive(Clone)]
pub(crate) struct Round {
    pub(crate) schedule: Schedule,
    pub(crate) analysis: LifetimeAnalysis,
    pub(crate) allocation: AllocationResult,
}

impl<S: Scheduler> Run<'_, S> {
    /// The one round every strategy repeats: schedule within `ctx`, analyse
    /// the lifetimes once, allocate from that analysis, and record a
    /// [`TracePoint`].
    pub(crate) fn round(
        &mut self,
        ctx: &LoopAnalysis<'_>,
        request: &SchedRequest,
        spilled: u32,
    ) -> Result<Round, SchedError> {
        self.calls += 1;
        let schedule = self.scheduler.schedule_in(ctx, request)?;
        let analysis = LifetimeAnalysis::new(ctx.ddg(), &schedule);
        let allocation = RotatingAllocator::new().allocate(&analysis);
        self.trace.push(TracePoint {
            spilled,
            mii: ctx.mii(),
            ii: schedule.ii(),
            iis_tried: schedule.iis_tried(),
            stage_count: schedule.stage_count(),
            regs: allocation.total(),
            memory_ops: ctx.ddg().memory_ops() as u32,
            memory_utilization: memory_utilization(ctx.ddg(), ctx.machine(), schedule.ii()),
        });
        Ok(Round { schedule, analysis, allocation })
    }

    /// A [`Run::round`] on the loop as given (nothing spilled). A request
    /// an earlier round of the row already made is answered from the memo:
    /// it still counts as a call and records its trace point, but the
    /// scheduler is not asked again.
    pub(crate) fn given_round(&mut self, request: &SchedRequest) -> Result<Round, SchedError> {
        let given = self.given;
        // Schedulers start at max(min_ii, MII), so requests that differ
        // only below the MII are the same request.
        let key = (request.min_ii.unwrap_or(0).max(given.mii()), request.max_ii);
        if let Some(hit) = self.memo.rounds.get(&key) {
            let hit = hit.clone();
            self.calls += 1;
            return hit.map(|(round, point)| {
                self.trace.push(point);
                round
            });
        }
        let result = self.round(given, request, 0);
        let entry = match &result {
            Ok(round) => Ok((round.clone(), self.trace[self.trace.len() - 1].clone())),
            Err(e) => Err(e.clone()),
        };
        self.memo.rounds.insert(key, entry);
        result
    }

    /// Whether `round`'s allocation fits the budget.
    pub(crate) fn fits(&self, round: &Round) -> bool {
        round.allocation.total() <= self.regs
    }

    /// The lowest register requirement recorded so far.
    pub(crate) fn best_regs(&self) -> Option<u32> {
        self.trace.iter().map(|p| p.regs).min()
    }
}

/// Fraction of memory-unit slots in use at initiation interval `ii`, in
/// percent (the paper's "bus utilization" from Figure 7). Each
/// memory-class op holds a unit for its occupancy once per II wherever
/// it is placed, so placement never changes the total. A machine without
/// memory units (`uniform:`) reports 0.
fn memory_utilization(ddg: &Ddg, machine: &MachineConfig, ii: u32) -> f64 {
    let units = machine.units(FuClass::Memory);
    if units == 0 {
        return 0.0;
    }
    let used: u32 = ddg
        .ops()
        .map(|(_, node)| node.kind())
        .filter(|&kind| machine.class_of(kind) == FuClass::Memory)
        .map(|kind| machine.occupancy(kind))
        .sum();
    100.0 * f64::from(used) / (f64::from(units) * f64::from(ii))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};

    /// The paper's example loop (Figure 2).
    pub(crate) fn fig2() -> Ddg {
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

    /// Seven parallel long-distance taps, each pinned by a zero-distance
    /// use of the same value (so the consumer cannot be hoisted before the
    /// producer): every lifetime keeps a 5-iteration distance component,
    /// 7 x 5 = 35 registers at *any* II. Increasing the II cannot fit 16
    /// registers; spilling can.
    pub(crate) fn taps() -> Ddg {
        let mut b = DdgBuilder::new("taps");
        for i in 0..7 {
            let ld = b.add_op(OpKind::Load, format!("ld{i}"));
            let add = b.add_op(OpKind::Add, format!("a{i}"));
            let st = b.add_op(OpKind::Store, format!("s{i}"));
            b.reg(ld, add);
            b.reg_dist(ld, add, 5);
            b.reg(add, st);
        }
        b.build().unwrap()
    }

    /// `strategy` with otherwise default options.
    pub(crate) fn options(strategy: Strategy) -> CompileOptions {
        CompileOptions { strategy, ..CompileOptions::default() }
    }

    /// The spill strategy with the given spill options.
    pub(crate) fn spill_options(spill: SpillDriverOptions) -> CompileOptions {
        CompileOptions { strategy: Strategy::Spill, spill, ..CompileOptions::default() }
    }

    #[test]
    fn memory_utilization_percentage() {
        // Figure 2 has one load and one store: two of P1L4's four memory
        // slots at II 4.
        let g = fig2();
        assert!((memory_utilization(&g, &MachineConfig::p1l4(), 4) - 50.0).abs() < 1e-9);
        // A non-pipelined unit is held for the latency: load 2 + store 1.
        let mut slow = MachineConfig::p1l4();
        slow.set_pipelined(FuClass::Memory, false);
        assert!((memory_utilization(&g, &slow, 4) - 75.0).abs() < 1e-9);
        // The uniform machine has no memory class.
        assert_eq!(memory_utilization(&g, &MachineConfig::uniform(2, 1), 4), 0.0);
    }

    fn stencil() -> Ddg {
        let mut b = DdgBuilder::new("stencil");
        let ld = b.add_op(OpKind::Load, "ld");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "st");
        b.reg(ld, add);
        b.reg_dist(ld, add, 5);
        b.reg(add, st);
        b.build().unwrap()
    }

    #[test]
    fn default_compile_meets_budget() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        let c = compile(&g, &m, 4, &CompileOptions::default()).unwrap();
        assert!(c.registers_used() <= 4);
        c.schedule().verify(c.ddg(), &m).unwrap();
    }

    #[test]
    fn all_strategies_agree_under_generous_budget() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        for strategy in [Strategy::IncreaseIi, Strategy::Spill, Strategy::BestOfAll] {
            let c = compile(&g, &m, 64, &options(strategy)).unwrap();
            assert_eq!(c.ii(), 1, "{strategy:?} should keep the optimal II");
            assert_eq!(c.spilled(), 0);
        }
    }

    #[test]
    fn increase_ii_error_carries_trace() {
        // 7 wide pinned taps cannot fit 16 regs by increasing the II.
        let mut b = DdgBuilder::new("taps");
        for i in 0..7 {
            let ld = b.add_op(OpKind::Load, format!("ld{i}"));
            let add = b.add_op(OpKind::Add, format!("a{i}"));
            b.reg(ld, add);
            b.reg_dist(ld, add, 5);
        }
        let g = b.build().unwrap();
        let m = MachineConfig::p2l4();
        let err = compile(&g, &m, 16, &options(Strategy::IncreaseIi)).unwrap_err();
        match err {
            CompileError::IncreaseIi(f) => assert!(!f.trace.is_empty()),
            other => panic!("expected increase-II failure, got {other}"),
        }
    }

    #[test]
    fn best_of_all_beats_or_ties_spill() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        let spill = compile(&g, &m, 4, &options(Strategy::Spill)).unwrap();
        let both = compile(&g, &m, 4, &CompileOptions::default()).unwrap();
        assert!(both.ii() <= spill.ii());
    }

    /// Every cell of the scheduler × strategy matrix compiles, meets its
    /// budget, and verifies; the scheduler flows through every strategy.
    #[test]
    fn scheduler_strategy_matrix_compiles_and_verifies() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        for scheduler in SchedulerKind::ALL {
            for strategy in [Strategy::IncreaseIi, Strategy::Spill, Strategy::BestOfAll] {
                let options =
                    CompileOptions { strategy, scheduler, ..CompileOptions::default() };
                let c = compile(&g, &m, 6, &options)
                    .unwrap_or_else(|e| panic!("{scheduler}/{strategy:?}: {e}"));
                assert!(c.registers_used() <= 6, "{scheduler}/{strategy:?}");
                c.schedule().verify(c.ddg(), &m).unwrap();
                assert_eq!(c.schedule().scheduler(), scheduler.slug());
            }
        }
    }

    /// Every cell of the policy × strategy matrix compiles, meets its
    /// budget, and verifies; the policy flows through every spill-capable
    /// strategy (and is inert for increase-II).
    #[test]
    fn spill_policy_strategy_matrix_compiles_and_verifies() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        for policy in SpillPolicyKind::ALL {
            for strategy in [Strategy::IncreaseIi, Strategy::Spill, Strategy::BestOfAll] {
                let mut options = CompileOptions::with_spill_policy(policy);
                options.strategy = strategy;
                assert_eq!(options.spill_policy(), policy);
                let c = compile(&g, &m, 6, &options)
                    .unwrap_or_else(|e| panic!("{policy}/{strategy:?}: {e}"));
                assert!(c.registers_used() <= 6, "{policy}/{strategy:?}");
                c.schedule().verify(c.ddg(), &m).unwrap();
            }
        }
    }

    /// The `paper` policy is the default and reproduces the pre-registry
    /// result exactly on the reference loop.
    #[test]
    fn default_policy_is_paper_and_matches_explicit_selection() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        assert_eq!(CompileOptions::default().spill_policy(), SpillPolicyKind::Paper);
        let implicit = compile(&g, &m, 4, &CompileOptions::default()).unwrap();
        let explicit =
            compile(&g, &m, 4, &CompileOptions::with_spill_policy(SpillPolicyKind::Paper))
                .unwrap();
        assert_eq!(implicit.ii(), explicit.ii());
        assert_eq!(implicit.registers_used(), explicit.registers_used());
        assert_eq!(implicit.spilled(), explicit.spilled());
        assert_eq!(implicit.schedule(), explicit.schedule());
    }

    #[test]
    fn kernel_extraction_works_on_compiled_loops() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        let c = compile(&g, &m, 4, &CompileOptions::default()).unwrap();
        let p = c.pipeline();
        assert_eq!(p.ii(), c.ii());
        let slots: usize = (0..p.ii()).map(|cycle| p.row(cycle).len()).sum();
        assert_eq!(slots, c.ddg().num_ops());
    }

    #[test]
    fn display_summarizes() {
        let g = stencil();
        let m = MachineConfig::p2l4();
        let c = compile(&g, &m, 64, &CompileOptions::default()).unwrap();
        let s = c.to_string();
        assert!(s.contains("II=1"));
        assert!(s.contains("stencil"));
    }

    /// HRMS with one II, `skip`, made infeasible: a request for exactly
    /// `skip` fails, and a search from `skip` starts one II later.
    struct Skipping(u32);

    impl Scheduler for Skipping {
        fn schedule_in(
            &self,
            ctx: &LoopAnalysis<'_>,
            request: &SchedRequest,
        ) -> Result<Schedule, SchedError> {
            let mut request = request.clone();
            if request.min_ii.unwrap_or(0).max(ctx.mii()) == self.0 {
                if request.max_ii == Some(self.0) {
                    return Err(SchedError::NoScheduleUpTo { max_ii: self.0 });
                }
                request.min_ii = Some(self.0 + 1);
            }
            SchedulerKind::Hrms.schedule_in(ctx, &request)
        }
    }

    /// A probe for exactly one II and a search from that II are different
    /// rounds: where the II is infeasible, they return different things,
    /// and a row keeps them apart in either order of strategies.
    #[test]
    fn a_row_keeps_probes_apart_from_searches() {
        let (g, m) = (fig2(), MachineConfig::uniform(4, 2));
        let skipping = Skipping(regpipe_sched::mii(&g, &m) + 1);
        let options = CompileOptions::default();
        let orders = [
            [Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi],
            [Strategy::IncreaseIi, Strategy::Spill, Strategy::BestOfAll],
        ];
        for strategies in orders {
            let mut row = LoopRow::new(&skipping, &g, &m, options.spill);
            for regs in [64, 7, 5, 4] {
                for strategy in strategies {
                    let cell = row.compile(regs, strategy);
                    let alone =
                        LoopRow::new(&skipping, &g, &m, options.spill).compile(regs, strategy);
                    assert_eq!(
                        format!("{cell:?}"),
                        format!("{alone:?}"),
                        "{strategy:?} @ {regs}"
                    );
                }
            }
        }
    }

    /// HRMS, logging each call as (ops in the graph, `max(min_ii, MII)`,
    /// `max_ii`).
    #[derive(Default)]
    struct Logged(std::cell::RefCell<Vec<(usize, u32, Option<u32>)>>);

    impl Scheduler for Logged {
        fn schedule_in(
            &self,
            ctx: &LoopAnalysis<'_>,
            request: &SchedRequest,
        ) -> Result<Schedule, SchedError> {
            let min_ii = request.min_ii.unwrap_or(0).max(ctx.mii());
            self.0.borrow_mut().push((ctx.ddg().num_ops(), min_ii, request.max_ii));
            SchedulerKind::Hrms.schedule_in(ctx, request)
        }
    }

    /// Rounds an increase-II cell ran (each finds a schedule on these loops).
    fn rounds(cell: &Result<CompiledLoop, CompileError>) -> usize {
        cell.as_ref().map_or_else(|e| e.failure().trace.len(), |c| c.trace().len())
    }

    /// A row's cells, in the suite's order, share their work: `spill` after
    /// `best` at one budget reruns nothing, increase-II at a tighter budget
    /// schedules only the rounds past the looser budget's sweep, and every
    /// request on the loop as given (round 1 above all) reaches the
    /// scheduler once.
    #[test]
    fn a_row_schedules_shared_work_once() {
        let cases = [
            (taps(), MachineConfig::p2l4(), &[64, 32, 16][..]),
            (fig2(), MachineConfig::uniform(4, 2), &[64, 32, 7, 5]),
        ];
        for (g, m, budgets) in cases {
            let logged = Logged::default();
            let options = CompileOptions::default();
            let mut row = LoopRow::new(&logged, &g, &m, options.spill);
            let calls = || logged.0.borrow().len();
            let mut swept = 0;
            for &regs in budgets {
                row.compile(regs, Strategy::BestOfAll).ok();
                let after_best = calls();
                row.compile(regs, Strategy::Spill).ok();
                assert_eq!(calls(), after_best, "{} @ {regs}: spill after best", g.name());
                let increase_ii = row.compile(regs, Strategy::IncreaseIi);
                let rounds = rounds(&increase_ii);
                // Round 1 is the spill run's; a looser budget's sweep is a
                // prefix of this one.
                let replayed = swept.max(1);
                assert_eq!(calls() - after_best, rounds - replayed, "{} @ {regs}", g.name());
                swept = rounds;
            }
            let log = logged.0.borrow();
            let given: Vec<_> = log.iter().filter(|call| call.0 == g.num_ops()).collect();
            let round_1 = (g.num_ops(), regpipe_sched::mii(&g, &m), None);
            assert!(given.contains(&&round_1), "{}", g.name());
            let distinct: std::collections::BTreeSet<_> = given.iter().collect();
            assert_eq!(distinct.len(), given.len(), "{}: a request repeated", g.name());
        }
    }
}
