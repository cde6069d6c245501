//! One-call compilation of a loop under a register budget, and the
//! schedule-and-allocate round every strategy is built from.

use std::error::Error;
use std::fmt;

use regpipe_ddg::Ddg;
use regpipe_machine::{FuClass, MachineConfig};
use regpipe_regalloc::{AllocationResult, LifetimeAnalysis, RotatingAllocator};
use regpipe_sched::{
    Kernel, LoopAnalysis, SchedError, SchedRequest, Schedule, Scheduler, SchedulerKind,
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

    /// Extracts the kernel (stage-annotated, Figure 2e style).
    pub fn kernel(&self) -> Kernel {
        Kernel::new(&self.ddg, &self.schedule)
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
    compile_with(&options.scheduler, ddg, machine, regs, options)
}

/// [`compile`] with any [`Scheduler`] in place of `options.scheduler`,
/// which is ignored: the paper's framework "can be applied to any software
/// pipelining technique".
///
/// # Errors
///
/// As for [`compile`].
pub fn compile_with<S: Scheduler>(
    scheduler: &S,
    ddg: &Ddg,
    machine: &MachineConfig,
    regs: u32,
    options: &CompileOptions,
) -> Result<CompiledLoop, CompileError> {
    let mut run = Run { scheduler, machine, regs, calls: 0, trace: Vec::new() };
    let result = match options.strategy {
        Strategy::IncreaseIi => run.increase_ii(ddg),
        Strategy::Spill => run.spill(ddg, &options.spill),
        Strategy::BestOfAll => run.best_of_all(ddg, &options.spill),
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
            Err(match options.strategy {
                Strategy::IncreaseIi => CompileError::IncreaseIi(failure),
                Strategy::Spill | Strategy::BestOfAll => CompileError::Spill(failure),
            })
        }
    }
}

/// One compile in progress: the scheduler and budget every round uses, and
/// what the rounds so far recorded. Each strategy is a method over it.
pub(crate) struct Run<'a, S> {
    scheduler: &'a S,
    pub(crate) machine: &'a MachineConfig,
    pub(crate) regs: u32,
    /// Scheduler calls made so far, failed ones included.
    pub(crate) calls: u32,
    /// One point per round whose schedule was found.
    trace: Vec<TracePoint>,
}

/// A strategy's fitting result.
pub(crate) struct Fit {
    pub(crate) ddg: Ddg,
    pub(crate) round: Round,
    pub(crate) spilled: u32,
    pub(crate) strategy: Strategy,
}

/// What one round produced: a schedule, the lifetime analysis of it, and
/// the rotating allocation built from that analysis.
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
            memory_utilization: memory_utilization(ctx.ddg(), self.machine, schedule.ii()),
        });
        Ok(Round { schedule, analysis, allocation })
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
        let k = c.kernel();
        assert_eq!(k.ii(), c.ii());
        assert_eq!(k.slots().count(), c.ddg().num_ops());
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
}
