//! A traced replay of `regpipe_core::compile`: the three strategy drivers
//! re-enacted round by round through the layers' public functions
//! (`LoopAnalysis::new`, `Scheduler::schedule_in`, `LifetimeAnalysis::new`,
//! `RotatingAllocator::allocate`, `candidates`, `SpillPolicy::select_batch`
//! / `select`, `spill_batch`), each call inside a span.
//!
//! The replay mirrors the drivers as they stand; it is only trusted where
//! [`Cell::of`] on the real `compile` result equals the replay's own
//! result, which every traced run checks for every cell.

use regpipe_core::{CompileError, CompileOptions, CompiledLoop, Strategy};
use regpipe_ddg::Ddg;
use regpipe_machine::MachineConfig;
use regpipe_regalloc::{AllocationResult, LifetimeAnalysis, RotatingAllocator};
use regpipe_sched::{LoopAnalysis, SchedRequest, Schedule, Scheduler, SchedulerKind};
use regpipe_spill::{candidates, spill_batch, RankContext, SpillPolicy};

use crate::trace::Tracer;

/// Why a cell did not fit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fail {
    /// Spilling ran out of spillable lifetimes.
    Unspillable,
    /// Increasing the II reached stage count 1 or its cap.
    NeverConverges,
    /// Increasing the II stopped improving.
    Plateau,
    /// The spill driver's round cap.
    RoundCap,
    /// The scheduler failed.
    Sched,
}

impl Fail {
    /// The strategy gave up by design (counted as unfit); the other kinds
    /// are errors.
    pub fn is_unfit(self) -> bool {
        matches!(self, Fail::Unspillable | Fail::NeverConverges | Fail::Plateau)
    }
}

/// What a compile cell produced, in the fields the equivalence gate
/// compares.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cell {
    Fitted { ii: u32, regs: u32, spilled: u32, reschedules: u32, strategy_used: Strategy },
    Failed(Fail),
}

impl Cell {
    /// The cell as the real `compile` call reports it.
    pub fn of(result: &Result<CompiledLoop, CompileError>) -> Cell {
        match result {
            Ok(c) => Cell::Fitted {
                ii: c.ii(),
                regs: c.registers_used(),
                spilled: c.spilled(),
                reschedules: c.reschedules(),
                strategy_used: c.strategy_used(),
            },
            Err(e) => Cell::Failed(fail_of(e)),
        }
    }
}

/// Classifies a compile error. The failure-kind enums are not exported by
/// `regpipe_core`, so their `Debug` spelling is matched.
pub fn fail_of(e: &CompileError) -> Fail {
    let kind = match e {
        CompileError::IncreaseIi(f) => format!("{:?}", f.kind),
        CompileError::Spill(f) => format!("{:?}", f.kind),
    };
    match kind.as_str() {
        "Unspillable" => Fail::Unspillable,
        "NeverConverges" => Fail::NeverConverges,
        "Plateau" => Fail::Plateau,
        "RoundCap" => Fail::RoundCap,
        _ => Fail::Sched,
    }
}

/// Replays `compile(ddg, machine, budget, options)`.
pub fn compile(
    tr: &mut Tracer,
    ddg: &Ddg,
    machine: &MachineConfig,
    budget: u32,
    options: &CompileOptions,
) -> Cell {
    let result = tr.span("core.compile", |tr| match options.strategy {
        Strategy::IncreaseIi => increase_ii(tr, ddg, machine, budget, options.scheduler)
            .map(|(ii, regs, points)| (ii, regs, 0, points, Strategy::IncreaseIi)),
        Strategy::Spill => spill(tr, ddg, machine, budget, options)
            .map(|s| (s.ii, s.regs, s.spilled, s.reschedules, Strategy::Spill)),
        Strategy::BestOfAll => best_of_all(tr, ddg, machine, budget, options),
    });
    match result {
        Ok((ii, regs, spilled, reschedules, strategy_used)) => {
            Cell::Fitted { ii, regs, spilled, reschedules, strategy_used }
        }
        Err(fail) => Cell::Failed(fail),
    }
}

/// `regpipe_regalloc::allocate`: a lifetime analysis, then the rotating
/// allocator.
pub fn allocate(tr: &mut Tracer, ddg: &Ddg, schedule: &Schedule) -> AllocationResult {
    let analysis = tr.span("regalloc.lifetimes", |_| LifetimeAnalysis::new(ddg, schedule));
    let result = tr.span("regalloc.rotating", |_| RotatingAllocator::new().allocate(&analysis));
    tr.count("regalloc.rotating.excess_regs", f64::from(result.excess()));
    result
}

pub fn loop_analysis<'a>(
    tr: &mut Tracer,
    ddg: &'a Ddg,
    machine: &'a MachineConfig,
) -> LoopAnalysis<'a> {
    tr.span("sched.loop_analysis", |_| LoopAnalysis::new(ddg, machine))
}

pub fn schedule_in(
    tr: &mut Tracer,
    scheduler: SchedulerKind,
    ctx: &LoopAnalysis<'_>,
    request: &SchedRequest,
) -> Option<Schedule> {
    let result = tr.span("sched.schedule_in", |_| scheduler.schedule_in(ctx, request));
    match result {
        Ok(s) => {
            tr.count("sched.iis_tried", f64::from(s.iis_tried()));
            tr.count("sched.schedules_found", 1.0);
            Some(s)
        }
        Err(_) => None,
    }
}

/// `IncreaseIiDriver::run` with its default plateau window: `(ii, regs,
/// points swept)`.
fn increase_ii(
    tr: &mut Tracer,
    ddg: &Ddg,
    machine: &MachineConfig,
    budget: u32,
    scheduler: SchedulerKind,
) -> Result<(u32, u32, u32), Fail> {
    const PLATEAU_WINDOW: u32 = 12;
    let ctx = loop_analysis(tr, ddg, machine);
    let lower = ctx.mii();
    let cap = ctx.fallback_max_ii().max(lower);
    let (mut best, mut since_improvement, mut points) = (u32::MAX, 0u32, 0u32);
    let mut ii = lower;
    loop {
        let request = SchedRequest { min_ii: Some(ii), max_ii: None };
        let sched = schedule_in(tr, scheduler, &ctx, &request).ok_or(Fail::Sched)?;
        let allocation = allocate(tr, ddg, &sched);
        points += 1;
        tr.count("core.increase_ii.points", 1.0);
        if allocation.total() <= budget {
            return Ok((sched.ii(), allocation.total(), points));
        }
        if allocation.total() < best {
            best = allocation.total();
            since_improvement = 0;
        } else {
            since_improvement += 1;
        }
        if sched.stage_count() == 1 {
            return Err(Fail::NeverConverges);
        }
        if since_improvement >= PLATEAU_WINDOW {
            return Err(Fail::Plateau);
        }
        if sched.ii() >= cap {
            return Err(Fail::NeverConverges);
        }
        ii = sched.ii() + 1;
    }
}

struct SpillRun {
    ii: u32,
    regs: u32,
    spilled: u32,
    reschedules: u32,
}

/// `SpillDriver::run`, including its final II-relief sweep.
fn spill(
    tr: &mut Tracer,
    ddg: &Ddg,
    machine: &MachineConfig,
    budget: u32,
    options: &CompileOptions,
) -> Result<SpillRun, Fail> {
    let o = options.spill;
    let mut g = ddg.clone();
    let (mut spilled, mut reschedules) = (0u32, 0u32);
    let mut prev_ii: Option<u32> = None;
    loop {
        if reschedules >= o.max_rounds {
            return Err(Fail::RoundCap);
        }
        let sched = {
            let ctx = loop_analysis(tr, &g, machine);
            let min_ii =
                if o.last_ii_pruning { prev_ii.map(|p| p.max(ctx.mii())) } else { None };
            let request = SchedRequest { min_ii, max_ii: None };
            schedule_in(tr, options.scheduler, &ctx, &request).ok_or(Fail::Sched)?
        };
        reschedules += 1;
        tr.count("core.spill.rounds", 1.0);
        let allocation = allocate(tr, &g, &sched);
        if allocation.total() <= budget {
            return Ok(SpillRun {
                ii: sched.ii(),
                regs: allocation.total(),
                spilled,
                reschedules,
            });
        }
        let analysis = tr.span("regalloc.lifetimes", |_| LifetimeAnalysis::new(&g, &sched));
        let victims = tr.span("spill.rank", |_| {
            let pool = candidates(&g, &analysis);
            let ctx = RankContext {
                analysis: &analysis,
                heuristic: o.heuristic,
                round: reschedules as usize,
            };
            let pick = |batch: Vec<&regpipe_spill::SpillCandidate>| -> Vec<_> {
                batch.into_iter().cloned().collect()
            };
            if o.multi_spill {
                let batch = pick(o.policy.select_batch(&pool, &ctx, budget));
                if batch.is_empty() {
                    pick(o.policy.select(&pool, &ctx).into_iter().collect())
                } else {
                    batch
                }
            } else {
                pick(o.policy.select(&pool, &ctx).into_iter().collect())
            }
        });
        if victims.is_empty() {
            if !o.ii_relief {
                return Err(Fail::Unspillable);
            }
            return ii_relief(
                tr,
                &g,
                machine,
                budget,
                options,
                sched.ii(),
                spilled,
                reschedules,
            );
        }
        tr.span("spill.rewrite", |_| spill_batch(&mut g, &victims));
        tr.count("spill.victims", victims.len() as f64);
        spilled += victims.len() as u32;
        prev_ii = Some(sched.ii());
    }
}

#[allow(clippy::too_many_arguments)]
fn ii_relief(
    tr: &mut Tracer,
    g: &Ddg,
    machine: &MachineConfig,
    budget: u32,
    options: &CompileOptions,
    from_ii: u32,
    spilled: u32,
    mut reschedules: u32,
) -> Result<SpillRun, Fail> {
    let ctx = loop_analysis(tr, g, machine);
    let mut ii = from_ii + 1;
    loop {
        if reschedules >= options.spill.max_rounds {
            return Err(Fail::RoundCap);
        }
        let request = SchedRequest { min_ii: Some(ii), max_ii: None };
        let sched = schedule_in(tr, options.scheduler, &ctx, &request).ok_or(Fail::Sched)?;
        reschedules += 1;
        tr.count("core.spill.rounds", 1.0);
        let allocation = allocate(tr, g, &sched);
        if allocation.total() <= budget {
            return Ok(SpillRun {
                ii: sched.ii(),
                regs: allocation.total(),
                spilled,
                reschedules,
            });
        }
        if sched.stage_count() == 1 {
            return Err(Fail::Unspillable);
        }
        ii = sched.ii() + 1;
    }
}

/// `BestOfAllDriver::run`: spill, then binary-search the unspilled loop
/// with `IncreaseIiDriver::probe_in`'s two steps (an exact-II schedule,
/// then an allocation).
fn best_of_all(
    tr: &mut Tracer,
    ddg: &Ddg,
    machine: &MachineConfig,
    budget: u32,
    options: &CompileOptions,
) -> Result<(u32, u32, u32, u32, Strategy), Fail> {
    let s = spill(tr, ddg, machine, budget, options)?;
    if s.spilled == 0 {
        return Ok((s.ii, s.regs, 0, s.reschedules, Strategy::Spill));
    }
    let ctx = loop_analysis(tr, ddg, machine);
    let (mut lo, mut hi) = (ctx.mii(), s.ii);
    let mut probes = 0u32;
    let mut best: Option<(u32, u32)> = None;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        tr.count("core.best_of_all.probes", 1.0);
        let fitted = schedule_in(tr, options.scheduler, &ctx, &SchedRequest::exactly(mid))
            .map(|sched| {
                let allocation = allocate(tr, ddg, &sched);
                (sched.ii(), allocation.total())
            })
            .filter(|&(_, regs)| regs <= budget);
        match fitted {
            Some((ii, regs)) => {
                hi = ii.saturating_sub(1);
                best = Some((ii, regs));
            }
            None => lo = mid + 1,
        }
        if hi == 0 {
            break;
        }
    }
    let reschedules = s.reschedules + probes;
    Ok(match best {
        Some((ii, regs)) if ii <= s.ii => (ii, regs, 0, reschedules, Strategy::IncreaseIi),
        _ => (s.ii, s.regs, s.spilled, reschedules, Strategy::Spill),
    })
}
