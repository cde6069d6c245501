//! The two batch workloads: `suite-small` (the archetype suite through the
//! batch engine, 2 workers) and `spill-large` (256-op kernels compiled one
//! after another, where the spill loop does nearly all the work).

use std::num::NonZeroUsize;
use std::path::Path;
use std::time::Instant;

use regpipe_core::{compile, CompileError, CompileOptions, CompiledLoop, Strategy};
use regpipe_exec::{run_batch, BatchRequest, CellStatus};
use regpipe_loops::{generate, suite, BenchLoop, GenParams};
use regpipe_machine::MachineConfig;

use crate::check;
use crate::replay::{self, Cell};
use crate::stats::{
    calibrate, corpus_seed, median, peak_rss_mb, quantile, repeat_setup, speed_factor, TimeBox,
};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// `suite-small`: 1258 loops (the paper's count) in the archetype
/// generator's expected proportions (its roll ranges: 28/18/14/18/6/14/2
/// percent). Holding the mix fixed keeps a seed from drawing, say, 17 or
/// 37 many-tap "monsters", which alone would move the pass time by a
/// third; the seed still picks every loop.
const SUITE_MIX: [(&str, usize); 7] = [
    ("stream", 352),
    ("stencil", 227),
    ("reduce", 176),
    ("wide", 226),
    ("divsqrt", 76),
    ("chain", 176),
    ("monster", 25),
];
/// Batch-engine workers for `suite-small` (the container has 2 cores).
const SUITE_JOBS: usize = 2;
/// `spill-large`: each pass compiles a fresh corpus of this many kernels of
/// exactly this size, so one run covers many kernels and a seed's figures
/// do not hinge on a dozen of them.
const LARGE_LOOPS: usize = 16;
const LARGE_OPS: usize = 256;
/// Passes every `spill-large` run makes; the quality metrics cover their
/// corpora, so they repeat exactly for a seed.
const LARGE_MIN_PASSES: usize = 4;
/// The evaluation's register budgets.
const BUDGETS: [u32; 2] = [64, 32];
/// Input builds per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 15;

/// One `loop × budget × strategy` cell, in the batch engine's order.
#[derive(Clone, Copy, Debug)]
struct CellSpec {
    loop_index: usize,
    budget: u32,
    strategy: Strategy,
}

fn cell_specs(loops: usize, strategies: &[Strategy]) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for loop_index in 0..loops {
        for budget in BUDGETS {
            for &strategy in strategies {
                cells.push(CellSpec { loop_index, budget, strategy });
            }
        }
    }
    cells
}

fn options(strategy: Strategy) -> CompileOptions {
    CompileOptions { strategy, ..CompileOptions::default() }
}

type CompileResult = Result<CompiledLoop, CompileError>;

fn compile_cell(loops: &[BenchLoop], m: &MachineConfig, c: &CellSpec) -> CompileResult {
    compile(&loops[c.loop_index].ddg, m, c.budget, &options(c.strategy))
}

/// The `suite-small` input: loops of `suite(seed, ·)` in generator order,
/// each archetype taken until it reaches its [`SUITE_MIX`] count.
fn stratified_suite(seed: u64) -> Result<Vec<BenchLoop>, String> {
    let wanted: usize = SUITE_MIX.iter().map(|&(_, n)| n).sum();
    let mut taken = [0usize; SUITE_MIX.len()];
    let loops: Vec<BenchLoop> = suite(seed, 4 * wanted)
        .into_iter()
        .filter(|l| {
            let Some(a) = SUITE_MIX.iter().position(|&(p, _)| l.name.starts_with(p)) else {
                return false;
            };
            taken[a] += 1;
            taken[a] <= SUITE_MIX[a].1
        })
        .collect();
    if loops.len() == wanted {
        Ok(loops)
    } else {
        Err(format!("seed {seed}: only {} of {wanted} stratified suite loops", loops.len()))
    }
}

fn large_corpus(seed: u64, pass: usize) -> Result<Vec<BenchLoop>, String> {
    let params = GenParams { min_ops: LARGE_OPS, max_ops: LARGE_OPS, ..GenParams::default() };
    generate(corpus_seed(seed, pass), LARGE_LOOPS, &params)
}

pub fn suite_small(args: &Args) -> Result<Outcome, String> {
    let machine = MachineConfig::p2l4();
    let (loops, setup_s) = repeat_setup(SETUP_REPEATS, || stratified_suite(args.seed));
    let loops = loops?;
    let strategies = [Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi];
    let jobs = NonZeroUsize::new(SUITE_JOBS).expect("positive");
    let mut out = Outcome::default();
    if args.trace {
        traced(
            args,
            &machine,
            |_| Ok(loops.clone()),
            &strategies,
            Some(jobs),
            setup_s,
            &mut out,
        )?;
        return Ok(out);
    }
    let request = BatchRequest {
        machine: machine.clone(),
        budgets: BUDGETS.to_vec(),
        strategies: strategies.to_vec(),
        options: CompileOptions::default(),
        jobs,
    };
    let mut time_box = TimeBox::new(args.seconds);
    let (mut rates, mut latencies, mut calibrations) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Vec<CellStatus>> = None;
    while time_box.next_pass() {
        calibrations.push(calibrate(SUITE_JOBS));
        let report = run_batch(&loops, &request);
        rates.push(report.cells.len() as f64 / report.total_wall.as_secs_f64());
        latencies.extend(report.cells.iter().map(|c| c.wall.as_secs_f64() * 1e3));
        out.attempted += report.cells.len() as u64;
        let statuses: Vec<CellStatus> = report.cells.into_iter().map(|c| c.status).collect();
        match &first {
            None => first = Some(statuses),
            Some(reference) if *reference != statuses => {
                out.fail("run_batch results differ between passes".into())
            }
            Some(_) => {}
        }
    }
    out.set("peak_rss_mb", peak_rss_mb("self")?);
    // Check phase: every cell compiled again in-process, compared with the
    // batch engine's status and checked independently.
    let mut quality = Quality::default();
    let cells = cell_specs(loops.len(), &strategies);
    for (spec, status) in cells.iter().zip(first.expect("at least one pass")) {
        let result = compile_cell(&loops, &machine, spec);
        let l = &loops[spec.loop_index];
        if status_of(&result) != status {
            out.fail(format!(
                "{} budget {}: batch engine and compile disagree",
                l.name, spec.budget
            ));
        }
        quality.add(l, spec.budget, &result, &machine, &mut out);
    }
    quality.finish(&mut out);
    end_to_end(&mut out, &rates, &Latency::pooled(&latencies), &calibrations, setup_s);
    Ok(out)
}

pub fn spill_large(args: &Args) -> Result<Outcome, String> {
    let machine = MachineConfig::p2l4();
    let (first, setup_s) = repeat_setup(SETUP_REPEATS, || large_corpus(args.seed, 0));
    let first = first?;
    // Increase-II is left out: at 256 ops every one of its cells fails by
    // design and would only add noise.
    let strategies = [Strategy::BestOfAll, Strategy::Spill];
    let corpus =
        |pass: usize| if pass == 0 { Ok(first.clone()) } else { large_corpus(args.seed, pass) };
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &machine, corpus, &strategies, None, setup_s, &mut out)?;
        return Ok(out);
    }
    let mut time_box = TimeBox::new(args.seconds);
    let (mut rates, mut latencies, mut calibrations) = (Vec::new(), Vec::new(), Vec::new());
    let (mut quality, mut later) = (Quality::default(), Quality::default());
    let mut pass = 0;
    while time_box.next_pass() || pass < LARGE_MIN_PASSES {
        let loops = corpus(pass)?;
        let cells = cell_specs(loops.len(), &strategies);
        let mut compile_s = 0.0;
        let mut results = Vec::with_capacity(cells.len());
        calibrations.push(calibrate(1));
        for c in &cells {
            let t0 = Instant::now();
            results.push(std::hint::black_box(compile_cell(&loops, &machine, c)));
            let s = t0.elapsed().as_secs_f64();
            compile_s += s;
            latencies.push(s * 1e3);
        }
        rates.push(cells.len() as f64 / compile_s);
        out.attempted += cells.len() as u64;
        let q = if pass < LARGE_MIN_PASSES { &mut quality } else { &mut later };
        for (c, result) in cells.iter().zip(&results) {
            q.add(&loops[c.loop_index], c.budget, result, &machine, &mut out);
        }
        pass += 1;
    }
    out.set("peak_rss_mb", peak_rss_mb("self")?);
    quality.finish(&mut out);
    end_to_end(&mut out, &rates, &Latency::pooled(&latencies), &calibrations, setup_s);
    Ok(out)
}

/// The batch engine's status for a compile result (its exact rendering).
fn status_of(result: &CompileResult) -> CellStatus {
    match result {
        Ok(c) => CellStatus::Fitted {
            ii: c.ii(),
            regs: c.registers_used(),
            spilled: c.spilled(),
            reschedules: c.reschedules(),
            memory_ops: c.memory_ops(),
            strategy_used: c.strategy_used(),
        },
        Err(e) => CellStatus::Failed { error: e.to_string() },
    }
}

/// Checks compile cells and accumulates the quality metrics over them:
///
/// * `fit_frac`: cells that fit their budget;
/// * `decided_frac`: cells that reached a verdict (fitted, or given up by
///   design) without a scheduler error or the spill driver's round cap;
/// * `cycles_ratio`: Σ II / Σ MII of the original loop, over fitted cells
///   (the slowdown register pressure costs);
/// * `traffic_ratio`: Σ memory ops of the final body / Σ memory ops of the
///   original loop, over fitted cells (the spill traffic).
///
/// The sums are unweighted, so one heavy loop cannot swing them between
/// seeds; the paper's weighted totals stay in `BENCH_suite.json`.
#[derive(Default)]
pub struct Quality {
    cells: u64,
    fitted: u64,
    undecided: u64,
    ii: u64,
    mii: u64,
    memory_ops: u64,
    base_memory_ops: u64,
    self_tested: bool,
}

impl Quality {
    /// Checks one cell of loop `l` at `budget` and counts it. A fitted
    /// cell must pass the independent checker; the first one with a
    /// dependence also runs the checker's planted-fault self-test.
    pub fn add(
        &mut self,
        l: &BenchLoop,
        budget: u32,
        result: &CompileResult,
        machine: &MachineConfig,
        out: &mut Outcome,
    ) {
        self.cells += 1;
        match result {
            Ok(c) => {
                if let Err(e) = check::check_compiled(c, machine, budget) {
                    out.fail(format!("{} budget {budget}: {e}", l.name));
                }
                if !self.self_tested && c.ddg().num_edges() > 0 {
                    if let Err(e) = check::self_test(c, machine, budget) {
                        out.fail(e);
                    }
                    self.self_tested = true;
                }
                self.fitted += 1;
                self.ii += u64::from(c.ii());
                self.mii += u64::from(regpipe_sched::mii(&l.ddg, machine));
                self.memory_ops += u64::from(c.memory_ops());
                self.base_memory_ops += l.ddg.memory_ops() as u64;
            }
            Err(e) => {
                if !replay::fail_of(e).is_unfit() {
                    self.undecided += 1;
                    out.fail(format!("{} budget {budget}: {e}", l.name));
                }
            }
        }
    }

    pub fn finish(&self, out: &mut Outcome) {
        if !self.self_tested {
            out.fail("no fitted cell to self-test the checker on".into());
        }
        let cells = self.cells.max(1) as f64;
        out.set("fit_frac", self.fitted as f64 / cells);
        out.set("decided_frac", 1.0 - self.undecided as f64 / cells);
        out.set("cycles_ratio", self.ii as f64 / self.mii.max(1) as f64);
        out.set("traffic_ratio", self.memory_ops as f64 / self.base_memory_ops.max(1) as f64);
    }
}

/// Per-cell latency percentiles in ms, with the number of samples behind
/// them.
pub struct Latency {
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
}

impl Latency {
    /// Percentiles over every cell of the run.
    pub fn pooled(latencies_ms: &[f64]) -> Latency {
        Latency {
            p50: quantile(latencies_ms, 0.50),
            p99: quantile(latencies_ms, 0.99),
            samples: latencies_ms.len(),
        }
    }
}

/// Sets the timing metrics shared by every workload: the median pass rate
/// and the latency percentiles, normalised by the run's [`speed_factor`].
pub fn end_to_end(
    out: &mut Outcome,
    rates: &[f64],
    latency: &Latency,
    calibrations: &[f64],
    setup_s: f64,
) {
    let factor = speed_factor(calibrations);
    out.set("cells_per_s", median(rates) / factor);
    out.set("latency_ms_p50", latency.p50 * factor);
    out.set("latency_ms_p99", latency.p99 * factor);
    out.samples.insert("cells_per_s", rates.len());
    out.samples.insert("latency_ms_p50", latency.samples);
    out.samples.insert("latency_ms_p99", latency.samples);
    out.set("setup_s", setup_s);
    eprintln!(
        "perfbench: speed factor {factor:.4} over {} passes; raw cells_per_s {:.3}, latency_ms_p50 {:.5}, latency_ms_p99 {:.5}",
        calibrations.len(),
        median(rates),
        latency.p50,
        latency.p99
    );
}

/// The traced run of a batch workload: per pass, the corpus compiled by
/// the real `compile` (untraced) and then replayed inside spans, with the
/// replay equivalence gate on every cell, until the run's time is spent.
fn traced(
    args: &Args,
    machine: &MachineConfig,
    corpus: impl Fn(usize) -> Result<Vec<BenchLoop>, String>,
    strategies: &[Strategy],
    jobs: Option<NonZeroUsize>,
    setup_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut time_box = TimeBox::new(args.seconds);
    let (mut untraced_s, mut traced_s, mut busy_s) = (0.0, 0.0, 0.0);
    let (mut passes, mut replayed_cells) = (0usize, 0usize);
    let mut quality = Quality::default();
    while time_box.next_pass() {
        let loops = corpus(passes)?;
        let cells = cell_specs(loops.len(), strategies);
        let (mut results, mut replays) = (Vec::new(), Vec::new());
        // Alternate which side runs first, so warm-up does not bias the
        // overhead estimate.
        let traced_first = passes % 2 == 1;
        for traced_side in [traced_first, !traced_first] {
            let t0 = Instant::now();
            if traced_side {
                for (i, c) in cells.iter().enumerate() {
                    tr.set_cell((replayed_cells + i) as u64);
                    let ddg = &loops[c.loop_index].ddg;
                    replays.push(replay::compile(
                        &mut tr,
                        ddg,
                        machine,
                        c.budget,
                        &options(c.strategy),
                    ));
                }
                traced_s += t0.elapsed().as_secs_f64();
            } else {
                for c in &cells {
                    let t = Instant::now();
                    results.push(compile_cell(&loops, machine, c));
                    busy_s += t.elapsed().as_secs_f64();
                }
                untraced_s += t0.elapsed().as_secs_f64();
            }
        }
        for ((c, result), replayed) in cells.iter().zip(&results).zip(&replays) {
            if *replayed != Cell::of(result) {
                out.fail(format!(
                    "replay of {} budget {} {:?} gave {replayed:?}, compile gave {:?}",
                    loops[c.loop_index].name,
                    c.budget,
                    c.strategy,
                    Cell::of(result)
                ));
            }
        }
        for (c, result) in cells.iter().zip(&results) {
            quality.add(&loops[c.loop_index], c.budget, result, machine, out);
        }
        out.attempted += 2 * cells.len() as u64;
        replayed_cells += cells.len();
        passes += 1;
    }
    quality.finish(out);
    tr.report_layers(passes, out);
    out.set("trace.replay_cells", replayed_cells as f64 / passes as f64);
    out.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    out.set("trace.coverage", tr.covered_s() / traced_s);
    out.set("loops.build.s", setup_s);
    match jobs {
        Some(jobs) => {
            // Worker balance of the batch engine itself, from its own
            // per-cell and total wall times.
            let loops = corpus(0)?;
            let request = BatchRequest {
                machine: machine.clone(),
                budgets: BUDGETS.to_vec(),
                strategies: strategies.to_vec(),
                options: CompileOptions::default(),
                jobs,
            };
            let report = run_batch(&loops, &request);
            let busy: f64 = report.cells.iter().map(|c| c.wall.as_secs_f64()).sum();
            let capacity = jobs.get() as f64 * report.total_wall.as_secs_f64();
            out.set("exec.worker.busy_s", busy);
            out.set("exec.worker.idle_frac", (1.0 - busy / capacity).max(0.0));
        }
        None => {
            out.set("exec.worker.busy_s", busy_s / passes as f64);
            out.set("exec.worker.idle_frac", (1.0 - busy_s / untraced_s).max(0.0));
        }
    }
    let path = format!(".perfbench/trace/{}-seed{}.jsonl", args.workload, args.seed);
    if let Err(e) = tr.write_jsonl(Path::new(&path)) {
        out.fail(format!("writing {path}: {e}"));
    }
    Ok(())
}
