//! The `oracle-gap` workload: `regpipe_bench::run_gap` over a corpus of
//! 16–24-op kernels, where the exact branch-and-bound scheduler does most
//! of the work.

use std::num::NonZeroUsize;
use std::path::Path;
use std::slice;
use std::time::Instant;

use regpipe_bench::{
    gap_heuristics, run_gap, GapConfig, LoopGap, SchedPoint, DEFAULT_SPILL_BUDGET,
};
use regpipe_core::{compile, CompileOptions, SpillPolicyKind};
use regpipe_loops::{generate, BenchLoop, GenParams};
use regpipe_machine::MachineConfig;
use regpipe_sched::{ExactScheduler, SchedRequest, DEFAULT_NODE_BUDGET};

use crate::batch::{end_to_end, Latency, SETUP_REPEATS};
use crate::check;
use crate::replay::{self, Cell};
use crate::stats::{calibrate, corpus_seed, peak_rss_mb, repeat_setup, TimeBox};
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Loops per corpus. Each pass runs a fresh corpus, so one run covers
/// thousands of loops and a seed's figures do not hinge on how many of 200
/// loops exhaust the oracle's budget.
const LOOPS: usize = 200;
/// Passes every run makes; the quality metrics cover their corpora, so
/// they repeat exactly for a seed.
const MIN_PASSES: usize = 4;

fn config(seed: u64) -> GapConfig {
    GapConfig {
        machine: MachineConfig::p2l4(),
        node_budget: DEFAULT_NODE_BUDGET,
        jobs: NonZeroUsize::new(1).expect("positive"),
        source: format!("gen:seed={seed},count={LOOPS},min_ops=16,max_ops=24"),
        spill_policy: SpillPolicyKind::default(),
        spill_budget: DEFAULT_SPILL_BUDGET,
    }
}

fn corpus(seed: u64, pass: usize) -> Result<Vec<BenchLoop>, String> {
    let params = GenParams { min_ops: 16, max_ops: 24, ..GenParams::default() };
    generate(corpus_seed(seed, pass), LOOPS, &params)
}

/// One loop through `run_gap` (a cell of this workload).
fn gap_one(l: &BenchLoop, config: &GapConfig) -> LoopGap {
    run_gap(slice::from_ref(l), config).loops.pop().expect("one loop in, one loop out")
}

/// Whether two per-loop results agree in every field but the name.
fn same_result(a: &LoopGap, b: &LoopGap) -> bool {
    a.exact == b.exact
        && a.proven == b.proven
        && a.nodes == b.nodes
        && a.heuristics == b.heuristics
        && a.spill == b.spill
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (first, setup_s) = repeat_setup(SETUP_REPEATS, || corpus(args.seed, 0));
    let first = first?;
    let corpus =
        |pass: usize| if pass == 0 { Ok(first.clone()) } else { corpus(args.seed, pass) };
    let config = config(args.seed);
    let mut out = Outcome::default();
    if args.trace {
        traced(args, corpus, &config, setup_s, &mut out)?;
        return Ok(out);
    }
    let mut time_box = TimeBox::new(args.seconds);
    let (mut rates, mut latencies, mut calibrations) = (Vec::new(), Vec::new(), Vec::new());
    let (mut quality, mut later) = (GapQuality::default(), GapQuality::default());
    let mut pass = 0;
    while time_box.next_pass() || pass < MIN_PASSES {
        let loops = corpus(pass)?;
        let mut gaps = Vec::with_capacity(loops.len());
        let mut pass_s = 0.0;
        calibrations.push(calibrate(1));
        for l in &loops {
            let t0 = Instant::now();
            gaps.push(std::hint::black_box(gap_one(l, &config)));
            let s = t0.elapsed().as_secs_f64();
            pass_s += s;
            latencies.push(s * 1e3);
        }
        rates.push(loops.len() as f64 / pass_s);
        out.attempted += loops.len() as u64;
        let q = if pass < MIN_PASSES { &mut quality } else { &mut later };
        for (l, g) in loops.iter().zip(&gaps) {
            q.add(l, g, &config, &mut out);
        }
        pass += 1;
    }
    out.set("peak_rss_mb", peak_rss_mb("self")?);
    quality.finish(&mut out);
    end_to_end(&mut out, &rates, &Latency::pooled(&latencies), &calibrations, setup_s);
    Ok(out)
}

/// Checks the oracle against the lower bound and the heuristics, and
/// accumulates the quality metrics:
///
/// * `fit_frac`: the per-policy budgeted compiles that fit;
/// * `decided_frac`: loops whose optimal II the oracle proved within its
///   node budget;
/// * `cycles_ratio`: Σ oracle II / Σ MII;
/// * `traffic_ratio`: 1, since the oracle schedules without a register
///   budget and adds no memory traffic.
///
/// The first loop with a fitting budgeted compile also self-tests the
/// schedule checker.
#[derive(Default)]
struct GapQuality {
    loops: u64,
    proven: u64,
    fitted: u64,
    compiles: u64,
    ii: u64,
    mii: u64,
    self_tested: bool,
}

impl GapQuality {
    fn add(&mut self, l: &BenchLoop, g: &LoopGap, config: &GapConfig, out: &mut Outcome) {
        let m = &config.machine;
        let mii = regpipe_sched::mii(&l.ddg, m);
        if g.exact.ii < mii {
            out.fail(format!("{}: oracle II {} is below MII {mii}", l.name, g.exact.ii));
        }
        if g.proven {
            self.proven += 1;
            for (kind, h) in gap_heuristics().zip(&g.heuristics) {
                if g.exact.ii > h.ii {
                    out.fail(format!(
                        "{}: proven II {} is above {kind}'s II {}",
                        l.name, g.exact.ii, h.ii
                    ));
                }
            }
        }
        self.loops += 1;
        self.fitted += g.spill.iter().filter(|s| s.is_some()).count() as u64;
        self.compiles += g.spill.len() as u64;
        self.ii += u64::from(g.exact.ii);
        self.mii += u64::from(mii);
        if !self.self_tested {
            let compiled = compile(&l.ddg, m, config.spill_budget, &CompileOptions::default());
            if let Some(c) = compiled.ok().filter(|c| c.ddg().num_edges() > 0) {
                let checked = check::check_compiled(&c, m, config.spill_budget)
                    .and_then(|()| check::self_test(&c, m, config.spill_budget));
                if let Err(e) = checked {
                    out.fail(e);
                }
                self.self_tested = true;
            }
        }
    }

    fn finish(&self, out: &mut Outcome) {
        if !self.self_tested {
            out.fail("no fitted loop to self-test the checker on".into());
        }
        out.set("fit_frac", self.fitted as f64 / self.compiles.max(1) as f64);
        out.set("decided_frac", self.proven as f64 / self.loops.max(1) as f64);
        out.set("cycles_ratio", self.ii as f64 / self.mii.max(1) as f64);
        out.set("traffic_ratio", 1.0);
    }
}

/// Replays one loop of `run_gap`: the oracle, every heuristic, and the
/// per-policy budgeted compiles, inside spans.
fn replay_one(tr: &mut Tracer, l: &BenchLoop, config: &GapConfig) -> LoopGap {
    let m = &config.machine;
    let ctx = replay::loop_analysis(tr, &l.ddg, m);
    let request = SchedRequest::default();
    let oracle = ExactScheduler::with_budget(config.node_budget);
    let outcome = tr
        .span("sched.exact", |_| oracle.solve_in(&ctx, &request))
        .expect("corpus loops are schedulable");
    tr.count("sched.exact.nodes", outcome.nodes as f64);
    tr.count("sched.exact.proven", f64::from(u8::from(outcome.proven())));
    let point = |tr: &mut Tracer, s: &regpipe_sched::Schedule| {
        let a = replay::allocate(tr, &l.ddg, s);
        SchedPoint { ii: s.ii(), sc: s.stage_count(), max_live: a.max_live() }
    };
    let exact = point(tr, &outcome.schedule);
    let heuristics = gap_heuristics()
        .map(|k| {
            let s = replay::schedule_in(tr, k, &ctx, &request)
                .expect("corpus loops are schedulable");
            point(tr, &s)
        })
        .collect();
    let spill = SpillPolicyKind::ALL
        .into_iter()
        .map(|policy| {
            let options = CompileOptions::with_spill_policy(policy);
            match replay::compile(tr, &l.ddg, m, config.spill_budget, &options) {
                Cell::Fitted { ii, spilled, .. } => {
                    Some(regpipe_bench::SpillOutcome { ii, spilled })
                }
                Cell::Failed(_) => None,
            }
        })
        .collect();
    LoopGap {
        name: l.name.clone(),
        exact,
        proven: outcome.proven(),
        nodes: outcome.nodes,
        heuristics,
        spill,
    }
}

fn traced(
    args: &Args,
    corpus: impl Fn(usize) -> Result<Vec<BenchLoop>, String>,
    config: &GapConfig,
    setup_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut time_box = TimeBox::new(args.seconds);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut passes, mut replayed) = (0usize, 0usize);
    let mut quality = GapQuality::default();
    while time_box.next_pass() {
        let loops = corpus(passes)?;
        let (mut gaps, mut replays) = (Vec::new(), Vec::new());
        // Alternate which side runs first, so warm-up does not bias the
        // overhead estimate.
        let traced_first = passes % 2 == 1;
        for traced_side in [traced_first, !traced_first] {
            let t0 = Instant::now();
            if traced_side {
                for (i, l) in loops.iter().enumerate() {
                    tr.set_cell((replayed + i) as u64);
                    replays.push(tr.span("core.gap_loop", |tr| replay_one(tr, l, config)));
                }
                traced_s += t0.elapsed().as_secs_f64();
            } else {
                gaps = loops.iter().map(|l| gap_one(l, config)).collect();
                untraced_s += t0.elapsed().as_secs_f64();
            }
        }
        for ((l, g), again) in loops.iter().zip(&gaps).zip(&replays) {
            if !same_result(again, g) {
                out.fail(format!("replay of {} differs from run_gap", l.name));
            }
        }
        for (l, g) in loops.iter().zip(&gaps) {
            quality.add(l, g, config, out);
        }
        out.attempted += 2 * loops.len() as u64;
        replayed += loops.len();
        passes += 1;
    }
    quality.finish(out);
    tr.report_layers(passes, out);
    out.set("trace.replay_cells", replayed as f64 / passes as f64);
    out.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    out.set("trace.coverage", tr.covered_s() / traced_s);
    out.set("loops.build.s", setup_s);
    out.set("exec.worker.busy_s", untraced_s / passes as f64);
    let path = format!(".perfbench/trace/{}-seed{}.jsonl", args.workload, args.seed);
    if let Err(e) = tr.write_jsonl(Path::new(&path)) {
        out.fail(format!("writing {path}: {e}"));
    }
    Ok(())
}
