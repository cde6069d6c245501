//! The `regpipe bench` harness: wall-times the full `compile` path over
//! seeded synthetic corpora at several kernel sizes and renders
//! `BENCH_compile.json` (schema `regpipe-bench-compile/v3`).
//!
//! Each size point is one [`run_batch`] over its corpus on one worker, so
//! the work counters are the batch engine's own aggregates; the timing
//! loop is the ~200 ms sampling plan of [`criterion::measure`]. As with
//! `BENCH_suite.json`, the emitted file contains only deterministic work
//! counters unless timing is explicitly requested (`REGPIPE_BENCH_TIMING=1`
//! via the CLI), so smoke runs byte-compare across machines and job
//! counts; a previous timed report can be threaded back in (`regpipe bench
//! --before <file>`) to record before/after speedups in one artifact.

use std::num::NonZeroUsize;

use criterion::{measure, Measurement};
use regpipe_core::{CompileOptions, SpillPolicyKind, Strategy};
use regpipe_exec::json::{self, round2, Value};
use regpipe_exec::{run_batch, strategy_slug, BatchAggregate, BatchRequest};
use regpipe_loops::{generate, GenParams};
use regpipe_machine::MachineConfig;
use regpipe_sched::SchedulerKind;

/// Configuration of one `regpipe bench` run.
#[derive(Clone, Debug)]
pub struct CompileBenchConfig {
    /// Generator seed for every per-size corpus.
    pub seed: u64,
    /// Kernels generated per size point.
    pub count: usize,
    /// Kernel sizes (exact op counts) to sweep.
    pub sizes: Vec<usize>,
    /// Register budgets per cell.
    pub budgets: Vec<u32>,
    /// Strategies per cell.
    pub strategies: Vec<Strategy>,
    /// The core modulo scheduler every cell runs (`--scheduler`).
    pub scheduler: SchedulerKind,
    /// Victim-ranking policy for every spilling cell (`--spill-policy`).
    pub spill_policy: SpillPolicyKind,
    /// Machine model.
    pub machine: MachineConfig,
    /// Whether to run the sampling loop and include wall-time fields.
    pub timed: bool,
}

impl Default for CompileBenchConfig {
    /// Mirrors the suite defaults: budgets 64/32, all three strategies,
    /// P2L4, sizes spanning small to stress-test kernels.
    fn default() -> Self {
        CompileBenchConfig {
            seed: 49626,
            count: 12,
            sizes: vec![16, 48, 96, 160, 256],
            budgets: vec![64, 32],
            strategies: vec![Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi],
            scheduler: SchedulerKind::default(),
            spill_policy: SpillPolicyKind::default(),
            machine: MachineConfig::p2l4(),
            timed: false,
        }
    }
}

/// Deterministic work counters plus (optionally) the timing of one size
/// point.
#[derive(Clone, Debug)]
pub struct SizePoint {
    /// Ops per kernel at this point.
    pub ops: usize,
    /// Kernels compiled.
    pub loops: usize,
    /// `loops × budgets × strategies` compile calls per sweep.
    pub cells: usize,
    /// The sweep's work counters: its batch aggregates summed (fitted and
    /// failed cells, cycles, spills, reschedules).
    pub work: BatchAggregate,
    /// Wall measurement of one full sweep (present when timed).
    pub measurement: Option<Measurement>,
}

/// The collected result of a bench run.
#[derive(Clone, Debug)]
pub struct CompileBenchReport {
    /// The configuration that produced it.
    pub config: CompileBenchConfig,
    /// One point per entry of `config.sizes`, in order.
    pub points: Vec<SizePoint>,
}

/// Runs the bench: one generated corpus and one (optionally sampled)
/// batch sweep per size.
///
/// # Errors
///
/// Propagates generator knob validation errors.
pub fn run_compile_bench(cfg: &CompileBenchConfig) -> Result<CompileBenchReport, String> {
    let mut options = CompileOptions { scheduler: cfg.scheduler, ..CompileOptions::default() };
    options.spill.policy = cfg.spill_policy;
    let request = BatchRequest {
        machine: cfg.machine.clone(),
        budgets: cfg.budgets.clone(),
        strategies: cfg.strategies.clone(),
        options,
        jobs: NonZeroUsize::MIN,
    };
    let mut points = Vec::with_capacity(cfg.sizes.len());
    for &ops in &cfg.sizes {
        let params = GenParams { min_ops: ops, max_ops: ops, ..GenParams::default() };
        let loops = generate(cfg.seed, cfg.count, &params)?;
        let report = run_batch(&loops, &request);
        let measurement = cfg.timed.then(|| measure(|| run_batch(&loops, &request)));
        points.push(SizePoint {
            ops,
            loops: loops.len(),
            cells: report.cells.len(),
            work: report.total(),
            measurement,
        });
    }
    Ok(CompileBenchReport { config: cfg.clone(), points })
}

impl CompileBenchReport {
    /// Renders `BENCH_compile.json` (schema `regpipe-bench-compile/v3`;
    /// v2 added the top-level `scheduler` field recording the scheduler
    /// axis of the run, v3 the `spill_policy` field).
    ///
    /// Deterministic fields always appear; `mean_wall_us`/`iters` only for
    /// timed runs. When `before` carries a previously emitted *timed*
    /// report, each size point additionally records that run's
    /// `before_mean_wall_us` and the resulting `speedup` — the one-artifact
    /// before/after record for a perf PR.
    pub fn to_json(&self, before: Option<&Value>) -> String {
        let before_points: Vec<(i64, f64)> = before
            .and_then(|v| v.get("sizes"))
            .and_then(Value::as_array)
            .map(|sizes| {
                sizes
                    .iter()
                    .filter_map(|p| match (p.get("ops"), p.get("mean_wall_us")) {
                        (Some(&Value::Int(ops)), Some(&Value::Int(us))) => {
                            Some((ops, us as f64))
                        }
                        (Some(&Value::Int(ops)), Some(&Value::Num(us))) => Some((ops, us)),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();

        let mut top = vec![
            ("machine".to_string(), Value::Str(self.config.machine.name().to_string())),
            ("scheduler".to_string(), Value::Str(self.config.scheduler.slug().into())),
            ("spill_policy".to_string(), Value::Str(self.config.spill_policy.slug().into())),
            ("seed".to_string(), Value::uint(self.config.seed)),
            ("count_per_size".to_string(), Value::uint(self.config.count as u64)),
            (
                "budgets".to_string(),
                Value::Array(
                    self.config.budgets.iter().map(|&b| Value::uint(u64::from(b))).collect(),
                ),
            ),
            (
                "strategies".to_string(),
                Value::Array(
                    self.config
                        .strategies
                        .iter()
                        .map(|&s| Value::Str(strategy_slug(s).into()))
                        .collect(),
                ),
            ),
        ];
        let sizes = self
            .points
            .iter()
            .map(|p| {
                let mut pairs = vec![
                    ("ops".to_string(), Value::uint(p.ops as u64)),
                    ("loops".to_string(), Value::uint(p.loops as u64)),
                    ("cells".to_string(), Value::uint(p.cells as u64)),
                    ("fitted".to_string(), Value::uint(u64::from(p.work.fitted))),
                    ("failures".to_string(), Value::uint(u64::from(p.work.failures))),
                    ("cycles".to_string(), Value::uint(p.work.cycles)),
                    ("spilled".to_string(), Value::uint(p.work.spilled)),
                    ("reschedules".to_string(), Value::uint(p.work.reschedules)),
                ];
                if let Some(m) = p.measurement {
                    let mean_us = m.mean_nanos() as f64 / 1e3;
                    pairs.push(("iters".into(), Value::uint(m.iters)));
                    pairs.push(("mean_wall_us".into(), Value::Num(round2(mean_us))));
                    if let Some(&(_, before_us)) =
                        before_points.iter().find(|&&(ops, _)| ops == p.ops as i64)
                    {
                        pairs.push(("before_mean_wall_us".into(), Value::Num(before_us)));
                        if mean_us > 0.0 {
                            pairs.push((
                                "speedup".into(),
                                Value::Num(round2(before_us / mean_us)),
                            ));
                        }
                    }
                }
                Value::Object(pairs)
            })
            .collect();
        top.push(("sizes".into(), Value::Array(sizes)));
        json::report("regpipe-bench-compile/v3", top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CompileBenchConfig {
        CompileBenchConfig {
            count: 3,
            sizes: vec![6, 10],
            budgets: vec![32],
            strategies: vec![Strategy::BestOfAll],
            timed: false,
            ..CompileBenchConfig::default()
        }
    }

    #[test]
    fn untimed_report_is_deterministic_and_wall_free() {
        let a = run_compile_bench(&tiny()).unwrap().to_json(None);
        let b = run_compile_bench(&tiny()).unwrap().to_json(None);
        assert_eq!(a, b, "two untimed runs must render byte-identically");
        assert!(!a.contains("mean_wall_us"));
        let doc = regpipe_exec::json::parse(&a).expect("report parses");
        assert_eq!(doc.get("schema"), Some(&Value::Str("regpipe-bench-compile/v3".into())));
        assert_eq!(doc.get("scheduler"), Some(&Value::Str("hrms".into())));
        assert_eq!(doc.get("spill_policy"), Some(&Value::Str("paper".into())));
        assert_eq!(doc.get("sizes").and_then(Value::as_array).map(<[Value]>::len), Some(2));
    }

    /// A non-default scheduler flows into every cell and into the report's
    /// top-level `scheduler` field.
    #[test]
    fn scheduler_axis_is_recorded() {
        let cfg = CompileBenchConfig { scheduler: SchedulerKind::Sms, ..tiny() };
        let text = run_compile_bench(&cfg).unwrap().to_json(None);
        let doc = regpipe_exec::json::parse(&text).expect("report parses");
        assert_eq!(doc.get("scheduler"), Some(&Value::Str("sms".into())));
    }

    /// A non-default spill policy flows into every cell and into the
    /// report's top-level `spill_policy` field.
    #[test]
    fn spill_policy_axis_is_recorded() {
        let cfg = CompileBenchConfig {
            spill_policy: SpillPolicyKind::MinNextUse,
            budgets: vec![8],
            ..tiny()
        };
        let text = run_compile_bench(&cfg).unwrap().to_json(None);
        let doc = regpipe_exec::json::parse(&text).expect("report parses");
        assert_eq!(doc.get("spill_policy"), Some(&Value::Str("min-next-use".into())));
    }

    #[test]
    fn timed_report_records_speedup_against_before() {
        let cfg = CompileBenchConfig { timed: true, sizes: vec![6], count: 2, ..tiny() };
        let report = run_compile_bench(&cfg).unwrap();
        let timed = report.to_json(None);
        assert!(timed.contains("mean_wall_us"));
        let before = regpipe_exec::json::parse(&timed).unwrap();
        let chained = report.to_json(Some(&before));
        assert!(chained.contains("before_mean_wall_us"));
        assert!(chained.contains("speedup"));
        regpipe_exec::json::parse(&chained).expect("chained report parses");
    }

    #[test]
    fn work_counters_match_between_runs_of_different_timing_modes() {
        let untimed = run_compile_bench(&tiny()).unwrap();
        let timed = run_compile_bench(&CompileBenchConfig { timed: true, ..tiny() }).unwrap();
        for (u, t) in untimed.points.iter().zip(&timed.points) {
            let counters = |p: &SizePoint| (p.work.fitted, p.work.failures, p.work.cycles);
            assert_eq!(counters(u), counters(t));
            assert!(t.measurement.is_some() && u.measurement.is_none());
        }
    }
}
