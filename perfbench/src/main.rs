//! The regpipe benchmark: seeded workloads driven through the public entry
//! points of the batch engine, the compile drivers, the exact oracle and the
//! compile daemon. See `perfbench/README.md` for the metrics, the workloads
//! and why each was chosen.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the real program and prints every
//! end-to-end metric; with `--trace 1` it replays the same work through the
//! layers' public functions inside spans and prints every per-layer metric.
//! Every run checks its outputs. The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. A failed
//! check prints `"correct":false` and exits with code 1.

mod batch;
mod check;
mod gap;
mod replay;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("cells_per_s", "cells/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fit_frac", "fraction"),
    ("decided_frac", "fraction"),
    ("cycles_ratio", "ratio"),
    ("traffic_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("sched.loop_analysis.builds", "count"),
    ("sched.loop_analysis.s", "s"),
    ("sched.schedule_in.calls", "count"),
    ("sched.schedule_in.s", "s"),
    ("sched.iis_tried", "count"),
    ("sched.ii_yield", "ratio"),
    ("sched.exact.nodes", "count"),
    ("sched.exact.s", "s"),
    ("sched.exact.proven_ratio", "ratio"),
    ("regalloc.lifetimes.builds", "count"),
    ("regalloc.lifetimes.s", "s"),
    ("regalloc.rotating.calls", "count"),
    ("regalloc.rotating.s", "s"),
    ("regalloc.rotating.excess_regs", "count"),
    ("spill.rank.calls", "count"),
    ("spill.rank.s", "s"),
    ("spill.rewrite.calls", "count"),
    ("spill.rewrite.s", "s"),
    ("spill.victims", "count"),
    ("core.spill.rounds", "count"),
    ("core.best_of_all.probes", "count"),
    ("core.increase_ii.points", "count"),
    ("core.self.s", "s"),
    ("exec.worker.busy_s", "s"),
    ("exec.worker.idle_frac", "fraction"),
    ("loops.build.s", "s"),
    ("serve.handle.hit_us_p50", "us"),
    ("serve.handle.miss_us_p50", "us"),
    ("serve.transport.us_p50", "us"),
    ("exec.json.parse_us", "us"),
    ("ddg.textfmt.parse_us", "us"),
    ("ddg.content_hash_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.store.append_us", "us"),
    ("serve.store.appends", "count"),
    ("trace.replay_cells", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage", "fraction"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 5] =
    ["suite-small", "spill-large", "serve-socket-miss", "serve-socket-hit", "oracle-gap"];

/// One run's parameters.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?)
                }
                "--seconds" => {
                    let s: u64 =
                        value.parse().map_err(|_| format!("bad --seconds '{value}'"))?;
                    if s == 0 {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(Duration::from_secs(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                    })
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload '{workload}' ({})", WORKLOADS.join("|")));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// What a workload run hands back: operation counts, failures, and the
/// metric values it measured (by name, from [`END_TO_END`] or
/// [`PER_LAYER`]).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind percentile metrics, printed beside them.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "suite-small" => batch::suite_small(&args),
        "spill-large" => batch::spill_large(&args),
        "serve-socket-miss" => serve::run(&args, serve::Mode::Miss),
        "serve-socket-hit" => serve::run(&args, serve::Mode::Hit),
        "oracle-gap" => gap::run(&args),
        _ => unreachable!("workload names are validated by Args::parse"),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    report(&args, &outcome)
}

/// Prints one human line per metric, then the JSON result line.
fn report(args: &Args, outcome: &Outcome) -> ExitCode {
    for failure in outcome.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = outcome.failures.is_empty();
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut rendered = Vec::new();
    // A traced run that fails its checks (the replay equivalence gate
    // included) prints no per-layer numbers.
    if correct || !args.trace {
        for &(name, unit) in catalog {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            match outcome.samples.get(name) {
                Some(n) => println!("{name:<32} {value:>16.6} {unit} (n={n})"),
                None => println!("{name:<32} {value:>16.6} {unit}"),
            }
            rendered.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failures.len(),
        rendered.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
