//! The serve benchmark: drives a generated corpus through an in-process
//! [`Server`] and reports throughput, hit rate, and latency percentiles
//! as `BENCH_serve.json` (schema `regpipe-bench-serve/v2`).
//!
//! Like every report in this workspace, the default rendering contains
//! only deterministic fields (request counts, hit/miss/eviction totals,
//! the configuration); wall-clock numbers — throughput and percentiles —
//! are always measured but rendered only on request
//! (`REGPIPE_BENCH_TIMING=1` via the CLI), so committed reports diff
//! cleanly run to run.

use std::num::NonZeroUsize;

use regpipe_exec::json::{self, round2, Value};
use regpipe_exec::strategy_slug;

use crate::replay::{base_requests, replay_in_process, IdPolicy, ReplayConfig, ReplaySource};
use crate::server::{ServeOptions, Server};

/// Configuration of one serve-benchmark run.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    /// Generator seed for the workload.
    pub seed: u64,
    /// Number of generated kernels.
    pub count: usize,
    /// Number of passes over the request stream (pass 2+ exercise the
    /// cache hit path).
    pub repeat: usize,
    /// Per-request options: each kernel is requested once per budget per
    /// pass, with the same strategy, scheduler, spill policy and machine.
    pub replay: ReplayConfig,
    /// Client-side concurrency.
    pub jobs: NonZeroUsize,
    /// Whether the daemon cache is enabled.
    pub cache: bool,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            seed: 0xC1DA,
            count: 100,
            repeat: 2,
            replay: ReplayConfig {
                budgets: vec![64, 32],
                machine_spec: Some("p2l4".to_string()),
                ..ReplayConfig::default()
            },
            jobs: NonZeroUsize::new(1).unwrap(),
            cache: true,
        }
    }
}

/// Wall-clock results (rendered only when timing is opted in).
#[derive(Clone, Copy, Debug)]
pub struct ServeTiming {
    /// Total wall time of all passes, microseconds.
    pub total_wall_us: u64,
    /// Answered requests per wall-clock second.
    pub compiles_per_sec: f64,
    /// Median per-request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: u64,
}

/// The serve-benchmark report.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    /// The configuration that produced it.
    pub config: ServeBenchConfig,
    /// Total requests answered (`count × budgets × repeat`).
    pub requests: u64,
    /// Responses with `"status":"fitted"`.
    pub fitted: u64,
    /// Responses with `"status":"failed"`.
    pub failed: u64,
    /// Cache hits across all passes.
    pub hits: u64,
    /// Cache misses across all passes.
    pub misses: u64,
    /// Cache evictions across all passes.
    pub evictions: u64,
    /// `hits / requests` (0 when no requests ran).
    pub hit_rate: f64,
    /// Wall-clock results.
    pub timing: ServeTiming,
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the benchmark: builds the request stream, answers it in-process
/// for `repeat` passes (barrier between passes), and tallies the result.
///
/// # Errors
///
/// Reports generator failures.
pub fn run_serve_bench(config: &ServeBenchConfig) -> Result<ServeBenchReport, String> {
    let source = ReplaySource::Gen { seed: config.seed, count: config.count };
    let base = base_requests(&source, &config.replay)?;
    let server = Server::new(ServeOptions { cache: config.cache, ..ServeOptions::default() });
    let outcome =
        replay_in_process(&server, &base, config.repeat, config.jobs, IdPolicy::Stream);

    let requests = outcome.responses.len() as u64;
    let fitted =
        outcome.responses.iter().filter(|r| r.contains("\"status\":\"fitted\"")).count() as u64;
    let failed =
        outcome.responses.iter().filter(|r| r.contains("\"status\":\"failed\"")).count() as u64;
    let totals = server.cache_totals();
    let hit_rate = if requests > 0 { totals.hits as f64 / requests as f64 } else { 0.0 };
    let mut sorted = outcome.latencies_us;
    sorted.sort_unstable();
    let wall_secs = outcome.wall_us as f64 / 1e6;
    let timing = ServeTiming {
        total_wall_us: outcome.wall_us,
        compiles_per_sec: if wall_secs > 0.0 { requests as f64 / wall_secs } else { 0.0 },
        p50_us: percentile(&sorted, 0.50),
        p99_us: percentile(&sorted, 0.99),
    };
    Ok(ServeBenchReport {
        config: config.clone(),
        requests,
        fitted,
        failed,
        hits: totals.hits,
        misses: totals.misses,
        evictions: totals.evictions,
        hit_rate,
        timing,
    })
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
}

impl ServeBenchReport {
    /// Renders the report as the `BENCH_serve.json` document (schema
    /// `regpipe-bench-serve/v2`; v2 added the `spill_policy` field).
    ///
    /// With `include_timing = false` the rendering contains only
    /// deterministic fields; `include_timing = true` adds `jobs`,
    /// `total_wall_us`, `compiles_per_sec` and the latency percentiles.
    pub fn to_json(&self, include_timing: bool) -> String {
        let c = &self.config;
        let r = &c.replay;
        let mut pairs = vec![
            ("seed".to_string(), Value::uint(c.seed)),
            ("count".to_string(), Value::uint(c.count as u64)),
            ("repeat".to_string(), Value::uint(c.repeat as u64)),
            (
                "budgets".to_string(),
                Value::Array(r.budgets.iter().map(|&b| Value::uint(u64::from(b))).collect()),
            ),
            ("machine".to_string(), Value::Str(r.machine().into())),
            ("scheduler".to_string(), Value::Str(r.scheduler.slug().into())),
            ("strategy".to_string(), Value::Str(strategy_slug(r.strategy).into())),
            ("spill_policy".to_string(), Value::Str(r.spill_policy.slug().into())),
            ("cache".to_string(), Value::Bool(c.cache)),
            ("requests".to_string(), Value::uint(self.requests)),
            ("fitted".to_string(), Value::uint(self.fitted)),
            ("failed".to_string(), Value::uint(self.failed)),
            ("hits".to_string(), Value::uint(self.hits)),
            ("misses".to_string(), Value::uint(self.misses)),
            ("evictions".to_string(), Value::uint(self.evictions)),
            (
                "hit_rate".to_string(),
                Value::finite(round4(self.hit_rate)).expect("hit rate is finite"),
            ),
        ];
        if include_timing {
            let t = &self.timing;
            pairs.push(("jobs".to_string(), Value::uint(c.jobs.get() as u64)));
            pairs.push(("total_wall_us".to_string(), Value::uint(t.total_wall_us)));
            pairs.push((
                "compiles_per_sec".to_string(),
                Value::finite(round2(t.compiles_per_sec)).expect("throughput is finite"),
            ));
            pairs.push(("p50_latency_us".to_string(), Value::uint(t.p50_us)));
            pairs.push(("p99_latency_us".to_string(), Value::uint(t.p99_us)));
        }
        json::report("regpipe-bench-serve/v2", pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_exec::json::parse as parse_json;

    fn small() -> ServeBenchConfig {
        let defaults = ServeBenchConfig::default();
        let replay = ReplayConfig { budgets: vec![32], ..defaults.replay.clone() };
        ServeBenchConfig { count: 8, replay, ..defaults }
    }

    #[test]
    fn untimed_reports_are_deterministic_and_account_for_every_request() {
        let a = run_serve_bench(&small()).unwrap();
        let b = run_serve_bench(&small()).unwrap();
        assert_eq!(a.to_json(false), b.to_json(false));
        assert_eq!(a.requests, 16, "8 kernels x 1 budget x 2 passes");
        assert_eq!(a.fitted + a.failed, a.requests);
        assert_eq!(a.hits + a.misses, a.requests);
        assert_eq!(a.misses, 8, "pass 1 misses once per key");
        assert_eq!(a.hit_rate, 0.5);
        assert!(!a.to_json(false).contains("total_wall_us"));
        parse_json(&a.to_json(false)).expect("report is valid JSON");
    }

    #[test]
    fn timed_reports_add_wall_fields() {
        let report = run_serve_bench(&small()).unwrap();
        let doc = parse_json(&report.to_json(true)).unwrap();
        assert!(doc.get("compiles_per_sec").is_some());
        assert!(doc.get("p50_latency_us").is_some());
        assert!(doc.get("p99_latency_us").is_some());
        assert!(report.timing.p50_us <= report.timing.p99_us);
    }

    #[test]
    fn cache_off_reports_zero_hits() {
        let report = run_serve_bench(&ServeBenchConfig { cache: false, ..small() }).unwrap();
        assert_eq!((report.hits, report.misses), (0, 0));
        assert_eq!(report.hit_rate, 0.0);
        assert_eq!(report.requests, 16);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
