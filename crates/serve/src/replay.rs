//! The replay load-driver: turns a workload source into a deterministic
//! request stream and drives it at a daemon, in-process or over a unix
//! socket, with client-side concurrency.
//!
//! Determinism contract: the *response stream* (in request order) is a
//! pure function of the workload and per-request options — independent of
//! `--jobs`, of the transport, and of whether the daemon's cache is on.
//! Passes run with a barrier between them (pass `p+1` starts only after
//! every request of pass `p` answered), so cache hit/miss totals are
//! also deterministic: with an adequate cache, pass 1 misses once per
//! distinct key and every later pass hits.

use std::io::{self, BufRead, BufReader, Write};
use std::num::NonZeroUsize;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;
use std::time::{Duration, Instant};

use regpipe_core::{SpillPolicyKind, Strategy};
use regpipe_ddg::textfmt;
use regpipe_exec::json::Value;
use regpipe_exec::{parallel_map, strategy_slug};
use regpipe_loops::{generate, suite, BenchLoop, GenParams};
use regpipe_sched::SchedulerKind;

use crate::server::{attach_id, Server};

/// Per-request options shared by every line a replay builds.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Register budgets; each loop is requested once per budget.
    pub budgets: Vec<u32>,
    /// Strategy sent with every request.
    pub strategy: Strategy,
    /// Scheduler sent with every request.
    pub scheduler: SchedulerKind,
    /// Spill policy sent with every request.
    pub spill_policy: SpillPolicyKind,
    /// Machine spec sent with every request; `None` omits the field and
    /// uses the daemon's default.
    pub machine_spec: Option<String>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            budgets: vec![32],
            strategy: Strategy::BestOfAll,
            scheduler: SchedulerKind::default(),
            spill_policy: SpillPolicyKind::default(),
            machine_spec: None,
        }
    }
}

impl ReplayConfig {
    /// The machine spec every request targets: the one sent, or else the
    /// daemon's default.
    pub fn machine(&self) -> &str {
        self.machine_spec.as_deref().unwrap_or("p2l4")
    }
}

/// Where the replayed workload comes from.
#[derive(Clone, Debug)]
pub enum ReplaySource {
    /// The seeded synthetic generator (`regpipe gen` semantics).
    Gen {
        /// Generator seed.
        seed: u64,
        /// Number of kernels.
        count: usize,
    },
    /// The seeded benchmark suite (`regpipe suite` semantics).
    Suite {
        /// Suite seed.
        seed: u64,
        /// Suite size.
        size: usize,
    },
    /// A file of raw request lines, sent verbatim (blank lines skipped);
    /// ids are the caller's responsibility in this mode.
    File(String),
}

/// One pass of id-free request lines for `loops × budgets`.
pub fn requests_from_loops(loops: &[BenchLoop], config: &ReplayConfig) -> Vec<String> {
    let mut out = Vec::with_capacity(loops.len() * config.budgets.len());
    for l in loops {
        let text = textfmt::format(&l.ddg);
        for &budget in &config.budgets {
            let mut pairs = vec![
                ("op".to_string(), Value::Str("compile".into())),
                ("ddg".to_string(), Value::Str(text.clone())),
                ("budget".to_string(), Value::uint(u64::from(budget))),
                ("strategy".to_string(), Value::Str(strategy_slug(config.strategy).into())),
                ("scheduler".to_string(), Value::Str(config.scheduler.slug().into())),
                ("spill_policy".to_string(), Value::Str(config.spill_policy.slug().into())),
            ];
            if let Some(spec) = &config.machine_spec {
                pairs.push(("machine".to_string(), Value::Str(spec.clone())));
            }
            out.push(Value::Object(pairs).render());
        }
    }
    out
}

/// Builds the base (single-pass) request stream for a source.
///
/// `Gen`/`Suite` requests are id-free — the replay drivers assign stream
/// ids; `File` lines are passed through verbatim.
///
/// # Errors
///
/// Reports generator or file I/O failures.
pub fn base_requests(
    source: &ReplaySource,
    config: &ReplayConfig,
) -> Result<Vec<String>, String> {
    match source {
        ReplaySource::Gen { seed, count } => {
            let loops = generate(*seed, *count, &GenParams::default())?;
            Ok(requests_from_loops(&loops, config))
        }
        ReplaySource::Suite { seed, size } => {
            Ok(requests_from_loops(&suite(*seed, *size), config))
        }
        ReplaySource::File(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path}: {e}"))?;
            Ok(text.lines().filter(|l| !l.trim().is_empty()).map(str::to_string).collect())
        }
    }
}

/// Client-side retry policy for socket replays (`--retry`,
/// `--backoff-ms`). A failed request — connect error, write error, or a
/// connection closed before its response — is retried on a *fresh*
/// connection after an exponential backoff with deterministic, seeded
/// jitter, so retry timing is reproducible run to run.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per request; `1` means no retries.
    pub attempts: u32,
    /// Base backoff in milliseconds; doubles with each further attempt.
    pub backoff_ms: u64,
    /// Seed for the jitter draw.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 1, backoff_ms: 50, seed: 0 }
    }
}

impl RetryPolicy {
    /// The sleep before retrying request `request_index` after failed
    /// `attempt` (1-based): `backoff_ms * 2^(attempt-1)` plus a seeded
    /// jitter of up to half that, capped at a 64x base multiplier.
    pub fn delay(&self, request_index: usize, attempt: u32) -> Duration {
        let base = self.backoff_ms.saturating_mul(1 << attempt.clamp(1, 7).saturating_sub(1));
        let jitter = if base == 0 {
            0
        } else {
            crate::fault::splitmix(
                self.seed
                    ^ (request_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ u64::from(attempt),
            ) % (base / 2 + 1)
        };
        Duration::from_millis(base + jitter)
    }
}

/// Whether the driver splices stream-index ids into the base requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdPolicy {
    /// Attach `id = pass * base.len() + index` to every request.
    Stream,
    /// Send lines exactly as built (for [`ReplaySource::File`]).
    Verbatim,
}

/// The result of one replay run.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Response lines in request-stream order (pass-major).
    pub responses: Vec<String>,
    /// Per-request round-trip latencies in microseconds, same order.
    /// Wall-clock derived — report only behind the timing opt-in.
    pub latencies_us: Vec<u64>,
    /// Total wall time of the driven passes, microseconds.
    pub wall_us: u64,
}

fn request_line(base: &[String], ids: IdPolicy, pass: usize, index: usize) -> String {
    match ids {
        IdPolicy::Verbatim => base[index].clone(),
        IdPolicy::Stream => attach_id(Some((pass * base.len() + index) as i64), &base[index]),
    }
}

/// Replays `base` against an in-process [`Server`] for `repeat` passes at
/// `jobs`-way concurrency, with a barrier between passes.
pub fn replay_in_process(
    server: &Server,
    base: &[String],
    repeat: usize,
    jobs: NonZeroUsize,
    ids: IdPolicy,
) -> ReplayOutcome {
    let started = Instant::now();
    let mut responses = Vec::with_capacity(base.len() * repeat);
    let mut latencies = Vec::with_capacity(base.len() * repeat);
    for pass in 0..repeat {
        let answered = parallel_map(base, jobs, |index, _line| {
            let line = request_line(base, ids, pass, index);
            let t0 = Instant::now();
            let response = server.handle_line(&line);
            (response.line, t0.elapsed().as_micros() as u64)
        });
        for (line, us) in answered {
            responses.push(line);
            latencies.push(us);
        }
    }
    ReplayOutcome {
        responses,
        latencies_us: latencies,
        wall_us: started.elapsed().as_micros() as u64,
    }
}

/// Replays `base` against the daemon listening on the unix socket at
/// `path` for `repeat` passes, `jobs` client connections per pass, with a
/// barrier between passes.
///
/// Each worker owns one connection and drives its share of the stream
/// (indices `w, w + jobs, ...`) in lockstep — send one line, read one
/// line — so responses pair with requests positionally and pipe buffers
/// cannot deadlock. The reassembled response stream is in request order.
///
/// A request that fails (connect/write error, or the daemon closing the
/// connection before answering) is retried per `retry` on a fresh
/// connection; `RetryPolicy::default()` keeps the historical
/// fail-immediately behaviour.
///
/// # Errors
///
/// Propagates the final connection/I-O failure of any request whose
/// attempts are exhausted.
#[cfg(unix)]
pub fn replay_socket(
    path: &Path,
    base: &[String],
    repeat: usize,
    jobs: NonZeroUsize,
    ids: IdPolicy,
    retry: RetryPolicy,
) -> io::Result<ReplayOutcome> {
    let jobs = jobs.get();
    let total = base.len() * repeat;
    let mut responses = vec![String::new(); total];
    let mut latencies = vec![0u64; total];
    let started = Instant::now();
    for pass in 0..repeat {
        let worker_results: Vec<io::Result<Vec<(usize, String, u64)>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut conn: Option<(UnixStream, BufReader<UnixStream>)> = None;
                            let mut out = Vec::new();
                            let mut index = w;
                            while index < base.len() {
                                let line = request_line(base, ids, pass, index);
                                let global = pass * base.len() + index;
                                let mut attempt = 0u32;
                                let (reply, us) = loop {
                                    attempt += 1;
                                    let result = send_one(path, &mut conn, &line);
                                    match result {
                                        Ok(ok) => break ok,
                                        Err(e) => {
                                            // The connection is suspect
                                            // either way: rebuild it.
                                            conn = None;
                                            if attempt >= retry.attempts.max(1) {
                                                return Err(e);
                                            }
                                            std::thread::sleep(retry.delay(global, attempt));
                                        }
                                    }
                                };
                                out.push((global, reply, us));
                                index += jobs;
                            }
                            Ok(out)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("replay worker panicked")).collect()
            });
        for result in worker_results {
            for (slot, line, us) in result? {
                responses[slot] = line;
                latencies[slot] = us;
            }
        }
    }
    Ok(ReplayOutcome {
        responses,
        latencies_us: latencies,
        wall_us: started.elapsed().as_micros() as u64,
    })
}

/// One send/receive round-trip, (re)connecting if `conn` is empty.
#[cfg(unix)]
fn send_one(
    path: &Path,
    conn: &mut Option<(UnixStream, BufReader<UnixStream>)>,
    line: &str,
) -> io::Result<(String, u64)> {
    if conn.is_none() {
        let stream = UnixStream::connect(path)?;
        let reader = BufReader::new(stream.try_clone()?);
        *conn = Some((stream, reader));
    }
    let (stream, reader) = conn.as_mut().expect("connection just established");
    let t0 = Instant::now();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection mid-replay",
        ));
    }
    Ok((reply.trim_end_matches('\n').to_string(), t0.elapsed().as_micros() as u64))
}

/// Sends one request line over the socket and returns the response line
/// (used for `stats` and `shutdown` after a replay).
///
/// # Errors
///
/// Propagates connection and I/O failures.
#[cfg(unix)]
pub fn request_once(path: &Path, line: &str) -> io::Result<String> {
    let mut stream = UnixStream::connect(path)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    Ok(reply.trim_end_matches('\n').to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeOptions;
    use regpipe_exec::json::parse as parse_json;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn request_streams_are_deterministic() {
        let cfg = ReplayConfig { budgets: vec![64, 32], ..ReplayConfig::default() };
        let src = ReplaySource::Gen { seed: 7, count: 10 };
        let a = base_requests(&src, &cfg).unwrap();
        let b = base_requests(&src, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 20, "loops x budgets");
        for line in &a {
            let doc = parse_json(line).unwrap();
            assert_eq!(doc.get("op").unwrap().as_str(), Some("compile"));
            assert!(doc.get("id").is_none(), "base requests are id-free");
        }
    }

    #[test]
    fn in_process_replay_is_jobs_invariant_and_second_pass_hits() {
        let cfg = ReplayConfig::default();
        let base = base_requests(&ReplaySource::Gen { seed: 7, count: 12 }, &cfg).unwrap();

        let s1 = Server::new(ServeOptions::default());
        let r1 = replay_in_process(&s1, &base, 2, nz(1), IdPolicy::Stream);
        let s4 = Server::new(ServeOptions::default());
        let r4 = replay_in_process(&s4, &base, 2, nz(4), IdPolicy::Stream);
        assert_eq!(r1.responses, r4.responses, "client concurrency must not change bytes");

        let snocache = Server::new(ServeOptions { cache: false, ..ServeOptions::default() });
        let r0 = replay_in_process(&snocache, &base, 2, nz(3), IdPolicy::Stream);
        assert_eq!(r1.responses, r0.responses, "cache must not change bytes");

        // Pass 1 misses each distinct key once; pass 2 hits every request.
        let stats = parse_json(&s1.stats_payload()).unwrap();
        let totals = stats.get("totals").unwrap();
        let hits = totals.get("hits").unwrap().as_i64().unwrap();
        let misses = totals.get("misses").unwrap().as_i64().unwrap();
        assert_eq!(misses, base.len() as i64);
        assert_eq!(hits, base.len() as i64);
        assert_eq!(hits + misses, stats.get("compile_requests").unwrap().as_i64().unwrap());
    }

    #[test]
    fn retry_delays_are_deterministic_and_grow() {
        let p = RetryPolicy { attempts: 4, backoff_ms: 10, seed: 7 };
        assert_eq!(p.delay(3, 1), p.delay(3, 1), "same draw, same delay");
        assert_ne!(
            RetryPolicy { seed: 8, ..p }.delay(3, 1),
            p.delay(3, 1),
            "the jitter is seeded"
        );
        for attempt in 1..=3u32 {
            let base = 10u64 << (attempt - 1);
            let d = p.delay(0, attempt).as_millis() as u64;
            assert!(d >= base && d <= base + base / 2, "attempt {attempt}: {d}ms");
        }
        // Degenerate configurations stay sane.
        assert_eq!(RetryPolicy { backoff_ms: 0, ..p }.delay(0, 1), std::time::Duration::ZERO);
        let _ = p.delay(usize::MAX, u32::MAX);
    }

    #[test]
    fn stream_ids_count_through_passes() {
        let base = vec!["{\"op\":\"ping\"}".to_string(); 3];
        assert_eq!(request_line(&base, IdPolicy::Stream, 0, 2), "{\"id\":2,\"op\":\"ping\"}");
        assert_eq!(request_line(&base, IdPolicy::Stream, 1, 0), "{\"id\":3,\"op\":\"ping\"}");
        assert_eq!(request_line(&base, IdPolicy::Verbatim, 1, 0), "{\"op\":\"ping\"}");
    }
}
