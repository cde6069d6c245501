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
use std::time::Instant;

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
    for pass in 0..repeat {
        responses.extend(parallel_map(base, jobs, |index, _line| {
            server.handle_line(&request_line(base, ids, pass, index)).line
        }));
    }
    ReplayOutcome { responses, wall_us: started.elapsed().as_micros() as u64 }
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
/// # Errors
///
/// Propagates the first connection or I/O failure of any worker,
/// including the daemon closing a connection before it answered.
#[cfg(unix)]
pub fn replay_socket(
    path: &Path,
    base: &[String],
    repeat: usize,
    jobs: NonZeroUsize,
    ids: IdPolicy,
) -> io::Result<ReplayOutcome> {
    let jobs = jobs.get();
    let total = base.len() * repeat;
    let mut responses = vec![String::new(); total];
    let started = Instant::now();
    for pass in 0..repeat {
        let worker_results: Vec<io::Result<Vec<(usize, String)>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut conn = None;
                            let mut out = Vec::new();
                            for index in (w..base.len()).step_by(jobs) {
                                let line = request_line(base, ids, pass, index);
                                let reply = send_one(path, &mut conn, &line)?;
                                out.push((pass * base.len() + index, reply));
                            }
                            Ok(out)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("replay worker panicked")).collect()
            });
        for result in worker_results {
            for (slot, line) in result? {
                responses[slot] = line;
            }
        }
    }
    Ok(ReplayOutcome { responses, wall_us: started.elapsed().as_micros() as u64 })
}

/// One send/receive round-trip, connecting first if `conn` is empty.
#[cfg(unix)]
fn send_one(
    path: &Path,
    conn: &mut Option<(UnixStream, BufReader<UnixStream>)>,
    line: &str,
) -> io::Result<String> {
    if conn.is_none() {
        let stream = UnixStream::connect(path)?;
        let reader = BufReader::new(stream.try_clone()?);
        *conn = Some((stream, reader));
    }
    let (stream, reader) = conn.as_mut().expect("connection just established");
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection before replying",
        ));
    }
    Ok(reply.trim_end_matches('\n').to_string())
}

/// Sends one request line over a fresh connection and returns the
/// response line (used for `stats` and `shutdown` after a replay).
///
/// # Errors
///
/// Propagates connection and I/O failures; a daemon that hangs up
/// without replying is an [`io::ErrorKind::UnexpectedEof`] error.
#[cfg(unix)]
pub fn request_once(path: &Path, line: &str) -> io::Result<String> {
    send_one(path, &mut None, line)
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

    #[cfg(unix)]
    #[test]
    fn request_once_fails_when_the_daemon_hangs_up_without_replying() {
        use std::os::unix::net::UnixListener;
        let path =
            std::env::temp_dir().join(format!("regpipe-hangup-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind the stand-in daemon");
        let stand_in = std::thread::spawn(move || {
            // Read the request, then close the connection unanswered.
            let (stream, _) = listener.accept().expect("accept");
            let mut request = String::new();
            BufReader::new(stream).read_line(&mut request).expect("read the request");
            request
        });
        let err = request_once(&path, "{\"op\":\"stats\"}").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(stand_in.join().unwrap(), "{\"op\":\"stats\"}\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stream_ids_count_through_passes() {
        let base = vec!["{\"op\":\"ping\"}".to_string(); 3];
        assert_eq!(request_line(&base, IdPolicy::Stream, 0, 2), "{\"id\":2,\"op\":\"ping\"}");
        assert_eq!(request_line(&base, IdPolicy::Stream, 1, 0), "{\"id\":3,\"op\":\"ping\"}");
        assert_eq!(request_line(&base, IdPolicy::Verbatim, 1, 0), "{\"op\":\"ping\"}");
    }
}
