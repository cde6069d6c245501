//! The compile-daemon workloads: the release `regpipe serve --socket`
//! binary, driven closed loop over one connection by a stream of 3000
//! distinct generated kernels.
//!
//! * `serve-socket-miss`: every measured pass runs against a freshly
//!   spawned daemon, so every request misses and compiles.
//! * `serve-socket-hit`: one daemon is warmed by one pass, then every
//!   measured pass hits (no compile layer runs at all).
//!
//! One connection is used because on 2 cores a second client competes
//! with the daemon for CPU, and the client and the daemon share one pinned
//! CPU (see [`pin_to_one_cpu`]).
//!
//! The daemons keep their cache in memory (no `--cache-dir`). With a
//! persistent store every miss also fsyncs an append, and on a disk shared
//! with other machines that fsync made the miss figures unsteady: ten
//! seeds' median per-pass miss p99 ranged from 1.7 to 5.1 ms. The store is
//! timed on its own in the traced run instead.
//!
//! Daemon sockets live under `.perfbench/` in the working directory and are
//! removed on every exit path, a failed check included.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use regpipe_core::{compile, CompileOptions};
use regpipe_ddg::{content_hash, textfmt};
use regpipe_exec::json::{parse as parse_json, Value};
use regpipe_exec::strategy_slug;
use regpipe_loops::{generate, BenchLoop, GenParams};
use regpipe_machine::MachineConfig;
use regpipe_serve::{
    attach_id, machine_key, requests_from_loops, CacheKey, ReplayConfig, ServeOptions, Server,
    ShardedCache, Store,
};

use crate::batch::{end_to_end, Latency, Quality};
use crate::replay::{self, Cell};
use crate::stats::{
    calibrate, median, peak_rss_mb, quantile, repeat_setup, speed_factor, TimeBox,
};
use crate::trace::Tracer;
use crate::{Args, Outcome};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Miss,
    Hit,
}

/// Requests per pass, their size range and their budget.
const REQUESTS: usize = 3000;
const MIN_OPS: usize = 4;
const MAX_OPS: usize = 48;
const BUDGET: u32 = 32;
/// Stream builds and (for the hit workload) daemon spawns per run;
/// `setup_s` is built from their medians.
const SETUP_REPEATS: usize = 3;
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);
const WORK_DIR: &str = ".perfbench";

/// The request stream: one compile request per generated kernel, ids
/// 0..n attached so a response can be compared byte for byte across
/// passes.
struct Stream {
    loops: Vec<BenchLoop>,
    lines: Vec<String>,
    distinct: u64,
}

fn build_stream(seed: u64) -> Result<Stream, String> {
    let params = GenParams { min_ops: MIN_OPS, max_ops: MAX_OPS, ..GenParams::default() };
    let loops = generate(seed, REQUESTS, &params)?;
    let config = ReplayConfig { budgets: vec![BUDGET], ..ReplayConfig::default() };
    let lines = requests_from_loops(&loops, &config)
        .iter()
        .enumerate()
        .map(|(i, line)| attach_id(Some(i as i64), line))
        .collect();
    let distinct = loops.iter().map(|l| content_hash(&l.ddg)).collect::<HashSet<_>>().len();
    Ok(Stream { loops, lines, distinct: distinct as u64 })
}

fn daemon_binary() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    Path::new(&target).join("release").join("regpipe")
}

/// A spawned daemon. Dropping it kills the process if it is still running
/// and removes its socket and cache directory.
struct Daemon {
    child: Child,
    socket: PathBuf,
    running: bool,
}

impl Daemon {
    /// Spawns `regpipe serve --socket` and waits until it
    /// answers `ping`; returns the daemon and the seconds that took.
    fn spawn(tag: &str) -> Result<(Daemon, f64), String> {
        let base = Path::new(WORK_DIR);
        std::fs::create_dir_all(base).map_err(|e| format!("{WORK_DIR}: {e}"))?;
        let stem = format!("d{}-{tag}", std::process::id());
        let socket = base.join(format!("{stem}.sock"));
        let _ = std::fs::remove_file(&socket);
        let binary = daemon_binary();
        let started = Instant::now();
        let child = Command::new(&binary)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let mut daemon = Daemon { child, socket, running: true };
        loop {
            if let Ok(reply) = request_once(&daemon.socket, "{\"op\":\"ping\"}") {
                if reply.contains("\"pong\"") {
                    return Ok((daemon, started.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                daemon.running = false;
                return Err(format!("daemon exited before answering ping: {status}"));
            }
            if started.elapsed() > SPAWN_TIMEOUT {
                return Err("daemon did not answer ping in time".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn stats(&self) -> Result<Value, String> {
        let reply = request_once(&self.socket, "{\"op\":\"stats\"}")?;
        parse_json(&reply).map_err(|e| format!("stats reply: {e}"))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn shutdown(&mut self) -> Result<(), String> {
        let reply = request_once(&self.socket, "{\"op\":\"shutdown\"}")?;
        if !reply.contains("\"shutdown\"") {
            return Err(format!("unexpected shutdown reply: {reply}"));
        }
        let started = Instant::now();
        while started.elapsed() < SPAWN_TIMEOUT {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.running = false;
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.running {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Pins the calling thread, and so every process it spawns afterwards, to
/// the first CPU this process may use. The client and the daemon then take
/// turns on one CPU: a request hands over with a context switch instead
/// of a cross-CPU wake-up, whose cost swings with the host's load.
fn pin_to_one_cpu() -> Result<(), String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable 128-byte buffer, the size of
    // glibc's `cpu_set_t`, and the call writes at most `size` bytes to it.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..mask.len() * 64)
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("no CPU in this process's affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live, initialised 128-byte buffer, the size of
    // glibc's `cpu_set_t`, and the call only reads `size` bytes of it.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn request_once(socket: &Path, line: &str) -> Result<String, String> {
    let mut client = Client::connect(socket)?;
    client.call(line).map_err(|e| format!("{}: {e}", socket.display()))
}

/// One closed-loop connection: send a line, wait for its response.
struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    out: Vec<u8>,
    reply: String,
}

impl Client {
    fn connect(socket: &Path) -> Result<Client, String> {
        let stream =
            UnixStream::connect(socket).map_err(|e| format!("{}: {e}", socket.display()))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader, out: Vec::new(), reply: String::new() })
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out)?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.reply.trim_end_matches('\n').to_string())
    }
}

/// One pass of the stream over one connection: responses, per-request
/// latencies in ms, and the pass time in seconds.
fn socket_pass(
    socket: &Path,
    lines: &[String],
) -> Result<(Vec<String>, Vec<f64>, f64), String> {
    let mut client = Client::connect(socket)?;
    let mut responses = Vec::with_capacity(lines.len());
    let mut latencies = Vec::with_capacity(lines.len());
    let started = Instant::now();
    for line in lines {
        let t0 = Instant::now();
        let reply = client.call(line).map_err(|e| format!("request failed: {e}"))?;
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        responses.push(reply);
    }
    Ok((responses, latencies, started.elapsed().as_secs_f64()))
}

/// The daemon's cache and robustness counters.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    protocol_errors: u64,
    panics_caught: u64,
}

fn counters(stats: &Value) -> Result<Counters, String> {
    let int = |v: Option<&Value>, name: &str| -> Result<u64, String> {
        v.and_then(Value::as_i64)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| format!("stats: missing {name}"))
    };
    let totals = stats.get("totals");
    Ok(Counters {
        hits: int(totals.and_then(|t| t.get("hits")), "hits")?,
        misses: int(totals.and_then(|t| t.get("misses")), "misses")?,
        evictions: int(totals.and_then(|t| t.get("evictions")), "evictions")?,
        protocol_errors: int(stats.get("protocol_errors"), "protocol_errors")?,
        panics_caught: int(stats.get("panics_caught"), "panics_caught")?,
    })
}

/// Checks the daemon's own accounting against what the client sent.
fn check_counters(c: &Counters, want_hits: u64, want_misses: u64, out: &mut Outcome) {
    if c.hits != want_hits || c.misses != want_misses {
        out.fail(format!(
            "daemon counted {} hits / {} misses, client expected {want_hits} / {want_misses}",
            c.hits, c.misses
        ));
    }
    if c.evictions != 0 || c.protocol_errors != 0 || c.panics_caught != 0 {
        out.fail(format!(
            "daemon reported {} evictions, {} protocol errors, {} panics",
            c.evictions, c.protocol_errors, c.panics_caught
        ));
    }
}

fn compare_passes(reference: &[String], responses: &[String], what: &str, out: &mut Outcome) {
    let differing = reference.iter().zip(responses).filter(|(a, b)| a != b).count();
    if differing > 0 || reference.len() != responses.len() {
        out.fail(format!("{differing} {what} responses differ from the first pass"));
    }
}

pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let (stream, build_s) = repeat_setup(SETUP_REPEATS, || build_stream(args.seed));
    let stream = stream?;
    pin_to_one_cpu()?;
    let mut out = Outcome::default();
    if args.trace {
        traced(args, mode, &stream, build_s, &mut out)?;
        return Ok(out);
    }
    let n = stream.lines.len() as u64;
    let mut time_box = TimeBox::new(args.seconds);
    // Per-pass latency percentiles, since one stall of the host can hold up
    // a few hundred consecutive requests: it should move one pass's
    // figures, not the run's.
    let (mut rates, mut p50s, mut p99s, mut spawns, mut rss) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut calibrations = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    match mode {
        Mode::Miss => {
            let mut tag = 0usize;
            while time_box.next_pass() {
                tag += 1;
                calibrations.push(calibrate(1));
                let (mut daemon, spawn_s) = Daemon::spawn(&tag.to_string())?;
                spawns.push(spawn_s);
                let (responses, lat, wall) = socket_pass(&daemon.socket, &stream.lines)?;
                check_counters(
                    &counters(&daemon.stats()?)?,
                    n - stream.distinct,
                    stream.distinct,
                    &mut out,
                );
                rss.push(peak_rss_mb(&daemon.pid())?);
                daemon.shutdown()?;
                out.attempted += n;
                rates.push(n as f64 / wall);
                p50s.push(quantile(&lat, 0.50));
                p99s.push(quantile(&lat, 0.99));
                match &reference {
                    None => reference = Some(responses),
                    Some(r) => compare_passes(r, &responses, "cold-pass", &mut out),
                }
            }
        }
        Mode::Hit => {
            let mut daemons = Vec::new();
            for tag in 0..SETUP_REPEATS {
                calibrations.push(calibrate(1));
                let (daemon, spawn_s) = Daemon::spawn(&format!("s{tag}"))?;
                spawns.push(spawn_s);
                daemons.push(daemon);
            }
            let mut daemon = daemons.pop().expect("at least one daemon");
            for mut spare in daemons {
                spare.shutdown()?;
            }
            let (warm, _, _) = socket_pass(&daemon.socket, &stream.lines)?;
            out.attempted += n;
            let mut passes = 0u64;
            while time_box.next_pass() {
                calibrations.push(calibrate(1));
                let (responses, lat, wall) = socket_pass(&daemon.socket, &stream.lines)?;
                compare_passes(&warm, &responses, "hit", &mut out);
                out.attempted += n;
                passes += 1;
                rates.push(n as f64 / wall);
                p50s.push(quantile(&lat, 0.50));
                p99s.push(quantile(&lat, 0.99));
            }
            let total = n * (passes + 1);
            check_counters(
                &counters(&daemon.stats()?)?,
                total - stream.distinct,
                stream.distinct,
                &mut out,
            );
            rss.push(peak_rss_mb(&daemon.pid())?);
            daemon.shutdown()?;
            reference = Some(warm);
        }
    }
    let reference = reference.expect("at least one pass");
    check_responses(&stream, &reference, &mut out);
    out.set("peak_rss_mb", median(&rss));
    let spawn_s = median(&spawns) * speed_factor(&calibrations);
    let latency =
        Latency { p50: median(&p50s), p99: median(&p99s), samples: p50s.len() * n as usize };
    end_to_end(&mut out, &rates, &latency, &calibrations, build_s + spawn_s);
    Ok(out)
}

/// Compares every response with the in-process compile of its kernel and
/// checks and counts that compile like a batch cell (see
/// [`Quality`](crate::batch::Quality) for the quality metrics it sets).
/// Returns the mean in-process compile time per request in microseconds.
fn check_responses(stream: &Stream, responses: &[String], out: &mut Outcome) -> f64 {
    let m = MachineConfig::p2l4();
    let options = CompileOptions::default();
    let mut quality = Quality::default();
    let mut compile_s = 0.0;
    for (i, (l, line)) in stream.loops.iter().zip(responses).enumerate() {
        let t0 = Instant::now();
        let result = compile(&l.ddg, &m, BUDGET, &options);
        compile_s += t0.elapsed().as_secs_f64();
        let doc = match parse_json(line) {
            Ok(doc) => doc,
            Err(e) => {
                out.fail(format!("response {i} is not JSON: {e}"));
                continue;
            }
        };
        let field = |name: &str| doc.get(name).and_then(Value::as_i64).map(|v| v as u64);
        let text = |name: &str| doc.get(name).and_then(Value::as_str).unwrap_or("");
        let same = field("id") == Some(i as u64)
            && doc.get("ok").and_then(Value::as_bool) == Some(true)
            && match &result {
                Ok(c) => {
                    text("status") == "fitted"
                        && field("ii") == Some(u64::from(c.ii()))
                        && field("regs") == Some(u64::from(c.registers_used()))
                        && field("spilled") == Some(u64::from(c.spilled()))
                        && field("reschedules") == Some(u64::from(c.reschedules()))
                        && field("memory_ops") == Some(u64::from(c.memory_ops()))
                        && text("strategy_used") == strategy_slug(c.strategy_used())
                }
                Err(e) => text("status") == "failed" && text("error") == e.to_string(),
            };
        if !same {
            out.fail(format!("response {i} differs from the in-process compile: {line}"));
        }
        quality.add(l, BUDGET, &result, &m, out);
    }
    quality.finish(out);
    out.attempted += responses.len() as u64;
    compile_s * 1e6 / responses.len().max(1) as f64
}

/// In-process passes over `server`: responses and per-request handle
/// times in µs. With a tracer, every request runs inside a
/// `serve.handle` span.
fn inproc_pass(
    server: &Server,
    lines: &[String],
    mut tr: Option<&mut Tracer>,
) -> (Vec<String>, Vec<f64>) {
    let mut responses = Vec::with_capacity(lines.len());
    let mut micros = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let t0 = Instant::now();
        let response = match tr.as_deref_mut() {
            Some(tr) => {
                tr.set_cell(i as u64);
                tr.span("serve.handle", |_| server.handle_line(line))
            }
            None => server.handle_line(line),
        };
        micros.push(t0.elapsed().as_secs_f64() * 1e6);
        responses.push(response.line);
    }
    (responses, micros)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Mean µs per call of `f` over `items`.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t0 = Instant::now();
    for item in items {
        f(item);
    }
    t0.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
}

/// The traced run of a serve workload.
///
/// * Over the socket: one cold and one warm pass against a fresh daemon,
///   for the socket hit latency, the cache hit ratio and evictions.
/// * In process: alternating untraced and traced cold+warm passes of
///   `Server::handle_line` on fresh servers until the run's time is spent,
///   for hit and miss handle times and the tracing overhead.
/// * Per request line of the stream: `json::parse`, `textfmt::parse`,
///   `content_hash` and `ShardedCache::insert`/`get`, and for the miss
///   workload `Store::append`.
/// * For the miss workload, the traced compile replay of every kernel with
///   the equivalence gate, for the compile-path layers a miss pays for.
fn traced(
    args: &Args,
    mode: Mode,
    stream: &Stream,
    build_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = stream.lines.len() as u64;
    let (mut daemon, _) = Daemon::spawn("t")?;
    let (cold, _, _) = socket_pass(&daemon.socket, &stream.lines)?;
    let after_cold = counters(&daemon.stats()?)?;
    let (warm, warm_lat, _) = socket_pass(&daemon.socket, &stream.lines)?;
    let after_warm = counters(&daemon.stats()?)?;
    check_counters(&after_warm, 2 * n - stream.distinct, stream.distinct, out);
    daemon.shutdown()?;
    compare_passes(&cold, &warm, "hit", out);
    out.attempted += 2 * n;
    let window = match mode {
        Mode::Miss => after_cold,
        Mode::Hit => Counters {
            hits: after_warm.hits - after_cold.hits,
            misses: after_warm.misses - after_cold.misses,
            ..after_warm
        },
    };
    out.set(
        "serve.cache.hit_ratio",
        window.hits as f64 / (window.hits + window.misses).max(1) as f64,
    );
    out.set("serve.cache.evictions", after_warm.evictions as f64);

    let mut tr = Tracer::new();
    let mut time_box = TimeBox::new(args.seconds);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut miss_us, mut hit_us) = (Vec::new(), Vec::new());
    let mut passes = 0usize;
    while time_box.next_pass() {
        // Alternate which side runs first, so warm-up does not bias the
        // overhead estimate.
        let traced_first = passes % 2 == 1;
        for traced_pass in [traced_first, !traced_first] {
            let server = Server::new(ServeOptions::default());
            let t0 = Instant::now();
            let tracer = if traced_pass { Some(&mut tr) } else { None };
            let (miss_responses, miss) = inproc_pass(&server, &stream.lines, tracer);
            let cold_wall = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let tracer = if traced_pass { Some(&mut tr) } else { None };
            let (hit_responses, hit) = inproc_pass(&server, &stream.lines, tracer);
            let warm_wall = t0.elapsed().as_secs_f64();
            compare_passes(&cold, &miss_responses, "in-process cold", out);
            compare_passes(&cold, &hit_responses, "in-process warm", out);
            out.attempted += 2 * n;
            let wall = if mode == Mode::Miss { cold_wall } else { warm_wall };
            if traced_pass {
                traced_s += wall;
                miss_us.extend(miss);
                hit_us.extend(hit);
            } else {
                untraced_s += wall;
            }
        }
        passes += 1;
    }
    let hit_p50 = median(&hit_us);
    out.set("serve.handle.hit_us_p50", hit_p50);
    out.set("serve.handle.miss_us_p50", median(&miss_us));
    out.set("serve.transport.us_p50", quantile(&warm_lat, 0.5) * 1e3 - hit_p50);
    out.samples.insert("serve.handle.hit_us_p50", hit_us.len());
    out.samples.insert("serve.handle.miss_us_p50", miss_us.len());
    out.samples.insert("serve.transport.us_p50", warm_lat.len());

    // Per request line: the parsing and hashing every request pays, then
    // the cache and store operations on the stream's own payloads.
    let docs: Vec<Value> =
        stream.lines.iter().map(|l| parse_json(l).expect("own request lines parse")).collect();
    let texts: Vec<&str> =
        docs.iter().map(|d| d.get("ddg").and_then(Value::as_str).expect("ddg field")).collect();
    let json_us = time_each(&stream.lines, |l| {
        std::hint::black_box(parse_json(l).is_ok());
    });
    let textfmt_us = time_each(&texts, |t| {
        std::hint::black_box(textfmt::parse(t).is_ok());
    });
    let hash_us = time_each(&stream.loops, |l| {
        std::hint::black_box(content_hash(&l.ddg));
    });
    let machine = machine_key(&MachineConfig::p2l4());
    let entries: Vec<(CacheKey, String)> = stream
        .loops
        .iter()
        .zip(&cold)
        .map(|(l, payload)| {
            let key = CacheKey {
                ddg_hash: content_hash(&l.ddg),
                machine: machine.clone(),
                scheduler: "hrms".into(),
                strategy: "best".into(),
                spill_policy: "paper".into(),
                budget: BUDGET,
            };
            (key, payload.clone())
        })
        .collect();
    let cache = ShardedCache::new(
        ServeOptions::default().shards,
        ServeOptions::default().capacity_bytes,
    );
    let insert_us = time_each(&entries, |(k, p)| cache.insert(k.clone(), p.clone()));
    let get_us = time_each(&entries, |(k, _)| {
        std::hint::black_box(cache.get(k));
    });
    // The daemons run with a memory-only cache (see the module docs), so the
    // store a persistent daemon would append every miss to is timed on its
    // own, on the miss workload only: hits never write.
    if mode == Mode::Miss {
        let store_dir = Path::new(WORK_DIR).join(format!("p{}-store", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let (mut store, _) = Store::open(&store_dir).map_err(|e| format!("store: {e}"))?;
        let mut failed = None;
        let append_us = time_each(&entries, |(k, p)| {
            if let Err(e) = store.append(k, p) {
                failed = Some(e.to_string());
            }
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&store_dir);
        if let Some(e) = failed {
            out.fail(format!("store append: {e}"));
        }
        out.set("serve.store.append_us", append_us);
        out.set("serve.store.appends", entries.len() as f64);
    }
    out.set("exec.json.parse_us", json_us);
    out.set("ddg.textfmt.parse_us", textfmt_us);
    out.set("ddg.content_hash_us", hash_us);
    out.set("serve.cache.insert_us", insert_us);
    out.set("serve.cache.get_us", get_us);

    let compile_us = check_responses(stream, &cold, out);
    let lookup_us = json_us + textfmt_us + hash_us + get_us;
    let coverage = match mode {
        Mode::Hit => {
            tr.report_layers(passes, out);
            lookup_us / mean(&hit_us)
        }
        Mode::Miss => {
            let m = MachineConfig::p2l4();
            let options = CompileOptions::default();
            for (i, l) in stream.loops.iter().enumerate() {
                tr.set_cell(i as u64);
                let replayed = replay::compile(&mut tr, &l.ddg, &m, BUDGET, &options);
                let real = Cell::of(&compile(&l.ddg, &m, BUDGET, &options));
                if replayed != real {
                    out.fail(format!(
                        "replay of {} gave {replayed:?}, compile gave {real:?}",
                        l.name
                    ));
                }
            }
            tr.report_layers(1, out);
            out.set("trace.replay_cells", stream.loops.len() as f64);
            (lookup_us + compile_us + insert_us) / mean(&miss_us)
        }
    };
    out.set("trace.coverage", coverage);
    out.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    out.set("loops.build.s", build_s);
    let path = format!("{WORK_DIR}/trace/{}-seed{}.jsonl", args.workload, args.seed);
    if let Err(e) = tr.write_jsonl(Path::new(&path)) {
        out.fail(format!("writing {path}: {e}"));
    }
    Ok(())
}
