//! The crash-recovery gate, run against the real daemon binary: kill -9
//! mid-write and recover byte-identically, lose exactly one response to
//! an injected panic and heal flipped and torn log frames within two
//! lifetimes, reclaim stale sockets without racing a live daemon, and
//! keep warm restarts byte-identical to cold misses. The fault schedules
//! come from `REGPIPE_FAULT` (see `regpipe_serve::fault`), so every
//! failure here is deterministic.
#![cfg(unix)]

use std::fs;
use std::io::{BufRead as _, BufReader, Write as _};
use std::ops::{Deref, DerefMut};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

use regpipe::exec::json::{parse as parse_json, Value};
use regpipe::serve::{attach_id, base_requests, ReplayConfig, ReplaySource};

fn bin() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_regpipe"));
    // A fault plan leaking in from the caller's environment would make
    // every spawn here nondeterministic.
    c.env_remove("REGPIPE_FAULT");
    c
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regpipe-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_ok(mut cmd: Command) -> Output {
    let out = cmd.output().expect("spawn regpipe");
    assert!(
        out.status.success(),
        "regpipe failed: {:?}\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

/// A spawned daemon. It is killed on drop, so a failed assertion cannot
/// leave it running and holding the test runner's stdout open.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

/// Spawns `regpipe serve --socket --cache-dir` (plus a fault plan when
/// given) and waits until the socket accepts connections.
fn spawn_daemon(socket: &Path, cache_dir: &Path, fault: Option<&str>) -> Daemon {
    let mut c = bin();
    c.arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--cache-dir")
        .arg(cache_dir)
        .stderr(Stdio::null());
    if let Some(plan) = fault {
        c.env("REGPIPE_FAULT", plan);
    }
    let daemon = Daemon(c.spawn().expect("spawn daemon"));
    for _ in 0..200 {
        if UnixStream::connect(socket).is_ok() {
            return daemon;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never bound {}", socket.display());
}

/// One request over its own connection; the raw response line.
fn request(socket: &Path, line: &str) -> String {
    let mut stream = UnixStream::connect(socket).expect("connect");
    writeln!(stream, "{line}").expect("send");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("receive");
    reply.trim_end_matches('\n').to_string()
}

/// The shared recovery workload: `replay --seed 13 --count 10`, one
/// request per kernel at the default budget.
const WORKLOAD: [&str; 4] = ["--seed", "13", "--count", "10"];

/// The workload's responses from an in-process daemon that never
/// crashed: the bytes every recovery must reproduce.
fn baseline() -> String {
    let out = run_ok({
        let mut c = bin();
        c.arg("replay").args(WORKLOAD).args(["--jobs", "1"]).stderr(Stdio::null());
        c
    });
    String::from_utf8(out.stdout).unwrap()
}

/// The request lines `replay` sends for the workload, stream ids included.
fn workload_requests() -> Vec<String> {
    let config = ReplayConfig { machine_spec: Some("p2l4".into()), ..ReplayConfig::default() };
    let base = base_requests(&ReplaySource::Gen { seed: 13, count: 10 }, &config).unwrap();
    base.iter().enumerate().map(|(i, line)| attach_id(Some(i as i64), line)).collect()
}

/// `(recovered_entries, dropped_corrupt_entries)` from a stats response.
fn store_counters(stats: &str) -> (i64, i64) {
    let stats = parse_json(stats).unwrap();
    let store = stats.get("store").expect("persistent daemon exposes store counters");
    let count = |field: &str| store.get(field).and_then(Value::as_i64).unwrap();
    (count("recovered_entries"), count("dropped_corrupt_entries"))
}

/// The shared recovery workload, aimed at a socket.
fn socket_replay(socket: &Path, jobs: &str, stats_out: Option<&Path>) -> Command {
    let mut c = bin();
    c.arg("replay")
        .args(WORKLOAD)
        .args(["--jobs", jobs])
        .arg("--socket")
        .arg(socket)
        .stderr(Stdio::null());
    if let Some(path) = stats_out {
        c.arg("--stats-out").arg(path);
    }
    c
}

/// The tentpole acceptance path: a daemon is killed mid-append (the
/// `crash` fault aborts inside the frame write — kill -9's moral
/// equivalent), and a clean daemon restarted on the same `--cache-dir`
/// must recover, reclaim the dead daemon's stale socket, and answer the
/// full workload byte-identically to a never-crashed baseline, at
/// `--jobs` 1 and 4.
#[test]
fn a_killed_daemon_recovers_byte_identically_at_jobs_1_and_4() {
    let dir = scratch_dir("kill9");
    let socket = dir.join("daemon.sock");
    let cache_dir = dir.join("cache");
    let baseline = baseline();

    // Crash on the 4th store append: three entries land, the fourth is
    // torn mid-frame and the process aborts.
    let mut crashed = spawn_daemon(&socket, &cache_dir, Some("5:crash@4"));
    let failed = socket_replay(&socket, "1", None).output().expect("spawn regpipe replay");
    assert!(!failed.status.success(), "the replay client must see the daemon die");
    let status = crashed.wait().expect("daemon exit");
    assert!(!status.success(), "the daemon must die mid-write, not exit cleanly");
    assert!(socket.exists(), "a killed daemon leaves its socket file behind");

    // A clean daemon on the same cache dir: starts despite the stale
    // socket and the torn log, recovers, and serves the whole workload.
    let mut daemon = spawn_daemon(&socket, &cache_dir, None);
    let stats_path = dir.join("stats.json");
    let jobs1 = run_ok(socket_replay(&socket, "1", Some(&stats_path))).stdout;
    let jobs4 = run_ok(socket_replay(&socket, "4", None)).stdout;
    assert_eq!(String::from_utf8(jobs1).unwrap(), baseline, "--jobs 1 replay after recovery");
    assert_eq!(String::from_utf8(jobs4).unwrap(), baseline, "--jobs 4 replay after recovery");

    let (recovered, dropped) = store_counters(&fs::read_to_string(&stats_path).unwrap());
    assert_eq!(recovered, 3, "appends 1-3 survive the crash on append 4");
    assert!(dropped >= 1, "the torn frame must be counted, got {dropped}");

    request(&socket, "{\"op\":\"shutdown\"}");
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = fs::remove_dir_all(&dir);
}

/// Three daemon lifetimes on one `--cache-dir` under the plan
/// `panic@2,flip@<n/2>,torn@<n>` for the n-request workload. The panic
/// costs one response and no append, so the resent request is append n
/// and the torn one.
///
/// 1. Faulted: exactly one response differs from the baseline, as a
///    structured `internal` error; resending it returns the baseline
///    bytes; `stats` counts one caught panic, and `shutdown` acks with
///    its drain count.
/// 2. Recovery: a clean daemon drops the flipped frame and the torn tail,
///    keeps the rest, and replays byte-identically at `--jobs` 1 and 4.
/// 3. Heal: the dirty start compacted the log, so a third daemon
///    recovers all n entries and drops nothing; damage never survives
///    two lifetimes.
#[test]
fn an_injected_fault_costs_one_response_and_heals_within_two_lifetimes() {
    let dir = scratch_dir("heal");
    let socket = dir.join("daemon.sock");
    let cache_dir = dir.join("cache");
    let baseline = baseline();
    let expected: Vec<&str> = baseline.lines().collect();
    let n = expected.len();
    let plan = format!("13:panic@2,flip@{},torn@{n}", n / 2);

    let mut daemon = spawn_daemon(&socket, &cache_dir, Some(&plan));
    let faulted = String::from_utf8(run_ok(socket_replay(&socket, "1", None)).stdout).unwrap();
    let faulted: Vec<&str> = faulted.lines().collect();
    assert_eq!(faulted.len(), n);
    let diffs: Vec<usize> = (0..n).filter(|&i| faulted[i] != expected[i]).collect();
    let [victim] = diffs[..] else { panic!("expected one faulted response, got {diffs:?}") };
    let hurt = faulted[victim];
    assert!(hurt.contains("\"ok\":false") && hurt.contains("\"kind\":\"internal\""), "{hurt}");
    let resent = request(&socket, &workload_requests()[victim]);
    assert_eq!(resent, expected[victim], "the daemon keeps serving after the panic");
    let stats = parse_json(&request(&socket, "{\"op\":\"stats\"}")).unwrap();
    assert_eq!(stats.get("panics_caught").and_then(Value::as_i64), Some(1));
    let ack = request(&socket, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"drained_connections\":"), "{ack}");
    assert!(daemon.wait().expect("daemon exit").success());

    let mut daemon = spawn_daemon(&socket, &cache_dir, None);
    let stats_path = dir.join("recovery.json");
    let jobs1 = run_ok(socket_replay(&socket, "1", Some(&stats_path))).stdout;
    let jobs4 = run_ok(socket_replay(&socket, "4", None)).stdout;
    assert_eq!(String::from_utf8(jobs1).unwrap(), baseline, "--jobs 1 replay after recovery");
    assert_eq!(String::from_utf8(jobs4).unwrap(), baseline, "--jobs 4 replay after recovery");
    let n = n as i64;
    assert_eq!(
        store_counters(&fs::read_to_string(&stats_path).unwrap()),
        (n - 2, 2),
        "the flipped frame and the torn tail are dropped, every other entry recovered"
    );
    request(&socket, "{\"op\":\"shutdown\"}");
    assert!(daemon.wait().expect("daemon exit").success());

    let mut daemon = spawn_daemon(&socket, &cache_dir, None);
    assert_eq!(
        store_counters(&request(&socket, "{\"op\":\"stats\"}")),
        (n, 0),
        "the compaction after the dirty start left a clean log"
    );
    request(&socket, "{\"op\":\"shutdown\"}");
    assert!(daemon.wait().expect("daemon exit").success());
    let _ = fs::remove_dir_all(&dir);
}

/// The stale-socket probe must not race a live daemon: a second daemon
/// on the same socket fails fast (and does not unlink the socket out
/// from under the first), a plain file is never replaced, and a socket
/// left by a killed daemon is reclaimed.
#[test]
fn socket_claiming_never_races_a_live_daemon() {
    let dir = scratch_dir("claim");
    let socket = dir.join("daemon.sock");
    let mut first = spawn_daemon(&socket, &dir.join("cache-a"), None);

    // Racing daemon: refused while the first is alive.
    let out = bin()
        .arg("serve")
        .arg("--socket")
        .arg(&socket)
        .arg("--cache-dir")
        .arg(dir.join("cache-b"))
        .output()
        .expect("spawn racing daemon");
    assert!(!out.status.success(), "a second daemon must not steal a live socket");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("already listening"), "{stderr}");
    // ...and the first daemon is untouched.
    assert_eq!(
        request(&socket, "{\"id\":1,\"op\":\"ping\"}"),
        "{\"id\":1,\"ok\":true,\"op\":\"pong\"}"
    );

    // A regular file at the socket path is never deleted.
    let decoy = dir.join("decoy.sock");
    fs::write(&decoy, b"precious").unwrap();
    let out = bin()
        .arg("serve")
        .arg("--socket")
        .arg(&decoy)
        .output()
        .expect("spawn daemon on a file");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not a socket"));
    assert_eq!(fs::read(&decoy).unwrap(), b"precious", "the file must survive");

    // Kill the first daemon; its socket file stays behind, and a new
    // daemon reclaims it.
    first.kill().expect("kill daemon");
    first.wait().expect("reap daemon");
    assert!(socket.exists());
    let mut second = spawn_daemon(&socket, &dir.join("cache-a"), None);
    assert_eq!(
        request(&socket, "{\"id\":2,\"op\":\"ping\"}"),
        "{\"id\":2,\"ok\":true,\"op\":\"pong\"}"
    );
    request(&socket, "{\"op\":\"shutdown\"}");
    assert!(second.wait().expect("daemon exit").success());
    let _ = fs::remove_dir_all(&dir);
}

/// An injected engine panic is a structured `internal` error on the
/// wire; the daemon answers every later request as if nothing happened,
/// and `stats` counts the catch. A malformed fault plan, by contrast,
/// refuses to start at all.
#[test]
fn an_injected_panic_is_caught_and_the_daemon_keeps_serving() {
    let dir = scratch_dir("panic");
    let socket = dir.join("daemon.sock");
    let mut daemon = spawn_daemon(&socket, &dir.join("cache"), Some("7:panic@1"));
    let compile =
        "{\"id\":1,\"op\":\"compile\",\"ddg\":\"loop t\\nop a add\\n\",\"budget\":16}";
    let hurt = request(&socket, compile);
    assert!(hurt.contains("\"ok\":false") && hurt.contains("\"kind\":\"internal\""), "{hurt}");
    // The same request again (panic@1 is spent) now compiles fine.
    let healed = request(&socket, compile);
    assert!(healed.contains("\"ok\":true"), "{healed}");
    let stats = parse_json(&request(&socket, "{\"op\":\"stats\"}")).unwrap();
    assert_eq!(stats.get("panics_caught").unwrap().as_i64(), Some(1));
    request(&socket, "{\"op\":\"shutdown\"}");
    assert!(daemon.wait().expect("daemon exit").success());

    for (plan, needle) in [
        ("not-a-plan", "REGPIPE_FAULT"),
        ("7:short@1", "unknown fault kind 'short'"),
        ("7:fsync@1", "unknown fault kind 'fsync'"),
    ] {
        let out = bin()
            .arg("serve")
            .env("REGPIPE_FAULT", plan)
            .output()
            .expect("spawn daemon with a bad plan");
        assert!(!out.status.success(), "a malformed fault plan must refuse to start: {plan}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(needle), "{plan}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Persistence parity (the ISSUE acceptance warm-restart check): a
/// second daemon lifetime on the same `--cache-dir` answers the same
/// workload byte-identically, entirely from recovered cache entries.
#[test]
fn a_warm_restart_serves_recovered_hits_byte_identical_to_cold_misses() {
    let dir = scratch_dir("warm");
    let cache_dir = dir.join("cache");
    let run = |stats: &Path| -> String {
        let out = run_ok({
            let mut c = bin();
            c.args(["replay", "--seed", "13", "--count", "12", "--jobs", "2"])
                .arg("--cache-dir")
                .arg(&cache_dir)
                .arg("--stats-out")
                .arg(stats)
                .stderr(Stdio::null());
            c
        });
        String::from_utf8(out.stdout).unwrap()
    };
    let cold_stats = dir.join("cold.json");
    let warm_stats = dir.join("warm.json");
    let cold = run(&cold_stats);
    let warm = run(&warm_stats);
    assert_eq!(cold, warm, "warm-restart responses must be byte-identical");

    let cold = parse_json(&fs::read_to_string(&cold_stats).unwrap()).unwrap();
    let warm = parse_json(&fs::read_to_string(&warm_stats).unwrap()).unwrap();
    let totals =
        |doc: &Value, field: &str| doc.get("totals").unwrap().get(field).unwrap().as_i64();
    assert_eq!(totals(&cold, "misses"), Some(12), "first lifetime compiles everything");
    assert_eq!(totals(&warm, "hits"), Some(12), "second lifetime hits everything");
    assert_eq!(totals(&warm, "misses"), Some(0));
    let recovered =
        warm.get("store").unwrap().get("recovered_entries").unwrap().as_i64().unwrap();
    assert_eq!(recovered, 12, "every entry must come back from disk");
    let _ = fs::remove_dir_all(&dir);
}
