//! End-to-end tests of the compile daemon: the JSON-lines protocol over
//! the real binary (stdin and unix socket), the determinism gate
//! (cache on vs off, client `--jobs` 1 vs 4 — byte-identical response
//! streams), and the cache-counter arithmetic the `stats` op exposes.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use regpipe::exec::json::{parse as parse_json, Value};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regpipe"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regpipe-serve-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `regpipe serve` on stdin, feeding `input`, returning the output.
fn serve_stdin(input: &str, extra_args: &[&str]) -> Output {
    let mut child = bin()
        .arg("serve")
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn regpipe serve");
    child.stdin.take().unwrap().write_all(input.as_bytes()).expect("write requests");
    let out = child.wait_with_output().expect("daemon exit");
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    out
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

const DDG: &str = "loop t\\nop ld load\\nop a add\\nop st store\\n\
                   edge ld -> a reg 0\\nedge a -> st reg 0\\n";

/// Malformed requests get structured `{"ok":false,...}` error lines; the
/// daemon neither panics nor closes the connection, and later requests on
/// the same stream still work.
#[test]
fn malformed_requests_get_structured_errors_not_disconnects() {
    let input = "\
        this is not json\n\
        {\"id\":1}\n\
        {\"id\":2,\"op\":\"warp\"}\n\
        {\"id\":3,\"op\":\"compile\"}\n\
        {\"id\":4,\"op\":\"compile\",\"ddg\":\"op x zap\"}\n\
        [1,2,3]\n\
        {\"id\":5,\"op\":\"compile\",\"ddg\":\"loop l\\nop x add\\n\",\"spill_policy\":\"warp\"}\n\
        {\"id\":6,\"op\":\"ping\"}\n";
    let out = serve_stdin(input, &[]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 8, "one response per request:\n{stdout}");
    // Each error carries the structured taxonomy object: requests broken
    // at the protocol layer are "protocol", well-framed compiles with bad
    // parameters are "invalid".
    let kinds =
        ["protocol", "protocol", "protocol", "invalid", "invalid", "protocol", "invalid"];
    for (i, (line, want_kind)) in lines.iter().zip(kinds).enumerate() {
        let doc = parse_json(line).unwrap_or_else(|e| panic!("line {i} not JSON: {e}\n{line}"));
        assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false), "line {i}: {line}");
        let error = doc.get("error").unwrap_or_else(|| panic!("line {i}: {line}"));
        assert_eq!(
            error.get("kind").and_then(Value::as_str),
            Some(want_kind),
            "line {i}: {line}"
        );
        assert!(error.get("message").and_then(Value::as_str).is_some(), "line {i}: {line}");
    }
    // Requests that parsed far enough to carry an id get it echoed back.
    assert!(lines[2].starts_with("{\"id\":2,"), "{}", lines[2]);
    // Unknown spill policies name the registry in the error message.
    assert!(lines[6].contains("unknown spill policy"), "{}", lines[6]);
    // The connection survived all of it.
    assert_eq!(lines[7], "{\"id\":6,\"ok\":true,\"op\":\"pong\"}");
}

/// Oversized request lines are bounded: the daemon answers with a
/// structured error without buffering the line, keeps the framing, and
/// still answers the next request.
#[test]
fn oversized_requests_are_bounded_and_do_not_break_framing() {
    let huge = format!("{{\"op\":\"compile\",\"ddg\":\"{}\"}}", "x".repeat(4096));
    let input = format!("{huge}\n{{\"id\":1,\"op\":\"ping\"}}\n");
    let out = serve_stdin(&input, &["--max-request-bytes", "256"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    let err = parse_json(lines[0]).expect("error line is JSON");
    assert_eq!(err.get("ok").and_then(Value::as_bool), Some(false));
    let error = err.get("error").expect("error object");
    assert_eq!(error.get("kind").and_then(Value::as_str), Some("oversized"), "{}", lines[0]);
    assert!(
        error.get("message").and_then(Value::as_str).unwrap().contains("256-byte limit"),
        "{}",
        lines[0]
    );
    assert_eq!(lines[1], "{\"id\":1,\"ok\":true,\"op\":\"pong\"}");
}

/// Identical compile requests hit the cache: misses only on first sight,
/// hits afterwards, and the response bytes are identical either way.
#[test]
fn repeated_requests_hit_the_cache_and_counters_add_up() {
    let compile = format!("{{\"id\":0,\"op\":\"compile\",\"ddg\":\"{DDG}\",\"budget\":16}}");
    let input = format!("{compile}\n{compile}\n{compile}\n{{\"op\":\"stats\"}}\n");
    let out = serve_stdin(&input, &[]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4);
    assert_eq!(lines[0], lines[1], "hit must be byte-identical to miss");
    assert_eq!(lines[1], lines[2]);
    assert!(lines[0].contains("\"status\":\"fitted\""), "{}", lines[0]);
    let stats = parse_json(lines[3]).expect("stats is JSON");
    let totals = stats.get("totals").expect("totals object");
    let hits = totals.get("hits").unwrap().as_i64().unwrap();
    let misses = totals.get("misses").unwrap().as_i64().unwrap();
    assert_eq!((hits, misses), (2, 1));
    assert_eq!(
        hits + misses,
        stats.get("compile_requests").unwrap().as_i64().unwrap(),
        "hits + misses must equal compile requests"
    );
}

/// The ISSUE acceptance workload: replaying the `gen --seed 7 --count
/// 200` corpus twice shows a cache hit count at least the first pass's
/// miss count, and the counters account for every request.
#[test]
fn two_pass_replay_of_the_gen_corpus_hits_at_least_first_pass_misses() {
    let dir = scratch_dir("two-pass");
    let stats_path = dir.join("stats.json");
    run_ok({
        let mut c = bin();
        c.args(["replay", "--seed", "7", "--count", "200", "--repeat", "2", "--jobs", "4"])
            .args(["--stats-out"])
            .arg(&stats_path)
            .stdout(Stdio::null());
        c
    });
    let stats = parse_json(&fs::read_to_string(&stats_path).expect("stats written")).unwrap();
    let totals = stats.get("totals").expect("totals object");
    let hits = totals.get("hits").unwrap().as_i64().unwrap();
    let misses = totals.get("misses").unwrap().as_i64().unwrap();
    let evictions = totals.get("evictions").unwrap().as_i64().unwrap();
    let requests = stats.get("compile_requests").unwrap().as_i64().unwrap();
    assert_eq!(requests, 400, "200 kernels x 2 passes");
    assert!(hits >= misses, "pass 2 must hit at least pass 1's misses: {hits} < {misses}");
    assert_eq!(hits + misses, requests, "every request is a hit or a miss");
    assert_eq!(evictions, 0, "the default budget must hold this corpus");
    assert_eq!(stats.get("protocol_errors").unwrap().as_i64(), Some(0));
    let _ = fs::remove_dir_all(&dir);
}

/// The determinism gate, in-process edition: response streams are
/// byte-identical with the cache on vs off and at `--jobs` 1 vs 4, for
/// every registered scheduler.
#[test]
fn replay_streams_are_identical_across_cache_and_jobs_for_all_schedulers() {
    let dir = scratch_dir("det-gate");
    // The exact oracle leg is smaller: branch-and-bound on the default
    // gen kernels is heavier than one heuristic pass, and the gate is
    // about bytes, not volume.
    for (scheduler, count) in [("hrms", "30"), ("sms", "30"), ("asap", "30"), ("exact", "12")] {
        let mut streams = Vec::new();
        for (tag, args) in [
            ("cache-jobs1", &["--jobs", "1"][..]),
            ("cache-jobs4", &["--jobs", "4"]),
            ("nocache-jobs4", &["--jobs", "4", "--no-cache"]),
        ] {
            let out = run_ok({
                let mut c = bin();
                c.args(["replay", "--seed", "11", "--count", count, "--repeat", "2"])
                    .args(["--scheduler", scheduler])
                    .args(args)
                    .stderr(Stdio::null());
                c
            });
            streams.push((tag, String::from_utf8(out.stdout).unwrap()));
        }
        assert!(!streams[0].1.is_empty());
        assert_eq!(streams[0].1, streams[1].1, "{scheduler}: --jobs changed bytes");
        assert_eq!(streams[0].1, streams[2].1, "{scheduler}: cache changed bytes");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The same determinism gate over the spill-policy axis: for every
/// registered policy, a tight-budget replay (budget 8 forces real spill
/// decisions) is byte-identical with the cache on vs off and at `--jobs`
/// 1 vs 4 — so every policy's victim ranking is deterministic end to end
/// and the cache key separates the policies correctly.
#[test]
fn replay_streams_are_identical_across_cache_and_jobs_for_all_spill_policies() {
    for policy in ["paper", "min-next-use", "furthest-next-use", "round-robin"] {
        let mut streams = Vec::new();
        for args in [&["--jobs", "1"][..], &["--jobs", "4"], &["--jobs", "4", "--no-cache"]] {
            let out = run_ok({
                let mut c = bin();
                c.args(["replay", "--seed", "11", "--count", "25", "--repeat", "2"])
                    .args(["--budgets", "8", "--spill-policy", policy])
                    .args(args)
                    .stderr(Stdio::null());
                c
            });
            streams.push(String::from_utf8(out.stdout).unwrap());
        }
        assert!(!streams[0].is_empty());
        assert_eq!(streams[0], streams[1], "{policy}: --jobs changed bytes");
        assert_eq!(streams[0], streams[2], "{policy}: cache changed bytes");
    }
}

/// The ISSUE 8 determinism fix, CLI edition: `suite --scheduler exact`
/// and `regpipe gap` reports must be byte-identical at `--jobs 1` vs
/// `--jobs 4` (the serve cache on/off half of the gate is the exact leg
/// of `replay_streams_are_identical_across_cache_and_jobs_for_all_schedulers`).
#[test]
fn suite_exact_and_gap_reports_are_byte_identical_across_jobs() {
    let dir = scratch_dir("exact-jobs");
    let mut suites = Vec::new();
    let mut gaps = Vec::new();
    for jobs in ["1", "4"] {
        let suite_path = dir.join(format!("suite-{jobs}.json"));
        run_ok({
            let mut c = bin();
            c.args(["suite", "--size", "8", "--scheduler", "exact", "--jobs", jobs, "--out"])
                .arg(&suite_path)
                .stdout(Stdio::null())
                .stderr(Stdio::null());
            c
        });
        suites.push(fs::read_to_string(&suite_path).expect("suite report written"));
        let gap_path = dir.join(format!("gap-{jobs}.json"));
        run_ok({
            let mut c = bin();
            c.args(["gap", "--count", "15", "--jobs", jobs, "--out"])
                .arg(&gap_path)
                .stdout(Stdio::null());
            c
        });
        gaps.push(fs::read_to_string(&gap_path).expect("gap report written"));
    }
    assert_eq!(suites[0], suites[1], "suite --scheduler exact differs across --jobs");
    assert!(suites[0].contains("\"scheduler\":\"exact\""), "{}", suites[0]);
    assert_eq!(gaps[0], gaps[1], "BENCH_gap.json differs across --jobs");
    assert!(gaps[0].contains("\"schema\":\"regpipe-bench-gap/v2\""));
    let _ = fs::remove_dir_all(&dir);
}

/// The same gate over the real unix socket transport, concurrent clients
/// included, with a clean shutdown at the end.
#[cfg(unix)]
#[test]
fn socket_transport_matches_stdin_and_survives_concurrent_clients() {
    let dir = scratch_dir("socket");
    let socket = dir.join("daemon.sock");
    let mut daemon = bin()
        .arg("serve")
        .arg("--socket")
        .arg(&socket)
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    // Wait for the socket to appear.
    for _ in 0..100 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(socket.exists(), "daemon never bound its socket");

    let replay = |jobs: &str, stats: Option<&PathBuf>, shutdown: bool| -> String {
        let mut c = bin();
        c.args(["replay", "--seed", "11", "--count", "20", "--repeat", "2", "--jobs", jobs])
            .arg("--socket")
            .arg(&socket)
            .stderr(Stdio::null());
        if let Some(path) = stats {
            c.arg("--stats-out").arg(path);
        }
        if shutdown {
            c.arg("--shutdown");
        }
        String::from_utf8(run_ok(c).stdout).unwrap()
    };
    let jobs1 = replay("1", None, false);
    let stats_path = dir.join("stats.json");
    let jobs4 = replay("4", Some(&stats_path), true);
    assert_eq!(jobs1, jobs4, "socket streams differ across --jobs");

    // In-process replay of the same workload produces the same bytes.
    let out = run_ok({
        let mut c = bin();
        c.args(["replay", "--seed", "11", "--count", "20", "--repeat", "2", "--jobs", "2"])
            .stderr(Stdio::null());
        c
    });
    assert_eq!(jobs1, String::from_utf8(out.stdout).unwrap(), "transport changed bytes");

    // Counters: both socket replays' compiles are accounted for (the
    // in-process replay above ran its own server and is not included).
    let stats = parse_json(&fs::read_to_string(&stats_path).unwrap()).unwrap();
    let totals = stats.get("totals").expect("totals object");
    let hits = totals.get("hits").unwrap().as_i64().unwrap();
    let misses = totals.get("misses").unwrap().as_i64().unwrap();
    assert_eq!(hits + misses, stats.get("compile_requests").unwrap().as_i64().unwrap());
    assert_eq!(misses, 20, "one miss per distinct key across both replays");
    assert_eq!(hits, 60, "2 x 40 socket requests total, all but the first 20 hit");

    // --shutdown stopped the daemon and removed the socket file.
    let status = daemon.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited uncleanly");
    assert!(!socket.exists(), "socket file must be removed on shutdown");
    let _ = fs::remove_dir_all(&dir);
}

/// An in-process `replay --repeat 2` accounts for every request in its
/// `--stats-out` counters: pass 1 misses once per distinct request, pass 2
/// hits every one, and every response is fitted. Two runs agree byte for
/// byte on both the responses and the stats.
#[test]
fn replay_stats_account_for_every_request_across_passes() {
    let dir = scratch_dir("replay-stats");
    let mut runs = Vec::new();
    for name in ["a.json", "b.json"] {
        let path = dir.join(name);
        let out = run_ok({
            let mut c = bin();
            c.args(["replay", "--count", "10", "--repeat", "2", "--budgets", "32"])
                .arg("--stats-out")
                .arg(&path)
                .stderr(Stdio::null());
            c
        });
        let responses = String::from_utf8(out.stdout).unwrap();
        runs.push((responses, fs::read_to_string(&path).expect("stats written")));
    }
    assert_eq!(runs[0], runs[1], "responses and stats must be byte-stable");
    let (responses, stats) = &runs[0];
    assert_eq!(responses.lines().count(), 20, "10 kernels x 1 budget x 2 passes");
    assert!(responses.lines().all(|l| l.contains("\"status\":\"fitted\"")), "{responses}");
    let stats = parse_json(stats).expect("stats parse");
    assert_eq!(stats.get("compile_requests").and_then(Value::as_i64), Some(20));
    let totals = stats.get("totals").expect("totals object");
    let count = |key: &str| totals.get(key).and_then(Value::as_i64).unwrap();
    assert_eq!((count("hits"), count("misses"), count("evictions")), (10, 10, 0));
    let _ = fs::remove_dir_all(&dir);
}

/// The new verbs are documented (with their flags) in `help`, and bad
/// flag values fail cleanly.
#[test]
fn serve_verbs_are_documented_and_validated() {
    let out = run_ok({
        let mut c = bin();
        c.arg("help");
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "regpipe serve",
        "regpipe replay",
        "regpipe chaos",
        "--socket",
        "--repeat",
        "--cache-dir",
        "--deadline-ms",
        "--retry",
        "--spill-policy",
    ] {
        assert!(stdout.contains(needle), "help missing '{needle}'");
    }
    for topic in ["serve", "replay"] {
        let out = run_ok({
            let mut c = bin();
            c.args(["help", topic]);
            c
        });
        assert!(String::from_utf8(out.stdout).unwrap().contains("--no-cache"), "help {topic}");
    }
    let out = run_ok({
        let mut c = bin();
        c.args(["help", "chaos"]);
        c
    });
    assert!(String::from_utf8(out.stdout).unwrap().contains("--cycles"), "help chaos");
    for (args, needle) in [
        (&["replay", "--count", "0"][..], "--count"),
        (&["replay", "--repeat", "nope"], "--repeat"),
        (&["replay", "--source", "warp"], "unknown --source"),
        (&["replay", "--scheduler", "warp"], "unknown scheduler"),
        (&["replay", "--retry", "0"], "--retry"),
        (&["replay", "--spill-policy", "warp"], "unknown spill policy"),
        (&["serve", "--spill-policy", "warp"], "unknown spill policy"),
        (&["serve", "--cache-bytes", "0"], "--cache-bytes"),
        (&["serve", "--deadline-ms", "0"], "--deadline-ms"),
        (&["chaos", "--count", "3"], "--count"),
        (&["chaos", "--cycles", "0"], "--cycles"),
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}
