//! Golden-output test for the `regpipe` binary: drives `info`, `compile
//! --strategy best`, and `suite` on the paper's running example and asserts
//! byte-stable output. Because the whole pipeline is deterministic (see
//! `tests/determinism.rs`), any drift here is a behavior change, not noise.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use regpipe::ddg::textfmt;
use regpipe::loops::paper;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regpipe"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regpipe-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Write the paper's running example (`x(i) = y(i)*a + y(i-3)`, Fig. 2) in
/// the text format and return the path.
fn example_ddg(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("fig2.ddg");
    fs::write(&path, textfmt::format(&paper::example_loop())).expect("write ddg");
    path
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

#[test]
fn info_reports_the_paper_example_facts() {
    let dir = scratch_dir("info");
    let ddg = example_ddg(&dir);
    let out = run_ok({
        let mut c = bin();
        c.arg("info").arg(&ddg);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "loop 'fig2': 4 ops, 4 edges, 1 invariants\n\
         op mix: 1 load, 1 store, 1 add, 1 mul\n\
         machine P2L4: ResMII-bound MII = 1, RecMII = 1\n\
         recurrences: 0\n\
         unconstrained schedule: II = 1, SC = 11, registers = 18 (MaxLive 18)\n"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A loop with two recurrences: `info` counts them and prints one bound
/// per recurrence, largest first; the first is the RecMII.
#[test]
fn info_reports_each_recurrence_bound_largest_first() {
    let dir = scratch_dir("info-recurrences");
    let ddg = dir.join("two.ddg");
    fs::write(&ddg, "loop two\nop a add\nop d div\nedge a -> a reg 1\nedge d -> d reg 2\n")
        .expect("write ddg");
    let out = run_ok({
        let mut c = bin();
        c.arg("info").arg(&ddg);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "loop 'two': 2 ops, 2 edges, 0 invariants\n\
         op mix: 1 add, 1 div\n\
         machine P2L4: ResMII-bound MII = 9, RecMII = 9\n\
         recurrences: 2\n\
         recurrence bounds: 9, 4\n\
         unconstrained schedule: II = 9, SC = 1, registers = 3 (MaxLive 3)\n"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compile_best_meets_an_8_register_budget_on_the_example() {
    let dir = scratch_dir("compile");
    let ddg = example_ddg(&dir);
    let out = run_ok({
        let mut c = bin();
        c.arg("compile").arg(&ddg).args(["--strategy", "best", "--regs", "8"]);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "fig2: II = 2 (MII 1), registers = 8/8, spilled = 2, strategy = Spill\n\
         \n\
         kernel: II=2, SC=6\n\
         \x20\x20\x20\x200: Ld[0] Ld.l0[0] *[1]\n\
         \x20\x20\x20\x201: Ld.l1[2] +[3] St[5]\n\
         \n"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// `--emit pipeline` prints the whole emitted loop of the same compile:
/// the prologue that starts SC − 1 iterations, the kernel, and the
/// epilogue that drains them, its cycles counted from the start of the
/// last kernel repetition.
#[test]
fn compile_emits_the_example_pipeline() {
    let dir = scratch_dir("pipeline");
    let ddg = example_ddg(&dir);
    let out = run_ok({
        let mut c = bin();
        c.arg("compile").arg(&ddg);
        c.args(["--strategy", "best", "--regs", "8", "--emit", "pipeline"]);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "fig2: II = 2 (MII 1), registers = 8/8, spilled = 2, strategy = Spill\n\
         \n\
         pipelined loop: II=2, SC=6, code size 36 slots\n\
         prologue (10 cycles):\n\
         \x20\x20\x20\x20\x200: Ld(i0)\n\
         \x20\x20\x20\x20\x200: Ld.l0(i0)\n\
         \x20\x20\x20\x20\x202: Ld(i1)\n\
         \x20\x20\x20\x20\x202: *(i0)\n\
         \x20\x20\x20\x20\x202: Ld.l0(i1)\n\
         \x20\x20\x20\x20\x204: Ld(i2)\n\
         \x20\x20\x20\x20\x204: *(i1)\n\
         \x20\x20\x20\x20\x204: Ld.l0(i2)\n\
         \x20\x20\x20\x20\x205: Ld.l1(i0)\n\
         \x20\x20\x20\x20\x206: Ld(i3)\n\
         \x20\x20\x20\x20\x206: *(i2)\n\
         \x20\x20\x20\x20\x206: Ld.l0(i3)\n\
         \x20\x20\x20\x20\x207: +(i0)\n\
         \x20\x20\x20\x20\x207: Ld.l1(i1)\n\
         \x20\x20\x20\x20\x208: Ld(i4)\n\
         \x20\x20\x20\x20\x208: *(i3)\n\
         \x20\x20\x20\x20\x208: Ld.l0(i4)\n\
         \x20\x20\x20\x20\x209: +(i1)\n\
         \x20\x20\x20\x20\x209: Ld.l1(i2)\n\
         kernel (repeat; op(i-s) reads iteration i-s):\n\
         \x20\x20\x20\x20\x200: Ld(i-0)\n\
         \x20\x20\x20\x20\x200: *(i-1)\n\
         \x20\x20\x20\x20\x200: Ld.l0(i-0)\n\
         \x20\x20\x20\x20\x201: +(i-3)\n\
         \x20\x20\x20\x20\x201: St(i-5)\n\
         \x20\x20\x20\x20\x201: Ld.l1(i-2)\n\
         epilogue:\n\
         \x20\x20\x20\x20\x202: *(N-0)\n\
         \x20\x20\x20\x20\x203: +(N-2)\n\
         \x20\x20\x20\x20\x203: St(N-4)\n\
         \x20\x20\x20\x20\x203: Ld.l1(N-1)\n\
         \x20\x20\x20\x20\x205: +(N-1)\n\
         \x20\x20\x20\x20\x205: St(N-3)\n\
         \x20\x20\x20\x20\x205: Ld.l1(N-0)\n\
         \x20\x20\x20\x20\x207: +(N-0)\n\
         \x20\x20\x20\x20\x207: St(N-2)\n\
         \x20\x20\x20\x20\x209: St(N-1)\n\
         \x20\x20\x20\x2011: St(N-0)\n\
         \n"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn suite_emits_a_parseable_deterministic_corpus() {
    let dir = scratch_dir("suite");
    let corpus_a = dir.join("a");
    let corpus_b = dir.join("b");
    for corpus in [&corpus_a, &corpus_b] {
        let out = run_ok({
            let mut c = bin();
            c.args(["suite", "--size", "3", "--seed", "7", "--dir"]).arg(corpus);
            c
        });
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(stdout, format!("wrote 3 loops to {}/\n", corpus.display()));
    }
    for i in 0..3 {
        let name = format!("stream_{i:04}.ddg");
        let a = fs::read_to_string(corpus_a.join(&name)).expect("corpus file");
        let b = fs::read_to_string(corpus_b.join(&name)).expect("corpus file");
        // Same seed, same bytes — and the body after the weight header must
        // parse back into a well-formed graph.
        assert_eq!(a, b, "{name} differs between identical-seed runs");
        let body = a.split_once('\n').expect("weight header").1;
        let g = textfmt::parse(body).expect("corpus file parses");
        assert!(g.validate().is_ok());
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Regression: when the fully spilled loop still exceeds the budget, the
/// spill strategy's II relief stops at the scheduler's II ceiling and
/// reports the loop's register floor. It used to keep asking for the next
/// II past the ceiling and fail with "requested II range [56, 55] is
/// empty".
#[test]
fn spill_relief_stops_at_the_ii_ceiling_and_reports_the_floor() {
    let dir = scratch_dir("relief");
    run_ok({
        let mut c = bin();
        c.args(["gen", "--seed", "7", "--count", "2", "--min-ops", "12", "--max-ops", "12"]);
        c.arg("--out").arg(&dir);
        c
    });
    let out = bin()
        .arg("compile")
        .arg(dir.join("gen_00001.ddg"))
        .args(["--regs", "3", "--strategy", "spill"])
        .output()
        .expect("spawn regpipe");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("no spillable lifetime left; loop floor is 4 registers"),
        "{stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_commands_and_bad_inputs_fail_cleanly() {
    let out = bin().arg("frobnicate").output().expect("spawn regpipe");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin().args(["compile", "/nonexistent/no.ddg"]).output().expect("spawn regpipe");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Regression: `help`/`--help` used to print a one-line usage to stderr.
/// The full per-subcommand usage (including `--jobs`) must go to stdout
/// with exit 0, and nothing to stderr.
#[test]
fn help_prints_full_usage_to_stdout() {
    for invocation in [&["help"][..], &["--help"], &["-h"]] {
        let out = bin().args(invocation).output().expect("spawn regpipe");
        assert!(out.status.success(), "{invocation:?} must exit 0");
        assert!(out.stderr.is_empty(), "{invocation:?} must not write to stderr");
        let stdout = String::from_utf8(out.stdout).unwrap();
        for needle in ["regpipe info", "regpipe compile", "regpipe suite", "--jobs"] {
            assert!(stdout.contains(needle), "{invocation:?} output missing '{needle}'");
        }
    }
    // No arguments behaves like help.
    let out = bin().output().expect("spawn regpipe");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--jobs"));
    // Per-subcommand narrowing.
    let out = bin().args(["help", "compile"]).output().expect("spawn regpipe");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("--strategy"));
    assert!(!stdout.contains("regpipe info"), "narrowed help shows one subcommand");
}

/// The scheduler axis: `help suite` / `help compile` document `--scheduler`,
/// and unknown scheduler names are a hard error on stderr with exit 1 on
/// every verb that accepts the flag.
#[test]
fn scheduler_flag_is_documented_and_strictly_validated() {
    for topic in ["suite", "compile", "info"] {
        let out = bin().args(["help", topic]).output().expect("spawn regpipe");
        assert!(out.status.success(), "help {topic} must exit 0");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("--scheduler"), "help {topic} must document --scheduler");
        assert!(stdout.contains("hrms|sms|asap|exact"), "help {topic} must list the registry");
    }
    let dir = scratch_dir("sched-flag");
    let ddg = example_ddg(&dir);
    let ddg_str = ddg.to_str().unwrap();
    for args in [
        &["suite", "--size", "3", "--scheduler", "warp"][..],
        &["compile", ddg_str, "--scheduler", "warp"],
        &["info", ddg_str, "--scheduler", "warp"],
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty() || !String::from_utf8_lossy(&out.stdout).contains("==="));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown scheduler 'warp'"), "{args:?}: {stderr}");
        assert!(stderr.contains("hrms"), "{args:?} must name the registry: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The spill-policy axis (ISSUE 10): `help` documents `--spill-policy`
/// with the full registry on every verb that accepts it, and unknown
/// policy names are a hard error on stderr with exit 1.
#[test]
fn spill_policy_flag_is_documented_and_strictly_validated() {
    for topic in ["suite", "compile", "gap"] {
        let out = bin().args(["help", topic]).output().expect("spawn regpipe");
        assert!(out.status.success(), "help {topic} must exit 0");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("--spill-policy"), "help {topic} must document --spill-policy");
        assert!(stdout.contains("min-next-use"), "help {topic} must list the registry");
    }
    let dir = scratch_dir("policy-flag");
    let ddg = example_ddg(&dir);
    let ddg_str = ddg.to_str().unwrap();
    for args in [
        &["suite", "--size", "3", "--spill-policy", "warp"][..],
        &["compile", ddg_str, "--spill-policy", "warp"],
        &["gap", "--count", "2", "--spill-policy", "warp"],
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown spill policy 'warp'"), "{args:?}: {stderr}");
        assert!(stderr.contains("min-next-use"), "{args:?} must name the registry: {stderr}");
    }
    // `info` never spills, so it takes no policy: the flag is unknown there.
    let out = bin().args(["info", ddg_str, "--spill-policy", "paper"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "info --spill-policy must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--spill-policy"), "info must name the flag: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

/// A size point of generated kernels runs through `gen --min-ops N
/// --max-ops N` and `suite --corpus`: six 48-op kernels at the default
/// budgets and strategies pin these work totals.
#[test]
fn suite_corpus_pins_a_generated_size_point() {
    let dir = scratch_dir("size-point");
    let run_to = |args: &[&str], out: &str| {
        let path = dir.join(out);
        run_ok({
            let mut c = bin();
            c.args(args).arg("--out").arg(&path);
            c
        });
        path
    };
    let gen = ["gen", "--seed", "49626", "--count", "6", "--min-ops", "48", "--max-ops", "48"];
    let corpus = run_to(&gen, "corpus");
    let report = run_to(&["suite", "--corpus", corpus.to_str().unwrap()], "suite.json");
    let report = regpipe::exec::json::parse(&fs::read_to_string(report).unwrap()).unwrap();
    let aggregates = report.get("aggregates").unwrap().as_array().unwrap();
    let totals = ["fitted", "failures", "cycles", "spilled", "reschedules"]
        .map(|f| aggregates.iter().map(|a| a.get(f).unwrap().as_i64().unwrap()).sum::<i64>());
    assert_eq!(totals, [35, 1, 965_916, 22, 53]);
    let _ = fs::remove_dir_all(&dir);
}

/// The 256-op spill path, where the II walk, the per-round `LoopAnalysis`
/// and the rotating allocator do nearly all the work: four 256-op kernels
/// under `best,spill` at the default budgets pin these work totals per
/// register-sensitive scheduler.
#[test]
fn suite_corpus_pins_the_256_op_spill_path() {
    let dir = scratch_dir("size-point-256");
    let corpus = dir.join("corpus");
    run_ok({
        let mut c = bin();
        c.args(["gen", "--seed", "49626", "--count", "4", "--min-ops", "256"])
            .args(["--max-ops", "256", "--out"])
            .arg(&corpus);
        c
    });
    for (scheduler, pin) in
        [("hrms", [16, 0, 9_320_892, 864, 98]), ("sms", [16, 0, 9_320_892, 848, 98])]
    {
        let path = dir.join(format!("{scheduler}.json"));
        run_ok({
            let mut c = bin();
            c.args([
                "suite",
                "--corpus",
                corpus.to_str().unwrap(),
                "--strategies",
                "best,spill",
            ])
            .args(["--scheduler", scheduler, "--out"])
            .arg(&path);
            c
        });
        let report = regpipe::exec::json::parse(&fs::read_to_string(path).unwrap()).unwrap();
        let aggregates = report.get("aggregates").unwrap().as_array().unwrap();
        let totals = ["fitted", "failures", "cycles", "spilled", "reschedules"].map(|f| {
            aggregates.iter().map(|a| a.get(f).unwrap().as_i64().unwrap()).sum::<i64>()
        });
        assert_eq!(totals, pin, "{scheduler}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every registered spill policy drives `suite` end-to-end; the report
/// records the policy (v3 schema) and stays byte-identical across
/// `--jobs` for every policy — the CLI half of the ISSUE acceptance.
#[test]
fn suite_records_every_policy_and_is_jobs_invariant_per_policy() {
    let dir = scratch_dir("policy-suite");
    for policy in ["paper", "min-next-use", "furthest-next-use", "round-robin"] {
        let mut reports = Vec::new();
        for jobs in ["1", "4"] {
            let json_path = dir.join(format!("{policy}-{jobs}.json"));
            run_ok({
                let mut c = bin();
                c.args(["suite", "--size", "4", "--seed", "11", "--jobs", jobs])
                    .args(["--spill-policy", policy, "--out"])
                    .arg(&json_path)
                    .stdout(std::process::Stdio::null());
                c
            });
            reports.push(fs::read_to_string(&json_path).expect("report emitted"));
        }
        assert_eq!(reports[0], reports[1], "{policy}: BENCH_suite.json differs across --jobs");
        assert!(
            reports[0].contains(&format!("\"spill_policy\":\"{policy}\"")),
            "{policy} not recorded:\n{}",
            reports[0]
        );
        assert!(reports[0].contains("\"schema\":\"regpipe-bench-suite/v3\""), "{}", reports[0]);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every registered scheduler drives `info` end-to-end on the paper
/// example; the register-insensitive baseline needs at least as many
/// registers as the register-sensitive schedulers.
#[test]
fn info_reports_every_scheduler_on_the_example() {
    let dir = scratch_dir("info-sched");
    let ddg = example_ddg(&dir);
    let mut regs = Vec::new();
    for scheduler in ["hrms", "sms", "asap", "exact"] {
        let out = run_ok({
            let mut c = bin();
            c.arg("info").arg(&ddg).args(["--scheduler", scheduler]);
            c
        });
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = stdout
            .lines()
            .find(|l| l.starts_with("unconstrained schedule"))
            .unwrap_or_else(|| panic!("{scheduler}: no schedule line in {stdout}"));
        assert!(line.contains("II = 1,"), "{scheduler}: {line}");
        let n: u32 = line
            .split("registers = ")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .and_then(|r| r.parse().ok())
            .unwrap_or_else(|| panic!("{scheduler}: unparsable {line}"));
        regs.push(n);
    }
    let (hrms, sms, asap) = (regs[0], regs[1], regs[2]);
    assert!(hrms <= asap, "hrms {hrms} regs must not exceed asap {asap}");
    assert!(sms <= asap, "sms {sms} regs must not exceed asap {asap}");
    let _ = fs::remove_dir_all(&dir);
}

/// The `gap` verb end-to-end: documented in help, knobs validated, and
/// the report carries its schema with a nonzero proven count on a small
/// default-budget corpus.
#[test]
fn gap_verb_is_documented_validated_and_proves_small_kernels() {
    let out = run_ok({
        let mut c = bin();
        c.args(["help", "gap"]);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in ["--node-budget", "--corpus", "regpipe-bench-gap/v2", "--spill-budget"] {
        assert!(stdout.contains(needle), "help gap missing '{needle}'");
    }
    for (args, needle) in [
        (&["gap", "--node-budget", "nope"][..], "--node-budget"),
        (&["gap", "--count", "0"], "--count"),
        (&["gap", "--max-ops", "1"], "--max-ops"),
        (&["gap", "--corpus", "d", "--seed", "9"], "--seed does not apply"),
        (&["gap", "--corpus"], "--corpus needs a directory"),
        (&["gap", "--spill-budget", "0"], "--spill-budget"),
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    let dir = scratch_dir("gap-run");
    let json_path = dir.join("gap.json");
    let out = run_ok({
        let mut c = bin();
        c.args(["gap", "--count", "10", "--jobs", "2", "--out"]).arg(&json_path);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("proven optimal:"), "{stdout}");
    assert!(stdout.contains("spill policies (budget"), "{stdout}");
    let report = fs::read_to_string(&json_path).expect("report written");
    let doc = regpipe::exec::json::parse(&report).expect("report parses");
    assert_eq!(
        doc.get("schema").and_then(regpipe::exec::json::Value::as_str),
        Some("regpipe-bench-gap/v2")
    );
    for policy in ["paper", "min-next-use", "furthest-next-use", "round-robin"] {
        assert!(
            report.contains(&format!("\"policy\":\"{policy}\"")),
            "gap report must cover every registered policy:\n{report}"
        );
    }
    let proven = doc.get("proven").and_then(regpipe::exec::json::Value::as_i64).unwrap();
    assert!(proven > 0, "default budget must prove small kernels:\n{report}");
    let _ = fs::remove_dir_all(&dir);
}

/// `suite` without `--dir` runs the batch engine: stdout and the emitted
/// `BENCH_suite.json` must be byte-identical for any `--jobs` value, and
/// the JSON must parse.
#[test]
fn suite_run_is_byte_identical_across_job_counts() {
    let dir = scratch_dir("suite-run");
    let mut outputs = Vec::new();
    for jobs in ["1", "3"] {
        let json_path = dir.join(format!("report-{jobs}.json"));
        let out = run_ok({
            let mut c = bin();
            c.args(["suite", "--size", "5", "--seed", "11", "--jobs", jobs, "--out"])
                .arg(&json_path);
            c
        });
        let report = fs::read_to_string(&json_path).expect("report emitted");
        regpipe::exec::json::parse(&report).expect("report parses");
        outputs.push((String::from_utf8(out.stdout).unwrap(), report));
    }
    let stdout_1 = &outputs[0].0;
    let stdout_3 = &outputs[1].0;
    // The report path differs between the two runs; compare stdout modulo
    // that one line.
    let strip =
        |s: &str| s.lines().filter(|l| !l.starts_with("wrote ")).collect::<Vec<_>>().join("\n");
    assert_eq!(strip(stdout_1), strip(stdout_3), "stdout differs across --jobs");
    assert_eq!(outputs[0].1, outputs[1].1, "BENCH_suite.json differs across --jobs");
    assert!(stdout_1.contains("suite evaluation"));
    let _ = fs::remove_dir_all(&dir);
}

/// The new workload funnel end-to-end: `gen` materializes a corpus
/// byte-reproducibly, `check` validates it, and `suite --corpus` compiles
/// it with worker-count-independent results (ISSUE 3 acceptance).
#[test]
fn gen_check_and_suite_corpus_are_deterministic() {
    let dir = scratch_dir("gen-corpus");
    let corpus_a = dir.join("a");
    let corpus_b = dir.join("b");
    for corpus in [&corpus_a, &corpus_b] {
        let out = run_ok({
            let mut c = bin();
            c.args(["gen", "--seed", "7", "--count", "20", "--out"]).arg(corpus);
            c
        });
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            format!("wrote 20 kernels to {}/ (seed 7)\n", corpus.display())
        );
    }
    // Same seed, same bytes, for every file of the corpus.
    for i in 0..20 {
        let name = format!("gen_{i:05}.ddg");
        let a = fs::read_to_string(corpus_a.join(&name)).expect("corpus file");
        let b = fs::read_to_string(corpus_b.join(&name)).expect("corpus file");
        assert_eq!(a, b, "{name} differs between identical-seed runs");
        assert!(a.starts_with("# weight "), "{name} carries a weight header");
    }
    // `check` accepts the generated corpus.
    let out = run_ok({
        let mut c = bin();
        c.arg("check").arg(&corpus_a);
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("OK"), "{stdout}");
    assert!(stdout.contains("loops:   20"), "{stdout}");
    // `suite --corpus` is byte-identical across worker counts.
    let mut reports = Vec::new();
    for jobs in ["1", "4"] {
        let json_path = dir.join(format!("report-{jobs}.json"));
        run_ok({
            let mut c = bin();
            c.args(["suite", "--jobs", jobs, "--corpus"])
                .arg(&corpus_a)
                .arg("--out")
                .arg(&json_path);
            c
        });
        let report = fs::read_to_string(&json_path).expect("report emitted");
        regpipe::exec::json::parse(&report).expect("report parses");
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "corpus BENCH_suite.json differs across --jobs");
    let _ = fs::remove_dir_all(&dir);
}

/// A corpus's `.mach` file selects the machine; an explicit `--machine`
/// flag still wins.
#[test]
fn corpus_machine_description_is_honoured() {
    let dir = scratch_dir("corpus-mach");
    let corpus = dir.join("c");
    run_ok({
        let mut c = bin();
        c.args(["gen", "--seed", "3", "--count", "2", "--out"]).arg(&corpus);
        c
    });
    fs::write(corpus.join("machine.mach"), "machine M9\nunits mem 2\nlatency add 9\n")
        .expect("write mach");
    let out = run_ok({
        let mut c = bin();
        c.args(["suite", "--jobs", "1", "--corpus"])
            .arg(&corpus)
            .arg("--out")
            .arg(dir.join("r.json"));
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("machine M9"), "corpus machine used:\n{stdout}");
    let out = run_ok({
        let mut c = bin();
        c.args(["suite", "--jobs", "1", "--machine", "p1l4", "--corpus"])
            .arg(&corpus)
            .arg("--out")
            .arg(dir.join("r2.json"));
        c
    });
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("machine P1L4"), "--machine overrides corpus:\n{stdout}");
    let _ = fs::remove_dir_all(&dir);
}

/// `check` on a broken corpus lists every problem as file:line: message
/// and fails.
#[test]
fn check_reports_file_and_line_for_every_problem() {
    let dir = scratch_dir("check-bad");
    let corpus = dir.join("c");
    run_ok({
        let mut c = bin();
        c.args(["gen", "--seed", "3", "--count", "2", "--out"]).arg(&corpus);
        c
    });
    fs::write(corpus.join("broken.ddg"), "loop b\nop x add\nedge x -> y reg 0\n")
        .expect("write bad ddg");
    fs::write(corpus.join("m.mach"), "units warp 9\n").expect("write bad mach");
    let out = bin().arg("check").arg(&corpus).output().expect("spawn regpipe");
    assert!(!out.status.success(), "broken corpus must fail check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("broken.ddg:3: unknown op 'y'"), "{stderr}");
    assert!(stderr.contains("m.mach:1: unknown class 'warp'"), "{stderr}");
    assert!(stderr.contains("has 2 errors"), "{stderr}");
    // `suite --corpus` on the same directory fails with the same detail.
    let out = bin().args(["suite", "--corpus"]).arg(&corpus).output().expect("spawn regpipe");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("broken.ddg:3"), "suite names files");
    let _ = fs::remove_dir_all(&dir);
}

/// Generator knobs are validated eagerly with actionable messages.
#[test]
fn gen_rejects_bad_knobs() {
    let dir = scratch_dir("gen-bad");
    for (args, needle) in [
        (&["gen"][..], "missing --out"),
        (&["gen", "--out", "x", "--count", "0"], "--count"),
        (&["gen", "--out", "x", "--min-ops", "9", "--max-ops", "4"], "max_ops"),
        (&["gen", "--out", "x", "--rec-density", "1.5"], "recurrence_density"),
        (&["gen", "--out", "x", "--weights", "zipf:3"], "unknown weight distribution"),
    ] {
        let mut c = bin();
        c.args(args).current_dir(&dir);
        let out = c.output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Regression: `suite --corpus` with no directory value (or with
/// synthetic-suite-only flags) used to fall through to the built-in
/// suite silently; it must be a hard error instead.
#[test]
fn suite_corpus_flag_misuse_is_an_error() {
    for (args, needle) in [
        (&["suite", "--corpus"][..], "--corpus needs a directory"),
        (&["suite", "--corpus", "d", "--size", "5"], "--size does not apply"),
        (&["suite", "--corpus", "d", "--seed", "9"], "--seed does not apply"),
        (&["suite", "--corpus", "d", "--dir", "e"], "cannot be combined with --corpus"),
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

/// Regression: every verb used to look its flags up by name and ignore the
/// rest, so a misspelt, unlisted, repeated or valueless flag, or a stray
/// argument, silently ran a different experiment. Each now exits 1 with a
/// message naming it and nothing on stdout; so does a bad `--emit` mode,
/// which is read before the compile. The runs happen in a scratch
/// directory, so a regression cannot write reports into the working tree.
#[test]
fn dropped_arguments_are_errors_naming_them() {
    let dir = scratch_dir("dropped-args");
    let ddg = example_ddg(&dir);
    let ddg = ddg.to_str().unwrap();
    // A valid request file, so each `--file` case below fails only on
    // the stream flag it names.
    fs::write(dir.join("f"), "{\"op\":\"ping\"}\n").expect("write request file");
    for (args, needle) in [
        (&["compile", ddg, "--stratgy", "increase-ii"][..], "unknown flag '--stratgy'"),
        (&["compile", ddg, "--heuristic", "lt"], "unknown flag '--heuristic'"),
        (&["compile", ddg, "--emit", "bogus"], "unknown emit mode 'bogus'"),
        (&["suite", "--strategy", "spill"], "unknown flag '--strategy'"),
        (&["replay", "--count", "2", "--budget", "8"], "unknown flag '--budget'"),
        (&["suite", "--jobs", "1", "--jobs", "4"], "--jobs given more than once"),
        (&["suite", "extra"], "unexpected argument 'extra'"),
        (&["compile", ddg, ddg], "unexpected argument"),
        (&["suite", "--corpus", "--machine", "p1l4"], "--corpus needs a directory"),
        (&["gap", "--count", "2", "--out"], "--out needs a value"),
        (&["suite", "--dir", "d", "--jobs", "4"], "cannot be combined with --jobs"),
        (&["suite", "--size", "3", "--machine", "m9"], "unknown machine 'm9'"),
        (&["suite", "--size", "3", "--budgets", "32,32"], "--budgets lists '32' more than"),
        (&["suite", "--size", "3", "--strategies", "best,best"], "--strategies lists 'best'"),
        (&["replay", "--count", "2", "--budgets", "64,32,64"], "--budgets lists '64'"),
        (&["replay", "--file", "f", "--source", "suite"], "combined with --source"),
        (&["replay", "--file", "f", "--seed", "99"], "combined with --seed"),
        (&["replay", "--file", "f", "--count", "5"], "combined with --count"),
        (&["replay", "--file", "f", "--budgets", "8"], "combined with --budgets"),
        (&["replay", "--file", "f", "--strategy", "spill"], "combined with --strategy"),
        (&["replay", "--file", "f", "--scheduler", "sms"], "combined with --scheduler"),
        (&["replay", "--file", "f", "--spill-policy", "paper"], "combined with --spill-policy"),
        (&["replay", "--file", "f", "--machine", "p1l4"], "combined with --machine"),
    ] {
        let out = bin().args(args).current_dir(&dir).output().expect("spawn regpipe");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    // The valueless `--out` used to fall back to the default report path.
    assert!(!dir.join("BENCH_gap.json").exists(), "gap wrote an unrequested report");
    assert!(!dir.join("BENCH_suite.json").exists(), "suite ran despite bad arguments");
    // `replay` accepts what its help lists, not the daemon-only knobs.
    let out = bin().args(["help", "replay"]).output().expect("spawn regpipe");
    let help = String::from_utf8(out.stdout).unwrap();
    for flag in ["--cache-bytes", "--max-request-bytes", "--deadline-ms"] {
        assert!(!help.contains(flag), "help replay lists {flag}");
        let out = bin()
            .args(["replay", "--count", "2", flag, "1"])
            .current_dir(&dir)
            .output()
            .expect("spawn regpipe");
        assert_eq!(out.status.code(), Some(1), "replay {flag} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag '{flag}'")), "{flag}: {stderr}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Strict flag validation: a bad `--jobs` or `--size` is a clean error.
#[test]
fn suite_rejects_bad_jobs_and_size() {
    for args in [&["suite", "--size", "5", "--jobs", "0"][..], &["suite", "--size", "nope"]] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("must be a positive integer"), "{args:?}: {stderr}");
    }
}

/// The paper's artifacts, in `regpipe help paper` order.
const PAPER_ARTIFACTS: [&str; 7] =
    ["example", "fig4", "fig7", "fig8", "fig9", "table1", "ablation"];

/// `regpipe paper` is read by the one parser: `help paper` lists every
/// artifact, and a bad artifact, flag or argument exits 1 naming it.
/// `--size` sizes only the artifacts that run the suite; on the others it
/// is an error rather than silently ignored.
#[test]
fn paper_verb_is_documented_and_strictly_validated() {
    let out = bin().args(["help", "paper"]).output().expect("spawn regpipe");
    assert!(out.status.success(), "help paper must exit 0");
    let help = String::from_utf8(out.stdout).unwrap();
    for artifact in PAPER_ARTIFACTS {
        assert!(help.contains(&format!("\n    {artifact} ")), "help paper misses {artifact}");
    }
    for (args, needle) in [
        (&["paper", "fig5"][..], "unknown artifact 'fig5'"),
        (&["paper"], "missing <example|fig4|fig7|fig8|fig9|table1|ablation>"),
        (&["paper", "fig9", "--jbos", "1"], "unknown flag '--jbos'"),
        (&["paper", "table1", "stray-arg"], "unexpected argument 'stray-arg'"),
        (&["paper", "fig4", "--size", "40"], "--size does not apply to fig4"),
    ] {
        let out = bin().args(args).output().expect("spawn regpipe");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

/// Every artifact prints the same bytes at any worker count.
#[test]
fn paper_artifacts_are_byte_identical_across_job_counts() {
    for artifact in PAPER_ARTIFACTS {
        let run = |jobs: &str| {
            let mut cmd = bin();
            cmd.args(["paper", artifact, "--jobs", jobs]);
            if !matches!(artifact, "example" | "fig4" | "fig7") {
                cmd.args(["--size", "40"]);
            }
            run_ok(cmd).stdout
        };
        let sequential = run("1");
        assert!(!sequential.is_empty(), "paper {artifact} printed nothing");
        assert!(sequential == run("4"), "paper {artifact} differs between --jobs 1 and 4");
    }
}
