//! Validity and determinism of the SMS scheduler (ISSUE 5):
//!
//! * every SMS schedule is a **valid modulo schedule** — dependence
//!   distances and resource limits are respected at the achieved II
//!   (`Schedule::verify`) — across the seeded generator's knob space on
//!   all three paper machines;
//! * SMS results are identical through the cached (`schedule_in`) and
//!   uncached (`schedule`) paths, like the other schedulers;
//! * a `--scheduler sms` suite run is byte-identical across worker
//!   counts, in process and through the CLI binary.

use std::num::NonZeroUsize;
use std::process::Command;

use proptest::prelude::*;

use regpipe::core::{CompileOptions, SchedulerKind, Strategy};
use regpipe::exec::{json, run_batch, BatchRequest};
use regpipe::loops::{generate, suite, GenParams};
use regpipe::machine::MachineConfig;
use regpipe::sched::{mii, LoopAnalysis, SchedRequest, Scheduler};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated kernel, across the knob space and all paper
    /// machines, reaches a *verified* SMS schedule: `verify` re-checks
    /// every dependence edge (latency minus II·distance) and replays the
    /// modulo reservation table, so a pass is a proof of modulo-schedule
    /// validity at the achieved II.
    #[test]
    fn every_sms_schedule_is_a_valid_modulo_schedule(
        seed in any::<u64>(),
        min_ops in 2usize..8,
        extra in 0usize..18,
        density_pct in 0u32..=100,
    ) {
        let params = GenParams {
            min_ops,
            max_ops: min_ops + extra,
            recurrence_density: f64::from(density_pct) / 100.0,
            ..GenParams::default()
        };
        let loops = generate(seed, 4, &params).expect("valid params");
        for machine in MachineConfig::paper_configs() {
            for l in &loops {
                let s = SchedulerKind::Sms
                    .schedule(&l.ddg, &machine, &SchedRequest::default())
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", l.name, machine.name()));
                s.verify(&l.ddg, &machine)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}\n{s}", l.name, machine.name()));
                prop_assert!(s.ii() >= mii(&l.ddg, &machine));
                prop_assert_eq!(s.scheduler(), "sms");
            }
        }
    }

    /// The cached path is transparent for SMS: scheduling inside a
    /// prebuilt `LoopAnalysis` must give bit-identical schedules to the
    /// from-scratch path (the PR 4 equivalence contract, extended to the
    /// new scheduler).
    #[test]
    fn sms_cached_and_uncached_paths_agree(seed in any::<u64>()) {
        let loops = generate(seed, 3, &GenParams::default()).expect("valid params");
        for machine in MachineConfig::paper_configs() {
            for l in &loops {
                let direct = SchedulerKind::Sms
                    .schedule(&l.ddg, &machine, &SchedRequest::default())
                    .expect("schedulable");
                let ctx = LoopAnalysis::new(&l.ddg, &machine);
                let cached = SchedulerKind::Sms
                    .schedule_in(&ctx, &SchedRequest::default())
                    .expect("schedulable");
                prop_assert_eq!(&direct, &cached, "{} on {}", l.name, machine.name());
            }
        }
    }
}

/// In-process determinism: a `--scheduler sms` batch over the built-in
/// suite and a generated corpus renders byte-identically for any worker
/// count.
#[test]
fn sms_batch_reports_are_worker_count_independent() {
    let options = CompileOptions { scheduler: SchedulerKind::Sms, ..CompileOptions::default() };
    for loops in [suite(7, 24), generate(7, 24, &GenParams::default()).unwrap()] {
        let mut renderings = Vec::new();
        for jobs in [1usize, 4] {
            let req = BatchRequest {
                machine: MachineConfig::p2l4(),
                budgets: vec![64, 32],
                strategies: vec![Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi],
                options,
                jobs: NonZeroUsize::new(jobs).unwrap(),
            };
            renderings.push(run_batch(&loops, &req).to_json(false));
        }
        assert_eq!(renderings[0], renderings[1], "sms batch differs across job counts");
        let doc = json::parse(&renderings[0]).expect("report parses");
        assert_eq!(doc.get("scheduler"), Some(&json::Value::Str("sms".into())));
    }
}

/// End-to-end through the binary: `regpipe suite --scheduler sms` emits a
/// byte-identical `BENCH_suite.json` for `--jobs 1` and `--jobs 4` (the
/// ISSUE 5 acceptance shape; CI repeats it on a larger corpus).
#[test]
fn cli_sms_suite_is_byte_identical_across_job_counts() {
    let dir = std::env::temp_dir().join(format!("regpipe-sms-suite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut reports = Vec::new();
    for jobs in ["1", "4"] {
        let out_path = dir.join(format!("r{jobs}.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_regpipe"))
            .args([
                "suite",
                "--size",
                "12",
                "--seed",
                "7",
                "--scheduler",
                "sms",
                "--jobs",
                jobs,
            ])
            .arg("--out")
            .arg(&out_path)
            .output()
            .expect("spawn regpipe");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("scheduler sms"), "header names the scheduler:\n{stdout}");
        reports.push(std::fs::read_to_string(&out_path).expect("report emitted"));
    }
    assert_eq!(reports[0], reports[1], "--scheduler sms differs across --jobs");
    let doc = json::parse(&reports[0]).expect("report parses");
    assert_eq!(doc.get("scheduler"), Some(&json::Value::Str("sms".into())));
    let _ = std::fs::remove_dir_all(&dir);
}
