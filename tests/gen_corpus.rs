//! Property tests for the synthetic-kernel generator and the corpus
//! pipeline (ISSUE 3):
//!
//! * generator output for a fixed seed is **byte-stable** (down to the
//!   `.ddg` text rendering) and prefix-stable in the count;
//! * every generated kernel passes `regpipe_ddg` validation and
//!   schedules at some finite II on every paper machine;
//! * a corpus written to disk reloads identically and batch-compiles
//!   byte-identically for any worker count.

use std::num::NonZeroUsize;

use proptest::prelude::*;

use regpipe::core::{CompileOptions, Strategy};
use regpipe::ddg::textfmt;
use regpipe::exec::{run_batch, BatchRequest};
use regpipe::loops::{generate, load_corpus, write_corpus, GenParams, WeightDist};
use regpipe::machine::MachineConfig;
use regpipe::sched::{mii, SchedRequest, Scheduler, SchedulerKind};

/// Render a whole generated corpus as the bytes `regpipe gen` would write.
fn corpus_bytes(seed: u64, count: usize, params: &GenParams) -> Vec<String> {
    generate(seed, count, params)
        .expect("valid params")
        .iter()
        .map(|l| format!("# weight {}\n{}", l.weight, textfmt::format(&l.ddg)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte stability: any seed reproduces its corpus exactly, and a
    /// longer run extends a shorter one without rewriting it.
    #[test]
    fn generator_is_byte_stable_for_any_seed(seed in any::<u64>(), count in 1usize..12) {
        let params = GenParams::default();
        let first = corpus_bytes(seed, count, &params);
        let second = corpus_bytes(seed, count, &params);
        prop_assert_eq!(&first, &second, "seed {} not byte-stable", seed);
        let extended = corpus_bytes(seed, count + 5, &params);
        prop_assert_eq!(&extended[..count], &first[..], "seed {} not prefix-stable", seed);
    }

    /// Validity and schedulability: every kernel, across the knob space,
    /// validates and reaches a verified schedule at some finite II.
    #[test]
    fn every_generated_kernel_validates_and_schedules(
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
        prop_assert_eq!(loops.len(), 4);
        for machine in MachineConfig::paper_configs() {
            for l in &loops {
                l.ddg.validate().unwrap_or_else(|e| panic!("{}: {e}", l.name));
                let s = SchedulerKind::Hrms
                    .schedule(&l.ddg, &machine, &SchedRequest::default())
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", l.name, machine.name()));
                s.verify(&l.ddg, &machine)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", l.name, machine.name()));
                prop_assert!(s.ii() >= mii(&l.ddg, &machine));
                prop_assert!(l.weight >= 1);
            }
        }
    }
}

/// End-to-end determinism: gen → write → load → batch at several worker
/// counts produces one `BENCH_suite.json`.
#[test]
fn corpus_batch_reports_are_worker_count_independent() {
    let dir = std::env::temp_dir().join(format!("regpipe-gen-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let params =
        GenParams { weights: WeightDist::Uniform { lo: 50, hi: 500 }, ..GenParams::default() };
    let loops = generate(0xFEED, 16, &params).unwrap();
    write_corpus(&dir, &loops).unwrap();
    let corpus = load_corpus(&dir).unwrap();
    assert_eq!(corpus.loops.len(), 16);

    let mut renderings = Vec::new();
    for jobs in [1usize, 2, 5] {
        let req = BatchRequest {
            machine: MachineConfig::p2l6(),
            budgets: vec![48, 24],
            strategies: vec![Strategy::BestOfAll, Strategy::IncreaseIi],
            options: CompileOptions::default(),
            jobs: NonZeroUsize::new(jobs).unwrap(),
        };
        renderings.push(run_batch(&corpus.loops, &req).to_json(false));
    }
    assert_eq!(renderings[0], renderings[1], "jobs 1 vs 2 disagree");
    assert_eq!(renderings[0], renderings[2], "jobs 1 vs 5 disagree");
    let _ = std::fs::remove_dir_all(&dir);
}
