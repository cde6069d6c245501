//! Determinism and correctness of the batch-execution engine: a parallel
//! batch must be byte-identical to a sequential one, and every cell must
//! match what a direct `compile` call produces.

use std::num::NonZeroUsize;

use regpipe::core::{compile, CompileOptions, Strategy};
use regpipe::exec::{json, run_batch, BatchRequest, CellStatus};
use regpipe::loops::suite;
use regpipe::machine::MachineConfig;

fn request(jobs: usize) -> BatchRequest {
    BatchRequest {
        machine: MachineConfig::p2l4(),
        budgets: vec![64, 32],
        strategies: vec![Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi],
        options: CompileOptions::default(),
        jobs: NonZeroUsize::new(jobs).unwrap(),
    }
}

/// The tentpole guarantee: `jobs = 1` and `jobs = 4` produce byte-identical
/// reports (timing excluded — it is the only non-deterministic field).
#[test]
fn batch_report_is_byte_identical_across_job_counts() {
    let loops = suite(5, 14);
    let sequential = run_batch(&loops, &request(1));
    let parallel = run_batch(&loops, &request(4));
    assert_eq!(sequential.to_json(false), parallel.to_json(false));
    // And across repeated parallel runs, for good measure.
    let again = run_batch(&loops, &request(4));
    assert_eq!(parallel.to_json(false), again.to_json(false));
}

/// Every batch cell must agree with a direct sequential `compile` call on
/// the same (loop, budget, strategy) — the engine adds distribution, not
/// behavior.
#[test]
fn batch_cells_match_direct_compile_calls() {
    let loops = suite(5, 10);
    let req = request(3);
    let report = run_batch(&loops, &req);
    assert_eq!(report.cells.len(), loops.len() * req.budgets.len() * req.strategies.len());
    for cell in &report.cells {
        let l = &loops[cell.loop_index];
        assert_eq!(cell.loop_name, l.name);
        let options = CompileOptions { strategy: cell.strategy, ..req.options };
        match (compile(&l.ddg, &req.machine, cell.budget, &options), &cell.status) {
            (Ok(direct), CellStatus::Fitted { ii, regs, spilled, reschedules, .. }) => {
                assert_eq!(direct.ii(), *ii, "{} II", l.name);
                assert_eq!(direct.registers_used(), *regs, "{} regs", l.name);
                assert_eq!(direct.spilled(), *spilled, "{} spills", l.name);
                assert_eq!(direct.reschedules(), *reschedules, "{} rounds", l.name);
                assert!(*regs <= cell.budget);
            }
            (Err(e), CellStatus::Failed { error }) => {
                assert_eq!(&e.to_string(), error, "{} error text", l.name);
            }
            (direct, status) => panic!(
                "{} budget {} strategy {:?}: direct {:?} vs batch {:?}",
                l.name,
                cell.budget,
                cell.strategy,
                direct.map(|c| c.ii()),
                status
            ),
        }
    }
}

/// The emitted JSON round-trips through the strict parser and carries the
/// schema marker plus one aggregate per (budget, strategy) pair.
#[test]
fn report_json_parses_and_has_the_advertised_shape() {
    let loops = suite(5, 6);
    let req = request(2);
    let report = run_batch(&loops, &req);
    let doc = json::parse(&report.to_json(false)).expect("report parses");
    assert_eq!(doc.get("schema"), Some(&json::Value::Str("regpipe-bench-suite/v3".into())));
    assert_eq!(doc.get("spill_policy"), Some(&json::Value::Str("paper".into())));
    assert_eq!(doc.get("scheduler"), Some(&json::Value::Str("hrms".into())));
    assert_eq!(doc.get("suite_size"), Some(&json::Value::Int(6)));
    let aggregates = doc.get("aggregates").unwrap().as_array().unwrap();
    assert_eq!(aggregates.len(), req.budgets.len() * req.strategies.len());
    let cells = doc.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), report.cells.len());
    for cell in cells {
        let status = cell.get("status").unwrap();
        assert!(
            *status == json::Value::Str("fitted".into())
                || *status == json::Value::Str("failed".into())
        );
    }
}

/// The committed `BENCH_suite.json` is what `regpipe suite --size 50
/// --seed 7` writes (P2L4, budgets 64 and 32, strategies best, spill and
/// increase-II, default options), byte for byte, so it cannot go stale
/// against the compiler.
#[test]
fn committed_suite_report_is_fresh() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_suite.json");
    let committed = std::fs::read_to_string(path).expect("committed BENCH_suite.json");
    let fresh = run_batch(&suite(7, 50), &request(2)).to_json(false);
    assert!(
        fresh == committed,
        "BENCH_suite.json is stale: regenerate it with `regpipe suite --size 50 --seed 7` \
         at the repo root"
    );
}
