//! Benchmark loops for register-constrained software pipelining.
//!
//! The paper evaluates on 1258 innermost DO-loops from the Perfect Club,
//! extracted with the ICTINEO compiler — neither of which is available.
//! This crate substitutes a **seeded synthetic suite** with the same
//! observable properties the algorithms care about:
//!
//! * realistic operation mixes (loads/stores dominate, adds and multiplies
//!   in rough balance, a sprinkle of divides and square roots);
//! * a minority of loops carrying recurrences (reductions and carried
//!   chains) that bound `RecMII`;
//! * a pressure spectrum from trivial streaming kernels to wide unrolled
//!   bodies and many-tap stencils whose *distance components* put a hard
//!   floor under the register requirement — the loops for which increasing
//!   the II never converges (paper Table 1);
//! * heavy-tailed execution weights, correlated with register pressure, so
//!   the few non-convergent loops account for a disproportionate share of
//!   execution time (the paper reports ≈20–30%).
//!
//! [`paper`] additionally provides faithful reconstructions of the loops
//! the paper discusses by name: the running example of Figure 2 and
//! APSI-47/APSI-50 stand-ins with the Figure 4 convergence behaviours.
//!
//! Beyond the fixed suite, the crate opens the workload funnel to
//! arbitrary corpora:
//!
//! * [`gen`] — a seeded synthetic-kernel generator ([`generate`]) with
//!   explicit knobs ([`GenParams`]: op count, recurrence density,
//!   invariant count, weight distribution) whose output replays
//!   byte-identically per seed;
//! * [`corpus`] — on-disk corpus I/O ([`load_corpus`] / [`write_corpus`]):
//!   a directory of `.ddg` files plus an optional `.mach` machine
//!   description, with per-file error reporting.
//!
//! Every workload source yields plain `Vec<BenchLoop>`, so each suite or
//! corpus doubles as a *scheduler comparison scenario*: the batch engine
//! compiles the same loops under any scheduler from the `regpipe_sched`
//! registry (`regpipe suite --scheduler hrms|sms|asap`).
//!
//! ```
//! use regpipe_loops::suite;
//!
//! let loops = suite(49626, 100);
//! assert_eq!(loops.len(), 100);
//! // Deterministic: same seed, same suite.
//! assert_eq!(suite(49626, 100)[42].name, loops[42].name);
//! ```

// Every public item of this crate is documented; CI turns gaps into errors.
#![warn(missing_docs)]

mod archetypes;
pub mod corpus;
pub mod gen;
pub mod kernels;
pub mod paper;
mod suite;

pub use corpus::{load_corpus, write_corpus, Corpus, CorpusError, CorpusFileError};
pub use gen::{generate, GenParams, WeightDist};
pub use suite::{suite, BenchLoop, DEFAULT_SUITE_SIZE};

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_machine::MachineConfig;
    use regpipe_sched::{mii, SchedRequest, Scheduler, SchedulerKind};

    #[test]
    fn every_suite_loop_is_valid_and_schedulable() {
        let loops = suite(7, 150);
        let m = MachineConfig::p2l4();
        for l in &loops {
            l.ddg.validate().unwrap_or_else(|e| panic!("{}: {e}", l.name));
            let s = SchedulerKind::Hrms
                .schedule(&l.ddg, &m, &SchedRequest::default())
                .unwrap_or_else(|e| panic!("{}: {e}", l.name));
            s.verify(&l.ddg, &m).unwrap_or_else(|e| panic!("{}: {e}", l.name));
            assert!(s.ii() >= mii(&l.ddg, &m));
            assert!(l.weight > 0);
        }
    }

    #[test]
    fn suite_has_pressure_diversity() {
        use regpipe_regalloc::allocate;
        let loops = suite(7, 200);
        let m = MachineConfig::p2l4();
        let mut low = 0usize;
        let mut high = 0usize;
        for l in &loops {
            let s = SchedulerKind::Hrms.schedule(&l.ddg, &m, &SchedRequest::default()).unwrap();
            let regs = allocate(&l.ddg, &s).total();
            if regs <= 16 {
                low += 1;
            }
            if regs > 32 {
                high += 1;
            }
        }
        assert!(low > 50, "plenty of easy loops ({low})");
        assert!(high > 10, "some high-pressure loops ({high})");
    }

    #[test]
    fn suite_contains_recurrences_and_invariants() {
        let loops = suite(7, 200);
        let with_rec =
            loops.iter().filter(|l| !regpipe_ddg::algo::recurrences(&l.ddg).is_empty()).count();
        let with_inv = loops.iter().filter(|l| l.ddg.num_invariants() > 0).count();
        assert!(with_rec > 20, "recurrences present ({with_rec})");
        assert!(with_inv > 60, "invariants present ({with_inv})");
    }

    #[test]
    fn weights_are_heavy_tailed() {
        let loops = suite(7, 400);
        let mut weights: Vec<u64> = loops.iter().map(|l| l.weight).collect();
        weights.sort_unstable();
        let total: u64 = weights.iter().sum();
        let top_decile: u64 = weights[weights.len() * 9 / 10..].iter().sum();
        assert!(
            top_decile * 5 > total * 2,
            "top 10% of loops should carry >40% of the weight ({top_decile}/{total})"
        );
    }
}
