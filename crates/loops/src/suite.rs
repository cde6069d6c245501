//! Suite composition and execution weights.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regpipe_ddg::Ddg;

use crate::archetypes;

/// One benchmark loop: a dependence graph plus its dynamic execution weight
/// (total iterations executed across the program run).
///
/// Weights convert per-loop IIs into program cycles: executing the loop
/// costs `≈ II · weight` cycles, which is how the aggregate numbers of the
/// paper's Table 1 and Figures 8–9 are computed.
#[derive(Clone, Debug)]
pub struct BenchLoop {
    /// Unique name (`archetype_index`).
    pub name: String,
    /// The loop body.
    pub ddg: Ddg,
    /// Dynamic iteration count (heavy-tailed, pressure-correlated).
    pub weight: u64,
}

impl BenchLoop {
    /// Cycles this loop contributes when scheduled at `ii`.
    pub fn cycles(&self, ii: u32) -> u64 {
        u64::from(ii) * self.weight
    }
}

/// Generates a deterministic synthetic suite of `n` loops from `seed`.
///
/// The archetype mix approximates an innermost-loop population from
/// scientific Fortran (cf. the Perfect Club): mostly streaming and
/// wide-ILP bodies, a fifth stencils, some reductions and carried
/// recurrences, a few long-latency kernels, and a ~5% heavy tail of
/// many-tap stencil "monsters" whose register floors exceed small register
/// files at any II.
pub fn suite(seed: u64, n: usize) -> Vec<BenchLoop> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let roll = rng.random_range(0..100u32);
            let (ddg, heavy) = match roll {
                0..=27 => (archetypes::stream(&mut rng, format!("stream_{i:04}")), false),
                28..=45 => (archetypes::stencil(&mut rng, format!("stencil_{i:04}")), false),
                46..=59 => (archetypes::reduction(&mut rng, format!("reduce_{i:04}")), false),
                60..=77 => (archetypes::wide_ilp(&mut rng, format!("wide_{i:04}")), false),
                78..=83 => (archetypes::divsqrt(&mut rng, format!("divsqrt_{i:04}")), false),
                84..=97 => {
                    (archetypes::carried_chain(&mut rng, format!("chain_{i:04}")), false)
                }
                _ => (archetypes::monster(&mut rng, format!("monster_{i:04}")), true),
            };
            // Heavy-tailed base weight: 10^U(2, 4.2) iterations. Big,
            // high-pressure bodies run disproportionately longer (the
            // correlation the paper reports from [21]); monsters get a
            // further fractional decade. Calibrated so the non-convergent
            // loops carry ≈30% of the cycles at 32 registers (Table 1).
            let exponent = rng.random_range(2.0..4.2f64)
                + (ddg.num_ops() as f64 / 60.0).min(0.6)
                + if heavy { rng.random_range(0.15..0.5f64) } else { 0.0 };
            let weight = 10f64.powf(exponent).round() as u64;
            BenchLoop { name: ddg.name().to_string(), ddg, weight: weight.max(1) }
        })
        .collect()
}

/// The paper's loop count: the default size of the evaluation suite
/// (`regpipe suite`, `regpipe paper`).
pub const DEFAULT_SUITE_SIZE: usize = 1258;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = suite(1, 50);
        let b = suite(1, 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.weight, y.weight);
            assert_eq!(x.ddg.num_ops(), y.ddg.num_ops());
        }
        let c = suite(2, 50);
        assert!(a.iter().zip(&c).any(|(x, y)| x.weight != y.weight));
    }

    #[test]
    fn archetype_mix_is_represented() {
        let loops = suite(3, 300);
        for prefix in ["stream", "stencil", "reduce", "wide", "divsqrt", "chain", "monster"] {
            assert!(
                loops.iter().any(|l| l.name.starts_with(prefix)),
                "missing archetype {prefix}"
            );
        }
    }

    #[test]
    fn cycles_scale_with_ii() {
        let l = &suite(4, 1)[0];
        assert_eq!(l.cycles(3), 3 * l.weight);
    }
}
