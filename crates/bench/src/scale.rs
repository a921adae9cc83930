//! Million-node scale tier: the sweep pipeline with the `Θ(n²)` memory wall
//! refactored out.
//!
//! The regular sweep ([`crate::sweep`]) runs the *full* algorithm pipelines —
//! exact `NQ` oracle (`Θ(n·D)` profile), full dissemination simulation, full
//! label matrices — which caps it around `n ≈ 10³`.  This module keeps the
//! same universal-optimality question ("measured rounds vs. the instance's
//! own lower-bound witness, per family") but swaps every quadratic
//! ingredient for its row-streamed / sampled counterpart:
//!
//! * **graphs** come from [`GraphFamily::build`], the same instances the
//!   small-`n` sweep runs on — [`hybrid_graph::generators`] emits every
//!   family in expected `O(n + m)` time and memory into pre-sized CSR
//!   assembly, bit-identical across pool widths;
//! * **`NQ_k` witnesses** come from a [`SampledNqOracle`]: the exact oracle's
//!   ball-profile store and Definition 3.1 walk over a seeded node sample,
//!   with the recorded `(estimate, sample size, confidence)` semantics, and an exact cross-check column where `n`
//!   is small enough to afford the full oracle;
//! * **distances** are [`DistanceRows`] over `|S|` sampled sources — the
//!   genuine Theorem 14 `k ≤ γ` fast path (per-source Dijkstra + `(1+ε)`
//!   quantization, charged at the Theorem 13 model cost) on `O(|S|·n)`
//!   memory, with the stretch *verified* row by row against the exact rows;
//! * **dissemination** is *modeled* at its Theorem 1 bound `Õ(NQ_k)`
//!   (one `⌈log₂ n⌉` factor standing in for the `Õ(·)`, the same convention
//!   the baseline rows use) on the sampled estimate — simulating `n` tokens
//!   through the scheduler is itself super-linear and stays in the small-`n`
//!   sweep.
//!
//! Every row records the exact allocation arithmetic of its cell
//! (graph + rows + profiles, in bytes), which is how the "peak graph +
//! distance memory is `O(|S|·n)`, not `O(n²)`" claim is tested and gated.
//!
//! ## Determinism
//!
//! Cells derive their streams from [`Grid::seed`] exactly like the regular
//! sweep (salt 0 = graph, 2 = sources, 3 = `NQ` sample), and every
//! generator emits over fixed, worker-independent chunks, so
//! `results/sweep_scale.json` is bit-identical across `RAYON_NUM_THREADS` —
//! pinned by `crates/bench/tests/determinism.rs` and the CI cross-thread
//! artifact diff.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use hybrid_core::kssp::kssp_lower_bound_rounds;
use hybrid_core::lower_bounds::dissemination_lower_bound;
use hybrid_core::nq::{NqOracle, SampledNqOracle};
use hybrid_core::prob::sample_distinct;
use hybrid_core::rows::DistanceRows;
use hybrid_core::sssp::SsspCostModel;
use hybrid_sim::ModelParams;

use crate::grid::{GraphFamily, Grid};
use crate::sweep::SweepPoint;

/// Configuration of a scale sweep: the grid and the sampling widths.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// The cells (target node counts on a geometric ladder up to `10⁶`).
    pub grid: Grid,
    /// `|S|`: sampled Dijkstra sources per cell (the k-SSP fast-path
    /// workload; memory scales as `O(|S|·n)`).
    pub sources: usize,
    /// Sampled `NQ` witnesses per cell.
    pub nq_samples: usize,
    /// Cells with `n` at most this also compute the exact `NQ` oracle as a
    /// cross-check column (`Θ(n·D)` — affordable only at the ladder's foot).
    pub exact_crosscheck_max: usize,
}

impl ScaleConfig {
    /// The CI smoke configuration: one small cross-checked size plus one
    /// `10⁵` cell for a handful of families (`reproduce scale --quick`).
    pub fn quick() -> Self {
        ScaleConfig {
            grid: Grid::new(GraphFamily::core_families(), &[1024, 100_000], 0x5CA1E),
            sources: 16,
            nq_samples: 64,
            exact_crosscheck_max: 2048,
        }
    }

    /// The full grid (nightly): every family at `n` up to `10⁶`.
    pub fn full() -> Self {
        ScaleConfig {
            grid: Grid::new(GraphFamily::all(), &[1024, 100_000, 1_000_000], 0x5CA1E),
            sources: 16,
            nq_samples: 64,
            exact_crosscheck_max: 2048,
        }
    }
}

/// One cell of the scale sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleRow {
    /// Graph family.
    pub family: &'static str,
    /// Actual number of nodes of the built instance.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// `γ` in messages per node per round (the standard `HYBRID` point).
    pub gamma_msgs: usize,
    /// Dissemination workload (`k = n` tokens).
    pub k: u64,
    /// Sampled `NQ_k` estimate (sample maximum of exact per-node values —
    /// a guaranteed lower bound on the population maximum).
    pub nq_estimate: u64,
    /// Number of sampled `NQ` witnesses.
    pub nq_sample_size: usize,
    /// Top-quantile fraction the confidence statement refers to.
    pub nq_quantile: f64,
    /// `P[estimate ≥ (1−q)-quantile]` for the recorded sample size.
    pub nq_confidence: f64,
    /// Exact `NQ_k` cross-check (only where `n ≤ exact_crosscheck_max`).
    pub nq_exact: Option<u64>,
    /// Theorem 1 dissemination modeled at `NQ̂_k · ⌈log₂ n⌉` rounds.
    pub dissemination_modeled_rounds: u64,
    /// Theorem 4 lower-bound witness on the *sampled* oracle, in rounds.
    pub dissemination_lower_bound: f64,
    /// `dissemination_modeled_rounds / max(1, lower bound)`: a modeled round
    /// count over a sampled witness, not a measured competitive ratio.
    pub dissemination_modeled_ratio: f64,
    /// `|S|`: number of sampled k-SSP sources.
    pub kssp_sources: usize,
    /// Rounds of the Theorem 14 `k ≤ γ` fast path (Theorem 13 model cost).
    pub kssp_rounds: u64,
    /// The `Ω̃(√(k/γ))` k-SSP lower bound, in rounds.
    pub kssp_lower_bound: u64,
    /// `kssp_rounds / max(1, lower bound)`.
    pub kssp_ratio: f64,
    /// Worst verified stretch of the quantized rows against the exact rows
    /// (must stay within `1 + ε`).
    pub kssp_stretch_worst: f64,
    /// Bytes of the CSR graphs (unweighted + reweighted instance).
    pub graph_mem_bytes: u64,
    /// Bytes of the distance rows (exact + quantized, `O(|S|·n)`).
    pub distance_rows_mem_bytes: u64,
    /// Bytes of the sampled `NQ` ball profiles.
    pub nq_profile_mem_bytes: u64,
    /// Total of the three memory columns — the cell's dominant allocations.
    pub peak_mem_bytes: u64,
}

/// Runs the scale grid, one row per cell (single `γ` point — the
/// standard `HYBRID`), in family-major row order.
pub fn scale_rows(config: &ScaleConfig) -> Vec<ScaleRow> {
    let epsilon = 0.25;
    let grid = &config.grid;
    grid.run(|cell| {
        let family = cell.family;
        let graph_seed = grid.seed(cell, 0);
        let graph = family.build(cell.n_target, graph_seed);
        let weighted = family.reweight(&graph, graph_seed);
        let n = graph.n();
        let params = SweepPoint::HYBRID.params(n);
        let k = n as u64;

        // Sampled NQ witness (exact per-node, sampled maximization).
        let sampled = SampledNqOracle::new(&graph, config.nq_samples, k, 0.02, grid.seed(cell, 3));
        let est = sampled.nq_estimate(k);
        let nq_exact = (n <= config.exact_crosscheck_max).then(|| NqOracle::new(&graph).nq(k));
        let diss_lb = dissemination_lower_bound(&sampled, &params, k, 0.99);
        let log_n = ModelParams::log_n(n) as u64;
        let diss_rounds = est.estimate.saturating_mul(log_n).max(1);

        // Theorem 14 fast path on |S| ≤ γ sampled sources: real
        // per-source Dijkstra rows, (1+ε)-quantized, verified, charged at
        // the Theorem 13 model cost (exactly what `kssp` does for k ≤ γ).
        let mut rng = ChaCha8Rng::seed_from_u64(grid.seed(cell, 2));
        let sources = sample_distinct(n, config.sources.clamp(1, n), &mut rng);
        let rows_exact = DistanceRows::compute(&weighted, &sources);
        let rows_quantized = rows_exact.quantized(epsilon);
        let worst = rows_quantized
            .verify_stretch_against(&rows_exact, 1.0 + epsilon)
            .expect("quantized rows verify");
        let kssp_rounds = SsspCostModel.rounds(n, epsilon);
        let kssp_lb = kssp_lower_bound_rounds(sources.len(), params.global_capacity_msgs);

        let graph_mem = graph.memory_bytes() + weighted.memory_bytes();
        let rows_mem = rows_exact.memory_bytes() + rows_quantized.memory_bytes();
        let nq_mem = sampled.memory_bytes();

        vec![ScaleRow {
            family: family.name(),
            n,
            m: graph.m(),
            gamma_msgs: params.global_capacity_msgs,
            k,
            nq_estimate: est.estimate,
            nq_sample_size: est.sample_size,
            nq_quantile: est.quantile,
            nq_confidence: est.confidence,
            nq_exact,
            dissemination_modeled_rounds: diss_rounds,
            dissemination_lower_bound: diss_lb.rounds,
            dissemination_modeled_ratio: diss_rounds as f64 / diss_lb.rounds.max(1.0),
            kssp_sources: sources.len(),
            kssp_rounds,
            kssp_lower_bound: kssp_lb,
            kssp_ratio: kssp_rounds as f64 / (kssp_lb.max(1) as f64),
            kssp_stretch_worst: worst,
            graph_mem_bytes: graph_mem,
            distance_rows_mem_bytes: rows_mem,
            nq_profile_mem_bytes: nq_mem,
            peak_mem_bytes: graph_mem + rows_mem + nq_mem,
        }]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ScaleConfig {
        ScaleConfig {
            grid: Grid::new(
                &[GraphFamily::Path, GraphFamily::ErdosRenyi],
                &[256, 1024],
                0x5CA1E,
            ),
            sources: 8,
            nq_samples: 24,
            exact_crosscheck_max: 2048,
        }
    }

    #[test]
    fn rows_cover_the_grid_and_verify_their_stretch() {
        let config = tiny_config();
        let rows = scale_rows(&config);
        assert_eq!(rows.len(), config.grid.cells().len());
        for r in &rows {
            assert!(r.kssp_stretch_worst >= 1.0 && r.kssp_stretch_worst <= 1.25 + 1e-9);
            assert_eq!(r.kssp_sources, 8);
            assert!(r.kssp_rounds >= r.kssp_lower_bound);
            assert!(r.nq_confidence > 0.3 && r.nq_confidence < 1.0);
            assert!(r.dissemination_modeled_rounds >= 1);
        }
    }

    #[test]
    fn sampled_estimate_cross_checks_against_the_exact_oracle() {
        let rows = scale_rows(&tiny_config());
        for r in &rows {
            let exact = r.nq_exact.expect("all tiny sizes are cross-checked");
            assert!(
                r.nq_estimate <= exact,
                "{} n={}: sampled {} above exact {}",
                r.family,
                r.n,
                r.nq_estimate,
                exact
            );
            // 24 samples on ≤ 1024 nodes land close on these families; the
            // pinned bound is the guaranteed direction plus non-triviality.
            assert!(r.nq_estimate >= 1);
        }
    }

    #[test]
    fn memory_is_rows_times_n_not_n_squared() {
        let config = tiny_config();
        let rows = scale_rows(&config);
        for r in &rows {
            let expected_rows = 2 * (r.kssp_sources * r.n * 8 + r.kssp_sources * 4) as u64;
            assert_eq!(r.distance_rows_mem_bytes, expected_rows);
            let full_matrix = (r.n as u64) * (r.n as u64) * 8;
            assert!(
                r.peak_mem_bytes < full_matrix,
                "{} n={}: peak {} not below the n² matrix {}",
                r.family,
                r.n,
                r.peak_mem_bytes,
                full_matrix
            );
        }
    }

    #[test]
    fn scale_rows_are_seed_deterministic() {
        let config = ScaleConfig {
            grid: Grid::new(
                &[GraphFamily::RandomGeometric, GraphFamily::ChungLu],
                &[512],
                42,
            ),
            sources: 4,
            nq_samples: 8,
            exact_crosscheck_max: 0,
        };
        let a = serde_json::to_string(&scale_rows(&config)).unwrap();
        let b = serde_json::to_string(&scale_rows(&config)).unwrap();
        assert_eq!(a, b);
        assert!(
            a.contains("null"),
            "uncross-checked cells serialize nq_exact as null"
        );
    }
}
