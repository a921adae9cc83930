//! Scenario runners and row types for every table / figure of the paper.
//!
//! Each `tableN_rows` function runs both sides of the paper's comparison (the
//! universal algorithm and the existential baseline, plus the lower-bound
//! witness where applicable) on every cell of a [`Grid`] and returns plain
//! serializable rows; the `reproduce` binary formats them.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use hybrid_core::apsp;
use hybrid_core::dissemination::{
    baseline_sqrt_k_dissemination, k_aggregation, k_dissemination, place_tokens,
};
use hybrid_core::klsp::{baseline_klsp, klsp, KlspScenario};
use hybrid_core::kssp::{baseline_chlp21_rounds, kssp, kssp_lower_bound_rounds, KsspVariant};
use hybrid_core::lower_bounds::{dissemination_lower_bound, shortest_paths_lower_bound};
use hybrid_core::nq::{families, NqOracle};
use hybrid_core::prob::{sample_distinct, sample_with_probability};
use hybrid_core::routing::{baseline_sqrt_k_routing, kl_routing, RoutingScenario};
use hybrid_core::rows::DistanceRows;
use hybrid_core::sssp::{baseline_sssp, sssp_approx, SsspBaseline};
use hybrid_graph::Graph;
use hybrid_sim::{HybridNetwork, ModelParams};

use crate::grid::{fan_out, GraphFamily, Grid};

/// Runs `pipeline` on a fresh `HYBRID` network over `graph`: its output, and
/// every round the network was charged.
fn on_fresh<T>(graph: &Arc<Graph>, pipeline: impl FnOnce(&mut HybridNetwork) -> T) -> (T, u64) {
    let mut net = HybridNetwork::hybrid(Arc::clone(graph));
    let out = pipeline(&mut net);
    (out, net.rounds())
}

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Graph family.
    pub family: &'static str,
    /// Number of nodes.
    pub n: usize,
    /// Workload (number of messages).
    pub k: u64,
    /// Measured `NQ_k`.
    pub nq: u64,
    /// `⌈√k⌉` for reference.
    pub sqrt_k: u64,
    /// Rounds of the universal `k`-dissemination (Theorem 1).
    pub dissemination_universal: u64,
    /// Rounds of the existential `Õ(√k)` baseline (`[AHK+20]`).
    pub dissemination_baseline: u64,
    /// Rounds of the universal `k`-aggregation (Theorem 2).
    pub aggregation_universal: u64,
    /// Rounds of the universal `(k, ℓ)`-routing (Theorem 3, case 1).
    pub routing_universal: u64,
    /// Rounds of the `(k, ℓ)`-routing baseline (`[KS20]`).
    pub routing_baseline: u64,
    /// The universal lower-bound witness (Theorem 4), in rounds.
    pub lower_bound: f64,
}

/// Table 1 — information dissemination, across cells and workloads.
///
/// Every cell is an independent experiment with its own graph, oracle and
/// per-`k` RNGs (`grid.seed ^ k`).
pub fn table1_rows(grid: &Grid, ks: &[u64]) -> Vec<Table1Row> {
    let seed = grid.seed;
    grid.run(|cell| {
        let family = cell.family;
        let mut rows = Vec::with_capacity(ks.len());
        let graph = Arc::new(family.build(cell.n_target, seed));
        let oracle = NqOracle::new(&graph);
        for &k in ks {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ k);
            let holders = sample_distinct(graph.n(), graph.n().min(k as usize).max(1), &mut rng);
            let tokens = place_tokens(&holders, k);

            let (_, dissemination_universal) =
                on_fresh(&graph, |net| k_dissemination(net, &oracle, &tokens));
            let (_, dissemination_baseline) = on_fresh(&graph, |net| {
                baseline_sqrt_k_dissemination(net, &oracle, &tokens)
            });

            // Aggregation with a small value vector per node (k functions is
            // too heavy for the sweep; use min(k, 16) which has the same
            // round shape because the cost is dominated by the clustering).
            let agg_k = (k as usize).min(16);
            let values: Vec<Vec<u64>> = (0..graph.n() as u64)
                .map(|v| (0..agg_k as u64).map(|i| v + i).collect())
                .collect();
            let (_, aggregation_universal) =
                on_fresh(&graph, |net| k_aggregation(net, &oracle, &values, u64::max));

            // Routing: k arbitrary sources, ℓ = NQ_k random targets.
            let sources = sample_distinct(graph.n(), (k as usize).min(graph.n()), &mut rng);
            let nq_k = oracle.nq(k).max(1);
            let mut targets = sample_with_probability(
                graph.n(),
                (nq_k as f64 / graph.n() as f64).min(1.0),
                &mut rng,
            );
            if targets.is_empty() {
                targets.push((graph.n() / 2) as u32);
            }
            let scenario = RoutingScenario::ArbitrarySourcesRandomTargets;
            let (_, routing_universal) = on_fresh(&graph, |net| {
                kl_routing(net, &oracle, &sources, &targets, scenario, &mut rng)
            });
            let (_, routing_baseline) = on_fresh(&graph, |net| {
                baseline_sqrt_k_routing(net, &oracle, &sources, &targets, &mut rng)
            });

            let params = ModelParams::hybrid(graph.n());
            let lb = dissemination_lower_bound(&oracle, &params, k, 0.99);

            rows.push(Table1Row {
                family: family.name(),
                n: graph.n(),
                k,
                nq: oracle.nq(k),
                sqrt_k: (k as f64).sqrt().ceil() as u64,
                dissemination_universal,
                dissemination_baseline,
                aggregation_universal,
                routing_universal,
                routing_baseline,
                lower_bound: lb.rounds,
            });
        }
        rows
    })
}

/// One row of the Table 2 reproduction (APSP).
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Graph family.
    pub family: &'static str,
    /// Number of nodes.
    pub n: usize,
    /// Measured `NQ_n`.
    pub nq_n: u64,
    /// `⌈√n⌉` for reference.
    pub sqrt_n: u64,
    /// Theorem 6 (unweighted, `1+ε`) rounds.
    pub unweighted_universal: u64,
    /// Measured stretch of the Theorem 6 labels.
    pub unweighted_stretch: f64,
    /// Structured `Õ(√n)` baseline (same pipeline, worst-case radius) rounds.
    pub unweighted_baseline: u64,
    /// Theorem 7 (weighted spanner, `O(log n/log log n)`) rounds.
    pub weighted_spanner_universal: u64,
    /// Measured stretch of the Theorem 7 labels.
    pub weighted_spanner_stretch: f64,
    /// Theorem 8 (weighted skeleton, `4α−1` with α=1) rounds.
    pub weighted_skeleton_universal: u64,
    /// Measured stretch of the Theorem 8 labels.
    pub weighted_skeleton_stretch: f64,
    /// Literature row: exact `Õ(√n)` APSP (`[KS20]`) rounds.
    pub literature_sqrt_n: u64,
    /// Universal lower bound (Theorems 11/12) in rounds.
    pub lower_bound: f64,
}

/// Table 2 — APSP across families.
///
/// Within a cell the exact distance tables (unweighted and weighted) are
/// computed **once** and shared by every stretch verification instead of
/// re-running `n` Dijkstras per output.
pub fn table2_rows(grid: &Grid) -> Vec<Table2Row> {
    let seed = grid.seed;
    grid.run(|&cell| {
        let (family, n) = (cell.family, cell.n_target);
        let graph = Arc::new(family.build(n, seed));
        let oracle = NqOracle::new(&graph);
        let weighted = Arc::new(family.build_weighted(n, seed));
        // `NQ_k` is defined over hop distances, and `build_weighted` only
        // re-weights the same topology — the weighted instance's oracle is
        // identical, so the ball-profile sweep is paid once per family.
        let weighted_oracle = &oracle;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let exact_unweighted = DistanceRows::all_pairs(&graph);
        let exact_weighted = DistanceRows::all_pairs(&weighted);

        let (uni, unweighted_universal) =
            on_fresh(&graph, |net| apsp::apsp_unweighted(net, &oracle, 0.5));
        let uni_stretch = uni
            .verify_stretch_against(&exact_unweighted)
            .expect("Theorem 6 stretch");

        let (_, unweighted_baseline) = on_fresh(&graph, |net| {
            apsp::baseline_unweighted_apsp_sqrt_n(net, &oracle, 0.5)
        });

        let (spanner, weighted_spanner_universal) = on_fresh(&weighted, |net| {
            apsp::apsp_weighted_log_over_loglog(net, weighted_oracle)
        });
        let spanner_stretch = spanner
            .verify_stretch_against(&exact_weighted)
            .expect("Theorem 7 stretch");

        let (skel, weighted_skeleton_universal) = on_fresh(&weighted, |net| {
            apsp::apsp_weighted_skeleton(net, weighted_oracle, 1, &mut rng)
        });
        let skel_stretch = skel
            .verify_stretch_against(&exact_weighted)
            .expect("Theorem 8 stretch");

        let (_, literature_sqrt_n) = on_fresh(&graph, |net| {
            apsp::baseline_sqrt_n_apsp_from_labels(net, exact_unweighted)
        });

        let params = ModelParams::hybrid(graph.n());
        let lb = shortest_paths_lower_bound(&oracle, &params, graph.n() as u64, 0.99);

        vec![Table2Row {
            family: family.name(),
            n: graph.n(),
            nq_n: oracle.nq(graph.n() as u64),
            sqrt_n: (graph.n() as f64).sqrt().ceil() as u64,
            unweighted_universal,
            unweighted_stretch: uni_stretch,
            unweighted_baseline,
            weighted_spanner_universal,
            weighted_spanner_stretch: spanner_stretch,
            weighted_skeleton_universal,
            weighted_skeleton_stretch: skel_stretch,
            literature_sqrt_n,
            lower_bound: lb.rounds,
        }]
    })
}

/// One row of the Table 3 reproduction (`(k, ℓ)`-SP).
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Graph family.
    pub family: &'static str,
    /// Number of nodes.
    pub n: usize,
    /// Number of sources `k`.
    pub k: u64,
    /// Number of targets `ℓ`.
    pub l: usize,
    /// Measured `NQ_k`.
    pub nq: u64,
    /// `⌈√k⌉` for reference.
    pub sqrt_k: u64,
    /// Theorem 5 rounds.
    pub universal: u64,
    /// Measured stretch of the Theorem 5 labels.
    pub stretch: f64,
    /// Literature baseline (`[CHLP21a]`/`[KS20]`) rounds.
    pub baseline: u64,
    /// Universal lower bound (Theorems 11/12) in rounds.
    pub lower_bound: f64,
}

/// Table 3 — `(k, ℓ)`-SP across families and source counts.
///
/// Per-`k` RNGs (`grid.seed ^ (k << 1)`) keep rows deterministic.
pub fn table3_rows(grid: &Grid, ks: &[u64]) -> Vec<Table3Row> {
    let seed = grid.seed;
    grid.run(|cell| {
        let family = cell.family;
        let mut rows = Vec::with_capacity(ks.len());
        let graph = Arc::new(family.build_weighted(cell.n_target, seed));
        let oracle = NqOracle::new(&graph);
        for &k in ks {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (k << 1));
            let k_usize = (k as usize).min(graph.n());
            let sources = sample_distinct(graph.n(), k_usize, &mut rng);
            let nq_k = oracle.nq(k).max(1);
            let mut targets = sample_with_probability(
                graph.n(),
                (nq_k as f64 / graph.n() as f64).min(1.0),
                &mut rng,
            );
            if targets.is_empty() {
                targets.push((graph.n() / 3) as u32);
            }

            let scenario = KlspScenario::ArbitrarySourcesRandomTargets;
            let (uni, universal) = on_fresh(&graph, |net| {
                klsp(net, &oracle, &sources, &targets, 0.25, scenario, &mut rng)
            });
            let stretch = uni.verify_stretch(&graph).expect("Theorem 5 stretch");

            let (_, baseline) = on_fresh(&graph, |net| baseline_klsp(net, &sources, &targets));

            let params = ModelParams::hybrid(graph.n());
            let lb = shortest_paths_lower_bound(&oracle, &params, k, 0.99);

            rows.push(Table3Row {
                family: family.name(),
                n: graph.n(),
                k,
                l: targets.len(),
                nq: nq_k,
                sqrt_k: (k as f64).sqrt().ceil() as u64,
                universal,
                stretch,
                baseline,
                lower_bound: lb.rounds,
            });
        }
        rows
    })
}

/// One row of the Table 4 reproduction (SSSP).
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    /// Graph family.
    pub family: &'static str,
    /// Number of nodes.
    pub n: usize,
    /// Theorem 13 (`1+ε`, `Õ(1)`) rounds.
    pub theorem13: u64,
    /// Measured stretch of the Theorem 13 labels.
    pub theorem13_stretch: f64,
    /// `[KS20]` `Õ(√n)` exact baseline rounds.
    pub ks20_sqrt_n: u64,
    /// `[CHLP21b]` `Õ(n^{5/17})` baseline rounds.
    pub chlp21: u64,
    /// `[AHK+20]` `Õ(n^ε)` baseline rounds (ε = 1/3).
    pub ahk20: u64,
    /// `[AG21a]` deterministic `Õ(√n)` baseline rounds.
    pub ag21: u64,
}

/// Table 4 — SSSP across families and sizes.
///
/// Every (family, size) cell is an independent experiment.
pub fn table4_rows(grid: &Grid) -> Vec<Table4Row> {
    grid.run(|cell| {
        let family = cell.family;
        let graph = Arc::new(family.build_weighted(cell.n_target, grid.seed));
        let exact = hybrid_graph::dijkstra::dijkstra(&graph, 0).dist;

        let (ours, _) = on_fresh(&graph, |net| sssp_approx(net, 0, 0.25));
        let measured_stretch = ours.verify_stretch(&exact).expect("Theorem 13 stretch");

        let baseline_rounds =
            |b: SsspBaseline| on_fresh(&graph, |net| baseline_sssp(net, 0, b)).0.rounds;
        vec![Table4Row {
            family: family.name(),
            n: graph.n(),
            theorem13: ours.rounds,
            theorem13_stretch: measured_stretch,
            ks20_sqrt_n: baseline_rounds(SsspBaseline::Ks20SqrtN),
            chlp21: baseline_rounds(SsspBaseline::Chlp21FiveSeventeenths),
            ahk20: baseline_rounds(SsspBaseline::Ahk20NEps {
                exponent: 1.0 / 3.0,
            }),
            ag21: baseline_rounds(SsspBaseline::Ag21DeterministicSqrtN),
        }]
    })
}

/// One row of the Figure 1 reproduction (k-SSP landscape).
#[derive(Debug, Clone, Serialize)]
pub struct Figure1Row {
    /// The exponent β with `k = n^β`.
    pub beta: f64,
    /// The number of sources `k`.
    pub k: usize,
    /// Rounds of the new `Õ(√(k/γ))` algorithm (Theorem 14).
    pub new_algorithm: u64,
    /// The implied exponent `δ = log_n(rounds)`.
    pub new_delta: f64,
    /// Rounds of the prior `Õ(n^{1/3} + √k)` algorithm (`[CHLP21a]`).
    pub prior_algorithm: u64,
    /// The implied exponent for the prior algorithm.
    pub prior_delta: f64,
    /// The `Ω̃(√(k/γ))` lower bound in rounds.
    pub lower_bound: u64,
}

/// Figure 1 — the k-SSP landscape on an Erdős–Rényi graph of `n` nodes.
/// The betas fan out over a shared graph.
pub fn figure1_rows(n: usize, betas: &[f64], seed: u64) -> Vec<Figure1Row> {
    let family = GraphFamily::ErdosRenyi;
    let graph = Arc::new(family.build(n, seed));
    fan_out(betas, |&beta| {
        let k = ((n as f64).powf(beta).round() as usize).clamp(1, graph.n());
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (k as u64));
        let sources = sample_distinct(graph.n(), k, &mut rng);
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let gamma = net.params().global_capacity_msgs;
        let out = kssp(
            &mut net,
            &sources,
            1.0,
            KsspVariant::RandomSources,
            &mut rng,
        );
        let n_f = graph.n() as f64;
        let prior = baseline_chlp21_rounds(graph.n(), k);
        vec![Figure1Row {
            beta,
            k,
            new_algorithm: out.rounds,
            new_delta: (out.rounds.max(1) as f64).ln() / n_f.ln(),
            prior_algorithm: prior,
            prior_delta: (prior.max(1) as f64).ln() / n_f.ln(),
            lower_bound: kssp_lower_bound_rounds(k, gamma),
        }]
    })
}

/// One row of the Appendix B reproduction (`NQ_k` on special families).
#[derive(Debug, Clone, Serialize)]
pub struct AppendixBRow {
    /// Graph family.
    pub family: &'static str,
    /// Number of nodes.
    pub n: usize,
    /// Diameter.
    pub diameter: u64,
    /// Workload `k`.
    pub k: u64,
    /// Measured `NQ_k`.
    pub measured: u64,
    /// The paper's Θ-prediction evaluated with constant 1.
    pub predicted: f64,
    /// The prediction formula.
    pub formula: &'static str,
}

/// Appendix B / Theorems 15–17: measured vs. predicted `NQ_k` on the four
/// families the theorems analyse.
pub fn appendix_b_rows(n: usize, ks: &[u64], seed: u64) -> Vec<AppendixBRow> {
    let cases = [
        (GraphFamily::Path, 1),
        (GraphFamily::Cycle, 1),
        (GraphFamily::Grid2D, 2),
        (GraphFamily::Grid3D, 3),
    ];
    fan_out(&cases, |&(family, dim)| {
        let graph = family.build(n, seed);
        let oracle = NqOracle::new(&graph);
        let d = oracle.diameter();
        ks.iter()
            .map(|&k| {
                let measured = oracle.nq(k);
                let prediction = if dim == 1 {
                    families::predict_path_like(k, d)
                } else {
                    families::predict_grid(k, dim, d)
                };
                AppendixBRow {
                    family: family.name(),
                    n: graph.n(),
                    diameter: d,
                    k,
                    measured,
                    predicted: prediction.theta_value,
                    formula: prediction.formula,
                }
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_build_connected_graphs_of_requested_size() {
        for family in GraphFamily::all() {
            let g = family.build(120, 3);
            assert!(g.n() >= 60, "{} too small: {}", family.name(), g.n());
            assert!(g.n() <= 300, "{} too large: {}", family.name(), g.n());
            let c = hybrid_graph::unionfind::UnionFind::of_graph(&g).count_sets();
            assert_eq!(c, 1, "{} not connected", family.name());
            let w = family.build_weighted(120, 3);
            assert_eq!(w.n(), g.n());
        }
    }

    #[test]
    fn table1_universal_never_slower_than_baseline() {
        let grid = Grid::new(&[GraphFamily::Grid2D, GraphFamily::Path], &[256], 7);
        let rows = table1_rows(&grid, &[64]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.dissemination_universal <= row.dissemination_baseline);
            assert!(row.nq <= row.sqrt_k);
            assert!((row.lower_bound) <= row.dissemination_universal as f64);
        }
    }

    #[test]
    fn table4_theorem13_flat_while_baselines_grow() {
        let rows = table4_rows(&Grid::new(&[GraphFamily::ErdosRenyi], &[128, 512], 5));
        assert_eq!(rows.len(), 2);
        assert!(rows[1].ks20_sqrt_n > rows[0].ks20_sqrt_n);
        assert!(rows[1].theorem13 <= rows[0].theorem13 * 2);
        for row in &rows {
            assert!(row.theorem13_stretch <= 1.25 + 1e-9);
        }
    }

    #[test]
    fn appendix_b_measured_within_constant_of_prediction() {
        let rows = appendix_b_rows(512, &[16, 64, 256], 1);
        for row in &rows {
            let ratio = row.measured as f64 / row.predicted.max(1.0);
            assert!(
                (0.2..=5.0).contains(&ratio),
                "{} k={} measured {} predicted {}",
                row.family,
                row.k,
                row.measured,
                row.predicted
            );
        }
    }

    #[test]
    fn figure1_rows_cover_betas() {
        let rows = figure1_rows(256, &[0.25, 0.75], 2);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].k < rows[1].k);
        assert!(rows[1].prior_algorithm >= rows[0].prior_algorithm);
    }
}
