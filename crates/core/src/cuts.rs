//! Cut approximation (Theorem 9): build a cut sparsifier, broadcast it with
//! Theorem 1, and let every node approximate all cut sizes locally.
//!
//! The paper uses the CONGEST spectral sparsifier of `[KX16]` (`Õ(n/ε²)` edges
//! in `Õ(1/ε²)` rounds).  This reproduction substitutes the classical uniform
//! sampling sparsifier of Karger: every edge is kept independently with
//! probability `p = min(1, c·ln n / (ε²·λ))`, where `λ` is a connectivity
//! estimate (the minimum weighted degree — equal to the minimum cut on the
//! benchmark families), and kept edges are re-weighted by `1/p`.  When `λ` is
//! small the sampler keeps everything and the "sparsifier" is exact, which is
//! also what the paper's machinery degrades to on sparse graphs.  The
//! approximation quality is checked empirically by a test, not by the
//! benchmark: `cut_approximation_pipeline_preserves_random_cuts` in
//! `tests/integration_shortest_paths.rs` runs [`approximate_all_cuts`] and
//! holds [`measured_cut_error`] on random cuts to at most 1.

use rand::Rng;

use hybrid_graph::cuts::{cut_weight_mask, min_singleton_cut, sample_random_cuts};
use hybrid_graph::{Graph, GraphBuilder, Weight};
use hybrid_sim::HybridNetwork;

use crate::dissemination::{disseminate_with_radius, RadiusPolicy, TokenPlacement};
use crate::nq::NqOracle;
use crate::prob::ln_n;

/// Sampling constant `c` of the sparsifier (Karger-style uniform sampling).
pub const SPARSIFIER_CONSTANT: f64 = 12.0;

/// A cut sparsifier together with its construction metadata.
#[derive(Debug, Clone)]
pub struct CutSparsifier {
    /// The sparsifier graph (same node set, re-weighted edges).
    pub graph: Graph,
    /// The sampling probability that was used.
    pub probability: f64,
    /// The accuracy parameter ε.
    pub epsilon: f64,
}

/// Output of the Theorem 9 pipeline.
#[derive(Debug, Clone)]
pub struct CutsOutput {
    /// The sparsifier every node ends up knowing.
    pub sparsifier: CutSparsifier,
    /// Total rounds consumed (`Õ(NQ_n/ε + 1/ε²)`).
    pub rounds: u64,
}

/// Builds the cut sparsifier, charging the `Õ(1/ε²)` construction rounds of
/// the distributed algorithm it substitutes.
pub fn cut_sparsifier(net: &mut HybridNetwork, epsilon: f64, rng: &mut impl Rng) -> CutSparsifier {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    let graph = net.graph_arc();
    let n = graph.n();
    let lambda = min_singleton_cut(&graph).max(1) as f64;
    let p = (SPARSIFIER_CONSTANT * ln_n(n) / (epsilon * epsilon * lambda)).min(1.0);
    let rounds = ((ln_n(n) / (epsilon * epsilon)).ceil() as u64).max(1);
    net.charge_rounds("cuts/sparsifier-construction", rounds);

    let mut builder = GraphBuilder::new(n);
    for &(u, v, w) in graph.edges() {
        if p >= 1.0 || rng.gen_bool(p) {
            let scaled = ((w as f64) / p).round().max(1.0) as Weight;
            builder.add_edge(u, v, scaled).expect("valid edge");
        }
    }
    CutSparsifier {
        graph: builder.build_unchecked_connectivity(),
        probability: p,
        epsilon,
    }
}

/// Theorem 9 — after `Õ(NQ_n/ε + 1/ε²)` rounds every node can locally compute
/// a `(1+ε)`-approximation of every cut size: build the sparsifier and
/// broadcast its edges with Theorem 1.
pub fn approximate_all_cuts(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    epsilon: f64,
    rng: &mut impl Rng,
) -> CutsOutput {
    let before = net.rounds();
    let sparsifier = cut_sparsifier(net, epsilon, rng);
    // Broadcast the sparsifier's edges (k = |Ê| tokens) with Theorem 1.
    let m = sparsifier.graph.m();
    if m > 0 {
        let tokens: Vec<TokenPlacement> = (0..m as u64).map(|i| (0, i)).collect();
        let _ = disseminate_with_radius(net, oracle, &tokens, RadiusPolicy::NeighborhoodQuality);
    }
    CutsOutput {
        sparsifier,
        rounds: net.rounds() - before,
    }
}

/// Measures the worst multiplicative error of the sparsifier over `samples`
/// random cuts plus all singleton cuts.  Returns `max(ratio, 1/ratio) - 1`
/// (so `0.0` means exact).
pub fn measured_cut_error(
    graph: &Graph,
    sparsifier: &Graph,
    samples: usize,
    rng: &mut impl Rng,
) -> f64 {
    let mut worst: f64 = 0.0;
    let mut check = |mask: &[bool]| {
        let original = cut_weight_mask(graph, mask) as f64;
        let approx = cut_weight_mask(sparsifier, mask) as f64;
        if original == 0.0 {
            return;
        }
        let ratio = if approx >= original {
            approx / original
        } else {
            original / approx.max(1.0)
        };
        worst = worst.max(ratio - 1.0);
    };
    for mask in sample_random_cuts(graph, samples, rng) {
        check(&mask);
    }
    for v in graph.nodes() {
        let mut mask = vec![false; graph.n()];
        mask[v as usize] = true;
        check(&mask);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    #[test]
    fn sparse_graph_sparsifier_is_exact() {
        // Grid: minimum cut 2 → sampling probability saturates at 1, the
        // sparsifier is the graph itself and every cut is preserved exactly.
        let g = Arc::new(generators::grid(&[6, 6]).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sp = cut_sparsifier(&mut net, 0.3, &mut rng);
        assert_eq!(sp.probability, 1.0);
        assert_eq!(sp.graph.m(), g.m());
        let err = measured_cut_error(&g, &sp.graph, 10, &mut rng);
        assert_eq!(err, 0.0);
    }

    #[test]
    fn dense_graph_sparsifier_shrinks_and_approximates() {
        let g = Arc::new(generators::complete(150).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let eps = 0.8;
        let sp = cut_sparsifier(&mut net, eps, &mut rng);
        assert!(sp.probability < 1.0);
        assert!(sp.graph.m() < g.m());
        let err = measured_cut_error(&g, &sp.graph, 30, &mut rng);
        assert!(err <= 2.0 * eps, "cut error {err} too large for eps {eps}");
    }

    #[test]
    fn theorem9_pipeline_charges_broadcast_and_construction() {
        let g = Arc::new(generators::grid(&[8, 8]).unwrap());
        let oracle = NqOracle::new(&g);
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = approximate_all_cuts(&mut net, &oracle, 0.5, &mut rng);
        assert!(out.rounds > 0);
        assert!(net.meter().rounds_for("sparsifier-construction") > 0);
        assert!(net.meter().rounds_for("dissemination") > 0);
    }

    #[test]
    #[should_panic(expected = "in (0,1)")]
    fn invalid_epsilon_panics() {
        let g = Arc::new(generators::path(8).unwrap());
        let mut net = HybridNetwork::hybrid(g);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        cut_sparsifier(&mut net, 1.5, &mut rng);
    }
}
