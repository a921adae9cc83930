//! Universal lower bounds (Section 7) as computable witness values.
//!
//! All lower bounds reduce to the **node communication problem**
//! (Appendix C): a set `A` collectively knows the state of a random variable
//! `X` and a distant set `B` must learn it.  Lemma 7.1 bounds the rounds by
//! `min((p·H(X) − 1)/(N·γ), h/2 − 1)` where `h = hop(A, B)`, `N = |B_{h−1}(A)|`
//! and `γ` is the per-node global capacity in bits.
//!
//! * Lemma 7.2 / Theorem 4: `k`-dissemination, `k`-aggregation and
//!   `(k, ℓ)`-routing take `Ω̃(NQ_k)` rounds — [`dissemination_lower_bound`];
//! * Theorem 10: unweighted `k`-SSP in `Hybrid0` — the same witness, so
//!   [`dissemination_lower_bound`] too;
//! * Theorems 11/12: weighted `(k, ℓ)`-SP in `Hybrid` —
//!   [`shortest_paths_lower_bound`].
//!
//! The returned values are *round lower bounds for the concrete input graph*
//! (not asymptotic statements), so the benchmark harness can print
//! "measured rounds vs. lower-bound witness" columns for every scenario.

use hybrid_graph::NodeId;
use hybrid_sim::ModelParams;

use crate::nq::NqSource;

/// Lemma 7.1 — round lower bound for the node communication problem.
///
/// * `entropy_bits` — Shannon entropy `H(X)` of the information to transfer;
/// * `ball_size` — `N = |B_{h−1}(A)|`, the nodes that can help globally;
/// * `gamma_bits` — per-node global capacity in bits per round;
/// * `hop_distance` — `h = hop(A, B)`;
/// * `success_probability` — the success probability `p` of the algorithm.
pub fn node_communication_lower_bound(
    entropy_bits: f64,
    ball_size: u64,
    gamma_bits: u64,
    hop_distance: u64,
    success_probability: f64,
) -> f64 {
    assert!((0.0..=1.0).contains(&success_probability));
    let info_term = (success_probability * entropy_bits - 1.0)
        / ((ball_size.max(1) as f64) * (gamma_bits.max(1) as f64));
    let local_term = hop_distance as f64 / 2.0 - 1.0;
    info_term.min(local_term).max(0.0)
}

/// A concrete lower-bound witness on a given graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowerBoundWitness {
    /// The node `v` around which the information gap is constructed
    /// (the Lemma 3.8 witness maximizing `NQ_k(v)`).
    pub witness: NodeId,
    /// The hop distance `h` used in the reduction.
    pub hop_distance: u64,
    /// `N = |B_{h}(v)|` (the witness's helper ball).
    pub ball_size: u64,
    /// Entropy of the planted random variable, in bits.
    pub entropy_bits: f64,
    /// The resulting round lower bound.
    pub rounds: f64,
    /// The `NQ_k` value of the graph for the workload in question.
    pub nq: u64,
}

/// Lemma 7.2 / Theorem 4 — universal lower bound of `Ω̃(NQ_k)` rounds for
/// `k`-dissemination (and, by reduction, `k`-aggregation and
/// `(k, ℓ)`-routing with arbitrary targets), on the *given* graph, for
/// algorithms succeeding with probability `p`.
///
/// Generic over [`NqSource`]: the exact [`crate::nq::NqOracle`] yields the
/// exact witness; a [`crate::nq::SampledNqOracle`] yields a sound sampled
/// witness: its ball values are exact for the sampled node, which just may
/// not be the global maximizer, and its `NQ_k` is at most the node's exact
/// value (equal on a connected graph), so the bound never overshoots.
pub fn dissemination_lower_bound(
    oracle: &impl NqSource,
    params: &ModelParams,
    k: u64,
    success_probability: f64,
) -> LowerBoundWitness {
    let k = k.max(1);
    let nq = oracle.nq(k);
    let witness = oracle.witness(k);
    if nq < 6 {
        // The paper's reduction assumes NQ_k(v) >= 6; below that the bound is
        // the trivial one.
        return LowerBoundWitness {
            witness,
            hop_distance: 1,
            ball_size: oracle.ball_size(witness, 1) as u64,
            entropy_bits: k as f64 / 2.0,
            rounds: 0.0,
            nq,
        };
    }
    let r = nq - 1;
    let h = (r / 3).saturating_sub(1).max(1);
    let ball = oracle.ball_size(witness, h) as u64;
    let entropy = k as f64 / 2.0;
    let rounds =
        node_communication_lower_bound(entropy, ball, params.gamma_bits(), h, success_probability);
    LowerBoundWitness {
        witness,
        hop_distance: h,
        ball_size: ball,
        entropy_bits: entropy,
        rounds,
        nq,
    }
}

/// Theorems 11 / 12 — lower bound of `Ω̃(NQ_k)` rounds for weighted
/// `(k, ℓ)`-SP in `Hybrid` (even with known topology / known sources), for
/// any polynomial stretch.  The planted random variable has entropy `k` bits
/// (one bit per source: which of the two distant node sets hosts it).
pub fn shortest_paths_lower_bound(
    oracle: &impl NqSource,
    params: &ModelParams,
    k: u64,
    success_probability: f64,
) -> LowerBoundWitness {
    let k = k.max(1);
    let nq = oracle.nq(k);
    let witness = oracle.witness(k);
    if nq < 3 {
        return LowerBoundWitness {
            witness,
            hop_distance: 1,
            ball_size: oracle.ball_size(witness, 1) as u64,
            entropy_bits: k as f64,
            rounds: 0.0,
            nq,
        };
    }
    let h = nq - 1;
    let ball = oracle.ball_size(witness, h.saturating_sub(1).max(1)) as u64;
    let entropy = k as f64;
    let rounds =
        node_communication_lower_bound(entropy, ball, params.gamma_bits(), h, success_probability);
    LowerBoundWitness {
        witness,
        hop_distance: h,
        ball_size: ball,
        entropy_bits: entropy,
        rounds,
        nq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nq::NqOracle;
    use hybrid_graph::generators;

    #[test]
    fn node_communication_bound_behaves() {
        // More entropy -> larger bound (until the h/2 term caps it).
        let a = node_communication_lower_bound(1000.0, 10, 10, 1000, 1.0);
        let b = node_communication_lower_bound(100.0, 10, 10, 1000, 1.0);
        assert!(a > b);
        // The local term caps the bound.
        let capped = node_communication_lower_bound(1e12, 1, 1, 10, 1.0);
        assert_eq!(capped, 4.0);
        // Never negative.
        assert_eq!(node_communication_lower_bound(0.5, 10, 10, 1, 0.5), 0.0);
    }

    #[test]
    fn dissemination_bound_scales_with_nq_on_path() {
        let g = generators::path(900).unwrap();
        let oracle = NqOracle::new(&g);
        let params = ModelParams::hybrid(g.n());
        let small = dissemination_lower_bound(&oracle, &params, 64, 0.9);
        let large = dissemination_lower_bound(&oracle, &params, 1024, 0.9);
        assert!(large.nq > small.nq);
        assert!(large.rounds > small.rounds);
        // The bound is Ω̃(NQ_k): within a polylog factor below NQ_k.
        assert!(large.rounds <= large.nq as f64);
    }

    #[test]
    fn dissemination_bound_nontrivial_and_below_upper_bound_shape() {
        // A large workload makes NQ_k big enough that the Lemma 7.2 reduction
        // (which needs NQ_k(v) >= 6) produces a non-trivial bound.
        let g = generators::grid(&[20, 20]).unwrap();
        let oracle = NqOracle::new(&g);
        let params = ModelParams::hybrid(g.n());
        let w = dissemination_lower_bound(&oracle, &params, 4000, 0.99);
        assert!(w.rounds > 0.0);
        assert!(w.rounds <= w.nq as f64);
        assert!(w.ball_size > 0);
    }

    #[test]
    fn trivial_bound_for_small_nq() {
        let g = generators::complete(32).unwrap();
        let oracle = NqOracle::new(&g);
        let params = ModelParams::hybrid(g.n());
        let w = dissemination_lower_bound(&oracle, &params, 32, 0.9);
        assert_eq!(w.rounds, 0.0);
        assert_eq!(w.nq, 1);
    }

    #[test]
    fn shortest_paths_bound_on_path_is_near_nq() {
        let g = generators::path(800).unwrap();
        let oracle = NqOracle::new(&g);
        let params = ModelParams::hybrid(g.n());
        let k = 400u64;
        let w = shortest_paths_lower_bound(&oracle, &params, k, 1.0);
        assert!(w.rounds > 0.0);
        // The bound is Ω̃(NQ_k): the hidden factor is at most the 1/γ = 1/Õ(1)
        // of Lemma 7.1, so the witness value lies between NQ_k / γ_bits and
        // NQ_k itself.
        assert!(w.rounds >= w.nq as f64 / (2.0 * params.gamma_bits() as f64));
        assert!(w.rounds <= w.nq as f64);
    }

    #[test]
    fn sampled_oracle_yields_a_sound_witness() {
        use crate::nq::SampledNqOracle;
        let g = generators::path(600).unwrap();
        let params = ModelParams::hybrid(g.n());
        let k = 600u64;
        let exact = NqOracle::new(&g);
        let sampled = SampledNqOracle::new(&g, 32, k, 0.02, 5);
        let we = dissemination_lower_bound(&exact, &params, k, 0.9);
        let ws = dissemination_lower_bound(&sampled, &params, k, 0.9);
        // The sampled NQ estimate is a guaranteed lower bound on the exact
        // one, and the resulting witness keeps the Ω̃(NQ_k) shape.
        assert!(ws.nq <= we.nq);
        assert!(ws.rounds <= ws.nq as f64);
        assert!(ws.rounds > 0.0, "path NQ is large; sampling keeps it so");
    }
}
