//! # hybrid
//!
//! Facade crate for the reproduction of *"Universally Optimal Information
//! Dissemination and Shortest Paths in the HYBRID Distributed Model"*
//! (Chang, Hecht, Leitersdorf, Schneider — PODC 2024).
//!
//! It re-exports the three layers of the workspace:
//!
//! * [`graph`] ([`hybrid_graph`]) — the graph substrate: CSR graphs,
//!   generators for the paper's graph families, distance oracles and ball
//!   queries;
//! * [`sim`] ([`hybrid_sim`]) — the round-synchronous simulator of the
//!   `HYBRID(∞, γ)` model, local bandwidth unlimited (phase engine + per-node
//!   message-passing engine);
//! * [`core`] ([`hybrid_core`]) — the paper's algorithms: the neighborhood
//!   quality parameter `NQ_k`, universally optimal `k`-dissemination /
//!   `k`-aggregation / `(k, ℓ)`-routing, universally optimal shortest paths
//!   (APSP, `(k, ℓ)`-SP, cuts), existentially optimal SSSP / k-SSP, the
//!   existential baselines of prior work, and the universal lower-bound
//!   witnesses.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use hybrid::prelude::*;
//!
//! // A 16x16 grid: neighbourhoods grow quadratically, so NQ_k ≪ √k.
//! let graph = Arc::new(hybrid::graph::generators::grid(&[16, 16]).unwrap());
//! let oracle = NqOracle::new(&graph);
//!
//! // Broadcast k = 100 messages with the universal algorithm (Theorem 1) …
//! let tokens = hybrid::core::dissemination::place_tokens(&[0], 100);
//! let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
//! let universal = k_dissemination(&mut net, &oracle, &tokens);
//!
//! // … and with the existentially optimal Õ(√k) baseline of prior work.
//! let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
//! let baseline = baseline_sqrt_k_dissemination(&mut net, &oracle, &tokens);
//!
//! assert_eq!(universal.tokens, baseline.tokens);   // same result …
//! assert!(universal.rounds <= baseline.rounds);    // … fewer rounds.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hybrid_core as core;
pub use hybrid_graph as graph;
pub use hybrid_sim as sim;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use hybrid_core::apsp::{apsp_unweighted, apsp_weighted_spanner, ApspOutput};
    pub use hybrid_core::dissemination::{
        baseline_sqrt_k_dissemination, k_aggregation, k_dissemination, DisseminationOutput,
    };
    pub use hybrid_core::kssp::{kssp, KsspVariant};
    pub use hybrid_core::lower_bounds::dissemination_lower_bound;
    pub use hybrid_core::nq::NqOracle;
    pub use hybrid_core::routing::{kl_routing, RoutingScenario};
    pub use hybrid_core::sssp::{baseline_sssp, sssp_approx, SsspBaseline};
    pub use hybrid_graph::{generators, Graph, GraphBuilder};
    pub use hybrid_sim::{HybridNetwork, ModelParams};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn facade_reexports_work_together() {
        let graph = Arc::new(generators::cycle(32).unwrap());
        let oracle = NqOracle::new(&graph);
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let tokens = hybrid_core::dissemination::place_tokens(&[0, 5], 8);
        let out = k_dissemination(&mut net, &oracle, &tokens);
        assert_eq!(out.tokens.len(), 8);
    }
}
