//! # hybrid-core
//!
//! Reproduction of the algorithmic contributions of *"Universally Optimal
//! Information Dissemination and Shortest Paths in the HYBRID Distributed
//! Model"* (Chang, Hecht, Leitersdorf, Schneider — PODC 2024).
//!
//! The crate implements, on top of the [`hybrid_sim`] simulator:
//!
//! * the **neighborhood quality** parameter `NQ_k` and its clustering
//!   (Section 3) — [`nq`], [`cluster`];
//! * **universally optimal information dissemination**: `k`-dissemination,
//!   `k`-aggregation (Theorems 1–2) and `(k, ℓ)`-routing (Theorem 3), plus
//!   the existentially optimal `Õ(√k)` baselines — [`dissemination`],
//!   [`routing`], [`helpers`], [`overlay`], [`hashing`];
//! * **universally optimal shortest paths**: `(k, ℓ)`-SP (Theorem 5),
//!   unweighted `(1+ε)`-APSP (Theorem 6), weighted `O(log n / log log n)`-
//!   and `(4α−1)`-approximate APSP (Theorems 7–8), sparse-graph APSP
//!   (Corollary 2.2) and cut approximation (Theorem 9) — [`apsp`], [`klsp`],
//!   [`cuts`], [`spanner`], [`skeleton`];
//! * **existentially optimal shortest paths**: `(1+ε)`-SSSP in `Õ(1)` rounds
//!   (Theorem 13, Section 8) and `k`-SSP via skeleton scheduling
//!   (Theorem 14, Section 9) — [`sssp`], [`kssp`];
//! * the **universal lower bounds** (Theorems 4, 10, 11, 12; Lemmas 7.1–7.2)
//!   as computable witness values — [`lower_bounds`];
//! * the **Broadcast Congested Clique simulation** of Corollary 2.1 —
//!   [`bcc`];
//! * supporting machinery: probabilistic tools (Appendix A), κ-wise
//!   independent hashing, and the `(min, +)` element-wise fold the Theorem 8
//!   and Theorem 14 data levels end with (beside the plain `compose` loop
//!   their tests hold them to) — [`prob`], [`hashing`], [`minplus`].
//!
//! Every algorithm returns both its *solution* (verified by the test suite
//! against exact oracles) and a round/message cost trace produced by the
//! simulator, which the `hybrid-bench` crate uses to regenerate the paper's
//! tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod apsp;
pub mod bcc;
pub mod cluster;
pub mod cuts;
pub mod dissemination;
pub mod hashing;
pub mod helpers;
pub mod klsp;
pub mod kssp;
pub mod lower_bounds;
pub mod minplus;
pub mod nq;
pub mod oracle;
pub mod overlay;
pub mod prob;
pub mod routing;
pub mod rows;
pub mod schneider;
pub mod skeleton;
pub mod spanner;
pub mod sssp;
pub mod stretch;

pub use algorithm::{dissemination_registry, sssp_registry, DisseminationAlgorithm, SsspAlgorithm};
pub use cluster::{cluster_by_nq, cluster_with_radius};
pub use dissemination::{
    baseline_sqrt_k_dissemination, det_token_forward_dissemination, k_aggregation, k_dissemination,
    DisseminationOutput,
};
pub use nq::{compute_nq, NqEstimate, NqOracle, NqSource, SampledNqOracle};
pub use oracle::{DistanceOracle, OracleConfig, OracleError, PathBatch, ORACLE_STRETCH};
pub use routing::{baseline_sqrt_k_routing, kl_routing, RoutingOutput, RoutingScenario};
pub use rows::DistanceRows;
pub use schneider::schneider_kssp;
