//! # hybrid-graph
//!
//! Graph substrate for the reproduction of *"Universally Optimal Information
//! Dissemination and Shortest Paths in the HYBRID Distributed Model"*
//! (Chang, Hecht, Leitersdorf, Schneider — PODC 2024).
//!
//! The crate provides everything the distributed algorithms and the HYBRID
//! simulator need from "the graph" itself:
//!
//! * an immutable, cache-friendly CSR representation ([`Graph`]) of the local
//!   communication network `G = (V, E, ω)`;
//! * a validating [`GraphBuilder`];
//! * deterministic, seedable **generators** for the graph families the paper
//!   analyses (paths, cycles, `d`-dimensional grids and tori, balanced trees,
//!   stars, caterpillars, Erdős–Rényi graphs, random geometric graphs and a
//!   fat-tree-like data-center topology) — see [`generators`], the one home
//!   of every family;
//! * centralized **distance oracles** used as ground truth and as building
//!   blocks: BFS, multi-source BFS, Dijkstra, hop-limited Dijkstra
//!   ([`traversal`], [`dijkstra`]);
//! * **ball queries** `B_t(v)` which underlie the neighborhood-quality
//!   parameter `NQ_k` ([`balls`]);
//! * connected components by union–find ([`unionfind`]) and **cut
//!   evaluation** used by the cut-sparsifier experiments;
//! * the exact **work ledger** the searches report to ([`work`]).
//!
//! Every randomised construction is a pure function of its `u64` seed, from
//! which it derives one ChaCha8 stream per fixed-size chunk — so every
//! experiment in the repository is reproducible, at any pool width.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balls;
pub mod builder;
pub mod csr;
pub mod cuts;
pub mod dijkstra;
pub mod error;
pub mod fnv;
pub mod generators;
pub mod traversal;
pub mod unionfind;
pub mod work;

pub use builder::GraphBuilder;
pub use csr::{EdgeId, Graph, NodeId, Weight, INFINITY};
pub use error::GraphError;
pub use fnv::Fnv1a64;

/// Convenient result alias for fallible graph construction.
pub type Result<T> = std::result::Result<T, GraphError>;

/// Invariants of the chunk-seeded random samplers, kept under the module
/// path they were first recorded at; the samplers live in [`generators`].
#[cfg(test)]
mod streaming {
    mod tests {
        use crate::generators::{
            chung_lu, erdos_renyi, grid, random_geometric, with_random_weights,
        };

        #[test]
        fn er_p_one_is_complete() {
            let g = erdos_renyi(40, 1.0, 3).unwrap();
            assert_eq!(g.m(), 40 * 39 / 2);
        }

        #[test]
        fn streamed_reweighting_is_deterministic_and_in_range() {
            let base = grid(&[50, 50]).unwrap();
            let w1 = with_random_weights(&base, 32, 9).unwrap();
            let w2 = with_random_weights(&base, 32, 9).unwrap();
            assert_eq!(w1.n(), w2.n());
            assert_eq!(w1.edges(), w2.edges());
            assert_eq!(w1.m(), base.m());
            for (&(u, v, w), &(bu, bv, _)) in w1.edges().iter().zip(base.edges()) {
                assert_eq!((u, v), (bu, bv));
                assert!((1..=32).contains(&w));
            }
            assert!(with_random_weights(&base, 0, 9).is_err());
        }

        #[test]
        fn validation_errors_match_legacy() {
            // The rejections the earlier sequential bodies made, unchanged.
            assert!(erdos_renyi(10, 1.5, 0).is_err());
            assert!(erdos_renyi(0, 0.5, 0).is_err());
            assert!(random_geometric(10, 0.0, 0).is_err());
            assert!(chung_lu(10, 1.0, 6.0, 0).is_err());
            assert!(chung_lu(10, 2.5, 0.0, 0).is_err());
        }
    }
}
