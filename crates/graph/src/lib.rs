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
//!   fat-tree-like data-center topology) — see [`generators`], the single
//!   home of every deterministic family, and [`streaming`], the sub-quadratic
//!   `n ≥ 10⁵` samplers of the three random ones;
//! * centralized **distance oracles** used as ground truth and as building
//!   blocks: BFS, multi-source BFS, Dijkstra, hop-limited Dijkstra
//!   ([`traversal`], [`dijkstra`]);
//! * **ball queries** `B_t(v)` which underlie the neighborhood-quality
//!   parameter `NQ_k` ([`balls`]);
//! * structural **properties** (connectivity, eccentricities, diameter) and
//!   **cut evaluation** used by the cut-sparsifier experiments.
//!
//! Every randomised construction is a pure function of its seed: those in
//! [`generators`] draw from an explicit [`rand::Rng`], those in [`streaming`]
//! take a `u64` seed and derive one ChaCha8 stream per fixed-size chunk — so
//! every experiment in the repository is reproducible, at any pool width.

// The default build carries no unsafe code at all; the `simd` feature opts
// into one audited `#[allow(unsafe_code)]` module of AVX2 intrinsics (the
// Dial bucket-occupancy scan in [`dijkstra::bucket_scan`]) and keeps
// everything else denied.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod balls;
pub mod builder;
pub mod csr;
pub mod cuts;
pub mod dijkstra;
pub mod error;
pub mod fnv;
pub mod generators;
pub mod properties;
pub mod streaming;
pub mod traversal;
pub mod unionfind;

pub use builder::GraphBuilder;
pub use csr::{EdgeId, Graph, NodeId, Weight, INFINITY};
pub use error::GraphError;
pub use fnv::Fnv1a64;

/// Convenient result alias for fallible graph construction.
pub type Result<T> = std::result::Result<T, GraphError>;
