//! The **neighborhood quality** graph parameter `NQ_k` (paper Section 3).
//!
//! For a graph `G`, workload `k` and node `v`,
//!
//! ```text
//! NQ_k(v) = min ({ t : |B_t(v)| >= k / t } ∪ { D })      (Definition 3.1)
//! NQ_k(G) = max_v NQ_k(v)
//! ```
//!
//! `NQ_k` captures how quickly the `t`-hop neighbourhood of every node grows
//! relative to the workload `k`: within `t` rounds a node can combine local
//! communication (learning its `t`-ball) with `Θ(t·log n)` global messages per
//! ball member, so a ball of size `≥ k/t` suffices to move `Ω̃(k)` bits in
//! `O(t)` rounds.  The paper proves `√(Dk/3n) < NQ_k ≤ min(D, √k)`
//! (Lemma 3.6), the growth bound `NQ_{αk} ≤ 6√α·NQ_k` (Lemma 3.7) and closed
//! forms on paths/cycles/grids (Theorems 15–17, reproduced in [`families`]).
//!
//! [`NqOracle`] computes the parameter exactly (centralized); [`compute_nq`]
//! performs the distributed computation of Lemma 3.3, charging `Õ(NQ_k)`
//! rounds on a [`HybridNetwork`].  Both walk one table,
//! `N_t = min_v |B_t(v)|` ([`BallOracle::min_ball`]): `|B_t(v)|·t` never
//! decreases in `t`, so `NQ_k(G)` is the first `t` with `N_t ≥ k/t` — `O(NQ_k)`
//! per query, no pass over the nodes.

pub mod families;
pub mod sampled;

use hybrid_graph::balls::BallOracle;
use hybrid_graph::{Graph, NodeId};
use hybrid_sim::HybridNetwork;

pub use sampled::{NqEstimate, SampledNqOracle};

/// Common interface over the exact [`NqOracle`] and the scale tier's
/// [`SampledNqOracle`], covering exactly the queries the universal lower
/// bounds (Theorem 4, Lemma 7.2, Theorems 11/12) consume: the `NQ_k` value,
/// its witness node, and ball sizes around that witness.
///
/// The exact oracle answers for every node; the sampled oracle answers the
/// same queries over its sampled node set (its `nq`/`witness` are the sample
/// maximum — a guaranteed *lower* estimate of the population maximum, with
/// quantile coverage recorded by [`SampledNqOracle::nq_estimate`]).
pub trait NqSource {
    /// Number of nodes of the underlying graph.
    fn n(&self) -> usize;
    /// `NQ_k(G)` (exact) or its sample maximum (sampled).
    fn nq(&self, k: u64) -> u64;
    /// A node attaining [`NqSource::nq`].
    fn witness(&self, k: u64) -> NodeId;
    /// `|B_t(v)|` for any node the source has a profile for.  The exact
    /// oracle answers every radius; the sampled oracle is exact up to the
    /// node's stored radius and saturates past it, returning its last stored
    /// size — a lower bound on `|B_t(v)|`.  The lower bounds ask only for
    /// radii below `nq(k)`, which the sampled profiles always cover.
    fn ball_size(&self, v: NodeId, t: u64) -> usize;
}

impl NqSource for NqOracle {
    fn n(&self) -> usize {
        NqOracle::n(self)
    }
    fn nq(&self, k: u64) -> u64 {
        NqOracle::nq(self, k)
    }
    fn witness(&self, k: u64) -> NodeId {
        NqOracle::witness(self, k)
    }
    fn ball_size(&self, v: NodeId, t: u64) -> usize {
        NqOracle::ball_size(self, v, t)
    }
}

/// Exact, centralized oracle for `NQ_k(v)` and `NQ_k(G)` with cached ball
/// profiles, supporting repeated queries for different workloads `k`.
#[derive(Debug, Clone)]
pub struct NqOracle {
    balls: BallOracle,
    diameter: u64,
    n: usize,
}

impl NqOracle {
    /// Precomputes ball-size profiles for every node (up to the diameter).
    ///
    /// The one sweep serves double duty: each node's profile stops growing
    /// exactly at its eccentricity, so the diameter is read off the profile
    /// lengths instead of running a second `n`-BFS pass.
    pub fn new(graph: &Graph) -> Self {
        let balls = BallOracle::new(graph, u64::MAX);
        let diameter = balls
            .max_eccentricity()
            .expect("no radius bound, so no profile is cut");
        NqOracle {
            balls,
            diameter,
            n: graph.n(),
        }
    }

    /// Number of nodes of the underlying graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Hop diameter `D` of the underlying graph.
    pub fn diameter(&self) -> u64 {
        self.diameter
    }

    /// Definition 3.1 over one sequence of ball sizes: the first radius
    /// `t ≥ 1` with `size(t) ≥ k/t`, else `D`.  For `k = 0` the answer is 1
    /// (any radius works; the paper assumes `k > 0`).
    fn first_radius(&self, k: u64, size: impl Fn(u64) -> usize) -> u64 {
        let d = self.diameter.max(1);
        // |B_t| >= k/t  <=>  |B_t| * t >= k
        (1..d)
            .find(|&t| size(t) as u128 * t as u128 >= k as u128)
            .unwrap_or(d)
    }

    /// `min_v |B_t(v)|` — the `N_t` of Lemma 3.3 (0 on the empty graph).
    fn min_ball_size(&self, t: u64) -> usize {
        let table = self.balls.min_ball();
        let size = table.get(t as usize).or(table.last());
        size.map_or(0, |&size| size as usize)
    }

    /// `NQ_k(v)` — Definition 3.1.
    pub fn nq_of(&self, v: NodeId, k: u64) -> u64 {
        self.first_radius(k, |t| self.balls.ball_size(v, t))
    }

    /// `NQ_k(G) = max_v NQ_k(v)`.  `|B_t(v)|·t` is non-decreasing in `t`, so
    /// every node meets the ball condition by radius `t` exactly when the
    /// smallest `t`-ball does: one walk over the level-minimum table.
    pub fn nq(&self, k: u64) -> u64 {
        self.first_radius(k, |t| self.min_ball_size(t))
    }

    /// A node maximizing `NQ_k(v)`; by Lemma 3.8 it satisfies
    /// `|B_r(v)| < k/r` for every `r < NQ_k`, which is the witness used by the
    /// universal lower bounds (Lemma 7.2).
    ///
    /// The maximizers are exactly the nodes whose ball condition still fails
    /// at radius `NQ_k − 1` (every node when `NQ_k = 1`); the last one is
    /// returned.
    pub fn witness(&self, k: u64) -> NodeId {
        let below = self.nq(k) - 1;
        let fails = |v| (self.ball_size(v, below) as u128 * below as u128) < k as u128;
        (0..self.n as NodeId)
            .rev()
            .find(|&v| below == 0 || fails(v))
            .unwrap_or(0)
    }

    /// `|B_t(v)|` from the cached profiles.
    pub fn ball_size(&self, v: NodeId, t: u64) -> usize {
        self.balls.ball_size(v, t)
    }
}

/// Result of the distributed `NQ_k` computation (Lemma 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NqComputation {
    /// The workload parameter `k` that was queried.
    pub k: u64,
    /// The computed `NQ_k(G)`.
    pub nq: u64,
    /// Rounds charged for the computation.
    pub rounds: u64,
}

/// Distributed computation of `NQ_k` (Lemma 3.3): nodes explore their
/// neighbourhood to increasing depth `t = 1, 2, …`, after each step
/// aggregate `N_t = min_v |B_t(v)|` in `Õ(1)` rounds (Lemma 4.4) and stop at
/// the first `t` with `N_t ≥ k/t`.  Total cost `Õ(NQ_k)` rounds.  The lemma
/// is stated for the paper's `Hybrid0`; the simulator runs `HYBRID(∞, γ)`
/// and charges the lemma's rounds as stated.
///
/// The returned value is exact (it matches [`NqOracle::nq`]); the exploration
/// and per-step aggregations are charged to the network's cost meter.
pub fn compute_nq(net: &mut HybridNetwork, oracle: &NqOracle, k: u64) -> NqComputation {
    let before = net.rounds();
    let d = oracle.diameter().max(1);
    let k = k.max(1);
    let aggregation_rounds = net.polylog(1); // Lemma 4.4 basic aggregation
    let mut nq = d;
    for t in 1..=d {
        // One more round of local exploration.
        net.charge_local("nq/explore", 1);
        // Aggregate the global minimum ball size.
        net.charge_rounds("nq/aggregate-min", aggregation_rounds);
        let min_ball = oracle.min_ball_size(t) as u128;
        if min_ball * t as u128 >= k as u128 {
            nq = t;
            break;
        }
    }
    NqComputation {
        k,
        nq,
        rounds: net.rounds() - before,
    }
}

/// Convenience: checks Lemma 3.6, `√(Dk/3n) < NQ_k ≤ min(D, √k)`, returning
/// the three quantities `(lower, nq, upper)` so tests and benches can assert
/// and report them.
///
/// Because radii are integers, the `√k` part of the upper bound is `⌈√k⌉`
/// (the paper works with real-valued radii in the proof of Lemma 3.6).
pub fn lemma_3_6_bounds(oracle: &NqOracle, k: u64) -> (f64, u64, f64) {
    let nq = oracle.nq(k);
    let d = oracle.diameter() as f64;
    let n = oracle.n() as f64;
    let k_f = k.max(1) as f64;
    let lower = (d * k_f / (3.0 * n)).sqrt();
    let upper = d.min(k_f.sqrt().ceil());
    (lower, nq, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;
    use std::sync::Arc;

    #[test]
    fn nq_on_path_is_sqrt_k() {
        let g = generators::path(400).unwrap();
        let oracle = NqOracle::new(&g);
        // On a path |B_t(v)| <= 2t+1, so NQ_k ~ sqrt(k/2)..sqrt(k).
        for &k in &[16u64, 64, 100, 256] {
            let nq = oracle.nq(k);
            let sqrt_k = (k as f64).sqrt();
            assert!(nq as f64 >= (sqrt_k / 2.0).floor(), "k={k}, nq={nq}");
            assert!(nq as f64 <= sqrt_k + 1.0, "k={k}, nq={nq}");
        }
    }

    #[test]
    fn nq_on_clique_is_one() {
        let g = generators::complete(64).unwrap();
        let oracle = NqOracle::new(&g);
        assert_eq!(oracle.nq(64), 1);
        assert_eq!(oracle.nq(1), 1);
        // Workload larger than n/1: still capped by diameter 1.
        assert_eq!(oracle.nq(10_000), 1);
    }

    #[test]
    fn nq_capped_by_diameter() {
        let g = generators::path(10).unwrap();
        let oracle = NqOracle::new(&g);
        // k = 1000 >> n^2: no radius satisfies the ball condition, so NQ = D.
        assert_eq!(oracle.nq(1_000_000), 9);
        assert_eq!(oracle.diameter(), 9);
    }

    #[test]
    fn nq_monotone_in_k() {
        let g = generators::grid(&[12, 12]).unwrap();
        let oracle = NqOracle::new(&g);
        let mut prev = 0;
        for k in [1u64, 4, 16, 64, 144, 400] {
            let nq = oracle.nq(k);
            assert!(nq >= prev, "NQ_k must be non-decreasing in k");
            prev = nq;
        }
    }

    #[test]
    fn nq_zero_k_is_one() {
        let g = generators::cycle(10).unwrap();
        let oracle = NqOracle::new(&g);
        assert_eq!(oracle.nq_of(0, 0), 1);
    }

    #[test]
    fn lemma_3_6_holds_on_families() {
        for g in [
            generators::path(100).unwrap(),
            generators::cycle(81).unwrap(),
            generators::grid(&[10, 10]).unwrap(),
            generators::tree_balanced(2, 6).unwrap(),
            generators::star(50).unwrap(),
        ] {
            let oracle = NqOracle::new(&g);
            for &k in &[1u64, 5, 25, 100, (g.n() as u64)] {
                let (lower, nq, upper) = lemma_3_6_bounds(&oracle, k);
                assert!((nq as f64) > lower, "lower bound violated: {lower} !< {nq}");
                assert!(
                    (nq as f64) <= upper + 1e-9,
                    "upper bound violated: {nq} !<= {upper}"
                );
            }
        }
    }

    #[test]
    fn lemma_3_7_growth_bound() {
        let g = generators::grid(&[15, 15]).unwrap();
        let oracle = NqOracle::new(&g);
        for &k in &[4u64, 16, 50] {
            for &alpha in &[2u64, 4, 9] {
                let lhs = oracle.nq(alpha * k);
                let rhs = 6.0 * (alpha as f64).sqrt() * oracle.nq(k) as f64;
                assert!(lhs as f64 <= rhs, "NQ_{{αk}}={lhs} > 6√α·NQ_k={rhs}");
            }
        }
    }

    #[test]
    fn nq_and_witness_match_the_per_node_definition() {
        // Two components: the level minimum must keep counting the nodes of
        // the exhausted one.
        let mut split = hybrid_graph::GraphBuilder::new(70);
        for v in 1..40u32 {
            split.add_unweighted_edge(v - 1, v).unwrap();
        }
        for v in 41..70u32 {
            split.add_unweighted_edge(40, v).unwrap();
        }
        for g in [
            generators::path(1).unwrap(),
            generators::path(90).unwrap(),
            generators::grid(&[9, 11]).unwrap(),
            generators::caterpillar(30, 2).unwrap(),
            generators::lollipop(20, 50).unwrap(),
            split.build_unchecked_connectivity(),
        ] {
            let oracle = NqOracle::new(&g);
            let n = g.n() as u64;
            for k in [0, 1, 2, 7, n / 2, n, 3 * n, n * n] {
                let per_node = g.nodes().map(|v| oracle.nq_of(v, k));
                assert_eq!(oracle.nq(k), per_node.max().unwrap(), "n={n} k={k}");
                // `max_by_key` keeps the last maximizer.
                let last = g.nodes().max_by_key(|&v| oracle.nq_of(v, k)).unwrap();
                assert_eq!(oracle.witness(k), last, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn witness_has_small_balls_below_nq() {
        let g = generators::caterpillar(40, 2).unwrap();
        let oracle = NqOracle::new(&g);
        let k = 64u64;
        let nq = oracle.nq(k);
        let w = oracle.witness(k);
        for r in 1..nq {
            let ball = oracle.ball_size(w, r) as u128;
            assert!(
                ball * (r as u128) < (k as u128),
                "Lemma 3.8 violated at r={r}"
            );
        }
    }

    #[test]
    fn distributed_computation_matches_oracle_and_charges_rounds() {
        let g = Arc::new(generators::grid(&[8, 8]).unwrap());
        let oracle = NqOracle::new(&g);
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let k = 32;
        let result = compute_nq(&mut net, &oracle, k);
        assert_eq!(result.nq, oracle.nq(k));
        assert!(result.rounds >= result.nq);
        // Õ(NQ_k): within a polylog factor of NQ_k.
        assert!(result.rounds <= result.nq * (net.polylog(1) + 1) + net.polylog(1));
    }
}
