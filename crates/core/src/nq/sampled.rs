//! Sampled `NQ_k` estimation for the scale tier.
//!
//! The exact [`NqOracle`](super::NqOracle) precomputes ball profiles for
//! *every* node up to `⌈√n⌉` — `Θ(n·min(D, √n))` BFS work and, at
//! `n = 10⁶`, far past the sweep budget.  [`SampledNqOracle`] estimates `NQ_k(G) =
//! max_v NQ_k(v)` from a uniform node sample instead: each sampled node gets
//! an **exact, bounded** ball profile (its BFS stops at `t = NQ_{k_max}(v)`,
//! which Definition 3.1 makes a monotone stopping rule for every `k ≤
//! k_max`), so per-node values are exact and only the maximization is
//! sampled.
//!
//! The estimate is therefore a guaranteed *lower* bound on the population
//! maximum, with recorded quantile coverage: with sample size `s`, the
//! probability that the sample contains at least one node from the top `q`
//! fraction — i.e. that the estimate is at least the `(1−q)`-quantile of the
//! per-node `NQ_k` values — is `1 − (1−q)^s`, which [`NqEstimate`] reports as
//! its confidence.  Lower-bound witnesses built on this source are sound:
//! they are genuine witnesses of the sampled node, just possibly not the
//! global maximizer.
//!
//! The sample is swept 64 nodes per batch: each batch is one run of
//! [`hybrid_graph::traversal::lane_bfs`], one bit of a `u64` word per sampled
//! node, every lane stopping on its own rule.  Batches are fanned out over
//! the pool and collected in batch order, so the oracle does not depend on
//! the pool width.

use hybrid_graph::traversal::{lane_bfs, lanes_of, LaneWorkspace, LANES};
use hybrid_graph::{Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use super::NqSource;
use crate::prob::sample_distinct;

/// A sampled `NQ_k` estimate with its recorded sampling semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NqEstimate {
    /// Sample maximum of the exact per-node `NQ_k` values.
    pub estimate: u64,
    /// Number of sampled nodes.
    pub sample_size: usize,
    /// Top-quantile fraction `q` the confidence statement refers to.
    pub quantile: f64,
    /// `P[estimate ≥ (1−q)-quantile of NQ_k(v)] = 1 − (1−q)^s`.
    pub confidence: f64,
}

/// Bounded, exact ball profile of one sampled node.
#[derive(Debug, Clone, PartialEq)]
struct NodeProfile {
    node: NodeId,
    /// `balls[t-1] = |B_t(node)|` for `t = 1 ..= len`; the profile stops at
    /// the first `t` satisfying the Definition 3.1 condition for `k_max`, or
    /// at the first level where the ball did not grow (that repeated size is
    /// kept), whichever comes first.
    balls: Vec<usize>,
}

/// Sampled-source oracle for `NQ_k` over workloads `k ≤ k_max`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledNqOracle {
    n: usize,
    k_max: u64,
    quantile: f64,
    /// Sorted by node id (the sample is drawn sorted).
    profiles: Vec<NodeProfile>,
}

impl SampledNqOracle {
    /// Samples `sample_size` distinct nodes (seeded) and computes their exact
    /// bounded ball profiles in parallel.  `k_max` is clamped to `n` — the
    /// stopping rule `|B_t(v)|·t ≥ k` is then guaranteed to trigger no later
    /// than the node's eccentricity, so no profile needs the diameter.
    pub fn new(graph: &Graph, sample_size: usize, k_max: u64, quantile: f64, seed: u64) -> Self {
        let n = graph.n();
        let k_max = k_max.clamp(1, n as u64);
        assert!(
            (0.0..1.0).contains(&quantile) && quantile > 0.0,
            "quantile must be in (0, 1)"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let nodes = sample_distinct(n, sample_size.clamp(1, n), &mut rng);
        // One `lane_bfs` per batch of `LANES` sampled nodes, fanned out and
        // collected in batch order, so the pool width does not show.
        let batches: Vec<Vec<NodeProfile>> = (0..nodes.len().div_ceil(LANES))
            .into_par_iter()
            .map_init(
                || LaneWorkspace::new(n),
                |ws, b| {
                    let batch = &nodes[b * LANES..nodes.len().min((b + 1) * LANES)];
                    let mut balls = vec![Vec::new(); batch.len()];
                    let mut live = u64::MAX >> (LANES - batch.len());
                    lane_bfs(graph, ws, batch, u64::MAX, |t, grew, sizes| {
                        // Every live lane records this level, the one where
                        // it stopped growing included.
                        for lane in lanes_of(live) {
                            balls[lane].push(sizes[lane] as usize);
                        }
                        live = lanes_of(grew)
                            .filter(|&lane| u64::from(sizes[lane]).saturating_mul(t) < k_max)
                            .fold(0, |keep, lane| keep | 1 << lane);
                        live
                    });
                    let profiles = batch.iter().zip(balls);
                    profiles
                        .map(|(&node, balls)| NodeProfile { node, balls })
                        .collect()
                },
            )
            .with_min_len(1)
            .collect();
        SampledNqOracle {
            n,
            k_max,
            quantile,
            profiles: batches.into_iter().flatten().collect(),
        }
    }

    /// Largest workload this oracle was built for.
    pub fn k_max(&self) -> u64 {
        self.k_max
    }

    /// The sampled nodes, in ascending id order.
    pub fn sampled_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.profiles.iter().map(|p| p.node)
    }

    /// Bytes held by the stored ball profiles — the scale tier reports this
    /// as the witness-side memory footprint.
    pub fn memory_bytes(&self) -> u64 {
        self.profiles
            .iter()
            .map(|p| {
                (p.balls.len() * std::mem::size_of::<usize>() + std::mem::size_of::<NodeId>())
                    as u64
            })
            .sum()
    }

    /// Exact `NQ_k(v)` of a sampled node (Definition 3.1 over its profile).
    ///
    /// # Panics
    /// Panics if `v` was not sampled or `k > k_max`.
    pub fn nq_of(&self, v: NodeId, k: u64) -> u64 {
        let p = self.profile(v);
        Self::nq_from_profile(p, k.max(1), self.k_max)
    }

    fn nq_from_profile(p: &NodeProfile, k: u64, k_max: u64) -> u64 {
        assert!(
            k <= k_max,
            "workload {k} exceeds the profiled k_max {k_max}"
        );
        for (i, &ball) in p.balls.iter().enumerate() {
            let t = (i + 1) as u64;
            if ball as u128 * t as u128 >= k as u128 {
                return t;
            }
        }
        // Unreachable for k <= k_max by the stopping rule; the profile's last
        // entry is the safe answer if it ever trips.
        p.balls.len().max(1) as u64
    }

    /// The sampled estimate together with its recorded sampling semantics.
    pub fn nq_estimate(&self, k: u64) -> NqEstimate {
        let k = k.max(1);
        let estimate = self
            .profiles
            .iter()
            .map(|p| Self::nq_from_profile(p, k, self.k_max))
            .max()
            .unwrap_or(1);
        let s = self.profiles.len();
        NqEstimate {
            estimate,
            sample_size: s,
            quantile: self.quantile,
            confidence: 1.0 - (1.0 - self.quantile).powi(s as i32),
        }
    }

    fn profile(&self, v: NodeId) -> &NodeProfile {
        let i = self
            .profiles
            .binary_search_by_key(&v, |p| p.node)
            .unwrap_or_else(|_| panic!("node {v} is not in the sampled set"));
        &self.profiles[i]
    }
}

impl NqSource for SampledNqOracle {
    fn n(&self) -> usize {
        self.n
    }

    fn nq(&self, k: u64) -> u64 {
        self.nq_estimate(k).estimate
    }

    fn witness(&self, k: u64) -> NodeId {
        let k = k.max(1);
        self.profiles
            .iter()
            .max_by_key(|p| Self::nq_from_profile(p, k, self.k_max))
            .map(|p| p.node)
            .unwrap_or(0)
    }

    /// Exact `|B_t(v)|` up to the stored radius of `v` (its profile stops at
    /// `NQ_{k_max}(v)`, or one level past its eccentricity); past it the
    /// answer saturates at the last stored size, a lower bound on `|B_t(v)|`.
    fn ball_size(&self, v: NodeId, t: u64) -> usize {
        let p = self.profile(v);
        if t == 0 {
            return 1;
        }
        let i = ((t as usize).min(p.balls.len())).saturating_sub(1);
        p.balls.get(i).copied().unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nq::NqOracle;
    use hybrid_graph::{generators, GraphBuilder};

    /// Node-disjoint union of a path and a grid: two components.
    fn path_beside_grid() -> Graph {
        let (a, b) = (
            generators::path(150).unwrap(),
            generators::grid(&[12, 12]).unwrap(),
        );
        let mut builder = GraphBuilder::new(a.n() + b.n());
        let shift = a.n() as NodeId;
        for &(u, v, w) in a.edges() {
            builder.add_edge(u, v, w).unwrap();
        }
        for &(u, v, w) in b.edges() {
            builder.add_edge(u + shift, v + shift, w).unwrap();
        }
        builder.build_unchecked_connectivity()
    }

    /// A partial batch and one, two and three batches of 64 lanes (24, 64, 65
    /// and 130 samples), on a connected and a disconnected graph.
    #[test]
    fn sampled_per_node_values_are_exact() {
        for g in [
            generators::path(300).unwrap(),
            generators::grid(&[17, 17]).unwrap(),
            generators::tree_with_n(2, 250).unwrap(),
            path_beside_grid(),
        ] {
            let exact = NqOracle::new(&g);
            let n = g.n() as u64;
            for samples in [24, 64, 65, 130] {
                let sampled = SampledNqOracle::new(&g, samples, n, 0.02, 7);
                assert_eq!(sampled.sampled_nodes().count(), samples);
                for v in sampled.sampled_nodes() {
                    for k in [1, 16, n / 2, n] {
                        assert_eq!(
                            sampled.nq_of(v, k),
                            exact.nq_of(v, k),
                            "n={n} s={samples} v={v} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_is_identical_at_pool_width_1_and_4() {
        for g in [generators::grid(&[17, 17]).unwrap(), path_beside_grid()] {
            let [narrow, wide] = [1, 4].map(|width| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap();
                pool.install(|| SampledNqOracle::new(&g, 130, g.n() as u64, 0.02, 5))
            });
            assert!(narrow == wide, "n={}", g.n());
        }
    }

    /// Past a node's stored radius `ball_size` saturates, so a lower bound
    /// must never ask there.  `dissemination_lower_bound` does not: on the
    /// quick scale tier's families at n = 1024 (`GraphFamily::core_families`
    /// of `hybrid-bench`), every radius it asks about is stored.
    #[test]
    fn lower_bound_ball_queries_stay_within_the_stored_radius() {
        use crate::lower_bounds::dissemination_lower_bound;
        use hybrid_sim::ModelParams;
        use std::cell::RefCell;

        /// Passes every query through and records each `ball_size` call.
        struct Recording<'a>(&'a SampledNqOracle, RefCell<Vec<(NodeId, u64)>>);
        impl NqSource for Recording<'_> {
            fn n(&self) -> usize {
                self.0.n
            }
            fn nq(&self, k: u64) -> u64 {
                NqSource::nq(self.0, k)
            }
            fn witness(&self, k: u64) -> NodeId {
                NqSource::witness(self.0, k)
            }
            fn ball_size(&self, v: NodeId, t: u64) -> usize {
                self.1.borrow_mut().push((v, t));
                NqSource::ball_size(self.0, v, t)
            }
        }

        let mut deepest = 0;
        for g in [
            generators::path(1024).unwrap(),
            generators::grid(&[32, 32]).unwrap(),
            generators::tree_with_n(2, 1024).unwrap(),
            generators::erdos_renyi(1024, 6.0 / 1024.0, 0x5CA1E).unwrap(),
        ] {
            let n = g.n() as u64;
            let params = ModelParams::hybrid(g.n());
            let sampled = SampledNqOracle::new(&g, 64, n, 0.02, 3);
            for k in [n / 16, n / 4, n] {
                let recording = Recording(&sampled, RefCell::default());
                dissemination_lower_bound(&recording, &params, k, 0.99);
                let calls = recording.1.into_inner();
                assert!(!calls.is_empty(), "n={n} k={k}");
                for (v, t) in calls {
                    let stored = sampled.profile(v).balls.len() as u64;
                    assert!(t <= stored, "n={n} k={k}: B_{t}({v}) past radius {stored}");
                    deepest = deepest.max(t);
                }
            }
        }
        // The path's NQ_k takes the Lemma 7.2 branch, past radius 1.
        assert!(deepest > 1);
    }

    #[test]
    fn estimate_is_a_lower_bound_and_exact_at_full_sampling() {
        let g = generators::path(200).unwrap();
        let exact = NqOracle::new(&g);
        let k = 200u64;
        let sampled = SampledNqOracle::new(&g, 16, k, 0.02, 3);
        let est = sampled.nq_estimate(k);
        assert!(est.estimate <= exact.nq(k));
        assert_eq!(est.sample_size, 16);
        assert!((0.0..1.0).contains(&est.confidence) && est.confidence > 0.2);
        // Sampling every node recovers the exact maximum.
        let full = SampledNqOracle::new(&g, 200, k, 0.02, 3);
        assert_eq!(full.nq_estimate(k).estimate, exact.nq(k));
        assert_eq!(NqSource::nq(&full, k), exact.nq(k));
    }

    #[test]
    fn witness_ball_sizes_match_the_exact_oracle() {
        let g = generators::grid(&[20, 20]).unwrap();
        let exact = NqOracle::new(&g);
        let k = 400u64;
        let sampled = SampledNqOracle::new(&g, 32, k, 0.02, 11);
        let w = NqSource::witness(&sampled, k);
        let nq = NqSource::nq(&sampled, k);
        // Every radius a lower-bound construction can ask about (h < nq) is
        // inside the stored profile and matches the exact ball.
        for t in 1..nq {
            assert_eq!(
                NqSource::ball_size(&sampled, w, t),
                exact.ball_size(w, t),
                "t={t}"
            );
        }
    }

    #[test]
    fn seeded_sampling_is_deterministic() {
        let g = generators::grid(&[15, 15]).unwrap();
        let a = SampledNqOracle::new(&g, 12, 225, 0.02, 9);
        let b = SampledNqOracle::new(&g, 12, 225, 0.02, 9);
        assert_eq!(
            a.sampled_nodes().collect::<Vec<_>>(),
            b.sampled_nodes().collect::<Vec<_>>()
        );
        assert_eq!(a.nq_estimate(100), b.nq_estimate(100));
        assert!(a.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "not in the sampled set")]
    fn unsampled_node_queries_panic() {
        let g = generators::path(100).unwrap();
        let sampled = SampledNqOracle::new(&g, 4, 100, 0.02, 1);
        let missing = (0..100u32)
            .find(|v| !sampled.sampled_nodes().any(|s| s == *v))
            .unwrap();
        sampled.nq_of(missing, 10);
    }
}
