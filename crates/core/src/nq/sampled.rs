//! Sampled `NQ_k` estimation for the scale tier.
//!
//! The exact [`NqOracle`](super::NqOracle) precomputes ball profiles for
//! *every* node up to `⌈√n⌉` — `Θ(n·min(D, √n))` BFS work and, at
//! `n = 10⁶`, far past the sweep budget.  [`SampledNqOracle`] estimates
//! `NQ_k(G) = max_v NQ_k(v)` from a uniform node sample instead, on the exact
//! oracle's own machinery: the sample, sorted, is swept 64 nodes per batch
//! into a [`BallProfiles`] store, and every query is the one Definition 3.1
//! walk (`first_radius`).  One stop rule is added: a lane stops at the first
//! `t` with `|B_t|·t ≥ k_max`, where Definition 3.1 is met for every
//! `k ≤ k_max`, so no profile runs deeper than a query can read.
//!
//! *The diameter cap.*  Where no radius meets the ball condition,
//! Definition 3.1 answers `D`, which a sample does not know.  The sampled
//! walk caps at the deepest level at which any sampled lane grew (at least
//! 1).  That level is at most `D`, so every per-node value is at most the
//! exact one; on a connected graph every node meets the condition by its
//! eccentricity (`k ≤ n`), so the two are equal.
//!
//! The estimate is therefore a guaranteed *lower* bound on the population
//! maximum, with recorded quantile coverage: with sample size `s`, the
//! probability that the sample contains at least one node from the top `q`
//! fraction — i.e. that the estimate is at least the `(1−q)`-quantile of the
//! per-node `NQ_k` values — is `1 − (1−q)^s`, which [`NqEstimate`] reports as
//! its confidence.  Lower-bound witnesses built on this source are sound:
//! their ball sizes are exact for the sampled node, which just may not be the
//! global maximizer.  Batches are fanned out over the pool and collected in
//! batch order, so the oracle does not depend on the pool width.

use hybrid_graph::balls::BallProfiles;
use hybrid_graph::traversal::LANES;
use hybrid_graph::{Graph, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::{first_radius, level_min, NqSource};
use crate::prob::sample_distinct;

/// A sampled `NQ_k` estimate with its recorded sampling semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NqEstimate {
    /// Sample maximum of the per-node `NQ_k` values (exact on a connected
    /// graph, at most exact otherwise).
    pub estimate: u64,
    /// Number of sampled nodes.
    pub sample_size: usize,
    /// Top-quantile fraction `q` the confidence statement refers to.
    pub quantile: f64,
    /// `P[estimate ≥ (1−q)-quantile of NQ_k(v)] = 1 − (1−q)^s`.
    pub confidence: f64,
}

/// Sampled-source oracle for `NQ_k` over workloads `k ≤ k_max`.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledNqOracle {
    n: usize,
    k_max: u64,
    quantile: f64,
    /// The sample in ascending id order; `nodes[i]`'s profile is slot `i`.
    nodes: Vec<NodeId>,
    profiles: BallProfiles,
}

impl SampledNqOracle {
    /// Samples `sample_size` distinct nodes (seeded) and sweeps their ball
    /// profiles in parallel.  `k_max` is clamped to `n` — the stopping rule
    /// `|B_t(v)|·t ≥ k` then triggers no later than the node's eccentricity
    /// on a connected graph.
    pub fn new(graph: &Graph, sample_size: usize, k_max: u64, quantile: f64, seed: u64) -> Self {
        let n = graph.n();
        let k_max = k_max.clamp(1, n as u64);
        assert!(
            (0.0..1.0).contains(&quantile) && quantile > 0.0,
            "quantile must be in (0, 1)"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let nodes = sample_distinct(n, sample_size.clamp(1, n), &mut rng);
        // Runs of 64 in sample order, so `nodes[i]` lands in slot `i`.
        let batches: Vec<&[NodeId]> = nodes.chunks(LANES).collect();
        let profiles = BallProfiles::sweep(graph, &batches, u64::MAX, k_max);
        SampledNqOracle {
            n,
            k_max,
            quantile,
            nodes,
            profiles,
        }
    }

    /// The sampled nodes, in ascending id order.
    pub fn sampled_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// Bytes held by the sample and its ball profiles — the scale tier
    /// reports this as the witness-side memory footprint.
    pub fn memory_bytes(&self) -> u64 {
        (self.nodes.len() * std::mem::size_of::<NodeId>()) as u64 + self.profiles.memory_bytes()
    }

    /// `NQ_k(v)` of a sampled node (Definition 3.1 under the sample's cap).
    ///
    /// # Panics
    /// Panics if `v` was not sampled or `k > k_max`.
    pub fn nq_of(&self, v: NodeId, k: u64) -> u64 {
        let slot = self.slot(v);
        self.walk(k, |t| self.profiles.ball_size(slot, t))
    }

    /// The sampled estimate together with its recorded sampling semantics:
    /// the walk over the sample's level minimum is the sample maximum of
    /// [`SampledNqOracle::nq_of`].
    pub fn nq_estimate(&self, k: u64) -> NqEstimate {
        let s = self.nodes.len();
        NqEstimate {
            estimate: self.walk(k, |t| level_min(self.profiles.min_ball(), t)),
            sample_size: s,
            quantile: self.quantile,
            confidence: 1.0 - (1.0 - self.quantile).powi(s as i32),
        }
    }

    /// [`first_radius`] capped at the deepest level a sampled lane grew.
    fn walk(&self, k: u64, size: impl Fn(u64) -> usize) -> u64 {
        let k_max = self.k_max;
        assert!(k <= k_max, "workload {k} exceeds k_max {k_max}");
        first_radius(k, size, 0, || self.profiles.depth())
    }

    fn slot(&self, v: NodeId) -> usize {
        self.nodes
            .binary_search(&v)
            .unwrap_or_else(|_| panic!("node {v} is not in the sampled set"))
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
        let nq = |&v: &NodeId| self.nq_of(v, k);
        self.sampled_nodes().max_by_key(nq).expect("a sampled node")
    }

    /// Exact `|B_t(v)|` up to the depth of `v`'s profile; past it the
    /// answer saturates at the last stored size, which is exact too unless
    /// the workload rule stopped the lane.
    fn ball_size(&self, v: NodeId, t: u64) -> usize {
        self.profiles.ball_size(self.slot(v), t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nq::NqOracle;
    use hybrid_graph::{generators, GraphBuilder};

    /// Node-disjoint union of several graphs, numbered in order.
    fn union(parts: &[Graph]) -> Graph {
        let mut builder = GraphBuilder::new(parts.iter().map(Graph::n).sum());
        let mut shift = 0;
        for part in parts {
            for &(u, v, w) in part.edges() {
                builder.add_edge(u + shift, v + shift, w).unwrap();
            }
            shift += part.n() as NodeId;
        }
        builder.build_unchecked_connectivity()
    }

    /// Node-disjoint union of a path and a grid: two components.
    fn path_beside_grid() -> Graph {
        union(&[
            generators::path(150).unwrap(),
            generators::grid(&[12, 12]).unwrap(),
        ])
    }

    /// A partial batch and one, two and three batches of 64 lanes (24, 64, 65
    /// and 130 samples, or every node of a smaller graph).  Per node the
    /// sampled value is the exact one cut at the sample's cap, so never
    /// above it; it is the exact one itself on a connected graph, and on
    /// the path beside the grid, where every node meets the ball condition
    /// inside its own component.  The estimate never exceeds the exact
    /// `NQ_k`.  On `K2` beside two isolated nodes a profile that kept its
    /// last, non-growing level used to answer 2 against the exact 1.
    #[test]
    fn sampled_per_node_values_are_exact() {
        let path = |n| generators::path(n).unwrap();
        let graphs = [
            (path(300), true),
            (generators::grid(&[17, 17]).unwrap(), true),
            (generators::tree_with_n(2, 250).unwrap(), true),
            (path(1), true),
            (path_beside_grid(), true),
            (union(&[path(2), path(1), path(1)]), false),
            (union(&[path(3), path(150)]), false),
        ];
        for (g, equal) in graphs {
            let exact = NqOracle::new(&g);
            let n = g.n() as u64;
            for samples in [24, 64, 65, 130] {
                let sampled = SampledNqOracle::new(&g, samples, n, 0.02, 7);
                assert_eq!(sampled.sampled_nodes().count(), samples.min(g.n()));
                let cap = sampled.profiles.depth().max(1);
                for k in (1..=n).filter(|&k| k <= 16 || k == n / 2 || k == n) {
                    let (estimate, nq) = (sampled.nq_estimate(k).estimate, exact.nq(k));
                    assert!(estimate <= nq, "n={n} s={samples} k={k}: {estimate} > {nq}");
                    for v in sampled.sampled_nodes() {
                        let (got, want) = (sampled.nq_of(v, k), exact.nq_of(v, k));
                        let at = format!("n={n} s={samples} v={v} k={k}: {got} vs {want}");
                        assert_eq!(got, want.min(cap), "{at}");
                        assert!(!equal || got == want, "{at}");
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

    /// Past a node's stored radius `ball_size` may saturate below the true
    /// size (when the workload rule stopped the lane), so a lower bound must
    /// never ask there.  `dissemination_lower_bound` does not: on the
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
                    let stored = sampled.profiles.profile(sampled.slot(v)).len() as u64 - 1;
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
