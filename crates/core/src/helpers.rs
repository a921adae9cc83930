//! Helper-set machinery: the *adaptive helper sets* of Definition 5.1 /
//! Lemma 5.2 (used by the universal `(k, ℓ)`-routing algorithm, Theorem 3)
//! and the classical helper sets of `[KS20]` (Definition 9.1 / Lemma 9.2, used
//! by the skeleton-scheduling framework of Section 9).
//!
//! A helper set `H_w` gives node `w` a pool of nearby nodes whose global
//! bandwidth it can use almost exclusively, multiplying its effective
//! communication capacity by `|H_w|`.  The *adaptive* variant sizes the pool
//! by the graph's actual neighbourhood quality (`|H_w| ≥ k/NQ_k` within
//! `Õ(NQ_k)` hops), whereas `[KS20]` can only guarantee the worst-case
//! trade-off (`Θ̃(x)` helpers within `Θ̃(x)` hops).

use std::collections::HashMap;

use rand::Rng;
use rayon::prelude::*;

use hybrid_graph::{Graph, NodeId};
use hybrid_sim::HybridNetwork;

use crate::cluster::Clustering;
use crate::prob::ln_n;

/// Adaptive helper sets (Definition 5.1) for a node set `W`.
#[derive(Debug, Clone)]
pub struct AdaptiveHelperSets {
    /// For every `w ∈ W`, its helper set `H_w`.
    pub sets: HashMap<NodeId, Vec<NodeId>>,
    /// The workload parameter `k` the sets were built for.
    pub k: u64,
    /// The `NQ_k` value used.
    pub nq: u64,
    /// Hop-distance bound: every helper is within this many hops of its node
    /// (property (2) of Definition 5.1, `Õ(NQ_k)`).
    pub distance_bound: u64,
}

impl AdaptiveHelperSets {
    /// Size of the smallest helper set.
    pub fn min_size(&self) -> usize {
        self.sets.values().map(Vec::len).min().unwrap_or(0)
    }

    /// For every node of the graph, in how many helper sets it participates
    /// (property (3) of Definition 5.1 requires this to be `Õ(1)` w.h.p.).
    pub fn membership_counts(&self, n: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n];
        for helpers in self.sets.values() {
            for &h in helpers {
                counts[h as usize] += 1;
            }
        }
        counts
    }

    /// Maximum membership count.
    pub fn max_membership(&self, n: usize) -> usize {
        self.membership_counts(n).into_iter().max().unwrap_or(0)
    }
}

/// Lemma 5.2 / Algorithm 1 — computes adaptive helper sets for `W` on top of
/// an `NQ_k`-clustering.  `W` is expected to be sampled with probability at
/// most `NQ_k / k` (the lemma's pre-condition); the function works for any
/// `W` but the `Õ(1)`-membership property only holds w.h.p. under that
/// condition.
///
/// Charges `Õ(NQ_k)` rounds on `net` for the intra-cluster coordination
/// (learning `C` and `C ∩ W`, drafting helpers).
pub fn adaptive_helper_sets(
    net: &mut HybridNetwork,
    clustering: &Clustering,
    w_set: &[NodeId],
    rng: &mut impl Rng,
) -> AdaptiveHelperSets {
    let n = net.graph().n();
    let k = clustering.k.max(1);
    let nq = clustering.nq.max(1);
    let log_factor = 8.0 * ln_n(n);

    // Nodes in each cluster learn C and C ∩ W over the local network.
    net.charge_local(
        "helpers/learn-cluster-members",
        clustering.weak_diameter_bound.max(1),
    );

    let mut sets: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for cluster in &clustering.clusters {
        let members_in_w: Vec<NodeId> = cluster
            .members
            .iter()
            .copied()
            .filter(|v| w_set.contains(v))
            .collect();
        if members_in_w.is_empty() {
            continue;
        }
        let q =
            ((k as f64 / nq as f64) * (1.0 / cluster.members.len() as f64) * log_factor).min(1.0);
        for &w in &members_in_w {
            let mut helpers: Vec<NodeId> = cluster
                .members
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(q))
                .collect();
            if helpers.is_empty() {
                helpers.push(w);
            }
            sets.insert(w, helpers);
        }
    }
    AdaptiveHelperSets {
        sets,
        k,
        nq,
        distance_bound: clustering.weak_diameter_bound,
    }
}

/// Classical helper sets of `[KS20]` (Definition 9.1) for a node set `W`
/// sampled with probability `1/x`: each `w ∈ W` receives the `µ ∈ Θ̃(x)`
/// nodes closest to it (ties by node id) as helpers.
#[derive(Debug, Clone)]
pub struct Ks20HelperSets {
    /// For every `w ∈ W`, its helper set.
    pub sets: HashMap<NodeId, Vec<NodeId>>,
    /// The size / radius parameter `µ`.
    pub mu: u64,
}

impl Ks20HelperSets {
    /// Maximum number of helper sets any node belongs to.
    pub fn max_membership(&self, n: usize) -> usize {
        let mut counts = vec![0usize; n];
        for helpers in self.sets.values() {
            for &h in helpers {
                counts[h as usize] += 1;
            }
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Size of the smallest helper set.
    pub fn min_size(&self) -> usize {
        self.sets.values().map(Vec::len).min().unwrap_or(0)
    }
}

/// Lemma 9.2 — computes `[KS20]` helper sets for `W` with parameter `x`,
/// charging `Õ(x)` local rounds.
///
/// The set drafted for `w` is the `µ` nodes closest to `w` (hop distance,
/// ties by node id) within radius `µ`.  The draft runs a level-by-level BFS
/// that **stops as soon as `µ` candidates are banked** — on low-diameter
/// graphs this touches `Θ(µ)` nodes instead of sweeping all `n` and sorting
/// them (the k-SSP scheduler calls this once per skeleton, so the difference
/// is a measurable slice of `reproduce figure1`).  Selection is identical to
/// sorting the full `µ`-ball by `(distance, id)`: BFS levels are complete
/// distance classes, and each banked level is sorted by id.
pub fn ks20_helper_sets(
    net: &mut HybridNetwork,
    graph: &Graph,
    w_set: &[NodeId],
    x: u64,
) -> Ks20HelperSets {
    let x = x.max(1);
    let mu = ((x as f64) * ln_n(graph.n())).ceil() as u64;
    net.charge_local("helpers/ks20-draft", mu.max(1));
    let drafted: Vec<(NodeId, Vec<NodeId>)> = w_set
        .par_iter()
        .map_init(
            || (vec![false; graph.n()], Vec::new(), Vec::new()),
            |(seen, frontier, next), &w| {
                // Level-synchronous BFS banking whole distance classes until
                // µ candidates (or radius µ) are reached.
                let mut helpers: Vec<NodeId> = Vec::with_capacity(mu as usize + 8);
                frontier.clear();
                frontier.push(w);
                seen[w as usize] = true;
                let mut touched: Vec<NodeId> = vec![w];
                let mut depth = 0u64;
                while !frontier.is_empty() && depth <= mu && (helpers.len() as u64) < mu {
                    let level_start = helpers.len();
                    helpers.extend_from_slice(frontier);
                    helpers[level_start..].sort_unstable();
                    next.clear();
                    if depth < mu && (helpers.len() as u64) < mu {
                        for &v in frontier.iter() {
                            for a in graph.arcs(v) {
                                if !seen[a.to as usize] {
                                    seen[a.to as usize] = true;
                                    touched.push(a.to);
                                    next.push(a.to);
                                }
                            }
                        }
                    }
                    std::mem::swap(frontier, next);
                    depth += 1;
                }
                for v in touched {
                    seen[v as usize] = false;
                }
                helpers.truncate((mu as usize).max(1));
                (w, helpers)
            },
        )
        .with_min_len(1)
        .collect();
    let sets: HashMap<NodeId, Vec<NodeId>> = drafted.into_iter().collect();
    Ks20HelperSets { sets, mu }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster_by_nq;
    use crate::nq::NqOracle;
    use crate::prob::sample_with_probability;
    use hybrid_graph::dijkstra::{dijkstra, DijkstraWorkspace};
    use hybrid_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn setup(
        graph: hybrid_graph::Graph,
        k: u64,
    ) -> (Arc<hybrid_graph::Graph>, Clustering, HybridNetwork) {
        let g = Arc::new(graph);
        let oracle = NqOracle::new(&g);
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let clustering = cluster_by_nq(&mut net, &oracle, k);
        (g, clustering, net)
    }

    #[test]
    fn adaptive_sets_cover_w_and_stay_in_cluster() {
        let (g, clustering, mut net) = setup(generators::grid(&[12, 12]).unwrap(), 72);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let prob = (clustering.nq as f64 / clustering.k as f64).min(1.0);
        let w = sample_with_probability(g.n(), prob.max(0.05), &mut rng);
        let sets = adaptive_helper_sets(&mut net, &clustering, &w, &mut rng);
        for &node in &w {
            let helpers = sets.sets.get(&node).expect("every w gets a helper set");
            assert!(!helpers.is_empty());
            // Property (2): helpers within Õ(NQ_k) hops.
            let d = dijkstra(&g, node);
            for &h in helpers {
                assert!(d.dist[h as usize] <= sets.distance_bound);
            }
        }
    }

    #[test]
    fn adaptive_sets_membership_is_small_for_sparse_w() {
        let (g, clustering, mut net) = setup(generators::grid(&[14, 14]).unwrap(), 98);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let prob = (clustering.nq as f64 / clustering.k as f64).min(1.0);
        let w = sample_with_probability(g.n(), prob, &mut rng);
        let sets = adaptive_helper_sets(&mut net, &clustering, &w, &mut rng);
        if !w.is_empty() {
            let log_n = (g.n() as f64).ln();
            assert!(
                (sets.max_membership(g.n()) as f64) <= 40.0 * log_n,
                "membership {} not Õ(1)",
                sets.max_membership(g.n())
            );
        }
    }

    #[test]
    fn adaptive_sets_size_lower_bound_when_q_saturates() {
        // With a tiny workload the sampling probability saturates at 1 and the
        // whole cluster is drafted, so |H_w| >= k / NQ_k deterministically.
        let (g, clustering, mut net) = setup(generators::grid(&[8, 8]).unwrap(), 16);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let w = vec![0 as NodeId, 37, 63];
        let sets = adaptive_helper_sets(&mut net, &clustering, &w, &mut rng);
        let bound = (clustering.k as f64 / clustering.nq as f64).floor() as usize;
        for &node in &w {
            assert!(
                sets.sets[&node].len() >= bound.min(g.n() / clustering.len()),
                "helper set too small"
            );
        }
        assert!(sets.min_size() >= 1);
    }

    #[test]
    fn ks20_sets_have_mu_size_and_radius() {
        let g = generators::grid(&[15, 15]).unwrap();
        let mut net = HybridNetwork::hybrid(Arc::new(g.clone()));
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let x = 5u64;
        let w = sample_with_probability(g.n(), 1.0 / x as f64, &mut rng);
        let sets = ks20_helper_sets(&mut net, &g, &w, x);
        assert!(sets.mu >= x);
        for (&node, helpers) in &sets.sets {
            assert!(!helpers.is_empty());
            let d = dijkstra(&g, node);
            for &h in helpers {
                assert!(d.dist[h as usize] <= sets.mu);
            }
            assert!(helpers.len() as u64 <= sets.mu);
        }
        if !w.is_empty() {
            assert!(sets.min_size() >= 1);
            assert!(sets.max_membership(g.n()) >= 1);
        }
    }

    #[test]
    fn ks20_early_stop_draft_matches_full_ball_sort() {
        // Reference: explore the whole µ-ball, sort by (distance, id), take µ
        // — the pre-optimization implementation.
        for (g, x) in [
            (generators::grid(&[9, 9]).unwrap(), 3u64),
            (generators::path(70).unwrap(), 2),
            (generators::tree_with_n(2, 60).unwrap(), 4),
        ] {
            let w_set: Vec<NodeId> = (0..g.n() as NodeId).step_by(7).collect();
            let mut net = HybridNetwork::hybrid(Arc::new(g.clone()));
            let sets = ks20_helper_sets(&mut net, &g, &w_set, x);
            for &w in &w_set {
                let mut reach = DijkstraWorkspace::new();
                reach.run_bfs_bounded(&g, w, sets.mu);
                let mut candidates: Vec<(u64, NodeId)> = reach
                    .reached()
                    .iter()
                    .map(|&v| (reach.dist()[v as usize], v))
                    .collect();
                candidates.sort_unstable();
                let take = (sets.mu as usize).min(candidates.len()).max(1);
                let reference: Vec<NodeId> =
                    candidates.into_iter().take(take).map(|(_, v)| v).collect();
                assert_eq!(sets.sets[&w], reference, "w = {w}");
            }
        }
    }

    #[test]
    fn ks20_sets_on_path_are_contiguous_neighbourhoods() {
        let g = generators::path(60).unwrap();
        let mut net = HybridNetwork::hybrid(Arc::new(g.clone()));
        let sets = ks20_helper_sets(&mut net, &g, &[30], 4);
        let helpers = &sets.sets[&30];
        let d = dijkstra(&g, 30);
        for &h in helpers {
            assert!(d.dist[h as usize] <= sets.mu);
        }
    }
}
