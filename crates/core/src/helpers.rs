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

use hybrid_graph::unionfind::UnionFind;
use hybrid_graph::{Graph, NodeId};
use hybrid_sim::HybridNetwork;

use crate::cluster::Clustering;
use crate::prob::ln_n;

/// Lemma 5.2 / Algorithm 1 — computes the adaptive helper sets
/// (Definition 5.1) for `W` on top of an `NQ_k`-clustering: for every
/// `w ∈ W`, its helper set `H_w`, drafted inside `w`'s cluster and so within
/// the clustering's weak-diameter bound of `w`.  `W` is expected to be
/// sampled with probability at most `NQ_k / k` (the lemma's pre-condition);
/// the function works for any `W` but the `Õ(1)`-membership property only
/// holds w.h.p. under that condition.
///
/// Charges `Õ(NQ_k)` rounds on `net` for the intra-cluster coordination
/// (learning `C` and `C ∩ W`, drafting helpers).
pub fn adaptive_helper_sets(
    net: &mut HybridNetwork,
    clustering: &Clustering,
    w_set: &[NodeId],
    rng: &mut impl Rng,
) -> HashMap<NodeId, Vec<NodeId>> {
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
    sets
}

/// Lemma 9.2 — the `[KS20]` helper sets (Definition 9.1) for a node set `W`
/// sampled with probability `1/x`, charging `Õ(x)` local rounds, reduced to
/// the one number the Lemma 9.3 schedule reads: the size of the smallest set
/// (0 when `W` is empty).
///
/// Each `w ∈ W` drafts the `µ ∈ Θ̃(x)` nodes closest to it within radius `µ`
/// (hop distance, ties by node id), so `|H_w| = min(µ, |B_µ(w)|)`.  Inside
/// `w`'s component `C_w` every BFS level up to `min(ecc(w), µ)` is
/// non-empty, so `|B_µ(w)| ≥ min(|C_w|, µ + 1)` and `|H_w| = min(µ, |C_w|)`:
/// one union–find pass over the edges gives every size, and no helper list is
/// built.
pub fn ks20_min_helper_set_size(
    net: &mut HybridNetwork,
    graph: &Graph,
    w_set: &[NodeId],
    x: u64,
) -> usize {
    let mu = ks20_mu(graph.n(), x);
    net.charge_local("helpers/ks20-draft", mu);
    let mut components = UnionFind::of_graph(graph);
    w_set
        .iter()
        .map(|&w| components.set_size(w as usize).min(mu as usize))
        .min()
        .unwrap_or(0)
}

/// The `[KS20]` size / radius parameter `µ = ⌈x·ln n⌉`.
fn ks20_mu(n: usize, x: u64) -> u64 {
    ((x.max(1) as f64) * ln_n(n)).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster_by_nq;
    use crate::nq::NqOracle;
    use crate::prob::sample_with_probability;
    use hybrid_graph::dijkstra::{dijkstra, DijkstraWorkspace};
    use hybrid_graph::{generators, GraphBuilder};
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
            let helpers = sets.get(&node).expect("every w gets a helper set");
            assert!(!helpers.is_empty());
            // Property (2): helpers within Õ(NQ_k) hops.
            let d = dijkstra(&g, node);
            for &h in helpers {
                assert!(d.dist[h as usize] <= clustering.weak_diameter_bound);
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
            // Property (3): every node sits in Õ(1) helper sets.
            let mut counts = vec![0usize; g.n()];
            for &h in sets.values().flatten() {
                counts[h as usize] += 1;
            }
            let max_membership = counts.into_iter().max().unwrap();
            let log_n = (g.n() as f64).ln();
            assert!(
                (max_membership as f64) <= 40.0 * log_n,
                "membership {max_membership} not Õ(1)"
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
                sets[&node].len() >= bound.min(g.n() / clustering.len()),
                "helper set too small"
            );
        }
        assert!(sets.values().all(|helpers| !helpers.is_empty()));
    }

    #[test]
    fn ks20_min_size_is_the_smallest_bounded_ball_draft() {
        // A 40-node path, a triangle and an isolated node: two components
        // smaller than µ = ⌈2·ln 44⌉ = 8.
        let mut b = GraphBuilder::new(44);
        for v in 0..39 {
            b.add_edge(v, v + 1, 1).unwrap();
        }
        for (u, v) in [(40, 41), (41, 42), (40, 42)] {
            b.add_edge(u, v, 1).unwrap();
        }
        let disconnected = b.build_unchecked_connectivity();
        for (g, x) in [
            (generators::path(70).unwrap(), 2u64),
            (generators::grid(&[9, 9]).unwrap(), 3),
            (generators::tree_with_n(2, 60).unwrap(), 4),
            (generators::erdos_renyi(80, 0.03, 11).unwrap(), 2),
            (disconnected, 2),
            // n = 9 ≤ µ = ⌈5·ln 9⌉ = 11: every draft is the whole graph.
            (generators::grid(&[3, 3]).unwrap(), 5),
        ] {
            // Reference: the draft itself, the closest µ nodes of w's µ-ball.
            let mu = ks20_mu(g.n(), x);
            let mut ball = DijkstraWorkspace::new();
            let draft: Vec<usize> = g
                .nodes()
                .map(|w| {
                    ball.run_bfs_bounded(&g, w, mu);
                    ball.reached().len().min(mu as usize)
                })
                .collect();
            let mut net = HybridNetwork::hybrid(Arc::new(g.clone()));
            for w in g.nodes() {
                let size = ks20_min_helper_set_size(&mut net, &g, &[w], x);
                assert_eq!(size, draft[w as usize], "n = {}, w = {w}", g.n());
            }
            assert_eq!(net.rounds(), g.n() as u64 * mu, "µ local rounds per draft");
            let everyone: Vec<NodeId> = g.nodes().collect();
            assert_eq!(
                ks20_min_helper_set_size(&mut net, &g, &everyone, x),
                *draft.iter().min().unwrap()
            );
            assert_eq!(ks20_min_helper_set_size(&mut net, &g, &[], x), 0);
        }
    }
}
