//! Ruling sets (Definition 3.4) and the `NQ_k`-clustering of Lemma 3.5.
//!
//! The clustering partitions `V` into clusters of weak diameter
//! `≤ 4·NQ_k·⌈log n⌉` and size `Θ(k/NQ_k)`, each with a leader.  It is the
//! backbone of the universal broadcast (Theorem 1), aggregation (Theorem 2),
//! the adaptive helper sets (Lemma 5.2) and the unweighted APSP algorithm
//! (Theorem 6).

use hybrid_graph::dijkstra::DijkstraWorkspace;
use hybrid_graph::{Graph, NodeId};
use hybrid_sim::HybridNetwork;

use crate::nq::{compute_nq, NqOracle};

/// A cluster of the Lemma 3.5 partition.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The cluster leader `r(C)` (the ruling-set node, or the minimum-id
    /// member for clusters created by splitting).
    pub leader: NodeId,
    /// All members of the cluster, including the leader.
    pub members: Vec<NodeId>,
}

impl Cluster {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty (never true for valid clusterings).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The full partition produced by [`cluster_by_nq`].
#[derive(Debug, Clone)]
pub struct Clustering {
    /// The clusters.
    pub clusters: Vec<Cluster>,
    /// For every node, the index of its cluster in [`Clustering::clusters`].
    pub cluster_of: Vec<usize>,
    /// The `NQ_k` value the clustering was built for.
    pub nq: u64,
    /// The workload `k` the clustering was built for.
    pub k: u64,
    /// Upper bound on the weak diameter of every cluster.
    ///
    /// Lemma 3.5 guarantees `4·NQ_k·⌈log n⌉` using the `[KMW18]` ruling set;
    /// the greedy ruling set used here has domination radius `2·NQ_k`
    /// (strictly stronger), so the bound is `4·NQ_k`.
    pub weak_diameter_bound: u64,
}

impl Clustering {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters (never true for valid clusterings).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster containing node `v`.
    pub fn cluster_of_node(&self, v: NodeId) -> &Cluster {
        &self.clusters[self.cluster_of[v as usize]]
    }

    /// Checks the Lemma 3.5 invariants on `graph`:
    /// * the clusters partition `V`;
    /// * every member is within [`Clustering::weak_diameter_bound`] hops of
    ///   its cluster leader (every member is within `2·NQ_k` hops of the
    ///   original ruler, so pairwise — and in particular to the leader of a
    ///   cluster produced by splitting — at most `4·NQ_k` hops).
    ///
    /// Returns an error message describing the first violated invariant.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        let n = graph.n();
        let mut seen = vec![false; n];
        for (idx, c) in self.clusters.iter().enumerate() {
            if c.is_empty() {
                return Err(format!("cluster {idx} is empty"));
            }
            if !c.members.contains(&c.leader) {
                return Err(format!("cluster {idx} leader not a member"));
            }
            for &v in &c.members {
                if seen[v as usize] {
                    return Err(format!("node {v} appears in two clusters"));
                }
                seen[v as usize] = true;
                if self.cluster_of[v as usize] != idx {
                    return Err(format!("cluster_of[{v}] inconsistent"));
                }
            }
        }
        if seen.iter().any(|&s| !s) {
            return Err("some node belongs to no cluster".to_string());
        }
        let half_bound = self.weak_diameter_bound.max(1);
        let mut ws = DijkstraWorkspace::new();
        for c in &self.clusters {
            ws.run_bfs_bounded(graph, c.leader, half_bound);
            for &v in &c.members {
                if ws.dist()[v as usize] > half_bound {
                    return Err(format!(
                        "node {v} is more than {half_bound} hops from leader {}",
                        c.leader
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Greedy `(α, α−1)`-ruling set (Definition 3.4): every pair of rulers is at
/// hop distance `≥ α` and every node has a ruler within `α − 1` hops.
///
/// Rulers are chosen in increasing id order, which makes the construction
/// deterministic (the distributed implementation of `[KMW18]` that the paper
/// uses achieves `(µ+1, µ⌈log n⌉)` in `O(µ log n)` CONGEST rounds; the greedy
/// set satisfies strictly stronger domination, and callers charge the same
/// `O(µ log n)` rounds).
pub fn ruling_set(graph: &Graph, alpha: u64) -> Vec<NodeId> {
    assert!(alpha >= 1, "ruling-set spacing must be at least 1");
    let n = graph.n();
    let mut dominated = vec![false; n];
    let mut rulers = Vec::new();
    let mut ws = DijkstraWorkspace::with_capacity(n);
    for v in 0..n as NodeId {
        if dominated[v as usize] {
            continue;
        }
        rulers.push(v);
        // Mark everything within alpha - 1 hops as dominated (one bounded
        // BFS on the shared workspace — no per-ruler allocation).
        ws.run_bfs_bounded(graph, v, alpha - 1);
        for &u in ws.reached() {
            dominated[u as usize] = true;
        }
    }
    rulers
}

/// The Lemma 3.5 clustering: partitions `V` into clusters of weak diameter
/// `≤ 4·NQ_k·⌈log n⌉`, size `Θ(k/NQ_k)` (exact bounds `[k/NQ_k, 2k/NQ_k]`
/// whenever `NQ_k < D`), each with a leader.
///
/// Charges `Õ(NQ_k)` rounds on `net`: the distributed `NQ_k` computation
/// (Lemma 3.3), the ruling-set construction (`O(NQ_k log n)`), learning the
/// closest ruler (`2·NQ_k·⌈log n⌉` local rounds) and the intra-cluster flood
/// (`4·NQ_k·⌈log n⌉` local rounds).
pub fn cluster_by_nq(net: &mut HybridNetwork, oracle: &NqOracle, k: u64) -> Clustering {
    // Phase 1: compute NQ_k distributedly (Lemma 3.3).
    let nq = compute_nq(net, oracle, k.max(1)).nq.max(1);
    cluster_with_radius(net, nq, k)
}

/// The same clustering with an explicitly prescribed radius parameter
/// (instead of `NQ_k`).  This is how the *existentially optimal* baselines of
/// `[AHK+20]`/`[KS20]` arise: they run the identical machinery with the
/// worst-case radius `√k` (the only bound available without inspecting the
/// topology), whereas the universal algorithms use the measured `NQ_k`.
pub fn cluster_with_radius(net: &mut HybridNetwork, radius: u64, k: u64) -> Clustering {
    let graph = net.graph_arc();
    let n = graph.n();
    let k = k.max(1);
    let log_n = net.log_n();
    let nq = radius.max(1);

    // Phase 2: (2·r + 1, ·)-ruling set, charged O(r log n) rounds.
    let alpha = 2 * nq + 1;
    let rulers = ruling_set(&graph, alpha);
    net.charge_rounds("clustering/ruling-set", nq * log_n.max(1));

    // Phase 3: every node joins the cluster of its closest ruler
    // (ties to the smaller id), learned by exploring 2·NQ_k·⌈log n⌉ hops.
    // One BFS from all rulers (ascending, as `ruling_set` returns them): a
    // node's BFS parent is settled before it and descends from its closest
    // ruler.
    let mut ws = DijkstraWorkspace::with_capacity(n);
    ws.run_bfs_multi(&graph, &rulers, u64::MAX);
    let mut cluster_index: Vec<Option<usize>> = vec![None; n];
    for (i, &r) in rulers.iter().enumerate() {
        cluster_index[r as usize] = Some(i);
    }
    for &v in ws.reached() {
        if let Some(p) = ws.parent()[v as usize] {
            cluster_index[v as usize] = cluster_index[p as usize];
        }
    }
    net.charge_local("clustering/find-ruler", 2 * nq);

    let mut raw_clusters: Vec<Vec<NodeId>> = vec![Vec::new(); rulers.len()];
    for v in 0..n as NodeId {
        let i = cluster_index[v as usize].expect("graph is connected");
        raw_clusters[i].push(v);
    }

    // Phase 4: flood within clusters so every member learns its cluster,
    // charged by the weak-diameter bound.
    net.charge_local("clustering/learn-cluster", 4 * nq);

    // Phase 5: split oversized clusters locally (no communication).
    let target_min = k.div_ceil(nq).max(1) as usize; // ceil(k / NQ_k)
    let target_max = 2 * target_min;
    let mut clusters = Vec::new();
    for (i, members) in raw_clusters.into_iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        if members.len() <= target_max {
            clusters.push(Cluster {
                leader: rulers[i],
                members,
            });
            continue;
        }
        let chunks = (members.len() / target_min).max(1);
        let chunk_size = members.len().div_ceil(chunks);
        for chunk in members.chunks(chunk_size) {
            let leader = if chunk.contains(&rulers[i]) {
                rulers[i]
            } else {
                *chunk.iter().min().expect("non-empty chunk")
            };
            clusters.push(Cluster {
                leader,
                members: chunk.to_vec(),
            });
        }
    }

    let mut cluster_of = vec![usize::MAX; n];
    for (idx, c) in clusters.iter().enumerate() {
        for &v in &c.members {
            cluster_of[v as usize] = idx;
        }
    }

    Clustering {
        clusters,
        cluster_of,
        nq,
        k,
        weak_diameter_bound: 4 * nq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::dijkstra::dijkstra;
    use hybrid_graph::generators;
    use hybrid_sim::ModelParams;
    use std::sync::Arc;

    fn make(graph: hybrid_graph::Graph, k: u64) -> (Clustering, u64, hybrid_graph::Graph) {
        let g = Arc::new(graph);
        let oracle = NqOracle::new(&g);
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let clustering = cluster_by_nq(&mut net, &oracle, k);
        let rounds = net.rounds();
        (
            clustering,
            rounds,
            Arc::try_unwrap(g).unwrap_or_else(|a| (*a).clone()),
        )
    }

    #[test]
    fn ruling_set_spacing_and_domination() {
        let g = generators::grid(&[8, 8]).unwrap();
        for alpha in [1u64, 2, 3, 5] {
            let rulers = ruling_set(&g, alpha);
            assert!(!rulers.is_empty());
            // Spacing: pairwise distance >= alpha.
            for (i, &a) in rulers.iter().enumerate() {
                let d = dijkstra(&g, a);
                for &b in rulers.iter().skip(i + 1) {
                    assert!(d.dist[b as usize] >= alpha, "alpha={alpha}");
                }
            }
            // Domination: every node within alpha - 1 of some ruler.
            let mut ws = DijkstraWorkspace::new();
            ws.run_bfs_multi(&g, &rulers, u64::MAX);
            assert!(ws.dist().iter().all(|&d| d <= alpha.saturating_sub(1)));
        }
    }

    #[test]
    fn ruling_set_alpha_one_is_everyone() {
        let g = generators::path(7).unwrap();
        assert_eq!(ruling_set(&g, 1).len(), 7);
    }

    #[test]
    fn clustering_is_valid_partition_on_families() {
        for (g, k) in [
            (generators::path(64).unwrap(), 16u64),
            (generators::grid(&[10, 10]).unwrap(), 50),
            (generators::tree_with_n(2, 127).unwrap(), 32),
            (generators::cycle(60).unwrap(), 60),
        ] {
            let (clustering, _, g) = make(g, k);
            clustering.validate(&g).expect("valid clustering");
            assert_eq!(clustering.cluster_of.len(), g.n());
        }
    }

    #[test]
    fn clustering_cluster_sizes_near_k_over_nq() {
        let g = generators::grid(&[16, 16]).unwrap();
        let k = 128u64;
        let (clustering, _, g) = make(g, k);
        clustering.validate(&g).unwrap();
        let target_min = (k as usize).div_ceil(clustering.nq as usize);
        // Splitting guarantees the maximum; the minimum holds for clusters
        // around actual rulers whenever NQ_k < D (Lemma 3.5).
        assert!(clustering
            .clusters
            .iter()
            .all(|c| (1..=3 * target_min).contains(&c.len())));
        // At least one cluster must meet the lower bound.
        assert!(clustering.clusters.iter().any(|c| c.len() >= target_min));
    }

    #[test]
    fn clustering_rounds_are_near_nq() {
        let g = generators::grid(&[12, 12]).unwrap();
        let (clustering, rounds, g) = make(g, 72);
        let log_n = ModelParams::log_n(g.n()) as u64;
        assert!(rounds >= clustering.nq);
        assert!(
            rounds <= 20 * clustering.nq * log_n * log_n,
            "rounds {rounds} not Õ(NQ_k) for nq={}",
            clustering.nq
        );
    }

    #[test]
    fn clustering_single_node_graph() {
        let g = hybrid_graph::GraphBuilder::new(1).build().unwrap();
        let (clustering, _, g) = make(g, 5);
        assert_eq!(clustering.len(), 1);
        clustering.validate(&g).unwrap();
    }

    #[test]
    fn cluster_of_node_lookup() {
        let g = generators::cycle(30).unwrap();
        let (clustering, _, _) = make(g, 10);
        for v in 0..30u32 {
            assert!(clustering.cluster_of_node(v).members.contains(&v));
        }
    }

    #[test]
    fn validate_detects_corruption() {
        let g = generators::path(10).unwrap();
        let (mut clustering, _, g) = make(g, 4);
        clustering.validate(&g).unwrap();
        // Corrupt: drop a node from its cluster.
        let victim = clustering.clusters[0].members.pop().unwrap();
        let err = clustering.validate(&g).unwrap_err();
        assert!(err.contains("no cluster") || err.contains(&victim.to_string()));
    }
}
