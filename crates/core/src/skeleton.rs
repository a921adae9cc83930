//! Skeleton graphs (Definition 6.2, Lemma 6.3) — the classical sampling
//! technique of Ullman & Yannakakis used by the weighted APSP algorithm
//! (Theorem 8), the k-SSP scheduling framework (Section 9) and the
//! existentially optimal baselines.
//!
//! A skeleton graph `S = (V_S, E_S, ω_S)` samples every node independently
//! with probability `1/x`, connects two skeleton nodes whenever they are
//! within `h = ξ·x·ln n` hops, and weights the edge by the `h`-hop-limited
//! distance.  W.h.p. every sufficiently long shortest path of `G` passes
//! through skeleton nodes every `h` hops, so skeleton distances equal graph
//! distances between skeleton nodes (Lemma 6.3).
//!
//! The construction's raw material — one `h`-hop-limited distance row per
//! skeleton node, swept by [`DistanceRows::hop_limited`] — is kept on the
//! [`SkeletonGraph`] as a [`crate::minplus::RowMatrix`] (the swept table,
//! moved, plus its finite spans): the k-SSP data level composes labels
//! directly against these rows with the shared `(min, +)` kernel
//! ([`crate::minplus`]), so they are computed exactly once.  The explicit
//! edge-list [`Graph`] of the skeleton (dense on low-diameter inputs) is only
//! materialized on demand via [`SkeletonGraph::graph`]; consumers that never
//! touch it (the common k-SSP path) skip the build entirely.

use std::sync::OnceLock;

use rand::Rng;

use hybrid_graph::{Graph, GraphBuilder, NodeId, Weight, INFINITY};
use hybrid_sim::HybridNetwork;

use crate::minplus::RowMatrix;
use crate::prob::ln_n;
use crate::rows::DistanceRows;

/// The constant `ξ` of Definition 6.2 (any sufficiently large constant works;
/// the tests verify the distance-preservation property empirically).
pub const XI: f64 = 3.0;

/// A skeleton graph together with the data needed to translate between the
/// skeleton and the original graph.
#[derive(Debug, Default)]
pub struct SkeletonGraph {
    /// The skeleton nodes (original ids, sorted).
    pub nodes: Vec<NodeId>,
    /// Position of each original node in [`SkeletonGraph::nodes`]
    /// (`usize::MAX` if not sampled).
    pub index_of: Vec<usize>,
    /// The `h`-hop-limited distance row of every skeleton node (`rows.row(i)`
    /// is `d^h(nodes[i], ·)` over all of `G`), with finite spans precomputed
    /// for the `(min, +)` kernel.
    pub rows: RowMatrix,
    /// Whether **every** row reached its Bellman–Ford fixpoint within `h`
    /// rounds — then `rows` holds exact distances `d(nodes[i], ·)`, the
    /// skeleton metric closure is the identity (triangle inequality), and
    /// consumers skip the skeleton-SSSP step (see
    /// [`crate::kssp`]).
    pub converged: bool,
    /// The hop parameter `h = ξ·x·ln n`.
    pub h: u64,
    /// The sampling parameter `x` (sampling probability `1/x`).
    pub x: f64,
    /// Lazily built explicit skeleton graph (see [`SkeletonGraph::graph`]).
    graph: OnceLock<Graph>,
}

impl Clone for SkeletonGraph {
    fn clone(&self) -> Self {
        let graph = OnceLock::new();
        if let Some(g) = self.graph.get() {
            let _ = graph.set(g.clone());
        }
        SkeletonGraph {
            nodes: self.nodes.clone(),
            index_of: self.index_of.clone(),
            rows: self.rows.clone(),
            converged: self.converged,
            h: self.h,
            x: self.x,
            graph,
        }
    }
}

impl SkeletonGraph {
    /// Whether the original node `v` is a skeleton node.
    pub fn contains(&self, v: NodeId) -> bool {
        self.index_of[v as usize] != usize::MAX
    }

    /// Number of skeleton nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the skeleton is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The explicit skeleton graph (node `i` is `nodes[i]`; two skeleton
    /// nodes are adjacent iff within `h` hops, weighted by the
    /// `h`-hop-limited distance), built from [`SkeletonGraph::rows`] on first
    /// use.
    ///
    /// On low-diameter graphs this is near-complete (`Θ(|S|²)` edges), so
    /// algorithms that can work on `rows` directly — the k-SSP data level —
    /// never call this; Theorem 8's spanner construction does.
    pub fn graph(&self) -> &Graph {
        self.graph.get_or_init(|| {
            let mut builder = GraphBuilder::new(self.nodes.len());
            for (i, dist) in self.rows.rows().iter().enumerate() {
                for (j, &v) in self.nodes.iter().enumerate().skip(i + 1) {
                    let d = dist[v as usize];
                    if d != INFINITY {
                        builder
                            .add_edge(i as NodeId, j as NodeId, d.max(1))
                            .expect("valid edge");
                    }
                }
            }
            builder.build_unchecked_connectivity()
        })
    }

    /// The skeleton-metric weight of the (potential) edge between skeleton
    /// positions `i` and `j`: the `h`-hop-limited distance between their
    /// nodes clamped to ≥ 1, or [`INFINITY`] when they are more than `h` hops
    /// apart (matching the edge set of [`SkeletonGraph::graph`]).
    #[inline]
    pub fn edge_weight(&self, i: usize, j: usize) -> Weight {
        if i == j {
            return 0;
        }
        let d = self.rows.row(i)[self.nodes[j] as usize];
        if d == INFINITY {
            INFINITY
        } else {
            d.max(1)
        }
    }

    /// Single-source shortest paths on the skeleton graph from position
    /// `source`, computed directly over the stored rows with a dense `O(|S|²)`
    /// array Dijkstra — the skeleton is near-complete on low-diameter inputs,
    /// where scanning the weight rows beats a heap over `Θ(|S|²)` explicit
    /// arcs, and the explicit [`SkeletonGraph::graph`] need never be built.
    ///
    /// Distances are identical to a Dijkstra run on the explicit skeleton
    /// graph (same metric, and shortest-path distances are unique).
    pub fn sssp(&self, source: usize) -> Vec<Weight> {
        let s_len = self.len();
        let mut dist = vec![INFINITY; s_len];
        let mut visited = vec![false; s_len];
        dist[source] = 0;
        loop {
            let mut u = usize::MAX;
            let mut best = INFINITY;
            for (j, &d) in dist.iter().enumerate() {
                if !visited[j] && d < best {
                    best = d;
                    u = j;
                }
            }
            if u == usize::MAX {
                break;
            }
            visited[u] = true;
            let row = self.rows.row(u);
            for (j, slot) in dist.iter_mut().enumerate() {
                if visited[j] {
                    continue;
                }
                let w = row[self.nodes[j] as usize];
                if w != INFINITY {
                    let nd = best.saturating_add(w.max(1));
                    if nd < *slot {
                        *slot = nd;
                    }
                }
            }
        }
        dist
    }
}

/// Builds a skeleton graph with sampling probability `1/x`, forcing the nodes
/// in `forced` to be included (the k-SSP algorithm adds the sources,
/// Theorem 14).  Charges `h ∈ Õ(x)` local rounds on `net` (Lemma 6.3: the
/// construction is pure local communication).
pub fn build_skeleton(
    net: &mut HybridNetwork,
    x: f64,
    forced: &[NodeId],
    rng: &mut impl Rng,
) -> SkeletonGraph {
    assert!(x >= 1.0, "sampling parameter x must be at least 1");
    let graph = net.graph_arc();
    let n = graph.n();
    let h = ((XI * x * ln_n(n)).ceil() as u64).max(1);

    let mut sampled = vec![false; n];
    for &f in forced {
        sampled[f as usize] = true;
    }
    let p = 1.0 / x;
    for slot in sampled.iter_mut() {
        if !*slot && rng.gen_bool(p.min(1.0)) {
            *slot = true;
        }
    }
    // Guarantee at least one skeleton node so downstream code never deals
    // with an empty skeleton.
    if !sampled.iter().any(|&s| s) {
        sampled[0] = true;
    }

    let nodes: Vec<NodeId> = (0..n as NodeId).filter(|&v| sampled[v as usize]).collect();
    let mut index_of = vec![usize::MAX; n];
    for (i, &v) in nodes.iter().enumerate() {
        index_of[v as usize] = i;
    }

    // The h-hop-limited distance rows — what h rounds of local flooding give
    // every node about each skeleton node.  Each sweep also reports whether
    // it reached its fixpoint (then the row is exact, not just h-hop-limited).
    net.charge_local("skeleton/construct", h);
    let (rows, converged) = DistanceRows::hop_limited(&graph, &nodes, h as usize);
    SkeletonGraph {
        nodes,
        index_of,
        rows: RowMatrix::new(rows.into_rows()),
        converged: converged.iter().all(|&c| c),
        h,
        x,
        graph: OnceLock::new(),
    }
}

/// Checks Lemma 6.3 (2): for skeleton nodes `u, v`, the skeleton distance
/// equals the true distance in `G`.  Returns the worst ratio observed over
/// the given sample of skeleton node pairs (1.0 means exact).
pub fn skeleton_distance_fidelity(graph: &Graph, skeleton: &SkeletonGraph, samples: usize) -> f64 {
    let mut worst: f64 = 1.0;
    let count = samples.min(skeleton.len());
    for i in 0..count {
        let u = skeleton.nodes[i];
        let exact = hybrid_graph::dijkstra::dijkstra(graph, u).dist;
        let sk = hybrid_graph::dijkstra::dijkstra(skeleton.graph(), i as NodeId).dist;
        for (j, &v) in skeleton.nodes.iter().enumerate() {
            if exact[v as usize] == 0 {
                continue;
            }
            if sk[j] == INFINITY {
                return f64::INFINITY;
            }
            worst = worst.max(sk[j] as f64 / exact[v as usize] as f64);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn setup(graph: hybrid_graph::Graph) -> (Arc<hybrid_graph::Graph>, HybridNetwork) {
        let g = Arc::new(graph);
        let net = HybridNetwork::hybrid(Arc::clone(&g));
        (g, net)
    }

    #[test]
    fn skeleton_contains_forced_nodes_and_charges_h_rounds() {
        let (_, mut net) = setup(generators::grid(&[10, 10]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sk = build_skeleton(&mut net, 4.0, &[0, 55, 99], &mut rng);
        assert!(sk.contains(0) && sk.contains(55) && sk.contains(99));
        assert!(!sk.is_empty());
        assert_eq!(net.rounds(), sk.h);
        assert_eq!(sk.nodes.len(), sk.graph().n());
        assert_eq!(sk.rows.len(), sk.nodes.len());
    }

    #[test]
    fn skeleton_distances_match_graph_distances() {
        let (g, mut net) = setup(generators::grid(&[9, 9]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sk = build_skeleton(&mut net, 3.0, &[], &mut rng);
        let fidelity = skeleton_distance_fidelity(&g, &sk, 10);
        assert!(
            (fidelity - 1.0).abs() < 1e-9,
            "skeleton distances off by factor {fidelity}"
        );
    }

    #[test]
    fn skeleton_distances_match_on_weighted_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g0 = generators::weighted_grid(&[8, 8], 12, 3).unwrap();
        let (g, mut net) = setup(g0);
        let sk = build_skeleton(&mut net, 2.5, &[], &mut rng);
        let fidelity = skeleton_distance_fidelity(&g, &sk, 8);
        assert!((fidelity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skeleton_size_close_to_n_over_x() {
        let (g, mut net) = setup(generators::grid(&[20, 20]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x = 5.0;
        let sk = build_skeleton(&mut net, x, &[], &mut rng);
        let expected = g.n() as f64 / x;
        assert!((sk.len() as f64) > expected / 3.0);
        assert!((sk.len() as f64) < expected * 3.0);
    }

    #[test]
    fn empty_sampling_still_yields_a_node() {
        let (_, mut net) = setup(generators::path(30).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Astronomically small sampling probability: forced fallback to node 0.
        let sk = build_skeleton(&mut net, 1e9, &[], &mut rng);
        assert!(!sk.is_empty());
    }

    #[test]
    fn converged_rows_are_exact_distances() {
        // h = 3·x·ln n far exceeds the grid's diameter at x = 4 — every sweep
        // reaches its fixpoint and the rows must equal exact distances.
        let (g, mut net) = setup(generators::grid(&[7, 7]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sk = build_skeleton(&mut net, 4.0, &[0], &mut rng);
        assert!(sk.converged);
        for (i, &u) in sk.nodes.iter().enumerate() {
            let exact = hybrid_graph::dijkstra::dijkstra(&g, u).dist;
            assert_eq!(sk.rows.row(i), exact.as_slice(), "row {i} not exact");
        }
    }

    #[test]
    fn edge_weight_matches_built_graph() {
        let (_, mut net) = setup(generators::path(40).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let sk = build_skeleton(&mut net, 2.0, &[], &mut rng);
        let g = sk.graph().clone();
        let exact = hybrid_graph::dijkstra::apsp_exact(&g);
        for (i, exact_row) in exact.iter().enumerate() {
            for (j, &d) in exact_row.iter().enumerate() {
                let w = sk.edge_weight(i, j);
                if i == j {
                    assert_eq!(w, 0);
                } else if w != INFINITY {
                    // A direct skeleton edge exists; the built graph's
                    // distance can only be ≤ its weight.
                    assert!(d <= w);
                }
            }
        }
    }

    #[test]
    fn dense_sssp_matches_graph_dijkstra() {
        // A long path keeps h = 3·x·ln n well below the diameter, so the
        // sweeps do NOT converge and the metric closure is non-trivial.
        let (_, mut net) = setup(generators::path(60).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let sk = build_skeleton(&mut net, 2.0, &[], &mut rng);
        assert!(!sk.converged);
        for i in 0..sk.len() {
            let dense = sk.sssp(i);
            let via_graph = hybrid_graph::dijkstra::dijkstra(sk.graph(), i as NodeId).dist;
            assert_eq!(dense, via_graph, "source {i}");
        }
    }

    #[test]
    fn clone_preserves_lazy_graph_state() {
        let (_, mut net) = setup(generators::path(25).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let sk = build_skeleton(&mut net, 2.0, &[], &mut rng);
        let cloned_cold = sk.clone();
        let n1 = sk.graph().n();
        let cloned_warm = sk.clone();
        assert_eq!(cloned_cold.graph().n(), n1);
        assert_eq!(cloned_warm.graph().n(), n1);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn x_below_one_panics() {
        let (_, mut net) = setup(generators::path(10).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        build_skeleton(&mut net, 0.5, &[], &mut rng);
    }
}
