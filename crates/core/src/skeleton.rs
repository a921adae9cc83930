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
//! The construction has two halves.  `sample_skeleton` draws the skeleton
//! nodes and charges the `h` local rounds; `SkeletonSample::sweep` then
//! sweeps one `h`-hop-limited distance row per skeleton node
//! ([`DistanceRows::hop_limited`]) and keeps them on the [`SkeletonGraph`] as
//! a [`crate::minplus::RowMatrix`] (the swept rows, moved, plus their finite
//! spans).  [`build_skeleton`] is the two halves back to back.  The sweep
//! adopts rows a caller has already swept instead of sweeping them again:
//! the k-SSP data level ([`crate::kssp`]) sweeps its source rows first and
//! sweeps the skeleton table only when some source must compose through it,
//! with the shared `(min, +)` kernel ([`crate::minplus`]).  Every row is
//! swept exactly once, and exactness is a per-row fact: each sweep reports
//! whether it reached its fixpoint.  The explicit edge-list [`Graph`] of the
//! skeleton (dense on low-diameter inputs) is only built on demand by
//! [`SkeletonGraph::graph`]; consumers that never touch it (the common k-SSP
//! path) skip the build entirely.

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
#[derive(Debug, Clone, Default)]
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
    /// `h`-hop-limited distance), built from [`SkeletonGraph::rows`] on every
    /// call.
    ///
    /// On low-diameter graphs this is near-complete (`Θ(|S|²)` edges), so
    /// algorithms that can work on `rows` directly — the k-SSP data level —
    /// never call this; Theorem 8's spanner construction does, once per run.
    pub fn graph(&self) -> Graph {
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
    /// Each step is one pass over the unsettled positions: it relaxes them
    /// from the node just settled and picks the next one to settle.
    ///
    /// Distances are identical to a Dijkstra run on the explicit skeleton
    /// graph (same metric, and shortest-path distances are unique).
    pub fn sssp(&self, source: usize) -> Vec<Weight> {
        let mut dist = vec![INFINITY; self.len()];
        dist[source] = 0;
        // Unsettled (position, node) pairs, in position order.
        let mut pending: Vec<(usize, usize)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != source)
            .map(|(j, &v)| (j, v as usize))
            .collect();
        let mut u = source;
        loop {
            let (base, row) = (dist[u], self.rows.row(u));
            let mut next = None;
            let mut best = INFINITY;
            for (p, &(j, v)) in pending.iter().enumerate() {
                // A missing edge (`INFINITY`) saturates and never relaxes.
                let d = dist[j].min(base.saturating_add(row[v].max(1)));
                dist[j] = d;
                if d < best {
                    best = d;
                    next = Some(p);
                }
            }
            let Some(p) = next else { break };
            u = pending.remove(p).0;
        }
        dist
    }
}

/// The sampling half of a skeleton construction: the skeleton nodes and the
/// hop parameter, before any row is swept.  [`SkeletonSample::sweep`]
/// completes it into a [`SkeletonGraph`] with the same fields.
#[derive(Debug)]
pub(crate) struct SkeletonSample {
    /// The skeleton nodes (original ids, sorted).
    pub(crate) nodes: Vec<NodeId>,
    /// Position of each original node in [`SkeletonSample::nodes`]
    /// (`usize::MAX` if not sampled).
    pub(crate) index_of: Vec<usize>,
    /// The hop parameter `h = ξ·x·ln n`.
    pub(crate) h: u64,
    /// The sampling parameter `x` (sampling probability `1/x`).
    x: f64,
}

impl SkeletonSample {
    /// Whether the original node `v` is a skeleton node.
    pub(crate) fn contains(&self, v: NodeId) -> bool {
        self.index_of[v as usize] != usize::MAX
    }

    /// The sweep half of the construction: the `h`-hop-limited row of every
    /// skeleton node over `graph`.  `swept(i)` hands over a row the caller
    /// has already swept for position `i`, with its fixpoint flag; only the
    /// positions it returns `None` for are swept here, so no row is swept
    /// twice.
    pub(crate) fn sweep(
        self,
        graph: &Graph,
        swept: impl FnMut(usize) -> Option<(Vec<Weight>, bool)>,
    ) -> SkeletonGraph {
        let given: Vec<Option<(Vec<Weight>, bool)>> = (0..self.nodes.len()).map(swept).collect();
        let missing: Vec<NodeId> = self
            .nodes
            .iter()
            .zip(&given)
            .filter(|(_, row)| row.is_none())
            .map(|(&v, _)| v)
            .collect();
        let (fresh, fresh_converged) = DistanceRows::hop_limited(graph, &missing, self.h as usize);
        let mut fresh = fresh.into_rows().into_iter().zip(fresh_converged);
        let mut converged = true;
        let rows = given
            .into_iter()
            .map(|row| {
                let (row, exact) = row
                    .or_else(|| fresh.next())
                    .expect("one sweep per missing row");
                converged &= exact;
                row
            })
            .collect();
        SkeletonGraph {
            nodes: self.nodes,
            index_of: self.index_of,
            rows: RowMatrix::new(rows),
            converged,
            h: self.h,
            x: self.x,
        }
    }
}

/// Builds a skeleton graph with sampling probability `1/x`, forcing the nodes
/// in `forced` to be included (the k-SSP algorithm adds the sources,
/// Theorem 14).  Charges `h ∈ Õ(x)` local rounds on `net` (Lemma 6.3: the
/// construction is pure local communication).
///
/// This is `sample_skeleton` followed by a full `SkeletonSample::sweep`.
pub fn build_skeleton(
    net: &mut HybridNetwork,
    x: f64,
    forced: &[NodeId],
    rng: &mut impl Rng,
) -> SkeletonGraph {
    let sample = sample_skeleton(net, x, forced, rng);
    sample.sweep(&net.graph_arc(), |_| None)
}

/// The sampling half of [`build_skeleton`]: draws every node independently
/// with probability `1/x` (the nodes in `forced` always), and charges the
/// construction's `h` local rounds on `net`.  The rows are left to
/// [`SkeletonSample::sweep`].
pub(crate) fn sample_skeleton(
    net: &mut HybridNetwork,
    x: f64,
    forced: &[NodeId],
    rng: &mut impl Rng,
) -> SkeletonSample {
    assert!(x >= 1.0, "sampling parameter x must be at least 1");
    let n = net.graph().n();
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

    // The h rounds of local flooding that give every node the h-hop-limited
    // distance to each skeleton node — the rows the sweep half computes.
    net.charge_local("skeleton/construct", h);
    SkeletonSample {
        nodes,
        index_of,
        h,
        x,
    }
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

    /// Checks Lemma 6.3 (2): for skeleton nodes `u, v`, the skeleton distance
    /// equals the true distance in `G`.  Returns the worst ratio observed over
    /// the given sample of skeleton node pairs (1.0 means exact).
    fn skeleton_distance_fidelity(graph: &Graph, skeleton: &SkeletonGraph, samples: usize) -> f64 {
        let mut worst: f64 = 1.0;
        let count = samples.min(skeleton.len());
        let skeleton_graph = skeleton.graph();
        for i in 0..count {
            let u = skeleton.nodes[i];
            let exact = hybrid_graph::dijkstra::dijkstra(graph, u).dist;
            let sk = hybrid_graph::dijkstra::dijkstra(&skeleton_graph, i as NodeId).dist;
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
        let exact = DistanceRows::all_pairs(&sk.graph());
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
        let skeleton_graph = sk.graph();
        for i in 0..sk.len() {
            let dense = sk.sssp(i);
            let via_graph = hybrid_graph::dijkstra::dijkstra(&skeleton_graph, i as NodeId).dist;
            assert_eq!(dense, via_graph, "source {i}");
        }

        // A weighted grid whose h (20) is below its hop diameter (30): the
        // sweeps do not converge and some skeleton pairs have no edge.
        let (_, mut net) = setup(generators::weighted_grid(&[16, 16], 9, 11).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let sk = build_skeleton(&mut net, 1.2, &[], &mut rng);
        assert!(sk.h < 30 && !sk.converged);
        let s_len = sk.len();
        assert!((0..s_len).any(|i| (0..s_len).any(|j| sk.edge_weight(i, j) == INFINITY)));
        let skeleton_graph = sk.graph();
        for i in 0..s_len {
            let dense = sk.sssp(i);
            let via_graph = hybrid_graph::dijkstra::dijkstra(&skeleton_graph, i as NodeId).dist;
            assert_eq!(dense, via_graph, "weighted source {i}");
        }
    }

    #[test]
    fn the_sampling_half_picks_the_build_nodes() {
        let (g, mut net) = setup(generators::grid(&[10, 10]).unwrap());
        let sample = sample_skeleton(&mut net, 4.0, &[0, 55], &mut ChaCha8Rng::seed_from_u64(1));
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let sk = build_skeleton(&mut net, 4.0, &[0, 55], &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!(
            (&sample.nodes, &sample.index_of, sample.h),
            (&sk.nodes, &sk.index_of, sk.h)
        );
        // A row handed to the sweep takes its position; the rest are swept.
        let (first, flags) = DistanceRows::hop_limited(&g, &sample.nodes[..1], sk.h as usize);
        let mut given = Some((first.into_rows().remove(0), flags[0]));
        let swept = sample.sweep(&g, |p| if p == 0 { given.take() } else { None });
        assert_eq!(swept.rows.rows(), sk.rows.rows());
        assert_eq!(swept.converged, sk.converged);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn x_below_one_panics() {
        let (_, mut net) = setup(generators::path(10).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        build_skeleton(&mut net, 0.5, &[], &mut rng);
    }
}
