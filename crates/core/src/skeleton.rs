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
//! ([`DistanceRows::hop_limited`]) and keeps that table on the
//! [`SkeletonGraph`].  [`build_skeleton`] is the two halves back to back, for
//! the consumer that reads the table: weighted APSP (Theorem 8).
//!
//! The k-SSP data level ([`crate::kssp`]) never sweeps the table.  It needs
//! only the skeleton distances from a few anchors, and
//! `SkeletonSample::distances` finds those with one Dijkstra over `G`
//! itself: its states are `(node, hops since the last skeleton node)`, the
//! hop counter resets at every skeleton node and may not exceed `h`.  A
//! skeleton path is exactly such a walk — each skeleton edge is a `G`-walk
//! of at most `h` edges between skeleton nodes, and a walk whose segments
//! between skeleton nodes have at most `h` edges splits into skeleton
//! edges — so the two distances are equal.  The explicit edge-list [`Graph`]
//! of the skeleton (dense on low-diameter inputs) is only built on demand by
//! [`SkeletonGraph::graph`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::Rng;

use hybrid_graph::work::{Kernel, Tally};
use hybrid_graph::{Graph, GraphBuilder, NodeId, Weight, INFINITY};
use hybrid_sim::HybridNetwork;

use crate::prob::ln_n;
use crate::rows::DistanceRows;

/// The constant `ξ` of Definition 6.2 (any sufficiently large constant works;
/// the tests verify the distance-preservation property empirically).
pub const XI: f64 = 3.0;

/// A skeleton graph together with the data needed to translate between the
/// skeleton and the original graph.
#[derive(Debug, Clone)]
pub struct SkeletonGraph {
    /// The skeleton nodes (original ids, sorted).
    pub nodes: Vec<NodeId>,
    /// Position of each original node in [`SkeletonGraph::nodes`]
    /// (`usize::MAX` if not sampled).
    pub index_of: Vec<usize>,
    /// The `h`-hop-limited distance row of every skeleton node (`rows.row(i)`
    /// is `d^h(nodes[i], ·)` over all of `G`), as swept.
    pub rows: DistanceRows,
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
    /// On low-diameter graphs this is near-complete (`Θ(|S|²)` edges);
    /// Theorem 8's spanner construction builds it once per run.
    pub fn graph(&self) -> Graph {
        let mut builder = GraphBuilder::new(self.nodes.len());
        for (i, dist) in self.rows.iter().enumerate() {
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
    /// skeleton node over `graph`.
    pub(crate) fn sweep(self, graph: &Graph) -> SkeletonGraph {
        let (rows, _) = DistanceRows::hop_limited(graph, &self.nodes, self.h as usize);
        SkeletonGraph {
            nodes: self.nodes,
            index_of: self.index_of,
            rows,
            h: self.h,
            x: self.x,
        }
    }

    /// The skeleton distances from position `anchor`: `out[j]` is
    /// `d_S(nodes[anchor], nodes[j])`, [`INFINITY`] where no skeleton path
    /// exists — the distances a Dijkstra on [`SkeletonGraph::graph`] returns,
    /// without sweeping a row (see the module docs).
    ///
    /// One Dijkstra over `(node, hops since the last skeleton node)` states:
    /// an arc may be taken while fewer than `h` hops have passed, and
    /// arriving at a skeleton node resets the count to 0.  A popped state is
    /// skipped when its node already settled with no more hops (that state
    /// reached it no later and can go at least as far), so a skeleton node
    /// settles once, at its distance.  Sums saturate at [`INFINITY`], as in
    /// the `h`-hop rows.
    pub(crate) fn distances(
        &self,
        graph: &Graph,
        search: &mut SkeletonSearch,
        anchor: usize,
        out: &mut Vec<Weight>,
    ) {
        let max_hops = u32::try_from(self.h).unwrap_or(u32::MAX);
        let fewest_hops = &mut search.fewest_hops;
        fewest_hops.clear();
        fewest_hops.resize(graph.n(), u32::MAX);
        out.clear();
        out.resize(self.nodes.len(), INFINITY);
        let heap = &mut search.heap;
        heap.clear();
        heap.push(Reverse((0, self.nodes[anchor], 0)));
        // The anchor's entry is the first push.
        let mut tally = Tally {
            heap_pushes: 1,
            ..Tally::default()
        };
        let mut unsettled = self.nodes.len();
        while let Some(Reverse((d, v, hops))) = heap.pop() {
            if hops >= fewest_hops[v as usize] {
                continue;
            }
            fewest_hops[v as usize] = hops;
            let p = self.index_of[v as usize];
            if p != usize::MAX {
                out[p] = d;
                unsettled -= 1;
                if unsettled == 0 {
                    break;
                }
            }
            if hops >= max_hops {
                continue;
            }
            let arcs = graph.arcs(v);
            tally.arcs_scanned += arcs.len() as u64;
            for a in arcs {
                let nd = d.saturating_add(a.weight);
                let next_hops = if self.contains(a.to) { 0 } else { hops + 1 };
                if nd != INFINITY && next_hops < fewest_hops[a.to as usize] {
                    heap.push(Reverse((nd, a.to, next_hops)));
                    tally.heap_pushes += 1;
                }
            }
        }
        tally.record(Kernel::SkeletonDijkstra);
    }
}

/// Reusable buffers for [`SkeletonSample::distances`].
#[derive(Debug, Default)]
pub(crate) struct SkeletonSearch {
    /// Per node, the fewest hops since the last skeleton node among its
    /// settled states (`u32::MAX` while none has settled).
    fewest_hops: Vec<u32>,
    /// `(distance, node, hops)` states, smallest first.
    heap: BinaryHeap<Reverse<(Weight, NodeId, u32)>>,
}

/// Builds a skeleton graph with sampling probability `1/x`, forcing the nodes
/// in `forced` to be included (the k-SSP algorithm adds the sources,
/// Theorem 14).  Charges `h ∈ Õ(x)` local rounds on `net` (Lemma 6.3: the
/// construction is pure local communication).
///
/// This is `sample_skeleton` followed by `SkeletonSample::sweep`.
pub fn build_skeleton(
    net: &mut HybridNetwork,
    x: f64,
    forced: &[NodeId],
    rng: &mut impl Rng,
) -> SkeletonGraph {
    let sample = sample_skeleton(net, x, forced, rng);
    sample.sweep(&net.graph_arc())
}

/// The sampling half of [`build_skeleton`]: draws every node independently
/// with probability `1/x` (the nodes in `forced` always), and charges the
/// construction's `h` local rounds on `net`.  The rows are left to
/// [`SkeletonSample::sweep`], or never swept (the k-SSP data level).
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

    impl SkeletonGraph {
        /// Single-source shortest paths on the skeleton graph from position
        /// `source`, computed directly over the stored rows with a dense
        /// `O(|S|²)` array Dijkstra: the reference the hop-reset search
        /// ([`SkeletonSample::distances`]) is held to.  Each step is one pass
        /// over the unsettled positions: it relaxes them from the node just
        /// settled and picks the next one to settle.
        pub(crate) fn sssp(&self, source: usize) -> Vec<Weight> {
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

    /// Whether every row of `sk` reached its Bellman–Ford fixpoint, so the
    /// rows are exact distances.
    fn converged(g: &Graph, sk: &SkeletonGraph) -> bool {
        let (_, flags) = DistanceRows::hop_limited(g, &sk.nodes, sk.h as usize);
        flags.iter().all(|&exact| exact)
    }

    /// The sample a built skeleton was swept from.
    fn sample_of(sk: &SkeletonGraph) -> SkeletonSample {
        SkeletonSample {
            nodes: sk.nodes.clone(),
            index_of: sk.index_of.clone(),
            h: sk.h,
            x: sk.x,
        }
    }

    /// A sample of the given nodes (sorted) and hop parameter, chosen by hand.
    fn hand_sample(n: usize, nodes: Vec<NodeId>, h: u64) -> SkeletonSample {
        let mut index_of = vec![usize::MAX; n];
        for (i, &v) in nodes.iter().enumerate() {
            index_of[v as usize] = i;
        }
        SkeletonSample {
            nodes,
            index_of,
            h,
            x: 1.0,
        }
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
        assert!(converged(&g, &sk));
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
        let (g, mut net) = setup(generators::path(60).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let sk = build_skeleton(&mut net, 2.0, &[], &mut rng);
        assert!(!converged(&g, &sk));
        let skeleton_graph = sk.graph();
        for i in 0..sk.len() {
            let dense = sk.sssp(i);
            let via_graph = hybrid_graph::dijkstra::dijkstra(&skeleton_graph, i as NodeId).dist;
            assert_eq!(dense, via_graph, "source {i}");
        }

        // A weighted grid whose h (20) is below its hop diameter (30): the
        // sweeps do not converge and some skeleton pairs have no edge.
        let (g, mut net) = setup(generators::weighted_grid(&[16, 16], 9, 11).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let sk = build_skeleton(&mut net, 1.2, &[], &mut rng);
        assert!(sk.h < 30 && !converged(&g, &sk));
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
        // The sweep half completes the sample into the built table.
        let swept = sample.sweep(&g);
        assert_eq!(swept.rows, sk.rows);
    }

    #[test]
    fn hop_reset_distances_match_the_dense_reference() {
        let er = generators::with_random_weights(
            &generators::erdos_renyi(90, 0.05, 12).unwrap(),
            20,
            12,
        )
        .unwrap();
        // A path beside a weighted grid: skeleton nodes in the other
        // component stay at `INFINITY`.
        let (left, right) = (
            generators::path(25).unwrap(),
            generators::weighted_grid(&[6, 6], 9, 5).unwrap(),
        );
        let mut union = GraphBuilder::new(left.n() + right.n());
        for &(u, v, w) in left.edges() {
            union.add_edge(u, v, w).unwrap();
        }
        for &(u, v, w) in right.edges() {
            let shift = left.n() as NodeId;
            union.add_edge(u + shift, v + shift, w).unwrap();
        }
        let union = union.build_unchecked_connectivity();

        // Built skeletons, sampled as `kssp` samples them; the long path's
        // and the union's rows do not converge.
        let mut skeletons = Vec::new();
        for (ci, (graph, x)) in [
            (generators::path(60).unwrap(), 2.0),
            (generators::grid(&[9, 9]).unwrap(), 3.0),
            (er, 2.5),
            (union.clone(), 1.5),
        ]
        .into_iter()
        .enumerate()
        {
            let (g, mut net) = setup(graph);
            let mut rng = ChaCha8Rng::seed_from_u64(20 + ci as u64);
            skeletons.push((g, build_skeleton(&mut net, x, &[], &mut rng)));
        }
        assert!(!converged(&skeletons[0].0, &skeletons[0].1));
        assert!(!converged(&skeletons[3].0, &skeletons[3].1));
        // Hand-picked samples with h = 1 and h = 2: a skeleton path then
        // steps between skeleton nodes at most one (two) edges apart.
        let grid = Arc::new(generators::weighted_grid(&[7, 7], 6, 9).unwrap());
        let union = Arc::new(union);
        for (g, nodes, h) in [
            (&grid, (0..49).step_by(2).collect::<Vec<NodeId>>(), 1),
            (&grid, (0..49).step_by(3).collect(), 2),
            (&union, (0..61).filter(|v| v % 4 != 1).collect(), 1),
        ] {
            let sk = hand_sample(g.n(), nodes, h).sweep(g);
            skeletons.push((Arc::clone(g), sk));
        }

        let mut search = SkeletonSearch::default();
        let mut dist = Vec::new();
        let mut saw_unreachable = false;
        for (ci, (g, sk)) in skeletons.iter().enumerate() {
            let sample = sample_of(sk);
            for a in 0..sk.len() {
                sample.distances(g, &mut search, a, &mut dist);
                assert_eq!(dist, sk.sssp(a), "case {ci} (h = {}) anchor {a}", sk.h);
                saw_unreachable |= dist.contains(&INFINITY);
            }
        }
        assert!(saw_unreachable, "no skeleton node out of reach");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn x_below_one_panics() {
        let (_, mut net) = setup(generators::path(10).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        build_skeleton(&mut net, 0.5, &[], &mut rng);
    }
}
