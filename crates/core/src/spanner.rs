//! Multiplicative graph spanners.
//!
//! Theorem 7 broadcasts a `(2k−1)`-spanner with `Õ(k·n^{1+1/k})` edges to the
//! whole network (using Theorem 1) so that every node can approximate APSP
//! locally.  The paper obtains the spanner from the deterministic CONGEST
//! construction of [RG20, Corollary 3.16]; we build the classical greedy
//! `(2k−1)`-spanner of Althöfer et al., which satisfies the same (in fact, a
//! slightly stronger) size bound and the same stretch, and charge the `Õ(1)`
//! CONGEST rounds of the cited construction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hybrid_graph::{Graph, GraphBuilder, NodeId, Weight, INFINITY};
use hybrid_sim::HybridNetwork;

/// A spanner together with its parameters.
#[derive(Debug, Clone)]
pub struct Spanner {
    /// The spanner subgraph (same node set as the input graph).
    pub graph: Graph,
    /// Stretch guarantee `2k − 1`.
    pub stretch: u64,
    /// The parameter `k`.
    pub k: u64,
}

impl Spanner {
    /// Number of edges of the spanner.
    pub fn m(&self) -> usize {
        self.graph.m()
    }
}

/// The partially built spanner during the greedy scan: an incremental
/// adjacency list plus the reusable buffers of a distance-bounded Dijkstra.
///
/// The greedy test only asks "does the spanner built *so far* contain a
/// `u`–`v` path of weight at most `limit`?", so instead of materializing a
/// CSR graph per candidate edge (the previous implementation cloned the
/// builder and re-ran Bellman–Ford every time, `O(m·n)` allocations), we run
/// a Dijkstra from `u` that prunes at `limit` and stops the moment `v` is
/// settled, sparse-resetting only the touched entries afterwards.
struct PartialSpanner {
    adj: Vec<Vec<(NodeId, Weight)>>,
    dist: Vec<Weight>,
    touched: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(Weight, NodeId)>>,
}

impl PartialSpanner {
    fn new(n: usize) -> Self {
        PartialSpanner {
            adj: vec![Vec::new(); n],
            dist: vec![INFINITY; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        self.adj[u as usize].push((v, w));
        self.adj[v as usize].push((u, w));
    }

    /// Whether the current spanner has a `u`–`v` path of weight `≤ limit`.
    fn has_path_within(&mut self, u: NodeId, v: NodeId, limit: Weight) -> bool {
        for &t in &self.touched {
            self.dist[t as usize] = INFINITY;
        }
        self.touched.clear();
        self.heap.clear();
        self.dist[u as usize] = 0;
        self.touched.push(u);
        self.heap.push(Reverse((0, u)));
        while let Some(Reverse((d, x))) = self.heap.pop() {
            if d > self.dist[x as usize] {
                continue; // stale
            }
            if x == v {
                return true;
            }
            for &(y, w) in &self.adj[x as usize] {
                // Saturating: a near-`u64::MAX` path pins at `INFINITY`, which
                // never improves a tentative distance.
                let nd = d.saturating_add(w);
                if nd <= limit && nd < self.dist[y as usize] {
                    if self.dist[y as usize] == INFINITY {
                        self.touched.push(y);
                    }
                    self.dist[y as usize] = nd;
                    self.heap.push(Reverse((nd, y)));
                }
            }
        }
        false
    }
}

/// Greedy `(2k−1)`-spanner: process edges by non-decreasing weight and keep an
/// edge iff the spanner built so far has no path between its endpoints of
/// weight at most `(2k−1)·w`.  The result has at most `n^{1+1/k}` edges
/// (girth argument) and stretch `2k−1`.
///
/// Charges the `Õ(1)` rounds of the distributed construction on `net`.
pub fn greedy_spanner(net: &mut HybridNetwork, graph: &Graph, k: u64) -> Spanner {
    assert!(k >= 1, "spanner parameter k must be at least 1");
    let stretch = 2 * k - 1;
    net.charge_rounds("spanner/rg20-construction", net.polylog(2));
    let mut edges: Vec<(Weight, u32, u32)> =
        graph.edges().iter().map(|&(u, v, w)| (w, u, v)).collect();
    edges.sort_unstable();

    let mut partial = PartialSpanner::new(graph.n());
    let mut builder = GraphBuilder::new(graph.n());
    for &(w, u, v) in &edges {
        // A path of weight ≤ (2k−1)·w makes the edge redundant.  (In the
        // unweighted case such a path automatically has ≤ 2k−1 edges, so the
        // distance bound subsumes the hop bound the definition mentions.)
        if !partial.has_path_within(u, v, stretch.saturating_mul(w)) {
            partial.add_edge(u, v, w);
            builder
                .add_edge(u, v, w)
                .expect("input edges are valid and unique");
        }
    }
    Spanner {
        graph: builder.build_unchecked_connectivity(),
        stretch,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::DistanceRows;
    use hybrid_graph::generators;
    use std::sync::Arc;

    /// The spanner of `g`, charged on a network over `g` itself.
    fn span(g: &Graph, k: u64) -> Spanner {
        greedy_spanner(&mut HybridNetwork::hybrid(Arc::new(g.clone())), g, k)
    }

    #[test]
    fn spanner_of_tree_is_the_tree() {
        let g = generators::tree_with_n(2, 31).unwrap();
        let s = span(&g, 2);
        assert_eq!(s.m(), g.m());
        assert_eq!(s.stretch, 3);
    }

    #[test]
    fn spanner_is_sparse_on_dense_graph() {
        let g = generators::complete(40).unwrap();
        let s = span(&g, 2);
        // Girth bound: at most n^{1+1/2} edges; the complete graph has ~n^2/2,
        // so the spanner must be strictly sparser.
        assert!(s.m() < g.m());
        assert!(s.m() as f64 <= 40.0_f64.powf(1.5) + 40.0);
    }

    #[test]
    fn spanner_stretch_holds_unweighted() {
        let g = generators::erdos_renyi(60, 0.15, 3).unwrap();
        for k in [2u64, 3] {
            let s = span(&g, k);
            let samples: Vec<u32> = (0..10).collect();
            let rows = DistanceRows::compute(&s.graph, &samples);
            rows.verify_stretch(&g, (2 * k - 1) as f64).unwrap();
        }
    }

    #[test]
    fn spanner_stretch_holds_weighted() {
        let er = generators::erdos_renyi(50, 0.2, 4).unwrap();
        let g = generators::with_random_weights(&er, 20, 4).unwrap();
        let s = span(&g, 2);
        let samples: Vec<u32> = (0..8).collect();
        let rows = DistanceRows::compute(&s.graph, &samples);
        rows.verify_stretch(&g, 3.0).unwrap();
    }

    /// Regression: the path search added unchecked, so on a triangle of
    /// near-`u64::MAX` edges it panicked in a dev build and in release found
    /// a wrapped "path" 0–1–2 of weight `MAX − 3` that dropped the third edge.
    #[test]
    fn huge_weights_saturate_instead_of_wrapping() {
        let mut b = GraphBuilder::new(3);
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            b.add_edge(u, v, u64::MAX - 1).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(span(&g, 2).m(), 3);
    }

    #[test]
    fn spanner_charges_polylog_rounds() {
        let g = Arc::new(generators::grid(&[6, 6]).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let _ = greedy_spanner(&mut net, &g, 3);
        assert!(net.rounds() > 0);
        assert!(net.rounds() <= net.polylog(2));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_panics() {
        let g = generators::path(4).unwrap();
        span(&g, 0);
    }
}
