//! Compressed-sparse-row representation of the local communication graph.
//!
//! The paper's graphs (Section 1.2) are undirected, connected, simple graphs
//! `G = (V, E, ω)` with integer weights polynomial in `n` (`ω ≡ 1` in the
//! unweighted case).  [`Graph`] stores both orientations of every undirected
//! edge so that neighbourhood scans are a single contiguous slice walk.

use serde::{Deserialize, Serialize};

/// Identifier of a node, `0 ..= n-1`.
pub type NodeId = u32;

/// Identifier of an undirected edge, `0 ..= m-1` (in insertion order).
pub type EdgeId = u32;

/// Edge weight / distance value.  Distances use `u64` to avoid overflow when
/// summing `poly(n)` weights along paths.
pub type Weight = u64;

/// Sentinel distance meaning "unreachable" (hop or weighted).
pub const INFINITY: Weight = u64::MAX;

/// A directed arc stored in the CSR adjacency (each undirected edge appears
/// twice, once per direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arc {
    /// Head of the arc (the neighbour reached by following it).
    pub to: NodeId,
    /// Weight of the underlying undirected edge.
    pub weight: Weight,
    /// Id of the underlying undirected edge.
    pub edge: EdgeId,
}

/// Immutable CSR graph.  Construct through [`crate::GraphBuilder`] or the
/// generators in [`crate::generators`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    offsets: Vec<u32>,
    arcs: Vec<Arc>,
    /// Undirected edge list `(u, v, w)` with `u < v`, indexed by [`EdgeId`].
    edges: Vec<(NodeId, NodeId, Weight)>,
    weighted: bool,
    /// Cached maximum edge weight — the distance oracles select between BFS,
    /// bucket-queue and heap Dijkstra by weight range on every call, so this
    /// must not cost an `O(m)` scan each time.
    max_weight: Weight,
}

impl Graph {
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        arcs: Vec<Arc>,
        edges: Vec<(NodeId, NodeId, Weight)>,
        weighted: bool,
    ) -> Self {
        let max_weight = edges.iter().map(|&(_, _, w)| w).max().unwrap_or(0);
        Graph {
            offsets,
            arcs,
            edges,
            weighted,
            max_weight,
        }
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Whether any edge weight differs from 1.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n() as NodeId
    }

    /// The undirected edge list `(u, v, w)` with `u < v`.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId, Weight)] {
        &self.edges
    }

    /// Endpoints and weight of an undirected edge.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, Weight) {
        self.edges[e as usize]
    }

    /// CSR offset range of `v`'s adjacency (indices into the arc array).
    #[inline(always)]
    pub fn arc_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Adjacency slice of `v`: one [`Arc`] per incident undirected edge.
    #[inline(always)]
    pub fn arcs(&self, v: NodeId) -> &[Arc] {
        &self.arcs[self.arc_range(v)]
    }

    /// Degree of `v` in the local communication graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.arcs(v).len()
    }

    /// Maximum degree `Δ(G)`.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Iterator over the neighbours of `v` (without weights).
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.arcs(v).iter().map(|a| a.to)
    }

    /// Maximum edge weight `W` (cached at construction).
    #[inline]
    pub fn max_weight(&self) -> Weight {
        self.max_weight
    }

    /// Bytes held by the CSR arrays (offsets, arcs, undirected edge list).
    /// The scale tier reports this next to the distance-row footprint so the
    /// `O(|S|·n)` memory claim is measured rather than asserted.
    pub fn memory_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<u32>()
            + self.arcs.len() * std::mem::size_of::<Arc>()
            + self.edges.len() * std::mem::size_of::<(NodeId, NodeId, Weight)>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn csr_basic_accessors() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 5).unwrap();
        b.add_edge(2, 3, 2).unwrap();
        b.add_edge(3, 0, 7).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert!(g.is_weighted());
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.max_weight(), 7);
        let mut nbrs: Vec<_> = g.neighbors(0).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![1, 3]);
    }

    #[test]
    fn arcs_carry_edge_ids_and_weights() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 10).unwrap();
        b.add_edge(1, 2, 20).unwrap();
        let g = b.build().unwrap();
        for v in g.nodes() {
            for a in g.arcs(v) {
                let (u, w, weight) = g.edge(a.edge);
                assert_eq!(weight, a.weight);
                assert!(u == v || w == v);
                assert!(u == a.to || w == a.to);
            }
        }
    }

    #[test]
    fn unweighted_graph_reports_unweighted() {
        let g = generators::path(5).unwrap();
        assert!(!g.is_weighted());
        assert_eq!(g.max_weight(), 1);
    }

    #[test]
    fn memory_bytes_counts_all_three_arrays() {
        let g = generators::path(5).unwrap();
        // offsets: 6 × 4 B, arcs: 8 × 16 B, edges: 4 × 16 B.
        assert_eq!(g.memory_bytes(), 6 * 4 + 8 * 16 + 4 * 16);
    }
}
