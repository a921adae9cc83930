//! Validating builder for [`Graph`].

use std::collections::HashSet;

use crate::csr::{Arc, EdgeId, Graph, NodeId, Weight};
use crate::error::GraphError;
use crate::unionfind::UnionFind;
use crate::Result;

/// Incrementally builds an undirected, simple, weighted graph and validates
/// the invariants the HYBRID model assumes (no self loops, no duplicate
/// edges, weights `>= 1`, connectedness on [`GraphBuilder::build`]).
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, Weight)>,
    seen: HashSet<(NodeId, NodeId)>,
}

/// Largest node count representable in the `u32` id space.
pub const MAX_NODES: usize = u32::MAX as usize;

/// Largest edge count whose arc array (`2 × edges`) still fits `u32` indices.
pub const MAX_EDGES: usize = (u32::MAX / 2) as usize;

/// Returns a clean error when `n` nodes or `edges` undirected edges would
/// overflow the `u32` id / arc index space of the CSR representation.
fn validate_counts(n: usize, edges: usize) -> Result<()> {
    if n > MAX_NODES {
        return Err(GraphError::TooManyNodes { n });
    }
    if edges > MAX_EDGES {
        return Err(GraphError::TooManyArcs { arcs: edges * 2 });
    }
    Ok(())
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Constructor of the chunk-emitting generators (`generators::assemble`):
    /// pre-sizes the edge list for exactly `m` edges but leaves the
    /// duplicate-detection set empty — those generators guarantee simplicity
    /// by construction and feed edges through [`Self::push_normalized_edge`],
    /// so paying a `HashSet` probe per edge would be pure overhead.  Counts
    /// past the `u32` id or arc index space are refused before anything is
    /// allocated.
    pub(crate) fn streaming(n: usize, m: usize) -> Result<Self> {
        validate_counts(n, m)?;
        Ok(GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
            seen: HashSet::new(),
        })
    }

    /// Appends an edge the caller guarantees is normalized (`u < v`), in
    /// range, simple and positively weighted.  Only `generators::assemble`
    /// uses this; the invariants are checked in debug builds.
    pub(crate) fn push_normalized_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        debug_assert!(u < v, "streamed edge must be normalized: ({u}, {v})");
        debug_assert!((v as usize) < self.n, "streamed endpoint {v} out of range");
        debug_assert!(w >= 1, "streamed edge ({u}, {v}) has zero weight");
        self.edges.push((u, v, w));
    }

    /// Number of nodes of the graph being built.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Errors
    /// Returns an error on out-of-range endpoints, self loops, zero weights
    /// or duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> Result<&mut Self> {
        if u as usize >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                n: self.n as u32,
            });
        }
        if v as usize >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                n: self.n as u32,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight { u, v });
        }
        if self.edges.len() >= MAX_EDGES {
            return Err(GraphError::TooManyArcs {
                arcs: (self.edges.len() + 1) * 2,
            });
        }
        let key = (u.min(v), u.max(v));
        if !self.seen.insert(key) {
            return Err(GraphError::DuplicateEdge { u: key.0, v: key.1 });
        }
        self.edges.push((key.0, key.1, w));
        Ok(self)
    }

    /// Adds an unweighted (weight-1) edge.
    pub fn add_unweighted_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self> {
        self.add_edge(u, v, 1)
    }

    /// Finalises the graph, requiring it to be non-empty and **connected**
    /// (the paper's standing assumption, Section 1.2).
    ///
    /// # Errors
    /// [`GraphError::Empty`] for `n == 0`, [`GraphError::Disconnected`] if the
    /// supplied edges do not connect all nodes.
    pub fn build(self) -> Result<Graph> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        validate_counts(self.n, self.edges.len())?;
        let mut uf = UnionFind::new(self.n);
        for &(u, v, _) in &self.edges {
            uf.union(u as usize, v as usize);
        }
        let components = uf.count_sets();
        if components != 1 {
            return Err(GraphError::Disconnected { components });
        }
        Ok(self.assemble())
    }

    /// Finalises the graph without the connectivity check (used for spanners,
    /// sparsifiers and other derived subgraphs which may legitimately be
    /// disconnected).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn build_unchecked_connectivity(self) -> Graph {
        assert!(self.n > 0, "graph must have at least one node");
        self.assemble()
    }

    fn assemble(self) -> Graph {
        let n = self.n;
        let weighted = self.edges.iter().any(|&(_, _, w)| w != 1);
        let mut degree = vec![0u32; n];
        for &(u, v, _) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut arcs = vec![
            Arc {
                to: 0,
                weight: 0,
                edge: 0
            };
            2 * self.edges.len()
        ];
        for (idx, &(u, v, w)) in self.edges.iter().enumerate() {
            let e = idx as EdgeId;
            arcs[cursor[u as usize] as usize] = Arc {
                to: v,
                weight: w,
                edge: e,
            };
            cursor[u as usize] += 1;
            arcs[cursor[v as usize] as usize] = Arc {
                to: u,
                weight: w,
                edge: e,
            };
            cursor[v as usize] += 1;
        }
        Graph::from_parts(offsets, arcs, self.edges, weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(0, 3, 1).unwrap_err(),
            GraphError::NodeOutOfRange { node: 3, n: 3 }
        );
        assert_eq!(
            b.add_edge(5, 1, 1).unwrap_err(),
            GraphError::NodeOutOfRange { node: 5, n: 3 }
        );
    }

    #[test]
    fn rejects_self_loop_zero_weight_and_duplicates() {
        let mut b = GraphBuilder::new(3);
        assert_eq!(
            b.add_edge(1, 1, 1).unwrap_err(),
            GraphError::SelfLoop { node: 1 }
        );
        assert_eq!(
            b.add_edge(0, 1, 0).unwrap_err(),
            GraphError::ZeroWeight { u: 0, v: 1 }
        );
        b.add_edge(0, 1, 2).unwrap();
        assert_eq!(
            b.add_edge(1, 0, 9).unwrap_err(),
            GraphError::DuplicateEdge { u: 0, v: 1 }
        );
    }

    #[test]
    fn build_requires_connectivity() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::Disconnected { components: 2 }
        );
    }

    #[test]
    fn build_empty_rejected() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn single_node_graph_is_connected() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn unchecked_build_allows_disconnected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        let g = b.build_unchecked_connectivity();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn count_validation_at_the_u32_boundaries() {
        // Exactly representable counts pass …
        assert!(validate_counts(MAX_NODES, MAX_EDGES).is_ok());
        // … one past either boundary fails with the matching error.
        assert_eq!(
            validate_counts(MAX_NODES + 1, 0).unwrap_err(),
            GraphError::TooManyNodes { n: MAX_NODES + 1 }
        );
        assert_eq!(
            validate_counts(4, MAX_EDGES + 1).unwrap_err(),
            GraphError::TooManyArcs {
                arcs: (MAX_EDGES + 1) * 2,
            }
        );
    }

    #[test]
    fn streaming_rejects_overflow_before_allocating() {
        assert_eq!(
            GraphBuilder::streaming(MAX_NODES + 1, 0).unwrap_err(),
            GraphError::TooManyNodes { n: MAX_NODES + 1 }
        );
        assert_eq!(
            GraphBuilder::streaming(4, MAX_EDGES + 1).unwrap_err(),
            GraphError::TooManyArcs {
                arcs: (MAX_EDGES + 1) * 2,
            }
        );
        let b = GraphBuilder::streaming(4, 3).unwrap();
        assert_eq!(b.n(), 4);
        assert_eq!(b.m(), 0);
    }

    #[test]
    fn build_rejects_node_count_past_u32() {
        let b = GraphBuilder::new(MAX_NODES + 1);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::TooManyNodes { n: MAX_NODES + 1 }
        );
    }
}
