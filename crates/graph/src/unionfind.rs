//! Disjoint-set union structure used by connectivity checks, spanning-forest
//! decompositions and spanner construction.

use crate::csr::Graph;

/// Union–find with path compression and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// The connected components of `graph`: one union per edge.
    pub fn of_graph(graph: &Graph) -> Self {
        let mut uf = UnionFind::new(graph.n());
        for &(u, v, _) in graph.edges() {
            uf.union(u as usize, v as usize);
        }
        uf
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of the set containing `x`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`.  Returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.sets -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn count_sets(&self) -> usize {
        self.sets
    }

    /// Number of elements in the set containing `x`.
    pub fn set_size(&mut self, x: usize) -> usize {
        let root = self.find(x);
        self.size[root] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.count_sets(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.count_sets(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!((uf.set_size(2), uf.set_size(3)), (3, 1));
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
    }

    #[test]
    fn path_compression_preserves_roots() {
        let mut uf = UnionFind::new(8);
        for i in 0..7 {
            uf.union(i, i + 1);
        }
        let root = uf.find(0);
        for i in 0..8 {
            assert_eq!(uf.find(i), root);
        }
        assert_eq!(uf.count_sets(), 1);
    }

    #[test]
    fn components_of_a_graph() {
        // The path 0 – 1 – 2 – 3 without its middle edge, and node 4 alone.
        let mut b = crate::GraphBuilder::new(5);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let mut uf = UnionFind::of_graph(&b.build_unchecked_connectivity());
        assert_eq!(uf.count_sets(), 3);
        assert!(uf.connected(0, 1) && uf.connected(2, 3) && !uf.connected(1, 2));
        assert_eq!([0, 2, 4].map(|v| uf.set_size(v)), [2, 2, 1]);
    }
}
