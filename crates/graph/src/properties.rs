//! Structural graph properties: eccentricities, diameter and radius.
//!
//! The diameter `D` appears throughout the paper: `NQ_k ≤ D` (Lemma 3.6) and
//! every global problem is trivially solvable in `D` rounds using only the
//! local network.

use rayon::prelude::*;

use crate::csr::{Graph, NodeId, Weight};
use crate::dijkstra::DijkstraWorkspace;

/// Hop eccentricities of every node (`n` BFS traversals, fanned out over all
/// cores with one reusable workspace per worker).
pub fn eccentricities(graph: &Graph) -> Vec<Weight> {
    (0..graph.n() as NodeId)
        .into_par_iter()
        .map_init(DijkstraWorkspace::new, |ws, v| {
            ws.run_bfs(graph, v);
            // Every reached node has a finite distance; BFS settles in
            // non-decreasing order, so the last reached node is farthest.
            ws.reached()
                .last()
                .map(|&u| ws.dist()[u as usize])
                .unwrap_or(0)
        })
        .with_min_len(1)
        .collect()
}

/// Exact hop diameter `D = max_{v,w} hop(v, w)` (runs `n` BFS traversals).
pub fn diameter(graph: &Graph) -> Weight {
    eccentricities(graph).into_iter().max().unwrap_or(0)
}

/// Exact hop radius `min_v max_w hop(v, w)`.
pub fn radius(graph: &Graph) -> Weight {
    eccentricities(graph).into_iter().min().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&generators::path(10).unwrap()), 9);
        assert_eq!(diameter(&generators::cycle(10).unwrap()), 5);
        assert_eq!(diameter(&generators::cycle(11).unwrap()), 5);
    }

    #[test]
    fn radius_le_diameter_le_twice_radius() {
        for g in [
            generators::grid(&[4, 5]).unwrap(),
            generators::tree_balanced(3, 3).unwrap(),
            generators::star(20).unwrap(),
        ] {
            let d = diameter(&g);
            let r = radius(&g);
            assert!(r <= d);
            assert!(d <= 2 * r);
        }
    }
}
