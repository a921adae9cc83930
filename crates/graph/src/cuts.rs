//! Cut evaluation utilities used by the cut-sparsifier experiments
//! (Theorem 9 of the paper): evaluating `cut_G(S)` for a node set `S` given
//! as a membership mask, and a simple randomized minimum-cut estimate for
//! sanity checks.

use rand::Rng;

use crate::csr::{Graph, NodeId, Weight};

/// Total weight of edges crossing the cut described by a membership mask.
pub fn cut_weight_mask(graph: &Graph, in_s: &[bool]) -> Weight {
    graph
        .edges()
        .iter()
        .filter(|&&(u, v, _)| in_s[u as usize] != in_s[v as usize])
        .map(|&(_, _, w)| w)
        .sum()
}

/// Weight of the cut separating a single node from the rest (its weighted degree).
pub fn singleton_cut(graph: &Graph, v: NodeId) -> Weight {
    graph.arcs(v).iter().map(|a| a.weight).sum()
}

/// Samples `count` random non-trivial cuts (each node joins `S` with
/// probability 1/2; resampled if `S` is empty or everything).  Returns the
/// membership masks.  Used by the Theorem 9 benchmark to compare cut weights
/// between a graph and its sparsifier.
pub fn sample_random_cuts(graph: &Graph, count: usize, rng: &mut impl Rng) -> Vec<Vec<bool>> {
    let n = graph.n();
    let mut cuts = Vec::with_capacity(count);
    while cuts.len() < count {
        let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let ones = mask.iter().filter(|&&b| b).count();
        if ones == 0 || ones == n {
            continue;
        }
        cuts.push(mask);
    }
    cuts
}

/// The minimum over all singleton cuts — a cheap upper bound on the minimum
/// cut, used to sanity-check sparsifier quality claims on test graphs.
pub fn min_singleton_cut(graph: &Graph) -> Weight {
    graph
        .nodes()
        .map(|v| singleton_cut(graph, v))
        .min()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;

    /// The membership mask of the node set `s` in a graph of `n` nodes.
    fn mask(n: usize, s: &[NodeId]) -> Vec<bool> {
        let mut in_s = vec![false; n];
        for &v in s {
            in_s[v as usize] = true;
        }
        in_s
    }

    #[test]
    fn cut_weight_on_path() {
        let g = generators::path(6).unwrap();
        // Splitting a path in the middle cuts exactly one edge.
        assert_eq!(cut_weight_mask(&g, &mask(6, &[0, 1, 2])), 1);
        assert_eq!(cut_weight_mask(&g, &mask(6, &[0])), 1);
        assert_eq!(cut_weight_mask(&g, &mask(6, &[1])), 2);
    }

    #[test]
    fn cut_weight_on_cycle_is_even() {
        let g = generators::cycle(8).unwrap();
        for s_len in 1..8 {
            let s: Vec<u32> = (0..s_len).collect();
            assert_eq!(cut_weight_mask(&g, &mask(8, &s)) % 2, 0);
        }
    }

    #[test]
    fn singleton_cut_equals_weighted_degree() {
        let g = generators::weighted_grid(&[3, 3], 7, 1).unwrap();
        for v in g.nodes() {
            assert_eq!(
                singleton_cut(&g, v),
                g.arcs(v).iter().map(|a| a.weight).sum()
            );
        }
        assert!(min_singleton_cut(&g) >= 2);
    }

    #[test]
    fn random_cuts_are_nontrivial() {
        let g = generators::grid(&[4, 4]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let cuts = sample_random_cuts(&g, 20, &mut rng);
        assert_eq!(cuts.len(), 20);
        for mask in &cuts {
            let ones = mask.iter().filter(|&&b| b).count();
            assert!(ones > 0 && ones < 16);
            assert!(cut_weight_mask(&g, mask) > 0);
        }
    }
}
