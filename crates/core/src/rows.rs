//! Row-streamed distances for the scale tier.
//!
//! The small-`n` experiments verify against [`hybrid_graph::dijkstra::apsp_exact`],
//! which materialises the full `Θ(n²)` matrix — a 8 TB allocation at
//! `n = 10⁶`.  [`DistanceRows`] replaces the matrix with per-source rows over
//! an explicit (typically sampled) source set: one flat `|S| × n` buffer,
//! computed by parallel workspace-reusing Dijkstra runs, so the memory
//! footprint is `O(|S|·n)` and every row is still *exact*.
//!
//! The k-SSP fast path (Theorem 14, `k ≤ γ`) is per-source Dijkstra plus
//! `(1+ε)` quantization — precisely a [`DistanceRows::quantized`] away — so
//! the scale tier runs the genuine algorithm semantics on sampled sources
//! instead of a downscaled instance.
//!
//! Rows here are full-width [`Weight`]s and carry no shortest-path forest:
//! the serving layer ([`crate::oracle`]) runs its own landmark sweep, because
//! it keeps the forest and stores its labels as `u32`.

use hybrid_graph::dijkstra::DijkstraWorkspace;
use hybrid_graph::{Graph, NodeId, Weight};
use rayon::prelude::*;

use crate::sssp::quantize_distance;
use crate::stretch::{self, StretchViolation};

/// Exact distances from a set of source nodes, stored as one flat
/// `|sources| × n` row buffer.
#[derive(Debug, Clone)]
pub struct DistanceRows {
    sources: Vec<NodeId>,
    n: usize,
    rows: Vec<Weight>,
}

impl DistanceRows {
    /// Runs one exact single-source computation per source (in parallel, with
    /// a reused [`DijkstraWorkspace`] per worker) and collects the rows.
    pub fn compute(graph: &Graph, sources: &[NodeId]) -> Self {
        let n = graph.n();
        let row_vecs: Vec<Vec<Weight>> = sources
            .par_iter()
            .map_init(DijkstraWorkspace::new, |ws, &s| {
                ws.run(graph, s);
                ws.dist().to_vec()
            })
            .with_min_len(1)
            .collect();
        let mut rows = Vec::with_capacity(sources.len() * n);
        for row in row_vecs {
            rows.extend(row);
        }
        DistanceRows {
            sources: sources.to_vec(),
            n,
            rows,
        }
    }

    /// The source set, in row order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Number of nodes per row.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `i`-th source's distance row.
    pub fn row(&self, i: usize) -> &[Weight] {
        &self.rows[i * self.n..(i + 1) * self.n]
    }

    /// The row of source node `s`, if `s` is in the source set.
    pub fn row_for(&self, s: NodeId) -> Option<&[Weight]> {
        self.sources
            .iter()
            .position(|&v| v == s)
            .map(|i| self.row(i))
    }

    /// Bytes held by the row buffer and the source list — the quantity the
    /// scale tier reports as its distance-side memory footprint.
    pub fn memory_bytes(&self) -> u64 {
        (self.rows.len() * std::mem::size_of::<Weight>()
            + self.sources.len() * std::mem::size_of::<NodeId>()) as u64
    }

    /// `(1+ε)`-quantized copy of every row (the Theorem 14 fast-path label
    /// transformation, [`quantize_distance`] per entry).
    pub fn quantized(&self, epsilon: f64) -> DistanceRows {
        DistanceRows {
            sources: self.sources.clone(),
            n: self.n,
            rows: self
                .rows
                .iter()
                .map(|&d| quantize_distance(d, epsilon))
                .collect(),
        }
    }

    /// Verifies the rows as labels of promised stretch `stretch` against an
    /// exact [`DistanceRows`] over the same source set, row by row under the
    /// label contract ([`crate::stretch`]), returning the maximum observed
    /// stretch.
    pub fn verify_stretch_against(
        &self,
        exact: &DistanceRows,
        stretch: f64,
    ) -> Result<f64, StretchViolation> {
        if self.sources != exact.sources {
            return Err(StretchViolation::Misaligned {
                row: None,
                exact: exact.sources.len(),
                labels: self.sources.len(),
            });
        }
        let rows = self.sources.iter().enumerate();
        stretch::worst_of(
            rows.map(|(i, &s)| stretch::check_row(s, exact.row(i), self.row(i), stretch)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::dijkstra::apsp_exact;
    use hybrid_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rows_match_the_full_matrix() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::weighted_grid(&[9, 11], 20, &mut rng).unwrap();
        let full = apsp_exact(&g);
        let sources = [0u32, 7, 42, 98];
        let rows = DistanceRows::compute(&g, &sources);
        assert_eq!(rows.n(), g.n());
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(rows.row(i), &full[s as usize][..], "row of source {s}");
            assert_eq!(rows.row_for(s).unwrap(), rows.row(i));
        }
        assert!(rows.row_for(1).is_none());
    }

    #[test]
    fn quantized_rows_verify_within_stretch() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generators::weighted_grid(&[12, 12], 32, &mut rng).unwrap();
        let sources = [3u32, 50, 100];
        let exact = DistanceRows::compute(&g, &sources);
        let eps = 0.25;
        let approx = exact.quantized(eps);
        let worst = approx.verify_stretch_against(&exact, 1.0 + eps).unwrap();
        assert!(worst >= 1.0 && worst <= 1.0 + eps + 1e-9);
        // Tampering is caught.
        let mut bad = approx.clone();
        bad.rows[1] = 0;
        assert!(bad.verify_stretch_against(&exact, 1.0 + eps).is_err());
    }

    #[test]
    fn memory_is_rows_times_n_not_n_squared() {
        let g = generators::path(10_000).unwrap();
        let sources = [0u32, 5_000, 9_999];
        let rows = DistanceRows::compute(&g, &sources);
        let expected = (3 * 10_000 * 8 + 3 * 4) as u64;
        assert_eq!(rows.memory_bytes(), expected);
    }

    #[test]
    fn misaligned_row_sets_are_rejected() {
        let g = generators::path(50).unwrap();
        let a = DistanceRows::compute(&g, &[0, 10]);
        let b = DistanceRows::compute(&g, &[0, 11]);
        let different_sources = a.verify_stretch_against(&b, 1.0);
        assert!(matches!(
            different_sources,
            Err(StretchViolation::Misaligned { row: None, .. })
        ));
        // Same sources, rows of another length (a graph of another size).
        let longer = DistanceRows::compute(&generators::path(51).unwrap(), &[0, 10]);
        assert_eq!(
            longer.verify_stretch_against(&a, 1.0),
            Err(StretchViolation::Misaligned {
                row: Some(0),
                exact: 50,
                labels: 51
            })
        );
    }
}
