//! The per-source distance-row table of the shortest-path pipelines.
//!
//! Every shortest-path result of the paper (Theorems 5–8, 13, 14) and of the
//! `[Sch23]` rival ends in the same object: per source, one row of `n`
//! distance labels.  [`DistanceRows`] is that object, and this module is the
//! one place a row is *filled* by a per-source search:
//!
//! * [`DistanceRows::sweep`] — one search per source on a per-worker
//!   [`DijkstraWorkspace`]; [`DistanceRows::compute`] (exact distances) is its
//!   trivial case, Theorem 6's bounded-BFS-then-fallback row and the
//!   `[Sch23]` rival's quantized exact row the others;
//! * [`DistanceRows::hop_limited`] — the `d^h` sweep with one Bellman–Ford
//!   fixpoint flag per row, which the skeleton construction, the Theorem 14
//!   label step and Theorem 8 start from;
//! * [`DistanceRows::verify_stretch`] — the streaming verifier behind every
//!   `verify_stretch(graph)`: the exact rows it checks against are produced
//!   here and nowhere else, and never materialised.
//!
//! Rows are stored as collected — one `Vec<Weight>` per row — so a table is
//! adopted without a copy in both directions: [`DistanceRows::into_rows`]
//! hands a swept table over for its rows to be folded in place (the
//! Theorem 8 and Theorem 14 labels) or wrapped in a
//! [`crate::minplus::RowMatrix`], and [`DistanceRows::from_rows`] takes the
//! rows back.  The footprint is `O(|S|·n)` for an explicit
//! (at the scale tier: sampled) source set, never `Θ(n²)` unless every node
//! is a source.
//!
//! Rows are full-width [`Weight`]s and carry no shortest-path forest: the
//! serving layer ([`crate::oracle`]) runs its own landmark sweep, because it
//! keeps the forest and stores its labels as `u32`.

use std::ops::Index;

use hybrid_graph::dijkstra::{hop_limited_distances_with, DijkstraWorkspace, HopLimitedWorkspace};
use hybrid_graph::{Graph, NodeId, Weight};
use rayon::prelude::*;

use crate::sssp::quantize_distance;
use crate::stretch::{self, StretchViolation};

/// One row of `n` distance labels per source: `table[i][v]` is the label of
/// the pair `(sources()[i], v)`.  A table cannot be misaligned with its own
/// source list — every constructor yields `sources().len()` rows of `n()`
/// entries.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceRows {
    sources: Vec<NodeId>,
    n: usize,
    rows: Vec<Vec<Weight>>,
}

/// The Dijkstra-workspace fan-out: `search(ws, i, sources[i])` once per
/// source, in parallel, results in source order.
fn per_source<T: Send>(
    sources: &[NodeId],
    search: impl Fn(&mut DijkstraWorkspace, usize, NodeId) -> T + Sync,
) -> Vec<T> {
    (0..sources.len())
        .into_par_iter()
        .map_init(DijkstraWorkspace::new, |ws, i| search(ws, i, sources[i]))
        .with_min_len(1)
        .collect()
}

/// One row's `(1+ε)` labels ([`quantize_distance`] per entry).
pub(crate) fn quantize_row(row: &[Weight], epsilon: f64) -> Vec<Weight> {
    row.iter().map(|&d| quantize_distance(d, epsilon)).collect()
}

impl DistanceRows {
    /// Adopts `rows` (row `i` belongs to `sources[i]`) without copying them.
    ///
    /// # Panics
    /// Panics unless there is exactly one row of `n` entries per source.
    pub fn from_rows(sources: Vec<NodeId>, n: usize, rows: Vec<Vec<Weight>>) -> Self {
        assert_eq!(rows.len(), sources.len(), "one row per source");
        for (&s, row) in sources.iter().zip(&rows) {
            assert_eq!(row.len(), n, "ragged row of source {s}");
        }
        DistanceRows { sources, n, rows }
    }

    /// Fills one row per source with `row(ws, source)`, in parallel with a
    /// reused [`DijkstraWorkspace`] per worker.
    pub fn sweep(
        graph: &Graph,
        sources: &[NodeId],
        row: impl Fn(&mut DijkstraWorkspace, NodeId) -> Vec<Weight> + Sync,
    ) -> Self {
        let rows = per_source(sources, |ws, _, s| row(ws, s));
        Self::from_rows(sources.to_vec(), graph.n(), rows)
    }

    /// Exact distances from every source (the oracle
    /// [`DijkstraWorkspace::run`] selects for `graph`).
    pub fn compute(graph: &Graph, sources: &[NodeId]) -> Self {
        Self::sweep(graph, sources, |ws, s| {
            ws.run(graph, s);
            ws.dist().to_vec()
        })
    }

    /// `(1+ε)`-quantized exact distances from every source: each row is
    /// quantized as it is swept, so no exact table is held beside the labels.
    /// Equal to `compute(graph, sources).quantized(epsilon)`.
    pub fn compute_quantized(graph: &Graph, sources: &[NodeId], epsilon: f64) -> Self {
        Self::sweep(graph, sources, |ws, s| {
            ws.run(graph, s);
            quantize_row(ws.dist(), epsilon)
        })
    }

    /// Exact distances between all pairs: every node is a source, in id
    /// order.  Quadratic memory.
    pub fn all_pairs(graph: &Graph) -> Self {
        let nodes: Vec<NodeId> = (0..graph.n() as NodeId).collect();
        Self::compute(graph, &nodes)
    }

    /// The `h`-hop-limited rows `d^h(s, ·)` of every source, and per row
    /// whether the relaxation reached its fixpoint — then that row is exact
    /// ([`hop_limited_distances_with`]).
    pub fn hop_limited(graph: &Graph, sources: &[NodeId], h: usize) -> (Self, Vec<bool>) {
        let swept: Vec<(Vec<Weight>, bool)> = sources
            .par_iter()
            .map_init(HopLimitedWorkspace::new, |ws, &s| {
                let mut row = Vec::new();
                let converged = hop_limited_distances_with(ws, graph, s, h, &mut row);
                (row, converged)
            })
            .with_min_len(1)
            .collect();
        let (rows, converged) = swept.into_iter().unzip();
        let table = Self::from_rows(sources.to_vec(), graph.n(), rows);
        (table, converged)
    }

    /// The source set, in row order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Number of nodes per row.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of rows (sources).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th source's row.
    pub fn row(&self, i: usize) -> &[Weight] {
        &self.rows[i]
    }

    /// The rows, in source order.
    pub fn iter(&self) -> impl Iterator<Item = &[Weight]> {
        self.rows.iter().map(Vec::as_slice)
    }

    /// Gives the rows away, in source order (no copy).
    pub fn into_rows(self) -> Vec<Vec<Weight>> {
        self.rows
    }

    /// Bytes held by the rows and the source list, `|S|·n·8 + |S|·4` — the
    /// quantity the scale tier reports as its distance-side memory footprint.
    pub fn memory_bytes(&self) -> u64 {
        (self.rows.len() * self.n * std::mem::size_of::<Weight>()
            + self.sources.len() * std::mem::size_of::<NodeId>()) as u64
    }

    /// `(1+ε)`-quantized copy of every row ([`quantize_distance`] per entry)
    /// — the label transformation of every Theorem 13 instance.
    pub fn quantized(&self, epsilon: f64) -> DistanceRows {
        DistanceRows {
            sources: self.sources.clone(),
            n: self.n,
            rows: self
                .rows
                .iter()
                .map(|row| quantize_row(row, epsilon))
                .collect(),
        }
    }

    /// Verifies the rows as labels of promised stretch `promised` on `graph`
    /// under the label contract ([`crate::stretch`]) and returns the maximum
    /// observed stretch: one exact single-source run per source, each checked
    /// straight out of its worker's workspace, so no exact table is ever
    /// materialised.
    pub fn verify_stretch(&self, graph: &Graph, promised: f64) -> Result<f64, StretchViolation> {
        stretch::worst_of(per_source(&self.sources, |ws, i, s| {
            // Checked before the search: rows of another graph's length may
            // name a source `graph` does not even have.
            stretch::aligned(Some(s), graph.n(), self.n)?;
            ws.run(graph, s);
            stretch::check_row(s, ws.dist(), self.row(i), promised)
        }))
    }

    /// [`DistanceRows::verify_stretch`] against a precomputed exact table
    /// over the same source set, for callers that check several label tables
    /// of one graph.
    pub fn verify_stretch_against(
        &self,
        exact: &DistanceRows,
        promised: f64,
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
            rows.map(|(i, &s)| stretch::check_row(s, exact.row(i), self.row(i), promised)),
        )
    }
}

impl Index<usize> for DistanceRows {
    type Output = [Weight];

    fn index(&self, i: usize) -> &[Weight] {
        self.row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::dijkstra::dijkstra;
    use hybrid_graph::generators;

    #[test]
    fn rows_match_the_full_matrix() {
        let g = generators::weighted_grid(&[9, 11], 20, 5).unwrap();
        let full = DistanceRows::all_pairs(&g);
        assert_eq!(full.sources(), (0..g.n() as NodeId).collect::<Vec<_>>());
        for (s, row) in full.iter().enumerate() {
            assert_eq!(row, dijkstra(&g, s as NodeId).dist, "row of node {s}");
        }
        let sources = [0u32, 7, 42, 98];
        let rows = DistanceRows::compute(&g, &sources);
        assert_eq!((rows.n(), rows.len()), (g.n(), 4));
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(rows.row(i), &full[s as usize], "row of source {s}");
        }
    }

    #[test]
    fn all_pairs_is_symmetric_and_triangle() {
        let g = generators::cycle(7).unwrap();
        let d = DistanceRows::all_pairs(&g);
        for u in 0..7 {
            assert_eq!(d[u][u], 0);
            for v in 0..7 {
                assert_eq!(d[u][v], d[v][u]);
                for w in 0..7 {
                    assert!(d[u][v] <= d[u][w] + d[w][v]);
                }
            }
        }
    }

    #[test]
    fn hop_limited_rows_and_flags_match_the_single_source_kernel() {
        let g = generators::weighted_grid(&[8, 9], 12, 6).unwrap();
        let sources: Vec<NodeId> = (0..g.n() as NodeId).step_by(5).collect();
        for width in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            // Depths below, around and beyond the hop diameter.
            for h in [0, 3, 9, g.n()] {
                let (table, flags) = pool.install(|| DistanceRows::hop_limited(&g, &sources, h));
                assert_eq!(table.sources(), &sources[..]);
                let exact = DistanceRows::compute(&g, &sources);
                let mut ws = HopLimitedWorkspace::new();
                let mut row = Vec::new();
                for (i, &s) in sources.iter().enumerate() {
                    let converged = hop_limited_distances_with(&mut ws, &g, s, h, &mut row);
                    assert_eq!(table[i], row[..], "h={h} s={s}");
                    assert_eq!(flags[i], converged, "h={h} s={s}");
                    // A set flag means exact.
                    assert!(!flags[i] || table[i] == exact[i]);
                }
                assert_eq!(flags.iter().all(|&c| c), h == g.n());
            }
        }
    }

    #[test]
    fn quantized_rows_verify_within_stretch() {
        let g = generators::weighted_grid(&[12, 12], 32, 9).unwrap();
        let sources = [3u32, 50, 100];
        let exact = DistanceRows::compute(&g, &sources);
        let eps = 0.25;
        let approx = exact.quantized(eps);
        let worst = approx.verify_stretch_against(&exact, 1.0 + eps).unwrap();
        assert!(worst >= 1.0 && worst <= 1.0 + eps + 1e-9);
        // Tampering is caught.
        let mut bad = approx.clone();
        bad.rows[0][1] = 0;
        assert!(bad.verify_stretch_against(&exact, 1.0 + eps).is_err());
    }

    #[test]
    fn the_streaming_verifier_agrees_with_the_table_verifier() {
        let g = generators::weighted_grid(&[10, 10], 32, 10).unwrap();
        let sources = [3u32, 50, 77, 99];
        let exact = DistanceRows::compute(&g, &sources);
        let labels = exact.quantized(0.5);
        let streamed = labels.verify_stretch(&g, 1.5);
        assert_eq!(streamed, labels.verify_stretch_against(&exact, 1.5));
        assert!(streamed.unwrap() > 1.0);
        // Two tampered rows: both verifiers report the first one's cell.
        let mut bad = labels.clone();
        bad.rows[1][40] = 0;
        bad.rows[3][2] = u64::MAX;
        let err = bad.verify_stretch(&g, 1.5).unwrap_err();
        assert_eq!(Err(err), bad.verify_stretch_against(&exact, 1.5));
        let StretchViolation::Underestimate(cell) = err else {
            panic!("expected the underestimate of row 50, got {err}");
        };
        assert_eq!((cell.row, cell.col, cell.label), (50, 40, 0));
        // Labels of a graph of another size are misaligned, row by row.
        let longer = DistanceRows::compute(&generators::path(101).unwrap(), &sources);
        assert_eq!(
            longer.verify_stretch(&g, 1.0),
            Err(StretchViolation::Misaligned {
                row: Some(3),
                exact: 100,
                labels: 101
            })
        );
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
    fn adopted_rows_are_the_table() {
        let rows = vec![vec![0, 1, 2], vec![2, 1, 0]];
        let table = DistanceRows::from_rows(vec![0, 2], 3, rows.clone());
        assert_eq!((table.len(), table.n(), table.is_empty()), (2, 3, false));
        assert_eq!(table[1], [2, 1, 0]);
        assert_eq!(table.into_rows(), rows);
        assert!(DistanceRows::from_rows(Vec::new(), 3, Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged row of source 2")]
    fn a_ragged_row_set_is_rejected() {
        DistanceRows::from_rows(vec![0, 2], 3, vec![vec![0, 1, 2], vec![2, 1]]);
    }

    #[test]
    #[should_panic(expected = "one row per source")]
    fn a_miscounted_row_set_is_rejected() {
        DistanceRows::from_rows(vec![0, 2], 3, vec![vec![0, 1, 2]]);
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
