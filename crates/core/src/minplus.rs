//! Shared blocked `(min, +)` composition kernel for the shortest-paths data
//! level.
//!
//! Several algorithms of the paper end their *data level* with the same
//! algebraic step: every output row is the `(min, +)` product of a
//! coefficient row against a shared right-hand-side matrix of `h`-hop
//! distance rows, folded into an initial row —
//!
//! ```text
//! out[i][v] = min( init[i][v],
//!                  offset_i ⊕ min_j ( coeff_i[j] ⊕ rows[j][v] ) )
//! ```
//!
//! where `⊕` is **saturating** `u64` addition (so [`INFINITY`] absorbs: an
//! unreachable entry can never win a minimum against a finite candidate).
//! Concretely:
//!
//! * weighted skeleton APSP (Theorem 8 / Algorithm 4, Table 2): every node
//!   composes through its closest skeleton node, a [`Coeff::Unit`]
//!   coefficient row — `crate::apsp`;
//! * the `[Sch23]` rival's global shortcut composition: `rows` are the
//!   landmarks' `h`-hop rows, `coeff_i` source `i`'s entry distances to the
//!   landmarks, offset `0` — `crate::schneider`.
//!
//! The `k`-SSP labels of Theorem 14 (Lemma 9.4) are the same composition
//! with the skeleton nodes' `h`-hop rows as `rows`, but `crate::kssp`
//! evaluates it without sweeping them: one `h`-hop sweep seeded with the
//! coefficients at the skeleton nodes gives a group's whole reduction.
//! The kernel stays its reference: a `crate::kssp` test composes every
//! source on [`compose`] and compares.
//!
//! [`compose`] is the only production code that folds `coeff ⊕ row`.  Its
//! right-hand side is a swept [`crate::rows::DistanceRows`] handed over
//! without a copy (`RowMatrix::new(table.into_rows())`), and the rows it
//! returns are adopted the same way by
//! [`crate::rows::DistanceRows::from_rows`].
//!
//! # Kernel layout
//!
//! [`compose`] evaluates the product in two phases:
//!
//! 1. **Anchor grouping.**  Output rows that share a coefficient row (all
//!    nodes of a Theorem 8 cluster) are grouped, and the inner reduction
//!    `A_g[v] = min_j (coeff_g[j] ⊕ rows[j][v])` is evaluated **once per
//!    group** instead of once per output row.  Phase 2 only folds
//!    `A_g ⊕ offset_i` into each member's initial row, which is `O(n)` per
//!    row.
//! 2. **Blocked tiles, register-tiled skeleton loop.**  Within a group the
//!    columns are processed in cache-sized tiles of [`COLUMN_TILE`] entries
//!    (the accumulator tile stays in L1 while the skeleton rows stream), and
//!    the skeleton loop is register-tiled by [`ROW_TILE`]: one pass loads
//!    `ROW_TILE` row pointers plus their bases and performs a single
//!    load/store of the accumulator per column for all of them.
//! 3. **Finite-span skipping.**  `h`-hop rows are [`INFINITY`] outside the
//!    `h`-hop ball of their skeleton node; [`RowMatrix`] records the
//!    `(start, end)` range of finite entries per row once, and the kernel
//!    streams only the intersection of that span with the current tile.  On
//!    large-diameter graphs (paths, cycles, grids) this turns the dense
//!    `|S| · n` inner phase into work proportional to the total finite mass.
//!
//! # Saturation contract
//!
//! All additions saturate at `u64::MAX` (`== INFINITY`), so the kernel is
//! total: coefficients, offsets and row entries may all be `INFINITY` and an
//! absent term simply loses every `min`.  Because saturating addition of
//! non-negative integers is associative and commutative, and `min` commutes
//! with adding a constant, the blocked evaluation order is **bit-identical**
//! to the naive triple loop (`compose_naive`, a test-only reference) — the
//! property test `minplus_kernel_matches_naive_reference` in this module
//! pins this, and the parallel fan-out over groups keeps output order
//! index-deterministic, so results do not depend on `RAYON_NUM_THREADS`.

use rayon::prelude::*;

use hybrid_graph::{Weight, INFINITY};

/// Columns per accumulator tile (`COLUMN_TILE · 8` bytes = 16 KiB — half a
/// typical L1d cache, leaving room for the streaming skeleton rows).
pub const COLUMN_TILE: usize = 2048;

/// Skeleton rows folded per accumulator pass (register tiling depth): enough
/// to amortize the accumulator load/store, small enough that the row
/// pointers, bases and bounds live in registers.
///
/// This is **fixed at 4** by the unrolled quad loop in the reduction (the
/// `c01`/`c23` pairing); it is exposed for documentation, not as a tuning
/// knob — a compile-time assertion ties the two together.
pub const ROW_TILE: usize = 4;
const _: () = assert!(ROW_TILE == 4, "the reduction quad loop is unrolled 4-wide");

/// The shared right-hand side of a composition: a `|S| × n` matrix of
/// distance rows together with the `(start, end)` span of finite entries of
/// every row.
///
/// Rows are typically `h`-hop-limited distance sweeps
/// ([`crate::rows::DistanceRows::hop_limited`]) from each skeleton node,
/// which are `INFINITY` outside the node's `h`-hop ball; the spans let the
/// kernel skip those runs wholesale.
#[derive(Debug, Clone, Default)]
pub struct RowMatrix {
    rows: Vec<Vec<Weight>>,
    /// Half-open `[start, end)` range of finite entries per row (`(0, 0)` for
    /// an all-`INFINITY` row).
    spans: Vec<(usize, usize)>,
    ncols: usize,
}

impl RowMatrix {
    /// Wraps `rows` (all of equal length), computing the finite span of each
    /// row once.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn new(rows: Vec<Vec<Weight>>) -> Self {
        let ncols = rows.first().map_or(0, Vec::len);
        let spans = rows
            .iter()
            .map(|row| {
                assert_eq!(row.len(), ncols, "ragged row matrix");
                let start = row.iter().position(|&d| d != INFINITY);
                match start {
                    None => (0, 0),
                    Some(s) => {
                        let e = row.iter().rposition(|&d| d != INFINITY).unwrap_or(s);
                        (s, e + 1)
                    }
                }
            })
            .collect();
        RowMatrix { rows, spans, ncols }
    }

    /// Number of rows `|S|`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of columns `n`.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The `j`-th row.
    pub fn row(&self, j: usize) -> &[Weight] {
        &self.rows[j]
    }

    /// The finite `[start, end)` span of the `j`-th row.
    pub fn span(&self, j: usize) -> (usize, usize) {
        self.spans[j]
    }

    /// The underlying rows.
    pub fn rows(&self) -> &[Vec<Weight>] {
        &self.rows
    }
}

/// A coefficient row against a [`RowMatrix`].
#[derive(Debug, Clone)]
pub enum Coeff {
    /// A dense coefficient row of length `|S|` (entries may be `INFINITY`,
    /// which drops the corresponding skeleton row from the reduction).
    Dense(Vec<Weight>),
    /// The unit coefficient row `e_j` (`0` at position `j`, `INFINITY`
    /// elsewhere): the reduction collapses to row `j` itself.  Used by the
    /// Theorem 8 APSP composition, where every node composes through exactly
    /// its closest skeleton node.
    Unit(usize),
}

/// One (group index, offset) assignment per output row; `None` leaves the
/// initial row untouched.
pub type Assignment = Option<(usize, Weight)>;

/// Element-wise saturating `(min, +)` fold kernels — the only code that
/// touches the accumulator inside [`compose`].  Plain scalar loops:
/// saturating `u64` addition and `u64` `min` are exact integer operations,
/// and the quad fold equals four single folds bit for bit.
pub mod kernel {
    use hybrid_graph::Weight;

    #[inline(always)]
    fn sat(a: Weight, b: Weight) -> Weight {
        a.saturating_add(b)
    }

    /// `acc[v] = min(acc[v], row[v] ⊕ base)` over the common prefix of the
    /// two slices.
    #[inline]
    pub fn fold_min_sat(acc: &mut [Weight], row: &[Weight], base: Weight) {
        for (slot, &via) in acc.iter_mut().zip(row) {
            let c = sat(via, base);
            if c < *slot {
                *slot = c;
            }
        }
    }

    /// Register-tiled fold of four rows at once:
    /// `acc[v] = min(acc[v], min_j (rows[j][v] ⊕ bases[j]))` over the common
    /// prefix of all five slices.  One accumulator load/store serves all four
    /// rows ([`super::ROW_TILE`]).
    #[inline]
    pub fn fold_min_sat_quad(acc: &mut [Weight], rows: [&[Weight]; 4], bases: [Weight; 4]) {
        let [r0, r1, r2, r3] = rows;
        let [b0, b1, b2, b3] = bases;
        let n = acc
            .len()
            .min(r0.len())
            .min(r1.len())
            .min(r2.len())
            .min(r3.len());
        for v in 0..n {
            let c01 = sat(r0[v], b0).min(sat(r1[v], b1));
            let c23 = sat(r2[v], b2).min(sat(r3[v], b3));
            let c = c01.min(c23);
            if c < acc[v] {
                acc[v] = c;
            }
        }
    }
}

/// The active slice of one skeleton row within the current reduction: its
/// base coefficient and finite span.
struct ActiveRow<'a> {
    row: &'a [Weight],
    base: Weight,
    lo: usize,
    hi: usize,
}

/// Phase 1 for one group: `acc[v] = min_j (coeff[j] ⊕ rows[j][v])`.
///
/// A [`Coeff::Unit`] group collapses to its row verbatim (base 0 inside the
/// finite span, `INFINITY` outside — exactly the stored row), so it is
/// returned borrowed; only dense groups allocate an accumulator.
fn reduce_group<'a>(rows: &'a RowMatrix, coeff: &Coeff) -> std::borrow::Cow<'a, [Weight]> {
    let n = rows.ncols();
    // Collect the active rows (finite coefficient, non-empty span) once.
    let actives: Vec<ActiveRow> = match coeff {
        Coeff::Unit(j) => {
            return std::borrow::Cow::Borrowed(rows.row(*j));
        }
        Coeff::Dense(c) => {
            assert_eq!(c.len(), rows.len(), "coefficient row length != |S|");
            c.iter()
                .enumerate()
                .filter(|&(_, &b)| b != INFINITY)
                .filter_map(|(j, &base)| {
                    let (lo, hi) = rows.span(j);
                    (lo < hi).then(|| ActiveRow {
                        row: rows.row(j),
                        base,
                        lo,
                        hi,
                    })
                })
                .collect()
        }
    };
    let mut acc = vec![INFINITY; n];
    let mut tile_lo = 0;
    while tile_lo < n {
        let tile_hi = (tile_lo + COLUMN_TILE).min(n);
        let mut chunks = actives.chunks_exact(ROW_TILE);
        for quad in chunks.by_ref() {
            let [a0, a1, a2, a3] = quad else {
                unreachable!()
            };
            // Joint register-tiled pass over the intersection of the four
            // spans; the parts covered by only some of the rows fall back to
            // the single-row loop.
            let lo = a0.lo.max(a1.lo).max(a2.lo).max(a3.lo).max(tile_lo);
            let hi = a0.hi.min(a1.hi).min(a2.hi).min(a3.hi).min(tile_hi);
            if lo < hi {
                for a in quad {
                    reduce_single(&mut acc, a, tile_lo, lo);
                    reduce_single(&mut acc, a, hi, tile_hi);
                }
                kernel::fold_min_sat_quad(
                    &mut acc[lo..hi],
                    [
                        &a0.row[lo..hi],
                        &a1.row[lo..hi],
                        &a2.row[lo..hi],
                        &a3.row[lo..hi],
                    ],
                    [a0.base, a1.base, a2.base, a3.base],
                );
            } else {
                for a in quad {
                    reduce_single(&mut acc, a, tile_lo, tile_hi);
                }
            }
        }
        for a in chunks.remainder() {
            reduce_single(&mut acc, a, tile_lo, tile_hi);
        }
        tile_lo = tile_hi;
    }
    std::borrow::Cow::Owned(acc)
}

/// Single-row reduction over `acc[lo..hi] ∩` the row's finite span.
#[inline]
fn reduce_single(acc: &mut [Weight], a: &ActiveRow, lo: usize, hi: usize) {
    let lo = lo.max(a.lo);
    let hi = hi.min(a.hi);
    if lo >= hi {
        return;
    }
    kernel::fold_min_sat(&mut acc[lo..hi], &a.row[lo..hi], a.base);
}

/// Blocked `(min, +)` composition (see the module docs for the layout).
///
/// Returns fresh output rows with the composition folded into the initial
/// rows: `out[i][v] = min(init[i][v], offset_i ⊕ min_j (coeff_{g(i)}[j] ⊕
/// rows[j][v]))` for every row with `assign[i] = Some((g(i), offset_i))`;
/// rows assigned `None` are copied through unchanged.
///
/// Coefficient rows in `coeffs` are shared: every output row naming group `g`
/// reuses the phase-1 reduction of `coeffs[g]`.  Results are bit-identical to
/// the naive triple loop and independent of the thread count.
///
/// # Panics
/// Panics if `assign.len() != init.len()`, a group index is out of range, a
/// dense coefficient row's length differs from `rows.len()`, or a composed
/// initial row's length differs from `rows.ncols()` (when `rows` is
/// non-empty).
pub fn compose(
    rows: &RowMatrix,
    coeffs: &[Coeff],
    assign: &[Assignment],
    init: &[&[Weight]],
) -> Vec<Vec<Weight>> {
    assert_eq!(assign.len(), init.len(), "one assignment per output row");
    // Phase 1: one reduction per *referenced* coefficient row, in parallel.
    let mut used = vec![false; coeffs.len()];
    for a in assign.iter().flatten() {
        used[a.0] = true;
    }
    let anchor_rows: Vec<Option<std::borrow::Cow<[Weight]>>> = (0..coeffs.len())
        .into_par_iter()
        .map(|g| used[g].then(|| reduce_group(rows, &coeffs[g])))
        .with_min_len(1)
        .collect();
    // Phase 2: fold each member's anchor row (plus offset) into its initial
    // row — O(n) per output row, parallel over rows, index-deterministic.
    (0..init.len())
        .into_par_iter()
        .map(|i| {
            let mut out = init[i].to_vec();
            let Some((g, offset)) = assign[i] else {
                return out;
            };
            let anchor = anchor_rows[g].as_deref().expect("used group reduced");
            if !rows.is_empty() {
                assert_eq!(out.len(), rows.ncols(), "initial row length != n");
            }
            kernel::fold_min_sat(&mut out, anchor, offset);
            out
        })
        .with_min_len(8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::dijkstra::hop_limited_distances;
    use hybrid_graph::{generators, Graph};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn matrix(rows: Vec<Vec<Weight>>) -> RowMatrix {
        RowMatrix::new(rows)
    }

    fn refs(init: &[Vec<Weight>]) -> Vec<&[Weight]> {
        init.iter().map(Vec::as_slice).collect()
    }

    /// Reference implementation of [`compose`]: the naive triple loop, kept
    /// deliberately simple (no spans, no tiling, no grouping) as the
    /// equivalence oracle for the tests and as executable documentation of
    /// the kernel's contract.
    fn compose_naive(
        rows: &RowMatrix,
        coeffs: &[Coeff],
        assign: &[Assignment],
        init: &[&[Weight]],
    ) -> Vec<Vec<Weight>> {
        assert_eq!(assign.len(), init.len(), "one assignment per output row");
        let mut result: Vec<Vec<Weight>> = init.iter().map(|r| r.to_vec()).collect();
        for (i, out) in result.iter_mut().enumerate() {
            let Some((g, offset)) = assign[i] else {
                continue;
            };
            let dense;
            let coeff: &[Weight] = match &coeffs[g] {
                Coeff::Dense(c) => c,
                Coeff::Unit(j) => {
                    let mut e = vec![INFINITY; rows.len()];
                    e[*j] = 0;
                    dense = e;
                    &dense
                }
            };
            for (j, &base) in coeff.iter().enumerate() {
                let row = rows.row(j);
                for (o, &via) in out.iter_mut().zip(row) {
                    let c = via.saturating_add(base).saturating_add(offset);
                    if c < *o {
                        *o = c;
                    }
                }
            }
        }
        result
    }

    #[test]
    fn spans_skip_infinity_runs() {
        let m = matrix(vec![
            vec![INFINITY, 3, INFINITY, 5, INFINITY],
            vec![INFINITY; 5],
            vec![1, 2, 3, 4, 5],
        ]);
        assert_eq!(m.span(0), (1, 4));
        assert_eq!(m.span(1), (0, 0));
        assert_eq!(m.span(2), (0, 5));
    }

    #[test]
    fn compose_matches_naive_on_small_instance() {
        let m = matrix(vec![
            vec![0, 2, 9, INFINITY],
            vec![2, 0, 1, 7],
            vec![INFINITY, 1, 0, 3],
        ]);
        let coeffs = vec![
            Coeff::Dense(vec![0, 2, INFINITY]),
            Coeff::Dense(vec![INFINITY, 1, 4]),
            Coeff::Unit(2),
        ];
        let assign: Vec<Assignment> = vec![
            Some((0, 0)),
            Some((1, 5)),
            Some((2, 1)),
            None,
            Some((0, INFINITY)),
        ];
        let init = vec![
            vec![1, INFINITY, INFINITY, INFINITY],
            vec![INFINITY; 4],
            vec![9, 9, 9, 9],
            vec![7, 7, 7, 7],
            vec![4, 4, 4, 4],
        ];
        let blocked = compose(&m, &coeffs, &assign, &refs(&init));
        let naive = compose_naive(&m, &coeffs, &assign, &refs(&init));
        assert_eq!(blocked, naive);
        // Spot checks: row 0 composes through coeff 0 with offset 0.
        assert_eq!(blocked[0], vec![0, 2, 3, 9]);
        // Row 3 passes through; row 4's INFINITY offset saturates every term.
        assert_eq!(blocked[3], vec![7, 7, 7, 7]);
        assert_eq!(blocked[4], vec![4, 4, 4, 4]);
    }

    #[test]
    fn register_tiling_covers_more_rows_than_the_tile() {
        // > ROW_TILE rows with staggered spans exercises the quad loop, the
        // head/tail single-row paths and the remainder loop together.
        let n = 40;
        let rows: Vec<Vec<Weight>> = (0..11u64)
            .map(|j| {
                (0..n)
                    .map(|v| {
                        let lo = (j as usize) * 2;
                        let hi = n - (j as usize);
                        if v >= lo && v < hi {
                            (v as Weight) + j
                        } else {
                            INFINITY
                        }
                    })
                    .collect()
            })
            .collect();
        let m = matrix(rows);
        let coeffs = vec![Coeff::Dense((0..11u64).map(|j| j % 3).collect())];
        let assign: Vec<Assignment> = vec![Some((0, 2))];
        let init = vec![vec![INFINITY; n]];
        assert_eq!(
            compose(&m, &coeffs, &assign, &refs(&init)),
            compose_naive(&m, &coeffs, &assign, &refs(&init))
        );
    }

    #[test]
    fn empty_matrix_and_empty_assignments() {
        let m = matrix(Vec::new());
        let init = vec![vec![1, 2], vec![3, 4]];
        let out = compose(&m, &[], &[None, None], &refs(&init));
        assert_eq!(out, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn saturation_never_underflows_the_min() {
        let m = matrix(vec![vec![Weight::MAX - 1, INFINITY]]);
        let coeffs = vec![Coeff::Dense(vec![Weight::MAX - 1])];
        let assign: Vec<Assignment> = vec![Some((0, Weight::MAX - 1))];
        let init = vec![vec![Weight::MAX - 1, Weight::MAX - 1]];
        let out = compose(&m, &coeffs, &assign, &refs(&init));
        // Every candidate saturates to INFINITY and loses against the init.
        assert_eq!(out, init);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        matrix(vec![vec![1, 2], vec![1]]);
    }

    /// Saturating-add boundary audit (ISSUE 9 satellite): `u64::MAX - 1`
    /// entries sitting exactly on the `COLUMN_TILE` seam must saturate into
    /// the `INFINITY` sentinel identically in the blocked, naive and kernel
    /// paths — a finite-but-huge candidate may never wrap around and win a
    /// minimum it should lose.
    #[test]
    fn saturation_boundary_at_column_tile_edges() {
        let n = COLUMN_TILE + 5;
        let mut row = vec![INFINITY; n];
        // Finite entries pinned to both sides of the tile seam and both ends
        // of the span (so the span covers the seam).
        for v in [0, COLUMN_TILE - 1, COLUMN_TILE, n - 1] {
            row[v] = Weight::MAX - 1;
        }
        row[1] = 7;
        let m = matrix(vec![row]);
        for base in [0, 1, Weight::MAX - 1] {
            for offset in [0, 1] {
                let coeffs = vec![Coeff::Dense(vec![base])];
                let assign: Vec<Assignment> = vec![Some((0, offset))];
                let init = vec![vec![Weight::MAX - 1; n]];
                let blocked = compose(&m, &coeffs, &assign, &refs(&init));
                let naive = compose_naive(&m, &coeffs, &assign, &refs(&init));
                assert_eq!(blocked, naive, "base={base} offset={offset}");
                // MAX-1 candidates saturate to INFINITY as soon as anything
                // is added and then lose against the MAX-1 initial row.
                assert_eq!(blocked[0][COLUMN_TILE - 1], Weight::MAX - 1);
                assert_eq!(blocked[0][COLUMN_TILE], Weight::MAX - 1);
            }
        }
    }

    /// The same boundary through the register-tiled quad loop: four rows
    /// whose joint span crosses the tile seam, all carrying `u64::MAX - 1`
    /// entries there.
    #[test]
    fn saturation_boundary_survives_the_quad_loop() {
        let n = COLUMN_TILE + 9;
        let rows: Vec<Vec<Weight>> = (0..4u64)
            .map(|j| {
                (0..n)
                    .map(|v| {
                        if (COLUMN_TILE - 2..=COLUMN_TILE + 2).contains(&v) {
                            Weight::MAX - 1
                        } else {
                            v as Weight + j
                        }
                    })
                    .collect()
            })
            .collect();
        let m = matrix(rows);
        let coeffs = vec![Coeff::Dense(vec![1, 0, Weight::MAX - 1, 2])];
        let assign: Vec<Assignment> = vec![Some((0, 1))];
        let init = vec![vec![Weight::MAX - 1; n]];
        let blocked = compose(&m, &coeffs, &assign, &refs(&init));
        let naive = compose_naive(&m, &coeffs, &assign, &refs(&init));
        assert_eq!(blocked, naive);
        // On the seam every candidate saturates; the initial row survives.
        assert_eq!(blocked[0][COLUMN_TILE], Weight::MAX - 1);
        // Off the seam the finite candidates win: min_j (v + j + coeff_j) + 1.
        assert_eq!(blocked[0][0], 2);
    }

    /// The quad fold equals four single folds on the saturation boundary
    /// and on `INFINITY` runs, for bases up to `u64::MAX − 1` and `INFINITY`.
    #[test]
    fn quad_fold_equals_four_single_folds_on_boundaries() {
        let row: Vec<Weight> = vec![
            0,
            1,
            Weight::MAX - 1,
            INFINITY,
            INFINITY,
            Weight::MAX / 2,
            42,
            Weight::MAX - 2,
            3,
            INFINITY,
            7,
        ];
        for base in [0, 1, Weight::MAX / 2, Weight::MAX - 1, INFINITY] {
            let init: Vec<Weight> = row.iter().rev().copied().collect();
            let rows = [&row[..], &init[..], &row[..], &init[..]];
            let bases = [base, 0, Weight::MAX - 1, base];
            let mut quad = init.clone();
            kernel::fold_min_sat_quad(&mut quad, rows, bases);
            let mut singles = init.clone();
            for (r, b) in rows.into_iter().zip(bases) {
                kernel::fold_min_sat(&mut singles, r, b);
            }
            assert_eq!(quad, singles, "quad fold diverged at base {base}");
        }
    }

    /// A random connected graph drawn from one of the paper's families.
    fn arbitrary_graph() -> impl Strategy<Value = Graph> {
        (0u8..5, 10usize..120, any::<u64>()).prop_map(|(kind, n, seed)| match kind {
            0 => generators::path(n).unwrap(),
            1 => generators::cycle(n.max(3)).unwrap(),
            2 => {
                let side = ((n as f64).sqrt().ceil() as usize).max(2);
                generators::grid(&[side, side]).unwrap()
            }
            3 => generators::tree_with_n(2, n).unwrap(),
            _ => generators::erdos_renyi(n, (8.0 / n as f64).min(1.0), seed).unwrap(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The blocked (min,+) kernel is *exactly* equivalent to the naive triple
        /// loop — including INFINITY saturation — on h-hop row matrices from
        /// random graphs with random anchors, coefficient rows (dense and unit),
        /// offsets and initial rows.  This is the contract that lets the k-SSP /
        /// (k,ℓ)-SP / Theorem 8 data levels share this module.
        #[test]
        fn minplus_kernel_matches_naive_reference(
            graph in arbitrary_graph(),
            h in 0usize..24,
            seed in any::<u64>(),
            groups in 1usize..6,
            outputs in 1usize..12,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = graph.n();
            // Skeleton-style rows: h-hop sweeps from random anchors (h may be far
            // below the diameter, so rows carry genuine INFINITY runs).
            let s = rng.gen_range(1..=8usize.min(n));
            let rows: Vec<Vec<u64>> = (0..s)
                .map(|_| {
                    let anchor = rng.gen_range(0..n) as u32;
                    hop_limited_distances(&graph, anchor, h)
                })
                .collect();
            let matrix = RowMatrix::new(rows);
            // Random coefficient rows: dense rows mixing finite entries, huge
            // near-saturating values and INFINITY; occasionally a unit row.
            let coeffs: Vec<Coeff> = (0..groups)
                .map(|_| {
                    if rng.gen_range(0..4u8) == 0 {
                        Coeff::Unit(rng.gen_range(0..s))
                    } else {
                        Coeff::Dense(
                            (0..s)
                                .map(|_| match rng.gen_range(0..5u8) {
                                    0 => INFINITY,
                                    1 => u64::MAX - rng.gen_range(0..3u64),
                                    _ => rng.gen_range(0..200u64),
                                })
                                .collect(),
                        )
                    }
                })
                .collect();
            let assign: Vec<Assignment> = (0..outputs)
                .map(|_| match rng.gen_range(0..5u8) {
                    0 => None,
                    1 => Some((rng.gen_range(0..groups), INFINITY)),
                    _ => Some((rng.gen_range(0..groups), rng.gen_range(0..100u64))),
                })
                .collect();
            let init: Vec<Vec<u64>> = (0..outputs)
                .map(|_| {
                    (0..n)
                        .map(|_| match rng.gen_range(0..3u8) {
                            0 => INFINITY,
                            _ => rng.gen_range(0..400u64),
                        })
                        .collect()
                })
                .collect();
            let init_refs: Vec<&[u64]> = init.iter().map(Vec::as_slice).collect();
            let blocked = compose(&matrix, &coeffs, &assign, &init_refs);
            let naive = compose_naive(&matrix, &coeffs, &assign, &init_refs);
            prop_assert_eq!(&blocked, &naive);
            // Determinism: a second blocked run reproduces the labels bit for bit.
            prop_assert_eq!(blocked, compose(&matrix, &coeffs, &assign, &init_refs));
        }
    }
}
