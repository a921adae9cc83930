//! The `(min, +)` composition of the shortest-paths data level.
//!
//! Several algorithms of the paper end their *data level* with the same
//! algebraic step: every output row is the `(min, +)` product of a
//! coefficient row against a shared table of `h`-hop distance rows, folded
//! into an initial row —
//!
//! ```text
//! out[i][v] = min( init[i][v],
//!                  offset_i ⊕ min_j ( coeff_i[j] ⊕ rows[j][v] ) )
//! ```
//!
//! where `⊕` is **saturating** `u64` addition (so
//! [`INFINITY`](hybrid_graph::INFINITY) absorbs: an unreachable entry can
//! never win a minimum against a finite candidate).
//! Concretely:
//!
//! * weighted skeleton APSP (Theorem 8 / Algorithm 4, Table 2): every node
//!   composes through its closest skeleton node only, so `crate::apsp`
//!   evaluates it as one [`kernel::fold_min_sat`] per node;
//! * the `k`-SSP labels of Theorem 14 (Lemma 9.4), with the skeleton nodes'
//!   `h`-hop rows as `rows` — `crate::kssp` evaluates it without sweeping
//!   them: one `h`-hop sweep seeded with the coefficients at the skeleton
//!   nodes gives a group's whole reduction, folded in by
//!   [`kernel::fold_min_sat`];
//! * the `[Sch23]` rival's global shortcut composition, with the landmarks'
//!   rows as `rows` — at the deepening's fixpoint the direct row dominates,
//!   so `crate::schneider` keeps the exact rows and composes nothing.
//!
//! No production path calls [`compose`].  It is the formula above as a plain
//! loop: the reference the tests hold those three data levels to (the
//! `kssp` and `schneider` test modules compose on it and compare), and the
//! `kssp` workload's `minplus.compose_s` probe in `benchmark/` times it.
//! [`kernel`] is the part production uses: the element-wise fold, counted in
//! the [`hybrid_graph::work`] ledger.
//!
//! # Saturation contract
//!
//! All additions saturate at `u64::MAX` (`== INFINITY`), so the composition
//! is total: coefficients, offsets and row entries may all be `INFINITY` and
//! an absent term simply loses every `min`.  Saturating addition of
//! non-negative integers is associative and `min` commutes with adding a
//! constant, so folding `rows[j] ⊕ (offset_i ⊕ coeff_i[j])` row by row gives
//! the formula bit for bit.

use hybrid_graph::Weight;

use crate::rows::DistanceRows;

/// A coefficient row against a [`DistanceRows`] table: one entry per row of
/// the table (entries may be `INFINITY`, which drops the corresponding row
/// from the reduction).
#[derive(Debug, Clone)]
pub enum Coeff {
    /// A dense coefficient row of length `|S|`.
    Dense(Vec<Weight>),
}

/// One (coefficient row index, offset) assignment per output row; `None`
/// leaves the initial row untouched.
pub type Assignment = Option<(usize, Weight)>;

/// The element-wise saturating `(min, +)` fold — the only code that touches
/// an output row inside [`compose`], and the label folds of Theorem 8 and
/// Theorem 14.  A plain scalar loop: saturating `u64` addition and `u64`
/// `min` are exact integer operations.  Each call adds its cells to the
/// [`hybrid_graph::work`] ledger once.
pub mod kernel {
    use hybrid_graph::work::{Kernel, Tally};
    use hybrid_graph::Weight;

    fn record(fold_cells: usize) {
        let tally = Tally {
            fold_cells: fold_cells as u64,
            ..Tally::default()
        };
        tally.record(Kernel::FoldMinSat);
    }

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
        record(acc.len().min(row.len()));
    }
}

/// The `(min, +)` composition (see the module docs), one
/// [`kernel::fold_min_sat`] per output row and table row.  Kept public for
/// the tests and the `benchmark/` probe only: no production path calls it.
///
/// Returns fresh output rows with the composition folded into the initial
/// rows: `out[i][v] = min(init[i][v], offset_i ⊕ min_j (coeffs[g(i)][j] ⊕
/// rows[j][v]))` for every row with `assign[i] = Some((g(i), offset_i))`;
/// rows assigned `None` are copied through unchanged.
///
/// # Panics
/// Panics if `assign.len() != init.len()`, a coefficient row index is out of
/// range, or an assigned row's coefficient row length differs from
/// `rows.len()` or its initial row length from `rows.n()`.
pub fn compose(
    rows: &DistanceRows,
    coeffs: &[Coeff],
    assign: &[Assignment],
    init: &[&[Weight]],
) -> Vec<Vec<Weight>> {
    assert_eq!(assign.len(), init.len(), "one assignment per output row");
    init.iter()
        .zip(assign)
        .map(|(&init, &assign)| {
            let mut out = init.to_vec();
            if let Some((g, offset)) = assign {
                let Coeff::Dense(coeff) = &coeffs[g];
                assert_eq!(coeff.len(), rows.len(), "coefficient row length != |S|");
                assert_eq!(out.len(), rows.n(), "initial row length != n");
                for (row, &base) in rows.iter().zip(coeff) {
                    kernel::fold_min_sat(&mut out, row, offset.saturating_add(base));
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::INFINITY;

    /// A table of `rows`, one per source `0..rows.len()`, of `n` entries.
    fn table(n: usize, rows: Vec<Vec<Weight>>) -> DistanceRows {
        DistanceRows::from_rows((0..rows.len() as u32).collect(), n, rows)
    }

    fn refs(init: &[Vec<Weight>]) -> Vec<&[Weight]> {
        init.iter().map(Vec::as_slice).collect()
    }

    /// `compose` against the formula evaluated by hand.
    #[test]
    fn compose_matches_naive_on_small_instance() {
        let m = table(
            4,
            vec![
                vec![0, 2, 9, INFINITY],
                vec![2, 0, 1, 7],
                vec![INFINITY, 1, 0, 3],
            ],
        );
        let coeffs = vec![
            Coeff::Dense(vec![0, 2, INFINITY]),
            Coeff::Dense(vec![INFINITY, 1, 4]),
            // Through row 2 alone.
            Coeff::Dense(vec![INFINITY, INFINITY, 0]),
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
        let out = compose(&m, &coeffs, &assign, &refs(&init));
        // Row 0: min(init, row 0 ⊕ 0, row 1 ⊕ 2).
        assert_eq!(out[0], vec![0, 2, 3, 9]);
        // Row 1: 5 ⊕ min(row 1 ⊕ 1, row 2 ⊕ 4).
        assert_eq!(out[1], vec![8, 6, 7, 12]);
        // Row 2: min(init, 1 ⊕ row 2).
        assert_eq!(out[2], vec![9, 2, 1, 4]);
        // Row 3 passes through; row 4's INFINITY offset saturates every term.
        assert_eq!(out[3], vec![7, 7, 7, 7]);
        assert_eq!(out[4], vec![4, 4, 4, 4]);
    }

    #[test]
    fn empty_matrix_and_empty_assignments() {
        let m = table(2, Vec::new());
        let init = vec![vec![1, 2], vec![3, 4]];
        let out = compose(&m, &[], &[None, None], &refs(&init));
        assert_eq!(out, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn saturation_never_underflows_the_min() {
        let m = table(2, vec![vec![Weight::MAX - 1, INFINITY]]);
        let coeffs = vec![Coeff::Dense(vec![Weight::MAX - 1])];
        let assign: Vec<Assignment> = vec![Some((0, Weight::MAX - 1))];
        let init = vec![vec![Weight::MAX - 1, Weight::MAX - 1]];
        let out = compose(&m, &coeffs, &assign, &refs(&init));
        // Every candidate saturates to INFINITY and loses against the init.
        assert_eq!(out, init);
    }

    /// The fold on the saturation boundary and on `INFINITY` runs: a
    /// candidate `row[v] ⊕ base` saturates to `INFINITY` instead of wrapping
    /// around, so a finite-but-huge entry never wins a minimum it should
    /// lose, and the fold stops at the shorter slice.
    #[test]
    fn fold_min_sat_saturates_on_boundaries() {
        let row: Vec<Weight> = vec![0, 1, Weight::MAX - 1, INFINITY, 7, 3];
        let acc0: Vec<Weight> = vec![5, 5, Weight::MAX - 1, 5, INFINITY];
        for (base, want) in [
            (0, vec![0, 1, Weight::MAX - 1, 5, 7]),
            (1, vec![1, 2, Weight::MAX - 1, 5, 8]),
            (Weight::MAX - 1, vec![5, 5, Weight::MAX - 1, 5, INFINITY]),
            (INFINITY, acc0.clone()),
        ] {
            let mut acc = acc0.clone();
            kernel::fold_min_sat(&mut acc, &row, base);
            assert_eq!(acc, want, "base {base}");
        }
    }
}
