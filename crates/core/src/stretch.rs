//! The label contract: what it means for distance labels to keep a promised
//! stretch, written once.
//!
//! Theorems 5–8, 13 and 14 (and the `[Sch23]` rival they are scored against)
//! each promise `d(u, v) ≤ label(u, v) ≤ stretch · d(u, v)`.  Every output
//! type's `verify_stretch` ends here: the exact rows come from
//! [`crate::rows::DistanceRows`] (streamed by its `verify_stretch`, which the
//! k-SSP and APSP outputs delegate to; a precomputed table; for one SSSP row
//! a caller's slice), each row's cells go to [`check_cells`] / [`check_row`]
//! and [`worst_of`] folds the per-row verdicts.  The rule for one cell
//! `(exact, label)` under a promise `p`:
//!
//! 1. **reachability** — if either side is [`INFINITY`] both must be; a
//!    matching pair is skipped and does not count towards the measured
//!    stretch;
//! 2. **no underestimate** — `label ≥ exact`;
//! 3. **zero is exact** — `exact == 0` demands `label == 0`;
//! 4. **the promise** — `label / exact ≤ p + 1e-9`: the tolerance is on the
//!    ratio, so a verifier fails exactly when the number it would have
//!    returned exceeds the promise.
//!
//! A row's verdict is its largest `label / exact`, floored at `1.0`; labels
//! and exact distances of unequal shape are a violation
//! ([`StretchViolation::Misaligned`]), never a check of the common prefix.

use std::fmt;

use hybrid_graph::{NodeId, Weight, INFINITY};

/// Slack on the measured ratio that absorbs the rounding of one `f64` divide
/// and of a promise such as `1.0 + ε`.
const TOLERANCE: f64 = 1e-9;

/// One checked cell of a label table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The row's node: the source the distances are measured from.
    pub row: NodeId,
    /// The column's node.
    pub col: NodeId,
    /// The exact distance `d(row, col)`.
    pub exact: Weight,
    /// The label under test.
    pub label: Weight,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (row, col) = (self.row, self.col);
        write!(
            f,
            "({row},{col}): label {}, exact {}",
            self.label, self.exact
        )
    }
}

/// Why a set of labels does not keep its promised stretch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StretchViolation {
    /// Labels and exact distances differ in shape, so nothing was compared.
    Misaligned {
        /// The label row of the wrong length, or `None` when the row sets
        /// themselves (row count, source set) differ.
        row: Option<NodeId>,
        /// Entries on the exact side.
        exact: usize,
        /// Entries on the label side.
        labels: usize,
    },
    /// Exactly one of label and exact distance is [`INFINITY`].
    Reachability(Cell),
    /// The label is smaller than the exact distance.
    Underestimate(Cell),
    /// `label / exact` exceeds the promise (a non-zero label on a zero
    /// distance included).
    Exceeds {
        /// The offending cell.
        cell: Cell,
        /// The stretch that was promised.
        promised: f64,
    },
}

impl fmt::Display for StretchViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StretchViolation::Misaligned { row, exact, labels } => {
                match row {
                    Some(row) => write!(f, "row {row} is not aligned: ")?,
                    None => write!(f, "row sets are not aligned: ")?,
                }
                write!(f, "{labels} labels against {exact} exact")
            }
            StretchViolation::Reachability(cell) => write!(f, "{cell}: reachability mismatch"),
            StretchViolation::Underestimate(cell) => write!(f, "{cell}: underestimate"),
            StretchViolation::Exceeds { cell, promised } => {
                write!(f, "{cell}: exceeds the promised stretch {promised}")
            }
        }
    }
}

impl std::error::Error for StretchViolation {}

/// `Ok` iff both sides have the same number of entries; `row` is passed
/// through to [`StretchViolation::Misaligned`].
pub fn aligned(row: Option<NodeId>, exact: usize, labels: usize) -> Result<(), StretchViolation> {
    if exact == labels {
        Ok(())
    } else {
        Err(StretchViolation::Misaligned { row, exact, labels })
    }
}

/// The row rule.  Checks every `(col, exact, label)` cell of row `row`
/// against the four clauses of the module documentation and returns the
/// row's largest `label / exact` (at least `1.0`), or the first cell that
/// breaks a clause.
pub fn check_cells(
    row: NodeId,
    cells: impl IntoIterator<Item = (NodeId, Weight, Weight)>,
    promised: f64,
) -> Result<f64, StretchViolation> {
    let mut worst: f64 = 1.0;
    for (col, exact, label) in cells {
        let cell = Cell {
            row,
            col,
            exact,
            label,
        };
        if exact == INFINITY || label == INFINITY {
            if exact != label {
                return Err(StretchViolation::Reachability(cell));
            }
            continue;
        }
        if label < exact {
            return Err(StretchViolation::Underestimate(cell));
        }
        if exact == 0 {
            if label != 0 {
                return Err(StretchViolation::Exceeds { cell, promised });
            }
            continue;
        }
        let ratio = label as f64 / exact as f64;
        if ratio > promised + TOLERANCE {
            return Err(StretchViolation::Exceeds { cell, promised });
        }
        worst = worst.max(ratio);
    }
    Ok(worst)
}

/// [`check_cells`] over two aligned slices indexed by node id; slices of
/// unequal length are [`StretchViolation::Misaligned`].
pub fn check_row(
    row: NodeId,
    exact: &[Weight],
    labels: &[Weight],
    promised: f64,
) -> Result<f64, StretchViolation> {
    aligned(Some(row), exact.len(), labels.len())?;
    let cells = (0..).zip(exact).zip(labels);
    check_cells(row, cells.map(|((col, &e), &a)| (col, e, a)), promised)
}

/// Folds per-row verdicts in row order: the first violating row wins,
/// otherwise the largest measured stretch (`1.0` for no rows).
pub fn worst_of(
    rows: impl IntoIterator<Item = Result<f64, StretchViolation>>,
) -> Result<f64, StretchViolation> {
    rows.into_iter()
        .try_fold(1.0, |worst: f64, row| row.map(|r| worst.max(r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::ApspOutput;
    use crate::klsp::KlspOutput;
    use crate::kssp::KsspOutput;
    use crate::rows::DistanceRows;
    use crate::sssp::SsspOutput;
    use hybrid_graph::{Graph, GraphBuilder};
    use StretchViolation::{Exceeds, Misaligned, Reachability, Underestimate};

    const INF: Weight = INFINITY;

    fn check(cells: &[(Weight, Weight)], promised: f64) -> Result<f64, StretchViolation> {
        let (exact, labels): (Vec<_>, Vec<_>) = cells.iter().copied().unzip();
        check_row(7, &exact, &labels, promised)
    }

    fn cell(col: NodeId, exact: Weight, label: Weight) -> Cell {
        Cell {
            row: 7,
            col,
            exact,
            label,
        }
    }

    #[test]
    fn the_row_rule_clause_by_clause() {
        // Empty row; the floor; the returned value is the largest ratio.
        assert_eq!(check(&[], 1.0), Ok(1.0));
        assert_eq!(check(&[(0, 0), (5, 5)], 1.0), Ok(1.0));
        assert_eq!(check(&[(4, 5), (2, 3), (10, 11)], 1.5), Ok(1.5));
        // A matching unreachable pair is skipped and does not count.
        assert_eq!(check(&[(INF, INF), (4, 5)], 2.0), Ok(1.25));
        // One-sided unreachability, either way round.
        assert_eq!(
            check(&[(3, 3), (INF, 9)], 2.0),
            Err(Reachability(cell(1, INF, 9)))
        );
        assert_eq!(check(&[(9, INF)], 2.0), Err(Reachability(cell(0, 9, INF))));
        // Underestimates, also against a promise that would allow the ratio.
        assert_eq!(check(&[(5, 4)], 2.0), Err(Underestimate(cell(0, 5, 4))));
        // Zero is exact.
        let promised = 1e12;
        assert_eq!(
            check(&[(0, 1)], promised),
            Err(Exceeds {
                cell: cell(0, 0, 1),
                promised
            })
        );
        // The first offending cell is the one reported.
        assert_eq!(
            check(&[(1, 1), (2, 1), (INF, 1)], 1.0),
            Err(Underestimate(cell(1, 2, 1)))
        );
    }

    #[test]
    fn one_tolerance_on_the_ratio() {
        let exact: Weight = 1 << 40;
        let at = |label: Weight, promised: f64| check(&[(exact, label)], promised);
        // Exactly at the promise, and within the tolerance above it — at any
        // magnitude: the slack is on the ratio, not on the label (the form
        // `label ≤ p · exact + 1e-9` would reject the second line).
        assert_eq!(at(exact + exact / 4, 1.25), Ok(1.25));
        assert_eq!(at(exact + exact / 4, 1.25 - 0.5e-9), Ok(1.25));
        // 2e-9 over the promise fails, for large and for small distances.
        let promised = 1.25 - 2e-9;
        assert_eq!(
            at(exact + exact / 4, promised),
            Err(Exceeds {
                cell: cell(0, exact, exact + exact / 4),
                promised
            })
        );
        assert!(matches!(check(&[(4, 5)], promised), Err(Exceeds { .. })));
    }

    #[test]
    fn shapes_must_agree() {
        let misaligned = Err(Misaligned {
            row: Some(7),
            exact: 3,
            labels: 2,
        });
        assert_eq!(check_row(7, &[1, 2, 3], &[1, 2], 1.0), misaligned);
        assert_eq!(aligned(None, 4, 4), Ok(()));
        let row_sets = aligned(None, 4, 5).unwrap_err();
        assert_eq!(
            row_sets.to_string(),
            "row sets are not aligned: 5 labels against 4 exact"
        );
    }

    #[test]
    fn violations_name_the_cell() {
        let err = check(&[(2, 2), (4, 9)], 2.0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "(7,1): label 9, exact 4: exceeds the promised stretch 2"
        );
        let _: &dyn std::error::Error = &err;
    }

    #[test]
    fn verdicts_fold_in_row_order() {
        assert_eq!(worst_of([]), Ok(1.0));
        assert_eq!(worst_of([Ok(1.0), Ok(1.75), Ok(1.5)]), Ok(1.75));
        let first = Underestimate(cell(0, 2, 1));
        let second = Reachability(cell(1, INF, 1));
        assert_eq!(worst_of([Ok(3.0), Err(first), Err(second)]), Err(first));
    }

    /// A unit path `0 – 1 – … – 9` whose edge `(5, 6)` weighs `heavy`.
    fn path_with_heavy_edge(heavy: Weight) -> Graph {
        let mut b = GraphBuilder::new(10);
        for v in 0..9 {
            b.add_edge(v, v + 1, if v == 5 { heavy } else { 1 })
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn the_first_violating_row_wins_through_distance_rows() {
        // Labels are the distances of a path whose edge (5, 6) weighs 3.
        // From source 0 the detour is diluted (8 / 6 at worst); from 5 and
        // from 6 the pair (5, 6) itself has stretch 3.
        let exact = DistanceRows::compute(&path_with_heavy_edge(1), &[0, 5, 6]);
        let labels = DistanceRows::compute(&path_with_heavy_edge(3), &[0, 5, 6]);
        assert_eq!(labels.verify_stretch_against(&exact, 3.0), Ok(3.0));
        let promised = 1.5;
        assert_eq!(
            labels.verify_stretch_against(&exact, promised),
            Err(Exceeds {
                cell: Cell {
                    row: 5,
                    col: 6,
                    exact: 1,
                    label: 3
                },
                promised
            })
        );
        let only_first = DistanceRows::compute(&path_with_heavy_edge(3), &[0]);
        let exact_first = DistanceRows::compute(&path_with_heavy_edge(1), &[0]);
        let diluted = only_first.verify_stretch_against(&exact_first, promised);
        assert_eq!(diluted, Ok(8.0 / 6.0));
    }

    /// Two components `{0, 1, 2}` and `{3, 4, 5}` (paths with weights), and
    /// the same graph with the bridge `(2, 3)` that joins them.
    fn split_and_bridged() -> (Graph, Graph) {
        let mut b = GraphBuilder::new(6);
        for (u, v, w) in [(0, 1, 2), (1, 2, 3), (3, 4, 1), (4, 5, 4)] {
            b.add_edge(u, v, w).unwrap();
        }
        let split = b.clone().build_unchecked_connectivity();
        b.add_edge(2, 3, 5).unwrap();
        (split, b.build().unwrap())
    }

    /// Every output type's verifier accepts exact labels on a disconnected
    /// instance (matching unreachable pairs) and reports `Reachability` when
    /// the labels are finite across components — here the distances of the
    /// bridged graph, which agree with the split one inside a component.
    #[test]
    fn every_verifier_handles_a_disconnected_instance() {
        let (split, bridged) = split_and_bridged();
        let sources: Vec<NodeId> = vec![1, 4];
        let targets: Vec<NodeId> = vec![0, 2, 5];
        let across = |v: Result<f64, StretchViolation>| match v {
            Err(Reachability(cell)) => assert_eq!((cell.exact, cell.label < INF), (INF, true)),
            other => panic!("expected a reachability violation, got {other:?}"),
        };

        let apsp = |labels: &Graph| ApspOutput {
            dist: DistanceRows::all_pairs(labels),
            stretch: 1.0,
            algorithm: "exact",
        };
        assert_eq!(apsp(&split).verify_stretch(&split), Ok(1.0));
        across(apsp(&bridged).verify_stretch(&split));

        let rows = |labels: &Graph| DistanceRows::compute(labels, &sources);
        assert_eq!(
            rows(&split).verify_stretch_against(&rows(&split), 1.0),
            Ok(1.0)
        );
        across(rows(&bridged).verify_stretch_against(&rows(&split), 1.0));

        let klsp = |labels: &Graph| {
            let full = DistanceRows::all_pairs(labels);
            KlspOutput {
                sources: sources.clone(),
                targets: targets.clone(),
                dist: targets
                    .iter()
                    .map(|&t| {
                        sources
                            .iter()
                            .map(|&s| full[t as usize][s as usize])
                            .collect()
                    })
                    .collect(),
                stretch: 1.0,
                nq: 1,
            }
        };
        assert_eq!(klsp(&split).verify_stretch(&split), Ok(1.0));
        across(klsp(&bridged).verify_stretch(&split));

        let kssp = |labels: &Graph| KsspOutput {
            dist: rows(labels),
            stretch: 1.0,
            epsilon: 0.0,
            rounds: 0,
            skeleton_size: 0,
        };
        assert_eq!(kssp(&split).verify_stretch(&split), Ok(1.0));
        across(kssp(&bridged).verify_stretch(&split));

        let sssp = |labels: &Graph| SsspOutput {
            source: 1,
            dist: DistanceRows::all_pairs(labels)[1].to_vec(),
            epsilon: 0.0,
            stretch: 1.0,
            rounds: 0,
        };
        let split_rows = DistanceRows::all_pairs(&split);
        let exact_from_one = &split_rows[1];
        assert_eq!(sssp(&split).verify_stretch(exact_from_one), Ok(1.0));
        across(sssp(&bridged).verify_stretch(exact_from_one));
    }
}
