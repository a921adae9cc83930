//! Scaling sweeps: the algorithm **shootout** — competitive-ratio curves for
//! every registered algorithm against the per-instance lower bound over a
//! `family × size × (λ, γ)` grid.
//!
//! The paper's headline claim is *universal* optimality — on **every**
//! topology the algorithms stay within polylog factors of that graph's own
//! lower bound.  The table reproductions check fixed-size rows; this module
//! measures the claim *at scale and against the competition*: every
//! [`GraphFamily`] is swept over a geometric ladder of sizes and a small grid
//! of `HYBRID(λ, γ)` parameter points, and each cell runs **every registered
//! implementation** ([`hybrid_core::algorithm`]) on the *same instance* —
//! same graph, same token placement, same sources — and records each one's
//! measured rounds **next to the same per-instance lower-bound witness**
//! (from `hybrid_core::lower_bounds` / `kssp_lower_bound_rounds`), plus the
//! resulting competitive ratio.  Plotting `ratio` against `n` per family and
//! per algorithm is the empirical universal-optimality curve: the paper's
//! pipelines predict a flat polylog envelope on every family, the
//! deterministic token-forwarding rival (`det-broadcast`, arXiv:2304.06317)
//! pays for its funnel on token-heavy cells, and the skeleton-free Schneider
//! baseline (`schneider`, arXiv:2306.05977) collapses on high-diameter
//! families where its deepening bill is `Θ(hop-diameter)`.
//!
//! ## Determinism
//!
//! Cells are independent experiments: each `(family, n)` cell derives its own
//! `ChaCha8` streams from [`Grid::seed`], so the grid's fan-out (one task per
//! cell, `(λ, γ)` points and algorithms run in-cell to share the graph and
//! its `NQ` oracle) is bit-identical across `RAYON_NUM_THREADS` — pinned by
//! `crates/bench/tests/determinism.rs` and the CI cross-thread artifact diff.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use hybrid_core::algorithm::{dissemination_registry, sssp_registry};
use hybrid_core::dissemination::place_tokens;
use hybrid_core::kssp::kssp_lower_bound_rounds;
use hybrid_core::lower_bounds::{dissemination_lower_bound, shortest_paths_lower_bound};
use hybrid_core::nq::NqOracle;
use hybrid_core::prob::sample_distinct;
use hybrid_core::sssp::sssp_approx;
use hybrid_sim::{HybridNetwork, IdSpace, LocalBandwidth, ModelParams};

use crate::grid::{GraphFamily, Grid};

// The benchmark workloads import the seed rule by this path.
pub use crate::grid::cell_seed;

/// One `(λ, γ)` point of the sweep grid, as a function of `n` (both
/// parameters are measured in the paper's `⌈log₂ n⌉` unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SweepPoint {
    /// Short name used in the JSON rows (`hybrid`, `scarce-global`, …).
    pub name: &'static str,
    /// `λ`: `None` is unlimited local bandwidth; `Some(c)` bounds every local
    /// edge to `c·⌈log₂ n⌉` bits per round (CONGEST-style local network).
    pub lambda_log_factor: Option<u64>,
    /// `γ` in messages per node per round: `max(1, num·⌈log₂ n⌉ / den)`.
    pub gamma_num: usize,
    /// Denominator of the `γ` scaling (see `gamma_num`).
    pub gamma_den: usize,
}

impl SweepPoint {
    /// The standard `HYBRID` point: `λ = ∞`, `γ = ⌈log₂ n⌉`.
    pub const HYBRID: SweepPoint = SweepPoint {
        name: "hybrid",
        lambda_log_factor: None,
        gamma_num: 1,
        gamma_den: 1,
    };
    /// Scarce global bandwidth: `λ = ∞`, `γ = max(1, ⌈log₂ n⌉ / 4)` — the
    /// regime where the `1/γ` factor of Lemma 7.1 bites hardest.
    pub const SCARCE_GLOBAL: SweepPoint = SweepPoint {
        name: "scarce-global",
        lambda_log_factor: None,
        gamma_num: 1,
        gamma_den: 4,
    };
    /// Rich global bandwidth: `λ = ∞`, `γ = 4·⌈log₂ n⌉`.
    pub const RICH_GLOBAL: SweepPoint = SweepPoint {
        name: "rich-global",
        lambda_log_factor: None,
        gamma_num: 4,
        gamma_den: 1,
    };
    /// CONGEST-style local edges (`λ = ⌈log₂ n⌉` bits) with the standard
    /// global capacity.  The phase simulation charges local phases by hop
    /// radius, so measured rounds coincide with [`SweepPoint::HYBRID`]; the
    /// point documents that λ does not enter the Lemma 7.1 witness either.
    pub const CONGEST_LOCAL: SweepPoint = SweepPoint {
        name: "congest-local",
        lambda_log_factor: Some(1),
        gamma_num: 1,
        gamma_den: 1,
    };

    /// `γ` in messages per node per round for an `n`-node instance.
    pub fn gamma_msgs(&self, n: usize) -> usize {
        (self.gamma_num * ModelParams::log_n(n) / self.gamma_den.max(1)).max(1)
    }

    /// Human-readable `λ` description for the JSON rows.
    pub fn lambda_label(&self) -> String {
        match self.lambda_log_factor {
            None => "inf".to_string(),
            Some(c) => format!("{c}*log(n) bits"),
        }
    }

    /// Model parameters for an `n`-node instance at this point.
    ///
    /// Identifiers are kept globally known (`Hybrid`-style) so the same grid
    /// point drives all three pipelines; the `Hybrid0` distinction is covered
    /// by the table reproductions.
    pub fn params(&self, n: usize) -> ModelParams {
        ModelParams {
            n,
            local: match self.lambda_log_factor {
                None => LocalBandwidth::Unlimited,
                Some(c) => LocalBandwidth::BoundedBits(c * ModelParams::log_n(n) as u64),
            },
            global_capacity_msgs: self.gamma_msgs(n),
            id_space: IdSpace::Contiguous,
        }
    }
}

/// Configuration of a scaling sweep: the `family × size` grid (a geometric
/// ladder of target node counts) and the `(λ, γ)` points run in every cell.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The cells.
    pub grid: Grid,
    /// `(λ, γ)` grid points.
    pub points: Vec<SweepPoint>,
}

impl SweepConfig {
    /// The CI-sized sweep: every family × 3 sizes × 3 points
    /// (`reproduce sweep --quick`).
    pub fn quick() -> Self {
        SweepConfig {
            grid: Grid::new(GraphFamily::all(), &[64, 128, 256], 0x5CA1E),
            points: vec![
                SweepPoint::HYBRID,
                SweepPoint::SCARCE_GLOBAL,
                SweepPoint::RICH_GLOBAL,
            ],
        }
    }

    /// The full-depth sweep (nightly): every family × 4 sizes × 4 points.
    pub fn full() -> Self {
        SweepConfig {
            grid: Grid::new(GraphFamily::all(), &[128, 256, 512, 1024], 0x5CA1E),
            points: vec![
                SweepPoint::HYBRID,
                SweepPoint::SCARCE_GLOBAL,
                SweepPoint::RICH_GLOBAL,
                SweepPoint::CONGEST_LOCAL,
            ],
        }
    }
}

/// One dissemination contender's result on a cell — all contenders in a row
/// are measured against the same `dissemination_lower_bound` witness.
#[derive(Debug, Clone, Serialize)]
pub struct DissCell {
    /// Registry name of the implementation.
    pub algorithm: &'static str,
    /// The paper it reproduces.
    pub reference: &'static str,
    /// Whether the schedule draws random bits.
    pub deterministic: bool,
    /// Measured rounds on this instance.
    pub rounds: u64,
    /// `rounds / max(1, dissemination_lower_bound)` — same witness for every
    /// contender in the row.
    pub ratio: f64,
    /// `rounds / max(1, NQ_k)` — the `Ω̃(NQ_k)` form of the bound.
    pub nq_ratio: f64,
}

/// One shortest-paths contender's result on a cell — all contenders in a row
/// are measured against the same `kssp_lower_bound` witness.
#[derive(Debug, Clone, Serialize)]
pub struct KsspCell {
    /// Registry name of the implementation.
    pub algorithm: &'static str,
    /// The paper it reproduces.
    pub reference: &'static str,
    /// Stretch the run guarantees for its labels.
    pub stretch: f64,
    /// Measured rounds on this instance.
    pub rounds: u64,
    /// `rounds / max(1, kssp_lower_bound)` — same witness for every
    /// contender in the row.
    pub ratio: f64,
    /// Skeleton / landmark-set size the run used (0 = fast path).
    pub skeleton_size: usize,
}

/// One cell of the scaling sweep: a `(family, n, λ, γ)` coordinate with the
/// instance's lower-bound witnesses and, side by side, every registered
/// algorithm's measured rounds and competitive ratio against them.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Graph family.
    pub family: &'static str,
    /// Actual number of nodes of the built instance.
    pub n: usize,
    /// Name of the `(λ, γ)` grid point.
    pub point: &'static str,
    /// `λ` description (`inf` or `c*log(n) bits`).
    pub lambda: String,
    /// `γ` in messages per node per round.
    pub gamma_msgs: usize,
    /// Dissemination workload (number of tokens `k`).
    pub k: u64,
    /// Measured `NQ_k` of the instance.
    pub nq_k: u64,
    /// The instance's Theorem 4 lower-bound witness, in rounds — shared by
    /// every entry of `dissemination`.
    pub dissemination_lower_bound: f64,
    /// The dissemination shootout: every registered contender on this
    /// instance (Theorem 1, `det-broadcast`, `sqrt-k-baseline`, …).
    pub dissemination: Vec<DissCell>,
    /// Rounds of the Theorem 13 `(1+ε)`-SSSP (single source — not part of
    /// the k-source shootout, kept as the `Õ(1)` reference row).
    pub sssp_rounds: u64,
    /// Theorems 11/12 witness for a single source (trivially small — SSSP is
    /// `Õ(1)`, so the ratio column tracks the polylog envelope itself).
    pub sssp_lower_bound: f64,
    /// `sssp_rounds / max(1, lower bound)`.
    pub sssp_ratio: f64,
    /// Number of k-SSP sources.
    pub kssp_k: usize,
    /// The `Ω̃(√(k/γ))` k-SSP lower bound, in rounds — shared by every entry
    /// of `kssp`.
    pub kssp_lower_bound: u64,
    /// The shortest-paths shootout: every registered contender on this
    /// instance (Theorem 14, `theorem14-proxy`, `schneider`, …).
    pub kssp: Vec<KsspCell>,
}

/// Ratio of measured rounds to a lower-bound witness, with the witness
/// clamped to ≥ 1 round so trivial bounds don't divide by zero.
fn ratio(rounds: u64, lower_bound: f64) -> f64 {
    rounds as f64 / lower_bound.max(1.0)
}

/// Runs the sweep grid with every registered algorithm.
///
/// Each `(family, n)` cell builds its graph and `NQ` oracle once and draws
/// its token placement, source set and algorithm seed once, then reuses them
/// for every `(λ, γ)` point; within a cell the registered algorithms run
/// sequentially on identical instances.  Row order is family-major, then
/// size, then grid point — identical for every pool width.
pub fn sweep_rows(config: &SweepConfig) -> Vec<SweepRow> {
    let (diss_algos, sssp_algos) = (dissemination_registry(), sssp_registry());
    let grid = &config.grid;
    grid.run(|cell| {
        let graph_seed = grid.seed(cell, 0);
        let graph = Arc::new(cell.family.build(cell.n_target, graph_seed));
        let weighted = Arc::new(cell.family.reweight(&graph, graph_seed));
        // `NQ_k` is a hop-distance profile and `reweight` keeps the same
        // topology, so one oracle serves both.
        let oracle = NqOracle::new(&graph);
        let n = graph.n();

        // Workloads scale with the instance: an n-token load for
        // dissemination (large enough that `NQ_k ≥ 6` and the Lemma 7.2
        // reduction yields a non-trivial witness on path-like families),
        // `√n` sources for k-SSP.
        let k = n as u64;
        let nq_k = oracle.nq(k);
        let kssp_k = ((n as f64).sqrt().ceil() as usize).max(4).min(n);

        // Dissemination: k tokens on k distinct holders; k-SSP: √n sources
        // on the weighted instance — the same instance for every point and
        // every contender.
        let mut rng = ChaCha8Rng::seed_from_u64(grid.seed(cell, 1));
        let tokens = place_tokens(&sample_distinct(n, k as usize, &mut rng), k);
        let mut rng = ChaCha8Rng::seed_from_u64(grid.seed(cell, 2));
        let sources = sample_distinct(n, kssp_k, &mut rng);
        let algo_seed = grid.seed(cell, 3);

        config
            .points
            .iter()
            .map(|point| {
                let params = point.params(n);

                let diss_lb = dissemination_lower_bound(&oracle, &params, k, 0.99);
                let dissemination: Vec<DissCell> = diss_algos
                    .iter()
                    .map(|algo| {
                        let mut net = HybridNetwork::new(Arc::clone(&graph), params);
                        let out = algo.run(&mut net, &oracle, &tokens);
                        DissCell {
                            algorithm: algo.name(),
                            reference: algo.reference(),
                            deterministic: algo.deterministic(),
                            rounds: out.rounds,
                            ratio: ratio(out.rounds, diss_lb.rounds),
                            nq_ratio: ratio(out.rounds, nq_k.max(1) as f64),
                        }
                    })
                    .collect();

                // SSSP from node 0 on the weighted instance (Theorem 13
                // reference row, outside the shootout).
                let mut net = HybridNetwork::new(Arc::clone(&weighted), params);
                let sssp = sssp_approx(&mut net, 0, 0.25);
                let sssp_lb = shortest_paths_lower_bound(&oracle, &params, 1, 0.99);

                let ks_lb = kssp_lower_bound_rounds(kssp_k, params.global_capacity_msgs);
                let kssp: Vec<KsspCell> = sssp_algos
                    .iter()
                    .map(|algo| {
                        let mut net = HybridNetwork::new(Arc::clone(&weighted), params);
                        let out = algo.run(&mut net, &sources, 1.0, algo_seed);
                        KsspCell {
                            algorithm: algo.name(),
                            reference: algo.reference(),
                            stretch: out.stretch,
                            rounds: out.rounds,
                            ratio: ratio(out.rounds, ks_lb as f64),
                            skeleton_size: out.skeleton_size,
                        }
                    })
                    .collect();

                SweepRow {
                    family: cell.family.name(),
                    n,
                    point: point.name,
                    lambda: point.lambda_label(),
                    gamma_msgs: params.global_capacity_msgs,
                    k,
                    nq_k,
                    dissemination_lower_bound: diss_lb.rounds,
                    dissemination,
                    sssp_rounds: sssp.rounds,
                    sssp_lower_bound: sssp_lb.rounds,
                    sssp_ratio: ratio(sssp.rounds, sssp_lb.rounds),
                    kssp_k,
                    kssp_lower_bound: ks_lb,
                    kssp,
                }
            })
            .collect()
    })
}

/// Why a shootout falls short of the full registry.
///
/// `reproduce` holds every shootout it writes to [`check_shootout`] and exits
/// non-zero when the check fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepArtifactError {
    /// The shootout has no rows.
    Empty,
    /// A shootout column of a row carries fewer than
    /// [`MIN_ALGORITHMS_PER_ROW`] contenders.
    TooFewAlgorithms {
        /// Index of the row.
        row: usize,
        /// The column: `dissemination` or `kssp`.
        column: &'static str,
        /// Number of contenders the column carries.
        algorithms: usize,
    },
    /// A competitive ratio is non-finite.
    NonFiniteRatio,
    /// Theorem 1 took more rounds than the existential `√k` baseline — the
    /// separation the paper claims runs the wrong way on this row.
    SeparationInverted {
        /// Index of the row.
        row: usize,
        /// The row's family.
        family: &'static str,
        /// The row's node count.
        n: usize,
        /// The row's `(λ, γ)` point.
        point: &'static str,
        /// Rounds of `theorem1`.
        theorem1: u64,
        /// Rounds of `sqrt-k-baseline`.
        baseline: u64,
    },
    /// Theorem 1 took more rounds than its envelope `C₁ · NQ_k · ⌈log₂ n⌉²`
    /// with `C₁ =` [`THEOREM1_C1`].
    Theorem1OutsideEnvelope {
        /// Index of the row.
        row: usize,
        /// The row's family.
        family: &'static str,
        /// The row's node count.
        n: usize,
        /// The row's `(λ, γ)` point.
        point: &'static str,
        /// Rounds of `theorem1`.
        theorem1: u64,
        /// The envelope, in rounds.
        envelope: u64,
    },
}

impl std::fmt::Display for SweepArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepArtifactError::Empty => write!(f, "artifact contains no sweep rows"),
            SweepArtifactError::TooFewAlgorithms {
                row,
                column,
                algorithms,
            } => write!(
                f,
                "row {row} carries only {algorithms} {column} contenders \
                 (expected at least {MIN_ALGORITHMS_PER_ROW})"
            ),
            SweepArtifactError::NonFiniteRatio => {
                write!(f, "a competitive-ratio column is non-finite")
            }
            SweepArtifactError::SeparationInverted {
                row,
                family,
                n,
                point,
                theorem1,
                baseline,
            } => write!(
                f,
                "row {row} ({family}, n = {n}, {point}): theorem1 took {theorem1} rounds, \
                 more than sqrt-k-baseline's {baseline}"
            ),
            SweepArtifactError::Theorem1OutsideEnvelope {
                row,
                family,
                n,
                point,
                theorem1,
                envelope,
            } => write!(
                f,
                "row {row} ({family}, n = {n}, {point}): theorem1 took {theorem1} rounds, \
                 more than its envelope {THEOREM1_C1} · NQ_k · ⌈log₂ n⌉² = {envelope}"
            ),
        }
    }
}

impl std::error::Error for SweepArtifactError {}

/// Minimum number of contenders each shootout column of a well-formed row
/// carries (ours + the two rivals).
pub const MIN_ALGORITHMS_PER_ROW: usize = 3;

/// The constant of Theorem 1's envelope: `theorem1` takes at most
/// `THEOREM1_C1 · NQ_k · ⌈log₂ n⌉²` rounds.  The worst cell needs 2.28 on
/// the quick grid (chung-lu, n = 64, scarce-global: 328 rounds at `NQ_k =
/// 4`) and 1.84 on the full grid.
pub const THEOREM1_C1: u64 = 3;

/// Checks a full-registry shootout: at least one row, every row's
/// `dissemination` and `kssp` columns carrying at least
/// [`MIN_ALGORITHMS_PER_ROW`] contenders each, every `ratio` finite,
/// `theorem1` never slower than `sqrt-k-baseline`, and `theorem1` within
/// its envelope (see [`THEOREM1_C1`]).
pub fn check_shootout(rows: &[SweepRow]) -> Result<(), SweepArtifactError> {
    if rows.is_empty() {
        return Err(SweepArtifactError::Empty);
    }
    for (row, r) in rows.iter().enumerate() {
        let columns = [
            ("dissemination", r.dissemination.len()),
            ("kssp", r.kssp.len()),
        ];
        for (column, algorithms) in columns {
            if algorithms < MIN_ALGORITHMS_PER_ROW {
                return Err(SweepArtifactError::TooFewAlgorithms {
                    row,
                    column,
                    algorithms,
                });
            }
        }
        let diss = r.dissemination.iter().map(|c| c.ratio);
        let kssp = r.kssp.iter().map(|c| c.ratio);
        if !diss.chain(kssp).all(f64::is_finite) {
            return Err(SweepArtifactError::NonFiniteRatio);
        }
        let cell = |name| r.dissemination.iter().find(|c| c.algorithm == name);
        if let (Some(t1), Some(base)) = (cell("theorem1"), cell("sqrt-k-baseline")) {
            if t1.rounds > base.rounds {
                return Err(SweepArtifactError::SeparationInverted {
                    row,
                    family: r.family,
                    n: r.n,
                    point: r.point,
                    theorem1: t1.rounds,
                    baseline: base.rounds,
                });
            }
        }
        if let Some(t1) = cell("theorem1") {
            let log_n = ModelParams::log_n(r.n) as u64;
            let envelope = THEOREM1_C1 * r.nq_k * log_n * log_n;
            if t1.rounds > envelope {
                return Err(SweepArtifactError::Theorem1OutsideEnvelope {
                    row,
                    family: r.family,
                    n: r.n,
                    point: r.point,
                    theorem1: t1.rounds,
                    envelope,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SweepRow {
        /// The dissemination cell of a named contender, if it ran in this row.
        fn diss_cell(&self, algorithm: &str) -> Option<&DissCell> {
            self.dissemination.iter().find(|c| c.algorithm == algorithm)
        }

        /// The shortest-paths cell of a named contender, if it ran in this row.
        fn kssp_cell(&self, algorithm: &str) -> Option<&KsspCell> {
            self.kssp.iter().find(|c| c.algorithm == algorithm)
        }
    }

    #[test]
    fn quick_grid_covers_every_family_size_and_point() {
        let config = SweepConfig::quick();
        let rows = sweep_rows(&config);
        let sizes = config.grid.sizes.len();
        assert_eq!(
            rows.len(),
            GraphFamily::all().len() * sizes * config.points.len()
        );
        for family in GraphFamily::all() {
            for point in &config.points {
                let count = rows
                    .iter()
                    .filter(|r| r.family == family.name() && r.point == point.name)
                    .count();
                assert_eq!(count, sizes, "{} × {}", family.name(), point.name);
            }
        }
        // Every row carries the full shootout: 3 dissemination + 3 k-SSP
        // contenders, measured against the row's shared witnesses.
        for r in &rows {
            assert_eq!(r.dissemination.len(), 3, "{} n={}", r.family, r.n);
            assert_eq!(r.kssp.len(), 3, "{} n={}", r.family, r.n);
            assert!(r.diss_cell("theorem1").is_some());
            assert!(r.diss_cell("det-broadcast").is_some());
            assert!(r.kssp_cell("theorem14").is_some());
            assert!(r.kssp_cell("schneider").is_some());
        }
    }

    #[test]
    fn rows_respect_their_lower_bounds() {
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::Path, GraphFamily::Barbell], &[96, 192], 9),
            points: vec![SweepPoint::HYBRID, SweepPoint::SCARCE_GLOBAL],
        };
        let rows = sweep_rows(&config);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            for c in &r.dissemination {
                assert!(
                    c.rounds as f64 >= r.dissemination_lower_bound,
                    "{} n={} {} {}: dissemination below its lower bound",
                    r.family,
                    r.n,
                    r.point,
                    c.algorithm
                );
                assert!(c.ratio >= 1.0 || r.dissemination_lower_bound < 1.0);
                assert!(c.ratio.is_finite() && c.nq_ratio.is_finite());
            }
            for c in &r.kssp {
                assert!(
                    c.rounds >= r.kssp_lower_bound,
                    "{} n={} {} {}: k-SSP below its lower bound",
                    r.family,
                    r.n,
                    r.point,
                    c.algorithm
                );
                assert!(c.ratio.is_finite());
            }
            assert!(r.sssp_ratio > 0.0);
        }
    }

    #[test]
    fn schneider_pays_for_depth_on_the_path() {
        // The skeleton-free rival's deepening bill is Θ(hop-diameter): on the
        // path it must lose to Theorem 14 by a wide margin.
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::Path], &[256], 7),
            points: vec![SweepPoint::HYBRID],
        };
        let rows = sweep_rows(&config);
        let ours = rows[0].kssp_cell("theorem14").unwrap();
        let rival = rows[0].kssp_cell("schneider").unwrap();
        assert!(
            rival.rounds > 2 * ours.rounds,
            "schneider {} vs theorem14 {}",
            rival.rounds,
            ours.rounds
        );
    }

    #[test]
    fn scarce_global_never_beats_rich_global() {
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::ChungLu], &[128], 5),
            points: vec![SweepPoint::SCARCE_GLOBAL, SweepPoint::RICH_GLOBAL],
        };
        let rows = sweep_rows(&config);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].gamma_msgs < rows[1].gamma_msgs);
        let scarce = rows[0].kssp_cell("theorem14").unwrap();
        let rich = rows[1].kssp_cell("theorem14").unwrap();
        assert!(scarce.rounds >= rich.rounds);
    }

    #[test]
    fn congest_local_matches_hybrid_rounds() {
        // λ enters neither the hop-charged local phases nor the Lemma 7.1
        // witness, so the congest-local point must reproduce HYBRID rounds
        // for every contender.
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::Grid2D], &[64], 3),
            points: vec![SweepPoint::HYBRID, SweepPoint::CONGEST_LOCAL],
        };
        let rows = sweep_rows(&config);
        for (a, b) in rows[0].dissemination.iter().zip(&rows[1].dissemination) {
            assert_eq!(a.algorithm, b.algorithm);
            assert_eq!(a.rounds, b.rounds, "{}", a.algorithm);
        }
        for (a, b) in rows[0].kssp.iter().zip(&rows[1].kssp) {
            assert_eq!(a.rounds, b.rounds, "{}", a.algorithm);
        }
        assert_ne!(rows[0].lambda, rows[1].lambda);
    }

    #[test]
    fn gamma_scaling_is_clamped() {
        assert_eq!(SweepPoint::SCARCE_GLOBAL.gamma_msgs(4), 1);
        assert!(SweepPoint::RICH_GLOBAL.gamma_msgs(1024) > SweepPoint::HYBRID.gamma_msgs(1024));
    }

    #[test]
    fn artifact_validator_accepts_real_rows_and_rejects_corruption() {
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::Cycle], &[64], 1),
            points: vec![SweepPoint::HYBRID, SweepPoint::SCARCE_GLOBAL],
        };
        let rows = sweep_rows(&config);
        check_shootout(&rows).unwrap();

        assert_eq!(check_shootout(&[]), Err(SweepArtifactError::Empty));
        let corrupt = |corrupt_row: fn(&mut SweepRow)| {
            let mut rows = rows.clone();
            corrupt_row(&mut rows[1]);
            check_shootout(&rows)
        };
        let too_few = |column, algorithms| {
            Err(SweepArtifactError::TooFewAlgorithms {
                row: 1,
                column,
                algorithms,
            })
        };
        // A row without its dissemination shootout.
        assert_eq!(
            corrupt(|r| r.dissemination.clear()),
            too_few("dissemination", 0)
        );
        assert_eq!(corrupt(|r| r.kssp.truncate(2)), too_few("kssp", 2));
        assert_eq!(
            corrupt(|r| r.kssp[2].ratio = f64::NAN),
            Err(SweepArtifactError::NonFiniteRatio)
        );
        assert_eq!(
            corrupt(|r| r.dissemination[0].ratio = f64::INFINITY),
            Err(SweepArtifactError::NonFiniteRatio)
        );
        // Theorem 1 slower than the existential baseline: the separation
        // runs the wrong way, and the error names the row.
        let err = corrupt(|r| {
            let base = r.diss_cell("sqrt-k-baseline").unwrap().rounds;
            let t1 = r
                .dissemination
                .iter_mut()
                .find(|c| c.algorithm == "theorem1");
            t1.unwrap().rounds = base + 1;
        })
        .unwrap_err();
        let r = &rows[1];
        assert_eq!(
            err,
            SweepArtifactError::SeparationInverted {
                row: 1,
                family: "cycle",
                n: r.n,
                point: r.point,
                theorem1: r.diss_cell("sqrt-k-baseline").unwrap().rounds + 1,
                baseline: r.diss_cell("sqrt-k-baseline").unwrap().rounds,
            }
        );
        assert!(err.to_string().contains("row 1 (cycle, n = 64"), "{err}");
    }

    #[test]
    fn a_theorem1_row_outside_its_envelope_is_named() {
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::Cycle], &[64], 1),
            points: vec![SweepPoint::HYBRID],
        };
        let mut rows = sweep_rows(&config);
        // n = 64: ⌈log₂ n⌉² = 36.
        let envelope = THEOREM1_C1 * rows[0].nq_k * 36;
        let set_rounds = |rows: &mut [SweepRow], rounds| {
            for c in &mut rows[0].dissemination {
                if c.algorithm == "theorem1" || c.algorithm == "sqrt-k-baseline" {
                    c.rounds = rounds;
                }
            }
        };
        // On the envelope is inside it; one round more is not, even when
        // the baseline is as slow.
        set_rounds(&mut rows, envelope);
        check_shootout(&rows).unwrap();
        set_rounds(&mut rows, envelope + 1);
        let err = check_shootout(&rows).unwrap_err();
        assert_eq!(
            err,
            SweepArtifactError::Theorem1OutsideEnvelope {
                row: 0,
                family: "cycle",
                n: 64,
                point: rows[0].point,
                theorem1: envelope + 1,
                envelope,
            }
        );
        assert!(err.to_string().contains("row 0 (cycle, n = 64"), "{err}");
    }
}
