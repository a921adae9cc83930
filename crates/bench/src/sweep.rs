//! Scaling sweeps: the algorithm **shootout** — competitive-ratio curves for
//! every registered algorithm against the per-instance lower bound over a
//! `family × size × γ` grid.
//!
//! The paper's headline claim is *universal* optimality — on **every**
//! topology the algorithms stay within polylog factors of that graph's own
//! lower bound.  The table reproductions check fixed-size rows; this module
//! measures the claim *at scale and against the competition*: every
//! [`GraphFamily`] is swept over a geometric ladder of sizes and a small grid
//! of `HYBRID(∞, γ)` parameter points, and each cell runs **every registered
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
//! cell, `γ` points and algorithms run in-cell to share the graph and
//! its `NQ` oracle) is bit-identical across `RAYON_NUM_THREADS` — pinned by
//! `crates/bench/tests/determinism.rs` and the CI cross-thread artifact diff.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use hybrid_core::algorithm::{dissemination_registry, sssp_registry};
use hybrid_core::dissemination::place_tokens;
use hybrid_core::kssp::{kssp_lower_bound_rounds, KsspOutput};
use hybrid_core::lower_bounds::{dissemination_lower_bound, shortest_paths_lower_bound};
use hybrid_core::nq::NqOracle;
use hybrid_core::prob::sample_distinct;
use hybrid_core::sssp::sssp_approx;
use hybrid_core::stretch::StretchViolation;
use hybrid_graph::Graph;
use hybrid_sim::{HybridNetwork, ModelParams, PhaseKind};

use crate::grid::{GraphFamily, Grid};

// The benchmark workloads import the seed rule by this path.
pub use crate::grid::cell_seed;

/// One `γ` point of the sweep grid, as a function of `n` (measured in the
/// paper's `⌈log₂ n⌉` unit); `λ` is always `∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SweepPoint {
    /// Short name used in the JSON rows (`hybrid`, `scarce-global`, …).
    pub name: &'static str,
    /// `γ` in messages per node per round: `max(1, num·⌈log₂ n⌉ / den)`.
    pub gamma_num: usize,
    /// Denominator of the `γ` scaling (see `gamma_num`).
    pub gamma_den: usize,
}

impl SweepPoint {
    /// The standard `HYBRID` point: `γ = ⌈log₂ n⌉`.
    pub const HYBRID: SweepPoint = SweepPoint {
        name: "hybrid",
        gamma_num: 1,
        gamma_den: 1,
    };
    /// Scarce global bandwidth: `γ = max(1, ⌈log₂ n⌉ / 4)` — the
    /// regime where the `1/γ` factor of Lemma 7.1 bites hardest.
    pub const SCARCE_GLOBAL: SweepPoint = SweepPoint {
        name: "scarce-global",
        gamma_num: 1,
        gamma_den: 4,
    };
    /// Rich global bandwidth: `γ = 4·⌈log₂ n⌉`.
    pub const RICH_GLOBAL: SweepPoint = SweepPoint {
        name: "rich-global",
        gamma_num: 4,
        gamma_den: 1,
    };

    /// `γ` in messages per node per round for an `n`-node instance.
    pub fn gamma_msgs(&self, n: usize) -> usize {
        (self.gamma_num * ModelParams::log_n(n) / self.gamma_den.max(1)).max(1)
    }

    /// Model parameters for an `n`-node instance at this point.
    pub fn params(&self, n: usize) -> ModelParams {
        ModelParams::hybrid_with_global_capacity(n, self.gamma_msgs(n))
    }
}

/// Configuration of a scaling sweep: the `family × size` grid (a geometric
/// ladder of target node counts) and the `γ` points run in every cell.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The cells.
    pub grid: Grid,
    /// `γ` grid points.
    pub points: Vec<SweepPoint>,
}

/// The `γ` points of both shipped sweeps.
const POINTS: [SweepPoint; 3] = [
    SweepPoint::HYBRID,
    SweepPoint::SCARCE_GLOBAL,
    SweepPoint::RICH_GLOBAL,
];

impl SweepConfig {
    /// The CI-sized sweep: every family × 3 sizes × 3 points
    /// (`reproduce sweep --quick`).
    pub fn quick() -> Self {
        SweepConfig {
            grid: Grid::new(GraphFamily::all(), &[64, 128, 256], 0x5CA1E),
            points: POINTS.to_vec(),
        }
    }

    /// The full-depth sweep (nightly): every family × 4 sizes × 3 points.
    pub fn full() -> Self {
        SweepConfig {
            grid: Grid::new(GraphFamily::all(), &[128, 256, 512, 1024], 0x5CA1E),
            points: POINTS.to_vec(),
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
    /// Every round charged on the contender's fresh network.
    pub rounds: u64,
    /// The part of `rounds` spent learning the radius: Lemma 3.3's `NQ_k`
    /// measurement, or the baseline's `⌈√k⌉` flood and aggregation.
    pub setup_rounds: u64,
    /// `rounds` spent in local phases.
    pub local_rounds: u64,
    /// `rounds` spent in scheduled global phases.
    pub global_rounds: u64,
    /// `rounds` charged at a stated cost, not executed.
    pub charged_rounds: u64,
    /// The clustering radius the run used: `NQ_k`, or `min(⌈√k⌉, D)`.
    pub radius: u64,
    /// `rounds / dissemination_lower_bound` — same witness for every
    /// contender in the row; `null` when the witness is below one round.
    pub ratio: Option<f64>,
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
    /// The worst stretch its labels reach against exact distances.
    pub measured_stretch: f64,
    /// Every round charged on the contender's fresh network.
    pub rounds: u64,
    /// `rounds` spent in local phases.
    pub local_rounds: u64,
    /// `rounds` spent in scheduled global phases.
    pub global_rounds: u64,
    /// `rounds` charged at a stated cost, not executed.
    pub charged_rounds: u64,
    /// `rounds / max(1, kssp_lower_bound)` — same witness for every
    /// contender in the row.
    pub ratio: f64,
    /// Skeleton / landmark-set size the run used (0 = fast path).
    pub skeleton_size: usize,
}

/// One cell of the scaling sweep: a `(family, n, γ)` coordinate with the
/// instance's lower-bound witnesses and, side by side, every registered
/// algorithm's measured rounds and competitive ratio against them.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Graph family.
    pub family: &'static str,
    /// Actual number of nodes of the built instance.
    pub n: usize,
    /// Name of the `γ` grid point.
    pub point: &'static str,
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
    /// `sssp_rounds / lower bound`; `null` when the witness is below one
    /// round.
    pub sssp_ratio: Option<f64>,
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

/// Ratio of measured rounds to a lower-bound witness, present only when the
/// witness is at least one round: a ratio against a smaller witness is the
/// round count itself, not a competitive ratio.
fn witnessed_ratio(rounds: u64, lower_bound: f64) -> Option<f64> {
    (lower_bound >= 1.0).then(|| rounds as f64 / lower_bound)
}

/// Holds one k-SSP contender's labels on the weighted instance it ran on to
/// the stretch the run guarantees ([`KsspOutput::verify_stretch`]) and
/// returns the worst stretch they reach; a violation names the cell and the
/// contender.
fn check_labels(
    out: &KsspOutput,
    weighted: &Graph,
    family: &'static str,
    point: &'static str,
    algorithm: &'static str,
) -> Result<f64, SweepArtifactError> {
    out.verify_stretch(weighted)
        .map_err(|violation| SweepArtifactError::StretchViolated {
            family,
            n: weighted.n(),
            point,
            algorithm,
            violation,
        })
}

/// Runs the sweep grid with every registered algorithm.
///
/// Each `(family, n)` cell builds its graph and `NQ` oracle once and draws
/// its token placement, source set and algorithm seed once, then reuses them
/// for every `γ` point; within a cell the registered algorithms run
/// sequentially on identical instances.  Row order is family-major, then
/// size, then grid point — identical for every pool width.
///
/// Every k-SSP contender's labels are checked against exact distances where
/// the cell is built; the first violation in row order is the error.
pub fn sweep_rows(config: &SweepConfig) -> Result<Vec<SweepRow>, SweepArtifactError> {
    let (diss_algos, sssp_algos) = (dissemination_registry(), sssp_registry());
    let grid = &config.grid;
    grid.run(|cell| {
        let graph_seed = grid.seed(cell, 0);
        let graph = Arc::new(cell.family.build(cell.n_target, graph_seed));
        let weighted = Arc::new(cell.family.reweight(&graph, graph_seed));
        // `NQ_k` is a hop-distance profile and `reweight` keeps the same
        // topology, so one oracle serves both.
        let oracle = NqOracle::new(&graph);
        let (n, family) = (graph.n(), cell.family.name());

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
                        let meter = &out.meter;
                        DissCell {
                            algorithm: algo.name(),
                            reference: algo.reference(),
                            deterministic: algo.deterministic(),
                            rounds: out.rounds,
                            setup_rounds: out.setup_rounds,
                            local_rounds: meter.rounds_of(PhaseKind::Local),
                            global_rounds: meter.rounds_of(PhaseKind::Global),
                            charged_rounds: meter.rounds_of(PhaseKind::Charged),
                            radius: out.radius,
                            ratio: witnessed_ratio(out.rounds, diss_lb.rounds),
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
                let kssp = sssp_algos
                    .iter()
                    .map(|algo| {
                        let mut net = HybridNetwork::new(Arc::clone(&weighted), params);
                        let out = algo.run(&mut net, &sources, 1.0, algo_seed);
                        let measured =
                            check_labels(&out, &weighted, family, point.name, algo.name())?;
                        let meter = net.meter();
                        Ok(KsspCell {
                            algorithm: algo.name(),
                            reference: algo.reference(),
                            stretch: out.stretch,
                            measured_stretch: measured,
                            rounds: out.rounds,
                            local_rounds: meter.rounds_of(PhaseKind::Local),
                            global_rounds: meter.rounds_of(PhaseKind::Global),
                            charged_rounds: meter.rounds_of(PhaseKind::Charged),
                            ratio: ratio(out.rounds, ks_lb as f64),
                            skeleton_size: out.skeleton_size,
                        })
                    })
                    .collect::<Result<_, _>>()?;

                Ok(SweepRow {
                    family,
                    n,
                    point: point.name,
                    gamma_msgs: params.global_capacity_msgs,
                    k,
                    nq_k,
                    dissemination_lower_bound: diss_lb.rounds,
                    dissemination,
                    sssp_rounds: sssp.rounds,
                    sssp_lower_bound: sssp_lb.rounds,
                    sssp_ratio: witnessed_ratio(sssp.rounds, sssp_lb.rounds),
                    kssp_k,
                    kssp_lower_bound: ks_lb,
                    kssp,
                })
            })
            .collect()
    })
    .into_iter()
    .collect()
}

/// Why a shootout falls short of the full registry, or of what its
/// contenders guarantee.
///
/// `reproduce` holds every shootout it writes to [`check_shootout`] and exits
/// non-zero when the check, or [`sweep_rows`]' label check, fails.
#[derive(Debug, Clone, PartialEq)]
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
    /// Past their set-up, Theorem 1 took more rounds than the existential
    /// `√k` baseline — the separation the paper claims runs the wrong way on
    /// this row.
    SeparationInverted {
        /// Index of the row.
        row: usize,
        /// The row's family.
        family: &'static str,
        /// The row's node count.
        n: usize,
        /// The row's `γ` point.
        point: &'static str,
        /// Rounds of `theorem1` past its set-up.
        theorem1: u64,
        /// Rounds of `sqrt-k-baseline` past its set-up.
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
        /// The row's `γ` point.
        point: &'static str,
        /// Rounds of `theorem1`.
        theorem1: u64,
        /// The envelope, in rounds.
        envelope: u64,
    },
    /// A contender took fewer rounds than the row's lower-bound witness for
    /// its problem: the witness, not the run, is wrong.
    BelowLowerBound {
        /// Index of the row.
        row: usize,
        /// The row's family.
        family: &'static str,
        /// The row's node count.
        n: usize,
        /// The row's `γ` point.
        point: &'static str,
        /// The contender: a registry name, or [`SSSP_REFERENCE`] for the
        /// row's single-source reference run.
        algorithm: &'static str,
        /// Its rounds.
        rounds: u64,
        /// The witness it undercuts, in rounds.
        lower_bound: f64,
    },
    /// A k-SSP contender's labels break the stretch it guarantees.
    StretchViolated {
        /// The cell's family.
        family: &'static str,
        /// The cell's node count.
        n: usize,
        /// The cell's `γ` point.
        point: &'static str,
        /// The contender.
        algorithm: &'static str,
        /// The first label that breaks the contract.
        violation: StretchViolation,
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
                "row {row} ({family}, n = {n}, {point}): theorem1 took {theorem1} rounds past \
                 its set-up, more than sqrt-k-baseline's {baseline}"
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
            SweepArtifactError::BelowLowerBound {
                row,
                family,
                n,
                point,
                algorithm,
                rounds,
                lower_bound,
            } => write!(
                f,
                "row {row} ({family}, n = {n}, {point}): {algorithm} took {rounds} rounds, \
                 below the row's lower-bound witness of {lower_bound} rounds"
            ),
            SweepArtifactError::StretchViolated {
                family,
                n,
                point,
                algorithm,
                violation,
            } => write!(
                f,
                "({family}, n = {n}, {point}): {algorithm} labels break their stretch: {violation}"
            ),
        }
    }
}

impl std::error::Error for SweepArtifactError {}

/// Minimum number of contenders each shootout column of a well-formed row
/// carries (ours + the two rivals).
pub const MIN_ALGORITHMS_PER_ROW: usize = 3;

/// The constant of Theorem 1's envelope: `theorem1` takes at most
/// `THEOREM1_C1 · NQ_k · ⌈log₂ n⌉²` rounds, its Lemma 3.3 set-up included.
/// The worst cell needs 2.47 on the quick grid (chung-lu, n = 64,
/// scarce-global: 356 rounds at `NQ_k = 4`).
pub const THEOREM1_C1: u64 = 3;

/// The `algorithm` a [`SweepArtifactError::BelowLowerBound`] names for a
/// row's Theorem 13 single-source reference run (`sssp_rounds`).
pub const SSSP_REFERENCE: &str = "theorem13-sssp";

/// Checks a full-registry shootout: at least one row, every row's
/// `dissemination` and `kssp` columns carrying at least
/// [`MIN_ALGORITHMS_PER_ROW`] contenders each, every present `ratio` finite,
/// no run below the row's witness for its problem (dissemination, SSSP,
/// k-SSP), `theorem1` past its set-up never slower than `sqrt-k-baseline`
/// past its own — the one pipeline at two radii — and `theorem1`'s total
/// within its envelope (see [`THEOREM1_C1`]).
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
        let diss = r.dissemination.iter().filter_map(|c| c.ratio);
        let kssp = r.kssp.iter().map(|c| c.ratio);
        if !diss.chain(kssp).all(f64::is_finite) {
            return Err(SweepArtifactError::NonFiniteRatio);
        }
        // Every run against the witness of its own problem.
        let diss = r
            .dissemination
            .iter()
            .map(|c| (c.algorithm, c.rounds, r.dissemination_lower_bound));
        let sssp = (SSSP_REFERENCE, r.sssp_rounds, r.sssp_lower_bound);
        let kssp = r
            .kssp
            .iter()
            .map(|c| (c.algorithm, c.rounds, r.kssp_lower_bound as f64));
        let mut runs = diss.chain(std::iter::once(sssp)).chain(kssp);
        if let Some((algorithm, rounds, lower_bound)) =
            runs.find(|&(_, rounds, witness)| (rounds as f64) < witness)
        {
            return Err(SweepArtifactError::BelowLowerBound {
                row,
                family: r.family,
                n: r.n,
                point: r.point,
                algorithm,
                rounds,
                lower_bound,
            });
        }
        let cell = |name| r.dissemination.iter().find(|c| c.algorithm == name);
        if let (Some(t1), Some(base)) = (cell("theorem1"), cell("sqrt-k-baseline")) {
            // The one pipeline at two radii, once each radius is known.
            let theorem1 = t1.rounds - t1.setup_rounds;
            let baseline = base.rounds - base.setup_rounds;
            if theorem1 > baseline {
                return Err(SweepArtifactError::SeparationInverted {
                    row,
                    family: r.family,
                    n: r.n,
                    point: r.point,
                    theorem1,
                    baseline,
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

    impl DissCell {
        fn past_setup(&self) -> u64 {
            self.rounds - self.setup_rounds
        }

        fn phases(&self) -> [u64; 3] {
            [self.local_rounds, self.global_rounds, self.charged_rounds]
        }
    }

    impl KsspCell {
        fn phases(&self) -> [u64; 3] {
            [self.local_rounds, self.global_rounds, self.charged_rounds]
        }
    }

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

    /// The quick grid's rows, swept once for every test that reads them.
    fn quick_rows() -> &'static [SweepRow] {
        static ROWS: std::sync::OnceLock<Vec<SweepRow>> = std::sync::OnceLock::new();
        ROWS.get_or_init(|| sweep_rows(&SweepConfig::quick()).unwrap())
    }

    /// How far `theorem1`'s and `sqrt-k-baseline`'s rounds past set-up may
    /// stray from their radius ratio: on the quick grid the rounds ratio over
    /// the radius ratio spans 0.89 (chung-lu, n = 128, rich-global) to 1.51
    /// (grid-2d, n = 64, scarce-global).
    const RADIUS_TRACKING: f64 = 1.6;

    #[test]
    fn quick_grid_cells_explain_themselves() {
        let rows = quick_rows();
        let cells = |r: &SweepRow| {
            let diss = r
                .dissemination
                .iter()
                .map(|c| (c.algorithm, c.rounds, c.phases()));
            let kssp = r.kssp.iter().map(|c| (c.algorithm, c.rounds, c.phases()));
            diss.chain(kssp).collect::<Vec<_>>()
        };
        let (mut trivial_witness, mut trivial_sssp_witness) = (0, 0);
        let mut inverted_totals = Vec::new();
        for r in rows {
            let row = (r.family, r.n, r.point);
            // Each contender ran on a fresh network: its rounds are that
            // network's meter, phase by phase.
            for (algorithm, rounds, [local, global, charged]) in cells(r) {
                assert_eq!(local + global + charged, rounds, "{row:?} {algorithm}");
            }
            for c in &r.kssp {
                assert!(1.0 <= c.measured_stretch && c.measured_stretch <= c.stretch);
            }
            trivial_witness += usize::from(r.diss_cell("theorem1").unwrap().ratio.is_none());
            trivial_sssp_witness += usize::from(r.sssp_ratio.is_none());

            // One pipeline at two radii: NQ_k, and min(⌈√k⌉, D) (which
            // `RadiusPolicy::radius` checks against the oracle itself).
            let (t1, base) = (
                r.diss_cell("theorem1").unwrap(),
                r.diss_cell("sqrt-k-baseline").unwrap(),
            );
            let log_n = ModelParams::log_n(r.n) as u64;
            assert_eq!(
                (t1.radius, t1.setup_rounds),
                (r.nq_k, r.nq_k * (1 + log_n)),
                "{row:?}"
            );
            let (ours, theirs) = (t1.past_setup(), base.past_setup());
            if t1.radius == base.radius {
                assert_eq!(ours, theirs, "{row:?}: equal radii, unequal rounds");
            } else {
                let rounds_ratio = theirs as f64 / ours as f64;
                let radius_ratio = base.radius as f64 / t1.radius as f64;
                let tracking = rounds_ratio / radius_ratio;
                assert!(
                    (1.0 / RADIUS_TRACKING..=RADIUS_TRACKING).contains(&tracking),
                    "{row:?}: rounds ratio {rounds_ratio:.3} strays from radius ratio {radius_ratio:.3}"
                );
            }
            if t1.rounds > base.rounds {
                inverted_totals.push(row);
            }
        }
        assert_eq!((trivial_witness, trivial_sssp_witness), (98, 99));
        // With set-up counted, Theorem 1's Lemma 3.3 bill NQ_k·(1 + ⌈log₂ n⌉)
        // outgrows the baseline's ⌈√k⌉ + one aggregation where the radii tie
        // at NQ_k = √k = 16.
        let path_256 = |point| ("path", 256, point);
        assert_eq!(
            inverted_totals,
            ["hybrid", "scarce-global", "rich-global"].map(path_256),
            "rows where theorem1's total exceeds the baseline's"
        );
    }

    #[test]
    fn quick_grid_covers_every_family_size_and_point() {
        let config = SweepConfig::quick();
        let rows = quick_rows();
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
        for r in rows {
            assert_eq!(r.dissemination.len(), 3, "{} n={}", r.family, r.n);
            assert_eq!(r.kssp.len(), 3, "{} n={}", r.family, r.n);
            assert!(r.diss_cell("theorem1").is_some());
            assert!(r.diss_cell("det-broadcast").is_some());
            assert!(r.kssp_cell("theorem14").is_some());
            assert!(r.kssp_cell("schneider").is_some());
        }
        // Theorem 14's rounds depend on the point and `n` alone, never on
        // the family: rows sharing `(point, n)` record one value.
        let mut groups = std::collections::BTreeMap::new();
        for r in rows {
            let rounds = r.kssp_cell("theorem14").unwrap().rounds;
            let (first, families) = groups
                .entry((r.point, r.n))
                .or_insert((rounds, std::collections::BTreeSet::new()));
            assert_eq!(
                rounds, *first,
                "{} n={} {}: theorem14 rounds differ across families",
                r.family, r.n, r.point
            );
            families.insert(r.family);
        }
        // Not vacuous: some `n` is shared by three or more families.
        assert!(groups.values().any(|(_, families)| families.len() >= 3));

        // The k-SSP verdicts `schneider.rs` states.  Both contenders charge
        // Theorem 13 calls, so each verdict rests on `sssp.rs`'s
        // `COST_CONSTANT` (ROADMAP 15b): a changed constant moves them.
        let why = "the verdict rests on sssp.rs's COST_CONSTANT (ROADMAP 15b)";
        let (mut schneider_wins, mut theorem14_wins, mut ties) = (0, Vec::new(), Vec::new());
        for r in rows {
            let theorem14 = r.kssp_cell("theorem14").unwrap().rounds;
            let schneider = r.kssp_cell("schneider").unwrap().rounds;
            let cell = (r.point, r.family, r.n);
            if r.point == SweepPoint::RICH_GLOBAL.name {
                assert!(theorem14 < schneider, "{cell:?}: theorem14 must win; {why}");
            } else if schneider < theorem14 {
                schneider_wins += 1;
            } else if theorem14 < schneider {
                theorem14_wins.push(cell);
            } else {
                ties.push(cell);
            }
        }
        assert_eq!(
            schneider_wins, 61,
            "schneider wins outside rich-global; {why}"
        );
        assert_eq!(
            theorem14_wins,
            [
                ("hybrid", "path", 128),
                ("hybrid", "path", 256),
                ("scarce-global", "path", 256),
                ("hybrid", "cycle", 256),
            ],
            "theorem14 wins outside rich-global; {why}"
        );
        assert_eq!(ties, [("hybrid", "cycle", 128)], "{why}");
    }

    #[test]
    fn rows_respect_their_lower_bounds() {
        let rows = quick_rows();
        assert_eq!(rows.len(), 99);
        for r in rows {
            for c in &r.dissemination {
                assert!(
                    c.rounds as f64 >= r.dissemination_lower_bound,
                    "{} n={} {} {}: dissemination below its lower bound",
                    r.family,
                    r.n,
                    r.point,
                    c.algorithm
                );
                // A ratio is present exactly when the witness is a round.
                assert_eq!(c.ratio.is_some(), r.dissemination_lower_bound >= 1.0);
                assert!(c
                    .ratio
                    .is_none_or(|ratio| ratio >= 1.0 && ratio.is_finite()));
                assert!(c.nq_ratio.is_finite());
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
            assert!(
                r.sssp_rounds as f64 >= r.sssp_lower_bound,
                "{} n={} {}: SSSP below its lower bound",
                r.family,
                r.n,
                r.point
            );
            assert_eq!(r.sssp_ratio.is_some(), r.sssp_lower_bound >= 1.0);
            assert!(r.sssp_ratio.is_none_or(|ratio| ratio > 0.0));
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
        let rows = sweep_rows(&config).unwrap();
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
        let rows = sweep_rows(&config).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].gamma_msgs < rows[1].gamma_msgs);
        let scarce = rows[0].kssp_cell("theorem14").unwrap();
        let rich = rows[1].kssp_cell("theorem14").unwrap();
        assert!(scarce.rounds >= rich.rounds);
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
        let rows = sweep_rows(&config).unwrap();
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
            corrupt(|r| r.dissemination[0].ratio = Some(f64::INFINITY)),
            Err(SweepArtifactError::NonFiniteRatio)
        );
        // Theorem 1 slower than the existential baseline past their
        // set-ups: the separation runs the wrong way, and the error names
        // the row.
        let r = &rows[1];
        let baseline = r.diss_cell("sqrt-k-baseline").unwrap().past_setup();
        let err = corrupt(|r| {
            let base = r.diss_cell("sqrt-k-baseline").unwrap().past_setup();
            let t1 = r
                .dissemination
                .iter_mut()
                .find(|c| c.algorithm == "theorem1")
                .unwrap();
            t1.rounds = t1.setup_rounds + base + 1;
        })
        .unwrap_err();
        assert_eq!(
            err,
            SweepArtifactError::SeparationInverted {
                row: 1,
                family: "cycle",
                n: r.n,
                point: r.point,
                theorem1: baseline + 1,
                baseline,
            }
        );
        assert!(err.to_string().contains("row 1 (cycle, n = 64"), "{err}");
    }

    /// The artifact-lock test runs `reproduce all --quick`, which holds the
    /// quick grid to `check_shootout`; this pins that a doctored row outside
    /// the Theorem 1 envelope is refused, so `reproduce` exits 1 naming the
    /// cell.
    #[test]
    fn a_theorem1_row_outside_its_envelope_is_named() {
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::Cycle], &[64], 1),
            points: vec![SweepPoint::HYBRID],
        };
        let mut rows = sweep_rows(&config).unwrap();
        // n = 64: ⌈log₂ n⌉² = 36.
        let envelope = THEOREM1_C1 * rows[0].nq_k * 36;
        let set_rounds = |rows: &mut [SweepRow], rounds| {
            for c in &mut rows[0].dissemination {
                if c.algorithm == "theorem1" || c.algorithm == "sqrt-k-baseline" {
                    (c.rounds, c.setup_rounds) = (rounds, 0);
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

    /// A doctored row in which one run (a dissemination contender, the SSSP
    /// reference or a k-SSP contender) undercuts its problem's witness is
    /// refused, so `reproduce sweep` exits 1 naming the family, `n`, point
    /// and algorithm.
    #[test]
    fn a_run_below_its_lower_bound_witness_is_named() {
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::Cycle], &[64], 1),
            points: vec![SweepPoint::HYBRID],
        };
        let rows = sweep_rows(&config).unwrap();
        check_shootout(&rows).unwrap();
        let doctored = |doctor: &dyn Fn(&mut SweepRow)| {
            let mut rows = rows.clone();
            doctor(&mut rows[0]);
            check_shootout(&rows)
        };
        let below = |algorithm, rounds, lower_bound| {
            Err(SweepArtifactError::BelowLowerBound {
                row: 0,
                family: "cycle",
                n: 64,
                point: "hybrid",
                algorithm,
                rounds,
                lower_bound,
            })
        };
        let r = &rows[0];

        // k-SSP: a contender on its witness is fine; one round below it is
        // refused by name.
        let (schneider, witness) = (r.kssp_cell("schneider").unwrap(), r.kssp_lower_bound);
        assert!(schneider.rounds > witness);
        let set_schneider = |rounds| {
            move |r: &mut SweepRow| {
                let cell = r.kssp.iter_mut().find(|c| c.algorithm == "schneider");
                cell.unwrap().rounds = rounds;
            }
        };
        assert_eq!(doctored(&set_schneider(witness)), Ok(()));
        assert_eq!(
            doctored(&set_schneider(witness - 1)),
            below("schneider", witness - 1, witness as f64)
        );

        // Dissemination: a witness past every contender names the first.
        let first = &r.dissemination[0];
        let witness = (first.rounds + 1) as f64;
        let err = doctored(&|r| r.dissemination_lower_bound = witness).unwrap_err();
        assert_eq!(
            Err(err.clone()),
            below(first.algorithm, first.rounds, witness)
        );
        assert!(
            err.to_string()
                .starts_with("row 0 (cycle, n = 64, hybrid): "),
            "{err}"
        );

        // SSSP: the reference run undercutting its witness.
        let witness = r.sssp_rounds as f64 + 0.5;
        assert_eq!(
            doctored(&|r| r.sssp_lower_bound = witness),
            below(SSSP_REFERENCE, r.sssp_rounds, witness)
        );
    }

    #[test]
    fn a_label_row_that_breaks_its_stretch_is_named() {
        let family = GraphFamily::Cycle;
        let weighted = family.reweight(&family.build(64, 1), 1);
        let params = SweepPoint::HYBRID.params(weighted.n());
        let algo = &sssp_registry()[0];
        let mut net = HybridNetwork::new(Arc::new(weighted.clone()), params);
        let mut out = algo.run(&mut net, &[0, 9, 17, 40], 1.0, 3);
        let check =
            |out: &KsspOutput| check_labels(out, &weighted, family.name(), "hybrid", algo.name());
        check(&out).unwrap();

        // Row 1 (source 9) claims node 40 is at distance 0.
        let (sources, n) = (out.dist.sources().to_vec(), out.dist.n());
        let mut rows = out.dist.into_rows();
        rows[1][40] = 0;
        out.dist = hybrid_core::rows::DistanceRows::from_rows(sources, n, rows);
        let err = check(&out).unwrap_err();
        assert!(
            matches!(
                err,
                SweepArtifactError::StretchViolated {
                    family: "cycle",
                    n: 64,
                    point: "hybrid",
                    violation: StretchViolation::Underestimate(_),
                    ..
                }
            ),
            "{err:?}"
        );
        let named = format!("(cycle, n = 64, hybrid): {} labels break", algo.name());
        assert!(err.to_string().starts_with(&named), "{err}");
    }
}
