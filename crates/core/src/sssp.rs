//! Single-source shortest paths in the HYBRID model.
//!
//! * **Theorem 13** (existentially optimal SSSP): a `(1+ε)`-approximation of
//!   SSSP can be computed in `Õ(1/ε²)` rounds, deterministically, in
//!   `Hybrid0`.  The paper obtains this by simulating the Minor-Aggregation
//!   model (Lemma 8.2) and implementing the Eulerian-orientation oracle
//!   (Lemma 8.6), then invoking the transshipment-based SSSP of `[RGH+22]`.
//!   This reproduction runs none of that stack: [`sssp_approx`] runs exact
//!   Dijkstra, quantizes each distance by the allowed `(1+ε)` error
//!   ([`quantize_distance`]) and charges the `Õ(1/ε²)` rounds through an
//!   explicit cost model ([`SsspCostModel`]) under the phase label
//!   `sssp/theorem13-minor-aggregation`.  Everything the downstream
//!   universal algorithms consume — label quality, polylogarithmic round
//!   cost, number of invocations — is thereby preserved, and the label
//!   quality is checked under the one label contract of [`crate::stretch`]
//!   (ARCHITECTURE.md, *Label contract*).
//!
//! * **Prior-work baselines** (the other rows of Table 4): closed-form round
//!   bounds for `[KS20]` (`Õ(√n)` exact), `[CHLP21b]` (`Õ(n^{5/17})`, `1+ε`),
//!   `[AHK+20]` (`Õ(n^ε)`, large constant stretch) and `[AG21a]` (`Õ(√n)`
//!   deterministic, `log n / log log n` stretch).  [`SsspBaseline::rounds`]
//!   evaluates each as a number: no network is built and no label is
//!   computed.

use hybrid_graph::dijkstra::dijkstra;
use hybrid_graph::{NodeId, Weight, INFINITY};
use hybrid_sim::HybridNetwork;

use crate::stretch::{self, StretchViolation};

/// Cost model for the Theorem 13 SSSP.
///
/// Theorem 13's bound is `Õ(1/ε²)` — a polylogarithmic number of rounds whose
/// exponent and constant are hidden by the `Õ(·)`.  The calibration charges
/// `⌈log₂ n⌉ / ε` rounds (the three constants below), which is consistent
/// with the asymptotic statement ("flat in `n` up to polylogs") at simulation
/// scales and keeps the constant-factor relationship to the `√n`-type
/// baselines realistic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SsspCostModel;

/// Multiplicative constant in front of the polylogarithmic bound.
const COST_CONSTANT: f64 = 1.0;
/// Power of the `log₂ n` factor.
const COST_LOG_POWER: i32 = 1;
/// Power of the `1/ε` factor.
const COST_EPS_POWER: i32 = 1;

impl SsspCostModel {
    /// Rounds charged for one SSSP invocation with accuracy `epsilon` on a
    /// network of `n` nodes.
    pub fn rounds(&self, n: usize, epsilon: f64) -> u64 {
        let log_n = hybrid_sim::ModelParams::log_n(n) as f64;
        let raw = COST_CONSTANT * log_n.powi(COST_LOG_POWER) / epsilon.powi(COST_EPS_POWER);
        (raw.ceil() as u64).max(1)
    }
}

/// Output of an SSSP computation.
#[derive(Debug, Clone)]
pub struct SsspOutput {
    /// The source node.
    pub source: NodeId,
    /// Distance label per node (`INFINITY` if unreachable; never happens on
    /// connected graphs).
    pub dist: Vec<Weight>,
    /// Guaranteed stretch of the labels (`1 + ε` for Theorem 13).
    pub stretch: f64,
    /// Rounds charged for this computation.
    pub rounds: u64,
}

impl SsspOutput {
    /// Verifies `d(v) ≤ label(v) ≤ stretch · d(v)` against the exact
    /// distances from [`SsspOutput::source`] under the label contract
    /// ([`crate::stretch`]) and returns the maximum observed stretch.
    pub fn verify_stretch(&self, exact: &[Weight]) -> Result<f64, StretchViolation> {
        stretch::check_row(self.source, exact, &self.dist, self.stretch)
    }
}

/// Quantizes an exact distance by the allowed `(1+ε)` error:
/// `d ↦ d + ⌊d·ε/2⌋`, which satisfies `d ≤ d̃ ≤ (1+ε)·d`.  A finite `d`
/// stays finite: the sum is capped at `INFINITY − 1`, still `≥ d`.
pub fn quantize_distance(d: Weight, epsilon: f64) -> Weight {
    if d == 0 || d == INFINITY {
        return d;
    }
    // `as u64` truncates toward zero and saturates (NaN and negatives to 0),
    // which is `floor() as u64` for every `f64` without a libm call.
    let slack = ((d as f64) * (epsilon / 2.0)) as u64;
    d.saturating_add(slack).min(INFINITY - 1)
}

/// Theorem 13 — `(1+ε)`-approximate SSSP in `Õ(1/ε²)` rounds (deterministic,
/// `Hybrid0`), charged through [`SsspCostModel`].
pub fn sssp_approx(net: &mut HybridNetwork, source: NodeId, epsilon: f64) -> SsspOutput {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let graph = net.graph_arc();
    let exact = dijkstra(&graph, source).dist;
    let dist: Vec<Weight> = exact
        .iter()
        .map(|&d| quantize_distance(d, epsilon))
        .collect();
    let rounds = sssp_round_cost(net, epsilon);
    net.charge_rounds("sssp/theorem13-minor-aggregation", rounds);
    SsspOutput {
        source,
        dist,
        stretch: 1.0 + epsilon,
        rounds,
    }
}

/// Number of rounds one Theorem 13 SSSP invocation costs without running it
/// (used by schedulers that charge `T_SSSP` symbolically, Lemma 9.3).
pub fn sssp_round_cost(net: &HybridNetwork, epsilon: f64) -> u64 {
    SsspCostModel.rounds(net.graph().n(), epsilon)
}

/// Prior-work SSSP algorithms used as the comparison rows of Table 4: each
/// is its published round bound, closed form, not run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SsspBaseline {
    /// `[KS20]`: exact SSSP in `Õ(√n)` rounds (randomized).
    Ks20SqrtN,
    /// `[CHLP21b]`: `(1+ε)`-approximate SSSP in `Õ(n^{5/17})` rounds.
    Chlp21FiveSeventeenths,
    /// `[AHK+20]`: `(1/ε)^O(1/ε)`-approximate SSSP in `Õ(n^ε)` rounds.
    Ahk20NEps {
        /// The exponent ε of the round bound.
        exponent: f64,
    },
    /// `[AG21a]`: deterministic `log n / log log n`-approximation in `Õ(√n)`.
    Ag21DeterministicSqrtN,
}

impl SsspBaseline {
    /// Published round bound of the baseline (with constant 1 and a single
    /// `log n` factor standing in for the `Õ(·)`).
    pub fn rounds(&self, n: usize) -> u64 {
        let n_f = n.max(2) as f64;
        let log_n = hybrid_sim::ModelParams::log_n(n) as f64;
        let raw = match self {
            SsspBaseline::Ks20SqrtN => n_f.sqrt() * log_n,
            SsspBaseline::Chlp21FiveSeventeenths => n_f.powf(5.0 / 17.0) * log_n,
            SsspBaseline::Ahk20NEps { exponent } => n_f.powf(*exponent) * log_n,
            SsspBaseline::Ag21DeterministicSqrtN => n_f.sqrt() * log_n,
        };
        (raw.ceil() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn quantization_respects_bounds() {
        for eps in [0.1f64, 0.5, 1.0] {
            for d in [0u64, 1, 2, 7, 100, 12345] {
                let q = quantize_distance(d, eps);
                assert!(q >= d);
                assert!(q as f64 <= (1.0 + eps) * d as f64 + 1e-9);
            }
        }
        assert_eq!(quantize_distance(INFINITY, 0.5), INFINITY);
    }

    /// The labels before the `floor()` went: every quantized label is still
    /// this one, bit for bit.
    fn quantize_with_floor(d: Weight, epsilon: f64) -> Weight {
        if d == 0 || d == INFINITY {
            return d;
        }
        let slack = ((d as f64) * (epsilon / 2.0)).floor() as u64;
        d.saturating_add(slack).min(INFINITY - 1)
    }

    #[test]
    fn quantization_truncates_as_floor_did() {
        let ds = [
            0,
            1,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            u64::MAX / 2,
            INFINITY - 1,
            INFINITY,
        ];
        let epsilons = [1e-9, 0.25, 1.0, 2.5, 0.0, -0.5, f64::NAN, f64::INFINITY];
        for d in ds {
            for eps in epsilons {
                assert_eq!(
                    quantize_distance(d, eps),
                    quantize_with_floor(d, eps),
                    "d = {d}, ε = {eps}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn quantization_truncates_as_floor_did_on_random_inputs(
            d in any::<u64>(),
            small in 0u64..1 << 20,
            eps in 0.0f64..4.0,
        ) {
            for d in [d, small] {
                prop_assert_eq!(quantize_distance(d, eps), quantize_with_floor(d, eps));
            }
        }
    }

    #[test]
    fn quantization_keeps_a_near_infinite_distance_reachable() {
        let far = INFINITY - 1;
        assert_eq!(quantize_distance(far, 0.25), far);
        assert_eq!(quantize_distance(far - 8, 0.25), far);
        // Two nodes, one edge of weight `INFINITY − 1`.
        let mut b = hybrid_graph::GraphBuilder::new(2);
        b.add_edge(0, 1, far).unwrap();
        let g = Arc::new(b.build().unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let out = sssp_approx(&mut net, 0, 0.25);
        assert_eq!(out.dist, vec![0, far]);
        out.verify_stretch(&dijkstra(&g, 0).dist).unwrap();
        let rows = crate::rows::DistanceRows::compute_quantized(&g, &[0, 1], 0.25);
        assert_eq!((rows.row(0), rows.row(1)), (&[0, far][..], &[far, 0][..]));
        rows.verify_stretch(&g, 1.25).unwrap();
    }

    #[test]
    fn sssp_labels_have_promised_stretch() {
        let g = Arc::new(generators::weighted_grid(&[10, 10], 30, 1).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let out = sssp_approx(&mut net, 0, 0.25);
        let exact = dijkstra(&g, 0).dist;
        out.verify_stretch(&exact).unwrap();
        assert_eq!(out.stretch, 1.25);
    }

    #[test]
    fn sssp_rounds_are_polylog_and_independent_of_n_growth() {
        let small = Arc::new(generators::grid(&[8, 8]).unwrap());
        let large = Arc::new(generators::grid(&[32, 32]).unwrap());
        let mut net_s = HybridNetwork::hybrid(Arc::clone(&small));
        let mut net_l = HybridNetwork::hybrid(Arc::clone(&large));
        let out_s = sssp_approx(&mut net_s, 0, 0.5);
        let out_l = sssp_approx(&mut net_l, 0, 0.5);
        // Table 4: Õ(1) — rounds grow only polylogarithmically with n.
        assert!(out_l.rounds <= out_s.rounds * 4);
        assert!(out_l.rounds < (large.n() as f64).sqrt() as u64);
        assert_eq!(out_s.rounds, sssp_round_cost(&net_s, 0.5));
    }

    #[test]
    fn cost_model_scales_with_epsilon() {
        let m = SsspCostModel;
        assert!(m.rounds(1000, 0.1) > m.rounds(1000, 1.0));
        assert_eq!(m.rounds(1024, 0.5), 20);
    }

    #[test]
    fn baselines_cost_more_than_theorem13_for_large_n() {
        let g = Arc::new(generators::grid(&[40, 40]).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let ours = sssp_approx(&mut net, 0, 0.5);
        for b in [
            SsspBaseline::Ks20SqrtN,
            SsspBaseline::Chlp21FiveSeventeenths,
            SsspBaseline::Ahk20NEps { exponent: 0.4 },
            SsspBaseline::Ag21DeterministicSqrtN,
        ] {
            assert!(
                b.rounds(g.n()) > ours.rounds,
                "{b:?} should be slower than Theorem 13 on n=1600"
            );
        }
    }

    #[test]
    fn verify_stretch_catches_underestimates() {
        let g = Arc::new(generators::path(6).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let mut out = sssp_approx(&mut net, 0, 0.5);
        let exact = dijkstra(&g, 0).dist;
        out.dist[5] = 1; // corrupt
        assert!(matches!(
            out.verify_stretch(&exact),
            Err(StretchViolation::Underestimate(cell)) if (cell.row, cell.col) == (0, 5)
        ));
    }

    #[test]
    fn a_label_row_of_the_wrong_length_is_a_violation() {
        let g = Arc::new(generators::path(6).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let out = sssp_approx(&mut net, 2, 0.5);
        let exact = dijkstra(&g, 2).dist;
        assert!(out.verify_stretch(&exact).is_ok());
        // Either side short: the common prefix alone proves nothing.
        let misaligned = |exact: usize, labels: usize| {
            Err(StretchViolation::Misaligned {
                row: Some(2),
                exact,
                labels,
            })
        };
        assert_eq!(out.verify_stretch(&exact[..5]), misaligned(5, 6));
        let mut short = out.clone();
        short.dist.pop();
        assert_eq!(short.verify_stretch(&exact), misaligned(6, 5));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epsilon_panics() {
        let g = Arc::new(generators::path(5).unwrap());
        let mut net = HybridNetwork::hybrid(g);
        sssp_approx(&mut net, 0, 0.0);
    }
}
