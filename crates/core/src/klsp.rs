//! Universally optimal `(k, ℓ)`-shortest paths (Theorem 5): every target
//! `t ∈ T` learns a `(1+ε)`-approximate distance to every source `s ∈ S`,
//! in `Õ(NQ_k)` rounds.
//!
//! The algorithm solves shortest paths *from the targets* (each target acts
//! as an SSSP source — Theorem 13 sequentially in case (1), the Theorem 14
//! `k`-SSP scheduler in case (2)), after which every **source** knows its
//! distance to every target; the situation is then "reversed" by delivering
//! one message per `(s, t)` pair with the `(k, ℓ)`-routing algorithm
//! (Theorem 3).
//!
//! **Data level.**  Case (2)'s ℓ-SSP step is the Theorem 14 label
//! composition with the targets as sources, so it runs on the shared blocked
//! `(min, +)` kernel ([`crate::minplus`]) through
//! [`crate::kssp::kssp`]; case (1) quantizes exact per-target labels
//! directly.  Either way the final assembly is a pure gather of the source
//! columns out of the target label rows — no further composition happens
//! here.

use rand::Rng;

use hybrid_graph::{NodeId, Weight};
use hybrid_sim::HybridNetwork;

use crate::kssp::{kssp, KsspVariant};
use crate::nq::NqOracle;
use crate::routing::{kl_routing, RoutingScenario};
use crate::rows::DistanceRows;
use crate::sssp::sssp_round_cost;
use crate::stretch::{self, StretchViolation};

/// Which of the two Theorem 5 parameter regimes an instance belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KlspScenario {
    /// Arbitrary sources, targets sampled with probability `ℓ/n`, `ℓ ≤ NQ_k`.
    ArbitrarySourcesRandomTargets,
    /// Sources and targets both sampled, `ℓ ≤ NQ_k²`, `ℓ·k ≤ NQ_k·n`.
    RandomSourcesRandomTargets,
}

/// Output of a `(k, ℓ)`-SP computation.
#[derive(Debug, Clone)]
pub struct KlspOutput {
    /// The source set `S`.
    pub sources: Vec<NodeId>,
    /// The target set `T`.
    pub targets: Vec<NodeId>,
    /// `dist[ti][si]` is the label target `targets[ti]` learned for source
    /// `sources[si]`.
    pub dist: Vec<Vec<Weight>>,
    /// Promised stretch (`1 + ε`).
    pub stretch: f64,
    /// The graph's `NQ_k`.
    pub nq: u64,
}

impl KlspOutput {
    /// Verifies every learned label against exact distances under the label
    /// contract ([`crate::stretch`]): per source `s`, the row of cells
    /// `(t, d(s, t), dist[ti][si])` over the targets.  The exact side is one
    /// run per *target* — the direction the labels themselves were computed
    /// in; the graph is undirected, so `d(s, t) = d(t, s)`.
    pub fn verify_stretch(&self, graph: &hybrid_graph::Graph) -> Result<f64, StretchViolation> {
        stretch::aligned(None, self.targets.len(), self.dist.len())?;
        for (&t, labels) in self.targets.iter().zip(&self.dist) {
            stretch::aligned(Some(t), self.sources.len(), labels.len())?;
        }
        let exact = DistanceRows::compute(graph, &self.targets);
        stretch::worst_of(self.sources.iter().enumerate().map(|(si, &s)| {
            let cells = self.targets.iter().zip(&self.dist).enumerate();
            stretch::check_cells(
                s,
                cells.map(|(ti, (&t, labels))| (t, exact[ti][s as usize], labels[si])),
                self.stretch,
            )
        }))
    }
}

/// What each target has learned: its labels for the sources, out of the
/// target-side table (`table[ti][s]`).
fn gather(from_targets: &DistanceRows, sources: &[NodeId]) -> Vec<Vec<Weight>> {
    from_targets
        .iter()
        .map(|labels| sources.iter().map(|&s| labels[s as usize]).collect())
        .collect()
}

/// Theorem 5 — `(1+ε)`-approximate `(k, ℓ)`-SP in `Õ(NQ_k)` rounds w.h.p.
pub fn klsp(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    sources: &[NodeId],
    targets: &[NodeId],
    epsilon: f64,
    scenario: KlspScenario,
    rng: &mut impl Rng,
) -> KlspOutput {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let graph = net.graph_arc();
    let k = sources.len();
    let l = targets.len();
    let nq = oracle.nq(k.max(1) as u64).max(1);

    if k == 0 || l == 0 {
        return KlspOutput {
            sources: sources.to_vec(),
            targets: targets.to_vec(),
            dist: vec![Vec::new(); l],
            stretch: 1.0 + epsilon,
            nq,
        };
    }

    // Step 1: shortest paths *from the targets*.
    let target_labels = match scenario {
        KlspScenario::ArbitrarySourcesRandomTargets => {
            // ℓ ≤ NQ_k sequential Theorem 13 instances.
            let t_sssp = sssp_round_cost(net, epsilon);
            net.charge_rounds(
                "klsp/sequential-sssp-from-targets",
                t_sssp.saturating_mul(l as u64),
            );
            DistanceRows::compute_quantized(&graph, targets, epsilon)
        }
        KlspScenario::RandomSourcesRandomTargets => {
            // ℓ-SSP via the Theorem 14 scheduler (targets as sources).
            kssp(net, targets, epsilon, KsspVariant::RandomSources, rng).dist
        }
    };

    // Step 2: "reverse" the information with (k, ℓ)-routing (Theorem 3):
    // every source holds one distance label per target and the targets must
    // receive them.
    let routing_scenario = match scenario {
        KlspScenario::ArbitrarySourcesRandomTargets => {
            RoutingScenario::ArbitrarySourcesRandomTargets
        }
        KlspScenario::RandomSourcesRandomTargets => RoutingScenario::RandomSourcesRandomTargets,
    };
    let routing = kl_routing(net, oracle, sources, targets, routing_scenario, rng);
    debug_assert!(routing.is_complete(sources, targets));

    KlspOutput {
        sources: sources.to_vec(),
        targets: targets.to_vec(),
        dist: gather(&target_labels, sources),
        stretch: 1.0 + epsilon,
        nq,
    }
}

/// The existential comparison row of Table 3: `(k, ℓ)`-SP by solving `k`-SSP
/// with the prior `Õ(√k)`-type machinery; exact labels, rounds
/// `Õ(n^{1/3} + √k)` (`[CHLP21a]`, `[KS20]`).
pub fn baseline_klsp(
    net: &mut HybridNetwork,
    sources: &[NodeId],
    targets: &[NodeId],
) -> KlspOutput {
    let graph = net.graph_arc();
    let rounds = crate::kssp::baseline_chlp21_rounds(graph.n(), sources.len());
    net.charge_rounds("klsp/baseline-chlp21", rounds);
    KlspOutput {
        sources: sources.to_vec(),
        targets: targets.to_vec(),
        dist: gather(&DistanceRows::compute(&graph, targets), sources),
        stretch: 1.0,
        nq: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prob::{sample_distinct, sample_with_probability};
    use hybrid_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn setup(graph: hybrid_graph::Graph) -> (Arc<hybrid_graph::Graph>, NqOracle, HybridNetwork) {
        let g = Arc::new(graph);
        let oracle = NqOracle::new(&g);
        let net = HybridNetwork::hybrid(Arc::clone(&g));
        (g, oracle, net)
    }

    #[test]
    fn case1_arbitrary_sources_random_targets() {
        let (g, oracle, mut net) = setup(generators::grid(&[10, 10]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sources = sample_distinct(g.n(), 25, &mut rng);
        let nq = oracle.nq(25).max(1);
        let mut targets = sample_with_probability(g.n(), nq as f64 / g.n() as f64, &mut rng);
        if targets.is_empty() {
            targets.push(42);
        }
        let out = klsp(
            &mut net,
            &oracle,
            &sources,
            &targets,
            0.25,
            KlspScenario::ArbitrarySourcesRandomTargets,
            &mut rng,
        );
        let worst = out.verify_stretch(&g).unwrap();
        assert!(worst <= 1.25);
        assert!(net.rounds() > 0);
    }

    #[test]
    fn case2_random_sources_random_targets_weighted() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (g, oracle, mut net) = setup(generators::weighted_grid(&[9, 9], 7, 2).unwrap());
        let sources = sample_with_probability(g.n(), 0.3, &mut rng);
        let targets = sample_with_probability(g.n(), 0.05, &mut rng);
        let targets = if targets.is_empty() {
            vec![10]
        } else {
            targets
        };
        let out = klsp(
            &mut net,
            &oracle,
            &sources,
            &targets,
            0.5,
            KlspScenario::RandomSourcesRandomTargets,
            &mut rng,
        );
        out.verify_stretch(&g).unwrap();
    }

    #[test]
    fn empty_source_or_target_sets() {
        let (_, oracle, mut net) = setup(generators::cycle(16).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = klsp(
            &mut net,
            &oracle,
            &[],
            &[3],
            0.5,
            KlspScenario::ArbitrarySourcesRandomTargets,
            &mut rng,
        );
        assert_eq!(out.dist.len(), 1);
        assert!(out.dist[0].is_empty());
    }

    #[test]
    fn baseline_is_exact() {
        let (g, _, mut net) = setup(generators::grid(&[8, 8]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let sources = sample_distinct(g.n(), 12, &mut rng);
        let targets = sample_distinct(g.n(), 4, &mut rng);
        let out = baseline_klsp(&mut net, &sources, &targets);
        let worst = out.verify_stretch(&g).unwrap();
        assert!((worst - 1.0).abs() < 1e-12);
        assert!(net.rounds() > 0);
    }

    #[test]
    fn a_label_table_of_the_wrong_shape_is_a_violation() {
        use crate::stretch::StretchViolation::Misaligned;
        let (g, _, mut net) = setup(generators::path(9).unwrap());
        let out = baseline_klsp(&mut net, &[0, 4, 8], &[2, 6]);
        assert_eq!(out.verify_stretch(&g), Ok(1.0));
        // A target row that misses a source.
        let mut short_row = out.clone();
        short_row.dist[1].pop();
        let err = short_row.verify_stretch(&g).unwrap_err();
        assert!(matches!(err, Misaligned { row: Some(6), .. }));
        // A target without a row: the rows that are there do not vouch for it.
        let mut missing_row = out.clone();
        missing_row.dist.pop();
        let err = missing_row.verify_stretch(&g).unwrap_err();
        assert!(matches!(err, Misaligned { row: None, .. }));
    }
}
