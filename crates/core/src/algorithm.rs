//! Pluggable algorithm traits and the shootout registry.
//!
//! The sweep (and any future serving front-end) should not care *which*
//! dissemination or shortest-paths pipeline it is driving: every contender
//! implements [`DisseminationAlgorithm`] or [`SsspAlgorithm`] and registers
//! itself in [`dissemination_registry`] / [`sssp_registry`].  The bench crate
//! runs every registered implementation on the *same instance* against the
//! *same lower-bound witness* and emits the measured rounds side by side
//! (`results/sweep_scaling.json`); the differential conformance suite
//! (`crates/core/tests/conformance.rs`) cross-checks every implementation
//! pair on delivered token sets and distance-label stretch.
//!
//! | name              | paper                           | guarantee                      |
//! |-------------------|---------------------------------|--------------------------------|
//! | `theorem1`        | PODC'24 Theorem 1               | `Õ(NQ_k)` rounds, randomized   |
//! | `det-broadcast`   | `[CHL23]` arXiv:2304.06317      | deterministic token forwarding |
//! | `sqrt-k-baseline` | `[AHK+20]`                      | `Õ(√k)` existential baseline   |
//! | `theorem14`       | PODC'24 Theorem 14 (random)     | stretch `1+ε`, `Õ(√k/ε²)`      |
//! | `theorem14-proxy` | PODC'24 Theorem 14 (arbitrary)  | stretch `3(1+ε)`, `Õ(√(k/γ))`  |
//! | `schneider`       | `[Sch23]` arXiv:2306.05977      | stretch `1+ε`, `Θ(hop-diam)`   |

use hybrid_graph::NodeId;
use hybrid_sim::HybridNetwork;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::dissemination::{
    baseline_sqrt_k_dissemination, det_token_forward_dissemination, k_dissemination,
    DisseminationOutput, TokenPlacement,
};
use crate::kssp::{kssp, KsspOutput, KsspVariant};
use crate::nq::NqOracle;
use crate::schneider::schneider_kssp;

/// A `k`-dissemination contender: delivers every placed token to every node
/// and reports its round bill through the shared cost meter.
pub trait DisseminationAlgorithm: Send + Sync {
    /// Stable registry name (also the JSON column key).
    fn name(&self) -> &'static str;
    /// The paper the implementation reproduces.
    fn reference(&self) -> &'static str;
    /// Whether the schedule draws random bits.
    fn deterministic(&self) -> bool;
    /// Runs the pipeline on `net`, delivering `tokens` to every node.
    fn run(
        &self,
        net: &mut HybridNetwork,
        oracle: &NqOracle,
        tokens: &[TokenPlacement],
    ) -> DisseminationOutput;
}

/// A `k`-source shortest-paths contender: produces distance labels within its
/// stated stretch for every (source, node) pair.
pub trait SsspAlgorithm: Send + Sync {
    /// Stable registry name (also the JSON column key).
    fn name(&self) -> &'static str;
    /// The paper the implementation reproduces.
    fn reference(&self) -> &'static str;
    /// Worst-case stretch contract for accuracy `epsilon` (a particular run
    /// may report a tighter [`KsspOutput::stretch`]).
    fn stated_stretch(&self, epsilon: f64) -> f64;
    /// Runs the pipeline on `net` from `sources`; `seed` derives any random
    /// bits the implementation draws (deterministic impls ignore it).
    fn run(
        &self,
        net: &mut HybridNetwork,
        sources: &[NodeId],
        epsilon: f64,
        seed: u64,
    ) -> KsspOutput;
}

/// One dissemination contender: its registry constants and its pipeline.
struct DisseminationRow {
    name: &'static str,
    reference: &'static str,
    deterministic: bool,
    run: fn(&mut HybridNetwork, &NqOracle, &[TokenPlacement]) -> DisseminationOutput,
}

impl DisseminationAlgorithm for DisseminationRow {
    fn name(&self) -> &'static str {
        self.name
    }
    fn reference(&self) -> &'static str {
        self.reference
    }
    fn deterministic(&self) -> bool {
        self.deterministic
    }
    fn run(
        &self,
        net: &mut HybridNetwork,
        oracle: &NqOracle,
        tokens: &[TokenPlacement],
    ) -> DisseminationOutput {
        (self.run)(net, oracle, tokens)
    }
}

/// One shortest-paths contender: its registry constants, its stretch
/// contract `factor · (1 + ε)` and its pipeline.
struct SsspRow {
    name: &'static str,
    reference: &'static str,
    factor: f64,
    run: fn(&mut HybridNetwork, &[NodeId], f64, u64) -> KsspOutput,
}

impl SsspAlgorithm for SsspRow {
    fn name(&self) -> &'static str {
        self.name
    }
    fn reference(&self) -> &'static str {
        self.reference
    }
    fn stated_stretch(&self, epsilon: f64) -> f64 {
        self.factor * (1.0 + epsilon)
    }
    fn run(
        &self,
        net: &mut HybridNetwork,
        sources: &[NodeId],
        epsilon: f64,
        seed: u64,
    ) -> KsspOutput {
        (self.run)(net, sources, epsilon, seed)
    }
}

/// Every registered dissemination contender, shootout order.
pub fn dissemination_registry() -> Vec<Box<dyn DisseminationAlgorithm>> {
    vec![
        Box::new(DisseminationRow {
            name: "theorem1",
            reference: "PODC'24 Theorem 1",
            deterministic: false,
            run: k_dissemination,
        }),
        Box::new(DisseminationRow {
            name: "det-broadcast",
            reference: "[CHL23] arXiv:2304.06317",
            deterministic: true,
            run: det_token_forward_dissemination,
        }),
        Box::new(DisseminationRow {
            name: "sqrt-k-baseline",
            reference: "[AHK+20]",
            deterministic: false,
            run: baseline_sqrt_k_dissemination,
        }),
    ]
}

/// Every registered shortest-paths contender, shootout order.  The Theorem 14
/// rows draw their random bits from `seed`; `[Sch23]` ignores it.
pub fn sssp_registry() -> Vec<Box<dyn SsspAlgorithm>> {
    vec![
        Box::new(SsspRow {
            name: "theorem14",
            reference: "PODC'24 Theorem 14",
            factor: 1.0,
            run: |net, sources, epsilon, seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                kssp(net, sources, epsilon, KsspVariant::RandomSources, &mut rng)
            },
        }),
        Box::new(SsspRow {
            name: "theorem14-proxy",
            reference: "PODC'24 Theorem 14 (arbitrary sources)",
            factor: 3.0,
            run: |net, sources, epsilon, seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                kssp(
                    net,
                    sources,
                    epsilon,
                    KsspVariant::ArbitrarySources,
                    &mut rng,
                )
            },
        }),
        Box::new(SsspRow {
            name: "schneider",
            reference: "[Sch23] arXiv:2306.05977",
            factor: 1.0,
            run: |net, sources, epsilon, _seed| schneider_kssp(net, sources, epsilon),
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissemination::place_tokens;
    use hybrid_graph::generators;
    use std::sync::Arc;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = dissemination_registry()
            .iter()
            .map(|a| a.name())
            .chain(sssp_registry().iter().map(|a| a.name()))
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate registry name");
        assert_eq!(
            names,
            vec![
                "theorem1",
                "det-broadcast",
                "sqrt-k-baseline",
                "theorem14",
                "theorem14-proxy",
                "schneider"
            ]
        );
    }

    #[test]
    fn every_dissemination_impl_delivers_the_same_tokens() {
        let g = generators::grid(&[8, 8]).unwrap();
        let tokens = place_tokens(&(0..64).collect::<Vec<_>>(), 24);
        let mut seen: Option<Vec<u64>> = None;
        for algo in dissemination_registry() {
            let arc = Arc::new(g.clone());
            let oracle = NqOracle::new(&arc);
            let mut net = HybridNetwork::hybrid(arc);
            let out = algo.run(&mut net, &oracle, &tokens);
            assert!(out.rounds > 0, "{} charged no rounds", algo.name());
            // The reported count is the network's, set-up included.
            assert_eq!(
                (out.rounds, out.meter.rounds()),
                (net.rounds(), net.rounds())
            );
            assert!(out.setup_rounds > 0 && out.setup_rounds < out.rounds);
            match &seen {
                None => seen = Some(out.tokens),
                Some(prev) => assert_eq!(prev, &out.tokens, "{} diverged", algo.name()),
            }
        }
    }

    #[test]
    fn every_sssp_impl_meets_its_stated_stretch() {
        let g = Arc::new(generators::grid(&[7, 7]).unwrap());
        let sources = vec![0, 24, 48];
        for algo in sssp_registry() {
            let mut net = HybridNetwork::hybrid(Arc::clone(&g));
            let out = algo.run(&mut net, &sources, 0.5, 11);
            assert_eq!(out.rounds, net.rounds(), "{}", algo.name());
            assert!(
                out.stretch <= algo.stated_stretch(0.5) + 1e-9,
                "{} reported stretch above its contract",
                algo.name()
            );
            out.verify_stretch(&g).unwrap();
        }
    }
}
