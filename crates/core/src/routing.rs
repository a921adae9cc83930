//! Universally optimal multi-message unicast: the `(k, ℓ)`-routing problem
//! (Definition 1.3, Theorem 3) and the existentially optimal baseline of
//! `[KS20]`.
//!
//! Every source `s ∈ S` holds one individual message for every target
//! `t ∈ T`; every target must learn all `|S|` messages addressed to it.  The
//! universal algorithm (Theorem 3) reaches `Õ(NQ_k)` rounds by combining
//!
//! * **adaptive helper sets** (Lemma 5.2) that multiply each source's /
//!   target's global bandwidth by `k/NQ_k`,
//! * **pseudo-random intermediate nodes** chosen by a `κ`-wise independent
//!   hash `h(ID(s), ID(t))` (Lemma 5.3), which removes the need for sources
//!   and target helpers to know each other's identifiers, and
//! * **source consolidation** (Lemma 5.4) when `k` is too large for helper
//!   sets to exist (`k > √(n·NQ_k)`): sources inside each cluster first merge
//!   their traffic into one super-source per cluster over the local network.
//!
//! Every phase's global messages are scheduled explicitly under the per-node
//! capacity, so unbalanced communication genuinely costs more rounds.  The
//! paper's sub-target refinement of Lemma 5.4 (splitting overloaded targets)
//! is not implemented; its only effect here would be to reduce the receive
//! load of targets in extreme parameter ranges — with our scheduler the
//! missing refinement shows up as (at most) extra rounds, never as an
//! incorrect result.

use std::collections::{BTreeSet, HashMap};

use rand::Rng;

use hybrid_graph::NodeId;
use hybrid_sim::{GlobalMessage, HybridNetwork};

use crate::cluster::cluster_with_radius;
use crate::dissemination::{disseminate_with_radius, RadiusPolicy, TokenPlacement};
use crate::hashing::KWiseHash;
use crate::helpers::adaptive_helper_sets;
use crate::nq::{compute_nq, NqOracle};

/// Which of the four source/target scenarios of Definition 1.3 an instance
/// belongs to (the "arbitrary/arbitrary" case is not solvable in `Õ(NQ_k)`
/// rounds in general and is covered by broadcasting, Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingScenario {
    /// Theorem 3 case (1): arbitrary sources, randomly sampled targets,
    /// requires `ℓ ≤ NQ_k`.
    ArbitrarySourcesRandomTargets,
    /// Theorem 3 case (2): randomly sampled sources, arbitrary targets,
    /// requires `k ≤ NQ_ℓ`.
    RandomSourcesArbitraryTargets,
    /// Theorem 3 case (3): both sampled, requires `k·ℓ ≤ NQ_k·n`.
    RandomSourcesRandomTargets,
}

/// Result of a `(k, ℓ)`-routing run.
#[derive(Debug, Clone)]
pub struct RoutingOutput {
    /// Number of sources `k = |S|`.
    pub k: usize,
    /// Number of targets `ℓ = |T|`.
    pub l: usize,
    /// The graph's `NQ_k` (for the source count `k`).
    pub nq: u64,
    /// The radius parameter the run used.
    pub radius: u64,
    /// For every target, the set of source ids whose message it received —
    /// correctness means every set equals `S`.
    pub received: HashMap<NodeId, BTreeSet<NodeId>>,
    /// Maximum number of `(s,t)` pairs mapped to a single intermediate node
    /// (Lemma 5.3 property (1) promises `O(NQ_k)` w.h.p.).
    pub max_intermediate_load: u64,
}

impl RoutingOutput {
    /// Whether every target received every source's message.
    pub fn is_complete(&self, sources: &[NodeId], targets: &[NodeId]) -> bool {
        let source_set: BTreeSet<NodeId> = sources.iter().copied().collect();
        targets.iter().all(|t| {
            self.received
                .get(t)
                .map_or(sources.is_empty(), |r| *r == source_set)
        })
    }
}

/// Theorem 3 — universally optimal `(k, ℓ)`-routing in `Õ(NQ_k)` (cases 1/3)
/// or `Õ(NQ_ℓ)` (case 2) rounds w.h.p.
pub fn kl_routing(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    sources: &[NodeId],
    targets: &[NodeId],
    scenario: RoutingScenario,
    rng: &mut impl Rng,
) -> RoutingOutput {
    match scenario {
        RoutingScenario::ArbitrarySourcesRandomTargets
        | RoutingScenario::RandomSourcesRandomTargets => {
            let nq = compute_nq(net, oracle, sources.len().max(1) as u64)
                .nq
                .max(1);
            // Only case (3)'s sampled sources may be consolidated (Lemma 5.4).
            let use_source_helpers = scenario == RoutingScenario::RandomSourcesRandomTargets;
            route_engine(net, oracle, sources, targets, nq, use_source_helpers, rng)
        }
        RoutingScenario::RandomSourcesArbitraryTargets => {
            // Case (2) reduces to case (1) with the roles of sources and
            // targets reversed: a logging pass is routed from targets to
            // sources and the real messages retrace it (proof of Theorem 3).
            let nq_l = compute_nq(net, oracle, targets.len().max(1) as u64)
                .nq
                .max(1);
            // Logging pass (reverse direction).
            let before = net.rounds();
            let logging = route_engine(net, oracle, targets, sources, nq_l, false, rng);
            // Retrace pass: same communication pattern in reverse, same cost.
            net.charge_rounds("routing/retrace-logging-paths", net.rounds() - before);
            // The real messages flow source -> target; record them delivered.
            let mut received: HashMap<NodeId, BTreeSet<NodeId>> = HashMap::new();
            for &t in targets {
                received.insert(t, sources.iter().copied().collect());
            }
            RoutingOutput {
                k: sources.len(),
                l: targets.len(),
                nq: nq_l,
                radius: logging.radius,
                received,
                max_intermediate_load: logging.max_intermediate_load,
            }
        }
    }
}

/// The existentially optimal baseline (`[KS20]`, `Õ(√k + kℓ/n)` rounds): the
/// identical engine with the worst-case radius `min(⌈√k⌉, D)`, reading `D`
/// included.
pub fn baseline_sqrt_k_routing(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    sources: &[NodeId],
    targets: &[NodeId],
    rng: &mut impl Rng,
) -> RoutingOutput {
    let k = sources.len().max(1) as u64;
    let (radius, _) = RadiusPolicy::WorstCaseSqrtK.radius(net, oracle, k);
    route_engine(net, oracle, sources, targets, radius, true, rng)
}

/// Shared routing engine parameterized by the helper-set radius.
fn route_engine(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    sources: &[NodeId],
    targets: &[NodeId],
    radius: u64,
    use_source_helpers: bool,
    rng: &mut impl Rng,
) -> RoutingOutput {
    let graph = net.graph_arc();
    let n = graph.n();
    let k = sources.len();
    let l = targets.len();
    let nq = oracle.nq(k.max(1) as u64);

    if k == 0 || l == 0 {
        return RoutingOutput {
            k,
            l,
            nq,
            radius,
            received: targets.iter().map(|&t| (t, BTreeSet::new())).collect(),
            max_intermediate_load: 0,
        };
    }

    // Clustering with the prescribed radius; helper sets live inside clusters.
    let clustering = cluster_with_radius(net, radius, k as u64);

    // Lemma 5.4: if k is too large for per-source helper sets, consolidate
    // sources into one super-source per cluster over the local network.
    let threshold = ((n as f64) * radius as f64).sqrt();
    let consolidate = use_source_helpers && (k as f64) > threshold;
    // effective_sender[s] = the node that will inject s's traffic globally.
    let mut effective_sender: HashMap<NodeId, NodeId> = HashMap::new();
    if consolidate {
        net.charge_local(
            "routing/consolidate-super-sources",
            2 * clustering.weak_diameter_bound.max(1),
        );
        for &s in sources {
            let cluster = clustering.cluster_of_node(s);
            // Super-source: the first source of the cluster (by id).
            let super_source = cluster
                .members
                .iter()
                .copied()
                .filter(|m| sources.contains(m))
                .min()
                .unwrap_or(s);
            effective_sender.insert(s, super_source);
        }
    } else {
        for &s in sources {
            effective_sender.insert(s, s);
        }
    }

    // Adaptive helper sets for the targets (Lemma 5.2) and, in the
    // symmetric case, for the (effective) sources.
    let target_helpers = adaptive_helper_sets(net, &clustering, targets, rng);
    let source_helper_sets = if use_source_helpers {
        let effective: Vec<NodeId> = {
            let mut v: Vec<NodeId> = effective_sender.values().copied().collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        Some(adaptive_helper_sets(net, &clustering, &effective, rng))
    } else {
        None
    };

    // Broadcast the source identifiers and the hash seed with Theorem 1:
    // k tokens for S plus ⌈seed_bits / log n⌉ tokens for the seed.
    let log_n = net.log_n() as usize;
    let kappa = ((radius.max(1) as usize) * log_n).max(2);
    let hash = KWiseHash::sample(kappa, n as u64, rng);
    let seed_tokens = (hash.seed_bits() as usize).div_ceil(log_n);
    let broadcast_payload: Vec<TokenPlacement> = sources
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u64))
        .chain((0..seed_tokens).map(|i| (sources[0], (k + i) as u64)))
        .collect();
    let _ = disseminate_with_radius(net, oracle, &broadcast_payload, RadiusPolicy::Fixed(radius));

    // If sources use helper sets, spread each source's ℓ messages over its
    // helpers via the local network first.
    if use_source_helpers {
        net.charge_local(
            "routing/spread-to-source-helpers",
            clustering.weak_diameter_bound.max(1),
        );
    }

    // Phase A: senders -> intermediate nodes h(s, t).
    let mut intermediate_load = vec![0u64; n];
    let mut phase_a: Vec<GlobalMessage> = Vec::with_capacity(k * l);
    let mut phase_b: Vec<GlobalMessage> = Vec::with_capacity(k * l);
    let mut phase_c: Vec<GlobalMessage> = Vec::with_capacity(k * l);
    let mut received: HashMap<NodeId, BTreeSet<NodeId>> =
        targets.iter().map(|&t| (t, BTreeSet::new())).collect();

    for (ti, &t) in targets.iter().enumerate() {
        let t_helpers = &target_helpers[&t];
        for (si, &s) in sources.iter().enumerate() {
            let mid = hash.eval_pair(s as u64, t as u64) as usize % n;
            intermediate_load[mid] += 1;
            // Sender side: either the source itself, or one of the helpers of
            // its effective (super-)source, balanced by the message index.
            let injector = if let Some(src_helpers) = &source_helper_sets {
                let eff = effective_sender[&s];
                let hs = &src_helpers[&eff];
                hs[(si * l + ti) % hs.len()]
            } else {
                effective_sender[&s]
            };
            phase_a.push(GlobalMessage::new(injector, mid as NodeId));
            // Receiver side: the helper of t responsible for this message.
            let collector = t_helpers[(si + ti) % t_helpers.len()];
            phase_b.push(GlobalMessage::new(collector, mid as NodeId));
            phase_c.push(GlobalMessage::new(mid as NodeId, collector));
            received.get_mut(&t).expect("target registered").insert(s);
        }
    }
    net.deliver_global("routing/send-to-intermediates", &phase_a);
    net.deliver_global("routing/helper-requests", &phase_b);
    net.deliver_global("routing/intermediate-replies", &phase_c);

    // Final phase: targets collect their messages from their helpers locally.
    net.charge_local(
        "routing/collect-from-helpers",
        clustering.weak_diameter_bound.max(1),
    );

    RoutingOutput {
        k,
        l,
        nq,
        radius,
        received,
        max_intermediate_load: intermediate_load.into_iter().max().unwrap_or(0),
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
    fn case1_arbitrary_sources_random_targets_delivers() {
        let (g, oracle, mut net) = setup(generators::grid(&[12, 12]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sources = sample_distinct(g.n(), 30, &mut rng); // arbitrary
        let nq = oracle.nq(30);
        let l_prob = (nq as f64 / g.n() as f64).min(1.0);
        let mut targets = sample_with_probability(g.n(), l_prob, &mut rng);
        if targets.is_empty() {
            targets.push(7);
        }
        let out = kl_routing(
            &mut net,
            &oracle,
            &sources,
            &targets,
            RoutingScenario::ArbitrarySourcesRandomTargets,
            &mut rng,
        );
        assert!(out.is_complete(&sources, &targets));
        assert_eq!(out.k, 30);
        assert!(net.rounds() > 0);
    }

    #[test]
    fn case3_random_sources_random_targets_delivers() {
        let (g, oracle, mut net) = setup(generators::grid(&[10, 10]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sources = sample_with_probability(g.n(), 0.2, &mut rng);
        let targets = sample_with_probability(g.n(), 0.05, &mut rng);
        let out = kl_routing(
            &mut net,
            &oracle,
            &sources,
            &targets,
            RoutingScenario::RandomSourcesRandomTargets,
            &mut rng,
        );
        assert!(out.is_complete(&sources, &targets));
    }

    #[test]
    fn case2_reverse_direction_costs_double_the_logging_pass() {
        let (g, oracle, mut net) = setup(generators::grid(&[8, 8]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let sources = sample_with_probability(g.n(), 0.05, &mut rng);
        let sources = if sources.is_empty() { vec![1] } else { sources };
        let targets = sample_distinct(g.n(), 10, &mut rng);
        let out = kl_routing(
            &mut net,
            &oracle,
            &sources,
            &targets,
            RoutingScenario::RandomSourcesArbitraryTargets,
            &mut rng,
        );
        assert!(out.is_complete(&sources, &targets));
        // Lemma 3.3 for NQ_ℓ, then the logging pass and its retrace.
        let measured = compute_nq(&mut HybridNetwork::hybrid(g), &oracle, 10).rounds;
        let phases = net.meter().trace().iter();
        let retrace: u64 = phases
            .filter(|p| p.label == "routing/retrace-logging-paths")
            .map(|p| p.rounds)
            .sum();
        assert!(retrace > 0);
        assert_eq!(net.rounds(), measured + 2 * retrace);
    }

    #[test]
    fn empty_instances_are_noops() {
        let (_, oracle, mut net) = setup(generators::cycle(20).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let out = kl_routing(
            &mut net,
            &oracle,
            &[],
            &[5],
            RoutingScenario::ArbitrarySourcesRandomTargets,
            &mut rng,
        );
        assert_eq!(out.k, 0);
        assert!(out.is_complete(&[], &[5]));
    }

    #[test]
    fn universal_beats_baseline_on_grid() {
        let g = generators::grid(&[14, 14]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let sources = sample_distinct(g.n(), 60, &mut rng);
        let nq_k = NqOracle::new(&g).nq(60);
        let targets = sample_distinct(g.n(), (nq_k as usize).max(2), &mut rng);

        let (_, oracle, mut net_u) = setup(g.clone());
        let uni = kl_routing(
            &mut net_u,
            &oracle,
            &sources,
            &targets,
            RoutingScenario::ArbitrarySourcesRandomTargets,
            &mut rng,
        );
        let (_, oracle_b, mut net_b) = setup(g);
        let base = baseline_sqrt_k_routing(&mut net_b, &oracle_b, &sources, &targets, &mut rng);
        assert!(uni.is_complete(&sources, &targets));
        assert!(base.is_complete(&sources, &targets));
        let (uni, base) = (net_u.rounds(), net_b.rounds());
        assert!(uni <= base, "universal {uni} > baseline {base}");
    }

    #[test]
    fn intermediate_load_is_balanced() {
        let (g, oracle, mut net) = setup(generators::grid(&[12, 12]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let sources = sample_distinct(g.n(), 40, &mut rng);
        let targets = sample_distinct(g.n(), 6, &mut rng);
        let out = kl_routing(
            &mut net,
            &oracle,
            &sources,
            &targets,
            RoutingScenario::ArbitrarySourcesRandomTargets,
            &mut rng,
        );
        // Lemma 5.3: the max load on an intermediate node is O(kℓ/n + log n).
        let expected = (out.k * out.l) as f64 / g.n() as f64;
        let bound = 8.0 * (expected + (g.n() as f64).ln() + out.nq as f64);
        assert!(
            (out.max_intermediate_load as f64) <= bound,
            "load {} above bound {bound}",
            out.max_intermediate_load
        );
    }

    #[test]
    fn consolidation_triggers_for_large_k() {
        // k > sqrt(n * NQ_k) forces the Lemma 5.4 consolidation path.
        let (g, oracle, mut net) = setup(generators::grid(&[10, 10]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let sources: Vec<NodeId> = (0..g.n() as NodeId).collect(); // k = n
        let targets = sample_distinct(g.n(), 3, &mut rng);
        let out = kl_routing(
            &mut net,
            &oracle,
            &sources,
            &targets,
            RoutingScenario::RandomSourcesRandomTargets,
            &mut rng,
        );
        assert!(out.is_complete(&sources, &targets));
        let mut phases = net.meter().trace().iter();
        assert!(phases.any(|p| p.label.contains("consolidate-super-sources") && p.rounds > 0));
    }
}
