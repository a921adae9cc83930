//! Cross-crate integration tests for the information-dissemination stack
//! (Table 1 algorithms): the phase-engine algorithms of `hybrid-core`, the
//! per-node message-passing engine of `hybrid-sim`, and the lower-bound
//! witnesses must all tell a consistent story.

use std::sync::Arc;

use hybrid::core::dissemination::{place_tokens, RadiusPolicy};
use hybrid::core::lower_bounds::dissemination_lower_bound;
use hybrid::core::routing::baseline_sqrt_k_routing;
use hybrid::prelude::*;
use hybrid::sim::engine::{Executor, NodeProgram};
use hybrid::sim::programs::TokenGossipProgram;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn families(n: usize, seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        ("path", generators::path(n).unwrap()),
        ("cycle", generators::cycle(n).unwrap()),
        (
            "grid",
            generators::grid(&[(n as f64).sqrt() as usize, (n as f64).sqrt() as usize]).unwrap(),
        ),
        ("tree", generators::tree_with_n(2, n).unwrap()),
        (
            "er",
            generators::erdos_renyi(n, 6.0 / n as f64, seed).unwrap(),
        ),
    ]
}

#[test]
fn universal_dissemination_beats_or_ties_baseline_on_every_family() {
    for (name, graph) in families(256, 1) {
        let graph = Arc::new(graph);
        let oracle = NqOracle::new(&graph);
        let tokens = place_tokens(&(0..graph.n() as u32).collect::<Vec<_>>(), 128);

        let mut net = HybridNetwork::hybrid0(Arc::clone(&graph));
        let uni = k_dissemination(&mut net, &oracle, &tokens);
        let mut net = HybridNetwork::hybrid0(Arc::clone(&graph));
        let base = baseline_sqrt_k_dissemination(&mut net, &oracle, &tokens);

        assert_eq!(uni.tokens, base.tokens, "{name}: same delivered set");
        assert_eq!(uni.tokens.len(), 128, "{name}: all tokens delivered");
        assert!(
            uni.rounds <= base.rounds,
            "{name}: universal {} > baseline {}",
            uni.rounds,
            base.rounds
        );
    }
}

#[test]
fn measured_rounds_sit_between_lower_bound_and_polylog_nq() {
    for (name, graph) in families(400, 2) {
        let graph = Arc::new(graph);
        let oracle = NqOracle::new(&graph);
        let k = 200u64;
        let tokens = place_tokens(&(0..graph.n() as u32).collect::<Vec<_>>(), k);
        let mut net = HybridNetwork::hybrid0(Arc::clone(&graph));
        let out = k_dissemination(&mut net, &oracle, &tokens);
        let bound = dissemination_lower_bound(&oracle, net.params(), k, 0.99);
        let log_n = net.log_n();

        assert!(
            (out.rounds as f64) >= bound.rounds,
            "{name}: upper bound below the lower bound?!"
        );
        assert!(
            out.rounds <= out.nq * 60 * log_n * log_n,
            "{name}: rounds {} not Õ(NQ_k = {})",
            out.rounds,
            out.nq
        );
    }
}

#[test]
fn dissemination_independent_of_initial_token_distribution() {
    // Theorem 1 makes no assumption on where the k messages start: the cost
    // is a property of the topology, not of the placement.
    let graph = Arc::new(generators::grid(&[16, 16]).unwrap());
    let oracle = NqOracle::new(&graph);
    let k = 96u64;

    let concentrated = place_tokens(&[0], k);
    let spread = place_tokens(&(0..graph.n() as u32).collect::<Vec<_>>(), k);

    let mut net = HybridNetwork::hybrid0(Arc::clone(&graph));
    let a = k_dissemination(&mut net, &oracle, &concentrated);
    let mut net = HybridNetwork::hybrid0(Arc::clone(&graph));
    let b = k_dissemination(&mut net, &oracle, &spread);

    assert_eq!(a.tokens, b.tokens);
    let ratio = a.rounds.max(b.rounds) as f64 / a.rounds.min(b.rounds).max(1) as f64;
    assert!(ratio < 2.0, "placement changed the cost by {ratio}x");
}

#[test]
fn fixed_radius_ablation_monotone_in_radius_quality() {
    // Ablation of the central design choice: the radius is the
    // only difference between the universal and existential algorithms, and
    // using a radius larger than NQ_k only makes things slower.
    let graph = Arc::new(generators::grid(&[20, 20]).unwrap());
    let oracle = NqOracle::new(&graph);
    let k = 200u64;
    let tokens = place_tokens(&(0..graph.n() as u32).collect::<Vec<_>>(), k);
    let nq = oracle.nq(k);

    let mut rounds = Vec::new();
    for radius in [nq, 2 * nq, 4 * nq] {
        let mut net = HybridNetwork::hybrid0(Arc::clone(&graph));
        let out = hybrid::core::dissemination::disseminate_with_radius(
            &mut net,
            &oracle,
            &tokens,
            RadiusPolicy::Fixed(radius),
        );
        assert_eq!(out.tokens.len(), k as usize);
        rounds.push(out.rounds);
    }
    assert!(
        rounds[0] <= rounds[1] && rounds[1] <= rounds[2],
        "rounds {rounds:?} not monotone"
    );
}

#[test]
fn aggregation_matches_direct_computation_on_er_graph() {
    let graph = Arc::new(generators::erdos_renyi(200, 0.04, 5).unwrap());
    let oracle = NqOracle::new(&graph);
    let k = 12usize;
    let values: Vec<Vec<u64>> = (0..graph.n() as u64)
        .map(|v| (0..k as u64).map(|i| (v * 31 + i * 17) % 997).collect())
        .collect();
    let mut net = HybridNetwork::hybrid0(Arc::clone(&graph));
    let out = k_aggregation(&mut net, &oracle, &values, |a, b| a.min(b));
    for i in 0..k {
        let expected = values.iter().map(|v| v[i]).min().unwrap();
        assert_eq!(out.results[i], expected, "component {i}");
    }
}

#[test]
fn phase_engine_and_message_passing_engine_agree_on_delivery() {
    // Cross-validation between the two simulation styles: the unstructured
    // token-gossip program (true per-node execution on the message-passing
    // engine) and the structured Theorem 1 broadcast (phase engine) must both
    // deliver every token to every node, and the gossip run must never exceed
    // the per-node global capacity.
    let graph = generators::grid(&[12, 12]).unwrap();
    let k = 24usize;
    let params = ModelParams::hybrid(graph.n());
    let mut exec = Executor::new(&graph, params, |v| {
        let initial: Vec<u64> = if (v as usize) < k {
            vec![v as u64]
        } else {
            vec![]
        };
        TokenGossipProgram::new(v, graph.n(), initial, k, 99)
    });
    let gossip = exec.run_capped(5_000, |ps| ps.iter().all(|p| p.done()));
    assert!(gossip.completed, "gossip never finished");
    assert_eq!(
        gossip.refused_sends, 0,
        "gossip exceeded its own send budget"
    );
    for p in exec.programs() {
        assert_eq!(p.known.len(), k);
    }

    let arc = Arc::new(graph);
    let oracle = NqOracle::new(&arc);
    let tokens = place_tokens(&(0..k as u32).collect::<Vec<_>>(), k as u64);
    let mut net = HybridNetwork::hybrid(Arc::clone(&arc));
    let structured = k_dissemination(&mut net, &oracle, &tokens);
    assert_eq!(structured.tokens.len(), k);
    assert_eq!(
        structured.tokens,
        (0..k as u64).collect::<Vec<_>>(),
        "both styles deliver the same token set"
    );
}

#[test]
fn routing_baseline_and_universal_agree_on_delivery() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let graph = Arc::new(generators::grid(&[14, 14]).unwrap());
    let oracle = NqOracle::new(&graph);
    let sources: Vec<u32> = (0..40).collect();
    let targets: Vec<u32> = vec![50, 120, 190];

    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let uni = kl_routing(
        &mut net,
        &oracle,
        &sources,
        &targets,
        RoutingScenario::ArbitrarySourcesRandomTargets,
        &mut rng,
    );
    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let base = baseline_sqrt_k_routing(&mut net, &oracle, &sources, &targets, &mut rng);

    assert!(uni.is_complete(&sources, &targets));
    assert!(base.is_complete(&sources, &targets));
    assert!(uni.rounds <= base.rounds);
}
