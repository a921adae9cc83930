//! Building (approximate) routing tables — the paper's second motivating
//! application: every node of a wireless-style mesh learns its distance to a
//! set of landmark gateways, which is exactly the `(k, ℓ)`-SP problem
//! (Theorem 5) built on k-SSP (Theorem 14) and `(k, ℓ)`-routing (Theorem 3).
//!
//! ```text
//! cargo run --release --example routing_tables
//! ```

use std::sync::Arc;

use hybrid::core::klsp::{klsp, KlspScenario};
use hybrid::core::prob::{sample_distinct, sample_with_probability};
use hybrid::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    // A random geometric graph models short-range wireless links; random
    // edge weights model link latencies.
    let base = generators::random_geometric(500, 0.09, 2024).expect("mesh");
    let graph = Arc::new(generators::with_random_weights(&base, 16, 2024).expect("weights"));
    let oracle = NqOracle::new(&graph);
    println!(
        "wireless mesh: n = {}, m = {}, diameter = {}",
        graph.n(),
        graph.m(),
        oracle.diameter()
    );

    // 40 landmark gateways (arbitrary positions), and every node that opted
    // into the routing service as a target.
    let gateways = sample_distinct(graph.n(), 40, &mut rng);
    let nq = oracle.nq(gateways.len() as u64);
    let mut subscribers =
        sample_with_probability(graph.n(), nq as f64 / graph.n() as f64, &mut rng);
    if subscribers.is_empty() {
        subscribers.push(0);
    }
    println!(
        "k = {} gateways, ℓ = {} subscribers, NQ_k = {nq}",
        gateways.len(),
        subscribers.len()
    );

    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let tables = klsp(
        &mut net,
        &oracle,
        &gateways,
        &subscribers,
        0.1,
        KlspScenario::ArbitrarySourcesRandomTargets,
        &mut rng,
    );
    let worst = tables.verify_stretch(&graph).expect("stretch guarantee");
    println!(
        "\n(k, ℓ)-SP with stretch 1.1 (Theorem 5): {} rounds, worst observed stretch {:.4}",
        net.rounds(),
        worst
    );

    // Print the routing table of the first subscriber: nearest 5 gateways.
    let t = subscribers[0];
    let mut entries: Vec<(u64, u32)> = tables.dist[0]
        .iter()
        .zip(&tables.sources)
        .map(|(&d, &g)| (d, g))
        .collect();
    entries.sort_unstable();
    println!("\nrouting table of node {t} (5 closest gateways):");
    for (d, g) in entries.into_iter().take(5) {
        println!("  gateway {:>4}   approx. latency {:>6}", g, d);
    }
}
