//! Data-center control-plane broadcast — the motivating scenario from the
//! paper's introduction: announcing a failure / policy change to every host
//! of a leaf–spine data center that combines a wired local fabric with a
//! capacity-limited global side channel.
//!
//! The example broadcasts `k` control messages and aggregates `k` health
//! counters, comparing the universal algorithms (Theorems 1 and 2) with the
//! `Õ(√k)` baseline, and prints the per-phase round trace of the universal
//! run so the cluster-tree structure of Figure 2 is visible.
//!
//! ```text
//! cargo run --release --example datacenter_broadcast
//! ```

use std::sync::Arc;

use hybrid::core::dissemination::place_tokens;
use hybrid::prelude::*;

fn main() {
    // 4 spines, 16 leaves, 40 hosts per leaf = 660 nodes.
    let graph = Arc::new(generators::fat_tree(4, 16, 40).expect("fat tree"));
    let oracle = NqOracle::new(&graph);
    let n = graph.n();
    println!(
        "leaf–spine fabric: n = {}, m = {}, diameter = {}",
        n,
        graph.m(),
        oracle.diameter()
    );

    // 1. Broadcast 500 control messages originating at the spines.
    let k = 500u64;
    let spines: Vec<u32> = (0..4).collect();
    let tokens = place_tokens(&spines, k);
    println!(
        "\nbroadcasting k = {k} control messages:  NQ_k = {}  vs  sqrt(k) = {}",
        oracle.nq(k),
        (k as f64).sqrt().ceil() as u64
    );

    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let universal = k_dissemination(&mut net, &oracle, &tokens);
    println!(
        "universal broadcast (Theorem 1): {} rounds",
        universal.rounds
    );
    println!("  phase trace:");
    for phase in net.meter().trace().iter().take(12) {
        println!("    {:<42} {:>5} rounds", phase.label, phase.rounds);
    }

    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let baseline = baseline_sqrt_k_dissemination(&mut net, &oracle, &tokens);
    println!(
        "baseline broadcast (Õ(sqrt k)) : {} rounds",
        baseline.rounds
    );

    // 2. Aggregate 8 per-host health counters (max over the fleet).
    let counters: Vec<Vec<u64>> = (0..n as u64)
        .map(|v| (0..8).map(|c| (v * 7 + c * 13) % 1000).collect())
        .collect();
    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let agg = k_aggregation(&mut net, &oracle, &counters, |a, b| a.max(b));
    println!(
        "\naggregating 8 fleet-wide health counters (Theorem 2): {} rounds",
        net.rounds()
    );
    println!("  fleet maxima: {:?}", agg.results);

    println!(
        "\nspeed-up of the universal broadcast on this fabric: {:.2}x",
        baseline.rounds as f64 / universal.rounds.max(1) as f64
    );
}
