//! Quickstart: broadcast `k` messages through a HYBRID network and compare
//! the universally optimal algorithm (Theorem 1) against the existentially
//! optimal `Õ(√k)` baseline of prior work.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use hybrid::core::dissemination::place_tokens;
use hybrid::core::lower_bounds::dissemination_lower_bound;
use hybrid::prelude::*;

fn main() {
    // The local communication network: a 24x24 grid (e.g. a sensor mesh).
    let graph = Arc::new(generators::grid(&[24, 24]).expect("grid"));
    let oracle = NqOracle::new(&graph);

    // 200 messages, initially scattered over the first 64 nodes.
    let k = 200u64;
    let holders: Vec<u32> = (0..64).collect();
    let tokens = place_tokens(&holders, k);

    println!(
        "HYBRID network: n = {}, m = {}, D = {}",
        graph.n(),
        graph.m(),
        oracle.diameter()
    );
    println!(
        "workload k = {k}:  NQ_k = {}   (worst-case bound sqrt(k) = {})",
        oracle.nq(k),
        (k as f64).sqrt().ceil() as u64
    );

    // Universal algorithm (Theorem 1).
    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let universal = k_dissemination(&mut net, &oracle, &tokens);

    // Existential baseline (AHK+20-style, radius sqrt(k)).
    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let baseline = baseline_sqrt_k_dissemination(&mut net, &oracle, &tokens);

    // Universal lower bound (Theorem 4) for this very graph.
    let params = ModelParams::hybrid(graph.n());
    let bound = dissemination_lower_bound(&oracle, &params, k, 0.99);

    assert_eq!(
        universal.tokens, baseline.tokens,
        "both deliver every message"
    );
    println!();
    println!("universal  (Theorem 1) : {:>6} rounds", universal.rounds);
    println!("baseline   (Õ(sqrt k)) : {:>6} rounds", baseline.rounds);
    println!("lower bound (Theorem 4): {:>9.2} rounds", bound.rounds);
    println!();
    println!(
        "speed-up over the existentially optimal algorithm: {:.2}x",
        baseline.rounds as f64 / universal.rounds.max(1) as f64
    );
}
