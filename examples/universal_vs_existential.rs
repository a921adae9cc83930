//! How large is the universal-vs-existential gap on *your* topology?
//!
//! This example sweeps the paper's graph families, measures the neighborhood
//! quality `NQ_k`, runs the universal and the existential dissemination
//! algorithms plus the Theorem 4 lower-bound witness, and prints where the
//! measured rounds fall between the two — the core claim of the paper in one
//! table.
//!
//! ```text
//! cargo run --release --example universal_vs_existential
//! ```

use std::sync::Arc;

use hybrid::core::dissemination::place_tokens;
use hybrid::core::lower_bounds::dissemination_lower_bound;
use hybrid::prelude::*;

fn main() {
    let k = 256u64;
    let cases: Vec<(&str, Graph)> = vec![
        ("path (worst case)", generators::path(1024).unwrap()),
        ("cycle", generators::cycle(1024).unwrap()),
        ("grid 32x32", generators::grid(&[32, 32]).unwrap()),
        ("grid 10x10x10", generators::grid(&[10, 10, 10]).unwrap()),
        ("binary tree", generators::tree_with_n(2, 1024).unwrap()),
        (
            "Erdős–Rényi",
            generators::erdos_renyi(1024, 6.0 / 1024.0, 7).unwrap(),
        ),
        ("fat tree", generators::fat_tree(4, 16, 62).unwrap()),
    ];

    println!(
        "{:<20}{:>6}{:>8}{:>10}{:>12}{:>12}{:>12}{:>10}",
        "family", "n", "NQ_k", "sqrt(k)", "universal", "baseline", "lower-bnd", "speedup"
    );
    for (name, graph) in cases {
        let graph = Arc::new(graph);
        let oracle = NqOracle::new(&graph);
        let holders: Vec<u32> = (0..graph.n().min(k as usize) as u32).collect();
        let tokens = place_tokens(&holders, k);

        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let uni = k_dissemination(&mut net, &oracle, &tokens);
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let base = baseline_sqrt_k_dissemination(&mut net, &oracle, &tokens);
        let bound = dissemination_lower_bound(&oracle, &ModelParams::hybrid(graph.n()), k, 0.99);

        println!(
            "{:<20}{:>6}{:>8}{:>10}{:>12}{:>12}{:>12.2}{:>9.2}x",
            name,
            graph.n(),
            oracle.nq(k),
            (k as f64).sqrt().ceil() as u64,
            uni.rounds,
            base.rounds,
            bound.rounds,
            base.rounds as f64 / uni.rounds.max(1) as f64
        );
    }
    println!(
        "\nThe universal algorithm tracks NQ_k; the existential baseline tracks sqrt(k).\n\
         On the path they coincide (Theorem 15); everywhere else the universal algorithm wins."
    );
}
