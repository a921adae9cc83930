//! Cross-crate integration tests for the shortest-paths stack
//! (Tables 2–4 and Figure 1): every approximation algorithm is validated
//! against exact Dijkstra ground truth, and the round counts must show the
//! paper's qualitative shape (universal ≤ existential, SSSP flat in `n`,
//! k-SSP growing like `√k`).

use std::sync::Arc;

use hybrid::core::apsp;
use hybrid::core::klsp::{klsp, KlspScenario};
use hybrid::core::kssp::baseline_chlp21_rounds;
use hybrid::core::prob::{sample_distinct, sample_with_probability};
use hybrid::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn theorem6_apsp_stretch_and_shape_across_families() {
    let cases: Vec<(&str, Graph)> = vec![
        ("grid", generators::grid(&[10, 10]).unwrap()),
        ("cycle", generators::cycle(90).unwrap()),
        ("tree", generators::tree_with_n(3, 121).unwrap()),
        ("er", generators::erdos_renyi(100, 0.06, 1).unwrap()),
    ];
    for (name, graph) in cases {
        let graph = Arc::new(graph);
        let oracle = NqOracle::new(&graph);
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let uni = apsp_unweighted(&mut net, &oracle, 0.5);
        let uni_rounds = net.rounds();
        let worst = uni
            .verify_stretch(&graph)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(worst <= 1.5, "{name}: stretch {worst}");

        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        apsp::baseline_unweighted_apsp_sqrt_n(&mut net, &oracle, 0.5);
        let base_rounds = net.rounds();
        assert!(
            uni_rounds <= base_rounds,
            "{name}: universal {uni_rounds} slower than structured baseline {base_rounds}"
        );
    }
}

#[test]
fn weighted_apsp_algorithms_respect_their_stretch() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let er = generators::erdos_renyi(90, 0.07, 2).unwrap();
    let graph = Arc::new(generators::with_random_weights(&er, 20, 2).unwrap());
    let oracle = NqOracle::new(&graph);

    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let spanner_based = apsp_weighted_spanner(&mut net, &oracle, 0.5);
    let worst = spanner_based.verify_stretch(&graph).expect("Theorem 7");
    assert!(worst <= spanner_based.stretch);

    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let skeleton_based = apsp::apsp_weighted_skeleton(&mut net, &oracle, 1, &mut rng);
    let worst = skeleton_based.verify_stretch(&graph).expect("Theorem 8");
    assert!(worst <= 3.0);

    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let exact = apsp::apsp_sparse_exact(&mut net, &oracle);
    assert!((exact.verify_stretch(&graph).unwrap() - 1.0).abs() < 1e-12);
}

#[test]
fn theorem13_sssp_rounds_flat_in_n_baselines_grow() {
    // Table 4's headline: prior algorithms grow polynomially with n, the new
    // SSSP does not.
    let mut ours = Vec::new();
    let mut baseline = Vec::new();
    for side in [8usize, 16, 32, 64] {
        let graph = Arc::new(generators::grid(&[side, side]).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let out = sssp_approx(&mut net, 0, 0.5);
        let exact = hybrid::graph::dijkstra::dijkstra(&graph, 0).dist;
        out.verify_stretch(&exact).unwrap();
        ours.push(out.rounds);
        baseline.push(SsspBaseline::Ks20SqrtN.rounds(graph.n()));
    }
    // Baseline grows by ~8x from n=64 to n=4096; ours by at most 2x (polylog).
    assert!(baseline.last().unwrap() > &(baseline[0] * 5));
    assert!(ours.last().unwrap() <= &(ours[0] * 3));
    // And at the largest size the new algorithm is much faster.
    assert!(ours.last().unwrap() * 4 < *baseline.last().unwrap());
}

#[test]
fn theorem14_kssp_tracks_sqrt_k_and_beats_prior_for_small_k() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let graph = Arc::new(generators::erdos_renyi(600, 6.0 / 600.0, 3).unwrap());
    let mut rounds = Vec::new();
    for &k in &[16usize, 64, 256] {
        let sources = sample_distinct(graph.n(), k, &mut rng);
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let out = kssp(
            &mut net,
            &sources,
            1.0,
            KsspVariant::RandomSources,
            &mut rng,
        );
        out.verify_stretch(&graph).unwrap();
        rounds.push(out.rounds);
    }
    // Growth between k=16 and k=256 should be roughly sqrt(16) = 4x, certainly
    // far below the 16x of a linear-in-k schedule.
    assert!(rounds[2] > rounds[0], "rounds must grow with k");
    assert!(
        rounds[2] < rounds[0] * 10,
        "growth {:?} looks linear in k rather than sqrt",
        rounds
    );
    // Figure 1 shape: the prior bound Õ(n^{1/3} + √k) is flat in k on its left
    // side (dominated by the n^{1/3} term), so the new algorithm's rounds
    // relative to it must shrink as k decreases — the crossover moves in the
    // right direction even though absolute constants differ at this scale.
    let ratio_small = rounds[0] as f64 / baseline_chlp21_rounds(graph.n(), 16) as f64;
    let ratio_large = rounds[2] as f64 / baseline_chlp21_rounds(graph.n(), 256) as f64;
    assert!(
        ratio_small < ratio_large,
        "advantage does not grow towards small k: {ratio_small:.2} vs {ratio_large:.2}"
    );
}

#[test]
fn theorem5_klsp_end_to_end_on_weighted_geometric_graph() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let base = generators::random_geometric(250, 0.12, 4).unwrap();
    let graph = Arc::new(generators::with_random_weights(&base, 10, 4).unwrap());
    let oracle = NqOracle::new(&graph);
    let sources = sample_distinct(graph.n(), 30, &mut rng);
    let nq = oracle.nq(30);
    let mut targets = sample_with_probability(graph.n(), nq as f64 / graph.n() as f64, &mut rng);
    if targets.is_empty() {
        targets.push(1);
    }
    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let out = klsp(
        &mut net,
        &oracle,
        &sources,
        &targets,
        0.2,
        KlspScenario::ArbitrarySourcesRandomTargets,
        &mut rng,
    );
    let worst = out.verify_stretch(&graph).expect("Theorem 5 stretch");
    assert!(worst <= 1.2);
    assert_eq!(out.dist.len(), targets.len());
    assert!(out.dist.iter().all(|row| row.len() == sources.len()));
}

#[test]
fn cut_approximation_pipeline_preserves_random_cuts() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let graph = Arc::new(generators::grid(&[9, 9]).unwrap());
    let oracle = NqOracle::new(&graph);
    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
    let sparsifier = hybrid::core::cuts::approximate_all_cuts(&mut net, &oracle, 0.5, &mut rng);
    let err = hybrid::core::cuts::measured_cut_error(&graph, &sparsifier.graph, 20, &mut rng);
    assert!(err <= 1.0, "cut error {err} too large");
    assert!(net.rounds() > 0);
}
