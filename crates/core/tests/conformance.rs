//! Differential conformance suite for the algorithm registry.
//!
//! Every contender registered in [`hybrid_core::dissemination_registry`] /
//! [`hybrid_core::sssp_registry`] is run on the *same instances* and
//! cross-checked against every other implementation of the same problem:
//!
//! * dissemination — all implementations must deliver the **identical token
//!   set** (the problem has one correct answer; only the round bill may
//!   differ);
//! * shortest paths — every implementation must stay within its **stated
//!   stretch** of the exact Dijkstra oracle, which induces the pairwise
//!   cross-bound `dist_A ≤ stretch_A · dist_B` for any two contenders;
//! * determinism — contenders that advertise `deterministic()` (and every
//!   contender under a fixed seed) must reproduce bit-identical output, at
//!   every rayon pool width the CI matrix pins (`{1, 4}`).
//!
//! The random-instance sweep over `(family, seed, λ, γ)` lives in the
//! workspace-level proptest suite (`tests/property_tests.rs`); this file pins
//! the deterministic cross-product so a conformance break names the exact
//! instance in its assertion message.

use std::sync::Arc;

use hybrid_core::dissemination::place_tokens;
use hybrid_core::rows::DistanceRows;
use hybrid_core::schneider::{landmarks, schneider_kssp};
use hybrid_core::sssp::quantize_distance;
use hybrid_core::{dissemination_registry, sssp_registry, NqOracle};
use hybrid_graph::{generators, Graph};
use hybrid_sim::{HybridNetwork, ModelParams};

/// The instance grid: one graph per family shape, small enough for the exact
/// oracle, varied enough to hit every pipeline branch (high diameter, low
/// diameter, irregular degrees).
fn conformance_graphs() -> Vec<(&'static str, Arc<Graph>)> {
    vec![
        ("path-48", Arc::new(generators::path(48).unwrap())),
        ("cycle-40", Arc::new(generators::cycle(40).unwrap())),
        ("grid-8x8", Arc::new(generators::grid(&[8, 8]).unwrap())),
        (
            "tree-2-60",
            Arc::new(generators::tree_with_n(2, 60).unwrap()),
        ),
        (
            "er-56",
            Arc::new(generators::erdos_renyi(56, 0.12, 0xC0F0).unwrap()),
        ),
    ]
}

/// Weighted variants for the shortest-paths half of the suite.
fn weighted_conformance_graphs() -> Vec<(&'static str, Arc<Graph>)> {
    conformance_graphs()
        .into_iter()
        .map(|(name, g)| {
            let w = generators::with_random_weights(&g, 32, 0x11ED + name.len() as u64).unwrap();
            (name, Arc::new(w))
        })
        .collect()
}

/// The (γ) points the conformance grid exercises on top of the default
/// `γ = ⌈log₂ n⌉`: a scarce and a rich global network.
fn gamma_points(n: usize) -> Vec<ModelParams> {
    vec![
        ModelParams::hybrid(n),
        ModelParams::hybrid_with_global_capacity(n, 1),
        ModelParams::hybrid_with_global_capacity(n, 64),
    ]
}

#[test]
fn all_dissemination_impls_deliver_identical_token_sets() {
    for (name, graph) in conformance_graphs() {
        let oracle = NqOracle::new(&graph);
        let holders: Vec<u32> = (0..graph.n() as u32).step_by(3).collect();
        for k in [1u64, 17, 96] {
            let tokens = place_tokens(&holders, k);
            for params in gamma_points(graph.n()) {
                let gamma = params.global_capacity_msgs;
                let mut reference: Option<(&'static str, Vec<u64>)> = None;
                for algo in dissemination_registry() {
                    let mut net = HybridNetwork::new(Arc::clone(&graph), params);
                    let out = algo.run(&mut net, &oracle, &tokens);
                    assert_eq!(
                        out.tokens.len() as u64,
                        k,
                        "{} lost tokens on {name} (k={k}, gamma={gamma})",
                        algo.name(),
                    );
                    match &reference {
                        None => reference = Some((algo.name(), out.tokens)),
                        Some((ref_name, ref_tokens)) => assert_eq!(
                            ref_tokens,
                            &out.tokens,
                            "{} and {ref_name} disagree on {name} (k={k}, gamma={gamma})",
                            algo.name(),
                        ),
                    }
                }
            }
        }
    }
}

/// The `[Sch23]` rival's labels are defined by its landmark shortcut
/// composition; they must equal a naive fold of its sweep rows written out
/// here, in every build.  (The deepening stops at the fixpoint, so the
/// sweep rows are the `n`-hop rows, and the pipeline itself composes
/// nothing: the direct row dominates there.)
#[test]
fn schneider_labels_equal_a_naive_fold_of_its_sweep_rows() {
    const EPSILON: f64 = 0.5;
    for (name, graph) in weighted_conformance_graphs() {
        let n = graph.n();
        let sources: Vec<u32> = vec![0, n as u32 / 3, n as u32 / 2, n as u32 - 1];
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let out = schneider_kssp(&mut net, &sources, EPSILON);
        assert_eq!(out.dist.sources(), &sources[..]);

        let lm = landmarks(n);
        let (lm_rows, _) = DistanceRows::hop_limited(&graph, &lm, n);
        let (source_rows, _) = DistanceRows::hop_limited(&graph, &sources, n);
        for (i, row) in source_rows.iter().enumerate() {
            for v in 0..n {
                let via_landmarks = lm
                    .iter()
                    .zip(lm_rows.iter())
                    .map(|(&l, lm_row)| row[l as usize].saturating_add(lm_row[v]))
                    .min()
                    .expect("at least one landmark");
                let folded = row[v].min(via_landmarks);
                assert_eq!(folded, row[v], "{name}: a shortcut beat a converged row");
                assert_eq!(
                    out.dist[i][v],
                    quantize_distance(folded, EPSILON),
                    "{name}: label of ({}, {v})",
                    sources[i]
                );
            }
        }
    }
}

#[test]
fn all_sssp_impls_meet_stretch_and_pairwise_cross_bounds() {
    const EPSILON: f64 = 0.5;
    for (name, graph) in weighted_conformance_graphs() {
        let n = graph.n() as u32;
        let sources: Vec<u32> = vec![0, n / 3, n / 2, n - 1];
        for params in gamma_points(graph.n()) {
            let gamma = params.global_capacity_msgs;
            let mut outputs = Vec::new();
            for algo in sssp_registry() {
                let mut net = HybridNetwork::new(Arc::clone(&graph), params);
                let out = algo.run(&mut net, &sources, EPSILON, 0xD1FF);
                assert!(
                    out.stretch <= algo.stated_stretch(EPSILON) + 1e-9,
                    "{} reported stretch above its contract on {name}",
                    algo.name(),
                );
                // Against the exact oracle: never underestimates, never more
                // than the reported stretch over the truth.
                out.verify_stretch(&graph).unwrap_or_else(|e| {
                    panic!(
                        "{} broke stretch on {name} (gamma={gamma}): {e}",
                        algo.name()
                    )
                });
                outputs.push((algo.name(), algo.stated_stretch(EPSILON), out));
            }
            // Pairwise: labels never underestimate, so for any two contenders
            // A, B it must hold that dist_A ≤ stretch_A · dist_B.
            for (a_name, a_stretch, a) in &outputs {
                for (b_name, _, b) in &outputs {
                    for (si, _) in sources.iter().enumerate() {
                        for v in 0..graph.n() {
                            let (da, db) = (a.dist[si][v], b.dist[si][v]);
                            if da == hybrid_graph::INFINITY || db == hybrid_graph::INFINITY {
                                assert_eq!(
                                    da, db,
                                    "{a_name}/{b_name} disagree on reachability on {name}"
                                );
                                continue;
                            }
                            assert!(
                                da as f64 <= a_stretch * db as f64 + 1e-6,
                                "{a_name} vs {b_name} cross-bound broke on {name} \
                                 (gamma={gamma}, source {si}, node {v}: {da} vs {db})",
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn deterministic_impls_ignore_the_seed() {
    let graph = Arc::new(generators::grid(&[9, 9]).unwrap());
    let sources = vec![0u32, 40, 80];
    for algo in sssp_registry() {
        let run = |seed: u64| {
            let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
            algo.run(&mut net, &sources, 0.5, seed)
        };
        let (a, b) = (run(1), run(0xFFFF_FFFF));
        if algo.name() == "schneider" {
            assert_eq!(a.dist, b.dist, "schneider drew random bits");
            assert_eq!(a.rounds, b.rounds, "schneider rounds depend on the seed");
        } else {
            // Seeded contenders must at least be self-reproducible.
            let c = run(1);
            assert_eq!(a.dist, c.dist, "{} is not seed-deterministic", algo.name());
            assert_eq!(a.rounds, c.rounds);
        }
    }
    let oracle = NqOracle::new(&graph);
    let tokens = place_tokens(&[0, 11, 44], 30);
    for algo in dissemination_registry() {
        let run = || {
            let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
            algo.run(&mut net, &oracle, &tokens)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.tokens, b.tokens, "{} replay diverged", algo.name());
        assert_eq!(a.rounds, b.rounds, "{} rounds diverged", algo.name());
    }
}

#[test]
fn registry_outputs_are_pool_width_invariant() {
    let graph = Arc::new(generators::weighted_grid(&[8, 8], 16, 3).unwrap());
    let oracle = NqOracle::new(&graph);
    let tokens = place_tokens(&(0..32).collect::<Vec<_>>(), 48);
    let sources = vec![0u32, 21, 63];

    let run_all = || {
        let mut diss = Vec::new();
        for algo in dissemination_registry() {
            let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
            let out = algo.run(&mut net, &oracle, &tokens);
            diss.push((algo.name(), out.rounds, out.tokens));
        }
        let mut sssp = Vec::new();
        for algo in sssp_registry() {
            let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
            let out = algo.run(&mut net, &sources, 0.5, 77);
            sssp.push((algo.name(), out.rounds, out.dist));
        }
        (diss, sssp)
    };

    let reference = run_all();
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let got = pool.install(run_all);
        assert_eq!(
            got, reference,
            "registry output diverged at {threads} rayon threads"
        );
    }
}

#[test]
fn empty_instances_conform_across_the_registry() {
    let graph = Arc::new(generators::cycle(24).unwrap());
    let oracle = NqOracle::new(&graph);
    for algo in dissemination_registry() {
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let out = algo.run(&mut net, &oracle, &[]);
        assert!(out.tokens.is_empty(), "{} invented tokens", algo.name());
    }
    for algo in sssp_registry() {
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        let out = algo.run(&mut net, &[], 0.5, 9);
        assert!(out.dist.is_empty(), "{} invented distances", algo.name());
        assert_eq!(out.rounds, 0, "{} charged for nothing", algo.name());
    }
}
