//! Differential conformance suite for the query-serving [`DistanceOracle`].
//!
//! The oracle is cross-checked against the exact Dijkstra matrix
//! ([`DistanceRows::all_pairs`]) on the same pinned instance grid the PR 8 registry
//! shootout uses (`tests/conformance.rs`), so a break names the exact
//! instance:
//!
//! * **distance** — every answer obeys `exact ≤ answer ≤ stretch · exact`
//!   with the stretch the oracle documents ([`ORACLE_STRETCH`]), and is
//!   *exactly* `exact` whenever either endpoint is a landmark, and whenever
//!   `exact < r(u)` or `exact < r(v)`, where `r(x)` is the distance from `x`
//!   to its closest landmark — through `query`, `query_path`, `query_batch`
//!   and `query_paths_batch` alike.  The second half is the exact half of the
//!   contract: a ball search skipped wrongly still answers within stretch,
//!   so only it can catch one;
//! * **path validity** — every witness path starts at `u`, ends at `v`,
//!   every consecutive pair is an edge of the graph, and the edge weights
//!   sum to exactly the reported distance;
//! * **determinism** — rebuilding from the same seed is bit-identical, and
//!   batched answers are bit-identical across rayon pool widths `{1, 4, 8}`;
//! * **unreachable pairs** — on a two-component graph a cross-component
//!   answer is [`INFINITY`] with an empty path, and a component that holds no
//!   landmark is served exactly from its balls.

use std::sync::Arc;

use hybrid_core::{DistanceOracle, DistanceRows, OracleConfig, ORACLE_STRETCH};
use hybrid_graph::{generators, Graph, GraphBuilder, NodeId, Weight, INFINITY};

/// Same instance grid as `tests/conformance.rs`: one graph per family shape,
/// small enough for the exact oracle.
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

/// Weighted variants, identical to the registry suite's weighting.
fn weighted_conformance_graphs() -> Vec<(&'static str, Arc<Graph>)> {
    conformance_graphs()
        .into_iter()
        .map(|(name, g)| {
            let w = generators::with_random_weights(&g, 32, 0x11ED + name.len() as u64).unwrap();
            (name, Arc::new(w))
        })
        .collect()
}

/// All instances the oracle suite runs on: unweighted and weighted grids.
fn all_instances() -> Vec<(String, Arc<Graph>)> {
    let mut out: Vec<(String, Arc<Graph>)> = conformance_graphs()
        .into_iter()
        .map(|(n, g)| (n.to_string(), g))
        .collect();
    out.extend(
        weighted_conformance_graphs()
            .into_iter()
            .map(|(n, g)| (format!("{n}-weighted"), g)),
    );
    out
}

fn build(graph: &Graph) -> DistanceOracle {
    DistanceOracle::build(graph, OracleConfig::default()).expect("oracle build")
}

/// Every (u, v) pair of the instance, in a fixed order.
fn all_pairs(n: usize) -> Vec<(NodeId, NodeId)> {
    let mut q = Vec::with_capacity(n * n);
    for u in 0..n as NodeId {
        for v in 0..n as NodeId {
            q.push((u, v));
        }
    }
    q
}

#[test]
fn distances_stay_within_documented_stretch_of_exact_dijkstra() {
    for (name, graph) in all_instances() {
        let oracle = build(&graph);
        let exact = DistanceRows::all_pairs(&graph);
        for (u, v) in all_pairs(graph.n()) {
            let a = oracle.query(u, v);
            let e = exact[u as usize][v as usize];
            assert!(
                a >= e,
                "{name}: ({u},{v}) answer {a} underestimates exact {e}"
            );
            assert!(
                a as f64 <= ORACLE_STRETCH * e as f64 + 1e-9,
                "{name}: ({u},{v}) answer {a} breaks stretch {ORACLE_STRETCH} over exact {e}"
            );
        }
        for &l in oracle.landmarks() {
            for v in 0..graph.n() as NodeId {
                assert_eq!(
                    oracle.query(l, v),
                    exact[l as usize][v as usize],
                    "{name}: landmark query ({l},{v}) must be exact"
                );
            }
        }
    }
}

/// Weight of the walk `path`, which must start at `u`, end at `v` and step
/// along edges only.
fn walk_weight(name: &str, graph: &Graph, (u, v): (NodeId, NodeId), path: &[NodeId]) -> Weight {
    assert_eq!(path.first(), Some(&u), "{name}: ({u},{v}) path start");
    assert_eq!(path.last(), Some(&v), "{name}: ({u},{v}) path end");
    path.windows(2)
        .map(|step| {
            let arc = graph.arcs(step[0]).iter().find(|a| a.to == step[1]);
            arc.unwrap_or_else(|| {
                panic!(
                    "{name}: ({u},{v}) step {}-{} is not an edge",
                    step[0], step[1]
                )
            })
            .weight
        })
        .sum()
}

#[test]
fn witness_paths_are_valid_walks_with_telescoping_weights() {
    for (name, graph) in all_instances() {
        let oracle = build(&graph);
        let queries = all_pairs(graph.n());
        let batch = oracle.query_paths_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (i, &(u, v)) in queries.iter().enumerate() {
            assert_eq!(
                walk_weight(&name, &graph, (u, v), batch.path(i)),
                batch.dist(i),
                "{name}: ({u},{v}) path weight must equal the reported distance"
            );
        }
    }
}

#[test]
fn same_seed_rebuild_is_bit_identical() {
    for (name, graph) in all_instances() {
        let a = build(&graph);
        let b = build(&graph);
        assert_eq!(a.landmarks(), b.landmarks(), "{name}: landmark sample");
        let queries = all_pairs(graph.n());
        assert_eq!(
            a.query_batch(&queries),
            b.query_batch(&queries),
            "{name}: rebuilt oracle must answer identically"
        );
    }
}

/// Everything a pool-width run produces: batch distances, path-batch
/// distances, and the flattened witness paths.
type PoolRunAnswers = (Vec<Weight>, Vec<Weight>, Vec<Vec<NodeId>>);

#[test]
fn batched_answers_are_pool_width_invariant() {
    for (name, graph) in all_instances() {
        let queries = all_pairs(graph.n());
        let run_all = || {
            let oracle = build(&graph);
            let dists = oracle.query_batch(&queries);
            let paths = oracle.query_paths_batch(&queries);
            let flat_paths: Vec<Vec<NodeId>> =
                (0..paths.len()).map(|i| paths.path(i).to_vec()).collect();
            (dists, paths.dists().to_vec(), flat_paths)
        };
        let mut reference: Option<PoolRunAnswers> = None;
        for threads in [1usize, 4, 8] {
            let got = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(run_all);
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    want, &got,
                    "{name}: batch answers diverged at pool width {threads}"
                ),
            }
        }
    }
}

#[test]
fn batch_agrees_with_per_query_answers() {
    for (name, graph) in all_instances() {
        let oracle = build(&graph);
        let queries = all_pairs(graph.n());
        let batch = oracle.query_batch(&queries);
        for (i, &(u, v)) in queries.iter().enumerate() {
            assert_eq!(
                batch[i],
                oracle.query(u, v),
                "{name}: batch answer ({u},{v}) diverges from the single query"
            );
        }
    }
}

/// Two weighted grids side by side, and the first node of the second.
/// Component A (nodes 0..30) holds every landmark of [`two_component_oracle`];
/// component B (30..50) holds none, so its labels are its balls alone.
fn two_components() -> (Graph, NodeId) {
    let a = generators::weighted_grid(&[5, 6], 24, 0x2C0).unwrap();
    let b = generators::weighted_grid(&[4, 5], 24, 0x2C1).unwrap();
    let split = a.n() as NodeId;
    let mut both = GraphBuilder::new(a.n() + b.n());
    for &(u, v, w) in a.edges() {
        both.add_edge(u, v, w).unwrap();
    }
    for &(u, v, w) in b.edges() {
        both.add_edge(split + u, split + v, w).unwrap();
    }
    (both.build_unchecked_connectivity(), split)
}

fn two_component_oracle(graph: &Graph) -> DistanceOracle {
    DistanceOracle::build_with_landmarks(graph, &[0, 13, 22]).unwrap()
}

#[test]
fn pairs_closer_than_a_landmark_answer_exactly_through_every_entry_point() {
    let mut instances: Vec<_> = all_instances()
        .into_iter()
        .map(|(name, graph)| {
            let oracle = build(&graph);
            (name, graph, oracle)
        })
        .collect();
    let (graph, _) = two_components();
    let oracle = two_component_oracle(&graph);
    instances.push(("two-component".to_string(), Arc::new(graph), oracle));

    for (name, graph, oracle) in instances {
        let exact = DistanceRows::all_pairs(&graph);
        // `r(u)`: the distance to u's closest landmark, `INFINITY` in a
        // component without one.
        let radius: Vec<Weight> = (0..graph.n())
            .map(|u| {
                let to_landmarks = oracle.landmarks().iter().map(|&l| exact[l as usize][u]);
                to_landmarks.min().expect("at least one landmark")
            })
            .collect();
        let queries: Vec<(NodeId, NodeId)> = all_pairs(graph.n())
            .into_iter()
            .filter(|&(u, v)| {
                let e = exact[u as usize][v as usize];
                e < radius[u as usize] || e < radius[v as usize]
            })
            .collect();
        assert!(queries.iter().any(|&(u, v)| u != v), "{name}: vacuous");
        let dists = oracle.query_batch(&queries);
        let paths = oracle.query_paths_batch(&queries);
        for (i, &(u, v)) in queries.iter().enumerate() {
            let e = exact[u as usize][v as usize];
            let answers = [
                ("query", oracle.query(u, v)),
                ("query_path", oracle.query_path(u, v).0),
                ("query_batch", dists[i]),
                ("query_paths_batch", paths.dist(i)),
            ];
            for (entry, a) in answers {
                assert_eq!(a, e, "{name}: {entry}({u},{v}) is inside a ball radius");
            }
        }
    }
}

#[test]
fn unreachable_pairs_answer_infinity_and_a_landmarkless_component_is_exact() {
    let (graph, split) = two_components();
    let oracle = two_component_oracle(&graph);
    let exact = DistanceRows::all_pairs(&graph);

    let queries = all_pairs(graph.n());
    let dists = oracle.query_batch(&queries);
    let paths = oracle.query_paths_batch(&queries);
    for (i, &(u, v)) in queries.iter().enumerate() {
        let e = exact[u as usize][v as usize];
        let a = oracle.query(u, v);
        assert_eq!(dists[i], a, "({u},{v}): batch answer");
        assert_eq!(paths.dist(i), a, "({u},{v}): path-batch answer");
        let (d, path) = oracle.query_path(u, v);
        assert_eq!(d, a, "({u},{v}): path answer");
        assert_eq!(paths.path(i), path.as_slice(), "({u},{v}): batch path");

        if (u < split) != (v < split) {
            assert_eq!(e, INFINITY);
            assert_eq!(a, INFINITY, "({u},{v}): cross-component answer");
            assert!(path.is_empty(), "({u},{v}): cross-component path");
            continue;
        }
        if u >= split {
            assert_eq!(a, e, "({u},{v}): landmark-less component must be exact");
        }
        assert!(a >= e, "({u},{v}): answer {a} underestimates exact {e}");
        assert!(
            a as f64 <= ORACLE_STRETCH * e as f64 + 1e-9,
            "({u},{v}): answer {a} breaks stretch {ORACLE_STRETCH} over exact {e}"
        );
        assert_eq!(
            walk_weight("two-component", &graph, (u, v), &path),
            a,
            "({u},{v}): walk"
        );
    }
}
