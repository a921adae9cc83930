//! Property-based tests (proptest) for the core invariants of the
//! reproduction: the `NQ_k` bounds of Section 3, the clustering invariants of
//! Lemma 3.5, the global scheduler's capacity guarantees, spanner stretch and
//! SSSP label quality — all over randomly generated graphs and parameters.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybrid::core::cluster::{cluster_with_radius, ruling_set};
use hybrid::core::nq::{lemma_3_6_bounds, NqOracle};
use hybrid::core::rows::DistanceRows;
use hybrid::core::spanner::{greedy_spanner, measured_stretch};
use hybrid::core::sssp::quantize_distance;
use hybrid::graph::dijkstra::DijkstraWorkspace;
use hybrid::graph::INFINITY;
use hybrid::prelude::*;
use hybrid::sim::{GlobalMessage, GlobalScheduler};

/// A random connected graph drawn from one of the paper's families.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (0u8..5, 10usize..120, any::<u64>()).prop_map(|(kind, n, seed)| match kind {
        0 => generators::path(n).unwrap(),
        1 => generators::cycle(n.max(3)).unwrap(),
        2 => {
            let side = ((n as f64).sqrt().ceil() as usize).max(2);
            generators::grid(&[side, side]).unwrap()
        }
        3 => generators::tree_with_n(2, n).unwrap(),
        _ => generators::erdos_renyi(n, (8.0 / n as f64).min(1.0), seed).unwrap(),
    })
}

/// `arbitrary_graph()`, or in one case of four the node-disjoint union of two
/// of them, with whether the graph is connected.
fn maybe_split_graph() -> impl Strategy<Value = (Graph, bool)> {
    (arbitrary_graph(), arbitrary_graph(), 0u8..4).prop_map(|(a, b, arm)| {
        if arm > 0 {
            return (a, true);
        }
        let mut union = GraphBuilder::new(a.n() + b.n());
        let shift = a.n() as u32;
        for &(u, v, w) in a.edges() {
            union.add_edge(u, v, w).unwrap();
        }
        for &(u, v, w) in b.edges() {
            union.add_edge(u + shift, v + shift, w).unwrap();
        }
        (union.build_unchecked_connectivity(), false)
    })
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lemma 3.6: `sqrt(Dk/3n) < NQ_k <= min(D, sqrt(k))`.  The lower bound's
    /// derivation uses Observation 3.2, which requires `NQ_k < D`; when the
    /// workload is so large that `NQ_k` saturates at the diameter only the
    /// upper bound is claimed.
    #[test]
    fn nq_respects_lemma_3_6(graph in arbitrary_graph(), k in 1u64..5000) {
        let oracle = NqOracle::new(&graph);
        let (lower, nq, upper) = lemma_3_6_bounds(&oracle, k);
        if nq < oracle.diameter() {
            prop_assert!((nq as f64) > lower, "lower bound violated: {lower} vs {nq}");
        }
        prop_assert!((nq as f64) <= upper + 1e-9, "upper bound violated: {nq} vs {upper}");
    }

    /// Lemma 3.7: `NQ_{alpha*k} <= 6*sqrt(alpha)*NQ_k`.
    #[test]
    fn nq_growth_respects_lemma_3_7(graph in arbitrary_graph(), k in 1u64..500, alpha in 1u64..20) {
        let oracle = NqOracle::new(&graph);
        let lhs = oracle.nq(alpha * k) as f64;
        let rhs = 6.0 * (alpha as f64).sqrt() * oracle.nq(k) as f64;
        prop_assert!(lhs <= rhs, "NQ_ak={lhs} > 6*sqrt(a)*NQ_k={rhs}");
    }

    /// NQ_k is monotone non-decreasing in the workload k.
    #[test]
    fn nq_monotone_in_k(graph in arbitrary_graph(), k in 1u64..2000) {
        let oracle = NqOracle::new(&graph);
        prop_assert!(oracle.nq(k) <= oracle.nq(k * 2));
    }

    /// The greedy ruling set satisfies both Definition 3.4 properties.
    #[test]
    fn ruling_set_properties(graph in arbitrary_graph(), alpha in 1u64..8) {
        let rulers = ruling_set(&graph, alpha);
        prop_assert!(!rulers.is_empty());
        // Domination.
        let mut ws = DijkstraWorkspace::new();
        ws.run_bfs_multi(&graph, &rulers, u64::MAX);
        prop_assert!(ws.dist().iter().all(|&d| d <= alpha.saturating_sub(1)));
        // Spacing (checked from a sample of rulers to keep the test fast).
        for &a in rulers.iter().take(5) {
            ws.run_bfs(&graph, a);
            for &b in rulers.iter().filter(|&&b| b != a).take(10) {
                prop_assert!(ws.dist()[b as usize] >= alpha);
            }
        }
    }

    /// The Lemma 3.5 clustering is always a valid partition with the promised
    /// weak diameter, for any radius parameter.
    #[test]
    fn clustering_is_always_valid(graph in arbitrary_graph(), radius in 1u64..12, k in 1u64..600) {
        let arc = Arc::new(graph);
        let mut net = HybridNetwork::hybrid(Arc::clone(&arc));
        let clustering = cluster_with_radius(&mut net, radius, k);
        prop_assert!(clustering.validate(&arc).is_ok());
    }

    /// The global scheduler never exceeds the per-round receive cap, delivers
    /// everything, and lands within twice the load lower bound (the greedy
    /// full-budget scan guarantees `≤ 2·LB + 1`; see `scheduler.rs` docs).
    #[test]
    fn scheduler_respects_capacity(
        n in 2usize..40,
        gamma in 1usize..8,
        msgs in prop::collection::vec((any::<u16>(), any::<u16>()), 0..300),
    ) {
        let params = ModelParams::hybrid_with_global_capacity(n, gamma);
        let messages: Vec<GlobalMessage> = msgs
            .iter()
            .map(|&(a, b)| GlobalMessage::new(a as u32 % n as u32, b as u32 % n as u32))
            .collect();
        let report = GlobalScheduler::deliver(&params, &messages);
        prop_assert_eq!(report.messages, messages.len() as u64);
        prop_assert!(report.max_received_in_a_round <= gamma as u64);
        let bound = GlobalScheduler::lower_bound_rounds(&params, &messages);
        prop_assert!(report.rounds >= bound);
        prop_assert!(report.rounds <= 2 * bound + 2, "rounds {} vs bound {}", report.rounds, bound);
    }

    /// Lemma 4.1 transfers through `deliver_round_robin`, which the
    /// scheduler takes as counted runs, are the batch of their unit-order
    /// message lists, report for report, on a failure-free network.
    /// Carrier sizes 1..=40 are equal, nested or coprime, `units` runs over
    /// `0..=3·lcm+1`, and transfers share carriers.  A pool is shuffled, and
    /// one in three lists a node twice: the counted-run set-up may rely on
    /// neither sorted nor distinct carriers.
    #[test]
    fn round_robin_transfers_match_their_message_lists(
        seed in any::<u64>(),
        gamma in 1usize..6,
        len in 1usize..6,
    ) {
        use hybrid::core::prob::sample_distinct;
        use hybrid::sim::RoundRobin;
        use rand::seq::SliceRandom;
        use rand::Rng;
        let n = 96;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = rng.gen_range(1..=40usize);
        let b = match rng.gen_range(0..3u8) {
            0 => a,
            1 if a <= 20 => a * rng.gen_range(1..=40 / a),
            1 => (1..a).rev().find(|d| a % d == 0).unwrap_or(1),
            _ => {
                let start = rng.gen_range(1..=40usize);
                (start..=40).chain(1..start).find(|&b| b != a && gcd(a, b) == 1).unwrap_or(1)
            }
        };
        let c = rng.gen_range(1..=40usize);
        let pool: Vec<Vec<u32>> = [a, b, c]
            .iter()
            .map(|&size| {
                let mut carriers = sample_distinct(n, size, &mut rng);
                carriers.shuffle(&mut rng);
                if size > 1 && rng.gen_range(0..3u8) == 0 {
                    let twice = carriers[rng.gen_range(0..size)];
                    carriers[rng.gen_range(0..size)] = twice;
                }
                carriers
            })
            .collect();
        let transfers: Vec<RoundRobin> = (0..len)
            .map(|_| {
                let senders = &pool[rng.gen_range(0..2)];
                let receivers = &pool[rng.gen_range(0..3)];
                let lcm = senders.len() / gcd(senders.len(), receivers.len()) * receivers.len();
                RoundRobin { senders, receivers, units: rng.gen_range(0..=3 * lcm + 1) }
            })
            .collect();
        let messages: Vec<GlobalMessage> = transfers
            .iter()
            .flat_map(|t| {
                (0..t.units).map(|i| {
                    GlobalMessage::new(t.senders[i % t.senders.len()], t.receivers[i % t.receivers.len()])
                })
            })
            .collect();

        let graph = Arc::new(generators::cycle(n).unwrap());
        let params = ModelParams::hybrid_with_global_capacity(n, gamma);
        let mut by_runs = HybridNetwork::new(Arc::clone(&graph), params);
        let mut by_list = HybridNetwork::new(graph, params);
        let runs = by_runs.deliver_round_robin("batch", &transfers);
        let list = by_list.deliver_global("batch", &messages);
        prop_assert!(runs == list, "{runs:?} vs {list:?}");
        prop_assert_eq!(runs.messages, messages.len() as u64);
    }

    /// Distance quantization keeps labels within [d, (1+eps)d].
    #[test]
    fn quantization_bounds(d in 0u64..1_000_000_000, eps in 0.01f64..2.0) {
        let q = quantize_distance(d, eps);
        prop_assert!(q >= d);
        prop_assert!(q as f64 <= (1.0 + eps) * d as f64 + 1e-6);
    }

    /// The greedy spanner respects its stretch bound on unweighted graphs.
    #[test]
    fn spanner_stretch_bound(graph in arbitrary_graph(), k in 2u64..4) {
        let spanner = greedy_spanner(None, &graph, k);
        let samples: Vec<u32> = (0..graph.n().min(5) as u32).collect();
        let stretch = measured_stretch(&graph, &spanner.graph, &samples);
        prop_assert!(stretch <= (2 * k - 1) as f64 + 1e-9);
    }

    /// Theorem 13 SSSP labels never underestimate and respect the stretch.
    #[test]
    fn sssp_labels_within_stretch(graph in arbitrary_graph(), eps in 0.05f64..1.0, src_sel in any::<u32>()) {
        let arc = Arc::new(graph);
        let source = src_sel % arc.n() as u32;
        let mut net = HybridNetwork::hybrid(Arc::clone(&arc));
        let out = sssp_approx(&mut net, source, eps);
        let exact = hybrid::graph::dijkstra::dijkstra(&arc, source).dist;
        prop_assert!(out.verify_stretch(&exact).is_ok());
    }

    /// The three single-source oracles are interchangeable: Dial bucket-queue
    /// Dijkstra ≡ binary-heap Dijkstra on every graph, and both ≡ BFS on
    /// unweighted graphs.  This is the contract that lets the workspace pick
    /// the cheapest oracle by weight range.
    #[test]
    fn bucket_queue_equals_heap_equals_bfs(graph in arbitrary_graph(), src_sel in any::<u32>()) {
        let source = src_sel % graph.n() as u32;
        let mut ws = DijkstraWorkspace::new();
        ws.run_heap(&graph, source, INFINITY);
        let heap = ws.dist().to_vec();
        ws.run_dial(&graph, source);
        prop_assert_eq!(heap.as_slice(), ws.dist());
        ws.run(&graph, source);
        prop_assert_eq!(heap.as_slice(), ws.dist());
        if !graph.is_weighted() {
            ws.run_bfs(&graph, source);
            prop_assert_eq!(heap.as_slice(), ws.dist());
        }
    }

    /// Same equivalence on weighted graphs (random weights in [1, 64] keep
    /// the Dial ring small; [1, 1000] forces the heap path of `DijkstraWorkspace::run`).
    #[test]
    fn bucket_queue_equals_heap_weighted(
        graph in arbitrary_graph(),
        max_w in 2u64..1000,
        src_sel in any::<u32>(),
        wseed in any::<u64>(),
    ) {
        let weighted = generators::with_random_weights(&graph, max_w, wseed).unwrap();
        let source = src_sel % weighted.n() as u32;
        let mut ws = DijkstraWorkspace::new();
        ws.run_heap(&weighted, source, INFINITY);
        let heap = ws.dist().to_vec();
        ws.run_dial(&weighted, source);
        prop_assert_eq!(heap.as_slice(), ws.dist());
        // The workspace produces identical distances under reuse.
        ws.run(&weighted, source);
        prop_assert_eq!(heap.as_slice(), ws.dist());
        ws.run_heap(&graph, source, INFINITY);
        let unweighted_heap = ws.dist().to_vec();
        ws.run(&graph, source);
        prop_assert_eq!(unweighted_heap.as_slice(), ws.dist());
    }

    /// Hop-limited distances with enough hops recover exact distances, and
    /// the workspace variant matches the allocating one on every prefix.
    #[test]
    fn hop_limited_consistent(graph in arbitrary_graph(), h in 0usize..20, src_sel in any::<u32>()) {
        let source = src_sel % graph.n() as u32;
        let row = hybrid::graph::dijkstra::hop_limited_distances(&graph, source, h);
        let mut ws = hybrid::graph::dijkstra::HopLimitedWorkspace::new();
        let mut row2 = Vec::new();
        hybrid::graph::dijkstra::hop_limited_distances_with(&mut ws, &graph, source, h, &mut row2);
        prop_assert_eq!(&row, &row2);
        let exact = hybrid::graph::dijkstra::dijkstra(&graph, source).dist;
        let full = hybrid::graph::dijkstra::hop_limited_distances(&graph, source, graph.n());
        prop_assert_eq!(&full, &exact);
        for v in 0..graph.n() {
            prop_assert!(row[v] >= exact[v]);
        }
    }

    /// Parallel exact APSP agrees with independent per-source runs.
    #[test]
    fn parallel_apsp_matches_single_source(graph in arbitrary_graph(), src_sel in any::<u32>()) {
        let all = DistanceRows::all_pairs(&graph);
        let v = src_sel % graph.n() as u32;
        let single = hybrid::graph::dijkstra::dijkstra(&graph, v);
        prop_assert_eq!(all.row(v as usize), &single.dist[..]);
    }

    /// Universal dissemination always delivers every token and, past the
    /// set-up each policy pays to learn its radius, is never slower than the
    /// sqrt(k) baseline: the one pipeline at a radius no larger.
    #[test]
    fn dissemination_complete_and_competitive(graph in arbitrary_graph(), k in 1u64..200) {
        let arc = Arc::new(graph);
        let oracle = NqOracle::new(&arc);
        let holders: Vec<u32> = (0..arc.n() as u32).collect();
        let tokens = hybrid::core::dissemination::place_tokens(&holders, k);
        let mut net = HybridNetwork::hybrid(Arc::clone(&arc));
        let uni = k_dissemination(&mut net, &oracle, &tokens);
        prop_assert_eq!(uni.tokens.len() as u64, k);
        let mut net = HybridNetwork::hybrid(Arc::clone(&arc));
        let base = baseline_sqrt_k_dissemination(&mut net, &oracle, &tokens);
        prop_assert!(uni.rounds - uni.setup_rounds <= base.rounds - base.setup_rounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Executor determinism (CONCURRENCY.md): the work-stealing pool stitches
    /// chunk results in index order, so a parallel fan-out — per-worker
    /// `map_init` workspaces, steals and adaptive splits included — returns
    /// bit-identical output for every pool width.
    #[test]
    fn parallel_fanouts_are_thread_count_invariant(graph in arbitrary_graph()) {
        let apsp_ref = DistanceRows::all_pairs(&graph);
        let ecc_ref = hybrid::graph::properties::eccentricities(&graph);
        for threads in [2usize, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let (apsp, ecc) = pool.install(|| {
                (
                    DistanceRows::all_pairs(&graph),
                    hybrid::graph::properties::eccentricities(&graph),
                )
            });
            prop_assert!(apsp == apsp_ref, "apsp diverged at {} threads", threads);
            prop_assert!(ecc == ecc_ref, "eccentricities diverged at {} threads", threads);
        }
    }

    /// Fault-plane determinism (ARCHITECTURE.md "Fault model"): a
    /// `FaultPlan`'s drop/duplicate/delay/crash decisions are pure hashes of
    /// its seeded key, so replaying the same seed — here through a faulty
    /// ack/retry dissemination on the per-node engine — must produce a
    /// byte-identical run report (rounds, message counts, injected-fault
    /// counters) at every rayon pool width.
    #[test]
    fn fault_plans_are_thread_count_invariant(
        graph in arbitrary_graph(),
        seed in any::<u64>(),
        drop_pct in 0u32..70,
    ) {
        use hybrid::sim::engine::{Executor, NodeProgram};
        use hybrid::sim::programs::AckFloodProgram;
        use hybrid::sim::{FaultPlan, FaultSpec};

        let n = graph.n();
        let spec = FaultSpec::drop_only(f64::from(drop_pct) / 100.0);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let config = hybrid::sim::EngineConfig::new(ModelParams::hybrid(n))
                    .with_fault_plan(FaultPlan::new(spec, seed, n));
                let mut exec = Executor::with_config(&graph, config, |v| {
                    AckFloodProgram::new(if v == 0 { vec![7] } else { vec![] }, 1, 2)
                });
                // Completion is not guaranteed for every sampled plan; only
                // thread-count invariance of the bounded window is asserted.
                format!("{:?}", exec.run_capped(20_000, |ps| ps.iter().all(|p| p.done())))
            })
        };
        let reference = run(1);
        for threads in [4usize, 8] {
            let got = run(threads);
            prop_assert!(got == reference, "fault trace diverged at {} threads", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The scenario-matrix generators build connected graphs of exactly the
    /// advertised size, deterministically per seed.  (Hub dominance is *not*
    /// asserted here: at small `n` with a high tail exponent the weight
    /// sequence is nearly flat and sampling noise can out-degree node 0 —
    /// the heavy-tail shape is pinned by the fixed-parameter unit tests in
    /// `hybrid-graph::generators` instead.)
    #[test]
    fn chung_lu_exact_size_connected_deterministic(
        n in 20usize..200,
        exponent in 2.1f64..3.5,
        avg in 3.0f64..8.0,
        seed in any::<u64>(),
    ) {
        let g = generators::chung_lu(n, exponent, avg, seed).unwrap();
        prop_assert_eq!(g.n(), n);
        prop_assert!(g.m() >= n - 1, "connected graphs have >= n-1 edges");
        let (_, c) = hybrid::graph::traversal::connected_components(&g);
        prop_assert_eq!(c, 1);
        let g2 = generators::chung_lu(n, exponent, avg, seed).unwrap();
        prop_assert_eq!(g.edges(), g2.edges());
    }

    /// Ring-of-cliques: exact node and edge counts from the parameters.
    #[test]
    fn ring_of_cliques_exact_shape(
        cliques in 3usize..12,
        size in 2usize..9,
        bridges in 1usize..4,
    ) {
        let bridges = bridges.min(size);
        let g = generators::ring_of_cliques(cliques, size, bridges).unwrap();
        prop_assert_eq!(g.n(), cliques * size);
        prop_assert_eq!(g.m(), cliques * (size * (size - 1) / 2) + cliques * bridges);
        let (_, c) = hybrid::graph::traversal::connected_components(&g);
        prop_assert_eq!(c, 1);
    }

    /// Barbell: exact node and edge counts, and the bridge path really is the
    /// cut — the diameter grows linearly with the path length.
    #[test]
    fn barbell_exact_shape(clique in 2usize..12, path in 0usize..20) {
        let g = generators::barbell(clique, path).unwrap();
        prop_assert_eq!(g.n(), 2 * clique + path);
        prop_assert_eq!(g.m(), clique * (clique - 1) + path + 1);
        let (_, c) = hybrid::graph::traversal::connected_components(&g);
        prop_assert_eq!(c, 1);
        let d = hybrid::graph::properties::diameter(&g);
        let expected = if clique > 1 { path as u64 + 3 } else { path as u64 + 1 };
        prop_assert_eq!(d, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scale tier (ARCHITECTURE.md "Scale tier"): on graphs small enough to
    /// afford the exact oracle (n ≤ 512), every sampled `NQ_k` witness agrees
    /// with the exact one within its recorded semantics — per-sampled-node
    /// values are *exact* on a connected graph and at most exact on a
    /// disconnected one, the estimate is a guaranteed lower bound on the
    /// population maximum, the recorded confidence is `1 − (1−q)^s`, and on a
    /// connected graph a full sample recovers the exact maximum.
    #[test]
    fn sampled_nq_agrees_with_exact_within_recorded_semantics(
        split in maybe_split_graph(),
        k_sel in 1u64..5000,
        sample in 1usize..64,
        seed in any::<u64>(),
    ) {
        use hybrid::core::nq::{NqSource, SampledNqOracle};
        let (graph, connected) = split;
        let n = graph.n() as u64;
        let k = k_sel.clamp(1, n);
        let exact = NqOracle::new(&graph);
        let sampled = SampledNqOracle::new(&graph, sample, n, 0.02, seed);
        let est = sampled.nq_estimate(k);
        prop_assert!(est.estimate <= exact.nq(k), "sample max exceeded the exact max");
        prop_assert!((est.confidence - (1.0 - 0.98f64.powi(est.sample_size as i32))).abs() < 1e-12);
        for v in sampled.sampled_nodes().collect::<Vec<_>>() {
            let (got, want) = (sampled.nq_of(v, k), exact.nq_of(v, k));
            prop_assert!(got <= want, "node {} exceeded the exact value", v);
            prop_assert!(!connected || got == want, "node {} diverged", v);
        }
        let full = SampledNqOracle::new(&graph, graph.n(), n, 0.02, seed);
        prop_assert!(NqSource::nq(&full, k) <= exact.nq(k));
        if connected {
            prop_assert_eq!(NqSource::nq(&full, k), exact.nq(k));
        }
    }

    /// Scale tier: exact `DistanceRows` over a sampled source set equal the
    /// corresponding rows of the full exact distance matrix, for any source
    /// choice and thread count — the representation changes, the results do
    /// not.
    #[test]
    fn distance_rows_match_matrix_rows(graph in arbitrary_graph(), picks in prop::collection::vec(any::<u32>(), 1..6)) {
        let n = graph.n() as u32;
        let mut sources: Vec<u32> = picks.iter().map(|&p| p % n).collect();
        sources.sort_unstable();
        sources.dedup();
        let rows = DistanceRows::compute(&graph, &sources);
        let full = DistanceRows::all_pairs(&graph);
        for (i, &s) in sources.iter().enumerate() {
            prop_assert_eq!(rows.row(i), full.row(s as usize));
        }
        prop_assert_eq!(rows.memory_bytes(), (sources.len() * graph.n() * 8 + sources.len() * 4) as u64);
    }

    /// Serving layer: on random weighted graphs, random query batches answer
    /// exactly what the per-query entry point answers, every answer respects
    /// the documented stretch against exact Dijkstra, and every witness path
    /// telescopes to its reported distance.
    #[test]
    fn oracle_batches_agree_with_single_queries(
        graph in arbitrary_graph(),
        max_w in 1u64..40,
        wseed in any::<u64>(),
        qseed in any::<u64>(),
    ) {
        use hybrid::core::oracle::{DistanceOracle, OracleConfig, ORACLE_STRETCH, QUERY_CHUNK};
        use rand::Rng;
        let weighted = generators::with_random_weights(&graph, max_w, wseed).unwrap();
        let n = weighted.n() as u32;
        let oracle = DistanceOracle::build(&weighted, OracleConfig::default()).unwrap();
        let mut qrng = ChaCha8Rng::seed_from_u64(qseed);
        // One full chunk and a partial one: the batches cross a seam.
        let queries: Vec<(u32, u32)> = (0..QUERY_CHUNK + 64)
            .map(|_| (qrng.gen_range(0..n), qrng.gen_range(0..n)))
            .collect();
        let batch = oracle.query_batch(&queries);
        let paths = oracle.query_paths_batch(&queries);
        let exact = DistanceRows::all_pairs(&weighted);
        for (i, &(u, v)) in queries.iter().enumerate() {
            prop_assert_eq!(batch[i], oracle.query(u, v));
            prop_assert_eq!(paths.dist(i), batch[i]);
            let e = exact[u as usize][v as usize];
            prop_assert!(batch[i] >= e, "({}, {}) underestimated", u, v);
            prop_assert!(batch[i] as f64 <= ORACLE_STRETCH * e as f64 + 1e-9);
            let path = paths.path(i);
            prop_assert_eq!(path.first(), Some(&u));
            prop_assert_eq!(path.last(), Some(&v));
            let mut total = 0u64;
            for pair in path.windows(2) {
                let arc = weighted.arcs(pair[0]).iter().find(|a| a.to == pair[1]);
                prop_assert!(arc.is_some(), "({}, {}) non-edge step", pair[0], pair[1]);
                total += arc.unwrap().weight;
            }
            prop_assert_eq!(total, batch[i]);
        }
    }
}

/// Chunk-emitted deterministic families: bit-identical to the legacy
/// sequential `add_edge` generators at every pool width.  "Legacy" is their
/// recorded output — FNV-1a digests of `(n, edges())` printed by the last
/// commit that shipped them (3a0f670), the same table as
/// `hybrid_graph::generators::tests`.  The first five sizes are past the
/// 16384-item emission chunk, so the 4- and 8-thread pools really emit
/// several chunks concurrently and stitch them; the last two fit one chunk
/// and run inline.
#[test]
fn streaming_deterministic_families_match_legacy_at_any_width() {
    for threads in [1usize, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let built = pool.install(|| {
            [
                ("path", generators::path(40_000), 0xcf6416656433b83b_u64),
                ("cycle", generators::cycle(40_000), 0xc3de3803f77ab431),
                (
                    "tree",
                    generators::tree_with_n(2, 40_000),
                    0x2bc212d5eabe3f35,
                ),
                ("grid", generators::grid(&[200, 200]), 0xf2a9039a135f1ab3),
                ("torus", generators::torus(&[130, 130]), 0x05d8be97ae73ec6b),
                (
                    "ring",
                    generators::ring_of_cliques(300, 8, 2),
                    0x7b00cc54cc0812f6,
                ),
                ("barbell", generators::barbell(300, 500), 0x34e3b82169168675),
            ]
        });
        for (family, graph, legacy) in built {
            assert_eq!(
                hybrid::graph::fnv::graph_digest(&graph.unwrap()),
                legacy,
                "{family} diverged at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Differential conformance (shootout registry): on a random
    /// `(family, seed, γ)` instance, every registered dissemination
    /// contender delivers the *identical* token set — and the whole registry
    /// is bit-identical across rayon pool widths `{1, 4}`.
    #[test]
    fn registered_dissemination_impls_agree_on_random_instances(
        graph in arbitrary_graph(),
        k in 1u64..150,
        gamma in 1usize..65,
        seed in any::<u64>(),
    ) {
        use hybrid::core::{dissemination_registry, nq::NqOracle};
        use rand::Rng;

        let arc = Arc::new(graph);
        let params = ModelParams::hybrid_with_global_capacity(arc.n(), gamma);
        let oracle = NqOracle::new(&arc);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut holders: Vec<u32> =
            (0..arc.n() as u32).filter(|_| rng.gen_bool(0.5)).collect();
        if holders.is_empty() {
            holders.push(rng.gen_range(0..arc.n()) as u32);
        }
        let tokens = hybrid::core::dissemination::place_tokens(&holders, k);

        let run_registry = || -> Vec<(&'static str, u64, Vec<u64>)> {
            dissemination_registry()
                .iter()
                .map(|algo| {
                    let mut net = HybridNetwork::new(Arc::clone(&arc), params);
                    let out = algo.run(&mut net, &oracle, &tokens);
                    (algo.name(), out.rounds, out.tokens)
                })
                .collect()
        };
        let reference = run_registry();
        for (name, _, tokens_out) in &reference {
            prop_assert!(tokens_out.len() as u64 == k, "{} lost tokens", name);
            prop_assert!(
                tokens_out == &reference[0].2,
                "{} and {} disagree on the delivered token set",
                name,
                reference[0].0
            );
        }
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let got = pool.install(run_registry);
            prop_assert!(got == reference, "registry diverged at {} threads", threads);
        }
    }

    /// Differential conformance (shootout registry): on a random weighted
    /// `(family, seed, γ)` instance, every registered shortest-paths
    /// contender stays within its stated stretch of the exact Dijkstra
    /// oracle, never underestimates, and reproduces bit-identically across
    /// rayon pool widths `{1, 4}`.
    #[test]
    fn registered_sssp_impls_meet_stretch_on_random_instances(
        graph in arbitrary_graph(),
        max_w in 2u64..64,
        gamma in 1usize..65,
        eps_sel in 1u32..8,
        seed in any::<u64>(),
    ) {
        use hybrid::core::sssp_registry;
        use rand::Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weighted = Arc::new(generators::with_random_weights(&graph, max_w, seed).unwrap());
        let n = weighted.n();
        let params = ModelParams::hybrid_with_global_capacity(n, gamma);
        let epsilon = f64::from(eps_sel) / 8.0;
        let k = rng.gen_range(1..=4usize.min(n));
        let mut sources: Vec<u32> = (0..k).map(|_| rng.gen_range(0..n) as u32).collect();
        sources.sort_unstable();
        sources.dedup();

        let run_registry = || -> Vec<(&'static str, u64, DistanceRows)> {
            sssp_registry()
                .iter()
                .map(|algo| {
                    let mut net = HybridNetwork::new(Arc::clone(&weighted), params);
                    let out = algo.run(&mut net, &sources, epsilon, seed);
                    (algo.name(), out.rounds, out.dist)
                })
                .collect()
        };
        let reference = run_registry();
        for (algo, (name, _, dist)) in sssp_registry().iter().zip(&reference) {
            let stated = algo.stated_stretch(epsilon);
            for (si, &s) in sources.iter().enumerate() {
                let exact = hybrid::graph::dijkstra::dijkstra(&weighted, s).dist;
                for v in 0..n {
                    prop_assert!(
                        dist[si][v] >= exact[v],
                        "{} underestimated d({}, {})",
                        name, s, v
                    );
                    prop_assert!(
                        dist[si][v] as f64 <= stated * exact[v] as f64 + 1e-6,
                        "{} broke its stated stretch {} at d({}, {}): {} vs exact {}",
                        name, stated, s, v, dist[si][v], exact[v]
                    );
                }
            }
        }
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let got = pool.install(run_registry);
            prop_assert!(got == reference, "registry diverged at {} threads", threads);
        }
    }

    /// Random families: the per-chunk streams are seed-deterministic and
    /// pool-width invariant — the edge list is a pure function of
    /// `(family, n, seed)`, never of the worker count.
    #[test]
    fn streaming_random_families_are_pool_width_invariant(
        n in 64usize..600,
        seed in any::<u64>(),
    ) {
        let build = || -> Vec<Graph> {
            vec![
                generators::erdos_renyi(n, (6.0 / n as f64).min(1.0), seed).unwrap(),
                generators::random_geometric(n, (8.0 / n as f64).sqrt().min(0.9), seed).unwrap(),
                generators::chung_lu(n, 2.5, 6.0, seed).unwrap(),
            ]
        };
        let reference = build();
        for threads in [1usize, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let got = pool.install(build);
            for (r, g) in reference.iter().zip(&got) {
                prop_assert!(r.edges() == g.edges(), "diverged at {} threads", threads);
            }
        }
    }
}
