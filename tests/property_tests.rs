//! Property-based tests (proptest) for the core invariants of the
//! reproduction: the `NQ_k` bounds of Section 3, the clustering invariants of
//! Lemma 3.5, the global scheduler's capacity guarantees, spanner stretch and
//! SSSP label quality — all over randomly generated graphs and parameters.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybrid::core::cluster::{cluster_with_radius, ruling_set};
use hybrid::core::minplus::{self, Assignment, Coeff, RowMatrix};
use hybrid::core::nq::{lemma_3_6_bounds, NqOracle};
use hybrid::core::rows::DistanceRows;
use hybrid::core::spanner::{greedy_spanner, measured_stretch};
use hybrid::core::sssp::quantize_distance;
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

/// Naive reference for the global scheduler: per-sender `VecDeque` queues
/// (receiver-sorted, matching the scheduler's receiver-grouped delivery
/// order), greedy full-budget scan (skip saturated receivers, never abandon
/// the rest of the round's budget), deferred messages pushed back to the
/// queue front, and the same deterministic sender-order rotation.  Returns
/// the round count and the `(round, message)` delivery trace.
fn reference_schedule(
    params: &ModelParams,
    messages: &[GlobalMessage],
) -> (u64, Vec<(u64, GlobalMessage)>) {
    use std::collections::VecDeque;
    let n = params.n;
    let gamma = params.global_capacity_msgs as u64;
    let mut queues: Vec<VecDeque<u32>> = vec![VecDeque::new(); n];
    for m in messages {
        queues[m.from as usize].push_back(m.to);
    }
    for q in &mut queues {
        q.make_contiguous().sort_unstable();
    }
    let mut active: Vec<u32> = (0..n as u32)
        .filter(|&v| !queues[v as usize].is_empty())
        .collect();
    let mut remaining = messages.len() as u64;
    let mut rounds = 0u64;
    let mut trace = Vec::new();
    while remaining > 0 {
        rounds += 1;
        let mut recv_budget = vec![0u64; n];
        let mut next_active = Vec::new();
        for &sender in &active {
            let q = &mut queues[sender as usize];
            let mut sent = 0u64;
            let mut deferred = Vec::new();
            while sent < gamma {
                let Some(to) = q.pop_front() else { break };
                if recv_budget[to as usize] < gamma {
                    recv_budget[to as usize] += 1;
                    sent += 1;
                    remaining -= 1;
                    trace.push((rounds, GlobalMessage::new(sender, to)));
                } else {
                    deferred.push(to);
                }
            }
            for &to in deferred.iter().rev() {
                q.push_front(to);
            }
            if !q.is_empty() {
                next_active.push(sender);
            }
        }
        if !next_active.is_empty() {
            let shift = rounds as usize % next_active.len();
            next_active.rotate_left(shift);
        }
        active = next_active;
    }
    (rounds, trace)
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
        let ms = hybrid::graph::traversal::multi_source_bfs(&graph, &rulers);
        prop_assert!(ms.dist.iter().all(|&d| d <= alpha.saturating_sub(1)));
        // Spacing (checked from a sample of rulers to keep the test fast).
        for &a in rulers.iter().take(5) {
            let d = hybrid::graph::traversal::bfs(&graph, a);
            for &b in rulers.iter().filter(|&&b| b != a).take(10) {
                prop_assert!(d.dist[b as usize] >= alpha);
            }
        }
    }

    /// The Lemma 3.5 clustering is always a valid partition with the promised
    /// weak diameter, for any radius parameter.
    #[test]
    fn clustering_is_always_valid(graph in arbitrary_graph(), radius in 1u64..12, k in 1u64..600) {
        let arc = Arc::new(graph);
        let mut net = HybridNetwork::hybrid0(Arc::clone(&arc));
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

    /// The flat-arena scheduler is *exactly* equivalent to a naive per-sender
    /// `VecDeque` reference on skewed random multisets (random hot receivers /
    /// hot senders): same round count, same per-round deliveries in the same
    /// order, and the delivered multiset equals the input multiset.  Also
    /// exercises workspace reuse — one scheduler instance serves every case.
    #[test]
    fn scheduler_matches_naive_reference_exactly(
        n in 2usize..48,
        gamma in 1usize..8,
        seed in any::<u64>(),
        len in 0usize..400,
        skew in 0u8..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let hot = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
        let messages: Vec<GlobalMessage> = (0..len)
            .map(|_| {
                let from = if skew == 1 && rng.gen_range(0..3u8) == 0 {
                    hot.0
                } else {
                    rng.gen_range(0..n) as u32
                };
                let to = if skew == 2 && rng.gen_range(0..2u8) == 0 {
                    hot.1
                } else {
                    rng.gen_range(0..n) as u32
                };
                GlobalMessage::new(from, to)
            })
            .collect();
        let params = ModelParams::hybrid_with_global_capacity(n, gamma);

        let mut sched = GlobalScheduler::new();
        let mut trace = Vec::new();
        let report = sched.deliver_with_trace(&params, &messages, &mut trace);
        let (ref_rounds, ref_trace) = reference_schedule(&params, &messages);

        prop_assert_eq!(report.rounds, ref_rounds);
        prop_assert_eq!(&trace, &ref_trace);
        // Delivered multiset == input multiset (nothing lost or duplicated).
        let mut delivered: Vec<GlobalMessage> = trace.iter().map(|&(_, m)| m).collect();
        delivered.sort_unstable();
        let mut input = messages.clone();
        input.sort_unstable();
        prop_assert_eq!(delivered, input);
        // Per-round receive counts never exceed the cap.
        let mut per_round = std::collections::HashMap::new();
        for &(round, m) in &trace {
            *per_round.entry((round, m.to)).or_insert(0u64) += 1;
        }
        prop_assert!(per_round.values().all(|&c| c <= gamma as u64));
        // Reusing the (now warm) workspace reproduces the identical schedule.
        let mut trace2 = Vec::new();
        let report2 = sched.deliver_with_trace(&params, &messages, &mut trace2);
        prop_assert_eq!(report.rounds, report2.rounds);
        prop_assert_eq!(trace, trace2);
    }

    /// Lemma 4.1 transfers through `deliver_round_robin` are the batch of
    /// their unit-order message lists, report for report (`dropped`,
    /// `duplicated` and `delayed` included): fault-free, where the scheduler
    /// takes them as counted runs, and under a lossy `FaultPlan`, whose fates
    /// are keyed by message index.  Carrier sizes 1..=40 are equal, nested
    /// or coprime, `units` runs over `0..=3·lcm+1`, and transfers share
    /// carriers.  A pool is shuffled, and one in three lists a node twice:
    /// the counted-run set-up may rely on neither sorted nor distinct
    /// carriers.
    #[test]
    fn round_robin_transfers_match_their_message_lists(
        seed in any::<u64>(),
        gamma in 1usize..6,
        len in 1usize..6,
        round_base in 0u64..50,
    ) {
        use hybrid::core::prob::sample_distinct;
        use hybrid::sim::{EngineConfig, FaultPlan, FaultSpec, RoundRobin};
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
        let lossy = FaultSpec {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            delay_prob: 0.1,
            max_delay_rounds: 3,
            ..FaultSpec::none()
        };
        let clean = EngineConfig::new(ModelParams::hybrid_with_global_capacity(n, gamma));
        let faulty = clean.clone().with_fault_plan(FaultPlan::new(lossy, seed, n));
        for config in [clean, faulty] {
            let mut by_runs = HybridNetwork::with_config(Arc::clone(&graph), &config);
            let mut by_list = HybridNetwork::with_config(Arc::clone(&graph), &config);
            by_runs.charge_rounds("offset", round_base);
            by_list.charge_rounds("offset", round_base);
            let runs = by_runs.deliver_round_robin("batch", &transfers);
            let list = by_list.deliver_global("batch", &messages);
            prop_assert!(runs == list, "faults {}: {runs:?} vs {list:?}", by_runs.has_faults());
            if !by_runs.has_faults() {
                prop_assert_eq!(runs.messages, messages.len() as u64);
            }
        }
    }

    /// The blocked (min,+) kernel is *exactly* equivalent to the naive triple
    /// loop — including INFINITY saturation — on h-hop row matrices from
    /// random graphs with random anchors, coefficient rows (dense and unit),
    /// offsets and initial rows.  This is the contract that lets the k-SSP /
    /// (k,ℓ)-SP / Theorem 8 data levels share `hybrid::core::minplus`.
    #[test]
    fn minplus_kernel_matches_naive_reference(
        graph in arbitrary_graph(),
        h in 0usize..24,
        seed in any::<u64>(),
        groups in 1usize..6,
        outputs in 1usize..12,
    ) {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = graph.n();
        // Skeleton-style rows: h-hop sweeps from random anchors (h may be far
        // below the diameter, so rows carry genuine INFINITY runs).
        let s = rng.gen_range(1..=8usize.min(n));
        let rows: Vec<Vec<u64>> = (0..s)
            .map(|_| {
                let anchor = rng.gen_range(0..n) as u32;
                hybrid::graph::dijkstra::hop_limited_distances(&graph, anchor, h)
            })
            .collect();
        let matrix = RowMatrix::new(rows);
        // Random coefficient rows: dense rows mixing finite entries, huge
        // near-saturating values and INFINITY; occasionally a unit row.
        let coeffs: Vec<Coeff> = (0..groups)
            .map(|_| {
                if rng.gen_range(0..4u8) == 0 {
                    Coeff::Unit(rng.gen_range(0..s))
                } else {
                    Coeff::Dense(
                        (0..s)
                            .map(|_| match rng.gen_range(0..5u8) {
                                0 => INFINITY,
                                1 => u64::MAX - rng.gen_range(0..3u64),
                                _ => rng.gen_range(0..200u64),
                            })
                            .collect(),
                    )
                }
            })
            .collect();
        let assign: Vec<Assignment> = (0..outputs)
            .map(|_| match rng.gen_range(0..5u8) {
                0 => None,
                1 => Some((rng.gen_range(0..groups), INFINITY)),
                _ => Some((rng.gen_range(0..groups), rng.gen_range(0..100u64))),
            })
            .collect();
        let init: Vec<Vec<u64>> = (0..outputs)
            .map(|_| {
                (0..n)
                    .map(|_| match rng.gen_range(0..3u8) {
                        0 => INFINITY,
                        _ => rng.gen_range(0..400u64),
                    })
                    .collect()
            })
            .collect();
        let init_refs: Vec<&[u64]> = init.iter().map(Vec::as_slice).collect();
        let blocked = minplus::compose(&matrix, &coeffs, &assign, &init_refs);
        let naive = minplus::compose_naive(&matrix, &coeffs, &assign, &init_refs);
        prop_assert_eq!(&blocked, &naive);
        // Determinism: a second blocked run reproduces the labels bit for bit.
        prop_assert_eq!(blocked, minplus::compose(&matrix, &coeffs, &assign, &init_refs));
    }

    /// The register-tiled quad (min,+) fold is **bit for bit** four single
    /// folds on random saturating inputs — INFINITY runs, `u64::MAX − k`
    /// near-saturation values and ordinary finite weights in one accumulator.
    #[test]
    fn minplus_quad_fold_equals_four_single_folds(
        acc0 in prop::collection::vec(
            (0u8..6, 0u64..500).prop_map(|(sel, f)| match sel {
                0 => INFINITY,
                1 => u64::MAX - 1,
                2 => u64::MAX - 1 - (f % 100),
                _ => f,
            }),
            1..300,
        ),
        rows_seed in any::<u64>(),
        base in (0u8..6, 0u64..500).prop_map(|(sel, f)| match sel {
            0 => INFINITY,
            1 => u64::MAX - 1,
            2 => 0,
            _ => f,
        }),
    ) {
        use hybrid::core::minplus::kernel;
        use rand::Rng;
        let n = acc0.len();
        let mut rng = ChaCha8Rng::seed_from_u64(rows_seed);
        let mut row = || -> Vec<u64> {
            (0..n)
                .map(|_| match rng.gen_range(0..6u8) {
                    0 => INFINITY,
                    1 => u64::MAX - rng.gen_range(0..3u64),
                    _ => rng.gen_range(0..500u64),
                })
                .collect()
        };
        let (r0, r1, r2, r3) = (row(), row(), row(), row());
        let bases = [base, 0, u64::MAX - 1, base.wrapping_add(1)];
        let mut quad = acc0.clone();
        kernel::fold_min_sat_quad(&mut quad, [&r0, &r1, &r2, &r3], bases);
        let mut fold4 = acc0.clone();
        for (r, b) in [(&r0, bases[0]), (&r1, bases[1]), (&r2, bases[2]), (&r3, bases[3])] {
            kernel::fold_min_sat(&mut fold4, r, b);
        }
        prop_assert_eq!(quad, fold4);
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
        let mut net = HybridNetwork::hybrid0(Arc::clone(&arc));
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
        let heap = hybrid::graph::dijkstra::dijkstra_heap(&graph, source);
        let dial = hybrid::graph::dijkstra::dijkstra_dial(&graph, source);
        prop_assert_eq!(&heap.dist, &dial.dist);
        let auto = hybrid::graph::dijkstra::sssp_auto(&graph, source);
        prop_assert_eq!(&heap.dist, &auto);
        if !graph.is_weighted() {
            let bfs = hybrid::graph::traversal::bfs(&graph, source);
            prop_assert_eq!(&heap.dist, &bfs.dist);
        }
    }

    /// Same equivalence on weighted graphs (random weights in [1, 64] keep
    /// the Dial ring small; [1, 1000] forces the heap path of `sssp_auto`).
    #[test]
    fn bucket_queue_equals_heap_weighted(
        graph in arbitrary_graph(),
        max_w in 2u64..1000,
        src_sel in any::<u32>(),
        wseed in any::<u64>(),
    ) {
        let weighted = generators::with_random_weights(&graph, max_w, wseed).unwrap();
        let source = src_sel % weighted.n() as u32;
        let heap = hybrid::graph::dijkstra::dijkstra_heap(&weighted, source);
        let dial = hybrid::graph::dijkstra::dijkstra_dial(&weighted, source);
        prop_assert_eq!(&heap.dist, &dial.dist);
        prop_assert_eq!(&heap.dist, &hybrid::graph::dijkstra::sssp_auto(&weighted, source));
        // The workspace produces identical distances under reuse.
        let mut ws = hybrid::graph::dijkstra::DijkstraWorkspace::new();
        ws.run(&weighted, source);
        prop_assert_eq!(heap.dist.as_slice(), ws.dist());
        ws.run(&graph, source);
        let unweighted_bfs = hybrid::graph::traversal::bfs(&graph, source);
        prop_assert_eq!(unweighted_bfs.dist.as_slice(), ws.dist());
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
        let single = hybrid::graph::dijkstra::dijkstra_heap(&graph, v);
        prop_assert_eq!(all.row(v as usize), &single.dist[..]);
    }

    /// Universal dissemination always delivers every token and is never
    /// slower than the sqrt(k) baseline.
    #[test]
    fn dissemination_complete_and_competitive(graph in arbitrary_graph(), k in 1u64..200) {
        let arc = Arc::new(graph);
        let oracle = NqOracle::new(&arc);
        let holders: Vec<u32> = (0..arc.n() as u32).collect();
        let tokens = hybrid::core::dissemination::place_tokens(&holders, k);
        let mut net = HybridNetwork::hybrid0(Arc::clone(&arc));
        let uni = k_dissemination(&mut net, &oracle, &tokens);
        prop_assert_eq!(uni.tokens.len() as u64, k);
        let mut net = HybridNetwork::hybrid0(Arc::clone(&arc));
        let base = baseline_sqrt_k_dissemination(&mut net, &oracle, &tokens);
        prop_assert!(uni.rounds <= base.rounds);
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
    /// values are *exact*, the estimate is a guaranteed lower bound on the
    /// population maximum, the recorded confidence is `1 − (1−q)^s`, and a
    /// full sample recovers the exact maximum.
    #[test]
    fn sampled_nq_agrees_with_exact_within_recorded_semantics(
        graph in arbitrary_graph(),
        k_sel in 1u64..5000,
        sample in 1usize..64,
        seed in any::<u64>(),
    ) {
        use hybrid::core::nq::{NqSource, SampledNqOracle};
        let n = graph.n() as u64;
        let k = k_sel.clamp(1, n);
        let exact = NqOracle::new(&graph);
        let sampled = SampledNqOracle::new(&graph, sample, n, 0.02, seed);
        let est = sampled.nq_estimate(k);
        prop_assert!(est.estimate <= exact.nq(k), "sample max exceeded the exact max");
        prop_assert!((est.confidence - (1.0 - 0.98f64.powi(est.sample_size as i32))).abs() < 1e-12);
        for v in sampled.sampled_nodes().collect::<Vec<_>>() {
            prop_assert!(sampled.nq_of(v, k) == exact.nq_of(v, k), "node {} diverged", v);
        }
        let full = SampledNqOracle::new(&graph, graph.n(), n, 0.02, seed);
        prop_assert_eq!(NqSource::nq(&full, k), exact.nq(k));
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
        use hybrid::core::oracle::{DistanceOracle, OracleConfig, ORACLE_STRETCH};
        use rand::Rng;
        let weighted = generators::with_random_weights(&graph, max_w, wseed).unwrap();
        let n = weighted.n() as u32;
        let oracle = DistanceOracle::build(
            &weighted,
            OracleConfig { query_chunk: 13, ..OracleConfig::default() },
        ).unwrap();
        let mut qrng = ChaCha8Rng::seed_from_u64(qseed);
        let queries: Vec<(u32, u32)> = (0..64)
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
    /// `(family, seed, λ, γ)` instance, every registered dissemination
    /// contender delivers the *identical* token set — and the whole registry
    /// is bit-identical across rayon pool widths `{1, 4}`.
    #[test]
    fn registered_dissemination_impls_agree_on_random_instances(
        graph in arbitrary_graph(),
        k in 1u64..150,
        gamma in 1usize..65,
        lambda_sel in 0u64..5,
        seed in any::<u64>(),
    ) {
        use hybrid::core::{dissemination_registry, nq::NqOracle};
        use hybrid::sim::LocalBandwidth;
        use rand::Rng;

        let arc = Arc::new(graph);
        let params = ModelParams {
            local: match lambda_sel {
                0 => LocalBandwidth::Unlimited,
                s => LocalBandwidth::BoundedBits(64 * s),
            },
            global_capacity_msgs: gamma,
            ..ModelParams::hybrid(arc.n())
        };
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
    /// `(family, seed, λ, γ)` instance, every registered shortest-paths
    /// contender stays within its stated stretch of the exact Dijkstra
    /// oracle, never underestimates, and reproduces bit-identically across
    /// rayon pool widths `{1, 4}`.
    #[test]
    fn registered_sssp_impls_meet_stretch_on_random_instances(
        graph in arbitrary_graph(),
        max_w in 2u64..64,
        gamma in 1usize..65,
        lambda_sel in 0u64..5,
        eps_sel in 1u32..8,
        seed in any::<u64>(),
    ) {
        use hybrid::core::sssp_registry;
        use hybrid::sim::LocalBandwidth;
        use rand::Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weighted = Arc::new(generators::with_random_weights(&graph, max_w, seed).unwrap());
        let n = weighted.n();
        let params = ModelParams {
            local: match lambda_sel {
                0 => LocalBandwidth::Unlimited,
                s => LocalBandwidth::BoundedBits(64 * s),
            },
            global_capacity_msgs: gamma,
            ..ModelParams::hybrid(n)
        };
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
