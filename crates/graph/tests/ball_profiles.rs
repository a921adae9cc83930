//! `BallOracle::new` against the scalar single-source reference.
//!
//! The oracle builds its profiles 64 sources at a time, one bit of a `u64`
//! word per source, in batches it plans by locality; [`ball_size_profile`]
//! is one plain BFS.  Every profile of every node must agree entry by entry —
//! on sizes around the lane width (a lone node, one lane short of a batch,
//! exactly one batch, one lane into the second), under every kind of radius
//! bound, on a disconnected graph, at any pool width and under a relabelling
//! of the nodes (new ids, new batches) — and the level-minimum table and the
//! truncation flag must say what the profiles say.  The kernel under the
//! profile store, `lane_bfs`, is checked on its own too: unsorted,
//! non-consecutive sources, each lane with its own stop radius.

use hybrid_graph::balls::BallOracle;
use hybrid_graph::dijkstra::DijkstraWorkspace;
use hybrid_graph::traversal::{lane_bfs, lanes_of, LaneWorkspace};
use hybrid_graph::{generators, Graph, GraphBuilder, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::ThreadPoolBuilder;

const SIZES: [usize; 5] = [1, 63, 64, 65, 200];
const RADII: [u64; 4] = [0, 1, 3, u64::MAX];

/// `(a, b)` with `a·b = n` and `a ≤ b` as close as possible.
fn near_square(n: usize) -> (usize, usize) {
    let a = (1..=n)
        .take_while(|a| a * a <= n)
        .filter(|&a| n.is_multiple_of(a))
        .last();
    let a = a.expect("1 divides n");
    (a, n / a)
}

/// Node-disjoint union: `b`'s ids follow `a`'s.
fn union(a: &Graph, b: &Graph) -> Graph {
    let mut builder = GraphBuilder::new(a.n() + b.n());
    let shift = a.n() as NodeId;
    for &(u, v, w) in a.edges() {
        builder.add_edge(u, v, w).unwrap();
    }
    for &(u, v, w) in b.edges() {
        builder.add_edge(u + shift, v + shift, w).unwrap();
    }
    builder.build_unchecked_connectivity()
}

/// Every family that exists at size `n` (a cycle needs three nodes, a ring
/// three cliques), plus the union of the last two.
fn graphs(n: usize) -> Vec<(String, Graph)> {
    let (a, b) = near_square(n);
    let p = (6.0 / n as f64).min(1.0);
    let mut out: Vec<(String, Graph)> = [
        ("path", generators::path(n)),
        ("cycle", generators::cycle(n)),
        ("grid", generators::grid(&[a, b])),
        ("tree", generators::tree_with_n(2, n)),
        ("ring-of-cliques", generators::ring_of_cliques(b, a, 1)),
        (
            "erdos-renyi",
            generators::erdos_renyi(n, p, 0xBA11 + n as u64),
        ),
    ]
    .into_iter()
    .filter_map(|(name, graph)| Some((format!("{name}({n})"), graph.ok()?)))
    .collect();
    let [.., (_, x), (_, y)] = out.as_slice() else {
        panic!("path, grid, tree and erdos-renyi exist at every n >= 1");
    };
    out.push((format!("union({n})"), union(x, y)));
    out
}

/// Sizes `|B_0(v)|, |B_1(v)|, …, |B_r(v)|` from one BFS bounded at
/// `max_radius`: the scalar reference `BallOracle` is held to.  The profile
/// stops once the ball stops growing, so it has `min(max_radius, ecc(v)) + 1`
/// entries.
fn ball_size_profile(graph: &Graph, v: NodeId, max_radius: u64) -> Vec<usize> {
    let mut ws = DijkstraWorkspace::new();
    ws.run_bfs_bounded(graph, v, max_radius);
    // The search settles layer by layer, so `|B_t(v)|` is one past the
    // position of the last node at depth `t`.
    let mut profile = Vec::new();
    for (settled, &u) in ws.reached().iter().enumerate() {
        let t = ws.dist()[u as usize] as usize;
        if t == profile.len() {
            profile.push(0);
        }
        profile[t] = settled + 1;
    }
    profile
}

fn reference(graph: &Graph, v: NodeId, radius: u64) -> Vec<u32> {
    ball_size_profile(graph, v, radius)
        .into_iter()
        .map(|size| size as u32)
        .collect()
}

#[test]
fn profiles_match_the_scalar_reference() {
    for n in SIZES {
        for (name, graph) in graphs(n) {
            let diameter = graph
                .nodes()
                .map(|v| reference(&graph, v, u64::MAX).len() as u64 - 1)
                .max()
                .unwrap();
            for radius in RADII {
                let oracle = BallOracle::new(&graph, radius);
                assert_eq!(oracle.n(), graph.n());
                for v in graph.nodes() {
                    let expected = reference(&graph, v, radius);
                    assert_eq!(oracle.profile(v), expected, "{name} r={radius} v={v}");
                    assert_eq!(oracle.eccentricity(v), expected.len() as u64 - 1);
                }
                assert_eq!(
                    oracle.max_eccentricity(),
                    (radius >= diameter).then_some(diameter),
                    "{name} r={radius}: D={diameter}"
                );
            }
        }
    }
}

#[test]
fn min_ball_is_the_per_level_minimum_of_the_profiles() {
    for n in SIZES {
        for (name, graph) in graphs(n) {
            for radius in RADII {
                let oracle = BallOracle::new(&graph, radius);
                // A profile that has stopped growing (its component is
                // exhausted, or the radius bound cut it) keeps its last size.
                let levels = graph.nodes().map(|v| oracle.profile(v).len()).max();
                let direct: Vec<u32> = (0..levels.unwrap() as u64)
                    .map(|t| graph.nodes().map(|v| oracle.ball_size(v, t)).min().unwrap() as u32)
                    .collect();
                assert_eq!(oracle.min_ball(), direct, "{name} r={radius}");
            }
        }
    }
}

#[test]
fn oracle_is_identical_at_pool_width_1_and_4() {
    for n in [65, 200] {
        for (name, graph) in graphs(n) {
            for radius in [3, u64::MAX] {
                let [narrow, wide] = [1, 4].map(|width| {
                    let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
                    pool.install(|| BallOracle::new(&graph, radius))
                });
                assert!(narrow == wide, "{name} r={radius}");
            }
        }
    }
}

/// `graph` with node `v` renamed `pi[v]`.
fn relabel(graph: &Graph, pi: &[NodeId]) -> Graph {
    let mut builder = GraphBuilder::new(graph.n());
    for &(u, v, w) in graph.edges() {
        builder.add_edge(pi[u as usize], pi[v as usize], w).unwrap();
    }
    builder.build_unchecked_connectivity()
}

#[test]
fn profiles_do_not_depend_on_node_ids() {
    let union = graphs(200).pop().expect("the union comes last").1;
    let shapes = [
        ("grid(24x24)", generators::grid(&[24, 24]).unwrap()),
        (
            "ring-of-cliques",
            generators::ring_of_cliques(12, 9, 1).unwrap(),
        ),
        ("union(200)", union),
    ];
    for (name, graph) in shapes {
        let mut pi: Vec<NodeId> = graph.nodes().collect();
        pi.shuffle(&mut ChaCha8Rng::seed_from_u64(0x5EED + graph.n() as u64));
        let renamed = relabel(&graph, &pi);
        for radius in [3, u64::MAX] {
            let [original, relabelled] = [&graph, &renamed].map(|g| BallOracle::new(g, radius));
            for v in graph.nodes() {
                assert_eq!(
                    relabelled.profile(pi[v as usize]),
                    original.profile(v),
                    "{name} r={radius} v={v}"
                );
            }
            assert_eq!(
                relabelled.min_ball(),
                original.min_ball(),
                "{name} r={radius}"
            );
            assert_eq!(
                relabelled.max_eccentricity(),
                original.max_eccentricity(),
                "{name} r={radius}"
            );
        }
    }
}

#[test]
fn path_4096_profiles_fit_in_52_mb() {
    // 4096 profiles of max(v, n − 1 − v) + 1 entries: ≈ 12.6 M sizes.  One
    // machine word per size (the layout before the `u32` store) is 100.8 MB.
    let graph = generators::path(4096).unwrap();
    let oracle = BallOracle::new(&graph, u64::MAX);
    let entries: usize = graph.nodes().map(|v| oracle.profile(v).len()).sum();
    let bytes = oracle.memory_bytes();
    assert!(bytes >= 4 * entries as u64, "{bytes} B for {entries} sizes");
    assert!(bytes <= 52_000_000, "{bytes} B");
}

/// Stop radius of lane `lane`: every fourth lane runs until its component is
/// exhausted, the others stop after 1 to 7 levels.
fn stop_radius(lane: usize) -> u64 {
    if lane.is_multiple_of(4) {
        u64::MAX
    } else {
        lane as u64 % 7 + 1
    }
}

#[test]
fn lane_bfs_matches_the_scalar_reference_per_lane() {
    for (name, graph) in graphs(200) {
        let n = graph.n();
        assert!(!n.is_multiple_of(7), "{name}");
        let mut ws = LaneWorkspace::new(n);
        // Lanes whose component is exhausted before their stop radius.
        let mut ran_out = 0;
        for width in [1, 63, 64] {
            // Distinct (7 is prime to n), unsorted, never consecutive.
            let sources: Vec<NodeId> = (0..width).rev().map(|i| (7 * i % n) as NodeId).collect();
            for max_depth in [3, u64::MAX] {
                let mut profiles = vec![vec![1u32]; width];
                let mut levels = 0;
                let cut = lane_bfs(&graph, &mut ws, &sources, max_depth, |t, grew, sizes| {
                    levels = t;
                    assert_eq!(sizes.len(), width);
                    for (lane, profile) in profiles.iter_mut().enumerate() {
                        if grew >> lane & 1 == 1 {
                            profile.push(sizes[lane]);
                        } else {
                            // A lane that did not grow keeps its last size.
                            assert_eq!(sizes[lane], *profile.last().unwrap(), "{name}");
                        }
                    }
                    lanes_of(grew)
                        .filter(|&lane| t < stop_radius(lane))
                        .fold(0, |keep, lane| keep | 1 << lane)
                });
                assert!(levels <= max_depth, "{name}");
                for (lane, &v) in sources.iter().enumerate() {
                    let radius = stop_radius(lane).min(max_depth);
                    let expected = reference(&graph, v, radius);
                    assert_eq!(
                        profiles[lane], expected,
                        "{name} w={width} d={max_depth} v={v}"
                    );
                    let eccentricity = reference(&graph, v, u64::MAX).len() as u64 - 1;
                    // Cut by `max_depth`, not by its own stop radius or its
                    // component's edge.
                    let was_cut = stop_radius(lane) > max_depth && eccentricity > max_depth;
                    assert_eq!(cut >> lane & 1 == 1, was_cut, "{name} w={width} v={v}");
                    if stop_radius(lane) != u64::MAX && eccentricity < stop_radius(lane) {
                        ran_out += 1;
                    }
                }
            }
        }
        if name.starts_with("union") {
            assert!(ran_out > 0, "{name}: no lane outlived its component");
        }
    }
}
