//! Golden pins for the exact `NQ_k` queries.
//!
//! Every contender reads the paper's central parameter through
//! [`NqOracle`]: the radius it clusters at, the witness node of its lower
//! bound and the rounds [`compute_nq`] charges all follow from the ball
//! profiles.  Each row here pins `(nq(k), witness(k), compute_nq(k).rounds)`
//! and the two ends of [`lemma_3_6_bounds`] for one workload `k`, over the
//! five `dissemination` benchmark families at `n = 256` and one disconnected
//! graph, for `k ∈ {0, 1, n/8, n, 4n, n²}`.
//!
//! The constants were printed by this very file in a clone of commit 7886ce3
//! — one scalar BFS per node, every query a scan over all profiles — before
//! the profiles came from a 64-lane sweep and the queries from its
//! level-minimum table.  The `erdos-renyi` and `chung-lu` rows were
//! re-recorded by this file when those families moved to the one chunk-seeded
//! sampler per family (`generators::{erdos_renyi, chung_lu}` take a `u64`
//! seed): their instances changed, their queries did not.  Re-record only
//! with a stated reason.  On a mismatch the failure message is the full table
//! in source form.

use std::sync::Arc;

use hybrid_core::nq::{compute_nq, lemma_3_6_bounds};
use hybrid_core::NqOracle;
use hybrid_graph::{generators, Graph, GraphBuilder, NodeId};
use hybrid_sim::HybridNetwork;

const N: usize = 256;

/// `(k, nq, witness, compute_nq rounds, Lemma 3.6 lower, Lemma 3.6 upper)`.
type Row = (u64, u64, NodeId, u64, f64, f64);

#[derive(Debug, PartialEq)]
struct Golden {
    name: &'static str,
    diameter: u64,
    rows: Vec<Row>,
}

fn g(name: &'static str, diameter: u64, rows: &[Row]) -> Golden {
    Golden {
        name,
        diameter,
        rows: rows.to_vec(),
    }
}

fn source_lines(x: &Golden) -> String {
    let rows: Vec<String> = x
        .rows
        .iter()
        .map(|row| format!("            {row:?},\n"))
        .collect();
    format!(
        "        g({:?}, {}, &[\n{}        ]),",
        x.name,
        x.diameter,
        rows.concat()
    )
}

/// A path and a grid side by side, never joined: the path's nodes never see
/// more than 96 nodes, whatever the radius.
fn path_beside_grid() -> Graph {
    let path = generators::path(96).unwrap();
    let grid = generators::grid(&[10, 16]).unwrap();
    let mut builder = GraphBuilder::new(N);
    for &(u, v, w) in path.edges() {
        builder.add_edge(u, v, w).unwrap();
    }
    for &(u, v, w) in grid.edges() {
        builder.add_edge(u + 96, v + 96, w).unwrap();
    }
    builder.build_unchecked_connectivity()
}

/// The `dissemination` workload's families with its parameter mapping
/// (`GraphFamily::build` in `hybrid-bench`), at `n = 256`.
fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid-2d", generators::grid(&[16, 16]).unwrap()),
        (
            "erdos-renyi",
            generators::erdos_renyi(N, 6.0 / N as f64, 0x5EED_0001).unwrap(),
        ),
        (
            "chung-lu",
            generators::chung_lu(N, 2.5, 6.0, 0x5EED_0002).unwrap(),
        ),
        ("path", generators::path(N).unwrap()),
        (
            "ring-of-cliques",
            generators::ring_of_cliques(N / 8, 8, 2).unwrap(),
        ),
        ("path-beside-grid", path_beside_grid()),
    ]
}

fn all_cases() -> Vec<Golden> {
    let n = N as u64;
    graphs()
        .into_iter()
        .map(|(name, graph)| {
            let graph = Arc::new(graph);
            assert_eq!(graph.n(), N, "{name}");
            let oracle = NqOracle::new(&graph);
            let rows = [0, 1, n / 8, n, 4 * n, n * n]
                .into_iter()
                .map(|k| {
                    let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
                    let computed = compute_nq(&mut net, &oracle, k);
                    let (lower, nq, upper) = lemma_3_6_bounds(&oracle, k);
                    assert_eq!(nq, oracle.nq(k), "{name} k={k}");
                    assert_eq!(computed.nq, nq, "{name} k={k}");
                    (k, nq, oracle.witness(k), computed.rounds, lower, upper)
                })
                .collect();
            Golden {
                name,
                diameter: oracle.diameter(),
                rows,
            }
        })
        .collect()
}

#[test]
// The chung-lu bound that happens to be √2 is a recording like its neighbours.
#[allow(clippy::approx_constant)]
fn nq_queries_reproduce_the_recorded_values() {
    #[rustfmt::skip]
    let recorded: Vec<Golden> = vec![
        g("grid-2d", 30, &[
            (0, 1, 255, 9, 0.19764235376052372, 1.0),
            (1, 1, 255, 9, 0.19764235376052372, 1.0),
            (32, 4, 255, 36, 1.118033988749895, 6.0),
            (256, 8, 255, 72, 3.1622776601683795, 16.0),
            (1024, 12, 255, 108, 6.324555320336759, 30.0),
            (65536, 30, 255, 270, 50.59644256269407, 30.0),
        ]),
        g("erdos-renyi", 5, &[
            (0, 1, 255, 9, 0.08068715304598785, 1.0),
            (1, 1, 255, 9, 0.08068715304598785, 1.0),
            (32, 3, 121, 27, 0.45643546458763845, 5.0),
            (256, 4, 121, 36, 1.2909944487358056, 5.0),
            (1024, 5, 255, 45, 2.581988897471611, 5.0),
            (65536, 5, 255, 45, 20.65591117977289, 5.0),
        ]),
        g("chung-lu", 6, &[
            (0, 1, 255, 9, 0.08838834764831845, 1.0),
            (1, 1, 255, 9, 0.08838834764831845, 1.0),
            (32, 3, 245, 27, 0.5, 6.0),
            (256, 4, 244, 36, 1.4142135623730951, 6.0),
            (1024, 5, 255, 45, 2.8284271247461903, 6.0),
            (65536, 6, 255, 54, 22.627416997969522, 6.0),
        ]),
        g("path", 255, &[
            (0, 1, 255, 9, 0.5762215285808054, 1.0),
            (1, 1, 255, 9, 0.5762215285808054, 1.0),
            (32, 6, 255, 54, 3.2596012026013246, 6.0),
            (256, 16, 255, 144, 9.219544457292887, 16.0),
            (1024, 32, 255, 288, 18.439088914585774, 32.0),
            (65536, 255, 255, 2295, 147.5127113166862, 255.0),
        ]),
        g("ring-of-cliques", 18, &[
            (0, 1, 255, 9, 0.15309310892394862, 1.0),
            (1, 1, 255, 9, 0.15309310892394862, 1.0),
            (32, 3, 255, 27, 0.8660254037844386, 6.0),
            (256, 5, 255, 45, 2.449489742783178, 16.0),
            (1024, 9, 255, 81, 4.898979485566356, 18.0),
            (65536, 18, 255, 162, 39.191835884530846, 18.0),
        ]),
        g("path-beside-grid", 95, &[
            (0, 1, 255, 9, 0.3517071461694611, 1.0),
            (1, 1, 255, 9, 0.3517071461694611, 1.0),
            (32, 6, 95, 54, 1.9895560643855537, 6.0),
            (256, 16, 95, 144, 5.627314338711377, 16.0),
            (1024, 32, 95, 288, 11.254628677422755, 32.0),
            (65536, 95, 255, 855, 90.03702941938204, 95.0),
        ]),
    ];
    let actual = all_cases();
    assert!(
        actual == recorded,
        "NQ_k drifted from the recorded values; the table now reads:\n{}",
        actual
            .iter()
            .map(source_lines)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
