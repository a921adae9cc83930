//! `serve` — the only request-serving path.
//!
//! Two built `DistanceOracle`s answer batches of uniform point-to-point
//! queries: read-only distance lookups beside arena-allocating path splices.
//! A gain for one that taxes the other shows as opposite moves of the two
//! rate metrics.

use hybrid_bench::sweep::cell_seed;
use hybrid_bench::GraphFamily;
use hybrid_core::oracle::{DistanceOracle, OracleConfig, ORACLE_STRETCH};
use hybrid_graph::dijkstra::DijkstraWorkspace;
use hybrid_graph::{Graph, NodeId, Weight, INFINITY};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{outside_pass, rate, Context, Instance};
use crate::report::{Metric, PassOutcome};
use crate::spans::{Recorder, Span};
use crate::{alloc, stats};

/// Target node count of both graphs.
pub const N: usize = 16_384;
/// Queries per batch call.
const BATCH: usize = 2048;
/// `query_batch` calls per oracle per pass.
const DIST_BATCHES: usize = 128;
/// `query_paths_batch` calls per oracle per pass.
const PATH_BATCHES: usize = 32;
/// Final check: sampled sources × targets per oracle (32768 queries; the
/// maximum of fewer samples moves too much from seed to seed).
const CHECK_SOURCES: usize = 64;
const CHECK_TARGETS: usize = 512;

const FAMILIES: [GraphFamily; 2] = [GraphFamily::Grid2D, GraphFamily::ErdosRenyi];

type Query = (NodeId, NodeId);

struct Served {
    family: GraphFamily,
    weighted: Graph,
    oracle: DistanceOracle,
    dist_batches: Vec<Vec<Query>>,
    path_batches: Vec<Vec<Query>>,
    check_seed: u64,
}

struct Serve {
    served: Vec<Served>,
}

fn uniform_batches(rng: &mut ChaCha8Rng, n: usize, batches: usize) -> Vec<Vec<Query>> {
    (0..batches)
        .map(|_| {
            (0..BATCH)
                .map(|_| (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId)))
                .collect()
        })
        .collect()
}

/// Set-up: streamed weighted graph + `DistanceOracle::build` + the query
/// stream, per family.
pub fn build(seed: u64, _ctx: &Context, rec: &mut Recorder) -> Box<dyn Instance> {
    let served = FAMILIES
        .iter()
        .enumerate()
        .map(|(fi, &family)| {
            let name = family.name();
            let graph_seed = cell_seed(seed, fi, N, 0);
            let span = rec.begin("streaming", "build", name);
            let graph = family.build_streamed(N, graph_seed);
            let weighted = family.reweight_streamed(&graph, graph_seed);
            rec.end(span, (graph.m() + weighted.m()) as u64);
            drop(graph);

            let span = rec.begin("oracle", "build", name);
            let oracle = DistanceOracle::build(
                &weighted,
                OracleConfig {
                    seed: cell_seed(seed, fi, N, 1),
                    ..OracleConfig::default()
                },
            )
            .expect("oracle over a non-empty graph");
            rec.end(span, weighted.n() as u64);

            let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(seed, fi, N, 2));
            let n = weighted.n();
            Served {
                family,
                dist_batches: uniform_batches(&mut rng, n, DIST_BATCHES),
                path_batches: uniform_batches(&mut rng, n, PATH_BATCHES),
                weighted,
                oracle,
                check_seed: cell_seed(seed, fi, N, 3),
            }
        })
        .collect();
    Box::new(Serve { served })
}

/// Weight of the walk `path` in `graph`, or `None` if a step is not an edge.
fn walk_weight(graph: &Graph, path: &[NodeId]) -> Option<Weight> {
    path.windows(2).try_fold(0, |sum: Weight, step| {
        let arc = graph.arcs(step[0]).iter().find(|a| a.to == step[1])?;
        Some(sum + arc.weight)
    })
}

/// Whether answer `a` for a pair at exact distance `d` honours the oracle's
/// contract `d ≤ a ≤ ORACLE_STRETCH · d`.
pub fn answer_within_contract(d: Weight, a: Weight) -> bool {
    d != INFINITY && a >= d && a as f64 <= ORACLE_STRETCH * d as f64
}

/// Verifies sampled answers of one oracle against exact Dijkstra; returns
/// `(worst stretch, answers equal to the exact distance, answers checked)`.
fn verify_sample(served: &Served, check: &mut crate::report::Check) -> (f64, u64, u64) {
    let n = served.weighted.n();
    let mut rng = ChaCha8Rng::seed_from_u64(served.check_seed);
    let mut ws = DijkstraWorkspace::new();
    let (mut worst, mut exact, mut total) = (1f64, 0u64, 0u64);
    for _ in 0..CHECK_SOURCES {
        let u = rng.gen_range(0..n as NodeId);
        let queries: Vec<Query> = (0..CHECK_TARGETS)
            .map(|_| (u, rng.gen_range(0..n as NodeId)))
            .collect();
        ws.run(&served.weighted, u);
        let answers = served.oracle.query_batch(&queries);
        let paths = served.oracle.query_paths_batch(&queries);
        for (i, &(_, v)) in queries.iter().enumerate() {
            let (d, a) = (ws.dist()[v as usize], answers[i]);
            let name = served.family.name();
            check.expect(answer_within_contract(d, a), || {
                format!("{name}: answer {a} for ({u},{v}) at distance {d}")
            });
            let path = paths.path(i);
            check.expect(
                paths.dist(i) == a
                    && path.first() == Some(&u)
                    && path.last() == Some(&v)
                    && walk_weight(&served.weighted, path) == Some(a),
                || format!("{name}: path for ({u},{v}) does not telescope to {a}"),
            );
            if d > 0 {
                worst = worst.max(a as f64 / d as f64);
            }
            exact += u64::from(a == d);
            total += 1;
        }
    }
    (worst, exact, total)
}

fn span_seconds<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| s.pass > 0 && s.layer == "oracle" && s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
}

impl Instance for Serve {
    fn pass(&mut self, rec: &mut Recorder) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut answer_sum = 0u64;
        for served in &self.served {
            let name = served.family.name();
            for batch in &served.dist_batches {
                let span = rec.begin("oracle", "query_batch", name);
                let answers = served.oracle.query_batch(batch);
                rec.end(span, batch.len() as u64);
                answer_sum = answers.iter().fold(answer_sum, |s, &a| s.wrapping_add(a));
                out.check.expect(
                    answers.len() == batch.len() && !answers.contains(&INFINITY),
                    || format!("{name}: a distance batch came back short or infinite"),
                );
            }
            for batch in &served.path_batches {
                let span = rec.begin("oracle", "query_paths_batch", name);
                let paths = served.oracle.query_paths_batch(batch);
                let nodes = if rec.enabled() {
                    (0..paths.len()).map(|i| paths.path(i).len() as u64).sum()
                } else {
                    0
                };
                rec.end(span, nodes);
                answer_sum = paths
                    .dists()
                    .iter()
                    .fold(answer_sum, |s, &a| s.wrapping_add(a));
                out.check.expect(
                    paths.len() == batch.len() && !paths.dists().contains(&INFINITY),
                    || format!("{name}: a path batch came back short or infinite"),
                );
            }
        }
        // Answers never underestimate, so a smaller sum is a tighter oracle.
        out.counter("oracle.answer_sum", answer_sum as f64);
        out
    }

    fn final_checks(&mut self, outcome: &mut PassOutcome) {
        let mut worst = 1f64;
        for served in &self.served {
            worst = worst.max(verify_sample(served, &mut outcome.check).0);
        }
        outcome.model.stretch_max = Some(worst);
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, _traced_passes: u32) -> Vec<Metric> {
        // Probes: allocator calls of one path batch, and the exact share of
        // the sampled answers.
        let mut allocs = 0u64;
        let (mut exact, mut total) = (0u64, 0u64);
        let mut scratch = crate::report::Check::default();
        for served in &self.served {
            let before = alloc::calls();
            std::hint::black_box(served.oracle.query_paths_batch(&served.path_batches[0]));
            allocs += alloc::calls() - before;
            let (_, e, t) = verify_sample(served, &mut scratch);
            exact += e;
            total += t;
        }

        let spans = rec.spans();
        let dist: Vec<f64> = span_seconds(spans, "query_batch").collect();
        let path: Vec<f64> = span_seconds(spans, "query_paths_batch").collect();
        let path_nodes: u64 = spans
            .iter()
            .filter(|s| s.pass > 0 && s.name == "query_paths_batch")
            .map(|s| s.items)
            .sum();
        let (build_s, edges) = outside_pass(spans, "streaming", "build");
        let memory: u64 = self.served.iter().map(|s| s.oracle.memory_bytes()).sum();
        vec![
            Metric::new("streaming.build_s", build_s, 1),
            Metric::new("streaming.edges_per_s", rate(edges, build_s), 1),
            Metric::new(
                "oracle.build_s",
                outside_pass(spans, "oracle", "build").0,
                1,
            ),
            Metric::new("oracle.memory_bytes", memory as f64, 1),
            Metric::new(
                "oracle.dist_queries_per_s",
                BATCH as f64 / stats::median(&dist),
                dist.len(),
            ),
            Metric::new(
                "oracle.path_queries_per_s",
                BATCH as f64 / stats::median(&path),
                path.len(),
            ),
            Metric::new(
                "oracle.dist_batch_p50_s",
                stats::percentile(&dist, 50.0),
                dist.len(),
            ),
            Metric::new(
                "oracle.dist_batch_p99_s",
                stats::percentile(&dist, 99.0),
                dist.len(),
            ),
            Metric::new(
                "oracle.path_batch_p50_s",
                stats::percentile(&path, 50.0),
                path.len(),
            ),
            Metric::new(
                "oracle.path_batch_p99_s",
                stats::percentile(&path, 99.0),
                path.len(),
            ),
            Metric::new(
                "oracle.path_nodes_per_s",
                rate(path_nodes, path.iter().sum()),
                path.len(),
            ),
            Metric::new("oracle.allocs_per_path_batch", allocs as f64, 1),
            Metric::new(
                "oracle.exact_share",
                exact as f64 / total as f64,
                total as usize,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Check;

    /// One corrupted answer among correct ones shows as `failed_ops = 1`.
    #[test]
    fn a_corrupted_answer_is_counted_once() {
        let exact: [Weight; 4] = [10, 7, 12, 3];
        let mut answers: [Weight; 4] = [10, 21, 30, 3];
        let mut check = Check::default();
        for (&d, &a) in exact.iter().zip(&answers) {
            check.expect(answer_within_contract(d, a), || format!("{a} vs {d}"));
        }
        assert_eq!((check.ops, check.failed), (4, 0));

        answers[2] = 11; // underestimates the distance 12
        let mut check = Check::default();
        for (&d, &a) in exact.iter().zip(&answers) {
            check.expect(answer_within_contract(d, a), || format!("{a} vs {d}"));
        }
        assert_eq!((check.ops, check.failed), (4, 1));
        assert_eq!(check.messages, vec!["11 vs 12".to_string()]);
        // Above the stretch is a failure too.
        assert!(!answer_within_contract(10, 31));
    }

    #[test]
    fn walk_weight_telescopes_along_edges_only() {
        let graph = hybrid_graph::generators::path(4).unwrap();
        assert_eq!(walk_weight(&graph, &[0, 1, 2, 3]), Some(3));
        assert_eq!(walk_weight(&graph, &[2]), Some(0));
        assert_eq!(walk_weight(&graph, &[0, 2]), None);
    }
}
