//! `kssp` — Theorem 13/14 traffic.
//!
//! Every registered shortest-paths contender on `⌈√n⌉` sampled sources plus
//! one Theorem 13 SSSP, with every output verified against exact Dijkstra.
//! Hop-limited sweeps, `skeleton` and `minplus::compose` are most of the
//! pass and the scheduler next to none of it: the mirror image of
//! `dissemination`.

use std::sync::Arc;

use hybrid_bench::sweep::{cell_seed, SweepPoint};
use hybrid_bench::GraphFamily;
use hybrid_core::algorithm::{sssp_registry, SsspAlgorithm};
use hybrid_core::kssp::{kssp_lower_bound_rounds, KsspOutput};
use hybrid_core::lower_bounds::shortest_paths_lower_bound;
use hybrid_core::minplus::{self, Assignment, Coeff};
use hybrid_core::nq::NqOracle;
use hybrid_core::prob::sample_distinct;
use hybrid_core::skeleton::build_skeleton;
use hybrid_core::sssp::sssp_approx;
use hybrid_graph::dijkstra::{dijkstra, hop_limited_distances_with, HopLimitedWorkspace};
use hybrid_graph::{Graph, NodeId, Weight};
use hybrid_sim::{HybridNetwork, ModelParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::{outside_pass, per_pass_s, rate, Context, Instance};
use crate::report::{Check, Metric, PassOutcome};
use crate::spans::Recorder;

/// Target node count of every family (top rung of `SweepConfig::full`).
pub const N: usize = 1024;
/// Accuracy of the k-SSP contenders.
const EPSILON: f64 = 1.0;
/// Accuracy of the single-source Theorem 13 run.
const SSSP_EPSILON: f64 = 0.25;

const FAMILIES: [GraphFamily; 4] = [
    GraphFamily::Grid2D,
    GraphFamily::ErdosRenyi,
    GraphFamily::ChungLu,
    GraphFamily::Path,
];

/// The paper's own contender (see `dissemination::PAPER`).
const PAPER: &str = "theorem14";

/// One family's instance and inputs.
pub struct Cell {
    family: GraphFamily,
    weighted: Arc<Graph>,
    params: ModelParams,
    sources: Vec<NodeId>,
    algo_seed: u64,
    /// `Ω̃(√(k/γ))` k-SSP lower bound, rounds.
    witness_rounds: u64,
    /// Exact distances from node 0, for the Theorem 13 check.
    exact_from_zero: Vec<Weight>,
}

struct Kssp {
    cells: Vec<Cell>,
    algos: Vec<Box<dyn SsspAlgorithm>>,
}

/// Builds family `fi`'s cell: graph + `reweight` + `NqOracle::new` +
/// witnesses + sampled sources.
pub fn build_cell(seed: u64, fi: usize, rec: &mut Recorder) -> Cell {
    let family = FAMILIES[fi];
    let cell = family.name();
    let graph_seed = cell_seed(seed, fi, N, 0);
    let span = rec.begin("generators", "build", cell);
    let graph = family.build(N, graph_seed);
    let weighted = Arc::new(family.reweight(&graph, graph_seed));
    rec.end(span, (graph.m() + weighted.m()) as u64);

    let span = rec.begin("nq", "oracle_new", cell);
    let oracle = NqOracle::new(&graph);
    rec.end(span, graph.n() as u64);

    let n = graph.n();
    let params = SweepPoint::HYBRID.params(n);
    let k = ((n as f64).sqrt().ceil() as usize).clamp(4, n);
    let span = rec.begin("lower_bounds", "witness", cell);
    let witness_rounds = kssp_lower_bound_rounds(k, params.global_capacity_msgs);
    let sssp_witness = shortest_paths_lower_bound(&oracle, &params, 1, 0.99);
    rec.end(span, 2);
    assert!(
        sssp_witness.rounds.is_finite(),
        "SSSP witness must be finite"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(seed, fi, N, 2));
    let sources = sample_distinct(n, k, &mut rng);
    let exact_from_zero = dijkstra(&weighted, 0).dist;
    Cell {
        family,
        weighted,
        params,
        sources,
        algo_seed: cell_seed(seed, fi, N, 3),
        witness_rounds,
        exact_from_zero,
    }
}

/// Set-up of the whole workload.
pub fn build(seed: u64, _ctx: &Context, rec: &mut Recorder) -> Box<dyn Instance> {
    Box::new(Kssp {
        cells: (0..FAMILIES.len())
            .map(|fi| build_cell(seed, fi, rec))
            .collect(),
        algos: sssp_registry(),
    })
}

/// Runs one contender on one cell and verifies its labels.
pub fn run_contender(
    cell: &Cell,
    algo: &dyn SsspAlgorithm,
    rec: &mut Recorder,
    check: &mut Check,
) -> KsspOutput {
    let name = cell.family.name();
    let span = rec.begin("kssp", algo.name(), name);
    let mut net = HybridNetwork::new(Arc::clone(&cell.weighted), cell.params);
    let run = algo.run(&mut net, &cell.sources, EPSILON, cell.algo_seed);
    rec.end(span, cell.sources.len() as u64);

    let span = rec.begin("kssp", "verify_stretch", name);
    let verdict = run.verify_stretch(&cell.weighted);
    rec.end(span, run.dist.len() as u64);
    check.expect_ok(&format!("{name}/{}", algo.name()), verdict);
    run
}

impl Instance for Kssp {
    fn pass(&mut self, rec: &mut Recorder) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut paper_rounds = 0u64;
        let mut ratio_max = 0f64;
        let mut rounds_by_algo = vec![0u64; self.algos.len()];
        let mut skeleton_size = 0u64;

        for cell in &self.cells {
            let name = cell.family.name();
            for (ai, algo) in self.algos.iter().enumerate() {
                let run = run_contender(cell, algo.as_ref(), rec, &mut out.check);
                rounds_by_algo[ai] += run.rounds;
                if algo.name() == PAPER {
                    out.check.expect(run.rounds >= 1, || {
                        format!("{name}: {PAPER} reported zero rounds")
                    });
                    paper_rounds += run.rounds;
                    ratio_max =
                        ratio_max.max(run.rounds as f64 / cell.witness_rounds.max(1) as f64);
                    skeleton_size += run.skeleton_size as u64;
                }
            }

            let span = rec.begin("sssp", "sssp_approx", name);
            let mut net = HybridNetwork::new(Arc::clone(&cell.weighted), cell.params);
            let sssp = sssp_approx(&mut net, 0, SSSP_EPSILON);
            rec.end(span, sssp.dist.len() as u64);
            out.check.expect_ok(
                &format!("{name}/sssp_approx"),
                sssp.verify_stretch(&cell.exact_from_zero),
            );
        }

        out.model.sim_rounds = Some(paper_rounds);
        out.model.ratio_max = Some(ratio_max);
        for (algo, rounds) in self.algos.iter().zip(rounds_by_algo) {
            out.counter(format!("kssp.rounds.{}", algo.name()), rounds as f64);
        }
        out.counter("kssp.skeleton_size", skeleton_size as f64);
        out
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, traced_passes: u32) -> Vec<Metric> {
        // Probes: the skeleton pipeline's three kernels, called directly
        // with the sampling parameter and forced sources `kssp` itself uses.
        let mut cell_updates = 0u64;
        for cell in &self.cells {
            let name = cell.family.name();
            let k = cell.sources.len();
            let x = (k as f64 / cell.params.global_capacity_msgs as f64)
                .sqrt()
                .max(1.0);
            let mut net = HybridNetwork::new(Arc::clone(&cell.weighted), cell.params);
            let mut rng = ChaCha8Rng::seed_from_u64(cell.algo_seed);
            let span = rec.begin("skeleton", "build_skeleton", name);
            let skeleton = build_skeleton(&mut net, x, &cell.sources, &mut rng);
            rec.end(span, skeleton.len() as u64);

            let span = rec.begin("dijkstra", "hop_limited", name);
            let mut ws = HopLimitedWorkspace::new();
            let mut row = Vec::new();
            for &s in &cell.sources {
                hop_limited_distances_with(
                    &mut ws,
                    &cell.weighted,
                    s,
                    skeleton.h as usize,
                    &mut row,
                );
                std::hint::black_box(&row);
            }
            rec.end(span, k as u64);

            // One coefficient row per source: the skeleton-metric edge
            // weights out of the source's own skeleton node.
            let anchors: Vec<usize> = cell
                .sources
                .iter()
                .map(|&s| skeleton.index_of[s as usize])
                .collect();
            let coeffs: Vec<Coeff> = anchors
                .iter()
                .map(|&a| {
                    Coeff::Dense(
                        (0..skeleton.len())
                            .map(|j| skeleton.edge_weight(a, j))
                            .collect(),
                    )
                })
                .collect();
            let assign: Vec<Assignment> = (0..k).map(|g| Some((g, 0))).collect();
            let init: Vec<&[Weight]> = anchors.iter().map(|&a| skeleton.rows.row(a)).collect();
            let updates = (k * skeleton.len() * cell.weighted.n()) as u64;
            let span = rec.begin("minplus", "compose", name);
            std::hint::black_box(minplus::compose(&skeleton.rows, &coeffs, &assign, &init));
            rec.end(span, updates);
            cell_updates += updates;
        }

        let spans = rec.spans();
        let mut metrics = Vec::new();
        for algo in &self.algos {
            metrics.push(Metric::new(
                format!("kssp.run_s.{}", algo.name()),
                per_pass_s(spans, "kssp", algo.name(), traced_passes),
                traced_passes as usize,
            ));
        }
        for (metric, layer, name) in [
            ("kssp.verify_s", "kssp", "verify_stretch"),
            ("sssp.approx_s", "sssp", "sssp_approx"),
        ] {
            metrics.push(Metric::new(
                metric,
                per_pass_s(spans, layer, name, traced_passes),
                traced_passes as usize,
            ));
        }
        let (build_s, edges) = outside_pass(spans, "generators", "build");
        metrics.push(Metric::new("generators.build_s", build_s, 1));
        metrics.push(Metric::new(
            "generators.edges_per_s",
            rate(edges, build_s),
            1,
        ));
        for (metric, layer, name) in [
            ("nq.oracle_build_s", "nq", "oracle_new"),
            ("lower_bounds.witness_s", "lower_bounds", "witness"),
            ("skeleton.build_s", "skeleton", "build_skeleton"),
            ("dijkstra.hop_limited_s", "dijkstra", "hop_limited"),
        ] {
            metrics.push(Metric::new(metric, outside_pass(spans, layer, name).0, 1));
        }
        let compose_s = outside_pass(spans, "minplus", "compose").0;
        metrics.push(Metric::new("minplus.compose_s", compose_s, 1));
        metrics.push(Metric::new(
            "minplus.cell_updates_per_s",
            rate(cell_updates, compose_s),
            1,
        ));
        metrics
    }
}
