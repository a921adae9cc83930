//! `scale` — the `n = 10⁵` tier.
//!
//! The same `dijkstra` layer as `kssp` used the other way: a few full,
//! memory-bound sweeps over 10⁵ nodes instead of many short cache-resident
//! hop-limited ones.  `peak_alloc_bytes` is the headline (`O(|S|·n)`).

use hybrid_bench::sweep::{cell_seed, SweepPoint};
use hybrid_bench::GraphFamily;
use hybrid_core::kssp::kssp_lower_bound_rounds;
use hybrid_core::lower_bounds::dissemination_lower_bound;
use hybrid_core::nq::SampledNqOracle;
use hybrid_core::prob::sample_distinct;
use hybrid_core::rows::DistanceRows;
use hybrid_core::sssp::SsspCostModel;
use hybrid_graph::dijkstra::DijkstraWorkspace;
use hybrid_graph::{Graph, NodeId};
use hybrid_sim::ModelParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::{outside_pass, per_pass_s, rate, Context, Instance};
use crate::report::{Metric, PassOutcome};
use crate::spans::Recorder;

/// Target node count of every family (`ScaleConfig::quick`'s tier).
pub const N: usize = 100_000;
/// Sampled Dijkstra sources per family.
const SOURCES: usize = 8;
/// Sampled `NQ` witnesses per family.
const NQ_SAMPLES: usize = 64;
const EPSILON: f64 = 0.25;

const FAMILIES: [GraphFamily; 3] = [
    GraphFamily::Grid2D,
    GraphFamily::ErdosRenyi,
    GraphFamily::ChungLu,
];

struct Cell {
    family: GraphFamily,
    graph: Graph,
    weighted: Graph,
    sources: Vec<NodeId>,
    nq_seed: u64,
}

struct Scale {
    cells: Vec<Cell>,
}

/// Set-up: `build_streamed` + `reweight_streamed` per family.
pub fn build(seed: u64, _ctx: &Context, rec: &mut Recorder) -> Box<dyn Instance> {
    let cells = FAMILIES
        .iter()
        .enumerate()
        .map(|(fi, &family)| {
            let graph_seed = cell_seed(seed, fi, N, 0);
            let span = rec.begin("streaming", "build", family.name());
            let graph = family.build_streamed(N, graph_seed);
            let weighted = family.reweight_streamed(&graph, graph_seed);
            rec.end(span, (graph.m() + weighted.m()) as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(seed, fi, N, 2));
            let sources = sample_distinct(graph.n(), SOURCES, &mut rng);
            Cell {
                family,
                graph,
                weighted,
                sources,
                nq_seed: cell_seed(seed, fi, N, 3),
            }
        })
        .collect();
    Box::new(Scale { cells })
}

impl Instance for Scale {
    fn pass(&mut self, rec: &mut Recorder) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut rounds = 0u64;
        let (mut ratio_max, mut stretch_max) = (0f64, 0f64);
        let mut rows_bytes = 0u64;

        for cell in &self.cells {
            let name = cell.family.name();
            let n = cell.graph.n();
            let params = SweepPoint::HYBRID.params(n);
            let k = n as u64;

            let span = rec.begin("nq", "sampled_new", name);
            let sampled = SampledNqOracle::new(&cell.graph, NQ_SAMPLES, k, 0.02, cell.nq_seed);
            let estimate = sampled.nq_estimate(k);
            rec.end(span, NQ_SAMPLES as u64);

            let span = rec.begin("lower_bounds", "witness", name);
            let witness = dissemination_lower_bound(&sampled, &params, k, 0.99);
            let kssp_witness = kssp_lower_bound_rounds(SOURCES, params.global_capacity_msgs);
            rec.end(span, 2);

            // Modelled rows, as in `hybrid_bench::scale`: Theorem 1 at
            // `NQ̂_k · ⌈log₂ n⌉`, the k ≤ γ fast path at the Theorem 13 cost.
            let diss_rounds = estimate
                .estimate
                .saturating_mul(ModelParams::log_n(n) as u64)
                .max(1);
            let kssp_rounds = SsspCostModel::default().rounds(n, EPSILON);
            out.check.expect(
                witness.rounds.is_finite() && diss_rounds >= 1 && kssp_rounds >= 1,
                || format!("{name}: witness {} rounds {diss_rounds}", witness.rounds),
            );
            rounds += diss_rounds + kssp_rounds;
            ratio_max = ratio_max
                .max(diss_rounds as f64 / witness.rounds.max(1.0))
                .max(kssp_rounds as f64 / kssp_witness.max(1) as f64);

            let span = rec.begin("rows", "compute", name);
            let exact = DistanceRows::compute(&cell.weighted, &cell.sources);
            rec.end(span, (SOURCES * n) as u64);
            let span = rec.begin("rows", "quantized", name);
            let quantized = exact.quantized(EPSILON);
            rec.end(span, (SOURCES * n) as u64);
            let span = rec.begin("rows", "verify_stretch_against", name);
            let verdict = quantized.verify_stretch_against(&exact, 1.0 + EPSILON);
            rec.end(span, (SOURCES * n) as u64);
            if let Ok(worst) = &verdict {
                stretch_max = stretch_max.max(*worst);
            }
            out.check.expect_ok(&format!("{name}/rows"), verdict);
            rows_bytes += exact.memory_bytes() + quantized.memory_bytes();
        }

        out.model.sim_rounds = Some(rounds);
        out.model.ratio_max = Some(ratio_max);
        out.model.stretch_max = Some(stretch_max);
        out.counter("rows.memory_bytes", rows_bytes as f64);
        out
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, traced_passes: u32) -> Vec<Metric> {
        // Probe: the single-source sweep `DistanceRows::compute` fans out.
        let mut settled = 0u64;
        for cell in &self.cells {
            let span = rec.begin("dijkstra", "run", cell.family.name());
            let mut ws = DijkstraWorkspace::new();
            let mut reached = 0u64;
            for &s in &cell.sources {
                ws.run(&cell.weighted, s);
                reached += ws.reached().len() as u64;
            }
            rec.end(span, reached);
            settled += reached;
        }

        let spans = rec.spans();
        let mut metrics = Vec::new();
        for (metric, layer, name) in [
            ("nq.sampled_build_s", "nq", "sampled_new"),
            ("lower_bounds.witness_s", "lower_bounds", "witness"),
            ("rows.compute_s", "rows", "compute"),
            ("rows.quantize_s", "rows", "quantized"),
            ("rows.verify_s", "rows", "verify_stretch_against"),
        ] {
            metrics.push(Metric::new(
                metric,
                per_pass_s(spans, layer, name, traced_passes),
                traced_passes as usize,
            ));
        }
        let (build_s, edges) = outside_pass(spans, "streaming", "build");
        metrics.push(Metric::new("streaming.build_s", build_s, 1));
        metrics.push(Metric::new(
            "streaming.edges_per_s",
            rate(edges, build_s),
            1,
        ));
        let sssp_s = outside_pass(spans, "dijkstra", "run").0;
        metrics.push(Metric::new("dijkstra.sssp_s", sssp_s, 1));
        metrics.push(Metric::new(
            "dijkstra.settled_per_s",
            rate(settled, sssp_s),
            1,
        ));
        metrics
    }
}
