//! `dissemination` — Theorem 1 traffic.
//!
//! Every registered dissemination contender on five families × three token
//! placements × three `(λ, γ)` points.  `cluster`, `overlay`,
//! `dissemination`, `scheduler` and `cost` do the whole pass; `dijkstra` and
//! `minplus` do none of it.  The one-holder placement drives the scheduler's
//! hot-sender path, which spread placements never reach.

use std::sync::Arc;

use hybrid_bench::sweep::{cell_seed, SweepPoint};
use hybrid_bench::GraphFamily;
use hybrid_core::algorithm::{dissemination_registry, DisseminationAlgorithm};
use hybrid_core::cluster::cluster_by_nq;
use hybrid_core::dissemination::{place_tokens, TokenPlacement};
use hybrid_core::lower_bounds::dissemination_lower_bound;
use hybrid_core::nq::NqOracle;
use hybrid_core::overlay::VirtualTree;
use hybrid_core::prob::sample_distinct;
use hybrid_graph::balls::BallOracle;
use hybrid_graph::Graph;
use hybrid_sim::{GlobalMessage, GlobalScheduler, HybridNetwork, PhaseKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{median_time, outside_pass, per_pass_s, rate, Context, Instance};
use crate::report::{Metric, PassOutcome};
use crate::spans::Recorder;

/// Target node count of every family.
pub const N: usize = 4096;

const FAMILIES: [GraphFamily; 5] = [
    GraphFamily::Grid2D,
    GraphFamily::ErdosRenyi,
    GraphFamily::ChungLu,
    GraphFamily::Path,
    GraphFamily::RingOfCliques,
];

const POINTS: [SweepPoint; 3] = [
    SweepPoint::HYBRID,
    SweepPoint::SCARCE_GLOBAL,
    SweepPoint::RICH_GLOBAL,
];

/// The paper's own contender: its rounds are `sim_rounds`, its ratio
/// against the witness is `ratio_max`.
const PAPER: &str = "theorem1";

struct Placement {
    name: &'static str,
    tokens: Vec<TokenPlacement>,
    /// Lower-bound witness in rounds, per point.
    witness_rounds: Vec<f64>,
}

struct FamilyInstance {
    family: GraphFamily,
    graph: Arc<Graph>,
    oracle: NqOracle,
    placements: Vec<Placement>,
}

struct Dissemination {
    seed: u64,
    families: Vec<FamilyInstance>,
    algos: Vec<Box<dyn DisseminationAlgorithm>>,
}

/// Set-up: `GraphFamily::build` + `NqOracle::new` + token placements +
/// lower-bound witnesses for every family.
pub fn build(seed: u64, _ctx: &Context, rec: &mut Recorder) -> Box<dyn Instance> {
    let families = FAMILIES
        .iter()
        .enumerate()
        .map(|(fi, &family)| {
            let cell = family.name();
            let span = rec.begin("generators", "build", cell);
            let graph = Arc::new(family.build(N, cell_seed(seed, fi, N, 0)));
            rec.end(span, graph.m() as u64);

            let span = rec.begin("nq", "oracle_new", cell);
            let oracle = NqOracle::new(&graph);
            rec.end(span, graph.n() as u64);

            let n = graph.n();
            let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(seed, fi, N, 1));
            let all_nodes = sample_distinct(n, n, &mut rng);
            let eighth = &all_nodes[..n / 8];
            let one_holder = [all_nodes[0]];
            let placements = [
                ("spread-n/8", place_tokens(eighth, eighth.len() as u64)),
                ("spread-n", place_tokens(&all_nodes, n as u64)),
                ("one-holder-n", place_tokens(&one_holder, n as u64)),
            ]
            .into_iter()
            .map(|(name, tokens)| {
                let span = rec.begin("lower_bounds", "witness", cell);
                let witness_rounds = POINTS
                    .iter()
                    .map(|p| {
                        dissemination_lower_bound(&oracle, &p.params(n), tokens.len() as u64, 0.99)
                            .rounds
                    })
                    .collect();
                rec.end(span, POINTS.len() as u64);
                Placement {
                    name,
                    tokens,
                    witness_rounds,
                }
            })
            .collect();
            FamilyInstance {
                family,
                graph,
                oracle,
                placements,
            }
        })
        .collect();
    Box::new(Dissemination {
        seed,
        families,
        algos: dissemination_registry(),
    })
}

impl Instance for Dissemination {
    fn pass(&mut self, rec: &mut Recorder) -> PassOutcome {
        let mut out = PassOutcome::default();
        let mut paper_rounds = 0u64;
        let mut ratio_max = 0f64;
        let (mut messages, mut tokens_sent) = (0u64, 0u64);
        let (mut records, mut global_msgs, mut local_rounds, mut global_rounds) =
            (0u64, 0u64, 0u64, 0u64);
        let mut rounds_by_algo = vec![0u64; self.algos.len()];

        for fam in &self.families {
            let n = fam.graph.n();
            for placement in &fam.placements {
                let k = placement.tokens.len() as u64;
                for (pi, point) in POINTS.iter().enumerate() {
                    let witness = placement.witness_rounds[pi];
                    let cell = format!("{}/{}/{}", fam.family.name(), placement.name, point.name);
                    for (ai, algo) in self.algos.iter().enumerate() {
                        let span = rec.begin("dissemination", algo.name(), &cell);
                        let mut net = HybridNetwork::new(Arc::clone(&fam.graph), point.params(n));
                        let run = algo.run(&mut net, &fam.oracle, &placement.tokens);
                        rec.end(span, k);

                        out.check.expect(
                            run.tokens.len() as u64 == k && run.tokens.iter().copied().eq(0..k),
                            || format!("{cell}/{}: delivered set is not 0..{k}", algo.name()),
                        );
                        rounds_by_algo[ai] += run.rounds;
                        if algo.name() == PAPER {
                            out.check
                                .expect(run.rounds >= 1 && witness.is_finite(), || {
                                    format!("{cell}: rounds {} witness {witness}", run.rounds)
                                });
                            paper_rounds += run.rounds;
                            ratio_max = ratio_max.max(run.rounds as f64 / witness.max(1.0));
                            messages += run.meter.local_messages() + run.meter.global_messages();
                            tokens_sent += k;
                            records += run.meter.trace().len() as u64;
                            global_msgs += run.meter.global_messages();
                            for phase in run.meter.trace() {
                                match phase.kind {
                                    PhaseKind::Local => local_rounds += phase.rounds,
                                    PhaseKind::Global => global_rounds += phase.rounds,
                                    PhaseKind::Charged => {}
                                }
                            }
                        }
                    }
                }
            }
        }

        out.model.sim_rounds = Some(paper_rounds);
        out.model.ratio_max = Some(ratio_max);
        out.model.msgs_per_token = Some(messages as f64 / tokens_sent as f64);
        for (algo, rounds) in self.algos.iter().zip(rounds_by_algo) {
            out.counter(
                format!("dissemination.rounds.{}", algo.name()),
                rounds as f64,
            );
        }
        out.counter("network.phase_records", records as f64);
        out.counter("network.global_msgs", global_msgs as f64);
        out.counter("network.local_rounds", local_rounds as f64);
        out.counter("network.global_rounds", global_rounds as f64);
        out
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, traced_passes: u32) -> Vec<Metric> {
        let mut metrics = Vec::new();

        // Probes: layers the pipelines call internally, on this instance's
        // own graphs.
        let radius = (N as f64).sqrt().ceil() as u64;
        let ladder: Vec<u64> = [8, 4, 2, 1].iter().map(|d| (N / d) as u64).collect();
        for fam in &self.families {
            let cell = fam.family.name();
            let n = fam.graph.n();
            let span = rec.begin("balls", "oracle_new", cell);
            std::hint::black_box(BallOracle::new(&fam.graph, radius));
            rec.end(span, n as u64);

            let span = rec.begin("nq", "query", cell);
            for &k in &ladder {
                std::hint::black_box((fam.oracle.nq(k), fam.oracle.witness(k)));
            }
            rec.end(span, ladder.len() as u64);

            let params = SweepPoint::HYBRID.params(n);
            let span = rec.begin("cluster", "cluster_by_nq", cell);
            let mut net = HybridNetwork::new(Arc::clone(&fam.graph), params);
            let clustering = cluster_by_nq(&mut net, &fam.oracle, n as u64);
            rec.end(span, clustering.len() as u64);

            let leaders: Vec<u32> = clustering.clusters.iter().map(|c| c.leader).collect();
            let span = rec.begin("overlay", "virtual_tree", cell);
            std::hint::black_box(VirtualTree::build(&mut net, &leaders));
            rec.end(span, leaders.len() as u64);
        }

        // `GlobalScheduler::deliver` on a uniform batch (64 messages per
        // node) and a hot-receiver batch (16 per node into 16 receivers).
        let params = SweepPoint::HYBRID.params(N);
        let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(self.seed, 0, N, 9));
        let uniform: Vec<GlobalMessage> = (0..N as u32)
            .flat_map(|from| (0..64).map(move |_| from))
            .map(|from| GlobalMessage::new(from, rng.gen_range(0..N as u32)))
            .collect();
        let hot: Vec<GlobalMessage> = (0..N as u32)
            .flat_map(|from| (0..16).map(move |to| GlobalMessage::new(from, to)))
            .collect();
        let (mut rounds, mut bound) = (0u64, 0u64);
        for (cell, batch) in [("uniform-64", &uniform), ("hot-16x16", &hot)] {
            let span = rec.begin("scheduler", "deliver", cell);
            let report = GlobalScheduler::deliver(&params, batch);
            rec.end(span, report.messages);
            rounds += report.rounds;
            bound += GlobalScheduler::lower_bound_rounds(&params, batch);
        }
        let deliver_s = median_time(3, || {
            std::hint::black_box(GlobalScheduler::deliver(&params, &uniform));
            std::hint::black_box(GlobalScheduler::deliver(&params, &hot));
        });
        metrics.push(Metric::new("scheduler.deliver_s", deliver_s, 3));
        metrics.push(Metric::new(
            "scheduler.msgs_per_s",
            rate((uniform.len() + hot.len()) as u64, deliver_s),
            3,
        ));
        metrics.push(Metric::new(
            "scheduler.rounds_over_lb",
            rounds as f64 / bound as f64,
            1,
        ));

        let spans = rec.spans();
        for algo in &self.algos {
            metrics.push(Metric::new(
                format!("dissemination.run_s.{}", algo.name()),
                per_pass_s(spans, "dissemination", algo.name(), traced_passes),
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
            ("balls.oracle_build_s", "balls", "oracle_new"),
            ("nq.query_s", "nq", "query"),
            ("cluster.cluster_by_nq_s", "cluster", "cluster_by_nq"),
            ("overlay.virtual_tree_s", "overlay", "virtual_tree"),
        ] {
            metrics.push(Metric::new(metric, outside_pass(spans, layer, name).0, 1));
        }
        metrics
    }
}
