//! Existentially optimal `k`-source shortest paths (Theorem 14, Section 9):
//! scheduling `k` instances of the Theorem 13 SSSP algorithm on a skeleton
//! graph with the help of `[KS20]`-style helper sets (Lemma 9.3), matching the
//! `Ω̃(√(k/γ))` lower bound for every `k`.
//!
//! Three regimes, as in Theorem 14:
//!
//! * `k ≤ γ` arbitrary sources — enough global capacity to run all SSSP
//!   instances in parallel: `Õ(1/ε²)` rounds, stretch `1+ε`;
//! * random sources (sampled with probability `k/n`) — the sources can be
//!   made part of the skeleton, giving stretch `1+ε` in `Õ(√k/ε²)` rounds;
//! * `k` arbitrary sources — each source tags its closest skeleton node as a
//!   *proxy source*; composing through the proxy costs a factor 3:
//!   stretch `3(1+ε)` in `Õ(√(k/γ)/ε²)` rounds.
//!
//! The data level of both skeleton regimes sweeps the `k` source rows first.
//! Exactness is per row: a source row that reached its Bellman–Ford fixpoint
//! holds exact distances and is that source's label.  Every other source
//! composes through its skeleton anchor (Lemma 9.4) with two graph searches
//! per distinct anchor and no `|S| × n` skeleton table: a Dijkstra for the
//! skeleton distances from the anchor (`SkeletonSample::distances`), then
//! one `h`-hop sweep seeded with those distances at the skeleton nodes.  The
//! skeleton's sampling, helper sets and round charges do not depend on which
//! sources compose, so the rounds are the same either way.
//!
//! The comparison row for Figure 1 (`Õ(n^{1/3} + √k)` of `[CHLP21a]`) is
//! provided by [`baseline_chlp21_rounds`].

use rand::Rng;
use rayon::prelude::*;

use hybrid_graph::dijkstra::{hop_limited_seeded_with, HopLimitedWorkspace};
use hybrid_graph::{NodeId, Weight, INFINITY};
use hybrid_sim::HybridNetwork;

use crate::helpers::ks20_helper_sets;
use crate::minplus::kernel;
use crate::rows::DistanceRows;
use crate::skeleton::{sample_skeleton, SkeletonSample, SkeletonSearch};
use crate::sssp::{quantize_distance, sssp_round_cost};
use crate::stretch::StretchViolation;

/// Which of the Theorem 14 regimes an instance belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KsspVariant {
    /// Sources sampled with probability `k/n` — stretch `1+ε`.
    RandomSources,
    /// Arbitrary sources — stretch `3(1+ε)` via proxy sources.
    ArbitrarySources,
}

/// Output of a k-SSP computation.
#[derive(Debug, Clone)]
pub struct KsspOutput {
    /// `dist[i][v]` is the distance label from `dist.sources()[i]` to node
    /// `v`.
    pub dist: DistanceRows,
    /// Guaranteed stretch of the labels.
    pub stretch: f64,
    /// Accuracy parameter ε.
    pub epsilon: f64,
    /// The network's round count at return.
    pub rounds: u64,
    /// The number of skeleton nodes used (0 when the `k ≤ γ` fast path ran).
    pub skeleton_size: usize,
}

impl KsspOutput {
    /// Verifies every label against exact distances under the label contract
    /// and returns the maximum observed stretch
    /// ([`DistanceRows::verify_stretch`] at the promised stretch).
    pub fn verify_stretch(&self, graph: &hybrid_graph::Graph) -> Result<f64, StretchViolation> {
        self.dist.verify_stretch(graph, self.stretch)
    }
}

/// Theorem 14 — `k`-SSP with accuracy `epsilon`.
///
/// Dispatches on the regime: the `k ≤ γ` fast path, the random-sources
/// skeleton path (stretch `1+ε`) or the arbitrary-sources proxy path
/// (stretch `3(1+ε)`).
pub fn kssp(
    net: &mut HybridNetwork,
    sources: &[NodeId],
    epsilon: f64,
    variant: KsspVariant,
    rng: &mut impl Rng,
) -> KsspOutput {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let graph = net.graph_arc();
    let k = sources.len();
    let gamma = net.params().global_capacity_msgs.max(1);

    // Fast path (Theorem 14, third bullet): k ≤ γ arbitrary sources — run all
    // SSSP instances in parallel; each consumes Õ(1) global capacity.  No
    // sources, no instances.
    if k <= gamma {
        if k > 0 {
            let t = sssp_round_cost(net, epsilon);
            net.charge_rounds("kssp/parallel-sssp (k <= gamma)", t);
        }
        return KsspOutput {
            dist: DistanceRows::compute_quantized(&graph, sources, epsilon),
            stretch: 1.0 + epsilon,
            epsilon,
            rounds: net.rounds(),
            skeleton_size: 0,
        };
    }

    // Skeleton with sampling probability sqrt(gamma / k).
    let x = ((k as f64) / (gamma as f64)).sqrt().max(1.0);
    let forced: Vec<NodeId> = match variant {
        KsspVariant::RandomSources => sources.to_vec(),
        KsspVariant::ArbitrarySources => Vec::new(),
    };
    let skeleton = sample_skeleton(net, x, &forced, rng);
    let (h, skeleton_size) = (skeleton.h, skeleton.nodes.len());

    // Helper sets for the skeleton nodes (Lemma 9.2) and the Lemma 9.3
    // scheduling cost: each helper simulates at most ⌈k/|H_u|⌉ SSSP instances;
    // one simulated round costs Õ(√(k/γ)) local (helper-to-helper transit)
    // plus ⌈load/γ⌉ global rounds.
    let helper_sets = ks20_helper_sets(net, &graph, &skeleton.nodes, x.ceil() as u64);
    let min_helpers = helper_sets.min_size().max(1);
    let load_per_helper = k.div_ceil(min_helpers) as u64;
    let t_sssp = sssp_round_cost(net, epsilon);
    let per_simulated_round = h + load_per_helper.div_ceil(gamma as u64);
    net.charge_rounds(
        "kssp/schedule-sssp-on-skeleton (Lemma 9.3)",
        t_sssp.saturating_mul(per_simulated_round.max(1)),
    );

    // Data level: distances on the skeleton from each source's skeleton node,
    // quantized by (1+eps); then composition back to all of G.
    let dist = compute_labels(&graph, &skeleton, sources, epsilon);

    // Post-processing: every node learns its h-hop neighbourhood to compose
    // labels (Lemma 9.4 / Theorem 14 proof), plus the broadcast of the
    // source-to-proxy distances (an instance of k-dissemination, charged at
    // its Õ(√(k/γ)) bound).
    net.charge_local("kssp/post-process-h-hop", h);
    if matches!(variant, KsspVariant::ArbitrarySources) {
        net.charge_rounds(
            "kssp/broadcast-proxy-distances",
            ((k as f64 / gamma as f64).sqrt().ceil() as u64).max(1) * net.log_n(),
        );
    }

    let stretch = match variant {
        KsspVariant::RandomSources => 1.0 + epsilon,
        KsspVariant::ArbitrarySources => 3.0 * (1.0 + epsilon),
    };
    KsspOutput {
        dist,
        stretch,
        epsilon,
        rounds: net.rounds(),
        skeleton_size,
    }
}

/// Computes the distance labels of Lemma 9.4 / Theorem 14:
///
/// ```text
/// label[i][v] = min( d^h(sᵢ, v),
///                    offsetᵢ ⊕ min_j ( q(d_S(aᵢ, j)) ⊕ d^h(j, v) ) )
/// ```
///
/// where `aᵢ` is source `i`'s anchor on the skeleton (itself, or for a
/// source outside it the proxy minimizing `d^h(sᵢ, ·)`, at `offsetᵢ =
/// d^h(sᵢ, aᵢ)`), `d_S` the skeleton-graph distance, `q` the `(1+ε)`
/// quantization and `⊕` saturating addition.  The random-sources regime
/// forces every source into the skeleton, so its offsets are 0.
///
/// The source rows `d^h(sᵢ, ·)` come first.  An exact initial row dominates
/// the composition: every composed candidate is a sum of distance
/// overestimates along a path through the anchor, hence `≥ d(sᵢ, v)`.  So a
/// source whose own sweep converged keeps its row verbatim and has no
/// anchor, and when every source row converged those rows are the labels.
///
/// Each distinct anchor of the other sources costs two graph searches:
/// `SkeletonSample::distances` for `d_S(a, ·)`, then
/// [`hop_limited_seeded_with`] seeded with `q(d_S(a, j))` at every skeleton
/// node `j`, whose `h` synchronous rounds give `min_j (q(d_S(a, j)) ⊕
/// d^h(j, ·))` for every node at once.  The labels are the ones the plain
/// [`crate::minplus::compose`] loop gives over a swept skeleton table, bit
/// for bit.
fn compute_labels(
    graph: &hybrid_graph::Graph,
    sample: &SkeletonSample,
    sources: &[NodeId],
    epsilon: f64,
) -> DistanceRows {
    let h = sample.h as usize;
    // Every source's own h-hop row, and whether it is exact.
    let (own, exact) = DistanceRows::hop_limited(graph, sources, h);
    if exact.iter().all(|&exact| exact) {
        return own;
    }
    let mut labels = own.into_rows();

    // Each composing source's anchor position and offset.  `d^h` is
    // symmetric, so a proxy is read off the source's own row; ties keep the
    // lowest position.  A source with no skeleton node within h hops
    // composes nothing (its offset would be INFINITY).
    let anchor_of: Vec<Option<(usize, Weight)>> = sources
        .iter()
        .zip(&labels)
        .zip(&exact)
        .map(|((&s, row), &exact)| {
            if exact {
                None
            } else if sample.contains(s) {
                Some((sample.index_of[s as usize], 0))
            } else {
                let mut best = (0usize, INFINITY);
                for (j, &u) in sample.nodes.iter().enumerate() {
                    if row[u as usize] < best.1 {
                        best = (j, row[u as usize]);
                    }
                }
                (best.1 != INFINITY).then_some(best)
            }
        })
        .collect();
    let mut anchors: Vec<usize> = anchor_of.iter().flatten().map(|&(a, _)| a).collect();
    anchors.sort_unstable();
    anchors.dedup();

    // Skeleton SSSP (Theorem 13 instances scheduled by Lemma 9.3), quantized
    // by the allowed error, composed back to all of G by one seeded sweep —
    // one row per distinct anchor.
    let composed: Vec<Vec<Weight>> = anchors
        .par_iter()
        .map_init(
            || {
                (
                    SkeletonSearch::default(),
                    HopLimitedWorkspace::new(),
                    Vec::new(),
                    Vec::new(),
                )
            },
            |(search, ws, skeleton_dist, seeds), &a| {
                sample.distances(graph, search, a, skeleton_dist);
                seeds.clear();
                seeds.extend(
                    sample
                        .nodes
                        .iter()
                        .zip(skeleton_dist.iter())
                        .map(|(&u, &d)| (u, quantize_distance(d, epsilon))),
                );
                let mut row = Vec::new();
                hop_limited_seeded_with(ws, graph, seeds, h, &mut row);
                row
            },
        )
        .with_min_len(1)
        .collect();
    for (label, entry) in labels.iter_mut().zip(&anchor_of) {
        if let Some((a, offset)) = *entry {
            let row = &composed[anchors.binary_search(&a).expect("anchor registered")];
            kernel::fold_min_sat(label, row, offset);
        }
    }
    DistanceRows::from_rows(sources.to_vec(), graph.n(), labels)
}

/// The round bound of the prior state of the art for `k`-SSP
/// (`[CHLP21a]` / `[KS20]`): `Õ(n^{1/3} + √k)`, the gray reference curve of
/// Figure 1.  A single `log n` factor stands in for the `Õ(·)`.
pub fn baseline_chlp21_rounds(n: usize, k: usize) -> u64 {
    let n_f = n.max(2) as f64;
    let log_n = hybrid_sim::ModelParams::log_n(n) as f64;
    (((n_f.powf(1.0 / 3.0) + (k.max(1) as f64).sqrt()) * log_n).ceil() as u64).max(1)
}

/// The existential lower bound `Ω̃(√(k/γ))` for `k`-SSP (`[KS20]`, `[Sch23]`),
/// evaluated with constant 1 (the shaded region of Figure 1).
pub fn kssp_lower_bound_rounds(k: usize, gamma: usize) -> u64 {
    (((k.max(1) as f64) / (gamma.max(1) as f64)).sqrt().floor() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minplus::{self, Coeff};
    use crate::prob::{sample_distinct, sample_with_probability};
    use crate::skeleton::SkeletonGraph;
    use hybrid_graph::{generators, GraphBuilder};
    use hybrid_sim::ModelParams;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    #[test]
    fn fast_path_small_k_has_unit_stretch_bound() {
        let g = Arc::new(generators::grid(&[9, 9]).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let gamma = net.params().global_capacity_msgs;
        let sources = sample_distinct(g.n(), gamma.min(4), &mut rng);
        let out = kssp(
            &mut net,
            &sources,
            0.5,
            KsspVariant::ArbitrarySources,
            &mut rng,
        );
        assert_eq!(out.skeleton_size, 0);
        assert_eq!(out.stretch, 1.5);
        out.verify_stretch(&g).unwrap();
    }

    #[test]
    fn random_sources_skeleton_path_respects_stretch() {
        let g = Arc::new(generators::grid(&[12, 12]).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sources = {
            let mut s = sample_with_probability(g.n(), 0.2, &mut rng);
            if s.len() <= net.params().global_capacity_msgs {
                s = sample_distinct(g.n(), net.params().global_capacity_msgs + 5, &mut rng);
            }
            s
        };
        let out = kssp(
            &mut net,
            &sources,
            0.25,
            KsspVariant::RandomSources,
            &mut rng,
        );
        assert!(out.skeleton_size > 0);
        assert!((out.stretch - 1.25).abs() < 1e-9);
        out.verify_stretch(&g).unwrap();
    }

    #[test]
    fn arbitrary_sources_proxy_path_respects_stretch() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g0 = generators::weighted_grid(&[10, 10], 8, 3).unwrap();
        let g = Arc::new(g0);
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        // Adversarially concentrated sources in one corner.
        let sources: Vec<NodeId> = (0..25).collect();
        let out = kssp(
            &mut net,
            &sources,
            0.5,
            KsspVariant::ArbitrarySources,
            &mut rng,
        );
        assert!(out.skeleton_size > 0);
        out.verify_stretch(&g).unwrap();
    }

    /// The Lemma 9.4 labels with no fast path: the whole skeleton from
    /// `build_skeleton` (the seed `kssp` samples with), every source composed
    /// on [`minplus::compose`], every anchor's coefficients from the skeleton
    /// Dijkstra.  Also returns the skeleton.
    fn full_composition(
        g: &Arc<hybrid_graph::Graph>,
        params: ModelParams,
        sources: &[NodeId],
        variant: KsspVariant,
        seed: u64,
    ) -> (DistanceRows, SkeletonGraph) {
        let mut net = HybridNetwork::new(Arc::clone(g), params);
        let gamma = params.global_capacity_msgs;
        let x = (sources.len() as f64 / gamma as f64).sqrt().max(1.0);
        let forced = match variant {
            KsspVariant::RandomSources => sources.to_vec(),
            KsspVariant::ArbitrarySources => Vec::new(),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sk = crate::skeleton::build_skeleton(&mut net, x, &forced, &mut rng);
        let (own, _) = DistanceRows::hop_limited(g, sources, sk.h as usize);
        let mut coeffs = Vec::new();
        let mut assign = Vec::new();
        for (i, &s) in sources.iter().enumerate() {
            let (anchor, offset) = if sk.contains(s) {
                (sk.index_of[s as usize], 0)
            } else {
                (0..sk.len())
                    .map(|j| (j, sk.rows.row(j)[s as usize]))
                    .fold((0, INFINITY), |best, c| if c.1 < best.1 { c } else { best })
            };
            let row = sk.sssp(anchor).into_iter();
            coeffs.push(Coeff::Dense(
                row.map(|d| quantize_distance(d, 1.0)).collect(),
            ));
            assign.push(Some((i, offset)));
        }
        let init: Vec<&[Weight]> = own.iter().collect();
        let labels = minplus::compose(&sk.rows, &coeffs, &assign, &init);
        (DistanceRows::from_rows(sources.to_vec(), g.n(), labels), sk)
    }

    #[test]
    fn fast_paths_match_the_full_composition() {
        let grid = generators::weighted_grid(&[12, 12], 16, 23).unwrap();
        let er = generators::with_random_weights(
            &generators::erdos_renyi(96, 0.04, 23).unwrap(),
            16,
            23,
        )
        .unwrap();
        let path = generators::path(128).unwrap();
        // Every node of a 64-path a source, under γ = 63: the skeleton is
        // the sources (x ≈ 1, h = 13), no row converges, and labels need
        // skeleton paths of more than 2h hops — a skeleton wrongly taken as
        // converged would read its h-hop rows back instead.
        let short_path = generators::path(64).unwrap();
        let params = |g: &hybrid_graph::Graph| ModelParams::hybrid(g.n());
        // (instance, model, sources — one repeated in the first three — and
        // how many of the source rows reach their fixpoint: some, all, none,
        // none).
        let cases = [
            (
                params(&grid),
                grid,
                vec![0, 143, 66, 77, 5, 60, 90, 130, 11, 70, 40, 100, 77],
            ),
            (params(&er), er, vec![3, 17, 29, 40, 52, 61, 70, 81, 95, 17]),
            (
                params(&path),
                path,
                vec![0, 9, 30, 31, 64, 90, 100, 110, 127, 30],
            ),
            (
                ModelParams::hybrid_with_global_capacity(64, 63),
                short_path,
                (0..64).collect(),
            ),
        ];
        let mut saw_outside = false;
        for (ci, (params, g, sources)) in cases.into_iter().enumerate() {
            let g = Arc::new(g);
            let seed = 40 + ci as u64;
            for variant in [KsspVariant::RandomSources, KsspVariant::ArbitrarySources] {
                let (reference, sk) = full_composition(&g, params, &sources, variant, seed);
                saw_outside |= sources.iter().any(|&s| !sk.contains(s));
                let mut net = HybridNetwork::new(Arc::clone(&g), params);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let out = kssp(&mut net, &sources, 1.0, variant, &mut rng);
                assert_eq!(out.skeleton_size, sk.len(), "case {ci} {variant:?}");
                assert_eq!(out.dist, reference, "case {ci} {variant:?}");

                // The convergence mix the case is here for.
                let (_, exact) = DistanceRows::hop_limited(&g, &sources, sk.h as usize);
                let converged = exact.iter().filter(|&&c| c).count();
                let mix = [
                    0 < converged && converged < exact.len(),
                    converged == exact.len(),
                    converged == 0,
                    converged == 0,
                ];
                assert!(
                    mix[ci],
                    "case {ci}: {converged} of {} rows exact",
                    exact.len()
                );
            }
        }
        assert!(saw_outside, "no source outside the skeleton");
    }

    /// A random weighted graph on at most 150 nodes — an Erdős–Rényi draw, a
    /// grid, a path, or a path beside an Erdős–Rényi draw — with weights in
    /// `1..=40`, 8 to 40 distinct sources and a global capacity below their
    /// number, so `kssp` takes a skeleton path.
    fn weighted_instance() -> impl Strategy<Value = (hybrid_graph::Graph, ModelParams, Vec<NodeId>)>
    {
        (0u8..4, 20usize..151, any::<u64>()).prop_map(|(kind, n, seed)| {
            let weigh = |g| generators::with_random_weights(&g, 1 + seed % 40, seed).unwrap();
            let er = |n: usize| weigh(generators::erdos_renyi(n, 3.0 / n as f64, seed).unwrap());
            let g = match kind {
                0 => er(n),
                1 => weigh(generators::grid(&[n / 10, 10]).unwrap()),
                2 => weigh(generators::path(n).unwrap()),
                _ => {
                    let (a, b) = (weigh(generators::path(n / 3).unwrap()), er(n - n / 3));
                    let mut union = GraphBuilder::new(n);
                    let shift = a.n() as NodeId;
                    for &(u, v, w) in a.edges() {
                        union.add_edge(u, v, w).unwrap();
                    }
                    for &(u, v, w) in b.edges() {
                        union.add_edge(u + shift, v + shift, w).unwrap();
                    }
                    union.build_unchecked_connectivity()
                }
            };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let k = rng.gen_range(8..=g.n().min(40));
            let sources = sample_distinct(g.n(), k, &mut rng);
            let params = ModelParams::hybrid_with_global_capacity(g.n(), rng.gen_range(1..k));
            (g, params, sources)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The hop-reset skeleton Dijkstra and the seeded sweeps give the
        /// labels of the swept table composed on the kernel, for sources in
        /// the skeleton (both variants) and proxied ones (arbitrary sources).
        #[test]
        fn kssp_matches_the_full_composition_on_random_weighted_graphs(
            (g, params, sources) in weighted_instance(),
            seed in any::<u64>(),
        ) {
            let g = Arc::new(g);
            for variant in [KsspVariant::RandomSources, KsspVariant::ArbitrarySources] {
                let (reference, sk) = full_composition(&g, params, &sources, variant, seed);
                let mut net = HybridNetwork::new(Arc::clone(&g), params);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let out = kssp(&mut net, &sources, 1.0, variant, &mut rng);
                prop_assert_eq!(out.skeleton_size, sk.len());
                prop_assert!(out.dist == reference, "{variant:?}: labels differ");
            }
        }
    }

    #[test]
    fn a_label_table_of_the_wrong_shape_is_a_violation() {
        use crate::stretch::StretchViolation::Misaligned;
        let g = Arc::new(generators::path(12).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let out = kssp(
            &mut net,
            &[1, 7],
            0.5,
            KsspVariant::ArbitrarySources,
            &mut rng,
        );
        assert!(out.verify_stretch(&g).is_ok());
        // The labels of a 12-node graph against an 11-node one: every row is
        // a node too long, and the first row is the one reported.
        let shorter = generators::path(11).unwrap();
        let err = out.verify_stretch(&shorter).unwrap_err();
        let first_row = Misaligned {
            row: Some(1),
            exact: 11,
            labels: 12,
        };
        assert_eq!(err, first_row);
    }

    #[test]
    fn empty_sources_is_noop() {
        let g = Arc::new(generators::cycle(12).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let out = kssp(&mut net, &[], 0.5, KsspVariant::RandomSources, &mut rng);
        assert!(out.dist.is_empty());
        assert_eq!(out.rounds, 0);
    }

    #[test]
    fn rounds_scale_like_sqrt_k_over_gamma() {
        let g = Arc::new(generators::grid(&[16, 16]).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let small_k = sample_distinct(g.n(), 32, &mut rng);
        let large_k = sample_distinct(g.n(), 200, &mut rng);

        let mut net_small = HybridNetwork::hybrid(Arc::clone(&g));
        let out_small = kssp(
            &mut net_small,
            &small_k,
            1.0,
            KsspVariant::RandomSources,
            &mut rng,
        );
        let mut net_large = HybridNetwork::hybrid(Arc::clone(&g));
        let out_large = kssp(
            &mut net_large,
            &large_k,
            1.0,
            KsspVariant::RandomSources,
            &mut rng,
        );

        // √(200/γ) vs √(32/γ): a factor ≈ 2.5; allow generous slack but the
        // growth must be far below linear in k (factor 6.25).
        assert!(out_large.rounds > out_small.rounds / 2);
        assert!(
            out_large.rounds < out_small.rounds * 5,
            "rounds grew too fast: {} -> {}",
            out_small.rounds,
            out_large.rounds
        );
    }

    #[test]
    fn baseline_and_lower_bound_shapes() {
        // Baseline Õ(n^{1/3} + √k) dominated by n^{1/3} for small k and by √k
        // for large k; crossover near k = n^{2/3}.
        let n = 4096;
        assert!(baseline_chlp21_rounds(n, 1) >= 16);
        assert!(baseline_chlp21_rounds(n, n) > baseline_chlp21_rounds(n, 1));
        assert!(kssp_lower_bound_rounds(100, 10) == 3);
        assert!(kssp_lower_bound_rounds(1, 10) == 1);
    }
}
