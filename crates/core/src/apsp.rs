//! Universally optimal all-pairs shortest paths (Section 6):
//!
//! * [`apsp_unweighted`] — Theorem 6: deterministic `(1+ε)`-approximate APSP
//!   for unweighted graphs in `Õ(NQ_n/ε²)` rounds (Algorithm 3);
//! * [`apsp_weighted_spanner`] — Theorem 7: deterministic
//!   `(1 + ε·log n)`-approximation by broadcasting a spanner, and
//!   [`apsp_weighted_log_over_loglog`] — Corollary 2.3 with
//!   `ε = 1/log log n`;
//! * [`apsp_weighted_skeleton`] — Theorem 8: randomized `(4α−1)`-approximation
//!   via a skeleton graph plus a spanner of the skeleton (Algorithm 4);
//! * [`apsp_sparse_exact`] — Corollary 2.2: on graphs with `Õ(n)` edges,
//!   broadcast the whole graph and solve everything locally and exactly;
//! * [`baseline_unweighted_apsp_sqrt_n`] — the structured `Õ(√n)`
//!   comparison row of Table 2: Theorem 6's pipeline at the worst-case
//!   radius `min(⌈√n⌉, D)`.
//!
//! Table 2's literature row (exact `Õ(√n)` APSP, `[AHK+20]`, `[KS20]`,
//! `[AG21a]`) is not a function here: it is the closed form
//! [`crate::sssp::SsspBaseline::Ks20SqrtN`]`.rounds(n)`, not run.
//!
//! Every function returns the full `n × n` label table — a
//! [`DistanceRows`] whose sources are all nodes in id order;
//! [`ApspOutput::verify_stretch`] checks it row by row against exact
//! Dijkstra under the one label contract of [`crate::stretch`].

use hybrid_graph::{Graph, NodeId, Weight, INFINITY};
use hybrid_sim::HybridNetwork;
use rand::Rng;
use rayon::prelude::*;

use crate::dissemination::{disseminate_with_radius, RadiusPolicy, TokenPlacement};
use crate::minplus::kernel;
use crate::nq::NqOracle;
use crate::rows::DistanceRows;
use crate::skeleton::build_skeleton;
use crate::spanner::greedy_spanner;
use crate::sssp::sssp_round_cost;
use crate::stretch::StretchViolation;

/// Output of an APSP computation: the full label table plus metadata.
#[derive(Debug, Clone)]
pub struct ApspOutput {
    /// `dist[v][w]` is the label for the pair `(v, w)`.
    pub dist: DistanceRows,
    /// Promised stretch of the labels.
    pub stretch: f64,
    /// Short name of the algorithm that produced the labels.
    pub algorithm: &'static str,
}

impl ApspOutput {
    /// Verifies all labels against exact distances under the label contract
    /// and returns the maximum observed stretch
    /// ([`DistanceRows::verify_stretch`]: one streamed exact run per node, no
    /// exact matrix).  Call [`ApspOutput::verify_stretch_against`] instead
    /// when several outputs are checked against the same graph, so the `n`
    /// exact single-source runs are paid once.
    pub fn verify_stretch(&self, graph: &Graph) -> Result<f64, StretchViolation> {
        self.dist.verify_stretch(graph, self.stretch)
    }

    /// Verifies all labels against a precomputed exact table
    /// ([`DistanceRows::all_pairs`]) and returns the maximum observed
    /// stretch.
    pub fn verify_stretch_against(&self, exact: &DistanceRows) -> Result<f64, StretchViolation> {
        self.dist.verify_stretch_against(exact, self.stretch)
    }
}

/// Broadcasts `count > 0` abstract tokens with Theorem 1 and returns the
/// radius `policy` learned for them (helper shared by the APSP algorithms,
/// which broadcast identifiers, spanner edges, cluster-center distances, …).
fn broadcast_tokens_with_policy(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    count: usize,
    origin: NodeId,
    policy: RadiusPolicy,
) -> u64 {
    let tokens: Vec<TokenPlacement> = (0..count as u64).map(|i| (origin, i)).collect();
    disseminate_with_radius(net, oracle, &tokens, policy).radius
}

/// Every node id in order: the source list of an APSP table.
fn all_nodes(n: usize) -> Vec<NodeId> {
    (0..n as NodeId).collect()
}

/// Broadcast with the universal (`NQ_k`) radius; nothing for no tokens.
fn broadcast_tokens(net: &mut HybridNetwork, oracle: &NqOracle, count: usize, origin: NodeId) {
    if count > 0 {
        broadcast_tokens_with_policy(
            net,
            oracle,
            count,
            origin,
            RadiusPolicy::NeighborhoodQuality,
        );
    }
}

/// Theorem 6 / Algorithm 3 — deterministic `(1+ε)`-approximate APSP for
/// unweighted graphs in `Õ(NQ_n/ε²)` rounds (`Hybrid0`).
pub fn apsp_unweighted(net: &mut HybridNetwork, oracle: &NqOracle, epsilon: f64) -> ApspOutput {
    apsp_unweighted_with_policy(net, oracle, epsilon, RadiusPolicy::NeighborhoodQuality)
}

/// The existentially optimal comparison for Theorem 6: the **identical**
/// pipeline (Algorithm 3) run with the worst-case radius `min(⌈√n⌉, D)`
/// instead of `NQ_n` — i.e. the way an algorithm that cannot exploit the
/// topology behaves, costing `Õ(√n/ε²)` rounds on every graph.
pub fn baseline_unweighted_apsp_sqrt_n(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    epsilon: f64,
) -> ApspOutput {
    let mut out = apsp_unweighted_with_policy(net, oracle, epsilon, RadiusPolicy::WorstCaseSqrtK);
    out.algorithm = "baseline-sqrt-n-unweighted-apsp";
    out
}

fn apsp_unweighted_with_policy(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    epsilon: f64,
    policy: RadiusPolicy,
) -> ApspOutput {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    assert!(
        !net.graph().is_weighted(),
        "Theorem 6 applies to unweighted graphs"
    );
    let graph = net.graph_arc();
    let n = graph.n();
    // The analysis yields stretch 1 + 3ε' + ε'^2 < 1 + 4ε' for internal ε';
    // run with ε' = ε/4 to deliver the promised 1 + ε.
    let eps_internal = epsilon / 4.0;

    // Step 1–2: broadcast identifiers, cluster with k = n at the radius the
    // broadcast learned.
    let radius = broadcast_tokens_with_policy(net, oracle, n, 0, policy);
    let clustering = crate::cluster::cluster_with_radius(net, radius, n as u64);
    let leaders: Vec<NodeId> = clustering.clusters.iter().map(|c| c.leader).collect();

    // Step 3: (1+ε)-SSSP from every cluster leader (Theorem 13), |R| ≤ NQ_n
    // instances run sequentially.
    let t_sssp = sssp_round_cost(net, eps_internal);
    net.charge_rounds(
        "apsp-unweighted/sssp-from-leaders",
        t_sssp.saturating_mul(leaders.len() as u64),
    );
    // One BFS per leader (unweighted ⇒ hop = weighted distance); the raw
    // rows double as the "hop distance to my leader" table in Step 5, so no
    // per-node BFS is ever run.
    let leader_hops = DistanceRows::compute(&graph, &leaders);
    let leader_dist = leader_hops.quantized(eps_internal);

    // Step 4: every node learns its x-hop neighbourhood,
    // x = 4·NQ_n·⌈log n⌉ / ε'.
    let log_n = net.log_n();
    let x = (((4 * clustering.nq * log_n) as f64 / eps_internal).ceil() as u64).max(1);
    net.charge_local(
        "apsp-unweighted/learn-x-ball",
        oracle.diameter_min(x).max(1),
    );

    // Step 5: every node broadcasts its closest cluster leader and the
    // distance to it (2n tokens).
    broadcast_tokens_with_policy(net, oracle, 2 * n, 0, policy);
    // Closest leader of node w is the leader of its cluster; its hop distance
    // is exact (learned over the local network within the cluster).
    let closest_leader: Vec<usize> = (0..n).map(|v| clustering.cluster_of[v]).collect();
    let dist_to_leader: Vec<Weight> = (0..n).map(|v| leader_hops[closest_leader[v]][v]).collect();

    // Step 6: compose labels (one bounded BFS per node).
    let dist = DistanceRows::sweep(&graph, &all_nodes(n), |ws, v| {
        ws.run_bfs_bounded(&graph, v, x);
        let ball = ws.dist();
        if ws.reached().len() == n {
            // The x-ball covers the whole graph (common: x has a 1/ε
            // factor) — the row is exactly the ball distances.
            return ball.to_vec();
        }
        (0..n)
            .map(|w| {
                if ball[w] != INFINITY {
                    ball[w]
                } else {
                    let cw = closest_leader[w];
                    leader_dist[cw][v as usize].saturating_add(dist_to_leader[w])
                }
            })
            .collect()
    });

    ApspOutput {
        dist,
        stretch: 1.0 + epsilon,
        algorithm: "theorem6-unweighted-apsp",
    }
}

/// Theorem 7 — deterministic `(1 + ε·log n)`-approximate weighted APSP in
/// `Õ(2^{1/ε}·NQ_n)` rounds: build a `(2k−1)`-spanner for
/// `k = ⌈ε·log n / 2⌉`, broadcast it, answer locally.
pub fn apsp_weighted_spanner(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    epsilon: f64,
) -> ApspOutput {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let graph = net.graph_arc();
    let log_n = net.log_n() as f64;
    let k = ((epsilon * log_n / 2.0).ceil() as u64).max(1);

    let spanner = greedy_spanner(net, &graph, k);
    // Broadcast the m* spanner edges with Theorem 1.
    broadcast_tokens(net, oracle, spanner.m(), 0);

    // Every node answers locally from the spanner (which inherits the
    // generators' small weights, so this takes the bucket-queue path).
    let dist = DistanceRows::all_pairs(&spanner.graph);

    ApspOutput {
        dist,
        stretch: spanner.stretch as f64,
        algorithm: "theorem7-spanner-apsp",
    }
}

/// Corollary 2.3 — the `O(log n / log log n)`-approximation obtained by
/// running Theorem 7 with `ε = 1/log log n`.
pub fn apsp_weighted_log_over_loglog(net: &mut HybridNetwork, oracle: &NqOracle) -> ApspOutput {
    let n = net.graph().n().max(4) as f64;
    let eps = 1.0 / n.ln().ln().max(1.0);
    let mut out = apsp_weighted_spanner(net, oracle, eps);
    out.algorithm = "corollary2.3-log-over-loglog-apsp";
    out
}

/// Theorem 8 / Algorithm 4 — randomized `(4α−1)`-approximate weighted APSP in
/// `Õ(n^{1/(3α+1)}·NQ_n^{2/(3+1/α)} + NQ_n)` rounds, via a skeleton graph and
/// a spanner of the skeleton.
pub fn apsp_weighted_skeleton(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    alpha: u64,
    rng: &mut impl Rng,
) -> ApspOutput {
    assert!(alpha >= 1, "alpha must be at least 1");
    let graph = net.graph_arc();
    let n = graph.n();
    let nq_n = oracle.nq(n as u64).max(1) as f64;
    let alpha_f = alpha as f64;
    let t = ((n as f64).powf(1.0 / (3.0 * alpha_f + 1.0)) * nq_n.powf(2.0 / (3.0 + 1.0 / alpha_f)))
        .max(1.0);

    // Broadcast identifiers.
    broadcast_tokens(net, oracle, n, 0);

    // Skeleton with sampling probability 1/t, spanner of the skeleton.
    let skeleton = build_skeleton(net, t, &[], rng);
    let spanner = greedy_spanner(net, &skeleton.graph(), alpha);
    broadcast_tokens(net, oracle, spanner.m(), 0);

    // Every node learns its h-hop neighbourhood (h = ξ·t·ln n), finds its
    // closest skeleton node and broadcasts it together with the h-hop distance.
    let h = skeleton.h;
    net.charge_local("apsp-skeleton/learn-h-ball", oracle.diameter_min(h).max(1));
    broadcast_tokens(net, oracle, 2 * n, 0);

    // Data level: one hop-limited sweep per node.
    let nodes = all_nodes(n);
    let (hop_from_node, _) = DistanceRows::hop_limited(&graph, &nodes, h as usize);
    // Closest skeleton node per node (by h-hop distance).
    let closest_skeleton: Vec<Option<(usize, Weight)>> = (0..n)
        .map(|v| {
            skeleton
                .nodes
                .iter()
                .enumerate()
                .map(|(j, &u)| (j, hop_from_node[v][u as usize]))
                .filter(|&(_, d)| d != INFINITY)
                .min_by_key(|&(_, d)| d)
        })
        .collect();
    // (2α−1)-approximate distances between skeleton nodes from the spanner.
    let spanner_dist = DistanceRows::all_pairs(&spanner.graph);

    // Label composition: node v composes through its closest skeleton node
    // vs with offset d^h(v, vs), against precomposed rows
    // R[s][w] = spanner_dist(s, ws) ⊕ d^h(w, ws) — i.e.
    // dist[v][w] = min(d^h(v, w), dvs ⊕ spanner_dist(vs, ws) ⊕ dws),
    // exactly the Algorithm 4 label, with the |S|·n precompose replacing an
    // n² gather over the spanner matrix.  One unit coefficient per node, so
    // the (min,+) product is one fold of R[vs] into v's own h-hop row.
    let compose_rows: Vec<Vec<Weight>> = (0..skeleton.len())
        .into_par_iter()
        .map(|s| {
            (0..n)
                .map(|w| match closest_skeleton[w] {
                    Some((ws, dws)) => spanner_dist[s][ws].saturating_add(dws),
                    None => INFINITY,
                })
                .collect()
        })
        .with_min_len(8)
        .collect();
    let mut labels = hop_from_node.into_rows();
    for (label, closest) in labels.iter_mut().zip(&closest_skeleton) {
        if let Some((vs, offset)) = *closest {
            kernel::fold_min_sat(label, &compose_rows[vs], offset);
        }
    }
    ApspOutput {
        dist: DistanceRows::from_rows(nodes, n, labels),
        stretch: (4 * alpha - 1) as f64,
        algorithm: "theorem8-skeleton-apsp",
    }
}

/// Corollary 2.2 — on sparse graphs (`m ∈ Õ(n)`), broadcast the whole graph
/// with Theorem 1 and solve any graph problem (here: exact weighted APSP)
/// locally, in `Õ(NQ_n)` rounds.
pub fn apsp_sparse_exact(net: &mut HybridNetwork, oracle: &NqOracle) -> ApspOutput {
    let graph = net.graph_arc();
    broadcast_tokens(net, oracle, graph.m(), 0);
    ApspOutput {
        dist: DistanceRows::all_pairs(&graph),
        stretch: 1.0,
        algorithm: "corollary2.2-sparse-exact-apsp",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    fn setup(graph: Graph) -> (Arc<Graph>, NqOracle, HybridNetwork) {
        let g = Arc::new(graph);
        let oracle = NqOracle::new(&g);
        let net = HybridNetwork::hybrid(Arc::clone(&g));
        (g, oracle, net)
    }

    #[test]
    fn unweighted_apsp_stretch_holds_on_grid() {
        let (g, oracle, mut net) = setup(generators::grid(&[7, 7]).unwrap());
        let out = apsp_unweighted(&mut net, &oracle, 0.5);
        let worst = out.verify_stretch(&g).unwrap();
        assert!(worst <= 1.5);
        assert!(net.rounds() > 0);
    }

    #[test]
    fn unweighted_apsp_stretch_holds_on_tree_and_cycle() {
        for g in [
            generators::tree_with_n(2, 63).unwrap(),
            generators::cycle(40).unwrap(),
        ] {
            let (g, oracle, mut net) = setup(g);
            let out = apsp_unweighted(&mut net, &oracle, 0.8);
            out.verify_stretch(&g).unwrap();
        }
    }

    #[test]
    fn a_label_matrix_of_the_wrong_shape_is_a_violation() {
        use crate::stretch::StretchViolation::Misaligned;
        let (g, oracle, mut net) = setup(generators::path(6).unwrap());
        let out = apsp_sparse_exact(&mut net, &oracle);
        let exact = DistanceRows::all_pairs(&g);
        assert_eq!(out.verify_stretch_against(&exact), Ok(1.0));
        // Neither an exact table that misses a source nor label rows of
        // another length are checked on the common prefix.
        let five_sources = DistanceRows::compute(&g, &[0, 1, 2, 3, 4]);
        let short = out.verify_stretch_against(&five_sources);
        assert!(matches!(short, Err(Misaligned { row: None, .. })));
        for other_n in [5, 8] {
            let other = generators::path(other_n).unwrap();
            let err = out.verify_stretch(&other).unwrap_err();
            assert!(matches!(err, Misaligned { row: Some(0), .. }));
        }
    }

    #[test]
    #[should_panic(expected = "unweighted")]
    fn unweighted_apsp_rejects_weighted_input() {
        let (_, oracle, mut net) = setup(generators::weighted_grid(&[4, 4], 5, 1).unwrap());
        apsp_unweighted(&mut net, &oracle, 0.5);
    }

    #[test]
    fn spanner_apsp_stretch_holds_weighted() {
        let er = generators::erdos_renyi(48, 0.15, 2).unwrap();
        let (g, oracle, mut net) = setup(generators::with_random_weights(&er, 12, 2).unwrap());
        let out = apsp_weighted_spanner(&mut net, &oracle, 0.6);
        let worst = out.verify_stretch(&g).unwrap();
        assert!(worst <= out.stretch);
    }

    #[test]
    fn log_over_loglog_apsp_has_moderate_stretch() {
        let (g, oracle, mut net) = setup(generators::weighted_grid(&[6, 6], 9, 3).unwrap());
        let out = apsp_weighted_log_over_loglog(&mut net, &oracle);
        out.verify_stretch(&g).unwrap();
        // O(log n / log log n) for n = 36 is small; sanity-bound it.
        assert!(out.stretch <= 2.0 * (g.n() as f64).ln());
    }

    #[test]
    fn skeleton_apsp_stretch_holds() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (g, oracle, mut net) = setup(generators::weighted_grid(&[7, 7], 6, 4).unwrap());
        let out = apsp_weighted_skeleton(&mut net, &oracle, 1, &mut rng);
        let worst = out.verify_stretch(&g).unwrap();
        assert!(worst <= 3.0);
        assert_eq!(out.stretch, 3.0);
    }

    #[test]
    fn sparse_exact_apsp_is_exact() {
        let (g, oracle, mut net) = setup(generators::tree_with_n(3, 121).unwrap());
        let out = apsp_sparse_exact(&mut net, &oracle);
        let worst = out.verify_stretch(&g).unwrap();
        assert!((worst - 1.0).abs() < 1e-12);
    }

    #[test]
    fn universal_apsp_beats_structured_sqrt_n_baseline_on_grid() {
        let (g, oracle, mut net_u) = setup(generators::grid(&[12, 12]).unwrap());
        let uni = apsp_unweighted(&mut net_u, &oracle, 0.9);
        uni.verify_stretch(&g).unwrap();
        let (_, oracle_b, mut net_b) = setup(generators::grid(&[12, 12]).unwrap());
        let base = baseline_unweighted_apsp_sqrt_n(&mut net_b, &oracle_b, 0.9);
        base.verify_stretch(&g).unwrap();
        // Table 2 shape: Õ(NQ_n) vs Õ(√n) through the same machinery — the
        // universal radius is smaller, so the universal run is faster.
        let (uni, base) = (net_u.rounds(), net_b.rounds());
        assert!(
            uni < base,
            "universal {uni} not faster than structured baseline {base}"
        );
    }
}
