//! Deterministic token-forwarding broadcasting — the rival algorithm of the
//! deterministic universally-optimal broadcasting companion paper
//! (`[CHL23]`, arXiv:2304.06317), reproduced as a competing
//! [`crate::algorithm::DisseminationAlgorithm`] implementation.
//!
//! # Schedule
//!
//! The companion paper removes the randomized hashing / rank-matching tricks
//! of Theorem 1 and replaces them with a *deterministic token-forwarding
//! schedule*: tokens travel along a fixed overlay, each hop forwarding a
//! batch under the same `γ` budget, with no per-round random load balancing.
//! This module implements that schedule in its leader-funnelled form:
//!
//! 1. **Clustering** — the same deterministic `NQ_k`-radius clustering as
//!    Theorem 1 (Lemma 3.5; the greedy ruling set is deterministic, so this
//!    phase is shared verbatim);
//! 2. **Leader overlay** — the logarithmic-depth virtual tree over the
//!    cluster leaders (Lemma 4.6), plus one deterministic `hello` exchange
//!    between adjacent leaders instead of the randomized member
//!    rank-matching;
//! 3. **Gather** — every cluster funnels its tokens to its leader over the
//!    local network (`2·`weak-diameter rounds, mirroring the Lemma 4.1
//!    charge of the randomized pipeline);
//! 4. **Token forwarding** — leaders converge-cast their token sets up the
//!    tree and broadcast the union back down, *leader to leader*: a set of
//!    `T` tokens costs `⌈T/γ⌉` global rounds per hop because a single sender
//!    carries it, where Theorem 1 spreads the same payload over all cluster
//!    members.  Each forwarding hop also pays the `2·`weak-diameter
//!    *chain-traversal* bill (tokens cross the cluster locally to reach the
//!    forwarding leader) — the same per-level local charge as Theorem 1's
//!    re-balancing, so the two pipelines differ exactly in their global
//!    schedules.  This is exactly the price of determinism the shootout
//!    measures: on token-heavy clusters the funnel pays `Θ(T/γ)` where the
//!    randomized schedule pays `Θ(T/(γ·|C|))`, and when every per-level set
//!    fits into one `γ` budget the two schedules tie round for round
//!    (pinned by `crates/core/tests/rivals.rs`);
//! 5. **Flood** — each cluster floods the full set locally (weak-diameter
//!    rounds), as in Theorem 1.
//!
//! # What is shared and what is the rival's own
//!
//! The level loop, the per-level charges and the batch order belong to
//! [`crate::overlay`]'s `ClusterTree`; the token-bitset exchange and the
//! "count `k`" prologue to [`crate::dissemination`].  "Differ exactly in their global
//! schedules" is one enum value: this module sweeps the tree with
//! `HopSchedule::LeaderFunnel` where Theorem 1 uses
//! `HopSchedule::MemberSpread`.  The rest of what is written here is the
//! rival's own: the leader hello in place of the rank-matched chaining, its
//! phase labels, and that a leader ends up holding the whole set.
//!
//! The delivered token set is identical to Theorem 1's — both compute the
//! union of all placed tokens — which is what the differential conformance
//! suite (`crates/core/tests/conformance.rs`) asserts for every registered
//! implementation pair.  No random bits are drawn anywhere in the pipeline.

use hybrid_sim::HybridNetwork;

use crate::cluster::cluster_with_radius;
use crate::dissemination::{
    count_tokens, exchange_tokens, DisseminationOutput, RadiusPolicy, TokenPlacement,
};
use crate::nq::NqOracle;
use crate::overlay::{ClusterTree, HopSchedule};

/// Deterministic token-forwarding `k`-dissemination (`[CHL23]`): same
/// clustering and leader overlay as Theorem 1, but tokens are forwarded
/// leader-to-leader under a fixed deterministic schedule instead of being
/// load-balanced over cluster members with randomized rank matching.
pub fn det_token_forward_dissemination(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    tokens: &[TokenPlacement],
) -> DisseminationOutput {
    // Count k, then measure NQ_k (Lemma 3.3), as `k_dissemination` does —
    // the shootout compares like with like.
    let k = count_tokens(net, tokens);
    let (nq, setup_rounds) = RadiusPolicy::NeighborhoodQuality.radius(net, oracle, k);
    let (mut delivered, mut max_tokens_per_node) = (Vec::new(), 0);
    if k > 0 {
        // The deterministic Lemma 3.5 clustering and the Lemma 4.6 tree over
        // its leaders (shared with Theorem 1).
        let clustering = cluster_with_radius(net, nq, k);
        let tree = ClusterTree::build(net, clustering, HopSchedule::LeaderFunnel);

        // Deterministic leader hello — one message per tree edge per
        // direction (the substitute for randomized rank matching).
        let hellos = tree.introductions();
        if !hellos.is_empty() {
            net.deliver_global("det-broadcast/leader-hello", &hellos);
        }

        // Gather — members hand their tokens to the cluster leader over the
        // local network (same 2·weak-diameter charge as the Lemma 4.1 load
        // balancing it replaces) — then forward up and back down, leader to
        // leader: the scheduler turns a T-token payload from one sender into
        // ⌈T/γ⌉ rounds, and before every hop the tokens cross the cluster
        // locally to reach the forwarding leader (the chain-traversal step,
        // the same 2·weak-diameter bill Theorem 1 pays to re-balance).
        // Whatever the tree's shape, a leader ends up holding the full set.
        const TRAVERSAL: &str = "det-broadcast/chain-traversal";
        net.charge_local("det-broadcast/gather-to-leader", 2 * tree.weak_diameter());
        let up = [TRAVERSAL, "det-broadcast/forward-up"];
        let down = [TRAVERSAL, "det-broadcast/forward-down"];
        (delivered, max_tokens_per_node) = exchange_tokens(net, &tree, tokens, up, down);
        max_tokens_per_node = max_tokens_per_node.max(delivered.len() as u64);

        // Every cluster floods its (now complete) set locally.
        net.charge_local("det-broadcast/intra-cluster-flood", tree.weak_diameter());
    }
    DisseminationOutput {
        k,
        nq,
        radius: nq,
        rounds: net.rounds(),
        setup_rounds,
        meter: net.meter().clone(),
        tokens: delivered,
        max_tokens_per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissemination::{k_dissemination, place_tokens};
    use hybrid_graph::generators;
    use std::sync::Arc;

    fn setup(graph: hybrid_graph::Graph) -> (Arc<hybrid_graph::Graph>, NqOracle, HybridNetwork) {
        let g = Arc::new(graph);
        let oracle = NqOracle::new(&g);
        let net = HybridNetwork::hybrid(Arc::clone(&g));
        (g, oracle, net)
    }

    #[test]
    fn delivers_every_token() {
        let (_, oracle, mut net) = setup(generators::grid(&[10, 10]).unwrap());
        let tokens = place_tokens(&(0..100).collect::<Vec<_>>(), 40);
        let out = det_token_forward_dissemination(&mut net, &oracle, &tokens);
        assert_eq!(out.k, 40);
        assert_eq!(out.tokens, (0..40).collect::<Vec<u64>>());
        assert!(out.rounds > 0);
    }

    #[test]
    fn matches_theorem1_token_sets() {
        let g = generators::grid(&[12, 12]).unwrap();
        let tokens = place_tokens(&(0..144).collect::<Vec<_>>(), 100);
        let (_, oracle, mut net_d) = setup(g.clone());
        let det = det_token_forward_dissemination(&mut net_d, &oracle, &tokens);
        let (_, oracle_u, mut net_u) = setup(g);
        let uni = k_dissemination(&mut net_u, &oracle_u, &tokens);
        assert_eq!(det.tokens, uni.tokens);
        assert_eq!(det.nq, uni.nq);
    }

    #[test]
    fn zero_tokens_is_cheap() {
        let (_, oracle, mut net) = setup(generators::cycle(24).unwrap());
        let out = det_token_forward_dissemination(&mut net, &oracle, &[]);
        assert_eq!(out.k, 0);
        assert!(out.tokens.is_empty());
        let log_n = 5u64;
        assert!(out.rounds <= 4 * log_n * log_n);
    }

    #[test]
    fn concentrated_tokens_are_funnelled() {
        let (_, oracle, mut net) = setup(generators::grid(&[8, 8]).unwrap());
        let tokens = place_tokens(&[0], 32);
        let out = det_token_forward_dissemination(&mut net, &oracle, &tokens);
        assert_eq!(out.tokens.len(), 32);
        // The funnel signature: some leader carried the full set.
        assert_eq!(out.max_tokens_per_node, 32);
    }

    #[test]
    fn leader_funnel_never_beats_theorem1_on_heavy_loads() {
        // The deterministic schedule pays ⌈T/γ⌉ per hop on a T-token set;
        // Theorem 1 spreads the same payload over all cluster members.
        let g = generators::grid(&[16, 16]).unwrap();
        let tokens = place_tokens(&(0..256).collect::<Vec<_>>(), 256);
        let (_, oracle, mut net_d) = setup(g.clone());
        let det = det_token_forward_dissemination(&mut net_d, &oracle, &tokens);
        let (_, oracle_u, mut net_u) = setup(g);
        let uni = k_dissemination(&mut net_u, &oracle_u, &tokens);
        assert!(
            det.rounds >= uni.rounds,
            "deterministic funnel ({}) beat Theorem 1 ({})",
            det.rounds,
            uni.rounds
        );
    }
}
