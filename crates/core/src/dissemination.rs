//! Universally optimal multi-message broadcast: `k`-dissemination
//! (Theorem 1), `k`-aggregation (Theorem 2), the existentially optimal
//! `Õ(√k)` baseline of `[AHK+20]` used as the comparison row of Table 1, and
//! the deterministic token-forwarding rival of `[CHL23]` (arXiv:2304.06317).
//!
//! # Algorithm (Theorem 1, see also Figure 2 of the paper)
//!
//! 1. **Clustering** — partition `V` into clusters of weak diameter
//!    `Õ(NQ_k)` and size `Θ(k/NQ_k)` (Lemma 3.5);
//! 2. **Cluster chaining** — build a logarithmic-depth, logarithmic-degree
//!    virtual tree over the cluster leaders (Lemma 4.6) and rank-match the
//!    members of adjacent clusters so they can talk over the global network;
//! 3. **Load balancing** — spread each cluster's tokens evenly over its
//!    members (Lemma 4.1), so nobody holds more than `≈ NQ_k` tokens;
//! 4. **Dissemination** — converge-cast all tokens up the cluster tree and
//!    broadcast them back down (each hop is a batch of global messages,
//!    scheduled under the per-node capacity), then flood inside each cluster
//!    over the local network.
//!
//! Steps 2 and 4 run on [`crate::overlay`]'s `ClusterTree`, which owns the
//! level loop, the per-level charges and the Lemma 4.1 carrier rule
//! (`HopSchedule::MemberSpread`).  What lives here is what is Theorem 1's or
//! Theorem 2's own: what crosses a tree edge (the popcount of a token bitset,
//! or `k` partial aggregates), what a merge means (word-wise OR, or `f`), the
//! rank-matched chaining, the aggregation's root flood, and the phase labels.
//!
//! The *baseline* runs the identical pipeline with the radius forced to
//! `min(√k, D)` — the best bound available without looking at the topology,
//! learned in `Õ(√k)` rounds of its own — which is exactly how the
//! existentially optimal algorithms behave.  Either policy pays for learning
//! its radius (`RadiusPolicy::radius`) after the "count `k`" prologue.  On
//! graphs whose neighbourhoods grow faster than a path's, `NQ_k ≪ √k` and the
//! universal algorithm wins; on paths the two coincide (Theorem 15).
//!
//! # The deterministic rival (`[CHL23]`)
//!
//! The companion paper drops Theorem 1's randomized load balancing for a
//! deterministic token-forwarding schedule: the same `NQ_k` radius, the same
//! Lemma 3.5 clustering and Lemma 4.6 leader tree, but every cluster funnels
//! its tokens to its leader (`2·`weak-diameter local rounds) and the leaders
//! forward the sets up the tree and back down themselves.  A `T`-token hop
//! then costs `⌈T/γ⌉` global rounds where Theorem 1's member spread pays
//! `≈ ⌈T/(γ·|C|)⌉`, and each hop pays the same `2·`weak-diameter local bill
//! (the tokens cross the cluster to the forwarding leader) as Theorem 1's
//! re-balancing.  That is the price of determinism the shootout measures;
//! when every level's set fits into one `γ` budget the two tie round for
//! round (pinned by `crates/core/tests/rivals.rs`).
//!
//! Both run one engine: the rival is `HopSchedule::LeaderFunnel` in place of
//! `MemberSpread`, a leader hello in place of the rank-matched chaining (the
//! same `introductions` call), its own phase labels, and the rule that a
//! leader ends up holding the whole set.  The delivered token set is
//! Theorem 1's, and no random bits are drawn anywhere in the pipeline.

use hybrid_graph::NodeId;
use hybrid_sim::{CostMeter, HybridNetwork};

use crate::cluster::cluster_with_radius;
use crate::nq::{compute_nq, NqOracle};
use crate::overlay::{basic_aggregation, basic_aggregation_rounds, ClusterTree, HopSchedule};

/// A token to broadcast: the node that initially holds it and its value.
pub type TokenPlacement = (NodeId, u64);

/// Which radius policy the dissemination engine used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadiusPolicy {
    /// The universal algorithm: radius `NQ_k` (Theorem 1).
    NeighborhoodQuality,
    /// The existential baseline: radius `min(⌈√k⌉, D)` (`[AHK+20]`).
    WorstCaseSqrtK,
    /// An explicitly chosen radius (used by tests and ablations).
    Fixed(u64),
}

impl RadiusPolicy {
    /// The clustering radius the policy prescribes for `k` counted tokens,
    /// learned on `net`, and the rounds learning it charged.
    ///
    /// * `NeighborhoodQuality` — the distributed `NQ_k` measurement of
    ///   Lemma 3.3 ([`compute_nq`]).  A node cannot run it before `k` is
    ///   counted, so every caller counts first.
    /// * `WorstCaseSqrtK` — `min(⌈√k⌉, D)`, the only bound available without
    ///   inspecting the topology.  Reading `D` is not free: after `s = ⌈√k⌉`
    ///   rounds of flooding every node `v` knows whether its ball stopped
    ///   growing within `s` hops, i.e. it knows `min(ecc(v), s)`, and one
    ///   Lemma 4.4 max-aggregation of those values hands
    ///   `max_v min(ecc(v), s) = min(s, D)` to every node.  That is `s` local
    ///   rounds plus `Õ(1)`, within the baseline's own `Õ(√k)`.
    /// * `Fixed` — the caller already knows the radius: nothing.
    pub(crate) fn radius(self, net: &mut HybridNetwork, oracle: &NqOracle, k: u64) -> (u64, u64) {
        match self {
            RadiusPolicy::NeighborhoodQuality => {
                let measured = compute_nq(net, oracle, k);
                (measured.nq.max(1), measured.rounds)
            }
            RadiusPolicy::WorstCaseSqrtK => {
                let s = (k.max(1) as f64).sqrt().ceil() as u64;
                net.charge_local("radius/flood-sqrt-k", s);
                let capped: Vec<u64> = (0..oracle.n() as NodeId)
                    .map(|v| oracle.eccentricity_min(v, s))
                    .collect();
                let radius = basic_aggregation(net, &capped, u64::max);
                debug_assert_eq!(radius, oracle.diameter_min(s));
                (radius.max(1), s + basic_aggregation_rounds(net))
            }
            RadiusPolicy::Fixed(radius) => (radius, 0),
        }
    }
}

/// Output of a `k`-dissemination run.
#[derive(Debug, Clone)]
pub struct DisseminationOutput {
    /// Number of distinct tokens broadcast.
    pub k: u64,
    /// The measured `NQ_k` of the graph (for reference, also for baseline runs).
    pub nq: u64,
    /// The radius parameter the run actually used.
    pub radius: u64,
    /// The network's round count at return: `meter.rounds()`.
    pub rounds: u64,
    /// What learning the radius charged (`RadiusPolicy::radius`).
    pub setup_rounds: u64,
    /// The network's cost trace at return.
    pub meter: CostMeter,
    /// The sorted set of token values every node knows at the end, decoded
    /// from what the clusters hold after the broadcast.
    pub tokens: Vec<u64>,
    /// Maximum number of tokens any single node had to hold after load
    /// balancing (≈ radius, by Lemma 4.1 + Lemma 3.5; the whole set under the
    /// leader funnel).
    pub max_tokens_per_node: u64,
}

/// Output of a `k`-aggregation run.
#[derive(Debug, Clone)]
pub struct AggregationOutput {
    /// Number of aggregation functions (`k`).
    pub k: u64,
    /// The measured `NQ_k`.
    pub nq: u64,
    /// The `k` aggregate values, known to every node at the end.
    pub results: Vec<u64>,
}

/// Every contender's token exchange over a standing cluster tree: each
/// cluster starts with the tokens placed on its members, the sets are
/// converge-cast to the root (one payload unit per token held, a parent ORs
/// in what its children sent) and the root's set is broadcast back down (one
/// unit per distinct token and edge).  `up` and `down` are the sweeps'
/// `[local, global]` labels.  Returns the delivered values and the most
/// tokens any one node carried up.
///
/// Token sets are fixed-universe bitsets over the sorted distinct token
/// values, so unions are word-wide ORs and payload sizes popcounts — only the
/// data level is cheap, the schedule handed to the global scheduler is one
/// message per token.
fn exchange_tokens(
    net: &mut HybridNetwork,
    tree: &ClusterTree,
    tokens: &[TokenPlacement],
    up: [&'static str; 2],
    down: [&'static str; 2],
) -> (Vec<u64>, u64) {
    let mut universe: Vec<u64> = tokens.iter().map(|&(_, v)| v).collect();
    universe.sort_unstable();
    universe.dedup();
    let clustering = tree.clustering();
    let mut sets = vec![vec![0u64; universe.len().div_ceil(64)]; clustering.len()];
    for &(holder, value) in tokens {
        let bit = universe
            .binary_search(&value)
            .expect("value is in the universe");
        sets[clustering.cluster_of[holder as usize]][bit / 64] |= 1u64 << (bit % 64);
    }
    let carried = tree.converge_cast(
        net,
        up,
        &mut sets,
        |set| set.iter().map(|w| w.count_ones() as usize).sum(),
        |parent, child| parent.iter_mut().zip(child).for_each(|(p, c)| *p |= c),
    );
    tree.broadcast(net, down, &mut sets, universe.len());
    (held_by_all(&universe, &sets), carried)
}

/// The delivered set: the values of `universe` whose bit *every* set holds,
/// ascending.  After a correct exchange that is the whole universe; a merge
/// that lost a token or a level the sweep skipped shows up here as a missing
/// value — in release builds too.
fn held_by_all(universe: &[u64], sets: &[Vec<u64>]) -> Vec<u64> {
    let mut common = vec![u64::MAX; universe.len().div_ceil(64)];
    for set in sets {
        common.iter_mut().zip(set).for_each(|(c, w)| *c &= w);
    }
    let held = |bit: &usize| common[bit / 64] >> (bit % 64) & 1 == 1;
    let bits = (0..universe.len()).filter(held);
    bits.map(|bit| universe[bit]).collect()
}

/// Phase 0 of every dissemination contender: count `k` with the basic
/// aggregation primitive (Lemma 4.4).
fn count_tokens(net: &mut HybridNetwork, tokens: &[TokenPlacement]) -> u64 {
    let mut counts = vec![0u64; net.graph().n()];
    for &(holder, _) in tokens {
        counts[holder as usize] += 1;
    }
    let counted = basic_aggregation(net, &counts, |a, b| a + b);
    debug_assert_eq!(counted, tokens.len() as u64);
    counted
}

/// Theorem 1 — universally optimal `k`-dissemination in `Õ(NQ_k)` rounds
/// (deterministic, `Hybrid0`), the Lemma 3.3 measurement of `NQ_k` included.
pub fn k_dissemination(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    tokens: &[TokenPlacement],
) -> DisseminationOutput {
    disseminate_with_radius(net, oracle, tokens, RadiusPolicy::NeighborhoodQuality)
}

/// The existentially optimal baseline (`[AHK+20]`): the identical pipeline with
/// the worst-case radius `min(⌈√k⌉, D)` instead of `NQ_k`, costing `Õ(√k)`
/// rounds on every graph, reading `D` included.
pub fn baseline_sqrt_k_dissemination(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    tokens: &[TokenPlacement],
) -> DisseminationOutput {
    disseminate_with_radius(net, oracle, tokens, RadiusPolicy::WorstCaseSqrtK)
}

/// Deterministic token-forwarding `k`-dissemination (`[CHL23]`): Theorem 1's
/// radius, clustering and leader tree, with every tree hop carried leader to
/// leader instead of load-balanced over the cluster members.
pub fn det_token_forward_dissemination(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    tokens: &[TokenPlacement],
) -> DisseminationOutput {
    let policy = RadiusPolicy::NeighborhoodQuality;
    disseminate(net, oracle, tokens, policy, HopSchedule::LeaderFunnel)
}

/// Theorem 1's pipeline (`MemberSpread`) with the clustering radius `policy`
/// prescribes for the counted `k`, learned on `net` once `k` is known.
pub fn disseminate_with_radius(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    tokens: &[TokenPlacement],
    policy: RadiusPolicy,
) -> DisseminationOutput {
    disseminate(net, oracle, tokens, policy, HopSchedule::MemberSpread)
}

/// The phase labels of one hop schedule.
struct PhaseLabels {
    /// The introductions between adjacent clusters' carriers.
    introduce: &'static str,
    /// Moving the placed tokens onto the carriers before the first hop.
    gather: &'static str,
    /// The local phase before every hop that moves tokens.
    hop: &'static str,
    /// The converge-cast's global batches.
    up: &'static str,
    /// The broadcast's global batches.
    down: &'static str,
    /// The closing intra-cluster flood.
    flood: &'static str,
}

impl PhaseLabels {
    /// Theorem 1's labels under `MemberSpread`, `[CHL23]`'s under
    /// `LeaderFunnel`.
    fn of(schedule: HopSchedule) -> Self {
        const BALANCE: &str = "dissemination/load-balance";
        match schedule {
            HopSchedule::MemberSpread => PhaseLabels {
                introduce: "dissemination/cluster-chaining",
                gather: BALANCE,
                hop: BALANCE,
                up: "dissemination/converge-cast-up",
                down: "dissemination/broadcast-down",
                flood: "dissemination/intra-cluster-flood",
            },
            HopSchedule::LeaderFunnel => PhaseLabels {
                introduce: "det-broadcast/leader-hello",
                gather: "det-broadcast/gather-to-leader",
                hop: "det-broadcast/chain-traversal",
                up: "det-broadcast/forward-up",
                down: "det-broadcast/forward-down",
                flood: "det-broadcast/intra-cluster-flood",
            },
        }
    }
}

/// The one dissemination pipeline: count `k`, learn the radius `policy`
/// prescribes, cluster, build the leader tree with `schedule`, introduce the
/// carriers, gather, exchange the tokens up and down the tree, flood.
fn disseminate(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    tokens: &[TokenPlacement],
    policy: RadiusPolicy,
    schedule: HopSchedule,
) -> DisseminationOutput {
    let labels = PhaseLabels::of(schedule);
    let k = count_tokens(net, tokens);
    let (radius, setup_rounds) = policy.radius(net, oracle, k);
    let (mut delivered, mut max_tokens_per_node) = (Vec::new(), 0);
    if k > 0 {
        // Clustering with the prescribed radius (Lemma 3.5) and the cluster
        // tree over the leaders (Lemma 4.6).
        let clustering = cluster_with_radius(net, radius, k);
        let tree = ClusterTree::build(net, clustering, schedule);

        // The carriers of adjacent clusters exchange identifiers over the
        // global network: rank-matched members, or the leaders' hello.
        net.deliver_global(labels.introduce, &tree.introductions());

        // Move the placed tokens onto the carriers (Lemma 4.1's balancing, or
        // the gather to the leader), then all tokens up the cluster tree and
        // back down, with the local phase before every level that sends.
        net.charge_local(labels.gather, 2 * tree.weak_diameter());
        let up = [labels.hop, labels.up];
        let down = [labels.hop, labels.down];
        (delivered, max_tokens_per_node) = exchange_tokens(net, &tree, tokens, up, down);
        if schedule == HopSchedule::LeaderFunnel {
            // Whatever the tree's shape, a leader ends up holding the whole set.
            max_tokens_per_node = max_tokens_per_node.max(delivered.len() as u64);
        }

        // Flood all tokens inside each cluster over the local network.
        net.charge_local(labels.flood, tree.weak_diameter());
    }
    // Under the universal policy the radius *is* NQ_k: no second scan.
    let nq = match policy {
        RadiusPolicy::NeighborhoodQuality => radius,
        _ => oracle.nq(k),
    };
    DisseminationOutput {
        k,
        nq,
        radius,
        rounds: net.rounds(),
        setup_rounds,
        meter: net.meter().clone(),
        tokens: delivered,
        max_tokens_per_node,
    }
}

/// Theorem 2 — universally optimal `k`-aggregation in `Õ(NQ_k)` rounds:
/// every node holds `k` values `f_1(v), …, f_k(v)`; afterwards every node
/// knows `F(f_i(v_1), …, f_i(v_n))` for all `i`.
///
/// `values[v]` must have length `k` for every node `v`; `f` must be
/// associative and commutative.
pub fn k_aggregation(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    values: &[Vec<u64>],
    f: impl Fn(u64, u64) -> u64 + Copy,
) -> AggregationOutput {
    assert_eq!(
        values.len(),
        net.graph().n(),
        "one value vector per node required"
    );
    let k = values.first().map_or(0, Vec::len);
    assert!(
        values.iter().all(|v| v.len() == k),
        "every node must hold exactly k values"
    );
    if k == 0 {
        return AggregationOutput {
            k: 0,
            nq: oracle.nq(1),
            results: Vec::new(),
        };
    }
    let fold = |acc: &mut Vec<u64>, other: &Vec<u64>| {
        for (a, &x) in acc.iter_mut().zip(other) {
            *a = f(*a, x);
        }
    };

    let nq = compute_nq(net, oracle, k as u64).nq.max(1);
    let clustering = cluster_with_radius(net, nq, k as u64);

    // Phase 1: intra-cluster aggregation over the local network
    // (weak-diameter rounds), then load balancing.
    let mut partials: Vec<Vec<u64>> = Vec::with_capacity(clustering.len());
    for c in &clustering.clusters {
        let mut agg = values[c.members[0] as usize].clone();
        for &m in &c.members[1..] {
            fold(&mut agg, &values[m as usize]);
        }
        partials.push(agg);
    }
    let wd = clustering.weak_diameter_bound.max(1);
    net.charge_local("aggregation/intra-cluster", wd);
    net.charge_local("aggregation/load-balance", 2 * wd);

    // Phase 2: converge-cast the k partial aggregates up the cluster tree.
    let tree = ClusterTree::build(net, clustering, HopSchedule::MemberSpread);
    let up = ["aggregation/load-balance", "aggregation/converge-cast-up"];
    tree.converge_cast(net, up, &mut partials, |_| k, fold);
    let results = partials.swap_remove(tree.root());

    // Phase 3: flood the results inside the root cluster, then disseminate
    // them to the whole graph with Theorem 1.
    net.charge_local("aggregation/root-flood", wd);
    let root_leader = tree.clustering().clusters[tree.root()].leader;
    let result_tokens: Vec<TokenPlacement> = results.iter().map(|&r| (root_leader, r)).collect();
    let _ = disseminate_with_radius(net, oracle, &result_tokens, RadiusPolicy::Fixed(nq));

    AggregationOutput {
        k: k as u64,
        nq,
        results,
    }
}

/// Helper used by tests and benches: place `k` tokens with values `0..k` on
/// nodes selected round-robin from `holders` (or adversarially concentrated
/// on a single node when `holders` has one element).
pub fn place_tokens(holders: &[NodeId], k: u64) -> Vec<TokenPlacement> {
    assert!(!holders.is_empty());
    (0..k)
        .map(|t| (holders[(t as usize) % holders.len()], t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;
    use std::sync::Arc;

    fn setup(graph: hybrid_graph::Graph) -> (Arc<hybrid_graph::Graph>, NqOracle, HybridNetwork) {
        let g = Arc::new(graph);
        let oracle = NqOracle::new(&g);
        let net = HybridNetwork::hybrid(Arc::clone(&g));
        (g, oracle, net)
    }

    #[test]
    fn dissemination_delivers_all_tokens() {
        let (_, oracle, mut net) = setup(generators::grid(&[10, 10]).unwrap());
        let tokens = place_tokens(&(0..100).collect::<Vec<_>>(), 40);
        let out = k_dissemination(&mut net, &oracle, &tokens);
        assert_eq!(out.k, 40);
        assert_eq!(out.tokens, (0..40).collect::<Vec<u64>>());
        assert!(net.rounds() > 0);
    }

    #[test]
    fn dissemination_handles_concentrated_tokens() {
        // All tokens start at a single corner node — Theorem 1 makes no
        // assumption about the initial distribution.
        let (_, oracle, mut net) = setup(generators::grid(&[8, 8]).unwrap());
        let tokens = place_tokens(&[0], 32);
        let out = k_dissemination(&mut net, &oracle, &tokens);
        assert_eq!(out.tokens.len(), 32);
    }

    #[test]
    fn dissemination_zero_tokens_is_cheap() {
        let (_, oracle, mut net) = setup(generators::cycle(20).unwrap());
        let out = k_dissemination(&mut net, &oracle, &[]);
        assert_eq!(out.k, 0);
        assert!(out.tokens.is_empty());
        let log_n = 5u64;
        assert!(out.rounds <= 4 * log_n * log_n);
    }

    #[test]
    fn universal_not_slower_than_baseline_and_faster_on_grids() {
        let g = generators::grid(&[16, 16]).unwrap();
        let k = 200u64;
        let tokens = place_tokens(&(0..256).collect::<Vec<_>>(), k);

        let (_, oracle, mut net_u) = setup(g.clone());
        let uni = k_dissemination(&mut net_u, &oracle, &tokens);

        let (_, oracle_b, mut net_b) = setup(g);
        let base = baseline_sqrt_k_dissemination(&mut net_b, &oracle_b, &tokens);

        assert_eq!(uni.tokens, base.tokens);
        assert!(uni.radius <= base.radius);
        assert!(
            uni.rounds <= base.rounds,
            "universal ({}) slower than baseline ({})",
            uni.rounds,
            base.rounds
        );
        // On a 2-D grid NQ_200 ≈ 200^(1/3) ≈ 6 < √200 ≈ 15, so the gap should
        // be visible, not marginal.
        assert!(
            uni.rounds * 3 < base.rounds * 2,
            "expected a clear win on the grid"
        );
    }

    #[test]
    fn universal_and_baseline_coincide_on_paths() {
        // Theorem 15: on a path NQ_k = Θ(√k), so both policies pick nearly the
        // same radius and the round counts are close.
        let g = generators::path(256).unwrap();
        let tokens = place_tokens(&(0..256).collect::<Vec<_>>(), 64);
        let (_, oracle, mut net_u) = setup(g.clone());
        let uni = k_dissemination(&mut net_u, &oracle, &tokens);
        let (_, oracle_b, mut net_b) = setup(g);
        let base = baseline_sqrt_k_dissemination(&mut net_b, &oracle_b, &tokens);
        assert!(uni.rounds <= base.rounds);
        assert!(
            base.rounds <= 2 * uni.rounds,
            "path should show no large gap"
        );
    }

    #[test]
    fn rounds_scale_like_nq_not_k() {
        let (_, oracle, mut net) = setup(generators::grid(&[12, 12]).unwrap());
        let tokens = place_tokens(&(0..144).collect::<Vec<_>>(), 100);
        let out = k_dissemination(&mut net, &oracle, &tokens);
        let log_n = net.log_n();
        // Õ(NQ_k): generous polylog allowance but far below k.
        assert!(out.rounds <= out.nq * 40 * log_n * log_n);
        assert!(out.rounds < 100 * out.nq * log_n);
    }

    #[test]
    fn aggregation_computes_componentwise_max_and_sum() {
        let (g, oracle, mut net) = setup(generators::grid(&[6, 6]).unwrap());
        let n = g.n();
        let k = 5usize;
        // Node v holds values [v, 2v, 3v, 4v, 5v].
        let values: Vec<Vec<u64>> = (0..n as u64)
            .map(|v| (1..=k as u64).map(|i| i * v).collect())
            .collect();
        let out = k_aggregation(&mut net, &oracle, &values, |a, b| a.max(b));
        let vmax = (n - 1) as u64;
        assert_eq!(
            out.results,
            (1..=k as u64).map(|i| i * vmax).collect::<Vec<_>>()
        );

        let (_, oracle2, mut net2) = setup(generators::grid(&[6, 6]).unwrap());
        let out_sum = k_aggregation(&mut net2, &oracle2, &values, |a, b| a + b);
        let vsum: u64 = (0..n as u64).sum();
        assert_eq!(
            out_sum.results,
            (1..=k as u64).map(|i| i * vsum).collect::<Vec<_>>()
        );
        assert!(net.rounds() > 0);
    }

    #[test]
    fn aggregation_empty_k_is_noop() {
        let (g, oracle, mut net) = setup(generators::cycle(10).unwrap());
        let values: Vec<Vec<u64>> = vec![Vec::new(); g.n()];
        let out = k_aggregation(&mut net, &oracle, &values, |a, b| a + b);
        assert_eq!(out.k, 0);
        assert!(out.results.is_empty());
    }

    #[test]
    fn max_tokens_per_node_close_to_radius() {
        let (_, oracle, mut net) = setup(generators::grid(&[10, 10]).unwrap());
        let tokens = place_tokens(&(0..100).collect::<Vec<_>>(), 80);
        let out = k_dissemination(&mut net, &oracle, &tokens);
        // Lemma 4.1 + Lemma 3.5: at most ~2·radius tokens per node during the
        // converge-cast (generous constant for integer effects on small graphs).
        assert!(
            out.max_tokens_per_node <= 4 * out.radius.max(1) + 4,
            "load {} exceeds O(radius {})",
            out.max_tokens_per_node,
            out.radius
        );
    }

    #[test]
    fn delivered_set_is_what_every_cluster_holds() {
        // 70 distinct values (two words per set), three clusters.
        let universe: Vec<u64> = (0..70).map(|i| 3 * i + 1).collect();
        let mut sets = vec![vec![u64::MAX, (1 << 6) - 1]; 3];
        assert_eq!(held_by_all(&universe, &sets), universe);

        // A token missing from one cluster is not delivered, whichever
        // cluster and whichever word.
        sets[1][1] &= !(1 << 1);
        sets[2][0] &= !(1 << 3);
        let lost = [universe[65], universe[3]];
        let expected: Vec<u64> = universe
            .iter()
            .copied()
            .filter(|v| !lost.contains(v))
            .collect();
        assert_eq!(held_by_all(&universe, &sets), expected);
    }

    #[test]
    fn exchange_delivers_duplicated_and_unsorted_values_once() {
        let (_, _, mut net) = setup(generators::grid(&[8, 8]).unwrap());
        let clustering = cluster_with_radius(&mut net, 2, 4);
        let tree = ClusterTree::build(&mut net, clustering, HopSchedule::MemberSpread);
        // Value 9 is placed twice, far apart.
        let tokens = [(63, 40), (0, 9), (20, 25), (44, 9)];
        let labels = ["test/balance", "test/sweep"];
        let (delivered, carried) = exchange_tokens(&mut net, &tree, &tokens, labels, labels);
        assert_eq!(delivered, [9, 25, 40]);
        assert!((1..=3).contains(&carried));
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

    #[test]
    fn place_tokens_round_robin() {
        let t = place_tokens(&[3, 7], 5);
        assert_eq!(t, vec![(3, 0), (7, 1), (3, 2), (7, 3), (3, 4)]);
    }
}
