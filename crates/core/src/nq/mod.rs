//! The **neighborhood quality** graph parameter `NQ_k` (paper Section 3).
//!
//! For a graph `G`, workload `k` and node `v`,
//!
//! ```text
//! NQ_k(v) = min ({ t : |B_t(v)| >= k / t } ∪ { D })      (Definition 3.1)
//! NQ_k(G) = max_v NQ_k(v)
//! ```
//!
//! `NQ_k` captures how quickly the `t`-hop neighbourhood of every node grows
//! relative to the workload `k`: within `t` rounds a node can combine local
//! communication (learning its `t`-ball) with `Θ(t·log n)` global messages per
//! ball member, so a ball of size `≥ k/t` suffices to move `Ω̃(k)` bits in
//! `O(t)` rounds.  The paper proves `√(Dk/3n) < NQ_k ≤ min(D, √k)`
//! (Lemma 3.6), the growth bound `NQ_{αk} ≤ 6√α·NQ_k` (Lemma 3.7) and closed
//! forms on paths/cycles/grids (Theorems 15–17, reproduced in [`families`]).
//!
//! [`NqOracle`] computes the parameter exactly (centralized); [`compute_nq`]
//! performs the distributed computation of Lemma 3.3, charging `Õ(NQ_k)`
//! rounds on a [`HybridNetwork`], one exploration and one aggregation step
//! per radius the oracle walks.  That walk is over one table,
//! `N_t = min_v |B_t(v)|` ([`BallOracle::min_ball`]): `|B_t(v)|·t` never
//! decreases in `t`, so `NQ_k(G)` is the first `t` with `N_t ≥ k/t` — `O(NQ_k)`
//! per query, no pass over the nodes.

pub mod families;
pub mod sampled;

use std::sync::{Arc, OnceLock};

use hybrid_graph::balls::BallOracle;
use hybrid_graph::{Graph, NodeId};
use hybrid_sim::HybridNetwork;

pub use sampled::{NqEstimate, SampledNqOracle};

/// Common interface over the exact [`NqOracle`] and the scale tier's
/// [`SampledNqOracle`], covering exactly the queries the universal lower
/// bounds (Theorem 4, Lemma 7.2, Theorems 11/12) consume: the `NQ_k` value,
/// its witness node, and ball sizes around that witness.
///
/// The exact oracle answers for every node; the sampled oracle answers the
/// same queries over its sampled node set, from the same profile store and
/// the same Definition 3.1 walk (`first_radius`).  Its `nq`/`witness` are
/// the sample maximum — a guaranteed *lower* estimate of the population
/// maximum, with quantile coverage recorded by
/// [`SampledNqOracle::nq_estimate`]: its per-node values are exact on a
/// connected graph and at most exact otherwise, since where no radius meets
/// the ball condition it caps at the deepest level a sampled ball grew,
/// which is at most `D`.
pub trait NqSource {
    /// Number of nodes of the underlying graph.
    fn n(&self) -> usize;
    /// `NQ_k(G)` (exact) or its sample maximum (sampled).
    fn nq(&self, k: u64) -> u64;
    /// A node attaining [`NqSource::nq`].
    fn witness(&self, k: u64) -> NodeId;
    /// `|B_t(v)|` for any node the source has a profile for.  The exact
    /// oracle answers every radius; the sampled oracle is exact up to the
    /// node's stored radius and saturates past it, returning its last stored
    /// size — a lower bound on `|B_t(v)|`.  The lower bounds ask only for
    /// radii below `nq(k)`, which the sampled profiles always cover.
    fn ball_size(&self, v: NodeId, t: u64) -> usize;
}

impl NqSource for NqOracle {
    fn n(&self) -> usize {
        NqOracle::n(self)
    }
    fn nq(&self, k: u64) -> u64 {
        NqOracle::nq(self, k)
    }
    fn witness(&self, k: u64) -> NodeId {
        NqOracle::witness(self, k)
    }
    fn ball_size(&self, v: NodeId, t: u64) -> usize {
        NqOracle::ball_size(self, v, t)
    }
}

/// Exact, centralized oracle for `NQ_k(v)` and `NQ_k(G)` with cached ball
/// profiles, supporting repeated queries for different workloads `k`.
///
/// The profiles run to `R = ⌈√n⌉`, the deepest radius `NQ_k` can take for
/// `k ≤ n` (Lemma 3.6: `NQ_k ≤ min(D, √k)`).  A query that needs a radius
/// past `R` on a graph with `D > R` reads a second, unbounded table, built
/// on first use.
#[derive(Debug, Clone)]
pub struct NqOracle {
    graph: Arc<Graph>,
    /// Profiles to radius `radius`; cut exactly when `D > radius`.
    balls: BallOracle,
    radius: u64,
    /// Profiles to every node's eccentricity, built on first use.
    full: OnceLock<BallOracle>,
}

impl NqOracle {
    /// Precomputes ball-size profiles for every node up to radius `⌈√n⌉`.
    ///
    /// Every `NQ_k` with `k ≤ n` and every radius the lower bounds ask for
    /// lies within it.  A profile that stops growing within the bound ends at
    /// its node's eccentricity, so when none is cut the diameter is read off
    /// the profile lengths; otherwise all the oracle knows is `D > ⌈√n⌉`,
    /// until a query builds the unbounded table.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.n() as u64;
        let floor = n.isqrt();
        let radius = floor + u64::from(floor * floor < n); // ⌈√n⌉
        NqOracle {
            graph: Arc::new(graph.clone()),
            balls: BallOracle::new(graph, radius),
            radius,
            full: OnceLock::new(),
        }
    }

    /// Number of nodes of the underlying graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Whether the bounded sweep cut a profile, i.e. `D > ⌈√n⌉`.
    fn cut(&self) -> bool {
        self.balls.max_eccentricity().is_none()
    }

    /// The unbounded profiles, swept on first use.
    fn full(&self) -> &BallOracle {
        self.full
            .get_or_init(|| BallOracle::new(&self.graph, u64::MAX))
    }

    /// Hop diameter `D` of the underlying graph.  Builds the unbounded table
    /// when `D > ⌈√n⌉`; [`NqOracle::diameter_min`] avoids that.
    pub fn diameter(&self) -> u64 {
        self.balls.max_eccentricity().unwrap_or_else(|| {
            self.full()
                .max_eccentricity()
                .expect("no radius bound, so no profile is cut")
        })
    }

    /// `min(x, D)`, without the unbounded table whenever `x ≤ ⌈√n⌉`.
    pub fn diameter_min(&self, x: u64) -> u64 {
        if x <= self.radius && self.cut() {
            x
        } else {
            x.min(self.diameter())
        }
    }

    /// `min(ecc(v), x)`, without the unbounded table whenever `x ≤ ⌈√n⌉`: a
    /// profile cut at `⌈√n⌉` reads `⌈√n⌉` there.
    pub fn eccentricity_min(&self, v: NodeId, x: u64) -> u64 {
        self.table(x).eccentricity(v).min(x)
    }

    /// The table that answers radius `t`: the bounded one up to `⌈√n⌉` and
    /// whenever none was cut, the unbounded one past it.
    fn table(&self, t: u64) -> &BallOracle {
        if t > self.radius && self.cut() {
            self.full()
        } else {
            &self.balls
        }
    }

    /// [`first_radius`] capped at `D`.  A cut table is exact to `R < D`, so
    /// the walk reads `D` (and the unbounded table) only once it runs past
    /// `R`.
    fn walk(&self, k: u64, size: impl Fn(u64) -> usize) -> u64 {
        let below = if self.cut() { self.radius } else { 0 };
        first_radius(k, size, below, || self.diameter())
    }

    /// `NQ_k(v)` — Definition 3.1.
    pub fn nq_of(&self, v: NodeId, k: u64) -> u64 {
        self.walk(k, |t| self.ball_size(v, t))
    }

    /// `NQ_k(G) = max_v NQ_k(v)`.  `|B_t(v)|·t` is non-decreasing in `t`, so
    /// every node meets the ball condition by radius `t` exactly when the
    /// smallest `t`-ball does: one walk over the level-minimum table
    /// `min_v |B_t(v)|` (the `N_t` of Lemma 3.3; 0 on the empty graph).
    pub fn nq(&self, k: u64) -> u64 {
        self.walk(k, |t| level_min(self.table(t).min_ball(), t))
    }

    /// A node maximizing `NQ_k(v)`; by Lemma 3.8 it satisfies
    /// `|B_r(v)| < k/r` for every `r < NQ_k`, which is the witness used by the
    /// universal lower bounds (Lemma 7.2).
    ///
    /// The maximizers are exactly the nodes whose ball condition still fails
    /// at radius `NQ_k − 1` (every node when `NQ_k = 1`); the last one is
    /// returned.
    pub fn witness(&self, k: u64) -> NodeId {
        let below = self.nq(k) - 1;
        let fails = |v| (self.ball_size(v, below) as u128 * below as u128) < k as u128;
        (0..self.n() as NodeId)
            .rev()
            .find(|&v| below == 0 || fails(v))
            .unwrap_or(0)
    }

    /// `|B_t(v)|` from the cached profiles.
    pub fn ball_size(&self, v: NodeId, t: u64) -> usize {
        self.table(t).ball_size(v, t)
    }
}

/// Definition 3.1 over one sequence of saturated ball sizes — one node's
/// profile, or a level minimum over nodes: the first radius `t ≥ 1` with
/// `size(t) ≥ k/t`, else the diameter cap.  For `k = 0` the answer is 1 (any
/// radius works; the paper assumes `k > 0`).  Both oracles answer through
/// it: [`NqOracle`] with the cap `D`, [`SampledNqOracle`] with its own.
///
/// The caller knows the cap to exceed `below`: `cap` is read only once the
/// walk passes it.
fn first_radius(k: u64, size: impl Fn(u64) -> usize, below: u64, cap: impl FnOnce() -> u64) -> u64 {
    // |B_t| >= k/t  <=>  |B_t| * t >= k
    let meets = |t: u64| size(t) as u128 * t as u128 >= k as u128;
    (1..=below).find(|&t| meets(t)).unwrap_or_else(|| {
        let cap = cap().max(1);
        (below + 1..cap).find(|&t| meets(t)).unwrap_or(cap)
    })
}

/// Entry `t` of a level-minimum table, saturating at its last entry (0 when
/// the table is empty, as on the empty graph).
fn level_min(table: &[u32], t: u64) -> usize {
    let size = table.get(t as usize).or(table.last());
    size.map_or(0, |&size| size as usize)
}

/// Result of the distributed `NQ_k` computation (Lemma 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NqComputation {
    /// The workload parameter `k` that was queried.
    pub k: u64,
    /// The computed `NQ_k(G)`.
    pub nq: u64,
    /// Rounds charged for the computation.
    pub rounds: u64,
}

/// Distributed computation of `NQ_k` (Lemma 3.3): nodes explore their
/// neighbourhood to increasing depth `t = 1, 2, …`, after each step
/// aggregate `N_t = min_v |B_t(v)|` in `Õ(1)` rounds (Lemma 4.4) and stop at
/// the first `t` with `N_t ≥ k/t`.  Total cost `Õ(NQ_k)` rounds.  The lemma
/// is stated for the paper's `Hybrid0`; the simulator runs `HYBRID(∞, γ)`
/// and charges the lemma's rounds as stated.
///
/// The returned value is exact (it is [`NqOracle::nq`]); the `NQ_k`
/// exploration steps and per-step aggregations are charged to the network's
/// cost meter.
pub fn compute_nq(net: &mut HybridNetwork, oracle: &NqOracle, k: u64) -> NqComputation {
    let k = k.max(1);
    let aggregation_rounds = net.polylog(1); // Lemma 4.4 basic aggregation
    let nq = oracle.nq(k);
    // Step t explores one more hop, then aggregates N_t; step NQ_k is the
    // first whose N_t meets the ball condition (or the step at radius D).
    for _ in 0..nq {
        net.charge_local("nq/explore", 1);
        net.charge_rounds("nq/aggregate-min", aggregation_rounds);
    }
    NqComputation {
        k,
        nq,
        rounds: nq * (1 + aggregation_rounds),
    }
}

/// Lemma 3.6, `√(Dk/3n) < NQ_k ≤ min(D, √k)`, as the three quantities
/// `(lower, nq, upper)`.  It is API because the lemma is a statement about
/// any graph a library user builds, and the checks that assert it
/// (`tests/nq_goldens.rs`, the workspace property tests) live outside this
/// crate.
///
/// Because radii are integers, the `√k` part of the upper bound is `⌈√k⌉`
/// (the paper works with real-valued radii in the proof of Lemma 3.6).
pub fn lemma_3_6_bounds(oracle: &NqOracle, k: u64) -> (f64, u64, f64) {
    let nq = oracle.nq(k);
    let d = oracle.diameter() as f64;
    let n = oracle.n() as f64;
    let k_f = k.max(1) as f64;
    let lower = (d * k_f / (3.0 * n)).sqrt();
    let upper = d.min(k_f.sqrt().ceil());
    (lower, nq, upper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;
    use std::sync::Arc;

    #[test]
    fn nq_on_path_is_sqrt_k() {
        let g = generators::path(400).unwrap();
        let oracle = NqOracle::new(&g);
        // On a path |B_t(v)| <= 2t+1, so NQ_k ~ sqrt(k/2)..sqrt(k).
        for &k in &[16u64, 64, 100, 256] {
            let nq = oracle.nq(k);
            let sqrt_k = (k as f64).sqrt();
            assert!(nq as f64 >= (sqrt_k / 2.0).floor(), "k={k}, nq={nq}");
            assert!(nq as f64 <= sqrt_k + 1.0, "k={k}, nq={nq}");
        }
    }

    #[test]
    fn nq_on_clique_is_one() {
        let g = generators::complete(64).unwrap();
        let oracle = NqOracle::new(&g);
        assert_eq!(oracle.nq(64), 1);
        assert_eq!(oracle.nq(1), 1);
        // Workload larger than n/1: still capped by diameter 1.
        assert_eq!(oracle.nq(10_000), 1);
    }

    #[test]
    fn nq_capped_by_diameter() {
        let g = generators::path(10).unwrap();
        let oracle = NqOracle::new(&g);
        // k = 1000 >> n^2: no radius satisfies the ball condition, so NQ = D.
        assert_eq!(oracle.nq(1_000_000), 9);
        assert_eq!(oracle.diameter(), 9);
    }

    #[test]
    fn nq_monotone_in_k() {
        let g = generators::grid(&[12, 12]).unwrap();
        let oracle = NqOracle::new(&g);
        let mut prev = 0;
        for k in [1u64, 4, 16, 64, 144, 400] {
            let nq = oracle.nq(k);
            assert!(nq >= prev, "NQ_k must be non-decreasing in k");
            prev = nq;
        }
    }

    #[test]
    fn nq_zero_k_is_one() {
        let g = generators::cycle(10).unwrap();
        let oracle = NqOracle::new(&g);
        assert_eq!(oracle.nq_of(0, 0), 1);
    }

    #[test]
    fn lemma_3_6_holds_on_families() {
        for g in [
            generators::path(100).unwrap(),
            generators::cycle(81).unwrap(),
            generators::grid(&[10, 10]).unwrap(),
            generators::tree_with_n(2, 127).unwrap(),
            generators::star(50).unwrap(),
        ] {
            let oracle = NqOracle::new(&g);
            for &k in &[1u64, 5, 25, 100, (g.n() as u64)] {
                let (lower, nq, upper) = lemma_3_6_bounds(&oracle, k);
                assert!((nq as f64) > lower, "lower bound violated: {lower} !< {nq}");
                assert!(
                    (nq as f64) <= upper + 1e-9,
                    "upper bound violated: {nq} !<= {upper}"
                );
            }
        }
    }

    #[test]
    fn lemma_3_7_growth_bound() {
        let g = generators::grid(&[15, 15]).unwrap();
        let oracle = NqOracle::new(&g);
        for &k in &[4u64, 16, 50] {
            for &alpha in &[2u64, 4, 9] {
                let lhs = oracle.nq(alpha * k);
                let rhs = 6.0 * (alpha as f64).sqrt() * oracle.nq(k) as f64;
                assert!(lhs as f64 <= rhs, "NQ_{{αk}}={lhs} > 6√α·NQ_k={rhs}");
            }
        }
    }

    #[test]
    fn witness_has_small_balls_below_nq() {
        let g = generators::caterpillar(40, 2).unwrap();
        let oracle = NqOracle::new(&g);
        let k = 64u64;
        let nq = oracle.nq(k);
        let w = oracle.witness(k);
        for r in 1..nq {
            let ball = oracle.ball_size(w, r) as u128;
            assert!(
                ball * (r as u128) < (k as u128),
                "Lemma 3.8 violated at r={r}"
            );
        }
    }

    #[test]
    fn distributed_computation_matches_oracle_and_charges_rounds() {
        let g = Arc::new(generators::grid(&[8, 8]).unwrap());
        let oracle = NqOracle::new(&g);
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let k = 32;
        let result = compute_nq(&mut net, &oracle, k);
        assert_eq!(result.nq, oracle.nq(k));
        assert_eq!(result.rounds, net.rounds());
        assert!(result.rounds >= result.nq);
        // Õ(NQ_k): within a polylog factor of NQ_k.
        assert!(result.rounds <= result.nq * (net.polylog(1) + 1) + net.polylog(1));
    }

    /// Definition 3.1 read straight off unbounded profiles: the reference
    /// the bounded oracle must match query for query.
    struct Reference {
        balls: BallOracle,
        d: u64,
    }

    impl Reference {
        fn new(g: &Graph) -> Self {
            let balls = BallOracle::new(g, u64::MAX);
            let d = balls.max_eccentricity().unwrap();
            Reference { balls, d }
        }
        fn nq_of(&self, v: NodeId, k: u64) -> u64 {
            let d = self.d.max(1);
            let meets = |t: u64| self.balls.ball_size(v, t) as u128 * t as u128 >= k as u128;
            (1..d).find(|&t| meets(t)).unwrap_or(d)
        }
    }

    /// Two disconnected unions: a 40-node path beside a 30-node star, where
    /// the level minimum must keep counting the nodes of the exhausted
    /// component, and a 3-node path beside a 150-node path, where `NQ_n` at
    /// the short path's nodes lies past `⌈√n⌉` but below `D`.
    fn disconnected() -> [Graph; 2] {
        let mut split = hybrid_graph::GraphBuilder::new(70);
        for v in 1..40u32 {
            split.add_unweighted_edge(v - 1, v).unwrap();
        }
        for v in 41..70u32 {
            split.add_unweighted_edge(40, v).unwrap();
        }
        let mut short_long = hybrid_graph::GraphBuilder::new(153);
        for v in (1..3u32).chain(4..153) {
            short_long.add_unweighted_edge(v - 1, v).unwrap();
        }
        [
            split.build_unchecked_connectivity(),
            short_long.build_unchecked_connectivity(),
        ]
    }

    /// Every query of the bounded oracle against Definition 3.1 read off
    /// unbounded profiles: the queries a bounded table answers first, then
    /// the ones that reach past `⌈√n⌉` and build the unbounded table.
    #[test]
    fn nq_and_witness_match_the_per_node_definition() {
        let connected = [
            generators::path(1).unwrap(),
            generators::path(90).unwrap(),
            generators::cycle(60).unwrap(),
            generators::grid(&[9, 11]).unwrap(),
            generators::grid(&[3, 3, 3]).unwrap(),
            generators::caterpillar(30, 2).unwrap(),
            generators::lollipop(20, 50).unwrap(),
        ];
        let graphs = connected.map(|g| (g, true));
        for (g, connected) in graphs.into_iter().chain(disconnected().map(|g| (g, false))) {
            let reference = Reference::new(&g);
            let oracle = NqOracle::new(&g);
            let (n, d, r) = (g.n() as u64, reference.d, oracle.radius);
            assert!((r - 1) * (r - 1) < n && n <= r * r, "R = ⌈√n⌉");
            assert_eq!(oracle.cut(), d > r, "n={n}");
            let check = |k: u64| {
                let per_node: Vec<u64> = g.nodes().map(|v| reference.nq_of(v, k)).collect();
                let nq = *per_node.iter().max().unwrap();
                for v in g.nodes() {
                    assert_eq!(
                        oracle.nq_of(v, k),
                        per_node[v as usize],
                        "n={n} k={k} v={v}"
                    );
                }
                assert_eq!(oracle.nq(k), nq, "n={n} k={k}");
                let last = per_node.iter().rposition(|&x| x == nq);
                assert_eq!(Some(oracle.witness(k) as usize), last, "n={n} k={k}");
            };
            // k <= n on a connected graph, and x <= R: the bounded table alone.
            for k in [0, 1, 2, 7, n / 2, n] {
                check(k);
            }
            for x in [r - 1, r] {
                assert_eq!(oracle.diameter_min(x), x.min(d), "n={n} x={x}");
            }
            if connected {
                assert!(
                    oracle.full.get().is_none(),
                    "n={n}: a k <= n query went deep"
                );
            }
            // Past R: the unbounded table, built once the bounded one is cut.
            for k in [3 * n, n * n] {
                check(k);
            }
            for v in g.nodes() {
                for t in 0..=d + 1 {
                    let size = reference.balls.ball_size(v, t);
                    assert_eq!(oracle.ball_size(v, t), size, "n={n} v={v} t={t}");
                }
            }
            assert_eq!(oracle.diameter(), d, "n={n}");
            for x in [r + 1, d, d + 1] {
                assert_eq!(oracle.diameter_min(x), x.min(d), "n={n} x={x}");
            }
            assert_eq!(oracle.full.get().is_some(), d > r, "n={n}");
        }
    }

    /// On graphs with `D > ⌈√n⌉`, what the dissemination set-up and every
    /// contender read for `k ≤ n` stays inside the bounded profiles: a later
    /// hot-path reader of `diameter()` would build the unbounded table here.
    #[test]
    fn hot_path_queries_never_build_the_unbounded_table() {
        use crate::algorithm::dissemination_registry;
        use crate::cluster::cluster_by_nq;
        use crate::dissemination::place_tokens;
        use crate::lower_bounds::dissemination_lower_bound;
        use hybrid_sim::ModelParams;

        for g in [
            generators::path(400).unwrap(),
            generators::grid(&[30, 30]).unwrap(),
            generators::ring_of_cliques(40, 5, 1).unwrap(),
        ] {
            let g = Arc::new(g);
            let oracle = NqOracle::new(&g);
            let n = g.n() as u64;
            assert!(oracle.cut(), "n={n}: D must exceed ⌈√n⌉");
            let nodes: Vec<NodeId> = g.nodes().collect();
            for k in [1, n / 8, n / 2, n] {
                oracle.nq(k);
                oracle.witness(k);
                dissemination_lower_bound(&oracle, &ModelParams::hybrid(g.n()), k, 0.99);
                cluster_by_nq(&mut HybridNetwork::hybrid(Arc::clone(&g)), &oracle, k);
                let tokens = place_tokens(&nodes, k);
                for algo in dissemination_registry() {
                    let mut net = HybridNetwork::hybrid(Arc::clone(&g));
                    algo.run(&mut net, &oracle, &tokens);
                }
            }
            assert!(
                oracle.full.get().is_none(),
                "n={n}: a k <= n query went deep"
            );
        }
    }
}
