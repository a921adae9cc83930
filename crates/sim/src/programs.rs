//! Library of ready-made [`NodeProgram`]s: flooding, BFS layering, a
//! token-gossip dissemination baseline, deterministic one-token-per-edge
//! forwarding, and fault-tolerant ack/retry flooding.
//!
//! They are genuinely useful primitives and executable documentation of the
//! engine API.  One of them is also an independent execution path for a
//! phase-engine algorithm of `hybrid-core`: `tests/integration_dissemination.rs`
//! (`phase_engine_and_message_passing_engine_agree_on_delivery`) runs
//! [`TokenGossipProgram`] and Theorem 1's `k_dissemination` on the same
//! instance and checks that both deliver every token to every node.  No test
//! cross-validates the other programs against a `hybrid-core` pipeline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use hybrid_graph::NodeId;

use crate::engine::{NodeCtx, NodeProgram};
use crate::token_batch::TokenBatch;
use crate::token_set::TokenSet;

/// Flooding (Definition 4.2 of the paper): every node repeatedly forwards all
/// information it knows to all neighbours; after `t` rounds every node knows
/// everything initially held within its `t`-ball.
#[derive(Debug, Clone)]
pub struct FloodProgram {
    /// Tokens this node currently knows.
    pub known: TokenSet,
    new_since_last_send: bool,
    quiescent: bool,
    rounds_budget: u64,
}

impl FloodProgram {
    /// Creates a flooding node holding `initial` tokens, flooding for at most
    /// `rounds_budget` rounds.
    pub fn new(initial: impl IntoIterator<Item = u64>, rounds_budget: u64) -> Self {
        FloodProgram {
            known: initial.into_iter().collect(),
            new_since_last_send: true,
            quiescent: false,
            rounds_budget,
        }
    }
}

impl NodeProgram for FloodProgram {
    type Msg = TokenBatch;

    fn init(&mut self, ctx: &mut NodeCtx<'_, TokenBatch>) {
        if !self.known.is_empty() {
            ctx.broadcast_local(TokenBatch::from_slice(&self.known));
        }
        self.new_since_last_send = false;
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_, TokenBatch>, round: u64) {
        let mut learned_something = false;
        for (_, tokens) in ctx.local_inbox() {
            self.known.absorb(tokens, |_| learned_something = true);
        }
        self.new_since_last_send |= learned_something;
        self.quiescent = !learned_something;
        if round < self.rounds_budget && self.new_since_last_send {
            ctx.broadcast_local(TokenBatch::from_slice(&self.known));
            self.new_since_last_send = false;
        }
    }

    fn done(&self) -> bool {
        self.quiescent
    }
}

/// Distributed BFS: the source announces distance 0; every node adopts
/// `1 + min(neighbour distances)` the first time it hears one.  The computed
/// value equals the hop distance after `ecc(source)` rounds.
#[derive(Debug, Clone)]
pub struct BfsProgram {
    id: NodeId,
    source: NodeId,
    /// Hop distance from the source (`None` until reached).
    pub dist: Option<u64>,
    announced: bool,
}

impl BfsProgram {
    /// Creates the program for node `id` with the given BFS `source`.
    pub fn new(id: NodeId, source: NodeId) -> Self {
        BfsProgram {
            id,
            source,
            dist: if id == source { Some(0) } else { None },
            announced: false,
        }
    }
}

impl NodeProgram for BfsProgram {
    type Msg = u64;

    fn init(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        if self.id == self.source {
            ctx.broadcast_local(0);
            self.announced = true;
        }
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_, u64>, _round: u64) {
        let incoming_min = ctx.local_inbox().iter().map(|&(_, d)| d).min();
        if let Some(d) = incoming_min {
            if self.dist.is_none_or(|cur| d + 1 < cur) {
                self.dist = Some(d + 1);
                self.announced = false;
            }
        }
        if let Some(d) = self.dist {
            if !self.announced {
                ctx.broadcast_local(d);
                self.announced = true;
            }
        }
    }

    fn done(&self) -> bool {
        self.dist.is_some() && self.announced
    }
}

/// A token-gossip dissemination baseline: every node pushes uniformly random
/// known tokens to uniformly random nodes over the global network (`γ` per
/// round) *and* floods everything it knows over the local network.  This is a
/// natural "unstructured" approach to `k`-dissemination; the structured
/// algorithms of the paper (and of `hybrid-core`) beat it, which the
/// integration tests demonstrate.
#[derive(Debug)]
pub struct TokenGossipProgram {
    /// Tokens this node currently knows.
    pub known: TokenSet,
    n: usize,
    target_tokens: usize,
    rng: StdRng,
    changed: bool,
}

impl TokenGossipProgram {
    /// Creates a gossip node holding `initial` tokens, in a network of `n`
    /// nodes, gossiping until it knows `target_tokens` tokens.
    pub fn new(
        node: NodeId,
        n: usize,
        initial: impl IntoIterator<Item = u64>,
        target_tokens: usize,
        seed: u64,
    ) -> Self {
        TokenGossipProgram {
            known: initial.into_iter().collect(),
            n,
            target_tokens,
            rng: StdRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            changed: true,
        }
    }
}

impl NodeProgram for TokenGossipProgram {
    type Msg = TokenBatch;

    fn on_round(&mut self, ctx: &mut NodeCtx<'_, TokenBatch>, _round: u64) {
        for (_, tokens) in ctx.local_inbox().iter().chain(ctx.global_inbox()) {
            self.known.absorb(tokens, |_| self.changed = true);
        }
        if self.known.is_empty() {
            return;
        }
        // Local: share everything with neighbours whenever something changed.
        let tokens: &[u64] = &self.known;
        if self.changed {
            ctx.broadcast_local(TokenBatch::from_slice(tokens));
            self.changed = false;
        }
        // Global: push one random known token to each of up to γ random nodes.
        let budget = ctx.global_budget_left();
        for _ in 0..budget {
            let token = tokens[self.rng.gen_range(0..tokens.len())];
            let target = self.rng.gen_range(0..self.n) as NodeId;
            if target != ctx.node() {
                ctx.send_global(target, TokenBatch::single(token));
            }
        }
    }

    fn done(&self) -> bool {
        self.known.len() >= self.target_tokens
    }
}

/// Deterministic token forwarding: pipelined one-token-per-edge forwarding on
/// the local plane only.  Every round, each node forwards to each neighbour
/// the *smallest* known token it has not yet sent to that neighbour — one
/// token per edge per round, no global message and no random bits anywhere.
///
/// It runs no clustering and no global plane, so it is not the `det-broadcast`
/// pipeline of `hybrid-core` (Theorem 1's engine under the `[CHL23]` leader
/// funnel), and no test compares the two.  On a path with all `k` tokens at
/// one end the one-token-per-edge discipline pipelines perfectly: the far end
/// learns token `i` at round `(n-1) + i`.
#[derive(Debug, Clone)]
pub struct DetForwardProgram {
    /// Tokens this node currently knows.
    pub known: TokenSet,
    /// Per neighbour, indexed like `ctx.neighbors()`: the known tokens not
    /// yet forwarded to it, smallest first.  Sized by the first step.
    owed: Vec<BinaryHeap<Reverse<u64>>>,
    target_tokens: usize,
}

impl DetForwardProgram {
    /// Creates a forwarding node holding `initial` tokens, finished once it
    /// knows `target_tokens` tokens and owes no neighbour a forward.
    pub fn new(initial: impl IntoIterator<Item = u64>, target_tokens: usize) -> Self {
        DetForwardProgram {
            known: initial.into_iter().collect(),
            owed: Vec::new(),
            target_tokens,
        }
    }

    /// Sizes the owed queues on the first step: every neighbour is owed
    /// everything known.
    fn meet_neighbors(&mut self, degree: usize) {
        if self.owed.len() != degree {
            let everything: BinaryHeap<_> = self.known.iter().copied().map(Reverse).collect();
            self.owed = vec![everything; degree];
        }
    }

    /// Pays every neighbour the smallest token it is owed.
    fn forward_round(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        for (i, queue) in self.owed.iter_mut().enumerate() {
            if let Some(Reverse(t)) = queue.pop() {
                ctx.send_neighbor(i, t);
            }
        }
    }
}

impl NodeProgram for DetForwardProgram {
    type Msg = u64;

    fn init(&mut self, ctx: &mut NodeCtx<'_, u64>) {
        self.meet_neighbors(ctx.neighbors().len());
        self.forward_round(ctx);
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_, u64>, _round: u64) {
        self.meet_neighbors(ctx.neighbors().len());
        // A token is owed to *every* neighbour from the moment it is learned
        // — the one it came from included — so a late small token overtakes
        // the larger ones still queued.
        for &(_, t) in ctx.local_inbox() {
            if self.known.insert(t) {
                for queue in &mut self.owed {
                    queue.push(Reverse(t));
                }
            }
        }
        self.forward_round(ctx);
    }

    fn done(&self) -> bool {
        // Paid to a neighbour = known − still owed to it.
        let known = self.known.len();
        known >= self.target_tokens
            && self
                .owed
                .iter()
                .all(|queue| known - queue.len() >= self.target_tokens)
    }
}

/// Message alphabet of [`AckFloodProgram`].
///
/// Serializes externally tagged (`{"Tokens": [...]}` / `{"Ack": [...]}`), so
/// the program runs unmodified on the networked `hybrid-node` runtime.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AckFloodMsg {
    /// A batch of tokens the sender believes the receiver is missing.
    Tokens(TokenBatch),
    /// Acknowledgement: the sender has received these tokens.
    Ack(TokenBatch),
}

// What the router stages and scatters per local message; a new field or a
// larger inline capacity must not grow it unnoticed.
const _: () = assert!(std::mem::size_of::<(NodeId, AckFloodMsg)>() == 72);

/// Fault-tolerant flooding with per-neighbour acknowledgements — the
/// unacked-cache + periodic-retransmit pattern of fault-tolerant broadcast.
///
/// Every node keeps, per neighbour, the set of tokens that neighbour has not
/// yet acknowledged.  Tokens are (re)transmitted to a neighbour whenever its
/// cache gains a token and every `retry_interval` rounds while the cache is
/// non-empty; every received token batch is acknowledged, and an ack removes
/// the tokens from the sender's cache for that neighbour.
///
/// # Completion guarantee
///
/// Under any [`FaultPlan`](crate::faults::FaultPlan) with per-attempt drop
/// rate `p < 1` whose residual graph is connected (crashes restart, the
/// partition window closes), dissemination completes: each retransmission of
/// a missing token across an edge is a fresh delivery attempt that succeeds
/// with probability at least `1 − p`, a token is only removed from a cache
/// when the neighbour provably received it (acks are not needed for progress
/// — a lost ack merely causes a harmless re-send of known tokens), and
/// retransmissions recur every `retry_interval` rounds forever.  So every
/// token crosses every edge of the residual graph eventually, with
/// probability 1.  The naive [`FloodProgram`] has no such guarantee: it sends
/// each batch once and goes quiescent, so a single dropped frontier message
/// stalls it permanently — the adversarial tests below pin both behaviours.
#[derive(Debug, Clone)]
pub struct AckFloodProgram {
    /// Tokens this node currently knows.
    pub known: TokenSet,
    target_tokens: usize,
    retry_interval: u64,
    /// Per neighbour, indexed like `ctx.neighbors()`: the tokens it has not
    /// yet acknowledged, ascending — a retransmission is a copy of the cache.
    /// Sized by the first step.
    unacked: Vec<Vec<u64>>,
    /// Per neighbour: whether its cache gained tokens this round (sent
    /// immediately).
    fresh: Vec<bool>,
    /// Positions of `ctx.neighbors()` ordered by neighbour id, so the sender
    /// of an inbox message resolves to its position in `O(log deg)`.
    by_id: Vec<u32>,
}

impl AckFloodProgram {
    /// Creates an ack/retry flooding node holding `initial` tokens, finished
    /// once it knows `target_tokens` tokens, retransmitting unacknowledged
    /// tokens every `retry_interval` rounds (clamped to at least 1).
    pub fn new(
        initial: impl IntoIterator<Item = u64>,
        target_tokens: usize,
        retry_interval: u64,
    ) -> Self {
        AckFloodProgram {
            known: initial.into_iter().collect(),
            target_tokens,
            retry_interval: retry_interval.max(1),
            unacked: Vec::new(),
            fresh: Vec::new(),
            by_id: Vec::new(),
        }
    }

    /// Total tokens sitting in unacknowledged caches (diagnostic).
    pub fn pending(&self) -> usize {
        self.unacked.iter().map(Vec::len).sum()
    }

    /// Sizes the per-neighbour state on the first step; every cache starts
    /// out holding `cached`.
    fn meet_neighbors(&mut self, neighbors: &[NodeId], cached: Vec<u64>) {
        if self.unacked.len() == neighbors.len() {
            return;
        }
        self.unacked = vec![cached; neighbors.len()];
        self.fresh = vec![false; neighbors.len()];
        self.by_id = (0..neighbors.len() as u32).collect();
        self.by_id.sort_unstable_by_key(|&i| neighbors[i as usize]);
    }

    /// The position of `id` in `neighbors`, if it is one.
    fn position(&self, neighbors: &[NodeId], id: NodeId) -> Option<usize> {
        let at = self
            .by_id
            .binary_search_by_key(&id, |&i| neighbors[i as usize]);
        at.ok().map(|at| self.by_id[at] as usize)
    }
}

impl NodeProgram for AckFloodProgram {
    type Msg = AckFloodMsg;

    fn init(&mut self, ctx: &mut NodeCtx<'_, AckFloodMsg>) {
        if self.known.is_empty() {
            return;
        }
        self.meet_neighbors(ctx.neighbors(), self.known.to_vec());
        for (i, cache) in self.unacked.iter().enumerate() {
            ctx.send_neighbor(i, AckFloodMsg::Tokens(TokenBatch::from_slice(cache)));
        }
    }

    fn on_round(&mut self, ctx: &mut NodeCtx<'_, AckFloodMsg>, round: u64) {
        let neighbors = ctx.neighbors();
        self.meet_neighbors(neighbors, Vec::new());
        for (from, msg) in ctx.local_inbox() {
            let sender = self.position(neighbors, *from);
            match msg {
                AckFloodMsg::Tokens(ts) => {
                    let sender = sender.unwrap_or_else(|| {
                        panic!(
                            "node {} got local tokens from non-neighbor {from}",
                            ctx.node()
                        )
                    });
                    // Acknowledge everything received, known or not: the
                    // sender keeps retrying until the ack gets through.
                    ctx.send_neighbor(sender, AckFloodMsg::Ack(ts.clone()));
                    // Owed to everyone but the first neighbour heard from —
                    // a later sender in the same inbox is owed it.
                    self.known.absorb(ts, |t| {
                        for (i, cache) in self.unacked.iter_mut().enumerate() {
                            if i == sender {
                                continue;
                            }
                            if let Err(at) = cache.binary_search(&t) {
                                cache.insert(at, t);
                                self.fresh[i] = true;
                            }
                        }
                    });
                }
                AckFloodMsg::Ack(ts) => {
                    let Some(sender) = sender else { continue };
                    let cache = &mut self.unacked[sender];
                    // An ack echoes a batch, ascending like the cache:
                    // back to front, each removal shifts only what stays.
                    for t in ts.iter().rev() {
                        if let Ok(at) = cache.binary_search(t) {
                            cache.remove(at);
                        }
                    }
                }
            }
        }
        let retry_round = round.is_multiple_of(self.retry_interval);
        for (i, cache) in self.unacked.iter().enumerate() {
            if !cache.is_empty() && (retry_round || self.fresh[i]) {
                ctx.send_neighbor(i, AckFloodMsg::Tokens(TokenBatch::from_slice(cache)));
            }
        }
        self.fresh.fill(false);
    }

    fn done(&self) -> bool {
        self.known.len() >= self.target_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::{Executor, NodeRunner};
    use crate::params::ModelParams;
    use hybrid_graph::balls::BallOracle;
    use hybrid_graph::generators;

    #[test]
    fn flooding_learns_everything_within_diameter() {
        let g = generators::grid(&[5, 5]).unwrap();
        let d = BallOracle::new(&g, u64::MAX).max_eccentricity().unwrap();
        let config = EngineConfig::new(ModelParams::hybrid(25)).with_max_rounds(2 * d + 2);
        let mut exec = Executor::with_config(&g, config, |v| FloodProgram::new([v as u64], d + 1));
        let report = exec.run().unwrap();
        assert!(report.completed);
        assert!(report.rounds <= d + 1);
        for p in exec.programs() {
            assert_eq!(p.known.len(), 25);
        }
    }

    #[test]
    fn flooding_partial_budget_learns_ball_only() {
        let g = generators::path(10).unwrap();
        let budget = 3;
        let mut exec = Executor::new(&g, ModelParams::hybrid(10), |v| {
            FloodProgram::new([v as u64], budget)
        });
        exec.run_capped(budget, |_| false);
        // Node 0 should know exactly tokens 0..=3 (its 3-ball on the path).
        let known: Vec<u64> = exec.programs()[0].known.iter().copied().collect();
        assert_eq!(known, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_program_matches_centralized_bfs() {
        let g = generators::tree_with_n(3, 40).unwrap();
        let source = 0;
        let mut exec = Executor::new(&g, ModelParams::hybrid(g.n()), |v| {
            BfsProgram::new(v, source)
        });
        let report = exec.run().unwrap();
        assert!(report.completed);
        let reference = hybrid_graph::dijkstra::dijkstra(&g, source);
        for (v, p) in exec.programs().iter().enumerate() {
            assert_eq!(p.dist, Some(reference.dist[v]));
        }
    }

    use crate::faults::{FaultPlan, FaultSpec};

    #[test]
    fn ack_flood_matches_plain_flooding_when_failure_free() {
        let g = generators::grid(&[5, 5]).unwrap();
        let d = BallOracle::new(&g, u64::MAX).max_eccentricity().unwrap();
        let config = EngineConfig::new(ModelParams::hybrid(25)).with_max_rounds(4 * d + 4);
        let mut exec =
            Executor::with_config(&g, config, |v| AckFloodProgram::new([v as u64], 25, 2));
        let report = exec.run().unwrap();
        assert!(report.completed);
        // One extra round versus plain flooding is the ack round-trip slack.
        assert!(report.rounds <= d + 2, "took {} rounds", report.rounds);
        for p in exec.programs() {
            assert_eq!(p.known.len(), 25);
        }
    }

    /// The adversarial pair pinning the tentpole guarantee: under a heavy
    /// drop rate the naive send-once flooding stalls with most of the graph
    /// never learning the tokens, while the ack/retry program completes on
    /// the same graph under the same fault plan (same seed).
    #[test]
    fn naive_flood_stalls_where_ack_flood_completes() {
        let n = 16usize;
        let k = 4usize;
        let g = generators::path(n).unwrap();
        let params = ModelParams::hybrid(n);
        let plan = FaultPlan::new(FaultSpec::drop_only(0.6), 0xBAD, n);
        let tokens: Vec<u64> = (0..k as u64).collect();

        // Naive: floods once per new batch, no retries.  A single dropped
        // frontier message permanently stalls the wave on a path.
        let naive_config = EngineConfig::new(params).with_fault_plan(plan.clone());
        let mut naive = Executor::with_config(&g, naive_config, |v| {
            let initial = if v == 0 { tokens.clone() } else { vec![] };
            FloodProgram::new(initial, 5_000)
        });
        naive.run_capped(5_000, |ps| ps.iter().all(|p| p.known.len() >= k));
        let naive_informed = naive
            .programs()
            .iter()
            .filter(|p| p.known.len() >= k)
            .count();
        assert!(
            naive_informed < n,
            "naive flooding should stall under a 60% drop rate \
             ({naive_informed}/{n} informed — pick a different seed if this ever flips)"
        );

        // Ack/retry: same graph, same adversary, same seed — completes.
        let ack_config = EngineConfig::new(params)
            .with_fault_plan(plan)
            .with_max_rounds(5_000);
        let mut ack = Executor::with_config(&g, ack_config, |v| {
            let initial = if v == 0 { tokens.clone() } else { vec![] };
            AckFloodProgram::new(initial, k, 2)
        });
        let report = ack.run().expect("ack/retry dissemination must complete");
        assert!(report.completed, "ack/retry dissemination must complete");
        assert!(report.injected_drops > 0, "the adversary was active");
        for p in ack.programs() {
            assert_eq!(p.known.len(), k);
        }
    }

    /// The completion guarantee across the drop-rate range: any `p < 1` on a
    /// connected residual graph — exercised at 30%, 60% and 90% loss.
    #[test]
    fn ack_flood_completes_under_any_drop_rate_below_one() {
        for (drop, budget) in [(0.3, 2_000u64), (0.6, 4_000), (0.9, 20_000)] {
            let n = 12usize;
            let g = generators::cycle(n).unwrap();
            let config = EngineConfig::new(ModelParams::hybrid(n))
                .with_fault_plan(FaultPlan::new(FaultSpec::drop_only(drop), 42, n))
                .with_max_rounds(budget);
            let mut exec = Executor::with_config(&g, config, |v| {
                let initial = if v == 0 { vec![7u64] } else { vec![] };
                AckFloodProgram::new(initial, 1, 2)
            });
            let report = exec.run();
            assert!(
                report.is_ok(),
                "drop rate {drop}: not everyone informed after {budget} rounds"
            );
        }
    }

    /// The full adversary: drops, duplicates, delays, crash-restarts and a
    /// transient partition together — the residual graph is connected, so the
    /// ack/retry program still completes.
    #[test]
    fn ack_flood_survives_the_combined_adversary() {
        let n = 18usize;
        let g = generators::cycle(n).unwrap();
        let spec = FaultSpec {
            drop_prob: 0.3,
            duplicate_prob: 0.1,
            delay_prob: 0.1,
            max_delay_rounds: 3,
            crash_prob: 0.4,
            crash_down_rounds: 6,
            crash_horizon_rounds: 12,
            partition_start: 4,
            partition_rounds: 8,
        };
        let config = EngineConfig::new(ModelParams::hybrid(n))
            .with_fault_plan(FaultPlan::new(spec, 4, n))
            .with_max_rounds(10_000);
        let mut exec = Executor::with_config(&g, config, |v| {
            let initial = if v == 0 { vec![1u64, 2, 3] } else { vec![] };
            AckFloodProgram::new(initial, 3, 2)
        });
        let report = exec.run().expect("combined adversary defeated ack/retry");
        assert!(report.completed, "combined adversary defeated ack/retry");
        for p in exec.programs() {
            assert_eq!(p.known.len(), 3);
        }
    }

    #[test]
    fn det_forward_pipelines_one_token_per_edge_on_the_path() {
        let n = 12usize;
        let k = 4usize;
        let g = generators::path(n).unwrap();
        let tokens: Vec<u64> = (0..k as u64).collect();
        let config = EngineConfig::new(ModelParams::hybrid(n)).with_max_rounds(10 * (n + k) as u64);
        let mut exec = Executor::with_config(&g, config, |v| {
            DetForwardProgram::new(if v == 0 { tokens.clone() } else { vec![] }, k)
        });
        let report = exec.run().unwrap();
        assert!(report.completed);
        for p in exec.programs() {
            assert_eq!(p.known.len(), k);
        }
        // Perfect pipelining: token i reaches the far end at round (n-1)+i,
        // so everyone is informed by round (n-1)+(k-1) (+1 slack for the
        // final owed forwards in done()).
        assert!(
            report.rounds <= (n + k) as u64 + 1,
            "pipelining broke: took {} rounds",
            report.rounds
        );
        assert!(report.rounds >= (n - 1) as u64);
    }

    #[test]
    fn det_forward_is_deterministic_and_matches_flooding_sets() {
        let g = generators::grid(&[6, 5]).unwrap();
        let k = 7usize;
        let run = || {
            let mut exec = Executor::new(&g, ModelParams::hybrid(30), |v| {
                let initial: Vec<u64> = if (v as usize) < k {
                    vec![v as u64]
                } else {
                    vec![]
                };
                DetForwardProgram::new(initial, k)
            });
            let report = exec.run_capped(5_000, |ps| ps.iter().all(|p| p.done()));
            assert!(report.completed);
            let sets: Vec<Vec<u64>> = exec
                .programs()
                .iter()
                .map(|p| p.known.iter().copied().collect())
                .collect();
            (report.rounds, sets)
        };
        let (rounds_a, sets_a) = run();
        let (rounds_b, sets_b) = run();
        assert_eq!(rounds_a, rounds_b, "replay diverged");
        assert_eq!(sets_a, sets_b);
        let expected: Vec<u64> = (0..k as u64).collect();
        for set in &sets_a {
            assert_eq!(set, &expected);
        }
    }

    /// The rule the owed queues must keep: the *smallest* unpaid token goes
    /// first, to every neighbour — the one it came from included.
    #[test]
    fn det_forward_pays_a_late_small_token_before_larger_owed_ones() {
        let params = ModelParams::hybrid(3);
        let program = DetForwardProgram::new([5, 9], 3);
        let mut node = NodeRunner::new(0, vec![1, 2], &params, program);
        assert_eq!(node.init().local, vec![(1, 5), (2, 5)]);
        // 5 is forwarded, 9 is owed, 2 arrives from neighbour 2.
        assert_eq!(node.step(1, &[(2, 2)], &[]).local, vec![(1, 2), (2, 2)]);
        assert!(!node.done(), "9 is still owed to both neighbours");
        assert_eq!(node.step(2, &[(1, 5)], &[]).local, vec![(1, 9), (2, 9)]);
        assert!(node.done(), "everything known is paid");
        assert!(node.step(3, &[], &[]).local.is_empty());
    }

    /// The rules the positional caches must keep, on a node whose neighbour
    /// list is not ascending.
    #[test]
    fn ack_flood_caches_for_everyone_but_the_first_sender() {
        let ack = |ts: &[u64]| AckFloodMsg::Ack(TokenBatch::from_slice(ts));
        let tokens = |ts: &[u64]| AckFloodMsg::Tokens(TokenBatch::from_slice(ts));
        let show = |out: &[(NodeId, AckFloodMsg)]| -> Vec<(NodeId, String)> {
            let line = |(to, msg): &(NodeId, AckFloodMsg)| (*to, format!("{msg:?}"));
            out.iter().map(line).collect()
        };
        let sent = |to: NodeId, what: &str| (to, what.to_string());
        let params = ModelParams::hybrid(4);
        let program = AckFloodProgram::new([], 3, 2);
        let mut node = NodeRunner::new(0, vec![3, 1, 2], &params, program);
        assert!(node.init().local.is_empty());

        // Round 1 (no retry due): an ack for a cache that holds nothing, then
        // 7 and 9 from node 1, then 7 again from node 3.
        let inbox = [(2, ack(&[7])), (1, tokens(&[7, 9])), (3, tokens(&[7]))];
        assert_eq!(
            show(node.step(1, &inbox, &[]).local),
            vec![
                // Acks in inbox order, the duplicate batch included …
                sent(1, "Ack([7, 9])"),
                sent(3, "Ack([7])"),
                // … then the fresh caches in neighbour order: 7 is owed to
                // node 3 although node 3 also sent it, never to node 1.
                sent(3, "Tokens([7, 9])"),
                sent(2, "Tokens([7, 9])"),
            ]
        );
        assert_eq!(node.program().pending(), 4);

        // Round 2 (retry due): node 3 acks 9 only, node 2 brings a smaller
        // token.  Caches stay ascending, node 2 is not owed its own token.
        let inbox = [(3, ack(&[9, 1000])), (2, tokens(&[4]))];
        assert_eq!(
            show(node.step(2, &inbox, &[]).local),
            vec![
                sent(2, "Ack([4])"),
                sent(3, "Tokens([4, 7])"),
                sent(1, "Tokens([4])"),
                sent(2, "Tokens([7, 9])"),
            ]
        );
        assert_eq!(node.program().pending(), 5);
        assert!(node.done());

        // Round 3 (no retry due, nothing fresh): acks only shrink caches.
        let inbox = [(2, ack(&[7, 9])), (3, ack(&[4]))];
        assert!(node.step(3, &inbox, &[]).local.is_empty());
        assert_eq!(node.program().pending(), 2);
    }

    /// A hub steps in `O(deg)` per round, not `O(deg²)`: both token programs
    /// address neighbours by position.
    #[test]
    fn token_programs_complete_on_a_star_with_4096_nodes() {
        let n = 4096usize;
        let g = generators::star(n).unwrap();
        let tokens = |v: NodeId| if v == 17 { vec![1u64, 2, 3] } else { vec![] };
        let config = || EngineConfig::new(ModelParams::hybrid(n)).with_max_rounds(64);

        let mut ack =
            Executor::with_config(&g, config(), |v| AckFloodProgram::new(tokens(v), 3, 2));
        assert!(ack.run().unwrap().completed);
        assert!(ack.programs().iter().all(|p| p.known.len() == 3));

        let mut det = Executor::with_config(&g, config(), |v| DetForwardProgram::new(tokens(v), 3));
        assert!(det.run().unwrap().completed);
        assert!(det.programs().iter().all(|p| p.known.len() == 3));
    }

    #[test]
    fn gossip_disseminates_small_k() {
        let g = generators::cycle(30).unwrap();
        let k = 5usize;
        let mut exec = Executor::new(&g, ModelParams::hybrid(30), |v| {
            let initial: Vec<u64> = if (v as usize) < k {
                vec![v as u64]
            } else {
                vec![]
            };
            TokenGossipProgram::new(v, 30, initial, k, 7)
        });
        let report = exec.run_capped(500, |ps| ps.iter().all(|p| p.done()));
        assert!(report.completed, "gossip did not finish in 500 rounds");
        for p in exec.programs() {
            assert_eq!(p.known.len(), k);
        }
    }
}
