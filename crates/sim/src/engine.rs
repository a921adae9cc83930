//! A true per-node synchronous message-passing engine.
//!
//! Every node of the local communication graph runs its own [`NodeProgram`]
//! instance.  In each round the executor
//!
//! 1. hands every node the local and global messages addressed to it in the
//!    previous round,
//! 2. lets it perform arbitrary local computation and enqueue outgoing
//!    messages (local messages only to neighbours; global messages to any
//!    known node, subject to the per-round send cap `γ`),
//! 3. enforces the per-round global *receive* cap `γ`: excess messages are
//!    dropped (the paper's "adversary drops messages" reading, Section 1.3)
//!    and counted, so tests can assert that well-designed algorithms never
//!    exceed the bound.
//!
//! # Mailbox engine
//!
//! Delivery — staging, fault pass, the stable scatter by destination into
//! double-buffered flat arenas, the `γ` receive cap, accounting and traces —
//! is the [`RoundRouter`]'s, shared with the networked runtime; this module
//! contributes the program-facing half ([`NodeCtx`], [`NodeProgram`]) and the
//! step loop over in-process programs.
//!
//! A program reads its inboxes and its neighbour list *in place*: the
//! [`NodeCtx`] accessors hand out slices that outlive the borrow of the
//! context, so iterating an inbox while sending needs no copy.  The executor
//! moves every message by value (outbox → stage → arena), serializes nothing
//! and reuses all of its buffers round over round, and the shipped
//! [`programs`](crate::programs) keep their per-neighbour state
//! incrementally.  Token payloads are [`TokenBatch`](crate::TokenBatch)es
//! that live inside the message, so a steady-state round allocates only for
//! a batch too long to fit there (one buffer, shared by every clone and
//! echo of it) and for program state that grows; `u64` messages and global
//! pushes allocate nothing.  `tests/alloc_budget.rs` holds all three to a
//! budget.  [`NodeRunner`] keeps its two outboxes too.
//!
//! This engine is used for the simpler primitives (flooding, BFS, token
//! gossip) and to validate the phase engine against a fully explicit
//! execution; the heavy universal algorithms use the phase engine in
//! [`crate::network`].

use std::convert::Infallible;

use hybrid_graph::{Graph, NodeId};

use crate::config::{EngineConfig, EngineError};
use crate::envelope::{Body, RoundTrace};
use crate::params::ModelParams;
use crate::router::RoundRouter;

/// Per-round interface a node program uses to read its mailboxes and send
/// messages.
pub struct NodeCtx<'a, M> {
    node: NodeId,
    neighbors: &'a [NodeId],
    local_inbox: &'a [(NodeId, M)],
    global_inbox: &'a [(NodeId, M)],
    local_outbox: &'a mut Vec<(NodeId, M)>,
    global_outbox: &'a mut Vec<(NodeId, M)>,
    gamma: usize,
    global_send_overflow: u64,
}

impl<'a, M: Clone> NodeCtx<'a, M> {
    /// This node's identifier.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Neighbours in the local communication graph.  Like the inboxes, the
    /// slice outlives this borrow of the context, so a program can walk it
    /// while sending.
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }

    /// Local messages received this round as `(sender, message)` pairs.
    pub fn local_inbox(&self) -> &'a [(NodeId, M)] {
        self.local_inbox
    }

    /// Global messages received this round as `(sender, message)` pairs.
    pub fn global_inbox(&self) -> &'a [(NodeId, M)] {
        self.global_inbox
    }

    /// Sends a message over the local edge to `to`.  `O(deg)`: a program that
    /// already walks [`neighbors`](Self::neighbors) by position should use
    /// [`send_neighbor`](Self::send_neighbor).
    ///
    /// # Panics
    /// Panics if `to` is not a neighbour — local communication only exists
    /// along edges of `G`.
    pub fn send_local(&mut self, to: NodeId, msg: M) {
        assert!(
            self.neighbors.contains(&to),
            "node {} tried to send a local message to non-neighbor {}",
            self.node,
            to
        );
        self.local_outbox.push((to, msg));
    }

    /// Sends a message over the local edge to `neighbors()[i]`.
    ///
    /// # Panics
    /// Panics if `i` is not a position of [`neighbors`](Self::neighbors).
    pub fn send_neighbor(&mut self, i: usize, msg: M) {
        let Some(&to) = self.neighbors.get(i) else {
            panic!(
                "node {} tried to send to neighbor #{i} of {}",
                self.node,
                self.neighbors.len()
            );
        };
        self.local_outbox.push((to, msg));
    }

    /// Sends `msg` to every neighbour over the local network: one clone per
    /// neighbour but the last, which gets `msg` itself.
    pub fn broadcast_local(&mut self, msg: M) {
        let Some((&last, rest)) = self.neighbors.split_last() else {
            return;
        };
        for &nb in rest {
            self.local_outbox.push((nb, msg.clone()));
        }
        self.local_outbox.push((last, msg));
    }

    /// Sends a global message to an arbitrary node.  Returns `false` (and does
    /// not send) if this node has already used its `γ` global sends this round.
    pub fn send_global(&mut self, to: NodeId, msg: M) -> bool {
        if self.global_outbox.len() >= self.gamma {
            self.global_send_overflow += 1;
            return false;
        }
        self.global_outbox.push((to, msg));
        true
    }

    /// Remaining global send budget this round.
    pub fn global_budget_left(&self) -> usize {
        self.gamma.saturating_sub(self.global_outbox.len())
    }
}

/// A per-node synchronous program.
///
/// The message type is bound by [`Body`], so the same program runs on the
/// in-process engine (messages moved by value, never serialized) and on the
/// networked `hybrid-node` runtime (messages framed as JSON envelopes at the
/// process boundary) without modification.
pub trait NodeProgram {
    /// Message type exchanged by the program (same for local and global mode).
    type Msg: Body;

    /// Called once before the first round (round 0), e.g. to seed initial
    /// messages.
    fn init(&mut self, _ctx: &mut NodeCtx<'_, Self::Msg>) {}

    /// Called once per round with the messages received at the beginning of
    /// the round.
    fn on_round(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, round: u64);

    /// Whether this node considers itself finished (it will still receive
    /// messages and may be woken up again).
    fn done(&self) -> bool;
}

/// Summary of an engine execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Local messages delivered.
    pub local_messages: u64,
    /// Global messages delivered.
    pub global_messages: u64,
    /// Global messages dropped because a receiver exceeded its per-round cap.
    pub dropped_global: u64,
    /// Global sends refused because a sender exceeded its per-round cap.
    pub refused_sends: u64,
    /// Messages destroyed by fault injection: drop fates, crashed receivers
    /// and partition-severed local edges (zero without a fault plan).
    pub injected_drops: u64,
    /// Extra message copies delivered by fault-injected duplication.
    pub injected_duplicates: u64,
    /// Messages held back by fault-injected delay (each is delivered later).
    pub injected_delays: u64,
    /// Whether the run ended because every program reported `done()`
    /// (otherwise the round limit was hit).
    pub completed: bool,
}

/// Synchronous executor running one [`NodeProgram`] per node.
///
/// Configuration — model parameters, fault plan, round cap, trace recording
/// — comes from one [`EngineConfig`] ([`Executor::with_config`]), the same
/// builder the phase engine and the networked driver accept.
///
/// With a fault plan installed ([`EngineConfig::with_fault_plan`]) the
/// [`RoundRouter`] meets every staged message with the adversary: a crashed
/// node executes no program steps and receives nothing while down (its state
/// survives — the crash-*restart* model), a partition-severed local edge
/// carries nothing, and surviving messages draw a drop / duplicate / delay
/// fate from the plan's hash stream.  The fate coordinate is the *sending*
/// round, so the engine and the phase engine address the same adversary.
pub struct Executor<'g, P: NodeProgram> {
    graph: &'g Graph,
    config: EngineConfig,
    programs: Vec<P>,
    neighbor_lists: Vec<Vec<NodeId>>,
    trace: Vec<RoundTrace>,
}

impl<'g, P: NodeProgram> Executor<'g, P> {
    /// Creates an executor with one program per node (programs are produced by
    /// the factory, which receives the node id) and default configuration.
    pub fn new(graph: &'g Graph, params: ModelParams, factory: impl FnMut(NodeId) -> P) -> Self {
        Self::with_config(graph, EngineConfig::new(params), factory)
    }

    /// Creates an executor from a full [`EngineConfig`].
    ///
    /// # Panics
    /// Panics if `config.params().n` does not match the graph's node count.
    pub fn with_config(
        graph: &'g Graph,
        config: EngineConfig,
        factory: impl FnMut(NodeId) -> P,
    ) -> Self {
        assert_eq!(config.params().n, graph.n());
        let programs: Vec<P> = graph.nodes().map(factory).collect();
        let neighbor_lists: Vec<Vec<NodeId>> = graph
            .nodes()
            .map(|v| graph.neighbors(v).collect())
            .collect();
        Executor {
            graph,
            config,
            programs,
            neighbor_lists,
            trace: Vec::new(),
        }
    }

    /// Read access to the per-node programs (e.g. to extract results).
    pub fn programs(&self) -> &[P] {
        &self.programs
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The per-round delivered-message trace of the last run, emptied out.
    /// Non-empty only when the configuration enables trace recording.
    pub fn take_trace(&mut self) -> Vec<RoundTrace> {
        std::mem::take(&mut self.trace)
    }

    /// Runs until every program reports `done()`.
    ///
    /// # Errors
    /// [`EngineError::RoundLimitExceeded`] (carrying the partial report) if
    /// the configured round cap is exhausted first — truncation is a typed
    /// error, never a silently capped report.
    pub fn run(&mut self) -> Result<RunReport, EngineError> {
        self.run_until(|programs| programs.iter().all(|p| p.done()))
    }

    /// Runs until `stop(programs)` holds (checked after every round).
    ///
    /// # Errors
    /// [`EngineError::RoundLimitExceeded`] if the configured round cap is
    /// exhausted before the stop condition holds.
    pub fn run_until(&mut self, stop: impl Fn(&[P]) -> bool) -> Result<RunReport, EngineError> {
        let limit = self.config.max_rounds();
        self.run_capped(limit, stop).completed_within(limit)
    }

    /// Runs a deliberately bounded window: at most `max_rounds` rounds,
    /// stopping early iff `stop(programs)` holds.  Unlike [`Executor::run`],
    /// hitting the bound is *not* an error — the report's `completed` flag
    /// records whether the stop condition was reached.  Use this when the
    /// window itself is the experiment (partial flooding, fixed-horizon
    /// sweeps); use `run`/`run_until` when termination is expected.
    pub fn run_capped(&mut self, max_rounds: u64, stop: impl Fn(&[P]) -> bool) -> RunReport {
        let n = self.graph.n();
        let gamma = self.config.params().global_capacity_msgs;
        let programs = &mut self.programs;
        let neighbor_lists = &self.neighbor_lists;
        // Per-node outboxes, drained into the router after every node and
        // reused.
        let mut local_out: Vec<(NodeId, P::Msg)> = Vec::new();
        let mut global_out: Vec<(NodeId, P::Msg)> = Vec::new();
        let run = RoundRouter::new(&self.config).run(max_rounds, |router, round| {
            for v in 0..n {
                let node = v as NodeId;
                if router.is_down(node, round) {
                    continue;
                }
                let refused = program_step(
                    &mut programs[v],
                    round,
                    (node, &neighbor_lists[v], gamma),
                    [router.local_inbox(node), router.global_inbox(node)],
                    [&mut local_out, &mut global_out],
                );
                router.stage(node, local_out.drain(..), global_out.drain(..), refused);
            }
            Ok::<bool, Infallible>(stop(programs))
        });
        let Ok((report, trace)) = run;
        self.trace = trace;
        report
    }
}

/// One program step, the rule the [`Executor`] and the [`NodeRunner`]
/// share: build `node`'s [`NodeCtx`] over its `[local, global]` inboxes and
/// outboxes, call `init` in round 0 and `on_round` in every later round, and
/// return the global sends the γ cap refused.
fn program_step<P: NodeProgram>(
    program: &mut P,
    round: u64,
    (node, neighbors, gamma): (NodeId, &[NodeId], usize),
    [local_inbox, global_inbox]: [&[(NodeId, P::Msg)]; 2],
    [local_outbox, global_outbox]: [&mut Vec<(NodeId, P::Msg)>; 2],
) -> u64 {
    let mut ctx = NodeCtx {
        node,
        neighbors,
        local_inbox,
        global_inbox,
        local_outbox,
        global_outbox,
        gamma,
        global_send_overflow: 0,
    };
    if round == 0 {
        program.init(&mut ctx);
    } else {
        program.on_round(&mut ctx, round);
    }
    ctx.global_send_overflow
}

/// The outgoing messages of one program step, in send order: a view of the
/// runner's own outboxes, which the next step overwrites.
///
/// The γ *send* cap has already been enforced by the runner (refusals are
/// counted); the γ *receive* cap is the [`RoundRouter`]'s job, for the
/// in-process executor and the networked driver alike.
#[derive(Debug, Clone, Copy)]
pub struct StepOutput<'a, M> {
    /// Local messages as `(destination, payload)` — destinations are always
    /// neighbours (enforced by [`NodeCtx::send_local`]).
    pub local: &'a [(NodeId, M)],
    /// Global messages as `(destination, payload)`, at most γ of them.
    pub global: &'a [(NodeId, M)],
    /// Global sends refused by the γ send cap this step.
    pub refused: u64,
    /// Whether the program reports itself finished after this step.
    pub done: bool,
}

/// Drives a single node's [`NodeProgram`] outside the in-process executor.
///
/// This is the building block of the networked `hybrid-node` runtime: one
/// process holds one `NodeRunner` and exchanges inboxes/outboxes with the
/// driver over the wire.  The runner and the executor take each program step
/// through the same private `program_step`, so program-facing semantics — the
/// init/on_round split, neighbour checks, the γ send cap, budget accounting
/// — are identical by construction, not by reimplementation.
pub struct NodeRunner<P: NodeProgram> {
    node: NodeId,
    neighbors: Vec<NodeId>,
    gamma: usize,
    local_enabled: bool,
    program: P,
    /// The step's outboxes, kept so a node process allocates none per round.
    local_out: Vec<(NodeId, P::Msg)>,
    global_out: Vec<(NodeId, P::Msg)>,
}

impl<P: NodeProgram> NodeRunner<P> {
    /// Creates a runner for `node` with its local-graph neighbourhood.
    pub fn new(node: NodeId, neighbors: Vec<NodeId>, params: &ModelParams, program: P) -> Self {
        NodeRunner {
            node,
            neighbors,
            gamma: params.global_capacity_msgs,
            local_enabled: params.has_local(),
            program,
            local_out: Vec::new(),
            global_out: Vec::new(),
        }
    }

    /// This node's identifier.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Runs the program's init pass (round 0) with empty inboxes.
    pub fn init(&mut self) -> StepOutput<'_, P::Msg> {
        self.step(0, &[], &[])
    }

    /// Runs one program round with the given inboxes: `on_round`, or `init`
    /// in round 0.
    pub fn step(
        &mut self,
        round: u64,
        local_inbox: &[(NodeId, P::Msg)],
        global_inbox: &[(NodeId, P::Msg)],
    ) -> StepOutput<'_, P::Msg> {
        self.local_out.clear();
        self.global_out.clear();
        let refused = program_step(
            &mut self.program,
            round,
            (self.node, &self.neighbors, self.gamma),
            [local_inbox, global_inbox],
            [&mut self.local_out, &mut self.global_out],
        );
        assert!(
            self.local_out.is_empty() || self.local_enabled,
            "node {} sent local messages but the model has no local mode",
            self.node
        );
        StepOutput {
            local: &self.local_out,
            global: &self.global_out,
            refused,
            done: self.program.done(),
        }
    }

    /// Whether the program reports itself finished.
    pub fn done(&self) -> bool {
        self.program.done()
    }

    /// Read access to the program (e.g. to extract final state).
    pub fn program(&self) -> &P {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::TraceEntry;
    use hybrid_graph::generators;

    /// A trivial program: node 0 starts a wave; every node forwards the wave
    /// to its neighbours once; done when it has seen the wave.
    struct Wave {
        id: NodeId,
        seen: bool,
        forwarded: bool,
    }

    impl NodeProgram for Wave {
        type Msg = ();

        fn init(&mut self, ctx: &mut NodeCtx<'_, ()>) {
            if self.id == 0 {
                self.seen = true;
                self.forwarded = true;
                ctx.broadcast_local(());
            }
        }

        fn on_round(&mut self, ctx: &mut NodeCtx<'_, ()>, _round: u64) {
            if !ctx.local_inbox().is_empty() {
                self.seen = true;
            }
            if self.seen && !self.forwarded {
                self.forwarded = true;
                ctx.broadcast_local(());
            }
        }

        fn done(&self) -> bool {
            self.seen
        }
    }

    #[test]
    fn wave_reaches_everyone_in_diameter_rounds() {
        let g = generators::path(10).unwrap();
        let params = ModelParams::hybrid(10);
        let mut exec = Executor::new(&g, params, |id| Wave {
            id,
            seen: false,
            forwarded: false,
        });
        let report = exec.run().expect("wave completes well under the cap");
        assert!(report.completed);
        assert_eq!(report.rounds, 9);
        assert!(exec.programs().iter().all(|p| p.seen));
        assert_eq!(report.dropped_global, 0);
    }

    /// Program where everyone sends a global message to node 0 in round 1;
    /// with small gamma most messages are dropped — the engine must count them.
    struct Spam {
        id: NodeId,
        received: usize,
    }

    impl NodeProgram for Spam {
        type Msg = u32;

        fn on_round(&mut self, ctx: &mut NodeCtx<'_, u32>, round: u64) {
            if round == 1 && self.id != 0 {
                ctx.send_global(0, self.id);
            }
            self.received += ctx.global_inbox().len();
        }

        fn done(&self) -> bool {
            false
        }
    }

    #[test]
    fn receive_cap_drops_excess() {
        let g = generators::star(20).unwrap();
        let params = ModelParams::hybrid_with_global_capacity(20, 4);
        let mut exec = Executor::new(&g, params, |id| Spam { id, received: 0 });
        let report = exec.run_capped(3, |_| false);
        assert_eq!(report.rounds, 3);
        assert_eq!(report.global_messages, 4);
        assert_eq!(report.dropped_global, 15);
        assert_eq!(exec.programs()[0].received, 4);
    }

    /// Sender-side cap: a node trying to send more than gamma global messages
    /// in one round has the excess refused.
    struct Blaster {
        id: NodeId,
        refused: bool,
    }

    impl NodeProgram for Blaster {
        type Msg = ();

        fn on_round(&mut self, ctx: &mut NodeCtx<'_, ()>, round: u64) {
            if round == 1 && self.id == 0 {
                for t in 1..10u32 {
                    if !ctx.send_global(t, ()) {
                        self.refused = true;
                    }
                }
                assert_eq!(ctx.global_budget_left(), 0);
            }
        }

        fn done(&self) -> bool {
            true
        }
    }

    #[test]
    fn send_cap_refuses_excess() {
        let g = generators::cycle(10).unwrap();
        let params = ModelParams::hybrid_with_global_capacity(10, 3);
        let mut exec = Executor::new(&g, params, |id| Blaster { id, refused: false });
        let report = exec.run_capped(1, |_| false);
        assert_eq!(report.global_messages, 3);
        assert_eq!(report.refused_sends, 6);
        assert!(exec.programs()[0].refused);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn local_send_to_non_neighbor_panics() {
        struct Bad;
        impl NodeProgram for Bad {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut NodeCtx<'_, ()>, _round: u64) {
                if ctx.node() == 0 {
                    ctx.send_local(5, ());
                }
            }
            fn done(&self) -> bool {
                false
            }
        }
        let g = generators::path(10).unwrap();
        let mut exec = Executor::new(&g, ModelParams::hybrid(10), |_| Bad);
        exec.run_capped(1, |_| false);
    }

    #[test]
    #[should_panic(expected = "node 4 tried to send to neighbor #2 of 2")]
    fn send_to_a_neighbor_position_out_of_bounds_panics() {
        struct Bad;
        impl NodeProgram for Bad {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut NodeCtx<'_, ()>, _round: u64) {
                if ctx.node() == 4 {
                    ctx.send_neighbor(ctx.neighbors().len(), ());
                }
            }
            fn done(&self) -> bool {
                false
            }
        }
        let g = generators::path(10).unwrap();
        let mut exec = Executor::new(&g, ModelParams::hybrid(10), |_| Bad);
        exec.run_capped(1, |_| false);
    }

    /// Reference executor reproducing the pre-arena ("seed") mailbox
    /// semantics literally: per-node `Vec` inboxes rebuilt every round,
    /// senders routed in node order, receive cap applied in arrival order.
    /// The regression tests below prove the arena engine delivers the exact
    /// same per-round messages.
    fn run_reference<P: NodeProgram>(
        graph: &Graph,
        params: ModelParams,
        mut factory: impl FnMut(NodeId) -> P,
        max_rounds: u64,
    ) -> (Vec<P>, RunReport) {
        let n = graph.n();
        let gamma = params.global_capacity_msgs;
        let local_enabled = params.has_local();
        let mut programs: Vec<P> = graph.nodes().map(&mut factory).collect();
        let neighbor_lists: Vec<Vec<NodeId>> = graph
            .nodes()
            .map(|v| graph.neighbors(v).collect())
            .collect();

        let mut report = RunReport::default();
        let mut local_inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];
        let mut global_inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];

        let route = |sender: NodeId,
                     local_outbox: Vec<(NodeId, P::Msg)>,
                     global_outbox: Vec<(NodeId, P::Msg)>,
                     out_local: &mut Vec<Vec<(NodeId, P::Msg)>>,
                     out_global: &mut Vec<Vec<(NodeId, P::Msg)>>,
                     out_counts: &mut Vec<usize>,
                     report: &mut RunReport| {
            assert!(local_outbox.is_empty() || local_enabled);
            for (to, msg) in local_outbox {
                out_local[to as usize].push((sender, msg));
                report.local_messages += 1;
            }
            for (to, msg) in global_outbox {
                if out_counts[to as usize] < gamma {
                    out_counts[to as usize] += 1;
                    out_global[to as usize].push((sender, msg));
                    report.global_messages += 1;
                } else {
                    report.dropped_global += 1;
                }
            }
        };

        for round in 0..=max_rounds {
            let mut out_local: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];
            let mut out_global: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];
            let mut out_counts: Vec<usize> = vec![0; n];
            for v in 0..n {
                let mut local_outbox = Vec::new();
                let mut global_outbox = Vec::new();
                let mut ctx = NodeCtx {
                    node: v as NodeId,
                    neighbors: &neighbor_lists[v],
                    local_inbox: &local_inboxes[v],
                    global_inbox: &global_inboxes[v],
                    local_outbox: &mut local_outbox,
                    global_outbox: &mut global_outbox,
                    gamma,
                    global_send_overflow: 0,
                };
                if round == 0 {
                    programs[v].init(&mut ctx);
                } else {
                    programs[v].on_round(&mut ctx, round);
                }
                report.refused_sends += ctx.global_send_overflow;
                route(
                    v as NodeId,
                    local_outbox,
                    global_outbox,
                    &mut out_local,
                    &mut out_global,
                    &mut out_counts,
                    &mut report,
                );
            }
            if round > 0 {
                report.rounds = round;
            }
            local_inboxes = out_local;
            global_inboxes = out_global;
        }
        (programs, report)
    }

    /// `(round, local inbox, global inbox)` as received by one node.
    type InboxLogEntry = (u64, Vec<(NodeId, u64)>, Vec<(NodeId, u64)>);

    /// A deterministic chaos program: every node records every inbox it ever
    /// sees and sends a pseudo-random pattern of local and global messages
    /// derived only from `(node, round)` — so the arena engine and the
    /// reference engine face the identical workload.
    #[derive(Clone)]
    struct Chaos {
        id: NodeId,
        n: u32,
        log: Vec<InboxLogEntry>,
    }

    fn mix(a: u64, b: u64) -> u64 {
        let mut z = a
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(b.wrapping_mul(0xD134_2543_DE82_EF95));
        z ^= z >> 29;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 32)
    }

    impl NodeProgram for Chaos {
        type Msg = u64;

        fn init(&mut self, ctx: &mut NodeCtx<'_, u64>) {
            self.on_round(ctx, 0);
        }

        fn on_round(&mut self, ctx: &mut NodeCtx<'_, u64>, round: u64) {
            self.log.push((
                round,
                ctx.local_inbox().to_vec(),
                ctx.global_inbox().to_vec(),
            ));
            let h = mix(self.id as u64, round);
            // A bursty local pattern: some nodes broadcast, some stay silent.
            if h.is_multiple_of(3) {
                ctx.broadcast_local(h);
            }
            if h % 5 == 1 {
                if let Some(&nb) = ctx.neighbors().first() {
                    ctx.send_local(nb, h ^ 0xAB);
                }
            }
            // Global fan-in that intentionally overloads a few hot receivers
            // so the receive cap and the send cap both trigger.
            let sends = (h % 7) as u32;
            for i in 0..sends {
                let target = mix(h, i as u64) as u32 % self.n;
                ctx.send_global(target % 4, target as u64);
                ctx.send_global(target, i as u64);
            }
        }

        fn done(&self) -> bool {
            false
        }
    }

    #[test]
    fn arena_engine_matches_reference_per_round_messages() {
        for (graph, gamma) in [
            (generators::grid(&[6, 5]).unwrap(), 3),
            (generators::star(24).unwrap(), 2),
            (generators::cycle(17).unwrap(), 5),
            (generators::tree_balanced(3, 3).unwrap(), 4),
        ] {
            let n = graph.n();
            let params = ModelParams::hybrid_with_global_capacity(n, gamma);
            let factory = |id: NodeId| Chaos {
                id,
                n: n as u32,
                log: Vec::new(),
            };
            let mut exec = Executor::new(&graph, params, factory);
            let report = exec.run_capped(12, |_| false);
            let (ref_programs, ref_report) = run_reference(&graph, params, factory, 12);
            assert_eq!(report, ref_report, "reports diverge on n={n} gamma={gamma}");
            for (p, r) in exec.programs().iter().zip(&ref_programs) {
                // The exact per-round inbox sequences must match — not just
                // the multisets: the engine's delivery order is part of its
                // deterministic contract.
                assert_eq!(p.log, r.log, "node {} inbox history diverged", p.id);
            }
        }
    }

    #[test]
    fn arena_engine_matches_reference_multisets_under_heavy_load() {
        let graph = generators::complete(12).unwrap();
        let params = ModelParams::hybrid_with_global_capacity(12, 2);
        let factory = |id: NodeId| Chaos {
            id,
            n: 12,
            log: Vec::new(),
        };
        let mut exec = Executor::new(&graph, params, factory);
        exec.run_capped(8, |_| false);
        let (ref_programs, _) = run_reference(&graph, params, factory, 8);
        for (p, r) in exec.programs().iter().zip(&ref_programs) {
            for ((ra, la, ga), (rb, lb, gb)) in p.log.iter().zip(&r.log) {
                assert_eq!(ra, rb);
                let mut la = la.clone();
                let mut lb = lb.clone();
                la.sort_unstable();
                lb.sort_unstable();
                assert_eq!(la, lb, "local multiset diverged at round {ra}");
                let mut ga = ga.clone();
                let mut gb = gb.clone();
                ga.sort_unstable();
                gb.sort_unstable();
                assert_eq!(ga, gb, "global multiset diverged at round {ra}");
            }
        }
    }

    #[test]
    fn failure_free_fault_plan_changes_nothing() {
        use crate::faults::{FaultPlan, FaultSpec};
        let graph = generators::grid(&[6, 5]).unwrap();
        let n = graph.n();
        let params = ModelParams::hybrid_with_global_capacity(n, 3);
        let factory = |id: NodeId| Chaos {
            id,
            n: n as u32,
            log: Vec::new(),
        };
        let mut plain = Executor::new(&graph, params, factory);
        let plain_report = plain.run_capped(10, |_| false);
        let config =
            EngineConfig::new(params).with_fault_plan(FaultPlan::new(FaultSpec::none(), 9, n));
        let mut with_plan = Executor::with_config(&graph, config, factory);
        let plan_report = with_plan.run_capped(10, |_| false);
        assert_eq!(plain_report, plan_report);
        assert_eq!(plan_report.injected_drops, 0);
        for (p, r) in plain.programs().iter().zip(with_plan.programs()) {
            assert_eq!(p.log, r.log);
        }
    }

    #[test]
    fn injected_drops_are_counted_and_deterministic() {
        use crate::faults::{FaultPlan, FaultSpec};
        let graph = generators::cycle(20).unwrap();
        let params = ModelParams::hybrid_with_global_capacity(20, 4);
        let factory = |id: NodeId| Chaos {
            id,
            n: 20,
            log: Vec::new(),
        };
        let spec = FaultSpec {
            drop_prob: 0.3,
            duplicate_prob: 0.1,
            delay_prob: 0.1,
            max_delay_rounds: 2,
            ..FaultSpec::none()
        };
        let run = |seed: u64| {
            let config = EngineConfig::new(params).with_fault_plan(FaultPlan::new(spec, seed, 20));
            let mut exec = Executor::with_config(&graph, config, factory);
            let report = exec.run_capped(12, |_| false);
            let logs: Vec<_> = exec.programs().iter().map(|p| p.log.clone()).collect();
            (report, logs)
        };
        let (ra, la) = run(5);
        let (rb, lb) = run(5);
        let (rc, _) = run(6);
        assert_eq!(ra, rb, "same seed must reproduce the identical run");
        assert_eq!(la, lb, "same seed must reproduce identical inbox traces");
        assert!(ra.injected_drops > 0);
        assert!(ra.injected_delays > 0);
        assert_ne!(
            (
                ra.injected_drops,
                ra.injected_duplicates,
                ra.injected_delays
            ),
            (
                rc.injected_drops,
                rc.injected_duplicates,
                rc.injected_delays
            ),
            "a different seed should draw a different fault schedule"
        );
    }

    #[test]
    fn crashed_nodes_sleep_and_keep_their_state() {
        use crate::faults::{FaultPlan, FaultSpec};
        /// A persistent flooder: once a node has the pulse it rebroadcasts it
        /// every round — so crashed receivers recover the pulse after they
        /// restart (unlike `Wave`, which forwards exactly once and would
        /// permanently lose anything addressed to a sleeping node).
        struct Pulse {
            id: NodeId,
            seen: bool,
        }
        impl NodeProgram for Pulse {
            type Msg = ();
            fn init(&mut self, _ctx: &mut NodeCtx<'_, ()>) {
                self.seen = self.id == 0;
            }
            fn on_round(&mut self, ctx: &mut NodeCtx<'_, ()>, _round: u64) {
                if !ctx.local_inbox().is_empty() {
                    self.seen = true;
                }
                if self.seen {
                    ctx.broadcast_local(());
                }
            }
            fn done(&self) -> bool {
                self.seen
            }
        }

        let g = generators::path(10).unwrap();
        let params = ModelParams::hybrid(10);
        // Horizon 1 pins every crash to round 1: the whole path sleeps for
        // rounds 1..=4, state survives, and the pulse spreads after restart.
        let spec = FaultSpec {
            crash_prob: 1.0,
            crash_down_rounds: 4,
            crash_horizon_rounds: 1,
            ..FaultSpec::none()
        };
        let config = EngineConfig::new(params)
            .with_fault_plan(FaultPlan::new(spec, 1, 10))
            .with_max_rounds(100);
        let mut exec = Executor::with_config(&g, config, |id| Pulse { id, seen: false });
        let report = exec.run().expect("the pulse completes after the restarts");
        assert!(report.completed, "the pulse completes after the restarts");
        assert!(
            report.rounds > 9,
            "sleeping through the crash window must cost rounds (took {})",
            report.rounds
        );
        assert!(exec.programs().iter().all(|p| p.seen));
    }

    #[test]
    fn exhausting_the_round_cap_is_a_typed_error() {
        // Spam never reports done, so any cap is exhausted.
        let g = generators::star(8).unwrap();
        let params = ModelParams::hybrid_with_global_capacity(8, 2);
        let config = EngineConfig::new(params).with_max_rounds(5);
        let mut exec = Executor::with_config(&g, config, |id| Spam { id, received: 0 });
        let err = exec.run().expect_err("spam never completes");
        let EngineError::RoundLimitExceeded { limit, report } = err;
        assert_eq!(limit, 5);
        assert_eq!(report.rounds, 5);
        assert!(!report.completed);
        // The partial report still carries the full accounting.
        assert_eq!(report.global_messages, 2);
        assert_eq!(report.dropped_global, 5);
    }

    #[test]
    fn trace_records_delivery_order_bit_for_bit() {
        let g = generators::path(3).unwrap();
        let params = ModelParams::hybrid(3);
        let config = EngineConfig::new(params).with_trace(true);
        let mut exec = Executor::with_config(&g, config, |id| Wave {
            id,
            seen: false,
            forwarded: false,
        });
        let report = exec.run().unwrap();
        assert_eq!(report.rounds, 2);
        let trace = exec.take_trace();
        // Sending rounds 0, 1, 2: node 0 broadcasts at init, node 1 forwards
        // in round 1, node 2 forwards in round 2 (delivered, read by nobody
        // new).  `Wave`'s message type is `()`, rendered as JSON `null`.
        let nil = || "null".to_string();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].round, 0);
        assert_eq!(
            trace[0].local,
            vec![TraceEntry {
                src: 0,
                dst: 1,
                body: nil()
            }]
        );
        assert_eq!(trace[1].round, 1);
        assert_eq!(
            trace[1].local,
            vec![
                TraceEntry {
                    src: 1,
                    dst: 0,
                    body: nil()
                },
                TraceEntry {
                    src: 1,
                    dst: 2,
                    body: nil()
                }
            ]
        );
        assert_eq!(trace[2].round, 2);
        assert!(trace.iter().all(|r| r.global.is_empty()));
        // take_trace drains.
        assert!(exec.take_trace().is_empty());
    }

    /// Drives `Wave` on a path through [`NodeRunner`]s with hand-rolled
    /// routing — the networked driver's control flow in miniature — and
    /// checks the outcome matches the in-process executor exactly.
    #[test]
    fn node_runners_replicate_the_executor() {
        let g = generators::path(6).unwrap();
        let params = ModelParams::hybrid(6);
        let n = g.n();

        let mut runners: Vec<NodeRunner<Wave>> = g
            .nodes()
            .map(|v| {
                NodeRunner::new(
                    v,
                    g.neighbors(v).collect(),
                    &params,
                    Wave {
                        id: v,
                        seen: false,
                        forwarded: false,
                    },
                )
            })
            .collect();

        // Round 0 (init), then lock-step rounds with node-id-order routing.
        let mut inboxes: Vec<Vec<(NodeId, ())>> = vec![Vec::new(); n];
        for runner in &mut runners {
            let node = runner.node();
            let out = runner.init();
            assert_eq!(out.refused, 0);
            for &(to, msg) in out.local {
                inboxes[to as usize].push((node, msg));
            }
        }
        let mut rounds = 0u64;
        while !runners.iter().all(|r| r.done()) {
            rounds += 1;
            let mut next: Vec<Vec<(NodeId, ())>> = vec![Vec::new(); n];
            for (v, runner) in runners.iter_mut().enumerate() {
                let node = runner.node();
                let out = runner.step(rounds, &inboxes[v], &[]);
                for &(to, msg) in out.local {
                    next[to as usize].push((node, msg));
                }
            }
            inboxes = next;
            assert!(rounds < 100, "runaway");
        }

        let mut exec = Executor::new(&g, params, |id| Wave {
            id,
            seen: false,
            forwarded: false,
        });
        let report = exec.run().unwrap();
        assert_eq!(rounds, report.rounds);
        for (runner, p) in runners.iter().zip(exec.programs()) {
            assert_eq!(runner.program().seen, p.seen);
        }
    }

    #[test]
    fn node_runner_enforces_the_send_cap() {
        let params = ModelParams::hybrid_with_global_capacity(10, 3);
        let mut runner = NodeRunner::new(
            0,
            vec![1],
            &params,
            Blaster {
                id: 0,
                refused: false,
            },
        );
        runner.init();
        let out = runner.step(1, &[], &[]);
        assert_eq!(out.global.len(), 3);
        assert_eq!(out.refused, 6);
        assert!(runner.program().refused);
    }
}
