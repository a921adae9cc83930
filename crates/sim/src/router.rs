//! The one per-round delivery rule of the per-node engine, and the one round
//! loop that applies it.
//!
//! The model (paper Section 1.3) delivers every round the same way: each node
//! sends and receives at most `γ` global messages, overflow is dropped.  A
//! [`RoundRouter`] owns everything between "a node produced outboxes" and "a
//! node reads inboxes":
//!
//! 1. outboxes are staged in node-id order, each message tagged with a
//!    running per-plane sequence number;
//! 2. with a fault plan installed, held (delayed) messages re-enter the stage
//!    and every staged message meets the adversary — partition cut, receiver
//!    down, then a hash-drawn drop / duplicate / delay fate;
//! 3. the stage is sorted by `(destination, sequence)` — the key is unique,
//!    so the unstable sort is deterministic — and drained into a flat arena
//!    whose per-destination offsets make next round's inboxes plain slices;
//!    the global plane keeps only the first `γ` messages per destination and
//!    counts the rest as dropped;
//! 4. the [`RunReport`] counters and, if enabled, the [`RoundTrace`] are
//!    updated.
//!
//! [`RoundRouter::run`] is the round loop (init pass = round 0; step every
//! live node, route, account, trace, stop check).  The in-process
//! [`Executor`](crate::engine::Executor) drives it with typed messages moved
//! by value; the networked `hybrid-driver` drives it with JSON bodies it
//! frames to and from node processes.  Both therefore agree bit-for-bit on
//! delivery order, counters and traces by construction, with and without
//! faults.  All buffers are reused round over round: a steady-state round
//! allocates nothing here.

use hybrid_graph::NodeId;
use serde::Serialize;

use crate::config::EngineConfig;
use crate::engine::RunReport;
use crate::envelope::{body_json, RoundTrace, TraceEntry};
use crate::faults::{Fate, FaultPlan};

/// One mailbox plane (local or global), double-buffered: `stage` collects the
/// messages being written this round, `inbox` holds the ones being read.
struct Plane<M> {
    /// `(destination, sequence, sender, payload)`; the sequence number is the
    /// arrival index within the round.
    stage: Vec<(NodeId, u32, NodeId, M)>,
    /// Messages held back by delay fates: `(sending round at which they
    /// re-enter the stage, destination, sender, payload)`.
    held: Vec<(u64, NodeId, NodeId, M)>,
    /// `(sender, payload)` grouped by destination.
    inbox: Vec<(NodeId, M)>,
    /// Node `v` reads `inbox[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
}

impl<M> Plane<M> {
    fn new(n: usize) -> Self {
        Plane {
            stage: Vec::new(),
            held: Vec::new(),
            inbox: Vec::new(),
            offsets: vec![0; n + 1],
        }
    }

    fn inbox_of(&self, v: NodeId) -> &[(NodeId, M)] {
        let v = v as usize;
        &self.inbox[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    fn stage_from(&mut self, sender: NodeId, outbox: impl IntoIterator<Item = (NodeId, M)>) {
        for (to, msg) in outbox {
            let seq = self.stage.len() as u32;
            self.stage.push((to, seq, sender, msg));
        }
    }

    /// Applies the fault plan at the end of sending round `round`: releases
    /// the held messages whose time has come back into the stage, then draws
    /// one fate per staged message.  Messages crossing a severed partition
    /// edge (`is_local` only) or addressed to a receiver that is down at the
    /// delivery round `round + 1` are destroyed and counted as injected drops
    /// — the sender's program is responsible for retrying (the ack/retry
    /// contract).  Sequence numbers are reassigned densely afterwards so the
    /// sort key stays unique; the surviving relative order is unchanged.
    fn apply_faults(
        &mut self,
        plan: &FaultPlan,
        round: u64,
        is_local: bool,
        scratch: &mut Vec<(NodeId, NodeId, M)>,
        report: &mut RunReport,
    ) where
        M: Clone,
    {
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= round {
                let (_, to, from, msg) = self.held.swap_remove(i);
                self.stage_from(from, [(to, msg)]);
            } else {
                i += 1;
            }
        }
        scratch.clear();
        for (idx, (to, _, from, msg)) in self.stage.drain(..).enumerate() {
            if (is_local && plan.cuts_local_edge(from, to, round)) || plan.is_down(to, round + 1) {
                report.injected_drops += 1;
                continue;
            }
            // The top idx bit separates the local and global fate streams so
            // the two planes never draw correlated decisions.
            let idx = idx as u64 | if is_local { 0 } else { 1 << 63 };
            match plan.fate(round, from, to, idx) {
                Fate::Deliver => scratch.push((to, from, msg)),
                Fate::Drop => report.injected_drops += 1,
                Fate::Duplicate => {
                    report.injected_duplicates += 1;
                    scratch.push((to, from, msg.clone()));
                    scratch.push((to, from, msg));
                }
                Fate::Delay(d) => {
                    report.injected_delays += 1;
                    self.held.push((round + d, to, from, msg));
                }
            }
        }
        for (seq, (to, from, msg)) in scratch.drain(..).enumerate() {
            self.stage.push((to, seq as u32, from, msg));
        }
    }

    /// Sorts the stage by `(destination, sequence)` and drains it into the
    /// inbox arena, delivering only the first `receive_cap` messages per
    /// destination.  Returns `(delivered, dropped)`.
    fn fill(&mut self, receive_cap: usize) -> (u64, u64) {
        let n = self.offsets.len() - 1;
        self.stage
            .sort_unstable_by_key(|&(to, seq, _, _)| (to, seq));
        self.inbox.clear();
        let mut dropped = 0u64;
        let mut cur_dest = 0usize;
        for (to, _, from, msg) in self.stage.drain(..) {
            let to = to as usize;
            // An out-of-range destination is a program bug: fail fast rather
            // than silently lose the message.
            assert!(
                to < n,
                "message addressed to out-of-range node {to} (n = {n})"
            );
            while cur_dest < to {
                cur_dest += 1;
                self.offsets[cur_dest] = self.inbox.len() as u32;
            }
            if self.inbox.len() - self.offsets[to] as usize >= receive_cap {
                dropped += 1;
            } else {
                self.inbox.push((from, msg));
            }
        }
        while cur_dest < n {
            cur_dest += 1;
            self.offsets[cur_dest] = self.inbox.len() as u32;
        }
        (self.inbox.len() as u64, dropped)
    }

    /// The filled arena in its deterministic order (destination-major, then
    /// staging sequence) — the order the conformance contract pins.
    fn trace_entries(&self) -> Vec<TraceEntry>
    where
        M: Serialize,
    {
        let mut entries = Vec::with_capacity(self.inbox.len());
        for dst in 0..(self.offsets.len() - 1) as NodeId {
            for (src, msg) in self.inbox_of(dst) {
                entries.push(TraceEntry {
                    src: *src,
                    dst,
                    body: body_json(msg),
                });
            }
        }
        entries
    }
}

/// A node's inbox moved out of the router by [`RoundRouter::drain_inboxes`]:
/// `(sender, payload)` pairs in delivery order.
pub type InboxDrain<'a, M> = dyn Iterator<Item = (NodeId, M)> + 'a;

/// Staging, fault pass, `γ`-capped mailboxes, accounting, trace recording and
/// the round loop of one engine run (see the module docs).  The only code
/// that knows a fault plan exists: runtimes hand it their [`EngineConfig`]
/// and ask [`RoundRouter::is_down`] which nodes to skip.
pub struct RoundRouter<'c, M> {
    n: usize,
    gamma: usize,
    local_enabled: bool,
    record_trace: bool,
    faults: Option<&'c FaultPlan>,
    local: Plane<M>,
    global: Plane<M>,
    fault_scratch: Vec<(NodeId, NodeId, M)>,
    report: RunReport,
    trace: Vec<RoundTrace>,
}

impl<'c, M: Clone + Serialize> RoundRouter<'c, M> {
    /// A router for one run under `config` (model parameters, fault plan and
    /// trace recording are read from it), with empty mailboxes.
    pub fn new(config: &'c EngineConfig) -> Self {
        let params = config.params();
        RoundRouter {
            n: params.n,
            gamma: params.global_capacity_msgs,
            local_enabled: params.has_local(),
            record_trace: config.record_trace(),
            faults: config.fault_plan(),
            local: Plane::new(params.n),
            global: Plane::new(params.n),
            fault_scratch: Vec::new(),
            report: RunReport::default(),
            trace: Vec::new(),
        }
    }

    /// Whether `node` is crashed in `round`.  A crashed node executes no
    /// program step while down; its state survives (crash-*restart*), and
    /// nothing is addressed to it — the fault pass already destroyed and
    /// counted whatever was.
    pub fn is_down(&self, node: NodeId, round: u64) -> bool {
        self.faults.is_some_and(|plan| plan.is_down(node, round))
    }

    /// Local messages delivered to `node` for the current round.
    pub fn local_inbox(&self, node: NodeId) -> &[(NodeId, M)] {
        self.local.inbox_of(node)
    }

    /// Global messages delivered to `node` for the current round (after the
    /// `γ` receive cap).
    pub fn global_inbox(&self, node: NodeId) -> &[(NodeId, M)] {
        self.global.inbox_of(node)
    }

    /// Moves every node's inboxes out of the arenas, in node order — for a
    /// runtime that ships messages away instead of reading them in place.
    /// `deliver` gets `(node, local inbox, global inbox)`; whatever it leaves
    /// unread is discarded.
    pub fn drain_inboxes<E>(
        &mut self,
        mut deliver: impl FnMut(NodeId, &mut InboxDrain<'_, M>, &mut InboxDrain<'_, M>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut local = self.local.inbox.drain(..);
        let mut global = self.global.inbox.drain(..);
        let len = |offsets: &[u32], v: usize| (offsets[v + 1] - offsets[v]) as usize;
        for v in 0..self.n {
            let mut l = local.by_ref().take(len(&self.local.offsets, v));
            let mut g = global.by_ref().take(len(&self.global.offsets, v));
            deliver(v as NodeId, &mut l, &mut g)?;
            l.for_each(drop);
            g.for_each(drop);
        }
        Ok(())
    }

    /// Stages one node's step output: its outboxes in send order plus the
    /// global sends its `γ` send cap refused.  Must be called in node-id
    /// order within a round — that order is the delivery order.
    ///
    /// # Panics
    /// Panics if `local` is non-empty but the model has no local mode.
    pub fn stage(
        &mut self,
        sender: NodeId,
        local: impl IntoIterator<Item = (NodeId, M)>,
        global: impl IntoIterator<Item = (NodeId, M)>,
        refused: u64,
    ) {
        let staged = self.local.stage.len();
        self.local.stage_from(sender, local);
        assert!(
            self.local_enabled || self.local.stage.len() == staged,
            "node {sender} sent local messages but the model has no local mode"
        );
        self.global.stage_from(sender, global);
        self.report.refused_sends += refused;
    }

    /// Ends sending round `round`: turns what was staged into next round's
    /// inboxes and accounts for it.
    fn route(&mut self, round: u64) {
        if let Some(plan) = self.faults {
            let (scratch, report) = (&mut self.fault_scratch, &mut self.report);
            self.local.apply_faults(plan, round, true, scratch, report);
            self.global
                .apply_faults(plan, round, false, scratch, report);
        }
        let (delivered, _) = self.local.fill(usize::MAX);
        self.report.local_messages += delivered;
        let (delivered, dropped) = self.global.fill(self.gamma);
        self.report.global_messages += delivered;
        self.report.dropped_global += dropped;
        if self.record_trace {
            self.trace.push(RoundTrace {
                round,
                local: self.local.trace_entries(),
                global: self.global.trace_entries(),
            });
        }
    }

    /// The round loop: the init pass (round 0, empty inboxes), then rounds
    /// `1..=max_rounds`.  Each round `step(router, round)` steps every node
    /// that is not [down](Self::is_down) — reading its inboxes, calling
    /// [`stage`](Self::stage) in node-id order — and returns whether the
    /// run's stop condition now holds; the router then routes, accounts and
    /// traces the round.  Returns the report (`completed` tells whether the
    /// stop condition was reached within the bound) and the recorded trace.
    ///
    /// # Errors
    /// Whatever `step` fails with; the run is abandoned.
    pub fn run<E>(
        mut self,
        max_rounds: u64,
        mut step: impl FnMut(&mut Self, u64) -> Result<bool, E>,
    ) -> Result<(RunReport, Vec<RoundTrace>), E> {
        for round in 0..=max_rounds {
            self.report.rounds = round;
            self.report.completed = step(&mut self, round)?;
            self.route(round);
            if self.report.completed {
                break;
            }
        }
        Ok((self.report, self.trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelParams;
    use std::convert::Infallible;

    /// Node-id-ordered outboxes: node 0 sends to 2 then to 0, node 1 sends
    /// to 2, node 2 sends to 2 then to 0; node 3 is silent.
    fn stage_fixture(router: &mut RoundRouter<'_, u64>, global: bool) {
        for (sender, dsts) in [(0, vec![2, 0]), (1, vec![2]), (2, vec![2, 0]), (3, vec![])] {
            let out = dsts
                .into_iter()
                .map(|dst| (dst, u64::from(sender * 100 + dst)));
            if global {
                router.stage(sender, [], out, 0);
            } else {
                router.stage(sender, out, [], 0);
            }
        }
    }

    /// The delivery rule in isolation: `(destination, staging sequence)`
    /// order on both planes, the receive cap applied per destination in that
    /// order on the global plane only, counters and trace to match.
    #[test]
    fn routes_by_destination_then_sequence_with_a_global_cap() {
        let config =
            EngineConfig::new(ModelParams::hybrid_with_global_capacity(4, 2)).with_trace(true);
        let mut router: RoundRouter<'_, u64> = RoundRouter::new(&config);
        stage_fixture(&mut router, false);
        stage_fixture(&mut router, true);
        router.route(0);

        // Local plane: uncapped, all five delivered.
        assert_eq!(router.local_inbox(0), &[(0, 0), (2, 200)]);
        assert_eq!(router.local_inbox(1), &[]);
        assert_eq!(router.local_inbox(2), &[(0, 2), (1, 102), (2, 202)]);
        assert_eq!(router.local_inbox(3), &[]);
        // Global plane: cap 2 keeps destination 2's first two staged (from
        // 0, from 1) and drops the third (from 2).
        assert_eq!(router.global_inbox(0), &[(0, 0), (2, 200)]);
        assert_eq!(router.global_inbox(1), &[]);
        assert_eq!(router.global_inbox(2), &[(0, 2), (1, 102)]);
        assert_eq!(router.global_inbox(3), &[]);
        assert!(router.local.stage.is_empty() && router.global.stage.is_empty());

        let report = &router.report;
        assert_eq!((report.local_messages, report.global_messages), (5, 4));
        assert_eq!(report.dropped_global, 1);
        let pairs = |entries: &[TraceEntry]| -> Vec<(NodeId, NodeId)> {
            entries.iter().map(|e| (e.src, e.dst)).collect()
        };
        assert_eq!(
            pairs(&router.trace[0].local),
            vec![(0, 0), (2, 0), (0, 2), (1, 2), (2, 2)]
        );
        assert_eq!(
            pairs(&router.trace[0].global),
            vec![(0, 0), (2, 0), (0, 2), (1, 2)]
        );
        assert_eq!(router.trace[0].global[3].body, "102");

        // Draining hands out the same inboxes by value, node by node.
        let mut drained = Vec::new();
        router
            .drain_inboxes(|v, local, global| {
                drained.push((v, local.count(), global.map(|(src, _)| src).collect()));
                Ok::<(), Infallible>(())
            })
            .unwrap();
        assert_eq!(
            drained,
            vec![
                (0, 2, vec![0, 2]),
                (1, 0, vec![]),
                (2, 3, vec![0, 1]),
                (3, 0, vec![])
            ]
        );
    }

    #[test]
    fn run_counts_rounds_from_the_init_pass_and_stops_on_request() {
        let config = EngineConfig::new(ModelParams::hybrid(2));
        let steps = |stop_at: u64, max_rounds: u64| {
            let mut seen = Vec::new();
            let router: RoundRouter<'_, u64> = RoundRouter::new(&config);
            let (report, trace) = router
                .run(max_rounds, |router, round| {
                    seen.push((round, router.local_inbox(1).to_vec()));
                    router.stage(0, [(1, round)], [], 1);
                    Ok::<bool, Infallible>(round == stop_at)
                })
                .unwrap();
            assert!(trace.is_empty(), "trace recording is off");
            (report, seen)
        };
        let (report, seen) = steps(2, 10);
        assert!(report.completed);
        assert_eq!((report.rounds, report.local_messages), (2, 3));
        assert_eq!(report.refused_sends, 3);
        // Round r reads what round r - 1 sent; the init pass reads nothing.
        assert_eq!(
            seen,
            vec![(0, vec![]), (1, vec![(0, 0)]), (2, vec![(0, 1)])]
        );
        let (report, seen) = steps(99, 3);
        assert!(!report.completed);
        assert_eq!((report.rounds, seen.len()), (3, 4));
    }
}
