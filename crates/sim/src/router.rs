//! The one per-round delivery rule of the per-node engine, and the one round
//! loop that applies it.
//!
//! The model (paper Section 1.3) delivers every round the same way: each node
//! sends and receives at most `γ` global messages, overflow is dropped.  A
//! [`RoundRouter`] owns everything between "a node produced outboxes" and "a
//! node reads inboxes":
//!
//! 1. outboxes are staged in node-id order; a message's position in the
//!    stage is its sequence number;
//! 2. with a fault plan installed, held (delayed) messages re-enter the stage
//!    and every staged message meets the adversary — partition cut, receiver
//!    down, then a hash-drawn drop / duplicate / delay fate;
//! 3. a stable counting scatter by destination (count, prefix-sum, permute
//!    in place) moves the stage into a flat arena ordered by `(destination,
//!    sequence)`, whose per-destination offsets make next round's inboxes
//!    plain slices; the global plane keeps only the first `γ` messages per
//!    destination and counts the rest as dropped;
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
use serde::{JsonWriter, Serialize};

use crate::config::EngineConfig;
use crate::engine::RunReport;
use crate::envelope::{RoundTrace, TraceEntry};
use crate::faults::{Fate, FaultPlan};

/// One mailbox plane (local or global), double-buffered: `stage` collects the
/// messages being written this round, `inbox` holds the ones being read.
struct Plane<M> {
    /// `(destination, sender, payload)` in staging order — the order the
    /// fault pass enumerates and the one kept within each destination.
    /// [`fill`](Self::fill) overwrites the destination with the message's
    /// arena slot while it permutes the stage.
    stage: Vec<(NodeId, NodeId, M)>,
    /// Messages held back by delay fates: `(sending round at which they
    /// re-enter the stage, destination, sender, payload)`.
    held: Vec<(u64, NodeId, NodeId, M)>,
    /// `(sender, payload)` grouped by destination.
    inbox: Vec<(NodeId, M)>,
    /// Node `v` reads `inbox[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// Scratch of [`fill`](Self::fill): per destination, first its staged
    /// message count, then its next free arena slot.
    cursor: Vec<u32>,
}

impl<M> Plane<M> {
    fn new(n: usize) -> Self {
        Plane {
            stage: Vec::new(),
            held: Vec::new(),
            inbox: Vec::new(),
            offsets: vec![0; n + 1],
            cursor: vec![0; n],
        }
    }

    fn inbox_of(&self, v: NodeId) -> &[(NodeId, M)] {
        let v = v as usize;
        &self.inbox[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    fn stage_from(&mut self, sender: NodeId, outbox: impl IntoIterator<Item = (NodeId, M)>) {
        self.stage
            .extend(outbox.into_iter().map(|(to, msg)| (to, sender, msg)));
    }

    /// Applies the fault plan at the end of sending round `round`: releases
    /// the held messages whose time has come back into the stage, then draws
    /// one fate per staged message.  Messages crossing a severed partition
    /// edge (`is_local` only) or addressed to a receiver that is down at the
    /// delivery round `round + 1` are destroyed and counted as injected drops
    /// — the sender's program is responsible for retrying (the ack/retry
    /// contract).  The survivors keep their relative order.
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
        for (idx, (to, from, msg)) in self.stage.drain(..).enumerate() {
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
        std::mem::swap(&mut self.stage, scratch);
    }

    /// Moves the stage into the inbox arena with a stable counting scatter by
    /// destination, delivering only the first `receive_cap` messages per
    /// destination.  Returns `(delivered, dropped)`.
    fn fill(&mut self, receive_cap: usize) -> (u64, u64) {
        let n = self.cursor.len();
        let staged = u32::try_from(self.stage.len()).expect("a round stages at most 2^32 messages");
        let cap = u32::try_from(receive_cap).unwrap_or(u32::MAX);
        self.cursor.fill(0);
        for &(to, _, _) in &self.stage {
            // An out-of-range destination is a program bug: fail fast rather
            // than silently lose the message.
            assert!(
                (to as usize) < n,
                "message addressed to out-of-range node {to} (n = {n})"
            );
            self.cursor[to as usize] += 1;
        }
        let mut kept = 0u32;
        for (v, count) in self.cursor.iter_mut().enumerate() {
            self.offsets[v] = kept;
            kept += std::mem::replace(count, kept).min(cap);
        }
        self.offsets[n] = kept;
        // Slots are handed out in staging order, so each inbox keeps it; what
        // a full inbox turns away is parked behind the arena.
        let mut parked = kept;
        for (to, _, _) in &mut self.stage {
            let next = &mut self.cursor[*to as usize];
            let slot = if *next < self.offsets[*to as usize + 1] {
                next
            } else {
                &mut parked
            };
            *to = *slot;
            *slot += 1;
        }
        // The slots are a permutation of the stage's positions: every swap
        // puts one more message where it belongs.
        for i in 0..self.stage.len() {
            while self.stage[i].0 as usize != i {
                let slot = self.stage[i].0 as usize;
                self.stage.swap(i, slot);
            }
        }
        self.stage.truncate(kept as usize);
        self.inbox.clear();
        self.inbox
            .extend(self.stage.drain(..).map(|(_, from, msg)| (from, msg)));
        (u64::from(kept), u64::from(staged - kept))
    }

    /// The filled arena in its deterministic order (destination-major, then
    /// staging sequence) — the order the conformance contract pins.  Each
    /// body is its compact JSON text, streamed into the one reused `buf` and
    /// copied out at its exact size: one allocation per entry.
    fn trace_entries(&self, buf: &mut JsonWriter) -> Vec<TraceEntry>
    where
        M: Serialize,
    {
        let mut entries = Vec::with_capacity(self.inbox.len());
        for dst in 0..(self.offsets.len() - 1) as NodeId {
            for (src, msg) in self.inbox_of(dst) {
                buf.clear();
                msg.write_json(buf);
                entries.push(TraceEntry {
                    src: *src,
                    dst,
                    body: buf.as_str().into(),
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
    /// The reused buffer trace bodies are written into; present iff the run
    /// records its trace.
    trace_buf: Option<JsonWriter>,
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
            trace_buf: config.record_trace().then(JsonWriter::default),
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
    pub fn stage(
        &mut self,
        sender: NodeId,
        local: impl IntoIterator<Item = (NodeId, M)>,
        global: impl IntoIterator<Item = (NodeId, M)>,
        refused: u64,
    ) {
        self.local.stage_from(sender, local);
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
        if let Some(buf) = &mut self.trace_buf {
            self.trace.push(RoundTrace {
                round,
                local: self.local.trace_entries(buf),
                global: self.global.trace_entries(buf),
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
    use crate::faults::FaultSpec;
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

        // A hot destination interleaved with others, under a plan that
        // duplicates and delays: every sender addresses node 3 twice around
        // one message to its successor.
        let spec = FaultSpec {
            duplicate_prob: 0.2,
            delay_prob: 0.1,
            max_delay_rounds: 1,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, 3, 6);
        let config = EngineConfig::new(ModelParams::hybrid_with_global_capacity(6, 2))
            .with_fault_plan(plan.clone());
        let mut router: RoundRouter<'_, u64> = RoundRouter::new(&config);
        let mut staged = Vec::new();
        for src in 0..6 {
            let body = u64::from(src * 10);
            let out = [(3, body), ((src + 1) % 6, body + 1), (3, body + 2)];
            staged.extend(out.map(|(dst, body)| (src, dst, body)));
            router.stage(src, out, out, 0);
        }
        router.route(0);
        // The rule spelled out: one fate per staging index, then each
        // destination keeps its first γ survivors in staging order.
        let fate = |idx: usize, global: bool| {
            let (src, dst, _) = staged[idx];
            plan.fate(0, src, dst, idx as u64 | u64::from(global) << 63)
        };
        let survivors = |global: bool, to: NodeId| -> Vec<(NodeId, u64)> {
            let mut inbox = Vec::new();
            for (idx, &(src, dst, body)) in staged.iter().enumerate() {
                let copies = match fate(idx, global) {
                    Fate::Deliver => 1,
                    Fate::Duplicate => 2,
                    Fate::Delay(_) => 0,
                    Fate::Drop => unreachable!("the plan drops nothing"),
                };
                inbox.extend(
                    [(src, body); 2]
                        .into_iter()
                        .take(copies)
                        .filter(|_| dst == to),
                );
            }
            inbox
        };
        let mut dropped = 0;
        for v in 0..6 {
            assert_eq!(router.local_inbox(v), survivors(false, v), "local {v}");
            let all = survivors(true, v);
            assert_eq!(
                router.global_inbox(v),
                &all[..all.len().min(2)],
                "global {v}"
            );
            dropped += all.len().saturating_sub(2) as u64;
        }
        assert_eq!(router.report.dropped_global, dropped);
        // What the seed drew on the global plane: node 0's first message to
        // node 3 is delayed and its second duplicated, which fills the inbox;
        // the other eleven for node 3 (one of them a duplicate) overflow.
        assert_eq!(fate(0, true), Fate::Delay(1));
        assert_eq!(fate(2, true), Fate::Duplicate);
        assert_eq!(router.global_inbox(3), &[(0, 2), (0, 2)]);
        assert_eq!(router.global.held.len(), 1);
        assert_eq!(dropped, 12);
        // The held message re-enters the next stage and is delivered late.
        router.route(1);
        assert_eq!(router.global_inbox(3), &[(0, 0)]);
        assert!(router.global.held.is_empty());
    }

    #[test]
    #[should_panic(expected = "message addressed to out-of-range node 9 (n = 4)")]
    fn out_of_range_destination_panics() {
        let config = EngineConfig::new(ModelParams::hybrid(4));
        let mut router: RoundRouter<'_, u64> = RoundRouter::new(&config);
        router.stage(0, [(1, 1)], [(9, 9), (2, 2)], 0);
        router.route(0);
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
