//! Round-by-round scheduling of global (NCC-style) messages under per-node
//! send and receive caps.
//!
//! The HYBRID model requires every node to be the *sender* of at most `γ`
//! messages and the *receiver* of at most `γ` messages per round (paper
//! Section 1.3).  The scheduler takes the complete multiset of point-to-point
//! messages an algorithm phase wants to deliver and plays it out round by
//! round: in each round every sender may inject up to `γ` of its queued
//! messages, but a message is only delivered if its receiver still has
//! residual receive capacity in that round; otherwise the sender retries it in
//! a later round.  This reproduces the congestion behaviour that the paper's
//! load-balancing machinery (helper sets, intermediate nodes, cluster trees)
//! is designed to avoid, so badly balanced communication patterns genuinely
//! cost more rounds in the simulator.
//!
//! # Guarantees
//!
//! For every message multiset the greedy schedule played by
//! [`GlobalScheduler::deliver_with`] satisfies
//!
//! * **Receive-cap invariant** — no node ever receives more than `γ` messages
//!   in a single round (`DeliveryReport::max_received_in_a_round ≤ γ`).
//! * **Progress / termination** — at least one message is delivered per round:
//!   a message is only deferred when its receiver's budget is exhausted, and
//!   budgets are only consumed by deliveries, so a fully idle round is
//!   impossible while messages remain.
//! * **Near-optimality** — the schedule finishes within
//!   `2 · lower_bound_rounds + 1` rounds.  Sketch: fix the last delivered
//!   message `m` from `s` to `r`.  In every earlier round either `s` spent its
//!   full send budget `γ` (at most `⌈load(s)/γ⌉ ≤ LB` such rounds, since each
//!   consumes `γ` of `s`'s queue), or `s` scanned its *entire* queue — so `m`
//!   itself was considered and deferred, which means `r` received exactly `γ`
//!   messages that round (at most `⌊load(r)/γ⌋ ≤ LB` such rounds).  Hence `m`
//!   is delivered by round `2·LB + 1`.  The full-queue scan is what makes the
//!   argument go through: an earlier implementation stopped scanning after a
//!   window of `γ` deferrals, and a queue head full of messages to a hot
//!   receiver could idle a sender for `Θ(LB)` extra rounds (head-of-line
//!   blocking) even though deliverable messages to idle receivers sat right
//!   behind the window.
//! * **Determinism** — the schedule is a pure function of `(params, messages)`:
//!   senders are scanned in a deterministically rotated order and the
//!   scheduler itself is sequential, so round counts are bit-identical for
//!   every thread count of the surrounding experiment sweep.
//!
//! # Representation
//!
//! Each sender's pending queue is a list of receiver-sorted `(receiver,
//! count)` runs, one per distinct receiver however many messages it
//! carries; the queues share one flat arena, each the live sub-range
//! `[seg_lo, seg_hi)` of its sender's bucket.  Set-up builds the runs
//! receiver-major.  It tallies every endpoint's load and how many entries
//! (`(sender, receiver, count)` pieces of the batch) each one takes part
//! in, lays the buckets out over the ascending distinct senders, and groups
//! the entries by receiver with one counting sort.  It then visits the
//! receivers in ascending id and appends each entry to its sender's bucket,
//! adding it to the bucket's last run when that run has the same receiver.
//! Every bucket thus comes out receiver-sorted and merged, and no entry is
//! compared with another.
//!
//! A message list ([`GlobalScheduler::deliver_with`]) is one entry per
//! message.  A [`RoundRobin`] transfer — Lemma 4.1's rule, unit `i` from
//! `senders[i mod |S|]` to `receivers[i mod |R|]` — never lists its units
//! ([`GlobalScheduler::deliver_round_robin`]).  Unit `i` and unit `i +
//! lcm(|S|, |R|)` share their endpoints, so entry `i < P = min(units,
//! lcm)` carries `⌈(units − i) / lcm⌉` messages.  Loads and bucket sizes
//! follow in closed form: `senders[j]` sends `⌈(units − j) / |S|⌉` messages
//! in `⌈(P − j) / |S|⌉` entries, and `receivers[k]` receives `⌈(units − k)
//! / |R|⌉` messages, in entries `i = k, k + |R|, …` below `P`.  Set-up
//! touches only the batch's endpoints (per-node counters are reset sparsely
//! from the previous batch's endpoint lists) and costs `O(entries +
//! endpoints · log endpoints)`, not `O(n)`.
//!
//! A round scans the live runs with two cursors: deferred runs are
//! compacted in place behind the read cursor, and when the send budget runs
//! out mid-queue the (small) deferred block is slid up against the unscanned
//! suffix.  A round therefore costs `O(distinct receivers scanned)`, not
//! `O(pending messages)` — a convergecast-style batch (every sender pointing
//! a long queue at one hot receiver) schedules in one run entry per sender
//! per round.  All buffers live in the [`GlobalScheduler`] value and are
//! reused across batches; once warmed up, repeated deliveries allocate
//! nothing.
//!
//! Within one sender's batch, messages are delivered grouped by receiver
//! (ascending receiver id) rather than in submission order; the delivered
//! *multiset*, the round count guarantees and the per-round caps are
//! unaffected (the scheduler models congestion, not FIFO channels).

use serde::{Deserialize, Serialize};

use crate::params::ModelParams;

/// A single global message of `O(log n)` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GlobalMessage {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
}

impl GlobalMessage {
    /// Convenience constructor.
    pub fn new(from: u32, to: u32) -> Self {
        GlobalMessage { from, to }
    }
}

/// Lemma 4.1's uniform load balancing across one pair of carrier sets: unit
/// `i` of `units` travels `senders[i mod |S|] → receivers[i mod |R|]`.
#[derive(Debug, Clone, Copy)]
pub struct RoundRobin<'a> {
    /// The nodes that send the units, in round-robin order.
    pub senders: &'a [u32],
    /// The nodes that receive the units, in round-robin order.
    pub receivers: &'a [u32],
    /// How many messages the transfer moves.
    pub units: usize,
}

impl RoundRobin<'_> {
    /// Panics unless a transfer with units has carriers on both ends;
    /// `index` names it in the batch.
    fn check_carriers(&self, index: usize) {
        for (side, carriers) in [("senders", self.senders), ("receivers", self.receivers)] {
            assert!(
                self.units == 0 || !carriers.is_empty(),
                "round-robin transfer {index} carries {} units but has no {side}",
                self.units
            );
        }
    }

    /// The transfer as counted entries: unit `i` and unit `i + lcm(|S|,
    /// |R|)` share their endpoints.  Panics like `check_carriers`, and if
    /// one (sender, receiver) pair would carry more than `u32::MAX`
    /// messages.
    fn layout(&self, index: usize) -> Layout {
        self.check_carriers(index);
        if self.units == 0 {
            // An empty transfer may have empty carriers: no lcm to take.
            return Layout::default();
        }
        let period = pair_period(self.senders.len(), self.receivers.len(), self.units);
        let (full, extra) = (self.units / period, self.units % period);
        let most = full + usize::from(extra > 0);
        assert!(
            most <= u32::MAX as usize,
            "round-robin transfer {index}: {most} messages on one (sender, receiver) pair \
             exceed the scheduler's u32 run count"
        );
        Layout {
            entries: self.units.min(period),
            full: full as u32,
            extra,
        }
    }
}

/// A round-robin transfer's counted entries: entry `i < entries` carries
/// `full + 1` messages below `extra` and `full` from there on.
#[derive(Debug, Clone, Copy, Default)]
struct Layout {
    entries: usize,
    full: u32,
    extra: usize,
}

/// After how many units a round-robin over `senders` and `receivers`
/// carriers repeats its (sender, receiver) pairs: `lcm(senders, receivers)`,
/// or `units` itself when the lcm does not fit a `usize` (then no pair
/// repeats within the transfer).
fn pair_period(senders: usize, receivers: usize, units: usize) -> usize {
    let (mut a, mut b) = (senders, receivers);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    (senders / a).checked_mul(receivers).unwrap_or(units)
}

/// Outcome of delivering one batch of global messages; the default is the
/// empty batch (no messages, zero rounds).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveryReport {
    /// Rounds needed to deliver every message.
    pub rounds: u64,
    /// Number of messages delivered.
    pub messages: u64,
    /// Maximum number of messages any single node had to send.
    pub max_send_load: u64,
    /// Maximum number of messages any single node had to receive.
    pub max_recv_load: u64,
    /// The largest number of messages any node received in any single round —
    /// by construction this never exceeds the model's `γ`.
    pub max_received_in_a_round: u64,
}

/// Scheduler for batches of global messages.
///
/// The value is a reusable workspace: every buffer the schedule needs lives
/// here and survives across deliveries, so a long-lived scheduler (e.g. the
/// one owned by [`crate::network::HybridNetwork`]) reaches a steady state in
/// which a batch allocates nothing.  The stateless
/// [`GlobalScheduler::deliver`] associated function is a convenience wrapper
/// that spins up a fresh workspace.
#[derive(Debug, Default, Clone)]
pub struct GlobalScheduler {
    /// The pending queues as receiver-sorted `(receiver, count)` runs,
    /// grouped by sender — a hot receiver is one run, however many messages.
    runs: Vec<(u32, u32)>,
    /// Live-range start per sender in `runs` (advances as runs drain).
    seg_lo: Vec<u32>,
    /// Live-range end per sender in `runs` (shrinks when a full scan
    /// compacts in place); the entry count, then the append cursor, while
    /// a batch is set up.
    seg_hi: Vec<u32>,
    /// The batch grouped by receiver (ascending): a message list's
    /// `(sender, 1)` entries, a transfer's `(transfer, receiver position)`.
    slots: Vec<(u32, u32)>,
    /// Slot-range end per receiver in `slots`; the slot count, then the
    /// placement cursor, while the slots are grouped.
    slot_hi: Vec<u32>,
    /// Each transfer's entries, while a round-robin batch is set up.
    layouts: Vec<Layout>,
    /// Per-node loads of the current batch; zero outside its endpoints.
    send_load: Vec<u64>,
    recv_load: Vec<u64>,
    /// Messages each node has received in the current round.
    recv_budget: Vec<u32>,
    /// The batch's distinct senders and receivers (ascending once laid
    /// out): what the next batch resets.  These five lists hold distinct
    /// nodes and are reserved to `n` once.
    senders: Vec<u32>,
    receivers: Vec<u32>,
    recv_dirty: Vec<u32>,
    active: Vec<u32>,
    next_active: Vec<u32>,
    /// The tallied batch's messages and entries.
    messages: u64,
    entries: u32,
}

impl GlobalScheduler {
    /// Creates an empty scheduler workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plays the message multiset through the global network of `params` with
    /// a one-shot workspace.  Prefer a long-lived scheduler and
    /// [`GlobalScheduler::deliver_with`] on hot paths.
    ///
    /// # Panics
    /// Panics if the model has no global capacity (`γ = 0`) but messages were
    /// supplied, or if a message references a node outside `0..n`.
    pub fn deliver(params: &ModelParams, messages: &[GlobalMessage]) -> DeliveryReport {
        GlobalScheduler::new().deliver_with(params, messages)
    }

    /// Plays the message multiset through the global network of `params`,
    /// returning how many rounds it took.  Reuses this workspace's buffers:
    /// repeated calls on batches of similar shape allocate nothing.
    ///
    /// # Panics
    /// Panics if the model has no global capacity (`γ = 0`) but messages were
    /// supplied, or if a message references a node outside `0..n`.
    pub fn deliver_with(
        &mut self,
        params: &ModelParams,
        messages: &[GlobalMessage],
    ) -> DeliveryReport {
        self.set_up_list(params, messages);
        self.play(params, |_, _, _, _| {})
    }

    /// Plays the transfers as one batch: the same schedule, bit for bit, as
    /// [`GlobalScheduler::deliver_with`] on their unit-order message lists
    /// concatenated, at the cost of one counted run per distinct (sender,
    /// receiver) pair of a transfer instead of one entry per message.
    ///
    /// # Panics
    /// Panics like [`GlobalScheduler::deliver_with`]; if a transfer with
    /// units has no senders or no receivers; and if one (sender, receiver)
    /// pair would carry more than `u32::MAX` messages.
    pub fn deliver_round_robin(
        &mut self,
        params: &ModelParams,
        transfers: &[RoundRobin],
    ) -> DeliveryReport {
        self.set_up_round_robin(params, transfers);
        self.play(params, |_, _, _, _| {})
    }

    /// Sets a message list up as per-sender runs.
    fn set_up_list(&mut self, params: &ModelParams, messages: &[GlobalMessage]) {
        let n = params.n;
        self.begin(n);
        for m in messages {
            assert!((m.from as usize) < n, "sender {} out of range", m.from);
            assert!((m.to as usize) < n, "receiver {} out of range", m.to);
            self.add_sender(m.from, 1, 1);
            self.add_receiver(m.to, 1, 1);
        }
        self.lay_out(params);
        for m in messages {
            self.place(m.to, (m.from, 1));
        }
        self.fill(|sched, to, (from, count)| sched.append(from, to, count));
    }

    /// Sets round-robin transfers up as per-sender runs, from the closed
    /// forms of the module docs.
    fn set_up_round_robin(&mut self, params: &ModelParams, transfers: &[RoundRobin]) {
        let n = params.n;
        self.begin(n);
        self.layouts.clear();
        for (t, rr) in transfers.iter().enumerate() {
            let layout = rr.layout(t);
            self.layouts.push(layout);
            let (units, senders, receivers) = (rr.units, rr.senders.len(), rr.receivers.len());
            for (j, &s) in rr.senders.iter().enumerate().take(units) {
                assert!((s as usize) < n, "sender {s} out of range");
                let entries = (layout.entries - j).div_ceil(senders);
                self.add_sender(s, (units - j).div_ceil(senders) as u64, entries);
            }
            for (k, &r) in rr.receivers.iter().enumerate().take(units) {
                assert!((r as usize) < n, "receiver {r} out of range");
                self.add_receiver(r, (units - k).div_ceil(receivers) as u64, 1);
            }
        }
        self.lay_out(params);
        for (t, rr) in transfers.iter().enumerate() {
            for (k, &r) in rr.receivers.iter().enumerate().take(rr.units) {
                self.place(r, (t as u32, k as u32));
            }
        }
        self.fill(|sched, to, (t, k)| {
            let (rr, layout) = (&transfers[t as usize], sched.layouts[t as usize]);
            let (senders, receivers) = (rr.senders.len(), rr.receivers.len());
            // Entry `i` comes from `senders[i mod |S|]`; stepping `i` by
            // `|R|` steps that index by `|R| mod |S|`.
            let step = receivers % senders;
            let (mut i, mut j) = (k as usize, k as usize % senders);
            while i < layout.entries {
                let count = layout.full + u32::from(i < layout.extra);
                sched.append(rr.senders[j], to, count);
                i += receivers;
                j += step;
                if j >= senders {
                    j -= senders;
                }
            }
        });
    }

    /// Starts a batch on `n` nodes: clears only what the previous batch
    /// touched.
    fn begin(&mut self, n: usize) {
        let dirty = [
            (&mut self.send_load, &mut self.senders),
            (&mut self.recv_load, &mut self.receivers),
        ];
        for (loads, nodes) in dirty {
            loads.resize(loads.len().max(n), 0);
            for v in nodes.drain(..) {
                loads[v as usize] = 0;
            }
        }
        self.recv_budget.resize(self.recv_budget.len().max(n), 0);
        for v in self.recv_dirty.drain(..) {
            self.recv_budget[v as usize] = 0;
        }
        for per_node in [&mut self.seg_lo, &mut self.seg_hi, &mut self.slot_hi] {
            per_node.resize(per_node.len().max(n), 0);
        }
        let lists = [
            &mut self.senders,
            &mut self.receivers,
            &mut self.recv_dirty,
            &mut self.active,
            &mut self.next_active,
        ];
        for list in lists {
            list.reserve(n);
        }
        (self.messages, self.entries) = (0, 0);
    }

    /// Tallies `load` messages from `s`, in `entries` entries.
    fn add_sender(&mut self, s: u32, load: u64, entries: usize) {
        self.entries = u32::try_from(entries)
            .ok()
            .and_then(|entries| self.entries.checked_add(entries))
            .expect("batch exceeds the scheduler's u32 run index space");
        let v = s as usize;
        if self.send_load[v] == 0 {
            self.senders.push(s);
            self.seg_hi[v] = 0;
        }
        self.send_load[v] += load;
        self.seg_hi[v] += entries as u32;
        self.messages += load;
    }

    /// Tallies `load` messages to `r`, reached through `slots` slots.
    fn add_receiver(&mut self, r: u32, load: u64, slots: u32) {
        let v = r as usize;
        if self.recv_load[v] == 0 {
            self.receivers.push(r);
            self.slot_hi[v] = 0;
        }
        self.recv_load[v] += load;
        self.slot_hi[v] += slots;
    }

    /// Lays the tallied batch out: each sender's bucket and each receiver's
    /// slot range, over the ascending distinct senders and receivers, every
    /// cursor at its range's start.
    ///
    /// # Panics
    /// Panics if the batch has messages but the model no global capacity.
    fn lay_out(&mut self, params: &ModelParams) {
        assert!(
            self.messages == 0 || params.global_capacity_msgs > 0,
            "model has no global communication but {} global messages were scheduled",
            self.messages
        );
        self.senders.sort_unstable();
        self.receivers.sort_unstable();
        let mut end = 0;
        for &s in &self.senders {
            let s = s as usize;
            self.seg_lo[s] = end;
            end += self.seg_hi[s];
            self.seg_hi[s] = self.seg_lo[s];
        }
        self.runs.clear();
        self.runs.resize(end as usize, (0, 0));
        let mut end = 0;
        for &r in &self.receivers {
            let slots = self.slot_hi[r as usize];
            self.slot_hi[r as usize] = end;
            end += slots;
        }
        self.slots.clear();
        self.slots.resize(end as usize, (0, 0));
    }

    /// Puts one of receiver `r`'s slots in place.
    fn place(&mut self, r: u32, slot: (u32, u32)) {
        let cursor = &mut self.slot_hi[r as usize];
        self.slots[*cursor as usize] = slot;
        *cursor += 1;
    }

    /// Visits the receivers in ascending id and hands each of their slots
    /// to `expand(self, receiver, slot)`, which appends its entries.
    fn fill(&mut self, mut expand: impl FnMut(&mut Self, u32, (u32, u32))) {
        let mut lo = 0;
        for idx in 0..self.receivers.len() {
            let to = self.receivers[idx];
            let hi = self.slot_hi[to as usize] as usize;
            for slot in lo..hi {
                expand(self, to, self.slots[slot]);
            }
            lo = hi;
        }
    }

    /// Appends `count` messages from `from` to `to` to the bucket of
    /// `from`, adding them to its last run if that run goes to `to` too.
    fn append(&mut self, from: u32, to: u32, count: u32) {
        let s = from as usize;
        let hi = self.seg_hi[s] as usize;
        if hi > self.seg_lo[s] as usize && self.runs[hi - 1].0 == to {
            let merged = self.runs[hi - 1].1;
            self.runs[hi - 1].1 = merged.checked_add(count).unwrap_or_else(|| {
                panic!(
                    "{merged} + {count} messages from sender {from} to receiver {to} \
                     exceed the scheduler's u32 run count"
                )
            });
        } else {
            self.runs[hi] = (to, count);
            self.seg_hi[s] += 1;
        }
    }

    /// Plays the laid-out batch round by round; `delivered(round, from, to,
    /// k)` sees every `k` messages delivered together.  The trace-free paths
    /// pass a no-op, so their loop carries no trace.
    fn play(
        &mut self,
        params: &ModelParams,
        mut delivered: impl FnMut(u64, u32, u32, u32),
    ) -> DeliveryReport {
        let messages = self.messages;
        if messages == 0 {
            return DeliveryReport::default();
        }
        // No node sends or receives more than the whole batch in a round,
        // so capping γ at the batch size leaves every schedule as it is.
        let gamma = (params.global_capacity_msgs as u64).min(messages);
        let gamma = u32::try_from(gamma).expect("γ and the batch exceed u32 messages per round");
        let max_load = |nodes: &[u32], load: &[u64]| {
            nodes.iter().map(|&v| load[v as usize]).max().unwrap_or(0)
        };
        let max_send_load = max_load(&self.senders, &self.send_load);
        let max_recv_load = max_load(&self.receivers, &self.recv_load);

        self.active.clear();
        self.active.extend_from_slice(&self.senders);
        self.next_active.clear();

        let mut remaining = messages;
        let mut rounds = 0u64;
        let mut max_received_in_a_round = 0u32;

        while remaining > 0 {
            rounds += 1;
            // Reset the receive budgets touched last round.
            for &v in &self.recv_dirty {
                self.recv_budget[v as usize] = 0;
            }
            self.recv_dirty.clear();
            self.next_active.clear();

            for idx in 0..self.active.len() {
                let sender = self.active[idx] as usize;
                let lo = self.seg_lo[sender] as usize;
                let hi = self.seg_hi[sender] as usize;
                // Scan the live runs until the send budget is spent or the
                // queue is exhausted, compacting deferred / partially sent
                // runs in place behind the read cursor (`w <= r` always, so
                // this never clobbers an unscanned run).
                let mut r = lo;
                let mut w = lo;
                let mut sent = 0u32;
                while r < hi && sent < gamma {
                    let (to, count) = self.runs[r];
                    r += 1;
                    let received = &mut self.recv_budget[to as usize];
                    // How many of this run fit this round: limited by the
                    // receiver's residual budget and the sender's own budget.
                    let k = count.min(gamma - *received).min(gamma - sent);
                    if k > 0 {
                        if *received == 0 {
                            self.recv_dirty.push(to);
                        }
                        *received += k;
                        max_received_in_a_round = max_received_in_a_round.max(*received);
                        sent += k;
                        delivered(rounds, sender as u32, to, k);
                    }
                    if k < count {
                        // Receiver saturated (or send budget spent): keep the
                        // remainder of the run for a later round, but keep
                        // scanning — deliverable runs further back must not
                        // be blocked by this one.
                        self.runs[w] = (to, count - k);
                        w += 1;
                    }
                }
                remaining -= u64::from(sent);
                let deferred = w - lo;
                if r < hi {
                    // Send budget spent mid-queue: slide the (small) deferred
                    // block up against the unscanned suffix so the live range
                    // stays contiguous.  Costs O(deferred), not O(suffix).
                    if deferred > 0 {
                        self.runs.copy_within(lo..w, r - deferred);
                    }
                    self.seg_lo[sender] = (r - deferred) as u32;
                    self.next_active.push(sender as u32);
                } else {
                    // Full scan: the live range is exactly the deferred block.
                    self.seg_lo[sender] = lo as u32;
                    self.seg_hi[sender] = w as u32;
                    if deferred > 0 {
                        self.next_active.push(sender as u32);
                    }
                }
            }
            // Rotate the sender order so that no sender is systematically
            // favoured when competing for a saturated receiver.
            if !self.next_active.is_empty() {
                let shift = rounds as usize % self.next_active.len();
                self.next_active.rotate_left(shift);
            }
            std::mem::swap(&mut self.active, &mut self.next_active);
        }

        DeliveryReport {
            rounds,
            messages,
            max_send_load,
            max_recv_load,
            max_received_in_a_round: u64::from(max_received_in_a_round),
        }
    }

    /// Lower bound on the rounds any schedule needs for this multiset:
    /// `⌈max(max_send_load, max_recv_load) / γ⌉`.  Useful for tests asserting
    /// that the scheduler is not wildly suboptimal; [`GlobalScheduler`]
    /// guarantees at most `2 ·` this bound `+ 1` rounds.
    ///
    /// # Panics
    /// Panics (with the same message as [`GlobalScheduler::deliver`]) if the
    /// model has no global capacity but messages were supplied.
    pub fn lower_bound_rounds(params: &ModelParams, messages: &[GlobalMessage]) -> u64 {
        if messages.is_empty() {
            return 0;
        }
        assert!(
            params.global_capacity_msgs > 0,
            "model has no global communication but {} global messages were scheduled",
            messages.len()
        );
        let n = params.n;
        let gamma = params.global_capacity_msgs as u64;
        let mut send_load = vec![0u64; n];
        let mut recv_load = vec![0u64; n];
        for m in messages {
            send_load[m.from as usize] += 1;
            recv_load[m.to as usize] += 1;
        }
        let worst = send_load
            .iter()
            .chain(recv_load.iter())
            .copied()
            .max()
            .unwrap_or(0);
        worst.div_ceil(gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn params(n: usize, gamma: usize) -> ModelParams {
        ModelParams::hybrid_with_global_capacity(n, gamma)
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let r = GlobalScheduler::deliver(&params(10, 3), &[]);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn single_message_one_round() {
        let r = GlobalScheduler::deliver(&params(4, 2), &[GlobalMessage::new(0, 3)]);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.messages, 1);
        assert_eq!(r.max_received_in_a_round, 1);
    }

    #[test]
    fn sender_bottleneck() {
        // One node sends 10 messages to 10 distinct receivers with gamma = 2:
        // needs exactly 5 rounds.
        let msgs: Vec<_> = (1..=10).map(|t| GlobalMessage::new(0, t)).collect();
        let p = params(12, 2);
        let r = GlobalScheduler::deliver(&p, &msgs);
        assert_eq!(r.rounds, 5);
        assert_eq!(r.max_send_load, 10);
        assert!(r.max_received_in_a_round <= 2);
        assert_eq!(GlobalScheduler::lower_bound_rounds(&p, &msgs), 5);
    }

    #[test]
    fn receiver_bottleneck() {
        // 10 distinct senders each send one message to node 0 with gamma = 2:
        // needs exactly 5 rounds because node 0 can only receive 2 per round.
        let msgs: Vec<_> = (1..=10).map(|s| GlobalMessage::new(s, 0)).collect();
        let p = params(12, 2);
        let r = GlobalScheduler::deliver(&p, &msgs);
        assert_eq!(r.rounds, 5);
        assert_eq!(r.max_recv_load, 10);
        assert!(r.max_received_in_a_round <= 2);
    }

    #[test]
    fn receive_cap_never_exceeded() {
        // All-to-one and one-to-all mixed, gamma = 3.
        let mut msgs = Vec::new();
        for s in 1..20u32 {
            msgs.push(GlobalMessage::new(s, 0));
            msgs.push(GlobalMessage::new(0, s));
        }
        let p = params(20, 3);
        let r = GlobalScheduler::deliver(&p, &msgs);
        assert!(r.max_received_in_a_round <= 3);
        assert!(r.rounds >= GlobalScheduler::lower_bound_rounds(&p, &msgs));
        // The greedy schedule is within twice the bound (plus a round).
        assert!(r.rounds <= 2 * GlobalScheduler::lower_bound_rounds(&p, &msgs) + 1);
    }

    #[test]
    fn balanced_all_to_all_is_one_round() {
        // n senders each send gamma messages to distinct receivers arranged so
        // every receiver also gets exactly gamma: one round suffices, and the
        // greedy schedule achieves it.
        let n = 16usize;
        let gamma = 4usize;
        let mut msgs = Vec::new();
        for s in 0..n as u32 {
            for j in 1..=gamma as u32 {
                msgs.push(GlobalMessage::new(s, (s + j) % n as u32));
            }
        }
        let p = params(n, gamma);
        let r = GlobalScheduler::deliver(&p, &msgs);
        assert_eq!(r.rounds, 1, "perfectly balanced batch must take 1 round");
        assert_eq!(r.max_received_in_a_round, gamma as u64);
    }

    /// The head-of-line-blocking regression pin: a sender whose queue starts
    /// with `γ` messages to a receiver that other senders keep saturated, with
    /// deliverable messages to idle receivers right behind them, must not sit
    /// idle — the earlier deferral-window implementation did exactly that and
    /// needed ~`2·LB` rounds on these instances; the full-budget scan needs
    /// `LB + O(1)`.
    #[test]
    fn saturated_queue_head_does_not_idle_the_sender() {
        for (gamma, t) in [(1usize, 12u64), (2, 12), (4, 10), (3, 30)] {
            let g = gamma as u64;
            let m = (g * (t - 1)) as usize; // idle-receiver tail of the queue
            let hot = 0u32;
            let comp_base = 1u32;
            let n_comp = (g * t) as usize; // competitors: one message each
            let idle_base = comp_base + n_comp as u32;
            let s = idle_base + m as u32; // highest id: scans after competitors
            let n = s as usize + 1;
            let mut msgs = Vec::new();
            for _ in 0..gamma {
                msgs.push(GlobalMessage::new(s, hot));
            }
            for i in 0..m {
                msgs.push(GlobalMessage::new(s, idle_base + i as u32));
            }
            for c in 0..n_comp {
                msgs.push(GlobalMessage::new(comp_base + c as u32, hot));
            }
            let p = params(n, gamma);
            let r = GlobalScheduler::deliver(&p, &msgs);
            let lb = GlobalScheduler::lower_bound_rounds(&p, &msgs);
            assert!(r.max_received_in_a_round <= g);
            assert!(
                r.rounds <= 2 * lb + 2,
                "gamma={gamma}: {} rounds vs 2·{lb}+2",
                r.rounds
            );
            // The sharp assertion the deferral-window scheduler fails (it
            // needed 24/22/17/44 rounds on these four instances): the
            // sender's idle-receiver messages flow while the hot head waits.
            assert!(
                r.rounds <= lb + 2,
                "gamma={gamma}: head-of-line blocking: {} rounds vs LB {lb}",
                r.rounds
            );
        }
    }

    #[test]
    fn convergecast_shape_is_optimal_and_cheap() {
        // 100 senders each hold 100 messages to one receiver, gamma = 1: the
        // receive cap forces exactly load/gamma rounds, and the run-compressed
        // queues make each blocked round cost O(senders), not O(pending
        // messages) — the flat per-message scan was quadratic here.
        let senders = 100u32;
        let per = 100usize;
        let n = senders as usize + 1;
        let mut msgs = Vec::new();
        for s in 1..=senders {
            for _ in 0..per {
                msgs.push(GlobalMessage::new(s, 0));
            }
        }
        let p = params(n, 1);
        let r = GlobalScheduler::deliver(&p, &msgs);
        assert_eq!(r.rounds, senders as u64 * per as u64);
        assert_eq!(r.rounds, GlobalScheduler::lower_bound_rounds(&p, &msgs));
        assert_eq!(r.max_received_in_a_round, 1);
    }

    fn rr<'a>(senders: &'a [u32], receivers: &'a [u32], units: usize) -> RoundRobin<'a> {
        RoundRobin {
            senders,
            receivers,
            units,
        }
    }

    impl RoundRobin<'_> {
        /// The transfer as its unit-order message list: message `i` is unit
        /// `i`.
        fn messages(&self) -> impl Iterator<Item = GlobalMessage> + '_ {
            (0..self.units).map(|i| {
                let from = self.senders[i % self.senders.len()];
                GlobalMessage::new(from, self.receivers[i % self.receivers.len()])
            })
        }
    }

    /// Every workspace buffer's capacity.
    fn capacities(s: &GlobalScheduler) -> [usize; 14] {
        [
            s.runs.capacity(),
            s.seg_lo.capacity(),
            s.seg_hi.capacity(),
            s.slots.capacity(),
            s.slot_hi.capacity(),
            s.layouts.capacity(),
            s.send_load.capacity(),
            s.recv_load.capacity(),
            s.recv_budget.capacity(),
            s.senders.capacity(),
            s.receivers.capacity(),
            s.recv_dirty.capacity(),
            s.active.capacity(),
            s.next_active.capacity(),
        ]
    }

    #[test]
    fn workspace_reuse_matches_one_shot_and_stops_allocating() {
        let p = params(64, 3);
        // A skewed batch: a hot receiver, a hot sender, and uniform traffic.
        let mut msgs = Vec::new();
        for i in 0..200u32 {
            msgs.push(GlobalMessage::new(i % 64, (i * 7) % 64));
            msgs.push(GlobalMessage::new(i % 5, 63));
            msgs.push(GlobalMessage::new(0, i % 64));
        }
        // Transfers whose carriers repeat, and a tiny batch to alternate
        // with the large ones: a reset must cover what the last batch
        // touched, however small the next one is.
        let evens: Vec<u32> = (0..64).step_by(2).collect();
        let odds: Vec<u32> = (1..64).step_by(2).collect();
        let transfers = [
            rr(&evens, &odds[..7], 500),
            rr(&[5], &evens, 90),
            rr(&odds[..7], &[5], 40),
            rr(&evens, &odds[..7], 3),
        ];
        let tiny = [GlobalMessage::new(1, 2)];
        let one_shot = |batch: &[GlobalMessage]| GlobalScheduler::deliver(&p, batch);
        let unit_order: Vec<GlobalMessage> = transfers.iter().flat_map(|t| t.messages()).collect();
        let fresh = (one_shot(&msgs), one_shot(&unit_order), one_shot(&tiny));
        assert_eq!(
            GlobalScheduler::new().deliver_round_robin(&p, &transfers),
            fresh.1
        );

        let mut sched = GlobalScheduler::new();
        let mut caps = None;
        for _ in 0..6 {
            assert_eq!(sched.deliver_with(&p, &msgs), fresh.0);
            assert_eq!(sched.deliver_with(&p, &tiny), fresh.2);
            assert_eq!(sched.deliver_round_robin(&p, &transfers), fresh.1);
            assert_eq!(sched.deliver_with(&p, &tiny), fresh.2);
            let now = capacities(&sched);
            assert_eq!(
                *caps.get_or_insert(now),
                now,
                "repeated deliveries must not grow any workspace buffer"
            );
        }
    }

    impl GlobalScheduler {
        /// The laid-out batch as `(sender, receiver, count)` runs, sender
        /// by sender.
        fn runs_by_sender(&self) -> Vec<(u32, u32, u32)> {
            let bucket = |s: u32| {
                let range = self.seg_lo[s as usize] as usize..self.seg_hi[s as usize] as usize;
                self.runs[range]
                    .iter()
                    .map(move |&(to, count)| (s, to, count))
            };
            self.senders.iter().flat_map(|&s| bucket(s)).collect()
        }

        /// Like [`GlobalScheduler::deliver_with`], but additionally appends
        /// every delivery to `trace` as `(round, message)` in delivery order,
        /// so a test can check the per-round receive cap and the delivered
        /// multiset against a reference scheduler.
        fn deliver_with_trace(
            &mut self,
            params: &ModelParams,
            messages: &[GlobalMessage],
            trace: &mut Vec<(u64, GlobalMessage)>,
        ) -> DeliveryReport {
            self.set_up_list(params, messages);
            self.play(params, |round, from, to, k| {
                let message = (round, GlobalMessage::new(from, to));
                trace.extend(std::iter::repeat_n(message, k as usize));
            })
        }
    }

    /// Naive reference for the global scheduler: per-sender `VecDeque` queues
    /// (receiver-sorted, matching the scheduler's receiver-grouped delivery
    /// order), greedy full-budget scan (skip saturated receivers, never
    /// abandon the rest of the round's budget), deferred messages pushed back
    /// to the queue front, and the same deterministic sender-order rotation.
    /// Returns the round count and the `(round, message)` delivery trace.
    fn reference_schedule(
        params: &ModelParams,
        messages: &[GlobalMessage],
    ) -> (u64, Vec<(u64, GlobalMessage)>) {
        use std::collections::VecDeque;
        let n = params.n;
        let gamma = params.global_capacity_msgs as u64;
        let mut queues: Vec<VecDeque<u32>> = vec![VecDeque::new(); n];
        for m in messages {
            queues[m.from as usize].push_back(m.to);
        }
        for q in &mut queues {
            q.make_contiguous().sort_unstable();
        }
        let mut active: Vec<u32> = (0..n as u32)
            .filter(|&v| !queues[v as usize].is_empty())
            .collect();
        let mut remaining = messages.len() as u64;
        let mut rounds = 0u64;
        let mut trace = Vec::new();
        while remaining > 0 {
            rounds += 1;
            let mut recv_budget = vec![0u64; n];
            let mut next_active = Vec::new();
            for &sender in &active {
                let q = &mut queues[sender as usize];
                let mut sent = 0u64;
                let mut deferred = Vec::new();
                while sent < gamma {
                    let Some(to) = q.pop_front() else { break };
                    if recv_budget[to as usize] < gamma {
                        recv_budget[to as usize] += 1;
                        sent += 1;
                        remaining -= 1;
                        trace.push((rounds, GlobalMessage::new(sender, to)));
                    } else {
                        deferred.push(to);
                    }
                }
                for &to in deferred.iter().rev() {
                    q.push_front(to);
                }
                if !q.is_empty() {
                    next_active.push(sender);
                }
            }
            if !next_active.is_empty() {
                let shift = rounds as usize % next_active.len();
                next_active.rotate_left(shift);
            }
            active = next_active;
        }
        (rounds, trace)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The flat-arena scheduler is *exactly* equivalent to a naive
        /// per-sender `VecDeque` reference on skewed random multisets (random
        /// hot receivers / hot senders): same round count, same per-round
        /// deliveries in the same order, and the delivered multiset equals
        /// the input multiset.  Also exercises workspace reuse — one
        /// scheduler instance serves every case.
        #[test]
        fn scheduler_matches_naive_reference_exactly(
            n in 2usize..48,
            gamma in 1usize..8,
            seed in any::<u64>(),
            len in 0usize..400,
            skew in 0u8..3,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let hot = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
            let messages: Vec<GlobalMessage> = (0..len)
                .map(|_| {
                    let from = if skew == 1 && rng.gen_range(0..3u8) == 0 {
                        hot.0
                    } else {
                        rng.gen_range(0..n) as u32
                    };
                    let to = if skew == 2 && rng.gen_range(0..2u8) == 0 {
                        hot.1
                    } else {
                        rng.gen_range(0..n) as u32
                    };
                    GlobalMessage::new(from, to)
                })
                .collect();
            let params = ModelParams::hybrid_with_global_capacity(n, gamma);

            let mut sched = GlobalScheduler::new();
            let mut trace = Vec::new();
            let report = sched.deliver_with_trace(&params, &messages, &mut trace);
            let (ref_rounds, ref_trace) = reference_schedule(&params, &messages);

            prop_assert_eq!(report.rounds, ref_rounds);
            prop_assert_eq!(&trace, &ref_trace);
            // Delivered multiset == input multiset (nothing lost or duplicated).
            let mut delivered: Vec<GlobalMessage> = trace.iter().map(|&(_, m)| m).collect();
            delivered.sort_unstable();
            let mut input = messages.clone();
            input.sort_unstable();
            prop_assert_eq!(delivered, input);
            // Per-round receive counts never exceed the cap.
            let mut per_round = std::collections::HashMap::new();
            for &(round, m) in &trace {
                *per_round.entry((round, m.to)).or_insert(0u64) += 1;
            }
            prop_assert!(per_round.values().all(|&c| c <= gamma as u64));
            // Reusing the (now warm) workspace reproduces the identical schedule.
            let mut trace2 = Vec::new();
            let report2 = sched.deliver_with_trace(&params, &messages, &mut trace2);
            prop_assert_eq!(report.rounds, report2.rounds);
            prop_assert_eq!(trace, trace2);
        }
    }

    #[test]
    fn a_transfer_is_one_counted_run_per_pair() {
        let p = params(8, 2);
        let mut sched = GlobalScheduler::new();
        // lcm(2, 3) = 6 pairs; 13 units: pair 0 carries 3, the others 2.
        sched.set_up_round_robin(&p, &[rr(&[0, 1], &[2, 3, 4], 13)]);
        let pairs = [
            (0, 2, 3),
            (0, 3, 2),
            (0, 4, 2),
            (1, 2, 2),
            (1, 3, 2),
            (1, 4, 2),
        ];
        assert_eq!(sched.runs_by_sender(), pairs);
        // Fewer units than pairs: one message each, on units 0..4.
        sched.set_up_round_robin(&p, &[rr(&[0, 1], &[2, 3, 4], 4)]);
        assert_eq!(
            sched.runs_by_sender(),
            [(0, 2, 1), (0, 4, 1), (1, 2, 1), (1, 3, 1)]
        );
    }

    #[test]
    fn a_senders_runs_merge_across_interleaved_transfers() {
        // Sender 0 reaches receivers 6 2 6 2 6 in one transfer and 4 8 2 4
        // in the other (units 0, 2, 4, 6), receiver ids that interleave.
        let transfers = [rr(&[0], &[6, 2], 5), rr(&[0, 1], &[4, 2, 8], 7)];
        let mut sched = GlobalScheduler::new();
        sched.set_up_round_robin(&params(10, 2), &transfers);
        assert_eq!(
            sched.runs_by_sender(),
            [
                (0, 2, 2 + 1),
                (0, 4, 2),
                (0, 6, 3),
                (0, 8, 1),
                (1, 2, 1),
                (1, 4, 1),
                (1, 8, 1),
            ]
        );
        let list: Vec<GlobalMessage> = transfers.iter().flat_map(|t| t.messages()).collect();
        sched.set_up_list(&params(10, 2), &list);
        let by_list = sched.runs_by_sender();
        sched.set_up_round_robin(&params(10, 2), &transfers);
        assert_eq!(sched.runs_by_sender(), by_list);
    }

    #[test]
    fn the_period_is_the_lcm_or_the_units() {
        assert_eq!(pair_period(4, 6, 100), 12);
        assert_eq!(pair_period(7, 7, 3), 7);
        assert_eq!(pair_period(1, 40, 5), 40);
        // An lcm past usize::MAX is never reached by the units: each unit is
        // its own pair.
        assert_eq!(pair_period(usize::MAX, usize::MAX - 1, 9), 9);
    }

    #[test]
    fn an_empty_transfer_adds_nothing() {
        let p = params(8, 2);
        let mut sched = GlobalScheduler::new();
        let report = sched.deliver_round_robin(&p, &[rr(&[], &[], 0)]);
        assert_eq!(report, DeliveryReport::default());
        let padded = [rr(&[0], &[], 0), rr(&[1, 2], &[3], 5), rr(&[4], &[5, 6], 0)];
        let alone = GlobalScheduler::new().deliver_round_robin(&p, &padded[1..2]);
        assert_eq!(sched.deliver_round_robin(&p, &padded), alone);
    }

    #[test]
    #[should_panic(expected = "round-robin transfer 1 carries 3 units but has no receivers")]
    fn a_transfer_without_carriers_is_named() {
        let transfers = [rr(&[0], &[1], 2), rr(&[0], &[], 3)];
        GlobalScheduler::new().deliver_round_robin(&params(4, 2), &transfers);
    }

    #[test]
    #[should_panic(expected = "round-robin transfer 0: 4294967296 messages on one")]
    fn a_pair_past_u32_is_refused_in_the_transfer() {
        let transfers = [rr(&[0], &[1], u32::MAX as usize + 1)];
        GlobalScheduler::new().deliver_round_robin(&params(4, 2), &transfers);
    }

    #[test]
    #[should_panic(expected = "2147483648 + 2147483648 messages from sender 0 to receiver 1")]
    fn a_merged_run_past_u32_is_refused() {
        let half = rr(&[0], &[1], 1 << 31);
        GlobalScheduler::new().deliver_round_robin(&params(4, 2), &[half, half]);
    }

    #[test]
    #[should_panic(expected = "receiver 9 out of range")]
    fn out_of_range_carrier_panics() {
        GlobalScheduler::new().deliver_round_robin(&params(4, 2), &[rr(&[0], &[9], 1)]);
    }

    #[test]
    fn trace_is_complete_and_respects_cap() {
        let p = params(16, 2);
        let mut msgs = Vec::new();
        for s in 0..16u32 {
            for t in 0..4u32 {
                msgs.push(GlobalMessage::new(s, (s + t) % 16));
            }
        }
        let mut trace = Vec::new();
        let r = GlobalScheduler::new().deliver_with_trace(&p, &msgs, &mut trace);
        assert_eq!(trace.len(), msgs.len());
        assert!(trace
            .iter()
            .all(|&(round, _)| round >= 1 && round <= r.rounds));
        // Delivered multiset == input multiset.
        let mut delivered: Vec<GlobalMessage> = trace.iter().map(|&(_, m)| m).collect();
        let mut input = msgs.clone();
        delivered.sort_unstable();
        input.sort_unstable();
        assert_eq!(delivered, input);
        // Per-round receive counts never exceed gamma.
        let mut per_round_recv = std::collections::HashMap::new();
        for &(round, m) in &trace {
            *per_round_recv.entry((round, m.to)).or_insert(0u64) += 1;
        }
        assert!(per_round_recv.values().all(|&c| c <= 2));
    }

    #[test]
    #[should_panic(expected = "no global communication")]
    fn zero_gamma_with_messages_panics() {
        let p = params(4, 0);
        GlobalScheduler::deliver(&p, &[GlobalMessage::new(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "no global communication")]
    fn zero_gamma_lower_bound_panics_cleanly() {
        // Regression: this used to reach `worst.div_ceil(0)` and die with a
        // divide-by-zero panic instead of the scheduler's assertion message.
        let p = params(4, 0);
        GlobalScheduler::lower_bound_rounds(&p, &[GlobalMessage::new(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_receiver_panics() {
        GlobalScheduler::deliver(&params(4, 2), &[GlobalMessage::new(0, 9)]);
    }
}
