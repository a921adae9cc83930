//! The phase engine: a [`HybridNetwork`] wraps the local communication graph
//! and the model parameters, and charges algorithm phases to a [`CostMeter`].
//!
//! Algorithms in `hybrid-core` are written against this type.  A *local phase*
//! of radius `t` is charged `t` rounds (local bandwidth is unlimited, so after
//! `t` rounds a node knows exactly its `t`-ball — the data-level computation
//! is performed by the algorithm itself using the graph oracles).  A *global
//! phase* hands the full multiset of `O(log n)`-bit point-to-point messages to
//! the [`GlobalScheduler`], which plays them out round by round under the
//! per-node capacity `γ`.

use std::sync::Arc;

use hybrid_graph::Graph;

use crate::cost::CostMeter;
use crate::params::ModelParams;
use crate::scheduler::{DeliveryReport, GlobalMessage, GlobalScheduler, RoundRobin};

/// A simulated HYBRID network: graph + model parameters + cost meter.
///
/// The network owns a [`GlobalScheduler`] workspace, so repeated
/// [`HybridNetwork::deliver_global`] phases reuse one set of scheduling
/// buffers instead of allocating per batch.
#[derive(Debug, Clone)]
pub struct HybridNetwork {
    graph: Arc<Graph>,
    params: ModelParams,
    meter: CostMeter,
    scheduler: GlobalScheduler,
}

impl HybridNetwork {
    /// Creates a network with explicit parameters.
    ///
    /// # Panics
    /// Panics if `params.n` does not match the number of nodes of `graph`.
    pub fn new(graph: Arc<Graph>, params: ModelParams) -> Self {
        assert_eq!(
            params.n,
            graph.n(),
            "model parameters are for {} nodes but the graph has {}",
            params.n,
            graph.n()
        );
        HybridNetwork {
            graph,
            params,
            meter: CostMeter::new(),
            scheduler: GlobalScheduler::new(),
        }
    }

    /// Standard `HYBRID` network over `graph`.
    pub fn hybrid(graph: Arc<Graph>) -> Self {
        let params = ModelParams::hybrid(graph.n());
        Self::new(graph, params)
    }

    /// The underlying local communication graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Shared handle to the graph.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// `⌈log₂ n⌉` — the paper's `O(log n)` unit.
    pub fn log_n(&self) -> u64 {
        ModelParams::log_n(self.params.n) as u64
    }

    /// `⌈log₂ n⌉^power`, at least 1 — used to charge `Õ(1)` primitives with an
    /// explicit polylogarithmic round count.
    pub fn polylog(&self, power: u32) -> u64 {
        self.log_n().saturating_pow(power).max(1)
    }

    /// Total rounds consumed so far.
    pub fn rounds(&self) -> u64 {
        self.meter.rounds()
    }

    /// Read access to the cost meter.
    pub fn meter(&self) -> &CostMeter {
        &self.meter
    }

    /// Charges a local phase of the given hop radius.
    pub fn charge_local(&mut self, label: &'static str, radius_rounds: u64) {
        // Message volume estimate: every edge may carry a message in every
        // round of a flooding phase.
        let messages = radius_rounds.saturating_mul(self.graph.m() as u64);
        self.meter.record_local(label, radius_rounds, messages);
    }

    /// Delivers a batch of global messages through the capacity-constrained
    /// global network and charges the rounds the schedule took.  The
    /// network's scheduler workspace is reused across batches, so a
    /// steady-state phase allocates nothing here.
    pub fn deliver_global(
        &mut self,
        label: &'static str,
        messages: &[GlobalMessage],
    ) -> DeliveryReport {
        let report = self.scheduler.deliver_with(&self.params, messages);
        self.record(label, report)
    }

    /// Delivers Lemma 4.1 round-robin transfers as one global batch: the
    /// same phase, round for round, as [`HybridNetwork::deliver_global`] on
    /// their unit-order message lists concatenated.  The scheduler takes
    /// them as counted runs and never lists their units.
    pub fn deliver_round_robin(
        &mut self,
        label: &'static str,
        transfers: &[RoundRobin],
    ) -> DeliveryReport {
        let report = self.scheduler.deliver_round_robin(&self.params, transfers);
        self.record(label, report)
    }

    /// Charges a delivered global phase to the meter.
    fn record(&mut self, label: &'static str, report: DeliveryReport) -> DeliveryReport {
        self.meter
            .record_global(label, report.rounds, report.messages);
        report
    }

    /// Charges a fixed number of rounds for a simulated oracle / framework
    /// whose internal communication is not scheduled explicitly: a
    /// substitution charges its cited construction's round bound here.
    pub fn charge_rounds(&mut self, label: &'static str, rounds: u64) {
        self.meter.record_charged(label, rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;

    fn net(n: usize) -> HybridNetwork {
        HybridNetwork::hybrid(Arc::new(generators::cycle(n).unwrap()))
    }

    #[test]
    fn constructors_and_accessors() {
        let net = HybridNetwork::hybrid(Arc::new(generators::path(100).unwrap()));
        assert_eq!(net.graph().n(), 100);
        assert_eq!(net.log_n(), 7);
        assert_eq!(net.polylog(2), 49);
        assert_eq!(*net.params(), ModelParams::hybrid(100));
    }

    #[test]
    #[should_panic(expected = "model parameters are for")]
    fn mismatched_params_panic() {
        let g = Arc::new(generators::path(10).unwrap());
        HybridNetwork::new(g, ModelParams::hybrid(11));
    }

    #[test]
    fn local_phase_charges_radius() {
        let mut net = net(50);
        net.charge_local("learn-ball", 7);
        assert_eq!(net.rounds(), 7);
        assert_eq!(net.meter().local_messages(), 7 * 50);
    }

    #[test]
    fn global_phase_charges_schedule() {
        let mut net = net(64);
        let gamma = net.params().global_capacity_msgs as u64;
        // Node 0 sends 4*gamma messages to distinct targets: 4 rounds.
        let msgs: Vec<_> = (1..=4 * gamma as u32)
            .map(|t| GlobalMessage::new(0, t))
            .collect();
        let report = net.deliver_global("pump", &msgs);
        assert_eq!(report.rounds, 4);
        assert_eq!(net.rounds(), 4);
        assert_eq!(net.meter().global_messages(), 4 * gamma);
    }

    #[test]
    fn charged_and_absorbed_phases() {
        let mut net = net(16);
        net.charge_rounds("oracle", 9);
        assert_eq!(net.rounds(), 9);
        assert_eq!(net.meter().global_messages(), 0);
    }
}
