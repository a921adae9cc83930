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

use crate::config::EngineConfig;
use crate::cost::{CostMeter, FaultCounts};
use crate::faults::FaultPlan;
use crate::params::ModelParams;
use crate::scheduler::{DeliveryReport, GlobalMessage, GlobalScheduler, RoundRobin};

/// A simulated HYBRID network: graph + model parameters + cost meter.
///
/// The network owns a [`GlobalScheduler`] workspace, so repeated
/// [`HybridNetwork::deliver_global`] phases reuse one set of scheduling
/// buffers instead of allocating per batch.
///
/// An optional [`FaultPlan`] (installed through
/// [`EngineConfig::with_fault_plan`] and [`HybridNetwork::with_config`])
/// routes every global phase through the adversarial
/// [`GlobalScheduler::deliver_with_faults`] path, using the meter's running
/// round total as the fate coordinate so repeated phases draw fresh faults.
#[derive(Debug, Clone)]
pub struct HybridNetwork {
    graph: Arc<Graph>,
    params: ModelParams,
    meter: CostMeter,
    scheduler: GlobalScheduler,
    faults: Option<FaultPlan>,
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
            faults: None,
        }
    }

    /// Creates a network from a unified [`EngineConfig`]: model parameters
    /// and fault plan are taken from the config (the phase engine has no
    /// round cap or trace recorder — those knobs drive the message-passing
    /// engine and the networked runtime).
    ///
    /// # Panics
    /// Panics if `config.params().n` does not match the graph's node count.
    pub fn with_config(graph: Arc<Graph>, config: &EngineConfig) -> Self {
        let mut net = Self::new(graph, *config.params());
        net.faults = config.fault_plan().cloned();
        net
    }

    /// Whether an active (non-failure-free) fault plan is installed.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
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
    ///
    /// # Panics
    /// Panics if the model has no local communication.
    pub fn charge_local(&mut self, label: &'static str, radius_rounds: u64) {
        assert!(
            self.params.local,
            "model has no local communication but a local phase was charged"
        );
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
        let report = match &self.faults {
            Some(plan) => {
                // The meter's running total anchors this phase's fate
                // coordinates, so each phase faces fresh adversary decisions.
                let round_base = self.meter.rounds();
                self.scheduler
                    .deliver_with_faults(&self.params, messages, plan, round_base)
            }
            None => self.scheduler.deliver_with(&self.params, messages),
        };
        self.record(label, report)
    }

    /// Delivers Lemma 4.1 round-robin transfers as one global batch: the
    /// same phase, round for round and fault for fault, as
    /// [`HybridNetwork::deliver_global`] on their unit-order message lists
    /// concatenated.  Failure-free, the scheduler takes them as counted runs;
    /// under a fault plan they are played as those messages, because a fate
    /// is keyed by a message's index in its wave.
    pub fn deliver_round_robin(
        &mut self,
        label: &'static str,
        transfers: &[RoundRobin],
    ) -> DeliveryReport {
        if self.faults.is_some() {
            let messages: Vec<GlobalMessage> = transfers
                .iter()
                .enumerate()
                .flat_map(|(t, rr)| rr.messages(t))
                .collect();
            return self.deliver_global(label, &messages);
        }
        let report = self.scheduler.deliver_round_robin(&self.params, transfers);
        self.record(label, report)
    }

    /// Charges a delivered global phase to the meter.  Failure-free, the
    /// scheduler queues what exceeds a receive cap instead of dropping it,
    /// so an injected fault without a plan is a bug, not congestion.
    fn record(&mut self, label: &'static str, report: DeliveryReport) -> DeliveryReport {
        debug_assert!(
            self.faults.is_some() || report.faults == FaultCounts::default(),
            "{label}: {:?} in a failure-free run",
            report.faults
        );
        self.meter
            .record_global(label, report.rounds, report.messages, report.faults);
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

    #[test]
    fn fault_plan_routes_global_phases_through_the_adversary() {
        use crate::faults::{FaultPlan, FaultSpec};
        let msgs: Vec<_> = (1..32u32).map(|s| GlobalMessage::new(s, 0)).collect();
        let senders: Vec<u32> = (1..32).collect();
        let transfers = [RoundRobin {
            senders: &senders,
            receivers: &[0, 1, 2],
            units: 64,
        }];
        let graph = Arc::new(generators::cycle(64).unwrap());
        let params = ModelParams::hybrid(64);

        // Both phases, message list and round-robin transfers, with the
        // reports they return; the meter must hold exactly their faults.
        let run = |net: &mut HybridNetwork| {
            let reports = [
                net.deliver_global("pump", &msgs),
                net.deliver_round_robin("spread", &transfers),
            ];
            let trace = net.meter().trace();
            assert_eq!(trace.len(), 2);
            let mut total = FaultCounts::default();
            for (report, phase) in reports.iter().zip(trace) {
                assert_eq!(phase.faults, report.faults, "{}", phase.label);
                total += report.faults;
            }
            assert_eq!(net.meter().faults(), total);
            reports
        };

        let mut clean = net(64);
        assert!(!clean.has_faults());
        let clean_reports = run(&mut clean);
        let trace = clean.meter().trace();
        assert!(trace.iter().all(|p| p.faults == FaultCounts::default()));

        let config = EngineConfig::new(params).with_fault_plan(FaultPlan::new(
            FaultSpec::drop_only(0.5),
            77,
            64,
        ));
        let mut faulty = HybridNetwork::with_config(Arc::clone(&graph), &config);
        assert!(faulty.has_faults());
        let reports = run(&mut faulty);
        assert_eq!(reports[0].messages, msgs.len() as u64);
        assert_eq!(reports[1].messages, 64);
        for (report, clean) in reports.iter().zip(&clean_reports) {
            assert!(report.faults.dropped > 0);
            assert!(report.rounds >= clean.rounds);
        }

        // A failure-free plan normalizes away at config build time.
        let noop_config =
            EngineConfig::new(params).with_fault_plan(FaultPlan::new(FaultSpec::none(), 77, 64));
        let noop = HybridNetwork::with_config(graph, &noop_config);
        assert!(!noop.has_faults());
    }

    #[test]
    #[should_panic(expected = "no local communication")]
    fn local_phase_on_ncc_panics() {
        let g = Arc::new(generators::cycle(8).unwrap());
        let mut net = HybridNetwork::new(g, ModelParams::ncc(8));
        net.charge_local("flood", 1);
    }
}
