//! One configuration surface for the per-node engines.
//!
//! [`EngineConfig`] is the single builder for every knob of the per-node
//! engines — model parameters, scenario seed, fault plan, round cap, trace
//! recording — accepted by the in-process
//! [`Executor`](crate::engine::Executor) and the networked `hybrid-driver`,
//! so a scenario is described once and runs identically in both.  There is
//! no other way to install a fault plan.  The phase engine
//! [`HybridNetwork`](crate::network::HybridNetwork) takes only
//! [`ModelParams`]: its charged pipelines run failure-free, like the
//! paper's model.
//!
//! [`EngineError`] makes the round cap loud: `run` fails with the
//! partial [`RunReport`] attached when the cap is exhausted before every
//! program is done, so callers cannot mistake truncation for convergence.

use crate::engine::RunReport;
use crate::faults::FaultPlan;
use crate::params::ModelParams;

/// Round cap used when a configuration does not set one explicitly.
pub const DEFAULT_MAX_ROUNDS: u64 = 10_000;

/// Unified engine configuration: model parameters, seed, fault plan, round
/// cap and trace recording, built fluently:
///
/// ```
/// use hybrid_sim::{EngineConfig, ModelParams};
/// let config = EngineConfig::new(ModelParams::hybrid(16))
///     .with_seed(7)
///     .with_max_rounds(500)
///     .with_trace(true);
/// assert_eq!(config.max_rounds(), 500);
/// ```
#[derive(Debug, Clone)]
pub struct EngineConfig {
    params: ModelParams,
    seed: u64,
    fault_plan: Option<FaultPlan>,
    max_rounds: u64,
    record_trace: bool,
}

impl EngineConfig {
    /// Starts a configuration from model parameters, with no faults, seed 0,
    /// the [`DEFAULT_MAX_ROUNDS`] round cap and trace recording off.
    pub fn new(params: ModelParams) -> Self {
        EngineConfig {
            params,
            seed: 0,
            fault_plan: None,
            max_rounds: DEFAULT_MAX_ROUNDS,
            record_trace: false,
        }
    }

    /// Sets the scenario seed (randomized programs and drivers derive their
    /// per-node streams from it; the engines themselves draw no random bits).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault plan.  A failure-free plan is normalized to none, so
    /// the round router skips its fault pass whenever no fault can fire.
    ///
    /// # Panics
    /// Panics if the plan was built for a different node count than
    /// `params.n`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        assert_eq!(
            plan.n(),
            self.params.n,
            "fault plan is for {} nodes but the model has {}",
            plan.n(),
            self.params.n
        );
        self.fault_plan = if plan.is_failure_free() {
            None
        } else {
            Some(plan)
        };
        self
    }

    /// Sets the round cap after which `run` reports
    /// [`EngineError::RoundLimitExceeded`].
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables or disables per-round delivered-message trace recording
    /// (see [`RoundTrace`](crate::envelope::RoundTrace)).  Off by default —
    /// recording serializes every delivered payload, so the fast path keeps
    /// its zero-serialization property only while this is off.
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Installed fault plan, if any (failure-free plans normalize to `None`).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Round cap.
    pub fn max_rounds(&self) -> u64 {
        self.max_rounds
    }

    /// Whether per-round traces are recorded.
    pub fn record_trace(&self) -> bool {
        self.record_trace
    }
}

/// Typed failure of an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The configured round cap was exhausted before the stop condition
    /// held.  The partial report describes everything up to the cap, so
    /// diagnostics lose nothing — but truncation can no longer masquerade
    /// as convergence.
    RoundLimitExceeded {
        /// The configured cap that was hit.
        limit: u64,
        /// The (incomplete) run up to the cap.
        report: RunReport,
    },
}

impl RunReport {
    /// `Ok(self)` if the run completed, otherwise the typed
    /// [`EngineError::RoundLimitExceeded`] for the cap `limit` it ran under.
    pub fn completed_within(self, limit: u64) -> Result<RunReport, EngineError> {
        if self.completed {
            Ok(self)
        } else {
            Err(EngineError::RoundLimitExceeded {
                limit,
                report: self,
            })
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RoundLimitExceeded { limit, .. } => {
                write!(f, "round limit of {limit} exhausted before completion")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSpec;

    #[test]
    fn builder_defaults_and_setters() {
        let config = EngineConfig::new(ModelParams::hybrid(8));
        assert_eq!(config.seed(), 0);
        assert_eq!(config.max_rounds(), DEFAULT_MAX_ROUNDS);
        assert!(config.fault_plan().is_none());
        assert!(!config.record_trace());

        let config = config.with_seed(42).with_max_rounds(99).with_trace(true);
        assert_eq!(config.seed(), 42);
        assert_eq!(config.max_rounds(), 99);
        assert!(config.record_trace());
    }

    #[test]
    fn failure_free_plans_normalize_to_none() {
        let config = EngineConfig::new(ModelParams::hybrid(8)).with_fault_plan(FaultPlan::new(
            FaultSpec::none(),
            1,
            8,
        ));
        assert!(config.fault_plan().is_none());
        let config = config.with_fault_plan(FaultPlan::new(FaultSpec::drop_only(0.5), 1, 8));
        assert!(config.fault_plan().is_some());
    }

    #[test]
    #[should_panic(expected = "fault plan is for")]
    fn mismatched_fault_plan_panics_at_build_time() {
        let _ = EngineConfig::new(ModelParams::hybrid(16)).with_fault_plan(FaultPlan::new(
            FaultSpec::drop_only(0.1),
            0,
            8,
        ));
    }

    #[test]
    fn engine_error_displays_and_unwraps() {
        let report = RunReport {
            rounds: 5,
            ..RunReport::default()
        };
        let err = EngineError::RoundLimitExceeded {
            limit: 5,
            report: report.clone(),
        };
        assert!(err.to_string().contains("round limit of 5"));
        let EngineError::RoundLimitExceeded {
            report: partial, ..
        } = err;
        assert_eq!(partial, report);
    }
}
