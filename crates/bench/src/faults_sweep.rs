//! Fault sweeps: degradation-factor curves under a seeded adversary over a
//! `family × size × fault-profile` grid.
//!
//! The scaling sweep ([`crate::sweep`]) measures competitive ratios against
//! each instance's lower-bound witness; that framing does not survive fault
//! injection, because the paper's lower bounds (Theorems 4, 10–12) are proved
//! in the failure-free model — an adversary only makes executions *slower*,
//! never the witness larger.  This module therefore reports **degradation
//! factors** instead: each `(family, n)` cell first runs failure-free, then
//! replays the identical workload under every fault profile, and each row
//! records `rounds(faulty) / rounds(failure-free)` plus the message-overhead
//! factor and the injected-fault counters.
//!
//! Two execution layers are measured per cell, matching the two engines the
//! [`hybrid_sim::FaultPlan`] is wired into:
//!
//! * **engine** — ack/retry token dissemination
//!   ([`hybrid_sim::programs::AckFloodProgram`]) on the per-node engine,
//!   whose completion under any drop rate `< 1` is the tentpole guarantee;
//! * **phase** — the Theorem 1 `k`-dissemination pipeline on the phase
//!   engine, whose global batches replay through the wave-retry scheduler
//!   path ([`hybrid_sim::GlobalScheduler::deliver_with_faults`]).
//!
//! ## Determinism
//!
//! Cells are independent: every `(family, n)` cell derives its graph seed and
//! its per-profile fault-plan seeds from [`Grid::seed`], like the scaling
//! sweep, and a [`FaultPlan`]'s decisions are themselves pure hashes of its
//! seeded key — so the grid's fan-out is bit-identical across
//! `RAYON_NUM_THREADS` (pinned by `crates/bench/tests/determinism.rs` and
//! the CI artifact diff).

use std::sync::Arc;

use serde::Serialize;

use hybrid_core::dissemination::{k_dissemination, place_tokens};
use hybrid_core::nq::NqOracle;
use hybrid_sim::engine::{Executor, NodeProgram, RunReport};
use hybrid_sim::programs::AckFloodProgram;
use hybrid_sim::{EngineConfig, FaultPlan, FaultSpec, HybridNetwork, ModelParams};

use crate::grid::{GraphFamily, Grid};

/// A named adversary distribution of the sweep grid.
#[derive(Debug, Clone, Copy)]
pub struct FaultProfile {
    /// Short name used in the JSON rows (`none`, `drop-15`, `chaos`, …).
    pub name: &'static str,
    /// The fault distribution.
    pub spec: FaultSpec,
}

/// The failure-free reference profile (degradation factor 1 by definition).
const NONE: FaultProfile = FaultProfile {
    name: "none",
    spec: FaultSpec {
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        delay_prob: 0.0,
        max_delay_rounds: 0,
        crash_prob: 0.0,
        crash_down_rounds: 0,
        crash_horizon_rounds: 0,
        partition_start: 0,
        partition_rounds: 0,
    },
};

/// A drop-only profile with the given per-attempt probability (percent).
const fn drop_profile(name: &'static str, percent: u64) -> FaultProfile {
    FaultProfile {
        name,
        spec: FaultSpec {
            drop_prob: percent as f64 / 100.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            max_delay_rounds: 0,
            crash_prob: 0.0,
            crash_down_rounds: 0,
            crash_horizon_rounds: 0,
            partition_start: 0,
            partition_rounds: 0,
        },
    }
}

/// The combined adversary: moderate drops plus duplication, delay,
/// crash-restart and a transient partition window — every fault class the
/// plane implements, active at once.
const CHAOS: FaultProfile = FaultProfile {
    name: "chaos",
    spec: FaultSpec {
        drop_prob: 0.2,
        duplicate_prob: 0.1,
        delay_prob: 0.1,
        max_delay_rounds: 3,
        crash_prob: 0.3,
        crash_down_rounds: 6,
        crash_horizon_rounds: 12,
        partition_start: 3,
        partition_rounds: 6,
    },
};

/// Configuration of a fault sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepConfig {
    /// The `(family, n)` cells.
    pub grid: Grid,
    /// Fault profiles (the `none` reference is always measured, whether or
    /// not it is listed — listing it adds its factor-1 row to the curves).
    pub profiles: Vec<FaultProfile>,
    /// Engine-level round budget for the ack/retry dissemination (generous:
    /// the completion guarantee holds for any drop rate `< 1`, but the sweep
    /// must terminate even if a profile is made hostile).
    pub max_rounds: u64,
}

impl FaultSweepConfig {
    /// The CI-sized sweep (`reproduce faults --quick`): the core families ×
    /// 2 sizes × 5 profiles (the failure-free reference, three drop rates,
    /// the combined chaos adversary).
    pub fn quick() -> Self {
        FaultSweepConfig {
            grid: Grid::new(GraphFamily::core_families(), &[64, 128], 0xFA17),
            profiles: vec![
                NONE,
                drop_profile("drop-15", 15),
                drop_profile("drop-35", 35),
                drop_profile("drop-55", 55),
                CHAOS,
            ],
            max_rounds: 50_000,
        }
    }

    /// The full-depth sweep (nightly): the core families × 3 sizes, a denser
    /// drop ladder.
    pub fn full() -> Self {
        FaultSweepConfig {
            grid: Grid::new(GraphFamily::core_families(), &[128, 256, 512], 0xFA17),
            profiles: vec![
                NONE,
                drop_profile("drop-15", 15),
                drop_profile("drop-35", 35),
                drop_profile("drop-55", 55),
                drop_profile("drop-75", 75),
                CHAOS,
            ],
            max_rounds: 200_000,
        }
    }
}

/// One cell of the fault sweep: a `(family, n, profile)` coordinate with the
/// rounds-to-completion, degradation factors over the failure-free run and
/// the injected-fault accounting for both execution layers.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweepRow {
    /// Graph family.
    pub family: &'static str,
    /// Actual number of nodes of the built instance.
    pub n: usize,
    /// Fault profile name.
    pub profile: &'static str,
    /// Per-attempt drop probability of the profile.
    pub drop_prob: f64,
    /// Per-attempt duplication probability.
    pub duplicate_prob: f64,
    /// Per-attempt delay probability.
    pub delay_prob: f64,
    /// Per-node crash probability (crash-restart model).
    pub crash_prob: f64,
    /// Number of disseminated tokens (same workload at every profile).
    pub k: u64,
    /// Engine layer: rounds of the ack/retry dissemination under this profile.
    pub ack_rounds: u64,
    /// Engine layer: the failure-free reference rounds of the same workload.
    pub ack_baseline_rounds: u64,
    /// `ack_rounds / ack_baseline_rounds` — the engine degradation factor.
    pub ack_degradation: f64,
    /// Delivered local messages divided by the failure-free count — the
    /// retransmission overhead the ack/retry protocol pays.  Can dip below 1
    /// under heavy drops: destroyed copies never count as delivered, and the
    /// periodic retries only partially replace them.
    pub ack_message_overhead: f64,
    /// Whether every node learned every token within the round budget (the
    /// completion guarantee says this is `true` whenever `drop_prob < 1`).
    pub ack_completed: bool,
    /// Engine layer: messages destroyed by the adversary.
    pub ack_injected_drops: u64,
    /// Engine layer: extra copies delivered by duplication.
    pub ack_injected_duplicates: u64,
    /// Engine layer: messages held back by delay.
    pub ack_injected_delays: u64,
    /// Phase layer: rounds of Theorem 1 `k`-dissemination under this profile.
    pub diss_rounds: u64,
    /// Phase layer: the failure-free reference rounds.
    pub diss_baseline_rounds: u64,
    /// `diss_rounds / diss_baseline_rounds` — the phase degradation factor.
    pub diss_degradation: f64,
    /// Delivered global messages divided by the failure-free count (retries
    /// never re-deliver, so this only exceeds 1 through duplication).
    pub diss_message_overhead: f64,
    /// Phase layer: delivery attempts dropped (from the `CostMeter`).
    pub diss_dropped: u64,
    /// Phase layer: extra copies delivered by duplication.
    pub diss_duplicated: u64,
    /// Phase layer: delivery attempts held back by delay.
    pub diss_delayed: u64,
}

/// Degradation/overhead factor with the reference clamped to ≥ 1.
fn factor(measured: u64, reference: u64) -> f64 {
    measured as f64 / reference.max(1) as f64
}

/// One engine-layer measurement: ack/retry dissemination of `k` tokens
/// (holders spread evenly over the id space) under `config`'s fault plan.
fn run_ack_flood(
    graph: &hybrid_graph::Graph,
    config: EngineConfig,
    k: usize,
    max_rounds: u64,
) -> RunReport {
    let n = graph.n();
    let mut exec = Executor::with_config(graph, config, |v| {
        let stride = (n / k).max(1) as u32;
        let initial = if v % stride == 0 && (v / stride) < k as u32 {
            vec![(v / stride) as u64]
        } else {
            vec![]
        };
        AckFloodProgram::new(initial, k, 2)
    });
    // A truncated run is a legitimate data point here (heavy-drop cells are
    // *expected* to miss the horizon), so use the bounded-window entry point
    // and record `completed` instead of treating the cap as an error.
    exec.run_capped(max_rounds, |ps| ps.iter().all(|p| p.done()))
}

/// Runs the fault sweep grid: `config.grid × config.profiles`.
///
/// Each `(family, n)` cell builds its graph and `NQ` oracle once, measures
/// the failure-free reference once, and then replays the identical workload
/// per profile.  Row order is family-major, then size, then profile —
/// identical for every pool width.
pub fn fault_sweep_rows(config: &FaultSweepConfig) -> Vec<FaultSweepRow> {
    let grid = &config.grid;
    grid.run(|cell| {
        let family = cell.family;
        let graph = Arc::new(family.build(cell.n_target, grid.seed(cell, 0)));
        let oracle = NqOracle::new(&graph);
        let n = graph.n();
        let params = ModelParams::hybrid(n);

        // The engine workload: 8 tokens on evenly spread holders — small
        // enough that heavy-drop cells stay fast, large enough that every
        // token crosses long stretches of the graph.
        let k = 8usize.min(n);
        let ack_base = run_ack_flood(&graph, EngineConfig::new(params), k, config.max_rounds);

        // The phase workload: the Theorem 1 pipeline with an n-token
        // load, same shape as the scaling sweep's dissemination column.
        let tokens = place_tokens(&(0..n as u32).collect::<Vec<_>>(), n as u64);
        let mut net = HybridNetwork::new(Arc::clone(&graph), params);
        let diss_base = k_dissemination(&mut net, &oracle, &tokens);
        let diss_base_msgs = diss_base.meter.global_messages();

        config
            .profiles
            .iter()
            .enumerate()
            .map(|(pi, profile)| {
                let plan = FaultPlan::new(profile.spec, grid.seed(cell, 1 + pi as u64), n);
                let net_config = EngineConfig::new(params).with_fault_plan(plan);

                let ack = run_ack_flood(&graph, net_config.clone(), k, config.max_rounds);
                let mut net = HybridNetwork::with_config(Arc::clone(&graph), &net_config);
                let diss = k_dissemination(&mut net, &oracle, &tokens);
                let diss_faults = diss.meter.faults();

                FaultSweepRow {
                    family: family.name(),
                    n,
                    profile: profile.name,
                    drop_prob: profile.spec.drop_prob,
                    duplicate_prob: profile.spec.duplicate_prob,
                    delay_prob: profile.spec.delay_prob,
                    crash_prob: profile.spec.crash_prob,
                    k: k as u64,
                    ack_rounds: ack.rounds,
                    ack_baseline_rounds: ack_base.rounds,
                    ack_degradation: factor(ack.rounds, ack_base.rounds),
                    ack_message_overhead: factor(ack.local_messages, ack_base.local_messages),
                    ack_completed: ack.completed,
                    ack_injected_drops: ack.injected_drops,
                    ack_injected_duplicates: ack.injected_duplicates,
                    ack_injected_delays: ack.injected_delays,
                    diss_rounds: diss.rounds,
                    diss_baseline_rounds: diss_base.rounds,
                    diss_degradation: factor(diss.rounds, diss_base.rounds),
                    diss_message_overhead: factor(diss.meter.global_messages(), diss_base_msgs),
                    diss_dropped: diss_faults.dropped,
                    diss_duplicated: diss_faults.duplicated,
                    diss_delayed: diss_faults.delayed,
                }
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(families: &[GraphFamily]) -> FaultSweepConfig {
        FaultSweepConfig {
            grid: Grid::new(families, &[48], 0xFA17),
            profiles: vec![NONE, drop_profile("drop-35", 35), CHAOS],
            max_rounds: 50_000,
        }
    }

    #[test]
    fn grid_covers_every_family_size_and_profile() {
        let families = [
            GraphFamily::Path,
            GraphFamily::Grid2D,
            GraphFamily::ErdosRenyi,
        ];
        let config = tiny_config(&families);
        let rows = fault_sweep_rows(&config);
        assert_eq!(rows.len(), families.len() * config.profiles.len());
        for r in &rows {
            assert!(r.ack_completed, "{} {} must complete", r.family, r.profile);
            assert!(r.ack_degradation >= 1.0 || r.profile == "none");
            assert!(r.diss_degradation >= 1.0 || r.profile == "none");
        }
    }

    #[test]
    fn none_profile_is_the_reference() {
        let rows = fault_sweep_rows(&tiny_config(&[GraphFamily::BinaryTree]));
        let none = rows.iter().find(|r| r.profile == "none").unwrap();
        assert_eq!(none.ack_rounds, none.ack_baseline_rounds);
        assert_eq!(none.diss_rounds, none.diss_baseline_rounds);
        assert_eq!(none.ack_degradation, 1.0);
        assert_eq!(none.diss_degradation, 1.0);
        assert_eq!(none.ack_injected_drops, 0);
        assert_eq!(none.diss_dropped, 0);
    }

    #[test]
    fn heavier_drops_degrade_more() {
        let config = FaultSweepConfig {
            grid: Grid::new(&[GraphFamily::Path], &[64], 1),
            profiles: vec![drop_profile("drop-15", 15), drop_profile("drop-55", 55)],
            max_rounds: 50_000,
        };
        let rows = fault_sweep_rows(&config);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].ack_degradation > rows[0].ack_degradation,
            "55% loss ({}) should cost more than 15% loss ({})",
            rows[1].ack_degradation,
            rows[0].ack_degradation
        );
        assert!(rows[0].ack_injected_drops > 0);
        assert!(rows[1].diss_dropped > rows[0].diss_dropped);
    }
}
