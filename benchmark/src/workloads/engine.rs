//! `engine` — per-node message passing.
//!
//! Four in-process scenarios on 1024 nodes: ack/retry flooding failure-free
//! and under the fault sweep's `chaos` adversary, deterministic forwarding
//! (local plane) and randomized gossip (γ-capped global plane).  This is the
//! staging / sort / mailbox code of `engine.rs` and the `faults` plane.

use hybrid_bench::sweep::cell_seed;
use hybrid_bench::FaultSweepConfig;
use hybrid_core::prob::sample_distinct;
use hybrid_node::scenario::{run_in_process, EngineOutcome, GraphSpec, ProgramSpec, Scenario};
use hybrid_sim::{EngineConfig, FaultPlan, ModelParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

use super::{outside_pass, per_pass_s, rate, Context, Instance};
use crate::alloc;
use crate::report::{Check, Metric, PassOutcome};
use crate::spans::Recorder;

/// Node count of every scenario.
pub const N: usize = 1024;
/// Tokens disseminated per scenario.
const TOKENS: usize = 64;
/// Round cap; the ack/retry guarantee needs a generous one under `chaos`.
const MAX_ROUNDS: u64 = 50_000;

struct Named {
    name: &'static str,
    scenario: Scenario,
    /// The same scenario run once with trace recording on, in set-up.
    reference: EngineOutcome,
}

struct Engine {
    scenarios: Vec<Named>,
}

/// `TOKENS` tokens on distinct seeded holders.
fn spread_tokens(seed: u64, salt: u64) -> Vec<(u32, Vec<u64>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(seed, 0, N, salt));
    sample_distinct(N, TOKENS, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(token, holder)| (holder, vec![token as u64]))
        .collect()
}

/// Counts one scenario run: completed, and every node's final state holds
/// `want` known tokens.
pub(crate) fn check_outcome(
    check: &mut Check,
    name: &str,
    completed: bool,
    states: &[Value],
    want: usize,
) {
    let all_know = states.iter().all(|state| {
        state
            .get("known")
            .and_then(Value::as_array)
            .is_some_and(|known| known.len() == want)
    });
    check.expect(completed && all_know, || {
        format!("{name}: completed={completed} or a node misses tokens")
    });
}

/// Set-up: the four scenarios, the `chaos` fault plan and one traced
/// reference run of each.
pub fn build(seed: u64, _ctx: &Context, rec: &mut Recorder) -> Box<dyn Instance> {
    let span = rec.begin("scenario", "construct", "");
    let grid = GraphSpec::Grid { rows: 32, cols: 32 };
    let config = || {
        EngineConfig::new(ModelParams::hybrid(N))
            .with_seed(seed)
            .with_max_rounds(MAX_ROUNDS)
    };
    let chaos = FaultSweepConfig::quick()
        .profiles
        .into_iter()
        .find(|p| p.name == "chaos")
        .expect("the fault sweep defines a chaos profile")
        .spec;
    let ack_flood = || ProgramSpec::AckFlood {
        tokens_at: spread_tokens(seed, 1),
        target_tokens: TOKENS,
        retry_interval: 2,
    };
    let plans = [
        (
            "ack-flood",
            Scenario::new(grid.clone(), ack_flood()).with_config(config()),
        ),
        (
            "ack-flood-chaos",
            Scenario::new(grid.clone(), ack_flood()).with_config(
                config().with_fault_plan(FaultPlan::new(chaos, cell_seed(seed, 0, N, 2), N)),
            ),
        ),
        (
            "det-forward",
            Scenario::new(
                grid,
                ProgramSpec::DetForward {
                    tokens_at: spread_tokens(seed, 3),
                    target_tokens: TOKENS,
                },
            )
            .with_config(config()),
        ),
        (
            "gossip",
            Scenario::new(
                GraphSpec::Cycle { n: N },
                ProgramSpec::Gossip {
                    tokens_at: spread_tokens(seed, 4),
                    target_tokens: TOKENS,
                },
            )
            .with_config(config()),
        ),
    ];
    rec.end(span, plans.len() as u64);

    // One reference run per scenario with trace recording on: every timed
    // pass (recording off) must reproduce its report and final states.
    let scenarios = plans
        .into_iter()
        .map(|(name, scenario)| {
            let traced = Scenario {
                config: scenario.config.clone().with_trace(true),
                ..scenario.clone()
            };
            let span = rec.begin("scenario", "run_in_process", name);
            let mut reference = run_in_process(&traced).expect("reference run completes");
            rec.end(span, reference.report.rounds);
            // Only the report and the final states are compared.
            reference.trace = Vec::new();
            Named {
                name,
                scenario,
                reference,
            }
        })
        .collect();
    Box::new(Engine { scenarios })
}

impl Instance for Engine {
    fn pass(&mut self, rec: &mut Recorder) -> PassOutcome {
        let mut out = PassOutcome::default();
        let (mut rounds, mut messages) = (0u64, 0u64);
        let (mut dropped, mut refused) = (0u64, 0u64);
        let (mut drops, mut duplicates, mut delays) = (0u64, 0u64, 0u64);
        for named in &self.scenarios {
            let span = rec.begin("engine", named.name, "");
            let result = run_in_process(&named.scenario);
            let Ok(outcome) = result else {
                rec.end(span, 0);
                out.check.expect_ok(named.name, result);
                continue;
            };
            let report = &outcome.report;
            rec.end(span, report.local_messages + report.global_messages);
            check_outcome(
                &mut out.check,
                named.name,
                report.completed,
                &outcome.states,
                TOKENS,
            );
            out.check.expect(
                outcome.report == named.reference.report
                    && outcome.states == named.reference.states,
                || format!("{}: differs from the traced reference run", named.name),
            );
            rounds += report.rounds;
            messages += report.local_messages + report.global_messages;
            dropped += report.dropped_global;
            refused += report.refused_sends;
            drops += report.injected_drops;
            duplicates += report.injected_duplicates;
            delays += report.injected_delays;
        }
        out.model.sim_rounds = Some(rounds);
        out.model.msgs_per_token = Some(messages as f64 / (TOKENS * self.scenarios.len()) as f64);
        out.counter("engine.dropped_global", dropped as f64);
        out.counter("engine.refused_sends", refused as f64);
        out.counter("faults.injected_drops", drops as f64);
        out.counter("faults.injected_duplicates", duplicates as f64);
        out.counter("faults.injected_delays", delays as f64);
        out
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, traced_passes: u32) -> Vec<Metric> {
        // Probe: allocator calls per delivered message over one more pass.
        let before = alloc::calls();
        let probe = self.pass(&mut Recorder::new(false));
        let allocs = alloc::calls() - before;
        let rounds = probe.model.sim_rounds.unwrap_or(0);

        let spans = rec.spans();
        // Engine spans carry the messages each run delivered.
        let messages = spans
            .iter()
            .filter(|s| s.pass > 0 && s.layer == "engine")
            .map(|s| s.items)
            .sum::<u64>()
            / u64::from(traced_passes);
        let mut metrics = Vec::new();
        let mut pass_s = 0.0;
        for named in &self.scenarios {
            let run_s = per_pass_s(spans, "engine", named.name, traced_passes);
            pass_s += run_s;
            metrics.push(Metric::new(
                format!("engine.run_s.{}", named.name),
                run_s,
                traced_passes as usize,
            ));
        }
        metrics.push(Metric::new(
            "engine.node_rounds_per_s",
            rate(rounds * N as u64, pass_s),
            traced_passes as usize,
        ));
        metrics.push(Metric::new(
            "engine.msgs_per_s",
            rate(messages, pass_s),
            traced_passes as usize,
        ));
        metrics.push(Metric::new(
            "engine.allocs_per_msg",
            allocs as f64 / messages as f64,
            1,
        ));
        metrics.push(Metric::new(
            "scenario.run_in_process_s",
            outside_pass(spans, "scenario", "run_in_process").0,
            1,
        ));
        metrics
    }
}
