//! Networked-vs-in-process conformance: the same scenario runs once on the
//! in-process `Executor` and once across real `hybrid-node` OS processes,
//! and the two outcomes must be *bit-identical* — same round count, same
//! run report, same per-round ordered delivered-message traces, same final
//! states.
//!
//! These tests spawn real child processes (via `CARGO_BIN_EXE_hybrid-node`)
//! and real loopback sockets; they are the acceptance gate for the
//! networked runtime.

use std::path::Path;

use hybrid_node::driver::{conformance_diff, run_scenario, DriverError, Transport};
use hybrid_node::scenario::{run_in_process, EngineOutcome, GraphSpec, ProgramSpec, Scenario};
use hybrid_sim::{EngineConfig, FaultPlan, FaultSpec, ModelParams};
use serde::Value;

fn node_bin() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_hybrid-node"))
}

/// Runs both sides and panics with the first divergence, if any.
fn assert_conformant(scenario: &Scenario, transport: Transport) -> (EngineOutcome, EngineOutcome) {
    let engine = run_in_process(scenario).expect("in-process run completes");
    let net = run_scenario(scenario, transport, node_bin()).expect("networked run completes");
    if let Err(diff) = conformance_diff(&engine, &net) {
        panic!("networked run diverged from the engine:\n{diff}");
    }
    (engine, net)
}

fn known_tokens(state: &Value) -> Vec<u64> {
    state
        .get("known")
        .and_then(Value::as_array)
        .expect("state has a known array")
        .iter()
        .map(|v| v.as_u64().expect("token"))
        .collect()
}

/// Pinned instance 1: flooding on a 12-node path over loopback TCP.
#[test]
fn flood_on_path_12_is_bit_identical_over_tcp() {
    let scenario = Scenario::new(
        GraphSpec::Path { n: 12 },
        ProgramSpec::Flood {
            tokens_at: vec![(0, vec![100, 101, 102, 103])],
            rounds_budget: 64,
        },
    );
    let (engine, net) = assert_conformant(&scenario, Transport::Tcp);
    assert!(net.report.completed);
    assert!(!net.trace.is_empty(), "trace recording was requested");
    assert_eq!(engine.states.len(), 12);
    for state in &net.states {
        assert_eq!(known_tokens(state), vec![100, 101, 102, 103]);
    }
}

/// Pinned instance 2: ack/retry flooding on a 16-node cycle — the largest
/// fleet in the suite, exercising retransmission state.
#[test]
fn ack_flood_on_cycle_16_is_bit_identical_over_tcp() {
    let scenario = Scenario::new(
        GraphSpec::Cycle { n: 16 },
        ProgramSpec::AckFlood {
            tokens_at: vec![(0, vec![7, 8, 9])],
            target_tokens: 3,
            retry_interval: 3,
        },
    );
    let (_, net) = assert_conformant(&scenario, Transport::Tcp);
    assert!(net.report.completed);
    for state in &net.states {
        assert_eq!(known_tokens(state), vec![7, 8, 9]);
    }
}

/// Pinned instance 3: deterministic smallest-token-first forwarding on a
/// 4×3 grid.
#[test]
fn det_forward_on_grid_4x3_is_bit_identical_over_tcp() {
    let scenario = Scenario::new(
        GraphSpec::Grid { rows: 4, cols: 3 },
        ProgramSpec::DetForward {
            tokens_at: vec![(0, vec![1, 2]), (11, vec![3])],
            target_tokens: 3,
        },
    );
    let (_, net) = assert_conformant(&scenario, Transport::Tcp);
    assert!(net.report.completed);
    for state in &net.states {
        assert_eq!(known_tokens(state), vec![1, 2, 3]);
    }
}

/// The global plane under pressure: randomized gossip with a small γ, so
/// the driver's receive-cap rule and the per-node RNG streams both have to
/// match the engine exactly.
#[test]
fn gossip_with_small_gamma_is_bit_identical_over_tcp() {
    let n = 10;
    let tokens_at: Vec<(u32, Vec<u64>)> = (0..6u64).map(|t| (t as u32, vec![t])).collect();
    let config = EngineConfig::new(ModelParams::hybrid_with_global_capacity(n, 2))
        .with_seed(42)
        .with_trace(true);
    let scenario = Scenario::new(
        GraphSpec::Cycle { n },
        ProgramSpec::Gossip {
            tokens_at,
            target_tokens: 6,
        },
    )
    .with_config(config);
    let (engine, net) = assert_conformant(&scenario, Transport::Tcp);
    assert!(net.report.completed);
    assert!(
        net.report.global_messages > 0,
        "gossip must exercise the global plane"
    );
    assert_eq!(engine.report.global_messages, net.report.global_messages);
}

/// The stdio transport leg: BFS on a star, frames over child pipes instead
/// of sockets — same conformance contract.
#[test]
fn bfs_on_star_9_is_bit_identical_over_stdio() {
    let scenario = Scenario::new(GraphSpec::Star { n: 9 }, ProgramSpec::Bfs { source: 0 });
    let (_, net) = assert_conformant(&scenario, Transport::Stdio);
    assert!(net.report.completed);
    assert_eq!(net.states[0].get("dist"), Some(&Value::UInt(0)));
    for state in &net.states[1..] {
        assert_eq!(state.get("dist"), Some(&Value::UInt(1)));
    }
}

/// Faults over the wire: ack/retry flooding on an 8-cycle under the fault
/// sweep's `chaos` adversary (drops, duplicates, delays, crash-restarts and
/// a partition window at once).  The driver has no injector of its own — the
/// shared router applies the plan — so report (injected counters included),
/// ordered traces and states must match the in-process run bit for bit.
#[test]
fn ack_flood_under_chaos_is_bit_identical_over_stdio() {
    let n = 8;
    let chaos = FaultSpec {
        drop_prob: 0.2,
        duplicate_prob: 0.1,
        delay_prob: 0.1,
        max_delay_rounds: 3,
        crash_prob: 0.3,
        crash_down_rounds: 6,
        crash_horizon_rounds: 12,
        partition_start: 3,
        partition_rounds: 6,
    };
    let config = EngineConfig::new(ModelParams::hybrid(n))
        .with_fault_plan(FaultPlan::new(chaos, 7, n))
        .with_trace(true);
    let scenario = Scenario::new(
        GraphSpec::Cycle { n },
        ProgramSpec::AckFlood {
            tokens_at: vec![(0, vec![7, 8, 9]), (5, vec![10])],
            target_tokens: 4,
            retry_interval: 2,
        },
    )
    .with_config(config);
    let (engine, net) = assert_conformant(&scenario, Transport::Stdio);
    assert!(net.report.completed);
    let r = &engine.report;
    assert!(
        r.injected_drops > 0 && r.injected_duplicates > 0 && r.injected_delays > 0,
        "the plan must exercise every message fate: {r:?}"
    );
    for state in &net.states {
        assert_eq!(known_tokens(state), vec![7, 8, 9, 10]);
    }
}

/// The skipped-barrier path alone: every node of a 6-path crashes at round 1
/// and sleeps four rounds, so the driver sends no `Round` frame at all for
/// rounds 1–4 and must carry each node's last `done` flag through them.
#[test]
fn crash_restart_is_bit_identical_over_stdio() {
    let n = 6;
    let crash_all = FaultSpec {
        crash_prob: 1.0,
        crash_down_rounds: 4,
        crash_horizon_rounds: 1,
        ..FaultSpec::none()
    };
    let config = EngineConfig::new(ModelParams::hybrid(n))
        .with_fault_plan(FaultPlan::new(crash_all, 1, n))
        .with_trace(true);
    let scenario = Scenario::new(
        GraphSpec::Path { n },
        ProgramSpec::AckFlood {
            tokens_at: vec![(0, vec![1, 2])],
            target_tokens: 2,
            retry_interval: 2,
        },
    )
    .with_config(config);
    let (_, net) = assert_conformant(&scenario, Transport::Stdio);
    assert!(net.report.completed);
    assert!(
        net.report.rounds > 4 + 5,
        "sleeping through the crash window must cost rounds (took {})",
        net.report.rounds
    );
    // What node 0 sent at init was addressed to a sleeping neighbour.
    assert!(net.report.injected_drops > 0);
    assert!(net.trace[..4].iter().all(|t| t.local.is_empty()));
    for state in &net.states {
        assert_eq!(known_tokens(state), vec![1, 2]);
    }
}

/// Truncation conformance: when the round cap is exhausted, the driver must
/// produce the *same typed error with the same partial report* as the
/// in-process engine.
#[test]
fn round_limit_error_is_bit_identical() {
    let n = 12;
    let config = EngineConfig::new(ModelParams::hybrid(n))
        .with_max_rounds(3)
        .with_trace(true);
    let scenario = Scenario::new(
        GraphSpec::Path { n },
        ProgramSpec::DetForward {
            tokens_at: vec![(0, vec![1, 2, 3, 4, 5, 6])],
            target_tokens: 6,
        },
    )
    .with_config(config);

    let engine_err = run_in_process(&scenario).expect_err("3 rounds cannot cross a 12-path");
    let net_err = run_scenario(&scenario, Transport::Tcp, node_bin())
        .expect_err("the driver must hit the same cap");
    match net_err {
        DriverError::Engine(e) => assert_eq!(e, engine_err),
        other => panic!("expected the engine's typed error, got: {other}"),
    }
}
