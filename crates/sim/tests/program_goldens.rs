//! Golden pins for the shipped node programs.
//!
//! Every other equivalence check in the repository (`net_conformance`, the
//! `NodeRunner` test, the benchmark's traced reference) compares the current
//! code with the current code.  This file compares it with *recorded*
//! behaviour: each case runs one program on a small pinned scenario with trace
//! recording on and asserts the full [`RunReport`], an FNV-1a digest of every
//! delivered message `(round, plane, src, dst, body)` and a digest of every
//! node's final state against constants.
//!
//! The constants were printed by this very file at commit 69d2be9 — before
//! the programs read their inboxes in place and kept per-neighbour state
//! incrementally, and before the router scattered instead of sorting.  A
//! change that moves one of them changed what some node sends, in which
//! order, or what the router delivers; re-record only with a stated reason.
//! On a mismatch the failure message is the full table in source form.

use hybrid_graph::{generators, Fnv1a64, Graph, NodeId};
use hybrid_sim::engine::{Executor, NodeProgram, RunReport};
use hybrid_sim::programs::{
    AckFloodProgram, BfsProgram, DetForwardProgram, FloodProgram, TokenGossipProgram,
};
use hybrid_sim::{
    EngineConfig, EngineError, FaultPlan, FaultSpec, ModelParams, RoundTrace, TokenSet,
};

const N: usize = 30;
/// Eight tokens whose numeric order is unrelated to their holders' order, so
/// a late smaller token really does overtake larger owed ones.
const TOKENS: [u64; 8] = [5, 42, 79, 15, 52, 89, 25, 62];

fn trace_digest(trace: &[RoundTrace]) -> u64 {
    let mut d = Fnv1a64::new();
    for round in trace {
        for (plane, entries) in [(0u8, &round.local), (1u8, &round.global)] {
            for e in entries {
                d.write(&round.round.to_le_bytes());
                d.write(&[plane]);
                d.write(&e.src.to_le_bytes());
                d.write(&e.dst.to_le_bytes());
                d.write(e.body.as_bytes());
                d.write(&[0xFF]);
            }
        }
    }
    d.finish()
}

/// Digest of per-node `u64` rows (length-prefixed, so row boundaries count).
fn rows_digest(rows: &[Vec<u64>]) -> u64 {
    let mut d = Fnv1a64::new();
    for row in rows {
        d.write_u64(row.len() as u64);
        for &x in row {
            d.write_u64(x);
        }
    }
    d.finish()
}

#[derive(Debug, PartialEq)]
struct Golden {
    name: String,
    report: RunReport,
    trace: u64,
    states: u64,
}

#[allow(clippy::too_many_arguments)]
fn g(
    name: &str,
    rounds: u64,
    local_messages: u64,
    global_messages: u64,
    dropped_global: u64,
    refused_sends: u64,
    injected: [u64; 3],
    completed: bool,
    trace: u64,
    states: u64,
) -> Golden {
    Golden {
        name: name.to_string(),
        report: RunReport {
            rounds,
            local_messages,
            global_messages,
            dropped_global,
            refused_sends,
            injected_drops: injected[0],
            injected_duplicates: injected[1],
            injected_delays: injected[2],
            completed,
        },
        trace,
        states,
    }
}

fn source_line(x: &Golden) -> String {
    let r = &x.report;
    format!(
        "        g({:?}, {}, {}, {}, {}, {}, [{}, {}, {}], {}, {:#018X}, {:#018X}),",
        x.name,
        r.rounds,
        r.local_messages,
        r.global_messages,
        r.dropped_global,
        r.refused_sends,
        r.injected_drops,
        r.injected_duplicates,
        r.injected_delays,
        r.completed,
        x.trace,
        x.states
    )
}

/// Token `i` on node `(11 i + 2) mod 30` (eight distinct holders), or every
/// token on node 7.
fn initial(spread: bool, v: NodeId) -> Vec<u64> {
    if spread {
        TOKENS
            .iter()
            .enumerate()
            .filter(|(i, _)| (i * 11 + 2) % N == v as usize)
            .map(|(_, &t)| t)
            .collect()
    } else if v == 7 {
        TOKENS.to_vec()
    } else {
        Vec::new()
    }
}

/// Runs one case to completion (or to the configured round cap — the report
/// says which) and digests it.  `state` is one row per node.
fn run_case<P: NodeProgram>(
    name: String,
    graph: &Graph,
    config: EngineConfig,
    factory: impl FnMut(NodeId) -> P,
    state: impl Fn(&P) -> Vec<u64>,
) -> (Golden, Vec<Vec<u64>>) {
    let mut exec = Executor::with_config(graph, config.with_trace(true), factory);
    let report = exec
        .run()
        .unwrap_or_else(|EngineError::RoundLimitExceeded { report, .. }| report);
    let trace = exec.take_trace();
    let rows: Vec<Vec<u64>> = exec.programs().iter().map(state).collect();
    let golden = Golden {
        name,
        report,
        trace: trace_digest(&trace),
        states: rows_digest(&rows),
    };
    (golden, rows)
}

fn known(set: &TokenSet) -> Vec<u64> {
    set.to_vec()
}

/// The adversary of `ack_flood_survives_the_combined_adversary`.
fn combined_adversary() -> FaultPlan {
    let spec = FaultSpec {
        drop_prob: 0.3,
        duplicate_prob: 0.1,
        delay_prob: 0.1,
        max_delay_rounds: 3,
        crash_prob: 0.4,
        crash_down_rounds: 6,
        crash_horizon_rounds: 12,
        partition_start: 4,
        partition_rounds: 8,
    };
    FaultPlan::new(spec, 4, N)
}

fn all_cases() -> Vec<Golden> {
    let graphs = [
        ("grid6x5", generators::grid(&[6, 5]).unwrap()),
        ("cycle30", generators::cycle(N).unwrap()),
    ];
    let k = TOKENS.len();
    let mut everything = TOKENS.to_vec();
    everything.sort_unstable();
    let mut out = Vec::new();
    // Every node of a completed dissemination holds every token.
    let mut complete = |(golden, rows): (Golden, Vec<Vec<u64>>)| {
        assert!(golden.report.completed, "{} did not complete", golden.name);
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(row[..k], everything[..], "{}: node {v}", golden.name);
        }
        out.push(golden);
    };
    for (gname, graph) in &graphs {
        let hybrid = || EngineConfig::new(ModelParams::hybrid(N)).with_max_rounds(5_000);
        for (pname, spread) in [("spread", true), ("single", false)] {
            let case = |program: &str| format!("{program}/{gname}/{pname}");
            complete(run_case(
                case("flood"),
                graph,
                hybrid(),
                |v| FloodProgram::new(initial(spread, v), 64),
                |p| known(&p.known),
            ));
            complete(run_case(
                case("ack-flood"),
                graph,
                hybrid(),
                |v| AckFloodProgram::new(initial(spread, v), k, 2),
                |p| {
                    let mut row = known(&p.known);
                    row.push(p.pending() as u64);
                    row
                },
            ));
            complete(run_case(
                case("det-forward"),
                graph,
                hybrid(),
                |v| DetForwardProgram::new(initial(spread, v), k),
                |p| known(&p.known),
            ));
            // γ = 2: the receive cap drops gossip pushes, the send cap never
            // binds (the program asks for its budget).
            let capped = EngineConfig::new(ModelParams::hybrid_with_global_capacity(N, 2))
                .with_max_rounds(5_000);
            complete(run_case(
                case("gossip-gamma2"),
                graph,
                capped,
                |v| TokenGossipProgram::new(v, N, initial(spread, v), k, 7),
                |p| known(&p.known),
            ));
        }
        complete(run_case(
            format!("ack-flood-adversary/{gname}/spread"),
            graph,
            hybrid()
                .with_max_rounds(10_000)
                .with_fault_plan(combined_adversary()),
            |v| AckFloodProgram::new(initial(true, v), k, 2),
            |p| {
                let mut row = known(&p.known);
                row.push(p.pending() as u64);
                row
            },
        ));
    }
    for (gname, graph) in &graphs {
        // A flood that runs out of budget: per-node sets differ, the digest
        // pins each of them.
        let (golden, _) = run_case(
            format!("flood-budget3/{gname}/spread"),
            graph,
            EngineConfig::new(ModelParams::hybrid(N)).with_max_rounds(6),
            |v| FloodProgram::new(initial(true, v), 3),
            |p| known(&p.known),
        );
        out.push(golden);
        for source in [0, 17] {
            let (golden, rows) = run_case(
                format!("bfs/{gname}/source{source}"),
                graph,
                EngineConfig::new(ModelParams::hybrid(N)),
                |v| BfsProgram::new(v, source),
                |p| vec![p.dist.unwrap_or(u64::MAX)],
            );
            let reference = hybrid_graph::dijkstra::dijkstra(graph, source);
            for (v, row) in rows.iter().enumerate() {
                assert_eq!(row[0], reference.dist[v], "{}: node {v}", golden.name);
            }
            out.push(golden);
        }
    }
    out
}

#[test]
fn shipped_programs_reproduce_the_recorded_runs() {
    #[rustfmt::skip]
    let recorded = vec![
        g("flood/grid6x5/spread", 10, 520, 0, 0, 0, [0, 0, 0], true, 0x189E8041D9487C94, 0x5DA044148C973205),
        g("ack-flood/grid6x5/spread", 9, 998, 0, 0, 0, [0, 0, 0], true, 0x619D6F21AACB2596, 0x37EC37758F4B0725),
        g("det-forward/grid6x5/spread", 13, 784, 0, 0, 0, [0, 0, 0], true, 0x49A6E12768D91255, 0x5DA044148C973205),
        g("gossip-gamma2/grid6x5/spread", 6, 348, 226, 75, 0, [0, 0, 0], true, 0x2A08ACC4FF168A5C, 0x5DA044148C973205),
        g("flood/grid6x5/single", 8, 98, 0, 0, 0, [0, 0, 0], true, 0x6A40B2A1402BF652, 0x5DA044148C973205),
        g("ack-flood/grid6x5/single", 7, 203, 0, 0, 0, [0, 0, 0], true, 0x7CDB4878DDE043A0, 0x6F4B011C83F27AAD),
        g("det-forward/grid6x5/single", 14, 784, 0, 0, 0, [0, 0, 0], true, 0xB1DB5200271F43A9, 0x5DA044148C973205),
        g("gossip-gamma2/grid6x5/single", 7, 212, 238, 57, 0, [0, 0, 0], true, 0xF39A657CCB3DA4BD, 0x5DA044148C973205),
        g("ack-flood-adversary/grid6x5/spread", 19, 660, 0, 0, 0, [547, 98, 90], true, 0x4B02C98659751730, 0x12E7E7E97C4B9E2D),
        g("flood/cycle30/spread", 16, 432, 0, 0, 0, [0, 0, 0], true, 0xDD00D939558E2AC1, 0x5DA044148C973205),
        g("ack-flood/cycle30/spread", 15, 712, 0, 0, 0, [0, 0, 0], true, 0x2D27FA3F5A39862B, 0xCC4003520DE0B7A5),
        g("det-forward/cycle30/spread", 18, 480, 0, 0, 0, [0, 0, 0], true, 0x1186897B62664A83, 0x5DA044148C973205),
        g("gossip-gamma2/cycle30/spread", 8, 268, 314, 101, 0, [0, 0, 0], true, 0x502BAC97B7C11F0B, 0x5DA044148C973205),
        g("flood/cycle30/single", 16, 60, 0, 0, 0, [0, 0, 0], true, 0x9EE7CEF43585CA29, 0x5DA044148C973205),
        g("ack-flood/cycle30/single", 15, 89, 0, 0, 0, [0, 0, 0], true, 0x353BA30E7AB63976, 0x1E211CA6F43486AD),
        g("det-forward/cycle30/single", 22, 480, 0, 0, 0, [0, 0, 0], true, 0xD8C3B09776D8624D, 0x5DA044148C973205),
        g("gossip-gamma2/cycle30/single", 9, 210, 302, 84, 0, [0, 0, 0], true, 0x5694891E8324755E, 0x5DA044148C973205),
        g("ack-flood-adversary/cycle30/spread", 45, 653, 0, 0, 0, [335, 93, 90], true, 0xBDA1FAAF564B2ED2, 0x2C0766BF7699AB84),
        g("flood-budget3/grid6x5/spread", 4, 189, 0, 0, 0, [0, 0, 0], true, 0x54EA794D438A385B, 0x20BAD504277A50FC),
        g("bfs/grid6x5/source0", 9, 98, 0, 0, 0, [0, 0, 0], true, 0xC21B5993071D6BF3, 0xA651AD0EE89B93C8),
        g("bfs/grid6x5/source17", 7, 98, 0, 0, 0, [0, 0, 0], true, 0x0EC2EB4EF4F0B555, 0x4251E60D1BEC3744),
        g("flood-budget3/cycle30/spread", 4, 80, 0, 0, 0, [0, 0, 0], true, 0xF04C8CF7BB699DE1, 0x9033E7217AF08C80),
        g("bfs/cycle30/source0", 15, 60, 0, 0, 0, [0, 0, 0], true, 0x24D77B111C4F7F25, 0xA8E190255798E48A),
        g("bfs/cycle30/source17", 15, 60, 0, 0, 0, [0, 0, 0], true, 0x8E30BD6A14A76AF1, 0xC0826D27503FE50A),
    ];
    let actual = all_cases();
    assert!(
        actual == recorded,
        "behaviour drifted from the recorded runs; the table now reads:\n{}",
        actual
            .iter()
            .map(source_line)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
