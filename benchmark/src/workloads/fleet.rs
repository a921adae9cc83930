//! `fleet` — the shipped runtime.
//!
//! `driver::run_scenario` over eight real `hybrid-node` processes on stdio:
//! deterministic forwarding of 768 tokens (hundreds of rounds of tiny
//! frames, syscall-bound) and gossip of 4096 tokens (a handful of rounds of
//! megabyte frames, codec-bound), each diffed against the in-process
//! reference.  Fleet bring-up alone does not repeat within a tenth on a
//! shared box, so it is a layer metric and not `setup_s`.

use std::io::Cursor;
use std::path::PathBuf;

use hybrid_bench::sweep::cell_seed;
use hybrid_node::driver::{conformance_diff, run_scenario, Transport};
use hybrid_node::protocol::{read_frame, write_frame, FromNode, ToNode};
use hybrid_node::runtime::serve;
use hybrid_node::scenario::{run_in_process, EngineOutcome, GraphSpec, ProgramSpec, Scenario};
use hybrid_sim::{Envelope, TraceEntry};
use serde::Value;

use super::engine::check_outcome;
use super::{median_time, outside_pass, per_pass_s, rate, Context, Instance};
use crate::report::{Metric, PassOutcome};
use crate::spans::Recorder;

/// Node processes per fleet.
pub const N: usize = 8;
/// Tokens of the det-forward run: one small frame per node per round.
const SMALL_FRAME_TOKENS: usize = 768;
/// Tokens of the gossip run: a few rounds of megabyte frames.
const BIG_FRAME_TOKENS: usize = 4096;

struct Run {
    name: &'static str,
    tokens: usize,
    scenario: Scenario,
    reference: EngineOutcome,
}

struct Fleet {
    node_bin: PathBuf,
    runs: Vec<Run>,
}

/// Set-up: the scenarios and their in-process reference runs with traces —
/// what `hybrid-driver --conformance` pays before it spawns anything.
pub fn build(seed: u64, ctx: &Context, rec: &mut Recorder) -> Box<dyn Instance> {
    let node_bin = ctx
        .node_bin
        .clone()
        .expect("the fleet workload needs --node-bin <path to hybrid-node>");
    let holder = (cell_seed(seed, 0, N, 1) % N as u64) as u32;
    let tokens_at = |count: usize| vec![(holder, (0..count as u64).collect())];
    let plans = [
        (
            "det-forward",
            SMALL_FRAME_TOKENS,
            ProgramSpec::DetForward {
                tokens_at: tokens_at(SMALL_FRAME_TOKENS),
                target_tokens: SMALL_FRAME_TOKENS,
            },
        ),
        (
            "gossip",
            BIG_FRAME_TOKENS,
            ProgramSpec::Gossip {
                tokens_at: tokens_at(BIG_FRAME_TOKENS),
                target_tokens: BIG_FRAME_TOKENS,
            },
        ),
    ];
    let runs = plans
        .into_iter()
        .map(|(name, tokens, program)| {
            let span = rec.begin("scenario", "construct", name);
            let mut scenario = Scenario::new(GraphSpec::Cycle { n: N }, program);
            scenario.config = scenario.config.with_seed(seed);
            rec.end(span, 1);

            let span = rec.begin("scenario", "run_in_process", name);
            let reference = run_in_process(&scenario).expect("reference run completes");
            rec.end(span, reference.report.rounds);
            Run {
                name,
                tokens,
                scenario,
                reference,
            }
        })
        .collect();
    Box::new(Fleet { node_bin, runs })
}

fn envelope(entry: &TraceEntry, round: u64) -> Envelope<Value> {
    Envelope {
        src: entry.src,
        dst: entry.dst,
        round,
        body: serde_json::value_from_str(&entry.body).expect("trace bodies are JSON"),
    }
}

fn pick(
    entries: &[TraceEntry],
    round: u64,
    keep: impl Fn(&TraceEntry) -> bool,
) -> Vec<Envelope<Value>> {
    entries
        .iter()
        .filter(|e| keep(e))
        .map(|e| envelope(e, round))
        .collect()
}

/// The `Round` barrier frames the driver sent, rebuilt from the reference
/// trace: trace round `r` holds what programs see at the start of `r + 1`.
fn round_frames(run: &Run, only_node: Option<u32>) -> Vec<ToNode> {
    let nodes: Vec<u32> = only_node.map_or_else(|| (0..N as u32).collect(), |v| vec![v]);
    let rounds = run.reference.report.rounds as usize;
    run.reference
        .trace
        .iter()
        .take(rounds)
        .flat_map(|t| {
            nodes.iter().map(move |&v| ToNode::Round {
                round: t.round + 1,
                local: pick(&t.local, t.round, |e| e.dst == v),
                global: pick(&t.global, t.round, |e| e.dst == v),
            })
        })
        .collect()
}

/// The `RoundOut` frames the nodes answered with (delivered messages only).
fn round_out_frames(run: &Run) -> Vec<FromNode> {
    run.reference
        .trace
        .iter()
        .flat_map(|t| {
            (0..N as u32).map(move |v| FromNode::RoundOut {
                node: v,
                round: t.round,
                local: pick(&t.local, t.round, |e| e.src == v),
                global: pick(&t.global, t.round, |e| e.src == v),
                refused: 0,
                done: false,
            })
        })
        .collect()
}

fn encode<T: serde::Serialize>(frames: &[T]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        write_frame(&mut bytes, frame).expect("writing to memory");
    }
    bytes
}

fn decode_all<T: serde::DeserializeOwned>(bytes: &[u8]) -> Vec<T> {
    let mut cursor = Cursor::new(bytes);
    std::iter::from_fn(|| read_frame::<T>(&mut cursor).expect("own frames decode")).collect()
}

/// Replays node 0's recorded conversation through `runtime::serve` and
/// checks what it answers against the reference trace and final state.
fn serve_replay(run: &Run, input: &[u8]) -> bool {
    let mut output = Vec::new();
    if serve(Cursor::new(input), &mut output).is_err() {
        return false;
    }
    let answers: Vec<FromNode> = decode_all(&output);
    let sent: usize = answers
        .iter()
        .map(|a| match a {
            FromNode::RoundOut { local, .. } => local.len(),
            FromNode::Halted { .. } => 0,
        })
        .sum();
    let traced = run
        .reference
        .trace
        .iter()
        .flat_map(|t| &t.local)
        .filter(|e| e.src == 0)
        .count();
    let halted_as_recorded = matches!(
        answers.last(),
        Some(FromNode::Halted { node: 0, state }) if *state == run.reference.states[0]
    );
    sent == traced && halted_as_recorded
}

impl Instance for Fleet {
    fn pass(&mut self, rec: &mut Recorder) -> PassOutcome {
        let mut out = PassOutcome::default();
        let (mut rounds, mut messages, mut tokens) = (0u64, 0u64, 0usize);
        for run in &self.runs {
            let span = rec.begin("driver", run.name, "");
            let result = run_scenario(&run.scenario, Transport::Stdio, &self.node_bin);
            rec.end(span, run.reference.report.rounds);
            let Ok(net) = result else {
                out.check.expect_ok(run.name, result);
                continue;
            };
            let span = rec.begin("driver", "conformance_diff", run.name);
            let verdict = conformance_diff(&run.reference, &net);
            rec.end(span, net.trace.len() as u64);
            out.check.expect_ok(run.name, verdict);
            check_outcome(
                &mut out.check,
                run.name,
                net.report.completed,
                &net.states,
                run.tokens,
            );
            rounds += net.report.rounds;
            messages += net.report.local_messages + net.report.global_messages;
            tokens += run.tokens;
        }
        out.model.sim_rounds = Some(rounds);
        out.model.msgs_per_token = Some(messages as f64 / tokens as f64);
        out
    }

    fn layer_metrics(&mut self, rec: &mut Recorder, traced_passes: u32) -> Vec<Metric> {
        // Codec probes on the frames of both runs (small-frame and big-frame
        // sets together), rebuilt from the reference traces.
        let (mut to_node, mut from_node) = (Vec::new(), Vec::new());
        let mut rounds = 0u64;
        for run in &self.runs {
            to_node.extend(round_frames(run, None));
            from_node.extend(round_out_frames(run));
            rounds += run.reference.report.rounds;
        }
        let (to_bytes, from_bytes) = (encode(&to_node), encode(&from_node));
        let encode_s = median_time(3, || {
            std::hint::black_box((encode(&to_node), encode(&from_node)));
        });
        let decode_s = median_time(3, || {
            std::hint::black_box(decode_all::<ToNode>(&to_bytes));
            std::hint::black_box(decode_all::<FromNode>(&from_bytes));
        });

        // `runtime::serve` replay of node 0 in the small-frame run.
        let small = &self.runs[0];
        let graph = small.scenario.graph.build();
        let mut conversation = vec![ToNode::Init {
            node: 0,
            n: N,
            neighbors: graph.neighbors(0).collect(),
            params: *small.scenario.config.params(),
            seed: small.scenario.config.seed(),
            program: small.scenario.program.clone(),
        }];
        conversation.extend(round_frames(small, Some(0)));
        conversation.push(ToNode::Halt);
        let input = encode(&conversation);
        let span = rec.begin("runtime", "serve_replay", small.name);
        let replay_ok = serve_replay(small, &input);
        rec.end(span, conversation.len() as u64);
        assert!(replay_ok, "runtime::serve replay diverged from the trace");

        // Bring-up: a fleet that runs a single BFS round from a star's centre.
        let bfs = Scenario::new(GraphSpec::Star { n: N }, ProgramSpec::Bfs { source: 0 });
        let node_bin = self.node_bin.clone();
        let bringup_s = median_time(5, || {
            run_scenario(&bfs, Transport::Stdio, &node_bin).expect("bring-up fleet runs");
        });

        let spans = rec.spans();
        let long_s = per_pass_s(spans, "driver", small.name, traced_passes);
        let fleet_s: f64 = self
            .runs
            .iter()
            .map(|r| per_pass_s(spans, "driver", r.name, traced_passes))
            .sum();
        let in_process_s = outside_pass(spans, "scenario", "run_in_process").0;
        let frames = (to_node.len() + from_node.len()) as u64;
        vec![
            Metric::new("protocol.encode_s", encode_s, 3),
            Metric::new("protocol.decode_s", decode_s, 3),
            Metric::new(
                "protocol.bytes_per_round",
                (to_bytes.len() + from_bytes.len()) as f64 / rounds as f64,
                1,
            ),
            Metric::new(
                "protocol.frames_per_round",
                frames as f64 / rounds as f64,
                1,
            ),
            Metric::new(
                "runtime.serve_replay_s",
                outside_pass(spans, "runtime", "serve_replay").0,
                1,
            ),
            Metric::new("driver.bringup_s", bringup_s, 5),
            Metric::new(
                "driver.round_s",
                (long_s - bringup_s).max(0.0) / small.reference.report.rounds as f64,
                traced_passes as usize,
            ),
            Metric::new(
                "driver.node_rounds_per_s",
                rate(rounds * N as u64, fleet_s),
                traced_passes as usize,
            ),
            Metric::new("driver.over_inprocess_ratio", fleet_s / in_process_s, 1),
            Metric::new("scenario.run_in_process_s", in_process_s, 1),
        ]
    }
}
