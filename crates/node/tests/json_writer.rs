//! The streaming JSON writer against the tree writer.
//!
//! `serde_json::to_string` streams a value's text through its `Serialize`
//! impl; `to_value` builds the `Value` tree that text must equal.  Every
//! trace body, wire frame and `reproduce` artifact goes through the first
//! path, so each shape they use is held here to render, compact and pretty,
//! exactly as its tree does: message bodies, token batches inline and
//! spilled, envelopes around arbitrary trees, every frame variant, round
//! traces, and a row of each artifact — with non-finite and integral floats,
//! strings that need escaping, `None`, and empty arrays and objects.

use hybrid_bench::faults_sweep::{fault_sweep_rows, FaultSweepConfig};
use hybrid_bench::grid::{GraphFamily, Grid};
use hybrid_bench::oracle_bench::{oracle_bench_rows, OracleBenchConfig};
use hybrid_bench::scale::{scale_rows, ScaleConfig};
use hybrid_bench::scenarios::{
    appendix_b_rows, figure1_rows, table1_rows, table2_rows, table3_rows, table4_rows,
};
use hybrid_bench::sweep::{sweep_rows, SweepConfig, SweepRow};
use hybrid_node::protocol::{FromNode, ToNode};
use hybrid_node::ProgramSpec;
use hybrid_sim::programs::AckFloodMsg;
use hybrid_sim::{Envelope, ModelParams, RoundTrace, TokenBatch, TraceEntry};
use proptest::prelude::*;
use serde::{Serialize, Value};

/// The typed text of `x` equals its tree's, compact and pretty.
fn same_text<T: Serialize + ?Sized>(x: &T) -> Result<(), TestCaseError> {
    let tree = x.to_value();
    let typed = serde_json::to_string(x).unwrap();
    prop_assert!(
        typed == serde_json::to_string(&tree).unwrap(),
        "compact text differs from the tree's: {typed}"
    );
    let typed = serde_json::to_string_pretty(x).unwrap();
    prop_assert!(
        typed == serde_json::to_string_pretty(&tree).unwrap(),
        "pretty text differs from the tree's: {typed}"
    );
    Ok(())
}

/// Characters a string is spelled from: plain, JSON-escaped, control and
/// multi-byte.
const CHARS: [char; 12] = [
    'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '😀',
];

fn text(picks: &[u64]) -> String {
    picks
        .iter()
        .map(|&p| CHARS[p as usize % CHARS.len()])
        .collect()
}

/// A float drawn from `x`'s bits: integral, fractional, huge, tiny,
/// negative zero, infinite or NaN.
fn float(x: u64) -> f64 {
    match x % 4 {
        0 => (x >> 2) as f64,
        1 => -((x >> 2) as f64) / 7.0,
        _ => f64::from_bits(x),
    }
}

/// A JSON tree spelled from `words`, at most `depth` containers deep:
/// every kind of leaf, and arrays and objects that may be empty.
fn tree(words: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
    let Some(w) = words.next() else {
        return Value::Object(Vec::new());
    };
    let len = (w >> 8) as usize % 4;
    match w % 9 {
        0 => Value::Null,
        1 => Value::Bool(w & 256 != 0),
        2 => Value::UInt(w >> 4),
        3 => Value::Int(-((w >> 4) as i64)),
        4 => Value::Float(float(w >> 4)),
        5 => Value::Str(text(&[w >> 4, w >> 12, w >> 20][..len.min(3)])),
        6 if depth > 0 => Value::Array((0..len).map(|_| tree(words, depth - 1)).collect()),
        7 if depth > 0 => Value::Object(
            (0..len)
                .map(|i| (text(&[w >> (4 * i + 12)]), tree(words, depth - 1)))
                .collect(),
        ),
        _ => Value::Array(Vec::new()),
    }
}

fn envelopes(words: &[u64]) -> Vec<Envelope<Value>> {
    words
        .chunks(4)
        .map(|chunk| Envelope {
            src: chunk[0] as u32,
            dst: (chunk[0] >> 32) as u32,
            round: chunk[0] >> 3,
            body: tree(&mut chunk[1..].iter().copied(), 3),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trace_bodies_and_frames_render_as_their_trees(
        tokens in prop::collection::vec(any::<u64>(), 0..20),
        words in prop::collection::vec(any::<u64>(), 0..24),
        pick in any::<u64>(),
    ) {
        // Message bodies: a batch inline (up to 6 tokens) or spilled.
        let batch = TokenBatch::from_slice(&tokens);
        same_text(&batch)?;
        same_text(&AckFloodMsg::Tokens(batch.clone()))?;
        same_text(&AckFloodMsg::Ack(batch))?;
        same_text(&pick)?;
        same_text(&tokens)?;

        let envelopes = envelopes(&words);
        for envelope in &envelopes {
            same_text(envelope)?;
        }
        let ids: Vec<u32> = words.iter().map(|&w| w as u32).collect();
        let state = tree(&mut words.iter().copied(), 4);
        let frames_to = [
            ToNode::Init {
                node: pick as u32,
                n: ids.len(),
                neighbors: ids.clone(),
                params: ModelParams::hybrid_with_global_capacity(ids.len(), pick as usize % 9),
                seed: pick,
                program: ProgramSpec::AckFlood {
                    tokens_at: ids.iter().map(|&v| (v, tokens.clone())).collect(),
                    target_tokens: tokens.len(),
                    retry_interval: pick >> 60,
                },
            },
            ToNode::Init {
                node: 0,
                n: 1,
                neighbors: Vec::new(),
                params: ModelParams::hybrid(1),
                seed: 0,
                program: ProgramSpec::Bfs { source: pick as u32 },
            },
            ToNode::Round {
                round: pick,
                local: envelopes.clone(),
                global: Vec::new(),
            },
            ToNode::Halt,
        ];
        for frame in &frames_to {
            same_text(frame)?;
        }
        let frames_from = [
            FromNode::RoundOut {
                node: pick as u32,
                round: pick >> 1,
                local: Vec::new(),
                global: envelopes,
                refused: pick >> 7,
                done: pick & 1 == 1,
            },
            FromNode::Halted { node: 1, state },
        ];
        for frame in &frames_from {
            same_text(frame)?;
        }

        let entry = |i: usize| TraceEntry {
            src: i as u32,
            dst: pick as u32,
            body: text(&tokens[i..]),
        };
        same_text(&RoundTrace {
            round: pick,
            local: (0..tokens.len()).map(entry).collect(),
            global: Vec::new(),
        })?;
    }

    #[test]
    fn artifact_rows_with_edge_values_render_as_their_trees(
        floats in prop::collection::vec(any::<u64>(), 6..7),
        chars in prop::collection::vec(any::<u64>(), 0..12),
        exact in any::<u64>(),
        cells in 0usize..3,
    ) {
        let name: &'static str = Box::leak(text(&chars).into_boxed_str());
        let mut row = scale_row();
        row.family = name;
        row.nq_exact = (exact & 1 == 0).then_some(exact);
        row.nq_quantile = float(floats[0]);
        row.dissemination_modeled_ratio = float(floats[1]);
        row.kssp_stretch_worst = float(floats[2]);
        same_text(&row)?;

        let mut row = sweep_row();
        row.family = name;
        row.point = name;
        row.sssp_ratio = (exact & 2 == 0).then(|| float(floats[3]));
        row.dissemination.truncate(cells);
        row.kssp.truncate(cells);
        for cell in &mut row.dissemination {
            cell.algorithm = name;
            cell.ratio = (exact & 4 == 0).then(|| float(floats[4]));
        }
        for cell in &mut row.kssp {
            cell.reference = name;
            cell.stretch = float(floats[5]);
        }
        same_text(&row)?;
        same_text(&[row])?;
    }
}

fn scale_row() -> hybrid_bench::scale::ScaleRow {
    let config = ScaleConfig {
        grid: Grid::new(&[GraphFamily::Path], &[64], 1),
        sources: 2,
        nq_samples: 4,
        exact_crosscheck_max: 64,
    };
    scale_rows(&config).remove(0)
}

fn sweep_row() -> SweepRow {
    let config = SweepConfig {
        grid: Grid::new(&[GraphFamily::Path], &[32], 1),
        points: SweepConfig::quick().points[..1].to_vec(),
    };
    sweep_rows(&config).expect("a one-cell sweep").remove(0)
}

/// A row of every `reproduce` artifact, from tiny instances.
#[test]
fn every_artifact_renders_as_its_tree() {
    let path = |n: usize| Grid::new(&[GraphFamily::Path, GraphFamily::Grid2D], &[n], 3);
    let faults = FaultSweepConfig {
        grid: path(16),
        profiles: FaultSweepConfig::quick()
            .profiles
            .into_iter()
            .filter(|p| matches!(p.name, "none" | "chaos"))
            .collect(),
        max_rounds: 10_000,
    };
    let oracle = OracleBenchConfig {
        dims: (4, 4),
        max_weight: 8,
        batches: 2,
        batch_size: 8,
        seed: 5,
    };
    let check = |artifact: &str, outcome: Result<(), TestCaseError>| {
        if let Err(err) = outcome {
            panic!("{artifact}: {err:?}");
        }
    };
    check("table1", same_text(&table1_rows(&path(16), &[4, 8])));
    check("table2", same_text(&table2_rows(&path(16))));
    check("table3", same_text(&table3_rows(&path(16), &[4])));
    check("table4", same_text(&table4_rows(&path(16))));
    check("figure1", same_text(&figure1_rows(32, &[0.0, 0.5], 3)));
    check("appendix-b", same_text(&appendix_b_rows(64, &[16], 3)));
    check("sweep", same_text(&[sweep_row()]));
    check("faults", same_text(&fault_sweep_rows(&faults)));
    check("oracle", same_text(&oracle_bench_rows(&oracle)));
    check("scale", same_text(&[scale_row()]));
}
