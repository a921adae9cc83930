//! The wire protocol between `hybrid-driver` and its `hybrid-node` processes.
//!
//! Every message is one *frame*: a big-endian `u32` byte length followed by
//! that many bytes of compact JSON.  The JSON payload is one externally
//! tagged [`ToNode`] (driver → node) or [`FromNode`] (node → driver) value;
//! program payloads travel inside [`Envelope`]s whose `body` stays an
//! untyped [`Value`] tree until the node process binds it to its program's
//! message type.  The same framing works over any ordered byte stream —
//! the driver speaks it over child-process pipes and loopback TCP alike.
//!
//! Conversation shape (per node, hub-and-spoke through the driver):
//!
//! ```text
//! driver → node   Init { node, n, neighbors, params, seed, program }
//! node   → driver RoundOut { round: 0, … }            (the init pass)
//! driver → node   Round { round: 1, local, global }    (round barrier)
//! node   → driver RoundOut { round: 1, … }
//! …
//! driver → node   Halt
//! node   → driver Halted { state }
//! ```

use std::io::{self, Read, Write};

use hybrid_graph::NodeId;
use hybrid_sim::{Envelope, ModelParams};
use serde::{Deserialize, DeserializeOwned, Serialize, Value};

use crate::scenario::ProgramSpec;

/// Upper bound on a single frame's payload size; a length prefix above this
/// is treated as stream corruption rather than honoured with a giant
/// allocation.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Driver → node messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ToNode {
    /// First frame on every connection: who the node is and what it runs.
    Init {
        /// This node's identifier.
        node: NodeId,
        /// Total number of nodes in the network.
        n: usize,
        /// The node's neighbourhood in the local communication graph.
        neighbors: Vec<NodeId>,
        /// Model parameters (γ, the per-node global cap); their `n` must
        /// equal the frame's `n`.
        params: ModelParams,
        /// Scenario seed (randomized programs derive per-node streams).
        seed: u64,
        /// Which program the node instantiates.
        program: ProgramSpec,
    },
    /// Round barrier: the messages delivered to this node for `round`.
    Round {
        /// The round the node must now execute.
        round: u64,
        /// Delivered local-plane messages, in the engine's delivery order.
        local: Vec<Envelope<Value>>,
        /// Delivered global-plane messages (γ receive cap already applied).
        global: Vec<Envelope<Value>>,
    },
    /// The run is over; reply with [`FromNode::Halted`] and exit.
    Halt,
}

/// Node → driver messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FromNode {
    /// The outboxes produced by one program step.
    RoundOut {
        /// The responding node.
        node: NodeId,
        /// The round these outboxes belong to (0 = the init pass).
        round: u64,
        /// Outgoing local messages, in send order.
        local: Vec<Envelope<Value>>,
        /// Outgoing global messages, at most γ (send cap already enforced).
        global: Vec<Envelope<Value>>,
        /// Global sends refused by the γ send cap this step.
        refused: u64,
        /// Whether the program reports itself finished.
        done: bool,
    },
    /// Final state summary, sent in response to [`ToNode::Halt`].
    Halted {
        /// The responding node.
        node: NodeId,
        /// Program-defined state summary (used by the conformance diff).
        state: Value,
    },
}

/// Writes one length-prefixed JSON frame and flushes the stream (frames are
/// barrier messages — the peer is always waiting for them).
pub fn write_frame<T: Serialize>(writer: &mut impl Write, msg: &T) -> io::Result<()> {
    let text = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let bytes = text.as_bytes();
    let len = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame exceeds u32 length"))?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME_BYTES",
        ));
    }
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(bytes)?;
    writer.flush()
}

/// Reads one frame.  Returns `Ok(None)` on clean end-of-stream (the peer
/// closed between frames); end-of-stream in the *middle* of a frame is an
/// error, as is a length prefix above [`MAX_FRAME_BYTES`] or a payload that
/// is not valid JSON for `T`.
pub fn read_frame<T: DeserializeOwned>(reader: &mut impl Read) -> io::Result<Option<T>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match reader.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    let value = serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let msg = ToNode::Round {
            round: 3,
            local: vec![Envelope {
                src: 1,
                dst: 2,
                round: 2,
                body: Value::Array(vec![Value::UInt(7)]),
            }],
            global: vec![],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        write_frame(&mut buf, &ToNode::Halt).unwrap();

        let mut cursor = Cursor::new(buf);
        let first: ToNode = read_frame(&mut cursor).unwrap().expect("first frame");
        match first {
            ToNode::Round { round, local, .. } => {
                assert_eq!(round, 3);
                assert_eq!(local.len(), 1);
                assert_eq!(local[0].body, Value::Array(vec![Value::UInt(7)]));
            }
            other => panic!("wrong frame: {other:?}"),
        }
        let second: ToNode = read_frame(&mut cursor).unwrap().expect("second frame");
        assert!(matches!(second, ToNode::Halt));
        assert!(read_frame::<ToNode>(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_are_errors() {
        // Cut inside the length prefix.
        let mut cursor = Cursor::new(vec![0u8, 0]);
        assert!(read_frame::<ToNode>(&mut cursor).is_err());
        // Cut inside the payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, &ToNode::Halt).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = Cursor::new(buf);
        assert!(read_frame::<ToNode>(&mut cursor).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_an_error() {
        let mut cursor = Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert!(read_frame::<ToNode>(&mut cursor).is_err());
    }

    /// A frame nested 100 000 levels deep, far past the parser's limit of
    /// 128, is `InvalidData` in either direction: a lying child cannot
    /// overflow the driver's stack, nor a hostile driver a node's.
    #[test]
    fn deeply_nested_frames_are_refused() {
        let deep = "[".repeat(100_000);
        let raw = |text: String| {
            let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
            bytes.extend(text.as_bytes());
            Cursor::new(bytes)
        };
        let mut to_node = raw(format!("{{\"Round\":{{\"round\":1,\"local\":{deep}"));
        let err = read_frame::<ToNode>(&mut to_node).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let mut from_node = raw(format!("{{\"Halted\":{{\"node\":0,\"state\":{deep}"));
        let err = read_frame::<FromNode>(&mut from_node).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    /// A valid message of every shape, its numbers and ids drawn from `x`
    /// and `ids`, `pick` choosing the variant.
    fn messages(pick: usize, x: u64, ids: &[u32]) -> (ToNode, FromNode) {
        let envelopes: Vec<Envelope<Value>> = ids
            .iter()
            .map(|&id| Envelope {
                src: id,
                dst: id ^ 1,
                round: x,
                body: Value::Array(vec![
                    Value::UInt(x),
                    Value::Int(-(id as i64)),
                    Value::Str(format!("t{id} \"\\\n\u{e9}")),
                ]),
            })
            .collect();
        let to_node = match pick % 3 {
            0 => ToNode::Init {
                node: ids.first().copied().unwrap_or(0),
                n: ids.len(),
                neighbors: ids.to_vec(),
                params: ModelParams::hybrid_with_global_capacity(ids.len(), pick),
                seed: x,
                program: ProgramSpec::DetForward {
                    tokens_at: ids.iter().map(|&id| (id, vec![x, id as u64])).collect(),
                    target_tokens: ids.len(),
                },
            },
            1 => ToNode::Round {
                round: x,
                local: envelopes.clone(),
                global: envelopes.clone(),
            },
            _ => ToNode::Halt,
        };
        let from_node = match pick % 2 {
            0 => FromNode::RoundOut {
                node: ids.last().copied().unwrap_or(0),
                round: x,
                local: envelopes.clone(),
                global: envelopes,
                refused: x >> 7,
                done: x & 1 == 1,
            },
            _ => FromNode::Halted {
                node: pick as NodeId,
                state: Value::Object(vec![
                    ("known".into(), Value::UInt(x)),
                    ("ok".into(), Value::Bool(true)),
                ]),
            },
        };
        (to_node, from_node)
    }

    fn frame<T: Serialize>(msg: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        buf
    }

    /// Reads `bytes` as frames of both directions until the stream ends or
    /// a read fails.  A read that returns at all did not panic; each frame
    /// it yields consumes at least its prefix, so the loop ends.
    fn read_all(bytes: &[u8]) -> [io::Result<usize>; 2] {
        fn drain<T: DeserializeOwned>(bytes: &[u8]) -> io::Result<usize> {
            let mut cursor = Cursor::new(bytes);
            let mut frames = 0;
            while read_frame::<T>(&mut cursor)?.is_some() {
                frames += 1;
            }
            Ok(frames)
        }
        [drain::<ToNode>(bytes), drain::<FromNode>(bytes)]
    }

    // The codec under hostile input — arbitrary bytes, JSON-like payloads,
    // cut frames, an overwritten byte: every read returns `Ok(None)`, an
    // error or a value, never a panic, and a written frame reads back equal.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fuzz_frame_codec_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..257)) {
            for outcome in read_all(&bytes) {
                if bytes.is_empty() {
                    prop_assert_eq!(outcome.ok(), Some(0));
                }
            }
            // The same bytes behind a true length prefix reach the UTF-8
            // check and the JSON parser.
            let mut framed = (bytes.len() as u32).to_be_bytes().to_vec();
            framed.extend(&bytes);
            let _ = read_all(&framed);
        }

        #[test]
        fn fuzz_frame_codec_json_like_payloads(
            picks in prop::collection::vec(any::<usize>(), 0..257),
        ) {
            // Payloads spelled from JSON's punctuation and the protocol's own
            // words get past the parser's first byte far more often.
            const WORDS: [&str; 16] = [
                "{", "}", "[", "]", ":", ",", "\"", "\\u", "0", "-1", "1e9", "null",
                "\"Round\"", "\"Init\"", "\"RoundOut\"", "\"src\"",
            ];
            let text: String = picks.iter().map(|&i| WORDS[i % WORDS.len()]).collect();
            let mut framed = (text.len() as u32).to_be_bytes().to_vec();
            framed.extend(text.as_bytes());
            let _ = read_all(&framed);
        }

        #[test]
        fn fuzz_frame_codec_written_frames_read_back_equal(
            shape in (0usize..6, any::<u64>()),
            ids in prop::collection::vec(any::<u32>(), 0..5),
        ) {
            let (to_node, from_node) = messages(shape.0, shape.1, &ids);
            let to_bytes = frame(&to_node);
            let back: ToNode = read_frame(&mut Cursor::new(&to_bytes)).unwrap().unwrap();
            prop_assert_eq!(frame(&back), to_bytes);
            let from_bytes = frame(&from_node);
            let back: FromNode = read_frame(&mut Cursor::new(&from_bytes)).unwrap().unwrap();
            prop_assert_eq!(frame(&back), from_bytes);
        }

        #[test]
        fn fuzz_frame_codec_cut_frames(
            shape in (0usize..6, any::<u64>()),
            ids in prop::collection::vec(any::<u32>(), 0..5),
            cut in any::<usize>(),
        ) {
            let (to_node, from_node) = messages(shape.0, shape.1, &ids);
            for bytes in [frame(&to_node), frame(&from_node)] {
                let cut = &bytes[..cut % bytes.len()];
                for outcome in read_all(cut) {
                    match outcome {
                        Ok(frames) => prop_assert!(cut.is_empty() && frames == 0),
                        Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                    }
                }
            }
        }

        #[test]
        fn fuzz_frame_codec_one_byte_overwritten(
            shape in (0usize..6, any::<u64>()),
            ids in prop::collection::vec(any::<u32>(), 0..5),
            overwrite in (any::<usize>(), any::<u8>()),
        ) {
            let (to_node, from_node) = messages(shape.0, shape.1, &ids);
            let (at, byte) = overwrite;
            for mut bytes in [frame(&to_node), frame(&from_node)] {
                let at = at % bytes.len();
                bytes[at] = byte;
                let _ = read_all(&bytes);
            }
        }

        #[test]
        fn fuzz_frame_codec_oversized_length_prefix(
            len in (MAX_FRAME_BYTES as u64 + 1)..(u32::MAX as u64 + 1),
            tail in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut bytes = (len as u32).to_be_bytes().to_vec();
            bytes.extend(tail);
            for outcome in read_all(&bytes) {
                prop_assert_eq!(outcome.err().map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
            }
        }
    }
}
