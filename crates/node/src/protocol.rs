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
        /// Model parameters (whether the local plane exists, and γ); their
        /// `n` must equal the frame's `n`.
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
}
