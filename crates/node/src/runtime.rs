//! The node side of the runtime: one process, one node, one
//! [`NodeRunner`].
//!
//! [`serve`] speaks the [`crate::protocol`] over any byte stream: it waits
//! for the `Init` frame, instantiates the program named by its
//! [`ProgramSpec`](crate::scenario::ProgramSpec), and then executes one
//! program step per `Round` frame until `Halt`.  The program runs against
//! the *genuine* engine `NodeCtx` (via [`NodeRunner`]), so the γ send cap
//! and the neighbour check on local sends behave identically to the
//! in-process executor by construction.
//!
//! Typed message bodies exist only inside this process: incoming
//! [`Envelope`]s carry untyped [`Value`] trees that are bound to the
//! program's `Msg` type here, and outgoing messages are converted back to
//! `Value` trees before they are framed.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

use hybrid_graph::NodeId;
use hybrid_sim::engine::{NodeProgram, NodeRunner, StepOutput};
use hybrid_sim::{Envelope, ModelParams};
use serde::{Deserialize, Serialize, Value};

use crate::protocol::{read_frame, write_frame, FromNode, ToNode};
use crate::scenario::ProgramVisitor;

fn bad_proto(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serves one node over the given byte streams until the driver sends
/// `Halt` or closes the connection.
///
/// # Errors
/// I/O errors from the streams, and `InvalidData` on protocol violations
/// (a frame other than `Init` first, an `Init` whose `params.n`, `node` or
/// `neighbors` disagree with its `n`, a second `Init`, or a message body
/// that does not deserialize to the program's message type).
pub fn serve(reader: impl Read, writer: impl Write) -> io::Result<()> {
    let mut reader = BufReader::new(reader);
    let writer = BufWriter::new(writer);
    let Some(first) = read_frame::<ToNode>(&mut reader)? else {
        // The driver vanished before Init; nothing to do.
        return Ok(());
    };
    let ToNode::Init {
        node,
        n,
        neighbors,
        params,
        seed,
        program,
    } = first
    else {
        return Err(bad_proto("first frame must be Init"));
    };
    // The program is built for `n` while the runner enforces `params`, set
    // for `params.n`: a frame that disagrees with itself builds neither.
    let disagreeing = if params.n != n {
        Some(format!("params.n = {}", params.n))
    } else if node as usize >= n {
        Some(format!("node {node}"))
    } else {
        let stray = neighbors.iter().find(|&&v| v as usize >= n);
        stray.map(|v| format!("neighbors: node {v}"))
    };
    if let Some(field) = disagreeing {
        return Err(bad_proto(format!("Init {field} disagrees with n = {n}")));
    }
    program.visit(
        n,
        seed,
        Serve {
            node,
            neighbors,
            params,
            reader,
            writer,
        },
    )
}

/// Everything [`serve`] knows before the program type is resolved.
struct Serve<R, W> {
    node: NodeId,
    neighbors: Vec<NodeId>,
    params: ModelParams,
    reader: R,
    writer: W,
}

impl<R: BufRead, W: Write> ProgramVisitor for Serve<R, W> {
    type Out = io::Result<()>;

    fn visit<P: NodeProgram>(
        mut self,
        mut factory: impl FnMut(NodeId) -> P,
        state: fn(&P) -> Value,
    ) -> io::Result<()> {
        let runner = NodeRunner::new(self.node, self.neighbors, &self.params, factory(self.node));
        run_node(runner, &mut self.reader, &mut self.writer, state)
    }
}

/// The generic serve loop: init step first (round 0), then one step per
/// `Round` barrier, then the `Halted` state summary on `Halt`.
fn run_node<P: NodeProgram>(
    mut runner: NodeRunner<P>,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    state: impl Fn(&P) -> Value,
) -> io::Result<()> {
    let node = runner.node();
    send_round_out(writer, node, 0, runner.init())?;
    // The two inboxes, rebound every round and reused.
    let mut local_inbox = Vec::new();
    let mut global_inbox = Vec::new();
    loop {
        match read_frame::<ToNode>(reader)? {
            // The driver hung up without Halt (e.g. it aborted on an error
            // elsewhere); exit quietly rather than crash-loop.
            None => return Ok(()),
            Some(ToNode::Round {
                round,
                local,
                global,
            }) => {
                bind_inbox::<P>(local, &mut local_inbox)?;
                bind_inbox::<P>(global, &mut global_inbox)?;
                let out = runner.step(round, &local_inbox, &global_inbox);
                send_round_out(writer, node, round, out)?;
            }
            Some(ToNode::Halt) => {
                let halted = FromNode::Halted {
                    node,
                    state: state(runner.program()),
                };
                return write_frame(writer, &halted);
            }
            Some(ToNode::Init { .. }) => return Err(bad_proto("duplicate Init frame")),
        }
    }
}

/// Binds a delivered envelope batch to the program's message type,
/// preserving the driver's delivery order; `inbox` is overwritten.
fn bind_inbox<P: NodeProgram>(
    envelopes: Vec<Envelope<Value>>,
    inbox: &mut Vec<(NodeId, P::Msg)>,
) -> io::Result<()> {
    inbox.clear();
    for env in envelopes {
        let msg = P::Msg::deserialize(&env.body)
            .map_err(|e| bad_proto(format!("undecodable body from node {}: {e}", env.src)))?;
        inbox.push((env.src, msg));
    }
    Ok(())
}

/// Frames one step's outboxes as a `RoundOut`, sealing each message into an
/// envelope stamped with the sending round.
fn send_round_out<M: Serialize>(
    writer: &mut impl Write,
    node: NodeId,
    round: u64,
    out: StepOutput<'_, M>,
) -> io::Result<()> {
    let seal = |msgs: &[(NodeId, M)]| -> Vec<Envelope<Value>> {
        msgs.iter()
            .map(|(dst, msg)| Envelope {
                src: node,
                dst: *dst,
                round,
                body: msg.to_value(),
            })
            .collect()
    };
    let round_out = FromNode::RoundOut {
        node,
        round,
        local: seal(out.local),
        global: seal(out.global),
        refused: out.refused,
        done: out.done,
    };
    write_frame(writer, &round_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ProgramSpec;
    use std::io::Cursor;

    /// Drives a single served node by hand: init → one round → halt.
    #[test]
    fn serve_speaks_the_protocol_end_to_end() {
        let params = ModelParams::hybrid(4);
        let mut script = Vec::new();
        write_frame(
            &mut script,
            &ToNode::Init {
                node: 1,
                n: 4,
                neighbors: vec![0, 2],
                params,
                seed: 0,
                program: ProgramSpec::Flood {
                    tokens_at: vec![(1, vec![42])],
                    rounds_budget: 8,
                },
            },
        )
        .unwrap();
        write_frame(
            &mut script,
            &ToNode::Round {
                round: 1,
                local: vec![Envelope {
                    src: 0,
                    dst: 1,
                    round: 0,
                    body: Value::Array(vec![Value::UInt(7)]),
                }],
                global: vec![],
            },
        )
        .unwrap();
        write_frame(&mut script, &ToNode::Halt).unwrap();

        let mut replies = Vec::new();
        serve(Cursor::new(script), &mut replies).unwrap();

        let mut cursor = Cursor::new(replies);
        // Init pass: node 1 floods its token to both neighbours.
        let Some(FromNode::RoundOut {
            node, round, local, ..
        }) = read_frame(&mut cursor).unwrap()
        else {
            panic!("expected RoundOut");
        };
        assert_eq!((node, round), (1, 0));
        assert_eq!(local.len(), 2);
        assert!(local
            .iter()
            .all(|e| e.body == Value::Array(vec![Value::UInt(42)])));
        // Round 1: it learned token 7, floods the union.
        let Some(FromNode::RoundOut { round, local, .. }) = read_frame(&mut cursor).unwrap() else {
            panic!("expected RoundOut");
        };
        assert_eq!(round, 1);
        assert!(local
            .iter()
            .all(|e| e.body == Value::Array(vec![Value::UInt(7), Value::UInt(42)])));
        // Halt: the state summary knows both tokens.
        let Some(FromNode::Halted { node, state }) = read_frame(&mut cursor).unwrap() else {
            panic!("expected Halted");
        };
        assert_eq!(node, 1);
        assert_eq!(
            state.get("known"),
            Some(&Value::Array(vec![Value::UInt(7), Value::UInt(42)]))
        );
        assert!(read_frame::<FromNode>(&mut cursor).unwrap().is_none());
    }

    /// A body that is not the program's message type ends the node with an
    /// error naming who sent it — whichever plane and shape it arrives in.
    #[test]
    fn a_hostile_body_is_invalid_data_naming_the_sender() {
        let tokens = |entry: Value| Value::Array(vec![Value::UInt(7), entry]);
        let tagged = |tag: &str, body: Value| Value::Object(vec![(tag.to_string(), body)]);
        let hostile = [
            tagged("Tokens", tokens(Value::Str("8".into()))),
            tagged("Tokens", tokens(Value::Int(-8))),
            tagged("Ack", tokens(Value::Float(8.5))),
            tagged("Ack", tokens(Value::Array(vec![Value::UInt(8)]))),
            tagged("Ack", tagged("Tokens", tokens(Value::UInt(8)))),
            tagged("Token", tokens(Value::UInt(8))),
            tokens(Value::UInt(8)),
        ];
        for body in hostile {
            let mut script = Vec::new();
            write_frame(
                &mut script,
                &ToNode::Init {
                    node: 1,
                    n: 4,
                    neighbors: vec![0, 2],
                    params: ModelParams::hybrid(4),
                    seed: 0,
                    program: ProgramSpec::AckFlood {
                        tokens_at: vec![],
                        target_tokens: 2,
                        retry_interval: 2,
                    },
                },
            )
            .unwrap();
            let honest = Envelope {
                src: 0,
                dst: 1,
                round: 0,
                body: tagged("Tokens", tokens(Value::UInt(8))),
            };
            let bad = Envelope {
                src: 2,
                dst: 1,
                round: 0,
                body: body.clone(),
            };
            write_frame(
                &mut script,
                &ToNode::Round {
                    round: 1,
                    local: vec![honest, bad],
                    global: vec![],
                },
            )
            .unwrap();
            write_frame(&mut script, &ToNode::Halt).unwrap();

            let mut replies = Vec::new();
            let err = serve(Cursor::new(script), &mut replies).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{body:?}");
            assert!(err.to_string().contains("from node 2"), "{err}");
            // Only the init pass was answered: no step ran on a partial inbox.
            let mut cursor = Cursor::new(replies);
            assert!(matches!(
                read_frame::<FromNode>(&mut cursor).unwrap(),
                Some(FromNode::RoundOut { round: 0, .. })
            ));
            assert!(read_frame::<FromNode>(&mut cursor).unwrap().is_none());
        }
    }

    #[test]
    fn non_init_first_frame_is_a_protocol_error() {
        let mut script = Vec::new();
        write_frame(&mut script, &ToNode::Halt).unwrap();
        let mut replies = Vec::new();
        let err = serve(Cursor::new(script), &mut replies).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Serves a one-frame script holding a flood `Init` with the given
    /// fields; a rejected frame gets no reply at all.
    fn serve_init(node: NodeId, n: usize, neighbors: Vec<NodeId>, params_n: usize) -> io::Error {
        let mut script = Vec::new();
        let init = ToNode::Init {
            node,
            n,
            neighbors,
            params: ModelParams::hybrid(params_n),
            seed: 0,
            program: ProgramSpec::Flood {
                tokens_at: vec![],
                rounds_budget: 8,
            },
        };
        write_frame(&mut script, &init).unwrap();
        let mut replies = Vec::new();
        let err = serve(Cursor::new(script), &mut replies).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(replies.is_empty(), "{err}");
        err
    }

    #[test]
    fn init_with_params_for_another_n_is_a_protocol_error() {
        let err = serve_init(1, 4, vec![0, 2], 5);
        assert!(err.to_string().contains("params.n = 5"), "{err}");
    }

    #[test]
    fn init_with_out_of_range_node_is_a_protocol_error() {
        let err = serve_init(4, 4, vec![0, 2], 4);
        assert!(err.to_string().contains("Init node 4"), "{err}");
    }

    #[test]
    fn init_with_out_of_range_neighbor_is_a_protocol_error() {
        let err = serve_init(1, 4, vec![0, 9], 4);
        assert!(err.to_string().contains("neighbors: node 9"), "{err}");
    }
}
