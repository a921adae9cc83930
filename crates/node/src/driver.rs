//! The driver side of the networked runtime: spawns one `hybrid-node`
//! process per node, distributes the scenario over `Init` frames, and runs
//! the lock-step round barrier.
//!
//! # Conformance by construction
//!
//! The driver owns no delivery rule.  Staging order, the fault pass, the
//! `(destination, sequence)` sort, the γ *receive* cap, the message
//! accounting, the trace and the round loop itself are the engine's
//! [`RoundRouter`] — the same code the in-process
//! [`Executor`](hybrid_sim::engine::Executor) runs on — so per-round
//! delivered-message traces diff bit-for-bit against executor runs, under
//! any [`EngineConfig`](hybrid_sim::EngineConfig), faults included.  (The γ
//! *send* cap is enforced inside each node process by the genuine `NodeCtx`.)
//! What is left here is transport: the driver moves each round's inboxes out
//! of the router into `Round` frames, skips the frame for a node the router
//! reports crashed (remembering the `done` flag it last reported), validates
//! the `RoundOut` answers, and stages them back in node-id order.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hybrid_graph::NodeId;
use hybrid_sim::router::InboxDrain;
use hybrid_sim::{EngineError, Envelope, RoundRouter};
use serde::Value;

use crate::protocol::{read_frame, write_frame, FromNode, ToNode};
use crate::scenario::{EngineOutcome, Scenario};

/// How long the driver waits for a node frame before declaring the fleet
/// wedged.  Generous — scenario rounds are milliseconds; this only guards
/// against a hung child (a dead one is reported by its reader at once).
const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// How the driver talks to its node processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Frames over the child's stdin/stdout pipes.
    Stdio,
    /// Frames over loopback TCP; children connect back to the driver.
    Tcp,
}

impl Transport {
    /// Parses the CLI spelling (`stdio` / `tcp`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "stdio" => Ok(Transport::Stdio),
            "tcp" => Ok(Transport::Tcp),
            other => Err(format!("unknown transport `{other}` (want stdio or tcp)")),
        }
    }
}

/// Failure of a networked run.
#[derive(Debug)]
pub enum DriverError {
    /// An I/O failure talking to a node process.
    Io(io::Error),
    /// A node violated the protocol (wrong round, forged sender, bad frame).
    Protocol(String),
    /// The engine-level typed failure — currently only the round cap,
    /// mirrored exactly from the in-process engine.
    Engine(EngineError),
}

impl From<io::Error> for DriverError {
    fn from(e: io::Error) -> Self {
        DriverError::Io(e)
    }
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Io(e) => write!(f, "node i/o failed: {e}"),
            DriverError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DriverError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DriverError {}

fn proto(msg: impl Into<String>) -> DriverError {
    DriverError::Protocol(msg.into())
}

/// One node's step output as the driver stores it between barrier phases.
struct StepOut {
    local: Vec<Envelope<Value>>,
    global: Vec<Envelope<Value>>,
    refused: u64,
    done: bool,
}

/// The spawned node processes plus the channels to talk to them.  Dropping
/// the fleet kills any children still running (the success path halts them
/// cleanly first, so the kill is a no-op there).
struct Fleet {
    children: Vec<Child>,
    writers: Vec<Box<dyn Write + Send>>,
    rx: mpsc::Receiver<Result<FromNode, String>>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Forwards every frame a node sends into the driver's single inbox; the
/// sender id rides inside the frames themselves.  `Halted` ends the
/// conversation; a stream that fails or closes before it is reported at
/// once, so a dead child never leaves the barrier waiting out its timeout.
fn spawn_reader(reader: impl Read + Send + 'static, tx: mpsc::Sender<Result<FromNode, String>>) {
    thread::spawn(move || {
        let mut reader = io::BufReader::new(reader);
        // Learnt from the node's own frames, to name it if its stream dies.
        let mut last_node = None;
        let failure = loop {
            match read_frame::<FromNode>(&mut reader) {
                Ok(Some(msg)) => {
                    let (FromNode::RoundOut { node, .. } | FromNode::Halted { node, .. }) = &msg;
                    last_node = Some(*node);
                    let halted = matches!(msg, FromNode::Halted { .. });
                    if tx.send(Ok(msg)).is_err() || halted {
                        return;
                    }
                }
                Ok(None) => break "closed its stream before Halted".to_string(),
                Err(e) => break format!("stream failed: {e}"),
            }
        };
        let who = last_node.map_or("a node that never spoke".to_string(), |v| {
            format!("node {v}")
        });
        let _ = tx.send(Err(format!("{who} {failure}")));
    });
}

fn spawn_fleet(n: usize, transport: Transport, node_bin: &Path) -> Result<Fleet, DriverError> {
    let (tx, rx) = mpsc::channel();
    let mut children = Vec::with_capacity(n);
    let mut writers: Vec<Box<dyn Write + Send>> = Vec::with_capacity(n);
    match transport {
        Transport::Stdio => {
            for _ in 0..n {
                let mut child = Command::new(node_bin)
                    .arg("stdio")
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()?;
                let stdin = child.stdin.take().expect("piped stdin");
                let stdout = child.stdout.take().expect("piped stdout");
                spawn_reader(stdout, tx.clone());
                writers.push(Box::new(stdin));
                children.push(child);
            }
        }
        Transport::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            for _ in 0..n {
                let child = Command::new(node_bin)
                    .arg("--connect")
                    .arg(addr.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()?;
                children.push(child);
            }
            // Accept order is arbitrary: identity is assigned by the Init
            // frame the driver sends on each connection, not by who
            // connected first.
            for _ in 0..n {
                let (stream, _) = listener.accept()?;
                stream.set_nodelay(true).ok();
                let read_half: TcpStream = stream.try_clone()?;
                spawn_reader(read_half, tx.clone());
                writers.push(Box::new(stream));
            }
        }
    }
    Ok(Fleet {
        children,
        writers,
        rx,
    })
}

/// Waits for exactly one `RoundOut` of the given round from every `live`
/// node; the slots of the others stay `None`.
fn collect_round(
    rx: &mpsc::Receiver<Result<FromNode, String>>,
    live: &[bool],
    round: u64,
) -> Result<Vec<Option<StepOut>>, DriverError> {
    let n = live.len();
    let mut slots: Vec<Option<StepOut>> = (0..n).map(|_| None).collect();
    let mut missing = live.iter().filter(|&&up| up).count();
    while missing > 0 {
        let msg = rx
            .recv_timeout(RECV_TIMEOUT)
            .map_err(|_| {
                let silent: Vec<usize> =
                    (0..n).filter(|&v| live[v] && slots[v].is_none()).collect();
                proto(format!(
                    "timed out waiting for round {round} outputs of nodes {silent:?}"
                ))
            })?
            .map_err(DriverError::Protocol)?;
        match msg {
            FromNode::RoundOut {
                node,
                round: r,
                local,
                global,
                refused,
                done,
            } => {
                if r != round {
                    return Err(proto(format!(
                        "node {node} answered round {r} during round {round}"
                    )));
                }
                let v = node as usize;
                if v >= n {
                    return Err(proto(format!("RoundOut from out-of-range node {node}")));
                }
                if !live[v] {
                    return Err(proto(format!(
                        "RoundOut from node {node}, which was sent no barrier"
                    )));
                }
                if slots[v].is_some() {
                    return Err(proto(format!("duplicate RoundOut from node {node}")));
                }
                for env in local.iter().chain(global.iter()) {
                    if env.src != node {
                        return Err(proto(format!(
                            "node {node} forged an envelope from {}",
                            env.src
                        )));
                    }
                    if (env.dst as usize) >= n {
                        return Err(proto(format!(
                            "node {node} addressed out-of-range node {}",
                            env.dst
                        )));
                    }
                }
                slots[v] = Some(StepOut {
                    local,
                    global,
                    refused,
                    done,
                });
                missing -= 1;
            }
            FromNode::Halted { node, .. } => {
                return Err(proto(format!("unexpected Halted from node {node}")));
            }
        }
    }
    Ok(slots)
}

/// Sends `Halt` everywhere and collects one `Halted` state per node.
fn halt_fleet(fleet: &mut Fleet, n: usize) -> Result<Vec<Value>, DriverError> {
    for writer in &mut fleet.writers {
        write_frame(writer, &ToNode::Halt)?;
    }
    let mut states = vec![Value::Null; n];
    let mut seen = vec![false; n];
    let mut missing = n;
    while missing > 0 {
        let msg = fleet
            .rx
            .recv_timeout(RECV_TIMEOUT)
            .map_err(|_| proto("timed out waiting for Halted states".to_string()))?
            .map_err(DriverError::Protocol)?;
        match msg {
            FromNode::Halted { node, state } => {
                let v = node as usize;
                if v >= n || seen[v] {
                    return Err(proto(format!("unexpected Halted from node {node}")));
                }
                seen[v] = true;
                states[v] = state;
                missing -= 1;
            }
            FromNode::RoundOut { node, .. } => {
                return Err(proto(format!("late RoundOut from node {node}")));
            }
        }
    }
    Ok(states)
}

/// Runs a scenario across real node processes and returns the outcome.
///
/// # Errors
/// [`DriverError::Engine`] with the same [`EngineError::RoundLimitExceeded`]
/// the in-process engine produces when the round cap is exhausted;
/// [`DriverError::Protocol`] if a node misbehaves or dies; [`DriverError::Io`]
/// on transport failures.
pub fn run_scenario(
    scenario: &Scenario,
    transport: Transport,
    node_bin: &Path,
) -> Result<EngineOutcome, DriverError> {
    let config = &scenario.config;
    let graph = scenario.graph.build();
    let n = graph.n();
    let params = *config.params();
    assert_eq!(params.n, n, "scenario params must match the graph size");

    let mut fleet = spawn_fleet(n, transport, node_bin)?;

    // Distribute the scenario.
    for v in 0..n {
        let init = ToNode::Init {
            node: v as u32,
            n,
            neighbors: graph.neighbors(v as u32).collect(),
            params,
            seed: config.seed(),
            program: scenario.program.clone(),
        };
        write_frame(&mut fleet.writers[v], &init)?;
    }

    // Every node answers `Init` with its round-0 `RoundOut` unprompted, so
    // the init pass only collects.  A crashed node is sent no barrier and
    // keeps the `done` flag it last reported — its program state is frozen.
    let mut live = vec![true; n];
    let mut done = vec![false; n];
    let (writers, rx) = (&mut fleet.writers, &fleet.rx);
    let (report, trace) = RoundRouter::new(config).run(config.max_rounds(), |router, round| {
        for (v, up) in live.iter_mut().enumerate() {
            *up = !router.is_down(v as NodeId, round);
        }
        if round > 0 {
            router.drain_inboxes(|v, local, global| {
                if !live[v as usize] {
                    return Ok(());
                }
                let seal = |inbox: &mut InboxDrain<'_, Value>| {
                    inbox
                        .map(|(src, body)| Envelope {
                            src,
                            dst: v,
                            round: round - 1,
                            body,
                        })
                        .collect()
                };
                let barrier = ToNode::Round {
                    round,
                    local: seal(local),
                    global: seal(global),
                };
                write_frame(&mut writers[v as usize], &barrier)
            })?;
        }
        for (v, out) in collect_round(rx, &live, round)?.into_iter().enumerate() {
            let Some(out) = out else { continue };
            done[v] = out.done;
            let unseal = |sent: Vec<Envelope<Value>>| sent.into_iter().map(|e| (e.dst, e.body));
            router.stage(
                v as NodeId,
                unseal(out.local),
                unseal(out.global),
                out.refused,
            );
        }
        Ok::<bool, DriverError>(done.iter().all(|&d| d))
    })?;

    let report = match report.completed_within(config.max_rounds()) {
        Ok(report) => report,
        Err(limit_exceeded) => {
            // Same typed truncation as `Executor::run` — halt the fleet
            // cleanly first so no child is left blocking on a barrier.
            let _ = halt_fleet(&mut fleet, n);
            return Err(DriverError::Engine(limit_exceeded));
        }
    };

    let states = halt_fleet(&mut fleet, n)?;
    for (v, child) in fleet.children.iter_mut().enumerate() {
        let status = child.wait()?;
        if !status.success() {
            return Err(proto(format!("node process {v} exited with {status}")));
        }
    }
    fleet.children.clear();
    Ok(EngineOutcome {
        report,
        trace,
        states,
    })
}

/// Diffs a networked outcome against the in-process reference.  `Ok(())`
/// means bit-identical: same report, same per-round delivered-message
/// traces (order included), same final states.
pub fn conformance_diff(engine: &EngineOutcome, net: &EngineOutcome) -> Result<(), String> {
    if engine.report != net.report {
        return Err(format!(
            "run reports diverge:\n  engine: {:?}\n  net:    {:?}",
            engine.report, net.report
        ));
    }
    if engine.trace.len() != net.trace.len() {
        return Err(format!(
            "trace lengths diverge: engine {} rounds, net {} rounds",
            engine.trace.len(),
            net.trace.len()
        ));
    }
    for (e, a) in engine.trace.iter().zip(&net.trace) {
        if e != a {
            return Err(format!(
                "round {} trace diverges:\n  engine: {:?}\n  net:    {:?}",
                e.round, e, a
            ));
        }
    }
    if engine.states != net.states {
        for (v, (e, a)) in engine.states.iter().zip(&net.states).enumerate() {
            if e != a {
                return Err(format!(
                    "node {v} final state diverges:\n  engine: {e:?}\n  net:    {a:?}"
                ));
            }
        }
        return Err("state vectors diverge in length".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A child that dies mid-run is reported as soon as its stream closes;
    /// a stream that ends after `Halted` is the normal end of conversation.
    #[test]
    fn reader_reports_a_stream_that_closes_before_halted() {
        let frames = |msgs: &[FromNode]| {
            let mut bytes = Vec::new();
            for msg in msgs {
                write_frame(&mut bytes, msg).unwrap();
            }
            io::Cursor::new(bytes)
        };
        let round_out = FromNode::RoundOut {
            node: 3,
            round: 0,
            local: vec![],
            global: vec![],
            refused: 0,
            done: false,
        };
        let halted = FromNode::Halted {
            node: 3,
            state: Value::Null,
        };

        let (tx, rx) = mpsc::channel();
        spawn_reader(frames(std::slice::from_ref(&round_out)), tx);
        assert!(matches!(
            rx.recv().unwrap(),
            Ok(FromNode::RoundOut { node: 3, .. })
        ));
        let died = rx.recv().unwrap().unwrap_err();
        assert_eq!(died, "node 3 closed its stream before Halted");
        assert!(rx.recv().is_err(), "the reader is gone");

        let (tx, rx) = mpsc::channel();
        spawn_reader(frames(&[round_out, halted]), tx);
        assert!(matches!(rx.recv().unwrap(), Ok(FromNode::RoundOut { .. })));
        assert!(matches!(rx.recv().unwrap(), Ok(FromNode::Halted { .. })));
        assert!(rx.recv().is_err(), "no error follows a Halted frame");
    }

    /// The barrier waits for live nodes only, and a node that was sent no
    /// barrier must not answer.
    #[test]
    fn collect_round_expects_live_nodes_only() {
        let answer = |node: u32| {
            Ok(FromNode::RoundOut {
                node,
                round: 4,
                local: vec![],
                global: vec![],
                refused: 0,
                done: node == 2,
            })
        };
        let (tx, rx) = mpsc::channel();
        tx.send(answer(2)).unwrap();
        tx.send(answer(0)).unwrap();
        let slots = collect_round(&rx, &[true, false, true], 4).unwrap();
        let done: Vec<_> = slots.iter().map(|s| s.as_ref().map(|o| o.done)).collect();
        assert_eq!(done, vec![Some(false), None, Some(true)]);

        tx.send(answer(1)).unwrap();
        let Err(err) = collect_round(&rx, &[true, false, true], 4) else {
            panic!("a crashed node's answer must be refused");
        };
        assert!(err
            .to_string()
            .contains("node 1, which was sent no barrier"));
    }

    /// Every lie a child can tell in a `RoundOut` is refused, and the error
    /// names the node and the fault.
    #[test]
    fn collect_round_refuses_a_lying_child() {
        let envelope = |src: NodeId, dst: NodeId| Envelope {
            src,
            dst,
            round: 4,
            body: Value::Null,
        };
        let answer = |node: NodeId, round: u64, local, global| FromNode::RoundOut {
            node,
            round,
            local,
            global,
            refused: 0,
            done: false,
        };
        let honest = |node: NodeId| answer(node, 4, vec![], vec![]);
        let lies = [
            (
                vec![answer(0, 3, vec![], vec![])],
                "node 0 answered round 3 during round 4",
            ),
            (vec![honest(7)], "RoundOut from out-of-range node 7"),
            (vec![honest(2), honest(2)], "duplicate RoundOut from node 2"),
            (
                vec![answer(0, 4, vec![envelope(2, 1)], vec![])],
                "node 0 forged an envelope from 2",
            ),
            (
                vec![answer(2, 4, vec![], vec![envelope(2, 3)])],
                "node 2 addressed out-of-range node 3",
            ),
            (
                vec![honest(1)],
                "RoundOut from node 1, which was sent no barrier",
            ),
        ];
        for (frames, fault) in lies {
            let (tx, rx) = mpsc::channel();
            for frame in frames {
                tx.send(Ok(frame)).unwrap();
            }
            // A lie that slipped through would wait for the missing node:
            // with the sender gone, that wait fails at once instead.
            drop(tx);
            let Err(err) = collect_round(&rx, &[true, false, true], 4) else {
                panic!("{fault}: the round was accepted");
            };
            assert_eq!(err.to_string(), format!("protocol violation: {fault}"));
        }
    }

    #[test]
    fn transport_parses() {
        assert_eq!(Transport::parse("tcp").unwrap(), Transport::Tcp);
        assert_eq!(Transport::parse("stdio").unwrap(), Transport::Stdio);
        assert!(Transport::parse("quic").is_err());
    }
}
