//! Scenario descriptions shared by the driver, the node runtime and the
//! conformance harness.
//!
//! A [`Scenario`] names a pinned local graph ([`GraphSpec`]), the program
//! every node runs ([`ProgramSpec`]) and one [`EngineConfig`].  The same
//! scenario value drives both executions the conformance contract compares:
//! [`run_in_process`] on the in-process [`Executor`], and
//! [`crate::driver::run_scenario`] across real node processes.
//!
//! [`ProgramSpec`] is serializable — it travels inside the
//! [`Init`](crate::protocol::ToNode::Init) frame, so a node process can
//! instantiate its program without sharing memory with the driver.

use hybrid_graph::builder::MAX_NODES;
use hybrid_graph::{generators, Graph, NodeId};
use hybrid_sim::engine::{Executor, NodeProgram, RunReport};
use hybrid_sim::programs::{
    AckFloodProgram, BfsProgram, DetForwardProgram, FloodProgram, TokenGossipProgram,
};
use hybrid_sim::{EngineConfig, EngineError, ModelParams, RoundTrace, TokenSet};
use serde::{Deserialize, Serialize, Value};

/// Token placement: `(node, tokens held initially)` pairs; nodes not listed
/// start empty.
pub type TokensAt = Vec<(NodeId, Vec<u64>)>;

/// A pinned local-graph family instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum GraphSpec {
    /// Path on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// Cycle on `n` nodes.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// `rows × cols` grid.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Star with centre `0` and `n - 1` leaves.
    Star {
        /// Node count (centre included).
        n: usize,
    },
}

impl GraphSpec {
    /// Number of nodes of the instance.
    pub fn n(&self) -> usize {
        match *self {
            GraphSpec::Path { n } | GraphSpec::Cycle { n } | GraphSpec::Star { n } => n,
            GraphSpec::Grid { rows, cols } => rows * cols,
        }
    }

    /// Materializes the graph.
    ///
    /// # Panics
    /// Panics if the spec is degenerate (e.g. fewer than 2 nodes) — scenario
    /// specs are pinned test inputs, not untrusted data.
    pub fn build(&self) -> Graph {
        match *self {
            GraphSpec::Path { n } => generators::path(n),
            GraphSpec::Cycle { n } => generators::cycle(n),
            GraphSpec::Grid { rows, cols } => generators::grid(&[rows, cols]),
            GraphSpec::Star { n } => generators::star(n),
        }
        .expect("scenario graph spec must be buildable")
    }

    /// Parses a CLI spelling: `path`, `cycle`, `star`, or `grid-RxC`
    /// (combined with the separate node count for the first three).
    ///
    /// This is the boundary for untrusted input: every spec the generator
    /// behind [`Self::build`] would reject (no nodes, a cycle on fewer than 3,
    /// a zero grid side, more than [`MAX_NODES`] nodes) is an `Err` here, so
    /// a parsed spec always builds.
    pub fn parse(family: &str, n: usize) -> Result<Self, String> {
        let sized = |spec: Self, min: usize| {
            if (min..=MAX_NODES).contains(&n) {
                Ok(spec)
            } else {
                Err(format!(
                    "`{family}` needs {min} <= n <= {MAX_NODES}, got {n}"
                ))
            }
        };
        match family {
            "path" => sized(GraphSpec::Path { n }, 1),
            "cycle" => sized(GraphSpec::Cycle { n }, 3),
            "star" => sized(GraphSpec::Star { n }, 1),
            _ => {
                if let Some(dims) = family.strip_prefix("grid-") {
                    let (rows, cols) = dims
                        .split_once('x')
                        .ok_or_else(|| format!("bad grid spec `{family}` (want grid-RxC)"))?;
                    let rows = rows
                        .parse::<usize>()
                        .map_err(|_| format!("bad grid rows in `{family}`"))?;
                    let cols = cols
                        .parse::<usize>()
                        .map_err(|_| format!("bad grid cols in `{family}`"))?;
                    match rows.checked_mul(cols) {
                        Some(1..=MAX_NODES) => Ok(GraphSpec::Grid { rows, cols }),
                        Some(0) => Err(format!("grid sides must be positive in `{family}`")),
                        _ => Err(format!("`{family}` has more than {MAX_NODES} nodes")),
                    }
                } else {
                    Err(format!(
                        "unknown graph family `{family}` (want path, cycle, star, or grid-RxC)"
                    ))
                }
            }
        }
    }
}

/// Which ready-made [`hybrid_sim::programs`] program every node runs, plus
/// its parameters.  Serializable so it rides in the `Init` frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProgramSpec {
    /// Unstructured flooding ([`FloodProgram`]).
    Flood {
        /// Initial token placement.
        tokens_at: TokensAt,
        /// Rounds each node keeps flooding after its last novelty.
        rounds_budget: u64,
    },
    /// Ack/retry flooding ([`AckFloodProgram`]).
    AckFlood {
        /// Initial token placement.
        tokens_at: TokensAt,
        /// Tokens a node must know to consider itself finished.
        target_tokens: usize,
        /// Retransmission interval for unacknowledged tokens.
        retry_interval: u64,
    },
    /// Deterministic smallest-token-first forwarding ([`DetForwardProgram`]).
    DetForward {
        /// Initial token placement.
        tokens_at: TokensAt,
        /// Tokens a node must know to consider itself finished.
        target_tokens: usize,
    },
    /// Local-plane BFS from a source ([`BfsProgram`]).
    Bfs {
        /// BFS source node.
        source: NodeId,
    },
    /// Randomized token gossip over the global plane
    /// ([`TokenGossipProgram`]); per-node RNG streams derive from the
    /// scenario seed.
    Gossip {
        /// Initial token placement.
        tokens_at: TokensAt,
        /// Tokens a node must know to consider itself finished.
        target_tokens: usize,
    },
}

/// What a runtime does once the program type is known: [`ProgramSpec::visit`]
/// resolves a spec to a concrete [`NodeProgram`] type and calls back here.
pub trait ProgramVisitor {
    /// What the visit produces.
    type Out;

    /// Called exactly once, with a per-node program factory and the
    /// program's final-state summariser (the value the conformance diff
    /// compares).
    fn visit<P: NodeProgram>(
        self,
        factory: impl FnMut(NodeId) -> P,
        state: fn(&P) -> Value,
    ) -> Self::Out;
}

impl ProgramSpec {
    /// Short name for logs and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            ProgramSpec::Flood { .. } => "flood",
            ProgramSpec::AckFlood { .. } => "ack-flood",
            ProgramSpec::DetForward { .. } => "det-forward",
            ProgramSpec::Bfs { .. } => "bfs",
            ProgramSpec::Gossip { .. } => "gossip",
        }
    }

    /// The one dispatch from a spec to program instances, shared by the
    /// in-process run and the node process: a new program is one arm here.
    /// `n` is the network size and `seed` the scenario seed (randomized
    /// programs derive per-node streams from it).
    ///
    /// State summaries are `{"known": [tokens…]}` for the token programs
    /// (ack-flood adds `"pending"`, its unacknowledged transmissions) and
    /// `{"dist": d}` for BFS (JSON `null` while unreached).
    pub fn visit<V: ProgramVisitor>(&self, n: usize, seed: u64, visitor: V) -> V::Out {
        match self {
            ProgramSpec::Flood {
                tokens_at,
                rounds_budget,
            } => {
                let initial = placement_index(tokens_at);
                visitor.visit(
                    |v| FloodProgram::new(initial(v), *rounds_budget),
                    |p| known_state(&p.known),
                )
            }
            ProgramSpec::AckFlood {
                tokens_at,
                target_tokens,
                retry_interval,
            } => {
                let initial = placement_index(tokens_at);
                visitor.visit(
                    |v| AckFloodProgram::new(initial(v), *target_tokens, *retry_interval),
                    |p| {
                        Value::Object(vec![
                            ("known".to_string(), tokens_value(&p.known)),
                            ("pending".to_string(), Value::UInt(p.pending() as u64)),
                        ])
                    },
                )
            }
            ProgramSpec::DetForward {
                tokens_at,
                target_tokens,
            } => {
                let initial = placement_index(tokens_at);
                visitor.visit(
                    |v| DetForwardProgram::new(initial(v), *target_tokens),
                    |p| known_state(&p.known),
                )
            }
            ProgramSpec::Bfs { source } => visitor.visit(
                |v| BfsProgram::new(v, *source),
                |p| Value::Object(vec![("dist".to_string(), p.dist.to_value())]),
            ),
            ProgramSpec::Gossip {
                tokens_at,
                target_tokens,
            } => {
                let initial = placement_index(tokens_at);
                visitor.visit(
                    |v| TokenGossipProgram::new(v, n, initial(v), *target_tokens, seed),
                    |p| known_state(&p.known),
                )
            }
        }
    }
}

/// The tokens each node holds initially under one placement: the entries
/// stably sorted by node once, each lookup a binary search returning the
/// node's tokens in placement order.
fn placement_index(tokens_at: &[(NodeId, Vec<u64>)]) -> impl Fn(NodeId) -> Vec<u64> + '_ {
    let mut by_node: Vec<&(NodeId, Vec<u64>)> = tokens_at.iter().collect();
    by_node.sort_by_key(|(v, _)| *v);
    move |node| {
        let first = by_node.partition_point(|(v, _)| *v < node);
        by_node[first..]
            .iter()
            .take_while(|(v, _)| *v == node)
            .flat_map(|(_, tokens)| tokens.iter().copied())
            .collect()
    }
}

/// One complete experiment: graph instance, per-node program, engine
/// configuration — all of it, fault plan included, honoured identically by
/// the in-process engine and the networked driver.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The local communication graph.
    pub graph: GraphSpec,
    /// The program every node runs.
    pub program: ProgramSpec,
    /// Engine configuration (params, seed, fault plan, round cap, trace
    /// recording).
    pub config: EngineConfig,
}

impl Scenario {
    /// A scenario with standard `HYBRID` parameters for the graph's size and
    /// trace recording enabled (conformance is the common case).
    pub fn new(graph: GraphSpec, program: ProgramSpec) -> Self {
        let params = ModelParams::hybrid(graph.n());
        Scenario {
            graph,
            program,
            config: EngineConfig::new(params).with_trace(true),
        }
    }

    /// Replaces the engine configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }
}

/// Result of an execution, in process or across node processes (so the two
/// diff directly): the run report, the per-round delivered-message trace, and
/// one state summary per node.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// Accounting of the run.
    pub report: RunReport,
    /// Per-round delivered messages (empty unless the config records traces).
    pub trace: Vec<RoundTrace>,
    /// Per-node final state summaries, indexed by node id.
    pub states: Vec<Value>,
}

fn tokens_value(tokens: &TokenSet) -> Value {
    Value::Array(tokens.iter().map(|&t| Value::UInt(t)).collect())
}

fn known_state(tokens: &TokenSet) -> Value {
    Value::Object(vec![("known".to_string(), tokens_value(tokens))])
}

/// Runs the scenario on the in-process [`Executor`] — the reference side of
/// the conformance contract.
///
/// # Errors
/// Propagates [`EngineError::RoundLimitExceeded`] from the engine when the
/// configured round cap is exhausted before every program is done.
pub fn run_in_process(scenario: &Scenario) -> Result<EngineOutcome, EngineError> {
    struct InProcess<'a>(&'a Graph, EngineConfig);

    impl ProgramVisitor for InProcess<'_> {
        type Out = Result<EngineOutcome, EngineError>;

        fn visit<P: NodeProgram>(
            self,
            factory: impl FnMut(NodeId) -> P,
            state: fn(&P) -> Value,
        ) -> Self::Out {
            let mut exec = Executor::with_config(self.0, self.1, factory);
            let report = exec.run()?;
            let trace = exec.take_trace();
            let states = exec.programs().iter().map(state).collect();
            Ok(EngineOutcome {
                report,
                trace,
                states,
            })
        }
    }

    let graph = scenario.graph.build();
    let config = scenario.config.clone();
    scenario
        .program
        .visit(graph.n(), config.seed(), InProcess(&graph, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_specs_build_and_parse() {
        assert_eq!(GraphSpec::parse("path", 12).unwrap().n(), 12);
        assert_eq!(GraphSpec::parse("grid-4x3", 0).unwrap().n(), 12);
        assert!(GraphSpec::parse("torus", 9).is_err());
        assert!(GraphSpec::parse("grid-4", 0).is_err());
        // Every spelling the generators would reject is refused at the parse
        // boundary, so `build` cannot panic on a parsed spec.
        for (family, n) in [
            ("path", 0),
            ("star", 0),
            ("cycle", 0),
            ("cycle", 2),
            ("path", MAX_NODES + 1),
            ("grid-0x3", 0),
            ("grid-3x0", 0),
            ("grid-65536x65536", 0),
            ("grid-4294967296x4294967296", 0),
        ] {
            let err = GraphSpec::parse(family, n).expect_err(family);
            assert!(err.contains(family), "{err}");
        }
        for (family, n) in [("path", 1), ("star", 1), ("cycle", 3), ("grid-1x1", 0)] {
            let spec = GraphSpec::parse(family, n).unwrap();
            assert_eq!(spec.build().n(), spec.n());
        }
        let g = GraphSpec::Grid { rows: 4, cols: 3 }.build();
        assert_eq!(g.n(), 12);
    }

    #[test]
    fn program_specs_ride_through_json() {
        let spec = ProgramSpec::AckFlood {
            tokens_at: vec![(0, vec![1, 2, 3])],
            target_tokens: 3,
            retry_interval: 2,
        };
        let text = serde_json::to_string(&spec).unwrap();
        let back: ProgramSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back.name(), "ack-flood");
        match back {
            ProgramSpec::AckFlood {
                tokens_at,
                target_tokens,
                retry_interval,
            } => {
                assert_eq!(tokens_at, vec![(0, vec![1, 2, 3])]);
                assert_eq!(target_tokens, 3);
                assert_eq!(retry_interval, 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn in_process_reference_run_produces_trace_and_states() {
        let scenario = Scenario::new(
            GraphSpec::Path { n: 6 },
            ProgramSpec::Flood {
                tokens_at: vec![(0, vec![10, 11])],
                rounds_budget: 64,
            },
        );
        let out = run_in_process(&scenario).expect("flood completes");
        assert!(out.report.completed);
        assert!(!out.trace.is_empty());
        assert_eq!(out.states.len(), 6);
        let expected = known_state(&[10u64, 11].into_iter().collect());
        assert!(out.states.iter().all(|s| *s == expected));
    }

    /// One token on every node of a 20 000-cycle: start-up looks each node up
    /// in one sorted index (2·10⁴ lookups, not 4·10⁸ placement comparisons),
    /// and the run stops at its round cap with the typed error.
    #[test]
    fn a_placement_on_every_node_starts_up_in_linear_time() {
        let n = 20_000usize;
        let scenario = Scenario::new(
            GraphSpec::Cycle { n },
            ProgramSpec::DetForward {
                tokens_at: (0..n as NodeId)
                    .rev()
                    .map(|v| (v, vec![v as u64]))
                    .collect(),
                target_tokens: n,
            },
        )
        .with_config(EngineConfig::new(ModelParams::hybrid(n)).with_max_rounds(4));
        let err = run_in_process(&scenario).expect_err("4 rounds cannot cross the cycle");
        let EngineError::RoundLimitExceeded { limit, report } = err;
        assert_eq!((limit, report.rounds), (4, 4));
        // Init and four rounds, two neighbours each, every node still owing.
        assert_eq!(report.local_messages, 5 * 2 * n as u64);
    }

    #[test]
    fn initial_tokens_filters_by_node() {
        let at = vec![(0, vec![1]), (2, vec![5, 6]), (0, vec![9])];
        let initial_tokens = placement_index(&at);
        assert_eq!(initial_tokens(0), vec![1, 9]);
        assert_eq!(initial_tokens(1), Vec::<u64>::new());
        assert_eq!(initial_tokens(2), vec![5, 6]);
        assert_eq!(initial_tokens(3), Vec::<u64>::new());
    }
}
