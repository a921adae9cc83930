//! `hybrid-driver` — spawn a fleet of `hybrid-node` processes and run one
//! scenario across them.
//!
//! ```text
//! hybrid-driver [--family path|cycle|star|grid-RxC] [--n N]
//!               [--program flood|ack-flood|det-forward|bfs|gossip]
//!               [--tokens K] [--gamma G] [--seed S] [--max-rounds R]
//!               [--transport tcp|stdio] [--node-bin PATH] [--conformance]
//! ```
//!
//! With `--conformance` the same scenario additionally runs on the
//! in-process engine and the two outcomes are diffed bit-for-bit (round
//! count, per-round ordered delivered-message traces, final states); any
//! divergence is a non-zero exit.  Timing is printed as telemetry only —
//! never asserted on.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use hybrid_node::driver::{conformance_diff, run_scenario, Transport};
use hybrid_node::scenario::{run_in_process, GraphSpec, ProgramSpec, Scenario, TokensAt};
use hybrid_sim::{EngineConfig, ModelParams};

struct Args {
    family: String,
    n: usize,
    program: String,
    tokens: u64,
    gamma: Option<usize>,
    seed: u64,
    max_rounds: u64,
    transport: Transport,
    node_bin: Option<PathBuf>,
    conformance: bool,
}

impl Args {
    /// Parses the argument list (without the program name).
    fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            family: "cycle".to_string(),
            n: 8,
            program: "flood".to_string(),
            tokens: 4,
            gamma: None,
            seed: 0,
            max_rounds: 10_000,
            transport: Transport::Tcp,
            node_bin: None,
            conformance: false,
        };
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--family" => args.family = value("--family")?,
                "--n" => {
                    args.n = value("--n")?
                        .parse()
                        .map_err(|_| "--n wants an integer".to_string())?
                }
                "--program" => args.program = value("--program")?,
                "--tokens" => {
                    args.tokens = value("--tokens")?
                        .parse()
                        .map_err(|_| "--tokens wants an integer".to_string())?
                }
                "--gamma" => {
                    args.gamma = Some(
                        value("--gamma")?
                            .parse()
                            .map_err(|_| "--gamma wants an integer".to_string())?,
                    )
                }
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed wants an integer".to_string())?
                }
                "--max-rounds" => {
                    args.max_rounds = value("--max-rounds")?
                        .parse()
                        .map_err(|_| "--max-rounds wants an integer".to_string())?
                }
                "--transport" => args.transport = Transport::parse(&value("--transport")?)?,
                "--node-bin" => args.node_bin = Some(PathBuf::from(value("--node-bin")?)),
                "--conformance" => args.conformance = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(args)
    }
}

/// All `K` tokens start at node 0 (the concentrated placement).
fn tokens_at_origin(k: u64) -> TokensAt {
    vec![(0, (0..k).collect())]
}

/// Token `i` starts at node `i mod n` (the spread placement).
fn tokens_spread(k: u64, n: usize) -> TokensAt {
    (0..k).map(|t| ((t % n as u64) as u32, vec![t])).collect()
}

/// The program of the command line on a graph of `n` nodes: the graph built
/// from `--family`, whose size `--n` does not set for `grid-RxC`.
fn build_program(args: &Args, n: usize) -> Result<ProgramSpec, String> {
    let k = args.tokens;
    match args.program.as_str() {
        "flood" => Ok(ProgramSpec::Flood {
            tokens_at: tokens_at_origin(k),
            rounds_budget: args.max_rounds,
        }),
        "ack-flood" => Ok(ProgramSpec::AckFlood {
            tokens_at: tokens_at_origin(k),
            target_tokens: k as usize,
            retry_interval: 3,
        }),
        "det-forward" => Ok(ProgramSpec::DetForward {
            tokens_at: tokens_at_origin(k),
            target_tokens: k as usize,
        }),
        "bfs" => Ok(ProgramSpec::Bfs { source: 0 }),
        "gossip" => Ok(ProgramSpec::Gossip {
            tokens_at: tokens_spread(k, n),
            target_tokens: k as usize,
        }),
        other => Err(format!(
            "unknown program `{other}` (want flood, ack-flood, det-forward, bfs, or gossip)"
        )),
    }
}

fn default_node_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate hybrid-driver: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| "hybrid-driver has no parent directory".to_string())?;
    Ok(dir.join("hybrid-node"))
}

fn run() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let graph = GraphSpec::parse(&args.family, args.n)?;
    let n = graph.n();
    let program = build_program(&args, n)?;
    let params = match args.gamma {
        Some(gamma) => ModelParams::hybrid_with_global_capacity(n, gamma),
        None => ModelParams::hybrid(n),
    };
    let config = EngineConfig::new(params)
        .with_seed(args.seed)
        .with_max_rounds(args.max_rounds)
        .with_trace(true);
    let scenario = Scenario::new(graph, program).with_config(config);
    let node_bin = match &args.node_bin {
        Some(path) => path.clone(),
        None => default_node_bin()?,
    };

    eprintln!(
        "hybrid-driver: {} on {:?} (n={n}, gamma={}, seed={}, transport={:?})",
        scenario.program.name(),
        scenario.graph,
        params.global_capacity_msgs,
        args.seed,
        args.transport,
    );
    let started = Instant::now();
    let net = run_scenario(&scenario, args.transport, &node_bin)
        .map_err(|e| format!("networked run failed: {e}"))?;
    let elapsed = started.elapsed();
    println!(
        "rounds={} local_messages={} global_messages={} dropped_global={} refused_sends={} completed={}",
        net.report.rounds,
        net.report.local_messages,
        net.report.global_messages,
        net.report.dropped_global,
        net.report.refused_sends,
        net.report.completed,
    );
    // Telemetry only — wall-clock is environment-dependent and never asserted.
    eprintln!(
        "hybrid-driver: {} node processes, {} traced rounds, {:.1} ms wall clock",
        n,
        net.trace.len(),
        elapsed.as_secs_f64() * 1e3,
    );

    if args.conformance {
        let engine =
            run_in_process(&scenario).map_err(|e| format!("in-process run failed: {e}"))?;
        conformance_diff(&engine, &net).map_err(|e| format!("CONFORMANCE MISMATCH: {e}"))?;
        println!(
            "conformance: OK ({} rounds, {} traced rounds, {} delivered messages bit-identical)",
            net.report.rounds,
            net.trace.len(),
            net.report.local_messages + net.report.global_messages,
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hybrid-driver: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_tokens_land_on_the_built_grid_whatever_n_says() {
        let command_lines = [
            "--family grid-2x2 --n 0 --program gossip --transport stdio",
            "--family grid-3x3 --n 100 --program gossip --tokens 20 --max-rounds 200 --transport stdio",
        ];
        for argv in command_lines {
            let args = Args::parse(argv.split(' ').map(str::to_string)).unwrap();
            let n = GraphSpec::parse(&args.family, args.n).unwrap().n();
            let Ok(ProgramSpec::Gossip { tokens_at, .. }) = build_program(&args, n) else {
                panic!("{argv:?}: not a gossip program");
            };
            assert_eq!(tokens_at.len() as u64, args.tokens, "{argv:?}");
            assert!(
                tokens_at.iter().all(|&(v, _)| (v as usize) < n),
                "{argv:?}: a token outside 0..{n}: {tokens_at:?}"
            );
        }
    }
}
