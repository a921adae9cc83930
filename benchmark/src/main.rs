//! `hybrid-benchmark --workload <name>|all [--seed S] [--seconds N]
//! [--trace 0|1] [--node-bin PATH] [--out DIR]`
//!
//! Prints every metric as `name value unit` and, as the last line of each
//! workload, one JSON object `{correct, attempted, failed, metrics}`.
//! `run.sh` in this directory builds everything and passes the paths.

use std::path::PathBuf;
use std::process::ExitCode;

use hybrid_benchmark::alloc::CountingAlloc;
use hybrid_benchmark::contract::Contract;
use hybrid_benchmark::report::{json_line, text_lines};
use hybrid_benchmark::runner::{run_traced, run_untraced, Options};
use hybrid_benchmark::workloads::{self, Context};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The seed used when none is given.  `0x5EED_0000` is held out: nothing in
/// this directory was sized or tuned on it (README.md, "Measurement
/// protocol").
const DEFAULT_SEED: u64 = 0x5EED_0001;

const USAGE: &str = "usage: hybrid-benchmark --workload <name>|all [--seed S] [--seconds N] \
                     [--trace 0|1] [--node-bin PATH] [--out DIR]";

struct Args {
    workload: String,
    trace: bool,
    options: Options,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse(args: &[String], default_seconds: u64) -> Result<Args, String> {
    let mut workload = None;
    let mut trace = false;
    let mut options = Options {
        seed: DEFAULT_SEED,
        seconds: default_seconds as f64,
        out_dir: PathBuf::from("benchmark/out"),
        ctx: Context::default(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let text = value()?;
                options.seed = parse_seed(text).ok_or_else(|| format!("bad seed `{text}`"))?;
            }
            "--seconds" => {
                let text = value()?;
                options.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{text}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--node-bin" => options.ctx.node_bin = Some(PathBuf::from(value()?)),
            "--out" => options.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        trace,
        options,
    })
}

fn run(args: &Args, contract: &Contract) -> Result<bool, String> {
    let selected: Vec<&workloads::Workload> = workloads::all()
        .iter()
        .filter(|w| args.workload == "all" || args.workload == w.name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{}` (have: {}, all)",
            args.workload,
            names.join(", ")
        ));
    }
    let mut all_correct = true;
    for workload in selected {
        println!(
            "# workload {} seed {:#x} trace {} pool_width {} cores {}",
            workload.name,
            args.options.seed,
            u8::from(args.trace),
            rayon::current_num_threads(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        let (result, declared) = if args.trace {
            let (result, summary) = run_traced(workload, contract, &args.options);
            print!("{summary}");
            (result, &contract.per_layer)
        } else {
            (
                run_untraced(workload, contract, &args.options),
                &contract.end_to_end,
            )
        };
        for line in text_lines(&result, declared, !args.trace) {
            println!("{line}");
        }
        for note in &result.notes {
            println!("# {note}");
        }
        for finding in &result.findings {
            println!("# FINDING {finding}");
        }
        all_correct &= result.correct;
        println!("{}", json_line(&result, declared));
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let contract = Contract::load();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw, contract.run_seconds) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Width 1: every parallel region of the crates runs inline on this
    // thread and the pool never spawns a worker.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the vendored pool cannot fail to build");
    match pool.install(|| run(&args, &contract)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("a workload reported failed operations or non-repeating exact metrics");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
