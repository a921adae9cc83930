//! `reproduce` — regenerates the paper's tables and figures as round-count
//! tables.  [`render`] prints a target's rows, as a JSON tree, as a table
//! whose header is the rows' JSON keys, and the rows' JSON text (streamed,
//! byte for byte that tree's) is written to `results/<artifact>.json`, so
//! the console and the artifact name every field alike.  Every artifact is
//! a pure function of (target, `--quick`, seed): byte-identical from run to
//! run and at every `RAYON_NUM_THREADS`, and so is the printed table.  Wall-clock performance
//! is not measured here — that is `benchmark/run.sh`.
//!
//! ```text
//! cargo run --release -p hybrid-bench --bin reproduce -- [<target>|all] [--quick]
//! ```
//!
//! The targets are the rows of [`TARGETS`]; `all` (the default) runs every
//! row, in table order, and then writes `results/work.json`: per target and
//! per counted kernel, the exact work the [`hybrid_graph::work`] ledger
//! recorded while the target ran (each count is a pure function of the
//! target's inputs, so the file is as deterministic as the others).
//! `--quick` shrinks the instance sizes so the full run
//! finishes in well under a minute (used by CI); without it the default
//! sizes are used.
//!
//! Exit codes: 0 — every selected target ran and wrote its artifact; 1 — an
//! artifact could not be written or failed validation; 2 — bad command line
//! (unknown targets *and unknown flags*, with the usage string: a typo like
//! `--qiuck` must not silently run the slow full suite).

#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use hybrid_bench::faults_sweep::{fault_sweep_rows, FaultSweepConfig};
use hybrid_bench::grid::{GraphFamily, Grid};
use hybrid_bench::oracle_bench::{oracle_bench_rows, OracleBenchConfig};
use hybrid_bench::scale::{scale_rows, ScaleConfig};
use hybrid_bench::scenarios::{
    appendix_b_rows, figure1_rows, table1_rows, table2_rows, table3_rows, table4_rows,
};
use hybrid_bench::sweep::{check_shootout, sweep_rows, SweepConfig, SweepRow};
use hybrid_graph::work::{self, Kernel, Tally};
use serde::{Serialize, Value};

/// One reproduction target.
struct Target {
    /// Its name on the command line and in the per-target timing line.
    name: &'static str,
    /// Prints the table and writes its artifact.
    run: fn(&Cli) -> io::Result<()>,
}

/// The pseudo-target running every row, in table order.
const ALL: &str = "all";

/// Every target, once: `main`, `all`, the usage string and the
/// unknown-target error are all derived from this table.
#[rustfmt::skip]
const TARGETS: &[Target] = &[
    Target { name: "table1",     run: run_table1 },
    Target { name: "table2",     run: run_table2 },
    Target { name: "table3",     run: run_table3 },
    Target { name: "table4",     run: run_table4 },
    Target { name: "figure1",    run: run_figure1 },
    Target { name: "appendix-b", run: run_appendix_b },
    Target { name: "sweep",      run: run_sweep },
    Target { name: "faults",     run: run_faults },
    Target { name: "oracle",     run: run_oracle },
    Target { name: "scale",      run: run_scale },
];

fn usage() -> String {
    let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
    format!("usage: reproduce [{}|{ALL}] [--quick]", names.join("|"))
}

/// Parsed command line of the `reproduce` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    /// The reproduction target (`all` when omitted).
    target: String,
    /// Shrunk instance sizes.
    quick: bool,
}

/// Parses the argument list (without the program name).  Unknown targets,
/// unknown flags and surplus positional arguments are errors so that a typo
/// (`--qiuck`) cannot silently select the slow full-size defaults.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let usage = usage();
    let mut cli = Cli {
        target: String::new(),
        quick: false,
    };
    for arg in args {
        match arg.as_str() {
            "--quick" => cli.quick = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag '{flag}'\n{usage}"));
            }
            target if cli.target.is_empty() => cli.target = target.to_string(),
            surplus => {
                return Err(format!(
                    "unexpected argument '{surplus}' (target already set to '{}')\n{usage}",
                    cli.target
                ));
            }
        }
    }
    if cli.target.is_empty() {
        cli.target = ALL.to_string();
    }
    if cli.target != ALL && !TARGETS.iter().any(|t| t.name == cli.target) {
        return Err(format!("unknown target '{}'\n{usage}", cli.target));
    }
    Ok(cli)
}

/// Prefixes an I/O error with the path it happened at.
fn at(path: &Path, err: io::Error) -> io::Error {
    io::Error::new(err.kind(), format!("{}: {err}", path.display()))
}

/// Prints `title` and the target's rows as one table ([`render`]) and
/// writes the same rows as JSON text to `results/<artifact>.json`.  Every
/// failure is returned, naming its path: an artifact generator must not exit
/// 0 without its artifacts.
fn emit(title: &str, artifact: &str, rows: &impl Serialize) -> io::Result<()> {
    println!("\n=== {title} ===");
    print!("{}", render(&rows.to_value()));
    let dir = Path::new("results");
    let path = dir.join(format!("{artifact}.json"));
    let json = serde_json::to_string_pretty(rows)
        .map_err(|err| at(&path, io::Error::new(io::ErrorKind::InvalidData, err)))?;
    fs::create_dir_all(dir).map_err(|err| at(dir, err))?;
    fs::write(&path, &json).map_err(|err| at(&path, err))?;
    println!("  (wrote {})", path.display());
    Ok(())
}

/// The console form of a serialized target: a header of the first row's
/// keys, in order, then one line per row (a single object is a one-row
/// table), each column padded to its widest cell — string columns
/// left-aligned, the rest right-aligned.  A row's array of objects is
/// followed by one indented `key: field=value ...` line per element.
fn render(rows: &Value) -> String {
    let rows = match rows {
        Value::Array(rows) => rows.as_slice(),
        row => std::slice::from_ref(row),
    };
    let Some(Value::Object(first)) = rows.first() else {
        return String::new();
    };
    let header: Vec<String> = first.iter().map(|(key, _)| key.clone()).collect();
    let lines: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            header
                .iter()
                .map(|key| row.get(key).map_or_else(|| "-".to_string(), cell))
                .collect()
        })
        .collect();
    let widths: Vec<usize> = (0..header.len())
        .map(|c| {
            lines
                .iter()
                .map(|line| line[c].chars().count())
                .fold(header[c].len(), usize::max)
        })
        .collect();
    let pad = |line: &[String]| {
        let padded: Vec<String> = (line.iter().zip(first).zip(&widths))
            .map(|((text, (_, value)), &w)| match value {
                Value::Str(_) => format!("{text:<w$}"),
                _ => format!("{text:>w$}"),
            })
            .collect();
        padded.join("  ").trim_end().to_string() + "\n"
    };
    let mut out = pad(&header);
    for (row, line) in rows.iter().zip(&lines) {
        out += &pad(line);
        let Value::Object(fields) = row else { continue };
        for (key, value) in fields {
            for item in value.as_array().unwrap_or_default() {
                if let Value::Object(item) = item {
                    let pairs: Vec<String> = item
                        .iter()
                        .map(|(k, v)| format!("{k}={}", cell(v)))
                        .collect();
                    out += &format!("    {key}: {}\n", pairs.join("  "));
                }
            }
        }
    }
    out
}

/// One table cell: floats to three decimals, `-` for `null` (and for the
/// non-finite floats JSON writes as `null`), a string unquoted, `[N]` for an
/// array of `N` elements, and booleans and integers as their JSON text.
fn cell(value: &Value) -> String {
    match value {
        Value::Float(x) if x.is_finite() => format!("{x:.3}"),
        Value::Null | Value::Float(_) => "-".to_string(),
        Value::Str(text) => text.clone(),
        Value::Array(items) => format!("[{}]", items.len()),
        other => serde_json::to_string(other).expect("a JSON value always renders"),
    }
}

fn run_table1(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 256 } else { 1024 };
    let ks: &[u64] = if cli.quick {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024]
    };
    let rows = table1_rows(&Grid::new(GraphFamily::all(), &[n], 0xC0FFEE), ks);
    let title = format!("Table 1: information dissemination (n = {n})");
    emit(&title, "table1_dissemination", &rows)
}

fn run_table2(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 144 } else { 400 };
    let rows = table2_rows(&Grid::new(GraphFamily::core_families(), &[n], 0xBEEF));
    emit(&format!("Table 2: APSP (n = {n})"), "table2_apsp", &rows)
}

fn run_table3(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 196 } else { 400 };
    let ks: &[u64] = if cli.quick { &[16, 64] } else { &[16, 64, 144] };
    let rows = table3_rows(&Grid::new(GraphFamily::core_families(), &[n], 0xFACE), ks);
    let title = format!("Table 3: (k, l)-shortest paths (n = {n})");
    emit(&title, "table3_klsp", &rows)
}

fn run_table4(cli: &Cli) -> io::Result<()> {
    let sizes: &[usize] = if cli.quick {
        &[64, 256, 1024]
    } else {
        &[64, 256, 1024, 4096]
    };
    let families = [
        GraphFamily::Grid2D,
        GraphFamily::ErdosRenyi,
        GraphFamily::Path,
    ];
    let rows = table4_rows(&Grid::new(&families, sizes, 0xDEAD));
    emit("Table 4: SSSP", "table4_sssp", &rows)
}

fn run_figure1(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 512 } else { 1024 };
    let betas = [0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 5.0 / 6.0, 1.0];
    let rows = figure1_rows(n, &betas, 0xF16);
    let title = format!("Figure 1: k-SSP landscape (k = n^beta, n = {n})");
    emit(&title, "figure1_kssp", &rows)
}

fn run_appendix_b(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 512 } else { 2048 };
    let rows = appendix_b_rows(n, &[16, 64, 256, 1024, 4096], 0xAB);
    let title = format!("Appendix B / Theorems 15-17: NQ_k on special families (n ~ {n})");
    emit(&title, "appendix_b_nq", &rows)
}

/// Every cell is a *shootout*: each registry algorithm runs on the same
/// instance and is printed next to the same lower-bound witness.  Labels
/// that break their stretch, or rows that fail [`check_sweep_artifact`],
/// are an error and are not written.
fn run_sweep(cli: &Cli) -> io::Result<()> {
    let config = if cli.quick {
        SweepConfig::quick()
    } else {
        SweepConfig::full()
    };
    let rows = sweep_rows(&config).map_err(|err| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("results/sweep_scaling.json not written: {err}"),
        )
    })?;
    check_sweep_artifact(&rows)?;
    let title = format!(
        "Scaling sweep: algorithm shootout vs. per-instance lower bound ({} families x {} sizes x {} gamma points)",
        config.grid.families.len(),
        config.grid.sizes.len(),
        config.points.len()
    );
    emit(&title, "sweep_scaling", &rows)
}

/// Holds the shootout to [`check_shootout`].
fn check_sweep_artifact(rows: &[SweepRow]) -> io::Result<()> {
    check_shootout(rows).map_err(|err| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("results/sweep_scaling.json: malformed shootout artifact: {err}"),
        )
    })
}

/// The million-node scale tier: chunk-emitted generators, row-streamed
/// distances and sampled `NQ` witnesses.
fn run_scale(cli: &Cli) -> io::Result<()> {
    let config = if cli.quick {
        ScaleConfig::quick()
    } else {
        ScaleConfig::full()
    };
    let rows = scale_rows(&config);
    let title = format!(
        "Scale tier: streamed sweep at n up to {} ({} families x {} sizes, |S| = {} sources, {} NQ samples)",
        config.grid.sizes.iter().max().copied().unwrap_or(0),
        config.grid.families.len(),
        config.grid.sizes.len(),
        config.sources,
        config.nq_samples
    );
    emit(&title, "sweep_scale", &rows)
}

/// The serving tier: build a `DistanceOracle` once, answer batched
/// point-to-point queries and write their deterministic answer digests
/// (diffed across pool widths).
fn run_oracle(cli: &Cli) -> io::Result<()> {
    let config = if cli.quick {
        OracleBenchConfig::quick()
    } else {
        OracleBenchConfig::full()
    };
    let answers = oracle_bench_rows(&config);
    let title = format!(
        "Oracle serving: {}x{} weighted grid, {} batches x {} queries",
        config.dims.0, config.dims.1, config.batches, config.batch_size
    );
    emit(&title, "oracle_answers", &answers)
}

fn run_faults(cli: &Cli) -> io::Result<()> {
    let config = if cli.quick {
        FaultSweepConfig::quick()
    } else {
        FaultSweepConfig::full()
    };
    let rows = fault_sweep_rows(&config);
    let title = format!(
        "Fault sweep: degradation factors under a seeded adversary ({} families x {} sizes x {} profiles)",
        config.grid.families.len(),
        config.grid.sizes.len(),
        config.profiles.len()
    );
    emit(&title, "sweep_faults", &rows)
}

/// One line of `work.json`: a kernel's exact work during one target.
#[derive(Serialize)]
struct WorkRow {
    target: &'static str,
    kernel: &'static str,
    arcs_scanned: u64,
    heap_pushes: u64,
    frontier_entries: u64,
    lane_words: u64,
    fold_cells: u64,
}

/// The rows of one target: every kernel's ledger growth from `before` to
/// `after`, in [`Kernel::ALL`] order.
fn work_rows(target: &'static str, before: &[Tally; 5], after: &[Tally; 5]) -> Vec<WorkRow> {
    Kernel::ALL
        .iter()
        .zip(before.iter().zip(after))
        .map(|(kernel, (before, after))| {
            let done = after.since(*before);
            WorkRow {
                target,
                kernel: kernel.name(),
                arcs_scanned: done.arcs_scanned,
                heap_pushes: done.heap_pushes,
                frontier_entries: done.frontier_entries,
                lane_words: done.lane_words,
                fold_cells: done.fold_cells,
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let is_selected = |t: &&Target| cli.target == ALL || t.name == cli.target;
    let mut ledger = Vec::new();
    for target in TARGETS.iter().filter(is_selected) {
        let start = Instant::now();
        let before = work::snapshot();
        if let Err(err) = (target.run)(&cli) {
            eprintln!("reproduce {}: {err}", target.name);
            std::process::exit(1);
        }
        ledger.extend(work_rows(target.name, &before, &work::snapshot()));
        // Console information only; performance is measured by `benchmark/`.
        println!(
            "  [{}: {:.1} ms]",
            target.name,
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    if cli.target == ALL {
        if let Err(err) = emit("Work ledger: exact kernel work per target", "work", &ledger) {
            eprintln!("reproduce {ALL}: {err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn target_table_is_the_single_source_of_names() {
        let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate target name");
        assert!(!names.contains(&ALL));
        // `all` runs every row in this order, the scale tier last.
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "table3",
                "table4",
                "figure1",
                "appendix-b",
                "sweep",
                "faults",
                "oracle",
                "scale"
            ]
        );
        let usage = usage();
        for name in names {
            assert!(usage.contains(name), "{name} missing from: {usage}");
        }
    }

    #[test]
    fn defaults_to_all() {
        let cli = parse_args(&[]).unwrap();
        assert_eq!(cli.target, "all");
        assert!(!cli.quick);
    }

    #[test]
    fn parses_target_and_flags_in_any_order() {
        for (argv, target) in [
            (["--quick", "sweep"], "sweep"),
            (["scale", "--quick"], "scale"),
        ] {
            let cli = parse_args(&args(&argv)).unwrap();
            assert_eq!(cli.target, target);
            assert!(cli.quick);
        }
    }

    #[test]
    fn rejects_unknown_flags_with_usage() {
        // The motivating bug: `--qiuck` used to be silently ignored and the
        // slow full-size suite ran instead.  The retired `--scale` and
        // `--algo` are unknown flags too.
        for flag in ["--qiuck", "--scale", "--algo", "--algo=theorem1"] {
            let err = parse_args(&args(&["sweep", flag, "theorem1"])).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
            assert!(err.contains("usage:"), "{err}");
        }
    }

    #[test]
    fn sweep_artifact_check_rejects_malformed_shootouts() {
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::Path], &[64], 1),
            points: vec![hybrid_bench::SweepPoint::HYBRID],
        };
        // A well-formed shootout passes: the full registry in both columns.
        let good = sweep_rows(&config).unwrap();
        assert!(check_sweep_artifact(&good).is_ok());
        // One contender per column is too few for the full registry.
        let mut single = good.clone();
        single[0].dissemination.truncate(1);
        single[0].kssp.truncate(1);
        let err = check_sweep_artifact(&single).unwrap_err();
        assert!(err.to_string().contains("sweep_scaling.json"), "{err}");
        // No shootout columns, or no rows: a failure too.
        let mut bare = good.clone();
        bare[0].dissemination.clear();
        bare[0].kssp.clear();
        for rows in [&bare[..], &[]] {
            assert!(check_sweep_artifact(rows).is_err());
        }
    }

    #[derive(Serialize)]
    struct Run {
        algorithm: &'static str,
        rounds: u64,
    }

    #[derive(Serialize)]
    struct Row {
        family: &'static str,
        n: usize,
        ratio: f64,
        exact: Option<u64>,
        runs: Vec<Run>,
        ids: Vec<u32>,
    }

    #[test]
    fn render_prints_the_serialized_keys_as_an_aligned_table() {
        let run = |algorithm, rounds| Run { algorithm, rounds };
        let rows = [
            Row {
                family: "path",
                n: 64,
                ratio: 1.5,
                exact: None,
                runs: vec![run("theorem1", 546), run("det-broadcast", 593)],
                ids: vec![3, 1, 4],
            },
            Row {
                family: "grid-2d",
                n: 1024,
                ratio: 12.25,
                exact: Some(7),
                runs: Vec::new(),
                ids: Vec::new(),
            },
        ];
        // Header in declaration order; strings left-aligned, the rest
        // right-aligned; `null` as `-`, arrays as `[N]`, one continuation
        // line per nested object.
        assert_eq!(
            render(&rows.to_value()),
            "family      n   ratio  exact  runs  ids\n\
             path       64   1.500      -   [2]  [3]\n\
             \x20   runs: algorithm=theorem1  rounds=546\n\
             \x20   runs: algorithm=det-broadcast  rounds=593\n\
             grid-2d  1024  12.250      7   [0]  [0]\n"
        );
        // A single object is a one-row table.
        assert_eq!(
            render(&rows[1].to_value()),
            "family      n   ratio  exact  runs  ids\n\
             grid-2d  1024  12.250      7   [0]  [0]\n"
        );
        assert_eq!(render(&Value::Array(Vec::new())), "");
    }

    #[test]
    fn rejects_surplus_positional_arguments() {
        let err = parse_args(&args(&["table1", "table2"])).unwrap_err();
        assert!(err.contains("unexpected argument 'table2'"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
}
