//! `reproduce` — regenerates the paper's tables and figures as round-count
//! tables, printing them in a paper-like layout and writing machine-readable
//! JSON into `results/`.  Every artifact is a pure function of (target,
//! `--quick`, seed): byte-identical from run to run and at every
//! `RAYON_NUM_THREADS`.  Wall-clock performance is not measured here — that
//! is `benchmark/run.sh`.
//!
//! ```text
//! cargo run --release -p hybrid-bench --bin reproduce -- [<target>|all] [--quick]
//! ```
//!
//! The targets are the rows of [`TARGETS`]; `all` (the default) runs every
//! row, in table order.  `--quick` shrinks the instance sizes so the full run
//! finishes in well under a minute (used by CI); without it the default
//! sizes are used.
//!
//! Exit codes: 0 — every selected target ran and wrote its artifact; 1 — an
//! artifact could not be written or failed validation; 2 — bad command line
//! (unknown targets *and unknown flags*, with the usage string: a typo like
//! `--qiuck` must not silently run the slow full suite).

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
use serde::Serialize;

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

/// Writes `results/<name>.json`.  Every failure is returned, naming its
/// path: an artifact generator must not exit 0 without its artifacts.
fn write_json<T: Serialize>(name: &str, rows: &T) -> io::Result<()> {
    let dir = Path::new("results");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(rows)
        .map_err(|err| at(&path, io::Error::new(io::ErrorKind::InvalidData, err)))?;
    fs::create_dir_all(dir).map_err(|err| at(dir, err))?;
    fs::write(&path, &json).map_err(|err| at(&path, err))?;
    println!("  (wrote {})", path.display());
    Ok(())
}

fn run_table1(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 256 } else { 1024 };
    let ks: Vec<u64> = if cli.quick {
        vec![16, 64, 256]
    } else {
        vec![16, 64, 256, 1024]
    };
    println!("\n=== Table 1: information dissemination (n = {n}) ===");
    println!(
        "{:<18}{:>6}{:>6}{:>8}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "family",
        "k",
        "NQ_k",
        "sqrt(k)",
        "bcast-UNIV",
        "bcast-BASE",
        "aggr-UNIV",
        "route-UNIV",
        "route-BASE",
        "lower-bnd"
    );
    let rows = table1_rows(&Grid::new(GraphFamily::all(), &[n], 0xC0FFEE), &ks);
    for r in &rows {
        println!(
            "{:<18}{:>6}{:>6}{:>8}{:>12}{:>12}{:>12}{:>12}{:>12}{:>10.2}",
            r.family,
            r.k,
            r.nq,
            r.sqrt_k,
            r.dissemination_universal,
            r.dissemination_baseline,
            r.aggregation_universal,
            r.routing_universal,
            r.routing_baseline,
            r.lower_bound
        );
    }
    write_json("table1_dissemination", &rows)?;
    Ok(())
}

fn run_table2(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 144 } else { 400 };
    println!("\n=== Table 2: APSP (n = {n}) ===");
    println!(
        "{:<14}{:>6}{:>7}{:>8}{:>11}{:>9}{:>11}{:>11}{:>9}{:>11}{:>9}{:>10}{:>10}",
        "family",
        "n",
        "NQ_n",
        "sqrt(n)",
        "T6-UNIV",
        "T6-str",
        "T6-BASE",
        "T7-UNIV",
        "T7-str",
        "T8-UNIV",
        "T8-str",
        "lit-sqrt",
        "lower-bnd"
    );
    let rows = table2_rows(&Grid::new(GraphFamily::core_families(), &[n], 0xBEEF));
    for r in &rows {
        println!(
            "{:<14}{:>6}{:>7}{:>8}{:>11}{:>9.3}{:>11}{:>11}{:>9.3}{:>11}{:>9.3}{:>10}{:>10.2}",
            r.family,
            r.n,
            r.nq_n,
            r.sqrt_n,
            r.unweighted_universal,
            r.unweighted_stretch,
            r.unweighted_baseline,
            r.weighted_spanner_universal,
            r.weighted_spanner_stretch,
            r.weighted_skeleton_universal,
            r.weighted_skeleton_stretch,
            r.literature_sqrt_n,
            r.lower_bound
        );
    }
    write_json("table2_apsp", &rows)?;
    Ok(())
}

fn run_table3(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 196 } else { 400 };
    let ks: Vec<u64> = if cli.quick {
        vec![16, 64]
    } else {
        vec![16, 64, 144]
    };
    println!("\n=== Table 3: (k, l)-shortest paths (n = {n}) ===");
    println!(
        "{:<14}{:>6}{:>5}{:>6}{:>8}{:>10}{:>9}{:>10}{:>10}",
        "family", "k", "l", "NQ_k", "sqrt(k)", "T5-UNIV", "stretch", "baseline", "lower-bnd"
    );
    let rows = table3_rows(&Grid::new(GraphFamily::core_families(), &[n], 0xFACE), &ks);
    for r in &rows {
        println!(
            "{:<14}{:>6}{:>5}{:>6}{:>8}{:>10}{:>9.3}{:>10}{:>10.2}",
            r.family, r.k, r.l, r.nq, r.sqrt_k, r.universal, r.stretch, r.baseline, r.lower_bound
        );
    }
    write_json("table3_klsp", &rows)?;
    Ok(())
}

fn run_table4(cli: &Cli) -> io::Result<()> {
    let sizes: Vec<usize> = if cli.quick {
        vec![64, 256, 1024]
    } else {
        vec![64, 256, 1024, 4096]
    };
    println!("\n=== Table 4: SSSP ===");
    println!(
        "{:<18}{:>7}{:>10}{:>10}{:>12}{:>10}{:>10}{:>10}",
        "family", "n", "T13-ours", "stretch", "KS20-sqrt", "CHLP21", "AHK20", "AG21"
    );
    let families = [
        GraphFamily::Grid2D,
        GraphFamily::ErdosRenyi,
        GraphFamily::Path,
    ];
    let rows = table4_rows(&Grid::new(&families, &sizes, 0xDEAD));
    for r in &rows {
        println!(
            "{:<18}{:>7}{:>10}{:>10.3}{:>12}{:>10}{:>10}{:>10}",
            r.family,
            r.n,
            r.theorem13,
            r.theorem13_stretch,
            r.ks20_sqrt_n,
            r.chlp21,
            r.ahk20,
            r.ag21
        );
    }
    write_json("table4_sssp", &rows)?;
    Ok(())
}

fn run_figure1(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 512 } else { 1024 };
    let betas = [0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 5.0 / 6.0, 1.0];
    println!("\n=== Figure 1: k-SSP landscape (k = n^beta, n = {n}) ===");
    println!(
        "{:<8}{:>8}{:>12}{:>10}{:>12}{:>12}{:>12}",
        "beta", "k", "new(T14)", "delta", "prior", "prior-delta", "lower-bnd"
    );
    let rows = figure1_rows(n, &betas, 0xF16);
    for r in &rows {
        println!(
            "{:<8.3}{:>8}{:>12}{:>10.3}{:>12}{:>12.3}{:>12}",
            r.beta,
            r.k,
            r.new_algorithm,
            r.new_delta,
            r.prior_algorithm,
            r.prior_delta,
            r.lower_bound
        );
    }
    write_json("figure1_kssp", &rows)?;
    Ok(())
}

fn run_appendix_b(cli: &Cli) -> io::Result<()> {
    let n = if cli.quick { 512 } else { 2048 };
    let ks: Vec<u64> = vec![16, 64, 256, 1024, 4096];
    println!("\n=== Appendix B / Theorems 15-17: NQ_k on special families (n ~ {n}) ===");
    println!(
        "{:<12}{:>7}{:>6}{:>7}{:>10}{:>11}  formula",
        "family", "n", "D", "k", "measured", "predicted"
    );
    let rows = appendix_b_rows(n, &ks, 0xAB);
    for r in &rows {
        println!(
            "{:<12}{:>7}{:>6}{:>7}{:>10}{:>11.2}  {}",
            r.family, r.n, r.diameter, r.k, r.measured, r.predicted, r.formula
        );
    }
    write_json("appendix_b_nq", &rows)?;
    Ok(())
}

/// Every cell is a *shootout*: each registry algorithm runs on the same
/// instance and is printed next to the same lower-bound witness.  An artifact
/// that fails [`check_sweep_artifact`] is an error.
fn run_sweep(cli: &Cli) -> io::Result<()> {
    let config = if cli.quick {
        SweepConfig::quick()
    } else {
        SweepConfig::full()
    };
    println!(
        "\n=== Scaling sweep: algorithm shootout vs. per-instance lower bound ({} families x {} sizes x {} (lambda, gamma) points) ===",
        config.grid.families.len(),
        config.grid.sizes.len(),
        config.points.len()
    );
    let rows = sweep_rows(&config);
    println!(
        "{:<18}{:>6} {:<14}{:>6}{:>7}{:>7}{:>10}{:>12}{:>7}{:>8}",
        "family", "n", "point", "gamma", "k", "NQ_k", "diss-LB", "sssp(T13)", "kssp-k", "kssp-LB"
    );
    for r in &rows {
        println!(
            "{:<18}{:>6} {:<14}{:>6}{:>7}{:>7}{:>10.2}{:>7}/{:<4.2}{:>7}{:>8}",
            r.family,
            r.n,
            r.point,
            r.gamma_msgs,
            r.k,
            r.nq_k,
            r.dissemination_lower_bound,
            r.sssp_rounds,
            r.sssp_ratio,
            r.kssp_k,
            r.kssp_lower_bound
        );
        let diss: Vec<String> = r
            .dissemination
            .iter()
            .map(|c| format!("{}={} ({:.2}x)", c.algorithm, c.rounds, c.ratio))
            .collect();
        let ks: Vec<String> = r
            .kssp
            .iter()
            .map(|c| {
                format!(
                    "{}={} ({:.2}x, stretch {:.2})",
                    c.algorithm, c.rounds, c.ratio, c.stretch
                )
            })
            .collect();
        println!("    diss: {}", diss.join("  "));
        println!("    kssp: {}", ks.join("  "));
    }
    write_json("sweep_scaling", &rows)?;
    check_sweep_artifact(&rows)
}

/// Holds the shootout just written to [`check_shootout`].
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
    println!(
        "\n=== Scale tier: streamed sweep at n up to {} ({} families x {} sizes, |S| = {} sources, {} NQ samples) ===",
        config.grid.sizes.iter().max().copied().unwrap_or(0),
        config.grid.families.len(),
        config.grid.sizes.len(),
        config.sources,
        config.nq_samples
    );
    println!(
        "{:<14}{:>9}{:>11}{:>6}{:>8}{:>7}{:>7}{:>9}{:>11}{:>10}{:>8}{:>9}{:>8}{:>8}{:>9}{:>10}",
        "family",
        "n",
        "m",
        "gamma",
        "NQ-est",
        "conf",
        "exact",
        "diss-rnd",
        "diss-LB",
        "ratio",
        "k-rnds",
        "k-LB",
        "ratio",
        "stretch",
        "peakMiB",
        "rows/n2"
    );
    let rows = scale_rows(&config);
    for r in &rows {
        let full_matrix = (r.n as f64) * (r.n as f64) * 8.0;
        println!(
            "{:<14}{:>9}{:>11}{:>6}{:>8}{:>7.3}{:>7}{:>9}{:>11.2}{:>10.2}{:>8}{:>9}{:>8.2}{:>8.3}{:>9.1}{:>10.6}",
            r.family,
            r.n,
            r.m,
            r.gamma_msgs,
            r.nq_estimate,
            r.nq_confidence,
            r.nq_exact.map_or_else(|| "-".to_string(), |v| v.to_string()),
            r.dissemination_modeled_rounds,
            r.dissemination_lower_bound,
            r.dissemination_ratio,
            r.kssp_rounds,
            r.kssp_lower_bound,
            r.kssp_ratio,
            r.kssp_stretch_worst,
            r.peak_mem_bytes as f64 / (1024.0 * 1024.0),
            r.distance_rows_mem_bytes as f64 / full_matrix
        );
    }
    write_json("sweep_scale", &rows)?;
    Ok(())
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
    println!(
        "\n=== Oracle serving: {}x{} weighted grid, {} batches x {} queries ===",
        config.dims.0, config.dims.1, config.batches, config.batch_size
    );
    let answers = oracle_bench_rows(&config);
    println!(
        "{:<10}{:>10}{:>9}{:>22}{:>20}",
        "n", "landmarks", "stretch", "answer-sum", "path-digest"
    );
    println!(
        "{:<10}{:>10}{:>9.1}{:>22}{:>20x}",
        answers.n,
        answers.landmarks.len(),
        answers.stretch,
        answers.answer_sum,
        answers.path_digest
    );
    write_json("oracle_answers", &answers)?;
    Ok(())
}

fn run_faults(cli: &Cli) -> io::Result<()> {
    let config = if cli.quick {
        FaultSweepConfig::quick()
    } else {
        FaultSweepConfig::full()
    };
    println!(
        "\n=== Fault sweep: degradation factors under a seeded adversary ({} families x {} sizes x {} profiles) ===",
        config.grid.families.len(),
        config.grid.sizes.len(),
        config.profiles.len()
    );
    println!(
        "{:<14}{:>6} {:<9}{:>6}{:>6}{:>6}{:>6} {:>5}{:>9}{:>8}{:>9}{:>6}{:>9}{:>8}{:>9}",
        "family",
        "n",
        "profile",
        "drop",
        "dup",
        "delay",
        "crash",
        "ok",
        "ack-rnds",
        "ack-deg",
        "ack-msgx",
        "k",
        "T1-rnds",
        "T1-deg",
        "T1-msgx"
    );
    let rows = fault_sweep_rows(&config);
    for r in &rows {
        println!(
            "{:<14}{:>6} {:<9}{:>6.2}{:>6.2}{:>6.2}{:>6.2} {:>5}{:>9}{:>8.2}{:>9.2}{:>6}{:>9}{:>8.2}{:>9.2}",
            r.family,
            r.n,
            r.profile,
            r.drop_prob,
            r.duplicate_prob,
            r.delay_prob,
            r.crash_prob,
            if r.ack_completed { "yes" } else { "NO" },
            r.ack_rounds,
            r.ack_degradation,
            r.ack_message_overhead,
            r.k,
            r.diss_rounds,
            r.diss_degradation,
            r.diss_message_overhead
        );
    }
    write_json("sweep_faults", &rows)?;
    Ok(())
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
    for target in TARGETS.iter().filter(is_selected) {
        let start = Instant::now();
        if let Err(err) = (target.run)(&cli) {
            eprintln!("reproduce {}: {err}", target.name);
            std::process::exit(1);
        }
        // Console information only; performance is measured by `benchmark/`.
        println!(
            "  [{}: {:.1} ms]",
            target.name,
            start.elapsed().as_secs_f64() * 1e3
        );
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
    fn sweep_artifact_gate_counts_malformed_artifacts_under_strict() {
        let config = SweepConfig {
            grid: Grid::new(&[GraphFamily::Path], &[64], 1),
            points: vec![hybrid_bench::SweepPoint::HYBRID],
        };
        // A well-formed shootout passes: the full registry in both columns.
        let good = sweep_rows(&config);
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

    #[test]
    fn rejects_surplus_positional_arguments() {
        let err = parse_args(&args(&["table1", "table2"])).unwrap_err();
        assert!(err.contains("unexpected argument 'table2'"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
}
