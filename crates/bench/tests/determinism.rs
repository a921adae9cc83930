//! Thread-count invariance of the table/figure pipelines.
//!
//! The reproduction's contract (README "Reproducibility", CONCURRENCY.md
//! "Determinism") is that every table row is a pure function of its seed:
//! the work-stealing executor may split and steal chunks differently on
//! every run, but the stitched output must be **bit-identical** to the
//! sequential execution for every pool width.  These tests run the actual
//! scenario pipelines — including the nested regions the executor now runs
//! in parallel (per-anchor skeleton SSSPs and `(min,+)` tiles under the
//! scenario fan-out) — on explicit pools of 1, 2, 4 and 8 threads and
//! compare the serialized rows byte for byte.

use hybrid_bench::faults_sweep::{fault_sweep_rows, FaultSweepConfig};
use hybrid_bench::grid::{fan_out, GraphFamily, Grid};
use hybrid_bench::scale::{scale_rows, ScaleConfig};
use hybrid_bench::scenarios::{figure1_rows, table1_rows, table2_rows};
use hybrid_bench::sweep::{sweep_rows, SweepConfig};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

/// Pool widths the determinism sweep covers (1 = the sequential reference).
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn on_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(f)
}

#[test]
fn table_pipelines_bit_identical_across_pool_sizes() {
    let run = || {
        let t1 = table1_rows(
            &Grid::new(&[GraphFamily::Grid2D, GraphFamily::Path], &[96], 7),
            &[16, 32],
        );
        let t2 = table2_rows(&Grid::new(
            &[GraphFamily::Grid2D, GraphFamily::BinaryTree],
            &[81],
            3,
        ));
        let mut blob = serde_json::to_string_pretty(&t1).unwrap();
        blob.push_str(&serde_json::to_string_pretty(&t2).unwrap());
        blob
    };
    let reference = on_pool(1, run);
    for threads in &WIDTHS[1..] {
        let got = on_pool(*threads, run);
        assert_eq!(got, reference, "table rows diverged at {threads} threads");
    }
}

#[test]
fn figure1_pipeline_bit_identical_across_pool_sizes() {
    // Figure 1 exercises the deepest nesting: the per-β fan-out wraps the
    // Theorem 14 data level (skeleton sweeps, per-anchor coefficient rows,
    // the (min,+) kernel), all of which are parallel regions themselves.
    let run = || serde_json::to_string_pretty(&figure1_rows(128, &[0.25, 0.5, 0.75], 2)).unwrap();
    let reference = on_pool(1, run);
    for threads in &WIDTHS[1..] {
        let got = on_pool(*threads, run);
        assert_eq!(got, reference, "figure1 rows diverged at {threads} threads");
    }
}

#[test]
fn sweep_quick_rows_bit_identical_across_pool_sizes() {
    // The exact `reproduce sweep --quick` grid (every family × 3 sizes ×
    // 3 (λ, γ) points): the per-(family, n) fan-out shares one graph and
    // oracle across grid points, so this also pins that the point loop stays
    // inside its cell's RNG streams at every pool width.
    let run = || serde_json::to_string_pretty(&sweep_rows(&SweepConfig::quick())).unwrap();
    let reference = on_pool(1, run);
    for threads in &WIDTHS[1..] {
        let got = on_pool(*threads, run);
        assert_eq!(got, reference, "sweep rows diverged at {threads} threads");
    }
}

#[test]
fn scale_rows_bit_identical_across_pool_sizes() {
    // The scale tier composes the streaming generators (parallel chunked
    // edge emission with canonical per-chunk streams), the parallel
    // `DistanceRows` fan-out and the sampled `NQ` oracle — every one of
    // which must be worker-schedule-invariant for `results/sweep_scale.json`
    // to survive the CI cross-thread diff.  A shrunk grid over the random
    // families (the only ones whose generators consume RNG streams) plus a
    // deterministic one keeps this fast.
    let run = || {
        let families = [
            GraphFamily::Grid2D,
            GraphFamily::ErdosRenyi,
            GraphFamily::RandomGeometric,
            GraphFamily::ChungLu,
        ];
        let config = ScaleConfig {
            grid: Grid::new(&families, &[512, 2048], 0x5CA1E),
            sources: 8,
            nq_samples: 16,
            exact_crosscheck_max: 512,
        };
        serde_json::to_string_pretty(&scale_rows(&config)).unwrap()
    };
    let reference = on_pool(1, run);
    for threads in &WIDTHS[1..] {
        let got = on_pool(*threads, run);
        assert_eq!(got, reference, "scale rows diverged at {threads} threads");
    }
}

#[test]
fn fault_sweep_rows_bit_identical_across_pool_sizes() {
    // The fault plane's decisions are pure hashes of a seeded key, so the
    // adversary itself must be thread-invariant: the same seed has to drop,
    // duplicate, delay and crash exactly the same messages whether the
    // per-cell fan-out runs on 1 worker or 8.  A shrunk grid (one size, the
    // failure-free reference plus a drop and the combined chaos profile)
    // keeps this fast while still exercising every fault class.
    let run = || {
        let config = FaultSweepConfig {
            grid: Grid::new(GraphFamily::core_families(), &[48], 0xFA17),
            profiles: FaultSweepConfig::quick()
                .profiles
                .into_iter()
                .filter(|p| matches!(p.name, "none" | "drop-35" | "chaos"))
                .collect(),
            max_rounds: 50_000,
        };
        serde_json::to_string_pretty(&fault_sweep_rows(&config)).unwrap()
    };
    let reference = on_pool(1, run);
    for threads in &WIDTHS[1..] {
        let got = on_pool(*threads, run);
        assert_eq!(
            got, reference,
            "fault sweep rows diverged at {threads} threads"
        );
    }
}

#[test]
fn skewed_chunk_costs_force_steals_without_changing_output() {
    // A synthetic nested pipeline with deliberately skewed per-item cost:
    // the first outer item does ~1000x the work of the rest, so its worker
    // stalls while thieves drain (and re-split) the tail — the shape that
    // maximizes steal traffic.  The outer loop is `grid::fan_out`, the one
    // fan-out every experiment runs through, and items emit a varying number
    // of rows so the stitch is exercised too.  The output must not care.
    let work = |i: u64, rounds: u64| (0..rounds).fold(i, |a, b| a.wrapping_add(a ^ b));
    let items: Vec<u64> = (0..64).collect();
    let run = || {
        fan_out(&items, |&i| {
            let rounds = if i == 0 { 100_000 } else { 100 };
            // Nested region: an inner fan-out per outer item.
            let inner: Vec<u64> = (0u64..32)
                .into_par_iter()
                .with_min_len(1)
                .map(|j| work(i * 32 + j, rounds))
                .collect();
            let sum = inner.into_iter().fold(0u64, |a, b| a.wrapping_add(b));
            vec![sum; 1 + (i % 3) as usize]
        })
    };
    let reference = on_pool(1, run);
    for threads in &WIDTHS[1..] {
        let got = on_pool(*threads, run);
        assert_eq!(
            got, reference,
            "skewed fan-out diverged at {threads} threads"
        );
    }
}
