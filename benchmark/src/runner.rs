//! The measurement protocol: one run of one workload.
//!
//! Closed loop, one client, one process, rayon pool width 1 (pinned by
//! `main`).  Untraced run: set-up repeated, two warm-up passes, timed passes
//! for `--seconds` (at least [`MIN_TIMED_PASSES`]), final checks.  Traced
//! run: one traced set-up, then untraced and traced passes in turn, then the
//! probes.  `setup_s` and `pass_s` are medians of identical repetitions, each
//! scaled to the nominal clock by the probes beside it (see [`crate::clock`]).

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::clock::{self, Timing};
use crate::contract::{Contract, MetricDecl};
use crate::report::{
    in_declared_order, json_line, Check, DeterminismGuard, Metric, PassOutcome, RunResult,
};
use crate::spans::{self, Recorder, Span};
use crate::workloads::{median_time, Context, Instance, Workload};
use crate::{alloc, stats};

/// Fewest timed passes behind `pass_s`.
pub const MIN_TIMED_PASSES: usize = 20;
/// Set-up repetitions: at least this many …
const MIN_SETUPS: usize = 3;
/// … and until this much time has gone into them …
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// … but never more than this many.
const MAX_SETUPS: usize = 15;
const WARMUP_PASSES: usize = 2;
/// Traced passes (and untraced passes beside them) in a traced run.
const TRACED_PASSES: u32 = 5;

/// Command-line options of a run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seeds every generator and sampler.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Where the traced run writes spans and the layer summary.
    pub out_dir: PathBuf,
    /// What workloads need besides the seed.
    pub ctx: Context,
}

fn build(workload: &Workload, opts: &Options, rec: &mut Recorder) -> Box<dyn Instance> {
    (workload.build)(opts.seed, &opts.ctx, rec)
}

/// Puts the measured metrics in declaration order and settles `correct`.
fn finish(
    declared: &[MetricDecl],
    missing: f64,
    measured: Vec<Metric>,
    check: Check,
    guard: DeterminismGuard,
) -> RunResult {
    let deterministic = guard.findings.is_empty();
    let mut findings = guard.findings;
    findings.extend(check.messages.iter().cloned());
    RunResult {
        metrics: in_declared_order(declared, measured, missing).unwrap_or_else(|e| panic!("{e}")),
        attempted: check.ops,
        failed: check.failed,
        correct: check.failed == 0 && deterministic,
        findings,
        notes: Vec::new(),
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(workload: &Workload, contract: &Contract, opts: &Options) -> RunResult {
    let mut rec = Recorder::new(false);
    alloc::reset_peak();

    // Set-up, repeated; each repetition drops the previous instance first so
    // the high-water mark is that of one instance.
    let mut setups: Vec<Timing> = Vec::new();
    let mut instance: Option<Box<dyn Instance>> = None;
    let setups_started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups_started.elapsed() < SETUP_BUDGET)
    {
        drop(instance.take());
        let (built, timing) = clock::timed(|| build(workload, opts, &mut rec));
        setups.push(timing);
        instance = Some(built);
    }
    let mut instance = instance.expect("at least one set-up ran");

    for _ in 0..WARMUP_PASSES {
        instance.pass(&mut rec);
    }

    let mut passes: Vec<Timing> = Vec::new();
    let mut check = Check::default();
    let mut guard = DeterminismGuard::default();
    let mut last = PassOutcome::default();
    let mut allocs = 0;
    let passes_started = Instant::now();
    while passes.len() < MIN_TIMED_PASSES || passes_started.elapsed().as_secs_f64() < opts.seconds {
        let calls_before = alloc::calls();
        let (outcome, timing) = clock::timed(|| instance.pass(&mut rec));
        allocs = alloc::calls() - calls_before;
        passes.push(timing);
        check.absorb(&outcome.check);

        // Every exact number against the first timed pass.
        let mut exact = outcome.exact_values();
        if workload.exact_allocs {
            exact.push(("allocs_per_pass".to_string(), allocs as f64));
        }
        guard.observe(passes.len(), exact);
        last = outcome;
    }
    let peak = alloc::peak_bytes();

    let mut closing = PassOutcome {
        model: last.model,
        ..PassOutcome::default()
    };
    instance.final_checks(&mut closing);
    check.absorb(&closing.check);

    let calibrated =
        |timings: &[Timing]| -> Vec<f64> { timings.iter().map(Timing::calibrated_s).collect() };
    let (setup_s, pass_s) = (calibrated(&setups), calibrated(&passes));
    let wall: Vec<f64> = passes.iter().map(|t| t.wall_s).collect();
    let probes: Vec<f64> = passes.iter().map(|t| t.probe_s * 1e6).collect();
    let five = |v: &[f64]| {
        [0.0, 25.0, 50.0, 75.0, 100.0].map(|p| format!("{:.4}", stats::percentile(v, p)))
    };
    let notes = vec![
        format!("pass wall_s min/p25/p50/p75/max {}", five(&wall).join(" ")),
        format!(
            "pass_s      min/p25/p50/p75/max {}",
            five(&pass_s).join(" ")
        ),
        format!(
            "clock probe_us min/p25/p50/p75/max {} (nominal {})",
            five(&probes).join(" "),
            clock::NOMINAL_PROBE_S * 1e6
        ),
    ];
    let mut measured = vec![
        Metric::new("setup_s", stats::median(&setup_s), setup_s.len()),
        Metric::new("pass_s", stats::median(&pass_s), pass_s.len()),
        Metric::new("peak_alloc_bytes", peak as f64, 1),
        Metric::new("allocs_per_pass", allocs as f64, 1),
    ];
    measured.extend(
        closing
            .model
            .named()
            .into_iter()
            .filter_map(|(name, value)| value.map(|v| Metric::new(name, v, 1))),
    );
    // A model statistic a workload does not have prints the neutral 1.
    let mut result = finish(&contract.end_to_end, 1.0, measured, check, guard);
    result.notes = notes;
    result
}

/// Share of a traced pass covered by spans below the pass span itself.
fn pass_coverage(spans: &[Span]) -> f64 {
    let own = spans::self_times(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.layer == "pass")
        .map(|(s, own)| 1.0 - own as f64 / s.duration_ns().max(1) as f64)
        .fold(1.0, f64::min)
}

fn write_trace(opts: &Options, workload: &str, spans: &[Span], summary: &str) -> io::Result<()> {
    fs::create_dir_all(&opts.out_dir)?;
    let mut out = BufWriter::new(fs::File::create(
        opts.out_dir.join(format!("{workload}.spans.jsonl")),
    )?);
    spans::write_jsonl(spans, workload, &mut out)?;
    out.flush()?;
    fs::write(opts.out_dir.join(format!("{workload}.layers.txt")), summary)
}

/// The per-layer summary table: calls, total, self time and items.
pub fn layer_summary(spans: &[Span]) -> String {
    let mut text = format!(
        "# {:<40} {:>8} {:>12} {:>12} {:>14}\n",
        "layer.span", "calls", "total_s", "self_s", "items"
    );
    for ((layer, name), l) in spans::summarize(spans) {
        text.push_str(&format!(
            "# {:<40} {:>8} {:>12.6} {:>12.6} {:>14}\n",
            format!("{layer}.{name}"),
            l.calls,
            l.total_ns as f64 / 1e9,
            l.self_ns as f64 / 1e9,
            l.items
        ));
    }
    text
}

/// The traced run: every per-layer metric, the spans file and the summary.
/// Returns the result and the summary text.
pub fn run_traced(workload: &Workload, contract: &Contract, opts: &Options) -> (RunResult, String) {
    let mut rec = Recorder::new(true);
    let mut off = Recorder::new(false);

    let root = rec.begin("setup", "setup", "");
    let mut instance = build(workload, opts, &mut rec);
    rec.end(root, 0);
    instance.pass(&mut off);

    let mut check = Check::default();
    let mut guard = DeterminismGuard::default();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = PassOutcome::default();
    for pass in 1..=TRACED_PASSES {
        untraced_s.push(clock::timed(|| instance.pass(&mut off)).1.calibrated_s());
        rec.set_pass(pass);
        let (outcome, timing) = clock::timed(|| {
            let root = rec.begin("pass", "pass", "");
            let outcome = instance.pass(&mut rec);
            rec.end(root, 0);
            outcome
        });
        traced_s.push(timing.calibrated_s());
        check.absorb(&outcome.check);
        guard.observe(pass as usize, outcome.exact_values());
        last = outcome;
    }
    rec.set_pass(0);

    let mut measured = instance.layer_metrics(&mut rec, TRACED_PASSES);
    measured.extend(
        last.counters
            .iter()
            .map(|(name, value)| Metric::new(name.clone(), *value, 1)),
    );
    let spans = rec.spans();
    measured.push(Metric::new(
        "trace_overhead_ratio",
        stats::median(&traced_s) / stats::median(&untraced_s),
        traced_s.len(),
    ));
    measured.push(Metric::new(
        "trace_coverage",
        pass_coverage(spans),
        traced_s.len(),
    ));

    let summary = layer_summary(spans);
    if let Err(e) = write_trace(opts, workload.name, spans, &summary) {
        guard
            .findings
            .push(format!("could not write the trace: {e}"));
    }
    // A layer this workload does not reach did no work: 0.
    let mut result = finish(&contract.per_layer, 0.0, measured, check, guard);

    // The run's own result rows through the vendored serializer; the row
    // for this metric is among them, still at 0.
    let to_string_s = median_time(50, || {
        std::hint::black_box(json_line(&result, &contract.per_layer));
    });
    let row = result
        .metrics
        .iter_mut()
        .find(|m| m.name == "serde_json.to_string_s")
        .expect("serde_json.to_string_s is declared in BENCHMARK.json");
    *row = Metric::new("serde_json.to_string_s", to_string_s, 50);
    (result, summary)
}
