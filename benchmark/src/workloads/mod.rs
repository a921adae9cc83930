//! The six workloads.
//!
//! A workload is a function that builds an [`Instance`] from a seed (the
//! set-up, timed as `setup_s`) and an instance that runs one pass over its
//! fixed operation list (timed as `pass_s`).  The crates receive only the
//! generated inputs.  Every call into a crate is wrapped in a span; the
//! recorder is disabled in the untraced run.

use std::path::PathBuf;
use std::time::Instant;

use crate::report::{Metric, PassOutcome};
use crate::spans::{Recorder, Span};

pub mod dissemination;
pub mod engine;
pub mod fleet;
pub mod kssp;
pub mod scale;
pub mod serve;

/// What a workload needs from the command line besides its seed.
#[derive(Debug, Clone, Default)]
pub struct Context {
    /// The `hybrid-node` executable the `fleet` workload spawns.
    pub node_bin: Option<PathBuf>,
}

/// A built workload instance.
pub trait Instance {
    /// Runs the workload's fixed operation list once and verifies outputs.
    fn pass(&mut self, rec: &mut Recorder) -> PassOutcome;

    /// Checks too slow for every pass; run once after the timed passes.
    /// May set model statistics the passes leave `None`.
    fn final_checks(&mut self, _outcome: &mut PassOutcome) {}

    /// Traced run only, after the traced passes: probes the layers a
    /// pipeline calls internally on inputs taken from this instance, then
    /// derives the workload's per-layer metrics from `rec`'s spans.
    fn layer_metrics(&mut self, rec: &mut Recorder, traced_passes: u32) -> Vec<Metric>;
}

/// Builds an instance: the set-up that `setup_s` times.
pub type Build = fn(seed: u64, ctx: &Context, rec: &mut Recorder) -> Box<dyn Instance>;

/// A registered workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The set-up.
    pub build: Build,
    /// Whether `allocs_per_pass` repeats bit-for-bit (false where threads of
    /// this process allocate concurrently).
    pub exact_allocs: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> &'static [Workload] {
    &[
        Workload {
            name: "dissemination",
            build: dissemination::build,
            exact_allocs: true,
        },
        Workload {
            name: "kssp",
            build: kssp::build,
            exact_allocs: true,
        },
        Workload {
            name: "scale",
            build: scale::build,
            exact_allocs: true,
        },
        Workload {
            name: "serve",
            build: serve::build,
            exact_allocs: true,
        },
        Workload {
            name: "engine",
            build: engine::build,
            exact_allocs: true,
        },
        Workload {
            name: "fleet",
            build: fleet::build,
            exact_allocs: false,
        },
    ]
}

/// Seconds per traced pass spent in spans `(layer, name)`.
pub(crate) fn per_pass_s(spans: &[Span], layer: &str, name: &str, passes: u32) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.pass > 0 && s.layer == layer && s.name == name)
        .map(Span::duration_ns)
        .sum();
    ns as f64 / 1e9 / f64::from(passes.max(1))
}

/// Seconds spent in set-up or probe spans `(layer, name)` (pass 0), and the
/// items they covered.
pub(crate) fn outside_pass(spans: &[Span], layer: &str, name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.pass == 0 && s.layer == layer && s.name == name)
        .fold((0.0, 0), |(secs, items), s| {
            (secs + s.duration_ns() as f64 / 1e9, items + s.items)
        })
}

/// `items / seconds`, or 0 when nothing was timed.
pub(crate) fn rate(items: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        items as f64 / seconds
    } else {
        0.0
    }
}

/// Median wall time of `reps` calls of `f`, for probes.
pub(crate) fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}
