//! What a pass reports and how a run prints it.

use serde::Value;

use crate::contract::MetricDecl;

/// One printed number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (timed passes for a median, 1 for a count).
    pub samples: usize,
}

impl Metric {
    /// A metric with its sample count.
    pub fn new(name: impl Into<String>, value: f64, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            samples,
        }
    }
}

/// Output verification: checked operations and how many of them failed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Check {
    /// Operations whose output was checked (`ops`).
    pub ops: u64,
    /// Operations whose output was wrong (`failed_ops`).
    pub failed: u64,
    /// Description of the first few failures.
    pub messages: Vec<String>,
}

/// Failure descriptions kept per run; the counts are never capped.
const MAX_MESSAGES: usize = 8;

impl Check {
    /// Counts one checked operation; `describe` runs only on failure.
    pub fn expect(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(describe());
            }
        }
    }

    /// Counts one checked operation from a `Result`.
    pub fn expect_ok<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) {
        match result {
            Ok(_) => self.expect(true, String::new),
            Err(e) => self.expect(false, || format!("{what}: {e}")),
        }
    }

    /// Adds another check's counts and (up to the cap) its descriptions.
    pub fn absorb(&mut self, other: &Check) {
        self.ops += other.ops;
        self.failed += other.failed;
        let room = MAX_MESSAGES.saturating_sub(self.messages.len());
        self.messages
            .extend(other.messages.iter().take(room).cloned());
    }
}

/// The model-time statistics of one pass.  `None` where the workload has no
/// such quantity (a serving workload simulates no rounds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Model {
    /// Simulated HYBRID rounds of the paper's own contenders.
    pub sim_rounds: Option<u64>,
    /// Worst measured rounds ÷ per-instance lower-bound witness.
    pub ratio_max: Option<f64>,
    /// Delivered local + global messages ÷ tokens disseminated.
    pub msgs_per_token: Option<f64>,
    /// Worst answer ÷ exact distance.
    pub stretch_max: Option<f64>,
}

impl Model {
    /// The four statistics by their metric names.
    pub fn named(&self) -> [(&'static str, Option<f64>); 4] {
        [
            ("sim_rounds", self.sim_rounds.map(|r| r as f64)),
            ("ratio_max", self.ratio_max),
            ("msgs_per_token", self.msgs_per_token),
            ("stretch_max", self.stretch_max),
        ]
    }
}

/// Everything one pass hands back to the runner.  All of it must repeat
/// bit-for-bit from pass to pass at a fixed seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutcome {
    /// Model-time statistics (end-to-end metrics).
    pub model: Model,
    /// Exact per-layer counters, by metric name.
    pub counters: Vec<(String, f64)>,
    /// Output verification of the pass.
    pub check: Check,
}

impl PassOutcome {
    /// Adds an exact per-layer counter.
    pub fn counter(&mut self, name: impl Into<String>, value: f64) {
        self.counters.push((name.into(), value));
    }

    /// Every exact number of the pass, by name, for the determinism guard.
    pub fn exact_values(&self) -> Vec<(String, f64)> {
        let mut values: Vec<(String, f64)> = self
            .model
            .named()
            .into_iter()
            .filter_map(|(name, v)| v.map(|v| (name.to_string(), v)))
            .collect();
        values.extend(self.counters.iter().cloned());
        values.push(("ops".to_string(), self.check.ops as f64));
        values.push(("failed_ops".to_string(), self.check.failed as f64));
        values
    }
}

/// Determinism guard: holds the exact numbers of the first pass it sees and
/// collects every difference a later pass shows.
#[derive(Debug, Default)]
pub struct DeterminismGuard {
    first: Option<Vec<(String, f64)>>,
    /// One line per difference found so far.
    pub findings: Vec<String>,
}

impl DeterminismGuard {
    /// Compares pass number `pass` (1-based) against pass 1.
    pub fn observe(&mut self, pass: usize, exact: Vec<(String, f64)>) {
        match &self.first {
            None => self.first = Some(exact),
            Some(first) => self
                .findings
                .extend(exact_differences(1, first, pass, &exact)),
        }
    }
}

/// Compares the exact numbers of pass `pass` against those of pass
/// `reference_pass`.  Returns one line per difference, naming both passes
/// and both values.
pub fn exact_differences(
    reference_pass: usize,
    reference: &[(String, f64)],
    pass: usize,
    values: &[(String, f64)],
) -> Vec<String> {
    let mut lines = Vec::new();
    if reference.len() != values.len() {
        lines.push(format!(
            "pass {reference_pass} reported {} exact values, pass {pass} reported {}",
            reference.len(),
            values.len()
        ));
        return lines;
    }
    for ((name, a), (other, b)) in reference.iter().zip(values) {
        // Bit comparison: an exact metric repeats or it does not.
        if name != other || a.to_bits() != b.to_bits() {
            lines.push(format!(
                "{name}: pass {reference_pass} = {a}, pass {pass} = {b} ({other})"
            ));
        }
    }
    lines
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The metrics of the run, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Checked operations over all passes and final checks.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// `failed == 0` and the determinism guard found nothing.
    pub correct: bool,
    /// Failure descriptions and determinism-guard findings.
    pub findings: Vec<String>,
    /// Diagnostics printed beside the metrics (never part of the JSON).
    pub notes: Vec<String>,
}

/// Arranges `measured` in declaration order.  A declared metric the workload
/// did not measure prints `missing`; an undeclared one is an error.
pub fn in_declared_order(
    declared: &[MetricDecl],
    measured: Vec<Metric>,
    missing: f64,
) -> Result<Vec<Metric>, String> {
    for m in &measured {
        if !declared.iter().any(|d| d.name == m.name) {
            return Err(format!("metric `{}` is not in BENCHMARK.json", m.name));
        }
    }
    Ok(declared
        .iter()
        .map(|d| {
            measured
                .iter()
                .find(|m| m.name == d.name)
                .cloned()
                .unwrap_or_else(|| Metric::new(d.name.clone(), missing, 0))
        })
        .collect())
}

fn unit_of<'a>(declared: &'a [MetricDecl], name: &str) -> &'a str {
    declared
        .iter()
        .find(|d| d.name == name)
        .map_or("", |d| d.unit.as_str())
}

/// The `name value unit (n=samples)` lines of a run.  Metrics the workload
/// does not measure are listed only if `list_unmeasured` (the JSON line
/// always carries them).
pub fn text_lines(
    result: &RunResult,
    declared: &[MetricDecl],
    list_unmeasured: bool,
) -> Vec<String> {
    let mut lines: Vec<String> = result
        .metrics
        .iter()
        .filter(|m| list_unmeasured || m.samples > 0)
        .map(|m| {
            let unit = unit_of(declared, &m.name);
            if m.samples == 0 {
                format!("{} {} {unit} (n/a on this workload)", m.name, m.value)
            } else {
                format!("{} {} {unit} (n={})", m.name, m.value, m.samples)
            }
        })
        .collect();
    lines.push(format!(
        "failed_ops {} count (of ops={})",
        result.failed, result.attempted
    ));
    lines
}

/// The one-line JSON object the driver reads.
pub fn json_line(result: &RunResult, declared: &[MetricDecl]) -> String {
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    (
                        "unit".to_string(),
                        Value::Str(unit_of(declared, &m.name).to_string()),
                    ),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".to_string(), Value::Bool(result.correct)),
        ("attempted".to_string(), Value::UInt(result.attempted)),
        ("failed".to_string(), Value::UInt(result.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("a Value tree always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str, unit: &str) -> MetricDecl {
        MetricDecl {
            name: name.to_string(),
            unit: unit.to_string(),
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let declared = [decl("pass_s", "s"), decl("sim_rounds", "rounds")];
        let result = RunResult {
            metrics: vec![
                Metric::new("pass_s", 0.4913, 25),
                Metric::new("sim_rounds", 1234.0, 1),
            ],
            attempted: 40,
            failed: 0,
            correct: true,
            findings: Vec::new(),
            notes: Vec::new(),
        };
        let line = json_line(&result, &declared);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":40,\"failed\":0,\"metrics\":{\
             \"pass_s\":{\"value\":0.4913,\"unit\":\"s\"},\
             \"sim_rounds\":{\"value\":1234.0,\"unit\":\"rounds\"}}}"
        );
        let back = serde_json::value_from_str(&line).unwrap();
        assert_eq!(back.get("attempted").and_then(Value::as_u64), Some(40));
        let text = text_lines(&result, &declared, true);
        assert_eq!(text[0], "pass_s 0.4913 s (n=25)");
        assert_eq!(text[2], "failed_ops 0 count (of ops=40)");
    }

    #[test]
    fn declared_order_fills_gaps_and_rejects_strangers() {
        let declared = [decl("a", "s"), decl("b", "count")];
        let got = in_declared_order(&declared, vec![Metric::new("b", 2.0, 1)], 0.0).unwrap();
        assert_eq!(got[0], Metric::new("a", 0.0, 0));
        assert_eq!(got[1], Metric::new("b", 2.0, 1));
        assert!(in_declared_order(&declared, vec![Metric::new("c", 1.0, 1)], 0.0).is_err());
    }

    #[test]
    fn guard_names_the_passes_and_both_values() {
        let a = vec![("sim_rounds".to_string(), 10.0), ("ops".to_string(), 4.0)];
        let b = vec![("sim_rounds".to_string(), 11.0), ("ops".to_string(), 4.0)];
        assert!(exact_differences(1, &a, 2, &a).is_empty());
        let mut guard = DeterminismGuard::default();
        guard.observe(1, a.clone());
        guard.observe(2, a.clone());
        assert!(guard.findings.is_empty());
        guard.observe(7, b.clone());
        assert_eq!(guard.findings, exact_differences(1, &a, 7, &b));
        let lines = exact_differences(1, &a, 7, &b);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("sim_rounds") && lines[0].contains("pass 1 = 10"));
        assert!(lines[0].contains("pass 7 = 11"));
    }

    #[test]
    fn check_counts_failures_against_attempts() {
        let mut check = Check::default();
        check.expect(true, || unreachable!());
        check.expect(false, || "answer 9 below distance 10".to_string());
        check.expect_ok("verify", Err::<(), _>("boom"));
        assert_eq!((check.ops, check.failed), (3, 2));
        assert_eq!(check.messages[1], "verify: boom");
    }
}
