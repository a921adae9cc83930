//! `BENCHMARK.json`, read once: the metric and workload names the driver
//! expects.  The file is the only place a metric's unit is written down; the
//! binary looks units up here and refuses to print a metric the file does
//! not list.

use serde::Value;

/// The file as committed at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the binary needs.
#[derive(Debug, Clone)]
pub struct Contract {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<MetricDecl>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<MetricDecl>,
    /// Default length of the timed phase, seconds.
    pub run_seconds: u64,
}

fn strings(doc: &Value, list: &str, key: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: `{list}` must be an array"))
        .iter()
        .map(|entry| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{list}` entry without `{key}`"))
                .to_string()
        })
        .collect()
}

fn decls(doc: &Value, list: &str) -> Vec<MetricDecl> {
    strings(doc, list, "name")
        .into_iter()
        .zip(strings(doc, list, "unit"))
        .map(|(name, unit)| MetricDecl { name, unit })
        .collect()
}

impl Contract {
    /// Parses the embedded file.
    ///
    /// # Panics
    /// Panics if the committed file is malformed — a bug in this package,
    /// caught by its tests.
    pub fn load() -> Self {
        let doc = serde_json::value_from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Contract {
            workloads: strings(&doc, "workloads", "name"),
            end_to_end: decls(&doc, "end_to_end"),
            per_layer: decls(&doc, "per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("BENCHMARK.json: `run_seconds` must be a whole number"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn the_file_names_exactly_the_registered_workloads() {
        let contract = Contract::load();
        let registered: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(contract.workloads, registered);
    }

    #[test]
    fn names_are_unique_and_setup_s_is_declared() {
        let contract = Contract::load();
        let mut names: Vec<&str> = contract
            .end_to_end
            .iter()
            .chain(&contract.per_layer)
            .map(|m| m.name.as_str())
            .chain(contract.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(contract
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(contract.per_layer.len() <= 128 && contract.end_to_end.len() <= 16);
    }
}
