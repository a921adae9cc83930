//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions; nothing inside the crates is instrumented.
//! One thread records, so spans nest strictly and a span's children never
//! overlap.  With the recorder disabled [`Recorder::begin`] and
//! [`Recorder::end`] are a branch each, which is what the untraced run pays.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use serde::Value;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// The function or step the span surrounds.
    pub name: String,
    /// The module the time is attributed to (`dijkstra`, `scheduler`, …).
    pub layer: &'static str,
    /// Traced pass number (0 for probes that run after the passes).
    pub pass: u32,
    /// Which cell of the workload (family, placement, scenario, …).
    pub cell: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Work items the span covered (messages, queries, nodes, …).
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; give it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended keeps every later span as its child"]
pub struct Open(Option<u32>);

/// Records spans when enabled; otherwise does nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the pass number stamped on the spans that follow.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &str, cell: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            layer,
            pass: self.pass,
            cell: cell.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            items: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `open`.
    ///
    /// # Panics
    /// Panics if spans are closed out of order — a bug in the workload.
    pub fn end(&mut self, open: Open, items: u64) {
        let Some(id) = open.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.items = items;
    }

    /// Every closed span, in recording order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.stack.is_empty(), "a span is still open");
        &self.spans
    }
}

/// Totals over the spans of one `(layer, name)` pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSummary {
    /// Number of spans.
    pub calls: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times: duration minus the time covered by child
    /// spans.  Self times of all spans add up to the root spans' durations.
    pub self_ns: u64,
    /// Sum of their item counts.
    pub items: u64,
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] -= span.duration_ns();
        }
    }
    own
}

/// Groups spans by `(layer, name)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<(&'static str, &str), LayerSummary> {
    let own = self_times(spans);
    let mut layers: BTreeMap<(&'static str, &str), LayerSummary> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let entry = layers.entry((span.layer, span.name.as_str())).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
        entry.items += span.items;
    }
    layers
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], workload: &str, out: &mut impl Write) -> io::Result<()> {
    for span in spans {
        let row = Value::Object(vec![
            ("id".into(), Value::UInt(u64::from(span.id))),
            (
                "parent".into(),
                span.parent
                    .map_or(Value::Null, |p| Value::UInt(u64::from(p))),
            ),
            ("name".into(), Value::Str(span.name.clone())),
            ("layer".into(), Value::Str(span.layer.to_string())),
            ("workload".into(), Value::Str(workload.to_string())),
            ("pass".into(), Value::UInt(u64::from(span.pass))),
            ("cell".into(), Value::Str(span.cell.clone())),
            ("start_ns".into(), Value::UInt(span.start_ns)),
            ("end_ns".into(), Value::UInt(span.end_ns)),
            ("items".into(), Value::UInt(span.items)),
        ]);
        let text = serde_json::to_string(&row)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(out, "{text}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "f".to_string(),
            layer,
            pass: 1,
            cell: String::new(),
            start_ns: start,
            end_ns: end,
            items: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // pass [0,100) ⊃ a [10,60) ⊃ b [20,30); pass ⊃ c [70,90).
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(1), "b", 20, 30),
            span(3, Some(0), "b", 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let layers = summarize(&spans);
        assert_eq!(layers[&("pass", "f")].self_ns, 30);
        assert_eq!(layers[&("a", "f")].self_ns, 40);
        assert_eq!(layers[&("b", "f")].calls, 2);
        assert_eq!(layers[&("b", "f")].total_ns, 30);
        assert_eq!(layers[&("b", "f")].self_ns, 30);
        // Self times partition the root span.
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.set_pass(2);
        let outer = rec.begin("pass", "pass", "");
        let inner = rec.begin("dijkstra", "run", "grid");
        rec.end(inner, 7);
        rec.end(outer, 0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].pass, spans[1].items), (2, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        let open = off.begin("pass", "pass", "");
        off.end(open, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = vec![span(0, None, "pass", 0, 5), span(1, Some(0), "a", 1, 2)];
        let mut out = Vec::new();
        write_jsonl(&spans, "kssp", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"workload\":\"kssp\""));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"end_ns\":2"));
    }
}
