//! Round and message accounting shared by both simulation styles.

use serde::{Deserialize, Serialize};

/// Which communication mode a phase used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Local communication along graph edges (unlimited bandwidth).
    Local,
    /// Global (NCC-style) communication under per-node capacity.
    Global,
    /// Purely local computation / bookkeeping charged a fixed number of rounds
    /// (e.g. simulating an oracle whose round cost is known).
    Charged,
}

/// One entry of the execution trace.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct PhaseRecord {
    /// The phase's label (e.g. `"clustering/ruling-set"`): a literal at the
    /// charging call site, so it doubles as a stable phase id and recording a
    /// phase allocates nothing.
    pub label: &'static str,
    /// Communication mode.
    pub kind: PhaseKind,
    /// Rounds consumed by the phase.
    pub rounds: u64,
    /// Messages sent during the phase (`O(log n)`-bit units for global
    /// phases; edge-message count for local phases).
    pub messages: u64,
    /// Delivery attempts dropped during the phase — γ receive-cap overflow or
    /// injected message loss (zero in failure-free runs by construction).
    pub dropped: u64,
    /// Extra message copies delivered by fault-injected duplication.
    pub duplicated: u64,
    /// Delivery attempts held back by fault-injected delay.
    pub delayed: u64,
}

/// Accumulates the cost of an algorithm execution: total rounds, message
/// counters and a per-phase trace.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CostMeter {
    rounds: u64,
    local_messages: u64,
    global_messages: u64,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
    trace: Vec<PhaseRecord>,
}

impl CostMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total rounds consumed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total local messages (edge-messages) sent.
    pub fn local_messages(&self) -> u64 {
        self.local_messages
    }

    /// Total global messages (`O(log n)`-bit units) sent.
    pub fn global_messages(&self) -> u64 {
        self.global_messages
    }

    /// Total delivery attempts dropped (γ receive-cap overflow plus injected
    /// message loss).  Zero in failure-free runs.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total extra message copies delivered by injected duplication.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Total delivery attempts held back by injected delay.
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    /// The per-phase trace.
    pub fn trace(&self) -> &[PhaseRecord] {
        &self.trace
    }

    /// Records a local phase of `rounds` rounds and `messages` edge-messages.
    pub fn record_local(&mut self, label: &'static str, rounds: u64, messages: u64) {
        self.rounds += rounds;
        self.local_messages += messages;
        self.trace.push(PhaseRecord {
            label,
            kind: PhaseKind::Local,
            rounds,
            messages,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
        });
    }

    /// Records a global phase of `rounds` rounds and `messages` global messages.
    pub fn record_global(&mut self, label: &'static str, rounds: u64, messages: u64) {
        self.record_global_faulty(label, rounds, messages, 0, 0, 0);
    }

    /// Records a global phase together with its fault accounting: delivery
    /// attempts `dropped` (overflow or injected loss), extra copies
    /// `duplicated`, and attempts `delayed`.
    pub fn record_global_faulty(
        &mut self,
        label: &'static str,
        rounds: u64,
        messages: u64,
        dropped: u64,
        duplicated: u64,
        delayed: u64,
    ) {
        self.rounds += rounds;
        self.global_messages += messages;
        self.dropped += dropped;
        self.duplicated += duplicated;
        self.delayed += delayed;
        self.trace.push(PhaseRecord {
            label,
            kind: PhaseKind::Global,
            rounds,
            messages,
            dropped,
            duplicated,
            delayed,
        });
    }

    /// Records a charged phase (a simulated oracle / framework with a known
    /// round cost but no explicitly scheduled messages).
    pub fn record_charged(&mut self, label: &'static str, rounds: u64) {
        self.rounds += rounds;
        self.trace.push(PhaseRecord {
            label,
            kind: PhaseKind::Charged,
            rounds,
            messages: 0,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
        });
    }

    /// Sum of rounds of all phases whose label contains `needle` — handy in
    /// tests to assert which stage dominates.
    pub fn rounds_for(&self, needle: &str) -> u64 {
        self.trace
            .iter()
            .filter(|p| p.label.contains(needle))
            .map(|p| p.rounds)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_accumulates() {
        let mut m = CostMeter::new();
        m.record_local("flood", 5, 100);
        m.record_global("route", 3, 42);
        m.record_charged("oracle", 7);
        assert_eq!(m.rounds(), 15);
        assert_eq!(m.local_messages(), 100);
        assert_eq!(m.global_messages(), 42);
        assert_eq!(m.trace().len(), 3);
        assert_eq!(m.rounds_for("flood"), 5);
        assert_eq!(m.rounds_for("route"), 3);
        assert_eq!(m.rounds_for("oracle"), 7);
    }

    #[test]
    fn fault_counters_accumulate_and_absorb() {
        let mut a = CostMeter::new();
        a.record_global_faulty("lossy", 6, 30, 4, 2, 1);
        assert_eq!(a.dropped(), 4);
        assert_eq!(a.duplicated(), 2);
        assert_eq!(a.delayed(), 1);
        let rec = &a.trace()[0];
        assert_eq!((rec.dropped, rec.duplicated, rec.delayed), (4, 2, 1));

        a.record_global_faulty("lossier", 2, 10, 3, 0, 5);
        assert_eq!((a.dropped(), a.duplicated(), a.delayed()), (7, 2, 6));
    }

    #[test]
    fn failure_free_records_report_zero_fault_counters() {
        let mut m = CostMeter::new();
        m.record_local("flood", 5, 100);
        m.record_global("route", 3, 42);
        m.record_charged("oracle", 7);
        assert_eq!(m.dropped(), 0);
        assert_eq!(m.duplicated(), 0);
        assert_eq!(m.delayed(), 0);
        assert!(m
            .trace()
            .iter()
            .all(|p| p.dropped == 0 && p.duplicated == 0 && p.delayed == 0));
    }

    #[test]
    fn default_is_zero() {
        let m = CostMeter::default();
        assert_eq!(m.rounds(), 0);
        assert_eq!(m.local_messages(), 0);
        assert_eq!(m.global_messages(), 0);
        assert!(m.trace().is_empty());
    }
}
