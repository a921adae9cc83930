//! Round and message accounting shared by both simulation styles.

use std::ops::AddAssign;

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

/// What the seeded adversary did to a batch's delivery attempts.  Only
/// injected faults count: the γ receive cap queues overflow for a later round
/// instead of dropping it, so a failure-free run reports all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Attempts lost to injected message loss (each is retried later).
    pub dropped: u64,
    /// Extra copies delivered by injected duplication.
    pub duplicated: u64,
    /// Attempts held back by injected delay.
    pub delayed: u64,
}

impl AddAssign for FaultCounts {
    fn add_assign(&mut self, other: Self) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
    }
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
    /// The phase's injected faults (global phases only).
    pub faults: FaultCounts,
}

/// Accumulates the cost of an algorithm execution: total rounds, message
/// counters and a per-phase trace.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CostMeter {
    rounds: u64,
    local_messages: u64,
    global_messages: u64,
    faults: FaultCounts,
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

    /// Injected faults summed over every phase.
    pub fn faults(&self) -> FaultCounts {
        self.faults
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
            faults: FaultCounts::default(),
        });
    }

    /// Records a global phase of `rounds` rounds, `messages` global messages
    /// and the `faults` injected into its delivery.
    pub fn record_global(
        &mut self,
        label: &'static str,
        rounds: u64,
        messages: u64,
        faults: FaultCounts,
    ) {
        self.rounds += rounds;
        self.global_messages += messages;
        self.faults += faults;
        self.trace.push(PhaseRecord {
            label,
            kind: PhaseKind::Global,
            rounds,
            messages,
            faults,
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
            faults: FaultCounts::default(),
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
        m.record_global("route", 3, 42, FaultCounts::default());
        m.record_charged("oracle", 7);
        assert_eq!(m.rounds(), 15);
        assert_eq!(m.local_messages(), 100);
        assert_eq!(m.global_messages(), 42);
        assert_eq!(m.trace().len(), 3);
        assert_eq!(m.rounds_for("flood"), 5);
        assert_eq!(m.rounds_for("route"), 3);
        assert_eq!(m.rounds_for("oracle"), 7);
    }

    fn counts(dropped: u64, duplicated: u64, delayed: u64) -> FaultCounts {
        FaultCounts {
            dropped,
            duplicated,
            delayed,
        }
    }

    #[test]
    fn fault_counters_accumulate_and_absorb() {
        let mut a = CostMeter::new();
        a.record_global("lossy", 6, 30, counts(4, 2, 1));
        assert_eq!(a.faults(), counts(4, 2, 1));
        assert_eq!(a.trace()[0].faults, counts(4, 2, 1));

        a.record_global("lossier", 2, 10, counts(3, 0, 5));
        assert_eq!(a.faults(), counts(7, 2, 6));
        assert_eq!(a.trace()[1].faults, counts(3, 0, 5));
        assert_eq!((a.rounds(), a.global_messages()), (8, 40));
    }

    #[test]
    fn failure_free_records_report_zero_fault_counters() {
        let mut m = CostMeter::new();
        m.record_local("flood", 5, 100);
        m.record_global("route", 3, 42, FaultCounts::default());
        m.record_charged("oracle", 7);
        assert_eq!(m.faults(), FaultCounts::default());
        assert!(m.trace().iter().all(|p| p.faults == FaultCounts::default()));
    }

    #[test]
    fn default_is_zero() {
        let m = CostMeter::default();
        assert_eq!(m.rounds(), 0);
        assert_eq!(m.local_messages(), 0);
        assert_eq!(m.global_messages(), 0);
        assert_eq!(m.faults(), FaultCounts::default());
        assert!(m.trace().is_empty());
    }
}
