//! Round and message accounting of the phase engine.

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
}

/// Accumulates the cost of an algorithm execution: total rounds, message
/// counters and a per-phase trace.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CostMeter {
    rounds: u64,
    local_messages: u64,
    global_messages: u64,
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
        });
    }

    /// Records a global phase of `rounds` rounds and `messages` global
    /// messages.
    pub fn record_global(&mut self, label: &'static str, rounds: u64, messages: u64) {
        self.rounds += rounds;
        self.global_messages += messages;
        self.trace.push(PhaseRecord {
            label,
            kind: PhaseKind::Global,
            rounds,
            messages,
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
        });
    }

    /// Sum of rounds of all phases of `kind`: the three kinds sum to
    /// [`CostMeter::rounds`].
    pub fn rounds_of(&self, kind: PhaseKind) -> u64 {
        self.trace
            .iter()
            .filter(|p| p.kind == kind)
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
        let kinds = [PhaseKind::Local, PhaseKind::Global, PhaseKind::Charged];
        assert_eq!(kinds.map(|kind| m.rounds_of(kind)), [5, 3, 7]);
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
