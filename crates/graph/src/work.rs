//! The exact work ledger: process-wide counts of what the graph kernels did,
//! beside the wall clock.
//!
//! A timing on a shared machine drifts from run to run; the number of arcs a
//! search scanned does not.  Every counted kernel keeps a local [`Tally`]
//! while it runs and adds it to the ledger once, when it returns — never per
//! arc — so counting costs a handful of relaxed atomic adds per call and no
//! allocation.  Each call's tally is a pure function of its input, and sums
//! commute, so a [`snapshot`] taken around a deterministic computation reads
//! the same at every pool width (`reproduce` writes these differences per
//! target to `results/work.json`).
//!
//! The counters are process-wide: a difference of two snapshots includes
//! whatever other threads of the process ran in between.

use std::sync::atomic::{AtomicU64, Ordering};

/// A counted kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Every [`crate::dijkstra::DijkstraWorkspace`] run: BFS (single-,
    /// multi-source, bounded), Dial and binary-heap Dijkstra.
    Dijkstra,
    /// [`crate::dijkstra::hop_limited_seeded_with`], the one hop-limited
    /// Bellman–Ford sweep.
    HopLimited,
    /// [`crate::traversal::lane_bfs`], 64 BFS lanes per word.
    LaneBfs,
    /// The saturating `(min, +)` row folds of `hybrid-core`'s `minplus`
    /// kernel.
    FoldMinSat,
    /// `hybrid-core`'s hop-reset Dijkstra over the skeleton's
    /// `(node, hops since the last skeleton node)` states.
    SkeletonDijkstra,
}

impl Kernel {
    /// Every kernel, in ledger order.
    pub const ALL: [Kernel; 5] = [
        Kernel::Dijkstra,
        Kernel::HopLimited,
        Kernel::LaneBfs,
        Kernel::FoldMinSat,
        Kernel::SkeletonDijkstra,
    ];

    /// The kernel's name in `work.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Dijkstra => "dijkstra",
            Kernel::HopLimited => "hop-limited",
            Kernel::LaneBfs => "lane-bfs",
            Kernel::FoldMinSat => "fold-min-sat",
            Kernel::SkeletonDijkstra => "skeleton-dijkstra",
        }
    }
}

/// One kernel call's work (or, from [`snapshot`], a kernel's running total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Adjacency entries read while expanding a node.
    pub arcs_scanned: u64,
    /// Entries queued in a priority queue: binary-heap pushes and Dial
    /// bucket pushes.
    pub heap_pushes: u64,
    /// Nodes entering a BFS queue, a Bellman–Ford frontier or a lane BFS
    /// level (a node counts once per level it is active in).
    pub frontier_entries: u64,
    /// Lane words merged into a node's next-level word, one per arc that
    /// brings new lanes.
    pub lane_words: u64,
    /// Accumulator cells a `(min, +)` fold compared (a four-row fold counts
    /// four per column).
    pub fold_cells: u64,
}

/// One kernel's five counters, alone on their cache line.
#[repr(align(64))]
struct Counters([AtomicU64; 5]);

static LEDGER: [Counters; 5] = [const { Counters([const { AtomicU64::new(0) }; 5]) }; 5];

impl Tally {
    fn fields(self) -> [u64; 5] {
        [
            self.arcs_scanned,
            self.heap_pushes,
            self.frontier_entries,
            self.lane_words,
            self.fold_cells,
        ]
    }

    /// Adds this call's work to `kernel`'s running totals.  By value and
    /// inlined, so a kernel's tally stays in registers while it runs.
    #[inline]
    pub fn record(self, kernel: Kernel) {
        let counters = &LEDGER[kernel as usize].0;
        for (counter, value) in counters.iter().zip(self.fields()) {
            if value != 0 {
                counter.fetch_add(value, Ordering::Relaxed);
            }
        }
    }

    /// The work done between `earlier` and `self`, two snapshots of one
    /// kernel.
    pub fn since(self, earlier: Tally) -> Tally {
        Tally {
            arcs_scanned: self.arcs_scanned - earlier.arcs_scanned,
            heap_pushes: self.heap_pushes - earlier.heap_pushes,
            frontier_entries: self.frontier_entries - earlier.frontier_entries,
            lane_words: self.lane_words - earlier.lane_words,
            fold_cells: self.fold_cells - earlier.fold_cells,
        }
    }
}

/// Every kernel's running totals, in [`Kernel::ALL`] order.
pub fn snapshot() -> [Tally; 5] {
    Kernel::ALL.map(|kernel| {
        let [arcs_scanned, heap_pushes, frontier_entries, lane_words, fold_cells] = LEDGER
            [kernel as usize]
            .0
            .each_ref()
            .map(|c| c.load(Ordering::Relaxed));
        Tally {
            arcs_scanned,
            heap_pushes,
            frontier_entries,
            lane_words,
            fold_cells,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_tally_adds_to_its_kernel() {
        let tally = Tally {
            arcs_scanned: 7,
            fold_cells: 3,
            ..Tally::default()
        };
        // Other tests of this binary run kernels concurrently, so only the
        // lower bound of the difference is exact.
        let before = snapshot();
        tally.record(Kernel::FoldMinSat);
        let after = snapshot();
        let grown = after[Kernel::FoldMinSat as usize].since(before[Kernel::FoldMinSat as usize]);
        assert!(
            grown.arcs_scanned >= 7 && grown.fold_cells >= 3,
            "{grown:?}"
        );
        assert_eq!(Kernel::ALL.map(|k| k as usize), [0, 1, 2, 3, 4]);
    }
}
