//! Memory pin of the serving tier — the CI-visible twin of the benchmark's
//! `serve` `peak_alloc_bytes` and `oracle.memory_bytes`.
//!
//! A [`DistanceOracle`] is built in place: rows, forest and ball arenas are
//! allocated once at their final size and nothing is held twice on the way.
//! This file counts live heap bytes with its own `#[global_allocator]` and
//! holds one build to that: what `memory_bytes()` reports is what the build
//! left behind, the high-water mark of the build stays close to it, and the
//! footprint per node stays inside its recorded budget.
//!
//! One `#[test]` only: a sibling test thread would allocate into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hybrid_core::{DistanceOracle, OracleConfig};
use hybrid_graph::generators;

// Relaxed: statistics that publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on this
        // allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_build_holds_what_it_reports_and_little_more_on_the_way() {
    let graph = generators::weighted_grid(&[64, 64], 32, 0x3E3).unwrap();
    let n = graph.n() as f64;
    let build = || DistanceOracle::build(&graph, OracleConfig::default()).unwrap();

    // The first build brings up the pool; its workers stay allocated.
    drop(build());
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let oracle = build();
    let held = (LIVE.load(Ordering::Relaxed) - before) as f64;
    let peak = (PEAK.load(Ordering::Relaxed) - before) as f64;
    let reported = oracle.memory_bytes() as f64;

    assert!(
        (held - reported).abs() <= 0.02 * reported,
        "memory_bytes() reports {reported} bytes, the build left {held} behind"
    );
    // Recorded: 1.05 at pool width 1, 1.15 at width 8 (one scratch per
    // worker: a workspace with its bucket ring, the member and id buffers;
    // 1.05 and 1.13 with the binary heap's scratch).  At ed01488 every ball
    // was held twice (a `Vec` per ball, then the flat arenas) and the ratio
    // was 1.79.
    assert!(
        peak <= 1.35 * reported,
        "the build peaked at {peak} bytes for an oracle of {reported}"
    );
    // Recorded: 1218 bytes per node (64 landmarks at 8 bytes, 58 ball
    // members at 12); at ed01488, with 64-bit labels: 1708.
    assert!(
        reported <= 1.10 * 1218.0 * n,
        "{} bytes per node (budget 1218 + 10 %)",
        reported / n
    );
}
