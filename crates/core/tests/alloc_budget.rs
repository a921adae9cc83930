//! Allocation budget of the charged dissemination pipeline — the CI-visible
//! twin of the benchmark's `dissemination` `allocs_per_pass`.
//!
//! A Theorem 1 run is meant to allocate for what it *holds* — the clusters,
//! one token set per cluster, the scheduler's workspace, the phase trace —
//! and nothing per node or per phase: the virtual tree is implicit (counting
//! `k` over all `n` nodes builds nothing) and phase labels are `&'static
//! str`.  This file counts allocator calls with its own `#[global_allocator]`
//! and holds one run to that.
//!
//! One `#[test]` only: a sibling test thread would allocate into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hybrid_core::dissemination::{k_dissemination, place_tokens};
use hybrid_core::overlay::basic_aggregation;
use hybrid_core::NqOracle;
use hybrid_graph::{generators, NodeId};
use hybrid_sim::HybridNetwork;

// Relaxed: a statistic that publishes no other data.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on this
        // allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls of `run`, measured on the second of two identical calls.
fn measured<T>(mut run: impl FnMut() -> T) -> (u64, T) {
    run();
    let before = CALLS.load(Ordering::Relaxed);
    let out = run();
    (CALLS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_theorem1_run_allocates_for_what_it_holds() {
    let graph = Arc::new(generators::grid(&[64, 64]).unwrap());
    let n = graph.n();
    let oracle = NqOracle::new(&graph);
    let everyone: Vec<NodeId> = (0..n as NodeId).collect();
    let tokens = place_tokens(&everyone, n as u64);

    // Recorded: 200 calls, network construction included (at be7333a: 2463,
    // of which 2056 materialised a 4096-node tree to read its height; 262
    // while a sweep expanded every unit into a message `Vec`; 236 while the
    // scheduler's endpoint lists grew on demand).  The budget is that plus
    // 22 % headroom.
    let (calls, out) = measured(|| {
        let mut net = HybridNetwork::hybrid0(Arc::clone(&graph));
        k_dissemination(&mut net, &oracle, &tokens)
    });
    assert_eq!(out.tokens.len(), n);
    assert!(
        calls <= 244,
        "theorem1 on grid 64x64, one token per node: {calls} allocator calls (budget 244)"
    );

    // Counting k over all n nodes: two phase records, no tree.  Recorded: 1
    // call (at be7333a: 2056).
    let values = vec![1u64; n];
    let (calls, counted) = measured(|| {
        let mut net = HybridNetwork::hybrid0(Arc::clone(&graph));
        basic_aggregation(&mut net, &values, |a, b| a + b)
    });
    assert_eq!(counted.value, n as u64);
    assert!(
        calls <= 8,
        "basic_aggregation on n = {n}: {calls} allocator calls (budget 8)"
    );
}
