//! Allocation budgets of the charged pipelines — the CI-visible twins of the
//! benchmark's `dissemination` and `kssp` `allocs_per_pass`.
//!
//! A Theorem 1 run is meant to allocate for what it *holds* — the clusters,
//! one token set per cluster, the scheduler's workspace, the phase trace —
//! and nothing per node or per phase: the virtual tree is implicit (counting
//! `k` over all `n` nodes builds nothing) and phase labels are `&'static
//! str`.  A Theorem 14 run allocates for its skeleton, its searches and its
//! label rows, and nothing per skeleton node for the `[KS20]` helper sets,
//! whose smallest size is all the schedule reads.  A `[Sch23]` run allocates
//! its landmark list, one workspace per worker and its label rows, and
//! nothing per search: the exact search reports its own hop depth.  This
//! file counts
//! allocator calls with its own `#[global_allocator]` and holds one run of
//! each to that.
//!
//! Each test holds `SERIAL` while it runs: a sibling test thread would
//! allocate into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybrid_core::dissemination::{k_dissemination, place_tokens};
use hybrid_core::kssp::{kssp, KsspVariant};
use hybrid_core::overlay::basic_aggregation;
use hybrid_core::prob::sample_distinct;
use hybrid_core::schneider::schneider_kssp;
use hybrid_core::NqOracle;
use hybrid_graph::{generators, NodeId};
use hybrid_sim::HybridNetwork;

// Relaxed: a statistic that publishes no other data.
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Held for the whole of each test, so no two measure at once.
static SERIAL: Mutex<()> = Mutex::new(());

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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
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
        let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
        basic_aggregation(&mut net, &values, |a, b| a + b)
    });
    assert_eq!(counted, n as u64);
    assert!(
        calls <= 8,
        "basic_aggregation on n = {n}: {calls} allocator calls (budget 8)"
    );
}

#[test]
fn a_theorem14_run_allocates_no_helper_lists() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let graph = Arc::new(generators::grid(&[32, 32]).unwrap());
    let n = graph.n();
    let sources = sample_distinct(n, 32, &mut ChaCha8Rng::seed_from_u64(1));
    let gamma = HybridNetwork::hybrid(Arc::clone(&graph))
        .params()
        .global_capacity_msgs;
    assert!(sources.len() > gamma, "k > γ: the skeleton path runs");

    // One worker: every `map_init` fan-out then builds the same number of
    // workspaces, whatever the machine's core count.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    // Recorded: 128 calls, network construction included (3 961 while every
    // skeleton node drafted and stored its own helper list).  The budget is
    // that plus 22 % headroom, as for Theorem 1.
    let (calls, out) = measured(|| {
        pool.install(|| {
            let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            kssp(
                &mut net,
                &sources,
                0.5,
                KsspVariant::RandomSources,
                &mut rng,
            )
        })
    });
    assert!(out.skeleton_size > 0);
    assert!(
        calls <= 156,
        "theorem14 on grid 32x32, 32 random sources: {calls} allocator calls (budget 156)"
    );
}

#[test]
fn a_schneider_run_allocates_nothing_per_search() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Weights up to 9: every search is a Dial run.
    let graph = Arc::new(generators::weighted_grid(&[32, 32], 9, 3).unwrap());
    let n = graph.n();
    let sources = sample_distinct(n, 32, &mut ChaCha8Rng::seed_from_u64(1));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    // One worker, as for Theorem 14.  Recorded: 193 calls for 32 landmark
    // and 32 source searches, network construction included (211 while a
    // second pass after each search grew its own queue per workspace).  A
    // buffer allocated per search would add at least 64.  The budget is that
    // plus 22 % headroom, as above.
    let (calls, out) = measured(|| {
        pool.install(|| {
            let mut net = HybridNetwork::hybrid(Arc::clone(&graph));
            schneider_kssp(&mut net, &sources, 0.5)
        })
    });
    assert_eq!(out.skeleton_size, 32, "⌈√n⌉ landmarks");
    assert!(
        calls <= 235,
        "schneider on weighted grid 32x32, 32 random sources: {calls} allocator calls (budget 235)"
    );
}
