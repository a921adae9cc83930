//! Allocation budget of the per-node step path — the CI-visible twin of the
//! benchmark's `engine.allocs_per_msg`.
//!
//! The step path is meant to allocate for what a run *holds* (per-node state,
//! the router's arenas, each of them growing a handful of times) and for the
//! one heap payload a `Vec` message carries — never per node-round.  This file
//! counts allocator calls with its own `#[global_allocator]` and holds two
//! failure-free runs to that: a `u64`-message program to a set-up-only budget,
//! a `Vec`-message program to one call per delivered message on top.
//!
//! One `#[test]` only: a sibling test thread would allocate into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hybrid_graph::{generators, NodeId};
use hybrid_sim::engine::{Executor, NodeProgram, RunReport};
use hybrid_sim::programs::{AckFloodProgram, DetForwardProgram};
use hybrid_sim::{EngineConfig, ModelParams};

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

const N: usize = 256;
const TOKENS: usize = 32;

/// Token `i` starts on node `8 i + 3`.
fn initial(v: NodeId) -> Vec<u64> {
    let v = v as usize;
    if v % 8 == 3 {
        vec![(v / 8) as u64]
    } else {
        Vec::new()
    }
}

/// Allocator calls of one complete run (executor construction included),
/// measured on the second of two identical runs.
fn measured<P: NodeProgram>(factory: impl Fn(NodeId) -> P) -> (u64, RunReport) {
    let graph = generators::grid(&[16, 16]).unwrap();
    let run = || {
        let config = EngineConfig::new(ModelParams::hybrid(N));
        let mut exec = Executor::with_config(&graph, config, &factory);
        exec.run().expect("a failure-free run completes")
    };
    run();
    let before = CALLS.load(Ordering::Relaxed);
    let report = run();
    (CALLS.load(Ordering::Relaxed) - before, report)
}

#[test]
fn token_programs_allocate_for_state_and_payloads_only() {
    let n = N as u64;

    // `u64` messages carry no heap: the whole run is set-up — known sets,
    // owed queues and arenas growing as the tokens arrive.  Recorded: 3159
    // calls (12.3 per node) over 13 312 node-rounds.
    let (calls, report) = measured(|v| DetForwardProgram::new(initial(v), TOKENS));
    assert!(report.completed);
    let node_rounds = report.rounds * n;
    assert!(
        calls <= 15 * n,
        "det-forward: {calls} allocator calls over {node_rounds} node-rounds (budget {})",
        15 * n
    );

    // `Vec` messages: one payload each, set-up on top.  Recorded: 35 345
    // calls for 31 084 messages (16.6 per node beyond the payloads).
    let (calls, report) = measured(|v| AckFloodProgram::new(initial(v), TOKENS, 2));
    assert!(report.completed);
    let messages = report.local_messages;
    assert!(
        calls <= messages + 20 * n,
        "ack-flood: {calls} allocator calls for {messages} delivered messages (budget {})",
        messages + 20 * n
    );
}
