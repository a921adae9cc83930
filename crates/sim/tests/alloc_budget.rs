//! Allocation budget of the per-node step path — the CI-visible twin of the
//! benchmark's `engine.allocs_per_msg`.
//!
//! The step path is meant to allocate for what a run *holds* (per-node state,
//! the router's arenas, each of them growing a handful of times) and for the
//! token batches too long to live inside their message — never per node-round
//! and never per message.  This file counts allocator calls with its own
//! `#[global_allocator]` and holds three failure-free runs to that: a
//! `u64`-message program to a set-up-only budget, the ack/retry program to
//! set-up plus a fraction of its messages, and gossip to a budget its global
//! pushes alone would break.  A traced ack-flood run is held to one
//! allocation per traced message beyond its untraced twin, plus a few per
//! round: the message bodies stream into one reused buffer.
//!
//! One `#[test]` only: a sibling test thread would allocate into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hybrid_graph::{generators, Graph, NodeId};
use hybrid_sim::engine::{Executor, NodeProgram, RunReport};
use hybrid_sim::programs::{AckFloodProgram, DetForwardProgram, TokenGossipProgram};
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
fn measured<P: NodeProgram>(graph: &Graph, factory: impl Fn(NodeId) -> P) -> (u64, RunReport) {
    measured_with(graph, factory, false)
}

/// [`measured`], with trace recording on or off; a recorded trace is dropped
/// inside the count.
fn measured_with<P: NodeProgram>(
    graph: &Graph,
    factory: impl Fn(NodeId) -> P,
    trace: bool,
) -> (u64, RunReport) {
    let run = || {
        let config = EngineConfig::new(ModelParams::hybrid(N)).with_trace(trace);
        let mut exec = Executor::with_config(graph, config, &factory);
        let report = exec.run().expect("a failure-free run completes");
        assert_eq!(exec.take_trace().is_empty(), !trace);
        report
    };
    run();
    let before = CALLS.load(Ordering::Relaxed);
    let report = run();
    (CALLS.load(Ordering::Relaxed) - before, report)
}

#[test]
fn token_programs_allocate_for_state_and_payloads_only() {
    let n = N as u64;
    let grid = generators::grid(&[16, 16]).unwrap();

    // `u64` messages carry no heap: the whole run is set-up — known sets,
    // owed queues and arenas growing as the tokens arrive.  Recorded: 2845
    // calls (11.1 per node; 3159 with `BTreeSet` known sets) over 13 312
    // node-rounds; the budget is that with a fifth of headroom.
    let (calls, report) = measured(&grid, |v| DetForwardProgram::new(initial(v), TOKENS));
    assert!(report.completed);
    let node_rounds = report.rounds * n;
    let budget = 27 * n / 2;
    assert!(
        calls <= budget,
        "det-forward: {calls} allocator calls over {node_rounds} node-rounds (budget {budget})"
    );

    // Token batches live inside their message: set-up as above, plus one
    // shared buffer per batch longer than the inline capacity.  Recorded:
    // 4109 calls for 31 084 messages (4427 with `BTreeSet` known sets,
    // 35 345 when every message carried a `Vec`); the budget is that with a
    // fifth of headroom.
    let (calls, report) = measured(&grid, |v| AckFloodProgram::new(initial(v), TOKENS, 2));
    assert!(report.completed);
    let messages = report.local_messages;
    let budget = 31 * n / 2 + messages / 32;
    assert!(
        calls <= budget,
        "ack-flood: {calls} allocator calls for {messages} delivered messages (budget {budget})"
    );

    // The same run traced: each delivered message is one exact-size body
    // string, and each round two entry vectors beside the trace's own
    // growth.  Recorded: 35 229 calls, 36 above the untraced run plus one
    // per message; 267 653 when each body was built as a `Value` tree
    // (object, key, array) and rendered into a growing string.
    let (traced_calls, traced) =
        measured_with(&grid, |v| AckFloodProgram::new(initial(v), TOKENS, 2), true);
    assert_eq!(traced, report, "tracing changed the run");
    let traced_messages = traced.local_messages + traced.global_messages;
    let budget = calls + traced_messages + 3 * (traced.rounds + 1) + 16;
    assert!(
        traced_calls <= budget,
        "traced ack-flood: {traced_calls} allocator calls for {traced_messages} traced \
         messages over {} rounds (untraced {calls}, budget {budget})",
        traced.rounds
    );

    // Gossip on a cycle: a global push is one inline token, so the budget is
    // set-up and the long local broadcasts only.  Recorded: 2483 calls
    // (9.7 per node; 3695 with a `BTreeSet` known set and its sorted copy)
    // beside 16 164 global pushes — one call per push would overrun it
    // several times.
    let cycle = generators::cycle(N).unwrap();
    let (calls, report) = measured(&cycle, |v| {
        TokenGossipProgram::new(v, N, initial(v), TOKENS, 7)
    });
    assert!(report.completed);
    let pushes = report.global_messages + report.dropped_global;
    let budget = 57 * n / 5;
    assert!(pushes >= 3 * budget, "gossip pushed only {pushes} times");
    assert!(
        calls <= budget,
        "gossip: {calls} allocator calls beside {pushes} global pushes (budget {budget})"
    );
}
