//! At pool width 1 the allocator counters are exact: two in-process
//! repetitions of one `kssp` cell report the same high-water mark and the
//! same call count.  Runs without libtest (`harness = false`), so no other
//! thread allocates while the cell is measured.

use hybrid_benchmark::alloc::{self, CountingAlloc};
use hybrid_benchmark::report::Check;
use hybrid_benchmark::spans::Recorder;
use hybrid_benchmark::workloads::kssp;
use hybrid_core::algorithm::sssp_registry;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Builds the grid cell, runs Theorem 14 on it and verifies the labels;
/// returns `(peak above the starting live size, allocator calls)`.
fn one_repetition() -> (u64, u64) {
    let mut rec = Recorder::new(false);
    let mut check = Check::default();
    let floor = alloc::live_bytes();
    alloc::reset_peak();
    let calls = alloc::calls();
    {
        let cell = kssp::build_cell(0x5EED_0001, 0, &mut rec);
        let registry = sssp_registry();
        let run = kssp::run_contender(&cell, registry[0].as_ref(), &mut rec, &mut check);
        assert!(run.rounds >= 1);
    }
    assert_eq!((check.ops, check.failed), (1, 0), "{:?}", check.messages);
    assert_eq!(alloc::live_bytes(), floor, "the cell leaked");
    (alloc::peak_bytes() - floor, alloc::calls() - calls)
}

fn main() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the vendored pool cannot fail to build");
    let (first, second) = pool.install(|| (one_repetition(), one_repetition()));
    assert!(first.0 > 0 && first.1 > 0, "the counters did not move");
    assert_eq!(
        first, second,
        "peak bytes / call count differ between repetitions"
    );
    println!(
        "alloc_determinism: ok (peak {} B, {} calls, twice)",
        first.0, first.1
    );
}
