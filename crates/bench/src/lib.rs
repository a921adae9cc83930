//! # hybrid-bench
//!
//! Benchmark harness that regenerates the *shape* of every table and figure
//! of the PODC 2024 paper (the experiment index is the `TARGETS` table of
//! `src/bin/reproduce.rs` and the targets table of README.md):
//!
//! * Table 1 — information dissemination (broadcast / aggregation / unicast);
//! * Table 2 — APSP;
//! * Table 3 — `(k, ℓ)`-SP;
//! * Table 4 — SSSP;
//! * Figure 1 — the k-SSP complexity landscape;
//! * Appendix B / Theorems 15–17 — `NQ_k` on special graph families;
//! * Scaling sweeps (the [`sweep`] module) — competitive-ratio curves against
//!   the per-instance lower bound over a `family × size × γ` grid;
//! * Fault sweeps (the [`faults_sweep`] module) — degradation-factor curves
//!   under a seeded fault-injection adversary over a `family × size ×
//!   fault-profile` grid;
//! * The scale tier (the [`scale`] module) — the sweep question at
//!   `n = 10⁵–10⁶` on chunk-emitted generators, row-streamed distances and
//!   sampled `NQ` witnesses (`reproduce scale`);
//! * The serving tier (the [`oracle_bench`] module) — batched point-to-point
//!   queries against a built [`hybrid_core::oracle::DistanceOracle`],
//!   recorded as deterministic answer digests (`reproduce oracle`).
//!
//! Every experiment runs its cells through the [`grid`] module (the graph
//! families, the `family × size` grid and its seeds, one order-preserving
//! fan-out).  The round-count reproduction lives in the [`scenarios`] module
//! and is driven by the `reproduce` binary (`cargo run -p hybrid-bench --bin
//! reproduce -- all`), which prints paper-style tables and writes
//! machine-readable JSON next to them — every artifact a pure function of
//! its seed.  Wall-clock performance is measured elsewhere: end to end and
//! per layer by the `benchmark/` package at the repository root.

#![forbid(unsafe_code)]

pub mod faults_sweep;
pub mod grid;
pub mod oracle_bench;
pub mod scale;
pub mod scenarios;
pub mod sweep;

pub use faults_sweep::{fault_sweep_rows, FaultProfile, FaultSweepConfig, FaultSweepRow};
pub use grid::{GraphFamily, Grid};
pub use oracle_bench::{oracle_bench_rows, OracleBenchConfig};
pub use scale::{scale_rows, ScaleConfig, ScaleRow};
pub use scenarios::{
    appendix_b_rows, figure1_rows, table1_rows, table2_rows, table3_rows, table4_rows,
};
pub use sweep::{
    check_shootout, sweep_rows, DissCell, KsspCell, SweepArtifactError, SweepConfig, SweepPoint,
    SweepRow, MIN_ALGORITHMS_PER_ROW,
};
