//! The repository's benchmark.
//!
//! Six workloads call the crates' public functions from outside and time
//! them; nothing under `crates/` is instrumented.  See `README.md` in this
//! directory for the metric and workload dictionary, the measurement
//! protocol and the reasons behind both.

pub mod alloc;
pub mod clock;
pub mod contract;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;
