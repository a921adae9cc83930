//! HYBRID-as-a-service: the networked node runtime behind the
//! transport-agnostic engine API.
//!
//! This crate turns the in-process simulation into a real distributed
//! execution: every HYBRID node is its own OS process (`hybrid-node`)
//! speaking length-framed JSON envelopes over stdin/stdout or loopback TCP,
//! and `hybrid-driver` spawns the fleet, distributes local-graph adjacency
//! and [`ModelParams`](hybrid_sim::ModelParams) in `Init` frames, enforces
//! γ as the per-round per-node cap, and runs the lock-step round barrier.
//!
//! The design splits cleanly along the engine API introduced in
//! `hybrid-sim`:
//!
//! * [`protocol`] — the wire format: framing plus the `ToNode` / `FromNode`
//!   conversation.
//! * [`scenario`] — serializable scenario descriptions and the in-process
//!   reference execution ([`scenario::run_in_process`]).
//! * [`runtime`] — the node side: a serve loop around the engine's genuine
//!   [`NodeRunner`](hybrid_sim::engine::NodeRunner), so program-facing
//!   semantics are shared with the executor by construction.
//! * [`driver`] — the hub: process spawning and the round barrier, run as
//!   the step closure of the engine's own
//!   [`RoundRouter`](hybrid_sim::RoundRouter) — the executor's delivery rule
//!   and round loop, not a copy of them — which is what makes
//!   [`driver::conformance_diff`] a meaningful equality (identical round
//!   counts, identical per-round ordered delivered-message traces,
//!   identical final states), fault plans included.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod protocol;
pub mod runtime;
pub mod scenario;

pub use driver::{conformance_diff, run_scenario, DriverError, Transport};
pub use scenario::{run_in_process, EngineOutcome, GraphSpec, ProgramSpec, Scenario};
