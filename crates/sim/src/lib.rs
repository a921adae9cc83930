//! # hybrid-sim
//!
//! A round-synchronous simulator of the **HYBRID** model of distributed
//! computing (Augustine, Hinnenthal, Kuhn, Scheideler, Schneider — SODA 2020),
//! as used by the PODC 2024 paper *"Universally Optimal Information
//! Dissemination and Shortest Paths in the HYBRID Distributed Model"*.
//!
//! The HYBRID model combines two communication modes (paper Section 1.3):
//!
//! * **Unlimited local communication** — in every round, adjacent nodes of the
//!   local communication graph `G` may exchange messages of arbitrary size
//!   (the `LOCAL` model).
//! * **Limited global communication** — every node may send and receive at
//!   most `γ = O(log n)` messages of `O(log n)` bits per round, addressed to
//!   arbitrary nodes whose identifier it knows (the node-capacitated clique,
//!   `NCC`).
//!
//! Two complementary simulation styles are provided:
//!
//! 1. the **phase engine** ([`HybridNetwork`]): algorithms are decomposed into
//!    *local phases* (charged by their hop radius, since `t` rounds of local
//!    communication let every node learn exactly its `t`-ball) and *global
//!    phases* (explicit point-to-point message multisets that the
//!    [`scheduler::GlobalScheduler`] delivers round by round under the
//!    per-node send/receive caps, queuing any excess).  This is what the
//!    universal algorithms of `hybrid-core` run on;
//! 2. a true per-node synchronous **message-passing engine** ([`engine`])
//!    where every node runs a [`engine::NodeProgram`] with its own mailboxes —
//!    used for the simpler primitives (flooding, BFS, token gossip) and for
//!    validating the phase engine against a fully explicit execution.
//!
//! Both styles feed a common [`cost::CostMeter`] so that every algorithm in
//! the repository reports rounds, message counts and a per-phase trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod engine;
pub mod envelope;
pub mod faults;
pub mod network;
pub mod params;
pub mod programs;
pub mod router;
pub mod scheduler;
pub mod token_batch;
pub mod token_set;

pub use config::{EngineConfig, EngineError};
pub use cost::{CostMeter, PhaseKind, PhaseRecord};
pub use envelope::{Body, Envelope, RoundTrace, TraceEntry};
pub use faults::{Fate, FaultPlan, FaultSpec};
pub use network::HybridNetwork;
pub use params::ModelParams;
pub use router::RoundRouter;
pub use scheduler::{DeliveryReport, GlobalMessage, GlobalScheduler, RoundRobin};
pub use token_batch::TokenBatch;
pub use token_set::TokenSet;
