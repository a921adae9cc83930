//! Model parameters for `HYBRID(λ, γ)` and its marginal cases.
//!
//! The paper (Section 1.3) parameterizes the model by
//!
//! * `λ` — the maximum number of bits per round per **local** edge, and
//! * `γ` — the maximum number of bits per round per node over the **global**
//!   network,
//!
//! and observes that most classical models are special cases:
//!
//! | model              | λ          | γ              |
//! |--------------------|------------|----------------|
//! | `HYBRID`           | ∞          | `O(log² n)`    |
//! | `LOCAL`            | ∞          | 0              |
//! | `CONGEST`          | `O(log n)` | 0              |
//! | `NCC` / `NCC0`     | 0          | `O(log² n)`    |
//! | Congested Clique   | 0          | `O(n log n)`   |
//!
//! This module measures global capacity in **messages of `O(log n)` bits per
//! round** (`global_capacity_msgs`), which is how the algorithms reason about
//! it; `γ` in bits is `global_capacity_msgs · ⌈log₂ n⌉`.

use serde::{Deserialize, Serialize};

/// How node identifiers are assigned — distinguishes `Hybrid` from `Hybrid0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IdSpace {
    /// `Hybrid`: identifiers are exactly `[n] = {1, …, n}` (represented
    /// internally as `0..n`), and the set of identifiers is global knowledge,
    /// so a node can message a uniformly random node.
    Contiguous,
    /// `Hybrid0`: identifiers are arbitrary `O(log n)`-bit strings from a
    /// polynomial range `[n^c]`; initially a node only knows its own
    /// identifier and those of its neighbours, so it can only send global
    /// messages to nodes whose identifiers it has learned.
    Arbitrary {
        /// Exponent `c` of the identifier range `[n^c]`.
        range_exponent: u32,
    },
}

/// Bandwidth of a local edge per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalBandwidth {
    /// Unlimited-size messages (LOCAL-style local mode of HYBRID).
    Unlimited,
    /// At most this many bits per round per edge (CONGEST-style).
    BoundedBits(u64),
    /// No local communication at all (NCC / Congested Clique marginal cases).
    None,
}

/// Full parameterization of a simulated `HYBRID(λ, γ)` network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Number of nodes `n` of the local communication graph.
    pub n: usize,
    /// Local-edge bandwidth `λ`.
    pub local: LocalBandwidth,
    /// Per-node global capacity in messages of `O(log n)` bits per round
    /// (send cap and receive cap, enforced independently).
    pub global_capacity_msgs: usize,
    /// Identifier regime (`Hybrid` vs `Hybrid0`).
    pub id_space: IdSpace,
}

impl ModelParams {
    /// `⌈log₂ n⌉`, at least 1 — the paper's `O(log n)` unit.
    pub fn log_n(n: usize) -> usize {
        let n = n.max(2);
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }

    /// The standard `HYBRID` model: unlimited local bandwidth, `⌈log₂ n⌉`
    /// global messages per node per round, identifiers `[n]` known to all.
    pub fn hybrid(n: usize) -> Self {
        ModelParams {
            n,
            local: LocalBandwidth::Unlimited,
            global_capacity_msgs: Self::log_n(n),
            id_space: IdSpace::Contiguous,
        }
    }

    /// The `Hybrid0` model: like [`ModelParams::hybrid`] but identifiers come
    /// from a polynomial range and are not globally known.
    pub fn hybrid0(n: usize) -> Self {
        ModelParams {
            id_space: IdSpace::Arbitrary { range_exponent: 2 },
            ..Self::hybrid(n)
        }
    }

    /// `HYBRID(∞, γ)` with an explicit per-node global message budget
    /// (`γ` in messages per round), as used by Theorem 14.
    pub fn hybrid_with_global_capacity(n: usize, gamma_msgs: usize) -> Self {
        ModelParams {
            global_capacity_msgs: gamma_msgs,
            ..Self::hybrid(n)
        }
    }

    /// The `LOCAL` model: `HYBRID0(∞, 0)`.
    pub fn local_only(n: usize) -> Self {
        ModelParams {
            n,
            local: LocalBandwidth::Unlimited,
            global_capacity_msgs: 0,
            id_space: IdSpace::Arbitrary { range_exponent: 2 },
        }
    }

    /// The `CONGEST` model: `HYBRID0(O(log n), 0)`.
    pub fn congest(n: usize) -> Self {
        ModelParams {
            n,
            local: LocalBandwidth::BoundedBits(Self::log_n(n) as u64),
            global_capacity_msgs: 0,
            id_space: IdSpace::Arbitrary { range_exponent: 2 },
        }
    }

    /// The node-capacitated clique `NCC`: `HYBRID(0, O(log² n))`.
    pub fn ncc(n: usize) -> Self {
        ModelParams {
            n,
            local: LocalBandwidth::None,
            global_capacity_msgs: Self::log_n(n),
            id_space: IdSpace::Contiguous,
        }
    }

    /// Whether the model allows any local communication.
    pub fn has_local(&self) -> bool {
        !matches!(self.local, LocalBandwidth::None)
    }

    /// Whether the model allows any global communication.
    pub fn has_global(&self) -> bool {
        self.global_capacity_msgs > 0
    }

    /// Whether identifiers are globally known (`Hybrid`) or not (`Hybrid0`).
    pub fn ids_globally_known(&self) -> bool {
        matches!(self.id_space, IdSpace::Contiguous)
    }

    /// Global capacity in bits per round (`γ`).
    pub fn gamma_bits(&self) -> u64 {
        (self.global_capacity_msgs * Self::log_n(self.n)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_n_is_ceiling() {
        assert_eq!(ModelParams::log_n(1), 1);
        assert_eq!(ModelParams::log_n(2), 1);
        assert_eq!(ModelParams::log_n(3), 2);
        assert_eq!(ModelParams::log_n(1024), 10);
        assert_eq!(ModelParams::log_n(1025), 11);
    }

    #[test]
    fn hybrid_defaults() {
        let p = ModelParams::hybrid(1000);
        assert_eq!(p.global_capacity_msgs, 10);
        assert!(p.has_local());
        assert!(p.has_global());
        assert!(p.ids_globally_known());
        assert_eq!(p.gamma_bits(), 100);
    }

    #[test]
    fn hybrid0_hides_ids() {
        let p = ModelParams::hybrid0(64);
        assert!(!p.ids_globally_known());
        assert!(p.has_local());
        assert!(p.has_global());
    }

    #[test]
    fn marginal_models_match_paper_table() {
        let local = ModelParams::local_only(100);
        assert!(local.has_local() && !local.has_global());
        let congest = ModelParams::congest(100);
        assert!(matches!(congest.local, LocalBandwidth::BoundedBits(7)));
        assert!(!congest.has_global());
        let ncc = ModelParams::ncc(100);
        assert!(!ncc.has_local() && ncc.has_global());
    }

    #[test]
    fn explicit_gamma() {
        let p = ModelParams::hybrid_with_global_capacity(256, 64);
        assert_eq!(p.global_capacity_msgs, 64);
        assert!(p.ids_globally_known());
    }
}
