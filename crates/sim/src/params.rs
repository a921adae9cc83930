//! Model parameters of the simulated `HYBRID(∞, γ)` network.
//!
//! The paper (Section 1.3) parameterizes the model by
//!
//! * `λ` — the maximum number of bits per round per **local** edge, and
//! * `γ` — the maximum number of bits per round per node over the **global**
//!   network.
//!
//! The simulator runs `λ = ∞`: a local phase is charged by its hop radius,
//! whatever the message size.  What the engines enforce is exactly this
//! struct — whether the local plane exists at all (`local`; `false` is the
//! node-capacitated clique `NCC = HYBRID(0, γ)`) and the per-node global cap
//! `γ`.  It is measured in **messages of `O(log n)` bits per round**
//! (`global_capacity_msgs`), which is how the algorithms reason about it;
//! `γ` in bits is `global_capacity_msgs · ⌈log₂ n⌉`.

use serde::{Deserialize, Serialize};

/// Full parameterization of a simulated `HYBRID(∞, γ)` network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Number of nodes `n` of the local communication graph.
    pub n: usize,
    /// Whether the local plane exists (`λ = ∞`) or not (`λ = 0`, `NCC`).
    pub local: bool,
    /// Per-node global capacity in messages of `O(log n)` bits per round
    /// (send cap and receive cap, enforced independently).
    pub global_capacity_msgs: usize,
}

impl ModelParams {
    /// `⌈log₂ n⌉`, at least 1 — the paper's `O(log n)` unit.
    pub fn log_n(n: usize) -> usize {
        let n = n.max(2);
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }

    /// The standard `HYBRID` model: unlimited local bandwidth, `⌈log₂ n⌉`
    /// global messages per node per round.
    pub fn hybrid(n: usize) -> Self {
        ModelParams {
            n,
            local: true,
            global_capacity_msgs: Self::log_n(n),
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

    /// The node-capacitated clique `NCC`: `HYBRID(0, O(log² n))`.
    pub fn ncc(n: usize) -> Self {
        ModelParams {
            local: false,
            ..Self::hybrid(n)
        }
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
        assert!(p.local);
        assert_eq!(p.gamma_bits(), 100);
    }

    #[test]
    fn marginal_models_match_paper_table() {
        // Section 1.3's table: `NCC = HYBRID(0, O(log² n))`.
        let ncc = ModelParams::ncc(100);
        assert!(!ncc.local);
        assert_eq!(
            ncc.global_capacity_msgs,
            ModelParams::hybrid(100).global_capacity_msgs
        );
    }

    #[test]
    fn explicit_gamma() {
        let p = ModelParams::hybrid_with_global_capacity(256, 64);
        assert_eq!(p.global_capacity_msgs, 64);
        assert!(p.local);
    }
}
