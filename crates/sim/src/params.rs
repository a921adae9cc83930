//! Model parameters of the simulated `HYBRID(∞, γ)` network.
//!
//! The paper (Section 1.3) parameterizes the model by
//!
//! * `λ` — the maximum number of bits per round per **local** edge, and
//! * `γ` — the maximum number of bits per round per node over the **global**
//!   network.
//!
//! The simulator runs `λ = ∞`, the model every algorithm and lower bound of
//! the paper is stated in: a local phase is charged by its hop radius,
//! whatever the message size.  What the engines enforce is exactly this
//! struct — the per-node global cap `γ`, measured in **messages of
//! `O(log n)` bits per round** (`global_capacity_msgs`), which is how the
//! algorithms reason about it; `γ` in bits is
//! `global_capacity_msgs · ⌈log₂ n⌉`.

use serde::{Deserialize, Serialize};

/// Full parameterization of a simulated `HYBRID(∞, γ)` network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Number of nodes `n` of the local communication graph.
    pub n: usize,
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
            global_capacity_msgs: Self::log_n(n),
        }
    }

    /// `HYBRID(∞, γ)` with an explicit per-node global message budget
    /// (`γ` in messages per round), as used by Theorem 14.
    pub fn hybrid_with_global_capacity(n: usize, gamma_msgs: usize) -> Self {
        ModelParams {
            n,
            global_capacity_msgs: gamma_msgs,
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
        assert_eq!(ModelParams::log_n(8), 3);
        assert_eq!(ModelParams::log_n(9), 4);
        assert_eq!(ModelParams::log_n(1024), 10);
        assert_eq!(ModelParams::log_n(1025), 11);
    }

    #[test]
    fn hybrid_defaults() {
        let p = ModelParams::hybrid(1000);
        assert_eq!(p.global_capacity_msgs, 10);
        assert_eq!(p.gamma_bits(), 100);
    }

    #[test]
    fn explicit_gamma() {
        let p = ModelParams::hybrid_with_global_capacity(256, 64);
        assert_eq!(p.global_capacity_msgs, 64);
    }
}
