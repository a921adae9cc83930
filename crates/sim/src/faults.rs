//! Seeded, deterministic fault injection for the protocols nodes execute.
//!
//! The paper's model is failure-free — its lower-bound witnesses (Theorems 4,
//! 10–12) assume every scheduled message arrives — but the engine already
//! implements the "adversary drops messages" reading of the γ receive cap
//! (Section 1.3), and the natural robustness question is how far measured
//! rounds degrade once the adversary is first-class.  This module makes that
//! adversary a value: a [`FaultPlan`] is a pure function from
//! `(round, sender, receiver, message index)` to a [`Fate`], plus precomputed
//! per-node crash-restart intervals and a transient local-graph partition.
//!
//! # Determinism
//!
//! A plan derives one per-run key from its seed through a `ChaCha8` stream
//! (the same generator every experiment seed flows through), and every
//! per-message decision is a SplitMix64-style hash of that key and the
//! message coordinates — the per-round analogue of the sweep's per-cell
//! substreams.  There is **no mutable RNG state**: two runners (or two
//! thread counts) asking for the same coordinates always get the same fate.
//! That is what lets the in-process [`Executor`](crate::engine::Executor)
//! and the `hybrid-driver` fleet, which share one
//! [`RoundRouter`](crate::router::RoundRouter), agree fate for fate under
//! one plan, and keeps every fault sweep bit-identical across
//! `RAYON_NUM_THREADS`.  The phase engine ([`crate::network`]) takes no
//! plan: its charged pipelines run failure-free, like the paper's model.
//!
//! # Fault classes
//!
//! * **Message faults** — each delivery attempt is independently dropped,
//!   duplicated (one extra copy, consuming capacity) or delayed (held for a
//!   bounded number of rounds) with the [`FaultSpec`] probabilities.  A
//!   retransmission is a *new* attempt at a later round, so it draws a fresh
//!   fate — the adversary is oblivious, not adaptive.
//! * **Node crash-restart** — a node crashes at a seeded round and sleeps for
//!   [`FaultSpec::crash_down_rounds`] rounds: it executes no program steps and
//!   receives nothing while down, but its state survives (the crash-*restart*
//!   model; a fail-stop model would be `crash_down_rounds = u64::MAX`, which
//!   breaks the completion guarantees below and is deliberately saturated
//!   rather than special-cased).
//! * **Partition** — during a seeded window, local edges crossing a random
//!   bipartition of the nodes are severed.  Transient by construction, so a
//!   connected graph has a connected *residual* graph once the window closes.
//!
//! Because crashes restart and partitions close, every (neighbour, token)
//! retransmission attempt succeeds with probability bounded away from zero
//! whenever `drop_prob < 1` — which is exactly the hypothesis of the
//! ack/retry dissemination guarantee pinned in [`crate::programs`].

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Round at which a node never crashes.
const NEVER: u64 = u64::MAX;

/// Hash salts separating the independent per-plan decision families.
const SALT_CRASH_IF: u64 = 0x01;
const SALT_CRASH_AT: u64 = 0x02;
const SALT_SIDE: u64 = 0x03;
const SALT_FATE: u64 = 0x04;

/// Distributional description of an adversary: per-message fault
/// probabilities, the crash-restart schedule shape and the partition window.
/// All probabilities are per *delivery attempt* (a retransmission draws a
/// fresh decision).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability a delivery attempt is dropped.
    pub drop_prob: f64,
    /// Probability a delivery attempt is duplicated (delivered twice; the
    /// extra copy consumes send/receive capacity like any other message).
    pub duplicate_prob: f64,
    /// Probability a delivery attempt is delayed.
    pub delay_prob: f64,
    /// Maximum delay in rounds (a delayed message is held `1..=max_delay_rounds`).
    pub max_delay_rounds: u64,
    /// Probability a node crashes at all during the crash horizon.
    pub crash_prob: f64,
    /// How many rounds a crashed node stays down before restarting.
    pub crash_down_rounds: u64,
    /// Crash times are seeded uniformly in `1..=crash_horizon_rounds`.
    pub crash_horizon_rounds: u64,
    /// First round of the partition window (`0` disables the partition).
    pub partition_start: u64,
    /// Length of the partition window in rounds.
    pub partition_rounds: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultSpec {
    /// The failure-free spec: every fate is [`Fate::Deliver`].
    pub const fn none() -> Self {
        FaultSpec {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            max_delay_rounds: 0,
            crash_prob: 0.0,
            crash_down_rounds: 0,
            crash_horizon_rounds: 0,
            partition_start: 0,
            partition_rounds: 0,
        }
    }

    /// A message-drop-only adversary with the given per-attempt probability.
    pub const fn drop_only(drop_prob: f64) -> Self {
        FaultSpec {
            drop_prob,
            ..Self::none()
        }
    }

    /// Whether every fate this spec can produce is [`Fate::Deliver`].
    pub fn is_failure_free(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.delay_prob == 0.0
            && self.crash_prob == 0.0
            && self.partition_rounds == 0
    }
}

/// The fate of one delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered normally.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Delivered twice (the extra copy costs capacity).
    Duplicate,
    /// Held for this many extra rounds, then delivered.
    Delay(u64),
}

/// A concrete, seeded fault schedule over an `n`-node execution: the
/// stateless per-message [`FaultPlan::fate`] function plus the precomputed
/// crash intervals and partition sides.  Cheap to clone (two `Vec`s).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Per-run key, drawn from a ChaCha8 stream seeded with the plan seed.
    key: u64,
    /// Per-node crash round (`NEVER` = the node never crashes).
    crash_at: Vec<u64>,
    /// Per-node partition side bit.
    side: Vec<bool>,
}

/// SplitMix64 finalizer — the same mixer the sweep uses for per-cell streams.
#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a unit-interval sample (53 mantissa bits, like `rand`).
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// Builds the plan for an `n`-node execution.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]`, if the message-fault
    /// probabilities sum past 1, or if a delay/crash probability is positive
    /// while its duration parameter is zero (a silent no-op would make a
    /// sweep row lie about its adversary).
    pub fn new(spec: FaultSpec, seed: u64, n: usize) -> Self {
        for (name, p) in [
            ("drop_prob", spec.drop_prob),
            ("duplicate_prob", spec.duplicate_prob),
            ("delay_prob", spec.delay_prob),
            ("crash_prob", spec.crash_prob),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} not in [0, 1]");
        }
        assert!(
            spec.drop_prob + spec.duplicate_prob + spec.delay_prob <= 1.0 + 1e-12,
            "message fault probabilities sum past 1"
        );
        assert!(
            spec.delay_prob == 0.0 || spec.max_delay_rounds > 0,
            "delay_prob > 0 requires max_delay_rounds > 0"
        );
        assert!(
            spec.crash_prob == 0.0 || (spec.crash_down_rounds > 0 && spec.crash_horizon_rounds > 0),
            "crash_prob > 0 requires crash_down_rounds > 0 and crash_horizon_rounds > 0"
        );
        // One ChaCha8 draw turns an arbitrary user seed into a well-mixed
        // per-run key; all per-decision streams hash off that key.
        let key = ChaCha8Rng::seed_from_u64(seed).next_u64();
        let crash_at: Vec<u64> = (0..n as u64)
            .map(|v| {
                if spec.crash_prob > 0.0
                    && unit(splitmix(key ^ splitmix(v ^ SALT_CRASH_IF))) < spec.crash_prob
                {
                    1 + splitmix(key ^ splitmix(v ^ SALT_CRASH_AT))
                        % spec.crash_horizon_rounds.max(1)
                } else {
                    NEVER
                }
            })
            .collect();
        let side: Vec<bool> = (0..n as u64)
            .map(|v| splitmix(key ^ splitmix(v ^ SALT_SIDE)) & 1 == 1)
            .collect();
        FaultPlan {
            spec,
            key,
            crash_at,
            side,
        }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The node count this plan was built for.
    pub fn n(&self) -> usize {
        self.crash_at.len()
    }

    /// Whether this plan can never produce a fault (see
    /// [`FaultSpec::is_failure_free`]).
    pub fn is_failure_free(&self) -> bool {
        self.spec.is_failure_free()
    }

    /// The fate of delivery attempt `idx` from `from` to `to` in `round` — a
    /// pure function of the coordinates, so the executor, the fleet and
    /// every thread count agree on it.  `idx` disambiguates multiple attempts with the
    /// same endpoints in the same round.
    pub fn fate(&self, round: u64, from: u32, to: u32, idx: u64) -> Fate {
        let s = &self.spec;
        if s.drop_prob == 0.0 && s.duplicate_prob == 0.0 && s.delay_prob == 0.0 {
            return Fate::Deliver;
        }
        let h = splitmix(
            self.key
                ^ splitmix(round ^ SALT_FATE)
                ^ splitmix((from as u64) << 32 | to as u64)
                ^ splitmix(idx.wrapping_mul(0xD134_2543_DE82_EF95)),
        );
        let u = unit(h);
        if u < s.drop_prob {
            Fate::Drop
        } else if u < s.drop_prob + s.duplicate_prob {
            Fate::Duplicate
        } else if u < s.drop_prob + s.duplicate_prob + s.delay_prob {
            // Reuse the high bits for the delay length: independent enough
            // of the fate threshold (different bit range of the same hash).
            Fate::Delay(1 + (h >> 7) % s.max_delay_rounds.max(1))
        } else {
            Fate::Deliver
        }
    }

    /// Whether `node` is crashed (asleep) in `round`.
    pub fn is_down(&self, node: u32, round: u64) -> bool {
        let at = self.crash_at[node as usize];
        at != NEVER && round >= at && round < at.saturating_add(self.spec.crash_down_rounds)
    }

    /// Whether the partition window severs the local edge `{u, v}` in `round`.
    pub fn cuts_local_edge(&self, u: u32, v: u32, round: u64) -> bool {
        self.spec.partition_rounds > 0
            && round >= self.spec.partition_start
            && round
                < self
                    .spec
                    .partition_start
                    .saturating_add(self.spec.partition_rounds)
            && self.side[u as usize] != self.side[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// The rounds by which every crash interval and the partition window
        /// have passed — an upper bound on how long the adversary can block
        /// a fixed pair of nodes outright (message faults keep applying
        /// forever).
        fn quiescent_after(&self) -> u64 {
            let crash_end = self
                .crash_at
                .iter()
                .filter(|&&at| at != NEVER)
                .map(|&at| at.saturating_add(self.spec.crash_down_rounds))
                .max()
                .unwrap_or(0);
            let partition_end = if self.spec.partition_rounds > 0 {
                self.spec
                    .partition_start
                    .saturating_add(self.spec.partition_rounds)
            } else {
                0
            };
            crash_end.max(partition_end)
        }
    }

    #[test]
    fn failure_free_plan_always_delivers() {
        let plan = FaultPlan::new(FaultSpec::none(), 42, 16);
        assert!(plan.is_failure_free());
        for round in 0..50 {
            for idx in 0..10 {
                assert_eq!(plan.fate(round, 0, 1, idx), Fate::Deliver);
            }
            for v in 0..16 {
                assert!(!plan.is_down(v, round));
                assert!(!plan.cuts_local_edge(v, (v + 1) % 16, round));
            }
        }
        assert_eq!(plan.quiescent_after(), 0);
    }

    #[test]
    fn fates_are_deterministic_and_seed_sensitive() {
        let spec = FaultSpec {
            drop_prob: 0.3,
            duplicate_prob: 0.1,
            delay_prob: 0.1,
            max_delay_rounds: 4,
            ..FaultSpec::none()
        };
        let a = FaultPlan::new(spec, 7, 8);
        let b = FaultPlan::new(spec, 7, 8);
        let c = FaultPlan::new(spec, 8, 8);
        let mut diverged = false;
        for round in 0..64 {
            for idx in 0..4 {
                let fa = a.fate(round, 1, 2, idx);
                assert_eq!(fa, b.fate(round, 1, 2, idx), "same seed must agree");
                if fa != c.fate(round, 1, 2, idx) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds should produce different fates");
    }

    #[test]
    fn drop_frequency_tracks_the_probability() {
        let plan = FaultPlan::new(FaultSpec::drop_only(0.4), 123, 4);
        let attempts = 20_000u64;
        let drops = (0..attempts)
            .filter(|&i| plan.fate(i / 50, (i % 3) as u32, 3, i) == Fate::Drop)
            .count() as f64;
        let rate = drops / attempts as f64;
        assert!((rate - 0.4).abs() < 0.02, "measured drop rate {rate}");
    }

    #[test]
    fn delay_lengths_stay_in_bounds() {
        let spec = FaultSpec {
            delay_prob: 1.0,
            max_delay_rounds: 5,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, 3, 4);
        for i in 0..1000 {
            match plan.fate(i, 0, 1, i) {
                Fate::Delay(d) => assert!((1..=5).contains(&d), "delay {d} out of range"),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn crash_intervals_are_restarting_and_bounded() {
        let spec = FaultSpec {
            crash_prob: 1.0,
            crash_down_rounds: 3,
            crash_horizon_rounds: 10,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, 99, 32);
        for v in 0..32u32 {
            let down: Vec<u64> = (0..40).filter(|&r| plan.is_down(v, r)).collect();
            assert_eq!(down.len(), 3, "node {v} must be down exactly 3 rounds");
            assert!(down[0] >= 1 && down[0] <= 10, "crash in the horizon");
            assert_eq!(down[2] - down[0], 2, "down interval is contiguous");
            assert!(!plan.is_down(v, plan.quiescent_after()));
        }
    }

    #[test]
    fn partition_cuts_only_cross_edges_inside_the_window() {
        let spec = FaultSpec {
            partition_start: 5,
            partition_rounds: 4,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, 21, 64);
        let mut cut_any = false;
        let mut kept_any = false;
        for u in 0..63u32 {
            let v = u + 1;
            assert!(!plan.cuts_local_edge(u, v, 4), "window starts at 5");
            assert!(!plan.cuts_local_edge(u, v, 9), "window ends before 9");
            if plan.cuts_local_edge(u, v, 5) {
                cut_any = true;
                assert!(plan.cuts_local_edge(u, v, 8));
            } else {
                kept_any = true;
            }
        }
        assert!(cut_any && kept_any, "a random bipartition cuts some edges");
        assert_eq!(plan.quiescent_after(), 9);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn out_of_range_probability_panics() {
        FaultPlan::new(FaultSpec::drop_only(1.5), 0, 4);
    }

    #[test]
    #[should_panic(expected = "sum past 1")]
    fn oversubscribed_fates_panic() {
        let spec = FaultSpec {
            drop_prob: 0.6,
            duplicate_prob: 0.3,
            delay_prob: 0.3,
            max_delay_rounds: 1,
            ..FaultSpec::none()
        };
        FaultPlan::new(spec, 0, 4);
    }

    #[test]
    #[should_panic(expected = "requires max_delay_rounds")]
    fn delay_without_duration_panics() {
        let spec = FaultSpec {
            delay_prob: 0.1,
            ..FaultSpec::none()
        };
        FaultPlan::new(spec, 0, 4);
    }
}
