//! Clock calibration: a short probe beside every timed repetition.
//!
//! The shared host this benchmark was sized on changes speed under the guest
//! without telling it: identical passes fall into two states about 1.26×
//! apart that flip every few milliseconds to tens of seconds, steal time
//! stays 0, and CPU time tracks wall time.  A ten-second window's median
//! therefore lands in either state or between them — identical runs spread
//! 7–21 % — whatever order statistic is taken.
//!
//! A latency-bound integer chain sees the same speed changes.  Timing one
//! directly before and after each repetition and scaling the repetition's
//! wall time by `NOMINAL_PROBE_S ÷ probe time` brings the spread of identical
//! runs to 1–2 % for compute-bound workloads and 2–5 % for memory- and
//! syscall-bound ones (README.md, "Noise floor").  A probe once per run does
//! not: the speed changes within runs.
//!
//! Reported times are thus "seconds at the nominal clock": what the
//! repetition takes when the probe takes [`NOMINAL_PROBE_S`], which on the
//! reference box is its fast state.

use std::time::Instant;

/// Iterations of one probe chain.
const CHAIN_STEPS: u64 = 100_000;
/// Chains per probe; the fastest counts, so one interrupt does not.
const CHAINS_PER_PROBE: usize = 3;
/// What one chain takes in the reference box's fast state, seconds.  Only
/// the scale of reported times depends on it; comparisons do not.
pub const NOMINAL_PROBE_S: f64 = 143e-6;

/// A dependent xorshift chain: one cycle-bound instruction after another,
/// nothing for the optimizer to fold and nothing to miss in cache.
fn chain(steps: u64) -> u64 {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Seconds one chain takes right now.
pub fn probe() -> f64 {
    (0..CHAINS_PER_PROBE)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(chain(CHAIN_STEPS));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One timed repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Wall time as measured, seconds.
    pub wall_s: f64,
    /// Mean of the probes directly before and after, seconds.
    pub probe_s: f64,
}

impl Timing {
    /// Wall time scaled to the nominal clock.
    pub fn calibrated_s(&self) -> f64 {
        self.wall_s * NOMINAL_PROBE_S / self.probe_s
    }
}

/// Runs `f` between two probes.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let before = probe();
    let start = Instant::now();
    let result = f();
    let wall_s = start.elapsed().as_secs_f64();
    let after = probe();
    (
        result,
        Timing {
            wall_s,
            probe_s: (before + after) / 2.0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_by_the_probe_ratio() {
        let slow = Timing {
            wall_s: 0.5,
            probe_s: 2.0 * NOMINAL_PROBE_S,
        };
        assert!((slow.calibrated_s() - 0.25).abs() < 1e-12);
        let nominal = Timing {
            wall_s: 0.5,
            probe_s: NOMINAL_PROBE_S,
        };
        assert_eq!(nominal.calibrated_s(), 0.5);
    }

    #[test]
    fn the_chain_is_not_folded_away() {
        // Twice the steps take measurably longer: the loop really runs.
        let time = |steps| {
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(chain(steps));
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        assert!(time(400_000) > 1.5 * time(100_000));
        assert!(probe() > 0.0);
    }
}
