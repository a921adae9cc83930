//! κ-wise independent universal hashing (paper Lemma 5.3 / Appendix A,
//! Definition A.5 and Lemma A.6).
//!
//! The `(k, ℓ)`-routing algorithm routes each source→target message through a
//! pseudo-random *intermediate node* `h(ID(s), ID(t))`.  The hash family must
//! be `κ`-wise independent for `κ = Θ(NQ_k · log n)` so that the
//! balls-into-bins argument (Lemma A.4) bounds every intermediate node's load
//! by `O(NQ_k)` w.h.p.  The classical construction — a random polynomial of
//! degree `κ − 1` over a prime field — achieves this, and the random seed
//! (its coefficient vector, `κ · O(log n)` bits) is what Theorem 1 broadcasts.

use rand::Rng;

/// The Mersenne prime `2^61 − 1`, comfortably above any `n^2` pair-encoding
/// used by the routing layer.
pub const FIELD_PRIME: u128 = (1u128 << 61) - 1;

/// A κ-wise independent hash function `h : [n] × [n] → [n]`, realized as a
/// degree-`(κ−1)` polynomial with uniformly random coefficients over
/// `GF(2^61 − 1)`.
#[derive(Debug, Clone)]
pub struct KWiseHash {
    coefficients: Vec<u64>,
    range: u64,
}

impl KWiseHash {
    /// Draws a random function from the family with independence `kappa` and
    /// output range `[0, range)`.
    ///
    /// # Panics
    /// Panics if `kappa == 0` or `range == 0`.
    pub fn sample(kappa: usize, range: u64, rng: &mut impl Rng) -> Self {
        assert!(kappa > 0, "independence parameter must be positive");
        assert!(range > 0, "hash range must be positive");
        let coefficients = (0..kappa)
            .map(|_| rng.gen_range(0..FIELD_PRIME as u64))
            .collect();
        KWiseHash {
            coefficients,
            range,
        }
    }

    /// Independence of the family this function was drawn from.
    pub fn independence(&self) -> usize {
        self.coefficients.len()
    }

    /// Size of the random seed in bits (what the routing algorithm has to
    /// broadcast, Lemma 5.3 property (3)).
    pub fn seed_bits(&self) -> u64 {
        (self.coefficients.len() as u64) * 61
    }

    /// Evaluates the polynomial at `x` and reduces into the output range.
    pub fn eval(&self, x: u64) -> u64 {
        let x = (x as u128) % FIELD_PRIME;
        let mut acc: u128 = 0;
        // Horner evaluation modulo the Mersenne prime.
        for &c in self.coefficients.iter().rev() {
            acc = (acc * x + c as u128) % FIELD_PRIME;
        }
        (acc % self.range as u128) as u64
    }

    /// Hashes an ordered pair `(a, b)` (e.g. `(ID(s), ID(t))`) by first
    /// injectively encoding it into a single field element.
    pub fn eval_pair(&self, a: u64, b: u64) -> u64 {
        // Injective for a, b < 2^30, far above any node count we simulate.
        debug_assert!(a < (1 << 30) && b < (1 << 30));
        self.eval((a << 30) | b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(9);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        let h1 = KWiseHash::sample(8, 100, &mut r1);
        let h2 = KWiseHash::sample(8, 100, &mut r2);
        for x in 0..50 {
            assert_eq!(h1.eval(x), h2.eval(x));
        }
    }

    #[test]
    fn output_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let h = KWiseHash::sample(16, 37, &mut rng);
        for x in 0..1000u64 {
            assert!(h.eval(x) < 37);
        }
        assert_eq!(h.independence(), 16);
        assert_eq!(h.seed_bits(), 16 * 61);
    }

    #[test]
    fn pair_encoding_distinguishes_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let h = KWiseHash::sample(4, 1 << 20, &mut rng);
        // Not a proof of injectivity, but the encodings of (a,b) and (b,a)
        // should almost surely hash differently for many pairs.
        let mut diffs = 0;
        for a in 0..50u64 {
            for b in 0..50u64 {
                if a != b && h.eval_pair(a, b) != h.eval_pair(b, a) {
                    diffs += 1;
                }
            }
        }
        assert!(diffs > 2000);
    }

    #[test]
    fn load_is_balanced_over_bins() {
        // Balls-into-bins sanity check (Lemma A.4 flavour): hashing n^2 pairs
        // into n bins, the maximum bin load should be close to n (within a
        // small constant factor), not concentrated.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 64u64;
        let h = KWiseHash::sample(32, n, &mut rng);
        let mut load = vec![0u64; n as usize];
        for a in 0..n {
            for b in 0..n {
                load[h.eval_pair(a, b) as usize] += 1;
            }
        }
        let max = *load.iter().max().unwrap();
        let avg = n;
        assert!(max <= 3 * avg, "max load {max} too far above average {avg}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_kappa_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        KWiseHash::sample(0, 10, &mut rng);
    }
}
