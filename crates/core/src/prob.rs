//! Basic probabilistic tools (paper Appendix A): the sampling utilities used
//! throughout the randomized algorithms.

use rand::seq::SliceRandom;
use rand::Rng;

use hybrid_graph::NodeId;

/// Samples a subset of `0..n` where each node joins independently with
/// probability `p` (the paper's "random sources/targets" regime).
pub fn sample_with_probability(n: usize, p: f64, rng: &mut impl Rng) -> Vec<NodeId> {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
    (0..n as NodeId).filter(|_| rng.gen_bool(p)).collect()
}

/// Samples exactly `k` distinct nodes uniformly from `0..n`, sorted.  The
/// `Vec` holds room for `k` ids, not for the `n` it was drawn from.
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_distinct(n: usize, k: usize, rng: &mut impl Rng) -> Vec<NodeId> {
    assert!(k <= n, "cannot sample {k} distinct nodes out of {n}");
    let mut all: Vec<NodeId> = (0..n as NodeId).collect();
    all.shuffle(rng);
    all.truncate(k);
    all.shrink_to_fit();
    all.sort_unstable();
    all
}

/// Natural logarithm of `n`, clamped below at 1 — the `ln n` factor that the
/// paper's sampling probabilities multiply in to make Chernoff bounds work.
pub fn ln_n(n: usize) -> f64 {
    (n.max(3) as f64).ln().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sampling_with_probability_has_expected_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let s = sample_with_probability(10_000, 0.1, &mut rng);
        assert!((800..1200).contains(&s.len()), "got {}", s.len());
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(sample_with_probability(100, 0.0, &mut rng).is_empty());
        assert_eq!(sample_with_probability(100, 1.0, &mut rng).len(), 100);
    }

    #[test]
    fn sample_distinct_is_distinct_and_sorted() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let s = sample_distinct(50, 20, &mut rng);
        assert_eq!(s.len(), 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&v| (v as usize) < 50));
    }

    #[test]
    fn sample_distinct_holds_only_its_sample() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let s = sample_distinct(100_000, 8, &mut rng);
        assert_eq!(s.capacity(), 8);
        // The draw itself is unchanged by the trim.
        assert_eq!(s, [1083, 7818, 27374, 39345, 39384, 40726, 73463, 86748]);
        assert_eq!(sample_distinct(1000, 0, &mut rng).capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_too_many_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        sample_distinct(5, 6, &mut rng);
    }

    #[test]
    fn ln_n_clamped() {
        assert!((ln_n(1) - 3.0_f64.ln()).abs() < 1e-9); // clamped to ln 3
        assert!(ln_n(1000) > 6.0);
    }
}
