//! Query-serving reproduction: build a [`DistanceOracle`] once, then serve
//! batched point-to-point queries and record what was answered.
//!
//! The artifact, `results/oracle_answers.json` ([`OracleAnswersReport`]), is
//! the semantic output: the landmark set, one FNV-1a digest per answered
//! batch and the saturating sum of all answers — bit-identical across
//! `RAYON_NUM_THREADS` and part of the CI cross-thread diff.  How fast the
//! batches are served (queries/s, p50 and p99 per layer) is measured by the
//! `serve` workload of `benchmark/`, not here.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use hybrid_core::oracle::{DistanceOracle, OracleConfig, ORACLE_STRETCH};
use hybrid_graph::{generators, Fnv1a64, Graph, NodeId};

/// Workload shape for the oracle serving benchmark.
#[derive(Debug, Clone)]
pub struct OracleBenchConfig {
    /// Grid side lengths of the weighted instance (`n = dims.0 · dims.1`).
    pub dims: (usize, usize),
    /// Maximum random edge weight.
    pub max_weight: u64,
    /// Number of query batches to serve.
    pub batches: usize,
    /// Queries per batch.
    pub batch_size: usize,
    /// Seed for the instance, the landmark sample and the query stream.
    pub seed: u64,
}

impl OracleBenchConfig {
    /// CI-sized workload (`--quick`).
    pub fn quick() -> Self {
        OracleBenchConfig {
            dims: (24, 24),
            max_weight: 32,
            batches: 12,
            batch_size: 2048,
            seed: 0x0_5E4F,
        }
    }

    /// Full-size workload.
    pub fn full() -> Self {
        OracleBenchConfig {
            dims: (48, 48),
            max_weight: 32,
            batches: 32,
            batch_size: 8192,
            seed: 0x0_5E4F,
        }
    }

    /// The benchmark instance: a connected weighted grid.
    pub fn build_graph(&self) -> Graph {
        generators::weighted_grid(&[self.dims.0, self.dims.1], self.max_weight, self.seed)
            .expect("bench grid")
    }

    /// The deterministic query stream: `batches` batches of uniform pairs.
    pub fn query_batches(&self, n: usize) -> Vec<Vec<(NodeId, NodeId)>> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        (0..self.batches)
            .map(|_| {
                (0..self.batch_size)
                    .map(|_| (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId)))
                    .collect()
            })
            .collect()
    }
}

/// Semantic output of an oracle serving run (`results/oracle_answers.json`;
/// bit-identical across pool widths, gated by the CI cross-thread diff).
#[derive(Debug, Clone, Serialize)]
pub struct OracleAnswersReport {
    /// Artifact schema tag.
    pub schema: &'static str,
    /// Nodes served.
    pub n: usize,
    /// Documented stretch of the serving contract.
    pub stretch: f64,
    /// The sorted landmark sample the build chose.
    pub landmarks: Vec<NodeId>,
    /// FNV-1a digest of each batch's answer vector, in serving order.
    pub batch_digests: Vec<u64>,
    /// FNV-1a digest of the first batch's witness-path arena.
    pub path_digest: u64,
    /// Saturating sum of every answered distance.
    pub answer_sum: u64,
}

/// FNV-1a over a stream of `u64` values.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a64::new();
    for v in values {
        h.write_u64(v);
    }
    h.finish()
}

/// Runs the serving workload: builds the oracle once, serves every batch
/// and returns the answers' digests.
pub fn oracle_bench_rows(config: &OracleBenchConfig) -> OracleAnswersReport {
    let graph = config.build_graph();
    let n = graph.n();
    let oracle = DistanceOracle::build(
        &graph,
        OracleConfig {
            seed: config.seed,
            ..OracleConfig::default()
        },
    )
    .expect("oracle build");

    let batches = config.query_batches(n);
    let mut digests = Vec::with_capacity(batches.len());
    let mut answer_sum: u64 = 0;
    for batch in &batches {
        let answers = oracle.query_batch(batch);
        for &a in &answers {
            answer_sum = answer_sum.saturating_add(a);
        }
        digests.push(fnv1a(answers));
    }
    // One witness-path batch pins the path arena in the semantic artifact.
    let paths = oracle.query_paths_batch(&batches[0]);
    let path_digest = fnv1a(
        paths
            .dists()
            .iter()
            .copied()
            .chain((0..paths.len()).flat_map(|i| paths.path(i).iter().map(|&v| v as u64))),
    );

    OracleAnswersReport {
        schema: "hybrid-oracle-answers/v1",
        n,
        stretch: ORACLE_STRETCH,
        landmarks: oracle.landmarks().to_vec(),
        batch_digests: digests,
        path_digest,
        answer_sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_deterministic_and_shaped() {
        let config = OracleBenchConfig {
            dims: (6, 6),
            max_weight: 8,
            batches: 3,
            batch_size: 64,
            seed: 42,
        };
        let ans_a = oracle_bench_rows(&config);
        let ans_b = oracle_bench_rows(&config);
        assert_eq!(ans_a.batch_digests.len(), 3);
        assert_eq!(ans_a.batch_digests, ans_b.batch_digests);
        assert_eq!(ans_a.answer_sum, ans_b.answer_sum);
        assert_eq!(ans_a.path_digest, ans_b.path_digest);
        assert_eq!(ans_a.landmarks, ans_b.landmarks);
    }
}
