//! Schneider-style shortest paths — the rival algorithm of *Towards
//! Universally Optimal Shortest Paths* (`[Sch23]`, arXiv:2306.05977),
//! reproduced as a competing [`crate::algorithm::SsspAlgorithm`]
//! implementation.
//!
//! # Shape
//!
//! Where Theorem 14 schedules Theorem 13 SSSP instances on a *sampled
//! skeleton* sized to the global budget (`x = √(k/γ)`), the `[Sch23]` baseline
//! reproduced here is **skeleton-free**: it composes truncated `h`-hop
//! knowledge with *global shortcuts* through a fixed deterministic landmark
//! set, and pays for the truncation depth directly:
//!
//! 1. **Landmarks** — `≈ √n` nodes chosen by a fixed id stride (no sampling,
//!    no randomness);
//! 2. **Iterative deepening** — every landmark and every source runs an
//!    `h`-hop-limited sweep over the local network, starting at
//!    `h₀ = max(2, ⌈n^{1/3}⌉)` and doubling until *every* sweep reports its
//!    Bellman–Ford fixpoint (each attempt costs `h` local rounds; the total
//!    is a geometric sum `≤ 4·h_final`).  This is the structural difference
//!    the shootout measures: the deepening bill is bounded by the *hop
//!    diameter*, which Theorem 14's skeleton never pays (its bill is
//!    `Õ(√(k/γ))` plus the charged Theorem 13 calls).  On the quick sweep
//!    grid (`sweep_scaling.json`) the baseline is nonetheless the *faster*
//!    one in 61 of the 66 `hybrid` / `scarce-global` cells, while Theorem 14
//!    wins all 33 `rich-global` cells (`k ≤ γ` takes its fast path, one
//!    charged Theorem 13 call).  Outside `rich-global` Theorem 14 wins only
//!    where the hop diameter is largest: the path at n = 128 and 256 and
//!    the cycle at n = 256 (`hybrid`), and the path at n = 256
//!    (`scarce-global`); the cycle at n = 128 (`hybrid`) ties.  These
//!    verdicts are asserted on the quick grid by `hybrid-bench`'s
//!    `sweep::tests::quick_grid_covers_every_family_size_and_point`, and
//!    they rest on the Theorem 13 cost constant (`sssp.rs`'s
//!    `COST_CONSTANT`).  The path's gap and its collapse on a grid are
//!    pinned by `crates/core/tests/rivals.rs`;
//! 3. **Global shortcut composition** — landmarks exchange their overlay
//!    rows over the global network (`⌈|L|/γ⌉` rounds), sources inject their
//!    entry distances (`⌈k/γ⌉` rounds), and every node composes
//!    `label(v) = min(d^h(s, v), min_L d^h(s, L) + d^h(L, v))`, quantized by
//!    the allowed `(1+ε)` error.  That is a `(min, +)` product and runs on
//!    the shared kernel ([`crate::minplus::compose`]): the landmark rows are
//!    the right-hand side, each source's entry distances one dense
//!    coefficient row, its own sweep the initial row.
//!
//! Because the deepening loop runs until every row is at its fixpoint, the
//! composed labels are exact-then-quantized — genuine stretch `1+ε`, the same
//! substitution convention the repo uses for Theorem 13 (ARCHITECTURE.md,
//! *Label contract*) — which is what lets the differential conformance suite
//! cross-check this implementation against Theorem 14 bit for bit on the
//! stretch contract ([`crate::stretch`]).

use hybrid_graph::{NodeId, Weight};
use hybrid_sim::HybridNetwork;

use crate::kssp::KsspOutput;
use crate::minplus::{self, Assignment, Coeff, RowMatrix};
use crate::rows::DistanceRows;

/// Number of landmarks used for `n` nodes: `⌈√n⌉`, matching the `[Sch23]`
/// overlay density (and the Theorem 14 skeleton size at `k = n`, `γ = 1`).
pub fn landmark_count(n: usize) -> usize {
    (n.max(1) as f64).sqrt().ceil() as usize
}

/// The fixed deterministic landmark set: ids `0, s, 2s, …` with stride
/// `s = ⌊n / ⌈√n⌉⌋` — no randomness anywhere.
pub fn landmarks(n: usize) -> Vec<NodeId> {
    let count = landmark_count(n);
    let stride = (n / count).max(1);
    (0..n).step_by(stride).map(|v| v as NodeId).collect()
}

/// Initial deepening depth `h₀ = max(2, ⌈n^{1/3}⌉)`.
pub fn initial_depth(n: usize) -> usize {
    ((n.max(1) as f64).powf(1.0 / 3.0).ceil() as usize).max(2)
}

/// `[Sch23]`-style `k`-source shortest paths: deterministic landmarks,
/// iterative-deepening `h`-hop sweeps, global shortcut composition.
/// Stretch `1+ε`; rounds dominated by the deepening bill `Θ(hop-diameter)`
/// on sparse families.
pub fn schneider_kssp(net: &mut HybridNetwork, sources: &[NodeId], epsilon: f64) -> KsspOutput {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let graph = net.graph_arc();
    let n = graph.n();
    let k = sources.len();
    let gamma = net.params().global_capacity_msgs.max(1) as u64;
    let before = net.rounds();

    if k == 0 {
        return KsspOutput {
            dist: DistanceRows::from_rows(Vec::new(), n, Vec::new()),
            stretch: 1.0 + epsilon,
            epsilon,
            rounds: 0,
            skeleton_size: 0,
        };
    }

    let lm = landmarks(n);

    // Phase 1+2: iterative deepening until every sweep (landmark and source
    // alike) reaches its Bellman–Ford fixpoint.  Each attempt costs `h` local
    // rounds; re-sweeping from scratch is exactly how iterative deepening
    // pays, and the geometric schedule keeps the total within 4·h_final.
    let mut h = initial_depth(n);
    let (lm_rows, src_rows) = loop {
        net.charge_local("schneider/h-hop-sweep", h as u64);
        let sweep = |nodes: &[NodeId]| {
            let (rows, converged) = DistanceRows::hop_limited(&graph, nodes, h);
            (rows, converged.iter().all(|&c| c))
        };
        let (l_rows, l_conv) = sweep(&lm);
        let (s_rows, s_conv) = sweep(sources);
        if (l_conv && s_conv) || h >= 2 * n {
            break (l_rows, s_rows);
        }
        h *= 2;
    };

    // Phase 3a: landmark overlay exchange — each landmark ships its |L|-entry
    // overlay row over the global network under the γ budget.
    net.charge_rounds(
        "schneider/landmark-overlay-exchange",
        (lm.len() as u64).div_ceil(gamma).max(1),
    );
    // Phase 3b: sources inject their landmark entry distances.
    net.charge_rounds(
        "schneider/source-entry-exchange",
        (k as u64).div_ceil(gamma).max(1),
    );
    // Coordination (deepening consensus + landmark id agreement).
    net.charge_rounds("schneider/coordination", net.log_n());

    // Phase 3c: shortcut composition, then (1+ε) quantization.  With every
    // sweep at its fixpoint the direct term dominates by the triangle
    // inequality; the composition is still evaluated in full — it is the
    // algorithm's data path, and the dominance is debug-asserted.
    let coeffs: Vec<Coeff> = src_rows
        .iter()
        .map(|row| Coeff::Dense(lm.iter().map(|&l| row[l as usize]).collect()))
        .collect();
    let assign: Vec<Assignment> = (0..k).map(|i| Some((i, 0))).collect();
    let init: Vec<&[Weight]> = src_rows.iter().collect();
    let composed = minplus::compose(
        &RowMatrix::new(lm_rows.into_rows()),
        &coeffs,
        &assign,
        &init,
    );
    debug_assert!(
        composed.iter().zip(&init).all(|(c, &i)| c == i),
        "converged direct row must dominate"
    );
    let dist = DistanceRows::from_rows(sources.to_vec(), n, composed).quantized(epsilon);

    KsspOutput {
        dist,
        stretch: 1.0 + epsilon,
        epsilon,
        rounds: net.rounds() - before,
        skeleton_size: lm.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;
    use std::sync::Arc;

    #[test]
    fn landmark_set_is_deterministic_and_sized() {
        let l = landmarks(256);
        assert_eq!(l, landmarks(256));
        assert!(l.len() >= 16 && l.len() <= 32, "got {}", l.len());
        assert!(l.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn labels_respect_stretch_on_weighted_grid() {
        let g = Arc::new(generators::weighted_grid(&[9, 9], 20, 7).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let sources: Vec<NodeId> = vec![0, 17, 40, 80];
        let out = schneider_kssp(&mut net, &sources, 0.5);
        assert!((out.stretch - 1.5).abs() < 1e-9);
        assert_eq!(out.skeleton_size, landmarks(g.n()).len());
        out.verify_stretch(&g).unwrap();
    }

    #[test]
    fn deepening_bill_scales_with_hop_diameter() {
        let path = Arc::new(generators::path(128).unwrap());
        let grid = Arc::new(generators::grid(&[12, 11]).unwrap());
        let mut net_p = HybridNetwork::hybrid(Arc::clone(&path));
        let mut net_g = HybridNetwork::hybrid(Arc::clone(&grid));
        let out_p = schneider_kssp(&mut net_p, &[0, 63], 1.0);
        let out_g = schneider_kssp(&mut net_g, &[0, 63], 1.0);
        // Path: deepening must reach h ≥ 127; grid of ~same n converges at
        // h ≈ 21, so the path bill is several times larger.
        assert!(
            out_p.rounds > 2 * out_g.rounds,
            "path {} vs grid {}",
            out_p.rounds,
            out_g.rounds
        );
        out_p.verify_stretch(&path).unwrap();
        out_g.verify_stretch(&grid).unwrap();
    }

    #[test]
    fn empty_sources_is_noop() {
        let g = Arc::new(generators::cycle(16).unwrap());
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let out = schneider_kssp(&mut net, &[], 0.5);
        assert!(out.dist.is_empty());
        assert_eq!(out.rounds, 0);
    }
}
