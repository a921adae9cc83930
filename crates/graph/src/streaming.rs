//! Sub-quadratic random-family samplers for the large-`n` scale tier.
//!
//! Everything with a closed-form edge list lives in [`crate::generators`],
//! which is also where the chunk helpers this module imports (`CHUNK`,
//! `emit_chunked`, `assemble`) are defined.  What remains here is genuinely a
//! second algorithm: the three random families and the re-weighting pass of
//! [`crate::generators`] draw one interleaved [`rand::Rng`] stream over all
//! `Θ(n²)` node pairs — a wall at `n ∈ {10⁵, 10⁶}` — so this module samples
//! them in expected `O(n + m)` instead: geometric skip sampling for
//! `G(n, p)`, the Miller–Hagberg weight-skipping walk for Chung–Lu,
//! radius-cell bucketing for the random geometric graph, and a chunked weight
//! pass.  They take a `u64` seed rather than an `Rng`.
//!
//! # Why two random streams still coexist
//!
//! The samplers here *cannot* reproduce the sequential streams without
//! re-scanning all `Θ(n²)` pairs, so they define their own canonical stream:
//! every chunk seeds its own `ChaCha8` from a SplitMix64-mixed `(seed, salt,
//! chunk index)` triple and draws independently of all other chunks.  The
//! small-`n` experiments and the `dissemination` / `kssp` benchmark workloads
//! are recorded with the sequential streams of [`crate::generators`], the
//! `n ≥ 10⁵` tier with these; the caller's tier selects one
//! (`GraphFamily::build` vs `build_streamed` in `hybrid-bench`).  Retiring
//! either re-records every artifact and exact counter built on it, which is
//! its own follow-up PR.
//!
//! # Determinism contract
//!
//! Chunk boundaries are the fixed `CHUNK` constant, never derived from the
//! worker count, and the vendored rayon stitches mapped chunks in index order
//! — so every sampler here is bit-identical across `RAYON_NUM_THREADS` and
//! across repeated runs with the same seed.

use rand::{Rng, RngCore, SeedableRng, SplitMix64};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::csr::{Graph, NodeId, Weight};
use crate::error::GraphError;
use crate::generators::{assemble, emit_chunked, Edge, CHUNK};
use crate::unionfind::UnionFind;
use crate::Result;

/// Mixes `(seed, salt, chunk)` through a SplitMix64 step into an independent
/// `ChaCha8` stream seed.  `salt` separates the draw phases of one generator
/// (e.g. backbone parents vs. extra edges), `chunk` the parallel chunks.
fn chunk_rng(seed: u64, salt: u64, chunk: u64) -> ChaCha8Rng {
    let mut mix = SplitMix64::new(seed ^ (salt << 32) ^ chunk);
    ChaCha8Rng::seed_from_u64(mix.next_u64())
}

/// Streaming connected Erdős–Rényi graph `G(n, p)`.
///
/// The canonical stream differs from [`crate::generators::erdos_renyi`]:
/// connectivity comes from a random-parent backbone (`parent(v)` uniform in
/// `0..v`, drawn per chunk under salt 0), and the remaining pairs are sampled
/// row-by-row with geometric skips (salt 1) instead of an `Θ(n²)` Bernoulli
/// scan — expected `O(n + m)` draws in total.  A pair already used by the
/// backbone is skipped, keeping the graph simple.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability must be in [0,1], got {p}"),
        });
    }
    // Salt 0: backbone parents, parent(v) uniform in 0..v for v in 1..n.
    let parent_chunks: Vec<Vec<NodeId>> = (0..n.saturating_sub(1).div_ceil(CHUNK).max(1))
        .into_par_iter()
        .map(|c| {
            let lo = 1 + c * CHUNK;
            let hi = (lo + CHUNK).min(n);
            let mut rng = chunk_rng(seed, 0, c as u64);
            (lo..hi.max(lo))
                .map(|v| rng.gen_range(0..v) as NodeId)
                .collect()
        })
        .collect();
    let mut parents: Vec<NodeId> = Vec::with_capacity(n);
    parents.push(0); // node 0 has no parent; the sentinel is never read as one
    for chunk in parent_chunks {
        parents.extend(chunk);
    }
    let backbone = emit_chunked(n.saturating_sub(1), |_, range, out| {
        for i in range {
            let v = (i + 1) as NodeId;
            out.push((parents[v as usize], v, 1));
        }
    });

    // Salt 1: extra edges via geometric skip sampling over each row u.
    let parents_ref = &parents;
    let mut sections = backbone;
    if p > 0.0 && n > 1 {
        sections.extend(emit_chunked(n - 1, |c, range, out| {
            let mut rng = chunk_rng(seed, 1, c as u64);
            let ln_q = (1.0 - p).ln(); // -inf when p == 1: skips collapse to 0
            for u in range {
                let mut v = u + 1;
                loop {
                    if p < 1.0 {
                        let r: f64 = rng.gen();
                        v = v.saturating_add(((1.0 - r).ln() / ln_q) as usize);
                    }
                    if v >= n {
                        break;
                    }
                    if parents_ref[v] as usize != u {
                        out.push((u as NodeId, v as NodeId, 1));
                    }
                    v += 1;
                }
            }
        }));
    }
    assemble(n, sections)
}

/// Streaming random geometric graph on the unit square.
///
/// The canonical stream differs from [`crate::generators::random_geometric`]:
/// points are drawn per chunk (salt 0) and pairs are found through a uniform
/// cell grid of side `>= radius` — each node only compares against the 9
/// neighbouring cells, so the expected work is `O(n + m)` instead of `Θ(n²)`.
/// Stray components are stitched to their nearest foreign node (expanding
/// cell-ring search, smallest index on distance ties), mimicking the sequential
/// relay semantics deterministically.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if radius <= 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: "radius must be positive".into(),
        });
    }
    // Salt 0: points, drawn (x, y) per node in chunk order.
    let point_chunks: Vec<Vec<(f64, f64)>> = (0..n.div_ceil(CHUNK))
        .into_par_iter()
        .map(|c| {
            let lo = c * CHUNK;
            let hi = (lo + CHUNK).min(n);
            let mut rng = chunk_rng(seed, 0, c as u64);
            (lo..hi)
                .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
                .collect()
        })
        .collect();
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(n);
    for chunk in point_chunks {
        points.extend(chunk);
    }

    // Cell grid with side >= radius (capped so the grid stays O(n) cells).
    let cap = (n as f64).sqrt().ceil() as usize + 1;
    let cps = ((1.0 / radius).floor() as usize).clamp(1, cap);
    let cell_of = |x: f64| -> usize { ((x * cps as f64) as usize).min(cps - 1) };
    let cell_id: Vec<usize> = points
        .iter()
        .map(|&(x, y)| cell_of(y) * cps + cell_of(x))
        .collect();
    // Counting-sort nodes by cell; nodes stay in index order within a cell.
    let mut counts = vec![0u32; cps * cps + 1];
    for &c in &cell_id {
        counts[c + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let mut members = vec![0 as NodeId; n];
    let mut cursor = counts.clone();
    for (v, &c) in cell_id.iter().enumerate() {
        members[cursor[c] as usize] = v as NodeId;
        cursor[c] += 1;
    }
    let cell_range = |c: usize| counts[c] as usize..counts[c + 1] as usize;

    let r2 = radius * radius;
    let dist2 = |u: usize, v: usize| -> f64 {
        let dx = points[u].0 - points[v].0;
        let dy = points[u].1 - points[v].1;
        dx * dx + dy * dy
    };
    let mut sections = emit_chunked(n, |_, range, out| {
        let mut candidates: Vec<NodeId> = Vec::new();
        for u in range {
            candidates.clear();
            let (cx, cy) = (cell_of(points[u].0), cell_of(points[u].1));
            for dy in -1i64..=1 {
                let ny = cy as i64 + dy;
                if ny < 0 || ny >= cps as i64 {
                    continue;
                }
                for dx in -1i64..=1 {
                    let nx = cx as i64 + dx;
                    if nx < 0 || nx >= cps as i64 {
                        continue;
                    }
                    for &v in &members[cell_range(ny as usize * cps + nx as usize)] {
                        if (v as usize) > u && dist2(u, v as usize) <= r2 {
                            candidates.push(v);
                        }
                    }
                }
            }
            candidates.sort_unstable();
            for &v in &candidates {
                out.push((u as NodeId, v, 1));
            }
        }
    });

    // Stitch stray components to their nearest foreign node.
    let mut uf = UnionFind::new(n);
    for chunk in &sections {
        for &(u, v, _) in chunk {
            uf.union(u as usize, v as usize);
        }
    }
    let mut stitches: Vec<Edge> = Vec::new();
    while uf.count_sets() > 1 {
        // Lowest-index node not connected to node 0 anchors the next stitch.
        let u = (1..n)
            .find(|&v| !uf.connected(0, v))
            .expect("more than one component implies a node outside 0's set");
        let (cx, cy) = (cell_of(points[u].0), cell_of(points[u].1));
        let mut best: Option<(f64, usize)> = None;
        let mut ring = 0usize;
        loop {
            let mut scanned_any = false;
            for dy in -(ring as i64)..=(ring as i64) {
                let ny = cy as i64 + dy;
                if ny < 0 || ny >= cps as i64 {
                    continue;
                }
                for dx in -(ring as i64)..=(ring as i64) {
                    if dx.unsigned_abs() as usize != ring && dy.unsigned_abs() as usize != ring {
                        continue; // interior cells were scanned by smaller rings
                    }
                    let nx = cx as i64 + dx;
                    if nx < 0 || nx >= cps as i64 {
                        continue;
                    }
                    scanned_any = true;
                    for &v in &members[cell_range(ny as usize * cps + nx as usize)] {
                        if uf.connected(u, v as usize) {
                            continue;
                        }
                        let d = dist2(u, v as usize);
                        let better = match best {
                            None => true,
                            Some((bd, bv)) => d < bd || (d == bd && (v as usize) < bv),
                        };
                        if better {
                            best = Some((d, v as usize));
                        }
                    }
                }
            }
            // One extra ring after the first hit: the closest point of a
            // farther ring can still beat a corner hit of this ring.
            if best.is_some() && ring > 0 {
                break;
            }
            if !scanned_any && ring > 2 * cps {
                break;
            }
            ring += 1;
        }
        let (_, v) = best.expect("a foreign node exists while components remain");
        uf.union(u, v);
        stitches.push((u.min(v) as NodeId, u.max(v) as NodeId, 1));
    }
    sections.push(stitches);
    assemble(n, sections)
}

/// Streaming Chung–Lu power-law graph.
///
/// Weights and stray-component hub attachment match
/// [`crate::generators::chung_lu`] exactly; the pair sampling is the
/// Miller–Hagberg skipping walk (weights are sorted decreasing, so each row
/// walks `v` with geometric skips under the current upper-bound probability
/// and thins lazily to the true `min(1, w_u·w_v / Σw)`), drawn per row chunk
/// under a SplitMix-derived `ChaCha8` stream — expected `O(n + m)` draws.
pub fn chung_lu(n: usize, exponent: f64, avg_degree: f64, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if exponent <= 1.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("chung_lu requires a tail exponent > 1, got {exponent}"),
        });
    }
    if avg_degree <= 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: format!("chung_lu requires a positive average degree, got {avg_degree}"),
        });
    }
    let alpha = 1.0 / (exponent - 1.0);
    let raw: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect();
    let raw_sum: f64 = raw.iter().sum();
    let scale = n as f64 * avg_degree / raw_sum;
    let w: Vec<f64> = raw.iter().map(|r| r * scale).collect();
    let total: f64 = n as f64 * avg_degree;

    let w_ref = &w;
    let mut sections = if n > 1 {
        emit_chunked(n - 1, |c, range, out| {
            let mut rng = chunk_rng(seed, 0, c as u64);
            for u in range {
                let wu = w_ref[u];
                let mut v = u + 1;
                let mut p = (wu * w_ref[v] / total).min(1.0);
                while v < n && p > 0.0 {
                    if p < 1.0 {
                        let r: f64 = rng.gen();
                        v = v.saturating_add(((1.0 - r).ln() / (1.0 - p).ln()) as usize);
                        if v >= n {
                            break;
                        }
                    }
                    let q = (wu * w_ref[v] / total).min(1.0);
                    if rng.gen::<f64>() < q / p {
                        out.push((u as NodeId, v as NodeId, 1));
                    }
                    p = q;
                    v += 1;
                }
            }
        })
    } else {
        Vec::new()
    };

    // Attach every stray component to the hub (node 0) through its
    // lowest-index node — the same rule as `generators::chung_lu`.
    if n > 1 {
        let mut uf = UnionFind::new(n);
        for chunk in &sections {
            for &(u, v, _) in chunk {
                uf.union(u as usize, v as usize);
            }
        }
        let mut stitches: Vec<Edge> = Vec::new();
        for v in 1..n {
            if !uf.connected(0, v) {
                uf.union(0, v);
                stitches.push((0, v as NodeId, 1));
            }
        }
        sections.push(stitches);
    }
    assemble(n, sections)
}

/// Streaming re-weighting: replaces every edge weight by an independent
/// uniform draw in `[1, max_weight]`, one SplitMix-derived `ChaCha8` stream
/// per edge chunk.  The canonical stream differs from
/// [`crate::generators::with_random_weights`] (which draws sequentially), but
/// is seed- and thread-deterministic at any size.
pub fn with_random_weights(graph: &Graph, max_weight: Weight, seed: u64) -> Result<Graph> {
    if max_weight == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "max_weight must be >= 1".into(),
        });
    }
    let edges = graph.edges();
    let sections = emit_chunked(edges.len(), |c, range, out| {
        let mut rng = chunk_rng(seed, 0, c as u64);
        for i in range {
            let (u, v, _) = edges[i];
            out.push((u, v, rng.gen_range(1..=max_weight)));
        }
    });
    assemble(graph.n(), sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::graph_digest;
    use crate::generators::{
        barbell, cycle, fat_tree, grid, path, ring_of_cliques, torus, tree_with_n,
    };
    use crate::traversal::connected_components;

    fn assert_same(a: &Graph, b: &Graph) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.edges(), b.edges());
    }

    /// "Legacy" is the recorded output of the sequential `add_edge`
    /// generators this repository shipped through PR 15 (commit 3a0f670): the
    /// digests below were printed by that commit's `generators::*`, before
    /// the chunk-emitted bodies replaced them, so they pin the edge order
    /// every recorded artifact was produced with.
    #[test]
    fn deterministic_families_match_legacy_bit_for_bit() {
        #[track_caller]
        fn check(what: &str, graph: Result<Graph>, legacy: u64) {
            assert_eq!(graph_digest(&graph.unwrap()), legacy, "{what} diverged");
        }
        // (n, path, tree_with_n(2, n), cycle — 0 where n < 3 is rejected).
        for (n, p, t, c) in [
            (1, 0x89cd31291d2aefa4, 0x89cd31291d2aefa4, 0),
            (2, 0xe73027868b51a887, 0xe73027868b51a887, 0),
            (
                3,
                0xa83d7610dc370a44,
                0xbf8b5ae734abb425,
                0x6a7d4f1a5b3a8667,
            ),
            (
                17,
                0xffeab2178e4744a4,
                0xcc3417119d545724,
                0xf30035388543b855,
            ),
            (
                64,
                0x804d8690a57e065b,
                0x9de27dbf2c4f147b,
                0x99e0c27ba249aaa5,
            ),
            (
                1000,
                0x72e62ce87a34693b,
                0x79a2250fbf7884b1,
                0xdccfccd722e5080c,
            ),
            (
                40_000,
                0xcf6416656433b83b,
                0x2bc212d5eabe3f35,
                0xc3de3803f77ab431,
            ),
        ] {
            check(&format!("path({n})"), path(n), p);
            check(&format!("tree_with_n(2, {n})"), tree_with_n(2, n), t);
            if n >= 3 {
                check(&format!("cycle({n})"), cycle(n), c);
            }
        }
        for (dims, legacy) in [
            (&[7, 9][..], 0xf5c37133364a35b4),
            (&[40, 40], 0x60e6a9c8050384d2),
            (&[5, 6, 7], 0xdb9192c45582fb73),
            (&[13, 13, 13], 0x8cc36516e6f32541),
            (&[200, 200], 0xf2a9039a135f1ab3),
        ] {
            check(&format!("grid({dims:?})"), grid(dims), legacy);
        }
        for (dims, legacy) in [
            (&[5, 7][..], 0xb098f43de5207fe6),
            (&[3, 3, 3], 0xcba5760c7cbe5cdf),
            (&[130, 130], 0x05d8be97ae73ec6b),
        ] {
            check(&format!("torus({dims:?})"), torus(dims), legacy);
        }
        check(
            "fat_tree(4, 8, 123)",
            fat_tree(4, 8, 123),
            0xc0bde995551b7884,
        );
        check(
            "ring_of_cliques(300, 8, 2)",
            ring_of_cliques(300, 8, 2),
            0x7b00cc54cc0812f6,
        );
        for (clique, tail, legacy) in [
            (1, 0, 0xe73027868b51a887),
            (4, 0, 0x5e4539ffdf3eca6b),
            (5, 3, 0xcbbed16719faae24),
            (300, 500, 0x34e3b82169168675),
        ] {
            check(
                &format!("barbell({clique}, {tail})"),
                barbell(clique, tail),
                legacy,
            );
        }
    }

    #[test]
    fn random_families_are_seed_deterministic_and_connected() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let n = 5000;
            let er1 = erdos_renyi(n, 6.0 / n as f64, seed).unwrap();
            let er2 = erdos_renyi(n, 6.0 / n as f64, seed).unwrap();
            assert_same(&er1, &er2);
            let (_, c) = connected_components(&er1);
            assert_eq!(c, 1, "ER not connected");

            let rgg1 = random_geometric(n, (8.0 / n as f64).sqrt(), seed).unwrap();
            let rgg2 = random_geometric(n, (8.0 / n as f64).sqrt(), seed).unwrap();
            assert_same(&rgg1, &rgg2);
            let (_, c) = connected_components(&rgg1);
            assert_eq!(c, 1, "RGG not connected");

            let cl1 = chung_lu(n, 2.5, 6.0, seed).unwrap();
            let cl2 = chung_lu(n, 2.5, 6.0, seed).unwrap();
            assert_same(&cl1, &cl2);
            let (_, c) = connected_components(&cl1);
            assert_eq!(c, 1, "Chung-Lu not connected");
        }
    }

    #[test]
    fn random_families_land_in_the_expected_density_regime() {
        let n = 20_000;
        let er = erdos_renyi(n, 6.0 / n as f64, 42).unwrap();
        let avg = 2.0 * er.m() as f64 / n as f64;
        assert!((4.0..=10.0).contains(&avg), "ER average degree {avg:.2}");

        let rgg = random_geometric(n, (8.0 / n as f64).sqrt(), 42).unwrap();
        let avg = 2.0 * rgg.m() as f64 / n as f64;
        // Expected degree ≈ π·r²·n = 8π ≈ 25 (minus boundary effects).
        assert!((10.0..=40.0).contains(&avg), "RGG average degree {avg:.2}");

        let cl = chung_lu(n, 2.5, 6.0, 42).unwrap();
        let avg = 2.0 * cl.m() as f64 / n as f64;
        assert!(
            (2.0..=12.0).contains(&avg),
            "Chung-Lu average degree {avg:.2}"
        );
        // Heavy tail: the hub (node 0, maximum weight) dwarfs the average.
        let max_deg = cl.nodes().map(|v| cl.degree(v)).max().unwrap();
        assert!(max_deg as f64 >= 4.0 * avg, "no hub: {max_deg} vs {avg:.1}");
    }

    #[test]
    fn er_p_one_is_complete() {
        let g = erdos_renyi(40, 1.0, 3).unwrap();
        assert_eq!(g.m(), 40 * 39 / 2);
    }

    #[test]
    fn streamed_reweighting_is_deterministic_and_in_range() {
        let base = grid(&[50, 50]).unwrap();
        let w1 = with_random_weights(&base, 32, 9).unwrap();
        let w2 = with_random_weights(&base, 32, 9).unwrap();
        assert_same(&w1, &w2);
        assert_eq!(w1.m(), base.m());
        for (&(u, v, w), &(bu, bv, _)) in w1.edges().iter().zip(base.edges()) {
            assert_eq!((u, v), (bu, bv));
            assert!((1..=32).contains(&w));
        }
        assert!(with_random_weights(&base, 0, 9).is_err());
    }

    #[test]
    fn validation_errors_match_legacy() {
        // Same rejections as the sequential random families of
        // `generators` (the deterministic families' live in its tests).
        assert!(erdos_renyi(10, 1.5, 0).is_err());
        assert!(erdos_renyi(0, 0.5, 0).is_err());
        assert!(random_geometric(10, 0.0, 0).is_err());
        assert!(chung_lu(10, 1.0, 6.0, 0).is_err());
        assert!(chung_lu(10, 2.5, 0.0, 0).is_err());
    }
}
