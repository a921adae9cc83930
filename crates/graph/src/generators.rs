//! Graph-family generators: the single home of every deterministic family
//! and of the recorded small-`n` random streams.
//!
//! These cover the families analysed in the paper (paths, cycles and
//! `d`-dimensional grids — Theorems 15 & 16; polynomial-growth graphs —
//! Theorem 17), the worst-case-style topologies used by existential lower
//! bounds (long paths attached to dense cores, Section 3.3 discussion), and
//! realistic topologies for the example applications (data-center fat trees,
//! random geometric "wireless" graphs, Erdős–Rényi graphs).
//!
//! # Who owns what
//!
//! * The seven sweep families with a closed-form edge list — [`path`],
//!   [`cycle`], [`grid`] / [`torus`], [`tree_with_n`], [`fat_tree`],
//!   [`ring_of_cliques`], [`barbell`] — have exactly one body, here.  Each
//!   checks its node count against [`MAX_NODES`] before emitting anything
//!   (`node_count`), emits its edges over fixed-size index chunks in parallel
//!   (`emit_chunked`) and assembles them through the pre-sized builder with
//!   no per-edge hashing (`assemble`).  The chunk length is a constant, never
//!   derived from the worker count, and the vendored rayon stitches chunks in
//!   index order and runs regions of at most one chunk inline — so the output
//!   is bit-identical at every pool width, and the thousands of small test
//!   graphs never touch the pool.  The edge order is the one every recorded
//!   artifact was produced with (pinned by golden digests in
//!   `streaming::tests` and `tests/property_tests.rs`).
//! * [`complete`], [`star`], [`caterpillar`] and [`lollipop`] are small-`n`
//!   helpers built edge by edge through the validating [`GraphBuilder`].
//! * The random families here ([`erdos_renyi`], [`random_geometric`],
//!   [`chung_lu`], [`with_random_weights`]) take an explicit [`Rng`] and draw
//!   one sequential stream over all `Θ(n²)` pairs: the stream the small-`n`
//!   `results/` artifacts and benchmark counters are recorded with.
//!   [`crate::streaming`] holds their sub-quadratic `n ≥ 10⁵` counterparts,
//!   which draw a *different* (per-chunk) stream; the caller's tier picks
//!   one, and retiring either re-records artifacts, so both stay until a
//!   follow-up PR that says so.

use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;

use crate::builder::MAX_NODES;
use crate::csr::{Graph, NodeId, Weight};
use crate::error::GraphError;
use crate::{GraphBuilder, Result};

/// Fixed chunk length for parallel emission.  A constant (rather than
/// anything derived from the worker count) is what keeps chunk-emitted graphs
/// bit-identical across `RAYON_NUM_THREADS`.
pub(crate) const CHUNK: usize = 1 << 14;

pub(crate) type Edge = (NodeId, NodeId, Weight);

/// The one size gate of the chunk-emitted families: takes the node count as
/// computed with checked arithmetic (`None` = overflowed `usize`) and rejects
/// anything past [`MAX_NODES`] before a single edge is emitted, which is also
/// what makes the `as NodeId` endpoint casts below lossless.
fn node_count(n: Option<usize>) -> Result<usize> {
    match n {
        Some(n) if n <= MAX_NODES => Ok(n),
        _ => Err(GraphError::TooManyNodes {
            n: n.unwrap_or(usize::MAX),
        }),
    }
}

/// Runs `emit` over fixed-size index chunks of `0..total` in parallel and
/// returns the per-chunk edge vectors in chunk order.
pub(crate) fn emit_chunked(
    total: usize,
    emit: impl Fn(usize, std::ops::Range<usize>, &mut Vec<Edge>) + Sync,
) -> Vec<Vec<Edge>> {
    let chunks = total.div_ceil(CHUNK);
    (0..chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * CHUNK;
            let hi = (lo + CHUNK).min(total);
            let mut out = Vec::new();
            emit(c, lo..hi, &mut out);
            out
        })
        .collect()
}

/// Stitches chunked edge sections into a pre-sized builder (exact edge count,
/// no per-edge hashing) and finalises with the usual connectivity check.
pub(crate) fn assemble(n: usize, sections: Vec<Vec<Edge>>) -> Result<Graph> {
    let m: usize = sections.iter().map(Vec::len).sum();
    let mut b = GraphBuilder::streaming(n, m)?;
    for chunk in sections {
        for (u, v, w) in chunk {
            b.push_normalized_edge(u, v, w);
        }
    }
    b.build()
}

/// Path graph `P_n` on `n` nodes.  `NQ_k ∈ Θ(min(√k, D))` (Theorem 15).
pub fn path(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let n = node_count(Some(n))?;
    assemble(
        n,
        emit_chunked(n - 1, |_, range, out| {
            for i in range {
                out.push((i as NodeId, (i + 1) as NodeId, 1));
            }
        }),
    )
}

/// Cycle graph `C_n` on `n >= 3` nodes.
pub fn cycle(n: usize) -> Result<Graph> {
    if n < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("cycle requires n >= 3, got {n}"),
        });
    }
    let n = node_count(Some(n))?;
    assemble(
        n,
        emit_chunked(n, |_, range, out| {
            for i in range {
                if i + 1 < n {
                    out.push((i as NodeId, (i + 1) as NodeId, 1));
                } else {
                    out.push((0, (n - 1) as NodeId, 1));
                }
            }
        }),
    )
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_unweighted_edge(u as NodeId, v as NodeId)?;
        }
    }
    b.build()
}

/// Star graph on `n` nodes (node 0 is the hub).
pub fn star(n: usize) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_unweighted_edge(0, v as NodeId)?;
    }
    b.build()
}

/// `d`-dimensional grid graph with side lengths `dims` (Definition 3.9 uses
/// equal sides; arbitrary sides are supported).  `NQ_k ∈ Θ(min(k^{1/(d+1)}, D))`
/// for constant `d` (Theorem 16).
pub fn grid(dims: &[usize]) -> Result<Graph> {
    lattice(dims, false)
}

/// `d`-dimensional torus (grid with wrap-around edges).
pub fn torus(dims: &[usize]) -> Result<Graph> {
    lattice(dims, true)
}

fn lattice(dims: &[usize], wrap: bool) -> Result<Graph> {
    if dims.is_empty() || dims.contains(&0) {
        return Err(GraphError::InvalidParameter {
            reason: "grid dimensions must be non-empty and positive".into(),
        });
    }
    if wrap && dims.iter().any(|&d| d < 3) {
        return Err(GraphError::InvalidParameter {
            reason: "torus requires every dimension >= 3".into(),
        });
    }
    let n = node_count(dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)))?;
    let mut strides = vec![1usize; dims.len()];
    for i in 1..dims.len() {
        strides[i] = strides[i - 1] * dims[i - 1];
    }
    assemble(
        n,
        emit_chunked(n, |_, range, out| {
            let mut coords = vec![0usize; dims.len()];
            for flat in range {
                let mut rest = flat;
                for (i, &d) in dims.iter().enumerate() {
                    coords[i] = rest % d;
                    rest /= d;
                }
                for (axis, &d) in dims.iter().enumerate() {
                    if coords[axis] + 1 < d {
                        out.push((flat as NodeId, (flat + strides[axis]) as NodeId, 1));
                    } else if wrap {
                        // Wrap-around edge back to coordinate 0 on this axis.
                        let first = flat - (d - 1) * strides[axis];
                        out.push((first as NodeId, flat as NodeId, 1));
                    }
                }
            }
        }),
    )
}

/// Complete `arity`-ary tree of the given `depth` (depth 0 is a single root).
///
/// The node count is `1 + arity + … + arity^depth`, which can overshoot a
/// size target by up to `arity ×`; experiment sweeps that need a tree of a
/// *specific* size should use [`tree_with_n`] instead.
pub fn tree_balanced(arity: usize, depth: usize) -> Result<Graph> {
    if arity == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "tree arity must be positive".into(),
        });
    }
    // Number of nodes: 1 + arity + arity^2 + ... + arity^depth.
    let mut n = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level = level.saturating_mul(arity);
        n = n.saturating_add(level);
    }
    tree_with_n(arity, n)
}

/// Truncated complete `arity`-ary tree with **exactly** `n` nodes: the tree
/// is filled level by level in BFS (heap) numbering — node `v`'s children are
/// `arity·v + 1 ..= arity·v + arity` — and simply stops at `n`, so every
/// level except possibly the last is full.  This keeps the depth at
/// `⌈log_arity n⌉` without the up-to-`arity ×` size overshoot of
/// [`tree_balanced`].
pub fn tree_with_n(arity: usize, n: usize) -> Result<Graph> {
    if arity == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "tree arity must be positive".into(),
        });
    }
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let n = node_count(Some(n))?;
    assemble(
        n,
        emit_chunked(n - 1, |_, range, out| {
            for i in range {
                // Parent of node v (BFS numbering): (v - 1) / arity.
                let v = i + 1;
                out.push((((v - 1) / arity) as NodeId, v as NodeId, 1));
            }
        }),
    )
}

/// Caterpillar graph: a spine path of `spine` nodes, each with `legs` pendant
/// leaves.  A sparse, large-diameter family with `NQ_k` strictly smaller than
/// `√k` for moderate `k`.
pub fn caterpillar(spine: usize, legs: usize) -> Result<Graph> {
    if spine == 0 {
        return Err(GraphError::Empty);
    }
    let n = spine * (legs + 1);
    let mut b = GraphBuilder::new(n);
    for s in 1..spine {
        b.add_unweighted_edge((s - 1) as NodeId, s as NodeId)?;
    }
    for s in 0..spine {
        for l in 0..legs {
            let leaf = spine + s * legs + l;
            b.add_unweighted_edge(s as NodeId, leaf as NodeId)?;
        }
    }
    b.build()
}

/// Lollipop graph: a clique on `clique` nodes with a path of `tail` nodes
/// attached — the archetypal graph behind existential `Ω(√k)` lower bounds
/// ("graphs that feature an isolated long path", Section 3.2).
pub fn lollipop(clique: usize, tail: usize) -> Result<Graph> {
    if clique == 0 {
        return Err(GraphError::Empty);
    }
    let n = clique + tail;
    let mut b = GraphBuilder::new(n);
    for u in 0..clique {
        for v in (u + 1)..clique {
            b.add_unweighted_edge(u as NodeId, v as NodeId)?;
        }
    }
    for t in 0..tail {
        let prev = if t == 0 { clique - 1 } else { clique + t - 1 };
        b.add_unweighted_edge(prev as NodeId, (clique + t) as NodeId)?;
    }
    b.build()
}

/// Connected Erdős–Rényi graph `G(n, p)`: a uniform random spanning tree is
/// added first to guarantee connectivity, then every remaining pair is joined
/// independently with probability `p`.
pub fn erdos_renyi(n: usize, p: f64, rng: &mut impl Rng) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability must be in [0,1], got {p}"),
        });
    }
    let mut b = GraphBuilder::new(n);
    // Random spanning tree via random attachment to an already-connected prefix
    // of a random permutation.
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    perm.shuffle(rng);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        b.add_unweighted_edge(perm[i], perm[j])?;
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if !b.contains_edge(u as NodeId, v as NodeId) && rng.gen_bool(p) {
                b.add_unweighted_edge(u as NodeId, v as NodeId)?;
            }
        }
    }
    b.build()
}

/// Random geometric graph on the unit square with connection radius `radius`;
/// models short-range wireless links.  Falls back to connecting each isolated
/// component to its nearest node (by Euclidean distance) to guarantee
/// connectivity, mimicking a deployment that adds relays where needed.
pub fn random_geometric(n: usize, radius: f64, rng: &mut impl Rng) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    if radius <= 0.0 {
        return Err(GraphError::InvalidParameter {
            reason: "radius must be positive".into(),
        });
    }
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut b = GraphBuilder::new(n);
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = points[u].0 - points[v].0;
            let dy = points[u].1 - points[v].1;
            if dx * dx + dy * dy <= r2 {
                b.add_unweighted_edge(u as NodeId, v as NodeId)?;
            }
        }
    }
    // Stitch components together through nearest cross-component pairs.
    loop {
        let g = b.clone().build_unchecked_connectivity();
        let (comp, count) = crate::traversal::connected_components(&g);
        if count == 1 {
            break;
        }
        // Connect component 0 to its nearest node in another component.
        let mut best: Option<(f64, usize, usize)> = None;
        for u in 0..n {
            if comp[u] != 0 {
                continue;
            }
            for v in 0..n {
                if comp[v] == 0 {
                    continue;
                }
                let dx = points[u].0 - points[v].0;
                let dy = points[u].1 - points[v].1;
                let d2 = dx * dx + dy * dy;
                if best.is_none_or(|(bd, _, _)| d2 < bd) {
                    best = Some((d2, u, v));
                }
            }
        }
        let (_, u, v) = best.expect("at least two components have nodes");
        b.add_unweighted_edge(u as NodeId, v as NodeId)?;
    }
    b.build()
}

/// A simplified two-level fat-tree / leaf–spine data-center topology:
/// `spines` spine switches, `leaves` leaf switches (each connected to every
/// spine) and `hosts_per_leaf` hosts per leaf.  Small diameter, highly
/// non-uniform neighbourhood growth — the regime where universal optimality
/// pays off most.
pub fn fat_tree(spines: usize, leaves: usize, hosts_per_leaf: usize) -> Result<Graph> {
    if spines == 0 || leaves == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "fat_tree requires at least one spine and one leaf".into(),
        });
    }
    let n = node_count(
        leaves
            .checked_mul(hosts_per_leaf)
            .and_then(|hosts| hosts.checked_add(leaves)?.checked_add(spines)),
    )?;
    assemble(
        n,
        emit_chunked(leaves, |_, range, out| {
            for l in range {
                let leaf = spines + l;
                for s in 0..spines {
                    out.push((s as NodeId, leaf as NodeId, 1));
                }
                for h in 0..hosts_per_leaf {
                    let host = spines + leaves + l * hosts_per_leaf + h;
                    out.push((leaf as NodeId, host as NodeId, 1));
                }
            }
        }),
    )
}

/// Chung–Lu random graph with a power-law expected-degree sequence: node `i`
/// gets weight `w_i ∝ (i + 1)^{-1/(exponent - 1)}`, scaled so the average
/// expected degree is `avg_degree`, and each pair `{u, v}` is joined
/// independently with probability `min(1, w_u·w_v / Σw)`.  The resulting
/// degree distribution is heavy-tailed with tail exponent ≈ `exponent` —
/// high-degree hubs next to long low-degree fringes, the regime where the
/// per-node global capacity `γ` (not `√k`) governs HYBRID round complexity.
///
/// Connectivity is restored deterministically: every component not containing
/// node 0 (the maximum-weight hub) is attached to node 0 through its
/// lowest-index member, mimicking a scale-free network whose stragglers peer
/// with the dominant hub.
pub fn chung_lu(n: usize, exponent: f64, avg_degree: f64, rng: &mut impl Rng) -> Result<Graph> {
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
    // Scale so Σw = n·avg_degree, making the expected degree of node u
    // approximately w_u (before the min(1, ·) clipping).
    let scale = n as f64 * avg_degree / raw_sum;
    let w: Vec<f64> = raw.iter().map(|r| r * scale).collect();
    let total: f64 = n as f64 * avg_degree;
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = (w[u] * w[v] / total).min(1.0);
            if rng.gen_bool(p) {
                b.add_unweighted_edge(u as NodeId, v as NodeId)?;
            }
        }
    }
    // Attach every stray component to the hub (node 0) through its
    // lowest-index node — deterministic given the edges drawn above.
    if n > 1 {
        let g = b.clone().build_unchecked_connectivity();
        let (comp, count) = crate::traversal::connected_components(&g);
        if count > 1 {
            let mut attached = vec![false; count];
            attached[comp[0]] = true;
            for v in 1..n {
                if !attached[comp[v]] {
                    attached[comp[v]] = true;
                    b.add_unweighted_edge(0, v as NodeId)?;
                }
            }
        }
    }
    b.build()
}

/// Ring of cliques: `cliques` cliques of `clique_size` nodes arranged in a
/// cycle, each adjacent pair joined by `bridges` parallel-free edges (bridge
/// `i` connects node `i` of one clique to node `i` of the next).  A clustered
/// small-world family with a tunable cut: locally dense (`NQ_k` small inside
/// a clique) but globally cycle-like, so dissemination must cross `bridges`
/// edges per cut — stressing the interplay of local flooding and the global
/// scheduler.  `bridges` must be at most `clique_size`.
pub fn ring_of_cliques(cliques: usize, clique_size: usize, bridges: usize) -> Result<Graph> {
    if cliques < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("ring_of_cliques requires >= 3 cliques, got {cliques}"),
        });
    }
    if clique_size == 0 {
        return Err(GraphError::Empty);
    }
    if bridges == 0 || bridges > clique_size {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "ring_of_cliques requires 1 <= bridges <= clique_size, got {bridges} bridges for clique size {clique_size}"
            ),
        });
    }
    let n = node_count(cliques.checked_mul(clique_size))?;
    assemble(
        n,
        emit_chunked(cliques, |_, range, out| {
            for c in range {
                let base = c * clique_size;
                for u in 0..clique_size {
                    for v in (u + 1)..clique_size {
                        out.push(((base + u) as NodeId, (base + v) as NodeId, 1));
                    }
                }
                let next_base = ((c + 1) % cliques) * clique_size;
                for i in 0..bridges {
                    let (a, b) = (base + i, next_base + i);
                    out.push((a.min(b) as NodeId, a.max(b) as NodeId, 1));
                }
            }
        }),
    )
}

/// Barbell graph: two cliques of `clique` nodes joined by a path of
/// `path_len` intermediate nodes.  The archetypal bottleneck topology — all
/// clique-to-clique traffic funnels through one path — which stresses the
/// γ-capacitated global scheduler exactly where the paper's universal lower
/// bound (the node communication problem across the narrow cut) is tight.
pub fn barbell(clique: usize, path_len: usize) -> Result<Graph> {
    if clique == 0 {
        return Err(GraphError::Empty);
    }
    let n = node_count(
        clique
            .checked_mul(2)
            .and_then(|cliques| cliques.checked_add(path_len)),
    )?;
    // Clique A: nodes [0, clique); path: [clique, clique + path_len);
    // clique B: [clique + path_len, n).
    let clique_rows = |base: usize| {
        emit_chunked(clique, move |_, range, out| {
            for u in range {
                for v in (u + 1)..clique {
                    out.push(((base + u) as NodeId, (base + v) as NodeId, 1));
                }
            }
        })
    };
    let mut sections = clique_rows(0);
    sections.extend(clique_rows(clique + path_len));
    sections.extend(emit_chunked(path_len + 1, |_, range, out| {
        for i in range {
            // i = 0 attaches the path to the last node of clique A; the final
            // index attaches it to the first node of clique B.
            let (a, b) = if i == 0 {
                (clique - 1, clique)
            } else {
                (clique + i - 1, clique + i)
            };
            out.push((a as NodeId, b as NodeId, 1));
        }
    }));
    assemble(n, sections)
}

/// Replaces every edge weight by an independent uniform weight in `[1, max_weight]`.
pub fn with_random_weights(graph: &Graph, max_weight: Weight, rng: &mut impl Rng) -> Result<Graph> {
    if max_weight == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "max_weight must be >= 1".into(),
        });
    }
    let mut b = GraphBuilder::new(graph.n());
    for &(u, v, _) in graph.edges() {
        b.add_edge(u, v, rng.gen_range(1..=max_weight))?;
    }
    b.build()
}

/// Weighted grid convenience wrapper: [`grid`] followed by [`with_random_weights`].
pub fn weighted_grid(dims: &[usize], max_weight: Weight, rng: &mut impl Rng) -> Result<Graph> {
    with_random_weights(&grid(dims)?, max_weight, rng)
}

/// Weighted Erdős–Rényi convenience wrapper.
pub fn weighted_erdos_renyi(
    n: usize,
    p: f64,
    max_weight: Weight,
    rng: &mut impl Rng,
) -> Result<Graph> {
    with_random_weights(&erdos_renyi(n, p, rng)?, max_weight, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::diameter;
    use crate::traversal::connected_components;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn path_cycle_shapes() {
        let p = path(7).unwrap();
        assert_eq!((p.n(), p.m()), (7, 6));
        let c = cycle(7).unwrap();
        assert_eq!((c.n(), c.m()), (7, 7));
        assert!(cycle(2).is_err());
        assert!(path(0).is_err());
    }

    #[test]
    fn oversize_requests_are_rejected_before_any_edge_is_emitted() {
        // Each of these would need gigabytes to terabytes of edge storage;
        // the typed error must come back without allocating any of it.
        let too_many = |r: Result<Graph>| matches!(r, Err(GraphError::TooManyNodes { .. }));
        assert!(too_many(path(usize::MAX)));
        assert!(too_many(path(1 << 40)));
        assert!(too_many(cycle(MAX_NODES + 1)));
        assert!(too_many(tree_with_n(2, 1 << 40)));
        assert!(too_many(grid(&[1 << 20, 1 << 20])));
        assert!(too_many(grid(&[usize::MAX, 2])));
        assert!(too_many(torus(&[70_000, 70_000])));
        assert!(too_many(fat_tree(4, 1 << 20, 1 << 20)));
        assert!(too_many(fat_tree(usize::MAX, 1, 0)));
        assert!(too_many(barbell(1 << 31, 0)));
        assert!(too_many(barbell(2, usize::MAX)));
        assert!(too_many(ring_of_cliques(1 << 30, 8, 2)));
        assert_eq!(
            grid(&[usize::MAX, 2]).unwrap_err(),
            GraphError::TooManyNodes { n: usize::MAX },
            "an overflowed product reports usize::MAX"
        );
    }

    #[test]
    fn complete_and_star() {
        let k = complete(6).unwrap();
        assert_eq!(k.m(), 15);
        assert_eq!(diameter(&k), 1);
        let s = star(10).unwrap();
        assert_eq!(s.m(), 9);
        assert_eq!(diameter(&s), 2);
        assert_eq!(s.degree(0), 9);
    }

    #[test]
    fn grid_structure() {
        let g = grid(&[4, 5]).unwrap();
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 * 4 + 3 * 5); // horizontal + vertical edges
        assert_eq!(diameter(&g), 3 + 4);
        let g3 = grid(&[3, 3, 3]).unwrap();
        assert_eq!(g3.n(), 27);
        assert_eq!(diameter(&g3), 6);
        assert!(grid(&[]).is_err());
        assert!(grid(&[0, 3]).is_err());
    }

    #[test]
    fn torus_is_regular_and_smaller_diameter() {
        let t = torus(&[4, 4]).unwrap();
        assert_eq!(t.n(), 16);
        for v in t.nodes() {
            assert_eq!(t.degree(v), 4);
        }
        assert!(diameter(&t) <= diameter(&grid(&[4, 4]).unwrap()));
        assert!(torus(&[2, 4]).is_err());
    }

    #[test]
    fn balanced_tree_counts() {
        let t = tree_balanced(2, 3).unwrap();
        assert_eq!(t.n(), 15);
        assert_eq!(t.m(), 14);
        assert_eq!(diameter(&t), 6);
        let t = tree_balanced(3, 2).unwrap();
        assert_eq!(t.n(), 13);
        assert!(tree_balanced(0, 2).is_err());
    }

    #[test]
    fn tree_with_n_hits_size_exactly() {
        for arity in 1..=4usize {
            for n in 1..=40usize {
                let t = tree_with_n(arity, n).unwrap();
                assert_eq!(t.n(), n, "arity {arity}");
                assert_eq!(t.m(), n - 1, "a tree has n-1 edges");
                let (_, c) = connected_components(&t);
                assert_eq!(c, 1);
            }
        }
        assert!(tree_with_n(0, 5).is_err());
        assert!(tree_with_n(2, 0).is_err());
    }

    #[test]
    fn tree_with_n_matches_balanced_on_complete_sizes() {
        // On node counts that form complete trees the two constructions are
        // the same graph (identical BFS numbering).
        let full = tree_balanced(2, 3).unwrap();
        let trunc = tree_with_n(2, 15).unwrap();
        assert_eq!(full.edges(), trunc.edges());
        // Truncation keeps the depth logarithmic: 20 nodes, arity 2 ⇒ the
        // deepest node (19) sits at depth 4, so the diameter is at most 8.
        let t = tree_with_n(2, 20).unwrap();
        assert!(diameter(&t) <= 8, "diameter {}", diameter(&t));
    }

    #[test]
    fn caterpillar_and_lollipop() {
        let c = caterpillar(5, 3).unwrap();
        assert_eq!(c.n(), 20);
        assert_eq!(c.m(), 4 + 15);
        let l = lollipop(5, 10).unwrap();
        assert_eq!(l.n(), 15);
        assert_eq!(l.m(), 10 + 10);
        assert_eq!(diameter(&l), 11);
    }

    #[test]
    fn erdos_renyi_connected_and_seeded() {
        let g1 = erdos_renyi(60, 0.05, &mut rng(7)).unwrap();
        let g2 = erdos_renyi(60, 0.05, &mut rng(7)).unwrap();
        assert_eq!(g1.edges(), g2.edges());
        let (_, c) = connected_components(&g1);
        assert_eq!(c, 1);
        assert!(erdos_renyi(10, 1.5, &mut rng(0)).is_err());
    }

    #[test]
    fn erdos_renyi_p_one_is_complete() {
        let g = erdos_renyi(8, 1.0, &mut rng(3)).unwrap();
        assert_eq!(g.m(), 28);
    }

    #[test]
    fn random_geometric_connected() {
        let g = random_geometric(50, 0.18, &mut rng(11)).unwrap();
        let (_, c) = connected_components(&g);
        assert_eq!(c, 1);
        assert!(random_geometric(10, 0.0, &mut rng(0)).is_err());
    }

    #[test]
    fn fat_tree_shape() {
        let g = fat_tree(4, 8, 10).unwrap();
        assert_eq!(g.n(), 4 + 8 + 80);
        assert_eq!(g.m(), 4 * 8 + 80);
        assert_eq!(diameter(&g), 4);
        assert!(fat_tree(0, 3, 2).is_err());
    }

    #[test]
    fn chung_lu_connected_seeded_and_heavy_tailed() {
        let g1 = chung_lu(300, 2.5, 6.0, &mut rng(42)).unwrap();
        let g2 = chung_lu(300, 2.5, 6.0, &mut rng(42)).unwrap();
        assert_eq!(g1.edges(), g2.edges(), "not seed-deterministic");
        assert_eq!(g1.n(), 300);
        let (_, c) = connected_components(&g1);
        assert_eq!(c, 1, "not connected");
        // Heavy tail: the hub degree dwarfs the average degree.
        let degrees: Vec<usize> = g1.nodes().map(|v| g1.degree(v)).collect();
        let max_deg = *degrees.iter().max().unwrap();
        let avg_deg = 2.0 * g1.m() as f64 / g1.n() as f64;
        assert!(
            max_deg as f64 >= 4.0 * avg_deg,
            "no hub: max degree {max_deg} vs average {avg_deg:.1}"
        );
        // The hub is node 0 (maximum weight).
        assert_eq!(g1.degree(0), max_deg);
        assert!(chung_lu(0, 2.5, 6.0, &mut rng(0)).is_err());
        assert!(chung_lu(10, 1.0, 6.0, &mut rng(0)).is_err());
        assert!(chung_lu(10, 2.5, 0.0, &mut rng(0)).is_err());
    }

    #[test]
    fn chung_lu_average_degree_in_the_right_regime() {
        let g = chung_lu(400, 2.5, 6.0, &mut rng(7)).unwrap();
        let avg = 2.0 * g.m() as f64 / g.n() as f64;
        // min(1, ·) clipping and stitching shift the average a little; it must
        // stay in the same regime as the requested expected degree.
        assert!((2.0..=12.0).contains(&avg), "average degree {avg:.2}");
    }

    #[test]
    fn ring_of_cliques_shape() {
        let g = ring_of_cliques(5, 4, 2).unwrap();
        assert_eq!(g.n(), 20);
        // 5 cliques of C(4,2)=6 edges plus 5 cuts of 2 bridges.
        assert_eq!(g.m(), 5 * 6 + 5 * 2);
        let (_, c) = connected_components(&g);
        assert_eq!(c, 1);
        // Singleton cliques with one bridge degenerate to a cycle.
        let ring = ring_of_cliques(7, 1, 1).unwrap();
        let cyc = cycle(7).unwrap();
        assert_eq!(ring.m(), cyc.m());
        assert!(ring_of_cliques(2, 4, 1).is_err());
        assert!(ring_of_cliques(4, 3, 4).is_err());
        assert!(ring_of_cliques(4, 3, 0).is_err());
        assert!(ring_of_cliques(4, 0, 1).is_err());
    }

    #[test]
    fn ring_of_cliques_diameter_scales_with_ring() {
        // Crossing c cliques costs ≥ c hops, so the diameter grows with the
        // ring length while staying small within a clique.
        let short = ring_of_cliques(4, 6, 1).unwrap();
        let long = ring_of_cliques(12, 2, 1).unwrap();
        assert!(diameter(&long) > diameter(&short));
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5, 3).unwrap();
        assert_eq!(g.n(), 13);
        // Two C(5,2)=10 cliques plus a 3-node path contributing 4 edges.
        assert_eq!(g.m(), 2 * 10 + 4);
        let (_, c) = connected_components(&g);
        assert_eq!(c, 1);
        // Diameter: 1 (clique A) + 4 (path edges) + 1 (clique B).
        assert_eq!(diameter(&g), 6);
        // Degenerate cases still build connected graphs.
        let direct = barbell(4, 0).unwrap();
        assert_eq!(direct.n(), 8);
        assert_eq!(direct.m(), 2 * 6 + 1);
        let k2 = barbell(1, 0).unwrap();
        assert_eq!((k2.n(), k2.m()), (2, 1));
        assert!(barbell(0, 3).is_err());
    }

    #[test]
    fn random_weights_in_range() {
        let g = weighted_grid(&[5, 5], 100, &mut rng(5)).unwrap();
        assert!(g.is_weighted() || g.edges().iter().all(|&(_, _, w)| w == 1));
        for &(_, _, w) in g.edges() {
            assert!((1..=100).contains(&w));
        }
        assert!(with_random_weights(&path(3).unwrap(), 0, &mut rng(0)).is_err());
    }

    #[test]
    fn weighted_er_preserves_topology() {
        let mut r1 = rng(9);
        let base = erdos_renyi(30, 0.1, &mut r1).unwrap();
        let w = with_random_weights(&base, 50, &mut r1).unwrap();
        assert_eq!(base.m(), w.m());
        for (a, b) in base.edges().iter().zip(w.edges()) {
            assert_eq!((a.0, a.1), (b.0, b.1));
        }
    }
}
