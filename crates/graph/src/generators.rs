//! Graph-family generators: the one home of every family, deterministic and
//! random, at every size from a single node to `10⁶`.
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
//!   [`cycle`], [`grid`], [`tree_with_n`], [`fat_tree`],
//!   [`ring_of_cliques`], [`barbell`] — have exactly one body, here.  Each
//!   checks its node count against [`MAX_NODES`] before emitting anything
//!   (`node_count`), emits its edges over fixed-size index chunks in parallel
//!   (`emit_chunked`) and assembles them through the pre-sized builder with
//!   no per-edge hashing (`assemble`).  The chunk length is a constant, never
//!   derived from the worker count, and the vendored rayon stitches chunks in
//!   index order and runs regions of at most one chunk inline — so the output
//!   is bit-identical at every pool width, and the thousands of small test
//!   graphs never touch the pool.  The edge order is the one every recorded
//!   artifact was produced with (pinned by golden digests in this module's
//!   tests and `tests/property_tests.rs`).
//! * [`complete`], [`star`], [`caterpillar`] and [`lollipop`] are small-`n`
//!   helpers built edge by edge through the validating [`GraphBuilder`].
//! * The random families ([`erdos_renyi`], [`random_geometric`],
//!   [`chung_lu`]) and the re-weighting pass ([`with_random_weights`]) take a
//!   `u64` seed and sample in expected `O(n + m)`: geometric skip sampling
//!   for `G(n, p)`, the Miller–Hagberg weight-skipping walk for Chung–Lu,
//!   radius-cell bucketing for the random geometric graph and a chunked
//!   weight pass.  Every chunk seeds its own `ChaCha8` from a
//!   SplitMix64-mixed `(seed, salt, chunk index)` triple and draws
//!   independently of all other chunks, so these too are bit-identical
//!   across `RAYON_NUM_THREADS` and across repeated runs with one seed.

use rand::{Rng, RngCore, SeedableRng, SplitMix64};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::builder::MAX_NODES;
use crate::csr::{Graph, NodeId, Weight};
use crate::error::GraphError;
use crate::unionfind::UnionFind;
use crate::{GraphBuilder, Result};

/// Fixed chunk length for parallel emission.  A constant (rather than
/// anything derived from the worker count) is what keeps chunk-emitted graphs
/// bit-identical across `RAYON_NUM_THREADS`.
const CHUNK: usize = 1 << 14;

type Edge = (NodeId, NodeId, Weight);

/// Mixes `(seed, salt, chunk)` through a SplitMix64 step into an independent
/// `ChaCha8` stream seed.  `salt` separates the draw phases of one generator
/// (e.g. backbone parents vs. extra edges), `chunk` the parallel chunks.
fn chunk_rng(seed: u64, salt: u64, chunk: u64) -> ChaCha8Rng {
    let mut mix = SplitMix64::new(seed ^ (salt << 32) ^ chunk);
    ChaCha8Rng::seed_from_u64(mix.next_u64())
}

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
fn emit_chunked(
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
fn assemble(n: usize, sections: Vec<Vec<Edge>>) -> Result<Graph> {
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
    if dims.is_empty() || dims.contains(&0) {
        return Err(GraphError::InvalidParameter {
            reason: "grid dimensions must be non-empty and positive".into(),
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
                    }
                }
            }
        }),
    )
}

/// Truncated complete `arity`-ary tree with **exactly** `n` nodes: the tree
/// is filled level by level in BFS (heap) numbering — node `v`'s children are
/// `arity·v + 1 ..= arity·v + arity` — and simply stops at `n`, so every
/// level except possibly the last is full.  This keeps the depth at
/// `⌈log_arity n⌉`, and on `n = 1 + arity + … + arity^depth` it is the
/// complete tree of that depth.
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

/// Connected Erdős–Rényi graph `G(n, p)`.
///
/// Connectivity comes from a random-parent backbone (`parent(v)` uniform in
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
    // Salt 0: the backbone edge (parent(v), v), parent(v) uniform in 0..v.
    let mut sections = emit_chunked(n - 1, |c, range, out| {
        let mut rng = chunk_rng(seed, 0, c as u64);
        for v in range.start + 1..range.end + 1 {
            out.push((rng.gen_range(0..v) as NodeId, v as NodeId, 1));
        }
    });
    // Node 0 has no parent; the sentinel is never read as one.
    let parents: Vec<NodeId> = std::iter::once(0)
        .chain(sections.iter().flatten().map(|&(parent, _, _)| parent))
        .collect();

    // Salt 1: extra edges via geometric skip sampling over each row u.
    if p > 0.0 {
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
                    if parents[v] as usize != u {
                        out.push((u as NodeId, v as NodeId, 1));
                    }
                    v += 1;
                }
            }
        }));
    }
    assemble(n, sections)
}

/// Random geometric graph on the unit square with connection radius
/// `radius`; models short-range wireless links.
///
/// Points are drawn per chunk (salt 0) and pairs are found through a uniform
/// cell grid of side `>= radius` — each node only compares against the 9
/// neighbouring cells, so the expected work is `O(n + m)` instead of `Θ(n²)`.
/// Stray components are stitched to their nearest foreign node (expanding
/// cell-ring search, smallest index on distance ties), mimicking a
/// deployment that adds relays where needed.
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
/// The pair sampling is the Miller–Hagberg skipping walk (weights are sorted
/// decreasing, so each row walks `v` with geometric skips under the current
/// upper-bound probability and thins lazily to the true probability), drawn
/// per row chunk — expected `O(n + m)` draws.  Connectivity is restored
/// deterministically: every component not containing node 0 (the
/// maximum-weight hub) is attached to node 0 through its lowest-index member,
/// mimicking a scale-free network whose stragglers peer with the dominant hub.
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

    let mut sections = emit_chunked(n - 1, |c, range, out| {
        let mut rng = chunk_rng(seed, 0, c as u64);
        for u in range {
            let wu = w[u];
            let mut v = u + 1;
            let mut p = (wu * w[v] / total).min(1.0);
            while v < n && p > 0.0 {
                if p < 1.0 {
                    let r: f64 = rng.gen();
                    v = v.saturating_add(((1.0 - r).ln() / (1.0 - p).ln()) as usize);
                    if v >= n {
                        break;
                    }
                }
                let q = (wu * w[v] / total).min(1.0);
                if rng.gen::<f64>() < q / p {
                    out.push((u as NodeId, v as NodeId, 1));
                }
                p = q;
                v += 1;
            }
        }
    });

    // Attach every stray component to the hub through its lowest-index node.
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
    assemble(n, sections)
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

/// Replaces every edge weight by an independent uniform draw in
/// `[1, max_weight]`, one stream per edge chunk.
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

/// Weighted grid convenience wrapper: [`grid`] followed by [`with_random_weights`].
pub fn weighted_grid(dims: &[usize], max_weight: Weight, seed: u64) -> Result<Graph> {
    with_random_weights(&grid(dims)?, max_weight, seed)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::balls::BallOracle;
    use crate::fnv::graph_digest;

    /// Hop diameter: the largest eccentricity of profiles run to the end.
    fn diameter(g: &Graph) -> u64 {
        BallOracle::new(g, u64::MAX).max_eccentricity().unwrap()
    }

    fn components(g: &Graph) -> usize {
        UnionFind::of_graph(g).count_sets()
    }

    fn assert_same(a: &Graph, b: &Graph) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.edges(), b.edges());
    }

    /// Connected, no self loop, no pair twice — what `GraphBuilder::add_edge`
    /// would have enforced edge by edge.
    #[track_caller]
    fn assert_connected_and_simple(g: &Graph, what: &str) {
        assert_eq!(components(g), 1, "{what}: not connected");
        let pairs: HashSet<(NodeId, NodeId)> = g.edges().iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(pairs.len(), g.m(), "{what}: duplicate edge");
        assert!(
            g.edges().iter().all(|&(u, v, _)| u < v),
            "{what}: loop or unnormalized edge"
        );
    }

    /// "Legacy" is the recorded output of the sequential `add_edge`
    /// generators this repository shipped through commit 3a0f670: the
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
    fn balanced_tree_counts() {
        // 15 = 1 + 2 + 4 + 8 nodes: the complete binary tree of depth 3.
        let t = tree_with_n(2, 15).unwrap();
        assert_eq!(t.m(), 14);
        assert_eq!(diameter(&t), 6);
        // 13 = 1 + 3 + 9 nodes: the complete ternary tree of depth 2.
        let t = tree_with_n(3, 13).unwrap();
        assert_eq!(diameter(&t), 4);
        assert_eq!(t.degree(0), 3);
    }

    #[test]
    fn tree_with_n_hits_size_exactly() {
        for arity in 1..=4usize {
            for n in 1..=40usize {
                let t = tree_with_n(arity, n).unwrap();
                assert_eq!(t.n(), n, "arity {arity}");
                assert_eq!(t.m(), n - 1, "a tree has n-1 edges");
                let c = components(&t);
                assert_eq!(c, 1);
            }
        }
        assert!(tree_with_n(0, 5).is_err());
        assert!(tree_with_n(2, 0).is_err());
    }

    #[test]
    fn tree_with_n_matches_balanced_on_complete_sizes() {
        // On node counts that form complete trees every internal node has
        // all its children: the 7 internal nodes of 15 have degree 3 but the
        // root, and the 8 leaves degree 1.
        let full = tree_with_n(2, 15).unwrap();
        let degrees: Vec<usize> = full.nodes().map(|v| full.degree(v)).collect();
        assert_eq!(degrees, [[2].as_slice(), &[3; 6], &[1; 8]].concat());
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
        let g1 = erdos_renyi(60, 0.05, 7).unwrap();
        let g2 = erdos_renyi(60, 0.05, 7).unwrap();
        assert_same(&g1, &g2);
        let c = components(&g1);
        assert_eq!(c, 1);
        assert_ne!(g1.edges(), erdos_renyi(60, 0.05, 8).unwrap().edges());
        assert!(erdos_renyi(10, 1.5, 0).is_err());
        assert!(erdos_renyi(10, -0.1, 0).is_err());
        assert!(erdos_renyi(0, 0.5, 0).is_err());
    }

    #[test]
    fn erdos_renyi_p_one_is_complete() {
        assert_eq!(erdos_renyi(8, 1.0, 3).unwrap().m(), 28);
        assert_eq!(erdos_renyi(40, 1.0, 3).unwrap().m(), 40 * 39 / 2);
    }

    #[test]
    fn random_geometric_connected() {
        let g = random_geometric(50, 0.18, 11).unwrap();
        let c = components(&g);
        assert_eq!(c, 1);
        assert!(random_geometric(10, 0.0, 0).is_err());
        assert!(random_geometric(0, 0.5, 0).is_err());
    }

    /// Every size from one node up is served by the same samplers, so the
    /// small end is swept exhaustively: every `G(n, p)` and random geometric
    /// graph (sparse, typical and saturating parameters) and every Chung–Lu
    /// graph is connected and simple, `p = 0` leaves exactly the spanning
    /// backbone and `p = 1` the complete graph.
    #[test]
    fn small_random_graphs_are_connected_and_simple_at_every_size() {
        for n in 1..=64usize {
            let typical = (8.0 / n as f64).sqrt();
            for seed in [0u64, 1, 0x5EED, u64::MAX] {
                for p in [0.0, (6.0 / n as f64).min(1.0), 1.0] {
                    let what = format!("erdos_renyi({n}, {p}, {seed})");
                    let g = erdos_renyi(n, p, seed).unwrap();
                    assert_connected_and_simple(&g, &what);
                    if p == 0.0 {
                        assert_eq!(g.m(), n - 1, "{what}");
                    }
                    if p == 1.0 {
                        assert_eq!(g.m(), n * (n - 1) / 2, "{what}");
                    }
                }
                for radius in [0.05, typical, 2.0] {
                    let what = format!("random_geometric({n}, {radius}, {seed})");
                    let g = random_geometric(n, radius, seed).unwrap();
                    assert_connected_and_simple(&g, &what);
                    if radius == 2.0 {
                        assert_eq!(g.m(), n * (n - 1) / 2, "{what}");
                    }
                }
                let what = format!("chung_lu({n}, 2.5, 6, {seed})");
                assert_connected_and_simple(&chung_lu(n, 2.5, 6.0, seed).unwrap(), &what);
            }
        }
    }

    #[test]
    fn random_families_are_seed_deterministic_and_connected() {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let n = 5000;
            let er1 = erdos_renyi(n, 6.0 / n as f64, seed).unwrap();
            let er2 = erdos_renyi(n, 6.0 / n as f64, seed).unwrap();
            assert_same(&er1, &er2);
            assert_connected_and_simple(&er1, "ER");

            let rgg1 = random_geometric(n, (8.0 / n as f64).sqrt(), seed).unwrap();
            let rgg2 = random_geometric(n, (8.0 / n as f64).sqrt(), seed).unwrap();
            assert_same(&rgg1, &rgg2);
            assert_connected_and_simple(&rgg1, "RGG");

            let cl1 = chung_lu(n, 2.5, 6.0, seed).unwrap();
            let cl2 = chung_lu(n, 2.5, 6.0, seed).unwrap();
            assert_same(&cl1, &cl2);
            assert_connected_and_simple(&cl1, "Chung-Lu");
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
    fn fat_tree_shape() {
        let g = fat_tree(4, 8, 10).unwrap();
        assert_eq!(g.n(), 4 + 8 + 80);
        assert_eq!(g.m(), 4 * 8 + 80);
        assert_eq!(diameter(&g), 4);
        assert!(fat_tree(0, 3, 2).is_err());
    }

    #[test]
    fn chung_lu_connected_seeded_and_heavy_tailed() {
        let g1 = chung_lu(300, 2.5, 6.0, 42).unwrap();
        let g2 = chung_lu(300, 2.5, 6.0, 42).unwrap();
        assert_eq!(g1.edges(), g2.edges(), "not seed-deterministic");
        assert_eq!(g1.n(), 300);
        let c = components(&g1);
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
        assert!(chung_lu(0, 2.5, 6.0, 0).is_err());
        assert!(chung_lu(10, 1.0, 6.0, 0).is_err());
        assert!(chung_lu(10, 2.5, 0.0, 0).is_err());
    }

    #[test]
    fn chung_lu_average_degree_in_the_right_regime() {
        let g = chung_lu(400, 2.5, 6.0, 7).unwrap();
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
        let c = components(&g);
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
        let c = components(&g);
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
        let g = weighted_grid(&[5, 5], 100, 5).unwrap();
        assert!(g.is_weighted());
        for &(_, _, w) in g.edges() {
            assert!((1..=100).contains(&w));
        }
        assert!(with_random_weights(&path(3).unwrap(), 0, 0).is_err());
        // Past one emission chunk: every chunk draws its own stream, and the
        // result is still a pure function of the seed.
        let base = grid(&[150, 150]).unwrap();
        let w1 = with_random_weights(&base, 32, 9).unwrap();
        assert_same(&w1, &with_random_weights(&base, 32, 9).unwrap());
        assert!(w1.edges().iter().all(|&(_, _, w)| (1..=32).contains(&w)));
    }

    #[test]
    fn weighted_er_preserves_topology() {
        let base = erdos_renyi(30, 0.1, 9).unwrap();
        let w = with_random_weights(&base, 50, 9).unwrap();
        assert_eq!(base.m(), w.m());
        for (a, b) in base.edges().iter().zip(w.edges()) {
            assert_eq!((a.0, a.1), (b.0, b.1));
        }
    }
}
