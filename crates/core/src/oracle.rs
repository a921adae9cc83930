//! Query-serving distance oracle built on top of a completed sweep.
//!
//! The batch experiments ([`crate::apsp`], [`crate::kssp`], the scale tier's
//! [`crate::rows`]) answer "compute everything, then verify" workloads.  This
//! module adds the *serving* layer the paper's oracle framing implies
//! (Schneider's labeling view of Theorem 8 / Theorem 14): preprocess once,
//! then answer arbitrary point-to-point distance and path queries online.
//!
//! # Construction
//!
//! [`DistanceOracle::build`] samples `⌈√n⌉` **landmarks** (the same density
//! as the Definition 6.2 skeleton-node sampling) and runs one exact Dijkstra
//! per landmark — the "completed sweep" rows and their shortest-path forests.
//! Every node `u` then stores a **routing label**:
//!
//! * its *anchor* `a(u)` — the closest landmark — and the exact offset
//!   `d(u, a(u))`;
//! * its strict *ball* `B(u) = { w : d(u, w) < d(u, a(u)) }`, with exact
//!   distances and in-ball parent chains.
//!
//! # Memory plan
//!
//! A label is a handful of `O(log n)`-bit words, so every stored distance
//! (landmark rows, anchor offsets, ball distances) is a `u32`; `u32::MAX`
//! stands for "unreachable" and every read widens back to [`Weight`], so
//! answers are what 64-bit labels would give.  The largest distance a label
//! can hold is therefore `u32::MAX − 1`: [`DistanceOracle::build`] checks
//! every finite distance it narrows and returns
//! [`OracleError::DistanceOverflow`] rather than a truncated label.
//!
//! Nothing is held twice.  The worker that ran a landmark's Dijkstra narrows
//! the row and its forest on the spot (8 bytes per node) and the rows are
//! copied once into two flat `|L| × n` buffers.  The balls live in one arena
//! per block of 64 consecutive node ids, filled exact-size by the worker that
//! ran the block's bounded searches — [`DijkstraWorkspace::run_heap`] with
//! the anchor offset as its strict bound, on one reused workspace — out of
//! one reused member buffer; collecting the blocks is the final storage.
//! The footprint is `8·|L|` bytes per node for rows and forest plus 12 bytes
//! per ball member.
//!
//! # Query contract (documented stretch)
//!
//! For a query `(u, v)` the oracle answers `d(u, v)` exactly whenever
//! `v ∈ B(u)` or `u ∈ B(v)` — that is, whenever `d(u, v) < r(u)` or
//! `d(u, v) < r(v)` with `r(x) = d(x, a(x))` — and whenever either endpoint
//! is a landmark (its offset is 0, so its via-anchor route is exact);
//! otherwise it answers the better of the two via-anchor routes
//! `d(u, a(u)) + d(a(u), v)` / `d(v, a(v)) + d(a(v), u)`.  Every candidate is
//! the length of a real walk, so answers **never underestimate**; and when
//! `v ∉ B(u)` we have `d(u, a(u)) ≤ d(u, v)`, hence
//!
//! ```text
//! d(u,a(u)) + d(a(u),v) ≤ 2·d(u,a(u)) + d(u,v) ≤ 3·d(u,v)
//! ```
//!
//! — the classic stretch-[`ORACLE_STRETCH`] landmark bound.  Path queries
//! materialise the witness walk behind the reported value by splicing parent
//! chains (ball chains for exact hits, landmark-forest chains otherwise), so
//! the edge weights of a returned path always telescope to **exactly** the
//! reported distance.  Both guarantees are pinned by
//! `crates/core/tests/oracle_conformance.rs`.
//!
//! **Pruning.**  A query reads its four landmark words first — `r(u) =
//! d(u, a(u))`, `d(a(u), v)`, `r(v)` and `d(a(v), u)` — because the
//! via-anchor routes need them anyway, and binary-searches `B(u)` only when
//! they leave room for `v ∈ B(u)`.  It skips the search when
//!
//! ```text
//! d(a(u), v) ≥ 2·r(u)      or      |d(a(v), u) − r(v)| ≥ r(u)
//! ```
//!
//! and treats `B(v)` the same way with the roles swapped.  If `r(u) = ∞`
//! (u's component holds no landmark) `B(u)` is always searched; if `r(u)` is
//! finite and `d(a(u), v) = ∞`, never.  Both bounds are instances of
//! `d(u, v) ≥ |d(ℓ, u) − d(ℓ, v)|` for a landmark `ℓ`, so each proves
//! `d(u, v) ≥ r(u)`, i.e. `v ∉ B(u)`: a skipped search could only have
//! missed, and answers, witness paths and the u-side tie-break are exactly
//! those of searching both balls every time.
//!
//! # Batched serving
//!
//! [`DistanceOracle::query_batch`] and
//! [`DistanceOracle::query_paths_batch`] split the query slice into
//! [`QUERY_CHUNK`]-sized chunks and fan the chunks out over the rayon pool,
//! splicing the per-chunk results back in index order — answers are
//! bit-identical for any pool width.  Path batches land in a [`PathBatch`] arena (one flat node
//! buffer plus offsets) instead of per-query `Vec`s.

use std::fmt;

use hybrid_graph::dijkstra::DijkstraWorkspace;
use hybrid_graph::{Graph, NodeId, Weight, INFINITY};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Worst-case multiplicative stretch of [`DistanceOracle`] answers on
/// connected graphs: answers `a` satisfy `d ≤ a ≤ ORACLE_STRETCH · d`.
pub const ORACLE_STRETCH: f64 = 3.0;

/// Queries per parallel chunk in the batched entry points.
pub const QUERY_CHUNK: usize = 1024;

/// Construction parameters for [`DistanceOracle::build`].
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Seed for the deterministic sample of `⌈√n⌉` landmarks.
    pub seed: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { seed: 0xD15C0 }
    }
}

/// Why [`DistanceOracle::build`] refused an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleError {
    /// The graph has no nodes.
    EmptyGraph,
    /// The landmark set is empty.
    NoLandmarks,
    /// A landmark is not a node of the graph.
    LandmarkOutOfRange {
        /// The offending landmark.
        landmark: NodeId,
        /// Number of nodes of the graph.
        n: usize,
    },
    /// A finite distance a label must hold exceeds `u32::MAX − 1`.
    DistanceOverflow {
        /// The distance that does not fit.
        distance: Weight,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OracleError::EmptyGraph => write!(f, "oracle over an empty graph"),
            OracleError::NoLandmarks => write!(f, "oracle needs at least one landmark"),
            OracleError::LandmarkOutOfRange { landmark, n } => {
                write!(f, "landmark {landmark} out of range for n = {n}")
            }
            OracleError::DistanceOverflow { distance } => {
                write!(f, "distance {distance} does not fit a 32-bit label")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// The stored form of [`INFINITY`].
const UNREACHABLE: u32 = u32::MAX;

/// Stored label → distance.
#[inline]
fn widen(label: u32) -> Weight {
    if label == UNREACHABLE {
        INFINITY
    } else {
        Weight::from(label)
    }
}

/// Distances → stored labels, exact-size; a finite distance the sentinel
/// would swallow or `u32` cannot hold is an error.
fn narrow(dists: impl ExactSizeIterator<Item = Weight>) -> Result<Vec<u32>, OracleError> {
    let mut labels = Vec::with_capacity(dists.len());
    for distance in dists {
        labels.push(match u32::try_from(distance) {
            Ok(label) if label != UNREACHABLE => label,
            _ if distance == INFINITY => UNREACHABLE,
            _ => return Err(OracleError::DistanceOverflow { distance }),
        });
    }
    Ok(labels)
}

/// Arena holding the result of [`DistanceOracle::query_paths_batch`]: one
/// distance per query plus all witness paths in a single flat node buffer.
#[derive(Debug, Clone)]
pub struct PathBatch {
    dists: Vec<Weight>,
    /// `offsets[i]..offsets[i+1]` delimits query `i`'s path in `nodes`.
    offsets: Vec<u32>,
    nodes: Vec<NodeId>,
}

/// A [`PathBatch`] addresses its node arena with `u32` offsets.
const ARENA_LIMIT: &str = "a path batch holds fewer than 2^32 nodes";

impl PathBatch {
    /// Number of queries answered.
    pub fn len(&self) -> usize {
        self.dists.len()
    }

    /// `true` if the batch held no queries.
    pub fn is_empty(&self) -> bool {
        self.dists.is_empty()
    }

    /// Reported distance of query `i`.
    pub fn dist(&self, i: usize) -> Weight {
        self.dists[i]
    }

    /// All reported distances, in query order.
    pub fn dists(&self) -> &[Weight] {
        &self.dists
    }

    /// Witness path of query `i` (`[u, ..., v]`; a single node for `u == v`;
    /// empty only for unreachable pairs).
    pub fn path(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Bytes held by the arena buffers.
    pub fn memory_bytes(&self) -> u64 {
        (self.dists.len() * std::mem::size_of::<Weight>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.nodes.len() * std::mem::size_of::<NodeId>()) as u64
    }
}

/// Nodes per ball arena: node `u`'s ball lives in block `u / BLOCK`.
const BLOCK: usize = 64;

/// The balls of the nodes `BLOCK·b .. BLOCK·(b + 1)`, back to back.
#[derive(Debug, Clone)]
struct BallBlock {
    /// Lane `i`'s ball is `starts[i]..starts[i + 1]` of the three arenas.
    starts: [u32; BLOCK + 1],
    /// Ball members, sorted by node id within each ball.
    nodes: Vec<NodeId>,
    /// Exact distance to each member, aligned with `nodes`.
    dists: Vec<u32>,
    /// In-ball Dijkstra parent of each member, aligned with `nodes`.
    parents: Vec<NodeId>,
}

/// One node's ball: a range of its block's arenas.
#[derive(Clone, Copy)]
struct Ball<'a> {
    block: &'a BallBlock,
    first: usize,
    nodes: &'a [NodeId],
}

impl Ball<'_> {
    /// Position of `w` in the block's arenas, if it is a member.
    fn slot(&self, w: NodeId) -> Option<usize> {
        self.nodes.binary_search(&w).ok().map(|i| self.first + i)
    }

    /// Exact distance from the ball's owner to `w`, if `w` is a member.
    fn dist(&self, w: NodeId) -> Option<Weight> {
        self.slot(w).map(|slot| widen(self.block.dists[slot]))
    }
}

/// Whether `v` can lie in `B(u) = { w : d(u, w) < r(u) }`, judged from
/// `r_u = r(u)`, `au_v = d(a(u), v)`, `av_u = d(a(v), u)` and `r_v = r(v)`
/// (`r(x) = d(x, a(x))`).  Both bounds are `d(u, v) ≥ |d(ℓ, u) − d(ℓ, v)|`
/// for a landmark `ℓ`, so `false` is a proof that the search would miss.
#[inline]
fn ball_may_hold(r_u: Weight, au_v: Weight, av_u: Weight, r_v: Weight) -> bool {
    // No landmark in u's component: its ball is the whole component.
    if r_u == INFINITY {
        return true;
    }
    // `d(a(u), v) ≥ 2·r(u)` (an unreachable `v` included) or
    // `|d(a(v), u) − r(v)| ≥ r(u)` put `v` at least `r(u)` away.  Once
    // `d(a(u), v)` is finite, `v` shares u's component, so `r(v)` and
    // `d(a(v), u)` are finite too.
    au_v < 2 * r_u && av_u.abs_diff(r_v) < r_u
}

/// How [`DistanceOracle::route`] answers a query.
#[derive(Clone, Copy)]
enum Route {
    /// `member ∈ B(owner)`: exact, along the owner's in-ball parent chain.
    Ball { owner: NodeId, member: NodeId },
    /// Through landmark `i`: from `near` up to the landmark, then down to
    /// the other endpoint.
    Landmark { i: u32, near: NodeId },
}

/// Landmark distance oracle with documented stretch [`ORACLE_STRETCH`]; see
/// the [module docs](self) for the construction, the memory plan and the
/// query contract.
#[derive(Debug, Clone)]
pub struct DistanceOracle {
    n: usize,
    /// Sorted landmark set; row `i` of `rows` belongs to `landmarks[i]`.
    landmarks: Vec<NodeId>,
    /// Exact `|L| × n` distance rows from every landmark.
    rows: Vec<u32>,
    /// Flat `|L| × n` shortest-path forests (`NodeId::MAX` = no parent).
    parents: Vec<NodeId>,
    /// Per node: index (into `landmarks`) of the closest landmark.
    anchor: Vec<u32>,
    /// Per node: exact distance to its anchor.
    anchor_dist: Vec<u32>,
    /// Ball arenas, one per [`BLOCK`] consecutive node ids.
    blocks: Vec<BallBlock>,
}

/// Reusable scratch for the bounded Dijkstras of ball construction.
#[derive(Default)]
struct BallScratch {
    ws: DijkstraWorkspace,
    /// `(node, dist, parent)` of every ball of the block under construction.
    members: Vec<(NodeId, Weight, NodeId)>,
}

impl BallScratch {
    /// The balls of the nodes `first .. first + radii.len()`, whose strict
    /// radii are `radii`, as one exact-size arena.  A ball is a heap run
    /// bounded by its radius, sorted by node id; all its parent chains stay
    /// inside it (any node on a shortest path to `w` is strictly closer than
    /// `w`).
    fn block(
        &mut self,
        graph: &Graph,
        first: usize,
        radii: &[u32],
    ) -> Result<BallBlock, OracleError> {
        self.members.clear();
        let mut starts = [0; BLOCK + 1];
        for lane in 0..BLOCK {
            // A short last block: the missing lanes are empty.
            if let Some(&radius) = radii.get(lane) {
                let ws = &mut self.ws;
                ws.run_heap(graph, (first + lane) as NodeId, widen(radius));
                let ball = self.members.len();
                self.members.extend(ws.reached().iter().map(|&w| {
                    let parent = ws.parent()[w as usize].unwrap_or(NodeId::MAX);
                    (w, ws.dist()[w as usize], parent)
                }));
                self.members[ball..].sort_unstable_by_key(|&(w, _, _)| w);
            }
            starts[lane + 1] = u32::try_from(self.members.len())
                .expect("the 64 balls of a block hold fewer than 2^32 members");
        }
        // Members of a ball are closer than its anchor, whose offset fits;
        // a component without a landmark has no such bound.
        Ok(BallBlock {
            starts,
            nodes: self.members.iter().map(|m| m.0).collect(),
            dists: narrow(self.members.iter().map(|m| m.1))?,
            parents: self.members.iter().map(|m| m.2).collect(),
        })
    }
}

impl DistanceOracle {
    /// Samples the landmark set deterministically from `config.seed` and
    /// delegates to [`DistanceOracle::build_with_landmarks`].
    pub fn build(graph: &Graph, config: OracleConfig) -> Result<Self, OracleError> {
        let n = graph.n();
        if n == 0 {
            return Err(OracleError::EmptyGraph);
        }
        let want = ((n as f64).sqrt().ceil() as usize).clamp(1, n);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut all: Vec<NodeId> = (0..n as NodeId).collect();
        all.shuffle(&mut rng);
        all.truncate(want);
        Self::build_with_landmarks(graph, &all)
    }

    /// Builds the oracle from an explicit landmark set — the hook for reusing
    /// a source set whose rows a completed sweep / APSP run already chose
    /// (e.g. the skeleton-node sample of Definition 6.2).  Landmarks are
    /// deduplicated and sorted; at least one is required.
    pub fn build_with_landmarks(graph: &Graph, landmarks: &[NodeId]) -> Result<Self, OracleError> {
        let n = graph.n();
        let mut landmarks: Vec<NodeId> = landmarks.to_vec();
        landmarks.sort_unstable();
        landmarks.dedup();
        if landmarks.is_empty() {
            return Err(OracleError::NoLandmarks);
        }
        if let Some(&landmark) = landmarks.iter().find(|&&l| l as usize >= n) {
            return Err(OracleError::LandmarkOutOfRange { landmark, n });
        }

        // The completed sweep: one exact Dijkstra per landmark, whose row and
        // forest leave the worker already narrowed.  The first overflow in
        // landmark order is the one reported, whatever the pool width.
        let sweeps: Vec<_> = landmarks
            .par_iter()
            .map_init(DijkstraWorkspace::new, |ws, &l| {
                ws.run(graph, l);
                let forest = ws.parent().iter().map(|p| p.unwrap_or(NodeId::MAX));
                let row = narrow(ws.dist().iter().copied())?;
                Ok::<_, OracleError>((row, forest.collect::<Vec<_>>()))
            })
            .with_min_len(1)
            .collect();
        let mut rows = Vec::with_capacity(landmarks.len() * n);
        let mut parents = Vec::with_capacity(landmarks.len() * n);
        for sweep in sweeps {
            let (row, forest) = sweep?;
            rows.extend(row);
            parents.extend(forest);
        }

        // Routing labels: closest landmark (smallest row index on ties) and
        // the exact offset to it.
        let mut anchor = vec![0u32; n];
        let mut anchor_dist = vec![UNREACHABLE; n];
        for (i, row) in (0u32..).zip(rows.chunks_exact(n)) {
            for (v, &d) in row.iter().enumerate() {
                if d < anchor_dist[v] {
                    anchor_dist[v] = d;
                    anchor[v] = i;
                }
            }
        }

        // Strict balls, one block per work item; a block leaves its scratch
        // as it found it and the blocks are collected in block order, so the
        // arenas are pool-width independent.
        let blocks: Vec<Result<BallBlock, OracleError>> = (0..n.div_ceil(BLOCK))
            .into_par_iter()
            .map_init(BallScratch::default, |scratch, b| {
                let first = b * BLOCK;
                scratch.block(graph, first, &anchor_dist[first..n.min(first + BLOCK)])
            })
            .with_min_len(1)
            .collect();
        let blocks = blocks.into_iter().collect::<Result<Vec<_>, _>>()?;

        Ok(DistanceOracle {
            n,
            landmarks,
            rows,
            parents,
            anchor,
            anchor_dist,
            blocks,
        })
    }

    /// Number of nodes served.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The sorted landmark set.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Bytes held by the oracle's label buffers, ball arenas and block
    /// headers — the serving-side memory footprint.
    pub fn memory_bytes(&self) -> u64 {
        let members: usize = self.blocks.iter().map(|b| b.nodes.len()).sum();
        let words = self.landmarks.len()
            + self.rows.len()
            + self.parents.len()
            + self.anchor.len()
            + self.anchor_dist.len()
            + 3 * members;
        (words * std::mem::size_of::<u32>() + self.blocks.len() * std::mem::size_of::<BallBlock>())
            as u64
    }

    /// The ball of `u`.
    fn ball(&self, u: NodeId) -> Ball<'_> {
        let block = &self.blocks[u as usize / BLOCK];
        let lane = u as usize % BLOCK;
        let first = block.starts[lane] as usize;
        Ball {
            block,
            first,
            nodes: &block.nodes[first..block.starts[lane + 1] as usize],
        }
    }

    /// Distance from `u` to its anchor.
    #[inline]
    fn anchor_dist(&self, u: NodeId) -> Weight {
        widen(self.anchor_dist[u as usize])
    }

    /// Distance from landmark `i` to `v`, straight from the sweep rows.
    #[inline]
    fn landmark_dist(&self, i: u32, v: NodeId) -> Weight {
        widen(self.rows[i as usize * self.n + v as usize])
    }

    /// Answers a single distance query under the module-level contract:
    /// exact when either endpoint lies in the other's ball, otherwise the
    /// better via-anchor route (never an underestimate, at most
    /// [`ORACLE_STRETCH`]` · d(u, v)` on connected graphs).
    pub fn query(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            return 0;
        }
        self.route(u, v).0
    }

    /// The routing step of every query with `u ≠ v`: the answer and the walk
    /// behind it.  The four landmark words come first, and a ball is searched
    /// only where [`ball_may_hold`] says it can hold the other endpoint
    /// (module docs, *Pruning*); `B(u)` before `B(v)`, and the u-side
    /// via-anchor route on a tie, so the choice is deterministic.
    #[inline]
    fn route(&self, u: NodeId, v: NodeId) -> (Weight, Route) {
        let (au, av) = (self.anchor[u as usize], self.anchor[v as usize]);
        let (r_u, r_v) = (self.anchor_dist(u), self.anchor_dist(v));
        let (au_v, av_u) = (self.landmark_dist(au, v), self.landmark_dist(av, u));
        if ball_may_hold(r_u, au_v, av_u, r_v) {
            if let Some(d) = self.ball(u).dist(v) {
                return (
                    d,
                    Route::Ball {
                        owner: u,
                        member: v,
                    },
                );
            }
        }
        if ball_may_hold(r_v, av_u, au_v, r_u) {
            if let Some(d) = self.ball(v).dist(u) {
                return (
                    d,
                    Route::Ball {
                        owner: v,
                        member: u,
                    },
                );
            }
        }
        let (via_u, via_v) = (r_u.saturating_add(au_v), r_v.saturating_add(av_u));
        if via_u <= via_v {
            (via_u, Route::Landmark { i: au, near: u })
        } else {
            (via_v, Route::Landmark { i: av, near: v })
        }
    }

    /// Walks `w` back to the ball owner `u` through the in-ball parent
    /// chain, appending `w, ..., u` to `out` (reversed order).
    fn push_ball_chain_rev(&self, u: NodeId, mut w: NodeId, out: &mut Vec<NodeId>) {
        let ball = self.ball(u);
        loop {
            out.push(w);
            if w == u {
                return;
            }
            w = ball.block.parents[ball.slot(w).expect("chain stays inside the ball")];
        }
    }

    /// Walks `w` up to landmark number `i` through the sweep forest,
    /// appending `w, ..., landmarks[i]` to `out` — the forward order of the
    /// path from `w` to the landmark.
    fn push_landmark_chain(&self, i: u32, mut w: NodeId, out: &mut Vec<NodeId>) {
        let row = &self.parents[i as usize * self.n..(i as usize + 1) * self.n];
        loop {
            out.push(w);
            let p = row[w as usize];
            if p == NodeId::MAX {
                return;
            }
            w = p;
        }
    }

    /// Answers a distance-plus-witness-path query.  The returned node list
    /// runs `u, ..., v`, every consecutive pair is an edge of the graph, and
    /// the edge weights sum to exactly the returned distance.  The path is
    /// empty only for unreachable pairs (`INFINITY`).
    pub fn query_path(&self, u: NodeId, v: NodeId) -> (Weight, Vec<NodeId>) {
        let mut nodes = Vec::new();
        let d = self.query_path_into(u, v, &mut nodes);
        (d, nodes)
    }

    /// Arena-friendly core of [`DistanceOracle::query_path`]: appends the
    /// witness path to `out` and returns the distance.
    fn query_path_into(&self, u: NodeId, v: NodeId, out: &mut Vec<NodeId>) -> Weight {
        if u == v {
            out.push(u);
            return 0;
        }
        let (d, route) = self.route(u, v);
        let start = out.len();
        match route {
            Route::Ball { owner, member } => {
                // The chain runs `member, ..., owner`: forward when u is the
                // member, flipped when u owns the ball.
                self.push_ball_chain_rev(owner, member, out);
                if owner == u {
                    out[start..].reverse();
                }
            }
            Route::Landmark { .. } if d == INFINITY => {}
            Route::Landmark { i, near } => {
                // Walking up the forest from `near` visits `near, ..., a` —
                // already the forward order of the first segment.  The
                // far-side walk visits `far, ..., a`; drop its trailing
                // duplicate anchor and reverse it in place to get
                // `a's child, ..., far`.
                let far = if near == u { v } else { u };
                self.push_landmark_chain(i, near, out);
                let anchor_pos = out.len() - 1;
                self.push_landmark_chain(i, far, out);
                out.truncate(out.len() - 1); // the anchor was appended twice
                out[anchor_pos + 1..].reverse();
                if near != u {
                    out[start..].reverse(); // route was built v → u; flip it
                }
            }
        }
        d
    }

    /// Answers a batch of distance queries with rayon fan-out over
    /// [`QUERY_CHUNK`]-sized chunks.  Output order matches the input and is
    /// bit-identical for every pool width.
    pub fn query_batch(&self, queries: &[(NodeId, NodeId)]) -> Vec<Weight> {
        let nchunks = queries.len().div_ceil(QUERY_CHUNK);
        let per: Vec<Vec<Weight>> = (0..nchunks)
            .into_par_iter()
            .map(|ci| {
                let lo = ci * QUERY_CHUNK;
                let hi = (lo + QUERY_CHUNK).min(queries.len());
                queries[lo..hi]
                    .iter()
                    .map(|&(u, v)| self.query(u, v))
                    .collect()
            })
            .with_min_len(1)
            .collect();
        let mut out = Vec::with_capacity(queries.len());
        for part in per {
            out.extend(part);
        }
        out
    }

    /// Answers a batch of path queries.  Each parallel chunk fills its own
    /// arena; the per-chunk arenas are spliced back in query order into one
    /// [`PathBatch`], so the result is bit-identical for every pool width.
    pub fn query_paths_batch(&self, queries: &[(NodeId, NodeId)]) -> PathBatch {
        let nchunks = queries.len().div_ceil(QUERY_CHUNK);
        let per: Vec<(Vec<Weight>, Vec<u32>, Vec<NodeId>)> = (0..nchunks)
            .into_par_iter()
            .map(|ci| {
                let lo = ci * QUERY_CHUNK;
                let hi = (lo + QUERY_CHUNK).min(queries.len());
                let mut dists = Vec::with_capacity(hi - lo);
                let mut ends = Vec::with_capacity(hi - lo);
                let mut nodes = Vec::new();
                for &(u, v) in &queries[lo..hi] {
                    dists.push(self.query_path_into(u, v, &mut nodes));
                    ends.push(u32::try_from(nodes.len()).expect(ARENA_LIMIT));
                }
                (dists, ends, nodes)
            })
            .with_min_len(1)
            .collect();
        let mut batch = PathBatch {
            dists: Vec::with_capacity(queries.len()),
            offsets: Vec::with_capacity(queries.len() + 1),
            nodes: Vec::new(),
        };
        batch.offsets.push(0);
        for (dists, ends, nodes) in per {
            let base = *batch.offsets.last().expect("offsets start at 0");
            batch.dists.extend(dists);
            batch.offsets.extend(
                ends.iter()
                    .map(|&e| base.checked_add(e).expect(ARENA_LIMIT)),
            );
            batch.nodes.extend(nodes);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::DistanceRows;
    use hybrid_graph::{generators, GraphBuilder};

    fn check_paths(g: &Graph, oracle: &DistanceOracle, exact: &[Vec<Weight>]) {
        for u in 0..g.n() as NodeId {
            for v in 0..g.n() as NodeId {
                let (d, path) = oracle.query_path(u, v);
                assert_eq!(d, oracle.query(u, v), "({u},{v}): dist/path disagree");
                let e = exact[u as usize][v as usize];
                assert!(d >= e, "({u},{v}): {d} underestimates {e}");
                assert!(
                    d as f64 <= ORACLE_STRETCH * e as f64 + 1e-9,
                    "({u},{v}): {d} exceeds stretch bound over {e}"
                );
                assert_eq!(path.first(), Some(&u), "({u},{v}): path start");
                assert_eq!(path.last(), Some(&v), "({u},{v}): path end");
                let mut total = 0u64;
                for pair in path.windows(2) {
                    let arc = g
                        .arcs(pair[0])
                        .iter()
                        .find(|a| a.to == pair[1])
                        .unwrap_or_else(|| {
                            panic!("({u},{v}): {}-{} not an edge", pair[0], pair[1])
                        });
                    total += arc.weight;
                }
                assert_eq!(total, d, "({u},{v}): path weight vs reported distance");
            }
        }
    }

    #[test]
    fn exact_on_paths_through_landmark_balls() {
        let g = generators::path(17).unwrap();
        let oracle = DistanceOracle::build(&g, OracleConfig::default()).unwrap();
        let exact = DistanceRows::all_pairs(&g).into_rows();
        check_paths(&g, &oracle, &exact);
    }

    #[test]
    fn weighted_grid_within_stretch_and_landmark_queries_exact() {
        let g = generators::weighted_grid(&[6, 7], 24, 77).unwrap();
        let oracle = DistanceOracle::build(&g, OracleConfig::default()).unwrap();
        let exact = DistanceRows::all_pairs(&g).into_rows();
        check_paths(&g, &oracle, &exact);
        // Either endpoint being a landmark forces an exact answer.
        for &l in oracle.landmarks() {
            for v in 0..g.n() as NodeId {
                assert_eq!(oracle.query(l, v), exact[l as usize][v as usize]);
                assert_eq!(oracle.query(v, l), exact[l as usize][v as usize]);
            }
        }
    }

    #[test]
    fn batches_agree_with_single_queries() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let g = generators::weighted_grid(&[5, 9], 12, 21).unwrap();
        let oracle = DistanceOracle::build(&g, OracleConfig::default()).unwrap();
        // Two full chunks and a partial one: the batches cross two seams.
        let queries: Vec<(NodeId, NodeId)> = (0..2 * QUERY_CHUNK + 200)
            .map(|_| {
                (
                    rng.gen_range(0..g.n() as NodeId),
                    rng.gen_range(0..g.n() as NodeId),
                )
            })
            .collect();
        let batch = oracle.query_batch(&queries);
        let paths = oracle.query_paths_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        assert_eq!(paths.len(), queries.len());
        for (i, &(u, v)) in queries.iter().enumerate() {
            assert_eq!(batch[i], oracle.query(u, v));
            let (d, path) = oracle.query_path(u, v);
            assert_eq!(paths.dist(i), d);
            assert_eq!(paths.path(i), path.as_slice());
        }
        assert!(paths.memory_bytes() > 0);
    }

    #[test]
    fn explicit_landmarks_and_degenerate_configs() {
        let g = generators::cycle(12).unwrap();
        // Every node a landmark → the oracle is exact everywhere.
        let all: Vec<NodeId> = (0..12).collect();
        let oracle = DistanceOracle::build_with_landmarks(&g, &all).unwrap();
        let exact = DistanceRows::all_pairs(&g).into_rows();
        for u in 0..12u32 {
            for v in 0..12u32 {
                assert_eq!(oracle.query(u, v), exact[u as usize][v as usize]);
            }
        }
        assert_eq!(
            DistanceOracle::build_with_landmarks(&g, &[]).unwrap_err(),
            OracleError::NoLandmarks
        );
        let out_of_range = DistanceOracle::build_with_landmarks(&g, &[99]).unwrap_err();
        assert_eq!(
            out_of_range,
            OracleError::LandmarkOutOfRange {
                landmark: 99,
                n: 12
            }
        );
        assert_eq!(
            out_of_range.to_string(),
            "landmark 99 out of range for n = 12"
        );
        assert!(oracle.memory_bytes() > 0);
        assert_eq!(oracle.n(), 12);
    }

    #[test]
    fn landmark_forest_chains_telescope_to_row_distances() {
        let g = generators::weighted_grid(&[7, 8], 16, 13).unwrap();
        let sources = [0u32, 20, 55];
        let oracle = DistanceOracle::build_with_landmarks(&g, &sources).unwrap();
        let exact = DistanceRows::all_pairs(&g).into_rows();
        assert_eq!(oracle.parents.len(), sources.len() * g.n());
        for (i, &s) in sources.iter().enumerate() {
            let par = &oracle.parents[i * g.n()..(i + 1) * g.n()];
            assert_eq!(par[s as usize], NodeId::MAX);
            for v in 0..g.n() as u32 {
                let label = oracle.landmark_dist(i as u32, v);
                assert_eq!(label, exact[s as usize][v as usize], "row {s} at {v}");
                // Walk v -> s through the forest, summing edge weights.
                let (mut cur, mut total, mut hops) = (v, 0u64, 0usize);
                while cur != s {
                    let p = par[cur as usize];
                    assert_ne!(p, NodeId::MAX, "broken chain at {cur}");
                    let arc = g.arcs(p).iter().find(|a| a.to == cur).expect("tree edge");
                    total += arc.weight;
                    cur = p;
                    hops += 1;
                    assert!(hops <= g.n(), "cycle in parent chain");
                }
                assert_eq!(total, label, "telescoped weight of {v}");
            }
        }
    }

    /// The largest distance a label holds; one more is the sentinel.
    const LABEL_MAX: Weight = u32::MAX as Weight - 1;

    /// Path `first - first+1 - first+2 - first+3` whose edges each outweigh
    /// everything after them, `total` end to end: seen from `first`, every
    /// later node lies in the ball of every earlier one.
    fn add_steep_path(b: &mut GraphBuilder, first: NodeId, total: Weight) {
        b.add_edge(first, first + 1, total - 7).unwrap();
        b.add_edge(first + 1, first + 2, 5).unwrap();
        b.add_edge(first + 2, first + 3, 2).unwrap();
    }

    fn assert_exact_everywhere(oracle: &DistanceOracle, exact: &[Vec<Weight>]) {
        for u in 0..oracle.n() as NodeId {
            for v in 0..oracle.n() as NodeId {
                assert_eq!(oracle.query(u, v), exact[u as usize][v as usize]);
            }
        }
    }

    #[test]
    fn landmark_rows_hold_u32_max_minus_one_and_refuse_one_more() {
        let path = |total| {
            let mut b = GraphBuilder::new(4);
            add_steep_path(&mut b, 0, total);
            b.build().unwrap()
        };
        let g = path(LABEL_MAX);
        let oracle = DistanceOracle::build_with_landmarks(&g, &[0]).unwrap();
        assert_eq!(oracle.query(0, 3), LABEL_MAX);
        let exact = DistanceRows::all_pairs(&g).into_rows();
        check_paths(&g, &oracle, &exact);
        assert_exact_everywhere(&oracle, &exact);

        let overflow = DistanceOracle::build_with_landmarks(&path(LABEL_MAX + 1), &[0]);
        assert_eq!(
            overflow.unwrap_err(),
            OracleError::DistanceOverflow {
                distance: LABEL_MAX + 1
            }
        );
        // Far past `u32`, from whichever end the landmark sits.
        let overflow = DistanceOracle::build_with_landmarks(&path(1 << 40), &[3]);
        assert_eq!(
            overflow.unwrap_err(),
            OracleError::DistanceOverflow { distance: 1 << 40 }
        );
    }

    #[test]
    fn ball_distances_of_a_landmarkless_component_are_checked_too() {
        // Nodes 0-1 hold the landmark; 2..6 are reached by no row, so their
        // balls are the whole component and only `block` sees the distances.
        let two_components = |total| {
            let mut b = GraphBuilder::new(6);
            b.add_edge(0, 1, 3).unwrap();
            add_steep_path(&mut b, 2, total);
            b.build_unchecked_connectivity()
        };
        let g = two_components(LABEL_MAX);
        let oracle = DistanceOracle::build_with_landmarks(&g, &[0]).unwrap();
        assert_eq!(oracle.query(2, 5), LABEL_MAX);
        assert_eq!(oracle.query(5, 2), LABEL_MAX);
        assert_eq!(oracle.query(1, 4), INFINITY);
        assert_exact_everywhere(&oracle, &DistanceRows::all_pairs(&g).into_rows());

        let overflow = DistanceOracle::build_with_landmarks(&two_components(LABEL_MAX + 1), &[0]);
        assert_eq!(
            overflow.unwrap_err(),
            OracleError::DistanceOverflow {
                distance: LABEL_MAX + 1
            }
        );
    }

    /// Whether the routing step searches `B(u)` for `v`.
    fn searches(oracle: &DistanceOracle, u: NodeId, v: NodeId) -> bool {
        let (au, av) = (oracle.anchor[u as usize], oracle.anchor[v as usize]);
        ball_may_hold(
            oracle.anchor_dist(u),
            oracle.landmark_dist(au, v),
            oracle.landmark_dist(av, u),
            oracle.anchor_dist(v),
        )
    }

    #[test]
    fn pruning_admits_every_ball_member_and_few_other_pairs() {
        let g = generators::weighted_grid(&[24, 24], 32, 7).unwrap();
        let oracle = DistanceOracle::build(&g, OracleConfig::default()).unwrap();
        let (mut pairs, mut members, mut admitted) = (0usize, 0usize, 0usize);
        for u in 0..g.n() as NodeId {
            let ball = oracle.ball(u);
            for v in (0..g.n() as NodeId).filter(|&v| v != u) {
                let admits = searches(&oracle, u, v);
                if ball.slot(v).is_some() {
                    assert!(admits, "({u},{v}): the rule hides a member of B({u})");
                    members += 1;
                }
                admitted += usize::from(admits);
                pairs += 1;
            }
        }
        assert_eq!((pairs, members), (331_200, 10_359));
        assert!(10 * admitted <= pairs, "admits {admitted} of {pairs} pairs");
    }

    #[test]
    fn pruning_searches_every_ball_of_a_landmarkless_component() {
        // The two-component graph of `tests/oracle_conformance.rs`: every
        // landmark sits in the first grid.
        let a = generators::weighted_grid(&[5, 6], 24, 0x2C0).unwrap();
        let b = generators::weighted_grid(&[4, 5], 24, 0x2C1).unwrap();
        let split = a.n() as NodeId;
        let mut both = GraphBuilder::new(a.n() + b.n());
        for &(u, v, w) in a.edges() {
            both.add_edge(u, v, w).unwrap();
        }
        for &(u, v, w) in b.edges() {
            both.add_edge(split + u, split + v, w).unwrap();
        }
        let g = both.build_unchecked_connectivity();
        let oracle = DistanceOracle::build_with_landmarks(&g, &[0, 13, 22]).unwrap();
        let n = g.n() as NodeId;
        for u in 0..n {
            for v in (0..n).filter(|&v| v != u) {
                match (u < split, v < split) {
                    (false, false) => assert!(searches(&oracle, u, v), "({u},{v})"),
                    // `r(u)` finite and `d(a(u), v) = ∞`: never searched.
                    (true, false) => assert!(!searches(&oracle, u, v), "({u},{v})"),
                    _ => {}
                }
            }
        }
    }
}
