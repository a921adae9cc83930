//! The one scalar search over a CSR [`Graph`]: [`DijkstraWorkspace`] runs
//! every BFS (one source or an ascending set of them, optionally
//! depth-bounded) and every Dijkstra (Dial bucket queue, or binary heap with
//! an optional strict distance bound); [`hop_limited_seeded_with`] is the one
//! hop-limited sweep (synchronous Bellman–Ford from one or many seeds).
//! [`DijkstraWorkspace::hop_depth`] reads, off a finished search, the fewest
//! hops a sweep needs to reach every distance of it.
//!
//! These are *centralized* oracles used (a) as ground truth when checking the
//! stretch of the distributed approximation algorithms, (b) as the local
//! computation performed inside clusters / skeleton nodes, which the HYBRID
//! model allows for free (nodes are computationally unbounded), and (c) as the
//! hop-distance searches the paper's ruling sets, Lemma 3.5 clustering and
//! the serving oracle's strict balls are defined over (Section 1.2).
//!
//! # Performance architecture
//!
//! The experiment sweeps run these oracles thousands of times per table, so
//! the hot paths are engineered to be allocation-lean and to pick the
//! cheapest correct algorithm for the input:
//!
//! * [`DijkstraWorkspace`] owns every buffer a run needs (distances, parents,
//!   heap, bucket ring) and resets them *sparsely* — only the entries
//!   touched by the previous run are cleared, so repeated single-source
//!   calls on the same graph never reallocate and never pay `O(n)` per call
//!   on small explored regions.  The touched list doubles as the BFS queue:
//!   a BFS discovers nodes in the order it settles them.
//! * [`dijkstra`] / [`DijkstraWorkspace::run`] select the oracle by weight
//!   range: BFS for unweighted graphs, a Dial bucket queue (`O(m + D·W)`,
//!   no comparison heap) for the small integer weights the generators emit
//!   (`W ≤ `[`DIAL_MAX_WEIGHT`]), and the binary heap otherwise.  All three
//!   produce identical distance arrays; the property tests assert this.
//! * Both Dijkstra variants are lazy-deletion queues that need **no visited
//!   set**: edge weights are at least 1 (`GraphBuilder::add_edge` refuses 0),
//!   so a node settled at `dist[v]` is never relaxed again (every later
//!   candidate is `d + w > dist[v]`), each `(node, distance)` pair is queued
//!   at most once, and an entry is stale exactly when its distance is no
//!   longer `dist[v]`.
//! * Every run adds its arcs scanned and its queue entries to the
//!   [`crate::work`] ledger once, when it returns.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::csr::{Graph, NodeId, Weight, INFINITY};
use crate::work::{Kernel, Tally};

/// Maximum edge weight for which the Dial bucket queue is selected
/// automatically.  The ring then has at most `DIAL_MAX_WEIGHT + 1` buckets,
/// which comfortably fits in cache; the generators' weighted families use
/// weights in `[1, 32]`.
pub const DIAL_MAX_WEIGHT: Weight = 64;

/// Upper bound on the bucket-ring size [`DijkstraWorkspace::run_dial`] will
/// allocate (2²⁶ slots ≈ 1.5 GiB of empty `Vec` headers is already far past
/// sensible).  A max weight at or beyond this bound makes the ring itself the
/// dominant cost — and `(c + 1).next_power_of_two()` can overflow `usize`
/// outright near `u64::MAX` — so `run_dial` falls back to the binary heap,
/// which produces identical output.
pub const DIAL_MAX_RING: usize = 1 << 26;

/// Result of a single-source Dijkstra run.
#[derive(Debug, Clone)]
pub struct DijkstraResult {
    /// Weighted distance from the source (`INFINITY` if unreachable).
    pub dist: Vec<Weight>,
    /// Shortest-path-tree parent (`None` for the source / unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
}

/// Which single-source oracle [`DijkstraWorkspace::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SsspAlgorithm {
    /// Breadth-first search — unweighted graphs.
    Bfs,
    /// Dial bucket-queue Dijkstra — small integer weights.
    Dial,
    /// Binary-heap Dijkstra — arbitrary weights.
    Heap,
}

/// Selects the cheapest correct oracle for `graph` by weight range and
/// density.
///
/// * unweighted → BFS;
/// * small integer weights (`W ≤ `[`DIAL_MAX_WEIGHT`]) → Dial;
/// * larger weights → Dial only when the worst-case bucket ring scan is
///   provably dominated by the heap's work: the ring scan costs `O(max
///   distance) ⊆ O(W·(n−1))`, the heap costs `Ω(m·log n)`, so Dial is chosen
///   iff `W·(n−1) ≤ 4·m·⌈log₂ n⌉`.  This admits the near-complete skeleton
///   graphs of the k-SSP scheduling framework (huge `m`, tiny hop diameter)
///   while sending sparse large-weight graphs — whose true max distance can
///   genuinely approach `W·n` — to the heap;
/// * otherwise → binary heap.
///
/// The choice is a pure function of the graph, so repeated runs — and runs
/// split across worker threads — always agree.
#[inline]
fn select_sssp_algorithm(graph: &Graph) -> SsspAlgorithm {
    if !graph.is_weighted() {
        return SsspAlgorithm::Bfs;
    }
    let w = graph.max_weight();
    if w <= DIAL_MAX_WEIGHT {
        return SsspAlgorithm::Dial;
    }
    let scan_bound = w.saturating_mul(graph.n().saturating_sub(1) as Weight);
    let heap_bound = (graph.m() as Weight).saturating_mul(4 * graph.log2_n() as Weight);
    if scan_bound <= heap_bound {
        SsspAlgorithm::Dial
    } else {
        SsspAlgorithm::Heap
    }
}

/// Reusable buffers for repeated single-source runs.
///
/// All oracles (BFS, Dial, heap) share the `dist` / `parent` buffers; the
/// heap and bucket ring are lazily grown.  After a run the
/// workspace resets itself sparsely using the list of touched nodes, so a
/// sequence of runs on the same graph performs no allocation after the first.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    /// Node count of the most recent run (buffers may be larger).
    len: usize,
    dist: Vec<Weight>,
    parent: Vec<Option<NodeId>>,
    /// Nodes whose `dist`/`parent` entries need resetting.
    touched: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(Weight, NodeId)>>,
    /// Dial ring: `buckets[d % ring]` holds nodes with tentative distance `d`.
    buckets: Vec<Vec<NodeId>>,
    /// Entry count per ring slot (kept in lockstep with `buckets` so the
    /// next-occupied-bucket scan reads one flat `u32` array instead of
    /// chasing `Vec` headers).
    bucket_lens: Vec<u32>,
    /// [`Self::hop_depth`]'s fewest hops per node; `u32::MAX` between calls.
    hops: Vec<u32>,
    /// [`Self::hop_depth`]'s BFS queue.
    queue: Vec<NodeId>,
}

impl DijkstraWorkspace {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for graphs of `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut ws = Self::new();
        ws.grow(n);
        ws
    }

    /// Distances computed by the most recent run.
    #[inline]
    pub fn dist(&self) -> &[Weight] {
        &self.dist[..self.len]
    }

    /// Parents computed by the most recent run.
    #[inline]
    pub fn parent(&self) -> &[Option<NodeId>] {
        &self.parent[..self.len]
    }

    /// Nodes reached by the most recent run, in discovery order (the sources
    /// first).  For BFS runs this is the settle order, so distances never
    /// decrease along it.
    #[inline]
    pub fn reached(&self) -> &[NodeId] {
        &self.touched
    }

    fn grow(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INFINITY);
            self.parent.resize(n, None);
        }
    }

    /// Sparse-resets the entries touched by the previous run and prepares for
    /// a run on a graph with `n` nodes.
    fn reset(&mut self, n: usize) {
        self.grow(n);
        self.len = n;
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
            self.parent[v as usize] = None;
        }
        self.touched.clear();
        self.heap.clear();
        // Buckets are fully drained by the Dial loop itself.
    }

    /// Runs the cheapest correct oracle for `graph` (BFS when unweighted,
    /// else Dial or the binary heap by weight range and density); afterwards
    /// [`Self::dist`] / [`Self::parent`] hold the result.
    pub fn run(&mut self, graph: &Graph, source: NodeId) {
        match select_sssp_algorithm(graph) {
            SsspAlgorithm::Bfs => self.run_bfs(graph, source),
            SsspAlgorithm::Dial => self.run_dial(graph, source),
            SsspAlgorithm::Heap => self.run_heap(graph, source, INFINITY),
        }
    }

    /// BFS oracle (unweighted graphs: hop distance = weighted distance).
    pub fn run_bfs(&mut self, graph: &Graph, source: NodeId) {
        self.run_bfs_bounded(graph, source, u64::MAX);
    }

    /// Depth-bounded BFS oracle: hop distances within `max_depth`, `INFINITY`
    /// beyond.
    pub fn run_bfs_bounded(&mut self, graph: &Graph, source: NodeId, max_depth: u64) {
        self.run_bfs_multi(graph, &[source], max_depth);
    }

    /// Depth-bounded BFS from every node of `sources` at once: `dist` is the
    /// hop distance to the closest source and `parent` the BFS-tree parent
    /// (`None` for the sources).
    ///
    /// `sources` must be ascending and distinct (as `ruling_set` returns
    /// them).  Then the first discovery of a node comes from the closest
    /// source with the smallest id — the Lemma 3.5 tie rule — and following
    /// `parent` from it leads there: the sources are queued in id order, so
    /// every layer is settled in non-decreasing order of the source its nodes
    /// descend from.
    pub fn run_bfs_multi(&mut self, graph: &Graph, sources: &[NodeId], max_depth: u64) {
        assert!(
            sources.windows(2).all(|w| w[0] < w[1]),
            "BFS sources must be ascending and distinct"
        );
        self.reset(graph.n());
        for &s in sources {
            self.dist[s as usize] = 0;
            self.touched.push(s);
        }
        let mut head = 0;
        let mut tally = Tally::default();
        while let Some(&v) = self.touched.get(head) {
            head += 1;
            let dv = self.dist[v as usize];
            if dv >= max_depth {
                break; // every node still queued is at least as deep
            }
            let arcs = graph.arcs(v);
            tally.arcs_scanned += arcs.len() as u64;
            for a in arcs {
                let u = a.to as usize;
                if self.dist[u] == INFINITY {
                    self.dist[u] = dv + 1;
                    self.parent[u] = Some(v);
                    self.touched.push(a.to);
                }
            }
        }
        tally.frontier_entries = self.touched.len() as u64;
        tally.record(Kernel::Dijkstra);
    }

    /// Binary-heap Dijkstra that reaches exactly the nodes `w` with
    /// `d(source, w) < below` ([`INFINITY`] for an unbounded run): a
    /// relaxation to `below` or beyond is dropped, which changes no distance
    /// or parent inside the bound — every shortest path to a node inside it
    /// stays inside it.  A popped entry whose distance is no longer `dist[v]`
    /// was superseded and is skipped; the one that is settles `v` (see the
    /// module docs for why no visited set is needed).
    pub fn run_heap(&mut self, graph: &Graph, source: NodeId, below: Weight) {
        self.reset(graph.n());
        if below == 0 {
            return;
        }
        self.dist[source as usize] = 0;
        self.touched.push(source);
        self.heap.push(Reverse((0, source)));
        // The source's entry is the first push.
        let mut tally = Tally {
            heap_pushes: 1,
            ..Tally::default()
        };
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d != self.dist[v as usize] {
                continue;
            }
            let arcs = graph.arcs(v);
            tally.arcs_scanned += arcs.len() as u64;
            for a in arcs {
                // Saturating: a near-`u64::MAX` path cannot wrap past zero
                // and masquerade as a short one — it pins at `u64::MAX`,
                // which is the `INFINITY` sentinel and never beats a real
                // tentative distance.
                let nd = d.saturating_add(a.weight);
                if nd < self.dist[a.to as usize] && nd < below {
                    if self.dist[a.to as usize] == INFINITY {
                        self.touched.push(a.to);
                    }
                    self.dist[a.to as usize] = nd;
                    self.parent[a.to as usize] = Some(v);
                    self.heap.push(Reverse((nd, a.to)));
                    tally.heap_pushes += 1;
                }
            }
        }
        tally.record(Kernel::Dijkstra);
    }

    /// Dial bucket-queue Dijkstra for integer weights `1..=c`: a circular
    /// array of `c + 1` buckets replaces the comparison heap, so each
    /// settle/relax is O(1).
    ///
    /// Between settle rounds the loop does **not** walk the (possibly long)
    /// run of empty distance values one at a time: a per-slot occupancy
    /// array (`bucket_lens`) is scanned for its first non-zero entry to jump
    /// straight to the next occupied bucket.  The jump is exact —
    /// every pending entry has tentative distance in `[cur, cur + c]` and
    /// `c < ring`, so the circular scan starting just after the current slot
    /// meets the pending entries in increasing distance order and the settle
    /// order (hence `dist`/`parent`) is bit-identical to the slot-by-slot
    /// walk.
    ///
    /// Graphs whose maximum weight would demand a ring larger than
    /// [`DIAL_MAX_RING`] fall back to [`Self::run_heap`] (identical output);
    /// this also dodges the `usize` overflow in `next_power_of_two` that a
    /// near-`u64::MAX` weight would otherwise trigger.
    pub fn run_dial(&mut self, graph: &Graph, source: NodeId) {
        let c = graph.max_weight().max(1);
        // Compare in u128: `c + 1` itself can overflow u64 and the
        // subsequent `next_power_of_two` can overflow usize.
        if c as u128 + 1 > DIAL_MAX_RING as u128 {
            return self.run_heap(graph, source, INFINITY);
        }
        let c = c as usize;
        self.reset(graph.n());
        // Power-of-two ring ≥ c+1 so the slot index is a mask instead of a
        // hardware division in the relaxation loop.
        let ring = (c + 1).next_power_of_two();
        let mask = ring - 1;
        if self.buckets.len() < ring {
            self.buckets.resize_with(ring, Vec::new);
        }
        if self.bucket_lens.len() < ring {
            self.bucket_lens.resize(ring, 0);
        }
        self.dist[source as usize] = 0;
        self.touched.push(source);
        self.buckets[0].push(source);
        self.bucket_lens[0] = 1;
        let mut pending = 1usize;
        // The source's entry is the first push.
        let mut tally = Tally {
            heap_pushes: 1,
            ..Tally::default()
        };
        let mut cur: Weight = 0;
        loop {
            let slot = (cur as usize) & mask;
            // Settle every node whose tentative distance equals `cur`.
            while let Some(v) = self.buckets[slot].pop() {
                self.bucket_lens[slot] -= 1;
                pending -= 1;
                if self.dist[v as usize] != cur {
                    continue; // stale entry superseded by a better relaxation
                }
                let arcs = graph.arcs(v);
                tally.arcs_scanned += arcs.len() as u64;
                for a in arcs {
                    let nd = cur + a.weight;
                    if nd < self.dist[a.to as usize] {
                        if self.dist[a.to as usize] == INFINITY {
                            self.touched.push(a.to);
                        }
                        self.dist[a.to as usize] = nd;
                        self.parent[a.to as usize] = Some(v);
                        let target = (nd as usize) & mask;
                        self.buckets[target].push(a.to);
                        self.bucket_lens[target] += 1;
                        pending += 1;
                        tally.heap_pushes += 1;
                    }
                }
            }
            if pending == 0 {
                break;
            }
            // Jump to the next occupied bucket.  `1 ≤ nd − cur ≤ c < ring`
            // for every push above, so no entry ever lands back in `slot`
            // while it drains and the closest pending entry is within one
            // lap of the ring.
            let from = (slot + 1) & mask;
            let next = match self.bucket_lens[from..ring].iter().position(|&l| l != 0) {
                Some(off) => from + off,
                None => self.bucket_lens[..from]
                    .iter()
                    .position(|&l| l != 0)
                    .expect("pending > 0 implies an occupied bucket"),
            };
            let delta = if next > slot {
                next - slot
            } else {
                ring - slot + next
            };
            cur += delta as Weight;
        }
        tally.record(Kernel::Dijkstra);
    }

    /// The fewest hops a shortest path needs, maxed over the nodes the most
    /// recent single-source run reached: `H = max_v min { |P| : P a shortest
    /// path from the source to v }` (0 when only the source is reached).
    ///
    /// It is the BFS depth from the source over the *tight* arcs `v → u`,
    /// those with `dist[v] ⊕ w == dist[u]` and both ends finite: a path is a
    /// shortest path exactly when all its arcs are tight.  Weights are at
    /// least 1, so the tight arcs form a DAG ordered by `dist`.  A node whose
    /// path sums saturate at [`INFINITY`] was never reached and never counts.
    ///
    /// `H` is where the `h`-hop relaxation stops moving: from one source,
    /// [`hop_limited_distances_with`] reports its fixpoint for exactly the
    /// `h ≥ min(H + 1, n − 1)`.  Allocates only the first time a workspace
    /// meets a graph this large.
    pub fn hop_depth(&mut self, graph: &Graph) -> usize {
        let Some(&source) = self.touched.first() else {
            return 0;
        };
        if self.hops.len() < self.len {
            self.hops.resize(self.len, u32::MAX);
        }
        self.queue.clear();
        self.queue.push(source);
        self.hops[source as usize] = 0;
        let mut head = 0;
        let mut tally = Tally::default();
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let (dv, hv) = (self.dist[v as usize], self.hops[v as usize]);
            let arcs = graph.arcs(v);
            tally.arcs_scanned += arcs.len() as u64;
            for a in arcs {
                let u = a.to as usize;
                let du = self.dist[u];
                if self.hops[u] == u32::MAX && du != INFINITY && dv.saturating_add(a.weight) == du {
                    self.hops[u] = hv + 1;
                    self.queue.push(a.to);
                }
            }
        }
        // BFS order: the last node queued is one of the deepest.
        let depth = self.hops[*self.queue.last().expect("the source") as usize];
        for &v in &self.queue {
            self.hops[v as usize] = u32::MAX;
        }
        tally.frontier_entries = self.queue.len() as u64;
        tally.record(Kernel::Dijkstra);
        depth as usize
    }
}

/// Single-source Dijkstra from `source` over the edge weights of `graph`.
///
/// Convenience wrapper allocating a fresh [`DijkstraWorkspace`]; hot loops
/// should hold a workspace and call [`DijkstraWorkspace::run`] instead.
pub fn dijkstra(graph: &Graph, source: NodeId) -> DijkstraResult {
    let mut ws = DijkstraWorkspace::with_capacity(graph.n());
    ws.run(graph, source);
    DijkstraResult {
        dist: ws.dist,
        parent: ws.parent,
    }
}

/// Reusable buffers for [`hop_limited_seeded_with`] (and so for
/// [`hop_limited_distances_with`]).
#[derive(Debug, Default)]
pub struct HopLimitedWorkspace {
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    /// Per node, the best improvement recorded this round; `INFINITY` (no
    /// improvement) between rounds and between calls.
    cand: Vec<Weight>,
}

impl HopLimitedWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `h`-hop-limited distances `d^h(source, ·)` (Definition in Section 1.2 and
/// Definition 6.2 of the paper): the weight of a shortest path among paths
/// with at most `h` edges; `INFINITY` if no such path exists.
///
/// Implemented as `h` rounds of frontier Bellman–Ford relaxation, which is
/// exactly the computation a node can perform after `h` rounds of local
/// flooding.
pub fn hop_limited_distances(graph: &Graph, source: NodeId, h: usize) -> Vec<Weight> {
    let mut ws = HopLimitedWorkspace::new();
    let mut dist = vec![INFINITY; graph.n()];
    hop_limited_distances_with(&mut ws, graph, source, h, &mut dist);
    dist
}

/// Allocation-lean hop-limited distances: writes into `dist` (fully
/// overwritten) and reuses the workspace's frontier/candidate buffers.  The
/// one-seed case of [`hop_limited_seeded_with`].
///
/// Returns `true` iff the relaxation reached its fixpoint within `h` rounds
/// (the frontier emptied, or `h ≥ n − 1` so the Bellman–Ford bound applies).
/// In that case `dist` holds the **exact** distances `d(source, ·)` — the
/// `h`-hop ball covers every shortest path — which callers such as the k-SSP
/// data level use to keep a source's row as its label (see
/// `hybrid_core::kssp`).  `false` means `dist` is only the upper bound
/// `d^h(source, ·)`.
pub fn hop_limited_distances_with(
    ws: &mut HopLimitedWorkspace,
    graph: &Graph,
    source: NodeId,
    h: usize,
    dist: &mut Vec<Weight>,
) -> bool {
    hop_limited_seeded_with(ws, graph, &[(source, 0)], h, dist)
}

/// `h` synchronous Bellman–Ford rounds from a set of seeded nodes: writes
/// `dist[v] = min over seeds (s, x) of x ⊕ d^h(s, v)` (fully overwritten),
/// where `⊕` saturates at [`INFINITY`].  A seed of `INFINITY` seeds nothing,
/// and a node seeded twice keeps its smaller value.
///
/// The synchronous semantics of the naive two-array implementation are
/// preserved exactly — relaxations within a round read the distances from
/// the *start* of the round — but instead of cloning the distance array
/// every round, improvements are buffered per round in a candidate array
/// and applied (and the candidates cleared) at the round boundary:
/// `O(frontier)` work per round instead of `O(n)`.  Round `r` relaxes only the nodes that
/// improved in round `r − 1` (the seeds, in round 0); a node that did not
/// improve already offered its neighbours the same value.
///
/// Returns `true` iff the relaxation reached its fixpoint within `h` rounds
/// (the frontier emptied, or `h ≥ n − 1`); then `dist[v]` is the unlimited
/// `min over seeds of x ⊕ d(s, v)`.
pub fn hop_limited_seeded_with(
    ws: &mut HopLimitedWorkspace,
    graph: &Graph,
    seeds: &[(NodeId, Weight)],
    h: usize,
    dist: &mut Vec<Weight>,
) -> bool {
    let n = graph.n();
    dist.clear();
    dist.resize(n, INFINITY);
    if ws.cand.len() < n {
        ws.cand.resize(n, INFINITY);
    }
    ws.frontier.clear();
    let mut tally = Tally::default();
    for &(s, x) in seeds {
        let slot = &mut dist[s as usize];
        if x < *slot {
            // A node joins the frontier once, when it first turns finite.
            if *slot == INFINITY {
                ws.frontier.push(s);
            }
            *slot = x;
        }
    }
    // Bellman–Ford converges within n-1 rounds.
    let rounds = h.min(n.saturating_sub(1));
    let mut converged = h >= n.saturating_sub(1);
    tally.frontier_entries = ws.frontier.len() as u64;
    for _ in 0..rounds {
        ws.next.clear();
        for &v in &ws.frontier {
            let dv = dist[v as usize];
            let arcs = graph.arcs(v);
            tally.arcs_scanned += arcs.len() as u64;
            for a in arcs {
                let u = a.to as usize;
                // Saturating, as in `run_heap`: a near-`u64::MAX` path pins
                // at `INFINITY` instead of wrapping to a short finite label.
                let nd = dv.saturating_add(a.weight);
                // Compare against the round-start distance (synchronous
                // semantics); candidates accumulate the round minimum.  A
                // candidate is finite, so `INFINITY` marks "none yet".
                if nd < dist[u] && nd < ws.cand[u] {
                    if ws.cand[u] == INFINITY {
                        ws.next.push(a.to);
                    }
                    ws.cand[u] = nd;
                }
            }
        }
        if ws.next.is_empty() {
            converged = true;
            break;
        }
        tally.frontier_entries += ws.next.len() as u64;
        for &u in &ws.next {
            dist[u as usize] = std::mem::replace(&mut ws.cand[u as usize], INFINITY);
        }
        std::mem::swap(&mut ws.frontier, &mut ws.next);
    }
    tally.record(Kernel::HopLimited);
    converged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    fn weighted_diamond() -> Graph {
        // 0 -1- 1 -1- 3,   0 -5- 2 -1- 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 3, 1).unwrap();
        b.add_edge(0, 2, 5).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        b.build().unwrap()
    }

    /// The path `0 → 1 → 2` with two near-`u64::MAX` edges.
    fn huge_path() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, u64::MAX - 1).unwrap();
        b.add_edge(1, 2, u64::MAX - 1).unwrap();
        b.build().unwrap()
    }

    /// Distances and parents of one unbounded heap run: the reference the
    /// other runs are held to.
    fn heap(g: &Graph, source: NodeId) -> (Vec<Weight>, Vec<Option<NodeId>>) {
        let mut ws = DijkstraWorkspace::new();
        ws.run_heap(g, source, INFINITY);
        (ws.dist().to_vec(), ws.parent().to_vec())
    }

    /// The source-to-`t` path the parents of a run spell, source first.
    fn path_to(parent: &[Option<NodeId>], t: NodeId) -> Vec<NodeId> {
        let mut path: Vec<NodeId> =
            std::iter::successors(Some(t), |&v| parent[v as usize]).collect();
        path.reverse();
        path
    }

    /// Every node's closest source after a multi-source BFS, read off the
    /// parents in settle order.
    fn closest_sources(ws: &DijkstraWorkspace) -> Vec<Option<NodeId>> {
        let mut closest = vec![None; ws.dist().len()];
        for &v in ws.reached() {
            closest[v as usize] = ws.parent()[v as usize].map_or(Some(v), |p| closest[p as usize]);
        }
        closest
    }

    /// `a` and `b` side by side, `b`'s ids shifted past `a`'s.
    fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
        let shift = a.n() as NodeId;
        let mut builder = GraphBuilder::new(a.n() + b.n());
        for &(u, v, w) in a.edges() {
            builder.add_edge(u, v, w).unwrap();
        }
        for &(u, v, w) in b.edges() {
            builder.add_edge(u + shift, v + shift, w).unwrap();
        }
        builder.build_unchecked_connectivity()
    }

    #[test]
    fn dijkstra_prefers_light_path() {
        let g = weighted_diamond();
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 3, 2]);
        assert_eq!(path_to(&r.parent, 3), vec![0, 1, 3]);
        assert_eq!(path_to(&r.parent, 2), vec![0, 1, 3, 2]);
    }

    #[test]
    fn heap_dial_and_auto_agree() {
        let g = weighted_diamond();
        let (dist, _) = heap(&g, 0);
        let mut ws = DijkstraWorkspace::new();
        ws.run_dial(&g, 0);
        assert_eq!(ws.dist(), dist.as_slice());
        assert_eq!(dijkstra(&g, 0).dist, dist);
        assert_eq!(select_sssp_algorithm(&g), SsspAlgorithm::Dial);
    }

    #[test]
    fn oracle_selection_by_weight_range() {
        let unweighted = generators::path(5).unwrap();
        assert_eq!(select_sssp_algorithm(&unweighted), SsspAlgorithm::Bfs);
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, DIAL_MAX_WEIGHT + 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        let heavy = b.build().unwrap();
        assert_eq!(select_sssp_algorithm(&heavy), SsspAlgorithm::Heap);
        let (dist, _) = heap(&heavy, 0);
        assert_eq!(dist, dijkstra(&heavy, 0).dist);
        let mut ws = DijkstraWorkspace::new();
        ws.run_dial(&heavy, 0);
        assert_eq!(ws.dist(), dist.as_slice());
    }

    #[test]
    fn workspace_reuse_across_sources_and_graphs() {
        let g = weighted_diamond();
        let mut ws = DijkstraWorkspace::new();
        for s in 0..4u32 {
            ws.run(&g, s);
            assert_eq!(ws.dist(), heap(&g, s).0.as_slice());
        }
        // Switch to a different, larger graph with the same workspace.
        let p = generators::path(9).unwrap();
        ws.run(&p, 3);
        assert_eq!(ws.dist(), &[3, 2, 1, 0, 1, 2, 3, 4, 5]);
        // And back to the small one.
        ws.run(&g, 1);
        assert_eq!(ws.dist(), heap(&g, 1).0.as_slice());
    }

    #[test]
    fn hop_limited_matches_definition() {
        let g = weighted_diamond();
        // With at most 1 hop, node 3 is unreachable from 0; node 2 costs 5.
        let d1 = hop_limited_distances(&g, 0, 1);
        assert_eq!(d1[1], 1);
        assert_eq!(d1[2], 5);
        assert_eq!(d1[3], INFINITY);
        // With 2 hops the best 2-hop path to 2 is 0-1-3? no, that's 3 hops to 2.
        let d2 = hop_limited_distances(&g, 0, 2);
        assert_eq!(d2[3], 2);
        assert_eq!(d2[2], 5);
        // With enough hops we recover true distances.
        let d3 = hop_limited_distances(&g, 0, 3);
        assert_eq!(d3, dijkstra(&g, 0).dist);
    }

    #[test]
    fn hop_limited_zero_hops_only_source() {
        let g = generators::path(4).unwrap();
        let d = hop_limited_distances(&g, 2, 0);
        assert_eq!(d[2], 0);
        assert!(d.iter().enumerate().all(|(i, &x)| i == 2 || x == INFINITY));
    }

    #[test]
    fn hop_limited_workspace_reuse_is_clean() {
        let g = weighted_diamond();
        let mut ws = HopLimitedWorkspace::new();
        let mut dist = Vec::new();
        hop_limited_distances_with(&mut ws, &g, 0, 1, &mut dist);
        assert_eq!(dist, hop_limited_distances(&g, 0, 1));
        hop_limited_distances_with(&mut ws, &g, 3, 2, &mut dist);
        assert_eq!(dist, hop_limited_distances(&g, 3, 2));
        let p = generators::path(7).unwrap();
        hop_limited_distances_with(&mut ws, &p, 0, 4, &mut dist);
        assert_eq!(dist, hop_limited_distances(&p, 0, 4));
    }

    #[test]
    fn dijkstra_equals_bfs_on_unweighted() {
        let g = generators::grid(&[5, 4]).unwrap();
        let mut ws = DijkstraWorkspace::new();
        for s in [0u32, 7, 19] {
            ws.run_bfs(&g, s);
            assert_eq!(dijkstra(&g, s).dist, ws.dist());
            assert_eq!(heap(&g, s).0, ws.dist());
        }
    }

    #[test]
    fn bfs_multi_assigns_closest_source() {
        let g = generators::path(9).unwrap();
        let mut ws = DijkstraWorkspace::new();
        ws.run_bfs_multi(&g, &[0, 8], u64::MAX);
        let closest = closest_sources(&ws);
        assert_eq!(ws.dist()[4], 4);
        assert_eq!(closest[1], Some(0));
        assert_eq!(closest[7], Some(8));
        // Equidistant node 4: tie broken towards smaller id.
        assert_eq!(closest[4], Some(0));
    }

    /// Against one heap run per source, on the families and on random graphs
    /// sparse enough to be disconnected and dense enough for many equidistant
    /// sources: `dist` is the minimum of the rows, the closest source is the
    /// smallest id attaining it, and an unreached node has none.
    #[test]
    fn bfs_multi_matches_per_source_heap_runs() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x0B5);
        let mut graphs = vec![
            generators::path(30).unwrap(),
            generators::grid(&[7, 6]).unwrap(),
            generators::tree_with_n(3, 40).unwrap(),
            generators::erdos_renyi(50, 0.08, 7).unwrap(),
            disjoint_union(
                &generators::cycle(12).unwrap(),
                &generators::grid(&[4, 5]).unwrap(),
            ),
        ];
        for _ in 0..400 {
            let n = rng.gen_range(1..=40usize);
            let p = 0.3 * rng.gen::<f64>();
            let mut b = GraphBuilder::new(n);
            for u in 0..n as NodeId {
                for v in u + 1..n as NodeId {
                    if rng.gen_bool(p) {
                        b.add_unweighted_edge(u, v).unwrap();
                    }
                }
            }
            graphs.push(b.build_unchecked_connectivity());
        }
        let mut ws = DijkstraWorkspace::new();
        for g in &graphs {
            let n = g.n();
            let mut sources: Vec<NodeId> = (0..rng.gen_range(0..=6usize))
                .map(|_| rng.gen_range(0..n as NodeId))
                .collect();
            sources.sort_unstable();
            sources.dedup();

            let mut dist = vec![INFINITY; n];
            let mut closest = vec![None; n];
            for &s in &sources {
                for (v, &d) in heap(g, s).0.iter().enumerate() {
                    if d < dist[v] {
                        (dist[v], closest[v]) = (d, Some(s));
                    }
                }
            }
            ws.run_bfs_multi(g, &sources, u64::MAX);
            assert_eq!(ws.dist(), dist, "sources {sources:?} on {:?}", g.edges());
            assert_eq!(
                closest_sources(&ws),
                closest,
                "sources {sources:?} on {:?}",
                g.edges()
            );
        }
    }

    /// A bounded heap run reaches exactly the strict ball `{w : d(s, w) <
    /// r}`, with the unbounded run's distances and parents inside it and
    /// nothing outside.
    #[test]
    fn heap_run_below_r_is_the_unbounded_run_cut_at_r() {
        let grid = generators::grid(&[6, 5]).unwrap();
        let graphs = [
            weighted_diamond(),
            generators::with_random_weights(&grid, 9, 3).unwrap(),
            generators::with_random_weights(&generators::erdos_renyi(40, 0.1, 5).unwrap(), 1000, 4)
                .unwrap(),
            huge_path(),
        ];
        let mut ws = DijkstraWorkspace::new();
        for g in &graphs {
            for s in [0, g.n() as NodeId / 2] {
                let (dist, parent) = heap(g, s);
                let mut radii: Vec<Weight> = dist.clone();
                radii.extend([0, 1, u64::MAX - 1, INFINITY]);
                for r in radii {
                    ws.run_heap(g, s, r);
                    let mut reached = ws.reached().to_vec();
                    reached.sort_unstable();
                    let ball: Vec<NodeId> = g.nodes().filter(|&w| dist[w as usize] < r).collect();
                    assert_eq!(reached, ball, "source {s}, bound {r}");
                    for w in g.nodes() {
                        let (d, p) = (ws.dist()[w as usize], ws.parent()[w as usize]);
                        if dist[w as usize] < r {
                            assert_eq!((d, p), (dist[w as usize], parent[w as usize]));
                        } else {
                            assert_eq!((d, p), (INFINITY, None), "source {s}, bound {r}, node {w}");
                        }
                    }
                }
            }
        }
    }

    /// Regression: a relaxation can leave a *stale* entry in a later bucket
    /// (node 2 first reached at distance 5 via 0-2, then improved to 2 via
    /// 0-1-2).  The skip-scan must still visit that trailing bucket to drain
    /// the stale entry — otherwise `pending` never reaches zero — and a
    /// subsequent run on the same workspace must start from clean occupancy
    /// counts.
    #[test]
    fn dial_drains_trailing_stale_entries() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 5).unwrap();
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 2, 1).unwrap();
        let g = b.build().unwrap();
        let mut ws = DijkstraWorkspace::new();
        ws.run_dial(&g, 0);
        assert_eq!(ws.dist(), &[0, 1, 2]);
        assert_eq!(ws.dist(), heap(&g, 0).0.as_slice());
        assert!(ws.bucket_lens.iter().all(|&l| l == 0));
        assert!(ws.buckets.iter().all(Vec::is_empty));
        // Reuse: the ring state left behind must not poison the next run.
        ws.run_dial(&g, 2);
        assert_eq!(ws.dist(), &[2, 1, 0]);
    }

    /// Regression: near-`u64::MAX` weights used to overflow both the Dial
    /// ring computation (`(c + 1).next_power_of_two()` as `usize`) and the
    /// heap relaxation (`d + a.weight`).  Dial now falls back to the heap for
    /// rings beyond [`DIAL_MAX_RING`], and the heap saturates into the
    /// `INFINITY` sentinel instead of wrapping.
    #[test]
    fn dial_falls_back_to_heap_on_huge_weights() {
        let g = huge_path();
        let mut ws = DijkstraWorkspace::new();
        ws.run_dial(&g, 0);
        // Two near-MAX edges saturate: node 2 is indistinguishable from
        // unreachable under u64 weights, and must NOT wrap around to a tiny
        // finite distance.
        assert_eq!(ws.dist(), &[0, u64::MAX - 1, INFINITY]);
        assert_eq!(ws.dist(), heap(&g, 0).0.as_slice());
        // No ring of astronomical size was allocated by the fallback.
        assert!(ws.buckets.len() <= DIAL_MAX_RING);
    }

    /// The seeded sweep against its definition: the pointwise minimum of
    /// `x ⊕ d^h(s, ·)` over the seeds, one single-source sweep each.
    fn seeded_by_definition(g: &Graph, seeds: &[(NodeId, Weight)], h: usize) -> Vec<Weight> {
        let mut want = vec![INFINITY; g.n()];
        for &(s, x) in seeds {
            for (w, d) in want.iter_mut().zip(hop_limited_distances(g, s, h)) {
                *w = (*w).min(x.saturating_add(d));
            }
        }
        want
    }

    #[test]
    fn seeded_sweep_is_the_min_over_its_seeds() {
        let grid = generators::weighted_grid(&[7, 6], 9, 4).unwrap();
        let union = disjoint_union(&generators::path(9).unwrap(), &grid);
        let cases: [(&Graph, Vec<(NodeId, Weight)>); 5] = [
            (&grid, vec![(0, 0)]),
            (&grid, vec![(3, 5), (40, 0), (17, 12), (22, INFINITY)]),
            // A node seeded twice keeps the smaller seed, in either order.
            (&grid, vec![(8, 30), (8, 2), (30, 7), (30, 90)]),
            (&union, vec![(0, 4), (12, 1), (50, 3), (2, INFINITY)]),
            (&union, vec![(5, INFINITY)]),
        ];
        let mut ws = HopLimitedWorkspace::new();
        let mut dist = Vec::new();
        for (ci, (g, seeds)) in cases.iter().enumerate() {
            for h in [0, 1, 2, 5, 13, g.n()] {
                let converged = hop_limited_seeded_with(&mut ws, g, seeds, h, &mut dist);
                assert_eq!(dist, seeded_by_definition(g, seeds, h), "case {ci} h={h}");
                // The fixpoint flag: the sweep is exact iff one more round
                // moves nothing.
                if converged {
                    assert_eq!(
                        dist,
                        seeded_by_definition(g, seeds, g.n()),
                        "case {ci} h={h}"
                    );
                }
            }
        }
        // No seed at all: nothing is reached, and nothing is left to relax.
        assert!(hop_limited_seeded_with(&mut ws, &grid, &[], 3, &mut dist));
        assert!(dist.iter().all(|&d| d == INFINITY));
    }

    #[test]
    fn seeded_sweep_saturates_instead_of_wrapping() {
        // 0 -5- 1 -7- 2, node 0 seeded 3 below `u64::MAX`: a wrapping add
        // would hand node 1 the label 1 through it.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5).unwrap();
        b.add_edge(1, 2, 7).unwrap();
        let g = b.build().unwrap();
        let mut ws = HopLimitedWorkspace::new();
        let mut dist = Vec::new();
        let seeds = [(0, u64::MAX - 3), (2, 1)];
        hop_limited_seeded_with(&mut ws, &g, &seeds, 1, &mut dist);
        assert_eq!(dist, [u64::MAX - 3, 8, 1]);
        assert_eq!(dist, seeded_by_definition(&g, &seeds, 1));
        let seeds = [(0, u64::MAX - 3)];
        assert!(hop_limited_seeded_with(&mut ws, &g, &seeds, 2, &mut dist));
        assert_eq!(dist, [u64::MAX - 3, INFINITY, INFINITY]);
        // Near-`u64::MAX` edges under a small seed: pinned, not wrapped.
        let g = huge_path();
        let seeds = [(0, 2), (1, 1)];
        hop_limited_seeded_with(&mut ws, &g, &seeds, 2, &mut dist);
        assert_eq!(dist, [2, 1, INFINITY]);
        assert_eq!(dist, seeded_by_definition(&g, &seeds, 2));
    }

    /// `hop_depth` against the sweep it predicts: from every source, the
    /// smallest `h` at which the hop-limited sweep reports its fixpoint is
    /// `min(H + 1, n − 1)`, and `H` is the largest, over the reached nodes,
    /// of the first hop count at which a node's `d^h` is exact.  Covers a
    /// disconnected union (only reached nodes count), sums that saturate at
    /// `INFINITY` (an unreached node is never tight), equal-weight ties,
    /// n = 1 and n = 2, and every oracle `run` selects.
    #[test]
    fn hop_depth_is_where_the_hop_limited_sweep_stops() {
        let grid = generators::grid(&[5, 4]).unwrap();
        let mut tie = GraphBuilder::new(4);
        for (u, v, w) in [(0, 1, 2), (1, 3, 2), (0, 2, 1), (2, 3, 3), (0, 3, 4)] {
            tie.add_edge(u, v, w).unwrap();
        }
        let graphs = [
            generators::path(1).unwrap(),
            generators::path(2).unwrap(),
            generators::path(9).unwrap(),
            weighted_diamond(),
            tie.build().unwrap(),
            huge_path(),
            grid.clone(),
            generators::with_random_weights(&grid, 9, 3).unwrap(),
            generators::with_random_weights(
                &generators::erdos_renyi(30, 0.15, 5).unwrap(),
                1000,
                4,
            )
            .unwrap(),
            disjoint_union(
                &generators::path(6).unwrap(),
                &generators::weighted_grid(&[3, 4], 7, 2).unwrap(),
            ),
        ];
        let mut ws = DijkstraWorkspace::new();
        let mut sweep = HopLimitedWorkspace::new();
        let mut dist = Vec::new();
        for g in &graphs {
            let n = g.n();
            for s in g.nodes() {
                ws.run(g, s);
                let exact = ws.dist().to_vec();
                let depth = ws.hop_depth(g);
                let stops = (0..=n)
                    .find(|&h| hop_limited_distances_with(&mut sweep, g, s, h, &mut dist))
                    .expect("converged by h = n - 1");
                assert_eq!(
                    stops,
                    (depth + 1).min(n.saturating_sub(1)),
                    "source {s} of {:?}",
                    g.edges()
                );
                let first_exact =
                    |v: usize| (0..n).find(|&h| hop_limited_distances(g, s, h)[v] == exact[v]);
                let reached = (0..n).filter(|&v| exact[v] != INFINITY);
                let want = reached
                    .map(|v| first_exact(v).expect("exact by n - 1 hops"))
                    .max();
                assert_eq!(Some(depth), want, "source {s} of {:?}", g.edges());
            }
        }
        // The path's far end needs every hop; the huge path's middle node is
        // one hop away and its far node, past `u64::MAX`, never counts.
        ws.run(&graphs[2], 0);
        assert_eq!(ws.hop_depth(&graphs[2]), 8);
        ws.run(&graphs[5], 0);
        assert_eq!(ws.hop_depth(&graphs[5]), 1);
        // The tie graph: node 3 is at 4 by 0-1-3, 0-2-3 and 0-3; the direct
        // arc is the fewest hops.
        ws.run(&graphs[4], 0);
        assert_eq!((ws.dist()[3], ws.hop_depth(&graphs[4])), (4, 1));
    }

    /// Regression: the hop-limited relaxation added unchecked (`dv +
    /// a.weight`), so on the same 3-path it panicked in a dev build and
    /// wrapped to the finite label `MAX − 3` in release — where Dijkstra
    /// says `INFINITY`, which also broke "fixpoint ⇒ exact".
    #[test]
    fn hop_limited_saturates_on_huge_weights() {
        let g = huge_path();
        assert_eq!(hop_limited_distances(&g, 0, 2), dijkstra(&g, 0).dist);
        let mut dist = Vec::new();
        let mut ws = HopLimitedWorkspace::new();
        assert!(hop_limited_distances_with(&mut ws, &g, 0, 2, &mut dist));
        assert_eq!(dist, [0, u64::MAX - 1, INFINITY]);
    }
}
