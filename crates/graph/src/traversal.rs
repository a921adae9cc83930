//! Breadth-first search based oracles: hop distances, BFS trees, multi-source
//! BFS, connected components, and [`lane_bfs`] — 64 searches advanced
//! together, one bit of a `u64` word each, with a per-lane stop rule.  Its
//! callers are [`crate::balls::BallOracle::new`] (every node's ball profile)
//! and the sampled `NQ_k` oracle of `hybrid-core` (the sampled profiles).
//!
//! Hop distances `hop(v, w)` are what the paper's neighborhood-quality
//! parameter, clusterings and lower bounds are defined over (Section 1.2).

use std::collections::VecDeque;

use crate::csr::{Graph, NodeId, Weight, INFINITY};

/// Result of a single-source BFS.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Hop distance from the source to every node (`INFINITY` if unreachable).
    pub dist: Vec<Weight>,
    /// BFS-tree parent of every node (`None` for the source / unreachable nodes).
    pub parent: Vec<Option<NodeId>>,
    /// Nodes in the order they were settled (non-decreasing distance).
    pub order: Vec<NodeId>,
}

impl BfsResult {
    /// Maximum finite distance reached (the eccentricity of the source if the
    /// graph is connected).
    pub fn eccentricity(&self) -> Weight {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != INFINITY)
            .max()
            .unwrap_or(0)
    }

    /// Reconstructs the hop-shortest path from the source to `t`, inclusive of
    /// both endpoints.  Returns `None` if `t` is unreachable.
    pub fn path_to(&self, t: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[t as usize] == INFINITY {
            return None;
        }
        let mut path = vec![t];
        let mut cur = t;
        while let Some(p) = self.parent[cur as usize] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Single-source BFS from `source`.
pub fn bfs(graph: &Graph, source: NodeId) -> BfsResult {
    bfs_bounded(graph, source, u64::MAX)
}

/// BFS from `source` exploring only nodes within `max_depth` hops.
pub fn bfs_bounded(graph: &Graph, source: NodeId, max_depth: u64) -> BfsResult {
    let n = graph.n();
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![None; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        let dv = dist[v as usize];
        if dv >= max_depth {
            continue;
        }
        for a in graph.arcs(v) {
            let u = a.to as usize;
            if dist[u] == INFINITY {
                dist[u] = dv + 1;
                parent[u] = Some(v);
                queue.push_back(a.to);
            }
        }
    }
    BfsResult {
        dist,
        parent,
        order,
    }
}

/// Multi-source BFS: hop distance from the *closest* source, plus which
/// source is closest (ties broken by smaller source id, matching the
/// tie-breaking used by the paper's clustering, Lemma 3.5).
#[derive(Debug, Clone)]
pub struct MultiSourceBfs {
    /// Hop distance to the closest source.
    pub dist: Vec<Weight>,
    /// Closest source for every node (`None` if unreachable).
    pub closest: Vec<Option<NodeId>>,
}

/// Runs a multi-source BFS from `sources`.
///
/// Tie-breaking: when two sources are equidistant from a node, the one with
/// the smaller node id wins (deterministic, as required by Lemma 3.5).  The
/// first discovery settles it: the sources enter the FIFO queue in increasing
/// id order, so every layer is popped in non-decreasing label order, and the
/// first layer-`(d − 1)` node to reach a layer-`d` node carries the smallest
/// label among its predecessors.
pub fn multi_source_bfs(graph: &Graph, sources: &[NodeId]) -> MultiSourceBfs {
    let n = graph.n();
    let mut dist = vec![INFINITY; n];
    let mut closest: Vec<Option<NodeId>> = vec![None; n];
    let mut queue = VecDeque::new();
    let mut sorted: Vec<NodeId> = sources.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    for &s in &sorted {
        dist[s as usize] = 0;
        closest[s as usize] = Some(s);
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        let cv = closest[v as usize];
        for a in graph.arcs(v) {
            let u = a.to as usize;
            if dist[u] == INFINITY {
                dist[u] = dv + 1;
                closest[u] = cv;
                queue.push_back(a.to);
            }
        }
    }
    MultiSourceBfs { dist, closest }
}

/// Sources one [`lane_bfs`] carries: one per bit of a `u64` word.
pub const LANES: usize = u64::BITS as usize;

/// The lanes whose bit is set in `word`, lowest first.
pub fn lanes_of(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let lane = word.trailing_zeros() as usize;
            word &= word - 1;
            lane
        })
    })
}

/// Reusable state of [`lane_bfs`] on graphs of one size; every word is zero
/// and every list empty between two runs.
pub struct LaneWorkspace {
    /// Lanes that have reached the node.
    seen: Vec<u64>,
    /// Lanes whose current BFS layer contains the node.
    frontier: Vec<u64>,
    /// Lanes whose next BFS layer contains the node.
    next: Vec<u64>,
    /// Nodes with a non-zero `frontier` word.
    active: Vec<NodeId>,
    /// Nodes with a non-zero `next` word.
    next_active: Vec<NodeId>,
    /// Nodes with a non-zero `seen` word.
    reached: Vec<NodeId>,
}

impl LaneWorkspace {
    /// A workspace for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        LaneWorkspace {
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
            active: Vec::new(),
            next_active: Vec::new(),
            reached: Vec::new(),
        }
    }
}

/// Level-synchronous BFS from 1 to [`LANES`] distinct `sources`, in any
/// order, at once (Then et al., "The More the Merrier", PVLDB 8(4)): bit `i`
/// of a node's word stands for `sources[i]`, so one pass over the arcs of the
/// frontier advances every lane by one level.  Where the searches overlap —
/// on every graph of small diameter — one pass over an arc serves all of
/// them; where they do not (a path), the explicit frontier list keeps the
/// work at what the single searches did.
///
/// After each level `t = 1 ..= max_depth` the kernel calls `on_level(t, grew,
/// sizes)`: `grew` holds the live lanes that reached a new node and
/// `sizes[i] = |B_t(sources[i])|` (a stopped lane keeps its last size).  The
/// callback returns the lanes to keep; a lane that did not grow has nothing
/// left to explore and stops either way.  Returns the lanes `max_depth` cut:
/// live after the last level and with an unseen neighbour.
pub fn lane_bfs(
    graph: &Graph,
    ws: &mut LaneWorkspace,
    sources: &[NodeId],
    max_depth: u64,
    mut on_level: impl FnMut(u64, u64, &[u32]) -> u64,
) -> u64 {
    assert!((1..=LANES).contains(&sources.len()), "1 to {LANES} sources");
    let LaneWorkspace {
        seen,
        frontier,
        next,
        active,
        next_active,
        reached,
    } = ws;
    for (lane, &v) in sources.iter().enumerate() {
        debug_assert_eq!(seen[v as usize], 0, "source {v} repeats");
        seen[v as usize] = 1 << lane;
        frontier[v as usize] = 1 << lane;
        active.push(v);
        reached.push(v);
    }
    let mut sizes = [1u32; LANES];
    for level in 1..=max_depth {
        if active.is_empty() {
            break;
        }
        let mut grew = 0u64;
        for u in active.drain(..) {
            let lanes = std::mem::take(&mut frontier[u as usize]);
            for a in graph.arcs(u) {
                let w = a.to as usize;
                let before = seen[w];
                let new = lanes & !before;
                if new == 0 {
                    continue;
                }
                // Marked on discovery, so a second arc into `w` at this
                // level brings only the lanes the first did not.
                seen[w] = before | new;
                if before == 0 {
                    reached.push(a.to);
                }
                if next[w] == 0 {
                    next_active.push(a.to);
                }
                next[w] |= new;
                grew |= new;
                for lane in lanes_of(new) {
                    sizes[lane] += 1;
                }
            }
        }
        std::mem::swap(frontier, next);
        std::mem::swap(active, next_active);
        let stopped = grew & !on_level(level, grew, &sizes[..sources.len()]);
        if stopped != 0 {
            // Stopped lanes leave the frontier, and so do the nodes only
            // they held.
            active.retain(|&u| {
                frontier[u as usize] &= !stopped;
                frontier[u as usize] != 0
            });
        }
    }
    let cut = active.iter().fold(0, |cut, &u| {
        let lanes = frontier[u as usize];
        let arcs = graph.arcs(u).iter();
        arcs.fold(cut, |cut, a| cut | (lanes & !seen[a.to as usize]))
    });
    for u in active.drain(..) {
        frontier[u as usize] = 0;
    }
    for w in reached.drain(..) {
        seen[w as usize] = 0;
    }
    cut
}

/// Connected components of the graph.  Returns `(component_id_per_node,
/// number_of_components)`.
pub fn connected_components(graph: &Graph) -> (Vec<usize>, usize) {
    let n = graph.n();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[s] = count;
        queue.push_back(s as NodeId);
        while let Some(v) = queue.pop_front() {
            for a in graph.arcs(v) {
                let u = a.to as usize;
                if comp[u] == usize::MAX {
                    comp[u] = count;
                    queue.push_back(a.to);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path_gives_linear_distances() {
        let g = generators::path(6).unwrap();
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.eccentricity(), 5);
        assert_eq!(r.path_to(4).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_bounded_limits_exploration() {
        let g = generators::path(10).unwrap();
        let r = bfs_bounded(&g, 0, 3);
        assert_eq!(r.dist[3], 3);
        assert_eq!(r.dist[4], INFINITY);
    }

    #[test]
    fn bfs_order_is_sorted_by_distance() {
        let g = generators::grid(&[4, 4]).unwrap();
        let r = bfs(&g, 0);
        for w in r.order.windows(2) {
            assert!(r.dist[w[0] as usize] <= r.dist[w[1] as usize]);
        }
    }

    #[test]
    fn multi_source_bfs_assigns_closest_source() {
        let g = generators::path(9).unwrap();
        let r = multi_source_bfs(&g, &[0, 8]);
        assert_eq!(r.dist[4], 4);
        assert_eq!(r.closest[1], Some(0));
        assert_eq!(r.closest[7], Some(8));
        // Equidistant node 4: tie broken towards smaller id.
        assert_eq!(r.closest[4], Some(0));
    }

    #[test]
    fn multi_source_bfs_dedups_sources() {
        let g = generators::cycle(5).unwrap();
        let r = multi_source_bfs(&g, &[2, 2, 2]);
        assert_eq!(r.dist[2], 0);
        assert!(r.dist.iter().all(|&d| d <= 2));
    }

    /// Against one BFS per source on random graphs — sparse enough to be
    /// disconnected, dense enough for many equidistant sources — with
    /// duplicate sources: the closest source is the smallest id at the
    /// minimum hop distance, and an unreached node has none.
    #[test]
    fn multi_source_bfs_matches_per_source_bfs() {
        use crate::GraphBuilder;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(0x0B5);
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
            let g = b.build_unchecked_connectivity();
            let sources: Vec<NodeId> = (0..rng.gen_range(0..=6usize))
                .map(|_| rng.gen_range(0..n as NodeId))
                .collect();

            let mut dist = vec![INFINITY; n];
            let mut closest = vec![None; n];
            let mut distinct = sources.clone();
            distinct.sort_unstable();
            distinct.dedup();
            for &s in &distinct {
                for (v, &d) in bfs(&g, s).dist.iter().enumerate() {
                    if d < dist[v] {
                        (dist[v], closest[v]) = (d, Some(s));
                    }
                }
            }
            let r = multi_source_bfs(&g, &sources);
            assert_eq!(r.dist, dist, "sources {sources:?} on {:?}", g.edges());
            assert_eq!(r.closest, closest, "sources {sources:?} on {:?}", g.edges());
        }
    }

    #[test]
    fn connected_components_counts() {
        let g = generators::path(4).unwrap();
        let (comp, c) = connected_components(&g);
        assert_eq!(c, 1);
        assert!(comp.iter().all(|&x| x == 0));
        let sub = g.edge_subgraph(|e| e != 1);
        let (_, c) = connected_components(&sub);
        assert_eq!(c, 2);
    }

    #[test]
    fn path_to_unreachable_is_none() {
        let g = generators::path(4).unwrap();
        let sub = g.edge_subgraph(|e| e != 1);
        let r = bfs(&sub, 0);
        assert!(r.path_to(3).is_none());
    }
}
