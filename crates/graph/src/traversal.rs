//! Breadth-first sweeps over many sources: [`lane_bfs`] — the one
//! multi-source sweep, 64 searches advanced together, one bit of a `u64`
//! word each, with a per-lane stop rule.
//! `lane_bfs` has one caller, [`crate::balls::BallProfiles::sweep`], the one
//! ball-profile store: every node's profiles for
//! [`crate::balls::BallOracle`], and a node sample's for the sampled `NQ_k`
//! oracle of `hybrid-core`.
//!
//! Hop distances `hop(v, w)` are what the paper's neighborhood-quality
//! parameter, clusterings and lower bounds are defined over (Section 1.2).
//! A single search — one source, or a set of sources that share one BFS
//! forest — is [`crate::dijkstra::DijkstraWorkspace`]'s.

use crate::csr::{Graph, NodeId};
use crate::work::{Kernel, Tally};

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
///
/// Its arcs scanned, active nodes per level and merged lane words go to the
/// [`crate::work`] ledger once, when it returns.
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
    let mut tally = Tally::default();
    for level in 1..=max_depth {
        if active.is_empty() {
            break;
        }
        let mut grew = 0u64;
        tally.frontier_entries += active.len() as u64;
        for u in active.drain(..) {
            let lanes = std::mem::take(&mut frontier[u as usize]);
            let arcs = graph.arcs(u);
            tally.arcs_scanned += arcs.len() as u64;
            for a in arcs {
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
                tally.lane_words += 1;
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
        let arcs = graph.arcs(u);
        tally.arcs_scanned += arcs.len() as u64;
        arcs.iter()
            .fold(cut, |cut, a| cut | (lanes & !seen[a.to as usize]))
    });
    for u in active.drain(..) {
        frontier[u as usize] = 0;
    }
    for w in reached.drain(..) {
        seen[w as usize] = 0;
    }
    tally.record(Kernel::LaneBfs);
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{Weight, INFINITY};
    use crate::dijkstra::DijkstraWorkspace;
    use crate::generators;

    /// Hop distances from `source`, within `max_depth`.
    fn hops(graph: &Graph, source: NodeId, max_depth: u64) -> (Vec<Weight>, Vec<NodeId>) {
        let mut ws = DijkstraWorkspace::new();
        ws.run_bfs_bounded(graph, source, max_depth);
        (ws.dist().to_vec(), ws.reached().to_vec())
    }

    #[test]
    fn bfs_on_path_gives_linear_distances() {
        let g = generators::path(6).unwrap();
        let (dist, order) = hops(&g, 0, u64::MAX);
        assert_eq!(dist, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_bounded_limits_exploration() {
        let g = generators::path(10).unwrap();
        let (dist, order) = hops(&g, 0, 3);
        assert_eq!(dist[3], 3);
        assert_eq!(dist[4], INFINITY);
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn bfs_order_is_sorted_by_distance() {
        let g = generators::grid(&[4, 4]).unwrap();
        let (dist, order) = hops(&g, 0, u64::MAX);
        assert_eq!(order.len(), 16);
        for w in order.windows(2) {
            assert!(dist[w[0] as usize] <= dist[w[1] as usize]);
        }
    }

    #[test]
    fn path_to_unreachable_is_none() {
        // The path 0 – 1 – 2 – 3 without its middle edge.
        let mut b = crate::GraphBuilder::new(4);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(2, 3, 1).unwrap();
        let (dist, order) = hops(&b.build_unchecked_connectivity(), 0, u64::MAX);
        assert_eq!(dist[3], INFINITY);
        assert_eq!(order, vec![0, 1]);
    }
}
