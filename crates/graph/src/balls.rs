//! Ball queries `B_t(v)` — the primitive underlying the neighborhood quality
//! parameter `NQ_k` (Definition 3.1 of the paper).
//!
//! `B_t(v)` is the set of nodes within hop distance `t` of `v`, including `v`
//! itself.  The paper repeatedly needs, for a node `v`, the *sizes* of all
//! balls `|B_1(v)|, |B_2(v)|, …` up to some radius; [`ball_size_profile`]
//! returns exactly that for one node with one plain BFS, and [`BallOracle`]
//! caches the profiles of every node for repeated `NQ_k` queries with
//! different `k` (as the benchmarks sweep `k`).
//!
//! The oracle does not run `n` such searches.  It cuts the node ids into
//! batches of 64 and advances the 64 searches of a batch together, one bit of
//! a `u64` word per source (the multi-source BFS of Then et al., "The More
//! the Merrier", PVLDB 8(4)): where the searches overlap — on every graph of
//! small diameter — one pass over an arc serves all of them, and where they
//! do not (a path) the explicit frontier list keeps the work at what the
//! single searches did.  A batch's profiles land back to back in one `u32`
//! arena, and while the per-level counts are in hand the sweep also writes
//! down `min_v |B_t(v)|` for every radius `t`: the one sequence `NQ_k(G)` and
//! Lemma 3.3 read.

use std::collections::VecDeque;

use rayon::prelude::*;

use crate::csr::{Graph, NodeId};

/// Members of the ball `B_t(v)` (unsorted).
pub fn ball_members(graph: &Graph, v: NodeId, t: u64) -> Vec<NodeId> {
    let r = crate::traversal::bfs_bounded(graph, v, t);
    r.order
}

/// Size of the ball `B_t(v)`.
pub fn ball_size(graph: &Graph, v: NodeId, t: u64) -> usize {
    ball_members(graph, v, t).len()
}

/// Sizes `|B_0(v)|, |B_1(v)|, …, |B_r(v)|` for the largest needed radius `r`.
///
/// The profile stops early once the ball covers the whole graph (further
/// entries would all equal `n`); the returned vector therefore has length
/// `min(max_radius, ecc(v)) + 1`.
pub fn ball_size_profile(graph: &Graph, v: NodeId, max_radius: u64) -> Vec<usize> {
    let n = graph.n();
    let mut dist = vec![u64::MAX; n];
    let mut queue = VecDeque::new();
    dist[v as usize] = 0;
    queue.push_back(v);
    let mut counts_per_layer: Vec<usize> = vec![1];
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        if du >= max_radius {
            continue;
        }
        for a in graph.arcs(u) {
            let w = a.to as usize;
            if dist[w] == u64::MAX {
                dist[w] = du + 1;
                if counts_per_layer.len() <= (du + 1) as usize {
                    counts_per_layer.push(0);
                }
                counts_per_layer[(du + 1) as usize] += 1;
                queue.push_back(a.to);
            }
        }
    }
    // Prefix sums: |B_t(v)| = sum of layer sizes up to t.
    let mut profile = Vec::with_capacity(counts_per_layer.len());
    let mut acc = 0usize;
    for c in counts_per_layer {
        acc += c;
        profile.push(acc);
    }
    profile
}

/// Sources one sweep of [`BallOracle::new`] carries: one per bit of a `u64`.
const LANES: usize = u64::BITS as usize;

/// The lanes whose bit is set in `word`, lowest first.
fn lanes_of(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let lane = word.trailing_zeros() as usize;
            word &= word - 1;
            lane
        })
    })
}

/// Caches ball-size profiles for every node, supporting repeated
/// neighborhood-quality queries for different workloads `k`.
///
/// Profiles are `u32` prefix sums (`|B_t(v)| ≤ n` and node ids are `u32`),
/// held in one arena per batch of 64 consecutive node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallOracle {
    batches: Vec<Batch>,
    /// `min_ball[t] = min_v |B_t(v)|` for `t = 0 ..= max_v (profile(v).len() − 1)`.
    min_ball: Vec<u32>,
    /// Whether `max_radius` cut some profile before its ball stopped growing.
    truncated: bool,
    n: usize,
}

/// Profiles of the nodes `LANES·b .. LANES·(b + 1)`, back to back.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Batch {
    sizes: Vec<u32>,
    /// Lane `i`'s profile is `sizes[starts[i]..starts[i + 1]]`.
    starts: [usize; LANES + 1],
}

/// What one batch's sweep hands back to [`BallOracle::new`].
struct Sweep {
    batch: Batch,
    /// Minimum over the batch's lanes of `|B_t|`, for `t` up to the largest
    /// radius at which one of them still grew.
    min_ball: Vec<u32>,
    truncated: bool,
}

/// Reusable state of the lane sweep; every array is all-zero and every list
/// empty between two sweeps.
struct LaneWorkspace {
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
    /// The profile of each lane, grown one entry per layer.
    profiles: Vec<Vec<u32>>,
}

impl LaneWorkspace {
    fn new(n: usize) -> Self {
        LaneWorkspace {
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
            active: Vec::new(),
            next_active: Vec::new(),
            reached: Vec::new(),
            profiles: vec![Vec::new(); LANES],
        }
    }

    /// Level-synchronous BFS from the sources `first .. first + width` at
    /// once (Then et al., "The More the Merrier", PVLDB 8(4)): bit `i` of a
    /// node's word stands for source `first + i`, so one pass over the arcs of
    /// the frontier advances every lane by one layer.
    fn sweep(&mut self, graph: &Graph, first: usize, width: usize, max_radius: u64) -> Sweep {
        let LaneWorkspace {
            seen,
            frontier,
            next,
            active,
            next_active,
            reached,
            profiles,
        } = self;
        for (lane, profile) in profiles[..width].iter_mut().enumerate() {
            let v = first + lane;
            seen[v] = 1 << lane;
            frontier[v] = 1 << lane;
            active.push(v as NodeId);
            reached.push(v as NodeId);
            profile.push(1);
        }
        // `|B_t|` of every lane at the current radius `t`.
        let mut sizes = [0u32; LANES];
        sizes[..width].fill(1);
        let mut min_ball = vec![1u32];
        for _ in 0..max_radius {
            // Lanes that reach a new node at this radius.
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
                    // radius brings only the lanes the first did not.
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
            if grew == 0 {
                break;
            }
            std::mem::swap(frontier, next);
            std::mem::swap(active, next_active);
            for lane in lanes_of(grew) {
                profiles[lane].push(sizes[lane]);
            }
            // A lane that stopped growing keeps contributing its final size.
            min_ball.push(*sizes[..width].iter().min().expect("a batch has a lane"));
        }
        // Stopped by `max_radius`: a profile is cut short iff its lane's
        // frontier still has an unseen neighbour.
        let truncated = active.iter().any(|&u| {
            let lanes = frontier[u as usize];
            graph
                .arcs(u)
                .iter()
                .any(|a| lanes & !seen[a.to as usize] != 0)
        });

        let mut batch = Batch {
            sizes: Vec::with_capacity(profiles.iter().map(Vec::len).sum()),
            starts: [0; LANES + 1],
        };
        for (lane, profile) in profiles.iter_mut().enumerate() {
            batch.sizes.append(profile);
            batch.starts[lane + 1] = batch.sizes.len();
        }
        for u in active.drain(..) {
            frontier[u as usize] = 0;
        }
        for w in reached.drain(..) {
            seen[w as usize] = 0;
        }
        Sweep {
            batch,
            min_ball,
            truncated,
        }
    }
}

impl BallOracle {
    /// Precomputes profiles up to radius `max_radius` for every node.
    ///
    /// `max_radius` only needs to be an upper bound on the radii the caller
    /// will query (e.g. the diameter, or `√k_max` by Lemma 3.6).
    pub fn new(graph: &Graph, max_radius: u64) -> Self {
        // One lane sweep per batch of `LANES` consecutive node ids, fanned
        // out over all cores and collected in batch order: a sweep leaves its
        // workspace as it found it, so the result does not depend on which
        // worker ran which batch.
        let n = graph.n();
        let sweeps: Vec<Sweep> = (0..n.div_ceil(LANES))
            .into_par_iter()
            .map_init(
                || LaneWorkspace::new(n),
                |ws, b| ws.sweep(graph, b * LANES, LANES.min(n - b * LANES), max_radius),
            )
            .with_min_len(1)
            .collect();
        // A batch whose lanes all stopped growing keeps contributing its last
        // minimum to the larger radii of the others.
        let levels = sweeps.iter().map(|s| s.min_ball.len()).max().unwrap_or(0);
        let mut min_ball = vec![u32::MAX; levels];
        for sweep in &sweeps {
            let last = *sweep.min_ball.last().expect("radius 0 is recorded");
            let padded = sweep
                .min_ball
                .iter()
                .copied()
                .chain(std::iter::repeat(last));
            for (slot, size) in min_ball.iter_mut().zip(padded) {
                *slot = (*slot).min(size);
            }
        }
        BallOracle {
            truncated: sweeps.iter().any(|s| s.truncated),
            batches: sweeps.into_iter().map(|s| s.batch).collect(),
            min_ball,
            n,
        }
    }

    /// Number of nodes of the underlying graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `|B_t(v)|`.  Radii beyond the precomputed profile saturate at the last
    /// entry (the ball stopped growing, so this is exact whenever the profile
    /// was computed up to the node's eccentricity).
    pub fn ball_size(&self, v: NodeId, t: u64) -> usize {
        let profile = self.profile(v);
        let idx = (t as usize).min(profile.len() - 1);
        profile[idx] as usize
    }

    /// The full profile of node `v`: `|B_0(v)|, |B_1(v)|, …`, as
    /// [`ball_size_profile`] returns it.
    pub fn profile(&self, v: NodeId) -> &[u32] {
        let batch = &self.batches[v as usize / LANES];
        let lane = v as usize % LANES;
        &batch.sizes[batch.starts[lane]..batch.starts[lane + 1]]
    }

    /// `min_v |B_t(v)|` for every radius `t` up to the longest profile — the
    /// `N_t` every node learns in Lemma 3.3.  Like [`BallOracle::ball_size`],
    /// larger radii saturate at the last entry.
    pub fn min_ball(&self) -> &[u32] {
        &self.min_ball
    }

    /// Eccentricity of `v`: the profile stops growing exactly there, so its
    /// length encodes it for free.
    ///
    /// Only meaningful on an oracle built with `max_radius` at least the
    /// eccentricity; on a truncated one ([`BallOracle::max_eccentricity`] is
    /// `None`) a cut profile reads `max_radius` instead.
    pub fn eccentricity(&self, v: NodeId) -> u64 {
        (self.profile(v).len() - 1) as u64
    }

    /// Maximum eccentricity over all nodes (the hop diameter), or `None` if
    /// `max_radius` cut a profile before its ball stopped growing.
    pub fn max_eccentricity(&self) -> Option<u64> {
        (!self.truncated).then(|| self.min_ball.len().saturating_sub(1) as u64)
    }

    /// Heap bytes held by the profile arenas, their batch headers and the
    /// level-minimum table.
    pub fn memory_bytes(&self) -> u64 {
        let sizes: usize = self.batches.iter().map(|b| b.sizes.len()).sum();
        ((sizes + self.min_ball.len()) * std::mem::size_of::<u32>()
            + self.batches.len() * std::mem::size_of::<Batch>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ball_sizes_on_path() {
        let g = generators::path(10).unwrap();
        assert_eq!(ball_size(&g, 0, 0), 1);
        assert_eq!(ball_size(&g, 0, 3), 4);
        assert_eq!(ball_size(&g, 5, 2), 5);
        assert_eq!(ball_size(&g, 5, 100), 10);
    }

    #[test]
    fn ball_members_contains_center() {
        let g = generators::cycle(8).unwrap();
        let members = ball_members(&g, 3, 2);
        assert!(members.contains(&3));
        assert_eq!(members.len(), 5);
    }

    #[test]
    fn profile_is_monotone_and_matches_ball_size() {
        let g = generators::grid(&[5, 5]).unwrap();
        for v in [0u32, 12, 24] {
            let profile = ball_size_profile(&g, v, 20);
            for w in profile.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for (t, &s) in profile.iter().enumerate() {
                assert_eq!(s, ball_size(&g, v, t as u64));
            }
            assert_eq!(*profile.last().unwrap(), 25);
        }
    }

    #[test]
    fn profile_truncates_at_max_radius() {
        let g = generators::path(20).unwrap();
        let profile = ball_size_profile(&g, 0, 5);
        assert_eq!(profile.len(), 6);
        assert_eq!(profile[5], 6);
    }

    #[test]
    fn oracle_saturates_beyond_profile() {
        let g = generators::grid(&[4, 4]).unwrap();
        let oracle = BallOracle::new(&g, 100);
        assert_eq!(oracle.n(), 16);
        assert_eq!(oracle.ball_size(0, 0), 1);
        assert_eq!(oracle.ball_size(0, 6), 16);
        assert_eq!(oracle.ball_size(0, 1000), 16);
        assert_eq!(oracle.profile(0)[0], 1);
    }
}
