//! Ball queries `B_t(v)` — the primitive underlying the neighborhood quality
//! parameter `NQ_k` (Definition 3.1 of the paper).
//!
//! `B_t(v)` is the set of nodes within hop distance `t` of `v`, including `v`
//! itself.  The paper repeatedly needs, for a node `v`, the *sizes* of all
//! balls `|B_1(v)|, |B_2(v)|, …` up to some radius; [`ball_size_profile`]
//! returns exactly that for one node with one bounded
//! [`DijkstraWorkspace`] BFS, and [`BallOracle`]
//! caches the profiles of every node for repeated `NQ_k` queries with
//! different `k` (as the benchmarks sweep `k`).
//!
//! The oracle does not run `n` such searches.  It cuts the node ids into
//! batches of 64 and hands each batch to [`crate::traversal::lane_bfs`],
//! which advances the 64 searches together, one bit of a `u64` word per
//! source.  A batch's profiles land back to back in one `u32` arena, and
//! while the per-level sizes are in hand the oracle also writes down
//! `min_v |B_t(v)|` for every radius `t`: the one sequence `NQ_k(G)` and
//! Lemma 3.3 read.

use rayon::prelude::*;

use crate::csr::{Graph, NodeId};
use crate::dijkstra::DijkstraWorkspace;
use crate::traversal::{lane_bfs, lanes_of, LaneWorkspace, LANES};

/// Sizes `|B_0(v)|, |B_1(v)|, …, |B_r(v)|` for the largest needed radius `r`,
/// from one bounded BFS: the scalar reference [`BallOracle`] is held to.
///
/// The profile stops early once the ball covers the whole graph (further
/// entries would all equal `n`); the returned vector therefore has length
/// `min(max_radius, ecc(v)) + 1`.
pub fn ball_size_profile(graph: &Graph, v: NodeId, max_radius: u64) -> Vec<usize> {
    let mut ws = DijkstraWorkspace::new();
    ws.run_bfs_bounded(graph, v, max_radius);
    // The search settles layer by layer, so `|B_t(v)|` is one past the
    // position of the last node at depth `t`.
    let mut profile = Vec::new();
    for (settled, &u) in ws.reached().iter().enumerate() {
        let t = ws.dist()[u as usize] as usize;
        if t == profile.len() {
            profile.push(0);
        }
        profile[t] = settled + 1;
    }
    profile
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

/// A worker's state: the kernel's workspace and one growing profile per lane.
type Workspace = (LaneWorkspace, Vec<Vec<u32>>);

/// Batch `b`: each profile grows one entry per level at which its lane grew,
/// and moves into the batch arena when every lane has stopped.
fn sweep(graph: &Graph, (ws, profiles): &mut Workspace, b: usize, max_radius: u64) -> Sweep {
    let ids: [NodeId; LANES] = std::array::from_fn(|i| (b * LANES + i) as NodeId);
    let sources = &ids[..LANES.min(graph.n() - b * LANES)];
    for profile in &mut profiles[..sources.len()] {
        profile.push(1);
    }
    let mut min_ball = vec![1u32];
    let cut = lane_bfs(graph, ws, sources, max_radius, |_, grew, sizes| {
        for lane in lanes_of(grew) {
            profiles[lane].push(sizes[lane]);
        }
        // A lane that stopped growing keeps contributing its final size.
        if grew != 0 {
            min_ball.push(*sizes.iter().min().expect("a batch has a lane"));
        }
        grew
    });
    let mut batch = Batch {
        sizes: Vec::with_capacity(profiles.iter().map(Vec::len).sum()),
        starts: [0; LANES + 1],
    };
    for (lane, profile) in profiles.iter_mut().enumerate() {
        batch.sizes.append(profile);
        batch.starts[lane + 1] = batch.sizes.len();
    }
    Sweep {
        batch,
        min_ball,
        truncated: cut != 0,
    }
}

impl BallOracle {
    /// Precomputes profiles up to radius `max_radius` for every node.
    ///
    /// `max_radius` only needs to be an upper bound on the radii the caller
    /// will query (e.g. the diameter, or `√k_max` by Lemma 3.6).
    pub fn new(graph: &Graph, max_radius: u64) -> Self {
        // One `lane_bfs` per batch of `LANES` consecutive node ids, fanned out
        // over all cores and collected in batch order: a run leaves its
        // workspace as it found it, so the result does not depend on which
        // worker ran which batch.
        let n = graph.n();
        let sweeps: Vec<Sweep> = (0..n.div_ceil(LANES))
            .into_par_iter()
            .map_init(
                || (LaneWorkspace::new(n), vec![Vec::new(); LANES]),
                |ws, b| sweep(graph, ws, b, max_radius),
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

    /// `|B_t(v)|`, from the profile (saturating past its end).
    fn ball_size(graph: &Graph, v: NodeId, t: u64) -> usize {
        let profile = ball_size_profile(graph, v, t);
        profile[profile.len() - 1]
    }

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
        let mut ws = DijkstraWorkspace::new();
        ws.run_bfs_bounded(&g, 3, 2);
        let mut members = ws.reached().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn profile_is_monotone_and_matches_ball_size() {
        let g = generators::grid(&[5, 5]).unwrap();
        let mut ws = DijkstraWorkspace::new();
        for v in [0u32, 12, 24] {
            let profile = ball_size_profile(&g, v, 20);
            for w in profile.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for (t, &s) in profile.iter().enumerate() {
                ws.run_bfs_bounded(&g, v, t as u64);
                assert_eq!(s, ws.reached().len());
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
