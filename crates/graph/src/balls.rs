//! Ball queries `B_t(v)` — the primitive underlying the neighborhood quality
//! parameter `NQ_k` (Definition 3.1 of the paper).
//!
//! `B_t(v)` is the set of nodes within hop distance `t` of `v`, including `v`
//! itself.  The paper repeatedly needs, for a node `v`, the *sizes* of all
//! balls `|B_1(v)|, |B_2(v)|, …` up to some radius — its *profile*.
//! [`BallProfiles`] is the one store of such profiles: it sweeps a list of
//! sources in batches of up to 64, one [`crate::traversal::lane_bfs`] per
//! batch (one bit of a `u64` word per source), holds a batch's profiles back
//! to back in one `u32` arena, and while the per-level sizes are in hand also
//! writes down the minimum over its sources of `|B_t|` for every radius `t`.
//! It serves two readers: [`BallOracle`], every node's profile — the
//! sequence `min_v |B_t(v)|` that `NQ_k(G)` and Lemma 3.3 read — and the
//! sampled `NQ_k` oracle of `hybrid-core`, the profiles of a node sample.
//! One node's profile alone is one bounded
//! [`crate::dijkstra::DijkstraWorkspace`] BFS.
//!
//! *Batches.*  One pass over a frontier node's arcs serves every lane that
//! holds the node, so a batch pays off when its sources are close together.
//! Before it sweeps, [`BallOracle`] plans its batches: each one is grown by a
//! BFS over the whole graph from the lowest-id node not yet planned, and
//! takes the first 64 unplanned nodes the search meets — a batch is short
//! only when the seed's component runs out.  (64 consecutive ids of a
//! row-major grid are one row, whose searches share almost no frontier.)  The
//! plan is a pure function of the graph and cannot show in any output: a
//! lane's profile depends on its own source only, `min_ball` is a minimum
//! over batches and the truncation flag an "any" over batches, so neither
//! depends on which nodes share a batch or in what order the batches come.

use rayon::prelude::*;

use crate::csr::{Graph, NodeId};
use crate::traversal::{lane_bfs, lanes_of, LaneWorkspace, LANES};

/// Ball-size profiles of a list of sources, swept in batches of up to 64.
///
/// Profiles are `u32` prefix sums (`|B_t(v)| ≤ n` and node ids are `u32`),
/// held in one arena per batch; source `i` of batch `b` has slot
/// `LANES·b + i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallProfiles {
    batches: Vec<Batch>,
    /// `min_ball[t]` is the minimum over the sources of `|B_t|` (a stopped
    /// profile keeps its last size), for `t = 0 ..=` [`BallProfiles::depth`].
    min_ball: Vec<u32>,
    /// Whether `max_radius` cut some profile before its ball stopped growing.
    truncated: bool,
}

/// Profiles of one batch's sources, back to back in lane order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Batch {
    sizes: Vec<u32>,
    /// Lane `i`'s profile is `sizes[starts[i]..starts[i + 1]]`.
    starts: [usize; LANES + 1],
}

/// Plans [`BallOracle::new`]'s batches, and returns them in plan order with
/// every node's slot.  Each batch is grown by BFS from the lowest-id
/// unplanned node: the search passes through planned nodes and stops at the
/// 64th unplanned node it meets (the seed included), or when the seed's
/// component runs out.
fn plan(graph: &Graph) -> (Vec<Vec<NodeId>>, Vec<u32>) {
    let n = graph.n();
    let mut batches: Vec<Vec<NodeId>> = Vec::new();
    let mut slot = vec![u32::MAX; n];
    // `met[v]`: the seed of the last batch whose search met `v`.
    let mut met = vec![NodeId::MAX; n];
    let mut queue = Vec::new();
    for seed in graph.nodes() {
        if slot[seed as usize] != u32::MAX {
            continue;
        }
        let mut batch = Vec::with_capacity(LANES);
        met[seed as usize] = seed;
        queue.clear();
        queue.push(seed);
        let mut head = 0;
        while head < queue.len() && batch.len() < LANES {
            let u = queue[head];
            head += 1;
            if slot[u as usize] == u32::MAX {
                let at = batches.len() * LANES + batch.len();
                slot[u as usize] = u32::try_from(at).expect("slot fits in u32");
                batch.push(u);
            }
            for a in graph.arcs(u) {
                if met[a.to as usize] != seed {
                    met[a.to as usize] = seed;
                    queue.push(a.to);
                }
            }
        }
        batches.push(batch);
    }
    (batches, slot)
}

/// What one batch's sweep hands back to [`BallProfiles::sweep`].
struct Sweep {
    batch: Batch,
    /// Minimum over the batch's lanes of `|B_t|`, for `t` up to the largest
    /// radius at which one of them still grew.
    min_ball: Vec<u32>,
    truncated: bool,
}

/// A worker's state: the kernel's workspace and one batch's level log, the
/// per-lane sizes `lane_bfs` reports after each level, row after row.
type Workspace = (LaneWorkspace, Vec<u32>);

/// One batch: the sizes are logged level by level, then each lane's column
/// of the log, down to the last level at which it grew, becomes its profile
/// in the batch arena.  A lane grows at every level until it stops, so its
/// column is its profile.
fn sweep(
    graph: &Graph,
    (ws, log): &mut Workspace,
    sources: &[NodeId],
    max_radius: u64,
    k_max: u64,
) -> Sweep {
    let width = sources.len();
    let mut depth = [0usize; LANES];
    let cut = lane_bfs(graph, ws, sources, max_radius, |t, grew, sizes| {
        log.extend_from_slice(sizes);
        let mut keep = grew;
        for lane in lanes_of(grew) {
            depth[lane] = t as usize;
            if u64::from(sizes[lane]).saturating_mul(t) >= k_max {
                keep &= !(1 << lane);
            }
        }
        keep
    });
    let levels = || log.chunks_exact(width);
    let mut batch = Batch {
        sizes: Vec::with_capacity(width + depth.iter().sum::<usize>()),
        starts: [0; LANES + 1],
    };
    for lane in 0..width {
        batch.sizes.push(1);
        let column = levels().take(depth[lane]).map(|level| level[lane]);
        batch.sizes.extend(column);
        batch.starts[lane + 1] = batch.sizes.len();
    }
    batch.starts[width + 1..].fill(batch.sizes.len());
    // A stopped lane keeps contributing its final size.
    let deepest = *depth.iter().max().expect("a batch has a lane");
    let smallest = levels()
        .take(deepest)
        .map(|level| *level.iter().min().expect("a batch has a lane"));
    let min_ball = std::iter::once(1).chain(smallest).collect();
    log.clear();
    Sweep {
        batch,
        min_ball,
        truncated: cut != 0,
    }
}

impl BallProfiles {
    /// Sweeps each batch of 1 to 64 distinct sources with one `lane_bfs`.
    /// A lane stops when its ball stops growing, at radius `max_radius`, or
    /// at the first radius `t` with `|B_t|·t ≥ k_max` (`u64::MAX`: never).
    pub fn sweep<B: AsRef<[NodeId]> + Sync>(
        graph: &Graph,
        batches: &[B],
        max_radius: u64,
        k_max: u64,
    ) -> Self {
        // Fanned out over all cores and collected in batch order: a run
        // leaves its workspace as it found it, so the result does not depend
        // on which worker ran which batch.
        let n = graph.n();
        let sweeps: Vec<Sweep> = batches
            .par_iter()
            .map_init(
                || (LaneWorkspace::new(n), Vec::new()),
                |ws, sources| sweep(graph, ws, sources.as_ref(), max_radius, k_max),
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
        BallProfiles {
            truncated: sweeps.iter().any(|s| s.truncated),
            batches: sweeps.into_iter().map(|s| s.batch).collect(),
            min_ball,
        }
    }

    /// The profile in `slot`: `|B_0|, |B_1|, …` of its source, up to the
    /// last radius at which the ball grew before its lane stopped.
    pub fn profile(&self, slot: usize) -> &[u32] {
        let batch = &self.batches[slot / LANES];
        let lane = slot % LANES;
        &batch.sizes[batch.starts[lane]..batch.starts[lane + 1]]
    }

    /// `|B_t|` of the source in `slot`.  Radii beyond its profile saturate
    /// at the last entry: exact when the ball had stopped growing there.
    pub fn ball_size(&self, slot: usize, t: u64) -> usize {
        let profile = self.profile(slot);
        profile[(t as usize).min(profile.len() - 1)] as usize
    }

    /// The minimum over the sources of `|B_t|` for every radius `t` up to
    /// [`BallProfiles::depth`]; like [`BallProfiles::ball_size`], larger
    /// radii saturate at the last entry.
    pub fn min_ball(&self) -> &[u32] {
        &self.min_ball
    }

    /// The deepest radius at which some source's ball grew before its lane
    /// stopped: at most the largest eccentricity of a source.
    pub fn depth(&self) -> u64 {
        self.min_ball.len().saturating_sub(1) as u64
    }

    /// Heap bytes held by the profile arenas, their batch headers and the
    /// level-minimum table.
    pub fn memory_bytes(&self) -> u64 {
        let sizes: usize = self.batches.iter().map(|b| b.sizes.len()).sum();
        ((sizes + self.min_ball.len()) * std::mem::size_of::<u32>()
            + self.batches.len() * std::mem::size_of::<Batch>()) as u64
    }
}

/// Caches ball-size profiles for every node, supporting repeated
/// neighborhood-quality queries for different workloads `k`: a
/// [`BallProfiles`] over every node, in batches planned by locality, and
/// each node's slot in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallOracle {
    profiles: BallProfiles,
    /// `slot[v]`: node `v`'s slot in `profiles`.
    slot: Vec<u32>,
}

impl BallOracle {
    /// Precomputes profiles up to radius `max_radius` for every node.
    ///
    /// `max_radius` only needs to be an upper bound on the radii the caller
    /// will query: `⌈√n⌉` covers `NQ_k` for every `k ≤ n` (Lemma 3.6), and
    /// `u64::MAX` runs every profile to its node's eccentricity.
    pub fn new(graph: &Graph, max_radius: u64) -> Self {
        let (batches, slot) = plan(graph);
        BallOracle {
            profiles: BallProfiles::sweep(graph, &batches, max_radius, u64::MAX),
            slot,
        }
    }

    /// Number of nodes of the underlying graph.
    pub fn n(&self) -> usize {
        self.slot.len()
    }

    /// `|B_t(v)|`.  Radii beyond the precomputed profile saturate at the last
    /// entry (the ball stopped growing, so this is exact whenever the profile
    /// was computed up to the node's eccentricity).
    pub fn ball_size(&self, v: NodeId, t: u64) -> usize {
        self.profiles.ball_size(self.slot[v as usize] as usize, t)
    }

    /// The full profile of node `v`: `|B_0(v)|, |B_1(v)|, …`, up to its
    /// eccentricity or the oracle's `max_radius`, whichever is smaller — what
    /// one BFS from `v` bounded at `max_radius` counts, level by level.
    pub fn profile(&self, v: NodeId) -> &[u32] {
        self.profiles.profile(self.slot[v as usize] as usize)
    }

    /// `min_v |B_t(v)|` for every radius `t` up to the longest profile — the
    /// `N_t` every node learns in Lemma 3.3.  Like [`BallOracle::ball_size`],
    /// larger radii saturate at the last entry.
    pub fn min_ball(&self) -> &[u32] {
        self.profiles.min_ball()
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
        (!self.profiles.truncated).then(|| self.profiles.depth())
    }

    /// Heap bytes held by the profile store and the per-node slots.
    pub fn memory_bytes(&self) -> u64 {
        self.profiles.memory_bytes() + (self.slot.len() * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::DijkstraWorkspace;
    use crate::generators;
    use crate::unionfind::UnionFind;
    use crate::GraphBuilder;

    /// `|B_t(v)|`, from one bounded BFS.
    fn ball_size(graph: &Graph, v: NodeId, t: u64) -> usize {
        let mut ws = DijkstraWorkspace::new();
        ws.run_bfs_bounded(graph, v, t);
        ws.reached().len()
    }

    #[test]
    fn ball_sizes_on_path() {
        let g = generators::path(10).unwrap();
        let oracle = BallOracle::new(&g, u64::MAX);
        for (v, t, size) in [(0, 0, 1), (0, 3, 4), (5, 2, 5), (5, 100, 10)] {
            assert_eq!(ball_size(&g, v, t), size);
            assert_eq!(oracle.ball_size(v, t), size);
        }
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
        let oracle = BallOracle::new(&g, 20);
        for v in [0u32, 12, 24] {
            let profile = oracle.profile(v);
            for w in profile.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for (t, &s) in profile.iter().enumerate() {
                assert_eq!(s as usize, ball_size(&g, v, t as u64));
            }
            assert_eq!(*profile.last().unwrap(), 25);
        }
    }

    #[test]
    fn profile_truncates_at_max_radius() {
        let g = generators::path(20).unwrap();
        let oracle = BallOracle::new(&g, 5);
        assert_eq!(oracle.profile(0), [1, 2, 3, 4, 5, 6]);
        assert_eq!(oracle.max_eccentricity(), None);
    }

    #[test]
    fn a_lane_stops_at_the_workload_rule() {
        // k_max = 12.  At an end of the path |B_t|·t = (t+1)·t = 2, 6, 12;
        // at the middle node 10 it is (2t+1)·t = 3, 10, 21: all three lanes
        // stop at t = 3, long before their balls stop growing.
        let g = generators::path(21).unwrap();
        let profiles = BallProfiles::sweep(&g, &[[0, 10, 20]], u64::MAX, 12);
        assert_eq!(profiles.profile(0), [1, 2, 3, 4]);
        assert_eq!(profiles.profile(1), [1, 3, 5, 7]);
        assert_eq!(profiles.profile(2), [1, 2, 3, 4]);
        assert_eq!(profiles.min_ball(), [1, 2, 3, 4]);
        assert_eq!(profiles.depth(), 3);
        assert_eq!(profiles.ball_size(1, 9), 7, "saturates past a stop");
        assert!(!profiles.truncated, "a stopped lane is not cut");
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

    /// The shapes of `tests/ball_profiles.rs`: every family that exists at
    /// size `n`, plus the node-disjoint union of a tree and a random graph.
    fn shapes(n: usize) -> Vec<Graph> {
        let sides = (1..=n).take_while(|a| a * a <= n);
        let a = sides.filter(|&a| n.is_multiple_of(a)).last().unwrap();
        let p = (6.0 / n as f64).min(1.0);
        let mut out: Vec<Graph> = [
            generators::path(n),
            generators::cycle(n),
            generators::grid(&[a, n / a]),
            generators::tree_with_n(2, n),
            generators::ring_of_cliques(n / a, a, 1),
            generators::erdos_renyi(n, p, 0xBA11 + n as u64),
        ]
        .into_iter()
        .filter_map(Result::ok)
        .collect();
        let [.., x, y] = out.as_slice() else {
            panic!("path, grid, tree and erdos-renyi exist at every n >= 1");
        };
        let mut union = GraphBuilder::new(x.n() + y.n());
        let shift = x.n() as NodeId;
        for &(u, v, w) in x.edges() {
            union.add_edge(u, v, w).unwrap();
        }
        for &(u, v, w) in y.edges() {
            union.add_edge(u + shift, v + shift, w).unwrap();
        }
        out.push(union.build_unchecked_connectivity());
        out
    }

    #[test]
    fn plan_covers_every_node_once_in_batches_inside_one_component() {
        for n in [1, 63, 64, 65, 200] {
            for graph in shapes(n) {
                let (batches, slot) = plan(&graph);
                let mut comp = UnionFind::of_graph(&graph);
                let mut order = batches.concat();
                order.sort_unstable();
                assert!(order.iter().copied().eq(graph.nodes()), "n={n}");
                for (b, batch) in batches.iter().enumerate() {
                    assert!((1..=LANES).contains(&batch.len()), "n={n} b={b}");
                    let c = batch[0] as usize;
                    assert!(
                        batch.iter().all(|&v| comp.connected(v as usize, c)),
                        "n={n} b={b}"
                    );
                    for (lane, &v) in batch.iter().enumerate() {
                        assert_eq!(slot[v as usize] as usize, b * LANES + lane);
                    }
                    // Short only when the seed's component is used up.
                    if batch.len() < LANES {
                        let mut later = batches[b + 1..].iter().flatten();
                        assert!(
                            later.all(|&v| !comp.connected(v as usize, c)),
                            "n={n} b={b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn plan_grows_batches_from_the_lowest_unplanned_node() {
        // A 16 x 16 grid: the first batch is node 0's BFS ball, not row 0.
        let g = generators::grid(&[16, 16]).unwrap();
        let (batches, _) = plan(&g);
        let mut ws = DijkstraWorkspace::new();
        ws.run_bfs(&g, 0);
        assert_eq!(batches[0], &ws.reached()[..LANES]);
    }
}
