//! Overlay trees: the implicit heap-shaped [`VirtualTree`], the `Õ(1)`-round
//! `1`-aggregation on it (paper Lemmas 4.3–4.6), and the
//! `ClusterTree` — the one converge-cast / broadcast loop that Theorems 1–2
//! and the `[CHL23]` rival run over the cluster leaders.
//!
//! # Why an overlay
//!
//! The universal broadcast algorithm needs a constant-degree, `O(log n)`-depth
//! rooted virtual tree over an arbitrary subset of nodes such that every tree
//! node knows the identifiers of its parent and children, even though tree
//! neighbours may be far apart in `G` — tree edges are *global-network*
//! channels, so one round of tree communication costs `O(1)` global messages
//! per participant regardless of the local topology.  The paper obtains this
//! from the overlay construction of `[GHSS17]` plus the pruning procedure of
//! Lemma 4.5; this module uses the heap-shaped complete binary tree over the
//! sorted participant ids, which has the same degree/depth guarantees
//! (degree ≤ 3, depth `⌊log₂ m⌋`, pinned by unit tests), and charges the
//! `Õ(1)` construction rounds of Lemma 4.3 / 4.6 on the simulated network.
//!
//! # The tree is implicit
//!
//! A [`VirtualTree`] stores only its sorted participants.  Position `p`'s
//! parent is `(p − 1)/2`, its children `2p + 1` and `2p + 2`, its depth
//! `⌊log₂(p + 1)⌋`, and level `d` is the contiguous range
//! `2^d − 1 .. 2^(d+1) − 1`: every structural query is a closed form, so
//! [`basic_aggregation`] charges a tree over all `n` nodes without building
//! anything.
//!
//! # Who owns the level loop
//!
//! Theorem 1, Theorem 2 and the deterministic rival are one construction:
//! Lemma 3.5 clustering, the Lemma 4.6 tree over the cluster leaders, then a
//! converge-cast and a broadcast along that tree.  `ClusterTree` is that
//! construction — clustering, tree and the position → cluster map — and its
//! `converge_cast` / `broadcast` own everything the pipelines share:
//! deepest-level-first (root-first) order with positions ascending inside a
//! level, "a non-empty level charges the `2·`weak-diameter local phase and
//! then delivers one global batch", state changes applied only after the
//! level's delivery, and the most units any one node carried.  A pipeline
//! supplies what is its own — how many units cross an edge, what a merge
//! means, its `[local, global]` labels — and speaks cluster indices only.
//!
//! # What a schedule is
//!
//! The pipelines differ in *who carries a payload across a tree edge*.  The
//! crate-private `HopSchedule` a `ClusterTree` is built with names the
//! carriers of a cluster: under `MemberSpread` all its members, so unit `i`
//! of a `T`-unit payload travels `child.members[i mod |C|] →
//! parent.members[i mod |P|]` (Lemma 4.1's uniform load balancing —
//! Theorems 1–2 and the `√k` baseline); under `LeaderFunnel` its leader
//! alone, so all `T` units travel leader → leader (`[CHL23]`).  The rest is
//! written once over the carrier slices: the busiest carrier's load
//! `⌈T / |carriers|⌉`, the introductions between adjacent clusters (Theorem
//! 1's rank-matched chaining, the rival's leader hello), and a level's batch
//! — one [`RoundRobin`] transfer per tree edge, which the network delivers
//! as `min(T, lcm(|C|, |P|))` counted runs, not `T` messages: the funnel's
//! edge is one run of `T`, a spread edge at most one run per (sender,
//! receiver) pair.
//!
//! # Simulation contract
//!
//! The structural computation happens at the data level; the round cost is
//! charged explicitly on the [`HybridNetwork`] (`overlay/build-virtual-tree`,
//! `overlay/aggregate-convergecast`, `overlay/disseminate-broadcast` and the
//! callers' sweep labels), so the round counts in the reproduced tables
//! reflect the paper's bounds, not host wall-clock.

use std::ops::Range;

use hybrid_graph::NodeId;
use hybrid_sim::{GlobalMessage, HybridNetwork, RoundRobin};

use crate::cluster::{Cluster, Clustering};

/// Height of the heap-shaped tree over `m` participants.
fn heap_height(m: usize) -> u32 {
    assert!(m > 0, "virtual tree needs at least one node");
    m.ilog2()
}

/// Lemma 4.3 / 4.6: `O(log² n)` deterministic construction rounds.
fn charge_build(net: &mut HybridNetwork) {
    net.charge_rounds("overlay/build-virtual-tree", net.polylog(2));
}

/// A rooted, constant-degree, logarithmic-depth virtual tree over a subset of
/// the graph's nodes: the heap-shaped complete binary tree over the sorted
/// participants, kept implicit (see the module docs).
#[derive(Debug, Clone)]
pub struct VirtualTree {
    /// Participating nodes, ascending and distinct; a tree position is an
    /// index into this vector.
    participants: Vec<NodeId>,
}

impl VirtualTree {
    /// Builds the virtual tree over `participants` (Lemma 4.3 for the full
    /// node set, Lemma 4.6 for a subset), charging `Õ(1)` construction rounds
    /// on `net`.
    ///
    /// # Panics
    /// Panics if `participants` is empty.
    pub fn build(net: &mut HybridNetwork, participants: &[NodeId]) -> Self {
        let mut sorted: Vec<NodeId> = participants.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let tree = Self::heap_shaped(sorted);
        charge_build(net);
        tree
    }

    /// The tree over already sorted, distinct participants, without charging
    /// rounds (for callers that account for the construction themselves).
    ///
    /// # Panics
    /// Panics if `sorted_participants` is empty.
    pub fn heap_shaped(sorted_participants: Vec<NodeId>) -> Self {
        assert!(
            !sorted_participants.is_empty(),
            "virtual tree needs at least one node"
        );
        VirtualTree {
            participants: sorted_participants,
        }
    }

    /// The participants, ascending; position `pos` is `participants()[pos]`.
    pub fn participants(&self) -> &[NodeId] {
        &self.participants
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// Whether the tree is empty (never true; construction requires ≥ 1 node).
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// Position of the root (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Parent position of `pos` (`None` for the root).
    pub fn parent(&self, pos: usize) -> Option<usize> {
        (pos > 0).then(|| (pos - 1) / 2)
    }

    /// Children positions of `pos`: at most two, contiguous and ascending.
    pub fn children(&self, pos: usize) -> Range<usize> {
        (2 * pos + 1).min(self.len())..(2 * pos + 3).min(self.len())
    }

    /// Depth of `pos` (the root has depth 0).
    pub fn depth(&self, pos: usize) -> u32 {
        (pos + 1).ilog2()
    }

    /// Height of the tree (max depth).
    pub fn height(&self) -> u32 {
        heap_height(self.len())
    }

    /// Maximum degree (children + parent).
    pub fn max_degree(&self) -> usize {
        (0..self.len())
            .map(|pos| self.children(pos).len() + usize::from(pos > 0))
            .max()
            .unwrap_or(0)
    }

    /// The positions of depth `d ≤ height`: contiguous and ascending.
    fn level(&self, d: u32) -> Range<usize> {
        let first = (1usize << d) - 1;
        first..(2 * first + 1).min(self.len())
    }

    /// Positions grouped by depth, the root's level first.
    pub fn levels(&self) -> impl DoubleEndedIterator<Item = Range<usize>> + '_ {
        (0..=self.height()).map(|d| self.level(d))
    }
}

/// Lemma 4.4 — `1`-aggregation: every node holds one value; afterwards every
/// node knows `F(values…)`, which is returned.  Charges Lemma 4.3's tree over
/// all `n` nodes and one converge-cast plus broadcast along it —
/// `2·height + 2` rounds of one `O(log n)`-bit message per tree edge per
/// round, well within the per-node global capacity, `Õ(1)` in total.  Only
/// the height is needed, so no tree is built.
pub fn basic_aggregation(
    net: &mut HybridNetwork,
    values: &[u64],
    f: impl Fn(u64, u64) -> u64,
) -> u64 {
    assert_eq!(values.len(), net.graph().n(), "one value per node required");
    charge_build(net);
    net.charge_rounds("overlay/aggregate-convergecast", convergecast_rounds(net));
    values[1..].iter().fold(values[0], |acc, &v| f(acc, v))
}

/// The rounds one [`basic_aggregation`] charges on `net`.
pub(crate) fn basic_aggregation_rounds(net: &HybridNetwork) -> u64 {
    net.polylog(2) + convergecast_rounds(net)
}

/// One converge-cast plus broadcast along Lemma 4.3's tree over all nodes.
fn convergecast_rounds(net: &HybridNetwork) -> u64 {
    2 * u64::from(heap_height(net.graph().n())) + 2
}

/// Who carries a payload across a cluster-tree edge — the one thing the
/// registered dissemination contenders' global schedules differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HopSchedule {
    /// Lemma 4.1: every member of a cluster carries its share (Theorems 1–2,
    /// the `√k` baseline).
    MemberSpread,
    /// `[CHL23]`: the cluster's leader carries everything.
    LeaderFunnel,
}

impl HopSchedule {
    /// The nodes of `cluster` that send and receive its payloads.
    fn carriers(self, cluster: &Cluster) -> &[NodeId] {
        match self {
            HopSchedule::MemberSpread => &cluster.members,
            HopSchedule::LeaderFunnel => std::slice::from_ref(&cluster.leader),
        }
    }
}

/// A Lemma 3.5 clustering with the Lemma 4.6 virtual tree over its leaders:
/// the overlay Theorems 1–2 and the `[CHL23]` rival communicate along.
/// Callers address clusters by their index in the clustering; tree positions
/// stay inside.
///
/// Both sweeps take the caller's `[local, global]` labels: a level with
/// messages charges the `2·`weak-diameter local phase `local` (Lemma 4.1
/// re-balancing, or the funnel's chain traversal) and then delivers its
/// messages as the one batch `global`.
#[derive(Debug)]
pub(crate) struct ClusterTree {
    clustering: Clustering,
    tree: VirtualTree,
    /// The cluster index at every tree position.
    cluster_at: Vec<usize>,
    /// Who carries payloads across this tree's edges.
    schedule: HopSchedule,
}

impl ClusterTree {
    /// Builds the tree over the leaders of `clustering`, charging the
    /// Lemma 4.6 construction on `net`; `schedule` carries every payload
    /// that will cross it.
    pub(crate) fn build(
        net: &mut HybridNetwork,
        clustering: Clustering,
        schedule: HopSchedule,
    ) -> Self {
        let leaders: Vec<NodeId> = clustering.clusters.iter().map(|c| c.leader).collect();
        let tree = VirtualTree::build(net, &leaders);
        // A leader is a member of the cluster it leads.
        let cluster_at = tree
            .participants()
            .iter()
            .map(|&leader| clustering.cluster_of[leader as usize])
            .collect();
        ClusterTree {
            clustering,
            tree,
            cluster_at,
            schedule,
        }
    }

    /// The clustering the tree spans.
    pub(crate) fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// The clusters' weak-diameter bound in rounds (at least 1).
    pub(crate) fn weak_diameter(&self) -> u64 {
        self.clustering.weak_diameter_bound.max(1)
    }

    /// Index of the root cluster.
    pub(crate) fn root(&self) -> usize {
        self.cluster_at[self.tree.root()]
    }

    /// The cluster indices `(child, parent)` of the tree edge above `pos`.
    fn edge(&self, pos: usize) -> Option<(usize, usize)> {
        let parent = self.tree.parent(pos)?;
        Some((self.cluster_at[pos], self.cluster_at[parent]))
    }

    /// The messages by which the carriers of adjacent clusters learn each
    /// other's identifiers, rank-matched by Lemma 4.1's rule, one per
    /// direction: Theorem 1's cluster chaining under `MemberSpread`, the
    /// rival's leader hello under `LeaderFunnel`.  Child positions ascend.
    pub(crate) fn introductions(&self) -> Vec<GlobalMessage> {
        let clusters = &self.clustering.clusters;
        let mut messages = Vec::new();
        for (child, parent) in (0..self.tree.len()).filter_map(|pos| self.edge(pos)) {
            let children = self.schedule.carriers(&clusters[child]);
            let parents = self.schedule.carriers(&clusters[parent]).iter().cycle();
            for (&member, &counterpart) in children.iter().zip(parents) {
                messages.push(GlobalMessage::new(member, counterpart));
                messages.push(GlobalMessage::new(counterpart, member));
            }
        }
        messages
    }

    /// Converge-cast, deepest level first: every non-root cluster sends
    /// `units(its state)` payload units to its parent, which then absorbs the
    /// child's state with `merge(parent, child)` — after the level's batch has
    /// been delivered, so a state never changes before it has been sent.
    /// `state` holds one entry per cluster.  Returns the most units any one
    /// node carried.
    pub(crate) fn converge_cast<S>(
        &self,
        net: &mut HybridNetwork,
        labels: [&'static str; 2],
        state: &mut [S],
        units: impl Fn(&S) -> usize,
        merge: impl Fn(&mut S, &S),
    ) -> u64 {
        self.sweep(net, labels, true, state, units, merge)
    }

    /// Broadcast, root first: every cluster sends `units` payload units to
    /// each of its children, whose state becomes a copy of the parent's.
    pub(crate) fn broadcast<S: Clone>(
        &self,
        net: &mut HybridNetwork,
        labels: [&'static str; 2],
        state: &mut [S],
        units: usize,
    ) {
        self.sweep(net, labels, false, state, |_| units, S::clone_from);
    }

    /// The level loop behind both directions.  `upward` sends child → parent
    /// from the deepest level, otherwise parent → child from the root's;
    /// positions ascend inside a level.  A level that moves units charges the
    /// `2·`weak-diameter phase `local` and then delivers one round-robin
    /// transfer per edge as the one batch `global`; `absorb(receiver,
    /// sender)` runs for every edge of the level after that.
    fn sweep<S>(
        &self,
        net: &mut HybridNetwork,
        [local, global]: [&'static str; 2],
        upward: bool,
        state: &mut [S],
        units: impl Fn(&S) -> usize,
        absorb: impl Fn(&mut S, &S),
    ) -> u64 {
        assert_eq!(state.len(), self.clustering.len(), "one state per cluster");
        let clusters = &self.clustering.clusters;
        let ends = |pos: usize| {
            let (child, parent) = self.edge(pos)?;
            Some(if upward {
                (child, parent)
            } else {
                (parent, child)
            })
        };
        let height = self.tree.height();
        let mut batch: Vec<RoundRobin> = Vec::new();
        let mut carried = 0;
        for step in 0..=height {
            let level = self.tree.level(if upward { height - step } else { step });
            batch.clear();
            for (from, to) in level.clone().filter_map(ends) {
                let units = units(&state[from]);
                let senders = self.schedule.carriers(&clusters[from]);
                if units > 0 {
                    let receivers = self.schedule.carriers(&clusters[to]);
                    batch.push(RoundRobin {
                        senders,
                        receivers,
                        units,
                    });
                }
                carried = carried.max(units.div_ceil(senders.len()));
            }
            if !batch.is_empty() {
                net.charge_local(local, 2 * self.weak_diameter());
                net.deliver_round_robin(global, &batch);
            }
            for (from, to) in level.filter_map(ends) {
                let [receiver, sender] = state
                    .get_disjoint_mut([to, from])
                    .expect("a tree edge joins two clusters");
                absorb(receiver, sender);
            }
        }
        carried as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_graph::generators;
    use std::sync::Arc;

    fn net(n: usize) -> HybridNetwork {
        HybridNetwork::hybrid(Arc::new(generators::cycle(n.max(3)).unwrap()))
    }

    #[test]
    fn tree_has_log_depth_and_constant_degree() {
        let mut net = net(300);
        let participants: Vec<NodeId> = (0..300).collect();
        let tree = VirtualTree::build(&mut net, &participants);
        assert_eq!(tree.len(), 300);
        assert!(tree.height() <= 9, "height {} too large", tree.height());
        assert!(tree.max_degree() <= 3);
        assert_eq!(tree.root(), 0);
        assert!(net.rounds() > 0);
    }

    #[test]
    fn tree_structure_is_consistent() {
        let tree = VirtualTree::heap_shaped((0..25u32).collect());
        assert!(!tree.is_empty());
        assert_eq!(tree.parent(tree.root()), None);
        for pos in 1..tree.len() {
            let p = tree.parent(pos).unwrap();
            assert!(tree.children(p).any(|c| c == pos));
            assert_eq!(tree.depth(pos), tree.depth(p) + 1);
        }
        // Every non-root is reachable from the root.
        let levels: Vec<_> = tree.levels().collect();
        let total: usize = levels.iter().map(|level| level.len()).sum();
        assert_eq!(total, 25);
        assert_eq!(levels[0], 0..1);
    }

    #[test]
    fn closed_forms_match_the_materialised_heap() {
        for m in 1..=70usize {
            // The arrays the tree used to store.
            let mut parent = vec![None; m];
            let mut children = vec![Vec::new(); m];
            let mut depth = vec![0u32; m];
            for i in 0..m {
                for c in [2 * i + 1, 2 * i + 2] {
                    if c < m {
                        parent[c] = Some(i);
                        children[i].push(c);
                        depth[c] = depth[i] + 1;
                    }
                }
            }
            let tree = VirtualTree::heap_shaped((0..m as NodeId).collect());
            for pos in 0..m {
                assert_eq!(tree.parent(pos), parent[pos], "m={m} pos={pos}");
                assert_eq!(tree.children(pos).collect::<Vec<_>>(), children[pos]);
                assert_eq!(tree.depth(pos), depth[pos], "m={m} pos={pos}");
            }
            assert_eq!(tree.height(), *depth.iter().max().unwrap());
            let levels: Vec<Vec<usize>> = tree.levels().map(Iterator::collect).collect();
            assert_eq!(levels.len(), tree.height() as usize + 1);
            for (d, level) in levels.iter().enumerate() {
                let expected: Vec<usize> = (0..m).filter(|&p| depth[p] as usize == d).collect();
                assert_eq!(*level, expected, "m={m} level {d}");
            }
        }
    }

    #[test]
    fn tree_over_subset_deduplicates() {
        let mut net = net(50);
        let tree = VirtualTree::build(&mut net, &[9, 3, 3, 40, 9]);
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.participants(), [3, 9, 40]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_tree_panics() {
        let mut net = net(10);
        VirtualTree::build(&mut net, &[]);
    }

    #[test]
    fn basic_aggregation_computes_and_is_polylog() {
        let mut network = net(128);
        let values: Vec<u64> = (0..128).collect();
        assert_eq!(
            basic_aggregation(&mut network, &values, |a, b| a.max(b)),
            127
        );
        let (rounds, log_n) = (network.rounds(), 7u64);
        assert_eq!(rounds, basic_aggregation_rounds(&network));
        assert!(rounds <= 3 * log_n * log_n, "rounds {rounds} not Õ(1)");
        let sum = basic_aggregation(&mut network, &values, |a, b| a + b);
        assert_eq!(sum, 127 * 128 / 2);
    }

    #[test]
    fn schedules_pick_the_carriers() {
        // Two hand-made clusters on a path: {0, 1, 2} led by 1 is the root
        // (smaller leader), {3, 4} led by 3 its only child.
        let tree = |net: &mut HybridNetwork, schedule| {
            let cluster = |leader: NodeId, members: Vec<NodeId>| Cluster { leader, members };
            let clustering = Clustering {
                clusters: vec![cluster(3, vec![3, 4]), cluster(1, vec![0, 1, 2])],
                cluster_of: vec![1, 1, 1, 0, 0],
                nq: 1,
                k: 5,
                weak_diameter_bound: 2,
            };
            ClusterTree::build(net, clustering, schedule)
        };
        // Five units up the one edge: spread, nodes 3 and 4 send 3 + 2 and
        // nobody receives more than γ = 3; funnelled, node 3 sends all five.
        for (schedule, introductions, carried, rounds) in [
            (
                HopSchedule::MemberSpread,
                vec![(3, 0), (0, 3), (4, 1), (1, 4)],
                3,
                1,
            ),
            (HopSchedule::LeaderFunnel, vec![(3, 1), (1, 3)], 5, 2),
        ] {
            let mut net = HybridNetwork::hybrid(Arc::new(generators::path(5).unwrap()));
            assert_eq!(net.params().global_capacity_msgs, 3);
            let tree = tree(&mut net, schedule);
            assert_eq!(tree.root(), 1);
            let hellos = tree.introductions();
            let pairs: Vec<(NodeId, NodeId)> = hellos.iter().map(|m| (m.from, m.to)).collect();
            assert_eq!(pairs, introductions, "{schedule:?}");

            let mut state = [0u8, 0];
            let labels = ["test/balance", "test/up"];
            let busiest = tree.converge_cast(&mut net, labels, &mut state, |_| 5, |_, _| {});
            assert_eq!(busiest, carried, "{schedule:?}");
            let batch = net.meter().trace().last().unwrap();
            assert_eq!((batch.label, batch.messages), ("test/up", 5));
            assert_eq!(batch.rounds, rounds, "{schedule:?}");
        }
    }

    /// A 10×10 grid clustered with radius 2: enough clusters for a tree of
    /// height ≥ 2.
    fn grid_cluster_tree(schedule: HopSchedule) -> (HybridNetwork, ClusterTree) {
        let graph = Arc::new(generators::grid(&[10, 10]).unwrap());
        let mut net = HybridNetwork::hybrid(graph);
        let clustering = crate::cluster::cluster_with_radius(&mut net, 2, 40);
        let tree = ClusterTree::build(&mut net, clustering, schedule);
        assert!(tree.tree.height() >= 2, "height {}", tree.tree.height());
        (net, tree)
    }

    #[test]
    fn cluster_tree_maps_positions_to_clusters() {
        let (_, tree) = grid_cluster_tree(HopSchedule::LeaderFunnel);
        let clusters = &tree.clustering().clusters;
        let mut leaders: Vec<NodeId> = clusters.iter().map(|c| c.leader).collect();
        leaders.sort_unstable();
        assert_eq!(clusters[tree.root()].leader, leaders[0]);
        // Under the funnel every edge introduces child leader → parent
        // leader first.
        let hellos = tree.introductions();
        let edges: Vec<(NodeId, NodeId)> =
            hellos.iter().step_by(2).map(|m| (m.from, m.to)).collect();
        let expected: Vec<(NodeId, NodeId)> = (1..leaders.len())
            .map(|pos| (leaders[pos], leaders[(pos - 1) / 2]))
            .collect();
        assert_eq!(edges, expected);
    }

    #[test]
    fn sweeps_move_state_along_every_edge_and_bill_each_level() {
        for schedule in [HopSchedule::MemberSpread, HopSchedule::LeaderFunnel] {
            let (mut net, tree) = grid_cluster_tree(schedule);
            let c = tree.clustering().len();
            let height = tree.tree.height() as usize;
            let wd = tree.weak_diameter();
            let recorded = net.meter().trace().len();

            // Every cluster starts knowing itself; a parent absorbs what its
            // children know.
            let mut state: Vec<Vec<usize>> = (0..c).map(|i| vec![i]).collect();
            let up = ["test/balance", "test/up"];
            let carried =
                tree.converge_cast(&mut net, up, &mut state, Vec::len, |parent, child| {
                    parent.extend(child);
                    parent.sort_unstable();
                });
            assert_eq!(state[tree.root()], (0..c).collect::<Vec<_>>());
            assert!(carried >= 1);
            tree.broadcast(&mut net, ["test/balance", "test/down"], &mut state, c);
            assert!(state.iter().all(|known| known.len() == c));

            // One local + one global record per level below the root, up and
            // then down; every edge carries c units down.
            let trace = &net.meter().trace()[recorded..];
            assert_eq!(trace.len(), 4 * height);
            for (i, pair) in trace.chunks(2).enumerate() {
                let global = if i < height { "test/up" } else { "test/down" };
                assert_eq!((pair[0].label, pair[0].rounds), ("test/balance", 2 * wd));
                assert_eq!(pair[1].label, global);
            }
            let down_batches = trace[2 * height..].chunks(2).map(|pair| pair[1].messages);
            let sent_down: u64 = down_batches.sum();
            assert_eq!(sent_down, (c * (c - 1)) as u64);
        }
    }
}
