//! The experiment grid: the graph families every experiment runs on, the one
//! cell order and seed rule of the `family × size` grids, and the one
//! order-preserving fan-out every experiment runs through.
//!
//! ## Determinism
//!
//! [`fan_out`] runs one rayon task per item and stitches the per-item rows
//! back in item order (CONCURRENCY.md "Determinism"), and every cell draws
//! its randomness from seeds that are pure functions of its coordinates
//! ([`Grid::seed`]), so every experiment is bit-identical across
//! `RAYON_NUM_THREADS` — pinned by `grid::tests` and
//! `crates/bench/tests/determinism.rs`.

use rayon::prelude::*;
use serde::Serialize;

use hybrid_graph::{generators, Graph};

/// The graph families the experiments sweep over (the families analysed in
/// Section 3.3 / Appendix B plus realistic topologies for the examples).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GraphFamily {
    /// Path graph `P_n` (worst case: `NQ_k = Θ(√k)`).
    Path,
    /// Cycle `C_n`.
    Cycle,
    /// Two-dimensional square grid.
    Grid2D,
    /// Three-dimensional cube grid.
    Grid3D,
    /// Complete binary tree.
    BinaryTree,
    /// Connected Erdős–Rényi graph with expected degree ≈ 6.
    ErdosRenyi,
    /// Random geometric graph (wireless-style short links).
    RandomGeometric,
    /// Two-level leaf–spine data-center topology.
    FatTree,
    /// Chung–Lu power-law graph (heavy-tailed degrees; the regime where the
    /// HYBRID global capacity dominates the round complexity).
    ChungLu,
    /// Ring of cliques (clustered small-world with a tunable cut).
    RingOfCliques,
    /// Barbell: two cliques joined by a path (bottleneck stress for the
    /// γ-capacitated global scheduler).
    Barbell,
}

/// Erdős–Rényi edge probability: expected degree ≈ 6.
fn er_p(n: usize) -> f64 {
    (6.0 / n as f64).min(1.0)
}

/// Random-geometric connection radius: expected degree ≈ 8π.
fn rgg_radius(n: usize) -> f64 {
    (8.0 / n as f64).sqrt().min(0.9)
}

/// Chung–Lu tail exponent.
const CHUNG_LU_EXPONENT: f64 = 2.5;
/// Chung–Lu average expected degree.
const CHUNG_LU_AVG_DEGREE: f64 = 6.0;

/// Barbell cliques are `Θ(n²)` edges under the `clique = 3n/8` mapping; past
/// this node count the cliques stop at [`BARBELL_CLIQUE_CAP`] and the bridge
/// path absorbs the rest — the dense clique interior is a memory wall
/// orthogonal to the `n`-scaling question the scale tier asks.
const BARBELL_CAP_THRESHOLD: usize = 4096;
/// Clique size of the capped barbell (`≈ 10⁶` clique edges).
const BARBELL_CLIQUE_CAP: usize = 1024;

impl GraphFamily {
    /// All families, in presentation order.
    pub fn all() -> &'static [GraphFamily] {
        &[
            GraphFamily::Path,
            GraphFamily::Cycle,
            GraphFamily::Grid2D,
            GraphFamily::Grid3D,
            GraphFamily::BinaryTree,
            GraphFamily::ErdosRenyi,
            GraphFamily::RandomGeometric,
            GraphFamily::FatTree,
            GraphFamily::ChungLu,
            GraphFamily::RingOfCliques,
            GraphFamily::Barbell,
        ]
    }

    /// A short list used by the heavier (APSP-style) experiments.
    pub fn core_families() -> &'static [GraphFamily] {
        &[
            GraphFamily::Path,
            GraphFamily::Grid2D,
            GraphFamily::BinaryTree,
            GraphFamily::ErdosRenyi,
        ]
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            GraphFamily::Path => "path",
            GraphFamily::Cycle => "cycle",
            GraphFamily::Grid2D => "grid-2d",
            GraphFamily::Grid3D => "grid-3d",
            GraphFamily::BinaryTree => "binary-tree",
            GraphFamily::ErdosRenyi => "erdos-renyi",
            GraphFamily::RandomGeometric => "random-geometric",
            GraphFamily::FatTree => "fat-tree",
            GraphFamily::ChungLu => "chung-lu",
            GraphFamily::RingOfCliques => "ring-of-cliques",
            GraphFamily::Barbell => "barbell",
        }
    }

    /// Builds an instance with approximately `n_target` nodes.  This is the
    /// one place a family's parameter mapping (side lengths, hosts, clique
    /// sizes) is written; the random families draw from `seed` alone.
    pub fn build(&self, n_target: usize, seed: u64) -> Graph {
        let n = n_target.max(8);
        match self {
            GraphFamily::Path => generators::path(n).expect("path"),
            GraphFamily::Cycle => generators::cycle(n).expect("cycle"),
            GraphFamily::Grid2D => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                generators::grid(&[side, side]).expect("grid")
            }
            GraphFamily::Grid3D => {
                let side = (n as f64).cbrt().round().max(2.0) as usize;
                generators::grid(&[side, side, side]).expect("grid3")
            }
            GraphFamily::BinaryTree => {
                // Exactly n nodes: `tree_balanced(2, ⌈log2 n⌉)` overshot the
                // size target by up to 3.5× and dominated sweep wall-clock.
                generators::tree_with_n(2, n).expect("tree")
            }
            GraphFamily::ErdosRenyi => generators::erdos_renyi(n, er_p(n), seed).expect("er"),
            GraphFamily::RandomGeometric => {
                generators::random_geometric(n, rgg_radius(n), seed).expect("rgg")
            }
            GraphFamily::FatTree => {
                let hosts = (n.saturating_sub(12)).max(8) / 8;
                generators::fat_tree(4, 8, hosts.max(1)).expect("fat-tree")
            }
            GraphFamily::ChungLu => {
                generators::chung_lu(n, CHUNG_LU_EXPONENT, CHUNG_LU_AVG_DEGREE, seed)
                    .expect("chung-lu")
            }
            GraphFamily::RingOfCliques => {
                // Cliques of 8 with a 2-edge cut; ring length scales with n.
                let cliques = (n / 8).max(3);
                generators::ring_of_cliques(cliques, 8, 2).expect("ring-of-cliques")
            }
            GraphFamily::Barbell => {
                // Cliques take ~3/8 n each (capped past the threshold); the
                // bridge path the rest.
                let clique = if n > BARBELL_CAP_THRESHOLD {
                    BARBELL_CLIQUE_CAP
                } else {
                    (3 * n / 8).max(2)
                };
                generators::barbell(clique, n.saturating_sub(2 * clique)).expect("barbell")
            }
        }
    }

    /// [`Self::build`], under the name the benchmark workloads call.
    pub fn build_streamed(&self, n_target: usize, seed: u64) -> Graph {
        self.build(n_target, seed)
    }

    /// Builds a weighted instance (random weights in `[1, 32]`).
    pub fn build_weighted(&self, n_target: usize, seed: u64) -> Graph {
        self.reweight(&self.build(n_target, seed), seed)
    }

    /// [`Self::reweight`], under the name the benchmark workloads call.
    pub fn reweight_streamed(&self, base: &Graph, seed: u64) -> Graph {
        self.reweight(base, seed)
    }

    /// Re-weights an already-built instance exactly as [`Self::build_weighted`]
    /// would (same seed derivation, random weights in `[1, 32]`), so callers
    /// holding the unweighted graph skip the second topology build.
    pub fn reweight(&self, base: &Graph, seed: u64) -> Graph {
        generators::with_random_weights(base, 32, seed ^ 0x5E_ED0F_EE61_u64).expect("weighted")
    }
}

/// Mixes the cell coordinates into the master seed (SplitMix64 finalizer, so
/// neighbouring cells get unrelated streams).  [`Grid::seed`] is this rule
/// over a grid's cells; the benchmark workloads call it directly.
pub fn cell_seed(seed: u64, family_idx: usize, n: usize, salt: u64) -> u64 {
    let mut z = seed
        ^ (family_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (n as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ salt.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `family × size` experiment grid under one master seed.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Families, in row order.
    pub families: Vec<GraphFamily>,
    /// Target node counts, in row order within a family.
    pub sizes: Vec<usize>,
    /// Master seed; every cell derives its own streams from it.
    pub seed: u64,
}

/// One `(family, size)` coordinate of a [`Grid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Position of `family` in [`Grid::families`] (an input of the seed).
    pub family_index: usize,
    /// The cell's family.
    pub family: GraphFamily,
    /// The requested node count (the built instance may differ slightly).
    pub n_target: usize,
}

impl Grid {
    /// A grid over `families × sizes`.
    pub fn new(families: &[GraphFamily], sizes: &[usize], seed: u64) -> Self {
        Grid {
            families: families.to_vec(),
            sizes: sizes.to_vec(),
            seed,
        }
    }

    /// Every cell, family-major: all sizes of the first family, then the next.
    pub fn cells(&self) -> Vec<Cell> {
        let families = self.families.iter().copied().enumerate();
        families
            .flat_map(|(family_index, family)| {
                self.sizes.iter().map(move |&n_target| Cell {
                    family_index,
                    family,
                    n_target,
                })
            })
            .collect()
    }

    /// The cell's stream for `salt`: [`cell_seed`] over the *target* size,
    /// so a cell's seeds never depend on the instance its family builds.
    pub fn seed(&self, cell: &Cell, salt: u64) -> u64 {
        cell_seed(self.seed, cell.family_index, cell.n_target, salt)
    }

    /// Runs `body` on every cell ([`fan_out`] over [`Self::cells`]).
    pub fn run<R: Send>(&self, body: impl Fn(&Cell) -> Vec<R> + Sync) -> Vec<R> {
        fan_out(&self.cells(), body)
    }
}

/// Runs `body` on every item in parallel, one task per item, and
/// concatenates the rows in item order — identical for every pool width.
pub fn fan_out<T: Sync, R: Send>(items: &[T], body: impl Fn(&T) -> Vec<R> + Sync) -> Vec<R> {
    let per_item: Vec<Vec<R>> = items.par_iter().with_min_len(1).map(body).collect();
    per_item.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_family_major() {
        let grid = Grid::new(
            &[GraphFamily::Path, GraphFamily::Barbell],
            &[64, 32, 128],
            9,
        );
        let coords: Vec<(usize, GraphFamily, usize)> = grid
            .cells()
            .iter()
            .map(|c| (c.family_index, c.family, c.n_target))
            .collect();
        let mut expected = Vec::new();
        for (fi, &family) in grid.families.iter().enumerate() {
            for &n in &grid.sizes {
                expected.push((fi, family, n));
            }
        }
        assert_eq!(coords, expected);
    }

    #[test]
    fn grid_seed_is_cell_seed_of_the_target_size() {
        // The contract that keeps `results.lock` and the benchmark workloads
        // (which call `cell_seed` directly) on the same streams.
        let grid = Grid::new(GraphFamily::all(), &[64, 100_000], 0x5CA1E);
        for cell in grid.cells() {
            for salt in 0..8 {
                assert_eq!(
                    grid.seed(&cell, salt),
                    cell_seed(grid.seed, cell.family_index, cell.n_target, salt)
                );
            }
        }
    }

    #[test]
    fn fan_out_concatenates_in_item_order() {
        let items: Vec<usize> = (0..40).collect();
        let rows = fan_out(&items, |&i| vec![i; i % 3]);
        let expected: Vec<usize> = items.iter().flat_map(|&i| vec![i; i % 3]).collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn barbell_is_capped_past_the_threshold() {
        let capped = GraphFamily::Barbell.build(10_000, 1);
        assert_eq!(capped.n(), 10_000);
        // Two capped cliques plus the bridge path, not Θ(n²).
        let expected =
            BARBELL_CLIQUE_CAP * (BARBELL_CLIQUE_CAP - 1) + (10_000 - 2 * BARBELL_CLIQUE_CAP) + 1;
        assert_eq!(capped.m(), expected);
        // At the threshold the cliques still take ~3/8 n each.
        let small = GraphFamily::Barbell.build(BARBELL_CAP_THRESHOLD, 1);
        let clique = 3 * BARBELL_CAP_THRESHOLD / 8;
        assert_eq!(
            small.m(),
            clique * (clique - 1) + (BARBELL_CAP_THRESHOLD - 2 * clique) + 1
        );
    }
}
