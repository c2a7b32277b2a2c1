//! Geometry of the counter integrity tree.
//!
//! Level 0 of the tree is the counter blocks themselves; each level above
//! hashes `arity` children (64 in the paper's SC-64 setup). The root never
//! leaves the chip, so a verification walk climbs from the missing counter
//! block towards the root and stops at the first level that is already
//! trusted (cached in the hash cache) or at the root.

/// Static shape of an integrity tree over `counter_blocks` level-0 blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeGeometry {
    /// Arity used between level `l` and `l+1` (`arities[0]` groups counter
    /// blocks into level-1 nodes). The last entry repeats for any deeper
    /// levels.
    arities: Vec<u64>,
    /// Node counts per level; `levels[0]` = counter blocks, last = 1 (root).
    levels: Vec<u64>,
}

impl TreeGeometry {
    /// Build the geometry for `counter_blocks` leaves with a uniform arity.
    ///
    /// # Panics
    ///
    /// Panics if `counter_blocks` is zero or `arity < 2`.
    #[must_use]
    pub fn new(counter_blocks: u64, arity: u64) -> Self {
        Self::with_arities(counter_blocks, &[arity])
    }

    /// Build a geometry with per-level arities — the VAULT design (paper
    /// related-work ref 18) uses wider nodes near the leaves and narrower
    /// ones near the root; the last entry repeats for deeper levels.
    ///
    /// # Panics
    ///
    /// Panics if `counter_blocks` is zero, `arities` is empty, or any
    /// arity is below 2.
    #[must_use]
    fn with_arities(counter_blocks: u64, arities: &[u64]) -> Self {
        assert!(counter_blocks > 0, "tree must cover at least one block");
        assert!(!arities.is_empty(), "need at least one arity");
        assert!(arities.iter().all(|&a| a >= 2), "arity must be at least 2");
        let mut levels = vec![counter_blocks];
        let mut n = counter_blocks;
        let mut level = 0usize;
        while n > 1 {
            let arity = arities[level.min(arities.len() - 1)];
            n = n.div_ceil(arity);
            levels.push(n);
            level += 1;
        }
        // A single counter block still gets an on-chip root above it.
        if levels.len() == 1 {
            levels.push(1);
        }
        TreeGeometry {
            arities: arities.to_vec(),
            levels,
        }
    }

    /// VAULT-style geometry: arity 64 at the first level, halving down to
    /// 8 towards the root.
    #[must_use]
    pub fn vault(counter_blocks: u64) -> Self {
        Self::with_arities(counter_blocks, &[64, 32, 16, 8])
    }

    /// Arity between `level` and `level + 1`.
    #[must_use]
    pub fn arity_at(&self, level: u32) -> u64 {
        self.arities[(level as usize).min(self.arities.len() - 1)]
    }

    /// First-level arity (uniform trees: the arity).
    #[must_use]
    pub fn arity(&self) -> u64 {
        self.arities[0]
    }

    /// Number of levels including the counter-block level and the root.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Index of the root level.
    #[must_use]
    pub fn root_level(&self) -> u32 {
        self.depth() - 1
    }

    /// Node count at `level` (0 = counter blocks).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    #[must_use]
    pub fn nodes_at(&self, level: u32) -> u64 {
        self.levels[level as usize]
    }

    /// The node index at `level` on the path from counter block
    /// `counter_index` to the root.
    #[must_use]
    pub fn ancestor(&self, counter_index: u64, level: u32) -> u64 {
        let mut idx = counter_index;
        for l in 0..level {
            idx /= self.arity_at(l);
        }
        idx
    }

    /// Iterate over the `(level, node_index)` pairs of the verification path
    /// from `counter_index` (exclusive) up to, but not including, the root.
    /// These are the nodes that live in DRAM and may be cached in the hash
    /// cache.
    pub fn walk(&self, counter_index: u64) -> impl Iterator<Item = (u32, u64)> + '_ {
        (1..self.root_level()).map(move |level| (level, self.ancestor(counter_index, level)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_gb_dram_depth() {
        // 4 GB / 4 KB per counter block = 1 Mi counter blocks.
        // 1Mi -> 16Ki -> 256 -> 4 -> 1: depth 5, root level 4.
        let g = TreeGeometry::new(1 << 20, 64);
        assert_eq!(g.depth(), 5);
        assert_eq!(g.nodes_at(1), 1 << 14);
        assert_eq!(g.nodes_at(2), 256);
        assert_eq!(g.nodes_at(3), 4);
        assert_eq!(g.nodes_at(4), 1);
    }

    #[test]
    fn fully_protected_region_depth() {
        // 128 MB / 4 KB = 32 Ki counter blocks: 32Ki -> 512 -> 8 -> 1.
        let g = TreeGeometry::new(32 << 10, 64);
        assert_eq!(g.depth(), 4);
        assert_eq!(g.root_level(), 3);
    }

    #[test]
    fn walk_excludes_root_and_leaves() {
        let g = TreeGeometry::new(1 << 20, 64);
        let path: Vec<_> = g.walk(0).collect();
        assert_eq!(path, vec![(1, 0), (2, 0), (3, 0)]);
        let path: Vec<_> = g.walk((1 << 20) - 1).collect();
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], (1, (1 << 14) - 1));
    }

    #[test]
    fn ancestor_math() {
        let g = TreeGeometry::new(64 * 64, 64);
        assert_eq!(g.ancestor(0, 1), 0);
        assert_eq!(g.ancestor(63, 1), 0);
        assert_eq!(g.ancestor(64, 1), 1);
        assert_eq!(g.ancestor(64 * 64 - 1, 1), 63);
        assert_eq!(g.ancestor(64 * 64 - 1, 2), 0);
    }

    #[test]
    fn tiny_tree_has_onchip_root_only() {
        let g = TreeGeometry::new(1, 64);
        assert_eq!(g.depth(), 2);
        assert_eq!(g.walk(0).count(), 0, "no in-memory tree nodes");
    }

    #[test]
    fn vault_geometry_narrows_towards_root() {
        // 1 Mi counter blocks: 1Mi -64-> 16Ki -32-> 512 -16-> 32 -8-> 4 -8-> 1.
        let g = TreeGeometry::vault(1 << 20);
        assert_eq!(g.nodes_at(1), 1 << 14);
        assert_eq!(g.nodes_at(2), 512);
        assert_eq!(g.nodes_at(3), 32);
        assert_eq!(g.nodes_at(4), 4);
        assert_eq!(g.nodes_at(5), 1);
        assert_eq!(g.arity_at(0), 64);
        assert_eq!(g.arity_at(3), 8);
        assert_eq!(g.arity_at(9), 8, "last arity repeats");
        // Deeper than the uniform 64-ary tree over the same leaves.
        assert!(g.depth() > TreeGeometry::new(1 << 20, 64).depth());
    }

    #[test]
    fn vault_ancestors_consistent_with_levels() {
        let g = TreeGeometry::vault(1 << 20);
        for counter in [0u64, 1, 63, 64, (1 << 20) - 1] {
            for level in 1..g.root_level() {
                assert!(
                    g.ancestor(counter, level) < g.nodes_at(level),
                    "counter {counter} level {level}"
                );
            }
        }
    }
}
