//! Physical address layout of the protected DRAM (paper Fig. 10).
//!
//! The data DRAM occupies `[0, dram_size)`. The security metadata —
//! counter blocks, integrity-tree levels, and the MAC region — is placed in
//! *disjoint reserved address windows above the data DRAM* so that metadata
//! addresses never collide with data addresses in the metadata caches. The
//! paper likewise reserves "a separate fixed region ... to store MACs of the
//! entire DRAM space"; putting the windows above the data region (instead of
//! carving them out of it) keeps the data region contiguous without changing
//! any cache behaviour, since only address *distinctness* matters to the
//! tag-only cache models.

use tnpu_sim::{Addr, BlockAddr, BLOCK_SIZE};

/// Base of the counter-block window.
pub const COUNTER_BASE: u64 = 1 << 40;
/// Base of the integrity-tree window; each tree level gets a 2³⁶-byte slot.
pub const TREE_BASE: u64 = 1 << 41;
/// Stride between tree-level windows.
pub const TREE_LEVEL_STRIDE: u64 = 1 << 36;
/// Base of the MAC region window.
pub const MAC_BASE: u64 = 1 << 42;
/// MACs per 64 B MAC block (8 B MAC each).
pub const MACS_PER_BLOCK: u64 = 8;

/// Address-space layout helper for one protected region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Bytes of data DRAM covered.
    pub dram_size: u64,
    /// Data blocks covered per counter block (SC-64: 64).
    pub counters_per_block: u64,
}

impl Layout {
    /// Create a layout covering `dram_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `dram_size` is zero, not block-aligned, or too large for
    /// the reserved metadata windows.
    #[must_use]
    pub fn new(dram_size: u64, counters_per_block: u64) -> Self {
        assert!(dram_size > 0, "dram size must be non-zero");
        assert_eq!(
            dram_size % BLOCK_SIZE as u64,
            0,
            "dram size must be block aligned"
        );
        assert!(
            dram_size < COUNTER_BASE,
            "dram too large for metadata windows"
        );
        assert!(counters_per_block > 0);
        Layout {
            dram_size,
            counters_per_block,
        }
    }

    /// Number of 64 B data blocks covered.
    #[must_use]
    pub fn data_blocks(&self) -> u64 {
        self.dram_size / BLOCK_SIZE as u64
    }

    /// Number of counter blocks needed to cover the data region.
    #[must_use]
    pub fn counter_blocks(&self) -> u64 {
        self.data_blocks().div_ceil(self.counters_per_block)
    }

    /// Index of the counter block holding the counter for `block`.
    #[must_use]
    pub fn counter_index(&self, block: BlockAddr) -> u64 {
        debug_assert!(self.contains_block(block), "block outside covered region");
        block.0 / self.counters_per_block
    }

    /// Address of the counter block for a data block — this is what the
    /// counter cache is indexed with.
    #[must_use]
    pub fn counter_addr(&self, block: BlockAddr) -> Addr {
        self.counter_index_addr(self.counter_index(block))
    }

    /// Address of the counter block with index `index` (the run-batched
    /// paths work in metadata indices and map back to addresses here).
    #[must_use]
    pub fn counter_index_addr(&self, index: u64) -> Addr {
        Addr(COUNTER_BASE + index * BLOCK_SIZE as u64)
    }

    /// Address of the tree node at `level` (1-based; level 0 is the counter
    /// blocks themselves) with node index `node`.
    #[must_use]
    pub fn tree_node_addr(&self, level: u32, node: u64) -> Addr {
        Addr(TREE_BASE + u64::from(level) * TREE_LEVEL_STRIDE + node * BLOCK_SIZE as u64)
    }

    /// Address of the MAC block holding the MAC for `block`.
    #[must_use]
    pub fn mac_addr(&self, block: BlockAddr) -> Addr {
        self.mac_index_addr(block.0 / MACS_PER_BLOCK)
    }

    /// Address of the MAC block with index `index`.
    #[must_use]
    pub fn mac_index_addr(&self, index: u64) -> Addr {
        Addr(MAC_BASE + index * BLOCK_SIZE as u64)
    }

    /// Whether a data block falls inside the covered region.
    #[must_use]
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        block.0 < self.data_blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::new(4 << 30, 64)
    }

    #[test]
    fn geometry_for_4gb() {
        let l = layout();
        assert_eq!(l.data_blocks(), (4u64 << 30) / 64);
        assert_eq!(l.counter_blocks(), l.data_blocks() / 64);
    }

    #[test]
    fn consecutive_blocks_share_counter_block() {
        let l = layout();
        assert_eq!(l.counter_addr(BlockAddr(0)), l.counter_addr(BlockAddr(63)));
        assert_ne!(l.counter_addr(BlockAddr(0)), l.counter_addr(BlockAddr(64)));
    }

    #[test]
    fn eight_blocks_share_mac_block() {
        let l = layout();
        assert_eq!(l.mac_addr(BlockAddr(0)), l.mac_addr(BlockAddr(7)));
        assert_ne!(l.mac_addr(BlockAddr(0)), l.mac_addr(BlockAddr(8)));
    }

    #[test]
    fn metadata_windows_are_disjoint() {
        let l = layout();
        let ctr = l.counter_addr(BlockAddr(l.data_blocks() - 1)).0;
        let mac = l.mac_addr(BlockAddr(l.data_blocks() - 1)).0;
        let tree = l.tree_node_addr(1, l.counter_blocks() / 64).0;
        assert!((COUNTER_BASE..TREE_BASE).contains(&ctr));
        assert!((TREE_BASE..MAC_BASE).contains(&tree));
        assert!(mac >= MAC_BASE);
    }

    #[test]
    fn tree_levels_are_disjoint() {
        let l = layout();
        // Node 0 of level 2 must not alias node anything of level 1.
        assert_ne!(l.tree_node_addr(1, 0), l.tree_node_addr(2, 0));
        assert!(l.tree_node_addr(2, 0).0 - l.tree_node_addr(1, 0).0 == TREE_LEVEL_STRIDE);
    }

    #[test]
    #[should_panic(expected = "block aligned")]
    fn unaligned_size_panics() {
        let _ = Layout::new(100, 64);
    }

    #[test]
    fn small_region_counter_blocks_round_up() {
        let l = Layout::new(64 * 100, 64); // 100 data blocks
        assert_eq!(l.counter_blocks(), 2);
    }
}
