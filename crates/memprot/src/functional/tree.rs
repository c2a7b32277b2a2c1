//! Functional counter-tree protected memory: counter-mode encryption,
//! per-block MACs, and a real Merkle counter tree with an on-chip root and
//! a trusted verified-node cache — the baseline scheme of the paper over
//! real bytes.

use super::dram::RawDram;
use super::{flip_bits, BlockCapture, FunctionalMemory, IntegrityError, MismatchCause};
use crate::counters::{Bump, SplitCounterBlock};
use crate::tree::TreeGeometry;
use crate::{ProtectionConfig, SchemeKind};
use std::cell::RefCell;
use std::collections::BTreeMap;
use tnpu_crypto::ctr::CtrMode;
use tnpu_crypto::mac::{BlockMac, MacTag};
use tnpu_crypto::sha256::Sha256;
use tnpu_crypto::Key128;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// A tree-node slot no honest write produces: the all-zero slot means
/// "child never written", and this one means "child failed verification
/// on a write". No counter block or node hashes to it, so every later
/// check of the child fails.
const POISONED: [u8; 32] = [0xff; 32];

/// Functional counter-mode + integrity-tree memory.
///
/// The ciphertext, the MACs, the per-block counters and the tree nodes in
/// DRAM are *untrusted*: the attack hooks mutate them directly. The root
/// and the verified-node cache are on-chip and trusted (see `TreeNodes`).
/// A read verifies its counter block against the cached level-1 node and
/// climbs no further than the first cached ancestor.
#[derive(Debug)]
pub struct CounterTreeMemory {
    dram: RawDram,
    macs: BTreeMap<u64, MacTag>,
    /// DRAM-resident SC-64 split-counter blocks, one per 64 data blocks.
    counters: BTreeMap<u64, SplitCounterBlock>,
    /// DRAM tree nodes, the root and the node cache. Verified reads fill
    /// the cache, so they go through a cell.
    tree: RefCell<TreeNodes>,
    counters_per_block: u64,
    ctr: CtrMode,
    mac: BlockMac,
    /// Retained for epoch re-keying (the exhaustion sweep).
    master: Key128,
}

/// The tree above the counter blocks: the DRAM-resident nodes, the
/// on-chip root and the on-chip write-back cache of verified nodes.
///
/// Level 1 nodes hold the hashes of `arity` counter blocks; each level
/// above holds the hashes of `arity` nodes below; the root register holds
/// the hash of the single node at the top level. An all-zero slot means
/// the child was never written.
///
/// The cache holds trusted copies keyed by `(level, node)`. It is
/// inclusive — a node is cached only while its parent is — so a cached
/// level-1 node is trusted without touching DRAM. A miss fills the path
/// top-down from the lowest cached ancestor, checking each DRAM node
/// against the slot its trusted parent holds for it. Writes update the
/// cached copy and mark it dirty; only eviction writes a node back to
/// DRAM and its hash into the parent's slot (the root, for the top node).
#[derive(Debug)]
struct TreeNodes {
    /// Untrusted node contents: `(level, node) -> [child hash; arity]`.
    nodes: BTreeMap<(u32, u64), Vec<[u8; 32]>>,
    /// Hash of the top node as last written back — trusted.
    root: [u8; 32],
    /// Trusted verified-node cache.
    cache: BTreeMap<(u32, u64), CachedNode>,
    /// Cache capacity in nodes.
    capacity: usize,
    /// LRU clock.
    tick: u64,
    arity: u64,
    top: u32,
}

/// One trusted node in the cache.
#[derive(Debug)]
struct CachedNode {
    slots: Vec<[u8; 32]>,
    /// Differs from the DRAM copy; written back on eviction.
    dirty: bool,
    last_use: u64,
    /// Cached nodes whose parent this is (a node with any is pinned).
    cached_children: usize,
}

impl TreeNodes {
    fn new(geometry: &TreeGeometry) -> Self {
        let hash_cache = ProtectionConfig::default().hash_cache;
        TreeNodes {
            nodes: BTreeMap::new(),
            root: [0; 32],
            cache: BTreeMap::new(),
            capacity: hash_cache.capacity / hash_cache.line_size,
            tick: 0,
            arity: geometry.arity(),
            top: geometry.root_level(),
        }
    }

    /// The parent of a node and the slot it occupies there; `None` for the
    /// top node, whose parent is the root register.
    fn parent(&self, (level, node): (u32, u64)) -> Option<((u32, u64), usize)> {
        (level < self.top).then(|| ((level + 1, node / self.arity), (node % self.arity) as usize))
    }

    /// The trusted slot a counter block occupies in its level-1 node,
    /// filling the node's path into the cache on a miss.
    fn leaf_slot(&mut self, counter_block: u64) -> Result<[u8; 32], IntegrityError> {
        let key = (1, counter_block / self.arity);
        let slot = (counter_block % self.arity) as usize;
        self.tick += 1;
        if let Some(node) = self.cache.get_mut(&key) {
            node.last_use = self.tick;
            return Ok(node.slots[slot]);
        }
        let mut missing = vec![key];
        while let Some((parent, _)) = missing.last().and_then(|&k| self.parent(k)) {
            if self.cache.contains_key(&parent) {
                break;
            }
            missing.push(parent);
        }
        for &node in missing.iter().rev() {
            self.fill(node)?;
        }
        Ok(self.cache.get(&key).map_or(POISONED, |n| n.slots[slot]))
    }

    /// Verify one DRAM node against its cached parent (or the root) and
    /// cache it, evicting to stay within capacity.
    fn fill(&mut self, key: (u32, u64)) -> Result<(), IntegrityError> {
        let trusted = match self.parent(key) {
            Some((parent, slot)) => self.cache.get(&parent).map_or(POISONED, |p| p.slots[slot]),
            None => self.root,
        };
        let slots = match self.nodes.get(&key) {
            Some(stored) if node_hash(stored) == trusted => stored.clone(),
            None if trusted == [0; 32] => vec![[0; 32]; self.arity as usize],
            _ => {
                return Err(IntegrityError::TreeMismatch {
                    level: (key.0 + 1).min(self.top),
                })
            }
        };
        if let Some((parent, _)) = self.parent(key) {
            if let Some(p) = self.cache.get_mut(&parent) {
                p.cached_children += 1;
            }
        }
        self.cache.insert(
            key,
            CachedNode {
                slots,
                dirty: false,
                last_use: self.tick,
                cached_children: 0,
            },
        );
        while self.cache.len() > self.capacity && self.evict(key) {}
        Ok(())
    }

    /// Evict the least-recently-used node with no cached children (never
    /// `keep`), writing it back if dirty. Returns `false` if none can go.
    fn evict(&mut self, keep: (u32, u64)) -> bool {
        let victim = self
            .cache
            .iter()
            .filter(|&(&k, n)| n.cached_children == 0 && k != keep)
            .min_by_key(|(_, n)| n.last_use)
            .map(|(&k, _)| k);
        let Some((key, node)) = victim.and_then(|k| self.cache.remove_entry(&k)) else {
            return false;
        };
        let hash = node.dirty.then(|| node_hash(&node.slots));
        match self.parent(key) {
            Some((parent, slot)) => {
                if let Some(p) = self.cache.get_mut(&parent) {
                    p.cached_children -= 1;
                    if let Some(hash) = hash {
                        p.slots[slot] = hash;
                        p.dirty = true;
                    }
                }
            }
            None => {
                if let Some(hash) = hash {
                    self.root = hash;
                }
            }
        }
        if node.dirty {
            self.nodes.insert(key, node.slots);
        }
        true
    }

    /// Set a counter block's slot in its (cached) level-1 node.
    fn set_leaf_slot(&mut self, counter_block: u64, hash: [u8; 32]) {
        let key = (1, counter_block / self.arity);
        if let Some(node) = self.cache.get_mut(&key) {
            node.slots[(counter_block % self.arity) as usize] = hash;
            node.dirty = true;
        }
    }
}

fn counter_block_hash(block: &SplitCounterBlock) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&block.to_bytes());
    h.finalize()
}

fn node_hash(node: &[[u8; 32]]) -> [u8; 32] {
    let mut h = Sha256::new();
    for child in node {
        h.update(child);
    }
    h.finalize()
}

/// Probe width of the failure-path diagnosis (the counter plays the
/// version's role in this scheme).
const COUNTER_PROBE_WINDOW: u64 = 8;

impl CounterTreeMemory {
    /// Create a protected memory covering `data_blocks` 64 B blocks.
    ///
    /// # Panics
    ///
    /// Panics if `data_blocks` is zero.
    #[must_use]
    pub fn new(master: Key128, data_blocks: u64) -> Self {
        assert!(data_blocks > 0, "must cover at least one block");
        let counters_per_block = 64;
        let counter_blocks = data_blocks.div_ceil(counters_per_block);
        let geometry = TreeGeometry::new(counter_blocks, 64);
        let mut mac_label = b"tree-mac".to_vec();
        mac_label.extend_from_slice(&master.0);
        let mut ctr_label = b"tree-ctr".to_vec();
        ctr_label.extend_from_slice(&master.0);
        CounterTreeMemory {
            dram: RawDram::new(),
            macs: BTreeMap::new(),
            counters: BTreeMap::new(),
            tree: RefCell::new(TreeNodes::new(&geometry)),
            counters_per_block,
            ctr: CtrMode::new(Key128::derive(&ctr_label)),
            mac: BlockMac::new(Key128::derive(&mac_label)),
            master,
        }
    }

    /// Classify a MAC mismatch (failure path only). The tree has already
    /// verified the counter path, so most failures are content tampering —
    /// but a spliced pair still reads as an address mismatch, and a pair
    /// valid under a nearby counter as a (tree-escaped) replay.
    fn diagnose(
        &self,
        addr: Addr,
        counter: u64,
        ct: &[u8; BLOCK_SIZE],
        tag: MacTag,
    ) -> MismatchCause {
        for delta in 1..=COUNTER_PROBE_WINDOW {
            for c in [counter.checked_sub(delta), counter.checked_add(delta)]
                .into_iter()
                .flatten()
            {
                if self.mac.verify(addr.0, c, ct, tag) {
                    return MismatchCause::Version;
                }
            }
        }
        let unit = addr.block().0;
        for (&other, &other_tag) in &self.macs {
            if other == unit || other_tag != tag {
                continue;
            }
            if let Some(other_ct) = self.dram.read_block(Addr(other * BLOCK_SIZE as u64)) {
                if other_ct == *ct {
                    return MismatchCause::Address;
                }
            }
        }
        MismatchCause::Content
    }

    fn counter_block_of(&self, block: u64) -> u64 {
        block / self.counters_per_block
    }

    /// Whether a counter block's current (untrusted) contents match the
    /// trusted slot its level-1 node holds for it. An absent block reads
    /// as a fresh one, and a fresh block matches the never-written slot.
    fn counter_block_matches(&self, counter_block: u64, trusted: [u8; 32]) -> bool {
        let fresh = SplitCounterBlock::new();
        let block = self.counters.get(&counter_block).unwrap_or(&fresh);
        if trusted == [0; 32] {
            return *block == fresh;
        }
        counter_block_hash(block) == trusted
    }

    /// Verify a counter block against its trusted level-1 node.
    fn verify_counter_block(&self, counter_block: u64) -> Result<(), IntegrityError> {
        let trusted = self.tree.borrow_mut().leaf_slot(counter_block)?;
        if self.counter_block_matches(counter_block, trusted) {
            Ok(())
        } else {
            Err(IntegrityError::TreeMismatch { level: 1 })
        }
    }

    /// Effective counter of a data block, if its counter block exists.
    #[must_use]
    pub fn counter_of(&self, addr: Addr) -> Option<u64> {
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        let slot = (block % self.counters_per_block) as usize;
        self.counters.get(&cb).map(|s| s.counter(slot))
    }

    /// Encrypt and store a block; the hardware bumps the block's SC-64
    /// minor counter and updates its slot in the cached level-1 node. If
    /// the minor overflows, every sibling block of the 4 KB page is
    /// decrypted under its old counter and re-encrypted under the new
    /// epoch — the real SC-64 overflow procedure whose cost the timing
    /// engine charges.
    ///
    /// The counter block is verified against its trusted slot before the
    /// bump. If it does not match (the attacker rewrote or replayed it),
    /// the data is still stored but the slot is poisoned, so every later
    /// read of the page reports [`IntegrityError::TreeMismatch`] at level
    /// 1: a write never re-blesses an unverified counter block.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64 B aligned.
    pub fn write_block(&mut self, addr: Addr, plaintext: [u8; BLOCK_SIZE]) {
        assert_eq!(addr.block_offset(), 0, "unaligned write at {addr}");
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        let slot = (block % self.counters_per_block) as usize;
        let trusted = self.tree.get_mut().leaf_slot(cb);
        let verified = trusted.is_ok_and(|t| self.counter_block_matches(cb, t));
        let entry = self.counters.entry(cb).or_default();
        if entry.will_overflow(slot) {
            // Capture every sibling's plaintext under the *old* counters.
            let old = entry.clone();
            let base_block = cb * self.counters_per_block;
            let mut siblings: Vec<(u64, [u8; BLOCK_SIZE])> = Vec::new();
            for i in 0..self.counters_per_block {
                let sib = base_block + i;
                if sib == block {
                    continue;
                }
                let sib_addr = Addr(sib * BLOCK_SIZE as u64);
                if let Some(ct) = self.dram.read_block(sib_addr) {
                    let mut pt = ct;
                    self.ctr.apply(sib_addr.0, old.counter(i as usize), &mut pt);
                    siblings.push((sib, pt));
                }
            }
            // Bump into the new epoch and re-encrypt the page.
            let entry = self.counters.get_mut(&cb).expect("just inserted");
            let bumped = entry.bump(slot);
            debug_assert_eq!(bumped, Bump::Overflow);
            let epoch = entry.clone();
            for (sib, pt) in siblings {
                let sib_addr = Addr(sib * BLOCK_SIZE as u64);
                let sib_slot = (sib % self.counters_per_block) as usize;
                let counter = epoch.counter(sib_slot);
                let ct = self.ctr.encrypt(sib_addr.0, counter, &pt);
                let tag = self.mac.tag(sib_addr.0, counter, &ct);
                self.dram.write_block(sib_addr, ct);
                self.macs.insert(sib, tag);
            }
        } else {
            let bumped = entry.bump(slot);
            debug_assert_eq!(bumped, Bump::Minor);
        }
        let counters = &self.counters[&cb];
        let counter = counters.counter(slot);
        // A path that failed to fill leaves no cached slot to update; its
        // reads keep failing at the same node.
        let hash = if verified {
            counter_block_hash(counters)
        } else {
            POISONED
        };
        self.tree.get_mut().set_leaf_slot(cb, hash);
        let ct = self.ctr.encrypt(addr.0, counter, &plaintext);
        let tag = self.mac.tag(addr.0, counter, &ct);
        self.dram.write_block(addr, ct);
        self.macs.insert(block, tag);
    }

    /// Fetch, verify (tree then MAC) and decrypt a block.
    ///
    /// # Errors
    ///
    /// * [`IntegrityError::NotWritten`] — nothing stored at `addr`.
    /// * [`IntegrityError::TreeMismatch`] — the counter block does not hash
    ///   to its trusted level-1 slot (counter tampering or replay), or a
    ///   DRAM node filled into the cache does not hash to its trusted
    ///   parent.
    /// * [`IntegrityError::MacMismatch`] — ciphertext or MAC tampering.
    pub fn read_block(&self, addr: Addr) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        let block = addr.block().0;
        let ct = self
            .dram
            .read_block(addr)
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
        let counter = self
            .counter_of(addr)
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
        self.verify_counter_block(self.counter_block_of(block))?;
        let tag = self
            .macs
            .get(&block)
            .copied()
            .ok_or(IntegrityError::NotWritten { addr: addr.0 })?;
        if !self.mac.verify(addr.0, counter, &ct, tag) {
            return Err(IntegrityError::MacMismatch {
                addr: addr.0,
                cause: self.diagnose(addr, counter, &ct, tag),
            });
        }
        let mut pt = ct;
        self.ctr.apply(addr.0, counter, &mut pt);
        Ok(pt)
    }

    /// The untrusted DRAM — attack hook.
    pub fn dram_mut(&mut self) -> &mut RawDram {
        &mut self.dram
    }

    /// The untrusted DRAM, read-only.
    #[must_use]
    pub fn dram(&self) -> &RawDram {
        &self.dram
    }

    /// Overwrite a block's DRAM-resident minor counter — attack hook. The
    /// tree is *not* updated (the attacker cannot reach the trusted
    /// level-1 slot or the root).
    pub fn tamper_counter(&mut self, addr: Addr, value: u64) {
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        let slot = (block % self.counters_per_block) as usize;
        self.counters
            .entry(cb)
            .or_default()
            .set_minor_raw(slot, (value % 128) as u8);
    }

    /// Snapshot the full untrusted state of a block: ciphertext, MAC, and
    /// its whole SC-64 counter block — everything a physical attacker can
    /// capture from DRAM.
    #[must_use]
    pub fn snapshot(&self, addr: Addr) -> Option<TreeSnapshot> {
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        Some(TreeSnapshot {
            ciphertext: self.dram.read_block(addr)?,
            mac: self.macs.get(&block).copied()?,
            counter_block: self.counters.get(&cb)?.clone(),
        })
    }

    /// Restore a snapshot (replay attack). The tree is *not* restored: the
    /// trusted level-1 slot moved on while the victim kept writing, so the
    /// stale counter block no longer hashes to it.
    pub fn restore(&mut self, addr: Addr, snapshot: TreeSnapshot) {
        let block = addr.block().0;
        let cb = self.counter_block_of(block);
        self.dram.write_block(addr, snapshot.ciphertext);
        self.macs.insert(block, snapshot.mac);
        self.counters.insert(cb, snapshot.counter_block);
    }
}

impl FunctionalMemory for CounterTreeMemory {
    fn scheme(&self) -> SchemeKind {
        SchemeKind::TreeBased
    }

    fn write_block(&mut self, addr: Addr, _version: u64, plaintext: [u8; BLOCK_SIZE]) {
        // The hardware manages its own counters; the software version
        // number has no role in this scheme.
        CounterTreeMemory::write_block(self, addr, plaintext);
    }

    fn read_block(&self, addr: Addr, _version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        CounterTreeMemory::read_block(self, addr)
    }

    fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool {
        flip_bits(&mut self.dram, addr, bits)
    }

    fn capture_block(&self, addr: Addr) -> Option<BlockCapture> {
        let snap = self.snapshot(addr)?;
        Some(BlockCapture {
            bytes: snap.ciphertext,
            mac: Some(snap.mac),
            counters: Some(snap.counter_block),
        })
    }

    fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        let (Some(mac), Some(counters)) = (capture.mac, capture.counters.clone()) else {
            return false;
        };
        self.restore(
            addr,
            TreeSnapshot {
                ciphertext: capture.bytes,
                mac,
                counter_block: counters,
            },
        );
        true
    }

    fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        // Roll back the DRAM-resident counter block and MAC only; the
        // ciphertext stays current. The tree is not (and cannot be)
        // recomputed by the attacker — its trusted part stays on-chip.
        let (Some(mac), Some(counters)) = (capture.mac, capture.counters.clone()) else {
            return false;
        };
        let block = addr.block().0;
        self.macs.insert(block, mac);
        self.counters.insert(self.counter_block_of(block), counters);
        true
    }

    fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
        // Physical relocation: ciphertext and MAC move; the counters are
        // whatever already covers the victim address.
        let Some(ct) = self.dram.read_block(donor) else {
            return false;
        };
        let Some(mac) = self.macs.get(&donor.block().0).copied() else {
            return false;
        };
        self.dram.write_block(victim, ct);
        self.macs.insert(victim.block().0, mac);
        true
    }

    fn substitute_mac(&mut self, victim: Addr, donor: Addr) -> bool {
        let Some(mac) = self.macs.get(&donor.block().0).copied() else {
            return false;
        };
        self.macs.insert(victim.block().0, mac);
        true
    }

    fn dram_contains(&self, needle: &[u8]) -> bool {
        self.dram.contains_bytes(needle)
    }

    fn rekey(&mut self, epoch: u64) -> bool {
        let mut label = b"tree-epoch".to_vec();
        label.extend_from_slice(&epoch.to_le_bytes());
        label.extend_from_slice(&self.master.0);
        let epoch_master = Key128::derive(&label);
        let mut mac_label = b"tree-mac".to_vec();
        mac_label.extend_from_slice(&epoch_master.0);
        let mut ctr_label = b"tree-ctr".to_vec();
        ctr_label.extend_from_slice(&epoch_master.0);
        self.ctr = CtrMode::new(Key128::derive(&ctr_label));
        self.mac = BlockMac::new(Key128::derive(&mac_label));
        true
    }
}

/// Everything a physical attacker can capture about one block: the
/// ciphertext, its MAC, and the covering SC-64 counter block.
#[derive(Debug, Clone)]
pub struct TreeSnapshot {
    /// The stored ciphertext.
    pub ciphertext: [u8; BLOCK_SIZE],
    /// The stored MAC.
    pub mac: MacTag,
    /// The covering counter block's raw state.
    pub counter_block: SplitCounterBlock,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> CounterTreeMemory {
        // Cover 64 Ki blocks (4 MB): counter blocks = 1 Ki, depth 3.
        CounterTreeMemory::new(Key128::derive(b"tree-test"), 1 << 16)
    }

    /// Bytes covered by one level-1 node: 64 counter blocks of 64 blocks.
    const NODE_SPAN: u64 = 64 * 64 * BLOCK_SIZE as u64;

    /// 100 level-1 nodes (25 MB), more than the 64-node cache holds.
    fn wide() -> CounterTreeMemory {
        CounterTreeMemory::new(Key128::derive(b"tree-wide"), 100 * 64 * 64)
    }

    fn is_cached(m: &CounterTreeMemory, key: (u32, u64)) -> bool {
        m.tree.borrow().cache.contains_key(&key)
    }

    /// Flip one bit of a DRAM-resident tree node — attack hook on state
    /// only the cache's write-back produces. Returns `false` if the node
    /// was never written back.
    fn tamper_node(m: &mut CounterTreeMemory, key: (u32, u64)) -> bool {
        let Some(node) = m.tree.get_mut().nodes.get_mut(&key) else {
            return false;
        };
        node[0][0] ^= 1;
        true
    }

    #[test]
    fn roundtrip() {
        let mut m = mem();
        let data: [u8; 64] = std::array::from_fn(|i| (i * 3) as u8);
        m.write_block(Addr(0x400), data);
        assert_eq!(m.read_block(Addr(0x400)).expect("verifies"), data);
    }

    #[test]
    fn updates_are_readable() {
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        m.write_block(Addr(0), [2u8; 64]);
        assert_eq!(m.read_block(Addr(0)).expect("verifies"), [2u8; 64]);
    }

    #[test]
    fn confidentiality() {
        let mut m = mem();
        let mut secret = [0u8; 64];
        secret[..12].copy_from_slice(b"WEIGHTS-v1.0");
        m.write_block(Addr(0), secret);
        assert!(!m.dram().contains_bytes(b"WEIGHTS-v1.0"));
    }

    #[test]
    fn ciphertext_tampering_detected() {
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        m.dram_mut().block_mut(Addr(0)).expect("present")[10] ^= 0x80;
        assert_eq!(
            m.read_block(Addr(0)),
            Err(IntegrityError::MacMismatch {
                addr: 0,
                cause: MismatchCause::Content
            })
        );
    }

    #[test]
    fn counter_tampering_detected_by_tree() {
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        m.tamper_counter(Addr(0), 99);
        match m.read_block(Addr(0)) {
            Err(IntegrityError::TreeMismatch { level: 1 }) => {}
            other => panic!("expected tree mismatch at level 1, got {other:?}"),
        }
    }

    #[test]
    fn full_replay_detected_by_tree() {
        // Attacker replays ciphertext + MAC + counter together. The MAC
        // verifies against the stale counter, but the tree root does not.
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        let old = m.snapshot(Addr(0)).expect("present");
        m.write_block(Addr(0), [2u8; 64]);
        m.restore(Addr(0), old);
        assert!(matches!(
            m.read_block(Addr(0)),
            Err(IntegrityError::TreeMismatch { .. })
        ));
    }

    #[test]
    fn replay_of_sibling_does_not_break_others() {
        // Tampering with one block must not make *other* verified blocks
        // unreadable before the tamper is rolled forward... it does make
        // the shared counter-block path fail for siblings — the tree is
        // sound, not sparing. Distinct counter blocks stay independent.
        let mut m = mem();
        m.write_block(Addr(0), [1u8; 64]);
        // Block in a different counter block (64 blocks * 64 B = 4 KB away).
        m.write_block(Addr(4096), [2u8; 64]);
        m.tamper_counter(Addr(0), 5);
        assert!(m.read_block(Addr(0)).is_err());
        assert_eq!(m.read_block(Addr(4096)).expect("independent"), [2u8; 64]);
    }

    #[test]
    fn counters_increment_monotonically() {
        let mut m = mem();
        m.write_block(Addr(0), [0u8; 64]);
        let c1 = m.counter_of(Addr(0)).expect("present");
        m.write_block(Addr(0), [0u8; 64]);
        let c2 = m.counter_of(Addr(0)).expect("present");
        assert_eq!(c2, c1 + 1);
    }

    #[test]
    fn minor_overflow_reencrypts_the_page_transparently() {
        // 128 writes to one block overflow its minor counter; the sibling
        // blocks must remain readable (they were re-encrypted under the
        // new epoch) and the writing block keeps verifying.
        let mut m = mem();
        m.write_block(Addr(64), [0xabu8; 64]); // sibling in the same page
        for i in 0..130u64 {
            m.write_block(Addr(0), [i as u8; 64]);
        }
        assert!(
            m.counter_of(Addr(0)).expect("present") > 127,
            "epoch advanced"
        );
        assert_eq!(m.read_block(Addr(0)).expect("verifies"), [129u8; 64]);
        assert_eq!(
            m.read_block(Addr(64))
                .expect("sibling re-encrypted and verifies"),
            [0xabu8; 64]
        );
    }

    #[test]
    fn reencryption_changes_ciphertext_for_same_data() {
        // Counter-mode property the paper relies on: every write uses a
        // fresh pad even for identical plaintext.
        let mut m = mem();
        m.write_block(Addr(0), [7u8; 64]);
        let ct1 = m.dram().read_block(Addr(0)).expect("present");
        m.write_block(Addr(0), [7u8; 64]);
        let ct2 = m.dram().read_block(Addr(0)).expect("present");
        assert_ne!(ct1, ct2);
    }

    #[test]
    fn never_written() {
        let m = mem();
        assert!(matches!(
            m.read_block(Addr(0)),
            Err(IntegrityError::NotWritten { .. })
        ));
    }

    #[test]
    fn a_write_does_not_rebless_a_replayed_counter_block() {
        // Replay block A's counter block, then write honestly to a sibling
        // in the same page. The write must not hash the stale counter
        // block into the tree: A (and the whole page) stays rejected.
        let mut m = mem();
        let a = Addr(0x1000);
        m.write_block(a, [1u8; 64]);
        let old = m.snapshot(a).expect("written");
        m.write_block(a, [2u8; 64]);
        m.restore(a, old);
        m.write_block(Addr(a.0 + 64), [3u8; 64]);
        assert_eq!(
            m.read_block(a),
            Err(IntegrityError::TreeMismatch { level: 1 })
        );
        assert_eq!(
            m.read_block(Addr(a.0 + 64)),
            Err(IntegrityError::TreeMismatch { level: 1 })
        );
    }

    #[test]
    fn the_cache_holds_the_cost_engines_hash_cache_entries() {
        assert_eq!(mem().tree.borrow().capacity, 64);
    }

    #[test]
    fn eviction_writes_back_dirty_nodes_and_every_block_reads_back() {
        let mut m = wide();
        let addr = |node: u64, round: u64| Addr(node * NODE_SPAN + round * 4160);
        for round in 0..3 {
            for node in 0..100 {
                m.write_block(addr(node, round), [(node ^ round) as u8; 64]);
            }
        }
        // The last round rewrites the first block of every node.
        for node in (0..100).rev() {
            m.write_block(addr(node, 0), [!(node as u8); 64]);
        }
        {
            let tree = m.tree.borrow();
            assert!(tree.cache.len() <= tree.capacity);
            assert!(
                tree.nodes.keys().filter(|&&(level, _)| level == 1).count() >= 36,
                "evicted dirty level-1 nodes were written back"
            );
        }
        for node in 0..100 {
            assert_eq!(
                m.read_block(addr(node, 0)).expect("verifies"),
                [!(node as u8); 64]
            );
            for round in 1..3 {
                assert_eq!(
                    m.read_block(addr(node, round)).expect("verifies"),
                    [(node ^ round) as u8; 64]
                );
            }
        }
    }

    #[test]
    fn tampered_node_is_detected_when_filled_again() {
        let mut m = wide();
        m.write_block(Addr(0), [9u8; 64]);
        for node in 1..=64 {
            m.write_block(Addr(node * NODE_SPAN), [node as u8; 64]);
        }
        assert!(!is_cached(&m, (1, 0)), "node 0 was evicted");
        assert!(tamper_node(&mut m, (1, 0)), "and written back");
        assert_eq!(
            m.read_block(Addr(0)),
            Err(IntegrityError::TreeMismatch { level: 2 })
        );
        // The failed fill cached nothing: the next read fails the same way.
        assert!(!is_cached(&m, (1, 0)));
        assert_eq!(
            m.read_block(Addr(0)),
            Err(IntegrityError::TreeMismatch { level: 2 })
        );
        assert_eq!(
            m.read_block(Addr(64 * NODE_SPAN)).expect("other node"),
            [64u8; 64]
        );
    }

    #[test]
    fn single_counter_block_memory_works() {
        let mut m = CounterTreeMemory::new(Key128::derive(b"tiny"), 4);
        m.write_block(Addr(0), [1u8; 64]);
        assert_eq!(m.read_block(Addr(0)).expect("verifies"), [1u8; 64]);
        m.tamper_counter(Addr(0), 3);
        assert!(m.read_block(Addr(0)).is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random write / read / counter-tamper / replay streams over
            /// 100 level-1 nodes (so the cache evicts and refills) against
            /// a shadow of the last plaintext per block. A page whose
            /// counter block differs from the one its last verified write
            /// left — or that took a write while it differed — must fail
            /// at level 1; every other written block reads back its last
            /// value, checked after every read and for every block at the
            /// end.
            #[test]
            fn random_streams_match_a_shadow_memory(
                ops in prop::collection::vec(
                    (0u8..6, 0u64..100, 0u64..4, any::<u8>(), any::<usize>()),
                    100..400,
                ),
            ) {
                let mut m = wide();
                let mut shadow: BTreeMap<u64, u8> = BTreeMap::new();
                let mut trusted: BTreeMap<u64, SplitCounterBlock> = BTreeMap::new();
                let mut poisoned: BTreeSet<u64> = BTreeSet::new();
                let mut snaps: BTreeMap<u64, TreeSnapshot> = BTreeMap::new();
                let page_of = |addr: Addr| addr.block().0 / 64;
                let differs = |m: &CounterTreeMemory, trusted: &BTreeMap<u64, SplitCounterBlock>, page: u64| {
                    let fresh = SplitCounterBlock::new();
                    m.counters.get(&page).unwrap_or(&fresh) != trusted.get(&page).unwrap_or(&fresh)
                };
                let check = |m: &CounterTreeMemory,
                             shadow: &BTreeMap<u64, u8>,
                             trusted: &BTreeMap<u64, SplitCounterBlock>,
                             poisoned: &BTreeSet<u64>,
                             addr: Addr| {
                    let page = page_of(addr);
                    let got = m.read_block(addr);
                    match shadow.get(&addr.0) {
                        None => assert!(
                            matches!(got, Err(IntegrityError::NotWritten { .. })),
                            "{got:?}"
                        ),
                        Some(_) if poisoned.contains(&page) || differs(m, trusted, page) => {
                            assert_eq!(got, Err(IntegrityError::TreeMismatch { level: 1 }));
                        }
                        Some(&v) => assert_eq!(got, Ok([v; 64])),
                    }
                };
                for (op, node, sel, value, pick) in ops {
                    let fresh_addr = Addr(node * NODE_SPAN + (sel / 2) * 4096 + (sel % 2) * 64);
                    let written = shadow.keys().nth(pick % shadow.len().max(1)).map(|&a| Addr(a));
                    match op {
                        0 | 1 => {
                            let page = page_of(fresh_addr);
                            if differs(&m, &trusted, page) {
                                poisoned.insert(page);
                            }
                            if let Some(snap) = m.snapshot(fresh_addr) {
                                snaps.insert(fresh_addr.0, snap);
                            }
                            m.write_block(fresh_addr, [value; 64]);
                            shadow.insert(fresh_addr.0, value);
                            let after = m.snapshot(fresh_addr).expect("just written");
                            trusted.insert(page, after.counter_block);
                        }
                        2 => check(&m, &shadow, &trusted, &poisoned, fresh_addr),
                        3 => check(&m, &shadow, &trusted, &poisoned, written.unwrap_or(fresh_addr)),
                        4 => m.tamper_counter(written.unwrap_or(fresh_addr), u64::from(value)),
                        _ => {
                            let victim = written.unwrap_or(fresh_addr);
                            if let Some(snap) = snaps.get(&victim.0) {
                                m.restore(victim, snap.clone());
                            }
                        }
                    }
                }
                for &addr in shadow.keys() {
                    check(&m, &shadow, &trusted, &poisoned, Addr(addr));
                }
                let tree = m.tree.borrow();
                prop_assert!(tree.cache.len() <= tree.capacity);
            }
        }
    }
}
