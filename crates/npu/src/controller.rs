//! The shared memory controller.
//!
//! All NPUs' DMA transfers funnel through one controller, which owns the
//! (single, shared) security engine — exactly the paper's multi-NPU setup:
//! *"each NPU has a separate IOMMU while the memory controller and security
//! engine are shared, sharing memory bandwidth and the capacity of metadata
//! caches"* (§V-C).
//!
//! Transfers are served first-come-first-served and occupy the memory
//! system for their full duration:
//!
//! ```text
//! duration = (data + metadata bytes) / bandwidth
//!          + DRAM latency                  (stream fill)
//!          + cipher pipeline latency       (OTP or XTS fill)
//!          + tree-walk latency exposure    (dependent metadata fetches)
//! ```
//!
//! *Independent* metadata fetches (counter blocks, MAC blocks) interleave
//! with the bulk data stream, so they cost bandwidth only. *Dependent*
//! fetches — integrity-tree walk levels, which must verify parent before
//! child — expose DRAM latency; walks for different blocks overlap up to
//! the memory system's MLP depth. This is why counter-cache misses are the
//! baseline's critical bottleneck (paper §III-B) while MAC traffic mainly
//! costs bandwidth (§V-B).

use crate::config::NpuConfig;
use crate::dma::{Dir, Transfer};
use tnpu_memprot::engine::{AccessCost, EngineStats, ProtectionEngine};
use tnpu_sim::dram::{BandwidthModel, DramTiming};
use tnpu_sim::{Addr, Cycles, BLOCK_SIZE};

/// Outcome of serving one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// When the transfer completed.
    pub completion: Cycles,
    /// Payload bytes moved (whole 64 B blocks).
    pub data_bytes: u64,
    /// Security-metadata bytes moved alongside.
    pub meta_bytes: u64,
}

/// FCFS memory controller with an attached protection engine.
pub struct MemoryController {
    engine: Box<dyn ProtectionEngine>,
    bandwidth: BandwidthModel,
    dram: DramTiming,
    free_time: Cycles,
    data_read: u64,
    data_write: u64,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("scheme", &self.engine.scheme())
            .field("free_time", &self.free_time)
            .field("data_read", &self.data_read)
            .field("data_write", &self.data_write)
            .finish()
    }
}

/// Version-table entry address inside the fully-protected region.
///
/// The table is compact (§IV-D: 1.3 KB on average): reads use the
/// tensor-unit entry (8 B per tensor); writes go to the tile-expanded
/// scratch area, which is reused across layers — the expansion is merged
/// back into the tensor entry when the layer completes, so only the
/// currently-produced tensor is ever expanded.
#[must_use]
fn vtable_addr(tensor_id: u32, tile_id: u32, write: bool) -> Addr {
    /// Start of the tile-expansion scratch area.
    const EXPANDED_BASE: u64 = 64 << 10;
    if write {
        Addr(EXPANDED_BASE + u64::from(tile_id % 1024) * 8)
    } else {
        Addr(u64::from(tensor_id) * 8)
    }
}

impl MemoryController {
    /// Build a controller for NPUs of configuration `npu`, fronted by
    /// `engine`.
    #[must_use]
    pub fn new(engine: Box<dyn ProtectionEngine>, npu: &NpuConfig) -> Self {
        MemoryController {
            engine,
            bandwidth: npu.bandwidth,
            dram: npu.dram,
            free_time: Cycles::ZERO,
            data_read: 0,
            data_write: 0,
        }
    }

    /// Serve `transfer`, which became ready at `arrival`. Returns its
    /// completion time and byte counts.
    pub fn serve(&mut self, transfer: &Transfer, arrival: Cycles) -> Served {
        let mut cost = AccessCost::FREE;
        let mut blocks = 0u64;
        let engine = &mut self.engine;
        transfer.pattern.for_each_run(|run| {
            blocks += run.len;
            let c = match transfer.dir {
                Dir::Read => engine.read_run(run, transfer.version),
                Dir::Write => engine.write_run(run, transfer.version),
            };
            cost.merge(c);
        });
        // The accompanying software version-table access (one per
        // mvin/mvout); free for all schemes except tree-less.
        let write = transfer.dir == Dir::Write;
        cost.merge(engine.version_access(
            vtable_addr(transfer.tensor_id, transfer.tile_id, write),
            write,
        ));
        let data_bytes = blocks * BLOCK_SIZE as u64;
        match transfer.dir {
            Dir::Read => self.data_read += data_bytes,
            Dir::Write => self.data_write += data_bytes,
        }
        // Serial (per-block dependent) metadata fetches expose latency;
        // chains from different blocks of the stream overlap up to the
        // MLP depth, so they enter stall() as pipelined misses.
        let duration = self.bandwidth.transfer_time(data_bytes + cost.meta_bytes)
            + self.dram.latency
            + self.engine.pipeline_latency()
            + self.dram.stall(cost.serial_misses, 0);
        let start = self.free_time.max(arrival);
        self.free_time = start + duration;
        Served {
            completion: self.free_time,
            data_bytes,
            meta_bytes: cost.meta_bytes,
        }
    }

    /// Payload bytes read so far.
    #[must_use]
    pub fn data_read(&self) -> u64 {
        self.data_read
    }

    /// Payload bytes written so far.
    #[must_use]
    pub fn data_write(&self) -> u64 {
        self.data_write
    }

    /// Engine statistics so far.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The protection scheme in use.
    #[must_use]
    pub fn scheme(&self) -> tnpu_memprot::SchemeKind {
        self.engine.scheme()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dma::DmaPattern;
    use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};

    fn controller(scheme: SchemeKind) -> MemoryController {
        let engine = build_engine(scheme, &ProtectionConfig::paper_default());
        MemoryController::new(engine, &NpuConfig::small_npu())
    }

    fn read_4kb(at: u64) -> Transfer {
        Transfer {
            pattern: DmaPattern::Contiguous {
                base: Addr(at),
                bytes: 4096,
            },
            dir: Dir::Read,
            tensor_id: 1,
            tile_id: 0,
            version: 1,
        }
    }

    #[test]
    fn unsecure_transfer_time_is_bandwidth_plus_latency() {
        let mut c = controller(SchemeKind::Unsecure);
        let served = c.serve(&read_4kb(0), Cycles::ZERO);
        // 4096 B at 4 B/cyc = 1024, plus 275 cycles DRAM latency (100 ns
        // at the Small NPU's 2.75 GHz).
        assert_eq!(served.completion, Cycles(1299));
        assert_eq!(served.data_bytes, 4096);
        assert_eq!(served.meta_bytes, 0);
    }

    #[test]
    fn fcfs_queues_back_to_back() {
        let mut c = controller(SchemeKind::Unsecure);
        let first = c.serve(&read_4kb(0), Cycles::ZERO);
        // Second transfer arrives early: starts when the first finishes.
        let second = c.serve(&read_4kb(8192), Cycles(10));
        assert_eq!(second.completion, first.completion + Cycles(1299));
        // Third arrives late: starts at its arrival.
        let third = c.serve(&read_4kb(16384), second.completion + Cycles(500));
        assert_eq!(third.completion.0, second.completion.0 + 500 + 1299);
    }

    #[test]
    fn protected_streams_are_slower_and_ordered() {
        // Stream 1 MB back-to-back: TNPU's one-off version-table warm-up
        // amortizes away, and the steady-state ordering emerges:
        // unsecure < tree-less < tree-based.
        let mut unsec = controller(SchemeKind::Unsecure);
        let mut tnpu = controller(SchemeKind::Treeless);
        let mut tree = controller(SchemeKind::TreeBased);
        let (mut u, mut l, mut t) = (Cycles::ZERO, Cycles::ZERO, Cycles::ZERO);
        for i in 0..256u64 {
            u = unsec.serve(&read_4kb(i * 4096), Cycles::ZERO).completion;
            l = tnpu.serve(&read_4kb(i * 4096), Cycles::ZERO).completion;
            t = tree.serve(&read_4kb(i * 4096), Cycles::ZERO).completion;
        }
        assert!(u < l, "tnpu adds MAC traffic: {u} vs {l}");
        assert!(l < t, "tree adds counter+tree walks: {l} vs {t}");
    }

    #[test]
    fn traffic_accounting_by_direction() {
        let mut c = controller(SchemeKind::Unsecure);
        c.serve(&read_4kb(0), Cycles::ZERO);
        let mut w = read_4kb(4096);
        w.dir = Dir::Write;
        c.serve(&w, Cycles::ZERO);
        assert_eq!(c.data_read(), 4096);
        assert_eq!(c.data_write(), 4096);
    }

    #[test]
    fn version_traffic_appears_only_for_treeless() {
        let mut tnpu = controller(SchemeKind::Treeless);
        tnpu.serve(&read_4kb(0), Cycles::ZERO);
        assert!(tnpu.engine_stats().traffic.version > 0);
        let mut tree = controller(SchemeKind::TreeBased);
        tree.serve(&read_4kb(0), Cycles::ZERO);
        assert_eq!(tree.engine_stats().traffic.version, 0);
    }

    #[test]
    fn vtable_addresses_are_compact() {
        // Tensor-unit read entries: 8 B apart.
        assert_ne!(vtable_addr(0, 0, false), vtable_addr(1, 0, false));
        assert_eq!(vtable_addr(1, 0, false).0, 8);
        // Reads of different tiles share the tensor entry.
        assert_eq!(vtable_addr(3, 0, false), vtable_addr(3, 9, false));
        // Writes use the tile-expansion scratch, distinct per tile.
        assert_ne!(vtable_addr(0, 0, true), vtable_addr(0, 1, true));
        assert_ne!(vtable_addr(0, 0, true), vtable_addr(0, 0, false));
    }
}
