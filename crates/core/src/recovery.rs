//! Fault recovery for the functional sessions: bounded retry and epoch-sweep
//! cost accounting.
//!
//! The adversary model (persistent, targeted tampering) is not the only
//! thing that makes a MAC check fail. Environmental faults — a bit flip
//! on the bus that is gone on the next fetch, a stalled DMA transfer, a
//! glitch in the crypto engine — produce the *same* `MacMismatch` but are
//! recoverable by simply fetching and verifying again. This module gives
//! every [`Session`](crate::session::Session) that second
//! chance, with two invariants the tests pin down:
//!
//! * **Retries are never free.** Every re-fetch is charged through the
//!   same [`ProtectionEngine`] cycle model the NPU controller uses
//!   (transfer time for data + metadata, DRAM latency, pipeline latency,
//!   exposed miss stalls), plus an exponential backoff between attempts.
//!   Recovery changes the *latency* picture, never the security one.
//! * **Retries never mask persistence.** The retry budget is bounded; a
//!   block that still fails after `max_retries` re-fetches escalates to
//!   the caller as the original integrity error — a persistent fault or
//!   a real attack, and indistinguishable from one on purpose.
//!
//! The second recovery mechanism is the *re-encryption epoch sweep*
//! consumed on [`VersionError::Exhausted`](crate::version::VersionError):
//! re-key the memory, reset every version to 0, and re-encrypt every live
//! tensor under the new epoch. Its DMA + crypto cost is charged here too,
//! so the (rare) sweep shows up honestly in the cycle report.
//!
//! This file is under the `unchecked-arith` lint: all cycle accounting
//! uses saturating arithmetic, so a hostile cost report cannot wrap the
//! totals.

use tnpu_memprot::{AccessCost, ProtectionEngine};
use tnpu_sim::dram::{BandwidthModel, DramTiming};
use tnpu_sim::{Addr, BLOCK_SIZE};

/// How hard the runner tries before declaring a fault persistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-fetch attempts after the first failing read (0 disables retry).
    pub max_retries: u32,
    /// Cycles of backoff before the first retry.
    pub backoff_base: u64,
    /// Multiplier applied to the backoff after each attempt.
    pub backoff_factor: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base: 32,
            backoff_factor: 2,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged before retry number `attempt` (0-based):
    /// `base * factor^attempt`, saturating.
    #[must_use]
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        let mut cycles = self.backoff_base;
        for _ in 0..attempt {
            cycles = cycles.saturating_mul(self.backoff_factor);
        }
        cycles
    }
}

/// What recovery has cost so far, in events and cycles.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Re-fetch attempts issued (including ones that failed again).
    pub retries: u64,
    /// Reads that failed at least once and then verified on a retry.
    pub recovered_reads: u64,
    /// Reads escalated as persistent (budget exhausted or not retryable).
    pub escalated_reads: u64,
    /// Re-encryption epoch sweeps completed.
    pub sweeps: u64,
    /// Blocks re-encrypted by sweeps (each charged a read and a write).
    pub sweep_blocks: u64,
    /// Cycles charged to retries (re-fetch cost plus backoff).
    pub retry_cycles: u64,
    /// Cycles charged to epoch sweeps (full-tensor DMA + crypto).
    pub sweep_cycles: u64,
}

impl RecoveryStats {
    /// Everything recovery cost, in cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.retry_cycles.saturating_add(self.sweep_cycles)
    }
}

/// Retry/sweep state attached to a session by
/// [`enable_recovery`](crate::session::Session::enable_recovery).
///
/// Owns the cycle-cost [`ProtectionEngine`] matching the runner's
/// functional scheme, so recovery traffic is priced by the same model the
/// NPU controller uses for regular traffic.
pub struct Recovery {
    pub(crate) policy: RetryPolicy,
    engine: Box<dyn ProtectionEngine>,
    bandwidth: BandwidthModel,
    dram: DramTiming,
    pub(crate) stats: RecoveryStats,
}

impl std::fmt::Debug for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recovery")
            .field("policy", &self.policy)
            .field("scheme", &self.engine.scheme())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Recovery {
    /// Recovery priced against the large-NPU memory system (22 B/cycle,
    /// paper DRAM timing) — the configuration the headline figures use.
    #[must_use]
    pub fn new(policy: RetryPolicy, engine: Box<dyn ProtectionEngine>) -> Self {
        Recovery {
            policy,
            engine,
            bandwidth: BandwidthModel::bytes_per_cycle(22, 1),
            dram: DramTiming::paper_default(),
            stats: RecoveryStats::default(),
        }
    }

    /// Costs accrued so far.
    #[must_use]
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Cycles one 64 B block access costs under `cost` — the shared DMA
    /// beat formula ([`AccessCost::beat_cycles`]) priced against this
    /// recovery's memory system and the engine's pipeline latency.
    fn access_cycles(&self, cost: AccessCost) -> u64 {
        cost.beat_cycles(
            BLOCK_SIZE as u64,
            &self.bandwidth,
            &self.dram,
            self.engine.pipeline_latency(),
        )
    }

    /// Charge one re-fetch of `(addr, version)`: the verified-read cost
    /// plus the exponential backoff for 0-based retry `attempt`.
    pub(crate) fn charge_retry(&mut self, addr: Addr, version: u64, attempt: u32) {
        let cost = self.engine.read_block(addr, version);
        let cycles = self
            .access_cycles(cost)
            .saturating_add(self.policy.backoff_cycles(attempt));
        self.stats.retries = self.stats.retries.saturating_add(1);
        self.stats.retry_cycles = self.stats.retry_cycles.saturating_add(cycles);
    }

    /// Charge one sweep-phase verified read of a block being re-encrypted.
    pub(crate) fn charge_sweep_read(&mut self, addr: Addr, version: u64) {
        let cost = self.engine.read_block(addr, version);
        let cycles = self.access_cycles(cost);
        self.stats.sweep_cycles = self.stats.sweep_cycles.saturating_add(cycles);
    }

    /// Charge one sweep-phase re-encrypting write under the new epoch.
    pub(crate) fn charge_sweep_write(&mut self, addr: Addr, version: u64) {
        let cost = self.engine.write_block(addr, version);
        let cycles = self.access_cycles(cost);
        self.stats.sweep_blocks = self.stats.sweep_blocks.saturating_add(1);
        self.stats.sweep_cycles = self.stats.sweep_cycles.saturating_add(cycles);
    }

    /// Mark one sweep complete.
    pub(crate) fn note_sweep(&mut self) {
        self.stats.sweeps = self.stats.sweeps.saturating_add(1);
    }

    /// Mark a read that recovered after at least one retry.
    pub(crate) fn note_recovered(&mut self) {
        self.stats.recovered_reads = self.stats.recovered_reads.saturating_add(1);
    }

    /// Mark a read escalated as persistent.
    pub(crate) fn note_escalated(&mut self) {
        self.stats.escalated_reads = self.stats.escalated_reads.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_cycles(0), 32);
        assert_eq!(p.backoff_cycles(1), 64);
        assert_eq!(p.backoff_cycles(3), 256);
        let huge = RetryPolicy {
            max_retries: 200,
            backoff_base: u64::MAX / 2,
            backoff_factor: u64::MAX,
        };
        assert_eq!(huge.backoff_cycles(64), u64::MAX, "saturates, no wrap");
    }

    #[test]
    fn retries_are_charged_real_cycles() {
        let engine = build_engine(SchemeKind::Treeless, &ProtectionConfig::paper_default());
        let mut r = Recovery::new(RetryPolicy::default(), engine);
        r.charge_retry(Addr(0), 1, 0);
        let s = r.stats();
        assert_eq!(s.retries, 1);
        // At minimum: 64 B transfer at 22 B/cyc (3 cycles) + 100 DRAM
        // latency + backoff 32.
        assert!(s.retry_cycles > 100, "got {}", s.retry_cycles);
        // Later attempts cost more (backoff doubles).
        let before = s.retry_cycles;
        r.charge_retry(Addr(0), 1, 3);
        assert!(r.stats().retry_cycles - before > before);
    }

    #[test]
    fn sweep_charges_reads_writes_and_counts_blocks() {
        let engine = build_engine(SchemeKind::Treeless, &ProtectionConfig::paper_default());
        let mut r = Recovery::new(RetryPolicy::default(), engine);
        r.charge_sweep_read(Addr(0), 3);
        r.charge_sweep_write(Addr(0), 1);
        r.note_sweep();
        let s = r.stats();
        assert_eq!(s.sweeps, 1);
        assert_eq!(s.sweep_blocks, 1);
        assert!(s.sweep_cycles > 200, "read + write both priced");
        assert_eq!(s.total_cycles(), s.sweep_cycles + s.retry_cycles);
    }

    #[test]
    fn epoch_sweep_preserves_expanded_tensors() {
        // Regression test for the sweep × dynamic-dataflow interaction:
        // a KV cache mid-sequence is tile-expanded at sweep time and must
        // survive the sweep with its expansion shape, per-tile
        // written/unwritten split, storage accounting, and plaintext all
        // intact — while pre-sweep snapshots turn stale. The old sweep
        // skipped expanded tensors entirely, silently dropping the cache.
        use crate::session::{epoch_sweep_tensors, TILE_BYTES};
        use crate::version::{VersionTable, ENTRY_BYTES};
        use tnpu_crypto::Key128;
        use tnpu_memprot::functional::TreelessMemory;
        use tnpu_npu::alloc::TensorInfo;

        let kv = TensorInfo {
            id: 0,
            addr: Addr(0),
            bytes: 4 * TILE_BYTES, // capacity: 4 tiles; 3 expanded so far
        };
        let weight = TensorInfo {
            id: 1,
            addr: Addr(4 * TILE_BYTES),
            bytes: 2 * BLOCK_SIZE as u64,
        };
        let mut table = VersionTable::new();
        table.register(kv.id);
        table.register(weight.id);
        let mut mem = TreelessMemory::new(Key128::derive(b"sweep-expanded"));

        // Mid-sequence state: 3 tiles expanded, tiles 0/1 at version 2,
        // tile 2 at 1 (the step in flight), tile 3 not yet appended.
        table.expand(kv.id, 2).expect("expand");
        table.expand(kv.id, 3).expect("grow");
        let write_tile = |mem: &mut TreelessMemory, tile: u32, version: u64| {
            for b in 0..TILE_BYTES / BLOCK_SIZE as u64 {
                let addr = kv
                    .addr
                    .offset(u64::from(tile) * TILE_BYTES + b * BLOCK_SIZE as u64);
                mem.write_block(addr, version, [tile as u8 + 1; BLOCK_SIZE]);
            }
        };
        for tile in 0..3u32 {
            table.bump_tile(kv.id, tile).expect("bump");
        }
        for tile in 0..2u32 {
            table.bump_tile(kv.id, tile).expect("bump");
            write_tile(&mut mem, tile, 2);
        }
        write_tile(&mut mem, 2, 1);
        let v = table.bump(weight.id).expect("bump");
        for b in 0..2u64 {
            mem.write_block(
                weight.addr.offset(b * BLOCK_SIZE as u64),
                v,
                [9; BLOCK_SIZE],
            );
        }

        let storage_before = table.storage_bytes();
        let peak_before = table.peak_storage_bytes();
        let stale = table.snapshot(0);
        let mut epoch = 0u64;
        epoch_sweep_tensors(&[kv, weight], &mut table, &mut mem, None, &mut epoch)
            .expect("sweep over intact state");

        assert_eq!(epoch, 1);
        // The expansion shape survives: still expanded, same tile count,
        // written tiles at 1 under the new epoch, storage bytes unmoved.
        assert_eq!(table.is_expanded(kv.id), Ok(true));
        assert_eq!(table.tile_count(kv.id), Ok(3));
        for tile in 0..3 {
            assert_eq!(table.version(kv.id, tile), Ok(1), "tile {tile}");
        }
        assert_eq!(table.version(weight.id, 0), Ok(1));
        assert_eq!(table.storage_bytes(), storage_before);
        assert_eq!(table.storage_bytes(), 3 * ENTRY_BYTES + ENTRY_BYTES);
        assert_eq!(table.peak_storage_bytes(), peak_before);
        // Plaintext round-trips under the new keys and versions.
        for tile in 0..3u32 {
            let addr = kv.addr.offset(u64::from(tile) * TILE_BYTES);
            let block = mem.read_block(addr, 1).expect("verifies in new epoch");
            assert_eq!(block, [tile as u8 + 1; BLOCK_SIZE], "tile {tile}");
        }
        // The growth path still works post-sweep: appending tile 3 seeds
        // it at the current max (1) and its first bump writes at 2.
        table.expand(kv.id, 4).expect("grow post-sweep");
        assert_eq!(table.bump_tile(kv.id, 3), Ok(2));
        // A pre-sweep snapshot is now a typed staleness refusal.
        assert_eq!(
            table.restore(&stale, epoch),
            Err(crate::version::VersionError::StaleSnapshot {
                snapshot: 0,
                current: 1
            })
        );
    }

    #[test]
    fn unsecure_recovery_still_pays_dram_costs() {
        // Even with a free protection engine the re-fetch moves 64 B over
        // the bus and pays DRAM latency — recovery is never zero-cost.
        let engine = build_engine(SchemeKind::Unsecure, &ProtectionConfig::paper_default());
        let mut r = Recovery::new(
            RetryPolicy {
                backoff_base: 0,
                ..RetryPolicy::default()
            },
            engine,
        );
        r.charge_retry(Addr(64), 1, 0);
        assert!(r.stats().retry_cycles >= 100);
    }
}
