//! Timing wrappers around the two per-block layer interfaces.
//!
//! [`TimedMemory`] wraps any [`FunctionalMemory`] and [`TimedEngine`] any
//! [`ProtectionEngine`]. Each delegates every trait method to the wrapped
//! value unchanged, so a wrapped session or replay computes exactly what an
//! unwrapped one does; the read/write and access methods are also timed and
//! counted per scheme into the [`trace::Leaf`] counters below.

use crate::trace::{Leaf, LeafTotals};
use std::time::Instant;
use tnpu_memprot::functional::{BlockCapture, FunctionalMemory, IntegrityError};
use tnpu_memprot::{AccessCost, EngineStats, ProtectionEngine, SchemeKind};
use tnpu_sim::{Addr, BlockRun, Cycles, BLOCK_SIZE};

/// Position of `scheme` in [`SchemeKind::ALL`], indexing the counters.
#[must_use]
pub fn scheme_index(scheme: SchemeKind) -> usize {
    SchemeKind::ALL
        .iter()
        .position(|&s| s == scheme)
        .expect("SchemeKind::ALL lists every scheme")
}

static FUNCTIONAL_READS: [Leaf; 4] = [Leaf::new(), Leaf::new(), Leaf::new(), Leaf::new()];
static FUNCTIONAL_WRITES: [Leaf; 4] = [Leaf::new(), Leaf::new(), Leaf::new(), Leaf::new()];
static ENGINE_ACCESSES: [Leaf; 4] = [Leaf::new(), Leaf::new(), Leaf::new(), Leaf::new()];

/// Functional block reads of `scheme` so far.
#[must_use]
pub fn functional_reads(scheme: SchemeKind) -> LeafTotals {
    FUNCTIONAL_READS[scheme_index(scheme)].totals()
}

/// Functional block writes of `scheme` so far.
#[must_use]
pub fn functional_writes(scheme: SchemeKind) -> LeafTotals {
    FUNCTIONAL_WRITES[scheme_index(scheme)].totals()
}

/// Cost-engine accesses of `scheme` so far.
#[must_use]
pub fn engine_accesses(scheme: SchemeKind) -> LeafTotals {
    ENGINE_ACCESSES[scheme_index(scheme)].totals()
}

/// Zero every wrapper counter.
pub fn reset_counters() {
    for leaf in FUNCTIONAL_READS
        .iter()
        .chain(&FUNCTIONAL_WRITES)
        .chain(&ENGINE_ACCESSES)
    {
        leaf.reset();
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`FunctionalMemory`] that times and counts block reads and writes.
#[derive(Debug)]
pub struct TimedMemory<M> {
    inner: M,
    index: usize,
}

impl<M: FunctionalMemory> TimedMemory<M> {
    /// Wrap `inner`.
    pub fn new(inner: M) -> Self {
        let index = scheme_index(inner.scheme());
        TimedMemory { inner, index }
    }
}

impl<M: FunctionalMemory> FunctionalMemory for TimedMemory<M> {
    fn scheme(&self) -> SchemeKind {
        self.inner.scheme()
    }
    fn write_block(&mut self, addr: Addr, version: u64, plaintext: [u8; BLOCK_SIZE]) {
        let start = Instant::now();
        self.inner.write_block(addr, version, plaintext);
        FUNCTIONAL_WRITES[self.index].record(1, elapsed_ns(start));
    }
    fn read_block(&self, addr: Addr, version: u64) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
        let start = Instant::now();
        let r = self.inner.read_block(addr, version);
        FUNCTIONAL_READS[self.index].record(1, elapsed_ns(start));
        r
    }
    fn tamper_bits(&mut self, addr: Addr, bits: &[u16]) -> bool {
        self.inner.tamper_bits(addr, bits)
    }
    fn capture_block(&self, addr: Addr) -> Option<BlockCapture> {
        self.inner.capture_block(addr)
    }
    fn restore_block(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        self.inner.restore_block(addr, capture)
    }
    fn rollback_metadata(&mut self, addr: Addr, capture: &BlockCapture) -> bool {
        self.inner.rollback_metadata(addr, capture)
    }
    fn splice_block(&mut self, donor: Addr, victim: Addr) -> bool {
        self.inner.splice_block(donor, victim)
    }
    fn substitute_mac(&mut self, victim: Addr, donor: Addr) -> bool {
        self.inner.substitute_mac(victim, donor)
    }
    fn dram_contains(&self, needle: &[u8]) -> bool {
        self.inner.dram_contains(needle)
    }
    fn rekey(&mut self, epoch: u64) -> bool {
        self.inner.rekey(epoch)
    }
}

/// A [`ProtectionEngine`] that times and counts block accesses.
pub struct TimedEngine {
    inner: Box<dyn ProtectionEngine>,
    index: usize,
}

impl TimedEngine {
    /// Wrap `inner`, boxed for the APIs that take an engine.
    #[must_use]
    pub fn boxed(inner: Box<dyn ProtectionEngine>) -> Box<dyn ProtectionEngine> {
        let index = scheme_index(inner.scheme());
        Box::new(TimedEngine { inner, index })
    }

    fn timed(
        &mut self,
        blocks: u64,
        f: impl FnOnce(&mut dyn ProtectionEngine) -> AccessCost,
    ) -> AccessCost {
        let start = Instant::now();
        let cost = f(self.inner.as_mut());
        ENGINE_ACCESSES[self.index].record(blocks, elapsed_ns(start));
        cost
    }
}

impl ProtectionEngine for TimedEngine {
    fn scheme(&self) -> SchemeKind {
        self.inner.scheme()
    }
    fn read_block(&mut self, addr: Addr, version: u64) -> AccessCost {
        self.timed(1, |e| e.read_block(addr, version))
    }
    fn write_block(&mut self, addr: Addr, version: u64) -> AccessCost {
        self.timed(1, |e| e.write_block(addr, version))
    }
    fn read_run(&mut self, run: BlockRun, version: u64) -> AccessCost {
        self.timed(run.len, |e| e.read_run(run, version))
    }
    fn write_run(&mut self, run: BlockRun, version: u64) -> AccessCost {
        self.timed(run.len, |e| e.write_run(run, version))
    }
    fn version_access(&mut self, table_addr: Addr, write: bool) -> AccessCost {
        self.inner.version_access(table_addr, write)
    }
    fn pipeline_latency(&self) -> Cycles {
        self.inner.pipeline_latency()
    }
    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn context_state_bytes(&self) -> u64 {
        self.inner.context_state_bytes()
    }
    fn flush(&mut self) -> AccessCost {
        self.inner.flush()
    }
}
