//! The functional session core: one secure NPU context over real bytes
//! and real crypto, whatever the workload.
//!
//! TNPU has one mechanism for every workload: software-managed per-tensor
//! versions, expanded into tile versions while a tensor is produced,
//! bumped on every `mvout`, and re-keyed by an epoch sweep when they run
//! out (§III-A, Figs. 9/13). A [`Session`] owns that mechanism once — the
//! model and its address map, the version table, the protected memory, the
//! CPU `ts_*` path, the recovery layer, the re-encryption epoch, the
//! quarantine flag and the input seed — and drives a [`Program`] over it.
//! The program is the only part that differs between workloads: a static
//! inference ([`Static`](crate::secure_runner::Static), one layer per step)
//! or a dynamic-dataflow loop ([`Stepped`](crate::stepped::Stepped), one
//! decoded token or training iteration per step).
//!
//! Layer arithmetic is a deterministic byte-mixing function (a digest of
//! the verified inputs seeds the output bytes) — enough to carry data-flow
//! dependencies end-to-end without simulating FP math. Use small models
//! for functional runs: every byte really is encrypted and MAC'd.

use crate::cpu_access::CpuTensorAccess;
use crate::recovery::{Recovery, RecoveryStats, RetryPolicy};
use crate::serving::Switcher;
use crate::version::{VersionError, VersionSnapshot, VersionTable};
use tnpu_crypto::sha256::Sha256;
use tnpu_crypto::Key128;
use tnpu_memprot::functional::{FunctionalMemory, IntegrityError, MismatchCause, TreelessMemory};
use tnpu_memprot::ProtectionEngine;
use tnpu_models::{Layer, Model};
use tnpu_npu::alloc::{ModelLayout, TensorInfo};
use tnpu_npu::config::NpuConfig;
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// Tile granularity (bytes) for output production (per-tile version bump).
pub const TILE_BYTES: u64 = 16 << 10;

/// Why a secure session call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A block failed MAC verification on `mvin`.
    Integrity(IntegrityError),
    /// Version management was misused (indicates a runner bug).
    Version(VersionError),
    /// The program has no step left (the inference completed, or a decode
    /// session's KV capacity is spent).
    Finished,
    /// An earlier call on this context failed with an integrity or
    /// version error, quarantining it: the in-flight step may have
    /// consumed corrupted state, so every further call is refused until
    /// [`Session::recover`] re-establishes a consistent epoch.
    Poisoned,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Integrity(e) => write!(f, "integrity violation: {e}"),
            RunError::Version(e) => write!(f, "version management error: {e}"),
            RunError::Finished => write!(f, "inference already finished"),
            RunError::Poisoned => {
                write!(
                    f,
                    "context is quarantined by an earlier failure (recover first)"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<IntegrityError> for RunError {
    fn from(e: IntegrityError) -> Self {
        RunError::Integrity(e)
    }
}

impl From<VersionError> for RunError {
    fn from(e: VersionError) -> Self {
        RunError::Version(e)
    }
}

/// What a workload supplies to a [`Session`]: its cursor and per-step
/// state, the tensors the constructor initializes, the step itself (with
/// its own pre-flight sweep rule), the order the epoch sweep captures
/// tensors in, and what recovery does with the interrupted step.
pub trait Program: Clone + std::fmt::Debug {
    /// The per-step execution record.
    type Trace;

    /// Build the program for a model whose tensors are all registered at
    /// version 0. `init` bumps one tensor to version 1, writes synthetic
    /// contents through the CPU `ts_write` path and returns those bytes;
    /// the program calls it, in order, for exactly the tensors it starts
    /// with.
    fn start(
        model: &Model,
        layout: &ModelLayout,
        init: &mut dyn FnMut(TensorInfo) -> Vec<u8>,
    ) -> Self;

    /// Every tensor an epoch sweep must preserve, in capture order. The
    /// order fixes which metadata the recovery engine charges the sweep
    /// for, so it is part of each program's reported sweep cycles.
    fn sweep_set(&self, model: &Model, layout: &ModelLayout) -> Vec<TensorInfo>;

    /// Execute one step.
    ///
    /// # Errors
    ///
    /// [`RunError::Finished`] when no step remains; any other error
    /// quarantines the session.
    fn step<M: FunctionalMemory>(
        &mut self,
        core: &mut SessionCore<M>,
    ) -> Result<Self::Trace, RunError>;

    /// Called once [`Session::recover`]'s sweep has lifted a quarantine.
    fn recovered(&mut self, model: &Model);
}

/// The state every session shares, whatever its [`Program`]. Programs
/// reach it through their [`Program::step`]; callers go through
/// [`Session`].
#[derive(Debug)]
pub struct SessionCore<M> {
    pub(crate) model: Model,
    pub(crate) layout: ModelLayout,
    pub(crate) table: VersionTable,
    pub(crate) mem: M,
    pub(crate) cpu: CpuTensorAccess,
    /// Seed of the current inference's (or session's) synthetic input.
    pub(crate) seed: u64,
    /// Retry/sweep machinery; `None` (the default) reproduces the
    /// pre-recovery behavior exactly — fail on the first bad read.
    pub(crate) recovery: Option<Recovery>,
    /// Re-encryption epoch (bumped by each sweep; 0 = initial keys).
    epoch: u64,
    /// Set when a call fails with anything but [`RunError::Finished`].
    poisoned: bool,
    /// The program's [`Program::sweep_set`], fixed at construction.
    sweep_set: Vec<TensorInfo>,
}

/// One functional secure NPU context running the program `P`.
///
/// Generic over the [`FunctionalMemory`] the context computes on: the
/// paper's tree-less scheme by default ([`Session::new`]), and every
/// scheme in the adversary and fault harnesses.
#[derive(Debug)]
pub struct Session<M, P> {
    pub(crate) core: SessionCore<M>,
    pub(crate) program: P,
}

/// The architectural state a preempted context saves through the
/// fully-protected region: the epoch-tagged version-table snapshot, the
/// program cursor, and the input seed. Produced by [`Session::suspend`],
/// consumed by [`Session::resume`].
///
/// The tensor data itself stays in protected DRAM — versioned MACs make it
/// self-authenticating, so a context switch moves only this (KB-scale)
/// state, which is exactly what the serving layer charges as
/// protected-region DMA. Mid-sequence the table carries one entry per
/// expanded KV-cache tile, so a decode snapshot grows with the sequence.
#[derive(Debug, Clone)]
pub struct Snapshot<P> {
    table: VersionSnapshot,
    program: P,
    seed: u64,
}

impl<P> Snapshot<P> {
    /// The re-encryption epoch the snapshot was taken in.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Version-table bytes the snapshot carries (the DMA payload of the
    /// save/restore).
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        self.table.bytes()
    }
}

impl<P: Program> Session<TreelessMemory, P> {
    /// Set up a tree-less context with keys derived from `master_key`.
    #[must_use]
    pub fn new(model: &Model, master_key: Key128, seed: u64) -> Self {
        Self::with_memory(model, TreelessMemory::new(master_key), seed)
    }
}

impl<M: FunctionalMemory, P: Program> Session<M, P> {
    /// Set up the context over an existing memory: allocate tensors,
    /// register them in the version table, and let the program initialize
    /// its starting tensors through the CPU `ts_write` path with
    /// deterministic synthetic contents.
    #[must_use]
    pub fn with_memory(model: &Model, mut mem: M, seed: u64) -> Self {
        let layout = ModelLayout::allocate(model, Addr(0));
        let mut table = VersionTable::new();
        for t in registered_tensors(model, &layout) {
            table.register(t.id);
        }
        let mut cpu = CpuTensorAccess::new();
        let program = P::start(model, &layout, &mut |t: TensorInfo| {
            // tnpu-lint: allow(panic-path) — every tensor was registered
            // just above at version 0 under the default u64::MAX limit.
            let version = table.bump(t.id).expect("registered");
            let bytes = synth_bytes(seed, t.id, t.bytes);
            cpu.write_tensor(&mut mem, t.addr, version, &bytes);
            bytes
        });
        let sweep_set = program.sweep_set(model, &layout);
        Session {
            core: SessionCore {
                model: model.clone(),
                layout,
                table,
                mem,
                cpu,
                seed,
                recovery: None,
                epoch: 0,
                poisoned: false,
                sweep_set,
            },
            program,
        }
    }

    /// Attach fault recovery: verified reads that fail with a *transient*
    /// signature (stalled transfer, content-cause MAC mismatch, tree
    /// mismatch) are re-fetched up to the policy's budget, each attempt
    /// charged real cycles through `engine`, and version exhaustion is
    /// consumed by a re-encryption epoch sweep instead of aborting — for
    /// decode and training churn the *normal* operating mode. `engine`
    /// should be the cycle-cost engine matching this context's functional
    /// scheme so recovery traffic is priced consistently.
    pub fn enable_recovery(&mut self, policy: RetryPolicy, engine: Box<dyn ProtectionEngine>) {
        self.core.recovery = Some(Recovery::new(policy, engine));
    }

    /// What recovery has cost so far (`None` until
    /// [`enable_recovery`](Self::enable_recovery)).
    #[must_use]
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.core.recovery.as_ref().map(Recovery::stats)
    }

    /// Lower the version-exhaustion threshold (tests and the fault
    /// harness use this to reach the epoch sweep without 2^64 bumps).
    /// Note a limit of 1 leaves the sweep no headroom — the sweep itself
    /// rewrites every live tensor at version 1, so the next bump is
    /// exhausted again and the run aborts; meaningful recovery needs a
    /// limit of at least 2.
    pub fn set_version_limit(&mut self, limit: u64) {
        self.core.table.set_limit(limit);
    }

    /// Current re-encryption epoch (0 until the first sweep).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.core.epoch
    }

    /// Whether an earlier failure has quarantined this context.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.core.poisoned
    }

    /// The version table (inspection).
    #[must_use]
    pub fn version_table(&self) -> &VersionTable {
        &self.core.table
    }

    /// The model this context runs.
    #[must_use]
    pub fn model(&self) -> &Model {
        &self.core.model
    }

    /// The address map.
    #[must_use]
    pub fn layout(&self) -> &ModelLayout {
        &self.core.layout
    }

    /// The untrusted protected memory, read-only (the adversary's
    /// observe hook).
    #[must_use]
    pub fn memory(&self) -> &M {
        &self.core.mem
    }

    /// The untrusted protected memory — the attack hook for tests.
    pub fn memory_mut(&mut self) -> &mut M {
        &mut self.core.mem
    }

    /// Cycles a preemption of this context costs *right now* — one spill
    /// plus one restore of the live version table through the serving
    /// layer's context-switch cost model. Mid-sequence a decode table
    /// carries one entry per expanded cache tile, so the price of
    /// preempting it grows with its position in the sequence.
    #[must_use]
    pub fn preemption_cycles(&self, config: &NpuConfig) -> u64 {
        let mut switcher = Switcher::new(self.core.mem.scheme(), config);
        let vt_bytes = self.core.table.storage_bytes();
        switcher.charge(vt_bytes, true) + switcher.charge(vt_bytes, false)
    }

    /// Run `f` unless the context is quarantined, and quarantine it if
    /// `f` fails with anything but [`RunError::Finished`].
    pub(crate) fn guarded<T>(
        &mut self,
        f: impl FnOnce(&mut P, &mut SessionCore<M>) -> Result<T, RunError>,
    ) -> Result<T, RunError> {
        if self.core.poisoned {
            return Err(RunError::Poisoned);
        }
        let r = f(&mut self.program, &mut self.core);
        if matches!(&r, Err(e) if !matches!(e, RunError::Finished)) {
            self.core.poisoned = true;
        }
        r
    }

    /// Execute the program's next step; returns its trace.
    ///
    /// # Errors
    ///
    /// [`RunError::Integrity`] when a verified read fails (tampering /
    /// replay detected); [`RunError::Version`] on exhaustion without
    /// recovery; [`RunError::Finished`] when no step remains;
    /// [`RunError::Poisoned`] if the context is quarantined.
    pub fn step(&mut self) -> Result<P::Trace, RunError> {
        self.guarded(|program, core| program.step(core))
    }

    /// Read the output (the last layer's tensor) back on the CPU side
    /// (post-processing, Fig. 3), verifying every block. With recovery
    /// enabled each block fetch gets the retry budget.
    ///
    /// # Errors
    ///
    /// [`RunError::Integrity`] if the output fails verification;
    /// [`RunError::Poisoned`] if the context is quarantined.
    pub fn read_output(&mut self) -> Result<Vec<u8>, RunError> {
        self.guarded(|_, core| core.read_output())
    }

    /// Attempt to lift the quarantine after a failure: run an epoch sweep
    /// to re-establish a consistent state (fresh keys, versions reset,
    /// all intact tensors re-encrypted). On success the context is clean
    /// and the program decides what happens to the interrupted work (see
    /// [`Program::recovered`]). If the memory still holds state that fails
    /// verification even after retries — a persistent fault or a real
    /// attack — the sweep reports it and the context *stays* poisoned.
    ///
    /// # Errors
    ///
    /// Propagates the sweep's [`RunError::Integrity`] on persistent
    /// tampering.
    pub fn recover(&mut self) -> Result<(), RunError> {
        self.core.epoch_sweep()?;
        self.core.poisoned = false;
        self.program.recovered(&self.core.model);
        Ok(())
    }

    /// Suspend the context at a step boundary for a context switch:
    /// capture the epoch-tagged version-table snapshot plus the program
    /// cursor and input seed. The tensor data stays in protected DRAM
    /// (self-authenticating under the versioned MACs); only this snapshot
    /// leaves the NPU.
    ///
    /// # Errors
    ///
    /// [`RunError::Poisoned`] if the context is quarantined — a poisoned
    /// context must not smuggle its state past the quarantine via a
    /// suspend/resume cycle.
    pub fn suspend(&self) -> Result<Snapshot<P>, RunError> {
        if self.core.poisoned {
            return Err(RunError::Poisoned);
        }
        Ok(Snapshot {
            table: self.core.table.snapshot(self.core.epoch),
            program: self.program.clone(),
            seed: self.core.seed,
        })
    }

    /// Resume from a [`suspend`](Self::suspend) snapshot, re-validating
    /// its epoch tag against the context's current epoch.
    ///
    /// # Errors
    ///
    /// [`RunError::Version`] with [`VersionError::StaleSnapshot`] if an
    /// epoch sweep ran while the context was suspended — restoring
    /// pre-sweep versions under post-sweep keys is the replay hazard the
    /// epoch tag closes. The attempt quarantines the context (an attempted
    /// rollback, whether bug or attack, leaves its scheduling state
    /// untrustworthy). [`RunError::Poisoned`] if already quarantined.
    pub fn resume(&mut self, snapshot: &Snapshot<P>) -> Result<(), RunError> {
        self.guarded(|program, core| {
            core.table.restore(&snapshot.table, core.epoch)?;
            program.clone_from(&snapshot.program);
            core.seed = snapshot.seed;
            Ok(())
        })
    }
}

impl<M: FunctionalMemory> SessionCore<M> {
    /// The session output: the last layer's output slot.
    pub(crate) fn output(&self) -> TensorInfo {
        // tnpu-lint: allow(panic-path) — Model construction rejects empty
        // layer lists, so `outputs` is never empty.
        *self.layout.outputs.last().expect("models have layers")
    }

    /// Verify + read one whole tensor (every block, under its current
    /// version), feeding the digest. Returns the blocks read.
    pub(crate) fn ingest_tensor(
        &mut self,
        digest: &mut Sha256,
        info: TensorInfo,
    ) -> Result<u64, RunError> {
        let version = self.table.version(info.id, 0)?;
        let blocks = info.bytes.div_ceil(BLOCK_SIZE as u64);
        for b in 0..blocks {
            let data = read_with_retry(
                &self.mem,
                self.recovery.as_mut(),
                info.addr.offset(b * BLOCK_SIZE as u64),
                version,
            )?;
            digest.update(&data);
        }
        Ok(blocks)
    }

    /// The mvout discipline for a produced tensor: expand `out` into
    /// [`TILE_BYTES`] tiles, write each tile from the `state` digest under
    /// its own bumped version, then merge. Returns `(tiles, blocks
    /// written)`.
    pub(crate) fn produce(
        &mut self,
        out: TensorInfo,
        state: &[u8; 32],
    ) -> Result<(u32, u64), RunError> {
        let tiles = out.bytes.div_ceil(TILE_BYTES).max(1) as u32;
        self.table.expand(out.id, tiles)?;
        let mut blocks_written = 0;
        for tile in 0..tiles {
            let version = self.table.bump_tile(out.id, tile)?;
            let tile_base = u64::from(tile) * TILE_BYTES;
            let tile_len = TILE_BYTES.min(out.bytes - tile_base);
            let mut rng = SplitMix64::new(state_seed(state) ^ u64::from(tile));
            let mut off = 0;
            while off < tile_len {
                let mut block = [0u8; BLOCK_SIZE];
                for chunk in block.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
                self.mem
                    .write_block(out.addr.offset(tile_base + off), version, block);
                blocks_written += 1;
                off += BLOCK_SIZE as u64;
            }
        }
        self.table.merge(out.id)?;
        Ok((tiles, blocks_written))
    }

    /// Bump a single-entry tensor, consuming exhaustion with an epoch
    /// sweep when recovery is enabled (and recording it in `swept`).
    pub(crate) fn bump_or_sweep(&mut self, id: u32, swept: &mut bool) -> Result<u64, RunError> {
        match self.table.bump(id) {
            Err(VersionError::Exhausted(_)) if self.recovery.is_some() => {
                self.epoch_sweep()?;
                *swept = true;
                Ok(self.table.bump(id)?)
            }
            r => Ok(r?),
        }
    }

    /// Write fresh synthetic input contents from `seed` under a bumped
    /// input version.
    pub(crate) fn write_input(&mut self, seed: u64, swept: &mut bool) -> Result<(), RunError> {
        let input = self.layout.input;
        let version = self.bump_or_sweep(input.id, swept)?;
        let bytes = synth_bytes(seed, input.id, input.bytes);
        self.cpu
            .write_tensor(&mut self.mem, input.addr, version, &bytes);
        Ok(())
    }

    fn read_output(&mut self) -> Result<Vec<u8>, RunError> {
        let last = self.output();
        let version = self.table.version(last.id, 0)?;
        let blocks = last.bytes.div_ceil(BLOCK_SIZE as u64);
        let mut out = Vec::with_capacity(last.bytes as usize);
        for b in 0..blocks {
            let addr = last.addr.offset(b * BLOCK_SIZE as u64);
            out.extend_from_slice(&read_with_retry(
                &self.mem,
                self.recovery.as_mut(),
                addr,
                version,
            )?);
        }
        out.truncate(last.bytes as usize);
        Ok(out)
    }

    /// Re-encryption epoch sweep over the program's sweep set (see
    /// [`epoch_sweep_tensors`]). With recovery enabled, the full DMA +
    /// crypto cost of the sweep is charged to `sweep_cycles`.
    ///
    /// # Errors
    ///
    /// [`RunError::Integrity`] if a live block fails verification even
    /// after retries (persistent tampering). The failure is reported from
    /// the capture phase, *before* any key or version mutates.
    pub(crate) fn epoch_sweep(&mut self) -> Result<(), RunError> {
        epoch_sweep_tensors(
            &self.sweep_set,
            &mut self.table,
            &mut self.mem,
            self.recovery.as_mut(),
            &mut self.epoch,
        )
    }
}

/// The weight tensors the layers of `model` own, in layer order, each
/// with its layer. A layer with tied weights shares its owner's tensor and
/// entry, so it contributes nothing here — but it still owns its output.
pub(crate) fn owned_weights<'a>(
    model: &'a Model,
    layout: &'a ModelLayout,
) -> impl Iterator<Item = (&'a Layer, TensorInfo)> + 'a {
    model
        .layers
        .iter()
        .zip(&layout.weights)
        .filter_map(|(layer, w)| match w {
            Some(w) if layer.weights_shared_with.is_none() => Some((layer, *w)),
            _ => None,
        })
}

/// The registration rule: every tensor a session gives a version-table
/// entry — the input, each owned weight tensor, and every layer output.
pub(crate) fn registered_tensors(model: &Model, layout: &ModelLayout) -> Vec<TensorInfo> {
    let mut out = vec![layout.input];
    out.extend(owned_weights(model, layout).map(|(_, w)| w));
    out.extend(layout.outputs.iter().copied());
    out
}

/// The body of the re-encryption epoch sweep, over an explicit tensor set
/// (consumed on version exhaustion, `VersionError::Exhausted`).
///
/// Capture-verify every live tensor under the current epoch, rotate the
/// memory keys, reset every version, and rewrite the captured contents at
/// version 1 of the new epoch. Reusing the low version numbers is sound
/// *only* because the re-key kills every MAC bound under the old epoch.
/// Single-entry tensors at version 0 are skipped (never written).
/// Tile-expanded tensors — a KV cache stays expanded for the whole decode —
/// keep their expansion shape: written tiles (version > 0) are captured
/// under their own versions and rewritten at 1; never-written tiles stay
/// at 0; the tile count survives, so a mid-sequence producer sees the
/// identical shape in the new epoch. Tile geometry is [`TILE_BYTES`],
/// matching both the layer producer and the KV-append path.
pub(crate) fn epoch_sweep_tensors<M: FunctionalMemory>(
    tensors: &[TensorInfo],
    table: &mut VersionTable,
    mem: &mut M,
    mut recovery: Option<&mut Recovery>,
    epoch: &mut u64,
) -> Result<(), RunError> {
    let mut saved: Vec<(TensorInfo, Vec<[u8; BLOCK_SIZE]>)> = Vec::new();
    // (tensor, expansion tile count, written tiles with their blocks)
    type SavedTile = (u32, Vec<[u8; BLOCK_SIZE]>);
    let mut saved_expanded: Vec<(TensorInfo, u32, Vec<SavedTile>)> = Vec::new();
    for &t in tensors {
        if table.is_expanded(t.id)? {
            let count = table.tile_count(t.id)?;
            let mut tiles: Vec<SavedTile> = Vec::new();
            for tile in 0..count {
                let tile_base = u64::from(tile) * TILE_BYTES;
                if tile_base >= t.bytes {
                    break; // expansion past the allocation holds no data
                }
                let version = table.version(t.id, tile)?;
                if version == 0 {
                    continue; // never-written tile: nothing to capture
                }
                let tile_len = TILE_BYTES.min(t.bytes - tile_base);
                let blocks = tile_len.div_ceil(BLOCK_SIZE as u64);
                let mut data = Vec::with_capacity(blocks as usize);
                for b in 0..blocks {
                    let addr = t.addr.offset(tile_base + b * BLOCK_SIZE as u64);
                    let block = read_with_retry(mem, recovery.as_deref_mut(), addr, version)?;
                    if let Some(rec) = recovery.as_deref_mut() {
                        rec.charge_sweep_read(addr, version);
                    }
                    data.push(block);
                }
                tiles.push((tile, data));
            }
            saved_expanded.push((t, count, tiles));
            continue;
        }
        let version = table.version(t.id, 0)?;
        if version == 0 {
            continue;
        }
        let blocks = t.bytes.div_ceil(BLOCK_SIZE as u64);
        let mut data = Vec::with_capacity(blocks as usize);
        for b in 0..blocks {
            let addr = t.addr.offset(b * BLOCK_SIZE as u64);
            let block = read_with_retry(mem, recovery.as_deref_mut(), addr, version)?;
            if let Some(rec) = recovery.as_deref_mut() {
                rec.charge_sweep_read(addr, version);
            }
            data.push(block);
        }
        saved.push((t, data));
    }
    *epoch = epoch.wrapping_add(1);
    mem.rekey(*epoch);
    table.reset_epoch();
    for (t, data) in saved {
        let version = table.bump(t.id)?; // 0 -> 1 under the new epoch
        for (b, block) in data.into_iter().enumerate() {
            let addr = t.addr.offset(b as u64 * BLOCK_SIZE as u64);
            mem.write_block(addr, version, block);
            if let Some(rec) = recovery.as_deref_mut() {
                rec.charge_sweep_write(addr, version);
            }
        }
    }
    for (t, count, tiles) in saved_expanded {
        // reset_epoch collapsed the entry to Single(0); restore the
        // expansion shape, then rewrite each written tile at 1.
        table.expand(t.id, count)?;
        for (tile, data) in tiles {
            let version = table.bump_tile(t.id, tile)?; // 0 -> 1
            let tile_base = u64::from(tile) * TILE_BYTES;
            for (b, block) in data.into_iter().enumerate() {
                let addr = t.addr.offset(tile_base + b as u64 * BLOCK_SIZE as u64);
                mem.write_block(addr, version, block);
                if let Some(rec) = recovery.as_deref_mut() {
                    rec.charge_sweep_write(addr, version);
                }
            }
        }
    }
    if let Some(rec) = recovery {
        rec.note_sweep();
    }
    Ok(())
}

/// One verified read with the recovery retry budget. Without recovery
/// this is exactly `mem.read_block` — the first result, pass or fail.
/// With recovery, errors whose cause a re-fetch can plausibly clear (a
/// stalled transfer, a content-cause MAC mismatch from transient bus
/// corruption, a glitched counter fetch) are retried up to the budget,
/// each attempt charged real cycles. Version- and address-cause
/// mismatches are *semantic* — replayed or relocated ciphertext that
/// re-reading the same state cannot fix — and escalate immediately, so
/// retries never launder a replay into a recovery.
pub(crate) fn read_with_retry<M: FunctionalMemory>(
    mem: &M,
    recovery: Option<&mut Recovery>,
    addr: Addr,
    version: u64,
) -> Result<[u8; BLOCK_SIZE], IntegrityError> {
    let first = mem.read_block(addr, version);
    let Some(rec) = recovery else {
        return first;
    };
    let mut last = match first {
        Ok(data) => return Ok(data),
        Err(e) => e,
    };
    for attempt in 0..rec.policy.max_retries {
        if !retryable(&last) {
            break;
        }
        rec.charge_retry(addr, version, attempt);
        match mem.read_block(addr, version) {
            Ok(data) => {
                rec.note_recovered();
                return Ok(data);
            }
            Err(e) => last = e,
        }
    }
    rec.note_escalated();
    Err(last)
}

/// Whether a re-fetch has any chance of clearing this error.
fn retryable(e: &IntegrityError) -> bool {
    match e {
        // Transient signatures: a dropped/stalled transfer or flipped bits
        // may read back clean on the next attempt.
        IntegrityError::Stalled { .. } | IntegrityError::TreeMismatch { .. } => true,
        IntegrityError::MacMismatch { cause, .. } => matches!(cause, MismatchCause::Content),
        // Reading a never-written block is an addressing bug in the
        // runner, not a fault: every retry re-reads the same hole.
        IntegrityError::NotWritten { .. } => false,
    }
}

/// Whether [`Session::recover`]'s re-encryption epoch sweep can lift the
/// failure that quarantined a context.
///
/// Integrity failures are sweep-clearable (re-verify, re-key, drop the
/// abandoned inference), as are the version states a sweep resets —
/// exhaustion and a raced stale snapshot. Version-management *misuse*
/// indicates a runner bug: sweeping would mask the defect, so callers
/// should leave the quarantine in place and surface the error.
#[must_use]
pub fn sweep_clearable(e: &RunError) -> bool {
    match e {
        RunError::Integrity(_) => true,
        RunError::Version(v) => match v {
            // The sweep resets every version and re-snapshots: these two
            // states are exactly what it exists to clear.
            VersionError::Exhausted(_) | VersionError::StaleSnapshot { .. } => true,
            // Misuse of the version table: a sweep cannot fix the runner.
            VersionError::UnknownTensor(_)
            | VersionError::NoSuchTile { .. }
            | VersionError::TilesNotUniform(_)
            | VersionError::AlreadyExpanded(_)
            | VersionError::NotExpanded(_) => false,
        },
        RunError::Finished | RunError::Poisoned => false,
    }
}

/// Deterministic synthetic tensor contents.
pub(crate) fn synth_bytes(seed: u64, tensor: u32, len: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed.wrapping_add(u64::from(tensor) << 32));
    let mut out = Vec::with_capacity(len as usize);
    while (out.len() as u64) < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len as usize);
    out
}

/// The first eight digest bytes as a little-endian RNG seed.
pub(crate) fn state_seed(state: &[u8; 32]) -> u64 {
    let mut seed = [0u8; 8];
    // tnpu-lint: allow(panic-path) — `[..8]` of a `[u8; 32]` parameter.
    seed.copy_from_slice(&state[..8]);
    u64::from_le_bytes(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure_runner::SecureRunner;
    use crate::stepped::SteppedSession;
    use tnpu_memprot::SchemeKind;
    use tnpu_models::registry;

    /// A mid-run snapshot carries exactly the live table, and the
    /// preemption price is the `Switcher` charge for that many bytes, out
    /// and back in.
    fn assert_snapshot_is_the_live_table<P: Program>(s: &Session<TreelessMemory, P>) {
        let config = NpuConfig::small_npu();
        let bytes = s.suspend().expect("clean suspend").table_bytes();
        assert_eq!(bytes, s.version_table().storage_bytes());
        let mut switcher = Switcher::new(SchemeKind::Treeless, &config);
        let charged = switcher.charge(bytes, true) + switcher.charge(bytes, false);
        assert!(charged > 0, "a tree-less switch moves the table");
        assert_eq!(s.preemption_cycles(&config), charged);
    }

    #[test]
    fn snapshot_bytes_match_the_live_table_for_every_program() {
        // Static: between two layers of an inference.
        let df = registry::model("df").expect("registered");
        let mut r = SecureRunner::new(&df, Key128::derive(b"snapshot-size"), 7);
        r.step().expect("layer 0");
        r.step().expect("layer 1");
        assert_snapshot_is_the_live_table(&r);

        // Stepped: right after an append grew a cache into a new tile.
        let decode = registry::model("decode").expect("registered");
        let mut s = SteppedSession::new(&decode, Key128::derive(b"snapshot-size"), 11);
        s.step().expect("first append expands the caches");
        let expanded = s.version_table().storage_bytes();
        while !s.step().expect("clean step").grew_cache {}
        assert!(
            s.version_table().storage_bytes() > expanded,
            "a cache grew a tile"
        );
        assert_snapshot_is_the_live_table(&s);
    }
}
