//! CPU-side access to tree-less protected tensors (paper §IV-C).
//!
//! A CPU enclave initializes tensors and reads back results, but ordinary
//! cached loads/stores cannot carry version numbers. The paper adds
//! uncacheable block instructions backed by two small 64 B buffers per
//! core:
//!
//! * `ts_read_block` — fetch + verify one block into the read buffer,
//! * `ts_read_byte` — read a byte out of the read buffer,
//! * `ts_write_byte` — stage a byte into the write buffer,
//! * `ts_write_block` — MAC + flush the write buffer to memory.

use tnpu_memprot::functional::{FunctionalMemory, IntegrityError};
use tnpu_sim::{Addr, BLOCK_SIZE};

/// The per-core block buffers and their state.
#[derive(Debug)]
pub struct CpuTensorAccess {
    read_buf: [u8; BLOCK_SIZE],
    /// Which block the read buffer holds, if any.
    read_from: Option<Addr>,
    write_buf: [u8; BLOCK_SIZE],
}

/// Errors of the `ts_*` instruction set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsError {
    /// The block fetch failed integrity verification.
    Integrity(IntegrityError),
    /// `ts_read_byte` with no valid read buffer.
    ReadBufferEmpty,
    /// Byte offset outside the 64 B buffer.
    OffsetOutOfRange {
        /// The offending offset.
        offset: usize,
    },
}

impl std::fmt::Display for TsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsError::Integrity(e) => write!(f, "integrity failure: {e}"),
            TsError::ReadBufferEmpty => write!(f, "read buffer not filled"),
            TsError::OffsetOutOfRange { offset } => {
                write!(f, "offset {offset} outside the 64 B buffer")
            }
        }
    }
}

impl std::error::Error for TsError {}

impl From<IntegrityError> for TsError {
    fn from(e: IntegrityError) -> Self {
        TsError::Integrity(e)
    }
}

impl Default for CpuTensorAccess {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuTensorAccess {
    /// Fresh buffers.
    #[must_use]
    pub fn new() -> Self {
        CpuTensorAccess {
            read_buf: [0; BLOCK_SIZE],
            read_from: None,
            write_buf: [0; BLOCK_SIZE],
        }
    }

    /// `ts_read_block`: fetch and verify the block at `addr` with the
    /// expected `version` into the read buffer.
    ///
    /// # Errors
    ///
    /// [`TsError::Integrity`] when verification fails; the read buffer is
    /// invalidated in that case.
    pub fn ts_read_block(
        &mut self,
        mem: &dyn FunctionalMemory,
        addr: Addr,
        version: u64,
    ) -> Result<(), TsError> {
        match mem.read_block(addr, version) {
            Ok(data) => {
                self.read_buf = data;
                self.read_from = Some(addr);
                Ok(())
            }
            Err(e) => {
                self.read_from = None;
                Err(e.into())
            }
        }
    }

    /// `ts_read_byte`: a byte from the read buffer.
    ///
    /// # Errors
    ///
    /// [`TsError::ReadBufferEmpty`] before any successful
    /// [`ts_read_block`](Self::ts_read_block);
    /// [`TsError::OffsetOutOfRange`] past the buffer.
    pub fn ts_read_byte(&self, offset: usize) -> Result<u8, TsError> {
        if self.read_from.is_none() {
            return Err(TsError::ReadBufferEmpty);
        }
        self.read_buf
            .get(offset)
            .copied()
            .ok_or(TsError::OffsetOutOfRange { offset })
    }

    /// `ts_write_byte`: stage a byte into the write buffer.
    ///
    /// # Errors
    ///
    /// [`TsError::OffsetOutOfRange`] past the buffer.
    fn ts_write_byte(&mut self, offset: usize, value: u8) -> Result<(), TsError> {
        *self
            .write_buf
            .get_mut(offset)
            .ok_or(TsError::OffsetOutOfRange { offset })? = value;
        Ok(())
    }

    /// `ts_write_block`: MAC the write buffer under `version` and flush it
    /// to `addr`. The buffer is cleared afterwards.
    pub fn ts_write_block(&mut self, mem: &mut dyn FunctionalMemory, addr: Addr, version: u64) {
        mem.write_block(addr, version, self.write_buf);
        self.write_buf = [0; BLOCK_SIZE];
    }

    /// Convenience: stream `data` to the protected region at `base`,
    /// block by block, under `version` — the CPU-side tensor
    /// initialization loop of Fig. 13 (a).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not block-aligned.
    pub fn write_tensor(
        &mut self,
        mem: &mut dyn FunctionalMemory,
        base: Addr,
        version: u64,
        data: &[u8],
    ) {
        assert_eq!(base.block_offset(), 0, "tensor base must be block aligned");
        for (i, chunk) in data.chunks(BLOCK_SIZE).enumerate() {
            for (off, &b) in chunk.iter().enumerate() {
                // tnpu-lint: allow(panic-path) — `off < BLOCK_SIZE` by
                // chunks(BLOCK_SIZE), and the staging buffer is one block.
                self.ts_write_byte(off, b).expect("offset within buffer");
            }
            self.ts_write_block(mem, base.offset((i * BLOCK_SIZE) as u64), version);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnpu_crypto::Key128;
    use tnpu_memprot::functional::TreelessMemory;

    fn mem() -> TreelessMemory {
        TreelessMemory::new(Key128::derive(b"cpu-access"))
    }

    #[test]
    fn byte_level_roundtrip() {
        let mut m = mem();
        let mut cpu = CpuTensorAccess::new();
        cpu.ts_write_byte(0, 0xaa).expect("in range");
        cpu.ts_write_byte(63, 0x55).expect("in range");
        cpu.ts_write_block(&mut m, Addr(0), 1);
        cpu.ts_read_block(&m, Addr(0), 1).expect("verifies");
        assert_eq!(cpu.ts_read_byte(0), Ok(0xaa));
        assert_eq!(cpu.ts_read_byte(63), Ok(0x55));
        assert_eq!(cpu.ts_read_byte(1), Ok(0), "buffer cleared after flush");
    }

    #[test]
    fn read_before_fill_fails() {
        let cpu = CpuTensorAccess::new();
        assert_eq!(cpu.ts_read_byte(0), Err(TsError::ReadBufferEmpty));
    }

    #[test]
    fn offsets_bounded() {
        let mut cpu = CpuTensorAccess::new();
        assert_eq!(
            cpu.ts_write_byte(64, 0),
            Err(TsError::OffsetOutOfRange { offset: 64 })
        );
    }

    #[test]
    fn stale_version_rejected_and_buffer_invalidated() {
        let mut m = mem();
        let mut cpu = CpuTensorAccess::new();
        cpu.write_tensor(&mut m, Addr(0), 1, &[7u8; 64]);
        assert!(cpu.ts_read_block(&m, Addr(0), 2).is_err());
        assert_eq!(cpu.ts_read_byte(0), Err(TsError::ReadBufferEmpty));
    }

    #[test]
    fn cpu_written_data_verifies_for_npu_path() {
        // The whole point of ts_* instructions: the CPU writes with the
        // same MAC scheme the NPU verifies with.
        let mut m = mem();
        let mut cpu = CpuTensorAccess::new();
        cpu.write_tensor(&mut m, Addr(0), 1, &[0x42u8; 128]);
        // "NPU" reads the raw blocks directly through the same memory.
        assert_eq!(m.read_block(Addr(0), 1).expect("verifies"), [0x42u8; 64]);
        assert_eq!(m.read_block(Addr(64), 1).expect("verifies"), [0x42u8; 64]);
    }
}
