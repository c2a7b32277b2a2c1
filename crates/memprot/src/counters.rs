//! Split-counter blocks (SC-64, paper §III-B / Yan et al. ref 33).
//!
//! A 64 B counter block packs one 64-bit *major* counter and 64 7-bit
//! *minor* counters, one per data block of the covered 4 KB page. A data
//! block's effective counter is `major ‖ minor`; when a minor counter
//! saturates, the major is bumped, every minor resets, and the whole page
//! must be re-encrypted under the new major — the overflow cost the timing
//! engine charges.

/// Maximum value of a 7-bit minor counter.
pub const MINOR_MAX: u8 = 127;
/// Minor counters per block (SC-64).
pub const MINORS: usize = 64;

/// One split-counter block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitCounterBlock {
    major: u64,
    minors: [u8; MINORS],
}

impl Default for SplitCounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of bumping a minor counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bump {
    /// The minor counter incremented normally.
    Minor,
    /// The minor overflowed: the major was incremented, all minors reset,
    /// and the whole covered page must be re-encrypted.
    Overflow,
}

impl SplitCounterBlock {
    /// A fresh block: major 0, all minors 0.
    #[must_use]
    pub fn new() -> Self {
        SplitCounterBlock {
            major: 0,
            minors: [0; MINORS],
        }
    }

    /// The major counter.
    #[must_use]
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The effective counter of slot `slot`: `major * 128 + minor`, unique
    /// per (page-write-epoch, block-update) pair.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    #[must_use]
    pub fn counter(&self, slot: usize) -> u64 {
        self.major * u64::from(MINOR_MAX + 1) + u64::from(self.minors[slot])
    }

    /// Bump slot `slot` for a write; reports whether the page overflowed.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    pub fn bump(&mut self, slot: usize) -> Bump {
        if self.minors[slot] == MINOR_MAX {
            self.major += 1;
            self.minors = [0; MINORS];
            // The written block takes minor 1 after the reset (its write is
            // the first in the new epoch); its siblings re-encrypt at 0.
            self.minors[slot] = 1;
            Bump::Overflow
        } else {
            self.minors[slot] += 1;
            Bump::Minor
        }
    }

    /// Whether the next [`bump`](Self::bump) of `slot` will overflow the
    /// page.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    #[must_use]
    pub fn will_overflow(&self, slot: usize) -> bool {
        self.minors[slot] == MINOR_MAX
    }

    /// Overwrite a minor counter directly — the *attack hook* (counter
    /// blocks live in untrusted DRAM; only the tree protects them).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64` or `value` does not fit 7 bits.
    pub fn set_minor_raw(&mut self, slot: usize, value: u8) {
        assert!(value <= MINOR_MAX, "minor counters are 7 bits");
        self.minors[slot] = value;
    }

    /// Serialize to the 64 B DRAM representation (8 B major + 56 B of
    /// packed 7-bit minors).
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        // Pack 64 x 7-bit minors into 56 bytes.
        let mut bit = 0usize;
        for &m in &self.minors {
            let byte = bit / 8;
            let off = bit % 8;
            let v = u16::from(m) << off;
            out[8 + byte] |= (v & 0xff) as u8;
            if off > 1 {
                out[8 + byte + 1] |= (v >> 8) as u8;
            }
            bit += 7;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unpack the 64 B DRAM representation [`SplitCounterBlock::to_bytes`]
    /// writes; the round trip proves the packing loses nothing, so the
    /// tree never hashes two different blocks alike.
    fn from_bytes(bytes: &[u8; 64]) -> SplitCounterBlock {
        let mut major_bytes = [0u8; 8];
        major_bytes.copy_from_slice(&bytes[..8]);
        let mut minors = [0u8; MINORS];
        let mut bit = 0usize;
        for m in &mut minors {
            let byte = bit / 8;
            let off = bit % 8;
            let lo = u16::from(bytes[8 + byte]) >> off;
            let hi = if off > 1 {
                u16::from(bytes[8 + byte + 1]) << (8 - off)
            } else {
                0
            };
            *m = ((lo | hi) & 0x7f) as u8;
            bit += 7;
        }
        SplitCounterBlock {
            major: u64::from_le_bytes(major_bytes),
            minors,
        }
    }

    #[test]
    fn counters_start_at_zero_and_increment() {
        let mut b = SplitCounterBlock::new();
        assert_eq!(b.counter(0), 0);
        assert_eq!(b.bump(0), Bump::Minor);
        assert_eq!(b.counter(0), 1);
        assert_eq!(b.counter(1), 0, "slots are independent");
    }

    #[test]
    fn counters_never_repeat_across_overflow() {
        // The security property: the effective counter of a slot is
        // strictly increasing through an overflow.
        let mut b = SplitCounterBlock::new();
        let mut last = b.counter(7);
        for _ in 0..300 {
            b.bump(7);
            let now = b.counter(7);
            assert!(now > last, "counter repeated: {last} -> {now}");
            last = now;
        }
        assert!(b.major() >= 2, "two overflows in 300 bumps");
    }

    #[test]
    fn overflow_resets_siblings() {
        let mut b = SplitCounterBlock::new();
        b.bump(3);
        for _ in 0..MINOR_MAX {
            b.bump(0);
        }
        // Slot 0 is saturated; the next bump overflows the page.
        assert_eq!(b.bump(0), Bump::Overflow);
        assert_eq!(b.major(), 1);
        // Slot 3's minor was reset: its effective counter moved to the new
        // epoch (larger than any pre-overflow value).
        assert_eq!(b.counter(3), 128);
    }

    #[test]
    fn sibling_counters_also_strictly_increase_over_overflow() {
        let mut b = SplitCounterBlock::new();
        b.bump(5); // counter(5) = 1
        let before = b.counter(5);
        for _ in 0..=MINOR_MAX {
            b.bump(9);
        }
        assert!(b.counter(5) > before, "epoch bump keeps siblings fresh");
    }

    #[test]
    fn serialization_roundtrip() {
        let mut b = SplitCounterBlock::new();
        for i in 0..MINORS {
            for _ in 0..(i % 7) {
                b.bump(i);
            }
        }
        for _ in 0..200 {
            b.bump(0);
        }
        let bytes = b.to_bytes();
        assert_eq!(from_bytes(&bytes), b);
    }

    #[test]
    fn serialized_fits_one_block_with_room_for_nothing() {
        // 8 B major + 64 * 7 bits = 8 + 56 B = exactly 64 B: the SC-64
        // packing the paper's counter cache entry holds.
        let b = SplitCounterBlock::new();
        assert_eq!(b.to_bytes().len(), 64);
    }
}
