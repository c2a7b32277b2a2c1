//! AES-XTS encryption of 64-byte memory blocks — the tree-less engine's
//! cipher.
//!
//! The paper adopts counter-less total-memory encryption ("the entire DRAM,
//! except for the fully protected region, is encrypted with AES-XTS similar
//! to Intel Total Memory Encryption", §IV-C). XTS needs no per-block
//! counters: the tweak is derived from the block address alone, so no
//! metadata caches are required — that is exactly the property TNPU exploits.
//!
//! Each 64 B memory block is one XTS "data unit" of four 16 B AES blocks.

use crate::aes::Aes128;
use crate::Key128;

/// Multiply an element of GF(2¹²⁸) by α (the XTS tweak update). The tweak
/// is the 16-byte block read as a little-endian integer, per IEEE 1619.
fn gf128_mul_alpha(tweak: u128) -> u128 {
    (tweak << 1) ^ if tweak >> 127 != 0 { 0x87 } else { 0 }
}

/// AES-XTS encryptor for 64-byte blocks.
#[derive(Debug, Clone)]
pub struct XtsMode {
    data_cipher: Aes128,
    tweak_cipher: Aes128,
}

impl XtsMode {
    /// Create an encryptor; XTS uses two independent keys.
    #[must_use]
    pub fn new(data_key: Key128, tweak_key: Key128) -> Self {
        XtsMode {
            data_cipher: Aes128::new(data_key),
            tweak_cipher: Aes128::new(tweak_key),
        }
    }

    /// Derive both keys from a single master key.
    #[must_use]
    pub fn from_master(master: Key128) -> Self {
        let mut data_label = b"xts-data".to_vec();
        data_label.extend_from_slice(&master.0);
        let mut tweak_label = b"xts-tweak".to_vec();
        tweak_label.extend_from_slice(&master.0);
        XtsMode::new(Key128::derive(&data_label), Key128::derive(&tweak_label))
    }

    /// Run one direction of the cipher over the four 16 B chunks of a
    /// 64-byte block, whitening each with its tweak before and after.
    fn apply(&self, unit: u64, block: &mut [u8; 64], cipher: fn(&Aes128, &mut [u8; 16])) {
        let mut tweak =
            u128::from_le_bytes(self.tweak_cipher.encrypt(u128::from(unit).to_le_bytes()));
        for chunk in block.chunks_exact_mut(16) {
            let input = u128::from_le_bytes(chunk.try_into().expect("16-byte chunk"));
            let mut b = (input ^ tweak).to_le_bytes();
            cipher(&self.data_cipher, &mut b);
            chunk.copy_from_slice(&(u128::from_le_bytes(b) ^ tweak).to_le_bytes());
            tweak = gf128_mul_alpha(tweak);
        }
    }

    /// Encrypt a 64-byte block in place; `unit` is the data-unit number
    /// (the 64 B block address divided by 64).
    pub fn encrypt_block(&self, unit: u64, block: &mut [u8; 64]) {
        self.apply(unit, block, Aes128::encrypt_block);
    }

    /// Decrypt a 64-byte block in place.
    pub fn decrypt_block(&self, unit: u64, block: &mut [u8; 64]) {
        self.apply(unit, block, Aes128::decrypt_block);
    }

    /// Encrypt a copy of `block`.
    #[must_use]
    pub fn encrypt(&self, unit: u64, block: &[u8; 64]) -> [u8; 64] {
        let mut out = *block;
        self.encrypt_block(unit, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> XtsMode {
        XtsMode::from_master(Key128::derive(b"xts-test"))
    }

    #[test]
    fn roundtrip() {
        let e = engine();
        let plain: [u8; 64] = std::array::from_fn(|i| i as u8);
        let mut block = plain;
        e.encrypt_block(77, &mut block);
        assert_ne!(block, plain);
        e.decrypt_block(77, &mut block);
        assert_eq!(block, plain);
    }

    #[test]
    fn unit_number_changes_ciphertext() {
        let e = engine();
        let block = [0u8; 64];
        assert_ne!(e.encrypt(1, &block), e.encrypt(2, &block));
    }

    #[test]
    fn same_unit_same_data_is_deterministic() {
        // XTS (unlike CTR with fresh counters) is deterministic per (unit,
        // data) — re-encrypting identical data in place yields identical
        // ciphertext. This is the confidentiality trade-off scalable SGX
        // accepts; the paper accepts it too.
        let e = engine();
        let block = [3u8; 64];
        assert_eq!(e.encrypt(5, &block), e.encrypt(5, &block));
    }

    #[test]
    fn chunks_within_block_use_distinct_tweaks() {
        let e = engine();
        let block = [0u8; 64];
        let ct = e.encrypt(9, &block);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(ct[i * 16..(i + 1) * 16], ct[j * 16..(j + 1) * 16]);
            }
        }
    }

    #[test]
    fn gf128_doubling_carry() {
        // Highest bit set -> reduction by 0x87 in byte 0.
        let t = gf128_mul_alpha(1 << 127).to_le_bytes();
        assert_eq!(t[0], 0x87);
        assert_eq!(t[15], 0x00);
    }

    #[test]
    fn gf128_doubling_shifts() {
        assert_eq!(gf128_mul_alpha(1).to_le_bytes()[0], 0x02);
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    }

    fn key(s: &str) -> Key128 {
        Key128(hex(s).try_into().expect("16-byte key"))
    }

    #[test]
    fn ieee1619_known_answers() {
        // IEEE 1619-2007 Annex B, XTS-AES-128: vectors 1 and 2 (32 B data
        // units, so only the first 32 B are pinned) and the first 64 B of
        // vector 4.
        let cases: [(Key128, Key128, u64, [u8; 64], &str); 3] = [
            (
                Key128([0; 16]),
                Key128([0; 16]),
                0,
                [0; 64],
                "917cf69ebd68b2ec9b9fe9a3eadda692cd43d2f59598ed858c02c2652fbf922e",
            ),
            (
                Key128([0x11; 16]),
                Key128([0x22; 16]),
                0x33_3333_3333,
                [0x44; 64],
                "c454185e6a16936e39334038acef838bfb186fff7480adc4289382ecd6d394f0",
            ),
            (
                key("27182818284590452353602874713526"),
                key("31415926535897932384626433832795"),
                0,
                std::array::from_fn(|i| i as u8),
                concat!(
                    "27a7479befa1d476489f308cd4cfa6e2a96e4bbe3208ff25287dd3819616e89c",
                    "c78cf7f5e543445f8333d8fa7f56000005279fa5d8b5e4ad40e736ddb4d35412"
                ),
            ),
        ];
        for (data_key, tweak_key, unit, plain, expected) in cases {
            let e = XtsMode::new(data_key, tweak_key);
            let expected = hex(expected);
            let mut block = e.encrypt(unit, &plain);
            assert_eq!(block[..expected.len()], expected, "unit {unit:#x}");
            e.decrypt_block(unit, &mut block);
            assert_eq!(block, plain, "unit {unit:#x}");
        }
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let a = engine();
        let b = XtsMode::from_master(Key128::derive(b"other"));
        let plain = [7u8; 64];
        let mut block = a.encrypt(3, &plain);
        b.decrypt_block(3, &mut block);
        assert_ne!(block, plain);
    }
}
