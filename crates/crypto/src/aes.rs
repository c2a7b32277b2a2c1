//! AES-128 block cipher with 32-bit table-driven rounds.
//!
//! The S-box is *derived* (multiplicative inverse in GF(2⁸) followed by the
//! affine transform) rather than hard-coded, and the round tables are built
//! from it at first use: each `te`/`td` entry fuses SubBytes (or its
//! inverse) with the MixColumns (or InvMixColumns) column of one byte, so a
//! round is 16 table lookups and XORs on four column words. Decryption is
//! the FIPS-197 §5.3.5 equivalent inverse cipher. Known-answer tests cover
//! FIPS-197 Appendices A.1, B and C.1.
//!
//! Not constant-time: the table lookups are key-dependent memory accesses.
//! That suits a simulator's functional datapath — side channels are
//! outside the threat model (§II-E) — but not production.

use crate::Key128;

/// Multiply two elements of GF(2⁸) with the AES polynomial x⁸+x⁴+x³+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2⁸); 0 maps to 0.
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8).
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

fn affine(x: u8) -> u8 {
    x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63
}

struct Tables {
    sbox: [u8; 256],
    inv_sbox: [u8; 256],
    /// Encryption round tables: `te[0][x]` is the MixColumns column of
    /// `S(x)` as a big-endian word, `te[r]` is `te[0]` rotated right by `r`
    /// bytes (the contribution of a byte in row `r`).
    te: [[u32; 256]; 4],
    /// Decryption round tables: the same layout for InvMixColumns of
    /// `S⁻¹(x)`.
    td: [[u32; 256]; 4],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut sbox = [0u8; 256];
        let mut inv_sbox = [0u8; 256];
        for (i, slot) in sbox.iter_mut().enumerate() {
            let s = affine(gf_inv(i as u8));
            *slot = s;
            inv_sbox[s as usize] = i as u8;
        }
        let mut te = [[0u32; 256]; 4];
        let mut td = [[0u32; 256]; 4];
        for x in 0..256 {
            let (s, i) = (sbox[x], inv_sbox[x]);
            let e = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
            let d = u32::from_be_bytes([gf_mul(i, 14), gf_mul(i, 9), gf_mul(i, 13), gf_mul(i, 11)]);
            for r in 0..4 {
                te[r][x] = e.rotate_right(8 * r as u32);
                td[r][x] = d.rotate_right(8 * r as u32);
            }
        }
        Tables {
            sbox,
            inv_sbox,
            te,
            td,
        }
    })
}

/// Byte `row` (row 0 is the most significant byte) of the column word `w`.
fn byte(w: u32, row: usize) -> usize {
    (w >> (24 - 8 * row)) as u8 as usize
}

/// The cipher core shared by both directions. The state is four big-endian
/// column words; each round's output column `c` gathers row `r` from input
/// column `c + step·r`, which is ShiftRows for `step = 1` and InvShiftRows
/// for `step = 3`.
fn crypt(
    block: &mut [u8; 16],
    keys: &[[u32; 4]; 11],
    round_tables: &[[u32; 256]; 4],
    sbox: &[u8; 256],
    step: usize,
) {
    let mut s: [u32; 4] = std::array::from_fn(|c| {
        u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("4-byte column")) ^ keys[0][c]
    });
    for rk in &keys[1..10] {
        s = std::array::from_fn(|c| {
            (0..4).fold(rk[c], |acc, r| {
                acc ^ round_tables[r][byte(s[(c + step * r) % 4], r)]
            })
        });
    }
    for (c, out) in block.chunks_exact_mut(4).enumerate() {
        let col: [u8; 4] = std::array::from_fn(|r| sbox[byte(s[(c + step * r) % 4], r)]);
        out.copy_from_slice(&(u32::from_be_bytes(col) ^ keys[10][c]).to_be_bytes());
    }
}

/// An expanded AES-128 key: the encryption schedule (11 round keys of four
/// big-endian column words) and the decryption schedule of the FIPS-197
/// §5.3.5 equivalent inverse cipher.
#[derive(Clone)]
pub struct Aes128 {
    enc_keys: [[u32; 4]; 11],
    dec_keys: [[u32; 4]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expand `key` into the encryption and decryption round-key schedules.
    #[must_use]
    pub fn new(key: Key128) -> Self {
        let t = tables();
        let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| t.sbox[b as usize]));
        let mut w = [0u32; 44];
        for (w, chunk) in w.iter_mut().zip(key.0.chunks_exact(4)) {
            *w = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = gf_mul(rcon, 2);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let enc_keys: [[u32; 4]; 11] =
            std::array::from_fn(|r| std::array::from_fn(|c| w[4 * r + c]));
        // Decryption uses the round keys in reverse, with InvMixColumns
        // applied to rounds 1-9; td[r][S(x)] is the InvMixColumns
        // contribution of byte x in row r.
        let inv_mix = |w: u32| (0..4).fold(0, |acc, r| acc ^ t.td[r][t.sbox[byte(w, r)] as usize]);
        let dec_keys = std::array::from_fn(|round| {
            let rk = enc_keys[10 - round];
            if round == 0 || round == 10 {
                rk
            } else {
                rk.map(inv_mix)
            }
        });
        Aes128 { enc_keys, dec_keys }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        crypt(block, &self.enc_keys, &t.te, &t.sbox, 1);
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let t = tables();
        crypt(block, &self.dec_keys, &t.td, &t.inv_sbox, 3);
    }

    /// Encrypt a copy of `block`.
    #[must_use]
    pub fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let mut b = block;
        self.encrypt_block(&mut b);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_first_entries() {
        // S(0x00) = 0x63, S(0x01) = 0x7c, S(0x53) = 0xed (FIPS-197 examples).
        let t = tables();
        assert_eq!(t.sbox[0x00], 0x63);
        assert_eq!(t.sbox[0x01], 0x7c);
        assert_eq!(t.sbox[0x53], 0xed);
    }

    #[test]
    fn inv_sbox_inverts_sbox() {
        let t = tables();
        for i in 0..256 {
            assert_eq!(t.inv_sbox[t.sbox[i] as usize] as usize, i);
        }
    }

    fn hex16(s: &str) -> [u8; 16] {
        std::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex"))
    }

    #[test]
    fn fips197_known_answer() {
        // FIPS-197 Appendices B and C.1, cipher and inverse cipher.
        for (key, plain, cipher) in [
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
                "3925841d02dc09fbdc118597196a0b32",
            ),
            (
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
        ] {
            let aes = Aes128::new(Key128(hex16(key)));
            let mut block = hex16(plain);
            aes.encrypt_block(&mut block);
            assert_eq!(block, hex16(cipher), "encrypt under {key}");
            let mut block = hex16(cipher);
            aes.decrypt_block(&mut block);
            assert_eq!(block, hex16(plain), "decrypt under {key}");
        }
    }

    #[test]
    fn fips197_key_expansion_last_round() {
        // FIPS-197 Appendix A.1: w[40..44] of the Appendix B key.
        let aes = Aes128::new(Key128(hex16("2b7e151628aed2a6abf7158809cf4f3c")));
        assert_eq!(
            aes.enc_keys[10],
            [0xd014_f9a8, 0xc9ee_2589, 0xe13f_0cc8, 0xb663_0ca6]
        );
        // The equivalent inverse cipher starts from the same round key.
        assert_eq!(aes.dec_keys[0], aes.enc_keys[10]);
        assert_eq!(aes.dec_keys[10], aes.enc_keys[0]);
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let aes = Aes128::new(Key128::derive(b"roundtrip"));
        for i in 0..32u8 {
            let mut block = [i; 16];
            let original = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, original);
            aes.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::new(Key128::derive(b"a"));
        let b = Aes128::new(Key128::derive(b"b"));
        let pt = [0x42u8; 16];
        assert_ne!(a.encrypt(pt), b.encrypt(pt));
    }

    #[test]
    fn gf_mul_known_values() {
        // FIPS-197 §4.2: {57} x {83} = {c1}, {57} x {13} = {fe}.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn gf_inv_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
        }
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(Key128::derive(b"secret"));
        let s = format!("{aes:?}");
        assert!(!s.contains("round_keys"));
    }
}
