//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Used by the v2 trace format in [`crate::io`] to checksum event-line
//! chunks and the whole-file footer. The implementation matches the
//! ubiquitous zlib/`cksum -o 3` variant so checksums can be cross-checked
//! with external tools.
//!
//! [`Crc32::update`] is table-driven slicing-by-8: eight 256-entry tables,
//! built at compile time, fold eight input bytes per step instead of one.
//! `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
//! state after `b` is followed by `k` zero bytes, so the eight lookups of
//! one step can be XORed together independently.
//!
//! [`crc32_combine`] gives the CRC of `A ‖ B` from the CRCs of `A` and
//! `B` and the length of `B`, without reading either: the v2 writers and
//! readers checksum each chunk once and fold that value into the
//! footer's running CRC with it.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finish and return the checksum value.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

/// `a(x) · b(x) mod P(x)`, both in the reflected order the CRC keeps its
/// state in: bit 31 holds the coefficient of `x^0`, bit 0 that of `x^31`.
const fn multmodp(mut a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    while a != 0 {
        if a & (1 << 31) != 0 {
            p ^= b;
        }
        a <<= 1;
        // b ← b·x mod P.
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `X2N[k] = x^(2^k) mod P(x)`. The powers repeat with period 32
/// (`x^(2^32) ≡ x`, checked by a test), so 32 entries cover every length.
const X2N: [u32; 32] = build_x2n();

const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
}

/// CRC-32 of `A ‖ B`, given `crc_a = crc32(A)`, `crc_b = crc32(B)` and
/// `len_b = B.len()` (zlib's `crc32_combine`).
///
/// Appending `B` to `A` multiplies `A`'s remainder by `x^(8·len_b)` and
/// adds `B`'s; the pre- and post-inversions of the two CRCs cancel, so
/// the result is `crc_a · x^(8·len_b) mod P ⊕ crc_b`. The power is a
/// product of table entries, one per set bit of `len_b`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut power = 1 << 31; // x^0
    let (mut n, mut k) = (len_b, 3); // 8·len_b = len_b << 3
    while n != 0 {
        if n & 1 != 0 {
            power = multmodp(X2N[k & 31], power);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(power, crc_a) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE variant.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"N 0 core\nE 10 0 1\n";
        let mut h = Crc32::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn x2n_powers_repeat_with_period_32() {
        // x^(2^32) = x^(2^31) squared must be x again for `k & 31`.
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
        assert_eq!(X2N[0], 1 << 30);
    }

    /// The CRC of `bytes` split at `at`, folded from its two parts.
    fn combined(bytes: &[u8], at: usize) -> u32 {
        let (a, b) = bytes.split_at(at);
        crc32_combine(crc32(a), crc32(b), b.len() as u64)
    }

    #[test]
    fn combine_handles_empty_parts() {
        let data = b"N 0 core\nE 10 0 1\n";
        assert_eq!(combined(data, 0), crc32(data));
        assert_eq!(combined(data, data.len()), crc32(data));
        assert_eq!(crc32_combine(0, 0, 0), 0);
        assert_eq!(crc32_combine(crc32(data), 0, 0), crc32(data));
    }

    proptest! {
        /// Folding two parts equals one pass over their concatenation,
        /// for every split point, empty parts included.
        #[test]
        fn combine_matches_one_pass(
            bytes in prop::collection::vec(any::<u8>(), 0..2048),
            at in any::<usize>(),
        ) {
            let at = at % (bytes.len() + 1);
            prop_assert_eq!(combined(&bytes, at), crc32(&bytes));
        }

        /// Lengths past the table's period: shifting a CRC by `n` and
        /// then `m` bytes equals shifting it by `n + m` at once.
        #[test]
        fn combine_shifts_compose_over_long_lengths(
            crc in any::<u32>(),
            n in 0u64..(1 << 40),
            m in 0u64..(1 << 40),
        ) {
            let split = crc32_combine(crc32_combine(crc, 0, n), 0, m);
            let whole = crc32_combine(crc, 0, n + m);
            prop_assert_eq!(split, whole);
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"E 86400 17 42\n";
        let base = crc32(data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.to_vec();
                corrupted[i] ^= 1 << bit;
                assert_ne!(
                    crc32(&corrupted),
                    base,
                    "flip at byte {i} bit {bit} undetected"
                );
            }
        }
    }
}
