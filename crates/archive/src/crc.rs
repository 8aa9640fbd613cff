//! CRC32C (Castagnoli) — the checksum guarding every frame of the
//! binary archive format ([`crate::binfmt`], format v3).
//!
//! Reflected polynomial `0x82F63B78`, init `0xFFFF_FFFF`, final XOR
//! `0xFFFF_FFFF` — the same parameterization as `crc32c(3)`, iSCSI, and
//! ext4, so archives can be verified by standard external tooling. Every
//! load checksums every byte of the file, so the checksum runs at memory
//! speed where it can: on x86-64 with SSE4.2 (detected at run time) the
//! `crc32` instruction folds eight bytes at a time; elsewhere a
//! slicing-by-8 table walk does.

/// The reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables, computed at compile time: `TABLES[0]` is the
/// bytewise table, and `TABLES[k][b]` is byte `b` followed by `k` zeros.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 * 8 {
        let (k, b) = (i / 256, i % 256);
        t[k][b] = if k == 0 {
            let mut crc = b as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
                bit += 1;
            }
            crc
        } else {
            (t[k - 1][b] >> 8) ^ t[0][(t[k - 1][b] & 0xFF) as usize]
        };
        i += 1;
    }
    t
};

/// CRC32C of `bytes` in one shot.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc32c_append(0, bytes)
}

/// Extends `crc`, the CRC32C of some bytes, to the CRC32C of those bytes
/// followed by `bytes`, so a checksum can be built up piece by piece.
pub fn crc32c_append(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU supports SSE4.2, checked just above.
        return !unsafe { append_sse42(!crc, bytes) };
    }
    crc32c_append_portable(crc, bytes)
}

/// [`crc32c_append`] by slicing-by-8 whatever the CPU: the fallback,
/// public so tests can check it against the hardware path.
pub fn crc32c_append_portable(crc: u32, bytes: &[u8]) -> u32 {
    let mut state = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk")) ^ u64::from(state);
        state = (0..8).fold(0, |acc, k| {
            acc ^ TABLES[7 - k][((word >> (8 * k)) & 0xFF) as usize]
        });
    }
    for &b in chunks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    !state
}

/// Folds `bytes` into the raw (uninverted) `state` with the SSE4.2
/// `crc32` instruction, which computes exactly this CRC, eight bytes at a
/// time.
///
/// # Safety
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn append_sse42(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = bytes.chunks_exact(8);
    let mut wide = u64::from(state);
    for c in &mut chunks {
        wide = _mm_crc32_u64(
            wide,
            u64::from_le_bytes(c.try_into().expect("8-byte chunk")),
        );
    }
    (chunks.remainder().iter()).fold(wide as u32, |state, &b| _mm_crc32_u8(state, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from RFC 3720 (iSCSI) appendix B.4 and the
    /// canonical "123456789" check value, through both paths.
    #[test]
    fn known_vectors() {
        let ascending: Vec<u8> = (0u8..32).collect();
        let vectors: [(&[u8], u32); 5] = [
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (b"", 0),
        ];
        for (bytes, crc) in vectors {
            assert_eq!(crc32c(bytes), crc);
            assert_eq!(crc32c_append_portable(0, bytes), crc);
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 7, 500, 999, 1000] {
            let head = crc32c(&data[..split]);
            assert_eq!(
                crc32c_append(head, &data[split..]),
                crc32c(&data),
                "split at {split}"
            );
        }
    }

    #[test]
    fn single_bit_flips_always_change_the_checksum() {
        let data = b"granula archive frame payload";
        let base = crc32c(data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.to_vec();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32c(&corrupted), base, "flip {byte}:{bit} undetected");
            }
        }
    }
}
