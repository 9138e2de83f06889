//! Little-endian byte decoding helpers and the workspace's one CRC-32.
//!
//! On-flash formats throughout the workspace decode fixed-width integers
//! out of page buffers. Before this module existed every such site spelled
//! `u32::from_le_bytes(buf[a..b].try_into().unwrap())` — dozens of
//! `unwrap()`s that the `kvcsd-check` lint would have to allowlist one by
//! one. These helpers are the single sanctioned funnel: `le_*` for buffers
//! whose length was already validated (an out-of-bounds offset is an
//! internal invariant violation and panics via slice indexing, with no
//! `unwrap` in sight), `try_le_*` for tail-parsing paths that want to turn
//! a short buffer into a typed corruption error.

/// Decode a `u16` at `off`; panics if `buf` is too short (caller-validated
/// buffers only).
#[inline]
pub fn le_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Decode a `u32` at `off`; panics if `buf` is too short (caller-validated
/// buffers only).
#[inline]
pub fn le_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Decode a `u64` at `off`; panics if `buf` is too short (caller-validated
/// buffers only).
#[inline]
pub fn le_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Decode a `u16` at `off`, or `None` if the buffer is too short.
#[inline]
pub fn try_le_u16(buf: &[u8], off: usize) -> Option<u16> {
    Some(u16::from_le_bytes([*buf.get(off)?, *buf.get(off + 1)?]))
}

/// Decode a `u32` at `off`, or `None` if the buffer is too short.
#[inline]
pub fn try_le_u32(buf: &[u8], off: usize) -> Option<u32> {
    let s = buf.get(off..off + 4)?;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Decode a `u64` at `off`, or `None` if the buffer is too short.
#[inline]
pub fn try_le_u64(buf: &[u8], off: usize) -> Option<u64> {
    let s = buf.get(off..off + 8)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Some(u64::from_le_bytes(b))
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) guarding
/// every on-flash frame: device and LSM WAL records, metadata snapshots
/// and shipped artifacts. Table-driven, one lookup per byte.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `CRC32_TABLE[i]` is the CRC register after shifting byte `i` through
/// eight rounds of the bitwise algorithm; built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut round = 0;
        while round < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            round += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_at_offsets() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        buf.extend_from_slice(&0xDEADBEEFu32.to_le_bytes());
        buf.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        assert_eq!(le_u16(&buf, 0), 0xBEEF);
        assert_eq!(le_u32(&buf, 2), 0xDEADBEEF);
        assert_eq!(le_u64(&buf, 6), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn try_variants_reject_short_buffers() {
        let buf = [1u8, 2, 3];
        assert_eq!(try_le_u16(&buf, 1), Some(u16::from_le_bytes([2, 3])));
        assert_eq!(try_le_u16(&buf, 2), None);
        assert_eq!(try_le_u32(&buf, 0), None);
        assert_eq!(try_le_u64(&buf, 0), None);
        assert_eq!(try_le_u32(&[9u8; 4], 0), Some(u32::from_le_bytes([9; 4])));
    }

    #[test]
    fn crc32_matches_known_vectors_and_the_bitwise_algorithm() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let bitwise = |data: &[u8]| {
            let mut crc = !0u32;
            for &b in data {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
            }
            !crc
        };
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 131 + i / 7) as u8).collect();
        for len in [1, 3, 64, 1000, 1024] {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    #[should_panic]
    fn unchecked_panics_on_short_buffer() {
        le_u32(&[1u8, 2], 0);
    }
}
