//! The bulk-PUT message format.
//!
//! The paper: "To minimize communication overhead, KV-CSD supports both
//! regular PUT and bulk PUT operations. ... Each bulk put message is
//! 128 KB. This 128 KB space contains keys, values, and their respective
//! sizes. For 16 B keys and 32 B values, each message carries up to 2570
//! key-value pairs and is 7x faster than regular puts."
//!
//! Entries are packed back-to-back as `klen:u16 | vlen:u32 | key | value`.
//! With the 6-byte entry header, a 128 KiB message holds
//! `131072 / (6+16+32) = 2427` pairs of that shape — the same order of
//! magnitude as the paper's 2570 (whose header encoding is unspecified).

use std::sync::Arc;

/// Default bulk message capacity used by the client library (128 KiB).
pub const DEFAULT_BULK_BYTES: usize = 128 * 1024;

const ENTRY_HEADER: usize = 2 + 4;

/// An immutable packed batch of key-value pairs. Clones share the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkPayload {
    buf: Arc<[u8]>,
    entries: u32,
}

impl BulkPayload {
    /// Number of key-value pairs in the payload.
    pub fn len(&self) -> usize {
        self.entries as usize
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Bytes this payload occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Iterate over `(key, value)` pairs without copying.
    pub fn iter(&self) -> BulkIter<'_> {
        BulkIter {
            rest: &self.buf,
            remaining: self.entries,
        }
    }
}

/// Iterator over the entries of a [`BulkPayload`].
#[derive(Debug)]
pub struct BulkIter<'a> {
    rest: &'a [u8],
    remaining: u32,
}

impl<'a> Iterator for BulkIter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let hdr = self.rest;
        if hdr.len() < ENTRY_HEADER {
            return None; // corrupt payload; stop rather than panic
        }
        let klen = u16::from_be_bytes([hdr[0], hdr[1]]) as usize;
        let vlen = u32::from_be_bytes([hdr[2], hdr[3], hdr[4], hdr[5]]) as usize;
        let hdr = &hdr[ENTRY_HEADER..];
        if hdr.len() < klen + vlen {
            return None;
        }
        let (key, rest) = hdr.split_at(klen);
        let (value, rest) = rest.split_at(vlen);
        self.rest = rest;
        self.remaining -= 1;
        Some((key, value))
    }
}

/// Incrementally packs pairs into a bounded bulk message.
#[derive(Debug)]
pub struct BulkBuilder {
    buf: Vec<u8>,
    capacity: usize,
    entries: u32,
}

impl BulkBuilder {
    /// A builder bounded at `capacity` wire bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            entries: 0,
        }
    }

    /// A builder with the paper's 128 KiB message size.
    pub fn default_size() -> Self {
        Self::new(DEFAULT_BULK_BYTES)
    }

    /// Bytes one pair costs on the wire.
    pub fn entry_bytes(key: &[u8], value: &[u8]) -> usize {
        ENTRY_HEADER + key.len() + value.len()
    }

    /// True if the entry header can encode the pair's lengths and the
    /// pair fits in the remaining space.
    pub fn fits(&self, key: &[u8], value: &[u8]) -> bool {
        key.len() <= u16::MAX as usize
            && value.len() <= u32::MAX as usize
            && self.buf.len() + Self::entry_bytes(key, value) <= self.capacity
    }

    /// Append a pair. Returns `false` (without modifying the builder) when
    /// the pair does not fit; the caller should [`BulkBuilder::finish`] and
    /// start a new message, or send a pair no message can hold on its own.
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> bool {
        if !self.fits(key, value) {
            return false;
        }
        self.buf
            .extend_from_slice(&(key.len() as u16).to_be_bytes());
        self.buf
            .extend_from_slice(&(value.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(value);
        self.entries += 1;
        true
    }

    /// Number of pairs packed so far.
    pub fn len(&self) -> usize {
        self.entries as usize
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Seal the message.
    pub fn finish(self) -> BulkPayload {
        BulkPayload {
            buf: self.buf.into(),
            entries: self.entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_pairs() {
        let mut b = BulkBuilder::new(1024);
        assert!(b.push(b"alpha", b"one"));
        assert!(b.push(b"beta", b"two-two"));
        assert!(b.push(b"", b"")); // empty key/value are representable
        let p = b.finish();
        assert_eq!(p.len(), 3);
        let got: Vec<(Vec<u8>, Vec<u8>)> =
            p.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(
            got,
            vec![
                (b"alpha".to_vec(), b"one".to_vec()),
                (b"beta".to_vec(), b"two-two".to_vec()),
                (vec![], vec![]),
            ]
        );
    }

    #[test]
    fn capacity_is_respected() {
        let mut b = BulkBuilder::new(64);
        assert!(b.push(&[1; 16], &[2; 32])); // 6+48 = 54 bytes
        assert!(!b.push(&[3; 16], &[4; 32])); // would exceed 64
        assert_eq!(b.len(), 1);
        let p = b.finish();
        assert!(p.wire_bytes() <= 64);
    }

    #[test]
    fn paper_capacity_order_of_magnitude() {
        // 16 B keys + 32 B values in a 128 KiB message.
        let mut b = BulkBuilder::default_size();
        let mut n = 0;
        while b.push(&[0u8; 16], &[0u8; 32]) {
            n += 1;
        }
        // Paper reports "up to 2570"; our 6-byte header gives 2427.
        assert_eq!(n, DEFAULT_BULK_BYTES / (6 + 16 + 32));
        assert!(n > 2400 && n < 2600);
    }

    #[test]
    fn keys_the_header_cannot_encode_are_refused() {
        let mut b = BulkBuilder::new(1 << 20);
        assert!(!b.push(&vec![1; u16::MAX as usize + 1], b"v"));
        assert!(b.is_empty());
        assert!(b.push(&vec![1; u16::MAX as usize], b"v"));
        let p = b.finish();
        assert_eq!(p.iter().next().unwrap().0.len(), u16::MAX as usize);
    }

    #[test]
    fn wire_bytes_matches_content() {
        let mut b = BulkBuilder::new(1024);
        b.push(&[1; 10], &[2; 20]);
        b.push(&[3; 5], &[4; 7]);
        let p = b.finish();
        assert_eq!(p.wire_bytes(), (6 + 10 + 20) + (6 + 5 + 7));
    }

    #[test]
    fn empty_payload() {
        let p = BulkBuilder::new(16).finish();
        assert!(p.is_empty());
        assert_eq!(p.iter().count(), 0);
        assert_eq!(p.wire_bytes(), 0);
    }

    #[test]
    fn iterator_is_restartable() {
        let mut b = BulkBuilder::new(256);
        b.push(b"k1", b"v1");
        b.push(b"k2", b"v2");
        let p = b.finish();
        assert_eq!(p.iter().count(), 2);
        assert_eq!(p.iter().count(), 2, "iter() must not consume the payload");
    }

    #[test]
    fn large_values_fit_when_capacity_allows() {
        let mut b = BulkBuilder::new(8192 + 64);
        assert!(b.push(&[9; 16], &vec![7u8; 8192]));
        let p = b.finish();
        let (k, v) = p.iter().next().unwrap();
        assert_eq!(k, &[9; 16]);
        assert_eq!(v.len(), 8192);
        assert_eq!(v[0], 7);
    }
}
