//! The seekable index block: one layout for PIDX and SIDX blocks.
//!
//! ```text
//! count u16 | restart offsets u16 × ceil(count / 16) | entries
//! ```
//!
//! Entries are sorted by their seek key (the primary key in PIDX, the
//! secondary key in SIDX) and never span blocks, so the sketch can
//! address every block on its own. The byte offset of every
//! [`RESTART_INTERVAL`]-th entry is listed up front: the RocksDB
//! restart-point scheme the `kvcsd-lsm` baseline uses
//! (`crates/lsm/src/sstable.rs`), but with full keys and no prefix
//! compression, so any entry parses without its predecessors.
//!
//! A query opens an [`IndexBlock`] view over the block it read,
//! binary-searches the restart keys, scans at most one interval and then
//! decodes entries one at a time. It pays the SoC for the comparisons it
//! makes and the entries it parses, not for the block. The view borrows
//! the block and dies with the query: nothing is cached.

use std::marker::PhantomData;

use kvcsd_sim::bytes::try_le_u16;

use crate::error::DeviceError;
use crate::soc::SocCharger;
use crate::Result;
use crate::BLOCK_BYTES;

/// Entries between two restart points.
pub const RESTART_INTERVAL: usize = 16;

/// One entry layout an index block can hold.
pub trait IndexEntry: Sized {
    /// Bytes this entry occupies in a block.
    fn encoded_len(&self) -> usize;
    /// Serialize to the end of `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// The key entries are ordered and sought by.
    fn seek_key(&self) -> &[u8];
    /// Parse only the seek key of the entry at the start of `buf`:
    /// `(key, bytes parsed to reach it, entry length)`. `None` unless the
    /// whole entry lies within `buf`.
    fn peek_key(buf: &[u8]) -> Option<(&[u8], usize, usize)>;
    /// Decode the entry at the start of `buf`.
    fn decode(buf: &[u8]) -> Option<Self>;
}

fn restarts_for(count: usize) -> usize {
    count.div_ceil(RESTART_INTERVAL)
}

/// Bytes before the first entry of a block holding `count` entries.
fn header_len(count: usize) -> usize {
    2 + 2 * restarts_for(count)
}

fn malformed() -> DeviceError {
    DeviceError::Internal("malformed index block".into())
}

/// Packs sorted entries into one index block at a time.
#[derive(Debug)]
pub struct IndexBlockBuilder<E> {
    entries: Vec<u8>,
    /// Offsets of the restart entries within `entries`.
    restarts: Vec<u16>,
    count: u16,
    first_key: Option<Vec<u8>>,
    _entry: PhantomData<E>,
}

impl<E: IndexEntry> Default for IndexBlockBuilder<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: IndexEntry> IndexBlockBuilder<E> {
    pub fn new() -> Self {
        Self {
            entries: Vec::with_capacity(BLOCK_BYTES),
            restarts: Vec::new(),
            count: 0,
            first_key: None,
            _entry: PhantomData,
        }
    }

    /// True if `e` still fits in the current block.
    pub fn fits(&self, e: &E) -> bool {
        header_len(self.count as usize + 1) + self.entries.len() + e.encoded_len() <= BLOCK_BYTES
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append an entry; caller checks [`IndexBlockBuilder::fits`] first.
    pub fn add(&mut self, e: &E) {
        debug_assert!(self.fits(e));
        if (self.count as usize).is_multiple_of(RESTART_INTERVAL) {
            self.restarts.push(self.entries.len() as u16);
        }
        if self.first_key.is_none() {
            self.first_key = Some(e.seek_key().to_vec());
        }
        e.encode_into(&mut self.entries);
        self.count += 1;
    }

    /// Seal the block: returns `(block bytes, first key)` and resets.
    pub fn finish(&mut self) -> (Vec<u8>, Vec<u8>) {
        let header = header_len(self.count as usize);
        let mut block = Vec::with_capacity(header + self.entries.len());
        block.extend_from_slice(&self.count.to_le_bytes());
        for r in self.restarts.drain(..) {
            block.extend_from_slice(&(header as u16 + r).to_le_bytes());
        }
        block.extend_from_slice(&self.entries);
        self.entries.clear();
        self.count = 0;
        (block, self.first_key.take().unwrap_or_default())
    }
}

/// A cursor over one index block that tallies the SoC work it does.
#[derive(Debug)]
pub struct IndexBlock<'a, E> {
    block: &'a [u8],
    count: usize,
    /// Index and byte offset of the entry [`IndexBlock::next`] decodes.
    ix: usize,
    pos: usize,
    cmps: usize,
    parsed: usize,
    _entry: PhantomData<E>,
}

impl<'a, E: IndexEntry> IndexBlock<'a, E> {
    /// A view positioned at the first entry; parses only the count.
    pub fn open(block: &'a [u8]) -> Result<Self> {
        let count = try_le_u16(block, 0).ok_or_else(malformed)? as usize;
        let pos = header_len(count);
        if pos > block.len() {
            return Err(malformed());
        }
        Ok(Self {
            block,
            count,
            ix: 0,
            pos,
            cmps: 0,
            parsed: 2,
            _entry: PhantomData,
        })
    }

    /// Decode every entry. Full scans use this and charge the whole block
    /// themselves.
    pub fn decode_all(block: &'a [u8]) -> Result<Vec<E>> {
        let mut view = Self::open(block)?;
        let mut out = Vec::with_capacity(view.count);
        while let Some(e) = view.next()? {
            out.push(e);
        }
        Ok(out)
    }

    /// Byte offset of restart entry `r`.
    fn restart(&mut self, r: usize) -> Result<usize> {
        let off = try_le_u16(self.block, 2 + 2 * r).ok_or_else(malformed)? as usize;
        self.parsed += 2;
        if off < header_len(self.count) || off >= self.block.len() {
            return Err(malformed());
        }
        Ok(off)
    }

    /// Seek key and length of the entry at byte `pos`.
    fn key_at(&mut self, pos: usize) -> Result<(&'a [u8], usize)> {
        let (key, parsed, len) = self
            .block
            .get(pos..)
            .and_then(E::peek_key)
            .ok_or_else(malformed)?;
        self.parsed += parsed;
        Ok((key, len))
    }

    /// Position the view at the first entry whose seek key is not
    /// `before` (as `partition_point` would): a binary search over the
    /// restart keys, then a scan of at most one interval.
    fn seek_by(&mut self, before: impl Fn(&[u8]) -> bool) -> Result<()> {
        let (mut lo, mut hi) = (0, restarts_for(self.count));
        while lo < hi {
            let mid = (lo + hi) / 2;
            let pos = self.restart(mid)?;
            let (key, _) = self.key_at(pos)?;
            self.cmps += 1;
            if before(key) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // Restart `lo` is the first one not `before`, so the target lies
        // in the interval just ahead of it.
        self.ix = lo.saturating_sub(1) * RESTART_INTERVAL;
        self.pos = match lo {
            0 => header_len(self.count),
            _ => self.restart(lo - 1)?,
        };
        let end = (lo * RESTART_INTERVAL).min(self.count);
        while self.ix < end {
            let (key, len) = self.key_at(self.pos)?;
            self.cmps += 1;
            if !before(key) {
                break;
            }
            self.pos += len;
            self.ix += 1;
        }
        Ok(())
    }

    /// Position the view at the first entry whose seek key is `>= target`.
    pub fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.seek_by(|k| k < target)
    }

    /// Position the view at the first entry whose seek key is `> target`.
    pub fn seek_past(&mut self, target: &[u8]) -> Result<()> {
        self.seek_by(|k| k <= target)
    }

    /// Decode the entry under the cursor and step past it; `None` after
    /// the last entry.
    // Fallible, so not an `Iterator`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<E>> {
        if self.ix >= self.count {
            return Ok(None);
        }
        let e = self
            .block
            .get(self.pos..)
            .and_then(E::decode)
            .ok_or_else(malformed)?;
        let len = e.encoded_len();
        self.parsed += len;
        self.pos += len;
        self.ix += 1;
        Ok(Some(e))
    }

    /// Charge the SoC for this view's work: every comparison made and
    /// every byte parsed.
    pub fn charge(self, soc: &SocCharger) {
        soc.cmp(self.cmps as f64);
        soc.bytes(self.parsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::PidxEntry;
    use crate::sidx::SidxEntry;

    fn pidx(i: usize) -> PidxEntry {
        PidxEntry {
            // Even keys only, so odd ones fall between entries.
            key: format!("key-{:06}", 2 * i + 2).into_bytes(),
            voff: i as u64 * 32,
            vlen: 32,
        }
    }

    /// A block of `n` entries (or as many as fit when `n` is `None`).
    fn build<E: IndexEntry>(n: Option<usize>, entry: impl Fn(usize) -> E) -> Vec<u8> {
        let mut b = IndexBlockBuilder::new();
        for i in 0..n.unwrap_or(usize::MAX) {
            let e = entry(i);
            if !b.fits(&e) {
                assert!(n.is_none(), "{i} entries overflow a block");
                break;
            }
            b.add(&e);
        }
        b.finish().0
    }

    /// Where `seek`/`seek_past` land, as the entry `next` then decodes.
    fn landing(block: &[u8], target: &[u8], past: bool) -> Option<Vec<u8>> {
        let mut view = IndexBlock::<PidxEntry>::open(block).unwrap();
        if past {
            view.seek_past(target).unwrap();
        } else {
            view.seek(target).unwrap();
        }
        view.next().unwrap().map(|e| e.key)
    }

    #[test]
    fn seek_lands_where_partition_point_does() {
        for n in [Some(1), Some(15), Some(16), Some(17), None] {
            let block = build(n, pidx);
            assert!(block.len() <= BLOCK_BYTES);
            let all = IndexBlock::<PidxEntry>::decode_all(&block).unwrap();
            let count = all.len();
            assert_eq!(all, (0..count).map(pidx).collect::<Vec<_>>());
            // Every present key, every gap between keys, and both ends.
            let targets = (0..=2 * count + 2).map(|k| format!("key-{k:06}").into_bytes());
            for t in targets.chain([b"a".to_vec(), b"zzz".to_vec()]) {
                let lower = all.partition_point(|e| e.key < t);
                let upper = all.partition_point(|e| e.key <= t);
                let want = |ix: usize| all.get(ix).map(|e| e.key.clone());
                assert_eq!(landing(&block, &t, false), want(lower), "seek n={count}");
                assert_eq!(
                    landing(&block, &t, true),
                    want(upper),
                    "seek_past n={count}"
                );
            }
        }
    }

    #[test]
    fn sidx_blocks_seek_to_the_first_duplicate() {
        // Secondary keys repeat; `seek` must land on the first of a run.
        let entry = |i: usize| SidxEntry {
            skey: vec![(i / 7) as u8],
            pkey: format!("p{i:04}").into_bytes(),
            voff: i as u64,
            vlen: 1,
        };
        let block = build(Some(100), entry);
        let all = IndexBlock::<SidxEntry>::decode_all(&block).unwrap();
        assert_eq!(all, (0..100).map(entry).collect::<Vec<_>>());
        for s in 0..=15u8 {
            let mut view = IndexBlock::<SidxEntry>::open(&block).unwrap();
            view.seek(&[s]).unwrap();
            let got = view.next().unwrap().map(|e| e.pkey);
            assert_eq!(got, all.get(7 * s as usize).map(|e| e.pkey.clone()));
        }
    }

    #[test]
    fn damaged_blocks_are_errors_not_panics() {
        let block = build(Some(40), pidx);
        let seek_and_drain = |b: &[u8], target: &[u8]| -> Result<()> {
            let mut view = IndexBlock::<PidxEntry>::open(b)?;
            view.seek_past(target)?;
            while view.next()?.is_some() {}
            Ok(())
        };
        let key = pidx(30).key;
        assert!(seek_and_drain(&block, &key).is_ok());
        for cut in 0..block.len() {
            let b = &block[..cut];
            assert!(IndexBlock::<PidxEntry>::decode_all(b).is_err(), "cut {cut}");
            assert!(seek_and_drain(b, &key).is_err(), "cut {cut}");
        }
        // A restart offset pointing past the end of the block; seeking
        // past restart `r`'s own key makes the view follow that offset.
        for r in 0..restarts_for(40) {
            let mut bad = block.clone();
            bad[2 + 2 * r..4 + 2 * r].copy_from_slice(&(block.len() as u16 + 9).to_le_bytes());
            let target = pidx(r * RESTART_INTERVAL).key;
            assert!(seek_and_drain(&bad, &target).is_err(), "restart {r}");
        }
    }
}
