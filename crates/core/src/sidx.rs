//! Offloaded secondary-index construction and the SIDX block format.
//!
//! "Building a secondary index is a two-step process. First, KV-CSD
//! performs a full scan of the keyspace data to extract all secondary
//! index keys from the values, along with their associated primary index
//! keys. ... Next, KV-CSD sorts these pairs in a manner similar to what
//! it does for sorting the primary index keys, producing the secondary
//! index stored in SIDX zone clusters." (Section V)
//!
//! Each SIDX entry also carries the value locator so that a secondary
//! query can stream matching records straight out of SORTED_VALUES
//! without a per-result primary-index lookup.

use kvcsd_sim::bytes::{le_u16, le_u32, le_u64, try_le_u16, try_le_u32, try_le_u64};
use std::cmp::Ordering;

use kvcsd_proto::SecondaryIndexSpec;

use crate::admission::Deadline;
use crate::block::{IndexBlock, IndexEntry, IndexWriter, MAX_ENTRY_BYTES};
use crate::compact::decode_pidx_block;
use crate::dram::DramBudget;
use crate::extsort::{ExtSorter, SortRecord};
use crate::ingest::StreamReader;
use crate::keyspace::Sketch;
use crate::soc::SocCharger;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;

/// One SIDX entry: encoded secondary key, primary key, value locator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidxEntry {
    pub skey: Vec<u8>,
    pub pkey: Vec<u8>,
    pub voff: u64,
    pub vlen: u32,
}

const SIDX_ENTRY_HEADER: usize = 2 + 2 + 8 + 4;

/// The longest primary key, and the longest secondary key, a device
/// accepts. An SIDX entry carries one of each and each gets half of
/// [`MAX_ENTRY_BYTES`], so every PIDX and SIDX entry fits a block.
pub const MAX_KEY_BYTES: usize = (MAX_ENTRY_BYTES - SIDX_ENTRY_HEADER) / 2;

impl SortRecord for SidxEntry {
    fn encoded_len(&self) -> usize {
        SIDX_ENTRY_HEADER + self.skey.len() + self.pkey.len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.skey.len() as u16).to_le_bytes());
        out.extend_from_slice(&(self.pkey.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.voff.to_le_bytes());
        out.extend_from_slice(&self.vlen.to_le_bytes());
        out.extend_from_slice(&self.skey);
        out.extend_from_slice(&self.pkey);
    }
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self> {
        let hdr = r.read(SIDX_ENTRY_HEADER)?;
        let sklen = le_u16(&hdr, 0) as usize;
        let pklen = le_u16(&hdr, 2) as usize;
        let voff = le_u64(&hdr, 4);
        let vlen = le_u32(&hdr, 12);
        let skey = r.read(sklen)?;
        let pkey = r.read(pklen)?;
        Ok(SidxEntry {
            skey,
            pkey,
            voff,
            vlen,
        })
    }
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.skey
            .cmp(&other.skey)
            .then_with(|| self.pkey.cmp(&other.pkey))
    }
}

/// The [`SortRecord`] layout, in [`crate::block`] blocks.
impl IndexEntry for SidxEntry {
    fn encoded_len(&self) -> usize {
        SortRecord::encoded_len(self)
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        SortRecord::encode_into(self, out)
    }
    fn seek_key(&self) -> &[u8] {
        &self.skey
    }
    fn peek_key(buf: &[u8]) -> Option<(&[u8], usize, usize)> {
        let sklen = try_le_u16(buf, 0)? as usize;
        let pklen = try_le_u16(buf, 2)? as usize;
        let skey_end = SIDX_ENTRY_HEADER + sklen;
        let len = skey_end + pklen;
        if len > buf.len() {
            return None;
        }
        Some((&buf[SIDX_ENTRY_HEADER..skey_end], 4 + sklen, len))
    }
    fn decode(buf: &[u8]) -> Option<Self> {
        let (skey, _, len) = Self::peek_key(buf)?;
        Some(SidxEntry {
            skey: skey.to_vec(),
            pkey: buf[SIDX_ENTRY_HEADER + skey.len()..len].to_vec(),
            voff: try_le_u64(buf, 4)?,
            vlen: try_le_u32(buf, 12)?,
        })
    }
}

/// Decode a whole SIDX block.
pub fn decode_sidx_block(block: &[u8]) -> Result<Vec<SidxEntry>> {
    IndexBlock::decode_all(block)
}

/// Result of building one secondary index.
#[derive(Debug)]
pub struct SidxOutput {
    pub cluster: ClusterId,
    pub blocks: u32,
    pub sketch: Sketch,
    pub entries: u64,
}

/// Build a secondary index over a COMPACTED keyspace.
///
/// Scans PIDX + SORTED_VALUES sequentially (the "full scan of the
/// keyspace data"), extracts `(secondary key, primary key)` pairs per the
/// application-supplied `spec`, external-sorts them, and writes SIDX
/// blocks plus the sketch. Values whose bytes cannot satisfy the spec
/// (too short) are skipped, mirroring a forgiving scan. The deadline is
/// checked between the scan and the sort-and-write phase.
#[allow(clippy::too_many_arguments)]
pub fn build_secondary_index(
    mgr: &ZoneManager,
    soc: &SocCharger,
    dram: &DramBudget,
    pidx: (ClusterId, u32),
    svalues: (ClusterId, u64),
    spec: &SecondaryIndexSpec,
    cluster_width: u32,
    deadline: &Deadline<'_>,
) -> Result<SidxOutput> {
    let mut sorter: ExtSorter<'_, SidxEntry> = ExtSorter::new(mgr, soc, dram, cluster_width)?;

    // Full scan: PIDX gives (pkey, voff, vlen) in order; SORTED_VALUES is
    // read sequentially alongside.
    let mut vread = StreamReader::new(mgr, svalues.0, svalues.1);
    for b in 0..pidx.1 {
        let block = mgr.read_block(pidx.0, b as u64)?;
        soc.bytes(block.len());
        for e in decode_pidx_block(&block)? {
            debug_assert_eq!(vread.position(), e.voff);
            let value = vread.read(e.vlen as usize)?;
            soc.bytes(value.len());
            if let Some(skey) = spec.extract(&value) {
                sorter.push(SidxEntry {
                    skey,
                    pkey: e.key,
                    voff: e.voff,
                    vlen: e.vlen,
                })?;
            }
        }
    }

    deadline.check()?;
    write_sidx_blocks(mgr, sorter, cluster_width)
}

/// Drain a sorted [`SidxEntry`] sorter into SIDX blocks plus the sketch.
/// Shared by the separate build above and by single-pass compaction
/// ([`crate::compact::compact`] with index specs).
pub fn write_sidx_blocks(
    mgr: &ZoneManager,
    sorter: ExtSorter<'_, SidxEntry>,
    cluster_width: u32,
) -> Result<SidxOutput> {
    let mut writer = IndexWriter::new(mgr, cluster_width)?;
    let mut entries = 0u64;
    sorter.finish_into(|e| {
        entries += 1;
        writer.push(&e)
    })?;
    let ((cluster, blocks), sketch) = writer.finish()?;
    Ok(SidxOutput {
        cluster,
        blocks,
        sketch,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::IndexBlockBuilder;
    use crate::compact::compact;
    use crate::ingest::WriteLog;
    use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig, ZonedNamespace};
    use kvcsd_proto::{SecondaryKeyType, SidxKey};
    use kvcsd_sim::{config::CostModel, HardwareSpec, IoLedger, XorShift64};
    use std::sync::Arc;

    fn setup() -> (ZoneManager, SocCharger, DramBudget) {
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel: 256,
            pages_per_block: 16,
            page_bytes: 4096,
        };
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        let nand = Arc::new(NandArray::new(
            geom,
            &HardwareSpec::default(),
            Arc::clone(&ledger),
        ));
        let zns = Arc::new(ZonedNamespace::new(nand, ZnsConfig::default()));
        (
            ZoneManager::new(zns, 1, 321),
            SocCharger::new(ledger, CostModel::default()),
            DramBudget::new(4 << 20),
        )
    }

    /// Particle-style values: 28 bytes payload + 4-byte f32 energy tail.
    fn particle_value(energy: f32, filler: u8) -> Vec<u8> {
        let mut v = vec![filler; 32];
        v[28..].copy_from_slice(&energy.to_le_bytes());
        v
    }

    fn energy_spec() -> SecondaryIndexSpec {
        SecondaryIndexSpec {
            name: "energy".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::F32,
        }
    }

    fn compacted_keyspace(
        n: u64,
        mgr: &ZoneManager,
        soc: &SocCharger,
        dram: &DramBudget,
    ) -> (crate::compact::CompactionOutput, Vec<(Vec<u8>, f32)>) {
        let kc = mgr.alloc_cluster(4).unwrap();
        let vc = mgr.alloc_cluster(4).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let mut rng = XorShift64::new(n ^ 777);
        let mut truth = Vec::new();
        for i in 0..n {
            let key = format!("particle-{:010}", rng.next_below(u32::MAX as u64)).into_bytes();
            let energy = (rng.next_f64() * 10.0) as f32;
            log.put(mgr, soc, &key, &particle_value(energy, i as u8))
                .unwrap();
            truth.push((key, energy));
        }
        let (klen, vlen) = log.seal(mgr).unwrap();
        let out = compact(
            mgr,
            soc,
            dram,
            (kc, klen),
            (vc, vlen),
            n,
            4,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        (out, truth)
    }

    fn read_sidx(mgr: &ZoneManager, out: &SidxOutput) -> Vec<SidxEntry> {
        let mut got = Vec::new();
        for b in 0..out.blocks {
            got.extend(decode_sidx_block(&mgr.read_block(out.cluster, b as u64).unwrap()).unwrap());
        }
        got
    }

    #[test]
    fn sidx_block_roundtrip() {
        let mut b = IndexBlockBuilder::new();
        let entries: Vec<SidxEntry> = (0..40u32)
            .map(|i| SidxEntry {
                skey: SidxKey::F32(i as f32).encode(),
                pkey: format!("p{i:06}").into_bytes(),
                voff: i as u64 * 32,
                vlen: 32,
            })
            .collect();
        for e in &entries {
            assert!(b.fits(e));
            b.add(e);
        }
        let (block, first) = b.finish();
        assert_eq!(first, SidxKey::F32(0.0).encode());
        assert_eq!(decode_sidx_block(&block).unwrap(), entries);
    }

    #[test]
    fn build_produces_sorted_complete_index() {
        let (mgr, soc, dram) = setup();
        let (cout, truth) = compacted_keyspace(2_000, &mgr, &soc, &dram);
        let out = build_secondary_index(
            &mgr,
            &soc,
            &dram,
            cout.pidx,
            cout.svalues,
            &energy_spec(),
            4,
            &Deadline::none(),
        )
        .unwrap();
        assert_eq!(out.entries, 2_000);
        assert_eq!(out.sketch.blocks(), out.blocks);
        let got = read_sidx(&mgr, &out);
        assert_eq!(got.len(), 2_000);
        // Sorted by encoded secondary key (ties by pkey).
        assert!(got
            .windows(2)
            .all(|w| (w[0].skey.as_slice(), w[0].pkey.as_slice())
                <= (w[1].skey.as_slice(), w[1].pkey.as_slice())));
        // Every particle is present with the correct energy encoding.
        let mut want: Vec<(Vec<u8>, Vec<u8>)> = truth
            .iter()
            .map(|(k, e)| (SidxKey::F32(*e).encode(), k.clone()))
            .collect();
        want.sort();
        let have: Vec<(Vec<u8>, Vec<u8>)> = got
            .iter()
            .map(|e| (e.skey.clone(), e.pkey.clone()))
            .collect();
        assert_eq!(have, want);
    }

    #[test]
    fn value_locators_resolve_to_real_records() {
        let (mgr, soc, dram) = setup();
        let (cout, _) = compacted_keyspace(500, &mgr, &soc, &dram);
        let out = build_secondary_index(
            &mgr,
            &soc,
            &dram,
            cout.pidx,
            cout.svalues,
            &energy_spec(),
            4,
            &Deadline::none(),
        )
        .unwrap();
        for e in read_sidx(&mgr, &out).iter().step_by(37) {
            let value = mgr
                .read_bytes(cout.svalues.0, e.voff, e.vlen as usize)
                .unwrap();
            let energy = f32::from_le_bytes(value[28..32].try_into().unwrap());
            assert_eq!(SidxKey::F32(energy).encode(), e.skey);
        }
    }

    #[test]
    fn short_values_are_skipped_not_fatal() {
        let (mgr, soc, dram) = setup();
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        log.put(&mgr, &soc, b"good", &particle_value(5.0, 1))
            .unwrap();
        log.put(&mgr, &soc, b"tiny", b"xx").unwrap(); // too short for the spec
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let cout = compact(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            2,
            2,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        let out = build_secondary_index(
            &mgr,
            &soc,
            &dram,
            cout.pidx,
            cout.svalues,
            &energy_spec(),
            2,
            &Deadline::none(),
        )
        .unwrap();
        assert_eq!(out.entries, 1);
        assert_eq!(read_sidx(&mgr, &out)[0].pkey, b"good");
    }

    #[test]
    fn build_charges_device_only() {
        let (mgr, soc, dram) = setup();
        let (cout, _) = compacted_keyspace(1_000, &mgr, &soc, &dram);
        let before = soc.ledger().snapshot();
        build_secondary_index(
            &mgr,
            &soc,
            &dram,
            cout.pidx,
            cout.svalues,
            &energy_spec(),
            4,
            &Deadline::none(),
        )
        .unwrap();
        let d = soc.ledger().snapshot().since(&before);
        assert!(d.soc_cpu_ns > 0);
        assert_eq!(d.host_cpu_ns, 0);
        assert_eq!(d.pcie_bytes(), 0);
        assert!(d.nand_read_pages > 0, "full scan must read the keyspace");
    }

    #[test]
    fn empty_keyspace_builds_empty_index() {
        let (mgr, soc, dram) = setup();
        let (cout, _) = compacted_keyspace(0, &mgr, &soc, &dram);
        let out = build_secondary_index(
            &mgr,
            &soc,
            &dram,
            cout.pidx,
            cout.svalues,
            &energy_spec(),
            2,
            &Deadline::none(),
        )
        .unwrap();
        assert_eq!(out.entries, 0);
        assert_eq!(out.blocks, 0);
    }
}
