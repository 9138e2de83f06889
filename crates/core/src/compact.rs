//! Offloaded, deferred compaction: unordered logs -> PIDX + SORTED_VALUES,
//! plus any requested secondary indexes in the same pass.
//!
//! "Sorting a keyspace is done in two steps. First, KV-CSD sorts the
//! keys. Then, KV-CSD uses the sorted keys to sort the values. ... Once a
//! keyspace is sorted, its original unsorted data, stored in VLOG and
//! KLOG zone clusters, is deleted and replaced with the newly formed
//! SORTED_VALUES and PIDX zone clusters. ... Both store data as a series
//! of 4 KB data blocks. A small sketch of the PIDX data, consisting of a
//! pivot primary index key and a block pointer for every constituent PIDX
//! data block, is additionally built and stored as keyspace metadata."
//!
//! The value step avoids random VLOG reads by the classic tag-and-resort
//! trick: while emitting sorted keys we learn each value's *rank* and its
//! final byte offset (a running sum of value lengths); we then sort
//! `(voff, rank)` tags back into VLOG order, stream VLOG *sequentially*
//! attaching ranks, and finally resort `(rank, value)` records to produce
//! SORTED_VALUES with nothing but sequential I/O and DRAM-bounded merge
//! passes — "multiple rounds of merge sorts" exactly as the paper says.
//!
//! [`compact`] is the only compaction pass. Given secondary-index specs it
//! is also the paper's single-step index construction (its stated future
//! work): the primary key rides along with every tag and value, and as
//! values stream out into SORTED_VALUES each spec's key is extracted into
//! one more sorter, sparing the full re-scan of a separate
//! [`crate::sidx::build_secondary_index`]. Without specs the records carry
//! no key and no index sorter runs.

use kvcsd_sim::bytes::{le_u16, le_u32, le_u64, try_le_u16, try_le_u32, try_le_u64};
use std::cmp::Ordering;

use kvcsd_proto::SecondaryIndexSpec;

use crate::admission::Deadline;
use crate::block::{IndexBlock, IndexEntry, IndexWriter, MAX_ENTRY_BYTES};
use crate::dram::DramBudget;
use crate::extsort::{ExtSorter, SortRecord};
use crate::ingest::{BlockStreamWriter, KlogRecord, StreamReader};
use crate::keyspace::Sketch;
use crate::sidx::{write_sidx_blocks, SidxEntry, SidxOutput, MAX_KEY_BYTES};
use crate::soc::SocCharger;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;

// ---------------------------------------------------------------------------
// PIDX block format
// ---------------------------------------------------------------------------

/// One primary-index entry: key -> value locator in SORTED_VALUES.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PidxEntry {
    pub key: Vec<u8>,
    pub voff: u64,
    pub vlen: u32,
}

const PIDX_ENTRY_HEADER: usize = 2 + 8 + 4;
const _: () = assert!(PIDX_ENTRY_HEADER + MAX_KEY_BYTES <= MAX_ENTRY_BYTES);

/// `klen u16 | voff u64 | vlen u32 | key`, in [`crate::block`] blocks.
impl IndexEntry for PidxEntry {
    fn encoded_len(&self) -> usize {
        PIDX_ENTRY_HEADER + self.key.len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.voff.to_le_bytes());
        out.extend_from_slice(&self.vlen.to_le_bytes());
        out.extend_from_slice(&self.key);
    }
    fn seek_key(&self) -> &[u8] {
        &self.key
    }
    fn peek_key(buf: &[u8]) -> Option<(&[u8], usize, usize)> {
        let klen = try_le_u16(buf, 0)? as usize;
        let len = PIDX_ENTRY_HEADER + klen;
        Some((buf.get(PIDX_ENTRY_HEADER..len)?, 2 + klen, len))
    }
    fn decode(buf: &[u8]) -> Option<Self> {
        let (key, _, _) = Self::peek_key(buf)?;
        Some(PidxEntry {
            key: key.to_vec(),
            voff: try_le_u64(buf, 2)?,
            vlen: try_le_u32(buf, 10)?,
        })
    }
}

/// Decode a whole PIDX block.
pub fn decode_pidx_block(block: &[u8]) -> Result<Vec<PidxEntry>> {
    IndexBlock::decode_all(block)
}

// ---------------------------------------------------------------------------
// Sort records for the value pass
// ---------------------------------------------------------------------------

/// Tag sorted back into VLOG order: where each value sits in VLOG, the
/// rank it must take in SORTED_VALUES and, when `KEYED`, its primary key
/// (empty otherwise).
///
/// `voff u64 | vlen u32 | rank u64 [| klen u16 | key]`
#[derive(Debug, Clone, PartialEq, Eq)]
struct GatherRec<const KEYED: bool> {
    voff: u64,
    vlen: u32,
    rank: u64,
    key: Vec<u8>,
}

impl<const KEYED: bool> GatherRec<KEYED> {
    const HEADER: usize = if KEYED { 22 } else { 20 };
}

impl<const KEYED: bool> SortRecord for GatherRec<KEYED> {
    fn encoded_len(&self) -> usize {
        Self::HEADER + self.key.len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.voff.to_le_bytes());
        out.extend_from_slice(&self.vlen.to_le_bytes());
        out.extend_from_slice(&self.rank.to_le_bytes());
        if KEYED {
            out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
            out.extend_from_slice(&self.key);
        }
    }
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self> {
        let hdr = r.read(Self::HEADER)?;
        let key = match KEYED {
            true => r.read(le_u16(&hdr, 20) as usize)?,
            false => Vec::new(),
        };
        Ok(GatherRec {
            voff: le_u64(&hdr, 0),
            vlen: le_u32(&hdr, 8),
            rank: le_u64(&hdr, 12),
            key,
        })
    }
    fn cmp_key(&self, other: &Self) -> Ordering {
        // Zero-length values share their starting offset with the next
        // real value; they must be consumed first to keep the VLOG read
        // strictly sequential. At most one record of nonzero length can
        // start at a given offset, so (voff, vlen) is a total enough order.
        self.voff.cmp(&other.voff).then(self.vlen.cmp(&other.vlen))
    }
}

/// A value tagged with its output rank and, when `KEYED`, its primary key
/// (empty otherwise).
///
/// `rank u64 | vlen u32 [| klen u16 | key] | value`
#[derive(Debug, Clone, PartialEq, Eq)]
struct ValueRec<const KEYED: bool> {
    rank: u64,
    key: Vec<u8>,
    value: Vec<u8>,
}

impl<const KEYED: bool> ValueRec<KEYED> {
    const HEADER: usize = if KEYED { 14 } else { 12 };
}

impl<const KEYED: bool> SortRecord for ValueRec<KEYED> {
    fn encoded_len(&self) -> usize {
        Self::HEADER + self.key.len() + self.value.len()
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.rank.to_le_bytes());
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        if KEYED {
            out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
            out.extend_from_slice(&self.key);
        }
        out.extend_from_slice(&self.value);
    }
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self> {
        let hdr = r.read(Self::HEADER)?;
        let key = match KEYED {
            true => r.read(le_u16(&hdr, 12) as usize)?,
            false => Vec::new(),
        };
        Ok(ValueRec {
            rank: le_u64(&hdr, 0),
            key,
            value: r.read(le_u32(&hdr, 8) as usize)?,
        })
    }
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.rank.cmp(&other.rank)
    }
}

// ---------------------------------------------------------------------------
// The compaction job
// ---------------------------------------------------------------------------

/// Result of compacting one keyspace.
#[derive(Debug)]
pub struct CompactionOutput {
    pub pidx: (ClusterId, u32),
    pub sketch: Sketch,
    pub svalues: (ClusterId, u64),
    pub pairs: u64,
}

/// Sort a sealed keyspace: consume its KLOG/VLOG clusters (released on
/// success) and produce PIDX + SORTED_VALUES clusters plus the sketch,
/// and one SIDX per entry of `specs`, built in the same data pass.
///
/// "One cost of consolidating all index construction into a single step
/// is the increased SoC DRAM usage. We expect KV-CSD to resort back to
/// separated index construction when DRAM resources become a
/// bottleneck." (Section V) Here each index adds a sorter that runs
/// beside the value sorter, and primary keys ride through the value
/// passes. When a sorter cannot reserve its minimum DRAM this returns
/// `OutOfResources` and the device falls back to separated construction.
///
/// The deadline is checked at each phase boundary (and once more before
/// the indexes are written, when there are any); an expired compaction
/// aborts between passes and the caller's orphan sweep unwinds its
/// partial output (the sealed logs stay untouched until the final swap).
#[allow(clippy::too_many_arguments)]
pub fn compact(
    mgr: &ZoneManager,
    soc: &SocCharger,
    dram: &DramBudget,
    klog: (ClusterId, u64),
    vlog: (ClusterId, u64),
    pairs: u64,
    cluster_width: u32,
    specs: &[SecondaryIndexSpec],
    deadline: &Deadline<'_>,
) -> Result<(CompactionOutput, Vec<SidxOutput>)> {
    let pass = match specs.is_empty() {
        true => compact_pass::<false>,
        false => compact_pass::<true>,
    };
    pass(
        mgr,
        soc,
        dram,
        klog,
        vlog,
        pairs,
        cluster_width,
        specs,
        deadline,
    )
}

/// [`compact`] with records that carry the primary key iff `KEYED`.
#[allow(clippy::too_many_arguments)]
fn compact_pass<const KEYED: bool>(
    mgr: &ZoneManager,
    soc: &SocCharger,
    dram: &DramBudget,
    klog: (ClusterId, u64),
    vlog: (ClusterId, u64),
    pairs: u64,
    cluster_width: u32,
    specs: &[SecondaryIndexSpec],
    deadline: &Deadline<'_>,
) -> Result<(CompactionOutput, Vec<SidxOutput>)> {
    // ---- Step 1: sort the keys -------------------------------------------
    let mut key_sorter: ExtSorter<'_, KlogRecord> = ExtSorter::new(mgr, soc, dram, cluster_width)?;
    {
        let mut r = StreamReader::new(mgr, klog.0, klog.1);
        for _ in 0..pairs {
            let rec = KlogRecord::read_from(&mut r)?;
            soc.bytes(rec.encoded_len());
            key_sorter.push(rec)?;
        }
    }
    deadline.check()?;

    // Emit PIDX blocks + sketch; collect (voff, vlen, rank) gather tags.
    let mut pidx = IndexWriter::new(mgr, cluster_width)?;
    let mut gather_sorter: ExtSorter<'_, GatherRec<KEYED>> =
        ExtSorter::new(mgr, soc, dram, cluster_width)?;
    let mut rank = 0u64;
    let mut out_voff = 0u64;
    key_sorter.finish_into(|rec| {
        let key = match KEYED {
            true => rec.key.clone(),
            false => Vec::new(),
        };
        pidx.push(&PidxEntry {
            key: rec.key,
            voff: out_voff,
            vlen: rec.vlen,
        })?;
        gather_sorter.push(GatherRec {
            voff: rec.voff,
            vlen: rec.vlen,
            rank,
            key,
        })?;
        rank += 1;
        out_voff += rec.vlen as u64;
        Ok(())
    })?;
    let (pidx, sketch) = pidx.finish()?;
    deadline.check()?;

    // ---- Step 2: sort the values, extracting index keys in flight -------
    // One sorter per index: the "increased SoC DRAM usage".
    let mut sidx_sorters = specs
        .iter()
        .map(|_| ExtSorter::new(mgr, soc, dram, cluster_width))
        .collect::<Result<Vec<ExtSorter<'_, SidxEntry>>>>()?;

    // 2a: tags back into VLOG order (they are a permutation of the VLOG
    //     byte sequence, so this merge restores sequential read order).
    let mut value_sorter: ExtSorter<'_, ValueRec<KEYED>> =
        ExtSorter::new(mgr, soc, dram, cluster_width)?;
    {
        let mut vread = StreamReader::new(mgr, vlog.0, vlog.1);
        gather_sorter.finish_into(|tag| {
            debug_assert_eq!(vread.position(), tag.voff, "VLOG reads must be sequential");
            let value = vread.read(tag.vlen as usize)?;
            soc.memcpy(value.len());
            value_sorter.push(ValueRec {
                rank: tag.rank,
                key: tag.key,
                value,
            })?;
            Ok(())
        })?;
    }
    deadline.check()?;

    // 2b: values into final order, streamed into SORTED_VALUES.
    let svalues_cluster = mgr.alloc_cluster(cluster_width)?;
    let mut writer = BlockStreamWriter::new(svalues_cluster);
    let mut expected_rank = 0u64;
    value_sorter.finish_into(|vr| {
        debug_assert_eq!(vr.rank, expected_rank, "ranks must arrive in order");
        let voff = writer.position();
        for (spec, sorter) in specs.iter().zip(sidx_sorters.iter_mut()) {
            if let Some(skey) = spec.extract(&vr.value) {
                soc.bytes(spec.value_len);
                sorter.push(SidxEntry {
                    skey,
                    pkey: vr.key.clone(),
                    voff,
                    vlen: vr.value.len() as u32,
                })?;
            }
        }
        expected_rank += 1;
        soc.memcpy(vr.value.len());
        writer.append(mgr, &vr.value)?;
        Ok(())
    })?;
    let svalues_len = writer.seal(mgr)?;
    debug_assert_eq!(svalues_len, out_voff);

    // ---- Finish the indexes, replace the logs -----------------------------
    if !specs.is_empty() {
        deadline.check()?;
    }
    let sidx = sidx_sorters
        .into_iter()
        .map(|sorter| write_sidx_blocks(mgr, sorter, cluster_width))
        .collect::<Result<Vec<_>>>()?;
    mgr.release_cluster(klog.0)?;
    mgr.release_cluster(vlog.0)?;

    let out = CompactionOutput {
        pidx,
        sketch,
        svalues: (svalues_cluster, svalues_len),
        pairs,
    };
    Ok((out, sidx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::IndexBlockBuilder;
    use crate::error::DeviceError;
    use crate::ingest::WriteLog;
    use crate::BLOCK_BYTES;
    use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig, ZonedNamespace};
    use kvcsd_sim::{config::CostModel, HardwareSpec, IoLedger, XorShift64};
    use std::sync::Arc;

    fn setup(blocks_per_channel: u32) -> (ZoneManager, SocCharger, DramBudget) {
        let geom = FlashGeometry {
            channels: 8,
            blocks_per_channel,
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
            ZoneManager::new(zns, 1, 123),
            SocCharger::new(ledger, CostModel::default()),
            DramBudget::new(4 << 20),
        )
    }

    /// Load `n` pairs with shuffled keys, compact, and return everything
    /// needed to verify the output.
    #[allow(clippy::type_complexity)]
    fn load_and_compact(
        n: u64,
        mgr: &ZoneManager,
        soc: &SocCharger,
        dram: &DramBudget,
    ) -> (CompactionOutput, Vec<(Vec<u8>, Vec<u8>)>) {
        let kc = mgr.alloc_cluster(4).unwrap();
        let vc = mgr.alloc_cluster(4).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let mut rng = XorShift64::new(n ^ 0xABCD);
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for i in 0..n {
            let key = format!("k{:012}", rng.next_below(u32::MAX as u64)).into_bytes();
            let value = format!("value-{i:08}-{}", rng.next_u64()).into_bytes();
            log.put(mgr, soc, &key, &value).unwrap();
            pairs.push((key, value));
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
        pairs.sort();
        (out, pairs)
    }

    fn read_all_entries(mgr: &ZoneManager, out: &CompactionOutput) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut got = Vec::new();
        for b in 0..out.pidx.1 {
            let block = mgr.read_block(out.pidx.0, b as u64).unwrap();
            for e in decode_pidx_block(&block).unwrap() {
                let v = mgr
                    .read_bytes(out.svalues.0, e.voff, e.vlen as usize)
                    .unwrap();
                got.push((e.key, v));
            }
        }
        got
    }

    #[test]
    fn pidx_block_roundtrip() {
        let mut b = IndexBlockBuilder::new();
        let entries: Vec<PidxEntry> = (0..50)
            .map(|i| PidxEntry {
                key: format!("key{i:04}").into_bytes(),
                voff: i * 100,
                vlen: 100,
            })
            .collect();
        for e in &entries {
            assert!(b.fits(e));
            b.add(e);
        }
        let (block, first) = b.finish();
        assert!(block.len() <= BLOCK_BYTES);
        assert_eq!(first, b"key0000");
        assert_eq!(decode_pidx_block(&block).unwrap(), entries);
    }

    #[test]
    fn pidx_block_capacity_bounded() {
        let mut b = IndexBlockBuilder::new();
        let mut added = 0;
        loop {
            let e = PidxEntry {
                key: vec![b'k'; 16],
                voff: 0,
                vlen: 1,
            };
            if !b.fits(&e) {
                break;
            }
            b.add(&e);
            added += 1;
        }
        // 4096 / (30 + 2/16 restart bytes) ~ 134 entries.
        assert!(added > 100 && added < 200, "{added}");
        let (block, _) = b.finish();
        assert!(block.len() <= BLOCK_BYTES);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_pidx_block(&[]).is_err());
        assert!(decode_pidx_block(&[200, 0, 1]).is_err());
    }

    #[test]
    fn compaction_sorts_small_keyspace() {
        let (mgr, soc, dram) = setup(64);
        let (out, want) = load_and_compact(500, &mgr, &soc, &dram);
        assert_eq!(out.pairs, 500);
        assert_eq!(out.sketch.blocks(), out.pidx.1);
        let got = read_all_entries(&mgr, &out);
        assert_eq!(got, want);
    }

    #[test]
    fn compaction_handles_multi_run_sorts() {
        let (mgr, soc, _dram) = setup(512);
        // Use a tight budget so the sort genuinely spills and merges.
        let tight = DramBudget::new(256 << 10);
        let (out, want) = load_and_compact(20_000, &mgr, &soc, &tight);
        let got = read_all_entries(&mgr, &out);
        assert_eq!(got.len(), want.len());
        assert_eq!(got, want);
    }

    #[test]
    fn logs_are_released_after_compaction() {
        let (mgr, soc, dram) = setup(64);
        let before = mgr.cluster_count();
        let (out, _) = load_and_compact(200, &mgr, &soc, &dram);
        // Only the two output clusters remain beyond the baseline.
        assert_eq!(mgr.cluster_count(), before + 2);
        assert_eq!(dram.used(), 0);
        let _ = out;
    }

    #[test]
    fn compaction_io_and_cpu_are_charged_to_device() {
        let (mgr, soc, dram) = setup(128);
        let before = soc.ledger().snapshot();
        load_and_compact(5_000, &mgr, &soc, &dram);
        let d = soc.ledger().snapshot().since(&before);
        assert!(d.soc_cpu_ns > 0);
        assert_eq!(
            d.host_cpu_ns, 0,
            "offloaded compaction must not use host CPU"
        );
        assert_eq!(
            d.pcie_bytes(),
            0,
            "compaction must not move data over the bus"
        );
        assert!(d.nand_read_pages > 0 && d.nand_program_pages > 0);
    }

    #[test]
    fn empty_keyspace_compacts_to_empty_output() {
        let (mgr, soc, dram) = setup(64);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let out = compact(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            0,
            2,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        assert_eq!(out.pairs, 0);
        assert_eq!(out.pidx.1, 0);
        assert!(out.sketch.is_empty());
        assert_eq!(out.svalues.1, 0);
    }

    #[test]
    fn duplicate_keys_survive_side_by_side() {
        // KV-CSD's minimal LSM has no overwrite semantics before
        // compaction (keys within a keyspace are expected unique); if an
        // application inserts duplicates they are all retained, sorted.
        let (mgr, soc, dram) = setup(64);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for i in 0..10u32 {
            log.put(&mgr, &soc, b"same-key", format!("v{i}").as_bytes())
                .unwrap();
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let out = compact(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            10,
            2,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        let got = read_all_entries(&mgr, &out);
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|(k, _)| k == b"same-key"));
    }

    #[test]
    fn single_pass_matches_separated_path() {
        use crate::sidx::{build_secondary_index, decode_sidx_block};
        use kvcsd_proto::{SecondaryIndexSpec, SecondaryKeyType};

        let spec = SecondaryIndexSpec {
            name: "tail".into(),
            value_offset: 8,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        };
        let load = |mgr: &ZoneManager, soc: &SocCharger| {
            let kc = mgr.alloc_cluster(4).unwrap();
            let vc = mgr.alloc_cluster(4).unwrap();
            let mut log = WriteLog::new(kc, vc);
            let mut rng = XorShift64::new(0xFACE);
            for _ in 0..2_000u32 {
                let key = format!("k{:010}", rng.next_below(u32::MAX as u64)).into_bytes();
                let mut value = vec![0u8; 16];
                value[8..12].copy_from_slice(&(rng.next_below(500) as u32).to_le_bytes());
                log.put(mgr, soc, &key, &value).unwrap();
            }
            let (klen, vlen) = log.seal(mgr).unwrap();
            ((kc, klen), (vc, vlen))
        };

        // Separated path.
        let (mgr_a, soc_a, dram_a) = setup(512);
        let (klog, vlog) = load(&mgr_a, &soc_a);
        let cout_a = compact(
            &mgr_a,
            &soc_a,
            &dram_a,
            klog,
            vlog,
            2_000,
            4,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        let sout_a = build_secondary_index(
            &mgr_a,
            &soc_a,
            &dram_a,
            cout_a.pidx,
            cout_a.svalues,
            &spec,
            4,
            &Deadline::none(),
        )
        .unwrap();

        // Single pass.
        let (mgr_b, soc_b, dram_b) = setup(512);
        let (klog, vlog) = load(&mgr_b, &soc_b);
        let (cout_b, souts_b) = compact(
            &mgr_b,
            &soc_b,
            &dram_b,
            klog,
            vlog,
            2_000,
            4,
            std::slice::from_ref(&spec),
            &Deadline::none(),
        )
        .unwrap();
        let sout_b = &souts_b[0];

        // Identical primary data.
        assert_eq!(
            read_all_entries(&mgr_a, &cout_a),
            read_all_entries(&mgr_b, &cout_b)
        );
        // Identical secondary indexes.
        assert_eq!(sout_a.entries, sout_b.entries);
        let read_sidx = |mgr: &ZoneManager, out: &crate::sidx::SidxOutput| {
            let mut v = Vec::new();
            for b in 0..out.blocks {
                v.extend(
                    decode_sidx_block(&mgr.read_block(out.cluster, b as u64).unwrap()).unwrap(),
                );
            }
            v
        };
        assert_eq!(read_sidx(&mgr_a, &sout_a), read_sidx(&mgr_b, sout_b));

        // And the single pass reads the keyspace data fewer times: the
        // separated path's index build re-reads PIDX + SORTED_VALUES.
        let reads_a = soc_a.ledger().snapshot().nand_read_pages;
        let reads_b = soc_b.ledger().snapshot().nand_read_pages;
        assert!(
            reads_b < reads_a,
            "single pass must read less: {reads_b} vs {reads_a}"
        );
    }

    #[test]
    fn single_pass_fails_cleanly_without_dram() {
        use kvcsd_proto::{SecondaryIndexSpec, SecondaryKeyType};
        let (mgr, soc, _big) = setup(256);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for i in 0..100u32 {
            log.put(&mgr, &soc, format!("k{i:05}").as_bytes(), &[0u8; 16])
                .unwrap();
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        // Barely enough DRAM for two sorters, not four.
        let tight = DramBudget::new(150 << 10);
        let specs = vec![SecondaryIndexSpec {
            name: "a".into(),
            value_offset: 0,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        }];
        let err = compact(
            &mgr,
            &soc,
            &tight,
            (kc, klen),
            (vc, vlen),
            100,
            2,
            &specs,
            &Deadline::none(),
        )
        .unwrap_err();
        assert!(matches!(err, DeviceError::OutOfResources(_)));
    }

    #[test]
    fn expired_deadline_aborts_between_phases() {
        use kvcsd_sim::VirtualClock;
        let (mgr, soc, dram) = setup(64);
        let kc = mgr.alloc_cluster(2).unwrap();
        let vc = mgr.alloc_cluster(2).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for i in 0..200u32 {
            log.put(&mgr, &soc, format!("k{i:06}").as_bytes(), &[7u8; 32])
                .unwrap();
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let clock = VirtualClock::new();
        clock.advance(1000);
        let expired = Deadline::new(&clock, Some(500));
        let err = compact(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            200,
            2,
            &[],
            &expired,
        )
        .unwrap_err();
        assert_eq!(err, DeviceError::DeadlineExceeded);
        assert_eq!(dram.used(), 0, "aborted compaction must release DRAM");
    }

    #[test]
    fn variable_value_sizes_roundtrip() {
        let (mgr, soc, dram) = setup(256);
        let kc = mgr.alloc_cluster(4).unwrap();
        let vc = mgr.alloc_cluster(4).unwrap();
        let mut log = WriteLog::new(kc, vc);
        let mut rng = XorShift64::new(55);
        let mut pairs = Vec::new();
        for i in 0..300u32 {
            let key = format!("k{:08}", rng.next_below(1_000_000)).into_bytes();
            let vlen = 1 + rng.next_below(6000) as usize; // spans blocks sometimes
            let value = vec![(i % 251) as u8; vlen];
            log.put(&mgr, &soc, &key, &value).unwrap();
            pairs.push((key, value));
        }
        let (klen, vlen) = log.seal(&mgr).unwrap();
        let out = compact(
            &mgr,
            &soc,
            &dram,
            (kc, klen),
            (vc, vlen),
            300,
            4,
            &[],
            &Deadline::none(),
        )
        .unwrap()
        .0;
        pairs.sort();
        assert_eq!(read_all_entries(&mgr, &out), pairs);
    }
}
