//! Device-side query processing.
//!
//! "To handle a query, KV-CSD first identifies the keyspace from the
//! keyspace manager's in-memory keyspace table. It then uses the
//! keyspace's metadata to locate all related primary or secondary index
//! data blocks on the SSD, and use them to process the incoming query.
//! Because query is entirely processed in a computational storage device,
//! only query results need to be transferred back to the application."
//!
//! All functions here read index blocks and values with real zone I/O.
//! KV-CSD does not cache data (the paper is explicit about this), so
//! every query pays its full I/O cost — which is why its latency is
//! "always linear to the total number of particles returned". The SoC
//! CPU it pays follows the same rule: a query pays for the entries it
//! parses, not the block. It binary-searches the sketch for the block,
//! then the block's restart points ([`crate::block`]) for a 16-entry
//! interval, and streams entries from there, charging the SoC for each
//! comparison it makes and each byte it parses.

use kvcsd_proto::Bound;

use crate::block::{IndexBlock, IndexEntry};
use crate::compact::PidxEntry;
use crate::error::DeviceError;
use crate::keyspace::{KsStorage, Sketch};
use crate::sidx::SidxEntry;
use crate::soc::SocCharger;
use crate::zone_mgr::{ClusterId, ZoneManager};
use crate::Result;

/// A COMPACTED keyspace that was compacted while empty has no PIDX or
/// SORTED_VALUES clusters at all; queries over it simply match nothing.
#[allow(clippy::type_complexity)]
fn pidx_of(storage: &KsStorage) -> Option<((ClusterId, u32), &Sketch, (ClusterId, u64))> {
    Some((storage.pidx?, &storage.pidx_sketch, storage.svalues?))
}

/// Fetch many values from SORTED_VALUES with one pass over the covering
/// blocks: locators are visited in ascending `voff` order and each 4 KiB
/// block is read exactly once into a single scan buffer (this is query
/// execution, not caching — the buffer dies with the query). Returns
/// values in the *original* locator order.
fn gather_values(
    mgr: &ZoneManager,
    soc: &SocCharger,
    svalues: ClusterId,
    locs: &[(u64, u32)],
) -> Result<Vec<Vec<u8>>> {
    let mut order: Vec<usize> = (0..locs.len()).collect();
    order.sort_by_key(|&i| locs[i].0);
    soc.cmp((locs.len().max(2) as f64) * (locs.len().max(2) as f64).log2() * 0.1);

    let bb = crate::BLOCK_BYTES as u64;
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); locs.len()];
    let mut cur_block: u64 = u64::MAX;
    let mut buf: Vec<u8> = Vec::new();
    for i in order {
        let (voff, vlen) = locs[i];
        let mut value = Vec::with_capacity(vlen as usize);
        let mut pos = voff;
        let end = voff + vlen as u64;
        while pos < end {
            let b = pos / bb;
            if b != cur_block {
                buf = mgr.read_block(svalues, b)?;
                cur_block = b;
            }
            let in_block = (pos % bb) as usize;
            let take = ((end - pos) as usize).min(crate::BLOCK_BYTES - in_block);
            value.extend_from_slice(&buf[in_block..in_block + take]);
            pos += take as u64;
        }
        soc.memcpy(value.len());
        // Each returned record is framed into the response capsule by the
        // SoC (the per-record data-path cost, same as on ingest).
        soc.kv_op();
        out[i] = value;
    }
    Ok(out)
}

/// Stream the entries whose seek key lies in `lo..hi` out of index
/// blocks `first..blocks` of `cluster`, stopping after `limit` hits. Only
/// block `first` is sought to `lo`: the caller picks it so that every
/// later block starts inside the range.
#[allow(clippy::too_many_arguments)]
fn scan<E: IndexEntry>(
    mgr: &ZoneManager,
    soc: &SocCharger,
    cluster: ClusterId,
    first: u32,
    blocks: u32,
    lo: &Bound,
    hi: &Bound,
    limit: Option<u64>,
) -> Result<Vec<E>> {
    let mut hits = Vec::new();
    for b in first..blocks {
        let raw = mgr.read_block(cluster, b as u64)?;
        let mut view = IndexBlock::<E>::open(&raw)?;
        if b == first {
            match lo {
                Bound::Unbounded => {}
                Bound::Included(k) => view.seek(k)?,
                Bound::Excluded(k) => view.seek_past(k)?,
            }
        }
        let mut hi_cmps = 0usize;
        let mut done = false;
        while let Some(e) = view.next()? {
            if !matches!(hi, Bound::Unbounded) {
                hi_cmps += 1;
            }
            if !hi.admits_from_above(e.seek_key()) {
                done = true;
                break;
            }
            hits.push(e);
            if limit.is_some_and(|l| hits.len() as u64 >= l) {
                done = true;
                break;
            }
        }
        view.charge(soc);
        soc.cmp(hi_cmps as f64);
        if done {
            break;
        }
    }
    Ok(hits)
}

/// Point query over the primary key.
pub fn point_get(
    mgr: &ZoneManager,
    soc: &SocCharger,
    storage: &KsStorage,
    key: &[u8],
) -> Result<Vec<u8>> {
    let Some((pidx, sketch, svalues)) = pidx_of(storage) else {
        return Err(DeviceError::KeyNotFound);
    };
    let Some(block_ix) = sketch.locate(key) else {
        return Err(DeviceError::KeyNotFound);
    };
    soc.cmp(sketch.search_cost());
    let raw = mgr.read_block(pidx.0, block_ix as u64)?;
    let mut view = IndexBlock::<PidxEntry>::open(&raw)?;
    view.seek(key)?;
    let found = view.next()?;
    view.charge(soc);
    soc.cmp(1.0);
    match found {
        Some(e) if e.key == key => {
            let value = mgr.read_bytes(svalues.0, e.voff, e.vlen as usize)?;
            soc.memcpy(value.len());
            Ok(value)
        }
        _ => Err(DeviceError::KeyNotFound),
    }
}

/// Range query over the primary key; returns `(key, value)` in key order.
pub fn range(
    mgr: &ZoneManager,
    soc: &SocCharger,
    storage: &KsStorage,
    lo: &Bound,
    hi: &Bound,
    limit: Option<u64>,
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let Some((pidx, sketch, svalues)) = pidx_of(storage) else {
        return Ok(Vec::new());
    };
    if sketch.is_empty() {
        return Ok(Vec::new());
    }
    // Primary keys are unique, so no block before the last pivot <= `lo`
    // can hold a key in range.
    let first = match lo {
        Bound::Unbounded => 0,
        Bound::Included(k) | Bound::Excluded(k) => sketch.locate(k).unwrap_or(0),
    };
    soc.cmp(sketch.search_cost());

    let hits: Vec<PidxEntry> = scan(mgr, soc, pidx.0, first, pidx.1, lo, hi, limit)?;
    let locs: Vec<(u64, u32)> = hits.iter().map(|e| (e.voff, e.vlen)).collect();
    let values = gather_values(mgr, soc, svalues.0, &locs)?;
    Ok(hits.into_iter().map(|e| e.key).zip(values).collect())
}

/// Point query over a secondary index: all records whose secondary key
/// equals `skey` (encoded), as `(primary key, value)` pairs.
pub fn sidx_get(
    mgr: &ZoneManager,
    soc: &SocCharger,
    storage: &KsStorage,
    index: &str,
    skey: &[u8],
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    sidx_range(
        mgr,
        soc,
        storage,
        index,
        &Bound::Included(skey.to_vec()),
        &Bound::Included(skey.to_vec()),
        None,
    )
}

/// Range query over a secondary index; returns full records ordered by
/// (secondary key, primary key).
pub fn sidx_range(
    mgr: &ZoneManager,
    soc: &SocCharger,
    storage: &KsStorage,
    index: &str,
    lo: &Bound,
    hi: &Bound,
    limit: Option<u64>,
) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let sidx = storage.sidx.get(index).ok_or(DeviceError::IndexNotFound)?;
    let svalues = storage
        .svalues
        .ok_or_else(|| DeviceError::Internal("no SORTED_VALUES".into()))?;
    if sidx.sketch.is_empty() {
        return Ok(Vec::new());
    }
    // Secondary keys repeat: blocks before the last pivot <= `lo` may
    // still end with `lo` itself, so an inclusive scan starts at the last
    // pivot strictly below it.
    let first = match lo {
        Bound::Unbounded => 0,
        Bound::Included(k) => sidx.sketch.locate_first(k).unwrap_or(0),
        Bound::Excluded(k) => sidx.sketch.locate(k).unwrap_or(0),
    };
    soc.cmp(sidx.sketch.search_cost());

    let hits: Vec<SidxEntry> = scan(mgr, soc, sidx.cluster, first, sidx.blocks, lo, hi, limit)?;
    // Matching records stream out of SORTED_VALUES in one gather pass.
    let locs: Vec<(u64, u32)> = hits.iter().map(|e| (e.voff, e.vlen)).collect();
    let values = gather_values(mgr, soc, svalues.0, &locs)?;
    Ok(hits.into_iter().map(|e| e.pkey).zip(values).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::{decode_pidx_block, run_compaction};
    use crate::dram::DramBudget;
    use crate::ingest::WriteLog;
    use crate::keyspace::SecondaryIndex;
    use crate::sidx::build_secondary_index;
    use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig, ZonedNamespace};
    use kvcsd_proto::{SecondaryIndexSpec, SecondaryKeyType, SidxKey};
    use kvcsd_sim::{config::CostModel, HardwareSpec, IoLedger};
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
            ZoneManager::new(zns, 1, 9),
            SocCharger::new(ledger, CostModel::default()),
            DramBudget::new(4 << 20),
        )
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    /// 32-byte value: filler + trailing u32 "score".
    fn scored_value(score: u32) -> Vec<u8> {
        let mut v = vec![0xAB; 32];
        v[28..].copy_from_slice(&score.to_le_bytes());
        v
    }

    /// Key `i`'s value in [`build_storage`]: score = i * 3.
    fn value(i: u32) -> Vec<u8> {
        scored_value(i * 3)
    }

    /// Build a fully compacted + indexed storage for `n` keys 0..n.
    fn build_storage(n: u32, mgr: &ZoneManager, soc: &SocCharger, dram: &DramBudget) -> KsStorage {
        build_scored_storage(n, |i| i * 3, mgr, soc, dram)
    }

    /// [`build_storage`] with key `i` scored `score(i)`.
    fn build_scored_storage(
        n: u32,
        score: impl Fn(u32) -> u32,
        mgr: &ZoneManager,
        soc: &SocCharger,
        dram: &DramBudget,
    ) -> KsStorage {
        let kc = mgr.alloc_cluster(4).unwrap();
        let vc = mgr.alloc_cluster(4).unwrap();
        let mut log = WriteLog::new(kc, vc);
        // Insert in reverse so compaction genuinely sorts.
        for i in (0..n).rev() {
            log.put(mgr, soc, &key(i), &scored_value(score(i))).unwrap();
        }
        let (klen, vlen) = log.seal(mgr).unwrap();
        let cout = run_compaction(
            mgr,
            soc,
            dram,
            (kc, klen),
            (vc, vlen),
            n as u64,
            4,
            &crate::admission::Deadline::none(),
        )
        .unwrap();
        let spec = SecondaryIndexSpec {
            name: "score".into(),
            value_offset: 28,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        };
        let sout = build_secondary_index(
            mgr,
            soc,
            dram,
            cout.pidx,
            cout.svalues,
            &spec,
            4,
            &crate::admission::Deadline::none(),
        )
        .unwrap();
        let mut storage = KsStorage {
            pidx: Some(cout.pidx),
            pidx_sketch: cout.sketch,
            svalues: Some(cout.svalues),
            ..KsStorage::default()
        };
        storage.sidx.insert(
            "score".into(),
            SecondaryIndex {
                spec,
                cluster: sout.cluster,
                blocks: sout.blocks,
                sketch: sout.sketch,
                entries: sout.entries,
            },
        );
        storage
    }

    #[test]
    fn point_get_hits_and_misses() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(3000, &mgr, &soc, &dram);
        for i in [0u32, 1, 1499, 2999] {
            assert_eq!(
                point_get(&mgr, &soc, &st, &key(i)).unwrap(),
                value(i),
                "key {i}"
            );
        }
        assert!(matches!(
            point_get(&mgr, &soc, &st, b"absent"),
            Err(DeviceError::KeyNotFound)
        ));
        assert!(matches!(
            point_get(&mgr, &soc, &st, &key(3001)),
            Err(DeviceError::KeyNotFound)
        ));
    }

    #[test]
    fn point_get_reads_few_blocks() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(3000, &mgr, &soc, &dram);
        let before = soc.ledger().snapshot();
        point_get(&mgr, &soc, &st, &key(1234)).unwrap();
        let d = soc.ledger().snapshot().since(&before);
        // One PIDX block + the value's block(s): tiny, bounded I/O.
        assert!(
            d.nand_read_pages <= 3,
            "point query read {} pages",
            d.nand_read_pages
        );
    }

    #[test]
    fn primary_range_queries() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(2000, &mgr, &soc, &dram);
        let got = range(
            &mgr,
            &soc,
            &st,
            &Bound::Included(key(100)),
            &Bound::Excluded(key(110)),
            None,
        )
        .unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0].0, key(100));
        assert_eq!(got[9].0, key(109));
        assert_eq!(got[5].1, value(105));

        // Inclusive upper bound.
        let got = range(
            &mgr,
            &soc,
            &st,
            &Bound::Excluded(key(100)),
            &Bound::Included(key(103)),
            None,
        )
        .unwrap();
        assert_eq!(
            got.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            vec![key(101), key(102), key(103)]
        );

        // Unbounded + limit.
        let got = range(
            &mgr,
            &soc,
            &st,
            &Bound::Unbounded,
            &Bound::Unbounded,
            Some(7),
        )
        .unwrap();
        assert_eq!(got.len(), 7);
        assert_eq!(got[0].0, key(0));

        // Empty range.
        let got = range(
            &mgr,
            &soc,
            &st,
            &Bound::Included(b"zzz".to_vec()),
            &Bound::Unbounded,
            None,
        )
        .unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn full_scan_returns_everything_in_order() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(1500, &mgr, &soc, &dram);
        let got = range(&mgr, &soc, &st, &Bound::Unbounded, &Bound::Unbounded, None).unwrap();
        assert_eq!(got.len(), 1500);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn sidx_point_query_finds_exact_scores() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(1000, &mgr, &soc, &dram);
        let skey = SidxKey::U32(300).encode(); // score of key 100
        let got = sidx_get(&mgr, &soc, &st, "score", &skey).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, key(100));
        assert_eq!(got[0].1, value(100));
        // Missing score.
        let got = sidx_get(&mgr, &soc, &st, "score", &SidxKey::U32(301).encode()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn sidx_range_selectivity() {
        let (mgr, soc, dram) = setup();
        let n = 2000u32;
        let st = build_storage(n, &mgr, &soc, &dram);
        // scores are 0,3,6,...; select score >= 3*(n-10) -> last 10 keys.
        let lo = SidxKey::U32(3 * (n - 10)).encode();
        let got = sidx_range(
            &mgr,
            &soc,
            &st,
            "score",
            &Bound::Included(lo),
            &Bound::Unbounded,
            None,
        )
        .unwrap();
        assert_eq!(got.len(), 10);
        let pkeys: Vec<Vec<u8>> = got.iter().map(|(p, _)| p.clone()).collect();
        let want: Vec<Vec<u8>> = (n - 10..n).map(key).collect();
        assert_eq!(pkeys, want);
    }

    #[test]
    fn sidx_io_scales_with_selectivity_not_dataset() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(4000, &mgr, &soc, &dram);
        let measure = |lo: u32| {
            let before = soc.ledger().snapshot();
            let got = sidx_range(
                &mgr,
                &soc,
                &st,
                "score",
                &Bound::Included(SidxKey::U32(lo * 3).encode()),
                &Bound::Unbounded,
                None,
            )
            .unwrap();
            let d = soc.ledger().snapshot().since(&before);
            (got.len(), d.nand_read_pages)
        };
        let (n_sel, io_sel) = measure(3990); // 10 results
        let (n_broad, io_broad) = measure(2000); // 2000 results
        assert_eq!(n_sel, 10);
        assert_eq!(n_broad, 2000);
        // The gather pass reads each covering block once, so broad
        // queries cost proportionally more I/O than selective ones (but
        // no longer one block per hit).
        assert!(
            io_broad > 5 * io_sel,
            "broad query I/O ({io_broad}) must dwarf selective query I/O ({io_sel})"
        );
    }

    #[test]
    fn sidx_groups_straddling_blocks_come_back_whole() {
        // 500 rows share each score, so every group spans several SIDX
        // blocks whose pivots repeat.
        let (mgr, soc, dram) = setup();
        let st = build_scored_storage(2000, |i| i / 500, &mgr, &soc, &dram);
        assert!(st.sidx["score"].blocks > 8);
        let pkeys = |rows: Vec<(Vec<u8>, Vec<u8>)>| -> Vec<Vec<u8>> {
            rows.into_iter().map(|(p, _)| p).collect()
        };
        for g in 0..4u32 {
            let skey = SidxKey::U32(g).encode();
            let group: Vec<Vec<u8>> = (500 * g..500 * (g + 1)).map(key).collect();
            let got = sidx_get(&mgr, &soc, &st, "score", &skey).unwrap();
            assert_eq!(pkeys(got), group, "sidx_get(score {g})");
            let from = |lo: Bound| {
                pkeys(sidx_range(&mgr, &soc, &st, "score", &lo, &Bound::Unbounded, None).unwrap())
            };
            let at_least: Vec<Vec<u8>> = (500 * g..2000).map(key).collect();
            assert_eq!(from(Bound::Included(skey.clone())), at_least, ">= {g}");
            assert_eq!(from(Bound::Excluded(skey)), at_least[500..], "> {g}");
        }
    }

    /// A charger on `soc`'s ledger that bills 1 ns per key comparison and
    /// nothing else, so the SoC counter counts comparisons.
    fn comparison_counter(soc: &SocCharger) -> SocCharger {
        let cost = CostModel {
            key_cmp_ns: 1.0,
            soc_slowdown: 1.0,
            memcpy_ns_per_byte: 0.0,
            codec_ns_per_byte: 0.0,
            kv_op_ns: 0.0,
            ..CostModel::default()
        };
        SocCharger::new(Arc::clone(soc.ledger()), cost)
    }

    #[test]
    fn point_get_charges_a_fraction_of_the_block_decode() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(3000, &mgr, &soc, &dram);
        let (pidx, _) = st.pidx.unwrap();
        // Block 1 of ~20 is full: compaction sealed it when key 2's block
        // had no room for the next entry.
        let block = decode_pidx_block(&mgr.read_block(pidx, 1).unwrap()).unwrap();
        assert!(block.len() > 150, "{} entries", block.len());
        let cost = soc.cost();
        let whole_block_vns = 4096.0 * cost.codec_ns_per_byte * cost.soc_slowdown;
        let charges: Vec<f64> = block
            .iter()
            .map(|e| {
                let before = soc.ledger().snapshot();
                point_get(&mgr, &soc, &st, &e.key).unwrap();
                soc.ledger().snapshot().since(&before).soc_cpu_ns as f64
            })
            .collect();
        // The whole GET, sketch search included, against the block decode
        // alone: a third on average; the key deepest in its interval
        // (sixteen comparisons) still pays less than half.
        let mean = charges.iter().sum::<f64>() / charges.len() as f64;
        let max = charges.iter().cloned().fold(0.0, f64::max);
        assert!(
            mean <= whole_block_vns / 3.0,
            "GET charged {mean} vns on average against a whole-block decode of {whole_block_vns}"
        );
        assert!(
            max <= whole_block_vns / 2.0,
            "GET charged up to {max} vns against a whole-block decode of {whole_block_vns}"
        );
    }

    #[test]
    fn range_seek_compares_nothing_before_its_restart_interval() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(3000, &mgr, &soc, &dram);
        let counter = comparison_counter(&soc);
        let (pidx, _) = st.pidx.unwrap();
        let block = decode_pidx_block(&mgr.read_block(pidx, 2).unwrap()).unwrap();
        let restarts = block.len().div_ceil(crate::block::RESTART_INTERVAL);
        let probes = restarts.ilog2() as u64 + 1;
        let sketch = st.pidx_sketch.search_cost() as u64;
        let interval = crate::block::RESTART_INTERVAL;
        for (ix, e) in block.iter().enumerate() {
            let before = counter.ledger().snapshot();
            let lo = Bound::Included(e.key.clone());
            let got = range(&mgr, &counter, &st, &lo, &Bound::Unbounded, Some(1)).unwrap();
            assert_eq!(got[0].0, e.key);
            let cmps = counter.ledger().snapshot().since(&before).soc_cpu_ns;
            // The seek scans the key's own interval up to the key, or the
            // whole interval before it when the key is a restart key (the
            // restart key says only that the target is at or before it).
            let scanned = match ix % interval {
                0 if ix > 0 => interval,
                at => at + 1,
            } as u64;
            let bound = sketch + probes + scanned;
            assert!(
                cmps <= bound,
                "entry {ix}: {cmps} comparisons, bound {bound}"
            );
        }
    }

    #[test]
    fn unknown_index_is_an_error() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(10, &mgr, &soc, &dram);
        assert!(matches!(
            sidx_get(&mgr, &soc, &st, "nope", &[0]),
            Err(DeviceError::IndexNotFound)
        ));
    }

    #[test]
    fn queries_charge_soc_and_return_only_results() {
        let (mgr, soc, dram) = setup();
        let st = build_storage(1000, &mgr, &soc, &dram);
        let before = soc.ledger().snapshot();
        point_get(&mgr, &soc, &st, &key(500)).unwrap();
        let d = soc.ledger().snapshot().since(&before);
        assert!(d.soc_cpu_ns > 0);
        assert_eq!(d.host_cpu_ns, 0);
        assert_eq!(
            d.pcie_bytes(),
            0,
            "query processing itself moves no bus data"
        );
    }
}
