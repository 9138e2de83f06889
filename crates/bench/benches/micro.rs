//! Microbenchmarks of the core data structures: wall-clock performance
//! of the real algorithms that the simulation executes. (Simulated
//! experiment times come from the figure binaries; these benches guard
//! the implementation's own speed.)
//!
//! Self-timed (no external harness): each case runs a fixed iteration
//! count and prints ns/op. Run with `cargo bench --bench micro`.

use std::hint::black_box;
use std::sync::Arc;

use kvcsd_blockfs::{BlockFs, FsConfig};
use kvcsd_core::admission::Deadline;
use kvcsd_core::block::{IndexBlock, IndexBlockBuilder};
use kvcsd_core::compact::{compact, decode_pidx_block, PidxEntry};
use kvcsd_core::dram::DramBudget;
use kvcsd_core::extsort::ExtSorter;
use kvcsd_core::ingest::{KlogRecord, WriteLog};
use kvcsd_core::soc::SocCharger;
use kvcsd_core::zone_mgr::ZoneManager;
use kvcsd_flash::{
    ConvConfig, ConventionalNamespace, FlashGeometry, NandArray, ZnsConfig, ZonedNamespace,
};
use kvcsd_lsm::bloom::BloomFilter;
use kvcsd_lsm::memtable::MemTable;
use kvcsd_lsm::sstable::{new_block_cache, TableBuilder};
use kvcsd_proto::{BulkBuilder, SecondaryIndexSpec, SecondaryKeyType};
use kvcsd_sim::config::CostModel;
use kvcsd_sim::{HardwareSpec, IoLedger};

/// Time `iters` runs of `f` and print per-element cost.
fn bench<R>(name: &str, iters: u64, elements: u64, mut f: impl FnMut() -> R) {
    // One warmup run, then the timed loop.
    black_box(f());
    let start = kvcsd_sim::WallTimer::start();
    for _ in 0..iters {
        black_box(f());
    }
    let total = start.elapsed();
    let per_elem = total.as_nanos() as f64 / (iters * elements.max(1)) as f64;
    println!("{name:<28} {iters:>6} iters  {per_elem:>12.1} ns/elem");
}

fn keys(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("key-{:012}", (i as u64).wrapping_mul(0x9E3779B97F4A7C15)).into_bytes())
        .collect()
}

fn bench_bloom() {
    let ks = keys(10_000);
    bench("bloom/build_10k", 20, 10_000, || {
        BloomFilter::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10)
    });
    let f = BloomFilter::build(ks.iter().map(|k| k.as_slice()), ks.len(), 10);
    let mut i = 0usize;
    bench("bloom/probe", 100_000, 1, || {
        i = (i + 1) % ks.len();
        f.may_contain(&ks[i])
    });
}

fn bench_memtable() {
    let ks = keys(10_000);
    bench("memtable/insert_10k", 20, 10_000, || {
        let mut m = MemTable::new();
        for (i, k) in ks.iter().enumerate() {
            m.insert(k.clone(), i as u64, Some(vec![0u8; 32]));
        }
        m
    });
}

fn bench_bulk_pack() {
    let ks = keys(2_000);
    bench("proto/bulk_pack_2k_pairs", 50, 2_000, || {
        let mut bb = BulkBuilder::new(1 << 20);
        for k in &ks {
            bb.push(k, &[7u8; 32]);
        }
        bb.finish()
    });
}

fn bench_crc32() {
    // One 4 KiB page, the unit every WAL frame and snapshot is checksummed in.
    let page: Vec<u8> = (0..4096u32).map(|i| (i * 131) as u8).collect();
    bench("crc32/4k", 10_000, 4096, || kvcsd_sim::bytes::crc32(&page));
}

fn fresh_fs() -> BlockFs {
    let geom = FlashGeometry {
        channels: 8,
        blocks_per_channel: 1024,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
    let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
    let conv = Arc::new(ConventionalNamespace::new(nand, ConvConfig::default()));
    BlockFs::format(conv, CostModel::default(), FsConfig::default())
}

fn bench_sstable() {
    let ks = keys(5_000);
    let mut sorted = ks.clone();
    sorted.sort();
    let mut id = 0u64;
    bench("sstable/build_5k", 10, 5_000, || {
        let fs = fresh_fs();
        id += 1;
        let mut tb = TableBuilder::create(&fs, &format!("{id}.sst"), id, 4096, 16, 10).unwrap();
        for (i, k) in sorted.iter().enumerate() {
            tb.add(k, i as u64, Some(&[1u8; 32])).unwrap();
        }
        tb.finish().unwrap()
    });
    // Random point gets through the block cache.
    let fs = fresh_fs();
    let mut tb = TableBuilder::create(&fs, "t.sst", 1, 4096, 16, 10).unwrap();
    for (i, k) in sorted.iter().enumerate() {
        tb.add(k, i as u64, Some(&[1u8; 32])).unwrap();
    }
    let table = tb.finish().unwrap();
    let cache = new_block_cache(4096);
    let cost = CostModel::default();
    let mut i = 0usize;
    bench("sstable/get_warm", 10_000, 1, || {
        i = (i + 7919) % sorted.len();
        table.get(&fs, &cost, &cache, &sorted[i]).unwrap().unwrap()
    });
}

fn zone_mgr() -> (ZoneManager, SocCharger) {
    let geom = FlashGeometry {
        channels: 16,
        blocks_per_channel: 1024,
        pages_per_block: 16,
        page_bytes: 4096,
    };
    let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
    let nand = Arc::new(NandArray::new(
        geom,
        &HardwareSpec::default(),
        Arc::clone(&ledger),
    ));
    let zns = Arc::new(ZonedNamespace::new(
        nand,
        ZnsConfig {
            zone_blocks: 4,
            max_open_zones: 1 << 16,
        },
    ));
    (
        ZoneManager::new(zns, 1, 7),
        SocCharger::new(ledger, CostModel::default()),
    )
}

fn bench_device_paths() {
    let ks = keys(5_000);
    bench("device/ingest_5k_pairs", 10, 5_000, || {
        let (mgr, soc) = zone_mgr();
        let kc = mgr.alloc_cluster(8).unwrap();
        let vc = mgr.alloc_cluster(8).unwrap();
        let mut log = WriteLog::new(kc, vc);
        for k in &ks {
            log.put(&mgr, &soc, k, &[9u8; 32]).unwrap();
        }
        log.seal(&mgr).unwrap()
    });
    bench("device/extsort_5k", 10, 5_000, || {
        let (mgr, soc) = zone_mgr();
        let dram = DramBudget::new(128 << 10); // tight: forces spills
        let mut s: ExtSorter<'_, KlogRecord> = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        for (i, k) in ks.iter().enumerate() {
            s.push(KlogRecord {
                key: k.clone(),
                voff: i as u64 * 32,
                vlen: 32,
            })
            .unwrap();
        }
        let mut n = 0u64;
        s.finish_into(|_| {
            n += 1;
            Ok(())
        })
        .unwrap();
        n
    });
}

fn bench_compaction() {
    const ITERS: u64 = 10;
    let ks = keys(5_000);
    let energy = SecondaryIndexSpec {
        name: "energy".into(),
        value_offset: 28,
        value_len: 4,
        key_type: SecondaryKeyType::F32,
    };
    for (name, specs) in [
        ("compact/plain_5k", vec![]),
        ("compact/one_index_5k", vec![energy]),
    ] {
        // Ingest outside the timed loop: every run consumes its own logs.
        let mut sealed: Vec<_> = (0..=ITERS)
            .map(|_| {
                let (mgr, soc) = zone_mgr();
                let kc = mgr.alloc_cluster(8).unwrap();
                let vc = mgr.alloc_cluster(8).unwrap();
                let mut log = WriteLog::new(kc, vc);
                for (i, k) in ks.iter().enumerate() {
                    let mut v = vec![9u8; 32];
                    v[28..].copy_from_slice(&(i as f32).to_le_bytes());
                    log.put(&mgr, &soc, k, &v).unwrap();
                }
                let (klen, vlen) = log.seal(&mgr).unwrap();
                (mgr, soc, (kc, klen), (vc, vlen))
            })
            .collect();
        bench(name, ITERS, 5_000, || {
            let (mgr, soc, klog, vlog) = sealed.pop().unwrap();
            let dram = DramBudget::new(8 << 20);
            let out = compact(
                &mgr,
                &soc,
                &dram,
                klog,
                vlog,
                5_000,
                8,
                &specs,
                &Deadline::none(),
            );
            out.unwrap().1.len()
        });
    }
}

fn bench_pidx_block() {
    let mut builder = IndexBlockBuilder::new();
    let mut keys = Vec::new();
    loop {
        let e = PidxEntry {
            key: format!("key-{:012}", keys.len()).into_bytes(),
            voff: keys.len() as u64 * 32,
            vlen: 32,
        };
        if !builder.fits(&e) {
            break;
        }
        builder.add(&e);
        keys.push(e.key);
    }
    let n = keys.len() as u64;
    let (block, _) = builder.finish();
    bench("pidx/decode_block", 1_000, n, || {
        decode_pidx_block(&block).unwrap()
    });
    // A point lookup: seek to every key in turn and decode the entry.
    bench("pidx/seek", 1_000, n, || {
        keys.iter()
            .map(|k| {
                let mut view = IndexBlock::<PidxEntry>::open(&block).unwrap();
                view.seek(k).unwrap();
                view.next().unwrap().map_or(0, |e| e.voff)
            })
            .sum::<u64>()
    });
}

fn bench_end_to_end() {
    use kvcsd_bench::Testbed;
    use kvcsd_workloads::PutWorkload;
    let wl = PutWorkload::paper_micro(5_000, 99);
    bench("end_to_end/kvcsd_load_5k", 5, 5_000, || {
        let mut tb = Testbed::new();
        kvcsd_bench::kvcsd::load(&mut tb, 4, 1, &wl, true).insert_s
    });
    bench("end_to_end/lsm_load_5k", 5, 5_000, || {
        let mut tb = Testbed::new();
        kvcsd_bench::baseline::load(&mut tb, 4, 1, &wl, kvcsd_lsm::CompactionMode::Automatic)
            .insert_s
    });
}

fn main() {
    bench_bloom();
    bench_memtable();
    bench_bulk_pack();
    bench_crc32();
    bench_sstable();
    bench_device_paths();
    bench_compaction();
    bench_pidx_block();
    bench_end_to_end();
}
