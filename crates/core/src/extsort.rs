//! DRAM-bounded external merge sort.
//!
//! "Sorting is done by running multiple rounds of merge sorts, depending
//! on available SoC DRAM space. Intermediate sorting results are stored
//! in dynamically allocated zone clusters, which are released upon
//! completion of the sort." (Section V)
//!
//! The sorter reserves what it can from the [`DramBudget`], accumulates
//! records until the reservation is full, sorts and spills a run to a
//! temporary zone cluster, and finally k-way-merges the runs (in multiple
//! passes when the run count exceeds the DRAM-derived fan-in). Every
//! comparison and byte moved is charged to the SoC; every spill and merge
//! readback is real zone I/O.
//!
//! Flash work is kept to what the data needs. A run's size is known before
//! its cluster is allocated, so it is striped `ceil(pages /
//! pages_per_block)` zones wide (at most `cluster_width`): each zone fills
//! one erase block and releasing the run erases the fewest blocks. A sort
//! that never outgrows its reservation never touches flash at all.

use std::cmp::Ordering;

use crate::dram::{DramBudget, DramReservation};
use crate::error::DeviceError;
use crate::ingest::{BlockStreamWriter, KlogRecord, StreamReader};
use crate::soc::SocCharger;
use crate::zone_mgr::ZoneManager;
use crate::Result;
use crate::BLOCK_BYTES;

/// A record an [`ExtSorter`] can spill, read back and order.
pub trait SortRecord: Sized {
    /// Bytes this record occupies in a run.
    fn encoded_len(&self) -> usize;
    /// Serialize to the end of `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Deserialize one record from a run stream.
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self>;
    /// Total order of records.
    fn cmp_key(&self, other: &Self) -> Ordering;
}

impl SortRecord for KlogRecord {
    fn encoded_len(&self) -> usize {
        KlogRecord::encoded_len(self)
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        KlogRecord::encode_into(self, out)
    }
    fn read_from(r: &mut StreamReader<'_>) -> Result<Self> {
        KlogRecord::read_from(r)
    }
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

#[derive(Debug)]
struct Run {
    cluster: crate::zone_mgr::ClusterId,
    len: u64,
    count: u64,
}

/// External merge sorter over zone clusters.
pub struct ExtSorter<'a, R: SortRecord> {
    mgr: &'a ZoneManager,
    soc: &'a SocCharger,
    cluster_width: u32,
    reservation: DramReservation<'a>,
    buf: Vec<R>,
    buf_bytes: u64,
    runs: Vec<Run>,
    total: u64,
}

/// Smallest DRAM reservation the sorter accepts (one block in, one out,
/// per merge stream at minimum fan-in).
const MIN_RESERVATION: u64 = 16 * BLOCK_BYTES as u64;

impl<'a, R: SortRecord> ExtSorter<'a, R> {
    /// Create a sorter. It immediately reserves sort memory from `dram`
    /// (as much as available, at least [`MIN_RESERVATION`]).
    pub fn new(
        mgr: &'a ZoneManager,
        soc: &'a SocCharger,
        dram: &'a DramBudget,
        cluster_width: u32,
    ) -> Result<Self> {
        let want = dram.available() / 2;
        let reservation = dram
            .reserve_up_to_guarded(want, MIN_RESERVATION)
            .ok_or_else(|| DeviceError::OutOfResources("sort DRAM".into()))?;
        Ok(Self {
            mgr,
            soc,
            cluster_width,
            reservation,
            buf: Vec::new(),
            buf_bytes: 0,
            runs: Vec::new(),
            total: 0,
        })
    }

    /// Bytes of DRAM this sorter reserved.
    pub fn reservation(&self) -> u64 {
        self.reservation.bytes()
    }

    /// Runs spilled so far (diagnostic; grows once input exceeds DRAM).
    pub fn spilled_runs(&self) -> usize {
        self.runs.len()
    }

    /// Feed one record.
    pub fn push(&mut self, rec: R) -> Result<()> {
        self.buf_bytes += rec.encoded_len() as u64;
        self.buf.push(rec);
        self.total += 1;
        if self.buf_bytes >= self.reservation.bytes() {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.soc.sort(self.buf.len());
        self.buf.sort_by(|a, b| a.cmp_key(b));
        let cluster = self
            .mgr
            .alloc_cluster_for(self.buf_bytes, self.cluster_width)?;
        let mut w = BlockStreamWriter::new(cluster);
        let mut enc = Vec::with_capacity(BLOCK_BYTES);
        let count = self.buf.len() as u64;
        for rec in self.buf.drain(..) {
            enc.clear();
            rec.encode_into(&mut enc);
            self.soc.bytes(enc.len());
            w.append(self.mgr, &enc)?;
        }
        let len = w.seal(self.mgr)?;
        self.runs.push(Run {
            cluster,
            len,
            count,
        });
        self.buf_bytes = 0;
        Ok(())
    }

    /// DRAM-derived merge fan-in.
    fn fan_in(&self) -> usize {
        ((self.reservation.bytes() / (4 * BLOCK_BYTES as u64)) as usize).clamp(2, 64)
    }

    /// K-way merge `runs` in key order into `sink`, returning the number
    /// of records emitted. Each emitted record costs one merge step.
    fn merge(&self, runs: &[Run], mut sink: impl FnMut(R) -> Result<()>) -> Result<u64> {
        let mut cursors: Vec<(StreamReader<'_>, u64, Option<R>)> = Vec::new();
        for run in runs {
            let mut r = StreamReader::new(self.mgr, run.cluster, run.len);
            let first = if run.count > 0 {
                Some(R::read_from(&mut r)?)
            } else {
                None
            };
            cursors.push((r, run.count.saturating_sub(1), first));
        }
        let k = cursors.len();
        let mut emitted = 0u64;
        loop {
            // Linear min selection: k is small (bounded by fan-in).
            let mut best: Option<usize> = None;
            let mut best_head: Option<&R> = None;
            for (i, (_, _, head)) in cursors.iter().enumerate() {
                if let Some(h) = head {
                    if best_head.is_none_or(|bh| h.cmp_key(bh) == Ordering::Less) {
                        best = Some(i);
                        best_head = Some(h);
                    }
                }
            }
            let Some(b) = best else { break };
            self.soc.merge_step(k);
            let (reader, remaining, head) = &mut cursors[b];
            let Some(rec) = head.take() else {
                return Err(DeviceError::Internal("merge cursor lost its head".into()));
            };
            if *remaining > 0 {
                *head = Some(R::read_from(reader)?);
                *remaining -= 1;
            }
            sink(rec)?;
            emitted += 1;
        }
        Ok(emitted)
    }

    /// Merge a group of runs into one new run, sized to the group.
    fn merge_runs(&self, group: Vec<Run>) -> Result<Run> {
        let bytes = group.iter().map(|r| r.len).sum();
        let cluster = self.mgr.alloc_cluster_for(bytes, self.cluster_width)?;
        let mut w = BlockStreamWriter::new(cluster);
        let mut enc = Vec::with_capacity(BLOCK_BYTES);
        let count = self.merge(&group, |rec| {
            enc.clear();
            rec.encode_into(&mut enc);
            self.soc.bytes(enc.len());
            w.append(self.mgr, &enc)?;
            Ok(())
        })?;
        for run in group {
            self.mgr.release_cluster(run.cluster)?;
        }
        let len = w.seal(self.mgr)?;
        Ok(Run {
            cluster,
            len,
            count,
        })
    }

    /// Finish sorting, streaming every record in order into `consume`.
    /// Releases all temporary clusters and the DRAM reservation.
    pub fn finish_into(mut self, mut consume: impl FnMut(R) -> Result<()>) -> Result<u64> {
        if self.runs.is_empty() {
            // Everything fit the reservation: sort in place and stream the
            // buffer out. No cluster, no program, no readback, no erase.
            let mut buf = std::mem::take(&mut self.buf);
            if !buf.is_empty() {
                self.soc.sort(buf.len());
                buf.sort_by(|a, b| a.cmp_key(b));
            }
            let n = buf.len() as u64;
            for rec in buf {
                consume(rec)?;
            }
            return Ok(n);
        }
        self.spill()?;
        let fan_in = self.fan_in();

        // Reduce the run count with intermediate passes.
        while self.runs.len() > fan_in {
            let group: Vec<Run> = self.runs.drain(..fan_in).collect();
            let merged = self.merge_runs(group)?;
            self.runs.push(merged);
        }

        // Final pass: merge whatever remains straight into the consumer.
        // The runs stay owned by `self` so a failure releases them on drop.
        let emitted = self.merge(&self.runs, consume)?;
        for run in std::mem::take(&mut self.runs) {
            self.mgr.release_cluster(run.cluster)?;
        }
        // The DRAM reservation guard releases itself when `self` drops.
        Ok(emitted)
    }
}

impl<R: SortRecord> Drop for ExtSorter<'_, R> {
    fn drop(&mut self) {
        // Failure path: return the zones (the DRAM reservation guard
        // field releases itself right after this runs).
        for run in self.runs.drain(..) {
            let _ = self.mgr.release_cluster(run.cluster);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig, ZonedNamespace};
    use kvcsd_sim::{config::CostModel, HardwareSpec, IoLedger, XorShift64};
    use std::sync::Arc;

    fn setup(blocks_per_channel: u32) -> (ZoneManager, SocCharger) {
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
            ZoneManager::new(zns, 1, 99),
            SocCharger::new(ledger, CostModel::default()),
        )
    }

    fn rec(i: u64) -> KlogRecord {
        KlogRecord {
            key: format!("{i:010}").into_bytes(),
            voff: i * 32,
            vlen: 32,
        }
    }

    #[test]
    fn sorts_in_memory_when_small() {
        let (mgr, soc) = setup(64);
        let dram = DramBudget::new(64 << 20);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        let mut rng = XorShift64::new(5);
        let mut keys: Vec<u64> = (0..1000).map(|_| rng.next_below(1_000_000)).collect();
        for &k in &keys {
            s.push(rec(k)).unwrap();
        }
        assert_eq!(s.spilled_runs(), 0, "everything fits in DRAM");
        let mut out = Vec::new();
        let n = s
            .finish_into(|r| {
                out.push(r);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 1000);
        keys.sort();
        let got: Vec<Vec<u8>> = out.iter().map(|r| r.key.clone()).collect();
        let want: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| format!("{k:010}").into_bytes())
            .collect();
        assert_eq!(got, want);
        assert_eq!(dram.used(), 0, "reservation returned");
    }

    #[test]
    fn sort_within_reservation_never_touches_flash() {
        let (mgr, soc) = setup(64);
        let dram = DramBudget::new(64 << 20);
        let clusters = mgr.cluster_count();
        let before = soc.ledger().snapshot();
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        for i in 0..1000u64 {
            s.push(rec(999 - i)).unwrap();
        }
        assert_eq!(mgr.cluster_count(), clusters);
        let n = s.finish_into(|_| Ok(())).unwrap();
        assert_eq!(n, 1000);
        let d = soc.ledger().snapshot().since(&before);
        assert_eq!(d.nand_read_pages, 0);
        assert_eq!(d.nand_program_pages, 0);
        assert_eq!(d.nand_erase_blocks, 0);
        assert_eq!(mgr.cluster_count(), clusters);
    }

    #[test]
    fn spills_and_merges_when_dram_is_tight() {
        let (mgr, soc) = setup(512);
        // Tiny budget: force many runs.
        let dram = DramBudget::new(MIN_RESERVATION * 2);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 4).unwrap();
        let mut rng = XorShift64::new(6);
        let n = 40_000u64;
        for _ in 0..n {
            s.push(rec(rng.next_below(10_000_000))).unwrap();
        }
        assert!(
            s.spilled_runs() > 1,
            "tight DRAM must spill: {}",
            s.spilled_runs()
        );
        let before_zones = mgr.cluster_count();
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0u64;
        s.finish_into(|r| {
            if let Some(p) = &prev {
                assert!(r.key >= *p, "output must be sorted");
            }
            prev = Some(r.key);
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, n);
        assert_eq!(dram.used(), 0);
        assert!(
            mgr.cluster_count() <= before_zones,
            "temp clusters released"
        );
    }

    #[test]
    fn multi_pass_merge_when_runs_exceed_fan_in() {
        let (mgr, soc) = setup(1024);
        let dram = DramBudget::new(MIN_RESERVATION);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        // fan_in at minimum reservation = 16*4096/(4*4096) = 4.
        assert_eq!(s.fan_in(), 4);
        let mut rng = XorShift64::new(7);
        // Push enough for > 4 runs (reservation 64 KiB, record ~24 B -> a
        // run every ~2700 records).
        for _ in 0..20_000u64 {
            s.push(rec(rng.next_below(1_000_000))).unwrap();
        }
        assert!(s.spilled_runs() > 4);
        let mut prev: Option<Vec<u8>> = None;
        let n = s
            .finish_into(|r| {
                if let Some(p) = &prev {
                    assert!(r.key >= *p);
                }
                prev = Some(r.key);
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 20_000);
    }

    #[test]
    fn duplicate_keys_are_all_retained() {
        let (mgr, soc) = setup(128);
        let dram = DramBudget::new(MIN_RESERVATION);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        for i in 0..5000u64 {
            s.push(rec(i % 10)).unwrap(); // heavy duplication
        }
        let mut count = 0u64;
        s.finish_into(|_| {
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 5000);
    }

    #[test]
    fn sort_work_is_charged_to_soc() {
        let (mgr, soc) = setup(64);
        let dram = DramBudget::new(64 << 20);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        for i in 0..1000u64 {
            s.push(rec(999 - i)).unwrap();
        }
        s.finish_into(|_| Ok(())).unwrap();
        let snap = soc.ledger().snapshot();
        assert!(snap.soc_cpu_ns > 0);
        assert_eq!(snap.host_cpu_ns, 0);
    }

    #[test]
    fn spill_io_is_real() {
        let (mgr, soc) = setup(512);
        let dram = DramBudget::new(MIN_RESERVATION);
        let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        let before = soc.ledger().snapshot();
        let mut rng = XorShift64::new(8);
        for _ in 0..20_000u64 {
            s.push(rec(rng.next_below(1_000_000))).unwrap();
        }
        s.finish_into(|_| Ok(())).unwrap();
        let d = soc.ledger().snapshot().since(&before);
        assert!(d.nand_program_pages > 0, "runs must hit flash");
        assert!(d.nand_read_pages > 0, "merge must read runs back");
    }

    #[test]
    fn empty_input_is_fine() {
        let (mgr, soc) = setup(64);
        let dram = DramBudget::new(1 << 20);
        let s: ExtSorter<'_, KlogRecord> = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
        let n = s.finish_into(|_| Ok(())).unwrap();
        assert_eq!(n, 0);
        assert_eq!(dram.used(), 0);
    }

    #[test]
    fn fails_cleanly_without_dram() {
        let (mgr, soc) = setup(64);
        let dram = DramBudget::new(1024); // below MIN_RESERVATION
        assert!(matches!(
            ExtSorter::<KlogRecord>::new(&mgr, &soc, &dram, 2),
            Err(DeviceError::OutOfResources(_))
        ));
    }

    #[test]
    fn drop_without_finish_releases_resources() {
        let (mgr, soc) = setup(512);
        let dram = DramBudget::new(MIN_RESERVATION);
        {
            let mut s = ExtSorter::new(&mgr, &soc, &dram, 2).unwrap();
            let mut rng = XorShift64::new(9);
            for _ in 0..20_000u64 {
                s.push(rec(rng.next_below(1_000_000))).unwrap();
            }
            assert!(s.spilled_runs() > 0);
        } // dropped here
        assert_eq!(dram.used(), 0);
        assert_eq!(mgr.cluster_count(), 0);
    }
}
