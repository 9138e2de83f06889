//! Virtual-time accounting from ledger and clock deltas.
//!
//! The benchmark never reads the program's own latency summaries. It
//! snapshots every ledger and clock the stack exposes before and after a
//! call ([`Gauges`]) and prices the difference itself:
//!
//! * a *lone op* (one call at depth 1) pays its serial stages — PCIe
//!   bytes and round trips, SoC CPU, the largest per-channel NAND busy
//!   delta, the block bridge, host CPU and every wait the program charged
//!   to a clock; on a cluster the device terms are the slowest shard's,
//!   plus the replication fabric's busy time;
//! * a *streaming phase* (accelerated ingest) costs
//!   [`TimeModel::phase_time`] at one host thread;
//! * a *device job* costs [`TimeModel::device_phase_time`] on the
//!   slowest shard.

use kvcsd_sim::config::SimConfig;
use kvcsd_sim::{HardwareSpec, LedgerSnapshot, TimeModel};

/// Ledger counters the program keeps by name. Each is summed over every
/// ledger it appears in.
pub const COUNTERS: [&str; 9] = [
    "client_retries",
    "client_poll_backoff_ns",
    "dev_admission_wait_ns",
    "dev_admission_slowdowns",
    "dev_admission_stalls",
    "dev_admission_rejects",
    "dev_compactions",
    "dev_single_pass_compactions",
    "dev_bulk_puts",
];

/// Index into [`Gauges::counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    ClientRetries = 0,
    ClientPollBackoffNs,
    AdmissionWaitNs,
    AdmissionSlowdowns,
    AdmissionStalls,
    AdmissionRejects,
    Compactions,
    SinglePassCompactions,
    BulkPuts,
}

/// One device's readings (the single device, or one cluster shard).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardGauges {
    pub ledger: LedgerSnapshot,
    /// The device clock, which admission waits advance.
    pub device_clock_ns: u64,
    /// The replication channel clock, which ship timeouts and backoff
    /// advance (0 on a single device).
    pub replica_clock_ns: u64,
}

/// Every ledger and clock of one stack at one instant; the difference of
/// two readings ([`Gauges::since`]) is the work done in between.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Gauges {
    /// The client's ledger: PCIe traffic and host CPU.
    pub host: LedgerSnapshot,
    /// True when the client's ledger is also the device's (a single
    /// device), so its host CPU must not be counted twice.
    pub shared_ledger: bool,
    pub shards: Vec<ShardGauges>,
    /// The client clock, which poll and retry backoff advance.
    pub client_clock_ns: u64,
    pub bus_busy_ns: u64,
    pub bus_msgs: u64,
    pub bus_bytes: u64,
    pub counters: [u64; COUNTERS.len()],
}

impl Gauges {
    /// Work done between `earlier` and `self`.
    pub fn since(&self, earlier: &Gauges) -> Gauges {
        Gauges {
            host: self.host.since(&earlier.host),
            shared_ledger: self.shared_ledger,
            shards: self
                .shards
                .iter()
                .zip(&earlier.shards)
                .map(|(a, b)| ShardGauges {
                    ledger: a.ledger.since(&b.ledger),
                    device_clock_ns: a.device_clock_ns.saturating_sub(b.device_clock_ns),
                    replica_clock_ns: a.replica_clock_ns.saturating_sub(b.replica_clock_ns),
                })
                .collect(),
            client_clock_ns: self.client_clock_ns.saturating_sub(earlier.client_clock_ns),
            bus_busy_ns: self.bus_busy_ns.saturating_sub(earlier.bus_busy_ns),
            bus_msgs: self.bus_msgs.saturating_sub(earlier.bus_msgs),
            bus_bytes: self.bus_bytes.saturating_sub(earlier.bus_bytes),
            counters: std::array::from_fn(|i| self.counters[i].saturating_sub(earlier.counters[i])),
        }
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Device-side ledgers: one per shard (the host ledger on a single
    /// device is the shard's).
    pub fn device_ledgers(&self) -> impl Iterator<Item = &LedgerSnapshot> {
        self.shards.iter().map(|s| &s.ledger)
    }

    pub fn soc_cpu_ns(&self) -> u64 {
        self.device_ledgers().map(|l| l.soc_cpu_ns).sum()
    }

    pub fn nand_read_pages(&self) -> u64 {
        self.device_ledgers().map(|l| l.nand_read_pages).sum()
    }

    pub fn nand_program_pages(&self) -> u64 {
        self.device_ledgers().map(|l| l.nand_program_pages).sum()
    }

    pub fn nand_erase_blocks(&self) -> u64 {
        self.device_ledgers().map(|l| l.nand_erase_blocks).sum()
    }

    /// Every channel's busy delta, shard after shard.
    pub fn channel_busy_ns(&self) -> Vec<u64> {
        self.device_ledgers()
            .flat_map(|l| l.channel_busy_ns.iter().copied())
            .collect()
    }

    /// The largest single-channel busy delta on any shard.
    pub fn max_channel_busy_ns(&self) -> u64 {
        self.channel_busy_ns().into_iter().max().unwrap_or(0)
    }

    /// Replica clock waits summed over shards.
    pub fn replica_wait_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.replica_clock_ns).sum()
    }
}

/// Prices [`Gauges`] deltas in virtual nanoseconds.
#[derive(Debug, Clone)]
pub struct Costs {
    hw: HardwareSpec,
    model: TimeModel,
}

impl Default for Costs {
    fn default() -> Self {
        Self::new(SimConfig::default())
    }
}

fn secs_to_ns(s: f64) -> u64 {
    (s * 1e9).round() as u64
}

impl Costs {
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            hw: cfg.hw.clone(),
            model: TimeModel::new(cfg),
        }
    }

    /// PCIe time of the client's traffic: bytes at link bandwidth plus
    /// one command round trip per message.
    pub fn pcie_ns(&self, w: &Gauges) -> u64 {
        let bytes = w.host.pcie_h2d_bytes + w.host.pcie_d2h_bytes;
        secs_to_ns(bytes as f64 / self.hw.pcie_bw_bps) + w.host.pcie_msgs * self.hw.pcie_cmd_ns
    }

    /// One shard's serial device-side time for a lone op.
    fn shard_serial_ns(&self, s: &ShardGauges, shared: bool) -> u64 {
        let l = &s.ledger;
        let host_cpu = if shared { 0 } else { l.host_cpu_ns };
        l.soc_cpu_ns
            + l.max_channel_busy_ns()
            + l.bridge_busy_ns
            + host_cpu
            + s.device_clock_ns
            + s.replica_clock_ns
    }

    /// Cost of a call made at depth 1: the sum of its serial stages, with
    /// the slowest shard standing for the device side.
    pub fn lone_op_ns(&self, w: &Gauges) -> u64 {
        let device = w
            .shards
            .iter()
            .map(|s| self.shard_serial_ns(s, w.shared_ledger))
            .max()
            .unwrap_or(0);
        self.pcie_ns(w) + w.host.host_cpu_ns + w.client_clock_ns + device + w.bus_busy_ns
    }

    /// Cost of a streaming phase driven by one host thread: the busiest
    /// resource of the pipeline, plus the waits charged to clocks.
    pub fn stream_ns(&self, w: &Gauges) -> u64 {
        let mut elapsed = self.model.phase_time(&w.host, 1).elapsed_s;
        if !w.shared_ledger {
            for s in &w.shards {
                elapsed = elapsed.max(self.model.device_phase_time(&s.ledger).elapsed_s);
            }
        }
        let waits = w
            .shards
            .iter()
            .map(|s| s.device_clock_ns)
            .max()
            .unwrap_or(0);
        secs_to_ns(elapsed) + waits + w.client_clock_ns
    }

    /// Cost of background jobs: the slowest shard's device phase, its
    /// clock waits, and the fabric time of the ships the jobs caused.
    pub fn job_ns(&self, w: &Gauges) -> u64 {
        let device = w
            .shards
            .iter()
            .map(|s| {
                secs_to_ns(self.model.device_phase_time(&s.ledger).elapsed_s)
                    + s.device_clock_ns
                    + s.replica_clock_ns
            })
            .max()
            .unwrap_or(0);
        device + w.bus_busy_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_sim::IoLedger;

    fn single(l: &IoLedger) -> Gauges {
        Gauges {
            host: l.snapshot(),
            shared_ledger: true,
            shards: vec![ShardGauges {
                ledger: l.snapshot(),
                ..ShardGauges::default()
            }],
            ..Gauges::default()
        }
    }

    #[test]
    fn lone_op_sums_serial_stages() {
        let l = IoLedger::new(4, 4096);
        let before = single(&l);
        l.dma_h2d(12_000); // 1 us at 12 GB/s, plus a 3 us round trip
        l.charge_soc_cpu(500.0);
        l.nand_read(2, 1, 25_000);
        let w = single(&l).since(&before);
        assert_eq!(
            Costs::default().lone_op_ns(&w),
            1_000 + 3_000 + 500 + 25_000
        );
    }

    #[test]
    fn shared_ledger_host_cpu_counts_once() {
        let l = IoLedger::new(4, 4096);
        let before = single(&l);
        l.charge_host_cpu(700.0);
        let w = single(&l).since(&before);
        assert_eq!(Costs::default().lone_op_ns(&w), 700);
    }
}
