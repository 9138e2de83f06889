//! The closed-loop virtual timeline of one round, and the per-layer
//! accumulators every workload fills the same way.

use std::collections::BTreeMap;

use kvcsd_client::Job;
use kvcsd_proto::JobState;

use crate::cost::{Counter, Gauges};
use crate::stack::{Backend, Stack};
use crate::stats::{nearest_rank, ratio};
use crate::trace::{self_times, Layer, Span, SpanWork, HANDLE_CLASSES};

/// Background drives before a job that is still running counts as lost.
const MAX_POLLS: usize = 8;

/// Work attributed to one class of client call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassAcc {
    pub calls: u64,
    pub read_pages: u64,
    pub program_pages: u64,
    /// Rows returned (queries only).
    pub rows: u64,
    /// User-visible latencies in virtual ns (see each workload for what
    /// a sample spans).
    pub lat_ns: Vec<u64>,
}

/// The single client's virtual timeline: every call at depth 1 advances
/// it by its cost, so a closed loop's latencies and throughput read off
/// it directly.
pub struct Meter<'a> {
    pub stack: &'a Stack,
    pub now_ns: u64,
    pub classes: BTreeMap<&'static str, ClassAcc>,
    /// Work done by background jobs.
    pub jobs: SpanWork,
    pub fg_erases: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each request the workload counts end to end.
    pub requests: Vec<u64>,
    pub user_ops: u64,
    pub pairs_written: u64,
    pub user_bytes_written: u64,
    /// Time-to-queryable samples (virtual ns).
    pub queryable: Vec<u64>,
    /// Pairs ingested and the virtual time they took.
    pub ingest_pairs: u64,
    pub ingest_ns: u64,
    start: Gauges,
}

impl<'a> Meter<'a> {
    pub fn new(stack: &'a Stack) -> Self {
        let start = stack.gauges();
        Self {
            stack,
            now_ns: 0,
            classes: BTreeMap::new(),
            jobs: SpanWork::default(),
            fg_erases: 0,
            attempted: 0,
            failed: 0,
            requests: Vec::new(),
            user_ops: 0,
            pairs_written: 0,
            user_bytes_written: 0,
            queryable: Vec::new(),
            ingest_pairs: 0,
            ingest_ns: 0,
            start,
        }
    }

    pub fn class(&mut self, class: &'static str) -> &mut ClassAcc {
        self.classes.entry(class).or_default()
    }

    fn charge(&mut self, class: &'static str, w: &Gauges) {
        self.fg_erases += w.nand_erase_blocks();
        let acc = self.class(class);
        acc.calls += 1;
        acc.read_pages += w.nand_read_pages();
        acc.program_pages += w.nand_program_pages();
    }

    /// One client call at depth 1. Returns its result and its cost; the
    /// timeline advances by the cost.
    pub fn lone<T>(&mut self, class: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let before = self.stack.gauges();
        let out = self.stack.traced(class, f);
        let w = self.stack.gauges().since(&before);
        let cost = self.stack.costs.lone_op_ns(&w);
        self.charge(class, &w);
        self.attempted += 1;
        self.now_ns += cost;
        (out, cost)
    }

    /// A streaming phase of `calls` client calls priced as one pipeline.
    pub fn stream<T>(
        &mut self,
        class: &'static str,
        calls: u64,
        f: impl FnOnce(&Stack) -> T,
    ) -> (T, u64) {
        let before = self.stack.gauges();
        let out = f(self.stack);
        let w = self.stack.gauges().since(&before);
        let cost = self.stack.costs.stream_ns(&w);
        self.charge(class, &w);
        self.class(class).calls += calls.saturating_sub(1);
        self.attempted += calls;
        self.now_ns += cost;
        (out, cost)
    }

    /// Drive background jobs to completion; returns their cost.
    pub fn run_jobs(&mut self) -> u64 {
        let before = self.stack.gauges();
        self.stack.run_jobs();
        let w = self.stack.gauges().since(&before);
        let cost = self.stack.costs.job_ns(&w);
        self.jobs.add(&SpanWork::of(&w));
        self.now_ns += cost;
        cost
    }

    /// Drive background work and poll `job` until it stops. Returns
    /// false (and counts a failure) if it failed or never finished.
    pub fn await_job(&mut self, job: &Job) -> bool {
        for _ in 0..MAX_POLLS {
            self.run_jobs();
            match self.lone("poll", || job.poll()).0 {
                Ok(JobState::Done) => return true,
                Ok(JobState::Failed(e)) => {
                    self.fail(&format!("job failed: {e}"));
                    return false;
                }
                Ok(_) => {}
                Err(e) => {
                    self.fail(&format!("poll: {e}"));
                    return false;
                }
            }
        }
        self.fail("job never finished");
        false
    }

    /// Record a failed or wrong-result operation.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: failed op: {what}");
        }
    }

    /// Close the round.
    pub fn finish(self, setup_host_s: f64, measured_host_s: f64) -> RoundReport {
        let phase = self.stack.gauges().since(&self.start);
        let cluster = matches!(self.stack.backend, Backend::Cluster(_));
        let pcie_ns = self.stack.costs.pcie_ns(&phase);
        RoundReport {
            attempted: self.attempted,
            failed: self.failed,
            timeline_ns: self.now_ns,
            requests: self.requests,
            user_ops: self.user_ops,
            pairs_written: self.pairs_written,
            user_bytes_written: self.user_bytes_written,
            queryable: self.queryable,
            ingest_pairs: self.ingest_pairs,
            ingest_ns: self.ingest_ns,
            classes: self.classes,
            jobs: self.jobs,
            fg_erases: self.fg_erases,
            phase,
            pcie_ns,
            cluster,
            setup_host_s,
            measured_host_s,
            spans: self.stack.tracer.as_ref().map(|t| t.spans()),
        }
    }
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub(crate) fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one round measured.
#[derive(Debug, Clone)]
pub struct RoundReport {
    pub attempted: u64,
    pub failed: u64,
    pub timeline_ns: u64,
    pub requests: Vec<u64>,
    pub user_ops: u64,
    pub pairs_written: u64,
    pub user_bytes_written: u64,
    pub queryable: Vec<u64>,
    pub ingest_pairs: u64,
    pub ingest_ns: u64,
    pub classes: BTreeMap<&'static str, ClassAcc>,
    pub jobs: SpanWork,
    pub fg_erases: u64,
    /// Work over the whole measured phase.
    pub phase: Gauges,
    pub pcie_ns: u64,
    pub cluster: bool,
    pub setup_host_s: f64,
    pub measured_host_s: f64,
    pub spans: Option<Vec<Span>>,
}

fn p_us(lat: &[u64], p: u64) -> f64 {
    let mut s = lat.to_vec();
    s.sort_unstable();
    nearest_rank(&s, p) as f64 / 1e3
}

impl RoundReport {
    /// User ops per virtual second, in thousands.
    pub fn v_kops_per_vs(&self) -> f64 {
        ratio(self.user_ops as f64 * 1e6, self.timeline_ns as f64)
    }

    /// p99 of the request latencies, virtual us.
    pub fn op_p99_vus(&self) -> f64 {
        p_us(&self.requests, 99)
    }

    /// User ops per host second of the measured phase, in thousands.
    pub fn host_kops_per_s(&self) -> f64 {
        ratio(self.user_ops as f64 / 1e3, self.measured_host_s)
    }

    fn class_lat(&self, class: &str) -> &[u64] {
        self.classes
            .get(class)
            .map(|c| c.lat_ns.as_slice())
            .unwrap_or(&[])
    }

    fn class_acc(&self, class: &str) -> ClassAcc {
        self.classes.get(class).cloned().unwrap_or_default()
    }

    /// Per-layer metrics that depend only on the seed: virtual times and
    /// counts. Identical on every round of a run and between traced and
    /// untraced rounds.
    pub fn virtual_layer_metrics(&self) -> Vec<Metric> {
        let ph = &self.phase;
        let ops = self.user_ops as f64;
        // client
        let mut out = vec![
            m(
                "client.host_cpu_vns_per_pair",
                ratio(ph.host.host_cpu_ns as f64, self.pairs_written as f64),
                "vns",
            ),
            m(
                "client.pairs_per_bulk",
                ratio(
                    self.ingest_pairs as f64,
                    ph.counter(Counter::BulkPuts) as f64,
                ),
                "count",
            ),
            m(
                "client.poll_backoff_vns",
                ph.counter(Counter::ClientPollBackoffNs) as f64,
                "vns",
            ),
            m(
                "client.retries",
                ph.counter(Counter::ClientRetries) as f64,
                "count",
            ),
            m(
                "client.ingest_kpairs_per_vs",
                ratio(self.ingest_pairs as f64 * 1e6, self.ingest_ns as f64),
                "kop/vs",
            ),
            m(
                "client.queryable_p50_vms",
                p_us(&self.queryable, 50) / 1e3,
                "vms",
            ),
            m(
                "client.queryable_samples",
                self.queryable.len() as f64,
                "count",
            ),
        ];
        for class in ["put", "get", "range", "sidx"] {
            let lat = self.class_lat(class);
            out.push(m(format!("client.{class}_p50_vus"), p_us(lat, 50), "vus"));
            out.push(m(format!("client.{class}_p99_vus"), p_us(lat, 99), "vus"));
            out.push(m(
                format!("client.{class}_samples"),
                lat.len() as f64,
                "count",
            ));
        }

        // transport
        out.push(m(
            "pcie.msgs_per_op",
            ratio(ph.host.pcie_msgs as f64, ops),
            "count",
        ));
        out.push(m(
            "pcie.h2d_bytes_per_op",
            ratio(ph.host.pcie_h2d_bytes as f64, ops),
            "B",
        ));
        out.push(m(
            "pcie.d2h_bytes_per_op",
            ratio(ph.host.pcie_d2h_bytes as f64, ops),
            "B",
        ));
        out.push(m(
            "pcie.share",
            ratio(self.pcie_ns as f64, self.timeline_ns as f64),
            "ratio",
        ));

        // compaction and zones
        let compactions = ph.counter(Counter::Compactions);
        let single = ph.counter(Counter::SinglePassCompactions);
        out.push(m("compact.soc_vns", self.jobs.soc_cpu_ns as f64, "vns"));
        out.push(m(
            "compact.read_pages",
            self.jobs.nand_read_pages as f64,
            "count",
        ));
        out.push(m(
            "compact.program_pages",
            self.jobs.nand_program_pages as f64,
            "count",
        ));
        out.push(m(
            "compact.single_pass_frac",
            ratio(single as f64, (single + compactions) as f64),
            "ratio",
        ));
        out.push(m(
            "zone.erases_in_compact",
            self.jobs.nand_erase_blocks as f64,
            "count",
        ));
        out.push(m(
            "zone.erases_in_foreground",
            self.fg_erases as f64,
            "count",
        ));

        // query engine
        for class in ["get", "range", "sidx"] {
            let acc = self.class_acc(class);
            out.push(m(
                format!("query.pages_per_{class}"),
                ratio(acc.read_pages as f64, acc.calls as f64),
                "count",
            ));
        }
        let sidx = self.class_acc("sidx");
        out.push(m(
            "query.rows_per_sidx",
            ratio(sidx.rows as f64, sidx.calls as f64),
            "count",
        ));

        // WAL and admission
        let flush = self.class_acc("flush");
        out.push(m(
            "wal.program_pages_per_flush",
            ratio(flush.program_pages as f64, flush.calls as f64),
            "count",
        ));
        out.push(m(
            "admission.wait_vns",
            ph.counter(Counter::AdmissionWaitNs) as f64,
            "vns",
        ));
        out.push(m(
            "admission.slowdowns",
            ph.counter(Counter::AdmissionSlowdowns) as f64,
            "count",
        ));
        out.push(m(
            "admission.stalls",
            ph.counter(Counter::AdmissionStalls) as f64,
            "count",
        ));
        out.push(m(
            "admission.rejects",
            ph.counter(Counter::AdmissionRejects) as f64,
            "count",
        ));

        // flash
        let channels = ph.channel_busy_ns();
        let mean = ratio(channels.iter().sum::<u64>() as f64, channels.len() as f64);
        let page_bytes = ph.host.page_bytes.max(4096) as f64;
        out.push(m("nand.read_pages", ph.nand_read_pages() as f64, "count"));
        out.push(m(
            "nand.program_pages",
            ph.nand_program_pages() as f64,
            "count",
        ));
        out.push(m(
            "nand.erase_blocks",
            ph.nand_erase_blocks() as f64,
            "count",
        ));
        out.push(m(
            "nand.max_channel_busy_vms",
            ph.max_channel_busy_ns() as f64 / 1e6,
            "vms",
        ));
        out.push(m(
            "nand.channel_imbalance",
            ratio(ph.max_channel_busy_ns() as f64, mean),
            "ratio",
        ));
        out.push(m(
            "nand.write_amp",
            ratio(
                ph.nand_program_pages() as f64 * page_bytes,
                self.user_bytes_written as f64,
            ),
            "ratio",
        ));

        // cluster
        out.push(m("bus.msgs", ph.bus_msgs as f64, "count"));
        out.push(m("bus.bytes", ph.bus_bytes as f64, "B"));
        out.push(m("bus.busy_vns", ph.bus_busy_ns as f64, "vns"));
        out.push(m("replica.wait_vns", ph.replica_wait_ns() as f64, "vns"));
        let busy: Vec<f64> = ph
            .shards
            .iter()
            .map(|s| (s.ledger.soc_cpu_ns + s.ledger.max_channel_busy_ns()) as f64)
            .collect();
        let busy_mean = ratio(busy.iter().sum(), busy.len() as f64);
        let busy_max = busy.iter().copied().fold(0.0, f64::max);
        out.push(m(
            "router.shard_skew",
            if self.cluster {
                ratio(busy_max, busy_mean)
            } else {
                0.0
            },
            "ratio",
        ));
        out
    }

    /// Per-layer metrics read from spans: host self times and the SoC
    /// work of each command class. Empty for an untraced round.
    pub fn span_layer_metrics(&self) -> Vec<Metric> {
        let Some(spans) = &self.spans else {
            return Vec::new();
        };
        let selfs = self_times(spans);
        let us = |ns: u64| ns as f64 / 1e3;
        let mut client_self = 0u64;
        let mut jobs_ns = 0u64;
        let mut handle: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut all_handle = (0u64, 0u64);
        for (s, own) in spans.iter().zip(&selfs) {
            match s.layer {
                Layer::Client => client_self += own,
                Layer::Jobs => jobs_ns += s.host_ns(),
                Layer::Handle => {
                    let e = handle.entry(s.name).or_default();
                    e.0 += 1;
                    e.1 += s.host_ns();
                    e.2 += s.work.soc_cpu_ns;
                    all_handle.0 += 1;
                    all_handle.1 += s.host_ns();
                }
            }
        }
        let mut out = vec![m(
            "client.self_host_us_per_op",
            ratio(us(client_self), self.user_ops as f64),
            "us",
        )];
        for class in HANDLE_CLASSES {
            let (n, host, soc) = handle.get(class).copied().unwrap_or_default();
            out.push(m(
                format!("device.handle_host_us.{class}"),
                ratio(us(host), n as f64),
                "us",
            ));
            out.push(m(
                format!("device.soc_vns_per_op.{class}"),
                ratio(soc as f64, n as f64),
                "vns",
            ));
        }
        out.push(m("jobs.host_s", us(jobs_ns) / 1e6, "s"));
        out.push(m(
            "router.handle_host_us",
            if self.cluster {
                ratio(us(all_handle.1), all_handle.0 as f64)
            } else {
                0.0
            },
            "us",
        ));
        out
    }

    /// The seed-determined part of the round: end-to-end virtual metrics,
    /// every per-layer virtual metric and the op counts.
    pub fn fingerprint(&self) -> Vec<Metric> {
        let mut out = vec![
            m("v_kops_per_vs", self.v_kops_per_vs(), "kop/vs"),
            m("op_p99_vus", self.op_p99_vus(), "vus"),
            m("attempted", self.attempted as f64, "count"),
            m("failed", self.failed as f64, "count"),
            m("user_ops", self.user_ops as f64, "count"),
        ];
        out.extend(self.virtual_layer_metrics());
        out
    }

    /// Calls made per class (the op counts a seed must not change).
    pub fn op_counts(&self) -> Vec<(&'static str, u64)> {
        self.classes.iter().map(|(k, v)| (*k, v.calls)).collect()
    }
}
