//! The system under test, built only through its public constructors, and
//! the probe that reads its ledgers and clocks.

use std::sync::Arc;

use kvcsd_bench::Testbed;
use kvcsd_client::KvCsd;
use kvcsd_cluster::{ClusterConfig, ClusterRouter};
use kvcsd_core::KvCsdDevice;
use kvcsd_proto::DeviceHandler;
use kvcsd_sim::{IoLedger, VirtualClock};

use crate::cost::{Costs, Gauges, ShardGauges, COUNTERS};
use crate::trace::{Layer, Tap, Tracer};

/// What sits behind the client's transport.
#[derive(Clone)]
pub enum Backend {
    Device(Arc<KvCsdDevice>),
    Cluster(Arc<ClusterRouter>),
}

/// Reads every ledger and clock of a stack (cheap to clone).
#[derive(Clone)]
pub struct Probe {
    backend: Backend,
    host: Arc<IoLedger>,
    client_clock: Arc<VirtualClock>,
}

fn counters(ledgers: &[&IoLedger]) -> [u64; COUNTERS.len()] {
    std::array::from_fn(|i| ledgers.iter().map(|l| l.custom(COUNTERS[i])).sum())
}

impl Probe {
    pub fn read(&self) -> Gauges {
        let client_clock_ns = self.client_clock.now_ns();
        match &self.backend {
            Backend::Device(dev) => {
                let snap = self.host.snapshot();
                Gauges {
                    host: snap.clone(),
                    shared_ledger: true,
                    shards: vec![ShardGauges {
                        ledger: snap,
                        device_clock_ns: dev.clock().now_ns(),
                        replica_clock_ns: 0,
                    }],
                    client_clock_ns,
                    counters: counters(&[&self.host]),
                    ..Gauges::default()
                }
            }
            Backend::Cluster(r) => {
                let n = r.config().shards;
                let ledgers: Vec<Arc<IoLedger>> = (0..n).map(|ix| r.shard_ledger(ix)).collect();
                let shards = (0..n)
                    .map(|ix| ShardGauges {
                        ledger: ledgers[ix as usize].snapshot(),
                        device_clock_ns: r.shard_clock(ix).now_ns(),
                        replica_clock_ns: r.replica_log(ix).clock().now_ns(),
                    })
                    .collect();
                let mut all: Vec<&IoLedger> = vec![&self.host];
                all.extend(ledgers.iter().map(|l| l.as_ref()));
                let fabric = r.fabric_ledger();
                Gauges {
                    host: self.host.snapshot(),
                    shared_ledger: false,
                    shards,
                    client_clock_ns,
                    bus_busy_ns: fabric.custom("bus_busy_ns"),
                    bus_msgs: fabric.custom("bus_msgs"),
                    bus_bytes: fabric.custom("bus_bytes"),
                    counters: counters(&all),
                }
            }
        }
    }
}

/// Wraps the handler the client talks to (tests use it to inject faults
/// into results).
pub type Interpose = dyn Fn(Arc<dyn DeviceHandler>) -> Arc<dyn DeviceHandler>;

/// One freshly built stack: device or cluster, a client connected through
/// a [`Tap`], and the probe and cost model that measure it.
pub struct Stack {
    pub backend: Backend,
    pub probe: Probe,
    pub client: KvCsd,
    pub costs: Costs,
    pub tracer: Option<Arc<Tracer>>,
}

impl Stack {
    /// A single KV-CSD device with `soc_dram_bytes` of SoC DRAM, sized for
    /// `capacity_bytes` of user data in `keyspaces` keyspaces. WAL off.
    pub fn device(
        capacity_bytes: u64,
        soc_dram_bytes: u64,
        keyspaces: u32,
        traced: bool,
        interpose: Option<&Interpose>,
    ) -> Stack {
        let tb = Testbed::new();
        // The testbed's own client bypasses the tap; ours replaces it.
        let (dev, _untapped) = tb.kvcsd(capacity_bytes, soc_dram_bytes, keyspaces);
        let backend = Backend::Device(Arc::clone(&dev));
        let costs = Costs::new(tb.cfg.clone());
        let handler: Arc<dyn DeviceHandler> = dev;
        Self::assemble(
            backend,
            handler,
            Arc::clone(&tb.ledger),
            costs,
            traced,
            interpose,
        )
    }

    /// A replicated cluster behind a router; the client keeps its own
    /// ledger for PCIe traffic and host CPU.
    pub fn cluster(cfg: ClusterConfig, traced: bool, interpose: Option<&Interpose>) -> Stack {
        let router = Arc::new(ClusterRouter::new(cfg));
        let backend = Backend::Cluster(Arc::clone(&router));
        let costs = Costs::default();
        let hw = kvcsd_sim::HardwareSpec::default();
        let ledger = Arc::new(IoLedger::new(hw.flash_channels, hw.page_bytes));
        let handler: Arc<dyn DeviceHandler> = router;
        Self::assemble(backend, handler, ledger, costs, traced, interpose)
    }

    fn assemble(
        backend: Backend,
        handler: Arc<dyn DeviceHandler>,
        host: Arc<IoLedger>,
        costs: Costs,
        traced: bool,
        interpose: Option<&Interpose>,
    ) -> Stack {
        let client_clock = Arc::new(VirtualClock::new());
        let probe = Probe {
            backend: backend.clone(),
            host: Arc::clone(&host),
            client_clock: Arc::clone(&client_clock),
        };
        let tracer = traced.then(|| Arc::new(Tracer::new()));
        let handler = match interpose {
            Some(wrap) => wrap(handler),
            None => handler,
        };
        let tap = Tap::new(
            handler,
            tracer.as_ref().map(|t| (Arc::clone(t), probe.clone())),
        );
        let client = KvCsd::connect(Arc::new(tap), host).with_clock(client_clock);
        Stack {
            backend,
            probe,
            client,
            costs,
            tracer,
        }
    }

    pub fn gauges(&self) -> Gauges {
        self.probe.read()
    }

    /// Run `f` as a client call: a span when tracing, nothing otherwise.
    pub fn traced<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(t) => t.span(Layer::Client, name, &self.probe, f),
            None => f(),
        }
    }

    /// Drive the device's (or every shard's) background jobs to
    /// completion; returns the jobs run.
    pub fn run_jobs(&self) -> usize {
        let run = || match &self.backend {
            Backend::Device(dev) => dev.run_pending_jobs(),
            Backend::Cluster(r) => r.run_background(),
        };
        match &self.tracer {
            Some(t) => t.span(Layer::Jobs, "run_jobs", &self.probe, run),
            None => run(),
        }
    }
}
