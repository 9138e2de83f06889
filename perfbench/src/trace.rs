//! In-memory spans recorded by the benchmark around each layer boundary.
//!
//! Three boundaries are traced, all from the benchmark's own code: every
//! client API call, every `DeviceHandler::handle` (through [`Tap`], a
//! pass-through handler between the client and the device or router),
//! and every background-job drive. A span carries its parent, host start
//! and end times and the work the ledgers saw meanwhile. Spans stay in
//! memory and are written out when the run ends.

use std::fmt::Write as _;
use std::sync::Arc;

use kvcsd_proto::{DeviceHandler, KvCommand, KvResponse};
use kvcsd_sim::sync::Mutex;
use kvcsd_sim::WallTimer;

use crate::cost::Gauges;
use crate::stack::Probe;

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// A client API call (`kvcsd-client`).
    Client,
    /// One command handled by the device or the router behind the
    /// transport (`kvcsd-core` / `kvcsd-cluster`).
    Handle,
    /// A background-job drive (`run_pending_jobs` / `run_background`).
    Jobs,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Handle => "handle",
            Layer::Jobs => "jobs",
        }
    }
}

/// The work a span's ledgers saw, flattened over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanWork {
    pub host_cpu_ns: u64,
    pub soc_cpu_ns: u64,
    pub pcie_bytes: u64,
    pub pcie_msgs: u64,
    pub nand_read_pages: u64,
    pub nand_program_pages: u64,
    pub nand_erase_blocks: u64,
    pub max_channel_busy_ns: u64,
    pub bus_busy_ns: u64,
}

impl SpanWork {
    pub fn of(w: &Gauges) -> Self {
        Self {
            host_cpu_ns: w.host.host_cpu_ns,
            soc_cpu_ns: w.soc_cpu_ns(),
            pcie_bytes: w.host.pcie_bytes(),
            pcie_msgs: w.host.pcie_msgs,
            nand_read_pages: w.nand_read_pages(),
            nand_program_pages: w.nand_program_pages(),
            nand_erase_blocks: w.nand_erase_blocks(),
            max_channel_busy_ns: w.max_channel_busy_ns(),
            bus_busy_ns: w.bus_busy_ns,
        }
    }

    /// Accumulate `o` (its channel peak counts as busy time spent).
    pub fn add(&mut self, o: &SpanWork) {
        self.host_cpu_ns += o.host_cpu_ns;
        self.soc_cpu_ns += o.soc_cpu_ns;
        self.pcie_bytes += o.pcie_bytes;
        self.pcie_msgs += o.pcie_msgs;
        self.nand_read_pages += o.nand_read_pages;
        self.nand_program_pages += o.nand_program_pages;
        self.nand_erase_blocks += o.nand_erase_blocks;
        self.max_channel_busy_ns += o.max_channel_busy_ns;
        self.bus_busy_ns += o.bus_busy_ns;
    }
}

/// One recorded span. Host times are nanoseconds since the tracer began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, 0 at the top level.
    pub parent: u64,
    pub layer: Layer,
    pub name: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub work: SpanWork,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns.saturating_sub(self.host_start_ns)
    }
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<Span>,
    open: Vec<u64>,
    next_id: u64,
}

/// Collects spans for one stack. Single-threaded use: the open-span
/// stack gives each new span its parent.
#[derive(Debug)]
pub struct Tracer {
    epoch: WallTimer,
    state: Mutex<TraceState>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: WallTimer::start(),
            state: Mutex::new(TraceState::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. The lock is never held while `f` runs.
    pub fn span<T>(
        &self,
        layer: Layer,
        name: &'static str,
        probe: &Probe,
        f: impl FnOnce() -> T,
    ) -> T {
        let before = probe.read();
        let id = {
            let mut st = self.state.lock();
            st.next_id += 1;
            let id = st.next_id;
            st.open.push(id);
            id
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let work = SpanWork::of(&probe.read().since(&before));
        let mut st = self.state.lock();
        st.open.pop();
        let parent = st.open.last().copied().unwrap_or(0);
        st.spans.push(Span {
            id,
            parent,
            layer,
            name,
            host_start_ns: start,
            host_end_ns: end,
            work,
        });
        out
    }

    /// Drop every span recorded so far (setup work is not traced).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.spans.clear();
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.state.lock().spans.clone()
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover (children never overlap on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = std::collections::HashMap::<u64, u64>::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_insert(0) += s.host_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            s.host_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let w = &s.work;
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"host_start_ns\":{},\"host_end_ns\":{},\
\"host_cpu_ns\":{},\"soc_cpu_ns\":{},\"pcie_bytes\":{},\"pcie_msgs\":{},\"nand_read_pages\":{},\
\"nand_program_pages\":{},\"nand_erase_blocks\":{},\"max_channel_busy_ns\":{},\"bus_busy_ns\":{}}}",
            s.id,
            s.parent,
            s.layer.name(),
            s.name,
            s.host_start_ns,
            s.host_end_ns,
            w.host_cpu_ns,
            w.soc_cpu_ns,
            w.pcie_bytes,
            w.pcie_msgs,
            w.nand_read_pages,
            w.nand_program_pages,
            w.nand_erase_blocks,
            w.max_channel_busy_ns,
            w.bus_busy_ns
        );
    }
    out
}

/// Every class [`class_of`] returns.
pub const HANDLE_CLASSES: [&str; 9] = [
    "put", "bulk_put", "flush", "get", "range", "sidx", "compact", "poll", "admin",
];

/// Command class, as used in per-class metric names.
fn class_of(cmd: &KvCommand) -> &'static str {
    match cmd {
        KvCommand::Put { .. } => "put",
        KvCommand::BulkPut { .. } => "bulk_put",
        KvCommand::Flush { .. } => "flush",
        KvCommand::Get { .. } => "get",
        KvCommand::Range { .. } => "range",
        KvCommand::SidxGet { .. } | KvCommand::SidxRange { .. } => "sidx",
        KvCommand::Compact { .. }
        | KvCommand::CompactAndIndex { .. }
        | KvCommand::BuildSecondaryIndex { .. } => "compact",
        KvCommand::PollJob { .. } => "poll",
        KvCommand::WithDeadline { cmd, .. } => class_of(cmd),
        KvCommand::CreateKeyspace { .. }
        | KvCommand::OpenKeyspace { .. }
        | KvCommand::ListKeyspaces
        | KvCommand::DeleteKeyspace { .. }
        | KvCommand::Stat { .. } => "admin",
    }
}

/// Pass-through handler between the client's transport and the device or
/// router. With a tracer attached it records one [`Layer::Handle`] span
/// per command; without one it only forwards.
pub struct Tap {
    inner: Arc<dyn DeviceHandler>,
    trace: Option<(Arc<Tracer>, Probe)>,
}

impl Tap {
    pub fn new(inner: Arc<dyn DeviceHandler>, trace: Option<(Arc<Tracer>, Probe)>) -> Self {
        Self { inner, trace }
    }
}

impl DeviceHandler for Tap {
    fn handle(&self, cmd: KvCommand) -> KvResponse {
        match &self.trace {
            Some((tracer, probe)) => {
                let class = class_of(&cmd);
                tracer.span(Layer::Handle, class, probe, || self.inner.handle(cmd))
            }
            None => self.inner.handle(cmd),
        }
    }
}
