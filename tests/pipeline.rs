//! Pipelined-ingest contract tests: acked-only durability of the write
//! accelerator across power cuts, out-of-order completion matching
//! under seeded device faults, and schedule determinism.
//!
//! The durability sweep cuts power at several flash-op positions while
//! the accelerator has a batch staged host-side and bulks in flight,
//! then reopens the device fault-free and asserts:
//!
//! * every pair covered by a successful `flush()` + `fsync()` is
//!   present byte-exact (acked-and-synced data is never lost);
//! * every *visible* pair recomputes from its key (nothing is ever torn
//!   or half-visible, staged batch or not);
//! * pairs the accelerator never reported durable may vanish freely.
//!
//! The ingest gate prices the in-flight window in virtual time on one
//! device and on a 2-shard cluster: the accelerator's pipelined bulk
//! PUTs must beat one lock-step PUT per round trip by at least 3x.

use std::sync::Arc;

use kvcsd::cluster::{ClusterConfig, ClusterRouter, DeviceStack, StackBuilder};
use kvcsd::device::DeviceConfig;
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{
    Bound, DeviceHandler, ExecProbe, JobState, KvCommand, KvResponse, KvStatus, QueuePair,
};
use kvcsd::sim::{FaultPlan, IoLedger, VirtualClock};
use kvcsd_bench::Testbed;
use kvcsd_client::{ClientError, InflightWindow, KvCsd, RetryPolicy, WriteAccelerator};

const PAIRS: u32 = 600;
const SYNC_EVERY: u32 = 150;

fn key_for(i: u32) -> Vec<u8> {
    format!("p{i:05}").into_bytes()
}

/// Value is a pure function of the key so a torn pair is caught by
/// recomputation.
fn value_for(key: &[u8]) -> Vec<u8> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (0..48)
        .map(|i| ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8))
        .collect()
}

/// Minimal crash-recovery stack (the torture harness's skeleton).
struct Stack {
    stack: DeviceStack,
    client: KvCsd,
    crashes: u64,
}

impl Stack {
    fn new(plan: FaultPlan) -> Self {
        let stack = StackBuilder::new(FlashGeometry {
            channels: 8,
            blocks_per_channel: 256,
            pages_per_block: 16,
            page_bytes: 4096,
        })
        .zns(ZnsConfig {
            zone_blocks: 1,
            max_open_zones: 1 << 16,
        })
        .device(DeviceConfig {
            cluster_width: 8,
            soc_dram_bytes: 8 << 20,
            seed: 11,
            wal: true,
            ..DeviceConfig::default()
        })
        .faults(plan)
        .build();
        let client = KvCsd::connect(stack.handler(), Arc::clone(stack.ledger()));
        Self {
            stack,
            client,
            crashes: 0,
        }
    }

    /// Power-cycle after an injected cut: reopen from flash fault-free.
    fn crash(&mut self, err: &ClientError) {
        let expected = matches!(err, ClientError::Device(KvStatus::PowerLoss))
            || matches!(err, ClientError::RetriesExhausted { .. })
            || self.stack.is_powered_off();
        assert!(expected, "unexpected error under power-cut plan: {err:?}");
        self.crashes += 1;
        self.stack
            .power_cycle()
            .expect("fault-free recovery must succeed")
            .run_pending_jobs();
        self.client = KvCsd::connect(self.stack.handler(), Arc::clone(self.stack.ledger()));
    }
}

/// One sweep member: accelerated ingest with a power cut at flash op
/// `cut_at`. Returns whether a crash actually fired.
fn run_power_cut(cut_at: u64, seed: u64) -> bool {
    let mut t = Stack::new(FaultPlan::power_cut_at(cut_at, seed));
    let name = "accel";
    let mut last_synced: i64 = -1;
    let crashed = 'attempt: {
        let ks = match t.client.create_keyspace(name) {
            Ok(ks) => ks,
            Err(e) => {
                t.crash(&e);
                break 'attempt true;
            }
        };
        // Small batches + shallow window so the cut lands with entries
        // staged host-side and bulks in flight.
        let accel = ks.write_accelerator().with_target_bytes(2048).with_depth(2);
        let mut i = 0u32;
        while i < PAIRS {
            let k = key_for(i);
            if let Err(e) = accel.put(&k, &value_for(&k)) {
                t.crash(&e);
                break 'attempt true;
            }
            i += 1;
            if i.is_multiple_of(SYNC_EVERY) {
                let synced = accel.flush().and_then(|_| ks.fsync().map(|_| ()));
                match synced {
                    Ok(()) => last_synced = i as i64 - 1,
                    Err(e) => {
                        t.crash(&e);
                        break 'attempt true;
                    }
                }
            }
        }
        match accel.flush().and_then(|_| ks.fsync().map(|_| ())) {
            Ok(()) => {
                last_synced = PAIRS as i64 - 1;
                false
            }
            Err(e) => {
                t.crash(&e);
                true
            }
        }
    };

    // Recovery contract. Point gets need a compacted keyspace, so the
    // survivors are sealed first (fault-free — the plan's single cut
    // has fired or is disarmed). If the cut predated keyspace creation
    // there is nothing to check; nothing was ever reported durable.
    t.stack.disarm();
    match t.client.open_keyspace(name) {
        Ok((ks, _)) => {
            let job = match ks.compact() {
                Ok(job) => job,
                Err(e) => {
                    assert!(last_synced < 0, "compact after recovery: {e:?}");
                    return crashed;
                }
            };
            loop {
                t.stack.device().run_pending_jobs();
                match job.poll().expect("poll recovery compaction") {
                    JobState::Done => break,
                    JobState::Failed(e) => panic!("recovery compaction failed: {e}"),
                    _ => {}
                }
            }
            for j in 0..PAIRS {
                let k = key_for(j);
                match ks.get(&k) {
                    Ok(v) => assert_eq!(
                        v,
                        value_for(&k),
                        "pair {j} is torn/half-visible after cut at {cut_at}"
                    ),
                    Err(ClientError::Device(KvStatus::KeyNotFound)) => assert!(
                        j as i64 > last_synced,
                        "acked+synced pair {j} lost after cut at {cut_at} (synced through {last_synced})"
                    ),
                    Err(e) => panic!("get after recovery: {e:?}"),
                }
            }
        }
        Err(_) => assert!(
            last_synced < 0,
            "keyspace with synced data vanished after cut at {cut_at}"
        ),
    }
    crashed
}

#[test]
fn power_cut_mid_staged_batch_sweep() {
    // The run costs ~23 flash ops (creation, then WAL pages per sync):
    // these positions land cuts in creation, mid-fsync and between
    // syncs while the accelerator holds staged pairs and pending acks.
    let mut crashes = 0;
    for (i, cut_at) in [2u64, 4, 7, 11, 15, 20].into_iter().enumerate() {
        if run_power_cut(cut_at, 4200 + i as u64) {
            crashes += 1;
        }
    }
    assert!(
        crashes >= 2,
        "sweep must actually exercise mid-batch cuts, got {crashes}"
    );
}

/// Pipelined window over a device with seeded transient faults: 200
/// puts submitted in order, claimed in *reverse*; each completion must
/// match its own command (retries included), and the data must land.
#[test]
fn out_of_order_completions_match_under_seeded_faults() {
    let mut plan = FaultPlan::none().with_error_prob(0.03);
    plan.seed = 9002;
    let t = Stack::new(plan);
    let clock = Arc::new(VirtualClock::new());
    let qp = QueuePair::new(t.stack.handler(), Arc::clone(t.stack.ledger())).with_pipeline(
        Arc::clone(&clock),
        16,
        4,
        None,
    );
    let win = InflightWindow::new(qp, RetryPolicy::default(), Some(clock));
    let ks = match win.call(None, KvCommand::CreateKeyspace { name: "ooo".into() }) {
        Ok(KvResponse::Created { ks }) => ks,
        other => panic!("create: {other:?}"),
    };
    let mut ops = Vec::new();
    for i in 0..200u32 {
        let k = key_for(i);
        let v = value_for(&k);
        ops.push(win.submit(
            None,
            KvCommand::Put {
                ks,
                key: k,
                value: v,
            },
        ));
    }
    for op in ops.into_iter().rev() {
        match win.wait(op) {
            Ok(KvResponse::PutOk) => {}
            other => panic!("put under faults: {other:?}"),
        }
    }
    // Every pair matched its own completion: the values must all be
    // present and byte-exact despite retries and reordering. Gets need
    // a compacted keyspace; seal fault-free.
    t.stack.disarm();
    let job = match win.call(None, KvCommand::Compact { ks }) {
        Ok(KvResponse::JobStarted { job }) => job,
        other => panic!("compact: {other:?}"),
    };
    loop {
        t.stack.device().run_pending_jobs();
        match win.call(None, KvCommand::PollJob { job }) {
            Ok(KvResponse::Job {
                state: JobState::Done,
            }) => break,
            Ok(KvResponse::Job {
                state: JobState::Failed(e),
            }) => panic!("compaction failed: {e}"),
            Ok(KvResponse::Job { .. }) => {}
            other => panic!("poll: {other:?}"),
        }
    }
    for i in 0..200u32 {
        let k = key_for(i);
        match win.call(None, KvCommand::Get { ks, key: k.clone() }) {
            Ok(KvResponse::Value(v)) => assert_eq!(v, value_for(&k), "pair {i}"),
            other => panic!("get {i}: {other:?}"),
        }
    }
}

/// A key too long for a bulk entry's length field ships alone and is
/// refused, instead of being truncated and swallowing the pair packed
/// after it: `flush` credits only pairs stored under their exact keys.
#[test]
fn flush_counts_only_pairs_stored_under_their_exact_keys() {
    let t = Stack::new(FaultPlan::none());
    let ks = t.client.create_keyspace("long").unwrap();
    let accel = ks.write_accelerator();
    let huge = vec![b'h'; 70_000];
    let small = key_for(0);
    accel.put(&huge, &value_for(&huge)).unwrap();
    accel.put(&small, &value_for(&small)).unwrap();
    assert!(matches!(
        accel.flush(),
        Err(ClientError::Device(KvStatus::BadValue))
    ));
    assert_eq!(accel.flush().unwrap(), 1);

    ks.compact().unwrap();
    t.stack.device().run_pending_jobs();
    let stored = ks.range(Bound::Unbounded, Bound::Unbounded, None).unwrap();
    assert_eq!(stored, vec![(small.clone(), value_for(&small))]);
}

/// One seeded pipelined ingest run: returns (final virtual time, every
/// completion latency in claim order).
fn ingest_schedule(seed: u64) -> (u64, Vec<u64>) {
    let mut plan = FaultPlan::none().with_error_prob(0.02);
    plan.seed = seed;
    let t = Stack::new(plan);
    let clock = Arc::new(VirtualClock::new());
    let qp = QueuePair::new(t.stack.handler(), Arc::clone(t.stack.ledger())).with_pipeline(
        Arc::clone(&clock),
        16,
        4,
        None,
    );
    let win = InflightWindow::new(qp, RetryPolicy::default(), Some(Arc::clone(&clock)));
    match win.call(None, KvCommand::CreateKeyspace { name: "det".into() }) {
        Ok(KvResponse::Created { ks }) => {
            let mut ops = Vec::new();
            for i in 0..150u32 {
                let k = key_for(i);
                let v = value_for(&k);
                ops.push(win.submit(
                    None,
                    KvCommand::Put {
                        ks,
                        key: k,
                        value: v,
                    },
                ));
            }
            for op in ops {
                match win.wait(op) {
                    Ok(KvResponse::PutOk) => {}
                    other => panic!("put: {other:?}"),
                }
            }
        }
        other => panic!("create: {other:?}"),
    }
    (clock.now_ns(), win.completion_latencies())
}

#[test]
fn same_seed_yields_the_same_completion_schedule() {
    let a = ingest_schedule(1337);
    let b = ingest_schedule(1337);
    assert_eq!(a, b, "pipelined completion schedule must be deterministic");
    assert!(!a.1.is_empty() && a.0 > 0);
}

// ---------------------------------------------------------------------
// The ingest gate: lock-step vs. pipelined vs. accelerated
// ---------------------------------------------------------------------

const GATE_PAIRS: u32 = 4000;
const GATE_SEED: u64 = 42;
const GATE_VALUE_BYTES: usize = 64;
const GATE_DEPTH: usize = 32;
const GATE_LANES: usize = 4;
const GATE_OUTSTANDING_BULKS: usize = 8;

/// The three ways to ingest the same seeded stream.
#[derive(Clone, Copy, Debug)]
enum Arm {
    /// Depth 1, one `PUT` per round trip: the paper client's model.
    LockStep,
    /// Depth 32, still one `PUT` per command, overlapped in the window.
    Pipelined,
    /// Depth 32 and the write accelerator's key-sorted `BULK_PUT`s.
    Accelerated,
}

impl Arm {
    fn depth(self) -> usize {
        match self {
            Arm::LockStep => 1,
            Arm::Pipelined | Arm::Accelerated => GATE_DEPTH,
        }
    }
}

fn gate_key(i: u32) -> Vec<u8> {
    // Seed-dependent shuffle so the accelerator's sort has real work.
    let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ GATE_SEED;
    format!("k{:06}x{:04}", x % GATE_PAIRS as u64, i % 10_000).into_bytes()
}

fn gate_value(key: &[u8]) -> Vec<u8> {
    let mut x = 0x243f_6a88_85a3_08d3u64 ^ GATE_SEED;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (0..GATE_VALUE_BYTES)
        .map(|i| ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8))
        .collect()
}

/// Virtual time and PCIe traffic of one arm's ingest.
#[derive(Debug)]
struct ArmRun {
    virtual_ns: u64,
    pcie_msgs: u64,
    pcie_h2d_bytes: u64,
    pcie_d2h_bytes: u64,
}

impl ArmRun {
    /// PCIe `(messages, h2d bytes, d2h bytes)`.
    fn traffic(&self) -> (u64, u64, u64) {
        (self.pcie_msgs, self.pcie_h2d_bytes, self.pcie_d2h_bytes)
    }
}

/// Ingest the seeded stream through `arm` over a pipelined queue pair
/// whose shared ledger is `ledger`.
fn drive_arm(arm: Arm, qp: QueuePair, ledger: &IoLedger, clock: &Arc<VirtualClock>) -> ArmRun {
    let win = InflightWindow::new(qp.clone(), RetryPolicy::none(), Some(Arc::clone(clock)));
    let ks = match win.call(
        None,
        KvCommand::CreateKeyspace {
            name: "ingest".into(),
        },
    ) {
        Ok(KvResponse::Created { ks }) => ks,
        other => panic!("create: {other:?}"),
    };
    let led0 = ledger.snapshot();
    let t0 = clock.now_ns();
    match arm {
        Arm::LockStep | Arm::Pipelined => {
            let ops: Vec<_> = (0..GATE_PAIRS)
                .map(|i| {
                    let key = gate_key(i);
                    let value = gate_value(&key);
                    win.submit(None, KvCommand::Put { ks, key, value })
                })
                .collect();
            for op in ops {
                match win.wait(op) {
                    Ok(KvResponse::PutOk) => {}
                    other => panic!("put: {other:?}"),
                }
            }
        }
        Arm::Accelerated => {
            let accel =
                WriteAccelerator::new(qp, ks, RetryPolicy::none(), Some(Arc::clone(clock)), None)
                    .with_depth(GATE_OUTSTANDING_BULKS);
            for i in 0..GATE_PAIRS {
                let key = gate_key(i);
                accel.put(&key, &gate_value(&key)).expect("accelerated put");
            }
            let acked = accel.flush().expect("flush");
            assert_eq!(acked, GATE_PAIRS as u64, "every staged pair must be acked");
        }
    }
    let led = ledger.snapshot().since(&led0);
    ArmRun {
        virtual_ns: clock.now_ns() - t0,
        pcie_msgs: led.pcie_msgs,
        pcie_h2d_bytes: led.pcie_h2d_bytes,
        pcie_d2h_bytes: led.pcie_d2h_bytes,
    }
}

/// One arm against a fresh single device.
fn single_device_arm(arm: Arm) -> ArmRun {
    let tb = Testbed::new();
    let (dev, _client) = tb.kvcsd(4 << 20, 64 << 20, 1);
    let clock = Arc::new(VirtualClock::new());
    let qp = QueuePair::new(dev as Arc<dyn DeviceHandler>, Arc::clone(&tb.ledger)).with_pipeline(
        Arc::clone(&clock),
        arm.depth(),
        GATE_LANES,
        None,
    );
    drive_arm(arm, qp, &tb.ledger, &clock)
}

/// One arm against a fresh 2-shard cluster. The execution probe is the
/// router's host clock, which fan-outs advance by the slowest shard's
/// busy delta.
fn two_shard_arm(arm: Arm) -> ArmRun {
    let r = Arc::new(ClusterRouter::new(ClusterConfig {
        shards: 2,
        ..ClusterConfig::default()
    }));
    let hc = Arc::clone(r.host_clock());
    let probe: ExecProbe = Arc::new(move || hc.now_ns());
    let ledger = Arc::new(IoLedger::new(16, 4096));
    let clock = Arc::new(VirtualClock::new());
    let qp = QueuePair::new(r as Arc<dyn DeviceHandler>, Arc::clone(&ledger)).with_pipeline(
        Arc::clone(&clock),
        arm.depth(),
        GATE_LANES,
        Some(probe),
    );
    drive_arm(arm, qp, &ledger, &clock)
}

/// The gate: accelerated ingest beats lock-step by at least 3x, and
/// the pipelined arm gets its gain from overlap alone.
fn assert_ingest_gate(topology: &str, run: fn(Arm) -> ArmRun) {
    let lock_step = run(Arm::LockStep);
    let pipelined = run(Arm::Pipelined);
    let accelerated = run(Arm::Accelerated);
    // Same pair count in every arm, so the throughput ratio is the
    // inverse ratio of virtual times.
    let speedup = lock_step.virtual_ns as f64 / accelerated.virtual_ns.max(1) as f64;
    assert!(
        speedup >= 3.0,
        "{topology}: accelerated ingest is only {speedup:.2}x lock-step (< 3x): \
         {lock_step:?} vs {accelerated:?}"
    );
    assert!(
        pipelined.virtual_ns < lock_step.virtual_ns,
        "{topology}: the window must overlap commands: {pipelined:?} vs {lock_step:?}"
    );
    assert_eq!(
        pipelined.traffic(),
        lock_step.traffic(),
        "{topology}: depth changes overlap, not traffic"
    );
    assert_eq!(lock_step.pcie_msgs, GATE_PAIRS as u64, "{topology}");
    assert!(
        accelerated.pcie_msgs < lock_step.pcie_msgs / 100
            && accelerated.pcie_h2d_bytes < lock_step.pcie_h2d_bytes,
        "{topology}: bulks must pack many pairs per message: {accelerated:?}"
    );
}

#[test]
fn accelerated_ingest_beats_lock_step_3x_on_one_device() {
    assert_ingest_gate("single device", single_device_arm);
}

#[test]
fn accelerated_ingest_beats_lock_step_3x_on_two_shards() {
    assert_ingest_gate("two shards", two_shard_arm);
}
