//! Fleet-wide torture harness for the sharded cluster.
//!
//! Drives routed client sessions against a [`ClusterRouter`] while a
//! seeded [`FaultPlan`] cuts power to shard primaries — the cut op-count
//! is swept so deaths land in every phase: ingest, the synchronous seal,
//! mid-compaction (the idempotent-seal case), index builds and reads.
//! After every promotion the harness asserts the cluster recovery
//! contract:
//!
//! * a keyspace whose COMPACT was acknowledged (seal + artifact ship)
//!   survives any single-primary death: every one of its pairs stays
//!   readable, byte-exact, after failover — no half-visible keys;
//! * scatter-gather RANGE over the merged fleet stays globally
//!   key-ordered with no duplicates across shards;
//! * a stalled/busy shard charges virtual-clock latency only to its own
//!   keyspace ranges, never to healthy shards;
//! * the same plan seed reproduces the identical failover schedule
//!   (shard order, generations, replayed-artifact counts).

use std::collections::BTreeMap;
use std::sync::Arc;

use kvcsd::cluster::{ClusterConfig, ClusterRouter, FailoverEvent, ShardHealth, ShardStrategy};
use kvcsd::device::{AdmissionConfig, DeviceConfig};
use kvcsd::proto::{Bound, DeviceHandler, JobState, KvCommand, KvResponse, KvStatus};
use kvcsd::sim::{FaultPlan, IoLedger};
use kvcsd_client::{ClientError, KvCsd};

const SHARDS: u32 = 3;
const PAIRS_PER_BATCH: u32 = 60;
const BATCHES: usize = 3;

/// The value is a pure function of the key, so a torn or half-applied
/// pair that becomes visible is caught by recomputation.
fn value_for(key: &[u8]) -> Vec<u8> {
    let mut x = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut v = vec![0u8; 24];
    for (i, slot) in v.iter_mut().enumerate() {
        *slot = ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8);
    }
    v
}

fn batch_key(batch: usize, attempt: u32, i: u32) -> Vec<u8> {
    format!("b{batch}a{attempt:02}k{i:05}").into_bytes()
}

fn router_with_cut(cut_at: u64, seed: u64) -> Arc<ClusterRouter> {
    Arc::new(ClusterRouter::new(ClusterConfig {
        shards: SHARDS,
        fault_plan: FaultPlan::power_cut_at(cut_at, seed),
        ..ClusterConfig::default()
    }))
}

/// Drive one command through the router, absorbing failover bounces the
/// way the client's fail-fast redirect does.
fn drive(r: &ClusterRouter, mut make: impl FnMut() -> KvCommand) -> Result<KvResponse, KvStatus> {
    for _ in 0..16 {
        match r.handle(make()) {
            KvResponse::Err(KvStatus::FailoverInProgress { .. }) => continue,
            KvResponse::Err(e) => return Err(e),
            resp => return Ok(resp),
        }
    }
    panic!("command did not settle after 16 failover redirects");
}

/// Put a batch of pairs into a fresh keyspace and compact it to the
/// sealed-and-shipped (cluster-durable) state. Returns the keyspace id
/// once every pair verifies readable; retries the whole batch under a
/// new name when a mid-batch primary death ate the volatile portion.
fn commit_batch(r: &ClusterRouter, batch: usize) -> (String, u32, Vec<Vec<u8>>) {
    for attempt in 0..8u32 {
        let name = format!("b{batch}-try{attempt}");
        let ks = match drive(r, || KvCommand::CreateKeyspace { name: name.clone() }) {
            Ok(KvResponse::Created { ks }) => ks,
            Ok(resp) => panic!("create: unexpected {resp:?}"),
            Err(e) => panic!("create failed: {e}"),
        };
        let keys: Vec<Vec<u8>> = (0..PAIRS_PER_BATCH)
            .map(|i| batch_key(batch, attempt, i))
            .collect();
        let mut aborted = false;
        for k in &keys {
            match drive(r, || KvCommand::Put {
                ks,
                key: k.clone(),
                value: value_for(k),
            }) {
                Ok(_) => {}
                // A put can race the promotion of a keyspace that lost
                // volatile data; abandon this attempt.
                Err(_) => {
                    aborted = true;
                    break;
                }
            }
        }
        if !aborted {
            aborted = !compact_to_done(r, ks);
        }
        // Durability gate: only a batch whose pairs ALL verify readable
        // after compaction counts as committed. A death before the seal
        // shipped loses volatile puts — by contract — so that attempt is
        // discarded and redone under a new name.
        if !aborted && keys.iter().all(|k| get_matches(r, ks, k)) {
            return (name, ks, keys);
        }
        let _ = drive(r, || KvCommand::DeleteKeyspace { ks });
    }
    panic!("batch {batch} did not commit in 8 attempts");
}

/// Submit COMPACT and poll to a terminal state. `false` on failure.
fn compact_to_done(r: &ClusterRouter, ks: u32) -> bool {
    let job = match drive(r, || KvCommand::Compact { ks }) {
        Ok(KvResponse::JobStarted { job }) => job,
        _ => return false,
    };
    for _ in 0..64 {
        match drive(r, || KvCommand::PollJob { job }) {
            Ok(KvResponse::Job {
                state: JobState::Done,
            }) => return true,
            Ok(KvResponse::Job {
                state: JobState::Failed(_),
            }) => return false,
            Ok(_) => {}
            Err(_) => return false,
        }
    }
    false
}

fn get_matches(r: &ClusterRouter, ks: u32, key: &[u8]) -> bool {
    matches!(
        drive(r, || KvCommand::Get {
            ks,
            key: key.to_vec(),
        }),
        Ok(KvResponse::Value(v)) if v == value_for(key)
    )
}

/// Committed batches as `(keyspace id, keys)` pairs.
type Committed = Vec<(u32, Vec<Vec<u8>>)>;

/// Run the full batched workload against a cluster whose fault plan cuts
/// power at `cut_at` ops, then kill every still-healthy primary and
/// re-verify the fleet. Returns the committed data and the event log.
fn run_workload(cut_at: u64, seed: u64) -> (Arc<ClusterRouter>, Committed) {
    let r = router_with_cut(cut_at, seed);
    let committed: Committed = (0..BATCHES)
        .map(|b| {
            let (_, ks, keys) = commit_batch(&r, b);
            (ks, keys)
        })
        .collect();
    // Force the remaining primaries through failover too, so the final
    // verification reads every batch entirely from promoted replicas.
    for ix in 0..SHARDS {
        r.kill_shard(ix);
        assert_eq!(
            r.shard_health(ix),
            ShardHealth::Healthy,
            "shard {ix} must come back healthy after promotion"
        );
    }
    (r, committed)
}

fn verify_committed(r: &ClusterRouter, committed: &[(u32, Vec<Vec<u8>>)]) {
    for (ks, keys) in committed {
        // Acked-durability: every pair of every committed batch.
        for k in keys {
            assert!(
                get_matches(r, *ks, k),
                "committed key {:?} lost or damaged after failover",
                String::from_utf8_lossy(k)
            );
        }
        // Scatter-gather RANGE: globally key-ordered, byte-exact, and
        // exactly the committed key set — nothing half-visible.
        let entries = match drive(r, || KvCommand::Range {
            ks: *ks,
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            limit: None,
        }) {
            Ok(KvResponse::Entries(es)) => es,
            other => panic!("range: {other:?}"),
        };
        let want: BTreeMap<Vec<u8>, Vec<u8>> =
            keys.iter().map(|k| (k.clone(), value_for(k))).collect();
        assert_eq!(entries.len(), want.len(), "range cardinality mismatch");
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "merged range must be strictly key-ordered"
        );
        for (k, v) in &entries {
            assert_eq!(
                want.get(k),
                Some(v),
                "half-visible or foreign key {:?}",
                String::from_utf8_lossy(k)
            );
        }
    }
}

#[test]
fn power_cut_sweep_survives_failover_at_every_phase() {
    // Cut points chosen to land in ingest, seal, compaction sort, index
    // read-back and steady-state phases of the batched workload.
    for &cut_at in &[60u64, 140, 300, 520, 900, 1600, 2600, 4200] {
        let (r, committed) = run_workload(cut_at, 0xC0FFEE ^ cut_at);
        verify_committed(&r, &committed);
        // The plan cut plus the final manual sweep: every shard is
        // promoted at least once (twice when the plan got there first,
        // which also exercises the re-seeded replica log), and
        // generations count up per shard without gaps.
        let mut gens: BTreeMap<u32, u32> = BTreeMap::new();
        for ev in r.events() {
            let g = gens.entry(ev.shard).or_insert(0);
            *g += 1;
            assert_eq!(
                ev.generation, *g,
                "cut_at={cut_at}: generations must be per-shard monotonic"
            );
        }
        assert_eq!(
            gens.len() as u32,
            SHARDS,
            "cut_at={cut_at}: every shard must have failed over"
        );
    }
}

#[test]
fn same_seed_reproduces_the_same_failover_schedule() {
    let runs: Vec<Vec<FailoverEvent>> = (0..2)
        .map(|_| {
            let (r, committed) = run_workload(300, 0xDEAD_BEEF);
            verify_committed(&r, &committed);
            r.events()
        })
        .collect();
    assert_eq!(
        runs[0], runs[1],
        "same seed must reproduce the identical failover schedule"
    );
    let other = run_workload(300, 0xFEED_F00D).0.events();
    // Not a hard invariant of the design, but with distinct seeds the
    // replayed-artifact profile almost surely differs somewhere; if this
    // ever flakes the seeds happened to collide and may be changed.
    assert!(
        !other.is_empty(),
        "control run with a different seed must still fail over"
    );
}

#[test]
fn routed_client_sessions_ride_through_failover_with_fail_fast_redirects() {
    let r = Arc::new(ClusterRouter::new(ClusterConfig {
        shards: SHARDS,
        ..ClusterConfig::default()
    }));
    let host_ledger = Arc::new(IoLedger::new(SHARDS, 4096));
    let db = KvCsd::connect(
        Arc::clone(&r) as Arc<dyn DeviceHandler>,
        Arc::clone(&host_ledger),
    );
    let ks = db.create_keyspace("routed").expect("create");
    let keys: Vec<Vec<u8>> = (0..90u32)
        .map(|i| format!("rk{i:05}").into_bytes())
        .collect();
    for k in &keys {
        ks.put(k, &value_for(k)).expect("put");
    }
    let job = ks.compact().expect("compact");
    while !job.is_terminal().expect("poll") {}
    // Cut power behind the router's back: the next routed command makes
    // the router discover the death, answer FailoverInProgress, and the
    // client's retry loop resends immediately to the promoted replica.
    r.shard_injector(0)
        .expect("shards are armed")
        .power_off_now();
    for k in &keys {
        assert_eq!(ks.get(k).expect("get after failover"), value_for(k));
    }
    assert_eq!(r.events().len(), 1, "exactly one promotion");
    assert!(
        host_ledger.custom("client_failover_redirects") >= 1,
        "the client must have taken the fail-fast redirect path"
    );
    // Scatter-gather through the client API too.
    let es = ks
        .range(Bound::Unbounded, Bound::Unbounded, None)
        .expect("range");
    assert_eq!(es.len(), keys.len());
    assert!(es.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn dead_unreplicated_shard_degrades_only_its_own_keyspace_ranges() {
    let r = Arc::new(ClusterRouter::new(ClusterConfig {
        shards: 2,
        replicate: false,
        strategy: ShardStrategy::RangeKeys {
            boundaries: vec![b"m".to_vec()],
        },
        ..ClusterConfig::default()
    }));
    let host_ledger = Arc::new(IoLedger::new(2, 4096));
    let db = KvCsd::connect(
        Arc::clone(&r) as Arc<dyn DeviceHandler>,
        Arc::clone(&host_ledger),
    );
    let ks = db.create_keyspace("split").expect("create");
    for i in 0..40u32 {
        let low = format!("a{i:04}").into_bytes();
        let high = format!("z{i:04}").into_bytes();
        ks.put(&low, &value_for(&low)).expect("put low");
        ks.put(&high, &value_for(&high)).expect("put high");
    }
    let job = ks.compact().expect("compact");
    while !job.is_terminal().expect("poll") {}
    r.kill_shard(1);
    assert_eq!(r.shard_health(1), ShardHealth::Dead);
    // The healthy half keeps serving: range pruned to shard 0 only.
    let es = ks
        .range(
            Bound::Included(b"a".to_vec()),
            Bound::Excluded(b"b".to_vec()),
            None,
        )
        .expect("low range must still work");
    assert_eq!(es.len(), 40);
    // The dead half fails with the typed, non-retryable-but-degraded
    // error — and the client classifies it as degraded, not fatal.
    let err = ks
        .range(Bound::Included(b"z".to_vec()), Bound::Unbounded, None)
        .expect_err("dead shard's range must fail");
    assert!(
        matches!(
            err,
            ClientError::Device(KvStatus::ShardUnavailable { shard: 1 })
                | ClientError::RetriesExhausted {
                    last: KvStatus::ShardUnavailable { shard: 1 },
                    ..
                }
        ),
        "unexpected error: {err:?}"
    );
    assert!(err.is_degraded() && !err.is_fatal());
}

#[test]
fn busy_shard_charges_latency_only_to_its_own_key_ranges() {
    // Tighten the admission gate so compaction debt on the loaded shard
    // charges visible slowdown latency to *its* virtual clock.
    let base = ClusterConfig::default();
    let r = Arc::new(ClusterRouter::new(ClusterConfig {
        shards: 2,
        strategy: ShardStrategy::RangeKeys {
            boundaries: vec![b"m".to_vec()],
        },
        device: DeviceConfig {
            admission: AdmissionConfig {
                debt_slowdown_bytes: 2 << 10,
                debt_stall_bytes: 1 << 20,
                debt_reject_bytes: 8 << 20,
                ..AdmissionConfig::default()
            },
            ..base.device
        },
        ..base
    }));
    let ks = match r.handle(KvCommand::CreateKeyspace {
        name: "skew".into(),
    }) {
        KvResponse::Created { ks } => ks,
        other => panic!("{other:?}"),
    };
    // All data lives below the boundary: shard 0 does real compaction
    // work (clock advances), shard 1 seals an empty keyspace (trivial).
    for i in 0..300u32 {
        let k = format!("a{i:06}").into_bytes();
        match r.handle(KvCommand::Put {
            ks,
            key: k.clone(),
            value: value_for(&k),
        }) {
            KvResponse::PutOk => {}
            other => panic!("{other:?}"),
        }
    }
    assert!(compact_to_done(&r, ks), "compaction must finish");
    let busy = r.shard_clock(0).now_ns();
    let idle = r.shard_clock(1).now_ns();
    assert!(busy > 0, "loaded shard must have charged time");
    assert!(
        idle < busy / 10,
        "idle shard charged {idle} ns vs busy {busy} ns — stall isolation broken"
    );
    // Queries confined to the idle shard's range do not pay the busy
    // shard's latency: they never touch shard 0's clock or ledger.
    let ranges0 = r.shard_ledger(0).custom("dev_ranges");
    let clock0 = r.shard_clock(0).now_ns();
    match r.handle(KvCommand::Range {
        ks,
        lo: Bound::Included(b"z".to_vec()),
        hi: Bound::Unbounded,
        limit: None,
    }) {
        KvResponse::Entries(es) => assert!(es.is_empty()),
        other => panic!("{other:?}"),
    }
    assert_eq!(r.shard_ledger(0).custom("dev_ranges"), ranges0);
    assert_eq!(r.shard_clock(0).now_ns(), clock0);
}
