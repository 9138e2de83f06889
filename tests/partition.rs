//! Partition torture harness: the cluster under an unreliable network.
//!
//! Where `cluster_torture.rs` kills devices, this suite attacks the
//! *links*: seeded per-link drop/duplicate/reorder/delay faults plus
//! scheduled bidirectional partitions (DESIGN.md §14). The invariants:
//!
//! * **Acked durability** — under swept partition schedules, every write
//!   whose COMPACT was acknowledged survives any single-primary death;
//!   a seal that cannot reach the replica log is never acked.
//! * **No split-brain** — at most one primary acks per fencing epoch:
//!   a suspect-deposed primary keeps executing, but every ack it would
//!   return is fenced (`EpochFenced`) and every artifact it ships is
//!   rejected at the replica's receive fence.
//! * **Convergence** — after a partition heals, anti-entropy
//!   reconciliation re-ships exactly the artifact gap and a subsequent
//!   promotion serves every committed pair from the replica log.
//! * **Determinism** — the same plan seed reproduces the identical
//!   partition, failover and link-event schedule, byte for byte.
//!
//! The `fast_` tests are the CI torture subset (run under `KVCSD_RACE=on`
//! and perturbation seeds); the sweeps run with the tier-1 suite.

use std::collections::BTreeMap;
use std::sync::Arc;

use kvcsd::cluster::{ClusterConfig, ClusterRouter, ShardHealth};
use kvcsd::proto::{Bound, DeviceHandler, JobState, KvCommand, KvResponse, KvStatus};
use kvcsd::sim::{FaultPlan, LedgerSnapshot};

const SHARDS: u32 = 2;
const PAIRS_PER_BATCH: u32 = 40;

/// The value is a pure function of the key, so a torn or half-applied
/// pair that becomes visible is caught by recomputation.
fn value_for(key: &[u8]) -> Vec<u8> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for &b in key {
        x ^= b as u64;
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut v = vec![0u8; 20];
    for (i, slot) in v.iter_mut().enumerate() {
        *slot = ((x >> ((i % 8) * 8)) as u8).wrapping_add(i as u8);
    }
    v
}

fn router(plan: FaultPlan, shards: u32, partition_failover: bool) -> Arc<ClusterRouter> {
    Arc::new(ClusterRouter::new(ClusterConfig {
        shards,
        fault_plan: plan,
        partition_failover,
        ..ClusterConfig::default()
    }))
}

/// Drive one command through the router, absorbing the two retryable
/// fencing bounces exactly the way the client's fail-fast redirect does:
/// `FailoverInProgress` while a promotion swaps the primary, and
/// `EpochFenced` when the command raced the swap onto the deposed one.
fn drive(r: &ClusterRouter, mut make: impl FnMut() -> KvCommand) -> Result<KvResponse, KvStatus> {
    for _ in 0..24 {
        match r.handle(make()) {
            KvResponse::Err(KvStatus::FailoverInProgress { .. })
            | KvResponse::Err(KvStatus::EpochFenced { .. }) => continue,
            KvResponse::Err(e) => return Err(e),
            resp => return Ok(resp),
        }
    }
    panic!("command did not settle after 24 fencing redirects");
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

/// Put a batch of pairs into a fresh keyspace and compact it to the
/// sealed-and-shipped (cluster-durable) state. A suspect-deposition can
/// eat the volatile portion of an attempt — by contract — so an attempt
/// only counts once every pair verifies readable; otherwise it is
/// discarded and redone under a new name.
fn commit_batch(r: &ClusterRouter, batch: usize) -> (u32, Vec<Vec<u8>>) {
    for attempt in 0..8u32 {
        let name = format!("p{batch}-try{attempt}");
        let ks = match drive(r, || KvCommand::CreateKeyspace { name: name.clone() }) {
            Ok(KvResponse::Created { ks }) => ks,
            Ok(resp) => panic!("create: unexpected {resp:?}"),
            Err(e) => panic!("create failed: {e}"),
        };
        let keys: Vec<Vec<u8>> = (0..PAIRS_PER_BATCH)
            .map(|i| format!("p{batch}a{attempt:02}k{i:05}").into_bytes())
            .collect();
        let mut aborted = false;
        for k in &keys {
            if drive(r, || KvCommand::Put {
                ks,
                key: k.clone(),
                value: value_for(k),
            })
            .is_err()
            {
                aborted = true;
                break;
            }
        }
        if !aborted {
            aborted = !compact_to_done(r, ks);
        }
        if !aborted && keys.iter().all(|k| get_matches(r, ks, k)) {
            return (ks, keys);
        }
        let _ = drive(r, || KvCommand::DeleteKeyspace { ks });
    }
    panic!("batch {batch} did not commit in 8 attempts");
}

/// Acked-durability + scatter-gather integrity for every committed batch.
fn verify_committed(r: &ClusterRouter, committed: &[(u32, Vec<Vec<u8>>)]) {
    for (ks, keys) in committed {
        for k in keys {
            assert!(
                get_matches(r, *ks, k),
                "committed key {:?} lost or damaged",
                String::from_utf8_lossy(k)
            );
        }
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
        let mut prev: Option<&[u8]> = None;
        for (k, v) in &entries {
            assert!(prev.is_none_or(|p| p < k.as_slice()), "range out of order");
            assert_eq!(Some(v), want.get(k), "range value mismatch");
            prev = Some(k);
        }
    }
}

/// Promote every shard's replica, asserting the shard comes back.
fn kill_all_primaries(r: &ClusterRouter, shards: u32) {
    for ix in 0..shards {
        r.kill_shard(ix);
        assert_eq!(
            r.shard_health(ix),
            ShardHealth::Healthy,
            "shard {ix} must come back healthy after promotion"
        );
    }
}

// ---------------------------------------------------------------------
// CI fast subset
// ---------------------------------------------------------------------

/// Sweep the partition open point across the ship schedule so the cut
/// lands before, during and after the first seal's retry budget. Every
/// acked write must survive a full fleet promotion afterwards.
#[test]
fn fast_acked_writes_survive_swept_partition_schedules() {
    for at in [1u64, 3, 7, 15, 31] {
        let mut plan = FaultPlan::none().with_partition_at(at, Some(6));
        plan.seed = 0xC0FF_EE00 ^ at;
        let r = router(plan, SHARDS, true);
        let committed: Vec<_> = (0..2).map(|b| commit_batch(&r, b)).collect();
        kill_all_primaries(&r, SHARDS);
        verify_committed(&r, &committed);
    }
}

/// Split-brain containment: after a suspect-deposition both sides of the
/// partition keep executing, but only the promoted primary can ack — the
/// deposed one is fenced on every client-visible path and its ships are
/// rejected at the replica's receive fence.
#[test]
fn fast_at_most_one_primary_acks_per_epoch() {
    // A permanent partition: under suspect-failover the durability
    // contract means no COMPACT can ever ack (the seal cannot reach the
    // replica log), so this test drives the raw handler, not a batch.
    let r = router(FaultPlan::none().with_partition_at(1, None), 1, true);
    let ks = match r.handle(KvCommand::CreateKeyspace { name: "t".into() }) {
        KvResponse::Created { ks } => ks,
        other => panic!("create: {other:?}"),
    };
    let keys: Vec<Vec<u8>> = (0..10).map(|i| format!("k{i:02}").into_bytes()).collect();
    for k in &keys {
        let resp = r.handle(KvCommand::Put {
            ks,
            key: k.clone(),
            value: value_for(k),
        });
        assert!(
            matches!(resp, KvResponse::PutOk),
            "device-local puts ack across the partition: {resp:?}"
        );
    }
    let resp = r.handle(KvCommand::Compact { ks });
    assert!(
        matches!(
            resp,
            KvResponse::Err(KvStatus::FailoverInProgress { shard: 0 })
        ),
        "a seal that cannot reach the replica must not ack: {resp:?}"
    );
    let events = r.events();
    assert_eq!(events.len(), 1);
    assert!(events[0].suspected, "deposed on suspicion, not death");
    assert_eq!(
        r.shard_epoch(0),
        2,
        "the promotion mints exactly one fencing epoch"
    );
    assert!(r.has_deposed(0), "the suspect is kept around, fenced");
    // The deposed ex-primary still executes every command class — it has
    // the keyspace and the volatile puts — but every ack is fenced, so
    // per epoch only the promoted primary acks.
    let local = r
        .with_deposed_device(0, |d| d.keyspaces().list().first().map(|(id, _, _)| *id))
        .flatten()
        .expect("deposed primary kept its keyspaces");
    for cmd in [
        KvCommand::Put {
            ks: local,
            key: b"rogue".to_vec(),
            value: b"write".to_vec(),
        },
        KvCommand::Get {
            ks: local,
            key: keys[0].clone(),
        },
        KvCommand::Compact { ks: local },
    ] {
        assert_eq!(
            r.exec_on_deposed(0, cmd).unwrap_err(),
            KvStatus::EpochFenced { shard: 0 },
            "deposed primary must not ack in the new epoch"
        );
    }
    // Meanwhile the promoted primary acks fresh writes in the new epoch
    // (the deposed one's volatile puts are gone — they were never acked
    // as durable, only a COMPACT ack promises replica durability; and
    // reading them back would need a COMPACT, which correctly cannot ack
    // while the partition stays open).
    for k in &keys {
        drive(&r, || KvCommand::Put {
            ks,
            key: k.clone(),
            value: value_for(k),
        })
        .expect("the promoted primary must ack in its own epoch");
    }
    // And even with the link healed, the stale epoch cannot ship.
    let fenced_before = r.replica_log(0).fenced();
    r.shard_link(0).heal_link_now();
    let name = r
        .with_deposed_device(0, |d| {
            d.keyspaces().list().first().map(|(_, n, _)| n.clone())
        })
        .flatten()
        .expect("deposed primary kept its keyspaces");
    r.ship_from_deposed(0, &name)
        .expect("healed link delivers the stale ship");
    assert_eq!(
        r.replica_log(0).fenced(),
        fenced_before + 1,
        "stale-epoch ship must be rejected at the receive fence"
    );
}

/// Availability mode: the primary rides out the partition, acked seals
/// bounce retryably, and after the heal anti-entropy re-ships exactly
/// the gap — proven by promoting the replica and reading everything.
#[test]
fn fast_replicas_converge_after_heal() {
    let r = router(FaultPlan::none(), 1, false);
    let pre = commit_batch(&r, 0);
    r.shard_link(0).partition_now();
    // Writes keep landing (puts are device-local) but the durability
    // gate holds: a COMPACT that cannot ship does not ack.
    let ks = match drive(&r, || KvCommand::CreateKeyspace {
        name: "during-partition".into(),
    }) {
        Ok(KvResponse::Created { ks }) => ks,
        other => panic!("create: {other:?}"),
    };
    let keys: Vec<Vec<u8>> = (0..PAIRS_PER_BATCH)
        .map(|i| format!("gapk{i:05}").into_bytes())
        .collect();
    for k in &keys {
        drive(&r, || KvCommand::Put {
            ks,
            key: k.clone(),
            value: value_for(k),
        })
        .expect("puts are device-local; the partition must not block them");
    }
    assert!(
        matches!(
            drive(&r, || KvCommand::Compact { ks }),
            Err(KvStatus::TransientDeviceError(_))
        ),
        "a seal across an open partition must bounce retryably"
    );
    assert!(r.events().is_empty(), "availability mode never deposes");
    assert_eq!(r.reconcile(), 0, "reconcile must skip partitioned links");
    r.shard_link(0).heal_link_now();
    assert!(r.reconcile() >= 1, "the heal exposes the artifact gap");
    assert!(compact_to_done(&r, ks), "the retried seal now ships");
    assert_eq!(r.reconcile(), 0, "replica converged — nothing to re-ship");
    // The convergence proof: promote the replica and read it all back.
    kill_all_primaries(&r, 1);
    verify_committed(&r, &[pre, (ks, keys)]);
}

/// One plan seed fixes the whole torture run: the partition schedule,
/// the failover/deposition sequence, every per-link fault event and the
/// fabric traffic totals reproduce exactly.
#[test]
fn fast_same_seed_yields_the_same_partition_and_failover_schedule() {
    let run = |seed: u64| {
        let mut plan = FaultPlan::none()
            .with_link_faults(0.2, 0.1, 0.1, 0.2)
            .with_link_delay_ns(40_000)
            .with_partition_at(5, Some(6));
        plan.seed = seed;
        let r = router(plan, SHARDS, true);
        let committed: Vec<_> = (0..2).map(|b| commit_batch(&r, b)).collect();
        verify_committed(&r, &committed);
        let links: Vec<_> = (0..SHARDS)
            .map(|ix| r.shard_link(ix).link_events())
            .collect();
        let epochs: Vec<_> = (0..SHARDS).map(|ix| r.shard_epoch(ix)).collect();
        (
            r.events(),
            links,
            epochs,
            r.fabric_ledger().custom("bus_msgs"),
            r.fabric_ledger().custom("bus_bytes"),
        )
    };
    let a = run(0xDEAD_BEEF);
    let b = run(0xDEAD_BEEF);
    assert_eq!(a, b, "same seed must reproduce the full schedule");
}

// ---------------------------------------------------------------------
// Slower sweeps (tier-1 only)
// ---------------------------------------------------------------------

/// Duplicate every delivery: at-least-once transport, exactly-once
/// application. The replica log dedups on (keyspace, seq) so a dup storm
/// changes neither the promoted state nor the acked data.
#[test]
fn duplicated_deliveries_apply_exactly_once() {
    let mut plan = FaultPlan::none().with_link_faults(0.0, 1.0, 0.0, 0.0);
    plan.seed = 7;
    let r = router(plan, 1, true);
    let committed = vec![commit_batch(&r, 0), commit_batch(&r, 1)];
    assert!(
        r.replica_log(0).duplicates() > 0,
        "a dup probability of 1.0 must exercise the dedup path"
    );
    kill_all_primaries(&r, 1);
    verify_committed(&r, &committed);
}

/// A thoroughly lossy link — drops, dups, reorders and delays at once —
/// slows replication down but never corrupts it: retries and the receive
/// fence keep every acked batch intact through a full fleet promotion.
#[test]
fn lossy_links_preserve_acked_durability() {
    for seed in [11u64, 29, 47] {
        let mut plan = FaultPlan::none()
            .with_link_faults(0.25, 0.15, 0.1, 0.3)
            .with_link_delay_ns(80_000);
        plan.seed = seed;
        let r = router(plan, SHARDS, true);
        let committed: Vec<_> = (0..2).map(|b| commit_batch(&r, b)).collect();
        kill_all_primaries(&r, SHARDS);
        verify_committed(&r, &committed);
    }
}

/// Per-shard ledger deltas and bus-message delta over one phase.
#[derive(Debug, PartialEq)]
struct PhaseDelta {
    shards: Vec<LedgerSnapshot>,
    bus_msgs: u64,
}

fn phase_marks(r: &ClusterRouter) -> (Vec<LedgerSnapshot>, u64) {
    let shards = (0..SHARDS)
        .map(|ix| r.shard_ledger(ix).snapshot())
        .collect();
    (shards, r.fabric_ledger().custom("bus_msgs"))
}

fn phase_delta(r: &ClusterRouter, (before, msgs): &(Vec<LedgerSnapshot>, u64)) -> PhaseDelta {
    let (after, now) = phase_marks(r);
    PhaseDelta {
        shards: after.iter().zip(before).map(|(a, b)| a.since(b)).collect(),
        bus_msgs: now - msgs,
    }
}

/// One seeded replicated run: PUT into six keyspaces, compact + ship
/// each, then 160 bounded RANGE windows. Returns the PUT delta, the
/// compaction phase's bus messages and the RANGE delta.
fn put_compact_range(plan: FaultPlan) -> (PhaseDelta, u64, PhaseDelta) {
    const KEYSPACES: u32 = 6;
    const KEYS_PER_KEYSPACE: u32 = 200;
    const RANGES: usize = 160;
    let r = ClusterRouter::new(ClusterConfig {
        shards: SHARDS,
        fault_plan: plan,
        ..ClusterConfig::default()
    });
    let spaces: Vec<(u32, Vec<Vec<u8>>)> = (0..KEYSPACES)
        .map(|s| {
            let ks = match r.handle(KvCommand::CreateKeyspace {
                name: format!("bench{s}"),
            }) {
                KvResponse::Created { ks } => ks,
                other => panic!("create: {other:?}"),
            };
            let keys = (0..KEYS_PER_KEYSPACE)
                .map(|i| format!("s{s}k{i:06}").into_bytes())
                .collect();
            (ks, keys)
        })
        .collect();

    let marks = phase_marks(&r);
    for (ks, keys) in &spaces {
        for k in keys {
            let put = r.handle(KvCommand::Put {
                ks: *ks,
                key: k.clone(),
                value: value_for(k),
            });
            assert!(matches!(put, KvResponse::PutOk), "put: {put:?}");
        }
    }
    let puts = phase_delta(&r, &marks);

    // Synchronous seal + replica ship, then the background index ships.
    let marks = phase_marks(&r);
    for (ks, _) in &spaces {
        assert!(compact_to_done(&r, *ks), "compact of keyspace {ks}");
        while r.run_background() > 0 {}
    }
    let compact_msgs = phase_delta(&r, &marks).bus_msgs;

    let marks = phase_marks(&r);
    for i in 0..RANGES {
        let (ks, keys) = &spaces[i % spaces.len()];
        let lo = (i * 7) % keys.len();
        let hi = (lo + 48).min(keys.len() - 1);
        match r.handle(KvCommand::Range {
            ks: *ks,
            lo: Bound::Included(keys[lo].clone()),
            hi: Bound::Included(keys[hi].clone()),
            limit: None,
        }) {
            KvResponse::Entries(es) => assert!(!es.is_empty(), "range {i} returned no rows"),
            other => panic!("range: {other:?}"),
        }
    }
    (puts, compact_msgs, phase_delta(&r, &marks))
}

/// Link faults land only on the replication bus: point PUTs and
/// scatter-gather RANGEs never touch it, and the link fault lane draws
/// from its own RNG stream, so a lossy link leaves every shard's work in
/// those phases unchanged and costs only the compaction's ships.
#[test]
fn lossy_links_cost_only_the_compaction_ships() {
    let mut clean = FaultPlan::none();
    clean.seed = 42;
    let mut lossy = FaultPlan::none()
        .with_link_faults(0.25, 0.25, 0.10, 0.50)
        .with_link_delay_ns(50_000);
    lossy.seed = 42;
    let (clean_puts, clean_ships, clean_ranges) = put_compact_range(clean);
    let (lossy_puts, lossy_ships, lossy_ranges) = put_compact_range(lossy);
    for phase in [&clean_puts, &clean_ranges] {
        assert_eq!(phase.bus_msgs, 0, "point ops and ranges stay off the bus");
    }
    assert_eq!(clean_puts, lossy_puts, "PUT phase perturbed by link faults");
    assert_eq!(
        clean_ranges, lossy_ranges,
        "RANGE phase perturbed by link faults"
    );
    assert!(
        lossy_ships > clean_ships,
        "a lossy link must cost retransmits: {lossy_ships} vs {clean_ships} bus messages"
    );
}
