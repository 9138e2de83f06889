//! The host-side cluster router.
//!
//! [`ClusterRouter`] owns N [`ShardInstance`]s and implements
//! [`DeviceHandler`], so an unmodified `kvcsd-client` session drives the
//! whole fleet through one queue pair ("routed sessions"). Every
//! cluster-level keyspace exists on every shard under the same name; the
//! [`crate::ShardStrategy`] decides which shard owns each key.
//!
//! * Point ops (`Put`, `Get`) go to the owning shard only.
//! * `Range` / `SidxRange` / `SidxGet` scatter to the covering shards and
//!   the router merges the per-shard result sets back into global
//!   (secondary-)key order.
//! * `Compact` fans out to every shard; right after each shard's
//!   synchronous seal the router exports the sealed-log artifacts and
//!   ships them to the shard's replica log. When deferred jobs finish
//!   (`run_background`), the built indexes are shipped too.
//! * A primary that dies (fault-injector power cut — detected either as a
//!   `PowerLoss` response or by the injector's powered-off latch) is
//!   promoted from its replica log: artifacts are installed on a fresh
//!   instance, sealed-log installs are re-compacted through the checked
//!   DEGRADED → COMPACTING edge, and the route table is repointed. While
//!   that runs, commands bounce with the *retryable*
//!   `FailoverInProgress`; the client's fail-fast resend lands on the
//!   promoted replica.
//!
//! Backpressure composes per shard: each device keeps its own
//! `AdmissionGate`, ledger and virtual clock, so a stalled or dead shard
//! charges stall time only to commands routed at its keys — never to the
//! rest of the fleet.

use std::collections::HashMap;
use std::sync::Arc;

use kvcsd_core::{ArtifactPayload, KvCsdDevice};
use kvcsd_proto::{
    Bound, DeviceHandler, JobId, JobState, KeyspaceDesc, KeyspaceStat, KeyspaceState, KvCommand,
    KvResponse, KvStatus, SecondaryIndexSpec, ShardId, ShipKind,
};
use kvcsd_sim::sync::{Mutex, RwLock, Shared};
use kvcsd_sim::{BusResource, FaultInjector, FaultPlan, IoLedger, VirtualClock};

use crate::replica::{ReplicaLog, ShipError, ShipOutcome};
use crate::shard::{HealthCell, ShardHealth, ShardInstance};
use crate::ClusterConfig;

/// One shard's slice of a scatter-gathered entry set.
type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// One completed promotion, for reproducibility auditing: the torture
/// suite asserts that the same seed yields the identical event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    pub shard: ShardId,
    /// 1-based promotion count on this shard.
    pub generation: u32,
    /// Artifact sets installed from the replica log.
    pub replayed_artifacts: u32,
    /// Of those, sealed-log installs that were re-compacted during
    /// promotion (the mid-compaction death case).
    pub recompacted: u32,
    /// `true` when the old primary was deposed on *suspicion* (its
    /// replication link looked down) rather than observed dead. A
    /// suspected primary is kept around, fenced at the old epoch — the
    /// split-brain case the partition torture suite drives directly.
    pub suspected: bool,
}

/// Disposition of a shard-level error during cluster fan-out / polling;
/// see [`ClusterRouter::classify_shard_error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardErrorClass {
    /// The shard is mid-promotion: bounce to the client as retryable.
    Failover,
    /// The shard already applied this fan-out step (idempotent resend).
    AlreadyApplied,
    /// Transient overload: keep polling / resending.
    Transient,
    /// Permanent for this command.
    Permanent,
}

/// Which cluster-level job a client job id maps to.
#[derive(Debug, Clone)]
enum JobKind {
    Compact,
    Sidx(String),
}

#[derive(Debug, Clone)]
struct JobTarget {
    ks: u32,
    kind: JobKind,
}

/// One cluster-level keyspace and its per-shard local ids.
#[derive(Debug, Clone)]
struct ClusterKeyspace {
    id: u32,
    name: String,
    /// `local[i]` is the keyspace id on shard `i`'s current primary;
    /// repointed on promotion.
    local: Vec<u32>,
    /// Secondary-index specs seen so far, recorded for merge ordering.
    specs: Vec<SecondaryIndexSpec>,
}

#[derive(Default)]
struct RouteTable {
    next_ks: u32,
    next_job: u64,
    keyspaces: HashMap<u32, ClusterKeyspace>,
    by_name: HashMap<String, u32>,
    jobs: HashMap<u64, JobTarget>,
}

struct ShardState {
    id: ShardId,
    primary: RwLock<ShardInstance>,
    /// The previous primary after a *suspected* deposition (partition
    /// failover). It still executes commands — that is the point: its
    /// acks and ships must be rejected at the epoch fence, never by
    /// making the instance magically unreachable.
    deposed: Mutex<Option<ShardInstance>>,
    replica: ReplicaLog,
    /// This shard's replication-link fault injector. It belongs to the
    /// *link*, not the primary, so it survives promotions: a new primary
    /// inherits the same (possibly still partitioned) network.
    link: Arc<FaultInjector>,
    /// Current fencing epoch; minted (`+1`) at every promotion.
    epoch: Shared<u64>,
    /// Set when a ship gave up on a down link: the primary may hold
    /// artifacts the replica never saw. Cleared by a successful
    /// anti-entropy pass after the partition heals.
    needs_reconcile: Shared<bool>,
    health: HealthCell,
}

/// The router: N shards, a route table and a failover event log.
pub struct ClusterRouter {
    cfg: ClusterConfig,
    shards: Vec<ShardState>,
    fabric: Arc<IoLedger>,
    /// Router-side virtual time: every fan-out advances it by the
    /// *slowest* shard's busy delta, never the sum — the host drives all
    /// shards' queues concurrently (see [`ClusterRouter::drive_concurrent`]).
    host_clock: Arc<VirtualClock>,
    routes: Mutex<RouteTable>,
    events: Mutex<Vec<FailoverEvent>>,
}

impl ClusterRouter {
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.shards > 0, "a cluster needs at least one shard");
        if let crate::ShardStrategy::RangeKeys { boundaries } = &cfg.strategy {
            assert_eq!(
                boundaries.len() + 1,
                cfg.shards as usize,
                "range sharding needs exactly shards-1 boundaries"
            );
        }
        // One fabric ledger shared by every shard's bus, so aggregate
        // replication traffic is observable in one place.
        let fabric = Arc::new(IoLedger::new(cfg.shards, 4096));
        let shards = (0..cfg.shards)
            .map(|id| {
                // The link's fault lane is keyed per link id and draws
                // from its own generator, so the same fleet seed yields
                // the same device schedules with or without link faults.
                let link = Arc::new(FaultInjector::new(cfg.fault_plan.clone().for_link(id)));
                let bus =
                    BusResource::new(cfg.bus, Arc::clone(&fabric)).with_faults(Arc::clone(&link));
                ShardState {
                    id,
                    primary: RwLock::new(ShardInstance::build(&cfg, id, cfg.fault_plan.clone(), 1)),
                    deposed: Mutex::new(None),
                    replica: ReplicaLog::with_policy(
                        id,
                        bus,
                        Arc::new(VirtualClock::new()),
                        cfg.ship,
                    ),
                    link,
                    epoch: Shared::new(1),
                    needs_reconcile: Shared::new(false),
                    health: HealthCell::new(),
                }
            })
            .collect();
        Self {
            cfg,
            shards,
            fabric,
            host_clock: Arc::new(VirtualClock::new()),
            routes: Mutex::new(RouteTable::default()),
            events: Mutex::new(Vec::new()),
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Aggregate replication-fabric accounting (bus_bytes / bus_msgs /
    /// bus_busy_ns across every shard's channel).
    pub fn fabric_ledger(&self) -> &Arc<IoLedger> {
        &self.fabric
    }

    /// The router's own virtual clock. Each fan-out advances it by the
    /// slowest shard's busy-time delta, so it reads as the wall time of
    /// a host driving every shard's queue concurrently. A pipelined
    /// [`kvcsd_proto::QueuePair`] over the router uses it as its
    /// execution probe (`crates/bench/src/bin/ingest.rs`).
    pub fn host_clock(&self) -> &Arc<VirtualClock> {
        &self.host_clock
    }

    pub fn shard_health(&self, ix: u32) -> ShardHealth {
        self.shards[ix as usize].health.get()
    }

    /// The current primary's private virtual clock for shard `ix`.
    pub fn shard_clock(&self, ix: u32) -> Arc<VirtualClock> {
        Arc::clone(self.shards[ix as usize].primary.read().clock())
    }

    /// The current primary's I/O ledger for shard `ix`.
    pub fn shard_ledger(&self, ix: u32) -> Arc<IoLedger> {
        Arc::clone(self.shards[ix as usize].primary.read().ledger())
    }

    /// Ships currently held in shard `ix`'s replica log.
    pub fn replica_depth(&self, ix: u32) -> usize {
        self.shards[ix as usize].replica.len()
    }

    /// Shard `ix`'s replication channel — counters (`accepted` /
    /// `duplicates` / `fenced`), generations and the channel clock that
    /// ack timeouts are charged to.
    pub fn replica_log(&self, ix: u32) -> &ReplicaLog {
        &self.shards[ix as usize].replica
    }

    /// Shard `ix`'s current fencing epoch.
    pub fn shard_epoch(&self, ix: u32) -> u64 {
        self.shards[ix as usize].epoch.get()
    }

    /// The fault injector on shard `ix`'s replication link. Torture
    /// harness hook: partition (`partition_now`) / heal (`heal_link_now`)
    /// the link directly, or read its event log for determinism audits.
    pub fn shard_link(&self, ix: u32) -> Arc<FaultInjector> {
        Arc::clone(&self.shards[ix as usize].link)
    }

    /// Completed promotions, in order.
    pub fn events(&self) -> Vec<FailoverEvent> {
        self.events.lock().clone()
    }

    /// Run every healthy shard's deferred jobs and ship freshly built
    /// indexes to the replica logs. Returns the number of jobs run.
    /// Models the device fleet's background processing; the router also
    /// grants background time on every `PollJob`, so a polling client
    /// makes progress without an external driver.
    pub fn run_background(&self) -> usize {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.drive_concurrent(&all, |ix| self.run_shard_background(ix))
            .into_iter()
            .sum()
    }

    /// Total busy virtual time shard `ix` has accumulated so far:
    /// device-side compute and transfer from the primary's ledger, its
    /// private clock, and the replication channel clock. Only *deltas*
    /// of this metric are meaningful — see [`ClusterRouter::drive_concurrent`].
    fn shard_busy_ns(&self, ix: usize) -> u64 {
        let st = &self.shards[ix];
        let (clock_ns, s) = {
            let inst = st.primary.read();
            (inst.clock().now_ns(), inst.ledger().snapshot())
        };
        clock_ns
            + s.host_cpu_ns
            + s.soc_cpu_ns
            + s.bridge_busy_ns
            + s.max_channel_busy_ns()
            + st.replica.clock().now_ns()
    }

    /// Run `f` once per shard in `shards` (in order, so results and
    /// errors keep shard-order semantics), then advance the router clock
    /// by the *maximum* per-shard busy delta: the host drives every
    /// shard's queue concurrently, so a fan-out costs the slowest
    /// shard's time, not the sum of all shards'.
    fn drive_concurrent<R>(&self, shards: &[usize], mut f: impl FnMut(usize) -> R) -> Vec<R> {
        let before: Vec<u64> = shards.iter().map(|&ix| self.shard_busy_ns(ix)).collect();
        let out: Vec<R> = shards.iter().map(|&ix| f(ix)).collect();
        let worst = shards
            .iter()
            .zip(&before)
            .map(|(&ix, &b)| self.shard_busy_ns(ix).saturating_sub(b))
            .max()
            .unwrap_or(0);
        self.host_clock.advance(worst);
        out
    }

    fn run_shard_background(&self, ix: usize) -> usize {
        let st = &self.shards[ix];
        if st.health.get() != ShardHealth::Healthy {
            return 0;
        }
        let (ran, died) = {
            let inst = st.primary.read();
            let ran = if inst.device().pending_jobs() > 0 {
                inst.device().run_pending_jobs()
            } else {
                0
            };
            (ran, inst.is_powered_off())
        };
        // The guard is dropped before promotion: the RwLock shim is not
        // reentrant and failover takes the write side.
        if died {
            self.failover(ix, false);
        } else if ran > 0 && self.cfg.replicate {
            self.ship_compacted(ix);
        }
        // Anti-entropy rides on background time: once the link is out of
        // its partition window, a polling client drives the replica back
        // into convergence without any external daemon.
        let st = &self.shards[ix];
        if self.cfg.replicate && st.needs_reconcile.get() && !st.replica.is_partitioned() {
            self.reconcile_shard(ix);
        }
        ran
    }

    /// Anti-entropy for every shard: exchange per-keyspace artifact
    /// generations with each replica and re-ship only the gaps. Returns
    /// the number of artifacts re-shipped. Shards still inside a
    /// partition window are skipped — a later pass retries them.
    pub fn reconcile(&self) -> usize {
        let mut shipped = 0;
        for ix in 0..self.shards.len() {
            shipped += self.reconcile_shard(ix);
        }
        shipped
    }

    fn reconcile_shard(&self, ix: usize) -> usize {
        let st = &self.shards[ix];
        if !self.cfg.replicate
            || st.health.get() != ShardHealth::Healthy
            || st.replica.is_partitioned()
        {
            return 0;
        }
        // The generation digest itself crosses the (still unreliable)
        // bus; a lost exchange just means a later pass retries.
        let Some(gens) = st.replica.exchange_generations() else {
            st.needs_reconcile.set(true);
            return 0;
        };
        let mut targets: Vec<(String, u32)> = {
            let routes = self.routes.lock();
            routes
                .keyspaces
                .values()
                .map(|ck| (ck.name.clone(), ck.local[ix]))
                .collect()
        };
        // Ship in name order: the link lane draws faults per bus op, so
        // the ship order must not depend on hash-map iteration order.
        targets.sort();
        let epoch = st.epoch.get();
        let mut gaps: Vec<(String, kvcsd_core::KeyspaceArtifacts)> = Vec::new();
        {
            let inst = st.primary.read();
            for (name, local) in targets {
                let Ok(art) = inst.device().export_keyspace_artifacts(local) else {
                    continue;
                };
                // Compare the primary's artifact fingerprint against the
                // replica's generation; only mismatches re-ship.
                let fp = (art.ship_kind(), art.wire_bytes(), art.pairs);
                let have = gens.iter().find(|g| g.0 == name).map(|g| (g.1, g.2, g.3));
                if have != Some(fp) {
                    gaps.push((name, art));
                }
            }
        }
        let mut shipped = 0;
        for (name, art) in gaps {
            match st.replica.ship(&name, art, epoch) {
                Ok(_) => shipped += 1,
                // Link went down again mid-pass: keep the flag, retry on
                // a later pass.
                Err(ShipError::LinkDown { .. }) => {
                    st.needs_reconcile.set(true);
                    return shipped;
                }
            }
        }
        st.needs_reconcile.set(false);
        shipped
    }

    /// Ship every keyspace on shard `ix` whose artifacts are compacted.
    /// Sealed logs were already shipped at seal time; shipping only the
    /// compacted form here keeps the replica log bounded.
    fn ship_compacted(&self, ix: usize) {
        let mut targets: Vec<(String, u32)> = {
            let routes = self.routes.lock();
            routes
                .keyspaces
                .values()
                .map(|ck| (ck.name.clone(), ck.local[ix]))
                .collect()
        };
        // Deterministic ship order (see reconcile_shard).
        targets.sort();
        let st = &self.shards[ix];
        let mut died = false;
        // Export under the primary's read guard, but ship only after it
        // drops: a replica ship occupies the fabric bus (a charged wait),
        // and holding the shard lock across it would stall every command
        // routed at this shard for the transfer's duration.
        let mut to_ship: Vec<(String, kvcsd_core::KeyspaceArtifacts)> = Vec::new();
        {
            let inst = st.primary.read();
            for (name, local) in targets {
                match inst.device().export_keyspace_artifacts(local) {
                    Ok(art) if matches!(art.payload, ArtifactPayload::Compacted { .. }) => {
                        to_ship.push((name, art));
                    }
                    Ok(_) => {}
                    Err(_) => {
                        if inst.is_powered_off() {
                            died = true;
                            break;
                        }
                    }
                }
            }
        }
        let epoch = st.epoch.get();
        for (name, art) in to_ship {
            if let Err(ShipError::LinkDown { .. }) = st.replica.ship(&name, art, epoch) {
                // Background shipping never deposes the primary — nothing
                // is gating a client ack here. Flag the gap; anti-entropy
                // closes it after the partition heals.
                st.needs_reconcile.set(true);
                break;
            }
        }
        if died {
            self.failover(ix, false);
        }
    }

    /// Ship one keyspace's sealed logs right after a successful seal.
    /// This gates the compaction ack: `Ok` means the artifacts are in the
    /// replica log (or replication is off); an `Err` is always retryable
    /// and means the caller must NOT ack durability to the client.
    fn ship_sealed(&self, ix: usize, name: &str, local: u32) -> Result<(), KvStatus> {
        if !self.cfg.replicate {
            return Ok(());
        }
        let st = &self.shards[ix];
        let mut died = false;
        // Same discipline as ship_compacted: never hold the primary's
        // guard across the fabric transfer.
        let mut to_ship = None;
        {
            let inst = st.primary.read();
            match inst.device().export_keyspace_artifacts(local) {
                Ok(art) => to_ship = Some(art),
                // An empty keyspace seals to nothing exportable; that is
                // not a death, just nothing to ship.
                Err(_) => died = inst.is_powered_off(),
            }
        }
        if died {
            self.failover(ix, false);
            return Err(KvStatus::FailoverInProgress { shard: st.id });
        }
        if let Some(art) = to_ship {
            let epoch = st.epoch.get();
            if let Err(ShipError::LinkDown { .. }) = st.replica.ship(name, art, epoch) {
                st.needs_reconcile.set(true);
                if self.cfg.partition_failover {
                    // The primary cannot prove durability across the
                    // partition. Depose it on suspicion and promote the
                    // replica side under a new fencing epoch; the client's
                    // resend lands on the new primary.
                    self.failover(ix, true);
                    return Err(KvStatus::FailoverInProgress { shard: st.id });
                }
                // Availability mode: keep the primary, bounce the ack as
                // retryable. Anti-entropy re-ships after heal.
                return Err(KvStatus::TransientDeviceError(format!(
                    "shard {}: replication link down, seal not replicated",
                    st.id
                )));
            }
        }
        Ok(())
    }

    /// Promote shard `ix`'s replica under a freshly minted fencing epoch.
    /// Exactly one caller wins the CAS; the rest observe `FailingOver`
    /// and bounce their commands. `suspected` marks a partition
    /// deposition: the old primary is not dead, so it is kept around
    /// (fenced at its stale epoch) instead of dropped.
    fn failover(&self, ix: usize, suspected: bool) {
        let st = &self.shards[ix];
        if !st.health.begin_failover() {
            return;
        }
        if !self.cfg.replicate {
            st.health.set(ShardHealth::Dead);
            return;
        }
        // Mint the successor epoch *before* building the successor: from
        // here on, every ack and ship from the old primary is fenced.
        let epoch = st.epoch.update(|e| {
            *e += 1;
            *e
        });
        // Raise the replica's receive fence immediately: even if nothing
        // reseeds below (empty log at deposition), the old primary's
        // ships must already be stale.
        st.replica.advance_epoch(epoch);
        // The dead hardware is replaced, so the promoted instance runs a
        // clean fault plan: the fleet schedule kills each primary once.
        // The replication *link* keeps its injector — a new device does
        // not repair the network.
        let fresh = ShardInstance::build(&self.cfg, st.id, FaultPlan::none(), epoch);
        let mut replayed = 0u32;
        let mut recompacted = 0u32;
        let mut installed: HashMap<String, u32> = HashMap::new();
        for (ship, art) in st.replica.latest_per_keyspace() {
            let Ok(local) = fresh.device().import_keyspace_artifacts(&art) else {
                continue;
            };
            replayed += 1;
            installed.insert(art.name.clone(), local);
            if matches!(ship.kind, ShipKind::SealedLogs) {
                // Sealed logs install DEGRADED; promotion re-runs the
                // compaction through the checked DEGRADED -> COMPACTING
                // edge so the shard comes back queryable.
                if let KvResponse::JobStarted { .. } =
                    fresh.device().handle(KvCommand::Compact { ks: local })
                {
                    fresh.device().run_pending_jobs();
                    recompacted += 1;
                }
            }
        }
        // Keyspaces that never shipped anything come back empty: their
        // acked PUTs were device-buffered only, which is exactly the
        // single-device (no-WAL) durability contract.
        let mut names: Vec<String> = {
            let routes = self.routes.lock();
            routes
                .keyspaces
                .values()
                .map(|ck| ck.name.clone())
                .collect()
        };
        names.sort();
        for name in &names {
            if !installed.contains_key(name) {
                if let KvResponse::Created { ks } = fresh
                    .device()
                    .handle(KvCommand::CreateKeyspace { name: name.clone() })
                {
                    installed.insert(name.clone(), ks);
                }
            }
        }
        // Re-seed the replica log from the promoted primary so a second
        // death on this shard still has artifacts to replay. This is a
        // *local* install at the new epoch — the promoted primary is on
        // the replica's side of any partition, so no wire crossing and no
        // fault exposure. The fence itself survives the clear, keeping
        // the deposed primary's ships rejected.
        st.replica.clear();
        let mut reseed: Vec<(&String, &u32)> = installed.iter().collect();
        reseed.sort();
        for (name, local) in reseed {
            if let Ok(art) = fresh.device().export_keyspace_artifacts(*local) {
                st.replica.reseed(name, art, epoch);
            }
        }
        {
            let mut routes = self.routes.lock();
            for ck in routes.keyspaces.values_mut() {
                if let Some(local) = installed.get(&ck.name) {
                    ck.local[ix] = *local;
                }
            }
        }
        let old = std::mem::replace(&mut *st.primary.write(), fresh);
        // A suspected primary is alive on the far side of the partition;
        // keep it so tests (and honesty) can drive the split-brain case.
        // A dead one is gone hardware.
        *st.deposed.lock() = if suspected { Some(old) } else { None };
        let generation = st.health.bump_generation();
        self.events.lock().push(FailoverEvent {
            shard: st.id,
            generation,
            replayed_artifacts: replayed,
            recompacted,
            suspected,
        });
        st.health.set(ShardHealth::Healthy);
    }

    /// Execute one command on shard `ix`, translating shard death into
    /// the cluster-level statuses.
    fn exec_on(&self, ix: usize, cmd: KvCommand) -> Result<KvResponse, KvStatus> {
        let st = &self.shards[ix];
        match st.health.get() {
            ShardHealth::Healthy => {}
            ShardHealth::FailingOver => {
                return Err(KvStatus::FailoverInProgress { shard: st.id });
            }
            ShardHealth::Dead => return Err(KvStatus::ShardUnavailable { shard: st.id }),
        }
        let (resp, died, stale) = {
            let inst = st.primary.read();
            let resp = inst.device().handle(cmd);
            let died =
                matches!(resp, KvResponse::Err(KvStatus::PowerLoss)) || inst.is_powered_off();
            // The ack fence: the command executed, but if a promotion
            // minted a newer epoch meanwhile, this instance is deposed
            // and its ack must not reach the client.
            let stale = inst.epoch() != st.epoch.get();
            (resp, died, stale)
        };
        if died {
            self.failover(ix, false);
            return Err(if self.cfg.replicate {
                KvStatus::FailoverInProgress { shard: st.id }
            } else {
                KvStatus::ShardUnavailable { shard: st.id }
            });
        }
        if stale {
            return Err(KvStatus::EpochFenced { shard: st.id });
        }
        resp.into_result()
    }

    fn shard_count(&self) -> u32 {
        self.cfg.shards
    }

    /// How a shard-level status error affects a cluster-level fan-out or
    /// job poll. The match is deliberately exhaustive *by name* over
    /// every [`KvStatus`] variant (the `status-map` lint enforces it):
    /// a new wire status must be placed here consciously, not fall into
    /// a catch-all arm that silently retries or fails it.
    fn classify_shard_error(e: &KvStatus) -> ShardErrorClass {
        match e {
            // Mid-promotion (or a stale-epoch ack rejected at the
            // fence): surface immediately so the client's fail-fast
            // resend lands on the current-epoch primary.
            KvStatus::FailoverInProgress { .. } | KvStatus::EpochFenced { .. } => {
                ShardErrorClass::Failover
            }
            // Re-submission after a mid-fanout failover: the shard
            // already applied this step (sealed, or built the index), so
            // the fan-out may treat it as done.
            KvStatus::BadKeyspaceState { .. } | KvStatus::IndexExists => {
                ShardErrorClass::AlreadyApplied
            }
            // Transient overload/backoff signals: the work is not lost,
            // the next poll or resend may find it finished.
            KvStatus::Busy | KvStatus::Stalled | KvStatus::TransientDeviceError(_) => {
                ShardErrorClass::Transient
            }
            // Everything else is permanent for this command.
            KvStatus::KeyspaceNotFound
            | KvStatus::KeyspaceExists
            | KvStatus::KeyNotFound
            | KvStatus::BadKey
            | KvStatus::BadValue
            | KvStatus::IndexNotFound
            | KvStatus::BadIndexSpec
            | KvStatus::JobNotFound
            | KvStatus::DeviceFull
            | KvStatus::DeadlineExceeded
            | KvStatus::MediaError(_)
            | KvStatus::PowerLoss
            | KvStatus::ShardUnavailable { .. }
            | KvStatus::Internal(_) => ShardErrorClass::Permanent,
        }
    }

    fn lookup(&self, ks: u32) -> Result<ClusterKeyspace, KvStatus> {
        self.routes
            .lock()
            .keyspaces
            .get(&ks)
            .cloned()
            .ok_or(KvStatus::KeyspaceNotFound)
    }

    /// Shards whose key span can intersect `[lo, hi]`. Hash sharding
    /// scatters everywhere; range sharding prunes non-covering shards so
    /// a stalled shard never sees (or stalls) other key ranges' queries.
    fn shards_for_range(&self, lo: &Bound, hi: &Bound) -> Vec<usize> {
        let n = self.shard_count() as usize;
        match &self.cfg.strategy {
            crate::ShardStrategy::HashKeys => (0..n).collect(),
            crate::ShardStrategy::RangeKeys { boundaries } => (0..n)
                .filter(|&i| {
                    // Shard i spans [boundaries[i-1], boundaries[i]).
                    let disjoint_above = i > 0 && !hi.admits_from_above(&boundaries[i - 1]);
                    let disjoint_below = i < n - 1
                        && match lo {
                            Bound::Unbounded => false,
                            Bound::Included(k) | Bound::Excluded(k) => k >= &boundaries[i],
                        };
                    !disjoint_above && !disjoint_below
                })
                .collect(),
        }
    }

    fn merge_entries(
        mut parts: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
        limit: Option<u64>,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = parts.drain(..).flatten().collect();
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if let Some(l) = limit {
            all.truncate(l as usize);
        }
        all
    }

    /// Merge secondary-index result sets into global secondary-key order
    /// (ties broken by primary key), using the recorded spec to re-derive
    /// each record's encoded secondary key.
    fn merge_sidx_entries(
        mut parts: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
        spec: Option<&SecondaryIndexSpec>,
        limit: Option<u64>,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = parts.drain(..).flatten().collect();
        all.sort_unstable_by(|a, b| match spec {
            Some(s) => s
                .extract(&a.1)
                .cmp(&s.extract(&b.1))
                .then_with(|| a.0.cmp(&b.0)),
            None => a.0.cmp(&b.0),
        });
        if let Some(l) = limit {
            all.truncate(l as usize);
        }
        all
    }

    fn agg_state(states: &[KeyspaceState]) -> KeyspaceState {
        // Worst-first: a cluster keyspace is only as healthy as its most
        // troubled shard, and only writable/queryable if all shards are.
        let rank = |s: &KeyspaceState| match s {
            KeyspaceState::Degraded => 0,
            KeyspaceState::ReadOnly => 1,
            KeyspaceState::Compacting => 2,
            KeyspaceState::Writable => 3,
            KeyspaceState::Compacted => 4,
            KeyspaceState::Empty => 5,
        };
        states
            .iter()
            .min_by_key(|s| rank(s))
            .copied()
            .unwrap_or(KeyspaceState::Empty)
    }

    fn wrap(deadline_ns: Option<u64>, cmd: KvCommand) -> KvCommand {
        match deadline_ns {
            Some(deadline_ns) => KvCommand::WithDeadline {
                deadline_ns,
                cmd: Box::new(cmd),
            },
            None => cmd,
        }
    }

    // ---- command implementations ------------------------------------------

    fn do_create(&self, name: &str) -> Result<KvResponse, KvStatus> {
        if self.routes.lock().by_name.contains_key(name) {
            return Err(KvStatus::KeyspaceExists);
        }
        let mut local = Vec::with_capacity(self.shard_count() as usize);
        for ix in 0..self.shard_count() as usize {
            let id = match self.exec_on(
                ix,
                KvCommand::CreateKeyspace {
                    name: name.to_string(),
                },
            ) {
                Ok(KvResponse::Created { ks }) => ks,
                // A retry after a partial failure finds the keyspace
                // already present on early shards: recover its id and
                // keep going — cluster-level creation is idempotent.
                Err(KvStatus::KeyspaceExists) => match self.exec_on(
                    ix,
                    KvCommand::OpenKeyspace {
                        name: name.to_string(),
                    },
                )? {
                    KvResponse::Opened { ks, .. } => ks,
                    other => return Err(unexpected(&other)),
                },
                Ok(other) => return Err(unexpected(&other)),
                Err(e) => return Err(e),
            };
            local.push(id);
        }
        let mut routes = self.routes.lock();
        let id = routes.next_ks;
        routes.next_ks += 1;
        routes.by_name.insert(name.to_string(), id);
        routes.keyspaces.insert(
            id,
            ClusterKeyspace {
                id,
                name: name.to_string(),
                local,
                specs: Vec::new(),
            },
        );
        Ok(KvResponse::Created { ks: id })
    }

    fn do_open(&self, name: &str) -> Result<KvResponse, KvStatus> {
        let id = {
            let routes = self.routes.lock();
            *routes.by_name.get(name).ok_or(KvStatus::KeyspaceNotFound)?
        };
        let stat = self.do_stat(id)?;
        match stat {
            KvResponse::Stat(s) => Ok(KvResponse::Opened {
                ks: id,
                state: s.state,
            }),
            other => Err(unexpected(&other)),
        }
    }

    fn do_delete_ks(&self, ks: u32) -> Result<KvResponse, KvStatus> {
        let ck = self.lookup(ks)?;
        for ix in 0..self.shard_count() as usize {
            match self.exec_on(ix, KvCommand::DeleteKeyspace { ks: ck.local[ix] }) {
                Ok(_) | Err(KvStatus::KeyspaceNotFound) => {}
                Err(e) => return Err(e),
            }
        }
        let mut routes = self.routes.lock();
        routes.by_name.remove(&ck.name);
        routes.keyspaces.remove(&ks);
        Ok(KvResponse::Deleted)
    }

    fn do_list(&self) -> Result<KvResponse, KvStatus> {
        let mut cks: Vec<ClusterKeyspace> =
            self.routes.lock().keyspaces.values().cloned().collect();
        cks.sort_unstable_by_key(|ck| ck.id);
        let mut out = Vec::with_capacity(cks.len());
        for ck in cks {
            let mut states = Vec::new();
            for ix in 0..self.shard_count() as usize {
                if let Ok(KvResponse::Stat(s)) =
                    self.exec_on(ix, KvCommand::Stat { ks: ck.local[ix] })
                {
                    states.push(s.state);
                }
            }
            out.push(KeyspaceDesc {
                id: ck.id,
                name: ck.name,
                state: Self::agg_state(&states),
            });
        }
        Ok(KvResponse::Keyspaces(out))
    }

    fn do_bulk_put(
        &self,
        deadline_ns: Option<u64>,
        ck: &ClusterKeyspace,
        payload: kvcsd_proto::BulkPayload,
    ) -> Result<KvResponse, KvStatus> {
        let n = self.shard_count();
        let mut per_shard: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); n as usize];
        for (k, v) in payload.iter() {
            let ix = self.cfg.strategy.shard_for(k, n) as usize;
            per_shard[ix].push((k.to_vec(), v.to_vec()));
        }
        // Scatter to every covered shard concurrently — the write costs
        // the slowest shard's time — then gather counts (first error in
        // shard order wins).
        let covered: Vec<usize> = (0..n as usize)
            .filter(|&ix| !per_shard[ix].is_empty())
            .collect();
        let results = self.drive_concurrent(&covered, |ix| -> Result<u64, KvStatus> {
            let pairs = std::mem::take(&mut per_shard[ix]);
            let mut sent = 0u64;
            let mut b = kvcsd_proto::BulkBuilder::default_size();
            for (k, v) in &pairs {
                if !b.push(k, v) {
                    // Sub-message full: flush it and continue packing.
                    sent += self.send_bulk(deadline_ns, ix, ck.local[ix], b)?;
                    b = kvcsd_proto::BulkBuilder::default_size();
                    if !b.push(k, v) {
                        return Err(KvStatus::BadValue);
                    }
                }
            }
            sent += self.send_bulk(deadline_ns, ix, ck.local[ix], b)?;
            Ok(sent)
        });
        let mut inserted = 0u64;
        for sent in results {
            inserted += sent?;
        }
        Ok(KvResponse::BulkPutOk { inserted })
    }

    fn send_bulk(
        &self,
        deadline_ns: Option<u64>,
        ix: usize,
        local: u32,
        b: kvcsd_proto::BulkBuilder,
    ) -> Result<u64, KvStatus> {
        if b.is_empty() {
            return Ok(0);
        }
        match self.exec_on(
            ix,
            Self::wrap(
                deadline_ns,
                KvCommand::BulkPut {
                    ks: local,
                    payload: b.finish(),
                },
            ),
        )? {
            KvResponse::BulkPutOk { inserted } => Ok(inserted),
            other => Err(unexpected(&other)),
        }
    }

    /// Fan a job-starting command out to every shard, ship the sealed
    /// artifacts, and hand back one cluster-level job id.
    fn do_cluster_job(
        &self,
        deadline_ns: Option<u64>,
        ks: u32,
        kind: JobKind,
        make: impl Fn(u32) -> KvCommand,
        ship_after: bool,
    ) -> Result<KvResponse, KvStatus> {
        let ck = self.lookup(ks)?;
        for ix in 0..self.shard_count() as usize {
            match self.exec_on(ix, Self::wrap(deadline_ns, make(ck.local[ix]))) {
                Ok(KvResponse::JobStarted { .. }) => {
                    // The seal-time ship gates the ack: a client must
                    // never see this job as started-and-durable unless
                    // the sealed artifacts reached the replica log.
                    if ship_after {
                        self.ship_sealed(ix, &ck.name, ck.local[ix])?;
                    }
                }
                // The job-state poll is derived from keyspace states, so
                // treating an already-applied resend as started is safe
                // and idempotent.
                Ok(_) => {}
                Err(e) => match Self::classify_shard_error(&e) {
                    ShardErrorClass::AlreadyApplied => {}
                    ShardErrorClass::Failover
                    | ShardErrorClass::Transient
                    | ShardErrorClass::Permanent => return Err(e),
                },
            }
        }
        let mut routes = self.routes.lock();
        routes.next_job += 1;
        let id = routes.next_job;
        routes.jobs.insert(id, JobTarget { ks, kind });
        Ok(KvResponse::JobStarted { job: JobId(id) })
    }

    /// Compact every shard's slice of `ks`, building `specs` in the same
    /// pass; a plain COMPACT when there are none.
    fn do_compact(
        &self,
        deadline_ns: Option<u64>,
        ks: u32,
        specs: Vec<SecondaryIndexSpec>,
    ) -> Result<KvResponse, KvStatus> {
        self.remember_specs(ks, &specs);
        self.do_cluster_job(
            deadline_ns,
            ks,
            JobKind::Compact,
            move |local| match specs.is_empty() {
                true => KvCommand::Compact { ks: local },
                false => KvCommand::CompactAndIndex {
                    ks: local,
                    specs: specs.clone(),
                },
            },
            true,
        )
    }

    /// Record index specs not yet seen for `ks`, for merge ordering.
    fn remember_specs(&self, ks: u32, specs: &[SecondaryIndexSpec]) {
        let mut routes = self.routes.lock();
        if let Some(ck) = routes.keyspaces.get_mut(&ks) {
            for spec in specs {
                if !ck.specs.iter().any(|s| s.name == spec.name) {
                    ck.specs.push(spec.clone());
                }
            }
        }
    }

    /// Cluster jobs are polled by *deriving* progress from per-shard
    /// keyspace states instead of tracking per-device job ids — device
    /// job tables die with their primary, keyspace states survive
    /// promotion. Each poll also grants the fleet background time, so a
    /// polling client drives its own jobs to completion.
    fn do_poll(&self, job: u64) -> Result<KvResponse, KvStatus> {
        let target = self
            .routes
            .lock()
            .jobs
            .get(&job)
            .cloned()
            .ok_or(KvStatus::JobNotFound)?;
        self.run_background();
        let ck = self.lookup(target.ks)?;
        let mut worst: Option<KvStatus> = None;
        let mut running = false;
        let mut missing_index = false;
        let all: Vec<usize> = (0..self.shard_count() as usize).collect();
        let results = self.drive_concurrent(&all, |ix| {
            self.exec_on(ix, KvCommand::Stat { ks: ck.local[ix] })
        });
        for (ix, resp) in results.into_iter().enumerate() {
            let stat = match resp {
                Ok(KvResponse::Stat(s)) => s,
                Ok(other) => return Err(unexpected(&other)),
                Err(e) => match Self::classify_shard_error(&e) {
                    ShardErrorClass::Failover => return Err(e),
                    // A transiently overloaded shard has not failed the
                    // job — the next poll re-examines it.
                    ShardErrorClass::Transient => {
                        running = true;
                        continue;
                    }
                    ShardErrorClass::AlreadyApplied | ShardErrorClass::Permanent => {
                        worst = Some(e);
                        continue;
                    }
                },
            };
            match stat.state {
                KeyspaceState::Degraded => {
                    worst = Some(KvStatus::MediaError(format!(
                        "shard {ix}: compaction left keyspace degraded"
                    )));
                }
                KeyspaceState::ReadOnly => {
                    worst = Some(KvStatus::DeviceFull);
                }
                KeyspaceState::Compacting | KeyspaceState::Writable => running = true,
                KeyspaceState::Compacted | KeyspaceState::Empty => {
                    if let JobKind::Sidx(name) = &target.kind {
                        if stat.state == KeyspaceState::Compacted
                            && !stat.secondary_indexes.iter().any(|n| n == name)
                        {
                            missing_index = true;
                        }
                    }
                }
            }
        }
        let state = if let Some(e) = worst {
            JobState::Failed(e)
        } else if running || missing_index {
            JobState::Running
        } else {
            JobState::Done
        };
        Ok(KvResponse::Job { state })
    }

    fn do_scatter_entries(
        &self,
        ck: &ClusterKeyspace,
        shards: &[usize],
        make: impl Fn(u32) -> KvCommand,
    ) -> Result<Vec<Entries>, KvStatus> {
        // Every covering shard is driven concurrently (router time is
        // the slowest shard's); errors still surface in shard order.
        let results = self.drive_concurrent(shards, |ix| self.exec_on(ix, make(ck.local[ix])));
        let mut parts = Vec::with_capacity(results.len());
        for resp in results {
            match resp? {
                KvResponse::Entries(es) => parts.push(es),
                other => return Err(unexpected(&other)),
            }
        }
        Ok(parts)
    }

    fn do_stat(&self, ks: u32) -> Result<KvResponse, KvStatus> {
        let ck = self.lookup(ks)?;
        let mut states = Vec::new();
        let mut num_pairs = 0u64;
        let mut data_bytes = 0u64;
        let mut min_key: Option<Vec<u8>> = None;
        let mut max_key: Option<Vec<u8>> = None;
        let mut secondary: Vec<String> = Vec::new();
        let all: Vec<usize> = (0..self.shard_count() as usize).collect();
        let results = self.drive_concurrent(&all, |ix| {
            self.exec_on(ix, KvCommand::Stat { ks: ck.local[ix] })
        });
        for resp in results {
            let s = match resp? {
                KvResponse::Stat(s) => s,
                other => return Err(unexpected(&other)),
            };
            states.push(s.state);
            num_pairs += s.num_pairs;
            data_bytes += s.data_bytes;
            min_key = match (min_key, s.min_key) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            max_key = match (max_key, s.max_key) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            for n in s.secondary_indexes {
                if !secondary.contains(&n) {
                    secondary.push(n);
                }
            }
        }
        secondary.sort_unstable();
        Ok(KvResponse::Stat(KeyspaceStat {
            id: ck.id,
            name: ck.name.clone(),
            state: Self::agg_state(&states),
            num_pairs,
            min_key,
            max_key,
            secondary_indexes: secondary,
            data_bytes,
        }))
    }

    fn dispatch(&self, cmd: KvCommand) -> Result<KvResponse, KvStatus> {
        let (deadline_ns, cmd) = cmd.unwrap_deadline();
        let n = self.shard_count();
        match cmd {
            KvCommand::CreateKeyspace { name } => self.do_create(&name),
            KvCommand::OpenKeyspace { name } => self.do_open(&name),
            KvCommand::ListKeyspaces => self.do_list(),
            KvCommand::DeleteKeyspace { ks } => self.do_delete_ks(ks),
            KvCommand::Put { ks, key, value } => {
                let ck = self.lookup(ks)?;
                let ix = self.cfg.strategy.shard_for(&key, n) as usize;
                self.exec_on(
                    ix,
                    Self::wrap(
                        deadline_ns,
                        KvCommand::Put {
                            ks: ck.local[ix],
                            key,
                            value,
                        },
                    ),
                )
            }
            KvCommand::BulkPut { ks, payload } => {
                let ck = self.lookup(ks)?;
                self.do_bulk_put(deadline_ns, &ck, payload)
            }
            KvCommand::Flush { ks } => {
                let ck = self.lookup(ks)?;
                for ix in 0..n as usize {
                    self.exec_on(
                        ix,
                        Self::wrap(deadline_ns, KvCommand::Flush { ks: ck.local[ix] }),
                    )?;
                }
                Ok(KvResponse::Flushed)
            }
            KvCommand::Compact { ks } => self.do_compact(deadline_ns, ks, Vec::new()),
            KvCommand::CompactAndIndex { ks, specs } => self.do_compact(deadline_ns, ks, specs),
            KvCommand::BuildSecondaryIndex { ks, spec } => {
                self.remember_specs(ks, std::slice::from_ref(&spec));
                self.do_cluster_job(
                    deadline_ns,
                    ks,
                    JobKind::Sidx(spec.name.clone()),
                    move |local| KvCommand::BuildSecondaryIndex {
                        ks: local,
                        spec: spec.clone(),
                    },
                    false,
                )
            }
            KvCommand::PollJob { job } => self.do_poll(job.0),
            KvCommand::Get { ks, key } => {
                let ck = self.lookup(ks)?;
                let ix = self.cfg.strategy.shard_for(&key, n) as usize;
                self.exec_on(
                    ix,
                    Self::wrap(
                        deadline_ns,
                        KvCommand::Get {
                            ks: ck.local[ix],
                            key,
                        },
                    ),
                )
            }
            KvCommand::Range { ks, lo, hi, limit } => {
                let ck = self.lookup(ks)?;
                let shards = self.shards_for_range(&lo, &hi);
                let parts = self.do_scatter_entries(&ck, &shards, |local| {
                    Self::wrap(
                        deadline_ns,
                        KvCommand::Range {
                            ks: local,
                            lo: lo.clone(),
                            hi: hi.clone(),
                            limit,
                        },
                    )
                })?;
                Ok(KvResponse::Entries(Self::merge_entries(parts, limit)))
            }
            KvCommand::SidxGet { ks, index, key } => {
                let ck = self.lookup(ks)?;
                let shards: Vec<usize> = (0..n as usize).collect();
                let parts = self.do_scatter_entries(&ck, &shards, |local| {
                    Self::wrap(
                        deadline_ns,
                        KvCommand::SidxGet {
                            ks: local,
                            index: index.clone(),
                            key: key.clone(),
                        },
                    )
                })?;
                let spec = ck.specs.iter().find(|s| s.name == index);
                Ok(KvResponse::Entries(Self::merge_sidx_entries(
                    parts, spec, None,
                )))
            }
            KvCommand::SidxRange {
                ks,
                index,
                lo,
                hi,
                limit,
            } => {
                let ck = self.lookup(ks)?;
                // Secondary keys are unrelated to the primary sharding
                // axis, so a secondary range always scatters everywhere.
                let shards: Vec<usize> = (0..n as usize).collect();
                let parts = self.do_scatter_entries(&ck, &shards, |local| {
                    Self::wrap(
                        deadline_ns,
                        KvCommand::SidxRange {
                            ks: local,
                            index: index.clone(),
                            lo: lo.clone(),
                            hi: hi.clone(),
                            limit,
                        },
                    )
                })?;
                let spec = ck.specs.iter().find(|s| s.name == index);
                Ok(KvResponse::Entries(Self::merge_sidx_entries(
                    parts, spec, limit,
                )))
            }
            KvCommand::Stat { ks } => self.do_stat(ks),
            KvCommand::WithDeadline { .. } => {
                unreachable!("unwrap_deadline flattens nesting")
            }
        }
    }
}

fn unexpected(resp: &KvResponse) -> KvStatus {
    KvStatus::Internal(format!("unexpected shard response: {resp:?}"))
}

impl DeviceHandler for ClusterRouter {
    fn handle(&self, cmd: KvCommand) -> KvResponse {
        match self.dispatch(cmd) {
            Ok(resp) => resp,
            Err(e) => KvResponse::Err(e),
        }
    }
}

// Promoted devices are reachable through the router only; tests reach a
// shard's device directly to assert internals.
impl ClusterRouter {
    /// Test/inspection handle on shard `ix`'s current primary device.
    pub fn with_shard_device<R>(&self, ix: u32, f: impl FnOnce(&KvCsdDevice) -> R) -> R {
        let inst = self.shards[ix as usize].primary.read();
        f(inst.device())
    }

    /// The fault injector attached to shard `ix`'s current primary.
    /// Torture harness hook: lets a test cut power directly and watch the
    /// router discover the death on the next routed command.
    pub fn shard_injector(&self, ix: u32) -> Option<Arc<kvcsd_sim::FaultInjector>> {
        self.shards[ix as usize].primary.read().injector().cloned()
    }

    /// Cut power to shard `ix`'s primary at its next flash operation.
    /// Torture harness hook: deterministic alternative to probability
    /// plans when a test wants to kill a specific shard at a specific
    /// point.
    pub fn kill_shard(&self, ix: u32) {
        let st = &self.shards[ix as usize];
        let died = {
            let inst = st.primary.read();
            // A plan-driven injector may already have powered off; either
            // way the next command (or this call) observes the death.
            if let Some(inj) = inst.injector() {
                inj.power_off_now();
            }
            true
        };
        if died {
            self.failover(ix as usize, false);
        }
    }

    /// Whether shard `ix` currently holds a deposed (suspected, fenced)
    /// ex-primary.
    pub fn has_deposed(&self, ix: u32) -> bool {
        self.shards[ix as usize].deposed.lock().is_some()
    }

    /// Test/inspection handle on shard `ix`'s deposed ex-primary.
    pub fn with_deposed_device<R>(&self, ix: u32, f: impl FnOnce(&KvCsdDevice) -> R) -> Option<R> {
        let deposed = self.shards[ix as usize].deposed.lock();
        deposed.as_ref().map(|inst| f(inst.device()))
    }

    /// Execute one *local* command on shard `ix`'s deposed ex-primary —
    /// the split-brain probe. The command really executes (the deposed
    /// device is alive on the far side of the partition), but the ack is
    /// rejected at the epoch fence: at most one primary acks per epoch.
    pub fn exec_on_deposed(&self, ix: u32, cmd: KvCommand) -> Result<KvResponse, KvStatus> {
        let st = &self.shards[ix as usize];
        let deposed = st.deposed.lock();
        let inst = deposed
            .as_ref()
            .ok_or_else(|| KvStatus::Internal(format!("shard {}: no deposed primary", st.id)))?;
        let resp = inst.device().handle(cmd);
        if inst.epoch() != st.epoch.get() {
            return Err(KvStatus::EpochFenced { shard: st.id });
        }
        resp.into_result()
    }

    /// Have shard `ix`'s deposed ex-primary ship keyspace `name` to the
    /// replica log, stamped with its stale epoch. The receive fence must
    /// reject it — the companion probe to [`Self::exec_on_deposed`].
    pub fn ship_from_deposed(&self, ix: u32, name: &str) -> Result<ShipOutcome, ShipError> {
        let st = &self.shards[ix as usize];
        let (art, epoch) = {
            let deposed = st.deposed.lock();
            // kvcsd-check: allow(unwrap) -- torture-harness hook; calling it without a deposed primary is a test bug
            let inst = deposed.as_ref().expect("no deposed primary to ship from");
            let local = inst
                .device()
                .keyspaces()
                .list()
                .iter()
                .find(|(_, n, _)| n.as_str() == name)
                .map(|(id, _, _)| *id)
                // kvcsd-check: allow(unwrap) -- torture-harness hook; the test names a keyspace it created
                .expect("deposed primary does not hold this keyspace");
            let art = inst
                .device()
                .export_keyspace_artifacts(local)
                // kvcsd-check: allow(unwrap) -- torture-harness hook; the test sealed this keyspace before deposing
                .expect("deposed keyspace has nothing exportable");
            (art, inst.epoch())
        };
        st.replica.ship(name, art, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardStrategy;
    use kvcsd_proto::SecondaryKeyType;

    fn router(shards: u32) -> ClusterRouter {
        ClusterRouter::new(ClusterConfig {
            shards,
            ..ClusterConfig::default()
        })
    }

    fn ok(resp: KvResponse) -> KvResponse {
        match resp {
            KvResponse::Err(e) => panic!("unexpected error: {e}"),
            r => r,
        }
    }

    fn create(r: &ClusterRouter, name: &str) -> u32 {
        match ok(r.handle(KvCommand::CreateKeyspace { name: name.into() })) {
            KvResponse::Created { ks } => ks,
            r => panic!("{r:?}"),
        }
    }

    fn put(r: &ClusterRouter, ks: u32, k: &[u8], v: &[u8]) {
        ok(r.handle(KvCommand::Put {
            ks,
            key: k.to_vec(),
            value: v.to_vec(),
        }));
    }

    fn compact(r: &ClusterRouter, ks: u32) {
        let job = match ok(r.handle(KvCommand::Compact { ks })) {
            KvResponse::JobStarted { job } => job,
            r => panic!("{r:?}"),
        };
        for _ in 0..16 {
            match ok(r.handle(KvCommand::PollJob { job })) {
                KvResponse::Job {
                    state: JobState::Done,
                } => return,
                KvResponse::Job { .. } => {}
                r => panic!("{r:?}"),
            }
        }
        panic!("compaction did not finish");
    }

    /// The same busy metric `drive_concurrent` uses, reconstructed from
    /// the public accessors.
    fn busy(r: &ClusterRouter, ix: u32) -> u64 {
        let s = r.shard_ledger(ix).snapshot();
        r.shard_clock(ix).now_ns()
            + s.host_cpu_ns
            + s.soc_cpu_ns
            + s.bridge_busy_ns
            + s.max_channel_busy_ns()
            + r.replica_log(ix).clock().now_ns()
    }

    #[test]
    fn fan_out_charges_the_slowest_shard_not_the_sum() {
        let r = router(2);
        let ks = create(&r, "t");
        let b0 = [busy(&r, 0), busy(&r, 1)];
        let h0 = r.host_clock().now_ns();
        let mut b = kvcsd_proto::BulkBuilder::default_size();
        for i in 0..400u32 {
            assert!(b.push(format!("k{i:05}").as_bytes(), &[9u8; 32]));
        }
        ok(r.handle(KvCommand::BulkPut {
            ks,
            payload: b.finish(),
        }));
        let d = [busy(&r, 0) - b0[0], busy(&r, 1) - b0[1]];
        let h = r.host_clock().now_ns() - h0;
        assert!(d[0] > 0 && d[1] > 0, "both shards did work: {d:?}");
        assert_eq!(h, d[0].max(d[1]), "router time is the slowest shard's");
        assert!(h < d[0] + d[1], "fan-out must not serialize shard time");
    }

    #[test]
    fn puts_spread_across_shards_and_range_merges_in_key_order() {
        let r = router(3);
        let ks = create(&r, "orders");
        for i in 0..120u32 {
            let k = format!("k{i:05}");
            put(&r, ks, k.as_bytes(), &i.to_be_bytes());
        }
        compact(&r, ks);
        // Every shard must actually hold a slice of the keyspace.
        for ix in 0..3 {
            let pairs = r.with_shard_device(ix, |d| {
                d.keyspaces()
                    .list()
                    .iter()
                    .map(|(id, _, _)| *id)
                    .next()
                    .map(|id| d.keyspaces().with(id, |k| Ok(k.pairs)).unwrap())
                    .unwrap_or(0)
            });
            assert!(pairs > 0, "shard {ix} holds no keys");
        }
        let es = match ok(r.handle(KvCommand::Range {
            ks,
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            limit: None,
        })) {
            KvResponse::Entries(es) => es,
            r => panic!("{r:?}"),
        };
        assert_eq!(es.len(), 120);
        assert!(
            es.windows(2).all(|w| w[0].0 < w[1].0),
            "merged range must be strictly key-ordered"
        );
        let limited = match ok(r.handle(KvCommand::Range {
            ks,
            lo: Bound::Included(b"k00010".to_vec()),
            hi: Bound::Unbounded,
            limit: Some(7),
        })) {
            KvResponse::Entries(es) => es,
            r => panic!("{r:?}"),
        };
        let want: Vec<Vec<u8>> = (10..17).map(|i| format!("k{i:05}").into_bytes()).collect();
        assert_eq!(
            limited.iter().map(|e| e.0.clone()).collect::<Vec<_>>(),
            want
        );
    }

    #[test]
    fn sidx_query_scatter_gathers_in_secondary_key_order() {
        let r = router(3);
        let ks = create(&r, "sensors");
        // value = 4-byte BE reading; sidx over it. Readings descend as
        // keys ascend, so secondary order must differ from primary order.
        for i in 0..90u32 {
            let k = format!("s{i:05}");
            put(&r, ks, k.as_bytes(), &(1_000 - i).to_be_bytes());
        }
        let spec = SecondaryIndexSpec {
            name: "reading".into(),
            value_offset: 0,
            value_len: 4,
            key_type: SecondaryKeyType::U32,
        };
        let job = match ok(r.handle(KvCommand::CompactAndIndex {
            ks,
            specs: vec![spec],
        })) {
            KvResponse::JobStarted { job } => job,
            r => panic!("{r:?}"),
        };
        loop {
            match ok(r.handle(KvCommand::PollJob { job })) {
                KvResponse::Job {
                    state: JobState::Done,
                } => break,
                KvResponse::Job {
                    state: JobState::Failed(e),
                } => panic!("job failed: {e}"),
                _ => {}
            }
        }
        let es = match ok(r.handle(KvCommand::SidxRange {
            ks,
            index: "reading".into(),
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            limit: Some(10),
        })) {
            KvResponse::Entries(es) => es,
            r => panic!("{r:?}"),
        };
        assert_eq!(es.len(), 10);
        // Lowest readings first => highest key indices first.
        let want: Vec<Vec<u8>> = (0..10)
            .map(|i| format!("s{:05}", 89 - i).into_bytes())
            .collect();
        assert_eq!(es.iter().map(|e| e.0.clone()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn killed_primary_fails_over_and_acked_sealed_writes_survive() {
        let r = router(2);
        let ks = create(&r, "t");
        for i in 0..80u32 {
            let k = format!("k{i:04}");
            put(&r, ks, k.as_bytes(), &i.to_be_bytes());
        }
        compact(&r, ks);
        assert!(r.replica_depth(0) > 0, "seal must have shipped artifacts");
        r.kill_shard(0);
        assert_eq!(r.shard_health(0), ShardHealth::Healthy, "promotion done");
        let events = r.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].shard, 0);
        assert_eq!(events[0].generation, 1);
        assert!(events[0].replayed_artifacts >= 1);
        // Every sealed (compacted) write is still readable post-promotion.
        for i in 0..80u32 {
            let k = format!("k{i:04}");
            match ok(r.handle(KvCommand::Get {
                ks,
                key: k.as_bytes().to_vec(),
            })) {
                KvResponse::Value(v) => assert_eq!(v, i.to_be_bytes()),
                r => panic!("{r:?}"),
            }
        }
    }

    #[test]
    fn link_down_seal_deposes_the_primary_and_fences_its_acks() {
        // One shard, link partitioned from the first bus op: the
        // seal-time ship burns its retry budget, the router deposes the
        // primary on suspicion, and the deposed instance keeps executing
        // but never acks.
        let r = ClusterRouter::new(ClusterConfig {
            shards: 1,
            fault_plan: FaultPlan::none().with_partition_at(1, None),
            ..ClusterConfig::default()
        });
        let ks = create(&r, "t");
        put(&r, ks, b"k1", b"v1");
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
        assert_eq!(r.shard_epoch(0), 2);
        assert!(r.has_deposed(0));
        // The deposed ex-primary still executes, but the ack is fenced.
        let local = r
            .with_deposed_device(0, |d| {
                d.keyspaces()
                    .list()
                    .iter()
                    .find(|(_, n, _)| n == "t")
                    .map(|(id, _, _)| *id)
                    .unwrap()
            })
            .unwrap();
        let err = r
            .exec_on_deposed(
                0,
                KvCommand::Put {
                    ks: local,
                    key: b"k2".to_vec(),
                    value: b"v2".to_vec(),
                },
            )
            .unwrap_err();
        assert_eq!(err, KvStatus::EpochFenced { shard: 0 });
        // ...and after the partition heals, its ships are rejected at the
        // replica's receive fence.
        let fenced_before = r.replica_log(0).fenced();
        r.shard_link(0).heal_link_now();
        r.ship_from_deposed(0, "t").unwrap();
        assert_eq!(r.replica_log(0).fenced(), fenced_before + 1);
    }

    #[test]
    fn anti_entropy_reconcile_closes_the_gap_after_heal() {
        // Availability mode: the primary survives the partition with
        // unreplicated artifacts; reconcile() re-ships exactly the gap.
        let r = ClusterRouter::new(ClusterConfig {
            shards: 1,
            partition_failover: false,
            ..ClusterConfig::default()
        });
        let ks = create(&r, "t");
        for i in 0..30u32 {
            put(&r, ks, format!("k{i:03}").as_bytes(), &i.to_be_bytes());
        }
        r.shard_link(0).partition_now();
        let resp = r.handle(KvCommand::Compact { ks });
        assert!(
            matches!(resp, KvResponse::Err(KvStatus::TransientDeviceError(_))),
            "seal across a partition must bounce retryably: {resp:?}"
        );
        assert_eq!(r.events().len(), 0, "availability mode never deposes");
        assert_eq!(r.replica_depth(0), 0, "nothing crossed the partition");
        assert_eq!(r.reconcile(), 0, "reconcile skips partitioned links");
        r.shard_link(0).heal_link_now();
        assert_eq!(r.reconcile(), 1, "exactly the gap re-ships");
        assert_eq!(r.replica_depth(0), 1);
        // The retried compact now seals-and-ships cleanly.
        compact(&r, ks);
        assert_eq!(r.reconcile(), 0, "replica already converged");
    }

    #[test]
    fn unreplicated_cluster_reports_dead_shards_as_unavailable() {
        let r = ClusterRouter::new(ClusterConfig {
            shards: 2,
            replicate: false,
            ..ClusterConfig::default()
        });
        let ks = create(&r, "t");
        for i in 0..40u32 {
            let k = format!("k{i:04}");
            put(&r, ks, k.as_bytes(), b"v");
        }
        r.kill_shard(1);
        assert_eq!(r.shard_health(1), ShardHealth::Dead);
        // Keys on shard 0 still work; keys on shard 1 are unavailable.
        let (mut live, mut dead) = (0, 0);
        for i in 0..40u32 {
            let k = format!("k{i:04}");
            match r.handle(KvCommand::Get {
                ks,
                key: k.as_bytes().to_vec(),
            }) {
                KvResponse::Err(KvStatus::ShardUnavailable { shard: 1 }) => dead += 1,
                KvResponse::Err(KvStatus::KeyNotFound) | KvResponse::Err(_) => live += 1,
                _ => live += 1,
            }
        }
        assert!(dead > 0, "some keys must map to the dead shard");
        assert!(live > 0, "healthy shard must keep serving");
    }

    #[test]
    fn range_sharding_prunes_scatter_to_covering_shards() {
        let r = ClusterRouter::new(ClusterConfig {
            shards: 3,
            strategy: ShardStrategy::RangeKeys {
                boundaries: vec![b"h".to_vec(), b"q".to_vec()],
            },
            ..ClusterConfig::default()
        });
        let shards = r.shards_for_range(
            &Bound::Included(b"a".to_vec()),
            &Bound::Excluded(b"c".to_vec()),
        );
        assert_eq!(shards, vec![0]);
        let shards = r.shards_for_range(&Bound::Included(b"j".to_vec()), &Bound::Unbounded);
        assert_eq!(shards, vec![1, 2]);
        let all = r.shards_for_range(&Bound::Unbounded, &Bound::Unbounded);
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn stat_aggregates_across_the_fleet() {
        let r = router(3);
        let ks = create(&r, "agg");
        for i in 0..60u32 {
            let k = format!("k{i:04}");
            put(&r, ks, k.as_bytes(), b"value!");
        }
        compact(&r, ks);
        match ok(r.handle(KvCommand::Stat { ks })) {
            KvResponse::Stat(s) => {
                assert_eq!(s.num_pairs, 60);
                assert_eq!(s.state, KeyspaceState::Compacted);
                assert_eq!(s.min_key.as_deref(), Some(&b"k0000"[..]));
                assert_eq!(s.max_key.as_deref(), Some(&b"k0059"[..]));
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn pruned_range_queries_never_touch_non_covering_shards() {
        let r = ClusterRouter::new(ClusterConfig {
            shards: 2,
            strategy: ShardStrategy::RangeKeys {
                boundaries: vec![b"m".to_vec()],
            },
            ..ClusterConfig::default()
        });
        let ks = create(&r, "t");
        for i in 0..40u32 {
            put(&r, ks, format!("a{i:04}").as_bytes(), b"v");
            put(&r, ks, format!("z{i:04}").as_bytes(), b"v");
        }
        compact(&r, ks);
        let ranges_before = r.shard_ledger(1).custom("dev_ranges");
        let clock_before = r.shard_clock(1).now_ns();
        let es = match ok(r.handle(KvCommand::Range {
            ks,
            lo: Bound::Included(b"a".to_vec()),
            hi: Bound::Excluded(b"b".to_vec()),
            limit: None,
        })) {
            KvResponse::Entries(es) => es,
            r => panic!("{r:?}"),
        };
        assert_eq!(es.len(), 40);
        // Shard 1 covers [m, inf): the query must not have reached it, so
        // it can neither serve it nor charge stall time to it.
        assert_eq!(r.shard_ledger(1).custom("dev_ranges"), ranges_before);
        assert_eq!(r.shard_clock(1).now_ns(), clock_before);
    }
}
