//! `mixed_replicated`: foreground writes, reads and compaction sharing a
//! replicated 2-shard cluster.
//!
//! Rolling epochs: each creates a keyspace and writes single PUTs with a
//! FLUSH every 32 (device WAL on, so a PUT is durable when that FLUSH
//! returns). Interleaved are GETs and RANGEs on the previous epoch's
//! compacted keyspace. The epoch ends by compacting its keyspace (seal,
//! ship to the replica, sort in one in-DRAM pass) and deleting the one
//! from two epochs back, so freed zones are reused. This is the one
//! workload that crosses the WAL, the router and the replication bus.

use kvcsd_cluster::ClusterConfig;
use kvcsd_core::DeviceConfig;
use kvcsd_proto::Bound;
use kvcsd_sim::XorShift64;

use crate::meter::{Meter, RoundReport};
use crate::oracle::Truth;
use crate::stack::{Interpose, Stack};
use crate::stats::{shuffle, sub_seed, Zipf};
use crate::{Result, WallTimer};

/// Epochs run before measuring, so the measured ones find a compacted
/// predecessor and reuse freed zones.
pub const WARM_EPOCHS: u32 = 2;

/// PUTs between FLUSHes.
pub const FLUSH_EVERY: usize = 32;

/// Rows a RANGE asks for.
pub const RANGE_LIMIT: u64 = 50;

/// Value sizes are drawn uniformly from this range (bytes).
pub const VALUE_BYTES: (u64, u64) = (64, 512);

/// Skew of the GET and RANGE targets.
pub const ZIPF_S: f64 = 0.99;

#[derive(Debug, Clone)]
pub struct MixedParams {
    pub epochs: u32,
    pub puts_per_epoch: u32,
    pub gets_per_epoch: u32,
    pub ranges_per_epoch: u32,
}

impl MixedParams {
    pub fn standard() -> Self {
        Self {
            epochs: 96,
            puts_per_epoch: 256,
            gets_per_epoch: 224,
            ranges_per_epoch: 48,
        }
    }
}

/// The cluster: 2 shards, replication on, device WAL on, clean link.
pub fn cluster_config() -> ClusterConfig {
    let base = ClusterConfig::default();
    ClusterConfig {
        shards: 2,
        replicate: true,
        device: DeviceConfig {
            wal: true,
            ..base.device.clone()
        },
        ..base
    }
}

enum Read {
    Get(usize),
    Range(usize),
}

/// One epoch's inputs: pairs in write order, and the reads issued after
/// each put (indices into the previous epoch's keys).
struct EpochScript {
    pairs: Vec<(Vec<u8>, Vec<u8>)>,
    reads_after: Vec<Vec<Read>>,
}

fn epoch_script(p: &MixedParams, seed: u64, epoch: u32) -> EpochScript {
    let mut rng = XorShift64::new(sub_seed(seed, 0xE0_0000 + epoch as u64));
    let n = p.puts_per_epoch as usize;
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
        .map(|i| {
            let key = format!("e{epoch:05}-{:016x}-{i:05}", rng.next_u64()).into_bytes();
            let (lo, hi) = VALUE_BYTES;
            let len = lo + rng.next_below(hi - lo + 1);
            let value = (0..len).map(|_| rng.next_u64() as u8).collect();
            (key, value)
        })
        .collect();
    shuffle(&mut pairs, &mut rng);
    let zipf = Zipf::new(p.puts_per_epoch, ZIPF_S, &mut rng);
    let mut reads: Vec<Read> = Vec::new();
    for _ in 0..p.gets_per_epoch {
        reads.push(Read::Get(zipf.sample(&mut rng) as usize));
    }
    for _ in 0..p.ranges_per_epoch {
        reads.push(Read::Range(zipf.sample(&mut rng) as usize));
    }
    shuffle(&mut reads, &mut rng);
    let mut reads_after: Vec<Vec<Read>> = (0..n).map(|_| Vec::new()).collect();
    for r in reads {
        reads_after[rng.next_below(n as u64) as usize].push(r);
    }
    EpochScript { pairs, reads_after }
}

/// A finished epoch whose keyspace serves reads.
struct Sealed {
    ks: kvcsd_client::Keyspace,
    truth: Truth,
    keys: Vec<Vec<u8>>,
}

fn run_epoch(
    m: &mut Meter<'_>,
    p: &MixedParams,
    seed: u64,
    epoch: u32,
    prev: Option<&Sealed>,
) -> Option<Sealed> {
    let script = epoch_script(p, seed, epoch);
    let name = format!("ep{epoch:05}");
    let client = &m.stack.client;
    let ks = match m.lone("admin", || client.create_keyspace(&name)).0 {
        Ok(ks) => ks,
        Err(e) => {
            m.fail(&format!("create {name}: {e}"));
            return None;
        }
    };
    let mut truth = Truth::default();
    let mut unflushed: Vec<u64> = Vec::new();
    let n = script.pairs.len();
    for (i, (k, v)) in script.pairs.iter().enumerate() {
        let start = m.now_ns;
        let (res, cost) = m.lone("put", || ks.put(k, v));
        if let Err(e) = res {
            m.fail(&format!("put: {e}"));
        }
        m.ingest_pairs += 1;
        m.ingest_ns += cost;
        truth.insert(k, v);
        unflushed.push(start);
        m.user_ops += 1;
        m.pairs_written += 1;
        m.user_bytes_written += (k.len() + v.len()) as u64;
        if let Some(prev) = prev {
            for r in &script.reads_after[i] {
                read(m, prev, r);
            }
        }
        if (i + 1) % FLUSH_EVERY == 0 || i + 1 == n {
            let (res, cost) = m.lone("flush", || ks.fsync());
            if let Err(e) = res {
                m.fail(&format!("flush: {e}"));
            }
            m.ingest_ns += cost;
            let done = m.now_ns;
            for start in unflushed.drain(..) {
                m.class("put").lat_ns.push(done - start);
                m.requests.push(done - start);
            }
        }
    }
    let c0 = m.now_ns;
    match m.lone("compact", || ks.compact()).0 {
        Ok(job) => {
            if m.await_job(&job) {
                m.queryable.push(m.now_ns - c0);
            }
        }
        Err(e) => m.fail(&format!("compact {name}: {e}")),
    }
    let keys = truth.keys();
    Some(Sealed { ks, truth, keys })
}

fn read(m: &mut Meter<'_>, prev: &Sealed, r: &Read) {
    let (class, cost, ok) = match r {
        Read::Get(i) => {
            let k = &prev.keys[*i];
            let (got, cost) = m.lone("get", || prev.ks.get(k));
            ("get", cost, got.is_ok_and(|v| prev.truth.check_get(k, &v)))
        }
        Read::Range(i) => {
            let lo = &prev.keys[*i];
            let (got, cost) = m.lone("range", || {
                prev.ks.range(
                    Bound::Included(lo.clone()),
                    Bound::Unbounded,
                    Some(RANGE_LIMIT),
                )
            });
            let ok = got.is_ok_and(|es| prev.truth.check_range(lo, RANGE_LIMIT as usize, &es));
            ("range", cost, ok)
        }
    };
    if !ok {
        m.fail(&format!("{class} returned a wrong result"));
    }
    m.class(class).lat_ns.push(cost);
    m.requests.push(cost);
    m.user_ops += 1;
}

fn retire(m: &mut Meter<'_>, old: Sealed) {
    if let Err(e) = m.lone("admin", || old.ks.delete()).0 {
        m.fail(&format!("delete: {e}"));
    }
}

pub fn run_round(
    p: &MixedParams,
    seed: u64,
    traced: bool,
    interpose: Option<&Interpose>,
) -> Result<RoundReport> {
    let setup = WallTimer::start();
    let stack = Stack::cluster(cluster_config(), traced, interpose);
    // Live epochs, oldest first: at most the previous two.
    let mut live: Vec<Sealed> = Vec::new();
    {
        let mut warm = Meter::new(&stack);
        for e in 0..WARM_EPOCHS {
            let next = run_epoch(&mut warm, p, seed, e, live.last());
            live.extend(next);
            if live.len() > 2 {
                retire(&mut warm, live.remove(0));
            }
        }
        if warm.failed > 0 {
            return Err(crate::BenchError(format!(
                "{} operations failed while warming up",
                warm.failed
            )));
        }
    }
    if let Some(t) = &stack.tracer {
        t.clear();
    }
    let setup_s = setup.elapsed_secs();

    let measured = WallTimer::start();
    let mut meter = Meter::new(&stack);
    for e in WARM_EPOCHS..WARM_EPOCHS + p.epochs {
        let next = run_epoch(&mut meter, p, seed, e, live.last());
        live.extend(next);
        if live.len() > 2 {
            retire(&mut meter, live.remove(0));
        }
    }
    let measured_s = measured.elapsed_secs();
    Ok(meter.finish(setup_s, measured_s))
}
