//! `vpic_dump`: the paper's Fig. 11 write path.
//!
//! Each timestep of a VPIC particle dump becomes one keyspace. Its
//! particles stream through the host write accelerator (staged,
//! key-sorted, pipelined bulk PUTs) and are flushed; then the keyspace is
//! compacted with its energy index built in the same device pass, and the
//! client waits until it is COMPACTED before the next timestep starts.
//! WAL off, the paper's production mode. A timestep is larger than the
//! device's SoC DRAM, so its sort is a multi-run external merge. No query
//! command is issued.

use kvcsd_proto::{SecondaryIndexSpec, SecondaryKeyType};
use kvcsd_sim::XorShift64;
use kvcsd_workloads::vpic::{VpicDump, ENERGY_OFFSET, PARTICLE_BYTES};

use crate::meter::{Meter, RoundReport};
use crate::stack::{Interpose, Stack};
use crate::stats::sub_seed;
use crate::{Result, WallTimer};

/// SoC DRAM of the device in `vpic_dump` and `vpic_query`: a standard
/// timestep is larger, so its compaction sort is a multi-run merge.
pub const SOC_DRAM_BYTES: u64 = 1 << 20;

/// Largest relative deviation of one timestep from the mean size.
pub const JITTER: f64 = 0.03;

/// Sizes of one round.
#[derive(Debug, Clone)]
pub struct DumpParams {
    pub timesteps: u32,
    /// Mean particles per timestep; the total is fixed, the split across
    /// timesteps follows the seed.
    pub mean_particles: u64,
}

impl DumpParams {
    pub fn standard() -> Self {
        Self {
            timesteps: 6,
            mean_particles: 32_768,
        }
    }

    pub fn total_particles(&self) -> u64 {
        self.mean_particles * self.timesteps as u64
    }
}

/// The energy index built at compaction.
pub fn energy_spec() -> SecondaryIndexSpec {
    SecondaryIndexSpec {
        name: ENERGY_INDEX.into(),
        value_offset: ENERGY_OFFSET,
        value_len: 4,
        key_type: SecondaryKeyType::F32,
    }
}

pub const ENERGY_INDEX: &str = "energy";

/// Particle counts per timestep: they sum to the fixed total, and each
/// deviates from the mean by at most [`JITTER`].
pub fn timestep_sizes(p: &DumpParams, seed: u64) -> Vec<u64> {
    let mut rng = XorShift64::new(sub_seed(seed, 0xD1));
    let w: Vec<f64> = (0..p.timesteps)
        .map(|_| 1.0 + JITTER * (2.0 * rng.next_f64() - 1.0))
        .collect();
    let sum: f64 = w.iter().sum();
    let total = p.total_particles();
    let mut sizes: Vec<u64> = w
        .iter()
        .map(|x| (x / sum * total as f64).floor() as u64)
        .collect();
    let short = total - sizes.iter().sum::<u64>();
    if let Some(last) = sizes.last_mut() {
        *last += short;
    }
    sizes
}

/// One timestep's particles as (id, payload) pairs.
pub fn timestep_pairs(n: u64, seed: u64, t: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
    let dump = VpicDump::new(n, 1, sub_seed(seed, 0x7500 + t as u64));
    dump.shard(0)
        .map(|p| (p.id.to_vec(), p.payload()))
        .collect()
}

/// Generate the inputs, set up a device, then dump every timestep.
/// Set-up time covers the device only, not input generation.
pub fn run_round(
    p: &DumpParams,
    seed: u64,
    traced: bool,
    interpose: Option<&Interpose>,
) -> Result<RoundReport> {
    let inputs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = timestep_sizes(p, seed)
        .iter()
        .enumerate()
        .map(|(t, &n)| timestep_pairs(n, seed, t as u32))
        .collect();
    let setup = WallTimer::start();
    let capacity = p.total_particles() * PARTICLE_BYTES as u64;
    let stack = Stack::device(capacity, SOC_DRAM_BYTES, p.timesteps, traced, interpose);
    let setup_s = setup.elapsed_secs();

    let measured = WallTimer::start();
    let mut meter = Meter::new(&stack);
    for (t, pairs) in inputs.iter().enumerate() {
        let name = format!("ts{t:04}");
        let ks = match meter
            .lone("admin", || stack.client.create_keyspace(&name))
            .0
        {
            Ok(ks) => ks,
            Err(e) => {
                meter.fail(&format!("create {name}: {e}"));
                continue;
            }
        };
        let t0 = meter.now_ns;
        let n = pairs.len() as u64;
        let ((put_errs, flushed), ingest_ns) = meter.stream("put", n + 1, |s| {
            let accel = ks.write_accelerator();
            let errs = pairs
                .iter()
                .filter(|(k, v)| s.traced("put", || accel.put(k, v)).is_err())
                .count() as u64;
            (errs, s.traced("flush", || accel.flush()))
        });
        for _ in 0..put_errs {
            meter.fail("accelerated put");
        }
        match flushed {
            Ok(acked) if acked == n => {}
            Ok(acked) => meter.fail(&format!("{name}: {acked} of {n} pairs acked")),
            Err(e) => meter.fail(&format!("{name} flush: {e}")),
        }
        meter.ingest_pairs += n;
        meter.ingest_ns += ingest_ns;
        meter.pairs_written += n;
        meter.user_bytes_written += n * PARTICLE_BYTES as u64;
        meter.user_ops += n;

        let c0 = meter.now_ns;
        match meter
            .lone("compact", || ks.compact_with_indexes(vec![energy_spec()]))
            .0
        {
            Ok(job) => {
                if meter.await_job(&job) {
                    meter.queryable.push(meter.now_ns - c0);
                }
            }
            Err(e) => meter.fail(&format!("{name} compact: {e}")),
        }
        meter.requests.push(meter.now_ns - t0);
    }
    let measured_s = measured.elapsed_secs();
    Ok(meter.finish(setup_s, measured_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestep_sizes_keep_the_total_and_follow_the_seed() {
        let p = DumpParams::standard();
        let a = timestep_sizes(&p, 1);
        let b = timestep_sizes(&p, 2);
        assert_eq!(a.iter().sum::<u64>(), p.total_particles());
        assert_eq!(b.iter().sum::<u64>(), p.total_particles());
        assert_ne!(a, b);
        let lo = (p.mean_particles as f64 * (1.0 - JITTER) * 0.9) as u64;
        assert!(a.iter().all(|&n| n >= lo));
    }
}
