//! `vpic_query`: the paper's Fig. 12 read path over a compacted dump.
//!
//! Setup preloads and compacts a VPIC dump (energy index included). The
//! measured phase is read-only: Zipf(0.99) GETs by particle id, RANGEs of
//! 50 rows starting at a Zipf-drawn particle, and energy-threshold
//! secondary-index queries at 0.1-1% selectivity. No program, erase or
//! job runs, so a write-path change must leave every number here alone.

use kvcsd_proto::{Bound, JobState, SidxKey};
use kvcsd_sim::XorShift64;
use kvcsd_workloads::vpic::PARTICLE_BYTES;

use crate::dump::{energy_spec, timestep_pairs, ENERGY_INDEX, SOC_DRAM_BYTES};
use crate::meter::{Meter, RoundReport};
use crate::oracle::Truth;
use crate::stack::{Interpose, Stack};
use crate::stats::{shuffle, sub_seed, Zipf};
use crate::{BenchError, Result, WallTimer};

/// Rows a RANGE asks for.
pub const RANGE_LIMIT: u64 = 50;

/// Skew of the GET and RANGE targets.
pub const ZIPF_S: f64 = 0.99;

/// Secondary-index selectivity is drawn uniformly from this range.
pub const SELECTIVITY: (f64, f64) = (0.001, 0.01);

#[derive(Debug, Clone)]
pub struct QueryParams {
    /// Timesteps (keyspaces) preloaded.
    pub timesteps: u32,
    pub particles_per_timestep: u64,
    pub gets: u32,
    pub ranges: u32,
    pub sidx: u32,
}

impl QueryParams {
    pub fn standard() -> Self {
        Self {
            timesteps: 4,
            particles_per_timestep: 32_768,
            gets: 16_000,
            ranges: 3_000,
            sidx: 1_000,
        }
    }
}

enum Query {
    Get { ks: usize, key: usize },
    Range { ks: usize, key: usize },
    Sidx { ks: usize, threshold: f32 },
}

/// The op stream: exact class counts, order and targets from the seed.
fn script(p: &QueryParams, seed: u64) -> Vec<Query> {
    let mut rng = XorShift64::new(sub_seed(seed, 0x9E));
    let per = p.particles_per_timestep as u32;
    let universe = per * p.timesteps;
    let zipf = Zipf::new(universe, ZIPF_S, &mut rng);
    let mut kinds: Vec<u8> = std::iter::repeat_n(0u8, p.gets as usize)
        .chain(std::iter::repeat_n(1u8, p.ranges as usize))
        .chain(std::iter::repeat_n(2u8, p.sidx as usize))
        .collect();
    shuffle(&mut kinds, &mut rng);
    kinds
        .into_iter()
        .map(|kind| {
            let item = zipf.sample(&mut rng);
            let (ks, key) = ((item / per) as usize, (item % per) as usize);
            match kind {
                0 => Query::Get { ks, key },
                1 => Query::Range { ks, key },
                _ => {
                    let (lo, hi) = SELECTIVITY;
                    let sel = lo + (hi - lo) * rng.next_f64();
                    Query::Sidx {
                        ks: rng.next_below(p.timesteps as u64) as usize,
                        threshold: (-sel.ln()) as f32,
                    }
                }
            }
        })
        .collect()
}

pub fn run_round(
    p: &QueryParams,
    seed: u64,
    traced: bool,
    interpose: Option<&Interpose>,
) -> Result<RoundReport> {
    let inputs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = (0..p.timesteps)
        .map(|t| timestep_pairs(p.particles_per_timestep, seed, t))
        .collect();
    let truths: Vec<Truth> = inputs
        .iter()
        .map(|pairs| {
            let mut truth = Truth::default();
            for (k, v) in pairs {
                truth.insert(k, v);
            }
            truth.index_energy();
            truth
        })
        .collect();
    let keys: Vec<Vec<Vec<u8>>> = truths.iter().map(Truth::keys).collect();
    let queries = script(p, seed);

    // Set-up time covers the device and the preload, not input generation.
    let setup = WallTimer::start();
    let capacity = p.particles_per_timestep * p.timesteps as u64 * PARTICLE_BYTES as u64;
    let stack = Stack::device(capacity, SOC_DRAM_BYTES, p.timesteps, traced, interpose);
    let mut spaces = Vec::new();
    for (t, pairs) in inputs.iter().enumerate() {
        let ks = stack.client.create_keyspace(&format!("ts{t:04}"))?;
        let accel = ks.write_accelerator();
        for (k, v) in pairs {
            accel.put(k, v)?;
        }
        accel.flush()?;
        let job = ks.compact_with_indexes(vec![energy_spec()])?;
        stack.run_jobs();
        match job.poll()? {
            JobState::Done => {}
            other => return Err(BenchError(format!("timestep {t} compaction: {other:?}"))),
        }
        spaces.push(ks);
    }
    if let Some(t) = &stack.tracer {
        t.clear();
    }
    let setup_s = setup.elapsed_secs();

    let measured = WallTimer::start();
    let mut meter = Meter::new(&stack);
    let limit = RANGE_LIMIT;
    for q in &queries {
        let (class, cost, rows, ok) = match q {
            Query::Get { ks, key } => {
                let k = &keys[*ks][*key];
                let (got, cost) = meter.lone("get", || spaces[*ks].get(k));
                let ok = got.as_ref().is_ok_and(|v| truths[*ks].check_get(k, v));
                ("get", cost, 1, ok)
            }
            Query::Range { ks, key } => {
                let lo = &keys[*ks][*key];
                let (got, cost) = meter.lone("range", || {
                    spaces[*ks].range(Bound::Included(lo.clone()), Bound::Unbounded, Some(limit))
                });
                let rows = got.as_ref().map(Vec::len).unwrap_or(0) as u64;
                let ok = got
                    .as_ref()
                    .is_ok_and(|es| truths[*ks].check_range(lo, limit as usize, es));
                ("range", cost, rows, ok)
            }
            Query::Sidx { ks, threshold } => {
                let lo = Bound::Excluded(SidxKey::F32(*threshold).encode());
                let (got, cost) = meter.lone("sidx", || {
                    spaces[*ks].sidx_range(ENERGY_INDEX, lo.clone(), Bound::Unbounded, None)
                });
                let rows = got.as_ref().map(Vec::len).unwrap_or(0) as u64;
                let ok = got.as_ref().is_ok_and(|es| truths[*ks].check_sidx(&lo, es));
                ("sidx", cost, rows, ok)
            }
        };
        if !ok {
            meter.fail(&format!("{class} returned a wrong result"));
        }
        let acc = meter.class(class);
        acc.rows += rows;
        acc.lat_ns.push(cost);
        meter.requests.push(cost);
        meter.user_ops += 1;
    }
    let measured_s = measured.elapsed_secs();
    Ok(meter.finish(setup_s, measured_s))
}
