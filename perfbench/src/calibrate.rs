//! Host-speed calibration.
//!
//! A host with shared CPUs drifts in speed by tens of percent over
//! minutes. Host metrics are therefore reported in *reference seconds*:
//! each round's host seconds scaled by how fast a fixed calibration
//! kernel ran just before and just after that round, relative to
//! [`REFERENCE_KERNEL_S`]. The kernel does the kind of work the simulator
//! does: one part sorts a large array and fills a B-tree with small heap
//! values (allocation and memory traffic), the other sorts and inserts
//! within a cache-sized working set (comparison and pointer chasing).
//! It runs no program code, so a change to the program moves the scaled
//! numbers exactly as much as the raw ones.

use std::collections::BTreeMap;

use kvcsd_sim::XorShift64;

use crate::WallTimer;

/// The kernel's typical time on the reference host (2 vCPUs, x86-64,
/// the machine the committed bounds were measured on).
pub const REFERENCE_KERNEL_S: f64 = 0.0072;

fn memory_kernel() -> f64 {
    let t = WallTimer::start();
    let mut rng = XorShift64::new(0xCA1);
    let mut keys: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let mut tree = BTreeMap::new();
    for k in keys.iter().step_by(4) {
        tree.insert(*k, vec![*k as u8; 48]);
    }
    std::hint::black_box(tree.len());
    t.elapsed_secs()
}

fn cache_kernel() -> f64 {
    let t = WallTimer::start();
    let mut rng = XorShift64::new(0xCA2);
    let mut keys: Vec<u64> = vec![0; 16_384];
    let mut tree = BTreeMap::new();
    for _ in 0..8 {
        keys.iter_mut().for_each(|k| *k = rng.next_u64());
        keys.sort_unstable();
        for k in keys.iter().step_by(8) {
            tree.insert(*k, *k);
        }
    }
    std::hint::black_box(tree.len());
    t.elapsed_secs()
}

/// One calibration sample: the geometric mean of the two kernels'
/// mean times (three and five runs), in host seconds.
pub fn kernel_s() -> f64 {
    let memory = (0..3).map(|_| memory_kernel()).sum::<f64>() / 3.0;
    let cache = (0..5).map(|_| cache_kernel()).sum::<f64>() / 5.0;
    (memory * cache).sqrt()
}

/// Factor turning a round's host seconds into reference seconds, from
/// the kernel times sampled just before and just after the round.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    let here = (before_s * after_s).sqrt();
    if here > 0.0 {
        REFERENCE_KERNEL_S / here
    } else {
        1.0
    }
}

/// True for the units host times are reported in (as opposed to
/// virtual times and counts).
pub fn is_host_time(unit: &str) -> bool {
    matches!(unit, "s" | "us")
}
