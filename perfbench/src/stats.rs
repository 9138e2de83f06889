//! Small statistics and input-generation helpers.

use kvcsd_sim::XorShift64;

pub use kvcsd_sim::stats::nearest_rank;

/// `a / b`, or 0 when `b` is 0 (a class the workload never issues).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `xs` (mean of the middle pair for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Derive an independent stream seed from the run seed and a tag.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) | 1
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(xs: &mut [T], rng: &mut XorShift64) {
    for i in (1..xs.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

/// Zipf(s) over `n` items. Rank 0 is the hottest; a seeded permutation
/// maps ranks to items so hot items are spread over the key space.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<u32>,
}

impl Zipf {
    pub fn new(n: u32, s: f64, rng: &mut XorShift64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut items: Vec<u32> = (0..n.max(1)).collect();
        shuffle(&mut items, rng);
        Self { cdf, items }
    }

    /// Draw one item index.
    pub fn sample(&self, rng: &mut XorShift64) -> u32 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.items[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_its_hottest_item() {
        let mut rng = XorShift64::new(7);
        let z = Zipf::new(1000, 0.99, &mut rng);
        let mut hits = vec![0u32; 1000];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        let max = *hits.iter().max().unwrap_or(&0);
        assert!(max > 1_000, "hottest item drew {max} of 20000");
        assert!(hits.iter().filter(|&&h| h > 0).count() > 300);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
