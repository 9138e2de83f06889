//! Ground truth kept by the generator, and the checks every query result
//! must pass. A failed check counts as a failed operation.

use std::collections::BTreeMap;

use kvcsd_proto::{Bound, SidxKey};
use kvcsd_workloads::vpic::ENERGY_OFFSET;

type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// Every pair written to one keyspace, plus (for VPIC keyspaces) the
/// energy index sorted by encoded secondary key.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    pairs: BTreeMap<Vec<u8>, Vec<u8>>,
    energy: Vec<(Vec<u8>, Vec<u8>)>,
}

fn energy_key(value: &[u8]) -> Option<Vec<u8>> {
    let raw: [u8; 4] = value
        .get(ENERGY_OFFSET..ENERGY_OFFSET + 4)?
        .try_into()
        .ok()?;
    Some(SidxKey::F32(f32::from_le_bytes(raw)).encode())
}

impl Truth {
    pub fn insert(&mut self, key: &[u8], value: &[u8]) {
        self.pairs.insert(key.to_vec(), value.to_vec());
    }

    /// Build the energy index over the pairs inserted so far.
    pub fn index_energy(&mut self) {
        let mut idx: Vec<(Vec<u8>, Vec<u8>)> = self
            .pairs
            .iter()
            .filter_map(|(k, v)| energy_key(v).map(|e| (e, k.clone())))
            .collect();
        idx.sort();
        self.energy = idx;
    }

    /// Keys in key order.
    pub fn keys(&self) -> Vec<Vec<u8>> {
        self.pairs.keys().cloned().collect()
    }

    /// A GET returned `got` for `key`.
    pub fn check_get(&self, key: &[u8], got: &[u8]) -> bool {
        self.pairs.get(key).is_some_and(|v| v.as_slice() == got)
    }

    /// A RANGE `[lo, ∞)` with `limit` returned `got`: exactly the first
    /// `limit` pairs at or above `lo`, in key order, values intact.
    pub fn check_range(&self, lo: &[u8], limit: usize, got: &Rows) -> bool {
        let want = self
            .pairs
            .range(lo.to_vec()..)
            .take(limit)
            .map(|(k, v)| (k.as_slice(), v.as_slice()));
        got.len() == want.clone().count()
            && got
                .iter()
                .map(|(k, v)| (k.as_slice(), v.as_slice()))
                .eq(want)
    }

    /// A secondary-index query `energy > threshold` returned `got`: the
    /// same hit set as the ground truth, every record intact, in
    /// secondary-key order.
    pub fn check_sidx(&self, lo: &Bound, got: &Rows) -> bool {
        let start = match lo {
            Bound::Excluded(t) => self.energy.partition_point(|(e, _)| e <= t),
            Bound::Included(t) => self.energy.partition_point(|(e, _)| e < t),
            Bound::Unbounded => 0,
        };
        let want = &self.energy[start..];
        if got.len() != want.len() {
            return false;
        }
        let mut prev: Option<Vec<u8>> = None;
        let mut got_keys: Vec<&[u8]> = Vec::with_capacity(got.len());
        for (k, v) in got {
            if !self.check_get(k, v) {
                return false;
            }
            let Some(e) = energy_key(v) else {
                return false;
            };
            if prev.as_ref().is_some_and(|p| p > &e) {
                return false;
            }
            prev = Some(e);
            got_keys.push(k);
        }
        got_keys.sort_unstable();
        let mut want_keys: Vec<&[u8]> = want.iter().map(|(_, k)| k.as_slice()).collect();
        want_keys.sort_unstable();
        got_keys == want_keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(energy: f32) -> Vec<u8> {
        let mut v = vec![0u8; 32];
        v[ENERGY_OFFSET..].copy_from_slice(&energy.to_le_bytes());
        v
    }

    fn truth() -> Truth {
        let mut t = Truth::default();
        for (i, e) in [(1u8, 0.5f32), (2, 3.0), (3, 1.5), (4, 2.5)] {
            t.insert(&[i], &value(e));
        }
        t.index_energy();
        t
    }

    #[test]
    fn range_checks_rows_order_and_limit() {
        let t = truth();
        let good = vec![(vec![2u8], value(3.0)), (vec![3u8], value(1.5))];
        assert!(t.check_range(&[2], 2, &good));
        let reversed = vec![good[1].clone(), good[0].clone()];
        assert!(!t.check_range(&[2], 2, &reversed));
        assert!(!t.check_range(&[2], 3, &good), "limit not reached");
        assert!(!t.check_range(&[1], 2, &good), "wrong lower bound");
    }

    #[test]
    fn sidx_checks_hit_set_and_order() {
        let t = truth();
        let lo = Bound::Excluded(SidxKey::F32(1.0).encode());
        let good = vec![
            (vec![3u8], value(1.5)),
            (vec![4u8], value(2.5)),
            (vec![2u8], value(3.0)),
        ];
        assert!(t.check_sidx(&lo, &good));
        assert!(!t.check_sidx(&lo, &good[..2].to_vec()), "missing hit");
        let mut unordered = good.clone();
        unordered.swap(0, 2);
        assert!(!t.check_sidx(&lo, &unordered));
        let mut corrupt = good;
        corrupt[0].1[0] ^= 1;
        assert!(!t.check_sidx(&lo, &corrupt));
    }
}
