//! Output checking: a cheap order-independent digest for every query and a
//! `BTreeMap` oracle the last query of a run is compared against row by
//! row.

use std::collections::{BTreeMap, BTreeSet};

/// Group count plus an order-independent checksum over `(key, count, sum)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub groups: u64,
    pub checksum: u64,
}

fn mix(key: u64, count: u64, sum: u64) -> u64 {
    // One multiply-xorshift round per field, so that swapping a count
    // between two groups or moving a unit of sum changes the digest.
    let mut h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 32) ^ count).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 29) ^ sum).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 32)
}

/// Digest of a result given as parallel columns.
pub fn digest(keys: &[u64], counts: &[u64], sums: &[u64]) -> Digest {
    assert!(keys.len() == counts.len() && keys.len() == sums.len(), "ragged result columns");
    let mut checksum = 0u64;
    for i in 0..keys.len() {
        checksum = checksum.wrapping_add(mix(keys[i], counts[i], sums[i]));
    }
    Digest { groups: keys.len() as u64, checksum }
}

impl Digest {
    /// Hold a query's digest against the digest all queries of a client
    /// must share (they run on one input); the first one sets it.
    pub fn hold(self, expected: &mut Option<Digest>) -> Result<(), String> {
        match *expected {
            Some(want) if want != self => {
                Err(format!("digest {self:?} differs from the first query's {want:?}"))
            }
            _ => {
                *expected = Some(self);
                Ok(())
            }
        }
    }
}

/// The reference result: `key → (COUNT(*), SUM(v))`.
pub struct Oracle {
    groups: BTreeMap<u64, (u64, u64)>,
}

impl Oracle {
    pub fn build(keys: &[u64], vals: &[u64]) -> Self {
        let mut groups = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(vals) {
            let e = groups.entry(k).or_insert((0u64, 0u64));
            e.0 += 1;
            e.1 += v;
        }
        Self { groups }
    }

    pub fn digest(&self) -> Digest {
        let mut checksum = 0u64;
        for (&k, &(c, s)) in &self.groups {
            checksum = checksum.wrapping_add(mix(k, c, s));
        }
        Digest { groups: self.groups.len() as u64, checksum }
    }

    /// Compare a result row by row; `Err` names the first difference.
    pub fn compare(&self, keys: &[u64], counts: &[u64], sums: &[u64]) -> Result<(), String> {
        if keys.len() != self.groups.len() {
            return Err(format!("{} groups, oracle has {}", keys.len(), self.groups.len()));
        }
        let mut seen = BTreeSet::new();
        for i in 0..keys.len() {
            if !seen.insert(keys[i]) {
                return Err(format!("key {} appears twice", keys[i]));
            }
            match self.groups.get(&keys[i]) {
                Some(&(c, s)) if c == counts[i] && s == sums[i] => {}
                Some(&(c, s)) => {
                    return Err(format!(
                        "key {}: got (count {}, sum {}), oracle has (count {c}, sum {s})",
                        keys[i], counts[i], sums[i]
                    ));
                }
                None => return Err(format!("key {} is not in the input", keys[i])),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashing_is_sorting::datagen::{generate, generate_values, Distribution};
    use hashing_is_sorting::{aggregate, AggSpec, AggregateConfig};

    #[test]
    fn operator_output_agrees_with_oracle_and_one_corrupt_group_is_rejected() {
        let keys = generate(Distribution::Uniform, 1000, 64, 7);
        let vals = generate_values(1000, 7);
        let oracle = Oracle::build(&keys, &vals);
        let (out, _) = aggregate(
            &keys,
            &[&vals],
            &[AggSpec::count(), AggSpec::sum(0)],
            &AggregateConfig::default().single_threaded(),
        );
        let counts = out.column_u64(0).unwrap();
        let mut sums = out.column_u64(1).unwrap();
        assert_eq!(digest(&out.keys, &counts, &sums), oracle.digest());
        oracle.compare(&out.keys, &counts, &sums).unwrap();

        sums[3] += 1;
        assert_ne!(digest(&out.keys, &counts, &sums), oracle.digest());
        let err = oracle.compare(&out.keys, &counts, &sums).unwrap_err();
        assert!(err.contains(&format!("key {}", out.keys[3])), "{err}");
    }

    #[test]
    fn digest_ignores_order_but_not_swapped_states() {
        let a = digest(&[1, 2], &[10, 20], &[5, 6]);
        assert_eq!(a, digest(&[2, 1], &[20, 10], &[6, 5]));
        assert_ne!(a, digest(&[1, 2], &[20, 10], &[5, 6]));
        assert_ne!(a, digest(&[1, 2], &[10, 20], &[6, 5]));
    }

    #[test]
    fn missing_and_duplicate_groups_are_named() {
        let oracle = Oracle::build(&[1, 2, 2], &[1, 1, 1]);
        assert!(oracle.compare(&[1], &[1], &[1]).unwrap_err().contains("1 groups"));
        assert!(oracle.compare(&[1, 1], &[1, 1], &[1, 1]).unwrap_err().contains("twice"));
        assert!(oracle.compare(&[1, 3], &[1, 2], &[1, 2]).unwrap_err().contains("not in"));
    }
}
