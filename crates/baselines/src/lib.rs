//! Prior-work in-memory aggregation algorithms (§6.4, Figure 8).
//!
//! Re-implementations of the five competitors the paper measures, from the
//! algorithm descriptions of Cieslewicz & Ross and Ye et al.,
//! *with the paper's own tuning modifications applied*: output structures
//! at least cache-sized (eliminates collision handling for small K),
//! compact tuples (key + count, no padding), spin-free atomics instead of
//! system mutexes, and MurmurHash2 throughout.
//!
//! | algorithm | passes | intrinsic limit (§6.4) |
//! |---|---|---|
//! | [`Atomic`] | 1 | shared table exceeds Σ L3 |
//! | [`Hybrid`] | 1 | private tables exceed per-thread L3 |
//! | [`Independent`] | 2 | private tables exceed per-thread L3; merge exceeds it again |
//! | [`PartitionAndAggregate`] | 2 | 256 partitions only reach K ≈ 256 · cache |
//! | [`Plat`] | 2 | same 256-partition merge limit |
//!
//! Every algorithm has a **fixed number of passes**, which is the paper's
//! point: beyond its design range each one "is penalized by a high number
//! of cache misses", while the recursive operator in `hsa-core` degrades
//! gracefully. All five rely on an output-cardinality hint from the
//! optimizer (`k_hint`); the paper's operator needs none.
//!
//! The unit of work here is the paper's comparison query: a DISTINCT-style
//! grouping with an optional COUNT, over a `u64` key column.

#![forbid(unsafe_code)]

mod atomic;
mod hybrid;
mod independent;
mod partagg;
mod plat;

pub use atomic::Atomic;
pub use hybrid::Hybrid;
pub use independent::Independent;
pub use partagg::PartitionAndAggregate;
pub use plat::Plat;

/// Configuration shared by all baselines.
#[derive(Copy, Clone, Debug)]
pub struct BaselineConfig {
    /// Worker threads.
    pub threads: usize,
    /// Per-thread cache budget in bytes (sizes the private tables).
    pub cache_bytes: usize,
    /// Output-cardinality estimate from the "optimizer". The baselines
    /// size their shared/output structures from it — the prior-knowledge
    /// dependence §6.5 criticizes.
    pub k_hint: usize,
    /// Also maintain per-group row counts (false = pure DISTINCT, the
    /// paper's comparison setting where "virtually no updates occur").
    pub count: bool,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_bytes: 2 << 20,
            k_hint: 1 << 16,
            count: true,
        }
    }
}

/// Result of a baseline run: groups in unspecified order.
#[derive(Clone, Debug)]
pub struct BaselineOutput {
    /// Distinct keys.
    pub keys: Vec<u64>,
    /// Per-key row count, aligned with `keys`; only meaningful when the
    /// run was configured with `count: true`.
    pub counts: Vec<u64>,
}

impl BaselineOutput {
    /// `(key, count)` pairs sorted by key (test helper).
    pub fn sorted_pairs(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> =
            self.keys.iter().copied().zip(self.counts.iter().copied()).collect();
        v.sort_unstable_by_key(|(k, _)| *k);
        v
    }
}

/// A prior-work aggregation algorithm.
pub trait Baseline: Send + Sync {
    /// Name as used in Figure 8.
    fn name(&self) -> &'static str;

    /// Number of passes over the data (Figure 8 annotation).
    fn passes(&self) -> u32;

    /// Aggregate `keys` into distinct groups (+ counts).
    ///
    /// Keys must not be `u64::MAX` (used as the empty-slot sentinel, the
    /// compact-tuple trick from the paper's tuning).
    fn run(&self, keys: &[u64], cfg: &BaselineConfig) -> BaselineOutput;
}

/// All five baselines, in Figure 8 order.
pub fn all_baselines() -> Vec<Box<dyn Baseline>> {
    vec![
        Box::new(Hybrid),
        Box::new(Atomic),
        Box::new(Independent),
        Box::new(PartitionAndAggregate),
        Box::new(Plat),
    ]
}

/// Sentinel marking an empty slot in the open-addressing tables.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Table sizing per the paper's tuning: at least the cache size, at least
/// 2× the expected number of groups, power of two.
pub(crate) fn table_slots(cfg: &BaselineConfig, groups_hint: usize) -> usize {
    let cache_slots = cfg.cache_bytes / 16; // key + count
    (groups_hint * 2).max(cache_slots).max(16).next_power_of_two()
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::collections::BTreeMap;

    pub fn reference_counts(keys: &[u64]) -> BTreeMap<u64, u64> {
        let mut m = BTreeMap::new();
        for &k in keys {
            *m.entry(k).or_insert(0u64) += 1;
        }
        m
    }

    pub fn check(baseline: &dyn super::Baseline, keys: &[u64], cfg: &super::BaselineConfig) {
        let out = baseline.run(keys, cfg);
        let reference = reference_counts(keys);
        assert_eq!(out.keys.len(), reference.len(), "{}: group count", baseline.name());
        if cfg.count {
            let got: BTreeMap<u64, u64> = out.sorted_pairs().into_iter().collect();
            assert_eq!(got, reference, "{}", baseline.name());
        } else {
            let mut got = out.keys.clone();
            got.sort_unstable();
            let expect: Vec<u64> = reference.keys().copied().collect();
            assert_eq!(got, expect, "{}", baseline.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::check;

    fn keys(n: usize, k: u64, seed: u64) -> Vec<u64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) % k
            })
            .collect()
    }

    fn small_cfg() -> BaselineConfig {
        BaselineConfig { threads: 2, cache_bytes: 64 << 10, k_hint: 4096, count: true }
    }

    #[test]
    fn all_baselines_match_reference_small_k() {
        let data = keys(30_000, 500, 1);
        for b in all_baselines() {
            check(b.as_ref(), &data, &small_cfg());
        }
    }

    #[test]
    fn all_baselines_match_reference_large_k() {
        // More groups than the private tables hold.
        let data = keys(60_000, 40_000, 2);
        let cfg = BaselineConfig { k_hint: 40_000, ..small_cfg() };
        for b in all_baselines() {
            check(b.as_ref(), &data, &cfg);
        }
    }

    #[test]
    fn all_baselines_handle_underestimated_k_hint() {
        // The optimizer guessed 64 groups; the data has ~20000. Baselines
        // must stay correct (if slower) — they grow or spill as designed.
        let data = keys(40_000, 20_000, 3);
        let cfg = BaselineConfig { k_hint: 64, ..small_cfg() };
        for b in all_baselines() {
            check(b.as_ref(), &data, &cfg);
        }
    }

    #[test]
    fn all_baselines_distinct_mode() {
        let data = keys(20_000, 3_000, 4);
        let cfg = BaselineConfig { count: false, ..small_cfg() };
        for b in all_baselines() {
            check(b.as_ref(), &data, &cfg);
        }
    }

    #[test]
    fn all_baselines_single_thread() {
        let data = keys(20_000, 2_000, 5);
        let cfg = BaselineConfig { threads: 1, ..small_cfg() };
        for b in all_baselines() {
            check(b.as_ref(), &data, &cfg);
        }
    }

    #[test]
    fn all_baselines_heavy_skew() {
        // 90% one key — stresses ATOMIC contention and HYBRID eviction.
        let mut data = vec![7u64; 27_000];
        data.extend(keys(3_000, 10_000, 6));
        for b in all_baselines() {
            check(b.as_ref(), &data, &small_cfg());
        }
    }

    #[test]
    fn all_baselines_empty_and_tiny() {
        for b in all_baselines() {
            check(b.as_ref(), &[], &small_cfg());
            check(b.as_ref(), &[42], &small_cfg());
            check(b.as_ref(), &[1, 1, 1], &small_cfg());
        }
    }

    #[test]
    fn names_and_passes() {
        let expected = [
            ("HYBRID", 1),
            ("ATOMIC", 1),
            ("INDEPENDENT", 2),
            ("PARTITION-AND-AGGREGATE", 2),
            ("PLAT", 2),
        ];
        for (b, (name, passes)) in all_baselines().iter().zip(expected) {
            assert_eq!(b.name(), name);
            assert_eq!(b.passes(), passes);
        }
    }
}
