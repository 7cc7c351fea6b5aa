//! Synthetic grouping-key data sets (§6.5).
//!
//! Re-implements the data generators of Cieslewicz & Ross that the paper
//! uses for its skew-resistance experiments: for any combination of `N`
//! (rows) and `K` (target number of groups) they produce keys with the
//! distributions **uniform**, **sequential**, **sorted**, **heavy-hitter**,
//! **moving-cluster**, **self-similar** (80–20 Pareto) and **zipf**
//! (exponent 0.5). As the paper notes, skewed data cannot hit `K = N`
//! exactly, so `K` is a target that skewed generators only approximate.
//!
//! ```
//! use hsa_datagen::{generate, Distribution};
//! let keys = generate(Distribution::HeavyHitter, 10_000, 64, 42);
//! assert_eq!(keys.len(), 10_000);
//! // Half of all rows carry the heavy key 1.
//! let heavy = keys.iter().filter(|&&k| k == 1).count();
//! assert!((4000..6000).contains(&heavy));
//! ```

#![forbid(unsafe_code)]

mod prng;
mod zipf;

pub use prng::{SplitMix64, Xoshiro256StarStar};
pub use zipf::Zipf;

/// Width of the moving-cluster sliding window (Cieslewicz & Ross use 1024).
pub const CLUSTER_WINDOW: u64 = 1024;

/// The §6.5 key distributions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Keys uniform in `[0, K)`.
    Uniform,
    /// Round-robin `i mod K` — dense, perfectly unclustered, zero skew.
    Sequential,
    /// Uniform keys, then sorted: maximal locality.
    Sorted,
    /// 50% of rows carry key 1; the rest are uniform in `[2, K]`.
    HeavyHitter,
    /// Keys uniform within a window of [`CLUSTER_WINDOW`] keys that slides
    /// across `[0, K)` as generation progresses.
    MovingCluster,
    /// Pareto 80–20: 80% of rows fall on the first 20% of keys, recursively.
    SelfSimilar,
    /// Zipf with exponent 0.5 over `[1, K]`.
    Zipf,
}

impl Distribution {
    /// All distributions, in the order Figure 9 plots them.
    pub fn all() -> [Distribution; 7] {
        [
            Distribution::HeavyHitter,
            Distribution::MovingCluster,
            Distribution::SelfSimilar,
            Distribution::Sorted,
            Distribution::Uniform,
            Distribution::Zipf,
            Distribution::Sequential,
        ]
    }

    /// Name as used in the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Sequential => "sequential",
            Distribution::Sorted => "sorted",
            Distribution::HeavyHitter => "heavy-hitter",
            Distribution::MovingCluster => "moving-cluster",
            Distribution::SelfSimilar => "self-similar",
            Distribution::Zipf => "zipf",
        }
    }
}

/// Generate `n` grouping keys targeting `k ≥ 1` distinct values.
pub fn generate(dist: Distribution, n: usize, k: u64, seed: u64) -> Vec<u64> {
    assert!(k >= 1, "need at least one group");
    let mut rng = Xoshiro256StarStar::new(seed ^ 0x5eed_0000_0000_0000);
    match dist {
        Distribution::Uniform => (0..n).map(|_| rng.below(k)).collect(),
        Distribution::Sequential => (0..n).map(|i| i as u64 % k).collect(),
        Distribution::Sorted => {
            let mut keys: Vec<u64> = (0..n).map(|_| rng.below(k)).collect();
            keys.sort_unstable();
            keys
        }
        Distribution::HeavyHitter => (0..n)
            .map(|_| {
                if rng.next_u64() & 1 == 0 {
                    1
                } else if k > 1 {
                    2 + rng.below(k - 1)
                } else {
                    1
                }
            })
            .collect(),
        Distribution::MovingCluster => {
            if k <= CLUSTER_WINDOW {
                return generate(Distribution::Uniform, n, k, seed);
            }
            let span = k - CLUSTER_WINDOW;
            (0..n)
                .map(|i| {
                    // Window start slides linearly over the key domain.
                    let lo = (i as u128 * span as u128 / n.max(1) as u128) as u64;
                    lo + rng.below(CLUSTER_WINDOW)
                })
                .collect()
        }
        Distribution::SelfSimilar => {
            // Gray et al.: 1 + ⌊K · u^(ln h / ln(1−h))⌋ with h = 0.2 puts
            // (1−h) of the weight on the first h·K keys.
            let exponent = 0.2f64.ln() / 0.8f64.ln();
            (0..n)
                .map(|_| {
                    let v = (k as f64 * rng.next_f64().powf(exponent)) as u64;
                    1 + v.min(k - 1)
                })
                .collect()
        }
        Distribution::Zipf => {
            let z = Zipf::new(k, 0.5);
            (0..n).map(|_| z.sample(&mut rng)).collect()
        }
    }
}

/// Generate an aggregate value column: uniform values in `[0, 1000)` so
/// that sums stay far from overflow at any tested `N`.
pub fn generate_values(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::new(seed ^ 0x0a11_ce00_0000_0000);
    (0..n).map(|_| rng.below(1000)).collect()
}

/// Count distinct keys (test/report helper).
pub fn distinct(keys: &[u64]) -> usize {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 100_000;
    const K: u64 = 4096;

    #[test]
    fn all_distributions_produce_n_rows_and_reasonable_k() {
        for dist in Distribution::all() {
            let keys = generate(dist, N, K, 7);
            assert_eq!(keys.len(), N, "{dist:?}");
            let d = distinct(&keys);
            assert!(d > 0 && d <= K as usize + 1, "{dist:?}: {d} distinct");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for dist in Distribution::all() {
            assert_eq!(generate(dist, 1000, 64, 5), generate(dist, 1000, 64, 5), "{dist:?}");
        }
        assert_ne!(
            generate(Distribution::Uniform, 1000, 64, 5),
            generate(Distribution::Uniform, 1000, 64, 6)
        );
    }

    #[test]
    fn uniform_hits_most_groups() {
        let keys = generate(Distribution::Uniform, N, K, 1);
        assert!(distinct(&keys) as f64 > K as f64 * 0.95);
        assert!(keys.iter().all(|&k| k < K));
    }

    #[test]
    fn sequential_is_exact_round_robin() {
        let keys = generate(Distribution::Sequential, 10, 3, 0);
        assert_eq!(keys, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn sorted_is_sorted_with_uniform_content() {
        let keys = generate(Distribution::Sorted, N, K, 2);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        assert!(distinct(&keys) as f64 > K as f64 * 0.95);
    }

    #[test]
    fn heavy_hitter_is_half_ones() {
        let keys = generate(Distribution::HeavyHitter, N, K, 3);
        let heavy = keys.iter().filter(|&&k| k == 1).count() as f64 / N as f64;
        assert!((0.48..0.52).contains(&heavy), "heavy fraction {heavy}");
        assert!(keys.iter().all(|&k| (1..=K).contains(&k)));
    }

    #[test]
    fn heavy_hitter_k1_degenerates() {
        let keys = generate(Distribution::HeavyHitter, 1000, 1, 3);
        assert!(keys.iter().all(|&k| k == 1));
    }

    #[test]
    fn moving_cluster_keys_stay_in_window() {
        let k = 1 << 16;
        let keys = generate(Distribution::MovingCluster, N, k, 4);
        let span = k - CLUSTER_WINDOW;
        for (i, &key) in keys.iter().enumerate() {
            let lo = (i as u128 * span as u128 / N as u128) as u64;
            assert!(
                (lo..lo + CLUSTER_WINDOW).contains(&key),
                "row {i}: key {key} outside window [{lo}, {})",
                lo + CLUSTER_WINDOW
            );
        }
    }

    #[test]
    fn moving_cluster_small_k_is_uniform() {
        let keys = generate(Distribution::MovingCluster, 1000, 100, 4);
        assert!(keys.iter().all(|&k| k < 100));
    }

    #[test]
    fn self_similar_80_20() {
        let keys = generate(Distribution::SelfSimilar, N, K, 5);
        let cutoff = 1 + K / 5; // first 20% of keys
        let head = keys.iter().filter(|&&k| k <= cutoff).count() as f64 / N as f64;
        assert!((0.75..0.85).contains(&head), "head mass {head}");
        assert!(keys.iter().all(|&k| (1..=K).contains(&k)));
    }

    #[test]
    fn zipf_head_heavier_than_tail() {
        let keys = generate(Distribution::Zipf, N, K, 6);
        let first = keys.iter().filter(|&&k| k == 1).count();
        let last = keys.iter().filter(|&&k| k == K).count();
        assert!(first > last, "P(1)={first} P(K)={last}");
        assert!(keys.iter().all(|&k| (1..=K).contains(&k)));
    }

    #[test]
    fn values_are_bounded() {
        let vals = generate_values(10_000, 9);
        assert_eq!(vals.len(), 10_000);
        assert!(vals.iter().all(|&v| v < 1000));
    }
}
