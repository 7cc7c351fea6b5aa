//! Figure 3: payload bandwidth of the partitioning routine variants.
//!
//! Paper setup (§4.2): uniformly distributed random 64-bit keys, 256
//! partitions. Bars, in paper order:
//!
//! * `memcpy`  — non-temporal-store memcpy (bandwidth reference)
//! * `key`     — naive partitioning by key bits
//! * `hash`    — naive partitioning by hash bits
//! * `swc key` / `swc hash` — software write-combining
//! * `oo`      — swc hash + 16-way unrolled hashing
//! * `2lvl`    — oo with the two-level output (the paper's final kernel)
//! * `direct + 2lvl` — what the operator runs: oo's hash-ahead, each key
//!   stored straight into its partition's open chunk, no write-combining
//! * `map`     — applying the digit mapping to an aggregate column
//!
//! The paper's rungs are [`hsa_bench::ladder`]'s; the last two rows run
//! `hsa-partition`, the operator's crate.
//!
//! Paper result: swc ≈ 2.9× naive, oo +24% (3.0× total), two-level −2%,
//! final kernel ≈ 97% of memcpy bandwidth; map ≈ 93%. Why the production
//! row is not one of the paper's rungs: EXPERIMENTS.md, Figure 3.
//!
//! Every rung but `memcpy_nt` and `oo (overalloc)` cuts its output into
//! `ChunkedVec` chunks, which come from the process-wide chunk depot: after
//! the first such rung, and from the second repeat on, they may reuse
//! chunks given back earlier instead of fresh pages. Against allocator-fed
//! chunks (2^24 keys, 5 alternating runs each, 2-vCPU VM) the two-level
//! rungs did not move (`oo + 2lvl` read 0.89 of `oo (overalloc)` either
//! way); `naive hash` read 0.30 → 0.49 GiB/s, and as much with the depot
//! emptied before every rung, so not through chunk reuse
//! (`EXPERIMENTS_RESULTS/pr32_fig03.txt`).
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig03 [rows_log2]
//! ```

use hsa_bench::ladder::{self, FlushMode::*};
use hsa_bench::*;
use hsa_partition as part;

fn main() {
    let rows_log2: u32 = arg(1).unwrap_or(24);
    let n = 1usize << rows_log2;
    let repeats = repeats_for(n);
    let keys = random_keys(n, 42);
    let murmur = hsa_hash::Murmur2::default();
    let identity = hsa_hash::Identity;

    println!("# Figure 3: partitioning bandwidth, N = 2^{rows_log2} uniform random u64");
    println!("# paper: swc ≈ 2.9x naive-key, oo +24%, 2lvl -2%, final ≈ 97% of memcpy");
    row(&cells!["variant", "GiB/s", "vs memcpy"]);

    let mut dst = Vec::new();
    let (t_memcpy, _) = median_secs(repeats, || ladder::memcpy_nt(&mut dst, &keys));
    let memcpy_bw = bandwidth_gib_s(t_memcpy, n);
    row(&cells!["memcpy_nt", format!("{memcpy_bw:.2}"), "1.00"]);

    let report = |name: &str, secs: f64| {
        let bw = bandwidth_gib_s(secs, n);
        row(&cells![name, format!("{bw:.2}"), format!("{:.2}", bw / memcpy_bw)]);
    };

    let (t, _) =
        median_secs(repeats, || ladder::partition_naive(keys.iter().copied(), identity, 0));
    report("naive key", t);
    let (t, _) = median_secs(repeats, || ladder::partition_naive(keys.iter().copied(), murmur, 0));
    report("naive hash", t);
    let (t, _) = median_secs(repeats, || {
        ladder::partition_swc_with_mode(keys.iter().copied(), identity, 0, Cached)
    });
    report("swc key", t);
    let (t, _) = median_secs(repeats, || {
        ladder::partition_swc_with_mode(keys.iter().copied(), murmur, 0, Cached)
    });
    report("swc hash", t);
    let (t, _) = median_secs(repeats, || {
        ladder::partition_swc_with_mode(keys.iter().copied(), murmur, 0, Streaming)
    });
    report("swc hash (nt stores)", t);
    let (t, _) = median_secs(repeats, || ladder::partition_overalloc(&keys, murmur, 0));
    report("oo (overalloc)", t);
    let (t, _) =
        median_secs(repeats, || ladder::partition_unrolled_with_mode(&keys, murmur, 0, Cached));
    report("oo + 2lvl", t);
    let (t, _) =
        median_secs(repeats, || ladder::partition_unrolled_with_mode(&keys, murmur, 0, Streaming));
    report("oo + 2lvl (nt stores)", t);
    let (t, _) =
        median_secs(repeats, || part::partition_keys([keys.as_slice()].into_iter(), murmur, 0));
    report("direct + 2lvl (production)", t);

    let mut mapping = Vec::new();
    let parts = part::partition_keys_mapped([keys.as_slice()].into_iter(), murmur, 0, &mut mapping);
    assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), n);
    let vals = random_keys(n, 7);
    let (t, _) =
        median_secs(repeats, || part::scatter_by_digits(&mapping, [vals.as_slice()].into_iter()));
    report("map (aggregate column)", t);
}
