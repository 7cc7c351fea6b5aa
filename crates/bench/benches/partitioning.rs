//! Microbenchmarks for §4.2: the Figure 3 partitioning ladder at a
//! cache-friendly size (`cargo bench --bench partitioning`; the `fig03`
//! binary covers the full-size memory-bound measurement).
//!
//! Plain `harness = false` timing: median of repeats, GiB/s on stdout.

use hsa_bench::{bandwidth_gib_s, median_secs, random_keys};
use hsa_partition::{
    memcpy_nt, partition_keys, partition_naive, partition_swc_with_mode,
    partition_unrolled_with_mode, FlushMode,
};
use std::hint::black_box;

const REPEATS: usize = 5;

fn main() {
    let data = random_keys(1 << 20, 42);
    let n = data.len();
    let murmur = hsa_hash::Murmur2::default();
    let identity = hsa_hash::Identity;

    let report = |name: &str, secs: f64| {
        println!("partition_2^20/{name:<16} {:6.2} GiB/s", bandwidth_gib_s(secs, n));
    };

    let mut dst = Vec::new();
    let (t, _) = median_secs(REPEATS, || {
        memcpy_nt(&mut dst, black_box(&data));
        black_box(&dst);
    });
    report("memcpy_nt", t);

    let (t, _) =
        median_secs(REPEATS, || black_box(partition_naive(data.iter().copied(), identity, 0)));
    report("naive_key", t);

    let (t, _) =
        median_secs(REPEATS, || black_box(partition_naive(data.iter().copied(), murmur, 0)));
    report("naive_hash", t);

    let (t, _) = median_secs(REPEATS, || {
        black_box(partition_swc_with_mode(data.iter().copied(), murmur, 0, FlushMode::Cached))
    });
    report("swc_cached", t);

    let (t, _) = median_secs(REPEATS, || {
        black_box(partition_swc_with_mode(data.iter().copied(), murmur, 0, FlushMode::Streaming))
    });
    report("swc_streaming", t);

    let (t, _) = median_secs(REPEATS, || {
        black_box(partition_unrolled_with_mode(&data, murmur, 0, FlushMode::Cached))
    });
    report("unrolled_cached", t);

    // What the operator runs: hash-ahead, direct appends, no lines.
    let (t, _) = median_secs(REPEATS, || {
        black_box(partition_keys([black_box(data.as_slice())].into_iter(), murmur, 0))
    });
    report("direct", t);
}
