//! Microbenchmarks for §4.1: hash-function cost and in-cache hash-table
//! insertion cost (`cargo bench --bench hashing`).
//!
//! Paper claims to check: MurmurHash2 on 8-byte keys costs little over
//! the identity "hash", and the tuned table inserts below ~6 ns per
//! element while working in cache (the paper's 2.4 GHz Westmere; scale
//! accordingly).
//!
//! Plain `harness = false` timing: median of repeats over a fixed
//! iteration count, ns/element on stdout.

use hsa_bench::{median_secs, random_keys};
use hsa_hash::{Hasher64, Identity, Murmur2};
use hsa_hashtbl::{AggTable, Insert, TableConfig};
use std::hint::black_box;

const REPEATS: usize = 9;

fn bench_hash<H: Hasher64 + Copy>(name: &str, h: H, data: &[u64]) {
    let (secs, acc) = median_secs(REPEATS, || {
        let mut acc = 0u64;
        for _ in 0..8 {
            for &k in data {
                acc ^= h.hash_u64(black_box(k));
            }
        }
        acc
    });
    black_box(acc);
    let per = secs * 1e9 / (data.len() * 8) as f64;
    println!("hash_u64/{name:<16} {per:6.2} ns/el");
}

fn bench_hash_functions() {
    let data = random_keys(1 << 14, 42);
    bench_hash("murmur2", Murmur2::default(), &data);
    bench_hash("identity", Identity, &data);
}

fn bench_table_insert() {
    // In-cache table: 2^16 slots (512 KiB of keys), 25% fill = 16 Ki groups.
    let cfg = TableConfig { total_slots: 1 << 16, fill_percent: 25 };
    let h = Murmur2::default();
    // 8 Ki distinct keys (half the fill limit) repeated twice: half
    // inserts, half hits, never Full.
    let mut data = random_keys(1 << 13, 42);
    let copy = data.clone();
    data.extend(copy);

    let (secs, _) = median_secs(REPEATS, || {
        let mut t = AggTable::new(cfg, 0, &[]);
        for &k in &data {
            match t.insert_key(k, h.hash_u64(k)) {
                Insert::Full => unreachable!("sized for the data"),
                other => {
                    black_box(&other);
                }
            }
        }
        t
    });
    let per = secs * 1e9 / data.len() as f64;
    println!("agg_table/insert_in_cache {per:6.2} ns/el (paper: <6 ns at 2.4 GHz)");
}

fn main() {
    bench_hash_functions();
    bench_table_insert();
}
