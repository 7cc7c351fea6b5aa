//! Ablation: the two hot-loop kernel paths (scalar reference vs batched).
//!
//! Isolates the two kernels the operator's `HASHING` pass spends its time
//! in and measures both paths of each directly:
//!
//! * **probe** — hash a key and find its slot in the cache-sized table:
//!   `scalar` is the row-at-a-time `insert_key` walk, `batched` hashes 16
//!   keys ahead and prefetches their home slots before resolving.
//! * **fold** — apply a mapped value column into the slot-indexed state
//!   column: `scalar` is the reference loop, `batched` adds lookahead
//!   prefetching of the destination slots.
//!
//! `speedup` is scalar ÷ batched.
//!
//! The table is sized to hold K groups at 25% fill, so small K stays cache
//! resident and K ≥ 2²⁰ is genuinely out of cache — the regime the
//! prefetch pipeline exists for. Tables are pre-warmed: every timed probe
//! is a hit, so the numbers are pure hash+probe without seal management.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin ablation_kernels [rows_log2]
//! ```

use hsa_bench::*;
use hsa_datagen::{generate, Distribution};
use hsa_hash::{Hasher64, Murmur2, FANOUT};
use hsa_hashtbl::{AggTable, TableConfig};
use hsa_kernels::{fold_mapped, FoldOp, KernelKind};
use std::hint::black_box;

const KINDS: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Batched];

/// Slots for K groups at 25% fill with headroom, so the warm table never
/// reports `Full` (capacity = slots/4 = 2K > K).
fn slots_for(k: u64) -> usize {
    ((8 * k).next_power_of_two() as usize).max(2 * FANOUT)
}

fn probe(keys: &[u64], table: &mut AggTable, kind: KernelKind) -> u64 {
    let b = table.insert_batch_distinct(Murmur2::default(), keys, kind);
    assert!(!b.full, "table sized to never fill");
    b.consumed as u64
}

fn main() {
    let mut out = Sidecar::from_args("ablation_kernels");
    let rows_log2: u32 = arg(1).unwrap_or(23);
    let n = 1usize << rows_log2;
    let repeats = repeats_for(n).min(5);

    println!("# Ablation: kernel paths (probe + fold), uniform, N = 2^{rows_log2}, 1 thread");
    out.header(&cells![
        "log2(K)",
        "probe scalar ns",
        "probe batched ns",
        "probe speedup",
        "fold scalar ns",
        "fold batched ns",
        "fold speedup",
    ]);

    for k in [1u64 << 12, 1 << 16, 1 << 20, 1 << 21] {
        let keys = generate(Distribution::Uniform, n, k, 42);
        let slots = slots_for(k);

        // ---- probe: warm the table, then every probe is a hit.
        let probe_ns = KINDS.map(|kind| {
            let mut table =
                AggTable::new(TableConfig { total_slots: slots, fill_percent: 25 }, 0, &[]);
            probe(&keys, &mut table, kind);
            let (secs, hits) = median_secs(repeats, || probe(black_box(&keys), &mut table, kind));
            assert_eq!(hits, n as u64);
            element_time_ns(secs, 1, n, 1)
        });

        // ---- fold: sum a value column into slot-indexed state.
        let mapping: Vec<u32> = keys
            .iter()
            .map(|&key| (Murmur2::default().hash_u64(key) % slots as u64) as u32)
            .collect();
        let vals: Vec<u64> = (0..n as u64).collect();
        let mut col = vec![0u64; slots];
        let fold_ns = KINDS.map(|kind| {
            let (secs, ()) = median_secs(repeats, || {
                fold_mapped(kind, FoldOp::Sum, false, black_box(&mut col), &mapping, &vals)
            });
            element_time_ns(secs, 1, n, 1)
        });
        black_box(&col);

        out.row(&cells![
            k.ilog2(),
            format!("{:.2}", probe_ns[0]),
            format!("{:.2}", probe_ns[1]),
            format!("{:.2}", probe_ns[0] / probe_ns[1]),
            format!("{:.2}", fold_ns[0]),
            format!("{:.2}", fold_ns[1]),
            format!("{:.2}", fold_ns[0] / fold_ns[1]),
        ]);
    }
}
