//! Figure 1: cache-line transfers of the textbook algorithms (§2).
//!
//! Analytic part: the paper's exact setting — `N = 2³²`, `M = 2¹⁶`,
//! `B = 16` — swept over K. The claim to check: `SORTAGG_OPT` and
//! `HASHAGG_OPT` coincide everywhere, naive `HASHAGG` explodes past
//! `K = M`, naive `SORTAGG` pays full sorting depth even for small K.
//!
//! Empirical part: the same algorithms instrumented against the
//! set-associative LRU cache simulator at a laptop-feasible scale,
//! validating that the formulas predict measured transfers.
//!
//! ```sh
//! cargo run --release -p hsa-bench --bin fig01
//! ```

use hsa_bench::*;
use hsa_xmem::model::{hash_agg, hash_agg_opt, sort_agg, sort_agg_opt, ModelParams};
use hsa_xmem::traced::{traced_hash_aggregation, traced_sort_aggregation};
use hsa_xmem::CacheSim;

fn main() {
    let p = ModelParams::FIGURE1;
    let n: u64 = 1 << 32;

    println!("# Figure 1 (analytic): cache-line transfers, N=2^32, M=2^16, B=16");
    row(&cells!["log2(K)", "SORTAGG", "SORTAGG_OPT", "HASHAGG", "HASHAGG_OPT"]);
    for e in (0..=32).step_by(2) {
        let k = 1u64 << e;
        row(&cells![
            e,
            sort_agg(p, n, k),
            sort_agg_opt(p, n, k),
            hash_agg(p, n, k),
            hash_agg_opt(p, n, k),
        ]);
    }

    // Empirical validation at simulator scale: 32 KiB fully associative
    // LRU cache, 64 B lines → M = 4096 rows, B = 8 rows. The simulated
    // bucket sort uses fan-out 16 (one hot output line per partition keeps
    // the working set ≪ cache), so the model is evaluated with the same
    // fan-out; the simulated hash table is provisioned at 2 slots per
    // group, so its effective in-cache group capacity is M/2.
    let sim_n = 200_000usize;
    let sp = ModelParams { m: 4096, b: 8 };
    let hash_p = ModelParams { m: 2048, b: 8 };
    println!("\n# Figure 1 (simulated): N=2*10^5, 32 KiB LRU cache, 64 B lines");
    row(&cells![
        "log2(K)",
        "sim SORT",
        "model SORT (fanout 16)",
        "sim HASH",
        "model HASH (M_eff=2^11)",
    ]);
    for e in [4u32, 8, 10, 12, 14, 16] {
        let k = 1u64 << e;
        let keys: Vec<u64> = {
            let mut s = 0x1234_5678u64;
            (0..sim_n)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (s >> 33) % k
                })
                .collect()
        };
        let cache = || CacheSim::fully_associative(32 * 1024, 64);
        let sort = traced_sort_aggregation(cache(), &keys, 16, 2048);
        let hash = traced_hash_aggregation(cache(), &keys, (k * 2).next_power_of_two());
        assert_eq!(sort.groups, hash.groups);
        row(&cells![
            e,
            sort.stats.transfers(),
            hsa_xmem::model::sort_agg_with_fanout(sp, sim_n as u64, k, 16),
            hash.stats.transfers(),
            hash_agg(hash_p, sim_n as u64, k),
        ]);
    }
    println!("# shapes to check: HASH explodes once K exceeds the (effective) cache;");
    println!("# SORT grows by whole passes and never explodes.");
}
