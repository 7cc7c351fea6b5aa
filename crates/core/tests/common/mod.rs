//! The workload and the scratch-directory check shared by the spill
//! sweeps (`chaos.rs`, `faults.rs`).

use hsa_hash::{digit, Hasher64, Murmur2};
use std::path::Path;

const ROWS: u64 = 20_000;
/// Keys carrying almost all rows; few, so a seal emits few digit runs and
/// an ordinal sweep over every spill write and restore stays affordable.
const HOT_KEYS: u64 = 48;
/// Extra keys that all share one level-0 hash digit. The 64 KiB table of
/// the sweeps gives a digit 8 slots, so the ninth of these overflows its
/// block and the table reports full.
const CROWD_KEYS: usize = 16;

/// `(keys, vals)` whose table seals once *mid-input*: the crowd arrives in
/// the last rows, the overflowing block forces a seal into the level-1
/// buckets, and the rows after it leave a second, leftover table. A run
/// whose budget denies seal reservations therefore has to spill both — a
/// workload that merely fits one table would be emitted without a seal.
pub fn mid_input_seal_workload() -> (Vec<u64>, Vec<u64>) {
    let mut keys: Vec<u64> = (0..ROWS).map(|i| i.wrapping_mul(2654435761) % HOT_KEYS).collect();
    let hasher = Murmur2::default();
    let crowd = (HOT_KEYS..).filter(|&k| digit(hasher.hash_u64(k), 0) == 0).take(CROWD_KEYS);
    let burst_at = keys.len() - 4 * CROWD_KEYS;
    for (slot, key) in keys[burst_at..].iter_mut().step_by(2).zip(crowd) {
        *slot = key;
    }
    (keys, (0..ROWS).collect())
}

/// The query's `FileStore` has dropped by now, retiring its liveness lock,
/// so a correct run leaves literally nothing behind.
pub fn assert_dir_empty(dir: &Path) {
    let leftover: Vec<String> = std::fs::read_dir(dir)
        .map(|d| d.flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect())
        .unwrap_or_default();
    assert!(leftover.is_empty(), "scratch files leaked: {leftover:?}");
}
