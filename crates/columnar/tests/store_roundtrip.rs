//! Property test: `FileStore` write→read is the identity on every run
//! shape `Run::check_consistent` accepts.
//!
//! The spill file format has no self-describing framing, so the only thing
//! standing between a spilled run and silent corruption is this invariant:
//! for any row count (including extent-boundary counts), any number of
//! state columns (including zero), any flag combination, and any key values
//! (including 0 and `u64::MAX`), reading a spill file back yields exactly
//! the run that was written.

use hsa_columnar::{Run, RunHandle, RunStore, SpillConfig, EXTENT_WORDS};
use hsa_fault::{DiskBudget, FaultInjector};
use std::path::{Path, PathBuf};

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hsa-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A default-configured store: no faults, no disk limit.
fn open_store(dir: &Path) -> RunStore {
    let (faults, disk) = (FaultInjector::none(), DiskBudget::unlimited());
    RunStore::spilling_with_config(dir, faults, disk, SpillConfig::default()).unwrap()
}

/// Spill one run as a batch of its own.
fn spill(store: &RunStore, run: Run) -> RunHandle {
    store.spill_batch(vec![run]).unwrap().pop().unwrap()
}

fn build_run(rng: &mut Rng, rows: usize, n_cols: usize, aggregated: bool, level: u32) -> Run {
    let mut run = Run::empty(level, n_cols, aggregated);
    for i in 0..rows {
        // First and last rows pin the extreme values; the rest are random.
        let key = match i {
            0 => 0,
            _ if i == rows - 1 => u64::MAX,
            _ => rng.next(),
        };
        run.keys.push(key);
        for col in run.cols.iter_mut() {
            col.push(rng.next());
        }
    }
    run.source_rows = rng.next();
    run
}

#[test]
fn every_accepted_run_shape_round_trips() {
    let dir = temp_dir("shapes");
    let store = open_store(&dir);
    let mut rng = Rng(0x0dd_ba11);

    // Row counts straddle the extent boundary on both sides (8192 words
    // natively; Miri runs against a shrunken extent so the same lattice
    // stays affordable under interpretation).
    let row_counts = [
        0usize,
        1,
        2,
        5,
        100,
        EXTENT_WORDS - 1,
        EXTENT_WORDS,
        EXTENT_WORDS + 1,
        EXTENT_WORDS * 2 + 5,
    ];
    #[cfg(not(miri))]
    let (col_counts, levels) = ([0usize, 1, 2, 5], [0u32, 3, 8]);
    #[cfg(miri)]
    let (col_counts, levels) = ([0usize, 2], [0u32, 3]);
    for &rows in &row_counts {
        for n_cols in col_counts {
            for aggregated in [false, true] {
                for level in levels {
                    let run = build_run(&mut rng, rows, n_cols, aggregated, level);
                    assert!(run.check_consistent().is_ok());
                    let handle = spill(&store, run.clone());
                    assert_eq!(handle.len(), rows);
                    assert_eq!(handle.n_cols(), n_cols);
                    assert_eq!(handle.aggregated(), aggregated);
                    assert_eq!(handle.level(), level);
                    assert_eq!(handle.source_rows(), run.source_rows);
                    let back = handle.into_run().unwrap();
                    let tag = format!("rows {rows} cols {n_cols} agg {aggregated} lvl {level}");
                    assert_eq!(back.keys, run.keys, "{tag}");
                    assert_eq!(back.cols, run.cols, "{tag}");
                    assert_eq!(back.aggregated, run.aggregated, "{tag}");
                    assert_eq!(back.source_rows, run.source_rows, "{tag}");
                    assert_eq!(back.level, run.level, "{tag}");
                    assert!(back.check_consistent().is_ok(), "{tag}");
                }
            }
        }
    }

    // Restores consume the scratch files: only the store's liveness
    // lock is left, and that retires with the store.
    let lingering = std::fs::read_dir(&dir)
        .map(|d| {
            d.flatten()
                .filter(|e| e.file_name().to_str().is_none_or(|n| !n.ends_with(".lock")))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(lingering, 0, "a consumed run's file must be unlinked");
    drop(store);
    let leftover = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftover, 0, "dropping the store retires its lock");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_spills_do_not_collide() {
    let dir = temp_dir("concurrent");
    let store = open_store(&dir);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let store = &store;
            scope.spawn(move || {
                // Fewer, smaller runs under Miri: same interleaving, a
                // fraction of the interpreted I/O.
                let (iters, max_rows) = if cfg!(miri) { (4, 50) } else { (16, 500) };
                let mut rng = Rng(t + 1);
                for _ in 0..iters {
                    let rows = (rng.next() % max_rows) as usize;
                    let run = build_run(&mut rng, rows, 2, false, 1);
                    let back = spill(store, run.clone()).into_run().unwrap();
                    assert_eq!(back.keys, run.keys);
                    assert_eq!(back.cols, run.cols);
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two stores of one process on one directory — two queries that share
/// a spill directory — each read back their own rows: the stores never
/// name the same scratch file, so neither overwrites the other's run.
#[test]
fn stores_sharing_a_directory_restore_their_own_rows() {
    let dir = temp_dir("shared");
    let sync = |dir: &Path| {
        let (faults, disk) = (FaultInjector::none(), DiskBudget::unlimited());
        RunStore::spilling_with_config(dir, faults, disk, SpillConfig { io_threads: 0 }).unwrap()
    };
    let run_from = |first: u64| {
        let mut run = Run::empty(1, 1, false);
        for key in first..first + 500 {
            run.keys.push(key);
            run.cols[0].push(key * 3);
        }
        run.source_rows = 500;
        run
    };
    let (a, b) = (sync(&dir), sync(&dir));
    let (run_a, run_b) = (run_from(1_000), run_from(9_000));
    let (spilled_a, spilled_b) = (spill(&a, run_a.clone()), spill(&b, run_b.clone()));
    for (name, spilled, run) in [("A", spilled_a, run_a), ("B", spilled_b, run_b)] {
        let back = spilled.into_run().unwrap_or_else(|e| panic!("store {name}: {e}"));
        let (keys, cols) = (back.keys.to_vec(), back.cols[0].to_vec());
        assert!(keys == run.keys.to_vec(), "store {name} read keys from {:?}", keys.first());
        assert!(cols == run.cols[0].to_vec(), "store {name} read other values");
    }
    drop((a, b));
    let _ = std::fs::remove_dir_all(&dir);
}
