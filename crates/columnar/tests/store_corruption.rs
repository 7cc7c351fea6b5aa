//! Property test: every single-bit flip in a sealed spill file is
//! detected on restore.
//!
//! The HSARUN03 format layers four defences — a CRC32C over each extent
//! descriptor, a CRC32C trailer over each (possibly compressed) extent
//! payload, a header shape check against the in-memory metadata, and a
//! whole-file checksum in the footer — and their union must leave no
//! undetectable byte. Compression raises the stakes: a flipped bit in an
//! encoded payload can explode into many wrong words, so the payload CRC
//! is computed over the *encoded* bytes and checked before the decoder
//! runs. This suite flips one seeded-random bit per trial (plus targeted
//! flips in every structural region) across raw and compressed shapes and
//! requires `into_run` to answer with `AggError::SpillCorrupt` **every**
//! time: the acceptance bar is 100% detection, not "usually caught".
//!
//! All stores here run with `io_threads: 0` (the submitting thread does
//! the write): the tests mutate scratch files directly, so the file must
//! be complete on disk the moment `spill_batch` returns.

use hsa_columnar::{crc32c, Run, RunHandle, RunStore, SpillConfig, EXTENT_WORDS};
use hsa_fault::{AggError, DiskBudget, FaultInjector};
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
    let dir = std::env::temp_dir().join(format!("hsa-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// No I/O workers: files are sealed on disk when `spill_batch` returns.
fn sync_store(dir: &Path) -> RunStore {
    RunStore::spilling_with_config(
        dir,
        FaultInjector::none(),
        DiskBudget::unlimited(),
        SpillConfig { io_threads: 0 },
    )
    .unwrap()
}

/// Random keys and columns: every extent escapes to the raw codec.
fn build_run(rng: &mut Rng, rows: usize, n_cols: usize) -> Run {
    let mut run = Run::empty(1, n_cols, false);
    for _ in 0..rows {
        run.keys.push(rng.next());
        for col in run.cols.iter_mut() {
            col.push(rng.next());
        }
    }
    run.source_rows = rows as u64;
    run
}

/// Sorted keys + constant columns: every extent compresses (delta/RLE),
/// so random flips land in *encoded* payloads.
fn build_compressible_run(rows: usize, n_cols: usize) -> Run {
    let mut run = Run::empty(1, n_cols, false);
    for i in 0..rows as u64 {
        run.keys.push(i * 16);
        for col in run.cols.iter_mut() {
            col.push(7);
        }
    }
    run.source_rows = rows as u64;
    run
}

/// Spill `run` and return the handle plus the scratch file's path.
fn spill(store: &RunStore, run: &Run) -> (RunHandle, PathBuf) {
    let handle = store.spill_batch(vec![run.clone()]).unwrap().pop().unwrap();
    let path = match &handle {
        RunHandle::Spilled(s) => s.path().to_path_buf(),
        RunHandle::Mem(_) => panic!("spilling store returned a resident handle"),
    };
    (handle, path)
}

fn flip_bit(path: &Path, bit: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    std::fs::write(path, bytes).unwrap();
}

fn expect_corrupt(r: Result<Run, AggError>, context: &str) -> AggError {
    match r {
        Err(e @ AggError::SpillCorrupt { .. }) => e,
        Ok(_) => panic!("{context}: corruption restored as a valid run"),
        Err(other) => panic!("{context}: surfaced as {other:?}, not SpillCorrupt"),
    }
}

/// Flip one random bit per trial across many file shapes; detection must
/// be 100%. Shapes cover the degenerate empty file (header + footer
/// only), sub-extent columns, columns straddling extent boundaries, and
/// compressed (delta/RLE) extents alongside raw ones.
#[test]
fn every_single_bit_flip_is_detected() {
    let dir = temp_dir("bitflip");
    let store = sync_store(&dir);
    let mut rng = Rng(0xc0ffee);

    // (rows, n_cols, compressible)
    let (trials, shapes): (usize, &[(usize, usize, bool)]) = if cfg!(miri) {
        (8, &[(0, 0, false), (3, 1, false), (EXTENT_WORDS + 1, 1, true)])
    } else {
        (
            180,
            &[
                (0, 0, false),
                (1, 0, false),
                (7, 2, false),
                (100, 1, false),
                (EXTENT_WORDS - 1, 1, false),
                (EXTENT_WORDS + 3, 2, false),
                (1, 1, true),
                (100, 2, true),
                (EXTENT_WORDS + 3, 1, true),
            ],
        )
    };

    let mut detected = 0usize;
    for trial in 0..trials {
        let (rows, n_cols, compressible) = shapes[trial % shapes.len()];
        let run = if compressible {
            build_compressible_run(rows, n_cols)
        } else {
            build_run(&mut rng, rows, n_cols)
        };
        let (handle, path) = spill(&store, &run);
        let len = std::fs::metadata(&path).unwrap().len();
        let bit = rng.next() % (len * 8);
        flip_bit(&path, bit);
        expect_corrupt(
            handle.into_run(),
            &format!(
                "trial {trial} (rows {rows} cols {n_cols} comp {compressible}): \
                 bit {bit} of {len} bytes"
            ),
        );
        detected += 1;
    }
    assert_eq!(detected, trials, "every flipped bit must be caught");

    // The failed restores still consumed their scratch files.
    drop(store);
    let leftover = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftover, 0, "corrupt scratch files must still be unlinked");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Targeted flips in each structural region, asserting the check that
/// catches them names itself correctly in the error's `what` field.
#[test]
fn structural_regions_name_their_failing_check() {
    let dir = temp_dir("regions");
    let store = sync_store(&dir);
    let mut rng = Rng(0xdecade);

    // A zero-column run whose single key column fits one extent. Random
    // keys escape to the raw codec, so the extent layout is fixed:
    // 48-byte header (magic, rows, n_cols, aggregated, source_rows,
    // level), then descriptor word, descriptor CRC word, rows*8 payload
    // bytes, trailer word, then the 32-byte footer (extent count, byte
    // count, file crc, magic).
    let rows = (EXTENT_WORDS / 2).min(64) as i64;
    let payload = 48 + 16; // first payload byte
    let trailer = payload + rows * 8;
    let cases: &[(i64, &[&str])] = &[
        (0, &["magic"]),                            // header magic
        (8, &["shape"]),                            // row count
        (16, &["shape"]),                           // column count
        (24, &["file crc"]),                        // aggregated flag: only the file hash sees it
        (32, &["file crc"]),                        // source_rows
        (40, &["file crc"]),                        // level
        (48, &["extent header"]),                   // extent descriptor (codec/count/length)
        (56, &["extent header"]),                   // descriptor CRC word
        (payload, &["extent crc"]),                 // first payload word of the key column
        (trailer - 8, &["extent crc"]),             // last payload word
        (trailer, &["extent crc", "extent words"]), // extent trailer
        (-32, &["extent count"]),                   // footer extent count
        (-24, &["byte count"]),                     // footer byte count
        (-16, &["file crc"]),                       // footer whole-file checksum
        (-8, &["footer magic"]),                    // footer magic
    ];

    for &(offset, expect) in cases {
        let run = build_run(&mut rng, rows as usize, 0);
        let (handle, path) = spill(&store, &run);
        let len = std::fs::metadata(&path).unwrap().len() as i64;
        assert_eq!(len, trailer + 8 + 32, "raw single-extent layout changed");
        let byte = if offset < 0 { len + offset } else { offset } as u64;
        flip_bit(&path, byte * 8 + (rng.next() % 8));
        let e = expect_corrupt(handle.into_run(), &format!("byte {byte}"));
        let AggError::SpillCorrupt { what, .. } = &e else { unreachable!() };
        assert!(
            expect.contains(&what.as_str()),
            "byte {byte}: caught by {what:?}, expected one of {expect:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A payload that passes its CRC but does not decode cleanly is still
/// corruption ("extent codec") — the decoder is the defence in depth
/// behind the checksum. Forged here by rewriting an extent with an
/// unknown codec id and refreshing every checksum the forgery touches.
#[test]
fn undecodable_payload_with_valid_checksums_is_extent_codec_corruption() {
    let dir = temp_dir("codec");
    let store = sync_store(&dir);
    let mut rng = Rng(0xfeed);
    let rows = 8usize;
    let run = build_run(&mut rng, rows, 0);
    let (handle, path) = spill(&store, &run);

    let mut bytes = std::fs::read(&path).unwrap();
    let word = |b: &[u8], at: usize| {
        let mut le = [0u8; 8];
        le.copy_from_slice(&b[at..at + 8]);
        u64::from_le_bytes(le)
    };
    // Rewrite the descriptor's codec id to an unknown value and re-seal
    // its CRC so only the decoder can object.
    let desc = word(&bytes, 48) | 0xff;
    bytes[48..56].copy_from_slice(&desc.to_le_bytes());
    let desc_crc = u64::from(crc32c(&desc.to_le_bytes()));
    bytes[56..64].copy_from_slice(&desc_crc.to_le_bytes());
    // Recompute the footer's whole-file CRC over the forged body.
    let body_end = bytes.len() - 32;
    let file_crc = u64::from(crc32c(&bytes[..body_end]));
    bytes[body_end + 16..body_end + 24].copy_from_slice(&file_crc.to_le_bytes());
    std::fs::write(&path, bytes).unwrap();

    let e = expect_corrupt(handle.into_run(), "unknown codec id");
    let AggError::SpillCorrupt { what, .. } = &e else { unreachable!() };
    assert_eq!(what, "extent codec");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Truncation at every seeded cut point — including mid-header,
/// mid-payload, mid-trailer, and mid-footer — is a typed corruption
/// error, never a short read that silently yields a smaller run.
#[test]
fn truncation_at_any_point_is_detected() {
    let dir = temp_dir("truncate");
    let store = sync_store(&dir);
    let mut rng = Rng(0x7525_5eed);

    let trials = if cfg!(miri) { 4 } else { 48 };
    for trial in 0..trials {
        // Alternate raw and compressed bodies so cuts land in both.
        let run =
            if trial % 2 == 0 { build_run(&mut rng, 50, 1) } else { build_compressible_run(50, 1) };
        let (handle, path) = spill(&store, &run);
        let len = std::fs::metadata(&path).unwrap().len();
        let keep = rng.next() % len; // strictly shorter than the file
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(keep as usize);
        std::fs::write(&path, bytes).unwrap();
        expect_corrupt(handle.into_run(), &format!("trial {trial}: truncated to {keep}/{len}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The public CRC32C implementation matches the published Castagnoli
/// reference vectors (RFC 3720 appendix / kernel test vectors).
#[test]
fn crc32c_matches_reference_vectors() {
    let vectors: &[(&[u8], u32)] = &[
        (b"", 0x0000_0000),
        (b"a", 0xC1D0_4330),
        (b"abc", 0x364B_3FB7),
        (b"123456789", 0xE306_9283),
        (b"The quick brown fox jumps over the lazy dog", 0x2262_0404),
    ];
    for &(input, expect) in vectors {
        assert_eq!(crc32c(input), expect, "crc32c({:?})", String::from_utf8_lossy(input));
    }
}
