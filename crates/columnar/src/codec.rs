//! Per-extent spill compression codecs (format `HSARUN03`).
//!
//! Spill extents are plain `u64` words, and the columns that dominate
//! spill volume are radix-partitioned keys and monotone aggregate state —
//! exactly the distributions that collapse under delta + varint or
//! run-length coding (Graefe's bandwidth-for-CPU trade on run/merge
//! machinery). Each extent is encoded independently so restores stay
//! bounded, sequential, and verifiable extent by extent.
//!
//! Three wire codecs, all std-only and branch-cheap:
//!
//! * **Raw (0)** — the escape hatch: words as little-endian bytes,
//!   bit-identical to an HSARUN02 payload. Never longer than the input.
//! * **Delta (1)** — first word as 8 raw LE bytes, then each successive
//!   word as the LEB128 varint of the zigzag-folded wrapping difference.
//!   Sorted/clustered keys encode in 1–2 bytes per word; the worst case
//!   (random deltas) costs 10 bytes per word, which auto-selection
//!   escapes to Raw.
//! * **RLE (2)** — `(varint value, varint run length)` pairs. Constant
//!   columns (COUNT state, partition digits) collapse to a few bytes.
//!
//! The writer picks one per extent (`encode`) and the codec *byte* in
//! the extent descriptor records which, so readers need no configuration.
//! Encoding never loses information: `decode(encode(words))` is the
//! identity for every input, and the choice only falls on an encoding
//! that is strictly smaller than Raw.

/// Wire codec ids (the `codec` byte of an extent descriptor).
pub(crate) const CODEC_RAW: u8 = 0;
pub(crate) const CODEC_DELTA: u8 = 1;
pub(crate) const CODEC_RLE: u8 = 2;

/// Zigzag-fold a signed delta into an unsigned varint payload.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as a LEB128 varint (1–10 bytes).
#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded size of `v` as a LEB128 varint, in bytes.
#[inline]
fn varint_len(v: u64) -> usize {
    // 1 byte per started 7-bit group; v == 0 still takes one byte.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Read one varint from `bytes[*pos..]`. `None` on truncation or a
/// value that overflows 64 bits (corrupt input).
#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        // The 10th byte may only carry the top bit of the value.
        if shift == 63 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

fn encode_raw(words: &[u64], out: &mut Vec<u8>) {
    out.reserve(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

fn encode_delta(words: &[u64], out: &mut Vec<u8>) {
    let Some((&first, rest)) = words.split_first() else { return };
    out.extend_from_slice(&first.to_le_bytes());
    let mut prev = first;
    for &w in rest {
        put_varint(out, zigzag(w.wrapping_sub(prev) as i64));
        prev = w;
    }
}

fn encode_rle(words: &[u64], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < words.len() {
        let v = words[i];
        let mut len = 1u64;
        while i + (len as usize) < words.len() && words[i + len as usize] == v {
            len += 1;
        }
        put_varint(out, v);
        put_varint(out, len);
        i += len as usize;
    }
}

/// Exact encoded sizes `(delta, rle)` of `words`, computed in one pass
/// without materializing either encoding.
fn candidate_sizes(words: &[u64]) -> (usize, usize) {
    let mut delta = 0usize;
    let mut rle = 0usize;
    let mut prev = 0u64;
    let mut run_val = 0u64;
    let mut run_len = 0u64;
    for (i, &w) in words.iter().enumerate() {
        if i == 0 {
            delta += 8;
            run_val = w;
            run_len = 1;
        } else {
            delta += varint_len(zigzag(w.wrapping_sub(prev) as i64));
            if w == run_val {
                run_len += 1;
            } else {
                rle += varint_len(run_val) + varint_len(run_len);
                run_val = w;
                run_len = 1;
            }
        }
        prev = w;
    }
    if run_len > 0 {
        rle += varint_len(run_val) + varint_len(run_len);
    }
    (delta, rle)
}

/// Encode `words` into `out` (cleared first) with the smaller of Delta
/// and RLE, or Raw when neither is strictly smaller than the Raw
/// payload. Returns the wire codec id used. `out.len() <= words.len() *
/// 8` always holds — the invariant the HSARUN03 upper-bound file size is
/// built on.
pub(crate) fn encode(words: &[u64], out: &mut Vec<u8>) -> u8 {
    out.clear();
    let raw_len = words.len() * 8;
    let (delta_len, rle_len) = candidate_sizes(words);
    if delta_len < raw_len && delta_len <= rle_len {
        encode_delta(words, out);
        debug_assert_eq!(out.len(), delta_len, "delta size formula out of sync");
        CODEC_DELTA
    } else if rle_len < raw_len {
        encode_rle(words, out);
        debug_assert_eq!(out.len(), rle_len, "rle size formula out of sync");
        CODEC_RLE
    } else {
        encode_raw(words, out);
        CODEC_RAW
    }
}

/// Decode `bytes` (codec id `codec`) into exactly `n_words` words,
/// appended to `out`. `Err(())` on an unknown codec id or a payload that
/// does not decode to exactly `n_words` — defence in depth behind the
/// extent CRC; the store surfaces it as `SpillCorrupt`.
pub(crate) fn decode(
    codec: u8,
    bytes: &[u8],
    n_words: usize,
    out: &mut Vec<u64>,
) -> Result<(), ()> {
    match codec {
        CODEC_RAW => {
            if bytes.len() != n_words * 8 {
                return Err(());
            }
            for chunk in bytes.chunks_exact(8) {
                let mut le = [0u8; 8];
                le.copy_from_slice(chunk);
                out.push(u64::from_le_bytes(le));
            }
            Ok(())
        }
        CODEC_DELTA => {
            if n_words == 0 {
                return if bytes.is_empty() { Ok(()) } else { Err(()) };
            }
            if bytes.len() < 8 {
                return Err(());
            }
            let mut le = [0u8; 8];
            le.copy_from_slice(&bytes[..8]);
            let mut prev = u64::from_le_bytes(le);
            out.push(prev);
            let mut pos = 8usize;
            for _ in 1..n_words {
                let d = get_varint(bytes, &mut pos).ok_or(())?;
                prev = prev.wrapping_add(unzigzag(d) as u64);
                out.push(prev);
            }
            if pos != bytes.len() {
                return Err(());
            }
            Ok(())
        }
        CODEC_RLE => {
            let mut pos = 0usize;
            let mut produced = 0usize;
            while pos < bytes.len() {
                let v = get_varint(bytes, &mut pos).ok_or(())?;
                let len = get_varint(bytes, &mut pos).ok_or(())?;
                if len == 0 || (len as usize) > n_words - produced {
                    return Err(());
                }
                for _ in 0..len {
                    out.push(v);
                }
                produced += len as usize;
            }
            if produced != n_words {
                return Err(());
            }
            Ok(())
        }
        _ => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(words: &[u64]) -> u8 {
        let mut enc = Vec::new();
        let codec = encode(words, &mut enc);
        assert!(enc.len() <= words.len() * 8, "codec {codec} grew the payload");
        let mut back = Vec::new();
        decode(codec, &enc, words.len(), &mut back).unwrap();
        assert_eq!(back, words, "codec {codec} round trip");
        codec
    }

    /// Every wire codec on `words`, whether or not `encode` would pick
    /// it: `encode`'s choice, the Raw escape, then the two compressing
    /// encoders called directly (they may grow the payload; `encode`
    /// is what never lets that reach a file).
    fn round_trip_all(words: &[u64]) {
        round_trip(words);
        type Encoder = fn(&[u64], &mut Vec<u8>);
        let encoders = [
            (CODEC_RAW, encode_raw as Encoder),
            (CODEC_DELTA, encode_delta),
            (CODEC_RLE, encode_rle),
        ];
        for (codec, encoder) in encoders {
            let (mut enc, mut back) = (Vec::new(), Vec::new());
            encoder(words, &mut enc);
            decode(codec, &enc, words.len(), &mut back).unwrap();
            assert_eq!(back, words, "codec {codec} round trip");
        }
    }

    /// The adversarial distribution lattice from the issue: constant,
    /// strictly increasing, saw-tooth, u64::MAX deltas, single-element,
    /// empty — under `encode`'s choice and every wire codec.
    #[test]
    fn adversarial_distributions_round_trip_under_every_codec() {
        let n = if cfg!(miri) { 64 } else { 4096 };
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![42],
            vec![0; n],
            vec![u64::MAX; n],
            (0..n as u64).collect(),
            (0..n as u64).map(|i| i * 1_000_003).collect(),
            (0..n as u64).map(|i| if i % 2 == 0 { 0 } else { u64::MAX }).collect(),
            (0..n as u64).map(|i| i % 17).collect(),
            (0..n as u64).rev().collect(),
            (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect(),
        ];
        for words in &cases {
            round_trip_all(words);
        }
    }

    #[test]
    fn auto_picks_the_expected_codec_per_shape() {
        let n = 1024u64;
        let sorted: Vec<u64> = (0..n).collect();
        assert_eq!(round_trip(&sorted), CODEC_DELTA);
        let constant = vec![7u64; n as usize];
        assert_eq!(round_trip(&constant), CODEC_RLE);
        let random: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        assert_eq!(round_trip(&random), CODEC_RAW);
    }

    #[test]
    fn max_deltas_and_alternating_extremes_are_exact() {
        // Wrapping differences of ±u64::MAX exercise the zigzag fold at
        // both ends of the i64 range.
        let words = [0u64, u64::MAX, 0, u64::MAX, 1, u64::MAX - 1];
        round_trip_all(&words);
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
        assert_eq!(unzigzag(zigzag(i64::MAX)), i64::MAX);
        assert_eq!(unzigzag(zigzag(0)), 0);
        assert_eq!(unzigzag(zigzag(-1)), -1);
    }

    #[test]
    fn varints_cover_the_full_u64_range() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "size formula for {v}");
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn corrupt_payloads_decode_to_errors_not_garbage() {
        let mut out = Vec::new();
        // Unknown codec id.
        assert!(decode(9, &[0; 8], 1, &mut out).is_err());
        // Raw with the wrong length.
        assert!(decode(CODEC_RAW, &[0; 7], 1, &mut out).is_err());
        // Delta truncated mid-varint.
        let mut enc = Vec::new();
        encode_delta(&[0, u64::MAX / 3], &mut enc);
        assert!(decode(CODEC_DELTA, &enc[..enc.len() - 1], 2, &mut Vec::new()).is_err());
        // Delta with trailing bytes.
        enc.push(0);
        assert!(decode(CODEC_DELTA, &enc, 2, &mut Vec::new()).is_err());
        // RLE overrunning the expected word count.
        let mut enc = Vec::new();
        put_varint(&mut enc, 5);
        put_varint(&mut enc, 100);
        assert!(decode(CODEC_RLE, &enc, 3, &mut Vec::new()).is_err());
        // RLE with a zero-length run.
        let mut enc = Vec::new();
        put_varint(&mut enc, 5);
        put_varint(&mut enc, 0);
        assert!(decode(CODEC_RLE, &enc, 3, &mut Vec::new()).is_err());
        // Varint that overflows 64 bits.
        let enc = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f];
        let mut pos = 0;
        assert_eq!(get_varint(&enc, &mut pos), None);
    }

    /// Seeded-random fuzz: every encoding decodes back exactly, across
    /// codecs and lengths including extent-boundary straddlers.
    #[test]
    fn random_round_trip_fuzz() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let trials = if cfg!(miri) { 8 } else { 200 };
        for t in 0..trials {
            let len = (next() % 300) as usize;
            let words: Vec<u64> = (0..len)
                .map(|_| match next() % 4 {
                    0 => next(),                       // uniform random
                    1 => next() % 16,                  // small alphabet (RLE-ish)
                    2 => t as u64 * 1000 + next() % 8, // clustered (delta-ish)
                    _ => u64::MAX - next() % 2,        // extremes
                })
                .collect();
            round_trip_all(&words);
        }
    }
}
