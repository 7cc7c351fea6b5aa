//! The spill stream format, `HSARUN03`: one run as a self-contained,
//! self-verifying byte stream.
//!
//! ```text
//! header   6 LE u64 words: magic, rows, n_cols, aggregated, source_rows, level
//! columns  1 + n_cols columns (keys first), each split into extents of
//!          up to EXTENT_WORDS words; every extent is framed as
//!            descriptor word   codec id (low 8 bits) | word count (bits
//!                              8..32) | encoded byte length (high 32)
//!            descriptor CRC    CRC32C of the descriptor's 8 LE bytes
//!            payload           the encoded words, zero-padded to an
//!                              8-byte boundary
//!            trailer word      low 32 bits CRC32C of the padded payload
//!                              bytes, high 32 bits the decoded word count
//! footer   4 LE u64 words: extent count, total bytes before the footer,
//!          CRC32C of every byte before the footer, magic again
//! ```
//!
//! Extent payloads are compressed per extent (see `crate::codec`): delta +
//! zigzag varint for near-sorted data, run-length for low-cardinality
//! columns, raw whenever neither is strictly smaller — Graefe's
//! bandwidth-for-CPU trade applied to exactly the run/merge machinery the
//! paper analyses. The CRC is computed over the *encoded* bytes, so a
//! single bit flip anywhere in a compressed payload is detected before
//! the decoder ever sees it; the decoder itself is total and rejects
//! malformed input as corruption, defence in depth behind the checksum.
//!
//! [`read_run`] re-verifies all of it: magic, shape, each extent's
//! descriptor CRC, payload CRC and word count, and the footer's counts and
//! whole-stream checksum — so corruption, truncation, and torn writes
//! surface as a typed mismatch, never as silently wrong rows. A stream
//! knows nothing about the file it sits in: a segment file is streams laid
//! back to back, each read from its own offset.

use crate::chunked::ChunkedVec;
use crate::codec;
use crate::crc::{crc32c, Crc32c};
use crate::depot::DepotAccount;
use crate::run::Run;
use hsa_fault::SpillFaultKind;
use std::io::{self, Read, Write};

/// Stream magic: "HSARUN03" as a little-endian u64. Files of earlier
/// versions are not readable; spill files are process-private scratch, so
/// a version break only invalidates what a crashed older process left
/// behind, and the orphan sweep removes that wholesale.
const MAGIC: u64 = u64::from_le_bytes(*b"HSARUN03");

/// Header length in bytes (6 words).
pub(crate) const HEADER_BYTES: u64 = 48;
/// Footer length in bytes (4 words).
const FOOTER_BYTES: u64 = 32;
/// Fixed framing bytes per extent: descriptor + descriptor CRC + trailer.
const EXTENT_OVERHEAD_BYTES: u64 = 24;

/// Words per read/write extent (64 KiB raw): large enough that spill I/O
/// is sequential-bandwidth bound, small enough that a restore never needs
/// a row-count-sized transient buffer.
#[cfg(not(miri))]
pub const EXTENT_WORDS: usize = 8192;
/// Under Miri a tiny extent keeps the boundary-straddling round-trip
/// property tests affordable while exercising the same chunking logic.
#[cfg(miri)]
pub const EXTENT_WORDS: usize = 16;

/// Upper bound on the size of `run`'s stream, in bytes: the size when
/// every extent escapes to the raw codec. The actual stream is never
/// larger ([`codec::encode`] only picks a compressed form when it is
/// strictly smaller), so disk can be reserved before a byte is written.
pub(crate) fn stream_size_upper(run: &Run) -> u64 {
    let rows = run.len() as u64;
    let columns = 1 + run.n_cols() as u64;
    let extents_per_col = rows.div_ceil(EXTENT_WORDS as u64);
    HEADER_BYTES
        + columns * rows * 8
        + columns * extents_per_col * EXTENT_OVERHEAD_BYTES
        + FOOTER_BYTES
}

/// Why a read attempt failed: plain I/O (maybe transient, retried) or a
/// verification mismatch (permanent).
pub(crate) enum ReadError {
    Io(io::Error),
    Corrupt { extent: u64, expected: u64, actual: u64, what: &'static str },
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Build a verification-mismatch error. Convention: `expected` is the
/// value the verifier required (recomputed checksum, counted words),
/// `actual` the value the file actually held.
fn corrupt(extent: u64, expected: u64, actual: u64, what: &'static str) -> ReadError {
    ReadError::Corrupt { extent, expected, actual, what }
}

/// Byte sink that maintains the rolling stream CRC and byte count, and
/// can simulate an injected failure partway through.
pub(crate) struct SpillWriter<W: Write> {
    inner: W,
    crc: Crc32c,
    /// Bytes written through this sink so far (across streams).
    pub(crate) bytes: u64,
    /// Injected fault: once the sink reaches this byte offset, write only
    /// up to it and fail with the kind's error.
    fail: Option<(u64, SpillFaultKind)>,
}

impl<W: Write> SpillWriter<W> {
    pub(crate) fn new(inner: W, fail: Option<(u64, SpillFaultKind)>) -> Self {
        Self { inner, crc: Crc32c::new(), bytes: 0, fail }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some((cap, kind)) = self.fail {
            if self.bytes + buf.len() as u64 > cap {
                // Torn write: a prefix reaches the file, then the error.
                let keep = (cap.saturating_sub(self.bytes)) as usize;
                let _ = self.inner.write_all(&buf[..keep]);
                let _ = self.inner.flush();
                self.bytes += keep as u64;
                return Err(injected_io_error(kind));
            }
        }
        self.inner.write_all(buf)?;
        self.crc.update(buf);
        self.bytes += buf.len() as u64;
        Ok(())
    }

    fn write_word(&mut self, word: u64) -> io::Result<()> {
        self.write_all(&word.to_le_bytes())
    }

    /// Append `run`'s whole stream — header, framed extents, footer.
    pub(crate) fn write_run(&mut self, run: &Run) -> io::Result<()> {
        // Each stream carries its own rolling CRC; the footer of the
        // previous one must not leak into it.
        self.crc = Crc32c::new();
        let start = self.bytes;
        let header = [
            MAGIC,
            run.len() as u64,
            run.n_cols() as u64,
            run.aggregated as u64,
            run.source_rows,
            run.level as u64,
        ];
        for word in header {
            self.write_word(word)?;
        }
        let mut extents = write_column(self, &run.keys)?;
        for col in &run.cols {
            extents += write_column(self, col)?;
        }
        let body_bytes = self.bytes - start;
        let stream_crc = self.crc.finalize() as u64;
        self.write_word(extents)?;
        self.write_word(body_bytes)?;
        self.write_word(stream_crc)?;
        self.write_word(MAGIC)
    }

    /// Fire any still-armed fault, then flush. The trigger offset is set
    /// against the *upper-bound* size, so compression can finish every
    /// stream without crossing it; firing here makes a planned write
    /// fault fire exactly once per attempt however well the runs
    /// compressed.
    pub(crate) fn finish(mut self) -> io::Result<u64> {
        if let Some((_, kind)) = self.fail.take() {
            return Err(injected_io_error(kind));
        }
        self.inner.flush()?;
        Ok(self.bytes)
    }
}

fn injected_io_error(kind: SpillFaultKind) -> io::Error {
    match kind {
        // EIO by raw code so the taxonomy classifies it transient.
        SpillFaultKind::WriteEio | SpillFaultKind::ReadEio => io::Error::from_raw_os_error(5),
        SpillFaultKind::WriteShort => {
            io::Error::new(io::ErrorKind::Interrupted, "injected fault: short write")
        }
        // ENOSPC by raw code: permanent.
        SpillFaultKind::WriteEnospc => io::Error::from_raw_os_error(28),
        SpillFaultKind::ReadBitFlip | SpillFaultKind::ReadTruncate => {
            io::Error::new(io::ErrorKind::InvalidData, "injected fault: corruption")
        }
    }
}

/// Byte source mirroring [`SpillWriter`]: rolling CRC + byte count over
/// everything read through it (the footer bypasses via `read_raw_word`).
struct SpillReader<R: Read> {
    inner: R,
    crc: Crc32c,
    bytes: u64,
}

impl<R: Read> SpillReader<R> {
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact(buf)?;
        self.crc.update(buf);
        self.bytes += buf.len() as u64;
        Ok(())
    }

    fn read_word(&mut self) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        self.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Read a word without feeding the rolling checksum (footer words —
    /// the stream CRC cannot cover itself).
    fn read_raw_word(&mut self) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        self.inner.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }
}

/// Read and verify one stream from `source`, which must stand at the
/// stream's first byte. `rows` and `n_cols` are what the writer's side
/// remembers of the run's shape, `account` what its chunks are lent
/// through; `flip` injects a single encoded-payload bit flip.
pub(crate) fn read_run(
    source: impl Read,
    rows: usize,
    n_cols: usize,
    account: &DepotAccount,
    mut flip: bool,
) -> Result<Run, ReadError> {
    let mut r = SpillReader { inner: source, crc: Crc32c::new(), bytes: 0 };
    let mut header = [0u64; 6];
    for word in header.iter_mut() {
        *word = r.read_word()?;
    }
    if header[0] != MAGIC {
        return Err(corrupt(u64::MAX, MAGIC, header[0], "magic"));
    }
    if header[1] != rows as u64 {
        return Err(corrupt(u64::MAX, rows as u64, header[1], "shape"));
    }
    if header[2] != n_cols as u64 {
        return Err(corrupt(u64::MAX, n_cols as u64, header[2], "shape"));
    }
    let mut extent = 0u64;
    let keys = read_column(&mut r, rows, account, &mut extent, &mut flip)?;
    let mut cols = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        cols.push(read_column(&mut r, rows, account, &mut extent, &mut flip)?);
    }
    let body_bytes = r.bytes;
    let mut stream_crc = r.crc.finalize() as u64;
    if flip {
        // A zero-extent stream gave the injected bit flip no payload to
        // land in; corrupt the whole-stream checksum instead so the
        // injection still proves the footer check fires.
        stream_crc ^= 1;
    }
    let footer = [r.read_raw_word()?, r.read_raw_word()?, r.read_raw_word()?, r.read_raw_word()?];
    if footer[3] != MAGIC {
        return Err(corrupt(u64::MAX, MAGIC, footer[3], "footer magic"));
    }
    if footer[0] != extent {
        return Err(corrupt(u64::MAX, extent, footer[0], "extent count"));
    }
    if footer[1] != body_bytes {
        return Err(corrupt(u64::MAX, body_bytes, footer[1], "byte count"));
    }
    if footer[2] != stream_crc {
        return Err(corrupt(u64::MAX, stream_crc, footer[2], "file crc"));
    }
    Ok(Run {
        keys,
        cols,
        aggregated: header[3] != 0,
        source_rows: header[4],
        level: header[5] as u32,
    })
}

/// Write one column as fixed-boundary extents (the last may be short),
/// each encoded on its own and framed with descriptor, descriptor
/// CRC, padded payload, and trailer. Returns the extent count.
fn write_column<W: Write>(w: &mut SpillWriter<W>, col: &ChunkedVec) -> io::Result<u64> {
    let mut extents = 0u64;
    let mut words: Vec<u64> = Vec::with_capacity(EXTENT_WORDS.min(col.len()).max(1));
    let mut enc: Vec<u8> = Vec::new();
    // Extent boundaries are fixed at EXTENT_WORDS regardless of the
    // ChunkedVec's internal chunk boundaries: writer and reader must
    // agree on them for the per-extent framing to line up.
    for chunk in col.chunks() {
        let mut rest = chunk;
        while !rest.is_empty() {
            let take = (EXTENT_WORDS - words.len()).min(rest.len());
            words.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if words.len() == EXTENT_WORDS {
                flush_extent(w, &mut words, &mut enc, &mut extents)?;
            }
        }
    }
    if !words.is_empty() {
        flush_extent(w, &mut words, &mut enc, &mut extents)?;
    }
    Ok(extents)
}

fn flush_extent<W: Write>(
    w: &mut SpillWriter<W>,
    words: &mut Vec<u64>,
    enc: &mut Vec<u8>,
    extents: &mut u64,
) -> io::Result<()> {
    let codec_id = codec::encode(words, enc);
    let n = words.len() as u64;
    let enc_len = enc.len() as u64;
    // Field widths: codec id 8 bits; word count ≤ EXTENT_WORDS fits the
    // 24 bits at 8..32; encoded length ≤ EXTENT_WORDS * 8 fits the high
    // 32. The descriptor gets its own CRC so a flipped codec id or
    // length is caught before it can misdirect the payload read.
    let desc = u64::from(codec_id) | (n << 8) | (enc_len << 32);
    let desc_crc = u64::from(crc32c(&desc.to_le_bytes()));
    // Zero-pad the payload to a word boundary: every frame field stays
    // 8-byte aligned and the raw escape hatch adds no padding at all.
    while !enc.len().is_multiple_of(8) {
        enc.push(0);
    }
    let trailer = crc32c(enc) as u64 | (n << 32);
    w.write_word(desc)?;
    w.write_word(desc_crc)?;
    w.write_all(enc)?;
    w.write_word(trailer)?;
    words.clear();
    *extents += 1;
    Ok(())
}

/// Read one column back, verifying each extent's descriptor CRC, payload
/// CRC, and word counts, then decoding the payload. `extent` is the
/// running stream-wide extent ordinal (for error reports); `flip_pending`
/// injects a single encoded-payload bit flip when set.
fn read_column<R: Read>(
    r: &mut SpillReader<R>,
    rows: usize,
    account: &DepotAccount,
    extent: &mut u64,
    flip_pending: &mut bool,
) -> Result<ChunkedVec, ReadError> {
    let mut out = ChunkedVec::new_in(account);
    let mut remaining = rows;
    let mut enc: Vec<u8> = Vec::new();
    let mut words: Vec<u64> = Vec::with_capacity(EXTENT_WORDS.min(rows.max(1)));
    while remaining > 0 {
        let n = remaining.min(EXTENT_WORDS);
        let desc = r.read_word()?;
        let desc_crc = r.read_word()?;
        let computed_desc_crc = u64::from(crc32c(&desc.to_le_bytes()));
        if desc_crc != computed_desc_crc {
            return Err(corrupt(*extent, computed_desc_crc, desc_crc, "extent header"));
        }
        let codec_id = (desc & 0xff) as u8;
        let stored_words = (desc >> 8) & 0xff_ffff;
        let enc_len = (desc >> 32) as usize;
        if stored_words != n as u64 {
            return Err(corrupt(*extent, n as u64, stored_words, "extent words"));
        }
        if enc_len > n * 8 {
            return Err(corrupt(*extent, (n * 8) as u64, enc_len as u64, "extent header"));
        }
        let padded = enc_len.div_ceil(8) * 8;
        enc.clear();
        enc.resize(padded, 0);
        r.read_exact(&mut enc)?;
        if *flip_pending && !enc.is_empty() {
            // The rolling stream CRC already consumed the true bytes; the
            // flip lands in the encoded payload about to be CRC-checked,
            // proving the extent checksum catches compressed corruption.
            enc[0] ^= 1;
            *flip_pending = false;
        }
        let trailer = r.read_word()?;
        let stored_crc = trailer & 0xffff_ffff;
        let trailer_words = trailer >> 32;
        if trailer_words != n as u64 {
            return Err(corrupt(*extent, n as u64, trailer_words, "extent words"));
        }
        let actual_crc = crc32c(&enc) as u64;
        if stored_crc != actual_crc {
            return Err(corrupt(*extent, actual_crc, stored_crc, "extent crc"));
        }
        words.clear();
        if codec::decode(codec_id, &enc[..enc_len], n, &mut words).is_err() {
            // Defence in depth: a payload that passed its CRC but does
            // not decode to exactly `n` words (or names an unknown
            // codec) is still corruption, never garbage rows.
            return Err(corrupt(*extent, n as u64, u64::from(codec_id), "extent codec"));
        }
        out.extend_from_slice(&words);
        remaining -= n;
        *extent += 1;
    }
    Ok(out)
}
