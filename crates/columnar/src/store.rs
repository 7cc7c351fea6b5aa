//! Spillable run storage — the `RunStore` / `RunHandle` abstraction.
//!
//! The paper's framework is phrased over *runs* that need not fit in RAM
//! (§2's external-memory cost analysis treats hashing and sorting as the
//! same sequence of sequential run transfers). This module gives runs a
//! storage identity separate from their data: every sealed run, partition
//! output, and leftover-table flush travels as a [`RunHandle`] that is
//! either resident ([`RunHandle::Mem`]) or flushed to a spill file
//! ([`RunHandle::Spilled`]). Consumers call [`RunHandle::into_run`] to get
//! the rows back; a spilled run's file is deleted when its handle drops.
//!
//! Two backends, std-only:
//!
//! * **MemStore** — the degenerate store: handles wrap the run directly.
//!   [`RunStore::in_memory`] models it as "no file store configured".
//! * **[`FileStore`]** — a spill directory. Runs are written once,
//!   sequentially, column extent by column extent (key column first, then
//!   each state column), and read back the same way in bounded extents, so
//!   spill I/O is always bucket-sized sequential transfers — never random
//!   access.
//!
//! # Asynchronous pipeline
//!
//! Spill I/O is off the critical path by default. The store owns a small
//! [`IoPool`] of worker threads fed by a bounded channel; a spill is a
//! *submission* — [`FileStore::write`] reserves disk space, hands the run
//! to a worker, and returns a [`SpilledRun`] handle immediately, so the
//! compute thread keeps aggregating while the previous run streams to
//! disk (double buffering in the external-sort tradition). Symmetrically,
//! [`RunHandle::prefetch`] asks a worker to decode the *next* spilled run
//! while the current one is being merged. Every in-flight operation is
//! tracked by an [`IoTicket`] the handle carries; consuming the handle
//! synchronizes on the ticket. Worker-side write errors are recorded as
//! the store's first error and surface at the next synchronization point:
//! the next spill submission, an explicit [`RunStore::drain`], or the
//! failed handle's own `into_run` — never silently. `io_threads: 0` in
//! [`SpillConfig`] restores fully synchronous, in-line I/O.
//!
//! Runs that flush at one moment share one scratch file:
//! [`FileStore::write_batch`] lays every run of the batch out as a
//! self-contained verified stream (header/extents/footer, below) at its
//! own offset of a single file, under one disk reservation and one
//! sequential write. Producers that emit hundreds of small per-digit
//! runs per flush pay one file creation instead of hundreds — on
//! filesystems where inode creation dominates small writes (container
//! overlay mounts, ~400 µs per create) that is the difference between
//! spilling being viable and not. The file is reclaimed when the last
//! handle into it drops.
//!
//! # File format (`HSARUN03`)
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
//! Extent payloads are compressed per column (see [`SpillCodec`]): delta +
//! zigzag varint for near-sorted data, run-length for low-cardinality
//! columns, with a raw escape hatch whenever neither is strictly smaller —
//! Graefe's bandwidth-for-CPU trade applied to exactly the run/merge
//! machinery the paper analyses. The CRC is computed over the *encoded*
//! bytes, so a single bit flip anywhere in a compressed payload is still
//! detected before the decoder ever sees it; the decoder itself is total
//! and rejects malformed input as corruption, defence in depth behind the
//! checksum. `HSARUN02` files are not readable (spill files are
//! process-private scratch, so the break only invalidates files a crashed
//! v2 process left behind — the orphan sweep removes those wholesale).
//!
//! Every restore re-verifies all of it: magic, shape, each extent's
//! descriptor CRC, payload CRC and word count, and the footer's counts and
//! whole-file checksum — so corruption, truncation, and torn writes
//! surface as a typed `AggError::SpillCorrupt`, never as silently wrong
//! rows. Restored runs are therefore *verifiably* the runs that were
//! sealed.
//!
//! # Durability behaviour
//!
//! Writes reserve their file-size *upper bound* against the store's
//! [`DiskBudget`] at submit time — keeping `DiskBudgetExceeded` a
//! synchronous, attributable error — and shrink the reservation to the
//! actual encoded size once the worker finishes (the reservation rides
//! the [`SpilledRun`] and is fully released when the scratch file is
//! reclaimed). Transient I/O errors are retried from scratch under a
//! clockless bounded [`RetryPolicy`] with partial files truncated empty
//! on every failure path; a failed async write additionally shrinks its
//! reservation to zero immediately, so both budgets drain even while the
//! dead handle is still in flight. Reclaimed scratch files are truncated
//! to zero and parked — descriptor kept open — for the next spill to
//! reuse, because inode creation rather than data bytes dominates small
//! spills on some filesystems; whatever is still parked unlinks when the
//! store drops. `FileStore::with_config` sweeps the directory for spill
//! files orphaned by dead processes (liveness via a per-pid lock file,
//! plus `/proc` on Linux).

use crate::chunked::ChunkedVec;
use crate::codec::{self, SpillCodec};
use crate::crc::{crc32c, Crc32c};
use crate::run::Run;
use hsa_fault::{
    AggError, DiskBudget, DiskReservation, FaultInjector, RetryPolicy, SpillFaultKind,
};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// File magic: "HSARUN03" as a little-endian u64. Version 3 compresses
/// extent payloads and frames each extent with a codec descriptor; v2
/// (`HSARUN02`, raw fixed-size extents) files are not readable.
const MAGIC: u64 = u64::from_le_bytes(*b"HSARUN03");

/// Header length in bytes (6 words).
const HEADER_BYTES: u64 = 48;
/// Footer length in bytes (4 words).
const FOOTER_BYTES: u64 = 32;
/// Fixed framing bytes per extent: descriptor + descriptor CRC + trailer.
const EXTENT_OVERHEAD_BYTES: u64 = 24;

/// Spill files are `hsarun-<pid>-<seq>.bin`; the pid makes files
/// attributable to their writing process so the orphan sweep can reclaim
/// scratch left behind by a crash.
const SPILL_PREFIX: &str = "hsarun-";

/// Most parked scratch files the reuse pool holds open at once. Reclaimed
/// files are truncated to zero and kept (with their descriptor) for the
/// next spill, because creating an inode costs ~40× a rewind on container
/// overlay filesystems; beyond this cap they are closed and unlinked so a
/// spill-heavy phase cannot pin an unbounded number of descriptors.
const FILE_POOL_CAP: usize = 128;

/// Words per read/write extent (64 KiB raw): large enough that spill I/O
/// is sequential-bandwidth bound, small enough that a restore never needs
/// a row-count-sized transient buffer.
#[cfg(not(miri))]
pub const EXTENT_WORDS: usize = 8192;
/// Under Miri a tiny extent keeps the boundary-straddling round-trip
/// property tests affordable while exercising the same chunking logic.
#[cfg(miri)]
pub const EXTENT_WORDS: usize = 16;

/// Storage policy knobs of one [`FileStore`]: which codec compresses
/// extent payloads and how many I/O worker threads overlap spill I/O
/// with compute (`0` = fully synchronous in-line I/O).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillConfig {
    /// Per-extent compression policy (default: [`SpillCodec::Auto`]).
    pub codec: SpillCodec,
    /// I/O worker threads; `0` disables the async pipeline.
    pub io_threads: usize,
}

impl Default for SpillConfig {
    fn default() -> Self {
        Self { codec: SpillCodec::Auto, io_threads: 1 }
    }
}

/// I/O robustness counters of one [`FileStore`] (see
/// [`FileStore::io_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreIoStats {
    /// Spill writes re-attempted after a transient I/O error.
    pub spill_retries: u64,
    /// Restores re-attempted after a transient I/O error.
    pub restore_retries: u64,
    /// Spill operations abandoned: a permanent error, or retries
    /// exhausted.
    pub io_abandons: u64,
    /// Orphaned spill files reclaimed by the startup sweep.
    pub reclaimed_files: u64,
    /// Bytes those reclaimed files occupied.
    pub reclaimed_bytes: u64,
    /// Wall time the startup sweep took, in nanoseconds.
    pub reclaim_nanos: u64,
    /// Uncompressed payload bytes across all completed spill writes
    /// (rows × columns × 8; the pre-codec size).
    pub logical_bytes: u64,
    /// Bytes the encoded spill files actually occupied on disk
    /// (header + framed compressed extents + footer).
    pub encoded_bytes: u64,
    /// Nanoseconds I/O workers spent writing and reading spill files off
    /// the compute thread (0 with `io_threads: 0`).
    pub async_io_nanos: u64,
    /// Nanoseconds compute threads spent blocked on an in-flight ticket
    /// (the un-overlapped remainder of `async_io_nanos`).
    pub io_wait_nanos: u64,
}

/// Recover a poisoned lock: ticket and error state stay usable even if a
/// panicking thread died while holding the mutex (the data is plain state
/// with no broken invariants mid-update).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Where one spilled run's in-flight I/O currently stands.
#[derive(Debug)]
enum TicketState {
    /// The write job is queued or running. `read_requested` chains a
    /// prefetch: when the worker finishes the write it starts the read
    /// immediately instead of parking at `Written`.
    WritePending { read_requested: bool },
    /// The write failed permanently; the error waits for the consumer.
    WriteFailed(AggError),
    /// The file is on disk; no I/O in flight.
    Written,
    /// A prefetch read is queued or running.
    ReadPending,
    /// A prefetch finished; the decoded run (or its error) is parked
    /// here for the consumer.
    ReadDone(Box<Result<Run, AggError>>),
}

impl TicketState {
    fn is_pending(&self) -> bool {
        matches!(self, TicketState::WritePending { .. } | TicketState::ReadPending)
    }
}

/// The synchronization point between one spilled run's handle and the
/// I/O worker operating on its file: a tiny one-slot state machine.
#[derive(Debug)]
struct IoTicket {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl IoTicket {
    fn new(state: TicketState) -> Arc<Self> {
        Arc::new(Self { state: Mutex::new(state), cv: Condvar::new() })
    }

    fn lock(&self) -> MutexGuard<'_, TicketState> {
        lock(&self.state)
    }

    /// Publish a new state and wake every waiter.
    fn set(&self, state: TicketState) {
        *lock(&self.state) = state;
        self.cv.notify_all();
    }

    /// Block until no I/O is in flight, returning the guard plus the
    /// nanoseconds actually spent waiting (0 when the ticket was already
    /// idle — the fully overlapped case).
    fn wait_idle(&self) -> (MutexGuard<'_, TicketState>, u64) {
        let mut g = lock(&self.state);
        if !g.is_pending() {
            return (g, 0);
        }
        let t0 = Instant::now();
        while g.is_pending() {
            g = match self.cv.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        (g, t0.elapsed().as_nanos() as u64)
    }
}

/// One scratch file, shared by every run of the batch that was written
/// into it. The last owner to drop (handle or in-flight job) reclaims
/// the file: truncated to zero and parked in the store's reuse pool, or
/// unlinked when the pool is full.
#[derive(Debug)]
struct SpillFile {
    /// Keeps the reuse pool reachable from whichever thread drops the
    /// last reference (StoreCore cannot drop first — we hold it).
    core: Arc<StoreCore>,
    path: PathBuf,
    /// The open scratch-file descriptor, shared between the submitting
    /// thread, the I/O worker, and the handles. `Some` from the first
    /// write attempt on (or from submission, when the file came out of
    /// the store's reuse pool); the lock serializes the writer against
    /// readers — and concurrent readers of sibling runs against each
    /// other, since they share the descriptor's cursor. Kept open across
    /// the file's whole life because `open(O_CREAT)` dominates small
    /// spills on some filesystems (container overlay mounts: ~400µs per
    /// inode vs ~10µs to rewind a kept descriptor).
    file: Mutex<Option<File>>,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        // Truncate and park the file for reuse rather than unlinking it:
        // the next spill rewinds the kept descriptor instead of paying
        // `open(O_CREAT)`. An empty slot means the file was already
        // reclaimed (failed write) or never created — either way the
        // path may belong to a recycled successor, so leave it alone.
        match lock(&self.file).take() {
            Some(f) if f.set_len(0).is_ok() => {
                self.core.recycle(std::mem::take(&mut self.path), f);
            }
            Some(_) => {
                let _ = fs::remove_file(&self.path);
            }
            None => {}
        }
    }
}

/// Everything a worker needs to operate on one spilled run without
/// touching the run's handle.
#[derive(Clone, Debug)]
struct SpillMeta {
    /// The scratch file this run lives in, shared with its batch
    /// siblings.
    file: Arc<SpillFile>,
    /// This run's byte offset within the file. Published by the writer
    /// as it lays the batch out (encoding is deterministic, so retried
    /// attempts reproduce the same layout) and read only after the
    /// ticket settled, which orders the publication.
    offset: Arc<OnceLock<u64>>,
    rows: usize,
    n_cols: usize,
    aggregated: bool,
    source_rows: u64,
    level: u32,
    /// The reserved upper-bound size of this run's stream (also the
    /// torn-write detection reference for truncated files).
    nominal_bytes: u64,
}

impl SpillMeta {
    fn path(&self) -> &Path {
        &self.file.path
    }
}

/// One run of a batched spill write: payload, placement, and the ticket
/// its completion is published on.
struct WriteItem {
    run: Run,
    meta: SpillMeta,
    ticket: Arc<IoTicket>,
}

/// One unit of work for the I/O pool.
enum Job {
    /// Write every run of `batch` into its shared scratch file as one
    /// sequential stream, then settle each ticket (possibly chaining
    /// requested prefetch reads).
    Write {
        batch: Vec<WriteItem>,
        inject: Option<SpillFaultKind>,
        reservation: Arc<DiskReservation>,
    },
    /// Prefetch: decode `meta`'s stream into a parked `ReadDone`.
    Read { meta: SpillMeta, inject: Option<SpillFaultKind>, ticket: Arc<IoTicket> },
}

/// The spill I/O workers and the bounded channel that feeds them.
///
/// Workers never submit jobs themselves (chained prefetches run in-line
/// on the worker), so the pool cannot deadlock on its own channel; the
/// bounded depth (`2 × threads`) is the double-buffering backpressure —
/// a compute thread that out-runs the disk blocks on submission instead
/// of queueing unbounded run payloads.
#[derive(Debug)]
struct IoPool {
    /// `Some` for the pool's lifetime; taken in `Drop` so hanging up the
    /// channel (which stops the workers) precedes joining them.
    tx: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl IoPool {
    /// Spawn `threads` workers against `core`. Returns `None` when no
    /// worker could be spawned — the store then falls back to
    /// synchronous in-line I/O rather than failing.
    fn new(core: &Arc<StoreCore>, threads: usize) -> Option<Self> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(threads.max(1) * 2);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let core = Arc::clone(core);
            let rx = Arc::clone(&rx);
            let spawned = std::thread::Builder::new()
                .name(format!("hsa-spill-io-{i}"))
                .spawn(move || worker_loop(&core, &rx));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(_) => break,
            }
        }
        if workers.is_empty() {
            return None;
        }
        Some(Self { tx: Some(tx), workers })
    }

    /// Submit a job, handing it back if the workers are gone so the
    /// caller can run it in-line — a ticket must never be left pending
    /// with nobody to settle it.
    fn send(&self, job: Job) -> Result<(), Job> {
        match &self.tx {
            Some(tx) => tx.send(job).map_err(|e| e.0),
            None => Err(job),
        }
    }
}

impl Drop for IoPool {
    fn drop(&mut self) {
        // Hanging up the sender ends every worker's recv loop; joining
        // afterwards guarantees no thread outlives the store (and that
        // all queued I/O finished before the lock file retires).
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(core: &Arc<StoreCore>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Job pickup is serialized by the receiver mutex (held only for
        // the recv itself); execution runs in parallel across workers.
        let job = {
            let guard = lock(rx);
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        run_job(core, job);
    }
}

/// Execute one pool job and publish its outcome on the ticket.
fn run_job(core: &StoreCore, job: Job) {
    match job {
        Job::Write { batch, inject, reservation } => {
            let t0 = Instant::now();
            let result = core.perform_write(&batch, inject, &reservation);
            // ORDERING: Relaxed — monotonic statistics counter.
            core.async_io_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            // Release the payload memory and this side's reservation
            // clone *before* publishing any terminal state: a consumer
            // that observed completion must also observe both budgets
            // drained (the chaos suite asserts exactly that).
            let settled: Vec<(SpillMeta, Arc<IoTicket>)> =
                batch.into_iter().map(|item| (item.meta, item.ticket)).collect();
            drop(reservation);
            match result {
                Ok(()) => {
                    for (meta, ticket) in settled {
                        settle_write_job(core, meta, &ticket);
                    }
                }
                Err(e) => {
                    core.note_error(&e);
                    // The whole batch shares the file and the fate of
                    // its write: every handle reports the same failure.
                    // Job-side file references drop first (the write's
                    // error path already reclaimed the file, so these
                    // are no-ops), then the failures publish.
                    let tickets: Vec<Arc<IoTicket>> =
                        settled.into_iter().map(|(_, ticket)| ticket).collect();
                    for ticket in tickets {
                        ticket.set(TicketState::WriteFailed(e.clone()));
                    }
                }
            }
        }
        Job::Read { meta, inject, ticket } => {
            let t0 = Instant::now();
            let read = core.perform_read(&meta, inject);
            // ORDERING: Relaxed — statistics counter.
            core.async_io_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            // Job-side file reference drops before the result publishes,
            // mirroring `settle_write_job`.
            drop(meta);
            ticket.set(TicketState::ReadDone(Box::new(read)));
        }
    }
}

/// Worker-side completion of one run of a successfully written batch.
///
/// Releases the job's file reference (`meta`) *before* publishing the
/// terminal state — the same discipline as the run payload and the disk
/// reservation: once a consumer observes completion, the handles are the
/// only remaining owners of the scratch file, so dropping the last
/// handle reclaims it deterministically. A prefetch requested while the
/// write was in flight is chained here on the same worker; its fault
/// ordinal is consumed at read time.
fn settle_write_job(core: &StoreCore, meta: SpillMeta, ticket: &Arc<IoTicket>) {
    let mut g = ticket.lock();
    debug_assert!(
        matches!(*g, TicketState::WritePending { .. }),
        "settling a non-pending ticket: {g:?}"
    );
    if matches!(*g, TicketState::WritePending { read_requested: true }) {
        *g = TicketState::ReadPending;
        drop(g);
        let inject = core.faults.spill_read_fault();
        let t0 = Instant::now();
        let read = core.perform_read(&meta, inject);
        // ORDERING: Relaxed — statistics counter.
        core.async_io_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        drop(meta);
        ticket.set(TicketState::ReadDone(Box::new(read)));
    } else {
        // The file reference drops while the consumer is still parked on
        // `WritePending`; any reclaim I/O this triggers (the batch's
        // last reference) finishes before the state flips to `Written`.
        drop(meta);
        *g = TicketState::Written;
        ticket.cv.notify_all();
    }
}

/// The store state shared between the owning [`FileStore`] and its I/O
/// workers: directory identity, policies, counters, and the deferred
/// first-error slot.
#[derive(Debug)]
struct StoreCore {
    dir: PathBuf,
    pid: u32,
    seq: AtomicU64,
    faults: FaultInjector,
    disk: DiskBudget,
    retry: RetryPolicy,
    codec: SpillCodec,
    io_threads: usize,
    spill_retries: AtomicU64,
    restore_retries: AtomicU64,
    io_abandons: AtomicU64,
    logical_bytes: AtomicU64,
    encoded_bytes: AtomicU64,
    async_io_nanos: AtomicU64,
    io_wait_nanos: AtomicU64,
    reclaimed_files: u64,
    reclaimed_bytes: u64,
    reclaim_nanos: u64,
    /// First worker-side write error, held until the next
    /// synchronization point surfaces it (submit, drain, or `into_run`).
    first_error: Mutex<Option<AggError>>,
    /// Reclaimed scratch files parked for reuse, already truncated to
    /// zero, capped at [`FILE_POOL_CAP`]. See [`SpillMeta::file`].
    free_files: Mutex<Vec<(PathBuf, File)>>,
}

impl Drop for StoreCore {
    fn drop(&mut self) {
        // The parked-file pool dies with the store: close and unlink each
        // file so a clean shutdown leaves the spill directory empty.
        for (path, file) in lock(&self.free_files).drain(..) {
            drop(file);
            let _ = fs::remove_file(path);
        }
    }
}

impl StoreCore {
    /// Park a reclaimed scratch file — already truncated to zero — for
    /// the next spill to reuse, or unlink it when the pool is full.
    fn recycle(&self, path: PathBuf, file: File) {
        {
            let mut pool = lock(&self.free_files);
            if pool.len() < FILE_POOL_CAP {
                pool.push((path, file));
                return;
            }
        }
        drop(file);
        let _ = fs::remove_file(path);
    }

    /// Record a worker-side failure for deferred surfacing; only the
    /// first error is kept (later ones are usually the same root cause,
    /// and the handle that owns each failure still reports it directly).
    fn note_error(&self, e: &AggError) {
        let mut slot = lock(&self.first_error);
        if slot.is_none() {
            *slot = Some(e.clone());
        }
    }

    /// The full retried write of one spill batch to its shared scratch
    /// file. On success the reservation shrinks to the actual encoded
    /// total; on permanent failure it shrinks to zero (the file is
    /// already truncated empty), so a failed async write drains the disk
    /// budget without waiting for the handles to drop.
    fn perform_write(
        &self,
        batch: &[WriteItem],
        injected: Option<SpillFaultKind>,
        reservation: &DiskReservation,
    ) -> Result<(), AggError> {
        let Some(first) = batch.first() else { return Ok(()) };
        let sf = &first.meta.file;
        let mut attempt = 0u32;
        loop {
            let inject = if attempt == 0 { injected } else { None };
            match self.write_attempt(batch, inject) {
                Ok(actual) => {
                    reservation.shrink_to(actual);
                    let logical: u64 = batch
                        .iter()
                        .map(|it| (1 + it.run.n_cols() as u64) * it.run.len() as u64 * 8)
                        .sum();
                    // ORDERING: Relaxed — monotonic statistics counters.
                    self.logical_bytes.fetch_add(logical, Ordering::Relaxed);
                    self.encoded_bytes.fetch_add(actual, Ordering::Relaxed);
                    return Ok(());
                }
                Err(e) => {
                    // A failed attempt must not leave torn bytes behind:
                    // truncate in place (keeping the descriptor for the
                    // retry), or unlink if the file never opened.
                    match lock(&sf.file).as_ref() {
                        Some(f) => {
                            let _ = f.set_len(0);
                        }
                        None => {
                            let _ = fs::remove_file(&sf.path);
                        }
                    }
                    if self.retry.should_retry(attempt, &e) {
                        // ORDERING: Relaxed — statistics counter.
                        self.spill_retries.fetch_add(1, Ordering::Relaxed);
                        self.retry.backoff(attempt);
                        attempt += 1;
                    } else {
                        // ORDERING: Relaxed — statistics counter.
                        self.io_abandons.fetch_add(1, Ordering::Relaxed);
                        reservation.shrink_to(0);
                        // Reclaim the (empty) file now; the SpillFile's
                        // drop sees the empty descriptor slot and leaves
                        // the path alone, so a recycled successor is
                        // safe.
                        match lock(&sf.file).take() {
                            Some(f) if f.set_len(0).is_ok() => {
                                self.recycle(sf.path.clone(), f);
                            }
                            Some(_) | None => {
                                let _ = fs::remove_file(&sf.path);
                            }
                        }
                        return Err(AggError::SpillFailed {
                            message: format!("{}: {e}", sf.path.display()),
                        });
                    }
                }
            }
        }
    }

    /// One full write attempt of a batch: every run's self-contained
    /// stream (header, framed extents, footer) laid out back to back in
    /// the shared file, each run's start offset published as it is
    /// reached. `inject` simulates the requested storage fault partway
    /// through the byte stream (or, when compression keeps the stream
    /// short of the trigger offset, right after the last footer).
    /// Returns the actual bytes written.
    ///
    /// The first attempt on a fresh file opens (and keeps) the
    /// descriptor; reused or retried files just rewind and truncate it.
    fn write_attempt(
        &self,
        batch: &[WriteItem],
        inject: Option<SpillFaultKind>,
    ) -> io::Result<u64> {
        let sf = match batch.first() {
            Some(first) => &first.meta.file,
            None => return Ok(0),
        };
        let nominal: u64 = batch.iter().map(|it| it.meta.nominal_bytes).sum();
        let mut slot = lock(&sf.file);
        if let Some(f) = slot.as_mut() {
            f.seek(SeekFrom::Start(0))?;
            f.set_len(0)?;
        } else {
            *slot = Some(
                OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&sf.path)?,
            );
        }
        let file = slot.as_ref().ok_or_else(|| io::Error::other("spill descriptor missing"))?;
        let mut w = SpillWriter {
            inner: BufWriter::new(file),
            crc: Crc32c::new(),
            bytes: 0,
            // Fail mid-stream so partial-file handling is exercised.
            fail: inject.map(|k| (nominal / 2, k)),
        };
        for item in batch {
            // Offsets are deterministic across retries (same runs, same
            // codec), so the once-cell never sees a conflicting value.
            let _ = item.meta.offset.set(w.bytes);
            // Each run's stream carries its own rolling CRC; the footer
            // of the previous run must not leak into it.
            w.crc = Crc32c::new();
            let start = w.bytes;
            let run = &item.run;
            let header = [
                MAGIC,
                run.len() as u64,
                run.n_cols() as u64,
                run.aggregated as u64,
                run.source_rows,
                run.level as u64,
            ];
            for word in header {
                w.write_word(word)?;
            }
            let mut extents = write_column(&mut w, &run.keys, self.codec)?;
            for col in &run.cols {
                extents += write_column(&mut w, col, self.codec)?;
            }
            let body_bytes = w.bytes - start;
            let file_crc = w.crc.finalize() as u64;
            w.write_word(extents)?;
            w.write_word(body_bytes)?;
            w.write_word(file_crc)?;
            w.write_word(MAGIC)?;
        }
        w.fail_if_pending()?;
        debug_assert!(w.bytes <= nominal, "upper-bound size formula out of sync with writer");
        w.inner.flush()?;
        Ok(w.bytes)
    }

    /// The full retried read of one spilled run (sequential, extent by
    /// extent), verifying magic, shape, every extent's descriptor and
    /// payload CRC, and the footer. Transient I/O errors retry;
    /// verification failures are permanent and surface as
    /// [`AggError::SpillCorrupt`].
    fn perform_read(
        &self,
        meta: &SpillMeta,
        injected: Option<SpillFaultKind>,
    ) -> Result<Run, AggError> {
        if injected == Some(SpillFaultKind::ReadTruncate) {
            truncate_in_place(meta.path(), meta.offset.get().copied().unwrap_or(0));
        }
        let mut attempt = 0u32;
        loop {
            let inject = if attempt == 0 { injected } else { None };
            match self.read_attempt(meta, inject) {
                Ok(run) => return Ok(run),
                Err(ReadError::Corrupt { extent, expected, actual, what }) => {
                    // ORDERING: Relaxed — statistics counter.
                    self.io_abandons.fetch_add(1, Ordering::Relaxed);
                    return Err(AggError::SpillCorrupt {
                        path: meta.path().display().to_string(),
                        extent,
                        expected,
                        actual,
                        what: what.to_string(),
                    });
                }
                Err(ReadError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    // ORDERING: Relaxed — statistics counter.
                    self.io_abandons.fetch_add(1, Ordering::Relaxed);
                    let actual = fs::metadata(meta.path()).map(|m| m.len()).unwrap_or(0);
                    return Err(AggError::SpillCorrupt {
                        path: meta.path().display().to_string(),
                        extent: u64::MAX,
                        expected: meta.nominal_bytes,
                        actual,
                        what: "truncated".to_string(),
                    });
                }
                Err(ReadError::Io(e)) => {
                    if self.retry.should_retry(attempt, &e) {
                        // ORDERING: Relaxed — statistics counter.
                        self.restore_retries.fetch_add(1, Ordering::Relaxed);
                        self.retry.backoff(attempt);
                        attempt += 1;
                    } else {
                        // ORDERING: Relaxed — statistics counter.
                        self.io_abandons.fetch_add(1, Ordering::Relaxed);
                        return Err(AggError::SpillFailed {
                            message: format!("{}: {e}", meta.path().display()),
                        });
                    }
                }
            }
        }
    }

    /// One verified read attempt of a single run's stream, starting at
    /// its published offset within the shared scratch file.
    fn read_attempt(
        &self,
        meta: &SpillMeta,
        inject: Option<SpillFaultKind>,
    ) -> Result<Run, ReadError> {
        if inject == Some(SpillFaultKind::ReadEio) {
            return Err(ReadError::Io(io::Error::from_raw_os_error(5)));
        }
        let mut flip_pending = inject == Some(SpillFaultKind::ReadBitFlip);
        // The offset is published by the writer before the ticket
        // settles, and reads are gated on the settled ticket; an unset
        // cell (impossible on the normal path) degrades to offset 0,
        // where the magic check rejects a mispositioned read as
        // corruption rather than panicking.
        let offset = meta.offset.get().copied().unwrap_or(0);
        // Read through the kept write descriptor when there is one (the
        // seek is ~free; a fresh open is not on every filesystem),
        // falling back to an open by path. The descriptor lock serializes
        // this run's read against the writer and against sibling runs'
        // readers, which all share the cursor.
        let slot = lock(&meta.file.file);
        let opened;
        let mut file: &File = match slot.as_ref() {
            Some(f) => f,
            None => {
                opened = File::open(meta.path()).map_err(ReadError::Io)?;
                &opened
            }
        };
        file.seek(SeekFrom::Start(offset)).map_err(ReadError::Io)?;
        let mut r = SpillReader { inner: BufReader::new(file), crc: Crc32c::new(), bytes: 0 };
        let mut header = [0u64; 6];
        for word in header.iter_mut() {
            *word = r.read_word()?;
        }
        if header[0] != MAGIC {
            return Err(corrupt(u64::MAX, MAGIC, header[0], "magic"));
        }
        let rows = header[1] as usize;
        let n_cols = header[2] as usize;
        if rows != meta.rows {
            return Err(corrupt(u64::MAX, meta.rows as u64, rows as u64, "shape"));
        }
        if n_cols != meta.n_cols {
            return Err(corrupt(u64::MAX, meta.n_cols as u64, n_cols as u64, "shape"));
        }
        let mut extent = 0u64;
        let keys = read_column(&mut r, rows, &mut extent, &mut flip_pending)?;
        let mut cols = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            cols.push(read_column(&mut r, rows, &mut extent, &mut flip_pending)?);
        }
        let body_bytes = r.bytes;
        let mut file_crc = r.crc.finalize() as u64;
        if flip_pending {
            // A zero-extent file gave the injected bit flip no payload to
            // land in; corrupt the whole-file checksum instead so the
            // injection still proves the footer check fires.
            file_crc ^= 1;
        }
        let footer =
            [r.read_raw_word()?, r.read_raw_word()?, r.read_raw_word()?, r.read_raw_word()?];
        if footer[3] != MAGIC {
            return Err(corrupt(u64::MAX, MAGIC, footer[3], "footer magic"));
        }
        if footer[0] != extent {
            return Err(corrupt(u64::MAX, extent, footer[0], "extent count"));
        }
        if footer[1] != body_bytes {
            return Err(corrupt(u64::MAX, body_bytes, footer[1], "byte count"));
        }
        if footer[2] != file_crc {
            return Err(corrupt(u64::MAX, file_crc, footer[2], "file crc"));
        }
        Ok(Run {
            keys,
            cols,
            aggregated: header[3] != 0,
            source_rows: header[4],
            level: header[5] as u32,
        })
    }
}

/// A spill directory that materializes runs as per-process numbered
/// scratch files, streaming them through a small I/O worker pool.
///
/// Cloneable via `Arc`; the sequence counter makes concurrent spills from
/// many workers race-free without any locking.
#[derive(Debug)]
pub struct FileStore {
    core: Arc<StoreCore>,
    /// `None` = synchronous in-line I/O (`io_threads: 0`, or worker
    /// spawn failure).
    pool: Option<IoPool>,
}

impl FileStore {
    /// Open (creating if needed) a spill directory wired to an execution
    /// environment: spill writes reserve against `disk`, storage-level faults come from
    /// `faults`, `config` picks the codec and I/O thread count, and the
    /// directory is swept for scratch files orphaned by dead processes
    /// before any new file is written.
    pub fn with_config(
        dir: impl Into<PathBuf>,
        faults: FaultInjector,
        disk: DiskBudget,
        config: SpillConfig,
    ) -> Result<Self, AggError> {
        let dir = dir.into();
        let fail =
            |e: io::Error| AggError::SpillFailed { message: format!("{}: {e}", dir.display()) };
        fs::create_dir_all(&dir).map_err(fail)?;
        let pid = std::process::id();
        // The lock file marks this process as live so concurrent sweeps
        // by sibling processes leave our scratch alone. Removed on drop;
        // a crash leaves it behind, and the next sweep pairs it with a
        // liveness check before reclaiming.
        fs::write(dir.join(lock_name(pid)), pid.to_string()).map_err(fail)?;
        let t0 = Instant::now();
        let (reclaimed_files, reclaimed_bytes) = sweep_orphans(&dir, pid);
        let core = Arc::new(StoreCore {
            dir,
            pid,
            seq: AtomicU64::new(0),
            faults,
            disk,
            retry: RetryPolicy::default(),
            codec: config.codec,
            io_threads: config.io_threads,
            spill_retries: AtomicU64::new(0),
            restore_retries: AtomicU64::new(0),
            io_abandons: AtomicU64::new(0),
            logical_bytes: AtomicU64::new(0),
            encoded_bytes: AtomicU64::new(0),
            async_io_nanos: AtomicU64::new(0),
            io_wait_nanos: AtomicU64::new(0),
            reclaimed_files,
            reclaimed_bytes,
            reclaim_nanos: t0.elapsed().as_nanos() as u64,
            first_error: Mutex::new(None),
            free_files: Mutex::new(Vec::new()),
        });
        let pool =
            if config.io_threads == 0 { None } else { IoPool::new(&core, config.io_threads) };
        Ok(Self { core, pool })
    }

    /// The directory spill files are written to.
    pub fn dir(&self) -> &Path {
        &self.core.dir
    }

    /// The storage policy this store was opened with (`io_threads`
    /// reflects the request; a failed worker spawn degrades to
    /// synchronous I/O without changing it).
    pub fn config(&self) -> SpillConfig {
        SpillConfig { codec: self.core.codec, io_threads: self.core.io_threads }
    }

    /// This store's I/O robustness counters (retries, abandons, orphan
    /// reclamation, compression and overlap totals). Monotonic over the
    /// store's lifetime.
    pub fn io_stats(&self) -> StoreIoStats {
        StoreIoStats {
            // ORDERING: Relaxed — monotonic statistics counters read after
            // the operations they count; nothing is published through them.
            spill_retries: self.core.spill_retries.load(Ordering::Relaxed),
            restore_retries: self.core.restore_retries.load(Ordering::Relaxed),
            io_abandons: self.core.io_abandons.load(Ordering::Relaxed),
            reclaimed_files: self.core.reclaimed_files,
            reclaimed_bytes: self.core.reclaimed_bytes,
            reclaim_nanos: self.core.reclaim_nanos,
            logical_bytes: self.core.logical_bytes.load(Ordering::Relaxed),
            encoded_bytes: self.core.encoded_bytes.load(Ordering::Relaxed),
            async_io_nanos: self.core.async_io_nanos.load(Ordering::Relaxed),
            io_wait_nanos: self.core.io_wait_nanos.load(Ordering::Relaxed),
        }
    }

    /// The disk budget spill writes reserve against.
    pub fn disk_budget(&self) -> &DiskBudget {
        &self.core.disk
    }

    /// Upper bound on the on-disk size of `run`'s spill file, in bytes:
    /// the size when every extent escapes to the raw codec. The actual
    /// file is never larger ([`codec::encode`] only picks a compressed
    /// form when it is strictly smaller).
    fn file_size_upper(run: &Run) -> u64 {
        let rows = run.len() as u64;
        let columns = 1 + run.n_cols() as u64;
        let extents_per_col = rows.div_ceil(EXTENT_WORDS as u64);
        HEADER_BYTES
            + columns * rows * 8
            + columns * extents_per_col * EXTENT_OVERHEAD_BYTES
            + FOOTER_BYTES
    }

    /// Surface (and clear) the first deferred worker-side write error.
    ///
    /// Called automatically at the next spill submission; callers that
    /// stop spilling must drain once before trusting that all in-flight
    /// writes landed (`AggStream::finish` does).
    pub fn drain(&self) -> Result<(), AggError> {
        match lock(&self.core.first_error).take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Spill `run` to a scratch file of its own and return its handle;
    /// the single-run form of [`FileStore::write_batch`].
    pub fn write(&self, run: Run) -> Result<SpilledRun, AggError> {
        let mut handles = self.write_batch(vec![run])?;
        handles.pop().ok_or_else(|| AggError::SpillFailed {
            message: "spill batch returned no handle".to_string(),
        })
    }

    /// Spill a batch of runs into **one** shared scratch file — each
    /// run a self-contained verified stream at its own offset — and
    /// return their handles in submission order.
    ///
    /// Batching exists because inode creation, not data volume, dominates
    /// small spills on some filesystems: a sealed table flushing 256
    /// sub-bucket runs pays one `open(O_CREAT)` instead of 256. The file
    /// is reclaimed (truncated into the store's reuse pool) when the
    /// last of its handles drops.
    ///
    /// With an I/O pool this is **submit-and-continue**: the disk-budget
    /// reservation (at the batch's raw-size upper bound) and the fault
    /// ordinal are taken synchronously — so budget denials stay
    /// attributable to the submitting operator and injection order
    /// matches submission order — then the batch is handed to a worker
    /// and the call returns while the bytes stream out in the
    /// background. A worker-side failure fails every handle of the batch
    /// and is surfaced at the next synchronization point (the next
    /// write, [`FileStore::drain`], or a handle's `into_run`). Without a
    /// pool the write happens in-line and errors are returned directly.
    pub fn write_batch(&self, runs: Vec<Run>) -> Result<Vec<SpilledRun>, AggError> {
        self.drain()?;
        if runs.is_empty() {
            return Ok(Vec::new());
        }
        let nominals: Vec<u64> = runs.iter().map(Self::file_size_upper).collect();
        let total: u64 = nominals.iter().sum();
        let reservation = Arc::new(self.core.disk.try_reserve(total)?);
        // Prefer a parked reclaimed file (rewound, not re-created) over
        // minting a fresh name; the expensive open of a brand-new file
        // then happens on whichever thread performs the write.
        let (path, recycled) = match lock(&self.core.free_files).pop() {
            Some((path, file)) => (path, Some(file)),
            None => {
                // ORDERING: Relaxed — the RMW's atomicity alone makes
                // sequence numbers unique; no other memory rides on the
                // counter.
                let seq = self.core.seq.fetch_add(1, Ordering::Relaxed);
                (self.core.dir.join(format!("{SPILL_PREFIX}{}-{seq:08}.bin", self.core.pid)), None)
            }
        };
        let file =
            Arc::new(SpillFile { core: Arc::clone(&self.core), path, file: Mutex::new(recycled) });
        let tickets: Vec<Arc<IoTicket>> = runs
            .iter()
            .map(|_| {
                IoTicket::new(if self.pool.is_some() {
                    TicketState::WritePending { read_requested: false }
                } else {
                    TicketState::Written
                })
            })
            .collect();
        let batch: Vec<WriteItem> = runs
            .into_iter()
            .zip(&nominals)
            .zip(&tickets)
            .map(|((run, &nominal), ticket)| WriteItem {
                meta: SpillMeta {
                    file: Arc::clone(&file),
                    offset: Arc::new(OnceLock::new()),
                    rows: run.len(),
                    n_cols: run.n_cols(),
                    aggregated: run.aggregated,
                    source_rows: run.source_rows,
                    level: run.level,
                    nominal_bytes: nominal,
                },
                run,
                ticket: Arc::clone(ticket),
            })
            .collect();
        let handles: Vec<SpilledRun> = batch
            .iter()
            .map(|item| SpilledRun {
                meta: item.meta.clone(),
                _reservation: Arc::clone(&reservation),
                ticket: Arc::clone(&item.ticket),
            })
            .collect();
        // One storage-level fault ordinal per logical write operation
        // (the whole batch is one file write), consumed at submit time:
        // the injected misbehaviour hits the first attempt only, so a
        // transient flavor exercises exactly one retry.
        let inject = self.core.faults.spill_write_fault();
        if let Some(pool) = &self.pool {
            let job = Job::Write { batch, inject, reservation };
            if let Err(job) = pool.send(job) {
                // The workers are gone (shutdown race): run the job
                // in-line so no ticket can hang forever.
                run_job(&self.core, job);
            }
        } else {
            self.core.perform_write(&batch, inject, &reservation)?;
        }
        Ok(handles)
    }

    /// Ask an I/O worker to start decoding `spilled` in the background
    /// so the consumer's later `into_run` finds the rows already parked.
    ///
    /// A no-op on a synchronous store, on a ticket that already has I/O
    /// in flight, or after the run was prefetched. If the write is still
    /// in flight the read is chained onto it worker-side.
    fn prefetch(&self, spilled: &SpilledRun) {
        let Some(pool) = &self.pool else { return };
        let mut g = spilled.ticket.lock();
        match &mut *g {
            TicketState::WritePending { read_requested } => *read_requested = true,
            TicketState::Written => {
                *g = TicketState::ReadPending;
                drop(g);
                // The read fault ordinal is consumed at submit, mirroring
                // the write side: prefetch order = injection order.
                let inject = self.core.faults.spill_read_fault();
                let job = Job::Read {
                    meta: spilled.meta.clone(),
                    inject,
                    ticket: Arc::clone(&spilled.ticket),
                };
                if let Err(job) = pool.send(job) {
                    run_job(&self.core, job);
                }
            }
            // Failed, in-flight, or already prefetched: nothing to do.
            _ => {}
        }
    }

    /// Read a spilled run back into memory, synchronizing with any
    /// in-flight write or prefetch on its ticket first.
    fn read(&self, spilled: &SpilledRun) -> Result<Run, AggError> {
        let (mut g, waited) = spilled.ticket.wait_idle();
        if waited > 0 {
            // ORDERING: Relaxed — statistics counter.
            self.core.io_wait_nanos.fetch_add(waited, Ordering::Relaxed);
        }
        match std::mem::replace(&mut *g, TicketState::Written) {
            TicketState::ReadDone(parked) => *parked,
            TicketState::WriteFailed(e) => Err(e),
            TicketState::Written => {
                drop(g);
                // Not prefetched: decode in-line on the consumer, with
                // this restore's fault ordinal.
                let inject = self.core.faults.spill_read_fault();
                self.core.perform_read(&spilled.meta, inject)
            }
            // `wait_idle` cannot return a pending state; keep the error
            // typed rather than panicking in release builds.
            state @ (TicketState::WritePending { .. } | TicketState::ReadPending) => {
                debug_assert!(false, "wait_idle returned pending state {state:?}");
                *g = state;
                Err(AggError::SpillFailed {
                    message: "spill ticket still in flight after wait".to_string(),
                })
            }
        }
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        // Stop and join the I/O workers first: all queued writes land
        // (or fail and unlink) before the liveness marker retires, so a
        // sweeping sibling never sees live scratch without its lock.
        drop(self.pool.take());
        // A clean shutdown retires this process's liveness marker so a
        // later sweep can reclaim anything it failed to delete. Crashes
        // skip this — that is exactly the case the sweep's pid liveness
        // check covers.
        let _ = fs::remove_file(self.core.dir.join(lock_name(self.core.pid)));
    }
}

fn lock_name(pid: u32) -> String {
    format!("{SPILL_PREFIX}{pid}.lock")
}

/// Parse `hsarun-<pid>-<seq>.bin` / `hsarun-<pid>.lock` names into
/// `(pid, is_lock)`.
fn parse_spill_name(name: &str) -> Option<(u32, bool)> {
    let rest = name.strip_prefix(SPILL_PREFIX)?;
    if let Some(pid) = rest.strip_suffix(".lock") {
        return pid.parse().ok().map(|p| (p, true));
    }
    let stem = rest.strip_suffix(".bin")?;
    let (pid, _seq) = stem.split_once('-')?;
    pid.parse().ok().map(|p| (p, false))
}

/// Whether `pid` belongs to a live process. The lock file is the primary
/// signal; on Linux `/proc` breaks the tie for locks a crashed process
/// left behind. Elsewhere a present lock is trusted (conservative: a
/// crash that kept its lock leaks until a Linux sweep or manual cleanup).
fn pid_alive(dir: &Path, pid: u32) -> bool {
    if !dir.join(lock_name(pid)).exists() {
        return false;
    }
    if cfg!(target_os = "linux") {
        return Path::new(&format!("/proc/{pid}")).exists();
    }
    true
}

/// Remove spill files (and stale locks) of dead processes. Returns
/// `(files, bytes)` reclaimed; best-effort — an unreadable directory
/// reclaims nothing rather than failing the query.
fn sweep_orphans(dir: &Path, self_pid: u32) -> (u64, u64) {
    let Ok(entries) = fs::read_dir(dir) else { return (0, 0) };
    let mut files = 0u64;
    let mut bytes = 0u64;
    let mut stale_locks = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some((pid, is_lock)) = parse_spill_name(name) else { continue };
        if pid == self_pid || pid_alive(dir, pid) {
            continue;
        }
        if is_lock {
            // Locks go last: removing one mid-sweep would flip the
            // liveness verdict for that pid's remaining files.
            stale_locks.push(entry.path());
        } else {
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if fs::remove_file(entry.path()).is_ok() {
                files += 1;
                bytes += len;
            }
        }
    }
    for lock in stale_locks {
        let _ = fs::remove_file(lock);
    }
    (files, bytes)
}

/// Truncate the file mid-way through the run stream that starts at
/// `offset` (the `ReadTruncate` injection: simulates a torn write
/// discovered at restore time). The cut lands just past the stream's
/// header — inside its first extent, or its footer for an empty run —
/// so the targeted read always hits EOF no matter where the stream sits
/// in a shared batch file.
fn truncate_in_place(path: &Path, offset: u64) {
    if let Ok(file) = fs::OpenOptions::new().write(true).open(path) {
        let _ = file.set_len(offset + HEADER_BYTES + 8);
    }
}

/// Build a verification-mismatch error. Convention: `expected` is the
/// value the verifier required (recomputed checksum, counted words),
/// `actual` the value the file actually held.
fn corrupt(extent: u64, expected: u64, actual: u64, what: &'static str) -> ReadError {
    ReadError::Corrupt { extent, expected, actual, what }
}

/// Why a read attempt failed: plain I/O (maybe transient, retried) or a
/// verification mismatch (permanent).
enum ReadError {
    Io(io::Error),
    Corrupt { extent: u64, expected: u64, actual: u64, what: &'static str },
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Byte sink that maintains the rolling whole-file CRC and byte count,
/// and can simulate an injected failure partway through the stream.
struct SpillWriter<W: Write> {
    inner: W,
    crc: Crc32c,
    bytes: u64,
    /// Injected fault: once the stream reaches this byte offset, write
    /// only up to it and fail with the kind's error.
    fail: Option<(u64, SpillFaultKind)>,
}

impl<W: Write> SpillWriter<W> {
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

    /// The trigger offset is half the *nominal* (raw upper-bound) size,
    /// so compression can finish the whole stream without ever crossing
    /// it. Fire any still-armed fault here, after the footer, so every
    /// planned write fault fires exactly once per attempt regardless of
    /// how well the run compressed.
    fn fail_if_pending(&mut self) -> io::Result<()> {
        match self.fail.take() {
            Some((_, kind)) => Err(injected_io_error(kind)),
            None => Ok(()),
        }
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
    /// the file CRC cannot cover itself).
    fn read_raw_word(&mut self) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        self.inner.read_exact(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }
}

/// Write one column as fixed-boundary extents (the last may be short),
/// each encoded under `policy` and framed with descriptor, descriptor
/// CRC, padded payload, and trailer. Returns the extent count.
fn write_column<W: Write>(
    w: &mut SpillWriter<W>,
    col: &ChunkedVec<u64>,
    policy: SpillCodec,
) -> io::Result<u64> {
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
                flush_extent(w, &mut words, &mut enc, &mut extents, policy)?;
            }
        }
    }
    if !words.is_empty() {
        flush_extent(w, &mut words, &mut enc, &mut extents, policy)?;
    }
    Ok(extents)
}

fn flush_extent<W: Write>(
    w: &mut SpillWriter<W>,
    words: &mut Vec<u64>,
    enc: &mut Vec<u8>,
    extents: &mut u64,
    policy: SpillCodec,
) -> io::Result<()> {
    let codec_id = codec::encode(words, policy, enc);
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
/// running global extent ordinal (for error reports); `flip_pending`
/// injects a single encoded-payload bit flip when set.
fn read_column<R: Read>(
    r: &mut SpillReader<R>,
    rows: usize,
    extent: &mut u64,
    flip_pending: &mut bool,
) -> Result<ChunkedVec<u64>, ReadError> {
    let mut out = ChunkedVec::new();
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
            // The rolling file CRC already consumed the true bytes; the
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

/// A run that lives in a spill file rather than in memory.
///
/// Carries the metadata the driver needs to schedule the run without
/// touching disk (row count, level, aggregation flag). Owns its file,
/// its disk-budget reservation, and the [`IoTicket`] of any in-flight
/// I/O: dropping the handle waits for the I/O to settle, reclaims the
/// scratch file (truncated into the store's reuse pool), and releases
/// the reserved bytes — exactly once, on every path, including a restore
/// that errored mid-read.
#[derive(Debug)]
pub struct SpilledRun {
    meta: SpillMeta,
    /// RAII only (hence the underscore): shared with the write job while
    /// it is in flight and with the batch's sibling handles; the budget
    /// bytes release when the last clone drops (or earlier, via
    /// `shrink_to` on completion/failure).
    _reservation: Arc<DiskReservation>,
    ticket: Arc<IoTicket>,
}

impl SpilledRun {
    /// Reserved upper-bound size of this run's spill stream (header +
    /// raw-size payload + framing + footer). The encoded stream on disk
    /// is never larger; see [`StoreIoStats::encoded_bytes`] for actual
    /// totals.
    pub fn bytes(&self) -> u64 {
        self.meta.nominal_bytes
    }

    /// Path of the backing scratch file (shared with the run's batch
    /// siblings, if any).
    pub fn path(&self) -> &Path {
        self.meta.path()
    }
}

impl Drop for SpilledRun {
    fn drop(&mut self) {
        // Wait out any in-flight job first: the worker released the run
        // payload and its reservation clone before publishing a terminal
        // state, so after this wait our `meta.file` reference may be the
        // last one — dropping it (a field) then reclaims the scratch
        // file via [`SpillFile::drop`], with batch siblings keeping it
        // alive until the last of them retires. The disk reservation
        // releases the same way, so file and bytes retire together.
        let (guard, _) = self.ticket.wait_idle();
        drop(guard);
    }
}

/// A run behind a storage handle: resident in memory or spilled to disk.
#[derive(Debug)]
pub enum RunHandle {
    /// The run is resident; the handle owns its rows.
    Mem(Run),
    /// The run was flushed to a [`FileStore`]; the handle owns the file.
    Spilled(Arc<FileStore>, SpilledRun),
}

impl RunHandle {
    /// Number of rows in the run.
    pub fn len(&self) -> usize {
        match self {
            RunHandle::Mem(run) => run.len(),
            RunHandle::Spilled(_, s) => s.meta.rows,
        }
    }

    /// True if the run holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of state columns.
    pub fn n_cols(&self) -> usize {
        match self {
            RunHandle::Mem(run) => run.n_cols(),
            RunHandle::Spilled(_, s) => s.meta.n_cols,
        }
    }

    /// Whether the rows are partial aggregates (see [`Run::aggregated`]).
    pub fn aggregated(&self) -> bool {
        match self {
            RunHandle::Mem(run) => run.aggregated,
            RunHandle::Spilled(_, s) => s.meta.aggregated,
        }
    }

    /// Original input rows this run represents (see [`Run::source_rows`]).
    pub fn source_rows(&self) -> u64 {
        match self {
            RunHandle::Mem(run) => run.source_rows,
            RunHandle::Spilled(_, s) => s.meta.source_rows,
        }
    }

    /// Radix level of the run.
    pub fn level(&self) -> u32 {
        match self {
            RunHandle::Mem(run) => run.level,
            RunHandle::Spilled(_, s) => s.meta.level,
        }
    }

    /// True if this handle is backed by a spill file.
    pub fn is_spilled(&self) -> bool {
        matches!(self, RunHandle::Spilled(..))
    }

    /// Reserved upper-bound spill bytes for spilled handles, 0 for
    /// resident ones. Restore accounting uses the same number, so
    /// spilled and restored byte totals stay comparable.
    pub fn spilled_bytes(&self) -> u64 {
        match self {
            RunHandle::Mem(_) => 0,
            RunHandle::Spilled(_, s) => s.bytes(),
        }
    }

    /// Hint that this handle will be consumed soon: start decoding it on
    /// an I/O worker so the eventual [`into_run`](Self::into_run) finds
    /// the rows already in memory. No-op for resident handles and
    /// synchronous stores; safe to call at most once per handle (extra
    /// calls are ignored).
    pub fn prefetch(&self) {
        if let RunHandle::Spilled(store, s) = self {
            store.prefetch(s);
        }
    }

    /// Materialize the run, reading it back from disk if it was spilled
    /// (or collecting the prefetched rows if a worker already did).
    ///
    /// Consumes the handle; for spilled runs the scratch file is deleted
    /// once the returned [`Run`] is built — or once the restore has
    /// failed (the handle's drop deletes it exactly once either way).
    ///
    /// # Errors
    /// [`AggError::SpillCorrupt`] when verification failed,
    /// [`AggError::SpillFailed`] for unrecoverable plain I/O trouble —
    /// including an asynchronous *write* failure not yet surfaced
    /// elsewhere.
    pub fn into_run(self) -> Result<Run, AggError> {
        match self {
            RunHandle::Mem(run) => Ok(run),
            RunHandle::Spilled(store, spilled) => store.read(&spilled),
        }
    }
}

/// The run storage policy for one operator invocation.
///
/// `in_memory()` is the MemStore backend: every handle stays resident and
/// budget exhaustion remains a hard denial. `spilling_to(dir)` attaches a
/// shared [`FileStore`] so run producers can downgrade a denied
/// reservation into a spill instead of failing the query.
#[derive(Clone, Debug, Default)]
pub struct RunStore {
    file: Option<Arc<FileStore>>,
}

impl RunStore {
    /// Memory-only storage: no spill capability.
    pub fn in_memory() -> Self {
        Self { file: None }
    }

    /// Storage backed by a spill directory (created if missing), with no
    /// fault injection, no disk limit, and the default [`SpillConfig`].
    pub fn spilling_to(dir: impl Into<PathBuf>) -> Result<Self, AggError> {
        Self::spilling_with_config(
            dir,
            FaultInjector::none(),
            DiskBudget::unlimited(),
            SpillConfig::default(),
        )
    }

    /// Storage backed by a spill directory wired to an execution
    /// environment (fault injector + disk budget) with an explicit
    /// [`SpillConfig`]; see [`FileStore::with_config`].
    pub fn spilling_with_config(
        dir: impl Into<PathBuf>,
        faults: FaultInjector,
        disk: DiskBudget,
        config: SpillConfig,
    ) -> Result<Self, AggError> {
        Ok(Self { file: Some(Arc::new(FileStore::with_config(dir, faults, disk, config)?)) })
    }

    /// True if a spill directory is configured.
    pub fn can_spill(&self) -> bool {
        self.file.is_some()
    }

    /// The backing file store, if any.
    pub fn file_store(&self) -> Option<&Arc<FileStore>> {
        self.file.as_ref()
    }

    /// The backing store's I/O robustness counters, if any.
    pub fn io_stats(&self) -> Option<StoreIoStats> {
        self.file.as_ref().map(|s| s.io_stats())
    }

    /// Surface any deferred asynchronous write error (see
    /// [`FileStore::drain`]); `Ok` for memory-only stores.
    pub fn drain(&self) -> Result<(), AggError> {
        self.file.as_ref().map_or(Ok(()), |s| s.drain())
    }

    /// Flush a run to the spill directory and return its handle. With an
    /// I/O pool this submits and continues — the run's memory is handed
    /// to the worker and freed there once written.
    ///
    /// # Errors
    /// [`AggError::DiskBudgetExceeded`] when the spill budget denies the
    /// file's bytes, [`AggError::SpillFailed`] for unrecoverable I/O
    /// (including a memory-only store, which cannot spill at all, and
    /// deferred failures of earlier asynchronous writes).
    pub fn spill(&self, run: Run) -> Result<RunHandle, AggError> {
        let Some(store) = &self.file else {
            return Err(AggError::SpillFailed {
                message: "no spill directory configured".to_string(),
            });
        };
        let spilled = store.write(run)?;
        Ok(RunHandle::Spilled(Arc::clone(store), spilled))
    }

    /// Flush a batch of runs into **one** shared spill file and return
    /// their handles in submission order; see [`FileStore::write_batch`]
    /// for the layout and failure semantics. Producers that flush many
    /// small runs at once (a sealed table's per-digit sub-runs) use this
    /// to pay one file creation per flush instead of one per run.
    ///
    /// # Errors
    /// As [`RunStore::spill`]; a batch fails or succeeds as a unit.
    pub fn spill_batch(&self, runs: Vec<Run>) -> Result<Vec<RunHandle>, AggError> {
        let Some(store) = &self.file else {
            return Err(AggError::SpillFailed {
                message: "no spill directory configured".to_string(),
            });
        };
        let spilled = store.write_batch(runs)?;
        Ok(spilled.into_iter().map(|s| RunHandle::Spilled(Arc::clone(store), s)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_fault::{FaultPlan, SpillFault};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsa-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_run() -> Run {
        let mut run = Run::empty(3, 2, true);
        for i in 0..10_000u64 {
            run.keys.push(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            run.cols[0].push(i);
            run.cols[1].push(u64::MAX - i);
        }
        run.source_rows = 12_345;
        run
    }

    /// Sorted keys, constant + slowly varying columns: every extent
    /// should compress well under Auto.
    fn compressible_run(rows: u64) -> Run {
        let mut run = Run::empty(1, 2, false);
        for i in 0..rows {
            run.keys.push(i * 16);
            run.cols[0].push(42);
            run.cols[1].push(i / 100);
        }
        run.source_rows = rows;
        run
    }

    fn rows_of(run: &Run) -> (Vec<u64>, Vec<Vec<u64>>) {
        (run.keys.to_vec(), run.cols.iter().map(|c| c.to_vec()).collect())
    }

    fn injected(kind: SpillFaultKind, nth: u64) -> FaultInjector {
        FaultInjector::new(FaultPlan {
            spill_io: Some(SpillFault { nth, kind }),
            ..FaultPlan::none()
        })
    }

    fn cfg(codec: SpillCodec, io_threads: usize) -> SpillConfig {
        SpillConfig { codec, io_threads }
    }

    /// A store with synchronous in-line I/O: files are fully on disk the
    /// moment `spill` returns, which several tests below rely on.
    fn sync_store(dir: &Path) -> RunStore {
        RunStore::spilling_with_config(
            dir,
            FaultInjector::none(),
            DiskBudget::unlimited(),
            cfg(SpillCodec::Auto, 0),
        )
        .unwrap()
    }

    /// A default-configured store wired to `faults` and `disk`.
    fn env_store(dir: &Path, faults: FaultInjector, disk: DiskBudget) -> RunStore {
        RunStore::spilling_with_config(dir, faults, disk, SpillConfig::default()).unwrap()
    }

    fn handle_path(handle: &RunHandle) -> PathBuf {
        match handle {
            RunHandle::Spilled(_, s) => s.path().to_path_buf(),
            RunHandle::Mem(_) => unreachable!("expected a spilled handle"),
        }
    }

    /// Block until `handle`'s in-flight I/O (if any) has settled,
    /// without consuming it — test-only window into the ticket.
    fn settle(handle: &RunHandle) {
        if let RunHandle::Spilled(_, s) = handle {
            let (guard, _) = s.ticket.wait_idle();
            drop(guard);
        }
    }

    #[test]
    fn spill_round_trip_preserves_rows_and_meta() {
        let dir = temp_dir("roundtrip");
        let store = RunStore::spilling_to(&dir).unwrap();
        let run = sample_run();
        let handle = store.spill(run.clone()).unwrap();
        assert!(handle.is_spilled());
        assert_eq!(handle.len(), run.len());
        assert_eq!(handle.level(), run.level);
        assert_eq!(handle.source_rows(), run.source_rows);
        assert!(handle.spilled_bytes() >= (run.len() as u64) * 8 * 3);
        let back = handle.into_run().unwrap();
        assert_eq!(back.keys.to_vec(), run.keys.to_vec());
        for (b, r) in back.cols.iter().zip(&run.cols) {
            assert_eq!(b.to_vec(), r.to_vec());
        }
        assert_eq!(back.aggregated, run.aggregated);
        assert_eq!(back.source_rows, run.source_rows);
        assert_eq!(back.level, run.level);
        store.drain().unwrap();
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_zero_column_runs_round_trip() {
        let dir = temp_dir("shapes");
        let store = RunStore::spilling_to(&dir).unwrap();
        for run in [Run::empty(0, 0, false), Run::empty(7, 4, true)] {
            let (n_cols, level, aggregated) = (run.n_cols(), run.level, run.aggregated);
            let back = store.spill(run).unwrap().into_run().unwrap();
            assert_eq!(back.len(), 0);
            assert_eq!(back.n_cols(), n_cols);
            assert_eq!(back.level, level);
            assert_eq!(back.aggregated, aggregated);
        }
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_a_handle_parks_the_scratch_file_for_reuse() {
        let dir = temp_dir("cleanup");
        let store = sync_store(&dir);
        let handle = store.spill(sample_run()).unwrap();
        let path = handle_path(&handle);
        assert!(fs::metadata(&path).unwrap().len() > 0);
        drop(handle);
        // Reclaim truncates the file into the reuse pool...
        assert_eq!(fs::metadata(&path).unwrap().len(), 0, "reclaimed file is parked empty");
        // ...the next spill picks it up instead of minting a new name...
        let next = store.spill(sample_run()).unwrap();
        assert_eq!(handle_path(&next), path, "next spill reuses the parked file");
        drop(next);
        // ...and dropping the store unlinks whatever is still parked.
        drop(store);
        assert!(!path.exists(), "parked files retire with the store");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_store_refuses_to_spill() {
        let store = RunStore::in_memory();
        assert!(!store.can_spill());
        let err = store.spill(sample_run()).unwrap_err();
        assert!(matches!(err, AggError::SpillFailed { .. }), "{err:?}");
        store.drain().unwrap();
    }

    #[test]
    fn mem_handles_are_transparent() {
        let run = sample_run();
        let (len, level) = (run.len(), run.level);
        let handle = RunHandle::Mem(run);
        assert!(!handle.is_spilled());
        assert_eq!(handle.spilled_bytes(), 0);
        assert_eq!(handle.len(), len);
        assert_eq!(handle.level(), level);
        handle.prefetch(); // no-op for resident runs
        assert_eq!(handle.into_run().unwrap().len(), len);
    }

    #[test]
    fn upper_bound_is_exact_uncompressed_and_loose_compressed() {
        let dir = temp_dir("sizes");
        // Codec Off: every extent is raw, so the upper bound is exact.
        let off = RunStore::spilling_with_config(
            &dir,
            FaultInjector::none(),
            DiskBudget::unlimited(),
            cfg(SpillCodec::Off, 0),
        )
        .unwrap();
        for rows in [0usize, 1, EXTENT_WORDS - 1, EXTENT_WORDS, EXTENT_WORDS + 1, 3 * EXTENT_WORDS]
        {
            let mut run = Run::empty(0, 1, false);
            for i in 0..rows as u64 {
                run.keys.push(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                run.cols[0].push(i.rotate_left(7) ^ 0xdead_beef);
            }
            let handle = off.spill(run).unwrap();
            let on_disk = fs::metadata(handle_path(&handle)).unwrap().len();
            assert_eq!(on_disk, handle.spilled_bytes(), "rows {rows}");
            assert_eq!(handle.into_run().unwrap().len(), rows);
        }
        drop(off);
        // Codec Auto on compressible data: strictly under the bound.
        let auto = sync_store(&dir);
        let run = compressible_run(3 * EXTENT_WORDS as u64);
        let handle = auto.spill(run.clone()).unwrap();
        let on_disk = fs::metadata(handle_path(&handle)).unwrap().len();
        assert!(
            on_disk < handle.spilled_bytes() / 2,
            "compressible run should shrink well below the {} byte bound, got {on_disk}",
            handle.spilled_bytes()
        );
        let stats = auto.io_stats().unwrap();
        assert_eq!(stats.logical_bytes, 3 * run.len() as u64 * 8);
        assert_eq!(stats.encoded_bytes, on_disk);
        assert_eq!(rows_of(&handle.into_run().unwrap()), rows_of(&run));
        drop(auto);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_tracks_the_encoded_file_while_it_lives() {
        let dir = temp_dir("diskbudget");
        let disk = DiskBudget::limited(1 << 20);
        let store = RunStore::spilling_with_config(
            &dir,
            FaultInjector::none(),
            disk.clone(),
            cfg(SpillCodec::Auto, 0),
        )
        .unwrap();
        let handle = store.spill(compressible_run(10_000)).unwrap();
        let on_disk = fs::metadata(handle_path(&handle)).unwrap().len();
        assert_eq!(disk.outstanding(), on_disk, "reservation shrank to the encoded size");
        assert!(disk.outstanding() <= handle.spilled_bytes());
        assert!(disk.high_water() >= handle.spilled_bytes(), "peak saw the nominal reservation");
        let run = handle.into_run().unwrap();
        assert_eq!(disk.outstanding(), 0, "restore consumed the handle and released the bytes");
        drop(run);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_denial_is_typed_and_leaves_no_file() {
        let dir = temp_dir("diskdenied");
        let disk = DiskBudget::limited(64);
        let store = env_store(&dir, FaultInjector::none(), disk.clone());
        let err = store.spill(sample_run()).unwrap_err();
        assert!(matches!(err, AggError::DiskBudgetExceeded { .. }), "{err:?}");
        assert_eq!(disk.outstanding(), 0);
        assert_eq!(spill_files_in(&dir), 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    fn spill_files_in(dir: &Path) -> usize {
        fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".bin")))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Spill files still holding bytes — parked reuse-pool files are
    /// truncated to zero, so only live (or torn) files count here.
    fn live_spill_files_in(dir: &Path) -> usize {
        fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".bin")))
                    .filter(|e| e.metadata().map(|m| m.len() > 0).unwrap_or(true))
                    .count()
            })
            .unwrap_or(0)
    }

    #[cfg(not(miri))]
    #[test]
    fn transient_write_faults_retry_to_success() {
        for kind in [SpillFaultKind::WriteEio, SpillFaultKind::WriteShort] {
            let dir = temp_dir(&format!("retry-{kind:?}"));
            let store = env_store(&dir, injected(kind, 1), DiskBudget::unlimited());
            let run = sample_run();
            let back = store.spill(run.clone()).unwrap().into_run().unwrap();
            assert_eq!(back.keys.to_vec(), run.keys.to_vec(), "{kind:?}");
            assert_eq!(back.cols[1].to_vec(), run.cols[1].to_vec(), "{kind:?}");
            let stats = store.io_stats().unwrap();
            assert_eq!(stats.spill_retries, 1, "{kind:?}");
            assert_eq!(stats.io_abandons, 0, "{kind:?}");
            store.drain().expect("retried write is not an error");
            drop(store);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[cfg(not(miri))]
    #[test]
    fn enospc_write_fault_is_permanent_and_unlinks_the_partial_file() {
        let dir = temp_dir("enospc");
        let disk = DiskBudget::limited(1 << 20);
        let store = env_store(&dir, injected(SpillFaultKind::WriteEnospc, 1), disk.clone());
        // Async store: the submission succeeds, the failure surfaces when
        // the handle is consumed.
        let handle = store.spill(sample_run()).unwrap();
        settle(&handle);
        assert_eq!(disk.outstanding(), 0, "failed write drains the budget while in flight");
        let err = handle.into_run().unwrap_err();
        assert!(matches!(err, AggError::SpillFailed { .. }), "{err:?}");
        assert!(err.to_string().contains("os error 28"), "{err}");
        assert_eq!(live_spill_files_in(&dir), 0, "partial file must be truncated");
        let stats = store.io_stats().unwrap();
        assert_eq!(stats.io_abandons, 1);
        assert_eq!(stats.spill_retries, 0);
        drop(store);
        assert_eq!(spill_files_in(&dir), 0, "parked files retire with the store");
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn async_write_failure_surfaces_at_the_next_submission_and_at_drain() {
        let dir = temp_dir("asyncfail");
        let disk = DiskBudget::limited(1 << 20);
        let store = env_store(&dir, injected(SpillFaultKind::WriteEnospc, 1), disk.clone());
        let doomed = store.spill(sample_run()).unwrap();
        settle(&doomed);
        // The *next* submission reports the earlier failure...
        let err = store.spill(compressible_run(64)).unwrap_err();
        assert!(matches!(err, AggError::SpillFailed { .. }), "{err:?}");
        assert!(err.to_string().contains("os error 28"), "{err}");
        // ...after which the slot is clear and spilling works again.
        store.drain().unwrap();
        let ok = store.spill(compressible_run(64)).unwrap();
        assert_eq!(ok.into_run().unwrap().len(), 64);
        // The doomed handle still reports its own failure on consumption.
        assert!(doomed.into_run().is_err());
        assert_eq!(disk.outstanding(), 0);
        drop(store);
        assert_eq!(spill_files_in(&dir), 0, "no leaked scratch after an async failure");
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn transient_read_fault_retries_to_success() {
        let dir = temp_dir("readretry");
        let store = env_store(&dir, injected(SpillFaultKind::ReadEio, 1), DiskBudget::unlimited());
        let run = sample_run();
        let back = store.spill(run.clone()).unwrap().into_run().unwrap();
        assert_eq!(back.keys.to_vec(), run.keys.to_vec());
        let stats = store.io_stats().unwrap();
        assert_eq!(stats.restore_retries, 1);
        assert_eq!(stats.io_abandons, 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn bit_flip_on_read_surfaces_as_extent_crc_corruption() {
        let dir = temp_dir("bitflip");
        let store =
            env_store(&dir, injected(SpillFaultKind::ReadBitFlip, 1), DiskBudget::unlimited());
        let err = store.spill(sample_run()).unwrap().into_run().unwrap_err();
        match err {
            AggError::SpillCorrupt { what, extent, .. } => {
                assert_eq!(what, "extent crc");
                assert_eq!(extent, 0, "the flip lands in the first extent");
            }
            other => panic!("expected SpillCorrupt, got {other:?}"),
        }
        assert_eq!(live_spill_files_in(&dir), 0, "failed restore still reclaims the file");
        drop(store);
        assert_eq!(spill_files_in(&dir), 0, "parked files retire with the store");
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn bit_flip_in_a_compressed_extent_is_still_detected() {
        let dir = temp_dir("bitflip-comp");
        let store =
            env_store(&dir, injected(SpillFaultKind::ReadBitFlip, 1), DiskBudget::unlimited());
        // Every extent of this run compresses (delta/RLE), so the flip
        // necessarily lands in an encoded payload.
        let err = store.spill(compressible_run(10_000)).unwrap().into_run().unwrap_err();
        match err {
            AggError::SpillCorrupt { what, extent, .. } => {
                assert_eq!(what, "extent crc", "CRC over encoded bytes catches the flip");
                assert_eq!(extent, 0);
            }
            other => panic!("expected SpillCorrupt, got {other:?}"),
        }
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn truncate_on_read_surfaces_as_corruption() {
        let dir = temp_dir("truncate");
        let store =
            env_store(&dir, injected(SpillFaultKind::ReadTruncate, 1), DiskBudget::unlimited());
        let err = store.spill(sample_run()).unwrap().into_run().unwrap_err();
        match err {
            AggError::SpillCorrupt { what, .. } => assert_eq!(what, "truncated"),
            other => panic!("expected SpillCorrupt, got {other:?}"),
        }
        assert_eq!(live_spill_files_in(&dir), 0);
        drop(store);
        assert_eq!(spill_files_in(&dir), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The acceptance-criteria invariant: for every codec and thread
    /// count, spilled-and-restored rows are bit-identical to the
    /// synchronous uncompressed path.
    #[cfg(not(miri))]
    #[test]
    fn every_codec_and_thread_count_round_trips_bit_identically() {
        let runs =
            [sample_run(), compressible_run(2 * EXTENT_WORDS as u64 + 17), Run::empty(2, 1, true)];
        let expected: Vec<_> = runs.iter().map(rows_of).collect();
        for codec in [SpillCodec::Auto, SpillCodec::Delta, SpillCodec::Rle, SpillCodec::Off] {
            for io_threads in [0usize, 1, 2] {
                let dir = temp_dir(&format!("matrix-{codec}-{io_threads}"));
                let store = RunStore::spilling_with_config(
                    &dir,
                    FaultInjector::none(),
                    DiskBudget::unlimited(),
                    cfg(codec, io_threads),
                )
                .unwrap();
                let handles: Vec<_> =
                    runs.iter().map(|r| store.spill(r.clone()).unwrap()).collect();
                for h in &handles {
                    h.prefetch();
                }
                for (h, want) in handles.into_iter().zip(&expected) {
                    let got = rows_of(&h.into_run().unwrap());
                    assert_eq!(&got, want, "codec {codec} io_threads {io_threads}");
                }
                store.drain().unwrap();
                drop(store);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[cfg(not(miri))]
    #[test]
    fn prefetch_parks_rows_and_counts_background_nanos() {
        let dir = temp_dir("prefetch");
        let store = RunStore::spilling_to(&dir).unwrap();
        let run = sample_run();
        // Prefetch requested while the write may still be in flight:
        // the worker chains the read.
        let chained = store.spill(run.clone()).unwrap();
        chained.prefetch();
        assert_eq!(rows_of(&chained.into_run().unwrap()), rows_of(&run));
        // Prefetch on a settled handle: a standalone read job.
        let settled = store.spill(run.clone()).unwrap();
        settle(&settled);
        settled.prefetch();
        settled.prefetch(); // idempotent
        assert_eq!(rows_of(&settled.into_run().unwrap()), rows_of(&run));
        let stats = store.io_stats().unwrap();
        assert!(stats.async_io_nanos > 0, "worker time was recorded: {stats:?}");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn concurrent_spills_and_prefetches_from_many_threads_round_trip() {
        let dir = temp_dir("mt");
        let store = RunStore::spilling_with_config(
            &dir,
            FaultInjector::none(),
            DiskBudget::unlimited(),
            cfg(SpillCodec::Auto, 2),
        )
        .unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..8u64 {
                        let run = compressible_run(1000 + t * 97 + i);
                        let want = rows_of(&run);
                        let handle = store.spill(run).unwrap();
                        if i % 2 == 0 {
                            handle.prefetch();
                        }
                        assert_eq!(rows_of(&handle.into_run().unwrap()), want);
                    }
                });
            }
        });
        store.drain().unwrap();
        drop(store);
        assert_eq!(spill_files_in(&dir), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn orphan_sweep_reclaims_files_of_dead_pids_and_spares_the_living() {
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        // A dead process: spill file present, no lock file (or, on Linux,
        // a lock whose pid does not exist — covered below).
        let dead = dir.join("hsarun-999999999-00000001.bin");
        fs::write(&dead, vec![0u8; 256]).unwrap();
        // Our own files are never swept, lock or not.
        let mine = dir.join(format!("hsarun-{}-99999999.bin", std::process::id()));
        fs::write(&mine, b"mine").unwrap();
        // Unrelated names are left alone.
        let other = dir.join("run-00000000.bin");
        fs::write(&other, b"legacy").unwrap();

        let store = RunStore::spilling_to(&dir).unwrap();
        let stats = store.io_stats().unwrap();
        assert_eq!(stats.reclaimed_files, 1, "exactly the dead pid's file");
        assert_eq!(stats.reclaimed_bytes, 256);
        assert!(!dead.exists());
        assert!(mine.exists());
        assert!(other.exists());
        drop(store);
        assert!(
            !dir.join(lock_name(std::process::id())).exists(),
            "clean drop retires the lock file"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(all(not(miri), target_os = "linux"))]
    #[test]
    fn orphan_sweep_uses_proc_liveness_to_break_lock_ties() {
        let dir = temp_dir("sweep-proc");
        fs::create_dir_all(&dir).unwrap();
        // A crashed process left both its lock and a spill file; the pid
        // is not alive, so both must go.
        let pid = 999_999_998u32;
        fs::write(dir.join(lock_name(pid)), pid.to_string()).unwrap();
        let stale = dir.join(format!("hsarun-{pid}-00000003.bin"));
        fs::write(&stale, vec![1u8; 64]).unwrap();
        // Pid 1 is always alive on Linux: lock + file survive.
        fs::write(dir.join(lock_name(1)), "1").unwrap();
        let live = dir.join("hsarun-1-00000000.bin");
        fs::write(&live, b"live").unwrap();

        let store = RunStore::spilling_to(&dir).unwrap();
        assert_eq!(store.io_stats().unwrap().reclaimed_files, 1);
        assert!(!stale.exists());
        assert!(!dir.join(lock_name(pid)).exists(), "stale lock swept too");
        assert!(live.exists(), "files of live processes are spared");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_name_parsing() {
        assert_eq!(parse_spill_name("hsarun-123-00000007.bin"), Some((123, false)));
        assert_eq!(parse_spill_name("hsarun-123.lock"), Some((123, true)));
        assert_eq!(parse_spill_name("run-00000007.bin"), None);
        assert_eq!(parse_spill_name("hsarun-x-00000007.bin"), None);
        assert_eq!(parse_spill_name("hsarun-123-7.tmp"), None);
    }
}
