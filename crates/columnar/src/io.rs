//! The spill store's one I/O path: jobs, the tickets their outcomes are
//! published on, and the executor that runs them.
//!
//! Every write and every prefetch is a [`Job`]; [`Executor::submit`] is
//! the only way one runs, and [`run_job`] the only code that runs it —
//! on a worker thread when the executor has any, on the submitting thread
//! when it has none (`io_threads: 0`, or no worker could be spawned).
//! The two differ in exactly one thing: who receives a write's failure.
//! A job run by its submitter returns it; a job run by a worker has
//! nobody to return it to, so the failure is parked in the store's
//! first-error slot (and on the job's tickets) for the next
//! synchronization point to surface.
//!
//! # Backpressure
//!
//! The queue is bounded in *bytes* of run payload, queued or being
//! written ([`QUEUE_BYTES`]): a submitted run is memory no budget accounts
//! until a worker has written it, so what must be bounded is how much of
//! it exists, not how many jobs it is cut into. A submitter that out-runs
//! the disk blocks until enough bytes retire — write-behind sized against
//! a fixed grant, in the external-sort tradition. A job larger than the
//! whole bound is admitted alone. Workers never submit, so the executor
//! cannot deadlock on its own queue.

use crate::codec::SpillCodec;
use crate::format::{read_run, ReadError, SpillWriter, HEADER_BYTES};
use crate::run::Run;
use hsa_fault::{
    AggError, DiskBudget, DiskReservation, FaultInjector, RetryPolicy, SpillFaultKind,
};
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Most run-payload bytes a store's executor holds at once, queued or
/// being written. Everything else about spill memory follows from it —
/// see [`Executor::segment_bytes`].
pub(crate) const QUEUE_BYTES: u64 = 24 << 20;

/// Recover a poisoned lock: ticket, queue and error state stay usable
/// even if a panicking thread died while holding the mutex (the data is
/// plain state with no broken invariants mid-update).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Where one spilled run's I/O currently stands.
#[derive(Debug)]
pub(crate) enum TicketState {
    /// The write job is queued or running — every ticket starts here.
    WritePending,
    /// The write failed permanently; the error waits for the consumer.
    WriteFailed(AggError),
    /// The stream is on disk; no I/O in flight.
    Written,
    /// A prefetch read is queued or running.
    ReadPending,
    /// A prefetch finished; the decoded run (or its error) is parked
    /// here for the consumer.
    ReadDone(Box<Result<Run, AggError>>),
}

impl TicketState {
    fn is_pending(&self) -> bool {
        matches!(self, TicketState::WritePending | TicketState::ReadPending)
    }
}

/// The synchronization point between one spilled run's handle and the
/// job operating on its stream: a tiny one-slot state machine.
#[derive(Debug)]
pub(crate) struct IoTicket {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl IoTicket {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self { state: Mutex::new(TicketState::WritePending), cv: Condvar::new() })
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, TicketState> {
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
    pub(crate) fn wait_idle(&self) -> (MutexGuard<'_, TicketState>, u64) {
        let mut g = lock(&self.state);
        if !g.is_pending() {
            return (g, 0);
        }
        let t0 = Instant::now();
        while g.is_pending() {
            g = wait(&self.cv, g);
        }
        (g, t0.elapsed().as_nanos() as u64)
    }
}

/// One segment file, shared by every run that was written into it. The
/// last owner to drop — handle or in-flight job — closes and unlinks it.
#[derive(Debug)]
pub(crate) struct SpillFile {
    pub(crate) path: PathBuf,
    /// The open descriptor, shared between the writing job and the
    /// handles. `Some` from the first write attempt on; the lock
    /// serializes the writer against readers — and concurrent readers of
    /// sibling runs against each other, since they share the descriptor's
    /// cursor. Kept open across the file's whole life because a segment
    /// is restored run by run: hundreds of reads through one descriptor
    /// instead of an `open` each (~400µs per inode on container overlay
    /// mounts vs ~10µs to seek).
    file: Mutex<Option<File>>,
}

impl SpillFile {
    pub(crate) fn new(path: PathBuf) -> Arc<Self> {
        Arc::new(Self { path, file: Mutex::new(None) })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        drop(lock(&self.file).take());
        // A file that was never created, or already unlinked by its
        // failed write, has nothing to remove; names are never reused.
        let _ = fs::remove_file(&self.path);
    }
}

/// Everything a job needs to operate on one spilled run without touching
/// the run's handle.
#[derive(Clone, Debug)]
pub(crate) struct SpillMeta {
    /// The segment file this run lives in, shared with its siblings.
    pub(crate) file: Arc<SpillFile>,
    /// This run's byte offset within the file. Published by the writer
    /// as it lays the segment out (encoding is deterministic, so retried
    /// attempts reproduce the same layout) and read only after the
    /// ticket settled, which orders the publication.
    pub(crate) offset: Arc<OnceLock<u64>>,
    pub(crate) rows: usize,
    pub(crate) n_cols: usize,
    pub(crate) aggregated: bool,
    pub(crate) source_rows: u64,
    pub(crate) level: u32,
    /// The reserved upper-bound size of this run's stream (also the
    /// torn-write detection reference for truncated files).
    pub(crate) nominal_bytes: u64,
}

impl SpillMeta {
    pub(crate) fn path(&self) -> &Path {
        &self.file.path
    }
}

/// One run of a segment write: payload, placement, and the ticket its
/// completion is published on.
pub(crate) struct WriteItem {
    pub(crate) run: Run,
    pub(crate) meta: SpillMeta,
    pub(crate) ticket: Arc<IoTicket>,
}

/// One unit of spill I/O.
pub(crate) enum Job {
    /// Write every run of `batch` into its shared segment file as one
    /// sequential stream, then settle each ticket.
    Write {
        batch: Vec<WriteItem>,
        inject: Option<SpillFaultKind>,
        reservation: Arc<DiskReservation>,
    },
    /// Prefetch: decode `meta`'s stream into a parked `ReadDone`.
    Read { meta: SpillMeta, inject: Option<SpillFaultKind>, ticket: Arc<IoTicket> },
}

/// Execute one job and publish its outcome on its tickets. A read's
/// outcome — rows or error — belongs to the run's consumer and is only
/// parked on the ticket; a write's failure is also returned.
///
/// `on_worker` is the job's start time when a worker runs it: the
/// duration then counts as I/O a compute thread could overlap with, and
/// a write's failure — which a worker has nobody to return to — is parked
/// in the first-error slot *before* the tickets publish, so whoever sees a
/// failed ticket finds the slot already set.
fn run_job(core: &StoreCore, job: Job, on_worker: Option<Instant>) -> Result<(), AggError> {
    let clock = || {
        if let Some(t0) = on_worker {
            // ORDERING: Relaxed — monotonic statistics counter.
            core.async_io_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    };
    match job {
        Job::Write { batch, inject, reservation } => {
            let result = core.perform_write(&batch, inject, &reservation);
            clock();
            if let (Err(e), Some(_)) = (&result, on_worker) {
                core.note_error(e);
            }
            // Release the payload memory, this side's reservation clone
            // and this side's file references *before* publishing any
            // terminal state: a consumer that observed completion must
            // also observe both budgets drained (the chaos suite asserts
            // exactly that), and finds the handles the only remaining
            // owners of the segment file, so dropping the last handle
            // unlinks it deterministically.
            let tickets: Vec<Arc<IoTicket>> = batch.into_iter().map(|item| item.ticket).collect();
            drop(reservation);
            for ticket in tickets {
                debug_assert!(matches!(*ticket.lock(), TicketState::WritePending));
                // The whole segment shares the file and the fate of its
                // write: on failure every handle reports the same error.
                ticket.set(match &result {
                    Ok(()) => TicketState::Written,
                    Err(e) => TicketState::WriteFailed(e.clone()),
                });
            }
            result
        }
        Job::Read { meta, inject, ticket } => {
            let read = core.perform_read(&meta, inject);
            clock();
            // The job's file reference drops before the result publishes,
            // as on the write side.
            drop(meta);
            ticket.set(TicketState::ReadDone(Box::new(read)));
            Ok(())
        }
    }
}

/// The store state every job runs against, shared between the owning
/// `FileStore` and the executor's workers: directory identity, policies,
/// counters, and the deferred first-error slot.
#[derive(Debug)]
pub(crate) struct StoreCore {
    pub(crate) dir: PathBuf,
    pub(crate) pid: u32,
    pub(crate) seq: AtomicU64,
    pub(crate) faults: FaultInjector,
    pub(crate) disk: DiskBudget,
    pub(crate) retry: RetryPolicy,
    pub(crate) codec: SpillCodec,
    pub(crate) spill_retries: AtomicU64,
    pub(crate) restore_retries: AtomicU64,
    pub(crate) io_abandons: AtomicU64,
    pub(crate) logical_bytes: AtomicU64,
    pub(crate) encoded_bytes: AtomicU64,
    pub(crate) async_io_nanos: AtomicU64,
    pub(crate) io_wait_nanos: AtomicU64,
    pub(crate) reclaimed_files: u64,
    pub(crate) reclaimed_bytes: u64,
    pub(crate) reclaim_nanos: u64,
    /// First write error no submitter was there to receive, held until
    /// the next synchronization point surfaces it (submit or drain).
    pub(crate) first_error: Mutex<Option<AggError>>,
}

impl StoreCore {
    /// Record a failure for deferred surfacing; only the
    /// first error is kept (later ones are usually the same root cause,
    /// and the handle that owns each failure still reports it directly).
    fn note_error(&self, e: &AggError) {
        let mut slot = lock(&self.first_error);
        if slot.is_none() {
            *slot = Some(e.clone());
        }
    }

    /// The full retried write of one segment to its file. On success the
    /// reservation shrinks to the actual encoded total; on permanent
    /// failure it shrinks to zero and the file is unlinked, so a failed
    /// write drains the disk budget without waiting for the handles to
    /// drop.
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
                    // truncate in place, keeping the descriptor for the
                    // retry (no descriptor: the open failed, no bytes).
                    if let Some(f) = lock(&sf.file).as_ref() {
                        let _ = f.set_len(0);
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
                        drop(lock(&sf.file).take());
                        let _ = fs::remove_file(&sf.path);
                        return Err(AggError::SpillFailed {
                            message: format!("{}: {e}", sf.path.display()),
                        });
                    }
                }
            }
        }
    }

    /// One full write attempt of a segment: every run's self-contained
    /// stream laid out back to back in the shared file, each run's start
    /// offset published as it is reached. `inject` simulates the
    /// requested storage fault partway through the byte stream (or, when
    /// compression keeps the stream short of the trigger offset, right
    /// after the last footer). Returns the actual bytes written.
    ///
    /// The first attempt opens (and keeps) the descriptor; retries rewind
    /// and truncate it.
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
        // Fail mid-stream so partial-file handling is exercised.
        let mut w = SpillWriter::new(BufWriter::new(file), inject.map(|k| (nominal / 2, k)));
        for item in batch {
            // Offsets are deterministic across retries (same runs, same
            // codec), so the once-cell never sees a conflicting value.
            let _ = item.meta.offset.set(w.bytes);
            w.write_run(&item.run, self.codec)?;
        }
        let actual = w.finish()?;
        debug_assert!(actual <= nominal, "upper-bound size formula out of sync with writer");
        Ok(actual)
    }

    /// The full retried read of one spilled run (sequential, extent by
    /// extent), verified end to end by [`read_run`]. Transient I/O errors
    /// retry; verification failures are permanent and surface as
    /// [`AggError::SpillCorrupt`].
    pub(crate) fn perform_read(
        &self,
        meta: &SpillMeta,
        injected: Option<SpillFaultKind>,
    ) -> Result<Run, AggError> {
        // The offset is published by the writer before the ticket
        // settles, and reads are gated on the settled ticket; an unset
        // cell (impossible on the normal path) degrades to offset 0,
        // where the magic check rejects a mispositioned read as
        // corruption rather than panicking.
        let offset = meta.offset.get().copied().unwrap_or(0);
        if injected == Some(SpillFaultKind::ReadTruncate) {
            truncate_in_place(meta.path(), offset);
        }
        let mut attempt = 0u32;
        loop {
            let inject = if attempt == 0 { injected } else { None };
            let (extent, expected, actual, what) = match self.read_attempt(meta, offset, inject) {
                Ok(run) => return Ok(run),
                Err(ReadError::Corrupt { extent, expected, actual, what }) => {
                    (extent, expected, actual, what)
                }
                Err(ReadError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    let actual = fs::metadata(meta.path()).map(|m| m.len()).unwrap_or(0);
                    (u64::MAX, meta.nominal_bytes, actual, "truncated")
                }
                Err(ReadError::Io(e)) if self.retry.should_retry(attempt, &e) => {
                    // ORDERING: Relaxed — statistics counter.
                    self.restore_retries.fetch_add(1, Ordering::Relaxed);
                    self.retry.backoff(attempt);
                    attempt += 1;
                    continue;
                }
                Err(ReadError::Io(e)) => {
                    // ORDERING: Relaxed — statistics counter.
                    self.io_abandons.fetch_add(1, Ordering::Relaxed);
                    return Err(AggError::SpillFailed {
                        message: format!("{}: {e}", meta.path().display()),
                    });
                }
            };
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
    }

    /// One verified read attempt of a single run's stream through the
    /// segment's kept descriptor. The descriptor lock serializes this read
    /// against sibling runs' readers, which all share the cursor.
    fn read_attempt(
        &self,
        meta: &SpillMeta,
        offset: u64,
        inject: Option<SpillFaultKind>,
    ) -> Result<Run, ReadError> {
        if inject == Some(SpillFaultKind::ReadEio) {
            return Err(ReadError::Io(io::Error::from_raw_os_error(5)));
        }
        let slot = lock(&meta.file.file);
        // Reads are gated on a `Written` ticket, and a written segment
        // keeps its descriptor until its last owner drops.
        let mut file: &File =
            slot.as_ref().ok_or_else(|| io::Error::other("spill descriptor missing"))?;
        file.seek(SeekFrom::Start(offset))?;
        let flip = inject == Some(SpillFaultKind::ReadBitFlip);
        read_run(BufReader::new(file), meta.rows, meta.n_cols, flip)
    }
}

/// Truncate the file mid-way through the run stream that starts at
/// `offset` (the `ReadTruncate` injection: simulates a torn write
/// discovered at restore time). The cut lands just past the stream's
/// header — inside its first extent, or its footer for an empty run —
/// so the targeted read always hits EOF no matter where the stream sits
/// in a shared segment file.
fn truncate_in_place(path: &Path, offset: u64) {
    if let Ok(file) = fs::OpenOptions::new().write(true).open(path) {
        let _ = file.set_len(offset + HEADER_BYTES + 8);
    }
}

/// The executor's queue: jobs (with their payload bytes) waiting for a
/// worker, and the payload bytes of every job admitted and not yet
/// finished.
struct Queue {
    jobs: VecDeque<(Job, u64)>,
    in_flight: u64,
    /// Set once, by [`Executor::join`]: workers finish the queue and exit.
    closed: bool,
    #[cfg(test)]
    peak_in_flight: u64,
}

struct Shared {
    core: Arc<StoreCore>,
    bound: u64,
    queue: Mutex<Queue>,
    /// Workers wait here for a job (or the close).
    work: Condvar,
    /// Submitters wait here for payload bytes to retire.
    room: Condvar,
}

/// Runs the store's jobs: on its workers behind a byte-bounded queue, or
/// — with no workers — on the thread that submits them.
pub(crate) struct Executor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("workers", &self.workers.len()).finish_non_exhaustive()
    }
}

impl Executor {
    /// Spawn up to `threads` workers against `core`, admitting at most
    /// `bound` payload bytes at once. A worker that cannot be spawned is
    /// done without; with none at all every job runs on its submitter.
    pub(crate) fn new(core: Arc<StoreCore>, threads: usize, bound: u64) -> Self {
        let shared = Arc::new(Shared {
            core,
            bound,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                in_flight: 0,
                closed: false,
                #[cfg(test)]
                peak_in_flight: 0,
            }),
            work: Condvar::new(),
            room: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("hsa-spill-io-{i}"))
                .spawn(move || worker_loop(&shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(_) => break,
            }
        }
        Self { shared, workers }
    }

    /// Run `job`, which keeps `bytes` of run payload in memory until it
    /// has run (a read keeps none): here and now when there is no worker
    /// — its failure is then the return value — or by handing it to the
    /// workers, blocking first until its payload fits under the bound (a
    /// job that can never fit waits for an empty executor instead).
    pub(crate) fn submit(&self, job: Job, bytes: u64) -> Result<(), AggError> {
        if self.workers.is_empty() {
            return run_job(&self.shared.core, job, None);
        }
        let mut q = lock(&self.shared.queue);
        while q.in_flight > 0 && q.in_flight + bytes > self.shared.bound {
            q = wait(&self.shared.room, q);
        }
        q.in_flight += bytes;
        #[cfg(test)]
        {
            q.peak_in_flight = q.peak_in_flight.max(q.in_flight);
        }
        q.jobs.push_back((job, bytes));
        drop(q);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Most run payload the store puts in one segment file (a single
    /// larger run is a segment of its own): a third of the bound, so one
    /// segment can stream out while the next two wait.
    pub(crate) fn segment_bytes(&self) -> u64 {
        self.shared.bound / 3
    }

    /// `(in flight now, most ever in flight)` payload bytes.
    #[cfg(test)]
    pub(crate) fn queue_bytes(&self) -> (u64, u64) {
        let q = lock(&self.shared.queue);
        (q.in_flight, q.peak_in_flight)
    }

    /// Let the workers finish everything queued, then join them. After
    /// this no thread of the store is running and all its I/O has landed
    /// (or failed and unlinked).
    pub(crate) fn join(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.join();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (job, bytes) = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(entry) = q.jobs.pop_front() {
                    break entry;
                }
                if q.closed {
                    return;
                }
                q = wait(&shared.work, q);
            }
        };
        // A failed write is already parked where its consumers will look.
        let _ = run_job(&shared.core, job, Some(Instant::now()));
        lock(&shared.queue).in_flight -= bytes;
        shared.room.notify_all();
    }
}
