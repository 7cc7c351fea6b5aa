//! The spill store's one I/O path: jobs, the tickets their outcomes are
//! published on, and the executor that runs them.
//!
//! Every segment write is a [`WriteJob`]; [`Executor::submit`] is the
//! only way one runs, and [`run_write`] the only code that runs it — on a
//! worker thread when the executor has any, on the submitting thread when
//! it has none (`io_threads: 0`, or no worker could be spawned). The two
//! differ in exactly one thing: who receives a write's failure. A job run
//! by its submitter returns it; a job run by a worker has nobody to
//! return it to, so the failure is parked in the store's first-error slot
//! (and on the job's tickets) for the next synchronization point to
//! surface.
//!
//! Restores are read ahead of their consumer from a *plan*: the runs of
//! one recursion level in the order they will be consumed
//! ([`Executor::plan`]). A worker with no write to do decodes the plan's
//! next run and parks it on the run's ticket, for as long as parked and
//! in-decode runs fit the read window. Writes always go first — they free
//! memory, and a read that is paced by its consumer must never hold one
//! up. A consumer that reaches a run before a worker did takes it out of
//! the plan and decodes it itself ([`Executor::claim`]); either way
//! [`StoreCore::perform_read`] is the one code path that reads.
//!
//! # Backpressure
//!
//! The executor holds a bounded number of *bytes* of run payload
//! ([`QUEUE_BYTES`]): runs submitted and not yet written, plus runs read
//! ahead and not yet collected. Neither is memory any budget accounts, so
//! what must be bounded is how much of it exists, not how many jobs it is
//! cut into. A submitter that out-runs the disk blocks until enough bytes
//! retire — write-behind sized against a fixed grant, in the external-sort
//! tradition — and read-ahead stops at a fixed fraction of the same grant
//! (`Shared::read_window`). A write waits only for other writes, which
//! workers retire on their own: parked reads retire when their consumer
//! collects them, and that consumer may be the submitter. A job larger
//! than what is left of the bound is therefore admitted once no write is
//! ahead of it. Workers never submit, so the executor cannot deadlock on
//! its own queue.

use crate::depot::DepotAccount;
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

/// Most run-payload bytes a store's executor holds at once: runs queued
/// or being written, and runs read ahead of their consumer. Everything
/// else about spill memory follows from it — see
/// [`Executor::segment_bytes`] and `Shared::read_window`.
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
    /// A worker took the run from the plan and is decoding it.
    ReadPending,
    /// The read-ahead finished; the decoded run (or its error) is parked
    /// here for the consumer, still charged to the executor's bound.
    ReadDone(Box<Result<Run, AggError>>, Charge),
    /// The consumer took the run — parked rows, or the read itself.
    Taken,
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

    /// True while no worker has started reading the run and no consumer
    /// has taken it: only then can the plan still name it.
    pub(crate) fn is_unread(&self) -> bool {
        matches!(*lock(&self.state), TicketState::WritePending | TicketState::Written)
    }
}

/// Bytes of one read-ahead run held against the executor's bound, from
/// the moment a worker takes the run off the plan until whoever ends up
/// with the decoded rows — the consumer, or the dropped handle's ticket —
/// lets go of them.
pub(crate) struct Charge {
    shared: Arc<Shared>,
    bytes: u64,
}

impl std::fmt::Debug for Charge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Charge").field("bytes", &self.bytes).finish_non_exhaustive()
    }
}

impl Drop for Charge {
    fn drop(&mut self) {
        let mut q = lock(&self.shared.queue);
        q.in_flight -= self.bytes;
        q.reading -= self.bytes;
        // A worker that filled the window is asleep, and waking it costs
        // this thread more than collecting the run did: leave it until
        // half the window is open, so one wake reads several runs.
        let refill = !q.plan.is_empty() && q.reading <= self.shared.read_window() / 2;
        drop(q);
        if refill {
            self.shared.work.notify_one();
        }
        self.shared.room.notify_all();
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
        // failed write, has nothing to remove; a process never reuses a
        // name, whichever of its stores drew it.
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
    /// The depot account the spilled run's chunks were lent through; the
    /// restored run's chunks are lent through it again.
    pub(crate) account: DepotAccount,
}

impl SpillMeta {
    pub(crate) fn path(&self) -> &Path {
        &self.file.path
    }

    /// Memory the decoded run will occupy, known before reading it.
    pub(crate) fn decoded_bytes(&self) -> u64 {
        (self.rows * (1 + self.n_cols) * 8) as u64
    }
}

/// One run of a segment write: payload, placement, and the ticket its
/// completion is published on.
pub(crate) struct WriteItem {
    pub(crate) run: Run,
    pub(crate) meta: SpillMeta,
    pub(crate) ticket: Arc<IoTicket>,
}

/// One segment write: every run of `batch` goes into its shared segment
/// file as one sequential stream, then each ticket settles.
pub(crate) struct WriteJob {
    pub(crate) batch: Vec<WriteItem>,
    pub(crate) inject: Option<SpillFaultKind>,
    pub(crate) reservation: Arc<DiskReservation>,
}

/// One entry of the read-ahead plan.
struct PlannedRead {
    meta: SpillMeta,
    ticket: Arc<IoTicket>,
    /// The bucket the run belongs to; a bucket's entries are adjacent.
    bucket: u64,
}

/// Execute one write and publish its outcome on its tickets; its failure
/// is also returned.
///
/// `on_worker` is the job's start time when a worker runs it: the
/// duration then counts as I/O a compute thread could overlap with, and
/// the failure — which a worker has nobody to return to — is parked in
/// the first-error slot *before* the tickets publish, so whoever sees a
/// failed ticket finds the slot already set.
fn run_write(core: &StoreCore, job: WriteJob, on_worker: Option<Instant>) -> Result<(), AggError> {
    let WriteJob { batch, inject, reservation } = job;
    let result = core.perform_write(&batch, inject, &reservation);
    if let Some(t0) = on_worker {
        core.clock_worker(t0);
        if let Err(e) = &result {
            core.note_error(e);
        }
    }
    // Release the payload memory, this side's reservation clone and this
    // side's file references *before* publishing any terminal state: a
    // consumer that observed completion must also observe both budgets
    // drained (the chaos suite asserts exactly that), and finds the
    // handles the only remaining owners of the segment file, so dropping
    // the last handle unlinks it deterministically.
    let tickets: Vec<Arc<IoTicket>> = batch.into_iter().map(|item| item.ticket).collect();
    drop(reservation);
    for ticket in tickets {
        debug_assert!(matches!(*ticket.lock(), TicketState::WritePending));
        // The whole segment shares the file and the fate of its write: on
        // failure every handle reports the same error.
        ticket.set(match &result {
            Ok(()) => TicketState::Written,
            Err(e) => TicketState::WriteFailed(e.clone()),
        });
    }
    result
}

/// Decode one planned run on a worker and park the outcome — rows or
/// error, it belongs to the run's consumer — on its ticket, together with
/// the charge for the memory the rows hold.
fn run_read(core: &StoreCore, read: PlannedRead, charge: Charge) {
    let t0 = Instant::now();
    let PlannedRead { meta, ticket, .. } = read;
    let outcome = core.perform_read(&meta);
    core.clock_worker(t0);
    // The worker's file reference drops before the result publishes, as
    // on the write side.
    drop(meta);
    ticket.set(TicketState::ReadDone(Box::new(outcome), charge));
}

/// The store state every job runs against, shared between the owning
/// `FileStore` and the executor's workers: directory identity, fault and
/// retry policy, counters, and the deferred first-error slot.
#[derive(Debug)]
pub(crate) struct StoreCore {
    pub(crate) dir: PathBuf,
    pub(crate) pid: u32,
    pub(crate) faults: FaultInjector,
    pub(crate) disk: DiskBudget,
    pub(crate) retry: RetryPolicy,
    pub(crate) spill_retries: AtomicU64,
    pub(crate) restore_retries: AtomicU64,
    pub(crate) io_abandons: AtomicU64,
    pub(crate) encoded_bytes: AtomicU64,
    pub(crate) async_io_nanos: AtomicU64,
    pub(crate) io_wait_nanos: AtomicU64,
    pub(crate) reclaimed_files: u64,
    pub(crate) reclaimed_bytes: u64,
    /// First write error no submitter was there to receive, held until
    /// the next synchronization point surfaces it (submit or drain).
    pub(crate) first_error: Mutex<Option<AggError>>,
}

impl StoreCore {
    /// Count a worker's time on one job as I/O a compute thread could
    /// overlap with.
    fn clock_worker(&self, t0: Instant) {
        // ORDERING: Relaxed — monotonic statistics counter.
        self.async_io_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

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
                    // ORDERING: Relaxed — monotonic statistics counter.
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
            w.write_run(&item.run)?;
        }
        let actual = w.finish()?;
        debug_assert!(actual <= nominal, "upper-bound size formula out of sync with writer");
        Ok(actual)
    }

    /// The full retried read of one spilled run (sequential, extent by
    /// extent), verified end to end by [`read_run`]. Transient I/O errors
    /// retry; verification failures are permanent and surface as
    /// [`AggError::SpillCorrupt`].
    ///
    /// Every run is read through here exactly once, by a worker going
    /// down the plan or by its consumer, and the read's fault ordinal is
    /// taken here: one read is one ordinal whichever thread performs it.
    pub(crate) fn perform_read(&self, meta: &SpillMeta) -> Result<Run, AggError> {
        let injected = self.faults.spill_read_fault();
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
        read_run(BufReader::new(file), meta.rows, meta.n_cols, &meta.account, flip)
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

/// The executor's queue: writes (with their payload bytes) waiting for a
/// worker, the read-ahead plan, and the bytes of every admitted write not
/// yet finished and every read-ahead run not yet collected.
struct Queue {
    jobs: VecDeque<(WriteJob, u64)>,
    /// Spilled runs in the order their consumers will ask for them.
    plan: VecDeque<PlannedRead>,
    /// Buckets ever planned (the next bucket's id).
    buckets: u64,
    in_flight: u64,
    /// The part of `in_flight` that is read-ahead: runs being decoded by
    /// a worker or parked on their tickets.
    reading: u64,
    /// Set once, by [`Executor::join`]: workers finish the queue and exit.
    closed: bool,
    #[cfg(test)]
    peak_in_flight: u64,
}

impl Queue {
    fn admit(&mut self, bytes: u64) {
        self.in_flight += bytes;
        #[cfg(test)]
        {
            self.peak_in_flight = self.peak_in_flight.max(self.in_flight);
        }
    }

    /// Take the plan's next run if it can be read now — it is on disk and
    /// its rows fit both the read window and the bound (a run larger than
    /// either is admitted alone, like an oversized write) — marking its
    /// ticket `ReadPending` and charging its bytes.
    fn next_read(&mut self, shared: &Arc<Shared>) -> Option<(PlannedRead, Charge)> {
        loop {
            let front = self.plan.front()?;
            let bytes = front.meta.decoded_bytes();
            if (self.reading > 0 && self.reading + bytes > shared.read_window())
                || (self.in_flight > 0 && self.in_flight + bytes > shared.bound)
            {
                return None;
            }
            // The one place a ticket is locked under the queue lock:
            // taking the entry and marking its ticket are one step to a
            // `claim`, which therefore either finds the entry or finds
            // the ticket already `ReadPending`. Nothing takes the queue
            // lock while holding a ticket's.
            let mut state = front.ticket.lock();
            match *state {
                TicketState::Written => *state = TicketState::ReadPending,
                // Another worker is still writing the run's segment; it
                // looks at the plan itself when it is done.
                TicketState::WritePending => return None,
                // Nothing to read: the write failed (the consumer gets
                // the error from the ticket), or the run was planned twice.
                _ => {
                    drop(state);
                    self.plan.pop_front();
                    continue;
                }
            }
            drop(state);
            self.admit(bytes);
            self.reading += bytes;
            let charge = Charge { shared: Arc::clone(shared), bytes };
            return self.plan.pop_front().map(|read| (read, charge));
        }
    }
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

impl Shared {
    /// Most bytes of decoded runs read ahead of their consumers, parked or
    /// being decoded: a twelfth of the bound (2 MiB — a handful of
    /// buckets of the operator's per-digit runs; the measured gain is
    /// flat from two buckets to thirty-two, so the window stays small and
    /// the bound stays the writes').
    fn read_window(&self) -> u64 {
        self.bound / 12
    }
}

/// Runs the store's I/O: on its workers behind a byte-bounded queue, or
/// — with no workers — on the thread that asks for it.
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
    /// Spawn up to `threads` workers against `core`, holding at most
    /// `bound` payload bytes at once. A worker that cannot be spawned is
    /// done without; with none at all every write runs on its submitter
    /// and every read on its consumer.
    pub(crate) fn new(core: Arc<StoreCore>, threads: usize, bound: u64) -> Self {
        let shared = Arc::new(Shared {
            core,
            bound,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                plan: VecDeque::new(),
                buckets: 0,
                in_flight: 0,
                reading: 0,
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
    /// has run: here and now when there is no worker — its failure is
    /// then the return value — or by handing it to the workers, blocking
    /// first until its payload fits under the bound. Only writes ahead of
    /// it are waited for (a job that cannot fit even then goes in alone):
    /// read-ahead bytes retire when their consumer collects them, which
    /// may be this very thread.
    pub(crate) fn submit(&self, job: WriteJob, bytes: u64) -> Result<(), AggError> {
        if self.workers.is_empty() {
            return run_write(&self.shared.core, job, None);
        }
        let mut q = lock(&self.shared.queue);
        while q.in_flight > q.reading && q.in_flight + bytes > self.shared.bound {
            q = wait(&self.shared.room, q);
        }
        q.admit(bytes);
        q.jobs.push_back((job, bytes));
        drop(q);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Put the runs of `buckets` at the front of the read-ahead plan:
    /// buckets in the order they will be consumed, each bucket's runs in
    /// order. Without workers there is nobody to read ahead and nothing
    /// is planned.
    pub(crate) fn plan<B>(&self, buckets: impl IntoIterator<Item = B>)
    where
        B: IntoIterator<Item = (SpillMeta, Arc<IoTicket>)>,
    {
        if self.workers.is_empty() {
            return;
        }
        let mut q = lock(&self.shared.queue);
        let mut at = 0;
        for bucket in buckets {
            let id = q.buckets;
            q.buckets += 1;
            for (meta, ticket) in bucket {
                q.plan.insert(at, PlannedRead { meta, ticket, bucket: id });
                at += 1;
            }
        }
        drop(q);
        if at > 0 {
            self.shared.work.notify_one();
        }
    }

    /// Take `ticket`'s run out of the plan, if it is still there, so that
    /// no worker starts on it: its consumer got there first and reads it
    /// itself, or its handle is going away. `consuming` says which: a
    /// consumer is inside the run's bucket and wants the rest of it next,
    /// so the bucket's remaining runs move to the front of the plan — a
    /// bucket taken out of order (by a thief) keeps its overlap.
    pub(crate) fn claim(&self, ticket: &Arc<IoTicket>, consuming: bool) {
        let mut q = lock(&self.shared.queue);
        let Some(at) = q.plan.iter().position(|read| Arc::ptr_eq(&read.ticket, ticket)) else {
            return;
        };
        let Some(claimed) = q.plan.remove(at) else { return };
        if consuming && at > 0 {
            let mut moved = 0;
            while q.plan.get(at + moved).is_some_and(|read| read.bucket == claimed.bucket) {
                if let Some(read) = q.plan.remove(at + moved) {
                    q.plan.insert(moved, read);
                }
                moved += 1;
            }
        }
        drop(q);
        // The entry's file reference goes outside the lock.
        drop(claimed);
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

    /// Let the workers finish every queued write, then join them. After
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

/// What a worker does next: writes first — they free memory, and a read
/// paced by its consumer must never hold one up — then the plan.
enum Work {
    Write(WriteJob, u64),
    Read(PlannedRead, Charge),
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let work = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some((job, bytes)) = q.jobs.pop_front() {
                    break Work::Write(job, bytes);
                }
                if q.closed {
                    return;
                }
                if let Some((read, charge)) = q.next_read(shared) {
                    break Work::Read(read, charge);
                }
                q = wait(&shared.work, q);
            }
        };
        match work {
            Work::Write(job, bytes) => {
                // A failed write is already parked where its consumers
                // will look.
                let _ = run_write(&shared.core, job, Some(Instant::now()));
                lock(&shared.queue).in_flight -= bytes;
                shared.room.notify_all();
            }
            Work::Read(read, charge) => run_read(&shared.core, read, charge),
        }
    }
}
