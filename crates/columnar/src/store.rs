//! Spillable run storage — the `RunStore` / `RunHandle` abstraction.
//!
//! The paper's framework is phrased over *runs* that need not fit in RAM
//! (§2's external-memory cost analysis treats hashing and sorting as the
//! same sequence of sequential run transfers). This module gives runs a
//! storage identity separate from their data: every sealed run, partition
//! output, and leftover-table flush travels as a [`RunHandle`] that is
//! either resident ([`RunHandle::Mem`]) or flushed to a spill file
//! ([`RunHandle::Spilled`]). Consumers call [`RunHandle::into_run`] to get
//! the rows back; a spilled run's file is deleted when the last handle
//! into it drops.
//!
//! Two backends, std-only:
//!
//! * **MemStore** — the degenerate store: handles wrap the run directly.
//!   [`RunStore::in_memory`] models it as "no file store configured".
//! * **[`FileStore`]** — a spill directory. Runs are written once,
//!   sequentially, as self-verifying streams (`crate::format`), and read
//!   back the same way in bounded extents, so spill I/O is always
//!   bucket-sized sequential transfers — never random access.
//!
//! # Segments
//!
//! Runs that flush at one moment share scratch files:
//! [`RunStore::spill_batch`] cuts what it is given into *segments* of
//! a few MiB of run payload and lays every run of a segment
//! out at its own offset of one file, under one disk reservation, one
//! storage-fault ordinal and one sequential write. Producers that emit
//! hundreds of small per-digit runs per flush pay a handful of file
//! creations instead of hundreds — on filesystems where inode creation
//! dominates small writes (container overlay mounts, ~400 µs per create)
//! that is the difference between spilling being viable and not.
//!
//! # Pipeline
//!
//! Each segment is one job for the store's executor (`crate::io`), which
//! either hands it to an I/O worker — the call returns while the bytes
//! stream out, so the compute thread keeps aggregating — or, with
//! `io_threads: 0`, runs it then and there. Submission blocks while more
//! than a fixed number of payload *bytes* is waiting to be written; that
//! bound is what keeps memory the budget no longer accounts finite.
//! Symmetrically, [`RunStore::plan_restores`] tells the store which runs
//! are about to be consumed, in which order, and the I/O workers decode
//! ahead of the consumer inside a byte window cut from the same bound;
//! [`RunHandle::into_run`] collects a run read ahead, or reads it itself
//! when it gets there first. Either way a run is read once, by the
//! executor's one read routine, which is also where the restore's fault
//! ordinal is taken (`StoreCore::perform_read`) — one read is one
//! ordinal whichever thread performs it. Every run
//! carries a ticket; consuming the handle synchronizes on it. A write
//! error nobody was waiting for is recorded as the store's first error
//! and surfaces at the next synchronization point: the next submission,
//! an explicit [`RunStore::drain`], or the failed handle's own `into_run`
//! — never silently.
//!
//! # Durability behaviour
//!
//! Writes reserve their segment's size *upper bound* against the store's
//! [`DiskBudget`] at submit time — keeping `DiskBudgetExceeded` a
//! synchronous, attributable error — and shrink the reservation to the
//! actual encoded size once the write finishes (the reservation rides
//! the [`SpilledRun`]s and is fully released when the file is unlinked).
//! Transient I/O errors are retried from scratch under a clockless
//! bounded retry policy with partial files truncated empty on every
//! failure path; an abandoned write unlinks its file and shrinks its
//! reservation to zero immediately, so both budgets drain even while the
//! dead handles are still held. Opening a store sweeps its directory
//! for spill files orphaned by dead processes (`crate::sweep`).

use crate::format::stream_size_upper;
use crate::io::{
    lock, Executor, IoTicket, SpillFile, SpillMeta, StoreCore, TicketState, WriteItem, WriteJob,
    QUEUE_BYTES,
};
use crate::run::Run;
use crate::sweep;
use hsa_fault::{AggError, DiskBudget, DiskReservation, FaultInjector, RetryPolicy};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How one [`FileStore`] runs its I/O: how many worker threads overlap
/// spill I/O with compute (`0` = every write and read runs on the calling
/// thread). Extent compression is not configured: every extent is written
/// with whichever codec is strictly smaller than raw, or raw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillConfig {
    /// I/O worker threads (default 1); with `0` a write is finished when
    /// the call that submitted it returns.
    pub io_threads: usize,
}

impl Default for SpillConfig {
    fn default() -> Self {
        Self { io_threads: 1 }
    }
}

/// I/O robustness counters of one [`FileStore`] (see
/// [`RunStore::io_stats`]).
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

/// A spill directory that materializes runs in per-process numbered
/// segment files, written and read back through one executor. Opened
/// and driven through [`RunStore`]; spilled handles keep it alive.
///
/// Shared via `Arc`; the process-wide sequence counter makes concurrent
/// spills from many workers, and from many stores on one directory,
/// race-free without any locking.
#[derive(Debug)]
pub struct FileStore {
    core: Arc<StoreCore>,
    exec: Executor,
    /// Dropped after `exec` has joined (see `Drop`).
    _live: sweep::Liveness,
}

impl FileStore {
    /// Open (creating if needed) a spill directory wired to an execution
    /// environment: spill writes reserve against `disk`, storage-level
    /// faults come from `faults`, `config` picks the I/O thread count, the
    /// executor admits `queue_bytes` of payload (`QUEUE_BYTES`
    /// outside tests), and the directory is swept for scratch files
    /// orphaned by dead processes before any new file is written.
    fn open(
        dir: PathBuf,
        faults: FaultInjector,
        disk: DiskBudget,
        config: SpillConfig,
        queue_bytes: u64,
    ) -> Result<Self, AggError> {
        let fail =
            |e: io::Error| AggError::SpillFailed { message: format!("{}: {e}", dir.display()) };
        fs::create_dir_all(&dir).map_err(fail)?;
        let pid = std::process::id();
        let live = sweep::Liveness::take(&dir, pid).map_err(fail)?;
        let (reclaimed_files, reclaimed_bytes) = sweep::sweep_orphans(&dir, pid);
        let core = Arc::new(StoreCore {
            dir,
            pid,
            faults,
            disk,
            retry: RetryPolicy::default(),
            spill_retries: AtomicU64::new(0),
            restore_retries: AtomicU64::new(0),
            io_abandons: AtomicU64::new(0),
            encoded_bytes: AtomicU64::new(0),
            async_io_nanos: AtomicU64::new(0),
            io_wait_nanos: AtomicU64::new(0),
            reclaimed_files,
            reclaimed_bytes,
            first_error: Mutex::new(None),
        });
        let exec = Executor::new(Arc::clone(&core), config.io_threads, queue_bytes);
        Ok(Self { core, exec, _live: live })
    }

    /// This store's I/O robustness counters (retries, abandons, orphan
    /// reclamation, compression and overlap totals). Monotonic over the
    /// store's lifetime.
    fn io_stats(&self) -> StoreIoStats {
        StoreIoStats {
            // ORDERING: Relaxed — monotonic statistics counters read after
            // the operations they count; nothing is published through them.
            spill_retries: self.core.spill_retries.load(Ordering::Relaxed),
            restore_retries: self.core.restore_retries.load(Ordering::Relaxed),
            io_abandons: self.core.io_abandons.load(Ordering::Relaxed),
            reclaimed_files: self.core.reclaimed_files,
            reclaimed_bytes: self.core.reclaimed_bytes,
            encoded_bytes: self.core.encoded_bytes.load(Ordering::Relaxed),
            async_io_nanos: self.core.async_io_nanos.load(Ordering::Relaxed),
            io_wait_nanos: self.core.io_wait_nanos.load(Ordering::Relaxed),
        }
    }

    /// Surface (and clear) the first deferred write error.
    fn drain(&self) -> Result<(), AggError> {
        match lock(&self.core.first_error).take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Spill a batch of runs and return their handles in submission
    /// order. The batch is cut into segments of a third of the executor's
    /// byte bound; each segment is **one** scratch file holding its runs
    /// as self-contained verified streams at their own offsets, deleted
    /// when the last of its handles drops.
    ///
    /// Per segment, the disk-budget reservation (at the raw-size upper
    /// bound) and the fault ordinal are taken here, synchronously — so
    /// budget denials stay attributable to the submitting operator and
    /// injection order matches submission order — and the segment is then
    /// submitted to the executor, which blocks while too many payload
    /// bytes are still waiting for the disk. With I/O workers a failed
    /// write fails every handle of its segment and is surfaced at the
    /// next synchronization point (the next write, [`RunStore::drain`],
    /// or a handle's `into_run`); without them it is this call's error.
    /// An error drops the handles of the segments already submitted, so a
    /// batch fails or succeeds as a unit.
    fn write_batch(self: &Arc<Self>, runs: Vec<Run>) -> Result<Vec<SpilledRun>, AggError> {
        self.drain()?;
        let mut handles = Vec::with_capacity(runs.len());
        let mut runs = runs.into_iter().peekable();
        while runs.peek().is_some() {
            let (mut segment, mut payload_bytes) = (Vec::new(), 0);
            let most = self.exec.segment_bytes();
            while let Some(run) =
                runs.next_if(|run| segment.is_empty() || payload_bytes + run.mem_bytes() <= most)
            {
                payload_bytes += run.mem_bytes();
                segment.push(run);
            }
            let job = self.segment_job(segment, &mut handles)?;
            self.exec.submit(job, payload_bytes)?;
        }
        Ok(handles)
    }

    /// Reserve and name one segment file and build the job that writes
    /// `runs` into it, appending their handles to `handles`.
    fn segment_job(
        self: &Arc<Self>,
        runs: Vec<Run>,
        handles: &mut Vec<SpilledRun>,
    ) -> Result<WriteJob, AggError> {
        let nominals: Vec<u64> = runs.iter().map(stream_size_upper).collect();
        let reservation = Arc::new(self.core.disk.try_reserve(nominals.iter().sum())?);
        let file = SpillFile::new(sweep::next_spill_path(&self.core.dir, self.core.pid));
        let batch: Vec<WriteItem> = runs
            .into_iter()
            .zip(nominals)
            .map(|(run, nominal_bytes)| WriteItem {
                meta: SpillMeta {
                    file: Arc::clone(&file),
                    offset: Arc::new(OnceLock::new()),
                    rows: run.len(),
                    n_cols: run.n_cols(),
                    aggregated: run.aggregated,
                    source_rows: run.source_rows,
                    level: run.level,
                    nominal_bytes,
                    account: run.keys.account().clone(),
                },
                run,
                ticket: IoTicket::new(),
            })
            .collect();
        handles.extend(batch.iter().map(|item| SpilledRun {
            meta: item.meta.clone(),
            _reservation: Arc::clone(&reservation),
            ticket: Arc::clone(&item.ticket),
            store: Arc::clone(self),
        }));
        // One storage-level fault ordinal per segment file, consumed at
        // submit time: the injected misbehaviour hits the first attempt
        // only, so a transient flavor exercises exactly one retry.
        let inject = self.core.faults.spill_write_fault();
        Ok(WriteJob { batch, inject, reservation })
    }

    /// Read a spilled run back into memory: collect the rows a worker
    /// read ahead (waiting for a read in flight), or — when no worker has
    /// started on the run — take it out of the plan and decode it here,
    /// after any write still in flight on its ticket.
    fn read(&self, spilled: &SpilledRun) -> Result<Run, AggError> {
        let (state, waited) = spilled.take_ticket(true);
        if waited > 0 {
            // ORDERING: Relaxed — statistics counter.
            self.core.io_wait_nanos.fetch_add(waited, Ordering::Relaxed);
        }
        match state {
            TicketState::ReadDone(parked, _charge) => *parked,
            TicketState::WriteFailed(e) => Err(e),
            TicketState::Written => self.core.perform_read(&spilled.meta),
            // `wait_idle` cannot return a pending state, and a handle is
            // consumed once; keep the error typed rather than panicking
            // in release builds.
            TicketState::WritePending | TicketState::ReadPending | TicketState::Taken => {
                debug_assert!(false, "unreadable ticket state {state:?}");
                Err(AggError::SpillFailed {
                    message: "spill ticket still in flight after wait".to_string(),
                })
            }
        }
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        // Join the I/O workers first: all queued writes land (or fail and
        // unlink) before the store's share of the liveness marker drops,
        // so a sweeping sibling never sees live scratch without its lock.
        self.exec.join();
    }
}

/// A run that lives in a spill file rather than in memory.
///
/// Carries the metadata the driver needs to schedule the run without
/// touching disk (row count, level, aggregation flag). Owns a share of
/// its segment file and of the segment's disk-budget reservation, and the
/// ticket of any in-flight I/O: dropping the handle takes the run out of
/// the read-ahead plan, waits for the I/O to settle, lets go of rows read
/// ahead for it and gives its shares back; the last handle of a segment
/// thereby unlinks the file and releases the bytes — exactly once, on
/// every path, including a restore that errored mid-read.
#[derive(Debug)]
pub struct SpilledRun {
    meta: SpillMeta,
    /// RAII only (hence the underscore): shared with the write job while
    /// it is in flight and with the segment's sibling handles; the budget
    /// bytes release when the last clone drops (or earlier, via
    /// `shrink_to` on completion/failure).
    _reservation: Arc<DiskReservation>,
    ticket: Arc<IoTicket>,
    /// Declared — so dropped — last: the store's liveness lock must not
    /// retire before this handle's share of the segment file has.
    store: Arc<FileStore>,
}

impl SpilledRun {
    /// Reserved upper-bound size of this run's spill stream (header +
    /// raw-size payload + framing + footer). The encoded stream on disk
    /// is never larger; see [`StoreIoStats::encoded_bytes`] for actual
    /// totals.
    pub fn bytes(&self) -> u64 {
        self.meta.nominal_bytes
    }

    /// Path of the backing segment file (shared with the run's segment
    /// siblings, if any).
    pub fn path(&self) -> &Path {
        self.meta.path()
    }

    /// Take the run out of the read-ahead plan if no worker has started
    /// on it (`consuming`: see [`Executor::claim`]), wait out any I/O in
    /// flight on its ticket, and take what the ticket holds, leaving it
    /// `Taken`. Returns the nanoseconds spent waiting as well. The state
    /// is handed out with the ticket's lock released: a parked run's
    /// charge must not retire under it.
    fn take_ticket(&self, consuming: bool) -> (TicketState, u64) {
        if self.ticket.is_unread() {
            self.store.exec.claim(&self.ticket, consuming);
        }
        let (mut guard, waited) = self.ticket.wait_idle();
        (std::mem::replace(&mut *guard, TicketState::Taken), waited)
    }
}

impl Drop for SpilledRun {
    fn drop(&mut self) {
        // An unconsumed run leaves the plan (and with it the plan's file
        // reference), then any in-flight job is waited out: the job
        // released the run payload, its reservation clone and its file
        // references before publishing a terminal state, so after this
        // wait our `meta.file` reference may be the last one — dropping
        // it (a field) then unlinks the segment file, with siblings
        // keeping it alive until the last of them retires. The disk
        // reservation releases the same way, so file and bytes retire
        // together. Rows read ahead and never collected go here, their
        // charge with them.
        drop(self.take_ticket(false));
    }
}

/// A run behind a storage handle: resident in memory or spilled to disk.
#[derive(Debug)]
pub enum RunHandle {
    /// The run is resident; the handle owns its rows.
    Mem(Run),
    /// The run was flushed to a [`FileStore`]; the handle owns the file.
    Spilled(SpilledRun),
}

impl RunHandle {
    /// Number of rows in the run.
    pub fn len(&self) -> usize {
        match self {
            RunHandle::Mem(run) => run.len(),
            RunHandle::Spilled(s) => s.meta.rows,
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
            RunHandle::Spilled(s) => s.meta.n_cols,
        }
    }

    /// Whether the rows are partial aggregates (see [`Run::aggregated`]).
    pub fn aggregated(&self) -> bool {
        match self {
            RunHandle::Mem(run) => run.aggregated,
            RunHandle::Spilled(s) => s.meta.aggregated,
        }
    }

    /// Original input rows this run represents (see [`Run::source_rows`]).
    pub fn source_rows(&self) -> u64 {
        match self {
            RunHandle::Mem(run) => run.source_rows,
            RunHandle::Spilled(s) => s.meta.source_rows,
        }
    }

    /// Radix level of the run.
    pub fn level(&self) -> u32 {
        match self {
            RunHandle::Mem(run) => run.level,
            RunHandle::Spilled(s) => s.meta.level,
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
            RunHandle::Spilled(s) => s.bytes(),
        }
    }

    /// Materialize the run, reading it back from disk if it was spilled
    /// (or collecting the rows the store already read ahead, see
    /// [`RunStore::plan_restores`]).
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
            RunHandle::Spilled(spilled) => spilled.store.read(&spilled),
        }
    }
}

/// The run storage policy for one operator invocation.
///
/// `in_memory()` is the MemStore backend: every handle stays resident and
/// budget exhaustion remains a hard denial. `spilling_with_config(dir, …)`
/// attaches a shared [`FileStore`] so run producers can downgrade a denied
/// reservation into a spill instead of failing the query.
#[derive(Clone, Debug)]
pub struct RunStore {
    file: Option<Arc<FileStore>>,
}

impl RunStore {
    /// Memory-only storage: no spill capability.
    pub fn in_memory() -> Self {
        Self { file: None }
    }

    /// Storage backed by a spill directory (created if missing) wired to
    /// an execution environment: spill writes reserve against `disk`,
    /// storage-level faults come from `faults`, `config` picks the I/O
    /// thread count. The directory is swept for scratch files
    /// orphaned by dead processes before any new file is written.
    pub fn spilling_with_config(
        dir: impl Into<PathBuf>,
        faults: FaultInjector,
        disk: DiskBudget,
        config: SpillConfig,
    ) -> Result<Self, AggError> {
        let store = FileStore::open(dir.into(), faults, disk, config, QUEUE_BYTES)?;
        Ok(Self { file: Some(Arc::new(store)) })
    }

    /// True if a spill directory is configured.
    pub fn can_spill(&self) -> bool {
        self.file.is_some()
    }

    /// The backing store's I/O robustness counters, if any.
    pub fn io_stats(&self) -> Option<StoreIoStats> {
        self.file.as_ref().map(|s| s.io_stats())
    }

    /// Surface (and clear) the first deferred write error; `Ok` for
    /// memory-only stores. Every spill submission does this first;
    /// callers that stop spilling must drain once before trusting that
    /// all in-flight writes landed (`AggStream::finish` does).
    pub fn drain(&self) -> Result<(), AggError> {
        self.file.as_ref().map_or(Ok(()), |s| s.drain())
    }

    /// Flush a batch of runs to the spill directory — cut into shared
    /// segment files, see the module docs — and return their handles in
    /// submission order. With I/O workers this submits and continues:
    /// the runs' memory is handed to a worker and freed there once
    /// written; the call blocks only while too many submitted bytes are
    /// still waiting for the disk. A failed write then fails every handle
    /// of its segment and surfaces at the next synchronization point
    /// (the next submission, [`RunStore::drain`], or a handle's
    /// `into_run`); without workers it is this call's error.
    ///
    /// # Errors
    /// [`AggError::DiskBudgetExceeded`] when the spill budget denies a
    /// segment's bytes, [`AggError::SpillFailed`] for unrecoverable I/O
    /// (including a memory-only store, which cannot spill at all, and
    /// deferred failures of earlier writes). A batch fails or succeeds as
    /// a unit.
    pub fn spill_batch(&self, runs: Vec<Run>) -> Result<Vec<RunHandle>, AggError> {
        let Some(store) = &self.file else {
            return Err(AggError::SpillFailed {
                message: "no spill directory configured".to_string(),
            });
        };
        let spilled = store.write_batch(runs)?;
        Ok(spilled.into_iter().map(RunHandle::Spilled).collect())
    }

    /// Announce which runs are about to be restored: `buckets` in the
    /// order they will be consumed, each bucket's handles in order. The
    /// store's I/O workers then read ahead of the consumer — down this
    /// plan, after any pending write, for as long as the decoded runs
    /// nobody has collected yet fit a fixed fraction of the byte bound
    /// that also paces writes — and `into_run` finds the rows parked. A
    /// run consumed before a worker reached it is read by its consumer
    /// and the rest of its bucket moves to the front of the plan, so a
    /// bucket taken out of turn still overlaps. A later call plans ahead
    /// of an earlier one (a task's sub-buckets run before its siblings).
    /// Resident handles, memory-only stores and stores without I/O
    /// workers plan nothing.
    pub fn plan_restores<'a>(&self, buckets: impl IntoIterator<Item = &'a [RunHandle]>) {
        let Some(store) = &self.file else { return };
        store.exec.plan(buckets.into_iter().map(|bucket| {
            bucket.iter().filter_map(|handle| match handle {
                RunHandle::Spilled(s) => Some((s.meta.clone(), Arc::clone(&s.ticket))),
                RunHandle::Mem(_) => None,
            })
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::lock_name;
    use crate::EXTENT_WORDS;
    use hsa_fault::{FaultPlan, SpillFault, SpillFaultKind};

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

    /// A store with synchronous in-line I/O: files are fully on disk the
    /// moment `spill` returns, which several tests below rely on.
    fn sync_store(dir: &Path) -> RunStore {
        RunStore::spilling_with_config(
            dir,
            FaultInjector::none(),
            DiskBudget::unlimited(),
            SpillConfig { io_threads: 0 },
        )
        .unwrap()
    }

    /// A default-configured store wired to `faults` and `disk`.
    fn env_store(dir: &Path, faults: FaultInjector, disk: DiskBudget) -> RunStore {
        RunStore::spilling_with_config(dir, faults, disk, SpillConfig::default()).unwrap()
    }

    /// A default-configured store with no faults and no disk limit.
    fn default_store(dir: &Path) -> RunStore {
        env_store(dir, FaultInjector::none(), DiskBudget::unlimited())
    }

    /// Spill one run as a batch of its own.
    fn spill(store: &RunStore, run: Run) -> Result<RunHandle, AggError> {
        store.spill_batch(vec![run]).map(|mut handles| handles.pop().expect("one handle per run"))
    }

    /// A file store whose executor admits `queue_bytes` of payload (and
    /// so cuts segments a third that size): small runs reach the
    /// backpressure and segmenting paths.
    fn small_store(
        dir: &Path,
        faults: FaultInjector,
        io_threads: usize,
        queue_bytes: u64,
    ) -> Arc<FileStore> {
        let config = SpillConfig { io_threads };
        let disk = DiskBudget::unlimited();
        Arc::new(FileStore::open(dir.to_path_buf(), faults, disk, config, queue_bytes).unwrap())
    }

    /// Rows of one [`numbered_runs`] run (fewer under Miri's interpreter).
    const RUN_ROWS: u64 = if cfg!(miri) { 100 } else { 1000 };

    /// `n` equal-sized runs whose keys name their position in the batch.
    fn numbered_runs(n: u64) -> Vec<Run> {
        (0..n)
            .map(|i| {
                let keys: Vec<u64> = (0..RUN_ROWS).map(|k| i * RUN_ROWS + k).collect();
                Run::from_rows(&keys, &[&keys])
            })
            .collect()
    }

    /// Payload bytes of one [`numbered_runs`] run.
    fn run_bytes() -> u64 {
        numbered_runs(1)[0].mem_bytes()
    }

    fn spilled(handle: &RunHandle) -> &SpilledRun {
        match handle {
            RunHandle::Spilled(s) => s,
            RunHandle::Mem(_) => unreachable!("expected a spilled handle"),
        }
    }

    fn handle_path(handle: &RunHandle) -> PathBuf {
        spilled(handle).path().to_path_buf()
    }

    /// Block until `handle`'s in-flight I/O (if any) has settled,
    /// without consuming it — test-only window into the ticket.
    fn settle(handle: &RunHandle) {
        let (guard, _) = spilled(handle).ticket.wait_idle();
        drop(guard);
    }

    /// Whether a worker read `handle`'s run ahead and parked it.
    fn is_parked(handle: &RunHandle) -> bool {
        matches!(*spilled(handle).ticket.lock(), TicketState::ReadDone(..))
    }

    /// What one [`numbered_runs`] run is charged while it is read ahead.
    const DECODED_BYTES: u64 = RUN_ROWS * 2 * 8;

    /// A store with one worker whose read window is `window_runs`
    /// numbered runs, and `n` such runs written to it and on disk.
    fn windowed_store(
        dir: &Path,
        window_runs: u64,
        n: u64,
    ) -> (RunStore, Arc<FileStore>, Vec<RunHandle>) {
        let file = small_store(dir, FaultInjector::none(), 1, 12 * window_runs * DECODED_BYTES);
        let store = RunStore { file: Some(Arc::clone(&file)) };
        let handles = store.spill_batch(numbered_runs(n)).unwrap();
        handles.iter().for_each(settle);
        wait_for_in_flight(&file, 0);
        (store, file, handles)
    }

    /// Spin until the executor holds exactly `bytes` — with the writes on
    /// disk, until the worker has read ahead that much and gone idle.
    fn wait_for_in_flight(store: &FileStore, bytes: u64) {
        while store.exec.queue_bytes().0 != bytes {
            std::thread::yield_now();
        }
    }

    /// First key of the `i`-th [`numbered_runs`] run.
    fn first_key(i: usize) -> Option<u64> {
        Some(i as u64 * RUN_ROWS)
    }

    #[test]
    fn spill_round_trip_preserves_rows_and_meta() {
        let dir = temp_dir("roundtrip");
        let store = default_store(&dir);
        let run = sample_run();
        let handle = spill(&store, run.clone()).unwrap();
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
        let store = default_store(&dir);
        for run in [Run::empty(0, 0, false), Run::empty(7, 4, true)] {
            let (n_cols, level, aggregated) = (run.n_cols(), run.level, run.aggregated);
            let back = spill(&store, run).unwrap().into_run().unwrap();
            assert_eq!(back.len(), 0);
            assert_eq!(back.n_cols(), n_cols);
            assert_eq!(back.level, level);
            assert_eq!(back.aggregated, aggregated);
        }
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_last_handle_of_a_segment_unlinks_the_file_and_siblings_keep_it_alive() {
        let dir = temp_dir("cleanup");
        let store = sync_store(&dir);
        let mut handles = store.spill_batch(vec![sample_run(), compressible_run(100)]).unwrap();
        let (second, first) = (handles.pop().unwrap(), handles.pop().unwrap());
        let path = handle_path(&first);
        assert_eq!(handle_path(&second), path, "a small batch is one segment file");
        assert!(fs::metadata(&path).unwrap().len() > 0);
        drop(first);
        assert!(path.exists(), "a sibling still reads from the file");
        assert_eq!(second.into_run().unwrap().len(), 100);
        assert!(!path.exists(), "the last handle closes and unlinks");
        // Names are never reused: the next spill mints a fresh file.
        let next = spill(&store, sample_run()).unwrap();
        assert_ne!(handle_path(&next), path);
        drop(next);
        assert_eq!(spill_files_in(&dir), 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_store_refuses_to_spill() {
        let store = RunStore::in_memory();
        assert!(!store.can_spill());
        let err = spill(&store, sample_run()).unwrap_err();
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
        assert_eq!(handle.into_run().unwrap().len(), len);
    }

    #[test]
    fn upper_bound_is_exact_uncompressed_and_loose_compressed() {
        let dir = temp_dir("sizes");
        // Xorshift words: neither delta nor run-length coding is smaller
        // than raw, so every extent is written raw and the bound is exact.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut xorshift = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let raw = sync_store(&dir);
        for rows in [0usize, 1, EXTENT_WORDS - 1, EXTENT_WORDS, EXTENT_WORDS + 1, 3 * EXTENT_WORDS]
        {
            let mut run = Run::empty(0, 1, false);
            for _ in 0..rows {
                run.keys.push(xorshift());
                run.cols[0].push(xorshift());
            }
            let handle = spill(&raw, run).unwrap();
            let on_disk = fs::metadata(handle_path(&handle)).unwrap().len();
            assert_eq!(on_disk, handle.spilled_bytes(), "rows {rows}");
            assert_eq!(handle.into_run().unwrap().len(), rows);
        }
        drop(raw);
        // Compressible data: strictly under the bound.
        let auto = sync_store(&dir);
        let run = compressible_run(3 * EXTENT_WORDS as u64);
        let handle = spill(&auto, run.clone()).unwrap();
        let on_disk = fs::metadata(handle_path(&handle)).unwrap().len();
        assert!(
            on_disk < handle.spilled_bytes() / 2,
            "compressible run should shrink well below the {} byte bound, got {on_disk}",
            handle.spilled_bytes()
        );
        let stats = auto.io_stats().unwrap();
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
            SpillConfig { io_threads: 0 },
        )
        .unwrap();
        let handle = spill(&store, compressible_run(10_000)).unwrap();
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
        let err = spill(&store, sample_run()).unwrap_err();
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

    #[cfg(not(miri))]
    #[test]
    fn transient_write_faults_retry_to_success() {
        for kind in [SpillFaultKind::WriteEio, SpillFaultKind::WriteShort] {
            let dir = temp_dir(&format!("retry-{kind:?}"));
            let store = env_store(&dir, injected(kind, 1), DiskBudget::unlimited());
            let run = sample_run();
            let back = spill(&store, run.clone()).unwrap().into_run().unwrap();
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
        // A worker ran the write: the submission succeeds, the failure
        // surfaces when the handle is consumed.
        let handle = spill(&store, sample_run()).unwrap();
        settle(&handle);
        assert_eq!(disk.outstanding(), 0, "failed write drains the budget while in flight");
        assert_eq!(spill_files_in(&dir), 0, "and unlinks its file while the handle lives");
        let err = handle.into_run().unwrap_err();
        assert!(matches!(err, AggError::SpillFailed { .. }), "{err:?}");
        assert!(err.to_string().contains("os error 28"), "{err}");
        assert_eq!(spill_files_in(&dir), 0, "partial file must be unlinked");
        let stats = store.io_stats().unwrap();
        assert_eq!(stats.io_abandons, 1);
        assert_eq!(stats.spill_retries, 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn async_write_failure_surfaces_at_the_next_submission_and_at_drain() {
        let dir = temp_dir("asyncfail");
        let disk = DiskBudget::limited(1 << 20);
        let store = env_store(&dir, injected(SpillFaultKind::WriteEnospc, 1), disk.clone());
        let doomed = spill(&store, sample_run()).unwrap();
        settle(&doomed);
        // The *next* submission reports the earlier failure...
        let err = spill(&store, compressible_run(64)).unwrap_err();
        assert!(matches!(err, AggError::SpillFailed { .. }), "{err:?}");
        assert!(err.to_string().contains("os error 28"), "{err}");
        // ...after which the slot is clear and spilling works again.
        store.drain().unwrap();
        let ok = spill(&store, compressible_run(64)).unwrap();
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
        let back = spill(&store, run.clone()).unwrap().into_run().unwrap();
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
        let err = spill(&store, sample_run()).unwrap().into_run().unwrap_err();
        match err {
            AggError::SpillCorrupt { what, extent, .. } => {
                assert_eq!(what, "extent crc");
                assert_eq!(extent, 0, "the flip lands in the first extent");
            }
            other => panic!("expected SpillCorrupt, got {other:?}"),
        }
        assert_eq!(spill_files_in(&dir), 0, "failed restore still unlinks the file");
        drop(store);
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
        let err = spill(&store, compressible_run(10_000)).unwrap().into_run().unwrap_err();
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
        let err = spill(&store, sample_run()).unwrap().into_run().unwrap_err();
        match err {
            AggError::SpillCorrupt { what, .. } => assert_eq!(what, "truncated"),
            other => panic!("expected SpillCorrupt, got {other:?}"),
        }
        assert_eq!(spill_files_in(&dir), 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The acceptance-criteria invariant: for every thread count,
    /// spilled-and-restored rows are bit-identical to what was spilled —
    /// over runs whose extents take every wire codec (raw keys and
    /// columns, delta keys, run-length constants).
    #[cfg(not(miri))]
    #[test]
    fn every_codec_and_thread_count_round_trips_bit_identically() {
        let runs =
            [sample_run(), compressible_run(2 * EXTENT_WORDS as u64 + 17), Run::empty(2, 1, true)];
        let expected: Vec<_> = runs.iter().map(rows_of).collect();
        for io_threads in [0usize, 1, 2] {
            let dir = temp_dir(&format!("matrix-{io_threads}"));
            let store = RunStore::spilling_with_config(
                &dir,
                FaultInjector::none(),
                DiskBudget::unlimited(),
                SpillConfig { io_threads },
            )
            .unwrap();
            let handles: Vec<_> = runs.iter().map(|r| spill(&store, r.clone()).unwrap()).collect();
            store.plan_restores([handles.as_slice()]);
            for (h, want) in handles.into_iter().zip(&expected) {
                let got = rows_of(&h.into_run().unwrap());
                assert_eq!(&got, want, "io_threads {io_threads}");
            }
            store.drain().unwrap();
            drop(store);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// In-order consumption: the worker reads down the plan until the
    /// window is full and no further, and every collected run opens room
    /// for the next one.
    #[cfg(not(miri))]
    #[test]
    fn a_plan_is_read_ahead_in_order_up_to_the_window_and_no_further() {
        let dir = temp_dir("plan-window");
        let (store, file, handles) = windowed_store(&dir, 3, 8);
        store.plan_restores([handles.as_slice()]);
        wait_for_in_flight(&file, 3 * DECODED_BYTES);
        // Charged when the worker takes it, parked when it is decoded.
        while !is_parked(&handles[2]) {
            std::thread::yield_now();
        }
        let parked: Vec<bool> = handles.iter().map(is_parked).collect();
        assert_eq!(parked, [true, true, true, false, false, false, false, false]);
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.into_run().unwrap().keys.iter().next(), first_key(i));
        }
        wait_for_in_flight(&file, 0);
        let (_, peak) = file.exec.queue_bytes();
        assert!(peak <= 12 * 3 * DECODED_BYTES, "peak {peak} over the bound");
        let stats = store.io_stats().unwrap();
        assert!(stats.async_io_nanos > 0, "worker time was recorded: {stats:?}");
        drop((store, file));
        assert_eq!(spill_files_in(&dir), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A consumer that reaches a run before the worker reads it itself,
    /// in any order, with the same rows — and entering a bucket out of
    /// turn moves the rest of that bucket to the front of the plan.
    #[cfg(not(miri))]
    #[test]
    fn out_of_order_and_consumer_first_restores_return_the_same_rows() {
        let dir = temp_dir("plan-order");
        let (store, file, handles) = windowed_store(&dir, 2, 6);
        let (first, second) = handles.split_at(3);
        store.plan_restores([first, second]);
        wait_for_in_flight(&file, 2 * DECODED_BYTES);
        let mut handles: Vec<Option<RunHandle>> = handles.into_iter().map(Some).collect();
        let take = |handles: &mut [Option<RunHandle>], i: usize| {
            let run = handles[i].take().unwrap().into_run().unwrap();
            assert_eq!(run.keys.iter().next(), first_key(i));
        };
        // Runs 0 and 1 are parked, the plan reads [2 | 3 4 5]. Enter the
        // second bucket at its head: nobody has read run 3, so this
        // thread does, and 4 and 5 now come before 2.
        take(&mut handles, 3);
        assert_eq!(file.exec.queue_bytes().0, 2 * DECODED_BYTES, "a claimed read is not charged");
        take(&mut handles, 0);
        while !handles[4].as_ref().is_some_and(is_parked) {
            std::thread::yield_now();
        }
        assert!(!handles[2].as_ref().is_some_and(is_parked), "the entered bucket goes first");
        // Last to first from here: parked and unread runs alike.
        for i in [5, 4, 2, 1] {
            take(&mut handles, i);
        }
        wait_for_in_flight(&file, 0);
        drop((store, file, handles));
        assert_eq!(spill_files_in(&dir), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(not(miri))]
    #[test]
    fn concurrent_spills_and_planned_restores_from_many_threads_round_trip() {
        let dir = temp_dir("mt");
        let store = RunStore::spilling_with_config(
            &dir,
            FaultInjector::none(),
            DiskBudget::unlimited(),
            SpillConfig { io_threads: 2 },
        )
        .unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = store.clone();
                scope.spawn(move || {
                    for i in 0..8u64 {
                        let run = compressible_run(1000 + t * 97 + i);
                        let want = rows_of(&run);
                        let handle = spill(&store, run).unwrap();
                        if i % 2 == 0 {
                            store.plan_restores([std::slice::from_ref(&handle)]);
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

        let store = default_store(&dir);
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

    /// The liveness marker is the process's, not one store's: while a
    /// sibling store is open on the directory, a sweep by another process
    /// spares its scratch, and the last store to close retires the lock.
    #[cfg(not(miri))]
    #[test]
    fn a_store_keeps_the_lock_its_closed_sibling_shared() {
        let dir = temp_dir("sibling-lock");
        let (first, second) = (sync_store(&dir), sync_store(&dir));
        let handle = spill(&second, sample_run()).unwrap();
        drop(first);
        let lock = dir.join(lock_name(std::process::id()));
        assert!(lock.exists(), "a live store's lock was retired");
        let (files, _) = sweep::sweep_orphans(&dir, std::process::id().wrapping_add(1));
        assert_eq!(files, 0, "another process swept a live store's segment");
        assert_eq!(rows_of(&handle.into_run().unwrap()), rows_of(&sample_run()));
        drop(second);
        assert!(!lock.exists(), "the last store retires the lock");
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

        let store = default_store(&dir);
        assert_eq!(store.io_stats().unwrap().reclaimed_files, 1);
        assert!(!stale.exists());
        assert!(!dir.join(lock_name(pid)).exists(), "stale lock swept too");
        assert!(live.exists(), "files of live processes are spared");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_plan_over_write_pending_tickets_waits_for_the_writes_and_then_reads() {
        let dir = temp_dir("pending-plan");
        let store = small_store(&dir, FaultInjector::none(), 1, 1 << 20);
        let run = compressible_run(300);
        // Build the segment's job but hold it back: the ticket is
        // write-pending for as long as we like.
        let mut handles = Vec::new();
        let job = store.segment_job(vec![run.clone()], &mut handles).unwrap();
        let handle = RunHandle::Spilled(handles.pop().unwrap());
        RunStore { file: Some(Arc::clone(&store)) }.plan_restores([std::slice::from_ref(&handle)]);
        assert!(matches!(*spilled(&handle).ticket.lock(), TicketState::WritePending));
        assert_eq!(store.exec.queue_bytes().0, 0, "nothing is read before it is written");
        store.exec.submit(job, run.mem_bytes()).unwrap();
        while !is_parked(&handle) {
            std::thread::yield_now();
        }
        assert_eq!(rows_of(&handle.into_run().unwrap()), rows_of(&run));
        assert_eq!(spill_files_in(&dir), 0);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The one-thread deadlock shape: the window is full of runs only
    /// this thread can collect, and this thread submits a write that does
    /// not fit beside them. It must go through — writes wait for writes
    /// only — and be written ahead of any further read.
    #[cfg(not(miri))]
    #[test]
    fn a_write_is_never_stuck_behind_read_ahead_its_submitter_would_have_to_collect() {
        let dir = temp_dir("plan-write-first");
        let (store, file, handles) = windowed_store(&dir, 4, 6);
        let bound = 12 * 4 * DECODED_BYTES;
        store.plan_restores([handles.as_slice()]);
        wait_for_in_flight(&file, 4 * DECODED_BYTES);
        let big: Vec<u64> = (0..44 * RUN_ROWS).collect();
        let big = Run::from_rows(&big, &[&big]);
        assert!(big.mem_bytes() <= bound && big.mem_bytes() + 4 * DECODED_BYTES > bound);
        let written = spill(&store, big).unwrap();
        settle(&written);
        assert!(matches!(*spilled(&written).ticket.lock(), TicketState::Written));
        assert!(!is_parked(&handles[4]), "the window stayed shut meanwhile");
        assert_eq!(written.into_run().unwrap().len() as u64, 44 * RUN_ROWS);
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.into_run().unwrap().keys.iter().next(), first_key(i));
        }
        drop((store, file));
        assert_eq!(spill_files_in(&dir), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn with_zero_workers_a_plan_is_a_no_op_and_into_run_decodes_inline() {
        let dir = temp_dir("plan-inline");
        let file = small_store(&dir, FaultInjector::none(), 0, 12 * 2 * DECODED_BYTES);
        let store = RunStore { file: Some(Arc::clone(&file)) };
        let handles = store.spill_batch(numbered_runs(4)).unwrap();
        store.plan_restores([handles.as_slice()]);
        assert_eq!(file.exec.queue_bytes(), (0, 0));
        for (i, handle) in handles.into_iter().enumerate() {
            assert!(matches!(*spilled(&handle).ticket.lock(), TicketState::Written));
            assert_eq!(handle.into_run().unwrap().keys.iter().next(), first_key(i));
        }
        assert_eq!(store.io_stats().unwrap().async_io_nanos, 0);
        drop((store, file));
        assert_eq!(spill_files_in(&dir), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Planned handles dropped unconsumed — parked, being read, or still
    /// in the plan — leave nothing behind: no charged bytes, no scratch
    /// file, no disk reservation.
    #[cfg(not(miri))]
    #[test]
    fn planned_handles_dropped_unconsumed_leave_no_bytes_no_file_and_no_reservation() {
        let dir = temp_dir("plan-drop");
        let disk = DiskBudget::limited(1 << 30);
        let config = SpillConfig { io_threads: 1 };
        let bound = 12 * 2 * DECODED_BYTES;
        let file = FileStore::open(dir.clone(), FaultInjector::none(), disk.clone(), config, bound);
        let file = Arc::new(file.unwrap());
        let store = RunStore { file: Some(Arc::clone(&file)) };
        let handles = store.spill_batch(numbered_runs(6)).unwrap();
        // Planned while the writes may still be in flight; dropped while
        // the worker may be anywhere in the plan.
        store.plan_restores([handles.as_slice()]);
        drop(handles);
        // A write's bytes retire just after its tickets settle.
        wait_for_in_flight(&file, 0);
        assert_eq!(spill_files_in(&dir), 0);
        assert_eq!(disk.outstanding(), 0);
        // And again from the settled state: two parked, four planned.
        let handles = store.spill_batch(numbered_runs(6)).unwrap();
        handles.iter().for_each(settle);
        wait_for_in_flight(&file, 0);
        store.plan_restores([handles.as_slice()]);
        wait_for_in_flight(&file, 2 * DECODED_BYTES);
        drop(handles);
        assert_eq!(file.exec.queue_bytes().0, 0, "parked bytes outlived their handles");
        assert_eq!(spill_files_in(&dir), 0);
        assert_eq!(disk.outstanding(), 0);
        drop((store, file));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn with_zero_workers_a_permanent_write_error_returns_from_the_submitting_call() {
        let dir = temp_dir("inline-enospc");
        let disk = DiskBudget::limited(1 << 20);
        let store = RunStore::spilling_with_config(
            &dir,
            injected(SpillFaultKind::WriteEnospc, 1),
            disk.clone(),
            SpillConfig { io_threads: 0 },
        )
        .unwrap();
        let err = spill(&store, compressible_run(500)).unwrap_err();
        assert!(matches!(err, AggError::SpillFailed { .. }), "{err:?}");
        assert!(err.to_string().contains("os error 28"), "{err}");
        assert_eq!(disk.outstanding(), 0, "the failed call left bytes reserved");
        assert_eq!(spill_files_in(&dir), 0, "the failed call left a file");
        assert_eq!(store.io_stats().unwrap().io_abandons, 1);
        // Returned, not also deferred: nothing is left to surface.
        store.drain().unwrap();
        assert_eq!(spill(&store, compressible_run(64)).unwrap().into_run().unwrap().len(), 64);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segmenting_keeps_handle_order_equal_to_submission_order() {
        for io_threads in [0usize, 2] {
            let dir = temp_dir(&format!("segments-{io_threads}"));
            // A segment is cut at a third of the bound: two runs a file.
            let store = small_store(&dir, FaultInjector::none(), io_threads, 6 * run_bytes());
            let handles = store.write_batch(numbered_runs(20)).unwrap();
            assert_eq!(handles.len(), 20);
            let files: std::collections::BTreeSet<PathBuf> =
                handles.iter().map(|h| h.path().to_path_buf()).collect();
            assert_eq!(files.len(), 10, "segment files");
            for (i, spilled) in handles.into_iter().enumerate() {
                let run = RunHandle::Spilled(spilled).into_run().unwrap();
                assert_eq!(
                    run.keys.iter().next(),
                    Some(i as u64 * RUN_ROWS),
                    "handle {i} out of order"
                );
                assert_eq!(run.len() as u64, RUN_ROWS);
            }
            store.drain().unwrap();
            assert_eq!(spill_files_in(&dir), 0);
            drop(store);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The executor's byte bound: a submitter that runs ahead of a
    /// stalled worker fills the queue to the bound and blocks, wakes when
    /// bytes retire, and a job larger than the whole bound runs alone.
    #[test]
    fn in_flight_bytes_stay_under_the_bound_except_for_a_lone_oversized_job() {
        let dir = temp_dir("bound");
        let bound = 6 * run_bytes();
        let store = small_store(&dir, FaultInjector::none(), 1, bound);
        // Stall the worker at the end of its first job: settling needs the
        // ticket's lock, and the job's bytes retire only after that.
        let mut first = Vec::new();
        let job = store.segment_job(numbered_runs(1), &mut first).unwrap();
        let stall = first[0].ticket.lock();
        store.exec.submit(job, run_bytes()).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let submitter = Arc::clone(&store);
            scope.spawn(move || {
                // One run per call = one job each; far more than fits.
                let handles: Vec<_> = numbered_runs(24)
                    .into_iter()
                    .flat_map(|run| submitter.write_batch(vec![run]).unwrap())
                    .collect();
                done_tx.send(handles).unwrap();
            });
            // The queue fills to the bound …
            while store.exec.queue_bytes().0 < bound {
                std::thread::yield_now();
            }
            // … and there the submitter stays, for as long as nothing retires.
            assert!(done_rx.try_recv().is_err(), "the submitter ran past the bound");
            assert_eq!(store.exec.queue_bytes().0, bound);
            drop(stall);
        });
        let handles = done_rx.recv().expect("a blocked submitter wakes when bytes retire");
        assert_eq!(handles.len(), 24);
        drop(first);

        // Runs read ahead are held against the same bound: with one
        // parked for this thread (a run is larger than this store's
        // window, so it is read ahead alone) the writes that follow still
        // stop at the bound, and none of them waits for the parked run.
        let planned: Vec<RunHandle> = handles.into_iter().map(RunHandle::Spilled).collect();
        planned.iter().for_each(settle);
        wait_for_in_flight(&store, 0);
        RunStore { file: Some(Arc::clone(&store)) }.plan_restores([planned.as_slice()]);
        wait_for_in_flight(&store, DECODED_BYTES);
        let more: Vec<_> = numbered_runs(24)
            .into_iter()
            .flat_map(|run| store.write_batch(vec![run]).unwrap())
            .collect();
        for (i, handle) in planned.into_iter().enumerate() {
            assert_eq!(handle.into_run().unwrap().keys.iter().next(), first_key(i));
        }
        drop(more);
        wait_for_in_flight(&store, 0);
        let peak = store.exec.queue_bytes().1;
        assert!(peak <= bound, "peak {peak} over the bound {bound}");

        // A batch of one run larger than the bound is one oversized job:
        // admitted, but only into an empty executor.
        let big: Vec<u64> = (0..40 * RUN_ROWS).collect();
        let big = Run::from_rows(&big, &[&big]);
        let big_bytes = big.mem_bytes();
        assert!(big_bytes > bound);
        let mut runs = numbered_runs(4);
        runs.insert(2, big);
        let handles = store.write_batch(runs).unwrap();
        let rows: Vec<usize> =
            handles.into_iter().map(|s| RunHandle::Spilled(s).into_run().unwrap().len()).collect();
        let (small, large) = (RUN_ROWS as usize, 40 * RUN_ROWS as usize);
        assert_eq!(rows, [small, small, large, small, small]);
        // A job's bytes retire just after its tickets settle.
        wait_for_in_flight(&store, 0);
        assert_eq!(store.exec.queue_bytes(), (0, big_bytes), "the oversized job had company");
        drop(store);
        assert_eq!(spill_files_in(&dir), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
