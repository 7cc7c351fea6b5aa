//! The long-lived shared worker runtime.
//!
//! One process-wide pool of worker threads, started once and sized to the
//! machine, executes the morsel and bucket tasks of *every* concurrently
//! admitted query. Each query gets its own set of **slots** — per-slot
//! work-stealing deques plus the panic/quiescence state of one scope —
//! and the shared workers round-robin across the active queries at task
//! granularity, claiming a free slot of the chosen query for the duration
//! of one task. The submitting thread always owns slot 0 and helps until
//! quiescence, so a query makes progress even when every shared worker is
//! busy elsewhere (and a one-slot query runs deterministically inline on
//! its caller, untouched by the pool).

use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Scheduling counters of one slot of a completed scope, accumulated
/// locally per task execution and folded into the slot under a mutex —
/// off the row-level hot path (tasks are whole morsels or whole buckets).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerPoolMetrics {
    /// Tasks run to completion on this slot (own or stolen).
    pub tasks_executed: u64,
    /// Tasks obtained from another slot's deque.
    pub steals: u64,
    /// Full scans over all victim deques that found nothing to steal.
    pub failed_steal_scans: u64,
    /// Nanoseconds the submitting thread spent parked waiting for
    /// quiescence (slot 0 only; shared workers' idle time belongs to the
    /// runtime, not to any one query).
    pub idle_nanos: u64,
}

impl WorkerPoolMetrics {
    fn add(&mut self, other: &WorkerPoolMetrics) {
        self.tasks_executed += other.tasks_executed;
        self.steals += other.steals;
        self.failed_steal_scans += other.failed_steal_scans;
        self.idle_nanos += other.idle_nanos;
    }
}

/// Per-slot scheduling metrics of one completed scope.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolMetrics {
    /// One entry per slot, index = slot (= worker) index.
    pub workers: Vec<WorkerPoolMetrics>,
}

impl PoolMetrics {
    /// Sum over all slots.
    pub fn totals(&self) -> WorkerPoolMetrics {
        let mut t = WorkerPoolMetrics::default();
        for w in &self.workers {
            t.add(w);
        }
        t
    }

    /// Fold another scope's metrics into this one (same slot count, or
    /// either side empty).
    pub fn merge(&mut self, other: &PoolMetrics) {
        if self.workers.len() < other.workers.len() {
            self.workers.resize(other.workers.len(), WorkerPoolMetrics::default());
        }
        for (dst, src) in self.workers.iter_mut().zip(&other.workers) {
            dst.add(src);
        }
    }
}

/// Identifier of one admitted query: every scope the query runs (each
/// `push`, the `finish` recursion) carries the same id, and the runtime's
/// dispatch, the run report, and the progress heartbeat all tag work with
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// The raw id (serialized into `RunReport::query_id`).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A unit of work after lifetime erasure (see [`Scope::spawn`]).
type ErasedTask = Box<dyn FnOnce(&Scope<'_, 'static>) + Send + 'static>;

/// Render a panic payload for [`TaskPanic::message`]: the `&str`/`String`
/// payloads of ordinary `panic!` calls are passed through, anything else is
/// described by its opacity.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One execution slot of a query: a deque, its exclusive-claim flag, and
/// the slot's scheduling counters.
struct Slot {
    /// Exclusive-use flag: the holder is the only executor using this slot
    /// index until it releases. hsa-core keys per-worker state (recorder
    /// shards, worker hash tables) on the slot index, so exclusivity is
    /// what keeps that indexing race-free across the shared pool.
    claimed: AtomicBool,
    /// Owner pushes/pops at the back (LIFO), thieves pop at the front
    /// (FIFO). A plain mutex per deque is plenty: tasks are coarse (whole
    /// morsels / whole buckets), so queue operations are orders of
    /// magnitude rarer than the row-level work they guard.
    queue: Mutex<VecDeque<ErasedTask>>,
    /// The slot's counters, published before each task's pending
    /// decrement so quiescence implies every counter is visible.
    metrics: Mutex<WorkerPoolMetrics>,
}

/// The shared state of one scope of one query (one `push` or `finish`).
/// Fully `'static`: tasks are lifetime-erased on entry (see
/// [`Scope::spawn`]) and the scope call blocks until all of them have
/// been consumed.
struct QueryRun {
    id: QueryId,
    /// The runtime this run is registered with (for worker wakeups).
    runtime: Arc<RuntimeInner>,
    slots: Vec<Slot>,
    /// Tasks spawned but not yet finished; quiescence = 0.
    pending: AtomicUsize,
    /// Set when any task panicked (or the scope root unwound). Once
    /// poisoned the scope stops running queued tasks — it *drains* them
    /// (popped and dropped unexecuted) so quiescence is still reached,
    /// fast, and in a known state. Other queries are untouched: poison is
    /// per-run state.
    poisoned: AtomicBool,
    /// Payload message of the first panic (later ones are dropped).
    panic_msg: Mutex<Option<String>>,
    /// Wakeup for the submitting thread parked awaiting quiescence.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
}

impl QueryRun {
    fn new(id: QueryId, threads: usize, runtime: Arc<RuntimeInner>) -> Self {
        Self {
            id,
            runtime,
            slots: (0..threads)
                .map(|_| Slot {
                    claimed: AtomicBool::new(false),
                    queue: Mutex::new(VecDeque::new()),
                    metrics: Mutex::new(WorkerPoolMetrics::default()),
                })
                .collect(),
            pending: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic_msg: Mutex::new(None),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
        }
    }

    /// Claim a free slot with index ≥ `lo` for exclusive use. Shared
    /// workers pass `lo = 1`: slot 0 belongs to the submitting thread, so
    /// a one-slot query is never touched by the pool and runs its tasks
    /// deterministically inline.
    fn claim_slot(&self, lo: usize) -> Option<usize> {
        for (i, slot) in self.slots.iter().enumerate().skip(lo) {
            // ORDERING: Acquire/Relaxed; site: claim; pairs-with: claimed.unclaim —
            // the winning CAS acquires every slot-indexed write (worker
            // tables, recorder shards) of the previous holder; the failed
            // side only retries the next slot.
            if slot
                .claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Some(i);
            }
        }
        None
    }

    fn release_slot(&self, slot: usize) {
        // ORDERING: Release; site: unclaim; pairs-with: claimed.claim —
        // hands every slot-indexed write to the next claimant.
        self.slots[slot].claimed.store(false, Ordering::Release);
    }

    fn pop_task(&self, slot: usize, counters: &mut WorkerPoolMetrics) -> Option<ErasedTask> {
        if let Some(task) = self.slots[slot].queue.lock().pop_back() {
            return Some(task);
        }
        let n = self.slots.len();
        for i in 1..n {
            let victim = (slot + i) % n;
            if let Some(task) = self.slots[victim].queue.lock().pop_front() {
                counters.steals += 1;
                return Some(task);
            }
        }
        counters.failed_steal_scans += 1;
        None
    }

    /// Run (or, when poisoned, drain) one task of this query on `slot`,
    /// which the caller must hold. Returns whether a task was consumed.
    fn run_one(&self, slot: usize) -> bool {
        let mut counters = WorkerPoolMetrics::default();
        let Some(task) = self.pop_task(slot, &mut counters) else {
            if counters.failed_steal_scans > 0 {
                self.slots[slot].metrics.lock().add(&counters);
            }
            return false;
        };
        // ORDERING: Acquire; site: drain; pairs-with: poisoned.poison —
        // an executor that sees the poison flag also sees the recorded
        // panic message.
        if self.poisoned.load(Ordering::Acquire) {
            // A task already panicked: drain instead of run. Dropping the
            // closure releases whatever it owned (data, reservations).
            drop(task);
        } else {
            let scope: Scope<'_, 'static> = Scope { run: self, slot, _env: PhantomData };
            // Contain panics so that (a) shared workers survive to serve
            // other queries, (b) pending still reaches zero, and (c) the
            // scope surfaces one consistent failure once quiesced.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(&scope)));
            if let Err(payload) = outcome {
                let mut first = self.panic_msg.lock();
                if first.is_none() {
                    *first = Some(payload_message(payload.as_ref()));
                }
                drop(first);
                // ORDERING: Release; site: poison; pairs-with: poisoned.drain, poisoned.observe —
                // publishes the panic message written above to the Acquire
                // loads of the flag (drain path, scope exit).
                self.poisoned.store(true, Ordering::Release);
            }
            counters.tasks_executed += 1;
        }
        // Publish the slot's counters *before* the decrement: observing
        // pending == 0 must imply the metrics are complete.
        self.slots[slot].metrics.lock().add(&counters);
        // ORDERING: AcqRel; site: task-done; pairs-with: pending.quiesce —
        // the decrement releases this task's side effects to whoever
        // observes pending == 0, and acquires earlier decrements so
        // quiescence implies all effects are visible.
        self.pending.fetch_sub(1, Ordering::AcqRel);
        self.idle_cv.notify_all();
        true
    }
}

/// Handle through which tasks spawn subtasks; one per (scope, executor).
pub struct Scope<'run, 'env> {
    run: &'run QueryRun,
    slot: usize,
    /// Invariant marker tying spawned closures to the data the scope may
    /// borrow; the runtime erases it (see [`Scope::spawn`]) but the API
    /// enforces it.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'run, 'env> Scope<'run, 'env> {
    /// Spawn a task. It may run on any executor of this query — the
    /// submitting thread or any shared runtime worker — any time before
    /// the enclosing scope call returns.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce(&Scope<'_, 'env>) + Send + 'env,
    {
        // ORDERING: AcqRel; site: spawn; pairs-with: pending.quiesce —
        // the increment must be visible before the task is enqueued so
        // quiescence checks (pending == 0) can never miss a task that is
        // already stealable.
        self.run.pending.fetch_add(1, Ordering::AcqRel);
        let task: Box<dyn FnOnce(&Scope<'_, 'env>) + Send + 'env> = Box::new(task);
        // SAFETY: lifetime erasure of the task closure, sound because the
        // scope entry point ([`QueryHandle::try_scope_observed`]) does not
        // return — on the normal path or during unwind — until `pending`
        // reaches zero, and `pending` is decremented only *after* the
        // closure has been consumed (run to completion or dropped on the
        // drain path). No `'env` borrow inside the closure can therefore
        // outlive the stack frame that owns the borrowed data. The two
        // `Box<dyn …>` types differ only in lifetimes, so layout (one fat
        // pointer) and vtable are identical.
        let task: ErasedTask = unsafe {
            std::mem::transmute::<Box<dyn FnOnce(&Scope<'_, 'env>) + Send + 'env>, ErasedTask>(task)
        };
        self.run.slots[self.slot].queue.lock().push_back(task);
        // Wake the submitting thread (it may be parked in its help loop)
        // and one shared worker — unless the query has one slot, which
        // no shared worker may claim (see [`QueryRun::claim_slot`]).
        self.run.idle_cv.notify_one();
        if self.run.slots.len() > 1 {
            self.run.runtime.notify_workers();
        }
    }

    /// Number of execution slots of this query's scope (= the query's
    /// configured thread count, the cap on its parallelism).
    pub fn threads(&self) -> usize {
        self.run.slots.len()
    }

    /// Index of the slot the current task holds (0 = the submitting
    /// thread). Stable per-query worker index for sharded state.
    pub fn worker_index(&self) -> usize {
        self.slot
    }

    /// The id of the query this scope belongs to.
    pub fn query_id(&self) -> QueryId {
        self.run.id
    }
}

/// A contained task panic: the first panicking task's payload message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload if it was a string, else a placeholder.
    pub message: String,
}

struct RuntimeInner {
    /// Scopes currently executing, in admission order. Workers snapshot
    /// this under the lock and round-robin over the snapshot.
    active: Mutex<Vec<Arc<QueryRun>>>,
    /// Round-robin dispatch cursor over the active list.
    cursor: AtomicUsize,
    /// Parking for idle shared workers.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Monotonic query-id source.
    next_id: AtomicU64,
    /// Number of shared worker threads this runtime started.
    workers: usize,
}

impl RuntimeInner {
    fn notify_workers(&self) {
        self.idle_cv.notify_one();
    }

    /// Make `run` visible to the shared workers. A one-slot run is not
    /// listed: its only slot is the submitting thread's, so a worker could
    /// only wake, scan it and park again.
    fn register(&self, run: &Arc<QueryRun>) {
        if run.slots.len() == 1 {
            return;
        }
        self.active.lock().push(Arc::clone(run));
        // Taking the idle lock before notifying closes the race against a
        // worker that just found the active list empty and is about to
        // park long: it either sees the new entry or gets the wakeup.
        let _guard = self.idle_lock.lock();
        self.idle_cv.notify_all();
    }

    fn deregister(&self, run: &Arc<QueryRun>) {
        if run.slots.len() == 1 {
            return;
        }
        self.active.lock().retain(|q| !Arc::ptr_eq(q, run));
    }

    /// Dispatch one task from any active query, scanning in round-robin
    /// order from the fairness cursor. Returns whether a task ran.
    fn run_one_any(&self) -> bool {
        let snapshot: Vec<Arc<QueryRun>> = self.active.lock().clone();
        if snapshot.is_empty() {
            return false;
        }
        let n = snapshot.len();
        // ORDERING: Relaxed — the cursor is a fairness hint only; the
        // per-slot claim and the queue mutexes do the real handoff.
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for i in 0..n {
            let run = &snapshot[(start.wrapping_add(i)) % n];
            // ORDERING: Relaxed — cheap skip hint; a missed in-flight
            // spawn is caught by the next scan or the condvar wakeup.
            if run.pending.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let Some(slot) = run.claim_slot(1) else {
                // Query already saturated (every slot busy) — stay fair,
                // try the next one.
                continue;
            };
            let ran = run.run_one(slot);
            run.release_slot(slot);
            if ran {
                return true;
            }
        }
        false
    }

    fn worker_loop(&self) {
        loop {
            if self.run_one_any() {
                continue;
            }
            let mut guard = self.idle_lock.lock();
            // Park briefly when queries are active (the 1 ms timeout is a
            // safety net against lost wakeups, not a spin); park long when
            // the runtime is idle so an idle process stays quiet. The
            // empty-check under the idle lock pairs with `register`
            // notifying under the same lock, so a fresh registration is
            // never missed for the long timeout.
            let empty = self.active.lock().is_empty();
            let timeout = if empty { Duration::from_millis(100) } else { Duration::from_millis(1) };
            self.idle_cv.wait_for(&mut guard, timeout);
        }
    }
}

/// The process-wide shared worker runtime: one pool of worker threads,
/// started on first use and sized to the machine, executing the tasks of
/// every admitted query with round-robin fairness across queries.
pub struct Runtime {
    inner: Arc<RuntimeInner>,
}

impl Runtime {
    /// The shared runtime, started on first use.
    pub fn global() -> &'static Runtime {
        static GLOBAL: OnceLock<Runtime> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Runtime::start(std::thread::available_parallelism().map_or(1, |n| n.get()))
        })
    }

    fn start(workers: usize) -> Runtime {
        let inner = Arc::new(RuntimeInner {
            active: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            workers,
        });
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            // A failed spawn is tolerable: submitting threads always help
            // inline, so queries still complete, just less concurrently.
            let _ = std::thread::Builder::new()
                .name(format!("hsa-runtime-{w}"))
                .spawn(move || inner.worker_loop());
        }
        Runtime { inner }
    }

    /// Number of shared worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Admit a query with up to `threads` execution slots. Cheap: the
    /// returned handle only reserves an id; resources are per-scope.
    pub fn admit(&self, threads: usize) -> QueryHandle {
        // ORDERING: Relaxed — a unique-id counter, no memory is published.
        let id = QueryId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        QueryHandle { runtime: Arc::clone(&self.inner), id, threads: threads.max(1) }
    }
}

/// One admitted query's ticket into the shared runtime: a stable
/// [`QueryId`] plus the slot count every scope of this query runs with.
/// All of a query's scope calls (each streamed chunk, the finish
/// recursion) go through one handle so the runtime can dispatch and
/// account them as one query.
#[derive(Clone)]
pub struct QueryHandle {
    runtime: Arc<RuntimeInner>,
    id: QueryId,
    threads: usize,
}

/// Winds a scope down on every exit path: on unwind of the scope root it
/// poisons the run first so queued tasks are drained, then helps until
/// quiescence, deregisters, and releases slot 0. Without it, a panicking
/// root could leave `'env`-borrowing tasks queued in a registered run —
/// the exact use-after-free the quiescence barrier exists to prevent.
struct WindDown<'a> {
    run: &'a Arc<QueryRun>,
    runtime: &'a RuntimeInner,
    clean: bool,
}

impl Drop for WindDown<'_> {
    fn drop(&mut self) {
        let run = self.run;
        if !self.clean {
            let mut first = run.panic_msg.lock();
            if first.is_none() {
                *first = Some("scope root panicked".to_string());
            }
            drop(first);
            // ORDERING: Release; site: poison; pairs-with: poisoned.drain, poisoned.observe —
            // same protocol as the poison store in `run_one`.
            run.poisoned.store(true, Ordering::Release);
        }
        let mut idle = WorkerPoolMetrics::default();
        // The submitting thread helps on slot 0 until quiescence.
        // ORDERING: Acquire; site: quiesce; pairs-with: pending.task-done, pending.spawn —
        // observing pending == 0 here means every task's writes (and its
        // published metrics) are visible.
        while run.pending.load(Ordering::Acquire) > 0 {
            if !run.run_one(0) {
                // All remaining tasks are running on shared workers; wait
                // for them to finish or to spawn more work we can steal.
                let mut guard = run.idle_lock.lock();
                // ORDERING: Acquire; site: quiesce; pairs-with: pending.task-done —
                // same pairing as the loop condition.
                if run.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                let parked = Instant::now();
                run.idle_cv.wait_for(&mut guard, Duration::from_millis(1));
                drop(guard);
                idle.idle_nanos += parked.elapsed().as_nanos() as u64;
            }
        }
        self.runtime.deregister(run);
        if idle.idle_nanos > 0 {
            run.slots[0].metrics.lock().add(&idle);
        }
        run.release_slot(0);
    }
}

impl QueryHandle {
    /// This query's id.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Slots (the parallelism cap) each scope of this query runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `root` as one scope of this query on the shared runtime: tasks
    /// it spawns (transitively) execute on the submitting thread and on
    /// free shared workers, capped at this handle's slot count. Returns
    /// after the root closure has returned *and* every spawned task has
    /// finished, together with the per-slot scheduling metrics of the
    /// completed scope (steals, failed steal scans, idle time, task
    /// counts).
    ///
    /// Panics are *contained*: when a task panics, the scope is marked
    /// failed, every still-queued task is drained (popped and dropped
    /// without running — their captured state, including memory
    /// reservations, is released by the drop), already running tasks
    /// finish, and the first panic's payload message is returned as
    /// `Err(TaskPanic)`. The shared workers survive and move on to other
    /// queries — containment is per-query, so one query's failure never
    /// perturbs another's results or counters — and the caller keeps a
    /// usable process and its own state: the operator driver turns this
    /// into [`AggError::WorkerPanic`] and returns its tables to the pool.
    ///
    /// [`AggError::WorkerPanic`]: https://docs.rs/hsa-fault
    pub fn try_scope_observed<'env, R, F>(&self, root: F) -> (Result<R, TaskPanic>, PoolMetrics)
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
        R: Send,
    {
        let run = Arc::new(QueryRun::new(self.id, self.threads, Arc::clone(&self.runtime)));
        // ORDERING: Relaxed — slot 0 is the submitting thread's for the
        // whole scope, and the run is not yet visible to any other
        // thread; `register` below hands it over under the mutex.
        run.slots[0].claimed.store(true, Ordering::Relaxed);
        self.runtime.register(&run);
        let mut wind_down = WindDown { run: &run, runtime: &self.runtime, clean: false };
        let root_scope: Scope<'_, 'env> = Scope { run: &run, slot: 0, _env: PhantomData };
        let result = root(&root_scope);
        wind_down.clean = true;
        // Normal wind-down: help until quiescence, deregister, release.
        drop(wind_down);

        // Post-quiescence: all counters are published (each slot's
        // metrics are folded in before its task's pending decrement).
        let metrics =
            PoolMetrics { workers: run.slots.iter().map(|s| s.metrics.lock().clone()).collect() };
        // ORDERING: Acquire; site: observe; pairs-with: poisoned.poison —
        // seeing the flag guarantees the panic message is the recorded one.
        let outcome = if run.poisoned.load(Ordering::Acquire) {
            let message = run
                .panic_msg
                .lock()
                .take()
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(TaskPanic { message })
        } else {
            Ok(result)
        };
        (outcome, metrics)
    }

    /// [`Self::try_scope_observed`] with panic propagation.
    pub fn scope_observed<'env, R, F>(&self, root: F) -> (R, PoolMetrics)
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
        R: Send,
    {
        let (result, metrics) = self.try_scope_observed(root);
        match result {
            Ok(r) => (r, metrics),
            // Re-raise the contained task panic instead of minting a new
            // panic site here: the unwind originated in a task, this frame
            // only forwards it. The boxed `String` payload is exactly what
            // a formatting `panic!` would carry, so `catch_unwind` callers
            // and `#[should_panic(expected = …)]` tests observe the same
            // message either way.
            Err(p) => std::panic::resume_unwind(Box::new(format!(
                "task panicked inside hsa_tasks::scope: {}",
                p.message
            ))),
        }
    }
}

/// Run `root` with a work-stealing scope of `threads` slots on the shared
/// runtime (the calling thread holds slot 0 and helps). Returns after the
/// root closure has returned *and* every spawned task (transitively) has
/// finished.
///
/// Panics from tasks are surfaced as a panic of `scope` itself.
///
/// This is the one-shot convenience wrapper: it admits a fresh
/// single-scope query. Multi-scope queries (the streaming driver) admit
/// once via [`Runtime::admit`] and reuse the [`QueryHandle`] so every
/// scope shares one [`QueryId`].
pub fn scope<'env, R, F>(threads: usize, root: F) -> R
where
    F: FnOnce(&Scope<'_, 'env>) -> R,
    R: Send,
{
    Runtime::global().admit(threads).scope_observed(root).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether query `id` is in the runtime's active list.
    fn listed(id: QueryId) -> bool {
        Runtime::global().inner.active.lock().iter().any(|run| run.id == id)
    }

    /// A one-slot scope runs every task on its submitting thread and is
    /// never listed for the shared workers; a two-slot scope is, until it
    /// winds down.
    #[test]
    fn a_one_slot_scope_is_never_listed() {
        use std::sync::{Arc, Mutex};
        let one = Runtime::global().admit(1);
        let me = std::thread::current().id();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (root_listed, _) = one.scope_observed(|s| {
            for _ in 0..8 {
                let seen = Arc::clone(&seen);
                s.spawn(move |s2| {
                    let elsewhere = std::thread::current().id() != me;
                    seen.lock().unwrap().push(listed(s2.query_id()) || elsewhere);
                });
            }
            listed(s.query_id())
        });
        assert!(!root_listed && !listed(one.id()));
        let seen = seen.lock().unwrap().clone();
        assert_eq!(seen, [false; 8], "a task saw its scope listed, or ran off the submitter");

        let two = Runtime::global().admit(2);
        let (inside, _) = two.scope_observed(|s| listed(s.query_id()));
        assert!(inside, "a two-slot scope is listed while it runs");
        assert!(!listed(two.id()), "and delisted when it winds down");
    }

    /// How long a rendezvous waits before it breaks. It only turns a hang
    /// into a failure: nothing is timed.
    const HANG_GUARD: Duration = Duration::from_secs(10);

    /// A barrier of `parties` that breaks, releasing every waiter, when it
    /// has not filled within [`HANG_GUARD`].
    struct Rendezvous {
        /// Arrivals before any break, and whether it broke.
        state: std::sync::Mutex<(usize, bool)>,
        cv: std::sync::Condvar,
        parties: usize,
    }

    impl Rendezvous {
        /// Arrive and wait; whether every party arrived before the break.
        fn meet(&self) -> bool {
            let mut state = self.state.lock().unwrap();
            if state.1 {
                return false;
            }
            state.0 += 1;
            self.cv.notify_all();
            let (mut state, _) = self
                .cv
                .wait_timeout_while(state, HANG_GUARD, |&mut (arrived, broken)| {
                    arrived < self.parties && !broken
                })
                .unwrap();
            if state.0 < self.parties {
                state.1 = true;
                self.cv.notify_all();
            }
            state.0 == self.parties
        }
    }

    /// Two queries of two slots each run at once on a private two-worker
    /// runtime, and each spawns two tasks that meet at one 4-party
    /// rendezvous. A query's slot 0 is its submitting thread and it has one
    /// other slot, so the rendezvous fills only when each query holds a
    /// shared worker at the same moment: the runtime does not serialise
    /// concurrent queries. The counted cells say so: slot 1 of each query
    /// ran a task.
    #[test]
    fn concurrent_queries_each_hold_a_shared_worker_at_once() {
        let runtime = Runtime::start(2);
        let rendezvous =
            Rendezvous { state: Default::default(), cv: Default::default(), parties: 4 };
        let queries = [runtime.admit(2), runtime.admit(2)];
        let ran: Vec<(usize, PoolMetrics)> = std::thread::scope(|threads| {
            let submitters: Vec<_> = queries
                .iter()
                .map(|query| {
                    let rendezvous = &rendezvous;
                    threads.spawn(move || {
                        let met = AtomicUsize::new(0);
                        let ((), pool) = query.scope_observed(|s| {
                            for _ in 0..2 {
                                let met = &met;
                                s.spawn(move |_| {
                                    if rendezvous.meet() {
                                        // ORDERING: Relaxed — read after the scope's quiescence.
                                        met.fetch_add(1, Ordering::Relaxed);
                                    }
                                });
                            }
                        });
                        (met.into_inner(), pool)
                    })
                })
                .collect();
            submitters.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let slot_one: Vec<u64> =
            ran.iter().map(|(_, pool)| pool.workers[1].tasks_executed).collect();
        assert!(slot_one.iter().all(|&tasks| tasks >= 1), "slot 1 tasks {slot_one:?}: {ran:?}");
        assert!(ran.iter().all(|&(met, _)| met == 2), "the rendezvous broke: {ran:?}");
    }
}
