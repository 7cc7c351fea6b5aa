//! The operator driver: Algorithm 2 plus the parallelization of §3.2.
//!
//! Execution has two phases:
//!
//! 1. **Main loop** (level 0): the input is cut into morsels that worker
//!    threads claim by work-stealing. Each worker keeps a persistent hash
//!    table, strategy state and partition writer; sealed tables go to 256
//!    shared, mutex-guarded level-1 buckets as they fill, partitioned rows
//!    stay in the worker's writer and join the buckets at end of input.
//! 2. **Recursion** (levels ≥ 1): one task per non-empty bucket. A bucket
//!    task processes its runs through the strategy-selected routines into
//!    task-local sub-buckets (one writer per task for what it partitions);
//!    if no run left the task, the bucket's table holds the final groups
//!    of this hash prefix and is emitted. Sub-buckets are spawned as new
//!    tasks — completely independent, no synchronization. Spawning a
//!    level also tells the run store in which order its spilled runs will
//!    be wanted ([`spawn_buckets`]), so restores are read ahead of the
//!    tasks that consume them.
//!
//! Two hard floors guarantee termination regardless of hash behavior: the
//! recursion depth is bounded by the 8 radix digits of a 64-bit hash, and
//! buckets at the floor are merged with a growable table keyed by the
//! actual key values.
//!
//! Phase 1 itself lives in [`crate::stream`]: the one-shot entry points
//! below are one-chunk wrappers over [`crate::AggStream`], which runs one
//! morsel scope per pushed chunk and then the recursion of this module.

use crate::adaptive::{ModeState, Strategy};
use crate::exec::{is_degradable, ExecEnv, Gate};
use crate::hashing::{hash_run, seal_into, HashOutcome};
use crate::obs::Obs;
use crate::output::{GroupByOutput, OutSink};
use crate::partitioning::{partition_run, RunWriter};
use crate::report::{ObsConfig, RunReport};
use crate::sink::{LocalBuckets, Pending, RunSink};
use crate::stats::OpStats;
use crate::stream::AggStream;
use crate::view::{RunView, StateCols};
use crate::AggregateConfig;
use hsa_agg::{plan, AggFn, AggSpec};
use hsa_columnar::{DepotAccount, RunHandle, RunStore};
use hsa_fault::{AggError, CancelToken, Reservation};
use hsa_hash::MAX_LEVEL;
use hsa_hashtbl::{AggTable, GrowTable, TableConfig};
use hsa_obs::{Counter, LevelCounter, Phase, Recorder};
use hsa_tasks::sync::Mutex;
use hsa_tasks::{PoolMetrics, Scope};
use std::time::Instant;

/// Reuse pool for the cache-sized tables: "one or very few hash tables per
/// thread" (§4.1) instead of an allocation + identity-fill per bucket.
///
/// The pool owns the budget reservations of every table it has created;
/// they are released when the pool drops at the end of the invocation.
pub(crate) struct TablePool {
    cfg: TableConfig,
    identities: Vec<u64>,
    free: Mutex<Vec<AggTable>>,
    held: Mutex<Reservation>,
    /// Enable probe metrics on handed-out tables (deep metrics on).
    metrics: bool,
}

impl TablePool {
    pub(crate) fn new(cfg: TableConfig, identities: Vec<u64>, metrics: bool) -> Self {
        Self {
            cfg,
            identities,
            free: Mutex::new(Vec::new()),
            held: Mutex::new(Reservation::empty()),
            metrics,
        }
    }

    /// Hand out a table, reserving its memory from the budget on a miss.
    ///
    /// Degradation ladder: when the configured size is denied by a real
    /// budget limit, retry with half the slots, down to
    /// [`TableConfig::MIN_TOTAL_SLOTS`], which reclaims resident runs
    /// before it gives up ([`Gate::reserve_or_reclaim`]). A shrunken table
    /// counts as one budget downgrade. Injected failures (`limit: 0`)
    /// never degrade.
    fn get(&self, level: u32, gate: Gate<'_>, obs: &Obs) -> Result<AggTable, AggError> {
        if let Some(mut t) = self.free.lock().pop() {
            t.set_level(level);
            return Ok(t);
        }
        let mut cfg = self.cfg;
        loop {
            let bytes = cfg.mem_bytes(self.identities.len());
            let last_rung = cfg.total_slots / 2 < TableConfig::MIN_TOTAL_SLOTS;
            let granted = if last_rung {
                gate.reserve_or_reclaim(bytes, obs)
            } else {
                gate.reserve(bytes, obs)
            };
            match granted {
                Ok(res) => {
                    self.held.lock().merge(res);
                    let mut t = AggTable::new(cfg, level, &self.identities);
                    t.set_metrics_enabled(self.metrics);
                    if cfg.total_slots < self.cfg.total_slots {
                        obs.event(
                            Counter::BudgetDowngrades,
                            "table_downgrade",
                            &[("slots", cfg.total_slots as u64)],
                        );
                    }
                    return Ok(t);
                }
                Err(e) if is_degradable(&e) && !last_rung => cfg.total_slots /= 2,
                Err(e) => return Err(e),
            }
        }
    }

    pub(crate) fn put(&self, table: AggTable) {
        debug_assert!(table.is_empty(), "tables must be sealed before returning");
        self.free.lock().push(table);
    }

    /// The share of the pool's reservation that paid for `table`, which
    /// leaves the pool for good: the caller drops it instead of putting it
    /// back.
    fn retire_share(&self, table: &AggTable) -> Reservation {
        let cfg = TableConfig { total_slots: table.total_slots(), ..self.cfg };
        self.held.lock().take(cfg.mem_bytes(self.identities.len()))
    }
}

/// Everything shared across the tasks of one operator invocation. Owned
/// (not borrowed) so a [`crate::AggStream`] can hold it across pushes.
pub(crate) struct Ctx {
    pub(crate) cfg: AggregateConfig,
    pub(crate) env: ExecEnv,
    /// The effective cancel token: `env.cancel`, or an internal token the
    /// driver substitutes when the fault plan wants to cancel mid-run.
    pub(crate) cancel: CancelToken,
    /// The state columns and which columns of a run feed them.
    pub(crate) states: StateCols,
    pub(crate) pool: TablePool,
    /// Where every event of this query is counted, one shard per worker
    /// (deep metrics on top when `ObsConfig::metrics` asked for them, the
    /// timeline when `ObsConfig::trace` did); the `--progress` sampler
    /// thread reads it while the query runs.
    pub(crate) recorder: Recorder,
    /// Run store the budget degrades into: spills to `env.spill_dir` when
    /// configured, otherwise memory-only (denials stay denials).
    pub(crate) store: RunStore,
    /// First error any task hit; later tasks bail out early once set.
    pub(crate) failed: Mutex<Option<AggError>>,
    /// The query's account at the chunk depot (see [`Gate::depot`]).
    pub(crate) depot: DepotAccount,
    /// The level-1 buckets the level-0 workers fill, then the buckets
    /// spawned and not yet claimed (see [`Gate::pending`]).
    pub(crate) pending: Pending,
}

impl Ctx {
    /// The observability handle for a task running as `worker`: its
    /// events land in that worker's shard, which no other task writes
    /// while it runs.
    pub(crate) fn obs(&self, worker: usize) -> Obs<'_> {
        Obs::new(&self.recorder, worker)
    }

    /// The allocation gate tasks reserve memory through.
    pub(crate) fn gate(&self) -> Gate<'_> {
        let env = &self.env;
        Gate {
            budget: &env.budget,
            faults: &env.faults,
            store: &self.store,
            depot: &self.depot,
            pending: &self.pending,
        }
    }

    /// Record the first error; subsequent errors are dropped.
    pub(crate) fn fail(&self, e: AggError) {
        self.failed.lock().get_or_insert(e);
    }

    /// True once any task has failed — remaining tasks skip their work.
    pub(crate) fn bailed(&self) -> bool {
        self.failed.lock().is_some()
    }

    /// Take the recorded error, if any.
    pub(crate) fn take_failure(&self) -> Option<AggError> {
        self.failed.lock().take()
    }

    /// Poll the cancel token; counts the observation when it has tripped.
    pub(crate) fn check_cancel(&self, obs: &Obs) -> Result<(), AggError> {
        if let Some(reason) = self.cancel.cancelled() {
            obs.count(Counter::Cancellations, 1);
            return Err(AggError::Cancelled(reason));
        }
        Ok(())
    }
}

/// Per-worker persistent state of the level-0 main loop.
pub(crate) struct WorkerState {
    pub(crate) table: Option<AggTable>,
    pub(crate) mode: ModeState,
    pub(crate) epoch_rows: u64,
    pub(crate) map32: Vec<u32>,
    /// Everything this worker has partitioned and not yet handed to the
    /// level-1 buckets; `None` until the worker first partitions.
    pub(crate) writer: Option<RunWriter>,
}

impl WorkerState {
    pub(crate) fn new(strategy: Strategy) -> Self {
        Self {
            table: None,
            mode: ModeState::new(strategy),
            epoch_rows: 0,
            map32: Vec::new(),
            writer: None,
        }
    }
}

/// Process one run/morsel through the strategy-selected routines, into
/// and out of the state of the worker (level 0) or bucket task running it.
pub(crate) fn process_view(
    ctx: &Ctx,
    view: &RunView<'_>,
    level: u32,
    ws: &mut WorkerState,
    sink: &mut impl RunSink,
    obs: &Obs,
) -> Result<(), AggError> {
    let WorkerState { table: table_slot, mode, epoch_rows, map32, writer } = ws;
    let mut row = 0;
    while row < view.len() {
        if mode.use_hashing(level) {
            let table = match table_slot {
                Some(t) => t,
                None => match ctx.pool.get(level, ctx.gate(), obs) {
                    Ok(t) => table_slot.insert(t),
                    Err(e) if is_degradable(&e) => {
                        // Even the smallest table was denied: degrade to
                        // partitioning, which needs only the output it
                        // would produce anyway.
                        obs.event(
                            Counter::BudgetDowngrades,
                            "forced_partitioning",
                            &[("level", level as u64)],
                        );
                        return partition_run(writer, view, row, level, sink, ctx.gate(), obs);
                    }
                    Err(e) => return Err(e),
                },
            };
            match hash_run(
                view,
                row,
                table,
                &ctx.states,
                mode,
                epoch_rows,
                map32,
                writer,
                sink,
                ctx.gate(),
                obs,
            )? {
                HashOutcome::Done => return Ok(()),
                HashOutcome::Switched { next_row } => row = next_row,
            }
        } else {
            let rows = (view.len() - row) as u64;
            partition_run(writer, view, row, level, sink, ctx.gate(), obs)?;
            if mode.on_partitioned(rows) {
                obs.event(
                    Counter::SwitchesToHashing,
                    "switch_to_hashing",
                    &[("level", level as u64)],
                );
            }
            return Ok(());
        }
    }
    Ok(())
}

/// Emit a table that absorbed its whole input as final groups into its
/// claim on the result, then give it back to the pool.
///
/// The output block is the last rung of the budget's ladder: when even
/// reclaiming leaves it denied and a spill directory is set, nothing
/// resident is left but the tables and the output itself, and the table
/// pays for its own output — the block is carved from the table's share
/// of the pool's reservation, and the table leaves the pool instead of
/// returning to it (the next one is reserved down the ladder). While the
/// groups are written, the table and its block share one reservation: the
/// overshoot is at most the block.
///
/// Only the claim takes the sink's lock; the groups are written outside
/// it, so the result's first-touch faults land in this task, in parallel.
pub(crate) fn emit_final_from_table(
    ctx: &Ctx,
    out: &OutSink,
    mut table: AggTable,
    obs: &Obs,
) -> Result<(), AggError> {
    let pt = obs.phase_start(table.level(), Phase::Output);
    let groups = table.len() as u64;
    let out_bytes = (table.len() * 8 * (1 + table.n_cols())) as u64;
    // On a denied reservation the timer is dropped unrecorded: the query
    // is failing and partial attribution would only skew the tree.
    // A retiring table keeps what its share holds beyond the block until
    // the table drops.
    let (res, retiring) = match ctx.gate().reserve_or_reclaim(out_bytes, obs) {
        Ok(res) => (res, None),
        Err(e) if ctx.gate().can_spill(&e) => {
            obs.event(Counter::BudgetDowngrades, "table_retire", &[("groups", groups)]);
            let mut share = ctx.pool.retire_share(&table);
            (share.take(out_bytes), Some(share))
        }
        Err(e) => return Err(e),
    };
    let claim = out.claim(table.len(), res);
    debug_assert!(claim.is_ok(), "the result's room is below its groups");
    let mut claim = claim?;
    table.seal_to(claim.keys, &mut claim.states);
    obs.flush_table_metrics(&mut table);
    obs.phase_end(pt, groups, groups, out_bytes);
    if retiring.is_none() {
        ctx.pool.put(table);
    }
    Ok(())
}

/// Merge a bucket with the growable key-addressed table (recursion floor
/// and the final pass of `PartitionAlways`).
///
/// Spilled runs are restored one at a time, right before their rows are
/// folded in (the store may have read them ahead, inside its own window).
fn grow_merge(ctx: &Ctx, out: &OutSink, bucket: Vec<RunHandle>, obs: &Obs) -> Result<(), AggError> {
    let rows: usize = bucket.iter().map(RunHandle::len).sum();
    obs.event(Counter::FallbackMerges, "fallback_merge", &[("rows", rows as u64)]);
    let level = bucket.first().map_or(0, RunHandle::level);
    let pt = obs.phase_start(level, Phase::GrowMerge);
    let capacity = rows.clamp(16, 1 << 20);
    let upper = GrowTable::mem_bytes_upper(capacity, rows, ctx.states.len());
    let mut res = ctx.gate().reserve_or_reclaim(upper, obs)?;
    let mut table = GrowTable::with_capacity(capacity, &ctx.states.ops);
    let n_cols = ctx.states.len();
    let mut vals = vec![0u64; n_cols];
    for handle in bucket {
        let run = ctx.gate().restore(handle, obs)?;
        let aggregated = run.aggregated;
        let view = RunView::Owned(run);
        let mut row = 0;
        while row < view.len() {
            let len = view.aligned_block_len(row);
            let keys = &view.key_tail(row)[..len];
            let cols: Vec<&[u64]> =
                (0..n_cols).map(|i| &view.state_tail(&ctx.states, i, row)[..len]).collect();
            for (j, &key) in keys.iter().enumerate() {
                for (v, c) in vals.iter_mut().zip(&cols) {
                    *v = c[j];
                }
                table.accumulate(key, &vals, aggregated);
            }
            row += len;
        }
    }
    let groups = table.len();
    let claim = out.claim(groups, res.take((groups * 8 * (1 + n_cols)) as u64));
    debug_assert!(claim.is_ok(), "the result's room is below its groups");
    let mut claim = claim?;
    for (row, (key, states)) in table.drain().enumerate() {
        claim.keys[row] = key;
        for (col, state) in claim.states.iter_mut().zip(states) {
            col[row] = state;
        }
    }
    obs.phase_end(pt, rows as u64, groups as u64, 0);
    Ok(())
}

/// Recursive bucket task (Algorithm 2, line 8).
///
/// `bucket_res` is the budget reservation backing the bucket's resident
/// runs; it is dropped (released) when the task finishes consuming them —
/// on success and on every early-out alike. Spilled runs carry no
/// reservation; each is restored from disk right before it is processed.
/// Final groups are claimed from `out`.
pub(crate) fn process_bucket<'env, 'out: 'env>(
    ctx: &'env Ctx,
    out: &'env OutSink<'out>,
    scope: &Scope<'_, 'env>,
    bucket: Vec<RunHandle>,
    bucket_res: Reservation,
    level: u32,
) {
    let _bucket_res = bucket_res;
    if ctx.bailed() {
        return;
    }
    let t0 = Instant::now();
    let obs = ctx.obs(scope.worker_index());
    // The whole task runs inside a Driver phase: the nested accounting
    // subtracts every work phase, so the cell keeps only the dispatch
    // overhead (restore plumbing, views, pooling, run teardown) — and the
    // guard records it on error exits and contained panics too.
    let _driver = obs.phase_scope(level, Phase::Driver);
    // The injected fault *is* a panic: it exercises the containment path.
    #[allow(clippy::panic)]
    if ctx.env.faults.should_panic_in_task() {
        panic!("injected fault: task panic");
    }
    if let Err(e) = ctx.check_cancel(&obs) {
        ctx.fail(e);
        return;
    }
    debug_assert!(
        bucket.iter().all(|run| run.n_cols() == ctx.states.run_cols(run.aggregated())),
        "a run entering level {level} does not carry its kind's columns"
    );
    // A task that ran to its end: its time joins the level's. Tasks that
    // fail do not record it.
    let done = |obs: &Obs| {
        obs.count_at(LevelCounter::TaskNanos, level, t0.elapsed().as_nanos() as u64);
    };
    let final_hash_pass = matches!(
        ctx.cfg.strategy,
        Strategy::PartitionAlways { passes } if level >= passes
    );
    if level >= MAX_LEVEL || final_hash_pass {
        if let Err(e) = grow_merge(ctx, out, bucket, &obs) {
            ctx.fail(e);
            return;
        }
        done(&obs);
        return;
    }

    let mut ws = WorkerState::new(ctx.cfg.strategy);
    let mut local = LocalBuckets::new();

    for handle in bucket {
        debug_assert_eq!(handle.level(), level, "run level out of sync with recursion");
        let run = match ctx.gate().restore(handle, &obs) {
            Ok(run) => run,
            Err(e) => {
                ctx.fail(e);
                return;
            }
        };
        // Debug builds only: an inconsistent run is a bug in this crate, not bad input.
        #[cfg(debug_assertions)]
        #[allow(clippy::panic)]
        if let Err(msg) = run.check_consistent() {
            panic!("inconsistent run entering level {level}: {msg}");
        }
        let view = RunView::Owned(run);
        if let Err(e) = process_view(ctx, &view, level, &mut ws, &mut local, &obs) {
            // A non-empty table is dropped rather than pooled; its memory
            // stays reserved by the pool until the operator unwinds.
            ctx.fail(e);
            return;
        }
    }
    // The bucket is consumed: what it partitioned leaves as one run per
    // digit (and kind), not one per input run.
    if let Some(mut writer) = ws.writer {
        writer.hand_off(&mut local, &obs);
    }

    if local.is_empty() {
        // The entire bucket was absorbed by one table: its groups are
        // final — "the recursion stops automatically" (§5).
        if let Some(table) = ws.table {
            if let Err(e) = emit_final_from_table(ctx, out, table, &obs) {
                ctx.fail(e);
                return;
            }
        }
        done(&obs);
        return;
    }

    // Something spilled: the leftover table content is one more run set.
    if let Some(mut table) = ws.table {
        if !table.is_empty() {
            if let Err(e) = seal_into(&mut table, None, &mut local, ctx.gate(), &obs) {
                ctx.fail(e);
                return;
            }
        }
        ctx.pool.put(table);
    }
    done(&obs);
    spawn_buckets(ctx, out, scope, local.into_nonempty(), level + 1);
}

/// Spawn one [`process_bucket`] task per bucket of `level`, after telling
/// the run store in which order their spilled runs will be wanted so it
/// can read ahead: the spawning thread pops its own tasks newest first
/// (`hsa-tasks` deques are owner-LIFO), so that is the last bucket's runs
/// first. A thief takes the oldest task instead, and the store moves a
/// bucket entered out of turn to the front of its plan.
///
/// With a store that can spill, the buckets wait parked in
/// [`Ctx::pending`] until their tasks claim them, so a denied request
/// elsewhere can reclaim their resident runs meanwhile.
pub(crate) fn spawn_buckets<'env, 'out: 'env>(
    ctx: &'env Ctx,
    out: &'env OutSink<'out>,
    scope: &Scope<'_, 'env>,
    buckets: impl Iterator<Item = (usize, Vec<RunHandle>, Reservation)>,
    level: u32,
) {
    // Only the plan needs the level's buckets side by side, and only a
    // store that can spill has anything to plan or reclaim; otherwise
    // each bucket goes straight from the sink to its task.
    if !ctx.store.can_spill() {
        return buckets.for_each(|(_digit, bucket, res)| {
            scope.spawn(move |s| process_bucket(ctx, out, s, bucket, res, level));
        });
    }
    let buckets: Vec<_> = buckets.map(|(_digit, bucket, res)| (bucket, res)).collect();
    ctx.store.plan_restores(buckets.iter().rev().map(|(bucket, _)| bucket.as_slice()));
    for ticket in ctx.pending.park(buckets) {
        scope.spawn(move |s| {
            let (bucket, res) = ctx.pending.claim(ticket);
            process_bucket(ctx, out, s, bucket, res, level);
        });
    }
}

/// Run a grouped aggregation.
///
/// * `keys` — the grouping column.
/// * `inputs` — aggregate input columns, referenced by index from `specs`;
///   every column must have `keys.len()` rows.
/// * `specs` — requested aggregates (empty = `DISTINCT`).
///
/// Returns the grouped result plus the execution statistics the paper's
/// pass-breakdown plots are built from.
///
/// Panics on invalid input. For a non-panicking variant with memory
/// budgets and cancellation, see [`try_aggregate`]; for bounded-chunk
/// ingestion, see [`crate::AggStream`].
// The documented panicking wrapper; `try_aggregate` is the fallible form.
#[allow(clippy::panic)]
pub fn aggregate(
    keys: &[u64],
    inputs: &[&[u64]],
    specs: &[AggSpec],
    cfg: &AggregateConfig,
) -> (GroupByOutput, OpStats) {
    try_aggregate(keys, inputs, specs, cfg, &ExecEnv::unrestricted())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`aggregate`]: validates the input instead of panicking and
/// runs under `env`'s memory budget, cancellation token, and fault plan.
pub fn try_aggregate(
    keys: &[u64],
    inputs: &[&[u64]],
    specs: &[AggSpec],
    cfg: &AggregateConfig,
    env: &ExecEnv,
) -> Result<(GroupByOutput, OpStats), AggError> {
    let (out, report) =
        try_aggregate_observed(keys, inputs, specs, cfg, env, &ObsConfig::disabled())?;
    Ok((out, report.stats))
}

/// Reject specs that `plan` cannot lower: everything but COUNT needs an
/// input column. The `AggSpec` constructors always set one, but the
/// fields are public.
pub(crate) fn validate_specs(specs: &[AggSpec]) -> Result<(), AggError> {
    for (i, s) in specs.iter().enumerate() {
        if s.input.is_none() && !matches!(s.func, AggFn::Count) {
            return Err(AggError::SpecNeedsInput { spec: i });
        }
    }
    Ok(())
}

/// [`try_aggregate`] with the full observability layer: returns a
/// [`RunReport`] carrying per-worker deep metrics and (optionally) the
/// Chrome task timeline, as selected by `obs_cfg`. With
/// [`ObsConfig::disabled`] only the counters behind [`OpStats`] are kept.
/// One-chunk wrapper over [`crate::AggStream`], so the streaming and
/// slice paths cannot diverge.
pub fn try_aggregate_observed(
    keys: &[u64],
    inputs: &[&[u64]],
    specs: &[AggSpec],
    cfg: &AggregateConfig,
    env: &ExecEnv,
    obs_cfg: &ObsConfig,
) -> Result<(GroupByOutput, RunReport), AggError> {
    let mut stream = AggStream::new(specs, cfg, env, obs_cfg)?;
    stream.push(keys, inputs)?;
    stream.finish()
}

/// Merge pre-aggregated partial results — the distributed-aggregation
/// step: run the operator over `(keys, state columns)` pairs produced by
/// earlier [`aggregate`] calls (possibly on other machines), combining
/// states with the **super-aggregate** functions (§3.1: COUNT merges by
/// SUM), under `env`'s budget, cancellation token and fault plan. All
/// partials must come from the same aggregate `specs`.
///
/// Every partial's shape is checked before any row is merged: a partial
/// from other specs, or one missing a state column, is
/// [`AggError::MismatchedSpecs`]; a state column whose length differs
/// from the partial's `keys` is [`AggError::RowCountMismatch`] (both
/// fields are public, so either can be built by hand).
pub fn try_merge_partials(
    partials: &[&GroupByOutput],
    specs: &[AggSpec],
    cfg: &AggregateConfig,
    env: &ExecEnv,
) -> Result<(GroupByOutput, OpStats), AggError> {
    validate_specs(specs)?;
    let lowered = plan(specs);
    for p in partials {
        if p.plan() != &lowered || p.states.len() != lowered.cols.len() {
            return Err(AggError::MismatchedSpecs);
        }
        let expected = p.keys.len();
        if let Some((column, col)) = p.states.iter().enumerate().find(|(_, c)| c.len() != expected)
        {
            return Err(AggError::RowCountMismatch { column, got: col.len(), expected });
        }
    }
    let mut stream = AggStream::from_plan(lowered, true, cfg, env, &ObsConfig::disabled())?;
    for p in partials {
        let state_slices: Vec<&[u64]> = p.states.iter().map(Vec::as_slice).collect();
        stream.push_cols(&p.keys, &state_slices)?;
    }
    let (out, report) = stream.finish()?;
    Ok((out, report.stats))
}

/// Convert a contained task panic into `AggError::WorkerPanic`, counting
/// it. Runs once the scope has quiesced.
pub(crate) fn contain_panics(
    ctx: &Ctx,
    result: Result<(), hsa_tasks::TaskPanic>,
    pm: PoolMetrics,
) -> Result<PoolMetrics, AggError> {
    match result {
        Ok(()) => Ok(pm),
        Err(p) => {
            ctx.obs(0).count(Counter::ContainedPanics, 1);
            Err(AggError::WorkerPanic { message: p.message })
        }
    }
}

/// Build the run store for `env`: spilling when a directory is configured,
/// memory-only otherwise. Directory-creation failures surface as
/// [`AggError::SpillFailed`] before any row is processed.
pub(crate) fn store_for(env: &ExecEnv) -> Result<RunStore, AggError> {
    match &env.spill_dir {
        // The store inherits the environment's fault injector and disk
        // budget: storage-level faults (Nth-write EIO, bit flips, …) fire
        // inside the store, and every spill write reserves its file size
        // against `env.disk` first.
        Some(dir) => {
            RunStore::spilling_with_config(dir, env.faults.clone(), env.disk.clone(), env.spill)
        }
        None => Ok(RunStore::in_memory()),
    }
}

/// The store a query that sets only `dir` spills into: no faults, no disk
/// limit, one I/O worker.
#[cfg(test)]
pub(crate) fn spill_store(dir: &std::path::Path) -> RunStore {
    store_for(&ExecEnv::unrestricted().with_spill_dir(dir)).expect("spill directory opens")
}

/// `SELECT DISTINCT key` — the C = 1, no-aggregates query the paper uses
/// for its architecture-neutral comparison with prior work (§6.4).
pub fn distinct(keys: &[u64], cfg: &AggregateConfig) -> (GroupByOutput, OpStats) {
    aggregate(keys, &[], &[], cfg)
}
