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
use crate::output::{Collector, GroupByOutput};
use crate::partitioning::{partition_run, RunWriter};
use crate::report::{ObsConfig, RunReport};
use crate::sink::{LocalBuckets, RunSink};
use crate::stats::OpStats;
use crate::stream::AggStream;
use crate::view::{RunView, StateCols};
use crate::AggregateConfig;
use hsa_agg::{plan, AggFn, AggSpec};
use hsa_columnar::{RunHandle, RunStore};
use hsa_fault::{AggError, CancelToken, Reservation};
use hsa_hash::MAX_LEVEL;
use hsa_hashtbl::{AggTable, GrowTable, TableConfig};
use hsa_obs::{Counter, LevelCounter, Phase, ProgressGauge, Recorder, Tracer};
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
    /// [`TableConfig::MIN_TOTAL_SLOTS`]. A shrunken table counts as one
    /// budget downgrade. Injected failures (`limit: 0`) never degrade.
    fn get(&self, level: u32, gate: Gate<'_>, obs: &Obs) -> Result<AggTable, AggError> {
        if let Some(mut t) = self.free.lock().pop() {
            t.set_level(level);
            return Ok(t);
        }
        let mut cfg = self.cfg;
        loop {
            match gate.reserve(cfg.mem_bytes(self.identities.len()), obs) {
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
                Err(e)
                    if is_degradable(&e) && cfg.total_slots / 2 >= TableConfig::MIN_TOTAL_SLOTS =>
                {
                    cfg.total_slots /= 2;
                }
                Err(e) => return Err(e),
            }
        }
    }

    pub(crate) fn put(&self, table: AggTable) {
        debug_assert!(table.is_empty(), "tables must be sealed before returning");
        self.free.lock().push(table);
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
    pub(crate) collector: Collector,
    /// Where every event of this query is counted, one shard per worker
    /// (deep metrics on top when `ObsConfig::metrics` asked for them).
    pub(crate) recorder: Recorder,
    pub(crate) tracer: Tracer,
    /// Live progress cells read by the `--progress` sampler thread
    /// (disabled unless a sampler is running).
    pub(crate) gauge: ProgressGauge,
    /// Run store the budget degrades into: spills to `env.spill_dir` when
    /// configured, otherwise memory-only (denials stay denials).
    pub(crate) store: RunStore,
    /// First error any task hit; later tasks bail out early once set.
    pub(crate) failed: Mutex<Option<AggError>>,
}

impl Ctx {
    /// The observability handle for a task running as `worker`. Under
    /// the recorder's sharding contract: call it as the thread acting as
    /// that worker, or — for worker 0 — while no worker runs.
    pub(crate) fn obs(&self, worker: usize) -> Obs<'_> {
        Obs::new(&self.recorder, &self.tracer, &self.gauge, worker)
    }

    /// The allocation gate tasks reserve memory through.
    pub(crate) fn gate(&self) -> Gate<'_> {
        Gate { budget: &self.env.budget, faults: &self.env.faults, store: &self.store }
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

/// Emit a table that absorbed its whole input as final groups.
pub(crate) fn emit_final_from_table(
    ctx: &Ctx,
    table: &mut AggTable,
    obs: &Obs,
) -> Result<(), AggError> {
    let pt = obs.phase_start(table.level(), Phase::Output);
    let groups = table.len() as u64;
    let out_bytes = (table.len() * 8 * (1 + table.n_cols())) as u64;
    // On a denied reservation the timer is dropped unrecorded: the query
    // is failing and partial attribution would only skew the tree.
    let res = ctx.gate().reserve(out_bytes, obs)?;
    // One collector lock per table, not one per digit of it.
    ctx.collector.push_blocks(res, |out| table.seal(|_digit, keys, cols| out.push(keys, cols)));
    obs.flush_table_metrics(table);
    obs.phase_end(pt, groups, groups, out_bytes);
    Ok(())
}

/// Merge a bucket with the growable key-addressed table (recursion floor
/// and the final pass of `PartitionAlways`).
///
/// Spilled runs are restored one at a time, right before their rows are
/// folded in (the store may have read them ahead, inside its own window).
fn grow_merge(ctx: &Ctx, bucket: Vec<RunHandle>, obs: &Obs) -> Result<(), AggError> {
    let rows: usize = bucket.iter().map(RunHandle::len).sum();
    obs.event(Counter::FallbackMerges, "fallback_merge", &[("rows", rows as u64)]);
    let level = bucket.first().map_or(0, RunHandle::level);
    let pt = obs.phase_start(level, Phase::GrowMerge);
    let capacity = rows.clamp(16, 1 << 20);
    let mut res =
        ctx.gate().reserve(GrowTable::mem_bytes_upper(capacity, rows, ctx.states.len()), obs)?;
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
    let mut keys = Vec::with_capacity(table.len());
    let mut cols: Vec<Vec<u64>> =
        (0..n_cols).map(|_| Vec::with_capacity(keys.capacity())).collect();
    for (k, states) in table.drain() {
        keys.push(k);
        for (c, s) in cols.iter_mut().zip(states) {
            c.push(s);
        }
    }
    let out_res = res.take((keys.len() * 8 * (1 + cols.len())) as u64);
    ctx.collector.push_blocks(out_res, |out| out.push(&keys, &cols));
    obs.phase_end(pt, rows as u64, keys.len() as u64, 0);
    Ok(())
}

/// Recursive bucket task (Algorithm 2, line 8).
///
/// `bucket_res` is the budget reservation backing the bucket's resident
/// runs; it is dropped (released) when the task finishes consuming them —
/// on success and on every early-out alike. Spilled runs carry no
/// reservation; each is restored from disk right before it is processed.
pub(crate) fn process_bucket<'env>(
    ctx: &'env Ctx,
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
    let trace_t0 = obs.now();
    let bucket_rows: u64 = bucket.iter().map(|r| r.len() as u64).sum();
    // A task that ran to its end: its time joins the level's, its span
    // the timeline. Tasks that fail record neither.
    let done = |obs: &Obs| {
        obs.count_at(LevelCounter::TaskNanos, level, t0.elapsed().as_nanos() as u64);
        obs.span("bucket", trace_t0, &[("level", level as u64), ("rows", bucket_rows)]);
    };
    let final_hash_pass = matches!(
        ctx.cfg.strategy,
        Strategy::PartitionAlways { passes } if level >= passes
    );
    if level >= MAX_LEVEL || final_hash_pass {
        if let Err(e) = grow_merge(ctx, bucket, &obs) {
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
        if let Err(e) = writer.hand_off(&mut local, ctx.gate(), &obs) {
            ctx.fail(e);
            return;
        }
    }

    if local.is_empty() {
        // The entire bucket was absorbed by one table: its groups are
        // final — "the recursion stops automatically" (§5).
        if let Some(mut table) = ws.table {
            if let Err(e) = emit_final_from_table(ctx, &mut table, &obs) {
                ctx.fail(e);
                return;
            }
            ctx.pool.put(table);
        }
        done(&obs);
        return;
    }

    // Something spilled: the leftover table content is one more run set.
    if let Some(mut table) = ws.table {
        if !table.is_empty() {
            if let Err(e) = seal_into(&mut table, &mut local, ctx.gate(), &obs) {
                ctx.fail(e);
                return;
            }
        }
        ctx.pool.put(table);
    }
    done(&obs);
    spawn_buckets(ctx, scope, local.into_nonempty(), level + 1);
}

/// Spawn one [`process_bucket`] task per bucket of `level`, after telling
/// the run store in which order their spilled runs will be wanted so it
/// can read ahead: the spawning thread pops its own tasks newest first
/// (`hsa-tasks` deques are owner-LIFO), so that is the last bucket's runs
/// first. A thief takes the oldest task instead, and the store moves a
/// bucket entered out of turn to the front of its plan.
pub(crate) fn spawn_buckets<'env>(
    ctx: &'env Ctx,
    scope: &Scope<'_, 'env>,
    buckets: impl Iterator<Item = (usize, Vec<RunHandle>, Reservation)>,
    level: u32,
) {
    let spawn = |(_digit, bucket, res)| {
        scope.spawn(move |s| process_bucket(ctx, s, bucket, res, level));
    };
    // Only the plan needs the level's buckets side by side, and only a
    // store that can spill has anything to plan; otherwise each bucket
    // goes straight from the sink to its task.
    if !ctx.store.can_spill() {
        return buckets.for_each(spawn);
    }
    let buckets: Vec<_> = buckets.collect();
    ctx.store.plan_restores(buckets.iter().rev().map(|(_, bucket, _)| bucket.as_slice()));
    buckets.into_iter().for_each(spawn);
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
/// it. Runs post-quiescence, so recording into shard 0 is race-free.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdaptiveParams;
    use hsa_fault::MemoryBudget;
    use std::collections::BTreeMap;

    fn reference(keys: &[u64], vals: &[u64]) -> BTreeMap<u64, (u64, u64, u64, u64)> {
        let mut m = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(vals) {
            let e = m.entry(k).or_insert((0u64, 0u64, u64::MAX, 0u64));
            e.0 += 1;
            e.1 += v;
            e.2 = e.2.min(v);
            e.3 = e.3.max(v);
        }
        m
    }

    fn small_cfg(strategy: Strategy) -> AggregateConfig {
        AggregateConfig {
            // Tiny cache so multi-pass behavior kicks in at test sizes:
            // 64 Ki slots? No — 8 Ki slots ≈ 2 Ki groups per table.
            cache_bytes: 128 << 10,
            threads: 2,
            strategy,
            fill_percent: 25,
            morsel_rows: 1 << 12,
        }
    }

    fn all_strategies() -> Vec<Strategy> {
        vec![
            Strategy::HashingOnly,
            Strategy::PartitionAlways { passes: 1 },
            Strategy::PartitionAlways { passes: 2 },
            Strategy::Adaptive(AdaptiveParams::default()),
            Strategy::Adaptive(AdaptiveParams { alpha0: f64::INFINITY, c: 1.0 }),
        ]
    }

    fn keys_and_vals(n: usize, k: u64, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let keys: Vec<u64> = (0..n).map(|_| next() % k).collect();
        let vals: Vec<u64> = (0..n).map(|_| next() % 1000).collect();
        (keys, vals)
    }

    #[test]
    fn all_strategies_match_reference_small_k() {
        let (keys, vals) = keys_and_vals(40_000, 100, 1);
        let expect = reference(&keys, &vals);
        for strat in all_strategies() {
            let (out, _) = aggregate(
                &keys,
                &[&vals],
                &[AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::max(0)],
                &small_cfg(strat),
            );
            let got: BTreeMap<u64, (u64, u64, u64, u64)> =
                out.sorted_rows().into_iter().map(|(k, s)| (k, (s[0], s[1], s[2], s[3]))).collect();
            assert_eq!(got, expect, "strategy {strat:?}");
        }
    }

    #[test]
    fn all_strategies_match_reference_large_k() {
        // K far beyond the tiny table capacity forces real recursion.
        let (keys, vals) = keys_and_vals(60_000, 30_000, 2);
        let expect = reference(&keys, &vals);
        for strat in all_strategies() {
            let (out, stats) = aggregate(
                &keys,
                &[&vals],
                &[AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::max(0)],
                &small_cfg(strat),
            );
            let got: BTreeMap<u64, (u64, u64, u64, u64)> =
                out.sorted_rows().into_iter().map(|(k, s)| (k, (s[0], s[1], s[2], s[3]))).collect();
            assert_eq!(got, expect, "strategy {strat:?}");
            assert!(stats.passes_used() >= 1, "strategy {strat:?}");
        }
    }

    #[test]
    fn distinct_query() {
        let (keys, _) = keys_and_vals(50_000, 5_000, 3);
        let mut expect: Vec<u64> = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        for strat in all_strategies() {
            let (out, _) = distinct(&keys, &small_cfg(strat));
            let mut got = out.keys.clone();
            got.sort_unstable();
            assert_eq!(got, expect, "strategy {strat:?}");
        }
    }

    #[test]
    fn empty_input() {
        let (out, stats) = aggregate(&[], &[], &[AggSpec::count()], &AggregateConfig::default());
        assert_eq!(out.n_groups(), 0);
        assert_eq!(stats.total_hash_rows() + stats.total_part_rows(), 0);
    }

    #[test]
    fn single_row() {
        let (out, _) = aggregate(&[7], &[&[99]], &[AggSpec::sum(0)], &AggregateConfig::default());
        assert_eq!(out.sorted_rows(), vec![(7, vec![99])]);
    }

    #[test]
    fn all_rows_same_key() {
        let keys = vec![5u64; 10_000];
        let vals: Vec<u64> = (0..10_000).collect();
        for strat in all_strategies() {
            let (out, _) =
                aggregate(&keys, &[&vals], &[AggSpec::count(), AggSpec::sum(0)], &small_cfg(strat));
            assert_eq!(out.sorted_rows(), vec![(5, vec![10_000, 49_995_000])], "{strat:?}");
        }
    }

    #[test]
    fn every_row_distinct() {
        let keys: Vec<u64> = (0..50_000).collect();
        for strat in all_strategies() {
            let (out, _) = distinct(&keys, &small_cfg(strat));
            assert_eq!(out.n_groups(), 50_000, "{strat:?}");
        }
    }

    #[test]
    fn count_is_conserved_across_passes() {
        // The COUNT invariant: whatever the routing, the counts sum to N.
        let (keys, _) = keys_and_vals(80_000, 10_000, 4);
        for strat in all_strategies() {
            let (out, _) = aggregate(&keys, &[], &[AggSpec::count()], &small_cfg(strat));
            let total: u64 = out.states[0].iter().sum();
            assert_eq!(total, 80_000, "{strat:?}");
        }
    }

    #[test]
    fn hashing_only_single_pass_for_tiny_k() {
        let (keys, _) = keys_and_vals(40_000, 16, 5);
        let (_, stats) =
            aggregate(&keys, &[], &[AggSpec::count()], &small_cfg(Strategy::HashingOnly));
        // Level 0 hashes everything; level 1 only merges tiny runs.
        assert_eq!(stats.part_rows_per_level.iter().sum::<u64>(), 0);
        assert_eq!(stats.hash_rows_per_level[0], 40_000);
        assert!(stats.hash_rows_per_level[1] <= 16 * 2 * 2, "tiny merge pass");
    }

    #[test]
    fn adaptive_partitions_when_no_locality() {
        // Distinct keys, K ≫ table: α = 1 at every seal → adaptive must
        // route the bulk of the data through partitioning.
        let keys: Vec<u64> = (0..100_000).collect();
        let (_, stats) =
            aggregate(&keys, &[], &[], &small_cfg(Strategy::Adaptive(AdaptiveParams::default())));
        assert!(stats.switches_to_partitioning > 0);
        assert!(
            stats.total_part_rows() > stats.total_hash_rows() / 2,
            "partitioning should carry substantial load: part={} hash={}",
            stats.total_part_rows(),
            stats.total_hash_rows()
        );
    }

    #[test]
    fn adaptive_keeps_hashing_on_heavy_locality() {
        // One key: every table absorbs rows without filling; never switch.
        let keys = vec![1u64; 100_000];
        let (_, stats) =
            aggregate(&keys, &[], &[], &small_cfg(Strategy::Adaptive(AdaptiveParams::default())));
        assert_eq!(stats.switches_to_partitioning, 0);
        assert_eq!(stats.total_part_rows(), 0);
    }

    #[test]
    fn avg_finalizes() {
        let keys = vec![1u64, 1, 2];
        let vals = vec![10u64, 20, 5];
        let (out, _) = aggregate(&keys, &[&vals], &[AggSpec::avg(0)], &AggregateConfig::default());
        let rows = out.sorted_rows();
        assert_eq!(rows.len(), 2);
        // keys sorted: group 1 then 2.
        let avg1 = out.value(0, out.keys.iter().position(|&k| k == 1).unwrap());
        let avg2 = out.value(0, out.keys.iter().position(|&k| k == 2).unwrap());
        assert_eq!(avg1, 15.0);
        assert_eq!(avg2, 5.0);
    }

    #[test]
    fn single_threaded_matches_multi() {
        let (keys, vals) = keys_and_vals(30_000, 3_000, 6);
        let specs = [AggSpec::sum(0), AggSpec::count()];
        let mut cfg = small_cfg(Strategy::Adaptive(AdaptiveParams::default()));
        let (a, _) = aggregate(&keys, &[&vals], &specs, &cfg);
        cfg.threads = 1;
        let (b, _) = aggregate(&keys, &[&vals], &specs, &cfg);
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }

    #[test]
    fn merge_partials_equals_single_pass() {
        let (keys, vals) = keys_and_vals(40_000, 2_000, 7);
        let specs = [AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::avg(0)];
        let cfg = small_cfg(Strategy::Adaptive(AdaptiveParams::default()));

        let (whole, _) = aggregate(&keys, &[&vals], &specs, &cfg);

        // Split into three uneven shards, aggregate each, merge.
        let cuts = [0usize, 13_000, 27_500, 40_000];
        let parts: Vec<GroupByOutput> = cuts
            .windows(2)
            .map(|w| aggregate(&keys[w[0]..w[1]], &[&vals[w[0]..w[1]]], &specs, &cfg).0)
            .collect();
        let refs: Vec<&GroupByOutput> = parts.iter().collect();
        let (merged, _) =
            try_merge_partials(&refs, &specs, &cfg, &ExecEnv::unrestricted()).unwrap();

        assert_eq!(merged.sorted_rows(), whole.sorted_rows());
        // AVG survives the merge because its SUM and COUNT states do.
        let k0 = whole.keys[0];
        let r_whole = whole.keys.iter().position(|&k| k == k0).unwrap();
        let r_merged = merged.keys.iter().position(|&k| k == k0).unwrap();
        assert_eq!(whole.value(3, r_whole), merged.value(3, r_merged));
    }

    #[test]
    fn merge_partials_rejects_mismatched_plans() {
        let cfg = AggregateConfig::default();
        let (a, _) = aggregate(&[1], &[&[1]], &[AggSpec::sum(0)], &cfg);
        let err = try_merge_partials(&[&a], &[AggSpec::count()], &cfg, &ExecEnv::unrestricted())
            .unwrap_err();
        assert_eq!(err, AggError::MismatchedSpecs);
        assert!(err.to_string().contains("different aggregate specs"), "{err}");
    }

    /// A partial whose public fields were edited out of shape is an input
    /// error reported before any row is merged — not a panic inside a
    /// task — and leaves nothing reserved.
    #[test]
    fn merge_partials_rejects_malformed_partials_before_merging() {
        let specs = [AggSpec::count(), AggSpec::sum(0)];
        let cfg = small_cfg(Strategy::Adaptive(AdaptiveParams::default()));
        let (keys, vals) = keys_and_vals(20_000, 1_000, 8);
        let (good, _) = aggregate(&keys, &[&vals], &specs, &cfg);
        assert_eq!(good.n_groups(), 1_000);
        let mut missing = good.clone();
        missing.states.pop();
        let mut short = good.clone();
        short.states[1].truncate(10);
        let cases = [
            (missing, AggError::MismatchedSpecs),
            (short, AggError::RowCountMismatch { column: 1, got: 10, expected: 1_000 }),
        ];
        for (bad, want) in cases {
            let budget = MemoryBudget::limited(64 << 20);
            let env = ExecEnv::unrestricted().with_budget(budget.clone());
            // The malformed partial comes second: the first is well formed.
            let err = try_merge_partials(&[&good, &bad], &specs, &cfg, &env).unwrap_err();
            assert_eq!(err, want);
            assert_eq!(budget.outstanding(), 0, "{want:?} left bytes reserved");
            assert_eq!(budget.high_water(), 0, "{want:?} reserved before the check");
        }
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn mismatched_columns_panic() {
        let _ = aggregate(&[1, 2], &[&[1]], &[AggSpec::sum(0)], &AggregateConfig::default());
    }

    #[test]
    #[should_panic(expected = "missing input column")]
    fn missing_input_panics() {
        let _ = aggregate(&[1, 2], &[], &[AggSpec::sum(0)], &AggregateConfig::default());
    }
}
