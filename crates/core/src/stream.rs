//! Streaming ingestion: the operator as a push-based pipeline stage.
//!
//! [`AggStream`] is the phase-1 main loop of the driver, opened up so a
//! caller can feed the input in bounded chunks instead of one slice:
//! every [`AggStream::push`] runs one work-stealing morsel scope over the
//! chunk while the per-worker state (hash table, strategy mode, epoch
//! counters, partition writer) persists across pushes: full tables seal
//! cache-sized runs into the shared level-1 buckets, partitioned rows
//! collect in the worker's own writer. [`AggStream::finish`] then hands
//! the writers' runs to the buckets, seals the leftover worker tables and
//! runs the recursion of Algorithm 2 unchanged — unless a single table
//! absorbed the whole input, in which case its groups are already final
//! and are emitted as they stand.
//!
//! The one-shot entry points ([`crate::aggregate`] and friends) are
//! one-chunk wrappers over this type, so the slice path and a
//! single-push stream are the same code and produce identical outputs
//! and statistics. Multi-chunk streams produce identical *outputs* under
//! any cut of the input; the always-on statistics can shift by a few
//! rows between chunkings (each push is its own morsel scope, and the
//! scheduler's drain order decides which keys sit in a table when it
//! seals) while the conserved quantities — rows hashed/partitioned per
//! level, rows in, groups out — stay exact.

use crate::driver::{
    contain_panics, emit_final_from_table, process_view, spawn_buckets, store_for, validate_specs,
    Ctx, TablePool, WorkerState,
};
use crate::exec::ExecEnv;
use crate::hashing::seal_into;
use crate::output::{GroupByOutput, OutColumns};
use crate::report::{ObsConfig, RunReport, TRACE_CAPACITY};
use crate::sink::Pending;
use crate::stats::OpStats;
use crate::view::{RunView, StateCols};
use crate::AggregateConfig;
use hsa_agg::{plan, AggSpec, Plan};
use hsa_columnar::{DepotAccount, RunHandle};
use hsa_fault::{AggError, CancelToken};
use hsa_hashtbl::{identity_of, AggTable};
use hsa_obs::{
    minor_faults, BudgetProbe, Counter, Hist, LevelCounter, Phase, ProfileTree, ProgressSampler,
    Recorder,
};
use hsa_tasks::sync::Mutex;
use hsa_tasks::{chunk_ranges, PoolMetrics, QueryHandle, Runtime};
use std::time::Instant;

/// A grouped aggregation accepting its input in bounded chunks.
///
/// ```
/// use hsa_core::{AggStream, AggregateConfig, ExecEnv, ObsConfig};
/// use hsa_agg::AggSpec;
///
/// let cfg = AggregateConfig::default();
/// let mut stream = AggStream::new(
///     &[AggSpec::count(), AggSpec::sum(0)],
///     &cfg,
///     &ExecEnv::unrestricted(),
///     &ObsConfig::disabled(),
/// ).unwrap();
/// stream.push(&[1, 2, 1], &[&[10, 20, 30]]).unwrap();
/// stream.push(&[2, 3], &[&[40, 50]]).unwrap();
/// let (out, _report) = stream.finish().unwrap();
/// assert_eq!(out.sorted_rows(), vec![(1, vec![2, 40]), (2, vec![2, 60]), (3, vec![1, 50])]);
/// ```
///
/// Ingestion is bounded: each chunk's rows are absorbed into cache-sized
/// tables or partitioned into the workers' runs before `push` returns, and
/// with a memory budget plus a spill directory configured on the
/// [`ExecEnv`], sealed and partitioned runs that exceed the budget are
/// flushed to disk — the resident set stays bounded regardless of the
/// total input size.
///
/// A stream that returned an error is poisoned; drop it (budget
/// reservations and spill files are released on drop).
pub struct AggStream {
    ctx: Ctx,
    lowered: Plan,
    input_aggregated: bool,
    /// This query's admission to the shared worker runtime: every push
    /// and the finish recursion run scopes through it, so all of the
    /// stream's work carries one `QueryId` from open to report.
    handle: QueryHandle,
    threads: usize,
    workers: Vec<Mutex<WorkerState>>,
    pool_metrics: PoolMetrics,
    rows_in: u64,
    wall0: Instant,
    /// The process's minor-fault count at open, read when deep metrics
    /// are on (`ObsConfig::metrics`).
    faults0: Option<u64>,
    /// Live heartbeat thread (`ObsConfig::progress`); runs across pushes
    /// and phase 2, stopped and joined before the report is assembled —
    /// or on drop, including an unwinding one.
    sampler: Option<ProgressSampler>,
    /// Declared last: every field above holds chunks the query's depot
    /// account lent, and the account closes after they are gone.
    _depot: DepotLease,
}

/// Closes the query's depot account — counting it if a chunk it lent is
/// still out, then trimming the depot — when dropped.
struct DepotLease(DepotAccount);

impl Drop for DepotLease {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl AggStream {
    /// Open a stream for the given aggregate specs (empty = `DISTINCT`).
    ///
    /// Fails on specs `plan` cannot lower and on an unusable spill
    /// directory; no rows are accepted in either case.
    pub fn new(
        specs: &[AggSpec],
        cfg: &AggregateConfig,
        env: &ExecEnv,
        obs_cfg: &ObsConfig,
    ) -> Result<Self, AggError> {
        validate_specs(specs)?;
        Self::from_plan(plan(specs), false, cfg, env, obs_cfg)
    }

    /// Open a stream over an already-lowered plan. `input_aggregated`
    /// selects apply vs merge semantics for the pushed rows (the
    /// distributed-merge path pushes pre-aggregated states).
    pub(crate) fn from_plan(
        lowered: Plan,
        input_aggregated: bool,
        cfg: &AggregateConfig,
        env: &ExecEnv,
        obs_cfg: &ObsConfig,
    ) -> Result<Self, AggError> {
        let faults0 = obs_cfg.metrics.then(minor_faults).flatten();
        let wall0 = Instant::now();
        let states = StateCols::of(&lowered);
        let identities: Vec<u64> = states.ops.iter().map(|&o| identity_of(o)).collect();
        let threads = cfg.threads.max(1);
        let table_cfg = cfg.table_config(states.len());
        let observed = obs_cfg.metrics;
        // A fault plan that cancels after K rows needs a live token to
        // trip, even when the caller did not pass one.
        let cancel = if env.faults.plans_cancellation() && !env.cancel.is_enabled() {
            CancelToken::new()
        } else {
            env.cancel.clone()
        };
        let store = store_for(env)?;
        let depot = DepotAccount::open();
        // One admission per stream: every scope this query runs — all
        // pushes and the finish recursion — shares the same QueryId on
        // the process-wide runtime.
        let handle = Runtime::global().admit(threads);
        let recorder = match (observed, obs_cfg.trace) {
            (deep, true) => Recorder::traced(threads, deep, wall0, TRACE_CAPACITY),
            (true, false) => Recorder::deep(threads),
            (false, false) => Recorder::counters(threads),
        };
        let sampler = obs_cfg.progress.map(|interval| {
            let budget = env.budget.clone();
            let probe: BudgetProbe =
                Box::new(move || budget.limit().map(|limit| (budget.outstanding(), limit)));
            ProgressSampler::start(
                recorder.clone(),
                interval,
                Some(probe),
                Some(handle.id().to_string()),
                Box::new(|line| eprintln!("{line}")),
            )
        });
        let ctx = Ctx {
            cfg: cfg.clone(),
            env: env.clone(),
            cancel,
            states,
            pool: TablePool::new(table_cfg, identities, observed),
            recorder,
            store,
            failed: Mutex::new(None),
            depot: depot.clone(),
            pending: Pending::new(),
        };
        let workers = (0..threads).map(|_| Mutex::new(WorkerState::new(cfg.strategy))).collect();
        // Opening the query (spill store, admission, recorder) is the
        // driver's level-0 work, timed from the first line.
        let obs = ctx.obs(0);
        obs.phase_end(obs.phase_since(wall0, 0, Phase::Driver), 0, 0, 0);
        Ok(Self {
            ctx,
            lowered,
            input_aggregated,
            handle,
            threads,
            workers,
            pool_metrics: PoolMetrics::default(),
            rows_in: 0,
            wall0,
            faults0,
            sampler,
            _depot: DepotLease(depot),
        })
    }

    /// Ingest one chunk: `inputs` are referenced by index from the specs,
    /// every column must have `keys.len()` rows. Empty chunks are fine.
    pub fn push(&mut self, keys: &[u64], inputs: &[&[u64]]) -> Result<(), AggError> {
        for (i, col) in inputs.iter().enumerate() {
            if col.len() != keys.len() {
                return Err(AggError::RowCountMismatch {
                    column: i,
                    got: col.len(),
                    expected: keys.len(),
                });
            }
        }
        // Raw rows travel as the inputs the query reads, each once; the
        // states find their values through `ctx.states`.
        let missing = |j| AggError::MissingInputColumn { referenced: j, available: inputs.len() };
        let picked = self.ctx.states.raw_inputs().iter().map(|&j| inputs.get(j).ok_or(missing(j)));
        let raw_cols = picked.map(|col| col.copied()).collect::<Result<Vec<_>, _>>()?;
        self.push_cols(keys, &raw_cols)
    }

    /// Ingest one chunk of rows with the columns that travel with their
    /// kind (see [`StateCols`]): the query's distinct inputs for raw rows,
    /// one column per state for partials — one work-stealing morsel scope.
    pub(crate) fn push_cols(&mut self, keys: &[u64], cols: &[&[u64]]) -> Result<(), AggError> {
        let ctx = &self.ctx;
        let shared = &ctx.pending.shared;
        let workers = &self.workers;
        let input_aggregated = self.input_aggregated;
        // The calling thread drives the scope and runs worker 0's morsels:
        // its time outside those tasks' phases, less the time it sat
        // parked, is level-0 Driver time.
        let obs = ctx.obs(0);
        let _driver = obs.phase_scope(0, Phase::Driver);
        let n_morsels = keys.len().div_ceil(ctx.cfg.morsel_rows.max(1)).max(1);
        let (scope, pm) = self.handle.try_scope_observed(|s| {
            for range in chunk_ranges(keys.len(), n_morsels) {
                s.spawn(move |s2| {
                    if ctx.bailed() {
                        return;
                    }
                    let t0 = Instant::now();
                    let obs = ctx.obs(s2.worker_index());
                    // Morsel bookkeeping outside the work phases lands in
                    // the level-0 Driver cell (see Phase::Driver).
                    let _driver = obs.phase_scope(0, Phase::Driver);
                    if let Err(e) = ctx.check_cancel(&obs) {
                        ctx.fail(e);
                        return;
                    }
                    let rows = range.len() as u64;
                    obs.count(Counter::MorselsClaimed, 1);
                    obs.observe(Hist::MorselRows, rows);
                    let mut ws = workers[s2.worker_index()].lock();
                    let view = RunView::Borrowed {
                        keys: &keys[range.clone()],
                        cols: cols.iter().map(|c| &c[range.clone()]).collect(),
                        aggregated: input_aggregated,
                    };
                    let mut sink = shared;
                    if let Err(e) = process_view(ctx, &view, 0, &mut ws, &mut sink, &obs) {
                        ctx.fail(e);
                        return;
                    }
                    if ctx.env.faults.should_cancel_after(rows) {
                        ctx.cancel.cancel();
                    }
                    obs.count_at(LevelCounter::TaskNanos, 0, t0.elapsed().as_nanos() as u64);
                });
            }
        });
        obs.exclude(pm.workers.first().map_or(0, |w| w.idle_nanos));
        let pm = contain_panics(ctx, scope, pm)?;
        self.pool_metrics.merge(&pm);

        // The chunk's morsel loop is done: surface any task error or a
        // cancellation that tripped after the last poll.
        if let Some(e) = self.ctx.take_failure() {
            return Err(e);
        }
        self.ctx.check_cancel(&self.ctx.obs(0))?;
        self.rows_in += keys.len() as u64;
        Ok(())
    }

    /// End of input: seal the leftover worker tables, recurse into the
    /// buckets (phase 2), and return the grouped result plus the report.
    /// When one worker table holds every group and no run was ever
    /// produced, the table is emitted directly and phase 2 has no work.
    pub fn finish(self) -> Result<(GroupByOutput, RunReport), AggError> {
        // `_depot` and `input_aggregated` stay in `self`, which as a
        // parameter drops after every local: the account closes once the
        // query's state is gone, on every exit.
        let AggStream {
            ctx,
            lowered,
            workers,
            handle,
            threads,
            mut pool_metrics,
            rows_in,
            wall0,
            faults0,
            sampler,
            ..
        } = self;
        // Everything the calling thread does from here to the end of the
        // query outside another phase, and not parked, is level-0 Driver
        // time.
        let obs = ctx.obs(0);
        let driver = obs.phase_start(0, Phase::Driver);
        let mut shared = &ctx.pending.shared;

        // All push scopes have quiesced. First, what the workers
        // partitioned joins the level-1 buckets: one run per worker and
        // digit, however many morsels and pushes fed it.
        let mut tables: Vec<(usize, AggTable)> = Vec::new();
        for (w_idx, w) in workers.into_iter().enumerate() {
            let ws = w.into_inner();
            if let Some(mut writer) = ws.writer {
                writer.hand_off(&mut shared, &ctx.obs(w_idx));
            }
            tables.extend(ws.table.map(|t| (w_idx, t)));
        }
        // One table absorbed the whole input and nothing ever left it (no
        // sealed run, and the writers above handed over no partitioned
        // row): its groups are final — "the recursion stops
        // automatically" (§5), the level-0 instance of the rule
        // `process_bucket` applies at every deeper level. Otherwise the
        // leftover tables are sealed into the level-1 buckets as one more
        // set of runs.
        let live = tables.iter().filter(|(_, t)| !t.is_empty()).count();
        let stops_here = live == 1 && shared.is_empty();
        let mut stopping = None;
        for (w_idx, mut table) in tables {
            if table.is_empty() {
                ctx.pool.put(table);
            } else if stops_here {
                stopping = Some((w_idx, table));
            } else {
                seal_into(&mut table, None, &mut shared, ctx.gate(), &ctx.obs(w_idx))?;
                ctx.pool.put(table);
            }
        }
        let level1 = shared.take_nonempty();

        // The result is allocated once, here, and written in place by the
        // tasks that seal its groups. Its room: the stopping table's
        // groups exactly; or else the rows level 0 handed over — every
        // group is in at least one of those runs, which the query already
        // holds — and no more than the budget holds, since every output
        // block is reserved until the caller has the result.
        let row_bytes = 8 * (1 + lowered.cols.len() as u64);
        let room = match &stopping {
            Some((_, table)) => table.len(),
            None => {
                let runs = level1.iter().flat_map(|(_, bucket, _)| bucket);
                let rows = runs.map(RunHandle::len).sum::<usize>() as u64;
                let budget_rows =
                    ctx.env.budget.limit().map_or(u64::MAX, |limit| limit / row_bytes);
                rows.min(budget_rows) as usize
            }
        };
        let mut result = OutColumns::zeroed(room, lowered.cols.len());
        let sink = result.sink();
        if let Some((w_idx, table)) = stopping {
            emit_final_from_table(&ctx, &sink, table, &ctx.obs(w_idx))?;
        }

        // Phase 2: recurse into the buckets, one task each.
        let level1 = level1.into_iter();
        let (scope2, pm2) = handle.try_scope_observed(|s| spawn_buckets(&ctx, &sink, s, level1, 1));
        obs.exclude(pm2.workers.first().map_or(0, |w| w.idle_nanos));
        let pm2 = contain_panics(&ctx, scope2, pm2)?;
        if let Some(e) = ctx.take_failure() {
            return Err(e);
        }
        ctx.check_cancel(&ctx.obs(0))?;

        // The views beyond `OpStats` are returned when the deep part was
        // collected (`ObsConfig::metrics`).
        let observed = ctx.recorder.is_deep();
        let pool = observed.then(|| {
            pool_metrics.merge(&pm2);
            pool_metrics
        });

        // The workers have quiesced: stop the heartbeat before the final
        // lowering so no line interleaves with the caller's own output.
        drop(sampler);
        // All handles are consumed, but a background write whose handle
        // was dropped on an error path may have parked a failure in the
        // store — surface it rather than returning a silently short
        // result.
        ctx.store.drain()?;
        // The workers have quiesced: cutting the result from its room to
        // its groups is the caller's level-0 output phase, its bytes the
        // room's, and what the disk budget and the run store counted
        // themselves joins the counters here, once. The result belongs to
        // the caller, outside the operator's budget.
        let pt = obs.phase_start(0, Phase::Output);
        let claimed = sink.close();
        let output = result.into_output(claimed, lowered);
        let groups = claimed as u64;
        obs.phase_end(pt, groups, groups, room as u64 * row_bytes);
        // Every chunk the query was lent is back now.
        let depot = ctx.depot.usage();
        debug_assert_eq!(depot.outstanding(), 0, "a chunk outlived its run");
        obs.count(Counter::DepotHits, depot.hits);
        obs.count(Counter::DepotFresh, depot.fresh);
        obs.count(Counter::DepotLentHighWater, depot.lent_high_water_bytes);
        let io = ctx.store.io_stats().unwrap_or_default();
        obs.count(Counter::SpillRetries, io.spill_retries);
        obs.count(Counter::RestoreRetries, io.restore_retries);
        obs.count(Counter::SpillAbandons, io.io_abandons);
        obs.count(Counter::SpillReclaimedFiles, io.reclaimed_files);
        obs.count(Counter::SpillReclaimedBytes, io.reclaimed_bytes);
        obs.count(Counter::SpillEncodedBytes, io.encoded_bytes);
        // Background I/O time that did *not* stall a compute thread is
        // the overlap the async pipeline bought.
        obs.count(Counter::OverlappedIoNanos, io.async_io_nanos.saturating_sub(io.io_wait_nanos));
        obs.count(Counter::SpillIoWaitNanos, io.io_wait_nanos);
        obs.count(Counter::DiskBudgetDenials, ctx.env.disk.denials());
        // The query ends here; what follows only reads the cells out.
        obs.phase_end(driver, 0, 0, 0);
        let wall_nanos = wall0.elapsed().as_nanos() as u64;
        if let Some(before) = faults0 {
            let after = minor_faults().unwrap_or(before);
            obs.count(Counter::MinorFaults, after.saturating_sub(before));
        }
        let snapshot = ctx.recorder.snapshot();
        let stats = OpStats::lower(
            &snapshot.merged(),
            ctx.env.budget.high_water(),
            ctx.env.disk.high_water(),
        );
        let metrics = observed.then_some(snapshot);
        let profile = metrics.as_ref().map(|m| {
            ProfileTree::build(
                m,
                wall_nanos,
                threads,
                stats.budget_high_water_bytes,
                stats.overlapped_io_nanos,
            )
        });
        let report = RunReport {
            query_id: handle.id().as_u64(),
            rows_in,
            groups_out: groups,
            threads,
            wall_nanos,
            stats,
            pool,
            metrics,
            profile,
            trace_json: ctx.recorder.trace_json(),
        };
        Ok((output, report))
    }

    /// Rows ingested so far.
    pub fn rows_pushed(&self) -> u64 {
        self.rows_in
    }

    /// The runtime's id for this query (the same value lands in
    /// [`RunReport::query_id`]). Available from open, so a server can
    /// hand the id to clients before any row arrives.
    pub fn query_id(&self) -> u64 {
        self.handle.id().as_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptiveParams, Strategy};

    fn cfg() -> AggregateConfig {
        AggregateConfig {
            cache_bytes: 128 << 10,
            threads: 2,
            strategy: Strategy::Adaptive(AdaptiveParams::default()),
            fill_percent: 25,
            morsel_rows: 1 << 12,
        }
    }

    /// Hash `keys`/`vals` into worker `w`'s table directly, as a morsel
    /// claimed by that worker would — the scheduler decides which workers
    /// claim morsels of a real push, a test of the finish rule cannot.
    fn feed_worker(stream: &AggStream, w: usize, keys: &[u64], vals: &[u64]) {
        let mut ws = stream.workers[w].lock();
        let view = RunView::Borrowed { keys, cols: vec![vals], aggregated: false };
        let mut sink = &stream.ctx.pending.shared;
        process_view(&stream.ctx, &view, 0, &mut ws, &mut sink, &stream.ctx.obs(w)).unwrap();
    }

    fn count_sum_stream(threads: usize, env: &ExecEnv) -> AggStream {
        let specs = [hsa_agg::AggSpec::count(), hsa_agg::AggSpec::sum(0)];
        let cfg = AggregateConfig { threads, ..cfg() };
        AggStream::new(&specs, &cfg, env, &ObsConfig::disabled()).unwrap()
    }

    #[test]
    fn one_live_table_is_emitted_without_a_seal() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i % 200).collect();
        let stream = count_sum_stream(2, &ExecEnv::unrestricted());
        feed_worker(&stream, 1, &keys, &keys);
        let (out, report) = stream.finish().unwrap();
        assert_eq!(out.n_groups(), 200);
        assert_eq!(report.stats.seals, 0);
        assert_eq!(report.stats.passes_used(), 1, "level-0 rows only");
    }

    #[test]
    fn two_live_tables_still_seal_and_merge() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i % 200).collect();
        let stream = count_sum_stream(2, &ExecEnv::unrestricted());
        // The same groups in both tables: neither is final on its own.
        feed_worker(&stream, 0, &keys, &keys);
        feed_worker(&stream, 1, &keys, &keys);
        let (out, report) = stream.finish().unwrap();
        assert_eq!(report.stats.seals, 2);
        assert_eq!(report.stats.passes_used(), 2, "level 1 merges the two run sets");
        let rows = out.sorted_rows();
        assert_eq!(rows.len(), 200);
        assert_eq!(rows[7], (7, vec![50, 2 * 25 * 7]));
    }

    #[test]
    fn partitioned_runs_are_cut_by_workers_not_by_morsels() {
        use hsa_columnar::{ChunkedVec, DEFAULT_CHUNK_LEN};
        const THREADS: usize = 2;
        // 512 morsels of 4096 rows, partitioned only: 8192 rows a digit.
        let keys: Vec<u64> =
            (0..1u64 << 21).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let cfg = AggregateConfig {
            threads: THREADS,
            strategy: Strategy::PartitionAlways { passes: 1 },
            ..cfg()
        };
        // Two states reading one input: the raw rows carry one column.
        let specs = [hsa_agg::AggSpec::count(), hsa_agg::AggSpec::sum(0)];
        let mut stream =
            AggStream::new(&specs, &cfg, &ExecEnv::unrestricted(), &ObsConfig::disabled()).unwrap();
        stream.push(&keys, &[&keys]).unwrap();
        let (ctx, mut shared) = (&stream.ctx, &stream.ctx.pending.shared);
        assert!(shared.is_empty(), "rows wait in the workers' writers");
        for (w, ws) in stream.workers.iter().enumerate() {
            if let Some(writer) = ws.lock().writer.as_mut() {
                writer.hand_off(&mut shared, &ctx.obs(w));
            }
        }

        // A chunked column grows 64, 64, 128, … up to the full chunk
        // length and every chunk but the last is filled to that size.
        let chunk_lens = |c: &ChunkedVec| c.chunks().map(<[u64]>::len).collect::<Vec<_>>();
        let mut rows = 0;
        for (digit, bucket, _res) in shared.take_nonempty() {
            assert!(bucket.len() <= THREADS, "digit {digit}: {} runs", bucket.len());
            for handle in bucket {
                let RunHandle::Mem(run) = handle else { panic!("nothing spills here") };
                assert!(!run.aggregated);
                assert_eq!(run.n_cols(), 1);
                let lens = chunk_lens(&run.keys);
                assert_eq!(lens, chunk_lens(&run.cols[0]), "columns are cut alike");
                let (tail, body) = lens.split_last().unwrap();
                let mut ramp = 0usize;
                for &len in body {
                    assert_eq!(len, ramp.next_power_of_two().clamp(64, DEFAULT_CHUNK_LEN));
                    ramp += len;
                }
                assert!(*tail <= ramp.next_power_of_two().clamp(64, DEFAULT_CHUNK_LEN));
                rows += run.len();
            }
        }
        assert_eq!(rows, keys.len());
    }

    fn all_strategies() -> [Strategy; 5] {
        [
            Strategy::HashingOnly,
            Strategy::PartitionAlways { passes: 1 },
            Strategy::PartitionAlways { passes: 2 },
            Strategy::Adaptive(AdaptiveParams::default()),
            Strategy::Adaptive(AdaptiveParams { alpha0: f64::INFINITY, c: 1.0 }),
        ]
    }

    /// Whatever the query reads and however often: seeded random spec
    /// lists over 1–3 input columns (repeats and duplicates included)
    /// under every strategy, at one and two threads, unrestricted and
    /// under a budget with a spill directory, equal the oracle — and the
    /// runs entering level 1 carry exactly their kind's columns: a raw run
    /// the plan's distinct inputs, an aggregated run one per state.
    #[test]
    fn any_spec_list_matches_the_oracle_and_runs_carry_their_kinds_columns() {
        use hsa_agg::AggSpec;
        use hsa_fault::MemoryBudget;
        use std::collections::BTreeMap;
        const ROWS: usize = 24_000;
        let dir = std::env::temp_dir().join(format!("hsa-stream-specs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = 0x5eed_0024_u64;
        let mut next = move |below: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % below
        };
        let mut spilled_cases = 0;
        for case in 0..4 {
            let n_inputs = 1 + next(3) as usize;
            let specs: Vec<AggSpec> = (0..1 + next(6))
                .map(|_| {
                    let j = next(n_inputs as u64) as usize;
                    match next(5) {
                        0 => AggSpec::count(),
                        1 => AggSpec::sum(j),
                        2 => AggSpec::min(j),
                        3 => AggSpec::max(j),
                        _ => AggSpec::avg(j),
                    }
                })
                .collect();
            let lowered = plan(&specs);
            let states = StateCols::of(&lowered);
            let keys: Vec<u64> = (0..ROWS).map(|_| next(9_000)).collect();
            let cols: Vec<Vec<u64>> =
                (0..n_inputs).map(|_| (0..ROWS).map(|_| next(1_000)).collect()).collect();
            let inputs: Vec<&[u64]> = cols.iter().map(Vec::as_slice).collect();
            let mut oracle: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for (row, &k) in keys.iter().enumerate() {
                let group = oracle.entry(k).or_insert_with(|| {
                    states.ops.iter().map(|&op| hsa_hashtbl::identity_of(op)).collect()
                });
                for (state, c) in group.iter_mut().zip(&lowered.cols) {
                    *state = c.op.combine(*state, c.input.map_or(0, |j| cols[j][row]), false);
                }
            }
            let expect: Vec<(u64, Vec<u64>)> = oracle.into_iter().collect();
            let out_bytes = (expect.len() * 8 * (1 + states.len())) as u64;

            for strat in all_strategies() {
                for threads in [1, 2] {
                    let cfg = AggregateConfig { threads, strategy: strat, ..cfg() };
                    let tag = format!("case {case} {specs:?} {strat:?} threads {threads}");
                    let (out, _) = crate::try_aggregate(
                        &keys,
                        &inputs,
                        &specs,
                        &cfg,
                        &ExecEnv::unrestricted(),
                    )
                    .unwrap();
                    assert_eq!(out.sorted_rows(), expect, "{tag}");

                    // One worker under a budget its intermediate runs do
                    // not fit; two under one that only has to come back
                    // to zero (a tight budget at two threads is ROADMAP
                    // item 1's race, not this test's subject).
                    let limit = if threads == 1 { out_bytes + (768 << 10) } else { 1 << 30 };
                    let budget = MemoryBudget::limited(limit);
                    let env =
                        ExecEnv::unrestricted().with_budget(budget.clone()).with_spill_dir(&dir);
                    let (out, stats) =
                        crate::try_aggregate(&keys, &inputs, &specs, &cfg, &env).unwrap();
                    assert_eq!(out.sorted_rows(), expect, "{tag}: budgeted");
                    drop(out);
                    assert_eq!(budget.outstanding(), 0, "{tag}");
                    assert_eq!(stats.restored_runs, stats.spilled_runs(), "{tag}");
                    spilled_cases += usize::from(stats.spilled_runs() > 0);

                    // What `finish` hands to level 1: every writer's runs
                    // and every leftover table's.
                    let mut stream = AggStream::new(
                        &specs,
                        &cfg,
                        &ExecEnv::unrestricted(),
                        &ObsConfig::disabled(),
                    )
                    .unwrap();
                    for (a, b) in [(0, ROWS / 3), (ROWS / 3, ROWS)] {
                        let chunk: Vec<&[u64]> = inputs.iter().map(|c| &c[a..b]).collect();
                        stream.push(&keys[a..b], &chunk).unwrap();
                    }
                    let (ctx, mut shared) = (&stream.ctx, &stream.ctx.pending.shared);
                    for (w, ws) in stream.workers.iter().enumerate() {
                        let mut ws = ws.lock();
                        if let Some(writer) = ws.writer.as_mut() {
                            writer.hand_off(&mut shared, &ctx.obs(w));
                        }
                        if let Some(table) = ws.table.as_mut().filter(|t| !t.is_empty()) {
                            seal_into(table, None, &mut shared, ctx.gate(), &ctx.obs(w)).unwrap();
                        }
                    }
                    let (mut raw_rows, mut rows) = (0, 0);
                    for (_, bucket, _res) in shared.take_nonempty() {
                        for run in bucket {
                            let want = states.run_cols(run.aggregated());
                            assert_eq!(
                                run.n_cols(),
                                want,
                                "{tag}: aggregated {}",
                                run.aggregated()
                            );
                            raw_rows += if run.aggregated() { 0 } else { run.len() };
                            rows += run.len();
                        }
                    }
                    assert!(rows > 0, "{tag}: nothing entered level 1");
                    if matches!(strat, Strategy::PartitionAlways { .. }) {
                        assert_eq!(raw_rows, ROWS, "{tag}: every row travels raw");
                    }
                }
            }
        }
        assert!(spilled_cases > 0, "no budgeted case spilled");
        let leftover = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftover, 0, "spill files must not outlive their streams");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
