//! Concurrency correctness on the shared runtime: N queries in flight at
//! once must be indistinguishable from the same N queries run one at a
//! time. Every query gets its own `QueryId`, its own `OpStats`, and its
//! own profile — nothing bleeds between in-flight queries even though
//! they share one worker pool.
//!
//! The storm test adds the failure half: explicit cancels and
//! already-expired deadlines racing against healthy queries. Victims die
//! with a typed `AggError::Cancelled`; survivors produce bit-identical
//! results, and the runtime keeps serving afterwards.

use std::sync::Barrier;
use std::time::Duration;

use hsa_agg::AggSpec;
use hsa_core::{
    try_aggregate, AggError, AggStream, AggregateConfig, CancelReason, CancelToken, ExecEnv,
    ObsConfig, RunReport, Strategy,
};
use hsa_obs::Phase;

/// One query's sorted output: (key, state columns) per group.
type Rows = Vec<(u64, Vec<u64>)>;

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

struct Workload {
    keys: Vec<u64>,
    vals: Vec<u64>,
    specs: Vec<AggSpec>,
    cfg: AggregateConfig,
    chunk: usize,
}

impl Workload {
    fn random(seed: u64) -> Self {
        let mut rng = Rng(seed);
        let rows = 2_000 + rng.below(30_000) as usize;
        let k = 1 + rng.below(10_000);
        let keys = (0..rows).map(|_| rng.below(k)).collect();
        let vals = (0..rows).map(|_| rng.below(1_000)).collect();
        let strategy = match rng.below(3) {
            0 => Strategy::HashingOnly,
            1 => Strategy::PartitionAlways { passes: 1 },
            _ => Strategy::Adaptive(Default::default()),
        };
        let cfg = AggregateConfig {
            cache_bytes: 128 << 10,
            threads: 1 + rng.below(2) as usize,
            strategy,
            fill_percent: 25,
            morsel_rows: 4096,
        };
        let chunk = 512 + rng.below(8_000) as usize;
        Workload { keys, vals, specs: vec![AggSpec::count(), AggSpec::sum(0)], cfg, chunk }
    }

    /// Run through the streaming path, pushing in this workload's chunk
    /// size, with observability fully on (recorder + profile per query).
    fn run(&self, env: &ExecEnv) -> Result<(Rows, RunReport), AggError> {
        let mut stream = AggStream::new(&self.specs, &self.cfg, env, &ObsConfig::full())?;
        for (ks, vs) in self.keys.chunks(self.chunk).zip(self.vals.chunks(self.chunk)) {
            stream.push(ks, &[vs])?;
        }
        let (out, report) = stream.finish()?;
        Ok((out.sorted_rows(), report))
    }
}

/// Per-query accounting that must be conserved no matter what else runs
/// on the shared pool at the same time.
fn assert_conserved(w: &Workload, report: &RunReport) {
    let rows = w.keys.len() as u64;
    assert_eq!(report.rows_in, rows, "rows_in must count only this query's pushes");
    let level0 = report.stats.hash_rows_per_level[0] + report.stats.part_rows_per_level[0];
    assert_eq!(level0, rows, "every row enters level 0 exactly once");
    assert_eq!(report.stats.contained_panics, 0);
    assert_eq!(report.stats.cancellations, 0);
    // The per-query profile must account for exactly this query's rows:
    // a shared-pool worker executing a morsel for query A must record it
    // into A's recorder, never into whichever query it served last.
    let profile = report.profile.as_ref().expect("ObsConfig::full() keeps a profile");
    let profiled0 =
        profile.cell(0, Phase::HashInsert).rows_in + profile.cell(0, Phase::Partition).rows_in;
    assert_eq!(profiled0, rows, "profile rows at level 0 must match this query alone");
}

/// N randomized queries run concurrently on the shared runtime must be
/// bit-identical to the same queries run sequentially, with per-query
/// stats conserved and distinct query ids.
#[test]
fn concurrent_queries_are_bit_identical_to_sequential() {
    const N: u64 = 6;
    let workloads: Vec<Workload> = (0..N).map(|i| Workload::random(0x5eed_0001 + i * 97)).collect();

    // Sequential reference, one query at a time.
    let reference: Vec<Rows> = workloads
        .iter()
        .map(|w| w.run(&ExecEnv::unrestricted()).expect("sequential run").0)
        .collect();

    // Same queries, all in flight at once (a barrier lines up the starts).
    let barrier = Barrier::new(workloads.len());
    let concurrent: Vec<(Rows, RunReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    w.run(&ExecEnv::unrestricted()).expect("concurrent run")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query thread")).collect()
    });

    let mut ids = Vec::new();
    for ((w, expect), (rows, report)) in workloads.iter().zip(&reference).zip(&concurrent) {
        assert_eq!(rows, expect, "concurrent output must be bit-identical to sequential");
        assert_conserved(w, report);
        ids.push(report.query_id);
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), workloads.len(), "every in-flight query gets its own id");
}

/// Cancellation/deadline storm: explicit cancels and already-expired
/// deadlines race healthy queries on the same pool. Victims fail with
/// `AggError::Cancelled`, survivors are bit-identical to the sequential
/// reference, and the runtime accepts new work afterwards.
#[test]
fn cancellation_storm_leaves_survivors_unaffected() {
    let survivors: Vec<Workload> = (0..3u64).map(|i| Workload::random(0xabcd_0100 + i)).collect();
    let victims: Vec<Workload> = (0..4u64).map(|i| Workload::random(0xabcd_0200 + i)).collect();
    let reference: Vec<Rows> = survivors
        .iter()
        .map(|w| w.run(&ExecEnv::unrestricted()).expect("sequential run").0)
        .collect();

    let barrier = Barrier::new(survivors.len() + victims.len());
    let (good, dead) = std::thread::scope(|s| {
        let good: Vec<_> = survivors
            .iter()
            .map(|w| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    w.run(&ExecEnv::unrestricted()).expect("survivor must finish").0
                })
            })
            .collect();
        let dead: Vec<_> = victims
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let barrier = &barrier;
                s.spawn(move || {
                    // Even victims race the deadline (expired before the
                    // first push); odd victims are cancelled mid-stream
                    // after half their chunks went in.
                    let token = if i % 2 == 0 {
                        CancelToken::with_timeout(Duration::ZERO)
                    } else {
                        CancelToken::new()
                    };
                    let env = ExecEnv::unrestricted().with_cancel(token.clone());
                    barrier.wait();
                    let run = || -> Result<(), AggError> {
                        let mut stream =
                            AggStream::new(&w.specs, &w.cfg, &env, &ObsConfig::disabled())?;
                        let half = w.keys.len() / 2;
                        for (n, (ks, vs)) in
                            w.keys.chunks(w.chunk).zip(w.vals.chunks(w.chunk)).enumerate()
                        {
                            if i % 2 == 1 && n * w.chunk >= half {
                                token.cancel();
                            }
                            stream.push(ks, &[vs])?;
                        }
                        stream.finish().map(drop)
                    };
                    run().expect_err("victim must not finish")
                })
            })
            .collect();
        let good: Vec<_> = good.into_iter().map(|h| h.join().expect("survivor thread")).collect();
        let dead: Vec<_> = dead.into_iter().map(|h| h.join().expect("victim thread")).collect();
        (good, dead)
    });

    for (rows, expect) in good.iter().zip(&reference) {
        assert_eq!(rows, expect, "survivors must be unaffected by the storm");
    }
    for err in &dead {
        assert!(
            matches!(
                err,
                AggError::Cancelled(CancelReason::Requested)
                    | AggError::Cancelled(CancelReason::DeadlineExceeded)
            ),
            "victims die with a typed cancellation, got: {err}"
        );
    }

    // The shared pool outlives the storm: fresh work still runs clean.
    let after = Workload::random(0xabcd_0300);
    let (rows, report) = after.run(&ExecEnv::unrestricted()).expect("post-storm query");
    let (whole, _) = try_aggregate(
        &after.keys,
        &[&after.vals],
        &after.specs,
        &after.cfg,
        &ExecEnv::unrestricted(),
    )
    .expect("one-shot reference");
    assert_eq!(rows, whole.sorted_rows());
    assert_conserved(&after, &report);
}
