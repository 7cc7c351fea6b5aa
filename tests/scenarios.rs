//! The operator's contract, checked from one generator. Every slice below
//! is a seed list and fixed dimensions of a [`Scenario`], run as ordinary
//! tests, and every outcome goes through the one [`check`] (DESIGN.md §7
//! is the clause table). The slices carry the names of the suites they
//! replaced, so CI runs one by name: `cargo test --test scenarios --
//! chaos::`. A failing scenario is shrunk and printed as a literal; commit
//! it in [`named`]. Three more slices are test targets of their own under
//! their old names: `tests/integration.rs`, `tests/stress.rs` and the
//! operator properties of `tests/properties.rs`.

#[path = "scenarios/harness.rs"]
mod harness;

use harness::{check, draws, four, strategies, sweep, Cancel, Cuts, Door, Keys, Scenario};
use hashing_is_sorting::datagen::Distribution;
use hashing_is_sorting::{
    AdaptiveParams, AggFn, AggSpec, FaultPlan, SpillFault, SpillFaultKind, Strategy,
};

/// The spill sweeps' workload: one worker, and a 96 KiB budget that admits
/// the worker's table but denies the reservations of both seals, so every
/// run of the query is written and read back. 24 hot keys make 48 runs:
/// enough to keep reads in flight, few enough to sweep every ordinal of
/// every I/O fault at every width.
fn seal_burst() -> Scenario {
    let s =
        Scenario { keys: Keys::SealBurst, k: 24, threads: 1, spill: true, ..Scenario::default() };
    Scenario { mem_budget: Some(96 << 10), ..s }
}

/// Random shapes and configurations: empty input, one row, one group, keys
/// at `u64::MAX`, DISTINCT.
mod differential {
    use super::*;

    fn shape(seed: u64) -> Scenario {
        let mut draw = draws(seed);
        let uniform = Keys::Data(Distribution::Uniform);
        let one = Keys::Data(Distribution::Sequential);
        let shapes =
            [(uniform, 64), (uniform, 10_000), (Keys::Wide, 1), (one, 1), (Keys::Extremes, 8)];
        let (keys, k) = shapes[draw(5) as usize];
        let n = [0, 1, 2, 100, 4_096, 20_000][seed as usize % 6];
        let (count, sum, min, max) =
            (AggSpec::count(), AggSpec::sum(0), AggSpec::min(1), AggSpec::max(1));
        let specs = if draw(5) == 0 { vec![] } else { vec![count, sum, min, max] };
        let strategy = strategies()[draw(4) as usize];
        let s = Scenario { keys, n, k, seed, specs, strategy, ..Scenario::default() };
        let threads = 1 + draw(3) as usize;
        let (cache_bytes, morsel_rows) = ((32 << 10) << draw(5), 1 << (8 + draw(6)));
        Scenario { threads, cache_bytes, morsel_rows, ..s }
    }

    /// Many small runs: the two halves of the seed list go at once.
    #[test]
    fn random_shapes_and_configurations() {
        std::thread::scope(|t| {
            for seeds in [0..20, 20..40] {
                t.spawn(move || seeds.for_each(|seed| drop(check(&shape(seed)))));
            }
        });
    }

    /// Shapes the seeds reach only by chance, each under three drawn
    /// configurations: one row keyed `u64::MAX`, 50 000 rows in one group,
    /// and 10 000 rows over the seven keys below and at `u64::MAX`.
    #[test]
    fn fixed_shapes() {
        let one = Keys::Data(Distribution::Sequential);
        for (keys, n, k) in
            [(Keys::Saturated, 1, 1), (one, 50_000, 1), (Keys::Saturated, 10_000, 7)]
        {
            for seed in 0..3 {
                check(&Scenario { keys, n, k, specs: four(), ..shape(seed) });
            }
        }
    }
}

/// Chunk boundaries, morsel length, workers and partials are invisible.
mod streaming {
    use super::*;

    #[test]
    fn any_cut_equals_one_shot() {
        for seed in 0..24 {
            let mut draw = draws(seed);
            let n = [0, 1 + draw(50), 1_000 + draw(40_000), 1_000 + draw(40_000)][draw(4) as usize];
            let specs = vec![AggSpec::count(), AggSpec::sum(0), AggSpec::max(0)];
            let s =
                Scenario { n: n as usize, k: 1 + draw(20_000), seed, specs, ..Scenario::default() };
            let (strategy, threads) = (strategies()[draw(4) as usize], 1 + draw(3) as usize);
            let cuts = if seed % 4 == 0 { Cuts::Whole } else { Cuts::Random };
            check(&Scenario { strategy, threads, cuts, door: Door::Stream, ..s });
        }
    }

    #[test]
    fn a_budgeted_stream_spills_and_matches() {
        let s = Scenario {
            n: 160_000,
            k: 30_000,
            specs: vec![AggSpec::sum(0), AggSpec::min(0)],
            ..Scenario::default()
        };
        let s = Scenario {
            mem_budget: Some(3 << 20),
            spill: true,
            door: Door::Stream,
            cuts: Cuts::Every(4096),
            ..s
        };
        assert!(check(&s).result.unwrap().stats.spilled_runs() > 0, "3 MiB must spill");
    }

    #[test]
    fn one_table_stops_at_level_zero() {
        let s = Scenario { n: 30_000, k: 300, door: Door::Stream, ..Scenario::default() };
        for (threads, cuts, seed) in
            [(1, Cuts::Whole, 1), (2, Cuts::Whole, 1), (1, Cuts::Random, 2), (1, Cuts::Random, 3)]
        {
            let stats = check(&Scenario { threads, cuts, seed, ..s.clone() }).result.unwrap().stats;
            if threads == 1 {
                assert_eq!((stats.seals, stats.passes_used()), (0, 1), "{stats:?}");
            }
        }
    }

    /// Nearly as many groups as rows: ADAPTIVE hashes, seals, switches and
    /// recurses, so sealed and partitioned runs meet in one bucket. One
    /// worker makes the budget's verdicts repeatable, so that is where the
    /// rows spill: 1.5 MiB holds the output blocks, not the runs beside.
    #[test]
    fn grain_is_invisible() {
        let specs = vec![AggSpec::count(), AggSpec::sum(0), AggSpec::min(1), AggSpec::max(2)];
        let s = Scenario {
            n: 40_000,
            k: 25_000,
            specs,
            door: Door::Stream,
            cuts: Cuts::Random,
            ..Scenario::default()
        };
        for (case, morsel_rows) in [1 << 8, 1 << 12, 1 << 16, 40_000].into_iter().enumerate() {
            for threads in [1, 2, 4] {
                let (seed, strategy) =
                    ((case * 4 + threads) as u64, strategies()[(case + threads) % 4]);
                let s = Scenario { seed, strategy, morsel_rows, threads, ..s.clone() };
                let spills = threads == 1;
                let tight =
                    Scenario { mem_budget: spills.then_some(3 << 19), spill: spills, ..s.clone() };
                let stats = check(&tight).result.unwrap().stats;
                assert_eq!(stats.spilled_runs() > 0, spills, "{stats:?}");
                check(&Scenario { door: Door::Merge, ..s }).result.unwrap();
            }
        }
    }
}

/// Injected failures by ordinal, cancellation and budgets.
mod faults {
    use super::*;

    /// 1 009 groups at two workers: tables seal mid-input, so there are
    /// bucket tasks and many reservations to inject into.
    fn base() -> Scenario {
        Scenario { k: 1_009, mem_budget: Some(1 << 30), ..Scenario::default() }
    }

    /// Partition-only rows of 2 000 groups over 32 level-0 digits at one
    /// worker: the writer's reservations and spill batches are most of the
    /// run's injection sites, and 256 KiB holds half of its raw rows.
    fn writer() -> Scenario {
        let s = Scenario { keys: Keys::Digits(32), k: 2_000, threads: 1, ..Scenario::default() };
        let strategy = Strategy::PartitionAlways { passes: 1 };
        Scenario { strategy, mem_budget: Some(256 << 10), spill: true, ..s }
    }

    fn alloc(n: u64) -> FaultPlan {
        FaultPlan { fail_alloc: Some(n), ..FaultPlan::none() }
    }

    fn spill(n: u64) -> FaultPlan {
        FaultPlan { fail_spill: Some(n), ..FaultPlan::none() }
    }

    #[test]
    fn every_allocation_and_every_task() {
        sweep(&base(), alloc);
        sweep(&base(), |n| FaultPlan { panic_in_task: Some(n), ..FaultPlan::none() });
    }

    #[test]
    fn cancellation_is_typed() {
        for rows in [1, 10_000, 20_000] {
            let faults = FaultPlan { cancel_after_rows: Some(rows), ..FaultPlan::none() };
            check(&Scenario { faults, ..base() });
        }
        for cancel in [Cancel::Requested, Cancel::Deadline] {
            check(&Scenario { cancel, ..base() });
        }
    }

    #[test]
    fn budgets_degrade_or_fail_typed() {
        let modest =
            Scenario { cache_bytes: 8 << 20, threads: 1, mem_budget: Some(6 << 20), ..base() };
        let stats = check(&modest).result.unwrap().stats;
        assert!(stats.budget_downgrades > 0 && stats.budget_denials > 0, "{stats:?}");
        for strategy in [strategies()[0], strategies()[1], strategies()[3]] {
            check(&Scenario { strategy, ..base() }).result.unwrap();
            let tiny = Scenario { strategy, mem_budget: Some(1 << 10), ..base() };
            assert!(check(&tiny).result.is_err(), "{strategy:?} fit in 1 KiB");
        }
        let tight = Scenario { n: 30_000, k: 10_000, mem_budget: Some(1 << 20), ..base() };
        assert!(check(&tight).result.is_err(), "1 MiB must be fatal in memory");
        let stats = check(&Scenario { spill: true, ..tight }).result.unwrap().stats;
        assert!(stats.spilled_runs() > 0, "the budget never forced a spill: {stats:?}");
    }

    #[test]
    fn every_spill_write() {
        let stats = check(&seal_burst()).result.unwrap().stats;
        assert!((1..=256).contains(&stats.spilled_runs()) && stats.seals >= 2, "{stats:?}");
        sweep(&seal_burst(), spill);
    }

    /// A denied writer lets go of everything it holds, runs as long as its
    /// share so far; without a directory the denial is the query's error;
    /// a stream dropped mid-input gives back every byte and file.
    #[test]
    fn a_denied_partition_writer_spills_its_whole_content() {
        assert!(check(&Scenario { spill: false, ..writer() }).result.is_err());
        let stats = check(&writer()).result.unwrap().stats;
        assert_eq!(stats.part_rows_per_level[0], 20_000);
        let batches = stats.budget_downgrades;
        assert!(batches > 0 && stats.spilled_runs() <= 32 * batches, "{stats:?}");
        let morsel_share = 4096 / 32 * 8 * 2;
        assert!(stats.spilled_bytes > 2 * morsel_share * stats.spilled_runs(), "{stats:?}");
        assert!(
            sweep(&writer(), alloc) > 20_000 / 4096,
            "the writer's reservations were not reached"
        );
        assert_eq!(sweep(&writer(), spill), batches, "one spill batch per denial");
        let abandon =
            Scenario { n: 40_000, door: Door::Abandon, cuts: Cuts::Every(4096), ..writer() };
        let (bytes, files) = check(&Scenario { io_threads: 0, ..abandon }).result.unwrap().held;
        assert!(bytes > 0 && files > 0, "dropped before the writer spilled and refilled");
    }

    #[test]
    fn a_spec_without_input_is_rejected() {
        let specs = vec![AggSpec { func: AggFn::Sum, input: None }];
        assert!(check(&Scenario { specs, ..Scenario::default() }).result.is_err());
    }
}

/// Every injectable spill-I/O fault at every ordinal, at each of the three
/// I/O widths (none, one, two workers).
mod chaos {
    use super::*;
    use SpillFaultKind::*;

    fn every_ordinal(kinds: [SpillFaultKind; 3]) {
        let base = Scenario { disk_budget: Some(1 << 30), ..seal_burst() };
        std::thread::scope(|t| {
            for io_threads in 0..3 {
                for kind in kinds {
                    let plan = move |nth| FaultPlan {
                        spill_io: Some(SpillFault { nth, kind }),
                        ..FaultPlan::none()
                    };
                    let s = Scenario { io_threads, ..base.clone() };
                    t.spawn(move || sweep(&s, plan));
                }
            }
        });
    }

    #[test]
    fn every_write_fault_at_every_ordinal() {
        every_ordinal([WriteEio, WriteShort, WriteEnospc]);
    }

    #[test]
    fn every_read_fault_at_every_ordinal() {
        every_ordinal([ReadEio, ReadBitFlip, ReadTruncate]);
    }

    /// Cancelled between two level-1 buckets while the store reads ahead:
    /// the first restore's (retried) fault is the trigger. A cancel that
    /// lands after the last bucket lets the query finish; then ask again.
    #[test]
    fn cancelling_between_buckets_leaves_nothing_behind() {
        let read = SpillFault { nth: 1, kind: SpillFaultKind::ReadEio };
        let s = Scenario {
            keys: Keys::Data(Distribution::Sequential),
            n: 600_000,
            k: 200_000,
            threads: 1,
            ..Scenario::default()
        };
        let s = Scenario {
            specs: vec![AggSpec::count()],
            door: Door::Stream,
            cuts: Cuts::Every(8192),
            ..s
        };
        let s =
            Scenario { mem_budget: Some(6 << 20), spill: true, cancel: Cancel::OnFirstFault, ..s };
        let s = Scenario { faults: FaultPlan { spill_io: Some(read), ..FaultPlan::none() }, ..s };
        let cancelled = (0..3).any(|seed| check(&Scenario { seed, ..s.clone() }).result.is_err());
        assert!(cancelled, "three queries in a row finished before their cancel was seen");
    }
}

/// Queries in flight at once at one to three workers, half of them
/// cancelled, on the shared runtime.
mod concurrency {
    use super::*;

    #[test]
    fn neighbours_and_victims_are_invisible() {
        for seed in [0x5eed, 0xabcd] {
            let mut draw = draws(seed);
            let (n, k) = (2_000 + draw(30_000) as usize, 1 + draw(10_000));
            let strategy = [strategies()[0], strategies()[1], strategies()[3]][draw(3) as usize];
            let s = Scenario {
                n,
                k,
                seed,
                strategy,
                threads: 1 + draw(2) as usize,
                ..Scenario::default()
            };
            let cuts = Cuts::Every(512 + draw(8_000) as usize);
            check(&Scenario {
                cache_bytes: 128 << 10,
                door: Door::Stream,
                cuts,
                neighbours: 6,
                victims: true,
                ..s
            });
        }
    }
}

/// Failing scenarios the shrinker printed, committed under their own names.
mod named {
    #![allow(unused_imports)]
    use super::harness::{Cancel::*, Cuts::*, Door::*, Keys::*};
    use super::*;
    use hashing_is_sorting::datagen::Distribution::*;
    use hashing_is_sorting::{AggFn::*, SpillFaultKind::*, Strategy::*};

    /// ROADMAP item 1, `ablation_spill 20`'s 1.25x rung: at two workers a
    /// reservation that cannot spill (an output block, a seal's scratch) is
    /// denied because resident runs, which may fill the budget, got there
    /// first.
    #[test]
    #[ignore = "ROADMAP item 1: two workers race for the last bytes of a 1.25x output budget"]
    fn two_workers_under_one_and_a_quarter_outputs() {
        let s = Scenario {
            keys: Data(Uniform),
            n: 1 << 20,
            k: 1 << 18,
            seed: 42,
            specs: vec![AggSpec::count(), AggSpec::sum(0)],
            strategy: Adaptive(AdaptiveParams::default()),
            cache_bytes: 2 << 20,
            fill_percent: 25,
            morsel_rows: 1 << 16,
            threads: 2,
            cuts: Every(1 << 16),
            mem_budget: Some(7_864_320),
            disk_budget: None,
            spill: true,
            io_threads: 1,
            faults: FaultPlan::none(),
            cancel: Never,
            neighbours: 0,
            victims: false,
            door: Stream,
        };
        let result = check(&s).result;
        assert!(result.is_ok(), "{:?}", result.err());
    }
}
