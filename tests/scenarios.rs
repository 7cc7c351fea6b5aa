//! The operator's contract, checked from one generator. Every slice below
//! is a seed list and fixed dimensions of a [`Scenario`], run as ordinary
//! tests, and every outcome goes through the one [`check`] (DESIGN.md §7
//! is the clause table). The slices carry the names of the suites they
//! replaced, so CI runs one by name: `cargo test --test scenarios --
//! chaos::`. A failing scenario is shrunk and printed as a literal; commit
//! it in [`named`]. [`properties`] adds the building blocks under the
//! operator, checked directly. `tests/memory.rs` is a target of its own,
//! because it needs the chunk depot to itself.

mod harness;

use harness::{check, draws, four, strategies, sweep, Cancel, Cuts, Door, Keys, Scenario};
use hashing_is_sorting::datagen::Distribution;
use hashing_is_sorting::{
    try_aggregate, try_merge_partials, AdaptiveParams, AggError, AggFn, AggSpec, AggStream,
    AggregateConfig, ExecEnv, FaultPlan, MemoryBudget, ObsConfig, SpillFault, SpillFaultKind,
    Strategy,
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

/// The one-shot door under five strategies from one group to one group
/// per row, the rows each routine takes, partials merged with AVG, and an
/// output block the budget denies.
mod driver {
    use super::*;
    use hashing_is_sorting::kernels::TableConfig;

    /// [`strategies`] and ADAPTIVE that never judges a table worth
    /// switching for.
    fn five() -> [Strategy; 5] {
        let [a, b, c, d] = strategies();
        [a, b, c, d, Strategy::Adaptive(AdaptiveParams { alpha0: f64::INFINITY, c: 1.0 })]
    }

    fn small(keys: Distribution, n: usize, k: u64) -> Scenario {
        Scenario { keys: Keys::Data(keys), n, k, cache_bytes: 128 << 10, ..Scenario::default() }
    }

    #[test]
    fn every_strategy_from_one_group_to_one_per_row() {
        let (one, uniform) = (Distribution::Sequential, Distribution::Uniform);
        for (s, specs) in [
            (small(one, 10_000, 1), four()),
            (small(uniform, 40_000, 100), four()),
            (small(uniform, 60_000, 30_000), four()),
            (small(uniform, 50_000, 5_000), vec![]),
            (small(one, 50_000, 50_000), vec![]),
        ] {
            for strategy in five() {
                check(&Scenario { specs: specs.clone(), strategy, ..s.clone() });
            }
        }
    }

    /// HASHINGONLY over 16 keys hashes every row at level 0 and merges
    /// only tiny runs below it; ADAPTIVE over one key never switches; a
    /// table that seals mid-input leaves runs its leftover groups join.
    #[test]
    fn each_routine_takes_its_rows() {
        let count = vec![AggSpec::count()];
        let few = Scenario { specs: count.clone(), ..small(Distribution::Uniform, 40_000, 16) };
        let st = check(&Scenario { strategy: Strategy::HashingOnly, ..few }).result.unwrap().stats;
        assert_eq!((st.total_part_rows(), st.hash_rows_per_level[0]), (0, 40_000), "{st:?}");
        assert!(st.hash_rows_per_level[1] <= 16 * 2 * 2, "{st:?}");
        let one = Scenario { specs: vec![], ..small(Distribution::Sequential, 100_000, 1) };
        let st = check(&one).result.unwrap().stats;
        assert_eq!((st.switches_to_partitioning, st.total_part_rows()), (0, 0), "{st:?}");
        let sealing = Scenario { specs: count, ..small(Distribution::Sequential, 20_000, 5_000) };
        let sealing =
            Scenario { threads: 1, strategy: Strategy::HashingOnly, door: Door::Stream, ..sealing };
        let st = check(&sealing).result.unwrap().stats;
        assert!(st.seals >= 2 && st.hash_rows_per_level[1] > 0, "{st:?}");
    }

    /// Three uneven partials merge into the one-shot answer; AVG survives
    /// because its SUM and COUNT states do.
    #[test]
    fn partials_merge_into_the_answer_avg_included() {
        let specs = vec![AggSpec::count(), AggSpec::sum(0), AggSpec::min(0), AggSpec::avg(0)];
        let s = Scenario { specs, ..small(Distribution::Uniform, 40_000, 2_000) };
        check(&Scenario { door: Door::Merge, cuts: Cuts::Every(13_000), ..s });
    }

    /// One worker and room for its table plus 1 KiB: the 500 groups'
    /// output block (12 000 bytes) is denied at finish, typed.
    #[test]
    fn a_denied_output_block_is_typed() {
        let table = TableConfig::for_cache_bytes(128 << 10, 2).mem_bytes(2);
        let s = Scenario {
            threads: 1,
            door: Door::Stream,
            ..small(Distribution::Sequential, 5_000, 500)
        };
        let e = check(&Scenario { mem_budget: Some(table + 1024), ..s }).result.err();
        assert!(matches!(e, Some(AggError::BudgetExceeded { requested: 12_000, .. })), "{e:?}");
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
        let report = check(&s).result.unwrap().report.expect("the stream is observed");
        let st = &report.stats;
        let spilled = st.spilled_runs() > 0 && st.spill_encoded_bytes > 0;
        assert!(spilled && st.budget_high_water_bytes > 0, "3 MiB must spill: {st:?}");
        // The default store has an I/O worker: its time and the waits on
        // it are seen, and the overlap is a fraction.
        let profile = report.profile.expect("the profile rides with metrics");
        assert!(profile.io_nanos() > 0 && st.overlapped_io_nanos + st.spill_io_wait_nanos > 0);
        assert!((0.0..1.0).contains(&profile.overlap_fraction()), "{profile:?}");
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

    /// A denied writer lets go of its largest digits, each a run as long
    /// as the digit's share so far; without a directory the denial is the
    /// query's error; a stream dropped mid-input gives back every byte and
    /// file.
    #[test]
    fn a_denied_partition_writer_spills_its_largest_digits() {
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

    /// Malformed calls are typed errors before any row is merged, and
    /// leave nothing reserved: a column of the wrong length or one a spec
    /// reads but the call lacks, through the one-shot door and each push;
    /// partials of another plan or cut out of shape. A stream finished
    /// without a push is empty.
    #[test]
    fn malformed_calls_are_typed() {
        let (cfg, env) = (AggregateConfig::default(), ExecEnv::unrestricted());
        let sum = [AggSpec::sum(0)];
        let e = try_aggregate(&[1, 2], &[&[1]], &sum, &cfg, &env).err();
        assert!(matches!(e, Some(AggError::RowCountMismatch { column: 0, got: 1, expected: 2 })));
        let e = try_aggregate(&[1, 2], &[], &sum, &cfg, &env).err();
        assert!(matches!(e, Some(AggError::MissingInputColumn { referenced: 0, available: 0 })));
        let open = |specs: &[AggSpec]| AggStream::new(specs, &cfg, &env, &ObsConfig::disabled());
        let e = open(&sum).unwrap().push(&[1, 2], &[&[1]]).err();
        assert!(matches!(e, Some(AggError::RowCountMismatch { .. })), "{e:?}");
        let e = open(&sum).unwrap().push(&[1, 2], &[]).err();
        assert!(matches!(e, Some(AggError::MissingInputColumn { .. })), "{e:?}");
        let (out, report) = open(&[AggSpec::count()]).unwrap().finish().unwrap();
        assert_eq!((out.n_groups(), report.rows_in), (0, 0));

        let specs = [AggSpec::count(), AggSpec::sum(0)];
        let keys: Vec<u64> = (0..20_000).map(|i| i % 1_000).collect();
        let good = try_aggregate(&keys, &[&keys], &specs, &cfg, &env).unwrap().0;
        let e = try_merge_partials(&[&good], &[AggSpec::count()], &cfg, &env).err();
        assert_eq!(e, Some(AggError::MismatchedSpecs));
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
            let e = try_merge_partials(&[&good, &bad], &specs, &cfg, &env).err();
            assert_eq!(e.as_ref(), Some(&want));
            assert_eq!((budget.outstanding(), budget.high_water()), (0, 0), "{want:?}");
        }
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

/// Every strategy and §6.5 distribution, through the facade.
mod integration {
    use super::*;

    fn data(keys: Distribution, n: usize, k: u64, seed: u64) -> Scenario {
        let s =
            Scenario { keys: Keys::Data(keys), n, k, seed, specs: vec![], ..Scenario::default() };
        Scenario { cache_bytes: 256 << 10, morsel_rows: 1 << 13, ..s }
    }

    #[test]
    fn every_distribution_every_strategy_matches_reference() {
        for d in Distribution::all() {
            for strategy in strategies() {
                check(&Scenario { specs: four(), strategy, ..data(d, 50_000, 8_192, 99) });
            }
        }
    }

    #[test]
    fn distinct_counts_match_datagen() {
        for d in Distribution::all() {
            check(&data(d, 30_000, 4_096, 7));
        }
    }

    #[test]
    fn thread_counts_agree() {
        let s = Scenario {
            specs: vec![AggSpec::sum(0)],
            ..data(Distribution::SelfSimilar, 60_000, 10_000, 3)
        };
        for threads in [1, 2, 3, 4, 8] {
            check(&Scenario { threads, ..s.clone() });
        }
    }

    #[test]
    fn multiple_aggregate_columns_are_independent() {
        let (sum, min, max) = (AggSpec::sum, AggSpec::min, AggSpec::max);
        let specs = vec![sum(0), sum(1), max(0), min(1), AggSpec::avg(0)];
        check(&Scenario { specs, ..data(Distribution::Uniform, 20_000, 500, 11) });
    }

    #[test]
    fn extreme_cardinalities() {
        for k in [1, 30_000] {
            check(&data(Distribution::Sequential, 30_000, k, 1));
        }
    }

    #[test]
    fn stats_account_for_all_rows() {
        for strategy in strategies() {
            check(&Scenario { strategy, ..data(Distribution::Uniform, 40_000, 20_000, 5) });
        }
    }

    #[test]
    fn adaptive_alpha_extremes_stay_correct() {
        for (alpha0, c) in [(0.0, 10.0), (f64::INFINITY, 0.5), (f64::INFINITY, 1e9)] {
            let strategy = Strategy::Adaptive(AdaptiveParams { alpha0, c });
            check(&Scenario { strategy, ..data(Distribution::MovingCluster, 50_000, 20_000, 8) });
        }
    }
}

/// Adversarial inputs and aggressive configurations.
mod stress {
    use super::*;

    #[test]
    fn adversarial_shared_first_digit() {
        let s = Scenario { keys: Keys::Digits(1), n: 60_000, k: 30_000, ..Scenario::default() };
        let stats = check(&Scenario { specs: vec![AggSpec::count()], ..s }).result.unwrap().stats;
        assert!(stats.passes_used() >= 2, "must recurse past the shared digit");
    }

    #[test]
    fn minimum_table_maximum_fill() {
        let s = Scenario { n: 20_000, k: 5_000, seed: 9, specs: vec![], ..Scenario::default() };
        let tiny = Scenario { cache_bytes: 1, fill_percent: 100, morsel_rows: 1 << 10, ..s };
        let stats =
            check(&Scenario { strategy: Strategy::HashingOnly, ..tiny }).result.unwrap().stats;
        assert!(stats.seals > 10, "tiny tables must seal constantly: {}", stats.seals);
    }

    #[test]
    fn one_row_morsels() {
        let s = Scenario {
            keys: Keys::Data(Distribution::Zipf),
            n: 5_000,
            k: 100,
            seed: 3,
            ..Scenario::default()
        };
        check(&Scenario { specs: vec![AggSpec::count()], threads: 4, morsel_rows: 1, ..s });
    }

    /// Four queries at once, five times over, none cancelled, at one to
    /// three workers each: operators share no hidden mutable state.
    #[test]
    fn concurrent_operator_invocations() {
        let s = Scenario { n: 30_000, k: 2_000, seed: 5, specs: vec![], ..Scenario::default() };
        for round in 0..5 {
            let threads = 1 + round % 3;
            check(&Scenario { threads, cache_bytes: 128 << 10, neighbours: 3, ..s.clone() });
        }
    }

    #[test]
    fn extreme_key_and_value_ranges() {
        check(&Scenario {
            keys: Keys::Extremes,
            n: 10_000,
            k: 8,
            specs: four(),
            ..Scenario::default()
        });
    }

    /// The scale the benches use, at `AggregateConfig::default()`.
    #[test]
    #[ignore = "slow; run with --ignored"]
    fn large_scale_smoke() {
        let d = AggregateConfig::default();
        let s = Scenario { n: 1 << 22, k: 1 << 19, specs: vec![], ..Scenario::default() };
        let s = Scenario {
            cache_bytes: d.cache_bytes,
            threads: d.threads,
            fill_percent: d.fill_percent,
            morsel_rows: d.morsel_rows,
            ..s
        };
        for strategy in [strategies()[0], strategies()[1], strategies()[3]] {
            check(&Scenario { strategy, ..s.clone() });
        }
    }
}

/// The report's deep views on a run that shows in all of them, and the
/// mechanisms no clause may hold every scenario to: the trace's format,
/// the heartbeat thread's lifetime, the one-thread coverage of the
/// profile, and the phase a restore is decoded under.
mod observability {
    use super::*;
    use hashing_is_sorting::obs::json::{parse, JsonValue};
    use hashing_is_sorting::obs::{Counter, Hist, Phase, PROFILE_LEVELS};
    use hashing_is_sorting::{try_aggregate_observed, RunReport, SpillConfig};
    use std::time::Duration;

    /// Small tables and morsels, so seals, switches and recursion happen
    /// at test sizes.
    fn adaptive() -> AggregateConfig {
        AggregateConfig {
            cache_bytes: 64 << 10,
            threads: 2,
            morsel_rows: 1 << 12,
            ..AggregateConfig::default()
        }
    }

    /// Distinct keys far beyond one table: ADAPTIVE seals at α ≈ 1,
    /// switches, partitions most rows and recurses, and every deep view
    /// shows it.
    #[test]
    fn an_adaptive_run_on_distinct_keys_shows_in_every_view() {
        let n = 200_000;
        let s = Scenario { keys: Keys::Wide, n, specs: vec![], ..Scenario::default() };
        let report = check(&s).result.unwrap().report.expect("the one-shot door is observed");
        let st = &report.stats;
        assert!(st.switches_to_partitioning > 0, "{st:?}");
        assert!(st.total_part_rows() > st.total_hash_rows() / 2, "{st:?}");
        let m = report.metrics.as_ref().expect("metrics").merged();
        assert!(m.counter(Counter::TableInserts) > 0 && m.hist(Hist::ProbeLen).count() > 0);
        assert!(m.hist(Hist::PartitionSkewPct).count() > 0 && m.alpha_count() > 0);
        let mean_alpha = m.alpha_sum() / m.alpha_count() as f64;
        assert!(mean_alpha < 4.0, "distinct keys, yet α averages {mean_alpha}");
        let pool = report.pool.as_ref().expect("pool").totals();
        assert!(pool.tasks_executed >= (n / 4096) as u64, "{pool:?}");
        assert!(pool.steals + pool.failed_steal_scans + pool.idle_nanos > 0, "{pool:?}");
        let hash0 = *report.profile.as_ref().expect("profile").cell(0, Phase::HashInsert);
        assert!(hash0.rows_out > 0 && hash0.rows_in < 2 * hash0.rows_out, "{hash0:?}");
        let explain = report.explain();
        assert!(explain.contains(&format!("rows {n} in → {n} groups out")), "{explain}");
        for node in
            ["α at switches", "pool · tasks", "hash_insert", "partition", "level 1", "depot chunks"]
        {
            assert!(explain.contains(node), "{explain}");
        }
    }

    /// One traced run with the deep part on: its report and its trace's
    /// events.
    fn traced(keys: &[u64], cfg: &AggregateConfig, env: &ExecEnv) -> (RunReport, Vec<JsonValue>) {
        let (_, report) = try_aggregate_observed(keys, &[], &[], cfg, env, &ObsConfig::full())
            .expect("the traced run completes");
        let trace = parse(report.trace_json.as_ref().expect("trace requested")).expect("parses");
        assert_eq!(trace.get("droppedEvents").and_then(JsonValue::as_u64), Some(0), "bounded");
        let events = trace.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents");
        (report, events.to_vec())
    }

    /// Every complete event's name and `level` arg.
    fn spans(events: &[JsonValue]) -> Vec<(&str, u64)> {
        fn span(e: &JsonValue) -> Option<(&str, u64)> {
            let level = e.get("args")?.get("level")?.as_u64()?;
            Some((e.get("name")?.as_str()?, level))
        }
        let complete =
            events.iter().filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"));
        complete
            .map(|e| span(e).unwrap_or_else(|| panic!("a span without a level: {e:?}")))
            .collect()
    }

    /// The trace is Chrome JSON: the phase calls' spans and the events'
    /// instants, every complete event with a time, a duration and a lane.
    /// A level-0 `driver` span wraps each morsel, a level-1 one each
    /// bucket task.
    #[test]
    fn trace_is_valid_chrome_json_with_span_events() {
        let keys: Vec<u64> =
            (0..100_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let (report, events) = traced(&keys, &adaptive(), &ExecEnv::unrestricted());
        let names: Vec<&str> = events.iter().filter_map(|e| e.get("name")?.as_str()).collect();
        for name in ["driver", "hash_insert", "seal", "partition", "switch_to_partitioning"] {
            assert!(names.contains(&name), "no {name} event");
        }
        for e in &events {
            let ph = e.get("ph").and_then(JsonValue::as_str).expect("every event has a ph");
            if ph == "X" {
                let time = |k| e.get(k).and_then(JsonValue::as_f64).is_some();
                let lane = e.get("tid").and_then(JsonValue::as_u64).is_some();
                assert!(time("ts") && time("dur") && lane, "{e:?}");
            }
        }
        let spans = spans(&events);
        let drivers = |level| spans.iter().filter(|&&s| s == ("driver", level)).count();
        let morsels = report.metrics.as_ref().expect("metrics").merged();
        let morsels = morsels.counter(Counter::MorselsClaimed);
        assert!(
            drivers(0) as u64 >= morsels,
            "{} level-0 driver spans, {morsels} morsels",
            drivers(0)
        );
        let st = &report.stats;
        let level1 = [&st.hash_rows_per_level, &st.part_rows_per_level]
            .iter()
            .any(|rows| rows.get(1).is_some_and(|&r| r > 0));
        assert!(level1, "the run never reached level 1: {st:?}");
        assert!(drivers(1) > 0, "level 1 ran, yet no level-1 driver span");
    }

    /// The timeline and the profile are one model: every timed phase call
    /// is one span and one `calls` of its cell, so with nothing dropped
    /// the spans of each (level, phase) — levels clamped as the cells
    /// clamp them — count exactly that cell's calls. Counted, not timed:
    /// over a multi-level run and a spilling one.
    #[test]
    fn trace_spans_are_the_profile_cells_calls() {
        let wide: Vec<u64> =
            (0..100_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let hot: Vec<u64> = (0..300_000u64).map(|i| (i % 90_000) * 7).collect();
        let dir = std::env::temp_dir().join(format!("hsa-trace-spill-{}", std::process::id()));
        let spilling = ExecEnv {
            budget: MemoryBudget::limited(4 << 20),
            spill_dir: Some(dir.clone()),
            spill: SpillConfig { io_threads: 0 },
            ..ExecEnv::unrestricted()
        };
        let one_thread = AggregateConfig { threads: 1, ..adaptive() };
        for (keys, cfg, env) in
            [(&wide, adaptive(), ExecEnv::unrestricted()), (&hot, one_thread, spilling)]
        {
            let (report, events) = traced(keys, &cfg, &env);
            let profile = report.profile.as_ref().expect("the profile rides with metrics");
            let mut counted = [[0u64; Phase::COUNT]; PROFILE_LEVELS];
            for (name, level) in spans(&events) {
                let phase = Phase::ALL.iter().find(|p| p.label() == name).expect("a phase label");
                counted[(level as usize).min(PROFILE_LEVELS - 1)][*phase as usize] += 1;
            }
            for (level, row) in counted.iter().enumerate() {
                for &phase in Phase::ALL {
                    let calls = profile.cell(level, phase).calls;
                    assert_eq!(row[phase as usize], calls, "{} at level {level}", phase.label());
                }
            }
            assert!(counted[1].iter().sum::<u64>() > 0, "no level-1 phase call");
            let spilled = report.stats.spilled_runs_per_level.iter().sum::<u64>();
            assert!(env.spill_dir.is_none() || spilled > 0, "the budgeted run did not spill");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The heartbeat thread starts with the stream, lives through pushes
    /// and the recursion, and is joined by `finish`; progress alone
    /// collects no metrics and no profile.
    #[test]
    fn progress_sampler_runs_and_stops_through_a_stream() {
        let obs = ObsConfig { progress: Some(Duration::from_millis(1)), ..ObsConfig::disabled() };
        let count = [AggSpec::count()];
        let mut stream =
            AggStream::new(&count, &adaptive(), &ExecEnv::unrestricted(), &obs).unwrap();
        let keys: Vec<u64> = (0..60_000).collect();
        for chunk in keys.chunks(4096) {
            stream.push(chunk, &[]).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let (out, report) = stream.finish().unwrap();
        assert_eq!(out.n_groups(), 60_000);
        assert!(report.metrics.is_none() && report.profile.is_none());
    }

    /// At one thread the phase tree explains the wall clock: at least 95 %
    /// of it lands in leaf phases, and not more than all of it.
    #[test]
    fn explain_attributes_nearly_all_wall_time_single_threaded() {
        let s = Scenario {
            keys: Keys::Wide,
            n: 400_000,
            specs: vec![],
            threads: 1,
            ..Scenario::default()
        };
        let report = check(&s).result.unwrap().report.expect("the one-shot door is observed");
        let profile = report.profile.expect("the profile rides with metrics");
        assert_eq!(profile.threads, 1);
        let coverage = profile.coverage();
        assert!(
            (0.95..=1.05).contains(&coverage),
            "{:.1}% of wall time attributed",
            coverage * 100.0
        );
    }

    /// No I/O worker and one thread: each level-1 run is read and decoded
    /// by the bucket task that consumes it, inside its level-1 Restore
    /// phase. Counted, not timed: the Restore cell holds one call per run
    /// spilled for level 1 and every restored byte, and its rows are the
    /// rows the level-1 Spill cell wrote.
    #[test]
    fn restore_decoded_by_its_consumer_is_restore_time_not_driver_time() {
        let s = Scenario {
            keys: Keys::Data(Distribution::Sequential),
            n: 360_000,
            k: 120_000,
            ..Scenario::default()
        };
        let s = Scenario {
            specs: vec![AggSpec::count()],
            threads: 1,
            door: Door::Stream,
            cuts: Cuts::Every(8192),
            ..s
        };
        let s = Scenario { mem_budget: Some(4 << 20), spill: true, io_threads: 0, ..s };
        let report = check(&s).result.unwrap().report.expect("the stream is observed");
        let st = &report.stats;
        let runs = st.spilled_runs_per_level[1];
        assert!(runs > 0, "level 1 must restore: {st:?}");
        assert_eq!(st.spilled_runs(), runs, "only level-1 runs spill here: {st:?}");
        let profile = report.profile.expect("the profile rides with metrics");
        let cell = |phase| *profile.cell(1, phase);
        let restore = cell(Phase::Restore);
        assert_eq!((restore.calls, st.restored_runs), (runs, runs), "{restore:?}");
        assert_eq!((restore.bytes, st.restored_bytes), (st.spilled_bytes, st.spilled_bytes));
        let spill = cell(Phase::Spill);
        assert_eq!(restore.rows_out, spill.rows_in, "{restore:?} restored, {spill:?} spilled");
    }
}

/// The result is allocated once at `finish` and written in place by the
/// tasks that seal its groups: its room is the stopping table's groups
/// exactly, or the smaller of the rows level 0 handed over as runs and
/// the groups the budget holds. Each case reaches one of those bounds or
/// one of the writers.
mod output {
    use super::*;
    use harness::Ran;
    use hashing_is_sorting::obs::Phase;

    /// The result's room, in rows: the level-0 `output` phase's bytes,
    /// less the block a table stopping at level 0 seals there.
    fn room(ran: &Ran) -> u64 {
        let (out, report) = (ran.out.as_ref().unwrap(), ran.report.as_ref().expect("observed"));
        let row_bytes = 8 * (1 + out.states.len() as u64);
        let bytes = report.profile.as_ref().expect("profile").cell(0, Phase::Output).bytes;
        let stopped = report.stats.passes_used() == 1;
        let room = bytes / row_bytes - if stopped { report.groups_out } else { 0 };
        assert!(room >= report.groups_out, "room {room} < {} groups", report.groups_out);
        room
    }

    /// Every row its own group at two workers: every row is handed over
    /// to level 1 and the claims fill the room to the last row.
    #[test]
    fn all_keys_distinct_fill_the_rows_bound() {
        let s = Scenario {
            keys: Keys::Data(Distribution::Sequential),
            n: 60_000,
            k: 60_000,
            ..Scenario::default()
        };
        for door in [Door::OneShot, Door::Stream] {
            let ran =
                check(&Scenario { door, cuts: Cuts::Every(25_000), ..s.clone() }).result.unwrap();
            let report = ran.report.as_ref().expect("observed");
            assert_eq!(report.groups_out, report.rows_in, "{door:?}");
            assert!(report.stats.passes_used() > 1, "{door:?}: the groups leave level 0");
            assert_eq!(room(&ran), report.rows_in, "{door:?}");
        }
    }

    /// A long stream of few groups at two workers: the worker tables hold
    /// every group, so level 0 hands over at most one small run per
    /// table, and the result is sized by those runs, not by the rows
    /// pushed.
    #[test]
    fn a_stream_of_few_groups_is_sized_by_its_runs() {
        let s = Scenario { n: 200_000, k: 10, door: Door::Stream, ..Scenario::default() };
        for cuts in [Cuts::Whole, Cuts::Every(5_000)] {
            let s = Scenario { cuts, ..s.clone() };
            let ran = check(&s).result.unwrap();
            assert!(room(&ran) <= s.threads as u64 * s.k, "{s:?}");
        }
    }

    /// A budget that holds fewer groups than there are rows: the budget
    /// bound is the smaller one, and the groups still fit under it.
    #[test]
    fn a_budget_below_the_rows_bounds_the_room() {
        let s = Scenario { n: 100_000, k: 30_000, spill: true, ..Scenario::default() };
        let budget = 1 << 20;
        let s = Scenario { mem_budget: Some(budget), ..s };
        let row_bytes = 8 * (1 + s.specs.len() as u64);
        assert!(budget / row_bytes < s.n as u64, "the rows bound is the smaller one");
        for threads in [1, 2] {
            let ran = check(&Scenario { threads, ..s.clone() }).result.unwrap();
            assert!(room(&ran) <= budget / row_bytes, "{threads} threads");
        }
    }

    /// PARTITIONALWAYS with one pass: every group is written by a
    /// grow-merge task.
    #[test]
    fn grow_merge_claims_its_groups() {
        let s = Scenario { n: 50_000, k: 20_000, specs: four(), ..Scenario::default() };
        for threads in [1, 2, 3] {
            let strategy = Strategy::PartitionAlways { passes: 1 };
            let stats = check(&Scenario { strategy, threads, ..s.clone() }).result.unwrap().stats;
            assert!(stats.fallback_merges > 0, "{stats:?}");
            assert_eq!(stats.seals, 0, "no table emitted a group: {stats:?}");
        }
    }

    /// One table absorbs the input: the result is allocated at exactly
    /// its groups, and the query lends no depot chunk (clause 8).
    #[test]
    fn a_query_that_stops_at_level_zero_is_sized_exactly() {
        let s = Scenario { n: 30_000, k: 500, morsel_rows: 1 << 15, ..Scenario::default() };
        for (threads, door) in [(1, Door::OneShot), (2, Door::OneShot), (1, Door::Stream)] {
            let ran = check(&Scenario { threads, door, ..s.clone() }).result.unwrap();
            let stats = &ran.stats;
            assert_eq!((stats.seals, stats.passes_used()), (0, 1), "{stats:?}");
            assert_eq!(room(&ran), ran.report.as_ref().unwrap().groups_out);
        }
    }
}

/// Property tests. The operator's own — many small random inputs, narrow
/// or nearly distinct keys, over tiny tables — are held to the one
/// [`check`]. The building blocks under it — partitioning, sealing,
/// histograms and the counters-only recorder — are checked directly.
///
/// Each property runs over many seeded cases drawn from `datagen`'s
/// splitmix64, so a failure reproduces exactly: a failing scenario is
/// shrunk and printed, a failing building-block case prints its seed.
mod properties {
    use super::*;
    use hashing_is_sorting::datagen::SplitMix64;
    use hashing_is_sorting::kernels::{
        digit, partition_keys_mapped, scatter_by_digits, AggTable, Hasher64, Insert, Murmur2,
        TableConfig,
    };
    use hashing_is_sorting::obs::{Counter, Hist, Histogram, Recorder};

    const CASES: u64 = 64;

    fn case(seed: u64) -> Scenario {
        let mut draw = draws(seed);
        let keys = [Keys::Data(Distribution::Uniform), Keys::Wide][draw(2) as usize];
        let (n, k) = (draw(2_000) as usize, 64);
        let s = Scenario {
            keys,
            n,
            k,
            seed,
            specs: four(),
            strategy: strategies()[draw(4) as usize],
            ..Scenario::default()
        };
        Scenario { cache_bytes: 32 << 10, morsel_rows: 512, ..s }
    }

    #[test]
    fn operator_matches_reference() {
        for seed in 0..CASES {
            check(&case(seed));
        }
    }

    #[test]
    fn split_aggregation_composes() {
        for seed in 0..CASES {
            let s =
                Scenario { strategy: Strategy::Adaptive(AdaptiveParams::default()), ..case(seed) };
            check(&Scenario { door: Door::Merge, cuts: Cuts::Every(s.n.div_ceil(2)), ..s });
        }
    }

    #[test]
    fn metrics_account_for_every_row() {
        for seed in 0..CASES {
            let mut draw = draws(!seed);
            let alpha0 = draw(5_000) as f64 / 100.0;
            let strategy = [
                strategies()[0],
                strategies()[1],
                strategies()[3],
                Strategy::Adaptive(AdaptiveParams { alpha0, c: 0.5 }),
            ];
            let strategy = strategy[draw(4) as usize];
            check(&Scenario { specs: vec![AggSpec::count()], strategy, ..case(seed) });
        }
    }

    #[test]
    fn counts_conserved_under_any_adaptive_params() {
        for seed in 0..CASES {
            let mut draw = draws(!seed);
            let (alpha0, c) = (draw(10_000) as f64 / 100.0, draw(2_000) as f64 / 100.0);
            let strategy = Strategy::Adaptive(AdaptiveParams { alpha0, c });
            check(&Scenario { specs: vec![AggSpec::count()], strategy, ..case(seed) });
        }
    }

    /// `datagen`'s splitmix64 with the draws the properties need.
    struct Gen(SplitMix64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0.next_u64()
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound.max(1)
        }
    }

    /// Run `body` for `CASES` seeds, labelling any panic with the case seed.
    fn cases(name: &str, body: impl Fn(&mut Gen)) {
        for case in 0..CASES {
            let mut g = Gen(SplitMix64::new(case));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut g)));
            if let Err(payload) = result {
                eprintln!("property `{name}` failed at case seed {case}");
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Partitioning is a stable permutation into the right digits, and the
    /// mapping replay aligns values with their keys.
    #[test]
    fn partitioning_permutes_and_mapping_aligns() {
        cases("partitioning_permutes_and_mapping_aligns", |g| {
            let n = g.below(3000) as usize;
            let keys: Vec<u64> = (0..n).map(|_| g.next()).collect();
            let h = Murmur2::default();
            let vals: Vec<u64> = keys.iter().map(|k| k.wrapping_mul(31).wrapping_add(7)).collect();
            let mut mapping = Vec::new();
            let kp = partition_keys_mapped([keys.as_slice()].into_iter(), h, 0, &mut mapping);
            let vp = scatter_by_digits(&mapping, [vals.as_slice()].into_iter());

            // Permutation: total count and multiset preserved.
            let total: usize = kp.iter().map(|p| p.len()).sum();
            assert_eq!(total, keys.len());
            let mut collected: Vec<u64> = kp.iter().flat_map(|p| p.iter()).collect();
            collected.sort_unstable();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(collected, sorted);

            for (d, (pk, pv)) in kp.iter().zip(&vp).enumerate() {
                assert_eq!(pk.len(), pv.len());
                for (k, v) in pk.iter().zip(pv.iter()) {
                    assert_eq!(digit(h.hash_u64(k), 0), d);
                    assert_eq!(v, k.wrapping_mul(31).wrapping_add(7));
                }
            }
        });
    }

    /// A sealed table partitions its keys by digit and emits every inserted
    /// key exactly once.
    #[test]
    fn sealed_table_is_a_radix_partition() {
        cases("sealed_table_is_a_radix_partition", |g| {
            let n = g.below(800) as usize;
            let keys: Vec<u64> = (0..n).map(|_| g.next()).collect();
            let h = Murmur2::default();
            let mut t =
                AggTable::new(TableConfig { total_slots: 1 << 13, fill_percent: 25 }, 0, &[]);
            let mut inserted = Vec::new();
            for &k in &keys {
                match t.insert_key(k, h.hash_u64(k)) {
                    Insert::New(_) => inserted.push(k),
                    Insert::Hit(_) => {}
                    Insert::Full => break,
                }
            }
            let mut emitted = Vec::new();
            let mut last_digit = None;
            t.seal(|d, ks, _| {
                if let Some(prev) = last_digit {
                    assert!(d > prev, "digits must be emitted in order");
                }
                last_digit = Some(d);
                for &k in ks {
                    assert_eq!(digit(h.hash_u64(k), 0), d);
                    emitted.push(k);
                }
            });
            emitted.sort_unstable();
            inserted.sort_unstable();
            assert_eq!(emitted, inserted);
        });
    }

    /// Histogram invariant: the cumulative distribution is non-decreasing and
    /// ends at the sample count, for arbitrary sample streams and merges.
    #[test]
    fn histogram_cumulative_is_monotone() {
        cases("histogram_cumulative_is_monotone", |g| {
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            let n = g.below(3000);
            for i in 0..n {
                let shift = g.below(64) as u32;
                let v = g.next() >> shift;
                if i % 2 == 0 {
                    a.record(v);
                } else {
                    b.record(v);
                }
            }
            a.merge(&b);
            let c = a.cumulative();
            for w in c.windows(2) {
                assert!(w[0] <= w[1], "cumulative must be non-decreasing");
            }
            assert_eq!(*c.last().unwrap(), n);
            assert_eq!(a.count(), n);
            assert_eq!(a.buckets().iter().sum::<u64>(), n);
            if n > 0 {
                assert!(a.quantile_bound(1.0) <= a.max());
            }
        });
    }

    /// Counters-only invariant: arbitrary recording against a recorder built
    /// without the deep part keeps every count exactly and leaves histograms
    /// and α samples empty (the deep calls really are no-ops on it).
    #[test]
    fn counters_only_recorder_keeps_counts_and_no_deep_part() {
        cases("counters_only_recorder_keeps_counts_and_no_deep_part", |g| {
            let r = Recorder::counters(8);
            let mut expect = [0u64; Counter::COUNT];
            for _ in 0..g.below(200) {
                let w = g.below(8) as usize;
                let c = Counter::ALL[g.below(Counter::COUNT as u64) as usize];
                let n = g.next() >> 8; // 200 of these cannot overflow a cell
                r.add(w, c, n);
                expect[c as usize] += n;
                r.observe(w, Hist::ALL[g.below(Hist::COUNT as u64) as usize], g.next());
                r.record_alpha(w, g.below(1000) as f64 / 10.0);
            }
            assert!(!r.is_deep());
            let snap = r.snapshot();
            assert_eq!(snap.workers.len(), 8);
            let m = snap.merged();
            for &c in Counter::ALL {
                assert_eq!(m.counter(c), expect[c as usize], "{}", c.label());
            }
            assert!(Hist::ALL.iter().all(|&h| m.hist(h).is_empty()));
            assert_eq!(m.alpha_count(), 0);
            assert!(m.alphas().is_empty());
        });
    }
}

/// Failing scenarios the shrinker printed, committed under their own names.
mod named {
    #![allow(unused_imports)]
    use super::harness::{Cancel::*, Cuts::*, Door::*, Keys::*};
    use super::*;
    use hashing_is_sorting::datagen::Distribution::*;
    use hashing_is_sorting::{AggFn::*, SpillFaultKind::*, Strategy::*};

    /// ROADMAP item 1, the spill ablation's 1.25x rung at 2^20 rows: at two workers a
    /// reservation that cannot spill (an output block, a seal's scratch)
    /// was denied because resident runs, which may fill the budget, got
    /// there first. Such a request now reclaims them.
    #[test]
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

    /// The budget ladder: one uniform input under 1.25x, 1.5x, 2x, 3x and
    /// 4x its output state (2^19 groups, a key and two states each), at one
    /// and two workers. Every rung completes, and since a denial spills in
    /// proportion to the overflow, no rung spills more bytes than a tighter
    /// one. (When a denial spilled the writer's whole content, one worker
    /// spilled 27.6, 17.3 and 32.8 MB at 1.5x, 2x and 3x.)
    #[test]
    fn spilled_bytes_fall_as_the_budget_grows() {
        let output = (1u64 << 19) * 8 * 3;
        for threads in [1, 2] {
            let spilled: Vec<u64> = [5, 6, 8, 12, 16]
                .into_iter()
                .map(|quarters| {
                    let s = Scenario {
                        keys: Data(Uniform),
                        n: 1 << 21,
                        k: 1 << 19,
                        seed: 42,
                        specs: vec![AggSpec::count(), AggSpec::sum(0)],
                        strategy: Adaptive(AdaptiveParams::default()),
                        cache_bytes: 2 << 20,
                        fill_percent: 25,
                        morsel_rows: 1 << 16,
                        threads,
                        cuts: Every(1 << 16),
                        mem_budget: Some(output * quarters / 4),
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
                    assert!(result.is_ok(), "{threads} threads, {quarters}/4x: {:?}", result.err());
                    result.unwrap().stats.spilled_bytes
                })
                .collect();
            assert!(spilled.windows(2).all(|w| w[0] >= w[1]), "{threads} threads: {spilled:?}");
        }
    }
}
