//! The library front doors: `try_aggregate_observed` over a slice, and
//! `AggStream` fed in chunks under a memory budget with a spill directory.

use crate::check::{digest, Digest, Oracle};
use crate::ledger::Ledger;
use crate::runner::{Door, Window};
use crate::spans::{close, open, SpanLog, Tracing, NO_PARENT};
use crate::workloads::{self, Input, Workload, SPILL_CHUNK_ROWS};
use hashing_is_sorting::{
    try_aggregate_observed, AggSpec, AggStream, AggregateConfig, DiskBudget, ExecEnv,
    GroupByOutput, MemoryBudget, ObsConfig, RunReport,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Cap on the spill directory: far above what a query writes, but finite,
/// so that the disk budget accounts and "zero in use" can be checked.
const DISK_CAP: u64 = 16 << 30;

pub struct LibDoor {
    input: Input,
    cfg: AggregateConfig,
    /// Rows per push; the whole input on the slice door.
    chunk_rows: usize,
    /// Memory budget and scratch directory of the out-of-core door.
    spill: Option<(u64, PathBuf)>,
    /// Digest all queries must share (they run on one input).
    expected: Option<Digest>,
    /// Output of the most recent query, kept for the oracle.
    last: Option<GroupByOutput>,
}

struct Answer {
    nanos: u64,
    out: GroupByOutput,
    report: RunReport,
}

impl LibDoor {
    /// Generate the input and open the door; `scratch` is created for the
    /// out-of-core workload and must not exist yet.
    pub fn open(w: &Workload, smoke: bool, seed: u64, scratch: PathBuf) -> Result<Self, String> {
        let (threads, spill) = match w.door {
            workloads::Door::LibSlice { threads } => (threads, None),
            workloads::Door::LibSpill { threads } => {
                std::fs::create_dir_all(&scratch)
                    .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
                (threads, Some((w.spill_budget(smoke), scratch)))
            }
            workloads::Door::Serve => unreachable!("serve_small has its own door"),
        };
        let input = w.inputs(smoke, seed).pop().expect("one input per library workload");
        let chunk_rows = if spill.is_some() { SPILL_CHUNK_ROWS } else { input.keys.len() };
        let cfg = AggregateConfig { threads, ..AggregateConfig::default() };
        Ok(Self { input, cfg, chunk_rows, spill, expected: None, last: None })
    }

    /// One full front-door call. With a span log the stream is driven
    /// directly (the slice API is a one-chunk wrapper over it) so that
    /// `new`, every `push` and `finish` get their own span.
    fn query(&self, observed: bool, mut log: Tracing) -> Result<Answer, String> {
        let specs = [AggSpec::count(), AggSpec::sum(0)];
        let obs = ObsConfig { metrics: observed, ..ObsConfig::disabled() };
        let (budget, disk) = match &self.spill {
            Some((bytes, _)) => (MemoryBudget::limited(*bytes), DiskBudget::limited(DISK_CAP)),
            None => (MemoryBudget::unlimited(), DiskBudget::unlimited()),
        };
        let mut env =
            ExecEnv::unrestricted().with_budget(budget.clone()).with_disk_budget(disk.clone());
        if let Some((_, dir)) = &self.spill {
            env = env.with_spill_dir(dir);
        }
        let Input { keys, vals } = &self.input;

        let start = Instant::now();
        let result = if log.is_none() && self.chunk_rows >= keys.len() {
            try_aggregate_observed(keys, &[vals], &specs, &self.cfg, &env, &obs)
        } else {
            let query = open(&mut log, "query", NO_PARENT);
            let parent = query.unwrap_or(NO_PARENT);
            let id = open(&mut log, "core.stream.new", parent);
            let opened = AggStream::new(&specs, &self.cfg, &env, &obs);
            close(&mut log, id);
            let result = opened.and_then(|mut stream| {
                for (k, v) in keys.chunks(self.chunk_rows).zip(vals.chunks(self.chunk_rows)) {
                    let id = open(&mut log, "core.stream.push", parent);
                    let pushed = stream.push(k, &[v]);
                    close(&mut log, id);
                    pushed?;
                }
                let id = open(&mut log, "core.stream.finish", parent);
                let finished = stream.finish();
                close(&mut log, id);
                finished
            });
            close(&mut log, query);
            result
        };
        let nanos = start.elapsed().as_nanos() as u64;

        let (out, report) = result.map_err(|e| format!("query failed: {e}"))?;
        if budget.outstanding() != 0 || disk.outstanding() != 0 {
            return Err(format!(
                "undrained budget: {} B memory, {} B disk still reserved",
                budget.outstanding(),
                disk.outstanding()
            ));
        }
        match &self.spill {
            Some((bytes, _)) => {
                if report.stats.spilled_bytes == 0 {
                    return Err("the out-of-core workload did not spill".into());
                }
                if report.stats.budget_high_water_bytes > *bytes {
                    return Err(format!(
                        "budget high water {} B above the {bytes} B budget",
                        report.stats.budget_high_water_bytes
                    ));
                }
            }
            None if report.stats.spilled_bytes != 0 => {
                return Err(format!("{} B spilled without a budget", report.stats.spilled_bytes));
            }
            None => {}
        }
        Ok(Answer { nanos, out, report })
    }
}

fn columns(out: &GroupByOutput) -> Result<(Vec<u64>, Vec<u64>), String> {
    match (out.column_u64(0), out.column_u64(1)) {
        (Some(counts), Some(sums)) => Ok((counts, sums)),
        _ => Err("COUNT and SUM must be exact integer columns".into()),
    }
}

/// Digest an answer and hold it against the run's common digest.
fn check(expected: &mut Option<Digest>, out: &GroupByOutput) -> Result<(), String> {
    let (counts, sums) = columns(out)?;
    digest(&out.keys, &counts, &sums).hold(expected)
}

impl Door for LibDoor {
    fn first_query(&mut self) -> Result<(), String> {
        let answer = self.query(false, None)?;
        check(&mut self.expected, &answer.out)
    }

    fn run_window(&mut self, length: Duration, traced: bool) -> Window {
        let rows = self.input.keys.len() as u64;
        let mut window = Window::new(rows);
        let start = Instant::now();
        let mut log = traced.then(|| SpanLog::new(start));
        let mut ledger = Ledger::default();
        loop {
            window.attempted += 1;
            let log_arg = log.as_mut().map(|l| (l, window.attempted as u32 - 1));
            let outcome = self.query(traced, log_arg).and_then(|answer| {
                check(&mut self.expected, &answer.out)?;
                Ok(answer)
            });
            let over = start.elapsed() >= length;
            match outcome {
                Ok(answer) => {
                    window.query_ns.push(answer.nanos as f64);
                    if traced {
                        ledger.add_report(&answer.report);
                    }
                    if over {
                        self.last = Some(answer.out);
                    }
                }
                Err(e) => window.fail(e),
            }
            if over {
                break;
            }
        }
        window.wall_ns = start.elapsed().as_nanos() as u64;
        window.spans = log;
        window.ledger = ledger;
        window
    }

    fn verify(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        let oracle = Oracle::build(&self.input.keys, &self.input.vals);
        if self.expected != Some(oracle.digest()) {
            problems.push(format!(
                "the run's digest {:?} is not the oracle's {:?}",
                self.expected,
                oracle.digest()
            ));
        }
        match self.last.take() {
            Some(out) => {
                let compared = columns(&out).and_then(|(c, s)| oracle.compare(&out.keys, &c, &s));
                problems.extend(compared.err().map(|e| format!("last query: {e}")));
            }
            None => problems.push("no completed query to compare with the oracle".into()),
        }
        problems
    }

    fn close(self: Box<Self>) -> Vec<String> {
        // Budgets are per query and were read after each one; what can
        // still be wrong here is a file left in the scratch directory.
        self.spill.iter().filter_map(|(_, dir)| scratch_problem(dir)).collect()
    }

    fn replay_input(&self) -> &Input {
        &self.input
    }
}

/// The scratch directory must be empty once the last query is done; it is
/// removed either way.
pub fn scratch_problem(dir: &PathBuf) -> Option<String> {
    let leaked: Vec<String> = match std::fs::read_dir(dir) {
        Ok(entries) => {
            entries.flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect()
        }
        Err(e) => return Some(format!("cannot list {}: {e}", dir.display())),
    };
    let _ = std::fs::remove_dir_all(dir);
    (!leaked.is_empty()).then(|| format!("leaked scratch files in {}: {leaked:?}", dir.display()))
}
