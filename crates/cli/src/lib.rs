//! `hsa` — GROUP BY aggregation over CSV files from the command line.
//!
//! A small end-to-end application of the operator: read a CSV twice —
//! once to validate it and type the columns the query names (numeric
//! columns as `u64`, everything else dictionary-encoded), once to stream
//! its rows into an [`AggStream`] — and print an aligned result table.
//!
//! ```text
//! hsa data.csv --group-by country,city --count orders --sum amount --avg amount
//! ```
//!
//! The binary lives in `src/main.rs`; everything here is library code so
//! the whole pipeline is unit-testable.

#![forbid(unsafe_code)]

mod args;
mod csv;
mod dictionary;
mod door;
mod error;
mod render;
mod serve;

pub use args::{parse_args, CliArgs, UsageError, USAGE};
pub use error::{CliError, ErrorClass};
pub use serve::{parse_serve_args, serve, serve_on, ServeArgs, SERVE_USAGE};

use dictionary::Dictionary;
use door::{Column, Layout};
use hashing_is_sorting::{
    AggFn, AggSpec, AggStream, CancelToken, DiskBudget, ExecEnv, MemoryBudget, ObsConfig, RunReport,
};
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::time::Duration;

/// Everything one CLI invocation produced: the rendered result table plus
/// the run report behind `--explain` / `--stats-json` / `--trace`.
#[derive(Debug)]
pub struct CliRun {
    /// Aligned result table, with the run report appended when
    /// `--explain` was given.
    pub rendered: String,
    /// The operator's run report (deep sections populated only when
    /// requested).
    pub report: RunReport,
}

/// Run a parsed CLI invocation against CSV `text`.
///
/// Failures come back as a [`CliError`] whose class decides the process
/// exit code (budget 2, timeout 3, I/O 4, invalid input 5).
pub fn run_on_csv_text(text: &str, args: &CliArgs) -> Result<CliRun, CliError> {
    run("input", || Ok(text.as_bytes()), args)
}

/// Run a parsed CLI invocation against the file `args.file`.
///
/// A regular file is opened once per pass and never held whole; any
/// other input (a pipe, `/dev/stdin`) cannot be read twice, so it is read
/// into memory once and both passes run over the bytes.
pub fn run_on_file(args: &CliArgs) -> Result<CliRun, CliError> {
    let path = args.file.as_str();
    let cannot = |e| door::cannot_read(path, e);
    if std::fs::metadata(path).map_err(cannot)?.is_file() {
        run(path, || Ok(BufReader::with_capacity(1 << 16, File::open(path)?)), args)
    } else {
        let bytes = std::fs::read(path).map_err(cannot)?;
        run(path, || Ok(bytes.as_slice()), args)
    }
}

/// The two passes over input `name`, each reading what `open` returns.
fn run<R: BufRead>(
    name: &str,
    open: impl Fn() -> io::Result<R>,
    args: &CliArgs,
) -> Result<CliRun, CliError> {
    let inputs_named = args.aggs.iter().filter(|(f, ..)| f != "count").map(|(_, c, _)| c);
    let refs: Vec<&str> = args.group_by.iter().chain(inputs_named).map(String::as_str).collect();
    let schema = door::scan(name, open().map_err(|e| door::cannot_read(name, e))?, &refs)?;

    // Each referenced column once, and each distinct input once: the
    // order of first appearance is its spec index.
    let field = |col: &String| {
        let field = schema.header.iter().position(|h| h == col);
        field.ok_or_else(|| CliError::invalid(format!("no column named {col:?} in the input")))
    };
    let mut fields = Vec::new();
    let group = (args.group_by.iter())
        .map(|c| Ok(index_of(&mut fields, field(c)?)))
        .collect::<Result<_, CliError>>()?;
    let (mut inputs, mut specs) = (Vec::new(), Vec::with_capacity(args.aggs.len()));
    for (func, col, _) in &args.aggs {
        let func = match func.as_str() {
            "count" => AggFn::Count,
            "sum" => AggFn::Sum,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            "avg" => AggFn::Avg,
            other => return Err(CliError::invalid(format!("unknown aggregate {other:?}"))),
        };
        let input = match func {
            AggFn::Count => None,
            _ => Some(index_of(&mut inputs, index_of(&mut fields, field(col)?))),
        };
        specs.push(AggSpec { func, input });
    }
    if let Some(&i) = inputs.iter().find(|&&i| !schema.numeric[fields[i]]) {
        let col = &schema.header[fields[i]];
        return Err(CliError::invalid(format!(
            "column {col:?} is not numeric and cannot be aggregated (only grouped)"
        )));
    }
    let dict = |f: usize| (!schema.numeric[f]).then(Dictionary::default);
    let columns = fields.iter().map(|&field| Column { field, dict: dict(field) }).collect();
    let mut at = Layout { width: schema.header.len(), columns, group, inputs };

    let obs = ObsConfig {
        metrics: args.wants_metrics(),
        trace: args.trace.is_some(),
        progress: args.progress_ms.map(Duration::from_millis),
    };
    let mut env = ExecEnv::unrestricted();
    if let Some(bytes) = args.mem_budget {
        env = env.with_budget(MemoryBudget::limited(bytes));
    }
    if let Some(ms) = args.timeout_ms {
        env = env.with_cancel(CancelToken::with_timeout(Duration::from_millis(ms)));
    }
    if let Some(dir) = &args.spill_dir {
        env = env.with_spill_dir(dir);
    }
    if let Some(bytes) = args.spill_limit {
        env = env.with_disk_budget(DiskBudget::limited(bytes));
    }
    // Operator errors carry their own class (budget, timeout, I/O, …).
    let mut stream = AggStream::new(&specs, &args.config, &env, &obs)?;
    // One push is one morsel per worker.
    let chunk = args.config.threads.max(1) * args.config.morsel_rows.max(1);
    let src = open().map_err(|e| door::cannot_read(name, e))?;
    let tuples = door::feed(name, src, &mut at, chunk, &mut stream)?;
    let (out, report) = stream.finish()?;

    let dicts: Vec<_> = at.columns.into_iter().map(|c| c.dict.map(|d| d.into_values())).collect();
    let groups: Vec<_> = (args.group_by.iter().zip(&at.group))
        .map(|(name, &i)| (name.as_str(), dicts[i].as_deref()))
        .collect();
    let tuples = tuples.map(|t| t.into_values());
    let names: Vec<&str> = args.aggs.iter().map(|(.., name)| name.as_str()).collect();
    let mut rendered = render::render(&out, &groups, tuples.as_deref(), &names);
    if args.explain {
        rendered.push('\n');
        rendered.push_str(&report.explain());
    }
    Ok(CliRun { rendered, report })
}

/// The index of `x` in `v`, appended if it is not there yet.
fn index_of(v: &mut Vec<usize>, x: usize) -> usize {
    v.iter().position(|&y| y == x).unwrap_or_else(|| {
        v.push(x);
        v.len() - 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CSV: &str = "country,city,amount\n\
                       de,berlin,10\n\
                       de,munich,20\n\
                       fr,paris,30\n\
                       de,berlin,40\n";

    fn args(argv: &[&str]) -> CliArgs {
        parse_args(argv.iter().map(|s| s.to_string())).expect("valid args")
    }

    #[test]
    fn end_to_end_grouped_sum() {
        let a = args(&["x.csv", "--group-by", "country", "--count", "--sum", "amount"]);
        let out = run_on_csv_text(CSV, &a).unwrap().rendered;
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("country"));
        assert!(lines[1].contains("de") && lines[1].contains('3') && lines[1].contains("70"));
        assert!(lines[2].contains("fr") && lines[2].contains("30"));
    }

    #[test]
    fn composite_group_with_strings() {
        let a = args(&["x.csv", "--group-by", "country,city", "--sum", "amount"]);
        let out = run_on_csv_text(CSV, &a).unwrap().rendered;
        assert!(out.contains("berlin"));
        assert!(out.contains("50")); // berlin: 10 + 40
    }

    #[test]
    fn distinct_only() {
        let a = args(&["x.csv", "--group-by", "city"]);
        let out = run_on_csv_text(CSV, &a).unwrap().rendered;
        assert_eq!(out.lines().count(), 4); // header + 3 cities
    }

    #[test]
    fn rejects_aggregating_string_column() {
        let a = args(&["x.csv", "--group-by", "country", "--sum", "city"]);
        let err = run_on_csv_text(CSV, &a).unwrap_err();
        assert!(err.to_string().contains("not numeric"), "{err}");
        assert_eq!(err.class, ErrorClass::InvalidInput);
    }

    #[test]
    fn rejects_unknown_column() {
        let a = args(&["x.csv", "--group-by", "nope"]);
        let err = run_on_csv_text(CSV, &a).unwrap_err();
        assert!(err.to_string().contains("no column named"), "{err}");
        assert_eq!(err.class, ErrorClass::InvalidInput);
    }

    #[test]
    fn explain_flag_appends_the_phase_tree() {
        let a = args(&["x.csv", "--group-by", "country", "--sum", "amount", "--explain"]);
        let run = run_on_csv_text(CSV, &a).unwrap();
        assert!(run.rendered.contains("rows 4 in → 2 groups out"), "{}", run.rendered);
        assert!(run.rendered.contains("query · wall"), "{}", run.rendered);
        assert!(run.rendered.contains("hash_insert"), "{}", run.rendered);
        assert!(run.rendered.contains("output"), "{}", run.rendered);
        // --explain implies deep metrics and a profile in the report;
        // tracing stays off.
        assert!(run.report.profile.is_some());
        assert!(run.report.trace_json.is_none());
        let json = run.report.to_json().to_string_compact();
        assert!(json.contains("\"profile\""), "{json}");
    }

    #[test]
    fn progress_flag_runs_the_sampler_without_touching_stdout() {
        let a = args(&["x.csv", "--group-by", "country", "--count", "--progress", "1"]);
        let run = run_on_csv_text(CSV, &a).unwrap();
        assert!(run.rendered.contains("de"), "{}", run.rendered);
        // Progress alone requests no deep metrics.
        assert!(run.report.metrics.is_none());
        assert!(run.report.profile.is_none());
    }

    #[test]
    fn mem_budget_failure_is_one_line() {
        let a = args(&["x.csv", "--group-by", "country", "--mem-budget", "1k"]);
        let err = run_on_csv_text(CSV, &a).unwrap_err();
        assert!(err.to_string().contains("memory budget exceeded"), "{err}");
        assert_eq!(err.to_string().lines().count(), 1, "{err}");
        assert_eq!(err.class, ErrorClass::Budget);
        assert_eq!(err.class.exit_code(), 2);
    }

    #[test]
    fn zero_timeout_cancels() {
        let a = args(&["x.csv", "--group-by", "country", "--timeout-ms", "0"]);
        let err = run_on_csv_text(CSV, &a).unwrap_err();
        assert!(err.to_string().contains("cancelled"), "{err}");
        assert_eq!(err.class, ErrorClass::Timeout);
        assert_eq!(err.class.exit_code(), 3);
    }

    #[test]
    fn generous_budget_and_timeout_run_normally() {
        let a = args(&[
            "x.csv",
            "--group-by",
            "country",
            "--sum",
            "amount",
            "--mem-budget",
            "1G",
            "--timeout-ms",
            "60000",
        ]);
        let out = run_on_csv_text(CSV, &a).unwrap().rendered;
        assert!(out.contains("70"), "{out}");
    }

    #[test]
    fn tiny_budget_with_spill_dir_completes_out_of_core() {
        let dir = std::env::temp_dir().join(format!("hsa-cli-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut csv = String::from("k,v\n");
        for i in 0..50_000u64 {
            let k = i.wrapping_mul(2654435761) % 20_000;
            csv.push_str(&format!("{k},{i}\n"));
        }

        let base = args(&["x.csv", "--group-by", "k", "--sum", "v"]);
        let unbudgeted = run_on_csv_text(&csv, &base).unwrap();

        let spill = dir.to_str().unwrap().to_string();
        let a = args(&[
            "x.csv",
            "--group-by",
            "k",
            "--sum",
            "v",
            "--mem-budget",
            "2M",
            "--spill-dir",
            &spill,
        ]);
        let run = run_on_csv_text(&csv, &a).unwrap();
        assert_eq!(run.rendered, unbudgeted.rendered, "spilled run must match in-memory result");
        assert!(run.report.stats.spilled_runs() > 0, "stats: {:?}", run.report.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_csv_is_one_line_error() {
        let a = args(&["x.csv", "--group-by", "k"]);
        let err = run_on_csv_text("a,b\n1\n", &a).unwrap_err();
        assert!(err.to_string().contains("fields"), "{err}");
        assert_eq!(err.to_string().lines().count(), 1, "{err}");
        assert_eq!(err.class, ErrorClass::InvalidInput);
        let err = run_on_csv_text("", &a).unwrap_err();
        assert!(err.to_string().contains("empty input"), "{err}");
    }

    #[test]
    fn spill_limit_exhaustion_is_a_budget_error() {
        let dir = std::env::temp_dir().join(format!("hsa-cli-disklimit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut csv = String::from("k,v\n");
        for i in 0..50_000u64 {
            let k = i.wrapping_mul(2654435761) % 20_000;
            csv.push_str(&format!("{k},{i}\n"));
        }
        let spill = dir.to_str().unwrap().to_string();
        // A spill limit too small for even one run: the degradation
        // ladder's last rung fails with a typed disk-budget error.
        let a = args(&[
            "x.csv",
            "--group-by",
            "k",
            "--sum",
            "v",
            "--mem-budget",
            "2M",
            "--spill-dir",
            &spill,
            "--spill-limit",
            "4k",
        ]);
        let err = run_on_csv_text(&csv, &a).unwrap_err();
        assert!(err.to_string().contains("spill disk budget exceeded"), "{err}");
        assert_eq!(err.class, ErrorClass::Budget);
        // No partial spill files may be left behind (the lock file is
        // retired when the store drops with the failed query).
        let leftover = std::fs::read_dir(&dir)
            .map(|d| {
                d.flatten()
                    .filter(|e| e.file_name().to_str().is_some_and(|n| n.ends_with(".bin")))
                    .count()
            })
            .unwrap_or(0);
        assert_eq!(leftover, 0, "no spill files may survive a failed query");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generous_spill_limit_still_completes_out_of_core() {
        let dir = std::env::temp_dir().join(format!("hsa-cli-disklim-ok-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut csv = String::from("k,v\n");
        for i in 0..50_000u64 {
            let k = i.wrapping_mul(2654435761) % 20_000;
            csv.push_str(&format!("{k},{i}\n"));
        }
        let base = args(&["x.csv", "--group-by", "k", "--sum", "v"]);
        let unbudgeted = run_on_csv_text(&csv, &base).unwrap();
        let spill = dir.to_str().unwrap().to_string();
        let a = args(&[
            "x.csv",
            "--group-by",
            "k",
            "--sum",
            "v",
            "--mem-budget",
            "2M",
            "--spill-dir",
            &spill,
            "--spill-limit",
            "256M",
        ]);
        let run = run_on_csv_text(&csv, &a).unwrap();
        assert_eq!(run.rendered, unbudgeted.rendered, "bounded spill must match in-memory");
        assert!(run.report.stats.spilled_runs() > 0);
        assert!(run.report.stats.disk_high_water_bytes > 0, "{:?}", run.report.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_and_trace_are_valid_json() {
        use hashing_is_sorting::obs::json;
        let a = args(&[
            "x.csv",
            "--group-by",
            "country",
            "--count",
            "--stats-json",
            "r.json",
            "--trace",
            "t.json",
        ]);
        let run = run_on_csv_text(CSV, &a).unwrap();
        // No report text on stdout unless --explain was given...
        assert!(!run.rendered.contains("groups out"));
        // ...but both artifacts are present and valid JSON.
        let report = json::parse(&run.report.to_json().to_string_pretty(2)).unwrap();
        assert_eq!(report.get("rows_in").unwrap().as_u64(), Some(4));
        assert_eq!(report.get("groups_out").unwrap().as_u64(), Some(2));
        assert!(report.get("metrics").is_some());
        let trace = json::parse(run.report.trace_json.as_ref().unwrap()).unwrap();
        assert!(!trace.get("traceEvents").unwrap().as_array().unwrap().is_empty());
    }
}
