//! Hand-rolled argument parsing (no CLI dependency).

use hsa_core::{AdaptiveParams, AggregateConfig, Strategy};
use std::fmt;

/// Invalid command line.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// CSV input path.
    pub file: String,
    /// Grouping columns, in order.
    pub group_by: Vec<String>,
    /// Aggregates: `(function, input column, output name)`; COUNT uses an
    /// empty input column string.
    pub aggs: Vec<(String, String, String)>,
    /// Operator configuration.
    pub config: AggregateConfig,
    /// Print the run report (the counters, then the EXPLAIN ANALYZE phase
    /// tree) after the result.
    pub explain: bool,
    /// Emit a live progress heartbeat to stderr every this many
    /// milliseconds (`--progress <ms>`).
    pub progress_ms: Option<u64>,
    /// Write the machine-readable run report (JSON) to this path.
    pub stats_json: Option<String>,
    /// Write a Chrome trace (load in Perfetto / `chrome://tracing`) to
    /// this path.
    pub trace: Option<String>,
    /// Cap on operator working memory in bytes (`--mem-budget`).
    pub mem_budget: Option<u64>,
    /// Wall-clock deadline for the aggregation in milliseconds
    /// (`--timeout-ms`).
    pub timeout_ms: Option<u64>,
    /// Spill directory for out-of-core aggregation (`--spill-dir`): runs
    /// that do not fit the budget are flushed here instead of failing.
    pub spill_dir: Option<String>,
    /// Byte cap for the spill directory (`--spill-limit`): spill writes
    /// beyond this degrade into a typed disk-budget error instead of
    /// filling the disk.
    pub spill_limit: Option<u64>,
}

impl CliArgs {
    /// Whether any form of deep observability was requested.
    pub fn wants_metrics(&self) -> bool {
        self.stats_json.is_some() || self.explain
    }
}

/// Usage text shown by `hsa --help`.
pub const USAGE: &str = "\
usage: hsa <file.csv> --group-by <col>[,<col>...] [aggregates] [options]
       hsa serve --listen <addr> [serve options]   (see hsa serve --help)

aggregates (repeatable):
  --count [NAME]          COUNT(*)
  --sum <col> [NAME]      SUM(col)
  --min <col> [NAME]      MIN(col)
  --max <col> [NAME]      MAX(col)
  --avg <col> [NAME]      AVG(col)

options:
  --threads <n>           worker threads (default: all cores)
  --strategy <s>          adaptive | hashing | partition:<passes>
  --mem-budget <size>     cap operator working memory (bytes; K/M/G
                          suffixes accepted, e.g. 512M)
  --timeout-ms <n>        abort after <n> milliseconds, counted (as the
                          report's wall time is) from the second pass over
                          the CSV, which streams its rows into the operator
  --spill-dir <path>      out-of-core aggregation: runs that do not fit
                          --mem-budget are flushed to files under <path>
                          instead of failing the query
  --spill-limit <size>    cap the bytes the spill directory may hold
                          (K/M/G suffixes accepted); exceeding it fails
                          the query with a disk-budget error (exit 2)
                          instead of filling the disk
  --explain               print the run report: rows, seals, switches,
                          spill, pool and histogram counters, then the
                          EXPLAIN ANALYZE operator tree (per level and
                          phase: exclusive time, % of wall clock, rows
                          in/out, the observed reduction factor alpha)
  --progress <ms>         emit a live heartbeat line to stderr every <ms>
                          milliseconds (rows/s, current phases, budget
                          usage) from a background sampler thread
  --stats-json <path>     write the run report as JSON to <path>
  --trace <path>          write a Chrome trace of the task timeline to
                          <path>: a span per timed phase call and an
                          instant per operator event, one lane per
                          worker (open with Perfetto or chrome://tracing)
  --help                  this text

With no aggregates the query is SELECT DISTINCT over the group columns.";

fn is_flag(s: &str) -> bool {
    s.starts_with("--")
}

/// Consume the next argument as a flag value.
fn take_value<I: Iterator<Item = String>>(
    args: &mut std::iter::Peekable<I>,
    flag: &str,
) -> Result<String, UsageError> {
    match args.next() {
        Some(v) if !is_flag(&v) => Ok(v),
        _ => Err(UsageError(format!("{flag} needs a value"))),
    }
}

/// Consume the next argument as an optional output name.
fn optional_name<I: Iterator<Item = String>>(
    args: &mut std::iter::Peekable<I>,
    default: String,
) -> String {
    match args.peek() {
        Some(v) if !is_flag(v) => args.next().unwrap_or(default),
        _ => default,
    }
}

/// Parse an argument vector (without the program name).
pub fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<CliArgs, UsageError> {
    let mut args = argv.into_iter().peekable();
    let mut file = None;
    let mut group_by = Vec::new();
    let mut aggs: Vec<(String, String, String)> = Vec::new();
    let mut config = AggregateConfig::default();
    let mut explain = false;
    let mut progress_ms = None;
    let mut stats_json = None;
    let mut trace = None;
    let mut mem_budget = None;
    let mut timeout_ms = None;
    let mut spill_dir = None;
    let mut spill_limit = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(UsageError(USAGE.to_string())),
            "--group-by" => {
                let v = take_value(&mut args, "--group-by")?;
                group_by.extend(v.split(',').map(str::trim).map(String::from));
            }
            "--count" => {
                let name = optional_name(&mut args, "count".to_string());
                aggs.push(("count".into(), String::new(), name));
            }
            "--sum" | "--min" | "--max" | "--avg" => {
                let func = arg.trim_start_matches("--").to_string();
                let col = take_value(&mut args, &arg)?;
                let name = optional_name(&mut args, format!("{func}({col})"));
                aggs.push((func, col, name));
            }
            "--threads" => {
                let v = take_value(&mut args, "--threads")?;
                config.threads =
                    v.parse().map_err(|_| UsageError(format!("bad thread count {v:?}")))?;
            }
            "--strategy" => {
                let v = take_value(&mut args, "--strategy")?;
                config.strategy = parse_strategy(&v)?;
            }
            "--explain" => explain = true,
            "--progress" => {
                let v = take_value(&mut args, "--progress")?;
                let ms: u64 =
                    v.parse().map_err(|_| UsageError(format!("bad progress interval {v:?}")))?;
                if ms == 0 {
                    return Err(UsageError("--progress must be at least 1 ms".into()));
                }
                progress_ms = Some(ms);
            }
            "--stats-json" => stats_json = Some(take_value(&mut args, "--stats-json")?),
            "--trace" => trace = Some(take_value(&mut args, "--trace")?),
            "--mem-budget" => {
                let v = take_value(&mut args, "--mem-budget")?;
                mem_budget = Some(parse_size(&v)?);
            }
            "--timeout-ms" => {
                let v = take_value(&mut args, "--timeout-ms")?;
                timeout_ms = Some(v.parse().map_err(|_| UsageError(format!("bad timeout {v:?}")))?);
            }
            "--spill-dir" => spill_dir = Some(take_value(&mut args, "--spill-dir")?),
            "--spill-limit" => {
                let v = take_value(&mut args, "--spill-limit")?;
                spill_limit = Some(parse_size(&v)?);
            }
            other if is_flag(other) => {
                return Err(UsageError(format!("unknown option {other:?}")));
            }
            _ => {
                if file.replace(arg).is_some() {
                    return Err(UsageError("more than one input file".into()));
                }
            }
        }
    }

    let file = file.ok_or_else(|| UsageError("missing input file".into()))?;
    if group_by.is_empty() {
        return Err(UsageError("missing --group-by".into()));
    }
    Ok(CliArgs {
        file,
        group_by,
        aggs,
        config,
        explain,
        progress_ms,
        stats_json,
        trace,
        mem_budget,
        timeout_ms,
        spill_dir,
        spill_limit,
    })
}

/// Parse a byte size with an optional `K`/`M`/`G` suffix (powers of 1024).
pub(crate) fn parse_size(s: &str) -> Result<u64, UsageError> {
    let bad = || UsageError(format!("bad size {s:?} (expected bytes with optional K/M/G suffix)"));
    let (digits, shift) = match s.as_bytes().last() {
        Some(b'k' | b'K') => (&s[..s.len() - 1], 10),
        Some(b'm' | b'M') => (&s[..s.len() - 1], 20),
        Some(b'g' | b'G') => (&s[..s.len() - 1], 30),
        Some(_) => (s, 0),
        None => return Err(bad()),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    n.checked_shl(shift).filter(|v| v >> shift == n).ok_or_else(bad)
}

fn parse_strategy(s: &str) -> Result<Strategy, UsageError> {
    match s {
        "adaptive" => Ok(Strategy::Adaptive(AdaptiveParams::default())),
        "hashing" => Ok(Strategy::HashingOnly),
        other => {
            if let Some(passes) = other.strip_prefix("partition:") {
                let passes = passes
                    .parse()
                    .map_err(|_| UsageError(format!("bad pass count in {other:?}")))?;
                Ok(Strategy::PartitionAlways { passes })
            } else {
                Err(UsageError(format!(
                    "unknown strategy {other:?} (adaptive | hashing | partition:<n>)"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<CliArgs, UsageError> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn full_invocation() {
        let a = parse(&[
            "data.csv",
            "--group-by",
            "country,city",
            "--count",
            "orders",
            "--sum",
            "amount",
            "--avg",
            "amount",
            "revenue_avg",
            "--threads",
            "3",
            "--strategy",
            "partition:2",
            "--explain",
        ])
        .unwrap();
        assert_eq!(a.file, "data.csv");
        assert_eq!(a.group_by, vec!["country", "city"]);
        assert_eq!(
            a.aggs,
            vec![
                ("count".into(), "".into(), "orders".into()),
                ("sum".into(), "amount".into(), "sum(amount)".into()),
                ("avg".into(), "amount".into(), "revenue_avg".into()),
            ]
        );
        assert_eq!(a.config.threads, 3);
        assert_eq!(a.config.strategy, Strategy::PartitionAlways { passes: 2 });
        assert!(a.explain);
    }

    #[test]
    fn defaults() {
        let a = parse(&["f.csv", "--group-by", "k"]).unwrap();
        assert!(a.aggs.is_empty());
        assert!(!a.explain);
        assert!(matches!(a.config.strategy, Strategy::Adaptive(_)));
    }

    #[test]
    fn count_without_name() {
        let a = parse(&["f.csv", "--group-by", "k", "--count", "--explain"]).unwrap();
        assert_eq!(a.aggs[0].2, "count");
        assert!(a.explain);
    }

    #[test]
    fn missing_file_and_group_by() {
        assert!(parse(&["--group-by", "k"]).unwrap_err().0.contains("input file"));
        assert!(parse(&["f.csv"]).unwrap_err().0.contains("--group-by"));
    }

    #[test]
    fn value_flags_require_values() {
        assert!(parse(&["f.csv", "--group-by"]).is_err());
        assert!(parse(&["f.csv", "--group-by", "k", "--sum", "--explain"]).is_err());
    }

    #[test]
    fn bad_strategy_and_unknown_flag() {
        assert!(parse(&["f.csv", "--group-by", "k", "--strategy", "magic"]).is_err());
        assert!(parse(&["f.csv", "--group-by", "k", "--frobnicate"]).is_err());
    }

    #[test]
    fn kernel_flag_is_unknown() {
        // The kernel path is not a user-facing choice: the CLI always runs
        // the default and the flag is rejected like any other typo.
        let e = parse(&["f.csv", "--group-by", "k", "--kernel", "scalar"]).unwrap_err();
        assert!(e.0.contains("unknown option") && e.0.contains("--kernel"), "{e}");
        assert!(!USAGE.contains("--kernel"));
    }

    #[test]
    fn observability_flags() {
        let a = parse(&[
            "f.csv",
            "--group-by",
            "k",
            "--stats-json",
            "report.json",
            "--trace",
            "trace.json",
        ])
        .unwrap();
        assert_eq!(a.stats_json.as_deref(), Some("report.json"));
        assert_eq!(a.trace.as_deref(), Some("trace.json"));
        assert!(!a.explain);
        assert!(a.wants_metrics(), "--stats-json implies metrics collection");

        let b = parse(&["f.csv", "--group-by", "k"]).unwrap();
        assert!(!b.wants_metrics());
        assert!(b.trace.is_none());

        assert!(parse(&["f.csv", "--group-by", "k", "--stats-json"]).is_err());
        assert!(parse(&["f.csv", "--group-by", "k", "--trace", "--explain"]).is_err());
    }

    #[test]
    fn explain_and_progress_flags() {
        let a = parse(&["f.csv", "--group-by", "k", "--explain", "--progress", "250"]).unwrap();
        assert!(a.explain);
        assert_eq!(a.progress_ms, Some(250));
        assert!(a.wants_metrics(), "--explain implies metrics collection");

        let b = parse(&["f.csv", "--group-by", "k"]).unwrap();
        assert!(!b.explain);
        assert_eq!(b.progress_ms, None);

        assert!(parse(&["f.csv", "--group-by", "k", "--progress"]).is_err());
        assert!(parse(&["f.csv", "--group-by", "k", "--progress", "soon"]).is_err());
        let e = parse(&["f.csv", "--group-by", "k", "--progress", "0"]).unwrap_err();
        assert!(e.0.contains("at least 1"), "{e}");
    }

    #[test]
    fn robustness_flags() {
        let a =
            parse(&["f.csv", "--group-by", "k", "--mem-budget", "512M", "--timeout-ms", "2500"])
                .unwrap();
        assert_eq!(a.mem_budget, Some(512 << 20));
        assert_eq!(a.timeout_ms, Some(2500));

        let b = parse(&["f.csv", "--group-by", "k"]).unwrap();
        assert_eq!(b.mem_budget, None);
        assert_eq!(b.timeout_ms, None);
    }

    #[test]
    fn spill_flags() {
        let a = parse(&[
            "f.csv",
            "--group-by",
            "k",
            "--spill-dir",
            "/tmp/spill",
            "--spill-limit",
            "64M",
        ])
        .unwrap();
        assert_eq!(a.spill_dir.as_deref(), Some("/tmp/spill"));
        assert_eq!(a.spill_limit, Some(64 << 20));

        let b = parse(&["f.csv", "--group-by", "k"]).unwrap();
        assert_eq!(b.spill_dir, None);
        assert_eq!(b.spill_limit, None);

        assert!(parse(&["f.csv", "--group-by", "k", "--spill-dir"]).is_err());
        assert!(parse(&["f.csv", "--group-by", "k", "--spill-limit"]).is_err());
        assert!(parse(&["f.csv", "--group-by", "k", "--spill-limit", "lots"]).is_err());
        // The CSV reaches the operator in chunks of one morsel per
        // worker, a derived size, so there is no chunk size to choose.
        let e = parse(&["f.csv", "--group-by", "k", "--chunk-rows", "4096"]).unwrap_err();
        assert!(e.0.contains("unknown option"), "{e}");
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(parse_size("1024").unwrap(), 1024);
        assert_eq!(parse_size("64k").unwrap(), 64 << 10);
        assert_eq!(parse_size("2K").unwrap(), 2 << 10);
        assert_eq!(parse_size("3m").unwrap(), 3 << 20);
        assert_eq!(parse_size("1G").unwrap(), 1 << 30);
        assert!(parse_size("").is_err());
        assert!(parse_size("12q").is_err());
        assert!(parse_size("-5").is_err());
        assert!(parse_size("99999999999G").is_err()); // overflow
    }

    #[test]
    fn bad_robustness_values() {
        assert!(parse(&["f.csv", "--group-by", "k", "--mem-budget", "lots"]).is_err());
        assert!(parse(&["f.csv", "--group-by", "k", "--mem-budget"]).is_err());
        assert!(parse(&["f.csv", "--group-by", "k", "--timeout-ms", "soon"]).is_err());
    }

    #[test]
    fn two_files_rejected() {
        assert!(parse(&["a.csv", "b.csv", "--group-by", "k"]).is_err());
    }
}
