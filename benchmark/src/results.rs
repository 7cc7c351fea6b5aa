//! Output: the table and the contract's result line of one run, and the
//! all-workloads run that gathers child runs into `out/results.json`.

use crate::ledger::Metric;
use crate::runner::Outcome;
use crate::spec::{unit_of, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::median_of;
use crate::workloads::WORKLOADS;
use crate::{host, RunArgs};
use hashing_is_sorting::obs::json::{parse, JsonValue};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Every metric by name, with its unit and sample count.
pub fn table(metrics: &[Metric]) -> String {
    let mut text = String::new();
    for m in metrics {
        let _ =
            writeln!(text, "{:<34} {:>16.6} {:<10} n={}", m.name, m.value, unit_of(m.name), m.n);
    }
    text
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(outcome: &Outcome) -> JsonValue {
    let metrics = outcome.metrics.iter().map(|m| {
        let entry = [("value", JsonValue::F64(m.value)), ("unit", JsonValue::str(unit_of(m.name)))];
        (m.name, JsonValue::obj(entry))
    });
    JsonValue::obj([
        ("correct", JsonValue::Bool(outcome.correct)),
        ("attempted", JsonValue::U64(outcome.attempted)),
        ("failed", JsonValue::U64(outcome.failed)),
        ("metrics", JsonValue::obj(metrics)),
    ])
}

/// What the all-workloads run keeps of one child's result line.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

fn read_contract_line(line: &str) -> Result<ChildRun, String> {
    let doc = parse(line).map_err(|e| format!("unreadable result line: {e}"))?;
    let JsonValue::Object(metrics) = doc.get("metrics").ok_or("result without metrics")? else {
        return Err("metrics is not an object".into());
    };
    let values = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(JsonValue::as_f64);
            value.map(|v| (name.clone(), v)).ok_or(format!("{name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildRun {
        correct: doc.get("correct") == Some(&JsonValue::Bool(true)),
        attempted: doc.get("attempted").and_then(JsonValue::as_u64).ok_or("no attempted")?,
        failed: doc.get("failed").and_then(JsonValue::as_u64).ok_or("no failed")?,
        values,
    })
}

/// Run one workload once in a child process and read its result line.
/// The child is always waited for; its stderr passes through.
fn child_run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let run = read_contract_line(last).map_err(|e| format!("{name} ({}): {e}", output.status))?;
    if !output.status.success() && run.correct {
        return Err(format!("the {name} child reported success but exited with {}", output.status));
    }
    Ok(run)
}

/// One metric's value in each run that reported it.
fn values_of(runs: &[ChildRun], name: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.values.iter().find(|(n, _)| n == name)).map(|(_, v)| *v).collect()
}

/// The values of one metric table over a workload's runs.
fn values_json(table: &[MetricDef], runs: &[ChildRun]) -> JsonValue {
    let entries = table.iter().filter(|_| !runs.is_empty()).map(|def| {
        let values = values_of(runs, def.name).into_iter().map(JsonValue::F64).collect();
        let entry = [("unit", JsonValue::str(def.unit)), ("values", JsonValue::Array(values))];
        (def.name, JsonValue::obj(entry))
    });
    JsonValue::obj(entries)
}

/// Every workload, `--runs` untraced runs each (seeds `seed`, `seed+1`, …)
/// and with `--traced` one traced run, each in its own child process.
/// Prints the medians, writes `results.json`; `Ok(false)` on any failure.
pub fn run_all(args: &RunArgs, seconds: f64, out_dir: &Path) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let untraced = (0..args.runs)
            .map(|r| child_run(w.name, args.seed.wrapping_add(r), seconds, false, args.smoke))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = match args.traced {
            true => vec![child_run(w.name, args.seed, seconds, true, args.smoke)?],
            false => Vec::new(),
        };
        let sum = |f: fn(&ChildRun) -> u64| untraced.iter().chain(&traced).map(f).sum::<u64>();
        let correct = untraced.iter().chain(&traced).all(|r| r.correct);
        all_correct &= correct;
        println!("# {} — {} run(s), window {seconds} s", w.name, args.runs);
        for (table, runs) in [(END_TO_END, &untraced), (PER_LAYER, &traced)] {
            for def in table.iter().filter(|_| !runs.is_empty()) {
                let values = values_of(runs, def.name);
                let n = values.len();
                println!("{:<34} {:>16.6} {:<10} runs={n}", def.name, median_of(values), def.unit);
            }
        }
        println!("failed_share {} of {} queries", sum(|r| r.failed), sum(|r| r.attempted));
        workloads.push(JsonValue::obj([
            ("name", JsonValue::str(w.name)),
            ("correct", JsonValue::Bool(correct)),
            ("attempted", JsonValue::U64(sum(|r| r.attempted))),
            ("failed", JsonValue::U64(sum(|r| r.failed))),
            ("end_to_end", values_json(END_TO_END, &untraced)),
            ("per_layer", values_json(PER_LAYER, &traced)),
        ]));
    }
    let doc = JsonValue::obj([
        // A smoke run checks structure and correctness only.
        ("comparable", JsonValue::Bool(!args.smoke)),
        ("host", host::facts(args.seed)),
        ("window_seconds", JsonValue::F64(seconds)),
        ("runs", JsonValue::U64(args.runs)),
        ("workloads", JsonValue::Array(workloads)),
    ]);
    let path = out_dir.join("results.json");
    std::fs::write(&path, doc.to_string_pretty(2))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "# wrote {}{}",
        path.display(),
        if args.smoke { " (smoke: not comparable)" } else { "" }
    );
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::metric;

    fn outcome() -> Outcome {
        Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![metric("row_ns", 12.062_500_000_000_002, 400), metric("setup_s", 0.5, 5)],
        }
    }

    #[test]
    fn the_result_line_round_trips_through_the_repos_parser() {
        let line = contract_line(&outcome()).to_string_compact();
        assert!(!line.contains('\n'));
        let run = read_contract_line(&line).unwrap();
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (1000, 0));
        assert_eq!(run.values[0], ("row_ns".to_string(), 12.062_500_000_000_002));
        let doc = parse(&line).unwrap();
        let unit = doc.get("metrics").unwrap().get("row_ns").unwrap().get("unit").unwrap();
        assert_eq!(unit.as_str(), Some("ns/row"));
    }

    #[test]
    fn results_json_round_trips_with_every_value() {
        let runs = vec![
            read_contract_line(&contract_line(&outcome()).to_string_compact()).unwrap(),
            read_contract_line(&contract_line(&outcome()).to_string_compact()).unwrap(),
        ];
        let doc = values_json(END_TO_END, &runs).to_string_pretty(2);
        let back = parse(&doc).unwrap();
        let row_ns = back.get("row_ns").unwrap();
        assert_eq!(row_ns.get("unit").unwrap().as_str(), Some("ns/row"));
        let values = row_ns.get("values").unwrap().as_array().unwrap();
        assert_eq!(values.len(), 2);
        assert_eq!(values[1].as_f64(), Some(12.062_500_000_000_002));
        // A metric no run reported keeps its place with no values.
        assert_eq!(
            back.get("peak_rss_mib").unwrap().get("values").unwrap().as_array().unwrap().len(),
            0
        );
    }

    #[test]
    fn a_failed_child_is_read_as_incorrect() {
        let failed = Outcome { correct: false, failed: 3, ..outcome() };
        let run = read_contract_line(&contract_line(&failed).to_string_compact()).unwrap();
        assert!(!run.correct);
        assert_eq!(run.failed, 3);
        assert!(read_contract_line("error: nothing").is_err());
    }

    #[test]
    fn the_table_names_every_metric_with_unit_and_n() {
        let text = table(&outcome().metrics);
        assert!(text.contains("row_ns") && text.contains("ns/row") && text.contains("n=400"));
        assert_eq!(text.lines().count(), 2);
    }
}
