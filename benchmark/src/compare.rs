//! `compare <a.json> <b.json>`: two results files of the all-workloads run,
//! judged against the bounds `BENCHMARK.json` fixes. Per end-to-end metric
//! and workload: both medians, the relative change, and a verdict —
//! `worse` when B's median is worse than A's by more than the bound,
//! `unresolved` when either side's quartile spread is wider than the
//! bound (unless every run of B reads better than every run of A), `ok`
//! otherwise. Exits non-zero on any `worse`.

use crate::host;
use crate::spec::{Better, Bounded, Contract};
use crate::stats::{median, quartile_spread, sort};
use hashing_is_sorting::obs::json::{parse, JsonValue};
use std::path::PathBuf;

pub fn contract_path() -> PathBuf {
    host::bench_dir().join("../BENCHMARK.json")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judge sorted samples `a` (before) and `b` (after) of one metric.
/// Returns the relative worsening of the median (positive = worse) and
/// the verdict.
pub fn judge(metric: &Bounded, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worsening = match metric.metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = |s: &[f64]| quartile_spread(s).unwrap_or(0.0);
    let all_better = match metric.metric.better {
        Better::Lower => b.last() < a.first(),
        Better::Higher => b.first() > a.last(),
    };
    let verdict = if worsening > metric.bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > metric.bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

/// `workload → metric → sorted values` of one results file.
fn load(path: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("comparable") != Some(&JsonValue::Bool(true)) {
        return Err(format!("{path} is a smoke run: its numbers are not comparable"));
    }
    let workloads = doc.get("workloads").and_then(JsonValue::as_array).ok_or("no workloads")?;
    workloads
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(JsonValue::as_str).ok_or("workload without name")?;
            let metrics = w.get("end_to_end").cloned().ok_or("workload without end_to_end")?;
            Ok((name.to_string(), metrics))
        })
        .collect()
}

fn values(metrics: &JsonValue, name: &str) -> Vec<f64> {
    let list = metrics.get(name).and_then(|m| m.get("values")).and_then(JsonValue::as_array);
    let mut v: Vec<f64> = list.unwrap_or(&[]).iter().filter_map(JsonValue::as_f64).collect();
    sort(&mut v);
    v
}

pub fn report(contract: &Contract, a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound"
    );
    for (workload, a_metrics) in &a {
        let Some((_, b_metrics)) = b.iter().find(|(name, _)| name == workload) else {
            return Err(format!("{b_path} has no workload {workload}"));
        };
        for metric in &contract.end_to_end {
            let (va, vb) =
                (values(a_metrics, metric.metric.name), values(b_metrics, metric.metric.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{} is missing from one file", metric.metric.name));
            }
            let (worsening, verdict) = judge(metric, &va, &vb);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<12} {:<14} {:>14.4} {:>14.4} {:>+8.2}% {:>5.0}%  {} (n={}/{})",
                metric.metric.name,
                median(&va),
                median(&vb),
                worsening * 100.0,
                metric.bound * 100.0,
                format!("{verdict:?}").to_lowercase(),
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(!any_worse)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".into());
    };
    let contract = Contract::load(&contract_path())?;
    report(&contract, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MetricDef;

    fn lower(bound: f64) -> Bounded {
        let metric = MetricDef { name: "row_ns", unit: "ns/row", better: Better::Lower };
        Bounded { metric, bound }
    }

    #[test]
    fn verdicts() {
        let steady_a = [10.0, 10.1, 10.2];
        // 3 % slower under a 10 % bound.
        assert_eq!(judge(&lower(0.10), &steady_a, &[10.3, 10.4, 10.5]).1, Verdict::Ok);
        // 20 % slower.
        let (by, verdict) = judge(&lower(0.10), &steady_a, &[12.0, 12.1, 12.2]);
        assert_eq!(verdict, Verdict::Worse);
        assert!((by - 2.0 / 10.1).abs() < 1e-9);
        // Medians agree but A's runs scatter by more than the bound.
        let noisy_a = [8.0, 10.0, 12.5];
        assert_eq!(judge(&lower(0.10), &noisy_a, &[9.9, 10.0, 10.1]).1, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(judge(&lower(0.10), &noisy_a, &[7.0, 7.1, 7.2]).1, Verdict::Ok);
        // Single runs have no spread to judge by.
        assert_eq!(judge(&lower(0.10), &[10.0], &[10.5]).1, Verdict::Ok);
    }

    #[test]
    fn direction_is_respected() {
        let metric = MetricDef { name: "rows_per_s", unit: "rows/s", better: Better::Higher };
        let higher = Bounded { metric, bound: 0.1 };
        assert_eq!(judge(&higher, &[100.0], &[80.0]).1, Verdict::Worse);
        assert_eq!(judge(&higher, &[100.0], &[120.0]).1, Verdict::Ok);
        assert_eq!(judge(&lower(0.1), &[100.0], &[80.0]).1, Verdict::Ok);
    }
}
