//! The metric tables: every name the harness prints, with its unit and
//! direction. `BENCHMARK.json` at the repo root restates them (plus the
//! regression bounds) for the driver; a test keeps the two in step, and
//! `compare` reads the bounds from that file.

use hashing_is_sorting::obs::json::{parse, JsonValue};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the system sees; reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("row_ns", "ns/row"),
    higher("rows_per_s", "rows/s"),
    lower("peak_rss_mib", "MiB"),
];

/// The per-layer ledger; reported by every traced run, 0 where a layer
/// does no work on the workload (or a percentile lacks samples).
pub const PER_LAYER: &[MetricDef] = &[
    lower("hash.murmur2_ns_per_row", "ns/row"),
    lower("hashtbl.insert_ns_per_row", "ns/row"),
    lower("hashtbl.seal_ns_per_row", "ns/row"),
    higher("hashtbl.alpha", "ratio"),
    lower("kernels.fold_ns_per_row", "ns/row"),
    lower("partition.pass_ns_per_row", "ns/row"),
    lower("core.phase.hash_insert_share", "share"),
    lower("core.phase.seal_share", "share"),
    lower("core.phase.partition_share", "share"),
    lower("core.phase.grow_merge_share", "share"),
    lower("core.phase.spill_share", "share"),
    lower("core.phase.restore_share", "share"),
    lower("core.phase.output_share", "share"),
    lower("core.phase.driver_share", "share"),
    higher("core.phase.coverage", "share"),
    lower("core.hash_insert_vs_replay", "ratio"),
    lower("core.partition_vs_replay", "ratio"),
    lower("core.stream.new_us", "us"),
    lower("core.stream.push_ns_per_row", "ns/row"),
    lower("core.stream.finish_ns_per_row", "ns/row"),
    higher("core.hash_rows_share", "share"),
    lower("core.seals", "count"),
    lower("core.levels_used", "count"),
    lower("core.switches", "count"),
    higher("columnar.store.write_mib_s", "MiB/s"),
    higher("columnar.store.read_mib_s", "MiB/s"),
    higher("columnar.crc32c_gib_s", "GiB/s"),
    lower("columnar.store.spilled_mib", "MiB"),
    lower("columnar.store.restored_mib", "MiB"),
    lower("columnar.store.spilled_runs", "count"),
    lower("columnar.store.encoded_ratio", "ratio"),
    higher("columnar.store.overlap_share", "share"),
    lower("fault.budget_high_water_mib", "MiB"),
    lower("fault.budget_denials", "count"),
    lower("fault.reserve_ns", "ns"),
    lower("fault.admit_ns", "ns"),
    lower("tasks.scope_us", "us"),
    lower("tasks.spawn_ns", "ns"),
    higher("tasks.steals", "count"),
    lower("tasks.idle_share", "share"),
    lower("obs.json.parse_ns_per_row", "ns/row"),
    lower("obs.json.write_ns_per_row", "ns/row"),
    lower("cli.serve.submit_us", "us"),
    lower("cli.serve.rows_ns_per_row", "ns/row"),
    lower("cli.serve.finish_ms", "ms"),
    lower("cli.serve.first_block_ms", "ms"),
    lower("cli.serve.query_p95_ms", "ms"),
    lower("cli.serve.query_p99_ms", "ms"),
    lower("xmem.model_lines_per_row", "lines/row"),
    lower("datagen.generate_ns_per_row", "ns/row"),
    lower("bench.trace_overhead_share", "share"),
    lower("bench.calib_ns", "ns"),
    lower("bench.row_ns_p10", "ns/row"),
    higher("bench.door_span_coverage", "share"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the tables"))
        .unit
}

/// One `end_to_end` entry of `BENCHMARK.json`: a metric of the tables
/// above and the share by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct Bounded {
    pub metric: MetricDef,
    pub bound: f64,
}

/// What `compare` and the all-workloads run need from `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Contract {
    pub run_seconds: u64,
    pub end_to_end: Vec<Bounded>,
}

impl Contract {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
    }

    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let run_seconds =
            doc.get("run_seconds").and_then(JsonValue::as_u64).ok_or("missing run_seconds")?;
        let listed =
            doc.get("end_to_end").and_then(JsonValue::as_array).ok_or("missing end_to_end")?;
        let mut end_to_end = Vec::new();
        for m in listed {
            let name = m.get("name").and_then(JsonValue::as_str).ok_or("metric without name")?;
            let bound = m.get("bound").and_then(JsonValue::as_f64).ok_or("metric without bound")?;
            let metric = END_TO_END
                .iter()
                .find(|def| def.name == name)
                .ok_or(format!("{name} is not an end-to-end metric of this harness"))?;
            end_to_end.push(Bounded { metric: *metric, bound });
        }
        Ok(Self { run_seconds, end_to_end })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn valid(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// A contract name: starts with a letter or digit; at most 64 letters,
    /// digits, `_`, `.` and `-`.
    fn valid_name(s: &str) -> bool {
        valid(s, 64, "_.-") && s.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// A contract unit: at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
    fn valid_unit(s: &str) -> bool {
        valid(s, 16, "_/%.-")
    }

    fn committed() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn every_name_and_unit_is_contract_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let workload_names = WORKLOADS.iter().map(|w| w.name);
        for name in END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).chain(workload_names) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(m.unit), "{} has unit {:?}", m.name, m.unit);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("core.phase.hash_insert_share") && valid_name("2x-y_z"));
        assert!(
            !valid_name("") && !valid_name(".hidden") && !valid_name("a b") && !valid_name("a/b")
        );
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("ns/row") && valid_unit("%") && !valid_unit("rows per s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_restates_the_tables() {
        let doc = committed();
        let list = |key: &str| doc.get(key).unwrap().as_array().unwrap();
        let text = |v: &JsonValue, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();
        let direction = |b: Better| if b == Better::Lower { "lower" } else { "higher" };

        assert_eq!(list("workloads").len(), WORKLOADS.len());
        for (have, want) in list("workloads").iter().zip(WORKLOADS) {
            assert_eq!(text(have, "name"), want.name);
            assert_eq!(text(have, "why"), want.why);
            assert!(want.why.len() <= 200 && !want.why.contains('\n'), "{}", want.name);
        }
        let contract = Contract::from_json(&doc).unwrap();
        assert_eq!(contract.end_to_end.len(), END_TO_END.len());
        for ((have, want), bounded) in
            list("end_to_end").iter().zip(END_TO_END).zip(&contract.end_to_end)
        {
            assert_eq!(
                (text(have, "name"), text(have, "unit")),
                (want.name.into(), want.unit.into())
            );
            assert_eq!(text(have, "better"), direction(want.better), "{}", want.name);
            assert!(bounded.bound > 0.0 && bounded.bound <= 0.25, "{}", want.name);
        }
        assert_eq!(list("per_layer").len(), PER_LAYER.len());
        for (have, want) in list("per_layer").iter().zip(PER_LAYER) {
            assert_eq!(
                (text(have, "name"), text(have, "unit")),
                (want.name.into(), want.unit.into())
            );
            assert_eq!(text(have, "better"), direction(want.better), "{}", want.name);
        }
        assert_eq!(list("paths"), &[JsonValue::str("benchmark")]);
        assert!((1..=60).contains(&contract.run_seconds));
    }
}
