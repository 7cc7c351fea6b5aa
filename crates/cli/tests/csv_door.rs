//! The CSV door against an oracle: seeded, generated CSVs run through the
//! `hsa` binary, each stdout compared byte for byte with the table a
//! `BTreeMap` oracle renders from the generator's own values.
//!
//! The generator writes numeric, string and mixed columns, one to three
//! of them grouped; quoted fields holding `,`, `""`, `\r` and newlines;
//! CRLF line ends and blank lines; row counts below, at and above one
//! push chunk (`threads × morsel_rows`, 65 536 rows per thread). The
//! oracle knows the door's contract: a column is numeric when every value
//! passes `trim().parse::<u64>()`, any other column is coded in order of
//! first appearance, rows come sorted by their tuple of values and codes,
//! and COUNT/SUM/MIN/MAX print exact. Malformed inputs must fail with
//! their one-line error and exit class, and of two faults the one a
//! whole-file parse meets first is reported.

use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Output, Stdio};

/// One push chunk at one thread: `morsel_rows`.
const MORSEL: usize = 1 << 16;

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
enum Kind {
    /// Numbers, some padded with spaces or quoted.
    Num,
    /// Strings that need quoting as often as not.
    Str,
    /// Numbers with the odd string among them: coded, like a string.
    Mixed,
}

/// Strings to draw from (each gets a digit appended): quoted commas,
/// quotes, newlines and a `\r`, non-ASCII text, and an empty string and
/// a number that end up numbers.
const WORDS: [&str; 10] =
    ["plain", "a,b", "say \"hi\"", "two\nlines", "cr\rin", "münchen", "東京", "", "x y", "17"];

/// One field: the text the CSV holds and the value it reads back as.
fn field(kind: Kind, rng: &mut Rng, k: u64) -> (String, String) {
    let number = match kind {
        Kind::Num => true,
        Kind::Mixed => rng.below(50) != 0,
        Kind::Str => false,
    };
    if number {
        let v = rng.below(k).to_string();
        return match (kind, rng.below(8)) {
            (Kind::Num, 0) => (format!(" {v} "), format!(" {v} ")),
            (Kind::Num, 1) => (format!("\"{v}\""), v),
            _ => (v.clone(), v),
        };
    }
    let word = WORDS[rng.below(WORDS.len() as u64) as usize];
    let word = format!("{word}{}", rng.below(k.min(7)));
    let quoted = word.contains([',', '"', '\n', '\r']) || rng.below(4) == 0;
    let text = if quoted { format!("\"{}\"", word.replace('"', "\"\"")) } else { word.clone() };
    (text, word)
}

struct Case {
    seed: u64,
    rows: usize,
    groups: Vec<Kind>,
    /// Distinct values per group column.
    k: u64,
    aggs: &'static [&'static str],
    threads: usize,
    crlf: bool,
    /// Values of the aggregated column up to this bound.
    v_max: u64,
}

/// Per group: COUNT, wrapping SUM, MIN, MAX.
type Acc = (u64, u64, u64, u64);

/// The CSV text and the table `hsa` must print for it.
fn generate(c: &Case) -> (String, String) {
    let mut rng = Rng(c.seed);
    let eol = if c.crlf { "\r\n" } else { "\n" };
    let names: Vec<String> = (0..c.groups.len()).map(|i| format!("g{i}")).collect();
    let mut csv = format!("{},v{eol}", names.join(","));
    // What each group column's fields read back as.
    let mut columns: Vec<Vec<String>> = vec![Vec::new(); c.groups.len()];
    let mut vs = Vec::with_capacity(c.rows);
    for _ in 0..c.rows {
        for (col, &kind) in columns.iter_mut().zip(&c.groups) {
            let (text, value) = field(kind, &mut rng, c.k);
            csv.push_str(&text);
            csv.push(',');
            col.push(value);
        }
        let v = rng.below(c.v_max);
        vs.push(v);
        csv.push_str(&v.to_string());
        csv.push_str(eol);
        if rng.below(5000) == 0 {
            csv.push_str(if rng.below(2) == 0 { "\n" } else { "\r\n" });
        }
    }
    // Per row and group column: the sort key (the number of a numeric
    // column, else the code of first appearance) and the cell shown.
    let keys: Vec<Vec<(u64, String)>> = columns
        .iter()
        .map(|col| {
            let number = |s: &String| s.trim().parse::<u64>().ok();
            let numeric = col.iter().all(|s| number(s).is_some());
            let mut codes: BTreeMap<&str, u64> = BTreeMap::new();
            col.iter()
                .map(|s| match number(s).filter(|_| numeric) {
                    Some(v) => (v, v.to_string()),
                    None => {
                        let next = codes.len() as u64;
                        (*codes.entry(s.as_str()).or_insert(next), s.clone())
                    }
                })
                .collect()
        })
        .collect();
    let mut groups: BTreeMap<Vec<u64>, (Vec<String>, Acc)> = BTreeMap::new();
    for (r, &v) in vs.iter().enumerate() {
        let tuple: Vec<u64> = keys.iter().map(|col| col[r].0).collect();
        let shown = || keys.iter().map(|col| col[r].1.clone()).collect();
        let (_, acc) = groups.entry(tuple).or_insert_with(|| (shown(), (0, 0, u64::MAX, 0)));
        *acc = (acc.0 + 1, acc.1.wrapping_add(v), acc.2.min(v), acc.3.max(v));
    }
    let mut table: Vec<Vec<String>> = vec![names.clone()];
    table[0].extend(c.aggs.iter().map(|a| {
        if *a == "count" {
            "count".into()
        } else {
            format!("{a}(v)")
        }
    }));
    for (cells, (count, sum, min, max)) in groups.into_values() {
        let mut row = cells;
        row.extend(c.aggs.iter().map(|a| match *a {
            "count" => count.to_string(),
            "sum" => sum.to_string(),
            "min" => min.to_string(),
            "max" => max.to_string(),
            _ => format!("{:.3}", sum as f64 / count as f64),
        }));
        table.push(row);
    }
    let mut widths = vec![0; table[0].len()];
    for row in &table {
        widths.iter_mut().zip(row).for_each(|(w, cell)| *w = (*w).max(cell.len()));
    }
    let mut out = String::new();
    for row in &table {
        let cells: Vec<String> =
            row.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}")).collect();
        out.push_str(&cells.join("  "));
        out.push('\n');
    }
    (csv, out)
}

fn hsa(args: &[&str], stdin: Option<&[u8]>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hsa"));
    cmd.args(args).stdin(if stdin.is_some() { Stdio::piped() } else { Stdio::null() });
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("spawn hsa");
    if let Some(bytes) = stdin {
        child.stdin.take().expect("piped stdin").write_all(bytes).expect("feed stdin");
    }
    child.wait_with_output().expect("wait for hsa")
}

/// Write `bytes` to a file of this test's own.
fn temp_csv(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("hsa-door-{tag}-{}.csv", std::process::id()));
    std::fs::write(&path, bytes).expect("write the CSV");
    path
}

/// Run `case` from a file, or through a pipe when `piped`, and hold
/// stdout to the oracle.
fn check(tag: &str, case: &Case, piped: bool) {
    let (csv, expected) = generate(case);
    let path = (!piped).then(|| temp_csv(tag, csv.as_bytes()));
    let file = path.as_ref().map_or("/dev/stdin".into(), |p| p.display().to_string());
    let group = (0..case.groups.len()).map(|i| format!("g{i}")).collect::<Vec<_>>().join(",");
    let mut args =
        vec![file, "--group-by".into(), group, "--threads".into(), case.threads.to_string()];
    for agg in case.aggs {
        args.push(format!("--{agg}"));
        if *agg != "count" {
            args.push("v".into());
        }
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = hsa(&args, piped.then_some(csv.as_bytes()));
    if let Some(path) = path {
        let _ = std::fs::remove_file(path);
    }
    assert!(out.status.success(), "{tag}: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    if got != expected {
        let first = got.lines().zip(expected.lines()).position(|(a, b)| a != b);
        panic!(
            "{tag}: stdout differs from the oracle at line {first:?} of {}",
            expected.lines().count()
        );
    }
}

const ALL: &[&str] = &["count", "sum", "min", "max", "avg"];

#[test]
fn numeric_keys_around_one_push_chunk() {
    for (i, threads) in [1, 2].into_iter().enumerate() {
        let chunk = threads * MORSEL;
        for rows in [chunk - 1, chunk, chunk + 1] {
            let case = Case {
                seed: rows as u64 + i as u64,
                rows,
                groups: vec![Kind::Num],
                k: 5000,
                aggs: ALL,
                threads,
                crlf: false,
                v_max: 1 << 40,
            };
            check(&format!("num-{threads}-{rows}"), &case, false);
        }
    }
}

#[test]
fn string_and_mixed_keys_quoted_crlf_and_blank_lines() {
    let base = |seed, groups: Vec<Kind>, threads, crlf| Case {
        seed,
        rows: 20_000,
        groups,
        k: 40,
        aggs: ALL,
        threads,
        crlf,
        v_max: 1000,
    };
    check("str", &base(1, vec![Kind::Str], 1, true), false);
    check("mixed", &base(2, vec![Kind::Mixed], 2, false), false);
    check("str-num", &base(3, vec![Kind::Str, Kind::Num], 2, true), false);
    check("three", &base(4, vec![Kind::Num, Kind::Mixed, Kind::Str], 1, false), false);
    check("distinct", &Case { aggs: &[], ..base(5, vec![Kind::Str, Kind::Str], 2, true) }, false);
}

#[test]
fn composite_keys_above_one_push_chunk_through_a_pipe() {
    let case = Case {
        seed: 9,
        rows: 2 * MORSEL + 7,
        groups: vec![Kind::Num, Kind::Num],
        k: 300,
        aggs: &["avg", "count", "max"],
        threads: 2,
        crlf: true,
        v_max: u64::MAX,
    };
    check("pipe", &case, true);
}

#[test]
fn small_inputs_and_exact_values_above_two_to_the_53() {
    for (seed, rows) in [(10, 0), (11, 1), (12, 1000)] {
        let case = Case {
            seed,
            rows,
            groups: vec![Kind::Num, Kind::Str],
            k: 3,
            aggs: &["sum", "min", "max"],
            threads: 1,
            crlf: false,
            v_max: u64::MAX,
        };
        check(&format!("small-{rows}"), &case, false);
    }
}

/// Malformed input: `hsa` fails with exactly `stderr` and exit `code`.
fn fails(tag: &str, bytes: &[u8], stderr: &str, code: i32) {
    let path = temp_csv(tag, bytes);
    let out = hsa(&[path.to_str().expect("a UTF-8 temp path"), "--group-by", "k"], None);
    let _ = std::fs::remove_file(&path);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    let err = err.replace(path.to_str().unwrap_or_default(), "<csv>");
    assert_eq!((err.as_str(), out.status.code()), (stderr, Some(code)), "{tag}");
    assert!(out.stdout.is_empty(), "{tag}");
}

#[test]
fn malformed_inputs_keep_their_error_and_exit_class() {
    let invalid = |detail: &str| format!("error: invalid-input: {detail}\n");
    fails("ragged", b"k,v\n1,2\n3\n", &invalid("line 3: 1 fields, header has 2"), 5);
    let quote = invalid("unterminated quoted field starting on line 2");
    fails("quote", b"k,v\n1,\"2\n3,4\n", &quote, 5);
    fails("empty", b"", &invalid("empty input (no header row)"), 5);
    fails("blank", b"\r\n\n", &invalid("empty input (no header row)"), 5);
    fails("empty-name", b"k,\n1,2\n", &invalid("empty column name in header"), 5);
    fails("duplicate", b"k,k\n1,2\n", &invalid("duplicate column name \"k\""), 5);
    let utf8 = "error: io: cannot read <csv>: stream did not contain valid UTF-8\n";
    fails("utf8", b"k,v\n1,\xc3\"\xa9\"\n", utf8, 4);
}

#[test]
fn of_two_faults_the_whole_file_parse_reports_the_same_one() {
    // A ragged record, then far beyond one read an unterminated quote:
    // the quote is reported, as when the whole file was parsed first.
    let mut csv = String::from("k,v\n1\n");
    (0..50_000).for_each(|i| csv.push_str(&format!("{i},{i}\n")));
    csv.push_str("\"open,1\n");
    let quote = "error: invalid-input: unterminated quoted field starting on line 50003\n";
    fails("ragged-then-quote", csv.as_bytes(), quote, 5);
    // A ragged record and a duplicate header name: the record wins.
    let ragged = "error: invalid-input: line 3: 1 fields, header has 2\n";
    fails("dup-then-ragged", b"k,k\n1,2\n3\n", ragged, 5);
    // Bytes that are not UTF-8 win over both.
    let utf8 = "error: io: cannot read <csv>: stream did not contain valid UTF-8\n";
    fails("ragged-then-utf8", b"k,v\n1\n\xff,2\n\"x\n", utf8, 4);
}
