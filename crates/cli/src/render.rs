//! The result as an aligned text table: one row per group, sorted by its
//! `GROUP BY` tuple (a string column by its dictionary code, so in order
//! of first appearance), every cell right-aligned to its column's widest.

use hsa_agg::Finalizer;
use hsa_core::GroupByOutput;
use std::borrow::Cow;
use std::fmt::Write;

type Values = [Box<[u8]>];

/// Render `out` under the `GROUP BY` columns — each a name, and for a
/// string column the dictionary values its codes index — and the
/// aggregate `names`, one per spec. With several group columns, `tuples`
/// holds each key's values as big-endian bytes.
pub(crate) fn render(
    out: &GroupByOutput,
    groups: &[(&str, Option<&Values>)],
    tuples: Option<&Values>,
    names: &[&str],
) -> String {
    let g = groups.len();
    // The group values of row r: `values[r * g..][..g]`.
    let values: Cow<'_, [u64]> = match tuples {
        None => Cow::Borrowed(&out.keys),
        Some(tuples) => {
            let bytes = out.keys.iter().flat_map(|&k| tuples[k as usize].chunks_exact(8));
            bytes.map(|b| u64::from_be_bytes(b.try_into().unwrap_or_default())).collect()
        }
    };
    let mut order: Vec<usize> = (0..out.n_groups()).collect();
    order.sort_unstable_by(|&a, &b| values[a * g..][..g].cmp(&values[b * g..][..g]));

    // Write cell `c` of the header (`None`) or of group row `r`, padded
    // to `w`; writing into a `String` cannot fail.
    let put = |text: &mut String, r: Option<usize>, c: usize, w: usize| {
        let _ = match (r, groups.get(c)) {
            (None, Some((name, _))) => write!(text, "{name:>w$}"),
            (None, None) => write!(text, "{:>w$}", names[c - g]),
            (Some(r), Some((_, None))) => write!(text, "{:>w$}", values[r * g + c]),
            (Some(r), Some((_, Some(dict)))) => {
                let s = std::str::from_utf8(&dict[values[r * g + c] as usize]).unwrap_or("<?>");
                write!(text, "{s:>w$}")
            }
            (Some(r), None) => match out.plan().finalizers[c - g] {
                // COUNT, SUM, MIN and MAX exact; AVG to three decimals.
                Finalizer::State(i) => write!(text, "{:>w$}", out.states[i][r]),
                Finalizer::Ratio { sum, count } => {
                    let (s, k) = (out.states[sum][r], out.states[count][r]);
                    write!(text, "{:>w$.3}", if k == 0 { f64::NAN } else { s as f64 / k as f64 })
                }
            },
        };
    };
    let rows = || std::iter::once(None).chain(order.iter().map(|&r| Some(r)));
    let (mut widths, mut text) = (vec![0; g + names.len()], String::new());
    for r in rows() {
        for (c, w) in widths.iter_mut().enumerate() {
            text.clear();
            put(&mut text, r, c, 0);
            *w = (*w).max(text.len());
        }
    }
    text.clear();
    for r in rows() {
        for (c, &w) in widths.iter().enumerate() {
            if c > 0 {
                text.push_str("  ");
            }
            put(&mut text, r, c, w);
        }
        text.push('\n');
    }
    text
}
