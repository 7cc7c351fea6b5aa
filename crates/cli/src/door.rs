//! The CSV door: one input read twice, the second time into an
//! [`AggStream`].
//!
//! Pass 1 ([`scan`]) reads the whole input and keeps the header and, per
//! referenced column, whether every value parses as `u64` (`str::trim`
//! then `parse`): such a column is numeric, any other is grouped by
//! dictionary codes. Like a parser that reads everything before it
//! checks, it reports a fault only at end of input, so of two faults the
//! same one wins however far apart they are. Pass 2 ([`feed`]) reads the
//! input again and encodes the referenced fields into reused `u64` chunks
//! of `threads × morsel_rows` rows, one [`AggStream::push`] each. String
//! values, and the values of a multi-column `GROUP BY` as one byte
//! string, are coded in order of first appearance, so the codes are the
//! whole file's whatever the chunking.

use crate::csv::{CsvError, Records};
use crate::dictionary::Dictionary;
use crate::{CliError, ErrorClass};
use hsa_core::AggStream;
use std::io::BufRead;

/// What pass 1 learned: the header, and per column whether it is numeric
/// (false for the columns the query does not name).
pub(crate) struct Schema {
    pub(crate) header: Vec<String>,
    pub(crate) numeric: Vec<bool>,
}

/// `field` as `str::trim().parse::<u64>()` reads it.
fn number(field: &[u8]) -> Option<u64> {
    // 19 plain digits cannot overflow: the common case needs no trim.
    if (1..=19).contains(&field.len()) && field.iter().all(u8::is_ascii_digit) {
        return Some(field.iter().fold(0, |n, &d| n * 10 + u64::from(d - b'0')));
    }
    std::str::from_utf8(field).ok()?.trim().parse().ok()
}

/// The I/O error of reading input `name`.
pub(crate) fn cannot_read(name: &str, e: impl std::fmt::Display) -> CliError {
    CliError::new(ErrorClass::Io, format!("cannot read {name}: {e}"))
}

/// Pass 1 over input `name`: validate every record and type the columns
/// named in `refs`.
pub(crate) fn scan(name: &str, src: impl BufRead, refs: &[&str]) -> Result<Schema, CliError> {
    let mut records = Records::new(src, true);
    let (mut header, mut numeric, mut ragged) = (None::<Vec<String>>, Vec::new(), None);
    while records.next_record().map_err(|e| cannot_read(name, e))? {
        let Some(header) = &header else {
            let field = |i| String::from_utf8_lossy(records.field(i)).into_owned();
            let names: Vec<String> = (0..records.len()).map(field).collect();
            numeric = names.iter().map(|n| refs.contains(&n.as_str())).collect();
            header = Some(names);
            continue;
        };
        let (got, expected) = (records.len(), header.len());
        if got != expected {
            let line = records.number();
            ragged = ragged.or(Some(CsvError::RaggedRow { line, got, expected }));
            continue;
        }
        for (c, numeric) in numeric.iter_mut().enumerate().filter(|(_, n)| **n) {
            *numeric = number(records.field(c)).is_some();
        }
    }
    // The input is read as text first: bytes that are not UTF-8 fail it
    // before any record is looked at.
    if !records.is_utf8() {
        return Err(cannot_read(name, "stream did not contain valid UTF-8"));
    }
    let header = match (records.open_quote(), header, ragged) {
        (Some(line), ..) => return Err(CliError::invalid(CsvError::UnterminatedQuote { line })),
        (None, None, _) => return Err(CliError::invalid(CsvError::Empty)),
        (None, Some(_), Some(e)) => return Err(CliError::invalid(e)),
        (None, Some(header), None) => header,
    };
    for (i, column) in header.iter().enumerate() {
        if column.is_empty() {
            return Err(CliError::invalid("empty column name in header"));
        }
        if header[..i].contains(column) {
            return Err(CliError::invalid(format!("duplicate column name {column:?}")));
        }
    }
    Ok(Schema { header, numeric })
}

/// One referenced column as pass 2 encodes it: its index in the header,
/// and the dictionary of a string column (`None` for a numeric one).
pub(crate) struct Column {
    pub(crate) field: usize,
    pub(crate) dict: Option<Dictionary>,
}

/// Pass 2's walk: each record after the header, its `columns` encoded
/// into one value each, handed to `each`. A record pass 1 did not see
/// (another width, a numeric field that no longer parses) means the
/// input changed between the passes: an I/O error.
fn encode_rows(
    name: &str,
    src: impl BufRead,
    width: usize,
    columns: &mut [Column],
    mut each: impl FnMut(&[u64]) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let changed = || cannot_read(name, "the input changed between its two passes");
    let mut records = Records::new(src, false);
    let mut row = vec![0; columns.len()];
    while records.next_record().map_err(|e| cannot_read(name, e))? {
        if records.len() != width {
            return Err(changed());
        }
        if records.number() == 1 {
            continue;
        }
        for (v, col) in row.iter_mut().zip(columns.iter_mut()) {
            let field = records.field(col.field);
            *v = match &mut col.dict {
                Some(dict) => dict.encode(field),
                None => number(field).ok_or_else(changed)?,
            };
        }
        each(&row)?;
    }
    records.open_quote().map_or(Ok(()), |_| Err(changed()))
}

/// What pass 2 reads: the input's `width`, the referenced `columns`, and
/// the positions among them of the `GROUP BY` columns and of the spec
/// inputs, in order.
pub(crate) struct Layout {
    pub(crate) width: usize,
    pub(crate) columns: Vec<Column>,
    pub(crate) group: Vec<usize>,
    pub(crate) inputs: Vec<usize>,
}

/// Pass 2: the rows of `src` into `stream`, `chunk` rows per push. The
/// keys are the group column's values, or with several group columns the
/// codes of the tuple dictionary this returns.
pub(crate) fn feed(
    name: &str,
    src: impl BufRead,
    layout: &mut Layout,
    chunk: usize,
    stream: &mut AggStream,
) -> Result<Option<Dictionary>, CliError> {
    let Layout { width, columns, group, inputs } = layout;
    let (mut keys, mut cols) = (Vec::new(), vec![Vec::new(); inputs.len()]);
    let mut tuples = (group.len() > 1).then(Dictionary::default);
    let mut tuple = Vec::with_capacity(8 * group.len());
    let mut push = |keys: &mut Vec<u64>, cols: &mut [Vec<u64>]| -> Result<(), CliError> {
        stream.push(keys, &cols.iter().map(Vec::as_slice).collect::<Vec<_>>())?;
        keys.clear();
        cols.iter_mut().for_each(Vec::clear);
        Ok(())
    };
    encode_rows(name, src, *width, columns, |row| {
        if keys.len() == chunk {
            push(&mut keys, &mut cols)?;
        }
        keys.push(match &mut tuples {
            None => row[group[0]],
            Some(dict) => {
                // The tuple as its values' bytes; `render` decodes them.
                tuple.clear();
                group.iter().for_each(|&g| tuple.extend(row[g].to_be_bytes()));
                dict.encode(&tuple)
            }
        });
        cols.iter_mut().zip(&*inputs).for_each(|(col, &i)| col.push(row[i]));
        Ok(())
    })?;
    push(&mut keys, &mut cols)?;
    Ok(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One column of a CSV: its name, its values or codes, and the
    /// dictionary's values of a string column.
    type Loaded = (String, Vec<u64>, Option<Vec<Box<[u8]>>>);

    fn load(text: &str) -> Result<Vec<Loaded>, CliError> {
        let names: Vec<String> =
            text.lines().next().unwrap_or("").split(',').map(String::from).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let schema = scan("t", text.as_bytes(), &refs)?;
        let width = schema.header.len();
        let dict = |c: usize| (!schema.numeric[c]).then(Dictionary::default);
        let mut columns: Vec<Column> =
            (0..width).map(|c| Column { field: c, dict: dict(c) }).collect();
        let mut values = vec![Vec::new(); width];
        encode_rows("t", text.as_bytes(), width, &mut columns, |row| {
            values.iter_mut().zip(row).for_each(|(v, &x)| v.push(x));
            Ok(())
        })?;
        let dicts = columns.into_iter().map(|c| c.dict.map(Dictionary::into_values));
        Ok(schema.header.into_iter().zip(values).zip(dicts).map(|((n, v), d)| (n, v, d)).collect())
    }

    fn col<'a>(t: &'a [Loaded], name: &str) -> &'a Loaded {
        t.iter().find(|(n, ..)| n == name).unwrap()
    }

    #[test]
    fn numeric_and_string_columns() {
        let t = load("id,name\n1,ann\n2,bob\n3,ann\n").unwrap();
        assert_eq!(col(&t, "id").1, [1, 2, 3]);
        assert_eq!(col(&t, "name").1, [0, 1, 0]);
        assert!(col(&t, "id").2.is_none());
        assert_eq!(&col(&t, "name").2.as_ref().unwrap()[1][..], b"bob");
    }

    #[test]
    fn mixed_values_force_dictionary() {
        let t = load("v\n1\nx\n2\n").unwrap();
        assert!(col(&t, "v").2.is_some());
        assert_eq!(col(&t, "v").1, [0, 1, 2]);
    }

    #[test]
    fn whitespace_tolerant_numerics() {
        let t = load("v\n 1 \n2\n").unwrap();
        assert!(col(&t, "v").2.is_none());
        assert_eq!(col(&t, "v").1, [1, 2]);
    }

    #[test]
    fn header_only_gives_empty_table() {
        let t = load("a,b\n").unwrap();
        assert!(t.iter().all(|(_, v, _)| v.is_empty()));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duplicate_header_rejected() {
        let err = load("a,a\n1,2\n").unwrap_err();
        assert_eq!(err, CliError::invalid("duplicate column name \"a\""));
    }

    #[test]
    fn empty_header_name_rejected() {
        let err = load("a,\n1,2\n").unwrap_err();
        assert_eq!(err, CliError::invalid("empty column name in header"));
    }

    #[test]
    fn numbers_read_as_trim_then_parse() {
        for field in ["0", "007", "+5", " 12\t", "18446744073709551615", "\u{a0}3"] {
            assert_eq!(number(field.as_bytes()), field.trim().parse().ok(), "{field:?}");
        }
        for field in ["", "-1", "1 2", "18446744073709551616", "99999999999999999999", "x"] {
            assert_eq!(number(field.as_bytes()), None, "{field:?}");
        }
    }

    #[test]
    fn an_open_quote_wins_over_an_earlier_ragged_record() {
        // A ragged record before an unterminated quote: the quote wins,
        // as it did when the whole file was parsed before any check.
        let Err(err) = scan("t", "a,b\n1\n\"x\n".as_bytes(), &[]) else { panic!() };
        assert!(err.message.contains("unterminated"), "{err}");
        // Bytes that are not UTF-8 win over both.
        let Err(err) = scan("t", &b"a,b\n1\n\xff,\"\n"[..], &[]) else { panic!() };
        assert_eq!(
            (err.class, err.message.as_str()),
            (ErrorClass::Io, "cannot read t: stream did not contain valid UTF-8")
        );
    }

    #[test]
    fn an_input_that_changes_between_the_passes_is_an_io_error() {
        let schema = scan("t", "k,v\n1,2\n".as_bytes(), &["k"]).unwrap();
        assert_eq!(schema.numeric, [true, false]);
        for changed in ["k\n1\n", "k,v\nx,2\n", "k,v\n1,\"2\n"] {
            let mut columns = [Column { field: 0, dict: None }];
            let result = encode_rows("t", changed.as_bytes(), 2, &mut columns, |_| Ok(()));
            let expected = "cannot read t: the input changed between its two passes";
            assert_eq!(result, Err(CliError::new(ErrorClass::Io, expected)), "{changed:?}");
        }
    }
}
