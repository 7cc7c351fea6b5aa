//! A minimal RFC-4180-ish CSV record reader (comma separator, `"` quoting
//! with `""` escapes, `\n` / `\r\n` records). Dependency-free on purpose.
//!
//! [`Records`] reads any [`BufRead`] and holds one record at a time in
//! reused buffers. The grammar, byte for byte: an unquoted `\r` is dropped
//! wherever it stands, a record of nothing but `\r` is skipped, a `"`
//! opens a quoted span anywhere in a field (`""` inside one is a literal
//! quote), and a quoted `\n` or `\r` stays in its field.

use std::fmt;
use std::io::{self, BufRead};

/// CSV parse failure.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum CsvError {
    /// A quoted field was still open at end of input.
    UnterminatedQuote {
        /// 1-based line where the field started.
        line: usize,
    },
    /// A record has a different number of fields than the header.
    RaggedRow {
        /// 1-based record number.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected (header width).
        expected: usize,
    },
    /// Input had no header row.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::UnterminatedQuote { line } => {
                write!(f, "unterminated quoted field starting on line {line}")
            }
            CsvError::RaggedRow { line, got, expected } => {
                write!(f, "line {line}: {got} fields, header has {expected}")
            }
            CsvError::Empty => write!(f, "empty input (no header row)"),
        }
    }
}

/// Outside a quoted span, inside one, or inside one just after a `"` (a
/// second `"` is a literal quote, any other byte closes the span).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Quote {
    #[default]
    Out,
    In,
    Closing,
}

/// Reads CSV records one at a time from a byte source.
pub(crate) struct Records<R> {
    src: R,
    st: State,
}

/// The reader's position in the grammar and the record it is building.
#[derive(Default)]
struct State {
    /// The record's field bytes back to back, and each field's end.
    bytes: Vec<u8>,
    ends: Vec<usize>,
    quote: Quote,
    /// Whether the record has a byte other than an unquoted `\r`.
    any: bool,
    /// 1-based line of the next byte and of the last opening quote.
    line: usize,
    quote_line: usize,
    records: usize,
    /// The verdict so far when checking UTF-8, and the bytes of `bytes`
    /// checked. The bytes between two grammar bytes are checked as one
    /// span: the grammar bytes are ASCII, so the input is UTF-8 exactly
    /// when every such span is.
    utf8: Option<bool>,
    checked: usize,
}

impl<R: BufRead> Records<R> {
    /// A reader over `src`; with `check_utf8`, [`Records::is_utf8`] tells
    /// whether every byte read was UTF-8.
    pub(crate) fn new(src: R, check_utf8: bool) -> Self {
        let st = State { line: 1, utf8: check_utf8.then_some(true), ..State::default() };
        Self { src, st }
    }

    /// Read the next record, whatever its width; `Ok(false)` at end of
    /// input, where [`Records::open_quote`] tells if a quote was left open.
    pub(crate) fn next_record(&mut self) -> io::Result<bool> {
        let st = &mut self.st;
        st.bytes.clear();
        st.ends.clear();
        st.checked = 0;
        loop {
            let chunk = match self.src.fill_buf() {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                chunk => chunk?,
            };
            if chunk.is_empty() {
                st.check_span();
                if st.quote == Quote::In || !std::mem::take(&mut st.any) {
                    return Ok(false);
                }
                st.ends.push(st.bytes.len());
                st.records += 1;
                return Ok(true);
            }
            let (used, done) = st.scan(chunk);
            self.src.consume(used);
            if done {
                st.records += 1;
                return Ok(true);
            }
        }
    }

    /// After the last record: the line a still-open quoted field began on.
    pub(crate) fn open_quote(&self) -> Option<usize> {
        (self.st.quote == Quote::In).then_some(self.st.quote_line)
    }

    /// Fields of the current record.
    pub(crate) fn len(&self) -> usize {
        self.st.ends.len()
    }

    /// Field `i` of the current record.
    pub(crate) fn field(&self, i: usize) -> &[u8] {
        let ends = &self.st.ends;
        &self.st.bytes[if i == 0 { 0 } else { ends[i - 1] }..ends[i]]
    }

    /// 1-based number of the current record (the header is 1).
    pub(crate) fn number(&self) -> usize {
        self.st.records
    }

    /// Whether every byte read so far was UTF-8 (true when not checked).
    pub(crate) fn is_utf8(&self) -> bool {
        self.st.utf8 != Some(false)
    }
}

impl State {
    /// Check the span of field bytes since the last grammar byte.
    fn check_span(&mut self) {
        if let Some(ok) = &mut self.utf8 {
            *ok &= std::str::from_utf8(&self.bytes[self.checked..]).is_ok();
            self.checked = self.bytes.len();
        }
    }

    /// Run the grammar over `chunk` up to the end of a record. Returns the
    /// bytes consumed and whether a record ended.
    fn scan(&mut self, chunk: &[u8]) -> (usize, bool) {
        let mut i = 0;
        while i < chunk.len() {
            let rest = &chunk[i..];
            if self.quote == Quote::In {
                // Up to the next quote; newlines stay and count lines.
                let run = rest.iter().position(|&b| b == b'"').unwrap_or(rest.len());
                self.line += rest[..run].iter().filter(|&&b| b == b'\n').count();
                self.bytes.extend_from_slice(&rest[..run]);
                i += run;
                if i < chunk.len() {
                    self.check_span();
                    self.quote = Quote::Closing;
                    i += 1;
                }
                continue;
            }
            if self.quote == Quote::Closing && rest[0] == b'"' {
                self.bytes.push(b'"');
                self.quote = Quote::In;
                i += 1;
                continue;
            }
            self.quote = Quote::Out;
            let run = rest.iter().position(|&b| matches!(b, b'"' | b',' | b'\r' | b'\n'));
            let run = run.unwrap_or(rest.len());
            if run > 0 {
                self.bytes.extend_from_slice(&rest[..run]);
                self.any = true;
                i += run;
                continue;
            }
            self.check_span();
            i += 1;
            match rest[0] {
                b'"' => (self.quote, self.quote_line, self.any) = (Quote::In, self.line, true),
                b',' => {
                    self.ends.push(self.bytes.len());
                    self.any = true;
                }
                b'\n' => {
                    self.line += 1;
                    if std::mem::take(&mut self.any) {
                        self.ends.push(self.bytes.len());
                        return (i, true);
                    }
                }
                _ => {} // an unquoted `\r` is dropped
            }
        }
        (i, false)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every record of `text` as strings, the header first, each record
    /// checked against the header's width (the reader's consumers do the
    /// same); `chunk` bytes reach the reader per read.
    pub(crate) fn parse_in(text: &str, chunk: usize) -> Result<Vec<Vec<String>>, CsvError> {
        let mut r = Records::new(io::BufReader::with_capacity(chunk, text.as_bytes()), true);
        let mut out: Vec<Vec<String>> = Vec::new();
        let mut ragged = None;
        while r.next_record().expect("a slice cannot fail") {
            let rec: Vec<String> =
                (0..r.len()).map(|i| String::from_utf8(r.field(i).to_vec()).unwrap()).collect();
            if let Some(header) = out.first() {
                if rec.len() != header.len() && ragged.is_none() {
                    let (got, expected) = (rec.len(), header.len());
                    ragged = Some(CsvError::RaggedRow { line: r.number(), got, expected });
                }
            }
            out.push(rec);
        }
        if let Some(line) = r.open_quote() {
            return Err(CsvError::UnterminatedQuote { line });
        }
        assert!(r.is_utf8());
        match (out.is_empty(), ragged) {
            (true, _) => Err(CsvError::Empty),
            (false, Some(e)) => Err(e),
            (false, None) => Ok(out),
        }
    }

    /// [`parse_in`] at one byte per read and at one read for the whole
    /// text, which must agree.
    pub(crate) fn parse(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
        let whole = parse_in(text, text.len().max(1));
        assert_eq!(parse_in(text, 1), whole, "chunking changed the records of {text:?}");
        whole
    }

    #[test]
    fn simple_rows() {
        let r = parse("a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(r, vec![vec!["a", "b"], vec!["1", "2"], vec!["3", "4"]]);
    }

    #[test]
    fn no_trailing_newline() {
        let r = parse("a,b\n1,2").unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[1], vec!["1", "2"]);
    }

    #[test]
    fn crlf_and_empty_fields() {
        let r = parse("a,b,c\r\n1,,3\r\n").unwrap();
        assert_eq!(r[1], vec!["1", "", "3"]);
    }

    #[test]
    fn quoted_fields_with_commas_newlines_and_escapes() {
        let r = parse("a,b\n\"x,y\",\"line1\nline2\"\n\"he said \"\"hi\"\"\",2\n").unwrap();
        assert_eq!(r[1], vec!["x,y", "line1\nline2"]);
        assert_eq!(r[2], vec!["he said \"hi\"", "2"]);
    }

    #[test]
    fn ragged_row_is_an_error() {
        let err = parse("a,b\n1\n").unwrap_err();
        assert_eq!(err, CsvError::RaggedRow { line: 2, got: 1, expected: 2 });
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = parse("a\n\"oops\n").unwrap_err();
        assert!(matches!(err, CsvError::UnterminatedQuote { .. }));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(parse(""), Err(CsvError::Empty));
    }

    #[test]
    fn single_header_only() {
        let r = parse("a,b\n").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn carriage_returns_blank_records_and_quotes_mid_field() {
        // An unquoted \r goes wherever it stands; a quoted one stays; a
        // record of nothing but \r is no record; a quote may open mid-field.
        let r = parse("a\r,b\n\r\n\r\nx\ry,\"p\rq\"\nab\"c,d\"e,\"\"\n").unwrap();
        assert_eq!(r, vec![vec!["a", "b"], vec!["xy", "p\rq"], vec!["abc,de", ""]]);
        // The unterminated quote names the line its field opened on.
        let err = parse("a\n\"x\"\n\"\n\n").unwrap_err();
        assert_eq!(err, CsvError::UnterminatedQuote { line: 3 });
    }

    #[test]
    fn utf8_is_checked_across_reads() {
        let check = |bytes: &[u8], chunk| {
            let mut r = Records::new(io::BufReader::with_capacity(chunk, bytes), true);
            while r.next_record().unwrap() {}
            r.is_utf8()
        };
        for chunk in [1, 2, 3, 64] {
            assert!(check("k\n\u{e9}\u{20ac}\u{1f600}\n".as_bytes(), chunk), "{chunk}");
            assert!(!check(b"k\n\xc3,\xa9\n", chunk), "{chunk}");
            assert!(!check(b"k\n\xe2\x82\n", chunk), "a cut sequence at the end, {chunk}");
        }
    }
}
