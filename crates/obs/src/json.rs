//! Dependency-free JSON: a value tree with a compact writer, plus a small
//! strict parser — one pull [`Reader`] that both the tree [`parse`]
//! (tests and tools validating emitted documents) and the typed request
//! decoder of `hsa serve` are built on.
//!
//! This is deliberately not a serde replacement: reports are built
//! explicitly as [`JsonValue`] trees and written with
//! [`JsonValue::write_compact`] or [`JsonValue::to_string_pretty`].
//! Numbers are kept in two lanes — `U64` for exact counters (row counts up
//! to 2⁶⁴ must not round-trip through `f64`) and `F64` for derived ratios.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A JSON document fragment.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Exact unsigned integer (counters, row counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point (ratios, seconds). Non-finite values serialize as
    /// `null`, matching what JSON can represent.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Array of exact integers.
    pub fn u64_array(vals: impl IntoIterator<Item = u64>) -> JsonValue {
        JsonValue::Array(vals.into_iter().map(JsonValue::U64).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::U64(v) => Some(v),
            JsonValue::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (accepts all number lanes).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::U64(v) => Some(v as f64),
            JsonValue::I64(v) => Some(v as f64),
            JsonValue::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Append the compact form to `out` (a caller's reusable buffer).
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Serialize with `indent`-space indentation.
    pub fn to_string_pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => push_u64(out, *v),
            JsonValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => {
                if v.is_finite() {
                    // Shortest representation that round-trips.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.iter(), |out, item, d| {
                    item.write(out, indent, d)
                });
            }
            JsonValue::Object(pairs) => {
                write_seq(out, indent, depth, '{', '}', pairs.iter(), |out, (k, v), d| {
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

/// Append `[v,v,…]`, the compact form of [`JsonValue::u64_array`], without
/// building the tree.
pub fn write_u64_array(
    out: &mut String,
    vals: impl IntoIterator<Item = u64, IntoIter: ExactSizeIterator>,
) {
    write_seq(out, None, 0, '[', ']', vals.into_iter(), |out, v, _| push_u64(out, v));
}

/// Decimal digits of `v`; result columns are millions of these, and the
/// `fmt` machinery costs several times the digits themselves.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document. Strict: the full input must be one
/// value plus trailing whitespace. Used by tests to assert that every
/// serializer in the workspace emits valid JSON.
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// Containers nested deeper than this are rejected: the reader recurses
/// per level, and a line of a hundred thousand `[` must not be able to
/// overflow the stack of the thread parsing it.
const MAX_DEPTH: u32 = 128;

/// Strict pull reader over one JSON document — the one lexer of this
/// module. [`parse`] builds its tree with it; a typed decoder calls the
/// same methods to land values where it wants them (a `u64` array
/// straight into a caller-owned `Vec<u64>`) without a [`JsonValue`] per
/// element.
///
/// Every value method consumes exactly one value, leading whitespace
/// included. The typed ones ([`Reader::str`], [`Reader::u64`],
/// [`Reader::u64_array`], [`Reader::object`], [`Reader::array`]) answer
/// `None`/`false` when the value is well-formed JSON of another type —
/// it is still consumed and validated — so the caller chooses between
/// ignoring and rejecting it, as `value.get(k).and_then(as_u64)` let it.
/// What [`parse`] rejects the reader rejects, with the same error.
///
/// Arrays of unsigned integers — [`Reader::u64_array`] and every array
/// [`Reader::value`] meets below the depth bound — are first read by one
/// scan that keeps its position in a register while the array is compact
/// (`[d,d,…,d]`, at most 19 digits a number, 20 bytes of text left). At
/// anything else it hands the number it stopped at to the
/// whitespace-tolerant loop, and an array that is not all plain integers
/// is re-read from its `[` by the general grammar, so the fast path
/// changes no answer and no error.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: u32,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0, depth: 0 }
    }

    /// End of document: only whitespace may remain.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing data"));
        }
        Ok(())
    }

    /// The next value as a tree.
    pub fn value(&mut self) -> Result<JsonValue, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", JsonValue::Null),
            Some(b't') => self.eat_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_lit("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b'[') => {
                let (start, mut items) = (self.pos, Vec::new());
                if self.plain_u64_array(|v| items.push(JsonValue::U64(v))) {
                    return Ok(JsonValue::Array(items));
                }
                self.pos = start;
                items.clear();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(JsonValue::Array(items))
            }
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|r, key| {
                    pairs.push((key.to_string(), r.value()?));
                    Ok(())
                })?;
                Ok(JsonValue::Object(pairs))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Consume and validate the next value without keeping it.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        self.value().map(drop)
    }

    /// Walk the members of an object, calling `member` with each key
    /// after its `:`; `member` must consume the member's value. Duplicate
    /// keys are rejected. `false` if the next value is not an object.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        let mut seen = BTreeSet::new();
        self.container(b'{', b'}', |r| {
            let key = r.string()?;
            if seen.contains(&key) {
                return Err(r.err(&format!("duplicate key {key:?}")));
            }
            r.skip_ws();
            r.eat(b':')?;
            member(r, &key)?;
            seen.insert(key);
            Ok(())
        })
    }

    /// Walk the elements of an array; `element` must consume one value
    /// per call. `false` if the next value is not an array.
    pub fn array(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        self.container(b'[', b']', element)
    }

    /// The next value as a string: borrowed from the input unless it
    /// holds an escape.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            return self.string().map(Some);
        }
        self.skip_value().map(|()| None)
    }

    /// The next value as an exact unsigned integer.
    pub fn u64(&mut self) -> Result<Option<u64>, ParseError> {
        self.skip_ws();
        match self.plain_u64() {
            Some(v) => Ok(Some(v)),
            None => Ok(self.value()?.as_u64()),
        }
    }

    /// Append the next value, an array of exact unsigned integers, to
    /// `out`. `false` — with `out` as it was — if the value is anything
    /// else, an array with one non-`u64` member included.
    pub fn u64_array(&mut self, out: &mut Vec<u64>) -> Result<bool, ParseError> {
        self.skip_ws();
        let (start, len) = (self.pos, out.len());
        if self.plain_u64_array(|v| out.push(v)) {
            return Ok(true);
        }
        // Not an array of plain digit runs (another type, `-0`, twenty
        // digits, or malformed): re-read it as a tree, so it is judged
        // exactly as `parse` judges it.
        self.pos = start;
        out.truncate(len);
        let tree = self.value()?;
        let members = tree.as_array().map(|a| a.iter().map(JsonValue::as_u64));
        match members.and_then(|m| m.collect::<Option<Vec<u64>>>()) {
            Some(vals) => {
                out.extend(vals);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError { at: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    /// The shared grammar of `[a, b]` and `{k: v}`: brackets, separators
    /// and the depth bound; `item` consumes one element or member.
    fn container(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        self.skip_ws();
        if self.peek() != Some(open) {
            return self.skip_value().map(|()| false);
        }
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => {
                        let msg = format!("expected ',' or {:?}", close as char);
                        return Err(self.err(&msg));
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(true)
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            // The run stops at an ASCII byte, so it ends on a char boundary.
            let run = &self.text[start..self.pos];
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    if out.is_empty() {
                        return Ok(Cow::Borrowed(run));
                    }
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired:
                            // our writers never emit them.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate in \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// A run of at most 19 digits — which cannot overflow — that does not
    /// go on as a fraction or exponent. `pos` moves only on success.
    #[inline(always)]
    fn plain_u64(&mut self) -> Option<u64> {
        let rest = &self.text.as_bytes()[self.pos..];
        let mut v = 0u64;
        let mut n = 0;
        for &b in rest.iter().take(19) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            v = v * 10 + u64::from(d);
            n += 1;
        }
        if n == 0 || matches!(rest.get(n), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            return None;
        }
        self.pos += n;
        Some(v)
    }

    /// `[d, d, …]` of plain digit runs, opened below [`MAX_DEPTH`], each
    /// handed to `push`; `false` (wherever `pos` got to, some members
    /// possibly pushed) on anything else.
    ///
    /// The compact shape every `rows` request and result block has,
    /// `d,d,…,d]`, is read by [`Reader::compact_u64s`]; at the first number
    /// it cannot take, the whitespace-tolerant loop below goes on from that
    /// number, so what is accepted does not depend on which loop read it.
    fn plain_u64_array(&mut self, mut push: impl FnMut(u64)) -> bool {
        if self.peek() != Some(b'[') || self.depth >= MAX_DEPTH {
            return false;
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return true;
        }
        if self.compact_u64s(&mut push) {
            return true;
        }
        loop {
            self.skip_ws();
            let Some(v) = self.plain_u64() else { return false };
            push(v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// The fast path of [`Reader::plain_u64_array`]: numbers of at most 19
    /// digits, each followed directly by `,` or `]` and starting at least
    /// 20 bytes before the end of the text, read with the position in a
    /// register. `true` past the `]`; otherwise `false` with `pos` at the
    /// start of the number it could not take (the last few of a document
    /// among them) and the ones before it pushed.
    #[inline(always)]
    fn compact_u64s(&mut self, push: &mut impl FnMut(u64)) -> bool {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        // Room for 19 digits and the separator, so no read is checked.
        while let Some(window) = bytes.get(pos..pos + 20) {
            let mut n = 0;
            let mut v = 0u64;
            while n < 19 {
                let d = window[n].wrapping_sub(b'0');
                if d > 9 {
                    break;
                }
                v = v * 10 + u64::from(d);
                n += 1;
            }
            match window[n] {
                b',' if n > 0 => push(v),
                b']' if n > 0 => {
                    push(v);
                    self.pos = pos + n + 1;
                    return true;
                }
                _ => break,
            }
            pos += n + 1;
        }
        self.pos = pos;
        false
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        if let Some(v) = self.plain_u64() {
            return Ok(JsonValue::U64(v));
        }
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(JsonValue::I64(v));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| ParseError { at: start, msg: format!("bad number {text:?}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &JsonValue) {
        for text in [v.to_string_compact(), v.to_string_pretty(2)] {
            assert_eq!(&parse(&text).unwrap(), v, "through {text}");
        }
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(&JsonValue::Null);
        roundtrip(&JsonValue::Bool(true));
        roundtrip(&JsonValue::U64(u64::MAX));
        roundtrip(&JsonValue::I64(-42));
        roundtrip(&JsonValue::F64(2.5));
        roundtrip(&JsonValue::str("hello \"world\"\n\tλ"));
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(&JsonValue::Array(vec![]));
        roundtrip(&JsonValue::Object(vec![]));
        roundtrip(&JsonValue::obj([
            ("counts", JsonValue::u64_array([1, 2, 3])),
            ("nested", JsonValue::obj([("x", JsonValue::F64(0.5))])),
            ("s", JsonValue::str("v")),
        ]));
    }

    #[test]
    fn u64_precision_is_exact() {
        let v = JsonValue::U64(9_007_199_254_740_993); // 2^53 + 1
        let back = parse(&v.to_string_compact()).unwrap();
        assert_eq!(back.as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::F64(f64::NAN).to_string_compact(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "tru", "\"unterminated", "{\"a\":1,\"a\":2}", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accepts_whitespace_and_escapes() {
        let v = parse(" {\n\t\"a\" : [ 1 , -2.5e1 ] , \"b\":\"x\\u0041\" }\n").unwrap();
        assert_eq!(v.get("b").and_then(|b| b.as_str()), Some("xA"));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(-25.0));
    }

    /// Documents the typed getters are differentially tested on: what the
    /// other tests of this module parse, the `rejects_garbage` list, and
    /// the integer edge cases.
    const CORPUS: &[&str] = &[
        "null",
        "true",
        "18446744073709551615",
        "18446744073709551616",
        "00000000000000000000007",
        "-42",
        "-0",
        "2.5",
        "1e3",
        "\"hello \\\"world\\\"\\n\\tλ\"",
        "\"x\\u0041\"",
        "[]",
        "{}",
        "[1,2,3]",
        " [ 1 ,\n2\t,\r3 ] ",
        "[18446744073709551615,0]",
        "[1,18446744073709551616]",
        "[1,-0]",
        "[1,-2]",
        "[1,2.0]",
        "[1,\"x\"]",
        "[[1],[2]]",
        "{\"counts\":[1,2,3],\"nested\":{\"x\":0.5},\"s\":\"v\"}",
        " {\n\t\"a\" : [ 1 , -2.5e1 ] , \"b\":\"x\\u0041\" }\n",
        "{\"op\":\"rows\",\"keys\":[1,2,1],\"cols\":[[10,20,30]]}",
        "",
        "{",
        "[1,",
        "[1,]",
        "[1 2]",
        "tru",
        "\"unterminated",
        "{\"a\":1,\"a\":2}",
        "{\"a\":1,\"\\u0061\":2}",
        "1 2",
        "[1,2] x",
        "-",
        "[1,2",
        "[007,1]",
        "[1,2, 3]",
        "[1,2,3.5]",
        "[1,2,-0]",
        "[1,2,1e3]",
        "[1,2,]",
        "[1,,2]",
        "[12345678901234567890,1]",
    ];

    /// `n` nested arrays around the numeric leaf `[1,2]`: the leaf opens at
    /// depth `n + 1`.
    fn deep_leaf(n: usize) -> String {
        "[".repeat(n) + "[1,2]" + &"]".repeat(n)
    }

    /// Run one typed getter over the whole of `doc`.
    fn typed<T>(
        doc: &str,
        get: impl FnOnce(&mut Reader<'_>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let mut r = Reader::new(doc);
        let got = get(&mut r)?;
        r.finish()?;
        Ok(got)
    }

    #[test]
    fn typed_getters_agree_with_the_tree_on_the_corpus() {
        let deep = [deep_leaf(MAX_DEPTH as usize - 1), deep_leaf(MAX_DEPTH as usize)];
        for doc in CORPUS.iter().copied().chain(deep.iter().map(String::as_str)) {
            let tree = parse(doc);
            // What the tree says a getter must answer: its error, or `f`
            // of its value.
            fn want<T>(
                tree: &Result<JsonValue, ParseError>,
                f: impl Fn(&JsonValue) -> T,
            ) -> Result<T, ParseError> {
                tree.as_ref().map(f).map_err(Clone::clone)
            }

            assert_eq!(typed(doc, |r| r.u64()), want(&tree, JsonValue::as_u64), "{doc:?}");

            let got = typed(doc, |r| Ok(r.str()?.map(Cow::into_owned)));
            assert_eq!(got, want(&tree, |v| v.as_str().map(str::to_string)), "{doc:?}");

            let mut vals = vec![99];
            let got = typed(doc, |r| r.u64_array(&mut vals));
            let as_u64s = |v: &JsonValue| -> Option<Vec<u64>> {
                v.as_array()?.iter().map(JsonValue::as_u64).collect()
            };
            match want(&tree, as_u64s) {
                Ok(Some(members)) => {
                    assert_eq!(got, Ok(true), "{doc:?}");
                    assert_eq!(vals[0], 99, "{doc:?}: appends, never clears");
                    assert_eq!(vals[1..], members, "{doc:?}");
                }
                Ok(None) => {
                    assert_eq!(got, Ok(false), "{doc:?}");
                    assert_eq!(vals, [99], "{doc:?}: a mismatch leaves the vector alone");
                }
                Err(e) => assert_eq!(got, Err(e), "{doc:?}"),
            }

            let mut keys = Vec::new();
            let got = typed(doc, |r| {
                r.object(|r, key| {
                    keys.push(key.to_string());
                    r.skip_value()
                })
            });
            assert_eq!(got, want(&tree, |v| matches!(v, JsonValue::Object(_))), "{doc:?}");
            if let Ok(JsonValue::Object(pairs)) = &tree {
                assert_eq!(keys, pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>());
            }

            let mut elements = Vec::new();
            let got = typed(doc, |r| {
                r.array(|r| {
                    elements.push(r.value()?);
                    Ok(())
                })
            });
            assert_eq!(got, want(&tree, |v| v.as_array().is_some()), "{doc:?}");
            if let Ok(JsonValue::Array(items)) = &tree {
                assert_eq!(&elements, items, "{doc:?}");
            }
        }
    }

    #[test]
    fn u64_max_reads_exactly_and_one_more_is_not_a_u64() {
        assert_eq!(typed("18446744073709551615", |r| r.u64()), Ok(Some(u64::MAX)));
        assert_eq!(typed("18446744073709551616", |r| r.u64()), Ok(None));
        let mut vals = Vec::new();
        assert_eq!(typed("[18446744073709551615]", |r| r.u64_array(&mut vals)), Ok(true));
        assert_eq!(vals, [u64::MAX]);
        assert_eq!(typed("[18446744073709551616]", |r| r.u64_array(&mut vals)), Ok(false));
        assert_eq!(vals, [u64::MAX]);
    }

    /// The reference for a document that should be an array of numbers,
    /// which never touches the reader: split on `[`, `,` and `]`, trim, and
    /// judge each member by the tree's number rules. `None` if it is not
    /// valid JSON; every document the differential test builds is either
    /// that or an array.
    fn split_array(doc: &str) -> Option<Vec<JsonValue>> {
        const WS: &[char] = &[' ', '\t', '\n', '\r'];
        let inner = doc.trim_matches(WS).strip_prefix('[')?.strip_suffix(']')?;
        if inner.trim_matches(WS).is_empty() {
            return Some(Vec::new());
        }
        inner.split(',').map(|m| number_member(m.trim_matches(WS))).collect()
    }

    /// One member as [`Reader::value`] reads a number: `-?d*(.d*)?([eE][+-]?d*)?`
    /// starting with `-` or a digit, then the first of `u64`, `i64`, `f64`
    /// that parses it, integer lanes only without `.` or an exponent.
    fn number_member(m: &str) -> Option<JsonValue> {
        let b = m.as_bytes();
        let digits = |mut i: usize| {
            while b.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
            i
        };
        if !b.first().is_some_and(|&c| c == b'-' || c.is_ascii_digit()) {
            return None;
        }
        let mut i = digits(usize::from(b[0] == b'-'));
        let int_end = i;
        if b.get(i) == Some(&b'.') {
            i = digits(i + 1);
        }
        if matches!(b.get(i), Some(b'e' | b'E')) {
            i += 1;
            if matches!(b.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            i = digits(i);
        }
        if i != b.len() {
            return None;
        }
        if int_end == b.len() {
            if let Ok(v) = m.parse::<u64>() {
                return Some(JsonValue::U64(v));
            }
            if let Ok(v) = m.parse::<i64>() {
                return Some(JsonValue::I64(v));
            }
        }
        m.parse::<f64>().ok().map(JsonValue::F64)
    }

    /// Arrays of 0–40 numbers of 1–20 digits (leading zeros, `u64::MAX`
    /// and one past it included), compact and then mutated once — space
    /// at some offset, one byte replaced, truncated, or a comma doubled —
    /// read by [`parse`] and [`Reader::u64_array`], both of which take the
    /// compact fast path, and by [`split_array`], which does not. Each is
    /// read once more with trailing whitespace, which changes no answer
    /// but gives the numbers before the last `]` the fast path's 20-byte
    /// window.
    #[test]
    fn u64_arrays_agree_with_a_reference_that_never_takes_the_fast_path() {
        let mut s = 42u64;
        let mut rand = move |n: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n as u64) as usize
        };
        let (mut fast, mut members) = (0, 0);
        for _ in 0..20_000 {
            let len = rand(41);
            let nums: Vec<String> = (0..len)
                .map(|_| match rand(20) {
                    0 => u64::MAX.to_string(),
                    1 => "18446744073709551616".to_string(),
                    2 => "0".repeat(1 + rand(4)) + &rand(1000).to_string(),
                    _ => (0..1 + rand(20)).map(|_| char::from(b'0' + rand(10) as u8)).collect(),
                })
                .collect();
            let compact = format!("[{}]", nums.join(","));
            let mut mutated = compact.clone();
            let at = rand(compact.len());
            match rand(4) {
                0 => mutated.insert(at + rand(2), [' ', '\t', '\n', '\r'][rand(4)]),
                1 => {
                    mutated.replace_range(at..at + 1, ["-", ".", "e", ",", "]", "x", "é"][rand(7)])
                }
                2 => mutated.truncate(at),
                _ => match compact.find(',') {
                    Some(comma) => mutated.insert(comma, ','),
                    None => mutated.insert(at, ','),
                },
            }
            let pad = |d: &str| d.to_string() + &" ".repeat(20);
            for doc in [&compact, &mutated, &pad(&compact), &pad(&mutated)] {
                let want = split_array(doc);
                let tree = parse(doc);
                assert_eq!(
                    tree.as_ref().ok(),
                    want.clone().map(JsonValue::Array).as_ref(),
                    "{doc:?}"
                );
                let mut vals = vec![99];
                let got = typed(doc, |r| r.u64_array(&mut vals));
                let want_u64s =
                    want.map(|w| w.iter().map(JsonValue::as_u64).collect::<Option<Vec<_>>>());
                match (want_u64s, tree) {
                    (Some(Some(u64s)), _) => {
                        assert_eq!(got, Ok(true), "{doc:?}");
                        assert_eq!(vals[1..], u64s, "{doc:?}");
                        fast += 1;
                        members += u64s.len();
                    }
                    (Some(None), _) => {
                        assert_eq!(got, Ok(false), "{doc:?}");
                        assert_eq!(vals, [99], "{doc:?}: untouched on a mismatch");
                    }
                    (None, tree) => assert_eq!(got.err(), tree.err(), "{doc:?}"),
                }
            }
        }
        // The generator must reach both sides: plenty of all-`u64` arrays
        // and plenty of everything else.
        assert!(fast > 10_000 && fast < 70_000 && members > 100_000, "{fast} {members}");
    }

    /// `(op, keys, cols)` of a `rows` request.
    type RowsLine = (String, Vec<u64>, Vec<Vec<u64>>);

    /// A typed decode of one `rows` request, as `hsa serve` does it.
    fn decode_rows(line: &str) -> Result<RowsLine, ParseError> {
        let (mut op, mut keys, mut cols) = (String::new(), Vec::new(), Vec::new());
        typed(line, |r| {
            r.object(|r, key| {
                match key {
                    "op" => op = r.str()?.map(Cow::into_owned).unwrap_or_default(),
                    "keys" => assert!(r.u64_array(&mut keys)?),
                    "cols" => {
                        let is_array = r.array(|r| {
                            cols.push(Vec::new());
                            assert!(r.u64_array(cols.last_mut().unwrap())?);
                            Ok(())
                        })?;
                        assert!(is_array);
                    }
                    _ => r.skip_value()?,
                }
                Ok(())
            })
        })?;
        Ok((op, keys, cols))
    }

    #[test]
    fn member_order_and_whitespace_do_not_change_a_rows_line() {
        let members = [
            "\"op\":\"rows\"",
            "\"keys\":[1,2,1]",
            "\"cols\":[[10,20,30],[]]",
            "\"x\":{\"y\":[null]}",
        ];
        let want = ("rows".to_string(), vec![1, 2, 1], vec![vec![10, 20, 30], vec![]]);
        let mut seen = 0;
        for a in 0..4 {
            for b in (0..4).filter(|&b| b != a) {
                for c in (0..4).filter(|&c| c != a && c != b) {
                    let d = 6 - a - b - c;
                    let [a, b, c, d] = [a, b, c, d].map(|i| members[i]);
                    assert_eq!(decode_rows(&format!("{{{a},{b},{c},{d}}}")).unwrap(), want);
                    let spaced = format!(" {{ {a} ,\t{b}\r\n, {c} , {d} }} \n")
                        .replace(':', " : ")
                        .replace('[', "[ ")
                        .replace(']', " ]");
                    assert_eq!(decode_rows(&spaced).unwrap(), want, "{spaced:?}");
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, 24);
        let dup = "{\"keys\":[1],\"op\":\"rows\",\"keys\":[2]}";
        assert_eq!(decode_rows(dup).unwrap_err(), parse(dup).unwrap_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH as usize)).is_ok());
        let e = parse(&deep(MAX_DEPTH as usize + 1)).unwrap_err();
        assert_eq!(e.msg, "nesting too deep");
        // A numeric leaf takes the array fast path, under the same bound.
        assert!(parse(&deep_leaf(MAX_DEPTH as usize - 1)).is_ok());
        let e = parse(&deep_leaf(MAX_DEPTH as usize)).unwrap_err();
        assert_eq!((e.at, e.msg.as_str()), (MAX_DEPTH as usize + 1, "nesting too deep"));
        // Far past any stack the recursion could have used.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn u64_array_writer_matches_the_tree_writer() {
        for vals in [vec![], vec![0], vec![7, 10, 99, 100], vec![u64::MAX, 0, u64::MAX - 1]] {
            let mut out = String::from("x");
            write_u64_array(&mut out, vals.iter().copied());
            assert_eq!(out[1..], JsonValue::u64_array(vals).to_string_compact());
        }
    }

    #[test]
    fn get_and_accessors() {
        let v = JsonValue::obj([("k", JsonValue::U64(7))]);
        assert_eq!(v.get("k").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::U64(3).as_f64(), Some(3.0));
    }
}
