//! Dictionary encoding: arbitrary grouping keys → dense `u64` codes.
//!
//! The operator's kernels work on 64-bit integer keys (the paper's
//! experiments do too). Real column stores feed them anything — strings,
//! composite keys — through *dictionary encoding*, which is exactly what
//! systems like SAP HANA (the paper's context) do at the storage layer.
//! [`Dictionary`] provides the encode/decode pair:
//!
//! ```
//! use hsa_columnar::Dictionary;
//! let mut dict = Dictionary::new();
//! let codes: Vec<u64> =
//!     ["de", "fr", "de", "us"].iter().map(|s| dict.encode_str(s)).collect();
//! assert_eq!(codes, vec![0, 1, 0, 2]);
//! assert_eq!(dict.decode(1), Some("fr".as_bytes()));
//! ```
//!
//! [`encode_composite`] packs multi-column `GROUP BY (a, b, …)` keys into
//! one code column the same way.

use std::collections::HashMap;

/// An order-of-first-appearance dictionary from byte strings to dense ids.
#[derive(Clone, Debug, Default)]
pub struct Dictionary {
    ids: HashMap<Vec<u8>, u64>,
    values: Vec<Vec<u8>>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct values seen.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Encode one byte-string key, assigning the next dense id on first
    /// appearance.
    pub fn encode(&mut self, value: &[u8]) -> u64 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = self.values.len() as u64;
        self.ids.insert(value.to_vec(), id);
        self.values.push(value.to_vec());
        id
    }

    /// Encode one string key.
    pub fn encode_str(&mut self, value: &str) -> u64 {
        self.encode(value.as_bytes())
    }

    /// Decode an id back to its bytes.
    pub fn decode(&self, id: u64) -> Option<&[u8]> {
        self.values.get(id as usize).map(Vec::as_slice)
    }

    /// Decode an id to `&str` (None if the id is unknown or not UTF-8).
    pub fn decode_str(&self, id: u64) -> Option<&str> {
        self.decode(id).and_then(|b| std::str::from_utf8(b).ok())
    }
}

/// Fuse several `u64` key columns into one dense code column for
/// multi-column grouping. Returns the code column plus the distinct key
/// tuples indexed by code (for decoding result rows).
///
/// All columns must have equal length.
pub fn encode_composite(columns: &[&[u64]]) -> (Vec<u64>, Vec<Vec<u64>>) {
    assert!(!columns.is_empty(), "composite key needs at least one column");
    let rows = columns[0].len();
    for (i, c) in columns.iter().enumerate() {
        assert_eq!(c.len(), rows, "key column {i} row count mismatch");
    }
    let mut ids: HashMap<Vec<u64>, u64> = HashMap::new();
    let mut tuples: Vec<Vec<u64>> = Vec::new();
    let mut codes = Vec::with_capacity(rows);
    let mut tuple = Vec::with_capacity(columns.len());
    for r in 0..rows {
        tuple.clear();
        tuple.extend(columns.iter().map(|c| c[r]));
        let id = match ids.get(&tuple) {
            Some(&id) => id,
            None => {
                let id = tuples.len() as u64;
                ids.insert(tuple.clone(), id);
                tuples.push(tuple.clone());
                id
            }
        };
        codes.push(id);
    }
    (codes, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut d = Dictionary::new();
        let ids: Vec<u64> = ["x", "y", "x", "z", "y"].iter().map(|s| d.encode_str(s)).collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.decode_str(0), Some("x"));
        assert_eq!(d.decode_str(2), Some("z"));
        assert_eq!(d.decode_str(3), None);
    }

    #[test]
    fn empty_string_and_binary_keys() {
        let mut d = Dictionary::new();
        let a = d.encode(b"");
        let b = d.encode(&[0xff, 0x00, 0x7f]);
        assert_ne!(a, b);
        assert_eq!(d.decode(a), Some(&b""[..]));
        assert_eq!(d.decode(b), Some(&[0xff, 0x00, 0x7f][..]));
        assert_eq!(d.decode_str(b), None, "not UTF-8");
    }

    #[test]
    fn composite_keys_are_dense_and_decodable() {
        let a = [1u64, 1, 2, 1];
        let b = [10u64, 20, 10, 10];
        let (codes, tuples) = encode_composite(&[&a, &b]);
        assert_eq!(codes, vec![0, 1, 2, 0]);
        assert_eq!(tuples, vec![vec![1, 10], vec![1, 20], vec![2, 10]]);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn composite_rejects_ragged() {
        let _ = encode_composite(&[&[1, 2], &[1]]);
    }

    #[test]
    fn composite_single_column_is_dense_recode() {
        let a = [100u64, 50, 100];
        let (codes, tuples) = encode_composite(&[&a]);
        assert_eq!(codes, vec![0, 1, 0]);
        assert_eq!(tuples, vec![vec![100], vec![50]]);
    }
}
