//! Dictionary encoding: byte-string keys → dense `u64` codes.
//!
//! The operator's kernels work on 64-bit integer keys. A string column
//! reaches them as the order-of-first-appearance code of each value, and
//! a multi-column `GROUP BY` tuple as the code of its values' bytes, the
//! way a column store feeds arbitrary keys to integer kernels.

use std::collections::HashMap;

/// An order-of-first-appearance dictionary from byte strings to dense ids.
#[derive(Debug, Default)]
pub(crate) struct Dictionary {
    ids: HashMap<Box<[u8]>, u64>,
}

impl Dictionary {
    /// Encode one key, assigning the next dense id on first appearance;
    /// only a first appearance allocates.
    pub(crate) fn encode(&mut self, value: &[u8]) -> u64 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = self.ids.len() as u64;
        self.ids.insert(value.into(), id);
        id
    }

    /// The values, indexed by id.
    pub(crate) fn into_values(self) -> Vec<Box<[u8]>> {
        let mut values = vec![Box::default(); self.ids.len()];
        for (value, id) in self.ids {
            values[id as usize] = value;
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut d = Dictionary::default();
        let ids: Vec<u64> =
            ["x", "y", "x", "z", "y"].iter().map(|s| d.encode(s.as_bytes())).collect();
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
        let values = d.into_values();
        let values: Vec<&[u8]> = values.iter().map(|v| &v[..]).collect();
        assert_eq!(values, [&b"x"[..], b"y", b"z"]);
    }

    #[test]
    fn empty_string_and_binary_keys() {
        let mut d = Dictionary::default();
        let a = d.encode(b"");
        let b = d.encode(&[0xff, 0x00, 0x7f]);
        assert_ne!(a, b);
        let values = d.into_values();
        assert_eq!(&values[a as usize][..], b"");
        assert_eq!(&values[b as usize][..], [0xff, 0x00, 0x7f]);
    }
}
