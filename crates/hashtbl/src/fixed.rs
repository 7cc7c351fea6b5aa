//! The fixed-size block linear-probing aggregation table (§4.1).
//!
//! Design decisions, all straight from the paper:
//!
//! * **Single level, linear probing** — "the simplest approach has the
//!   lowest CPU overhead".
//! * **Fixed to the cache size** — the working set of `HASHING` never
//!   exceeds the cache; when the table is full it is *sealed* and replaced,
//!   never grown.
//! * **Full at 25%** — at this fill rate collisions are "very rare or even
//!   non-existing", so no CPU cycles are lost on probe chains. The
//!   apparently wasted memory is one or few tables per thread — negligible.
//! * **Probing within blocks** — the table is divided into
//!   [`hsa_hash::FANOUT`] equal blocks, one per radix digit of the current
//!   recursion level, and a key only ever probes inside its block. A full
//!   table therefore splits into 256 ranges that are exactly the runs the
//!   framework needs ("we adapted the linear probing to work within
//!   blocks, such that we can cleanly split a table into ranges for the
//!   recursive calls").
//!
//! Within a block the home slot is derived from the hash bits *below* the
//! digits already consumed by outer passes, scaled so that slot order
//! approximates hash order — the sealed table is (modulo probe
//! displacement) **sorted by hash value**, which is the paper's point:
//! the fastest way to build a hash table is a sorting algorithm.

use hsa_agg::shims::KernelKind;
use hsa_hash::{digit, remaining_bits, Hasher64, FANOUT};
use hsa_obs::Histogram;

/// Probe-behavior metrics of one [`AggTable`], collected only when enabled
/// via [`AggTable::set_metrics_enabled`] (plain cells; the table is
/// per-worker, so no synchronization is needed). They quantify §4.1's
/// claim that at 25% fill collisions are "very rare or even non-existing".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableMetrics {
    /// Keys inserted or matched (`Insert::New` + `Insert::Hit`).
    pub inserts: u64,
    /// Total probe steps beyond the home slot.
    pub probe_steps: u64,
    /// Probe steps per insert (hits and news).
    pub probe_len: Histogram,
    /// Distance from the home slot at which each *new* key landed — the
    /// block displacement that bounds how far the sealed table's runs
    /// deviate from hash order.
    pub displacement: Histogram,
}

impl TableMetrics {
    #[inline]
    fn record(&mut self, steps: u64, is_new: bool) {
        self.inserts += 1;
        self.probe_steps += steps;
        self.probe_len.record(steps);
        if is_new {
            self.displacement.record(steps);
        }
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &TableMetrics) {
        self.inserts += other.inserts;
        self.probe_steps += other.probe_steps;
        self.probe_len.merge(&other.probe_len);
        self.displacement.merge(&other.displacement);
    }
}

/// Geometry of an [`AggTable`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TableConfig {
    /// Total slot count; power of two, ≥ [`FANOUT`].
    pub total_slots: usize,
    /// Percentage of slots that may be occupied before the table reports
    /// [`Insert::Full`]. The paper fixes this to 25.
    pub fill_percent: usize,
}

impl TableConfig {
    /// The paper's fill rate.
    pub const PAPER_FILL_PERCENT: usize = 25;

    /// Smallest legal slot count (the floor [`TableConfig::for_cache_bytes`]
    /// enforces). The driver's degradation policy halves table sizes under
    /// memory pressure down to exactly this.
    pub const MIN_TOTAL_SLOTS: usize = 2 * FANOUT;

    /// Size a table for a cache budget of `cache_bytes`, given the number
    /// of aggregate state columns it must carry. Slot cost = key + states
    /// (the occupancy bitmap is 1/64th and ignored).
    pub fn for_cache_bytes(cache_bytes: usize, n_state_cols: usize) -> Self {
        let slot_bytes = 8 * (1 + n_state_cols);
        let raw = (cache_bytes / slot_bytes).max(2 * FANOUT);
        // Round down to a power of two so digit/slot math is shifts.
        let total_slots = 1usize << (usize::BITS - 1 - raw.leading_zeros());
        Self { total_slots, fill_percent: Self::PAPER_FILL_PERCENT }
    }

    /// Occupancy limit implied by the fill rate (at least 1).
    pub fn capacity(&self) -> usize {
        (self.total_slots * self.fill_percent / 100).max(1)
    }

    /// Heap bytes a table of this geometry costs, given its state column
    /// count: key + state arrays (8 B each per slot) plus the 1/64
    /// occupancy bitmap. This is what the memory budget charges per table.
    pub fn mem_bytes(&self, n_state_cols: usize) -> u64 {
        (self.total_slots * 8 * (1 + n_state_cols) + self.total_slots / 8) as u64
    }
}

/// Outcome of one [`AggTable::insert_batch`] call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BatchInsert {
    /// Keys absorbed from the front of the batch (new or hit).
    pub consumed: usize,
    /// True when key `consumed` hit a full table (fill limit or block
    /// overflow) and was *not* inserted — seal and retry from there.
    pub full: bool,
}

/// Outcome of [`AggTable::insert_key`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Insert {
    /// Key already present; slot returned.
    Hit(u32),
    /// Key newly inserted; slot returned.
    New(u32),
    /// Fill limit reached (or the key's block overflowed): the caller must
    /// seal the table into runs and start a fresh one. The key was *not*
    /// inserted.
    Full,
}

/// The fixed-size block linear-probing aggregation table.
pub struct AggTable {
    level: u32,
    block_slots: usize,
    block_shift: u32,
    /// How far to shift a hash right so its in-block bits remain, scaled
    /// to the block size (see `home_slot`).
    hash_shift: u32,
    keys: Vec<u64>,
    /// Occupancy bitmap, one bit per slot.
    occ: Vec<u64>,
    cols: Vec<Vec<u64>>,
    identities: Vec<u64>,
    len: usize,
    capacity: usize,
    metrics: Option<Box<TableMetrics>>,
}

impl AggTable {
    /// Create a table at recursion `level` whose state columns are
    /// pre-filled with `identities` (see [`crate::identity_of`]).
    pub fn new(config: TableConfig, level: u32, identities: &[u64]) -> Self {
        assert!(config.total_slots.is_power_of_two(), "slot count must be a power of two");
        assert!(config.total_slots >= FANOUT, "need at least one slot per block");
        assert!((1..=100).contains(&config.fill_percent), "fill percent out of range");
        assert!(level < hsa_hash::MAX_LEVEL, "hash digits exhausted");
        let block_slots = config.total_slots / FANOUT;
        // In-block home slot = top `log2(block_slots)` bits of the hash
        // bits remaining below the consumed digits. At the deepest levels
        // fewer than log2(block_slots) bits remain; the saturation reuses
        // low (already consumed) bits, which only costs probe steps, never
        // correctness.
        let hash_shift = remaining_bits(level).saturating_sub(block_slots.trailing_zeros());
        Self {
            level,
            block_slots,
            block_shift: block_slots.trailing_zeros(),
            hash_shift,
            keys: vec![0; config.total_slots],
            occ: vec![0; config.total_slots / 64],
            cols: identities.iter().map(|&id| vec![id; config.total_slots]).collect(),
            identities: identities.to_vec(),
            len: 0,
            capacity: config.capacity(),
            metrics: None,
        }
    }

    /// Turn probe metrics collection on or off. Off (the default) keeps
    /// the insert hot path free of histogram work; disabling discards any
    /// collected metrics.
    pub fn set_metrics_enabled(&mut self, enabled: bool) {
        if enabled {
            if self.metrics.is_none() {
                self.metrics = Some(Box::default());
            }
        } else {
            self.metrics = None;
        }
    }

    /// Collected probe metrics (None unless enabled).
    pub fn metrics(&self) -> Option<&TableMetrics> {
        self.metrics.as_deref()
    }

    /// Take the collected metrics, leaving fresh (zeroed) collection in
    /// place if metrics are enabled. Callers flush this into their own
    /// aggregation at seal time.
    pub fn take_metrics(&mut self) -> Option<TableMetrics> {
        self.metrics.as_mut().map(|m| std::mem::take(&mut **m))
    }

    /// Occupied group count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no groups are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot count.
    #[inline]
    pub fn total_slots(&self) -> usize {
        self.block_slots * FANOUT
    }

    /// The recursion level this table was built for.
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Occupancy limit.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-target an *empty* table to a different recursion level so pooled
    /// tables can be reused across levels without reallocating (the paper
    /// keeps "one or very few hash tables per thread").
    pub fn set_level(&mut self, level: u32) {
        assert!(self.is_empty(), "cannot re-level a non-empty table");
        assert!(level < hsa_hash::MAX_LEVEL, "hash digits exhausted");
        self.level = level;
        self.hash_shift = remaining_bits(level).saturating_sub(self.block_shift);
    }

    #[inline(always)]
    fn is_occupied(&self, slot: usize) -> bool {
        self.occ[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    #[inline(always)]
    fn set_occupied(&mut self, slot: usize) {
        self.occ[slot >> 6] |= 1u64 << (slot & 63);
    }

    /// Home slot of a hash: block = current-level digit, in-block offset =
    /// next hash bits, preserving hash order within the block.
    #[inline(always)]
    fn home_slot(&self, hash: u64) -> usize {
        let block = digit(hash, self.level);
        let in_block = ((hash >> self.hash_shift) as usize) & (self.block_slots - 1);
        (block << self.block_shift) | in_block
    }

    /// Insert `key` with `hash`; aggregate state is *not* touched (state
    /// columns are updated separately, per column, via [`Self::col_mut`]).
    ///
    /// The one probe walk. Always inlined, so the batch loop pays no call
    /// per row: as a call it costs `lib_hot` ≈ 1 ns of ≈ 6.4 ns a row.
    #[inline(always)]
    pub fn insert_key(&mut self, key: u64, hash: u64) -> Insert {
        if self.len >= self.capacity {
            return Insert::Full;
        }
        let home = self.home_slot(hash);
        let block_base = home & !(self.block_slots - 1);
        let mut slot = home;
        // Probe linearly, wrapping within the block.
        for step in 0..self.block_slots {
            if !self.is_occupied(slot) {
                self.keys[slot] = key;
                self.set_occupied(slot);
                self.len += 1;
                if let Some(m) = &mut self.metrics {
                    m.record(step as u64, true);
                }
                return Insert::New(slot as u32);
            }
            if self.keys[slot] == key {
                if let Some(m) = &mut self.metrics {
                    m.record(step as u64, false);
                }
                return Insert::Hit(slot as u32);
            }
            slot = block_base | ((slot + 1) & (self.block_slots - 1));
        }
        // Block overflow: astronomically unlikely below the fill limit with
        // a good hash, but adversarial inputs can do it — treat as full.
        Insert::Full
    }

    /// [`Self::insert_key`] over a slice of keys, recording the resolved
    /// slot of every absorbed key into `mapping` (the §3.3 mapping
    /// vector), up to the first key that finds the table full.
    ///
    /// `_kind` is ignored. A shim: `benchmark/` passes it; ROADMAP item
    /// 4's `[benchmark]` issue removes it.
    #[inline]
    pub fn insert_batch<H: Hasher64>(
        &mut self,
        hasher: H,
        keys: &[u64],
        _kind: KernelKind,
        mapping: &mut Vec<u32>,
    ) -> BatchInsert {
        self.insert_rows::<H, true>(hasher, keys, mapping)
    }

    /// [`Self::insert_batch`] without slot recording — the DISTINCT fast
    /// path, which needs no mapping vector.
    #[inline]
    pub fn insert_batch_distinct<H: Hasher64>(&mut self, hasher: H, keys: &[u64]) -> BatchInsert {
        let mut unused = Vec::new();
        self.insert_rows::<H, false>(hasher, keys, &mut unused)
    }

    /// One [`Self::insert_key`] per row, the walk inlined into the loop.
    fn insert_rows<H: Hasher64, const RECORD: bool>(
        &mut self,
        hasher: H,
        keys: &[u64],
        mapping: &mut Vec<u32>,
    ) -> BatchInsert {
        for (i, &key) in keys.iter().enumerate() {
            match self.insert_key(key, hasher.hash_u64(key)) {
                Insert::New(slot) | Insert::Hit(slot) => {
                    if RECORD {
                        mapping.push(slot);
                    }
                }
                Insert::Full => return BatchInsert { consumed: i, full: true },
            }
        }
        BatchInsert { consumed: keys.len(), full: false }
    }

    /// Mutable view of state column `i` (indexed by slot).
    #[inline]
    pub fn col_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.cols[i]
    }

    /// Shared view of state column `i`.
    #[inline]
    pub fn col(&self, i: usize) -> &[u64] {
        &self.cols[i]
    }

    /// Number of state columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Seal the table: for every block (= radix digit of this level) with
    /// occupied slots, yield `(digit, keys, state_col_values)` with slots
    /// compacted in slot order (≈ hash order). The table is left empty and
    /// reusable: occupancy cleared, state columns re-filled with their
    /// identities.
    ///
    /// Cost is `O(occupied + slots/64)`: the occupancy bitmap is walked
    /// word-wise and identities are restored only at the occupied slots.
    /// This matters because every bucket of the recursion seals once, and
    /// small buckets must not pay for the table's full extent.
    pub fn seal(&mut self, mut emit: impl FnMut(usize, &[u64], &[Vec<u64>])) {
        let mut keys_buf: Vec<u64> = Vec::new();
        let mut cols_buf: Vec<Vec<u64>> = self.cols.iter().map(|_| Vec::new()).collect();
        let total = self.total_slots();
        let mut cur_block = usize::MAX;
        for w in 0..self.occ.len() {
            let mut bits = self.occ[w];
            self.occ[w] = 0;
            while bits != 0 {
                let slot = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                debug_assert!(slot < total);
                let block = slot >> self.block_shift;
                if block != cur_block {
                    if !keys_buf.is_empty() {
                        emit(cur_block, &keys_buf, &cols_buf);
                        keys_buf.clear();
                        cols_buf.iter_mut().for_each(Vec::clear);
                    }
                    cur_block = block;
                }
                keys_buf.push(self.keys[slot]);
                for ((c, col), &id) in cols_buf.iter_mut().zip(&mut self.cols).zip(&self.identities)
                {
                    c.push(col[slot]);
                    col[slot] = id;
                }
            }
        }
        if !keys_buf.is_empty() {
            emit(cur_block, &keys_buf, &cols_buf);
        }
        self.len = 0;
    }

    /// Seal the table into the caller's slices: the groups [`Self::seal`]
    /// yields, in the same order, written straight into `keys` and
    /// `cols[i]`, each exactly [`Self::len`] long. One column at a time,
    /// so every pass writes one sequential stream. The table is left empty
    /// and reusable, as after [`Self::seal`].
    pub fn seal_to(&mut self, keys: &mut [u64], cols: &mut [&mut [u64]]) {
        debug_assert_eq!(keys.len(), self.len);
        debug_assert_eq!(cols.len(), self.cols.len());
        for (dst, slot) in keys.iter_mut().zip(occupied(&self.occ)) {
            *dst = self.keys[slot];
        }
        for ((dst, col), &id) in cols.iter_mut().zip(&mut self.cols).zip(&self.identities) {
            debug_assert_eq!(dst.len(), self.len);
            for (d, slot) in dst.iter_mut().zip(occupied(&self.occ)) {
                *d = col[slot];
                col[slot] = id;
            }
        }
        self.occ.fill(0);
        self.len = 0;
    }
}

/// The occupied slots of an occupancy bitmap, in slot order.
fn occupied(occ: &[u64]) -> impl Iterator<Item = usize> + '_ {
    occ.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            let bit = bits.trailing_zeros();
            bits &= bits.wrapping_sub(1);
            (bit < 64).then_some((w << 6) | bit as usize)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsa_agg::StateOp;
    use hsa_hash::{Hasher64, Murmur2};
    use std::collections::{BTreeMap, BTreeSet};

    fn small() -> TableConfig {
        TableConfig { total_slots: 1 << 12, fill_percent: 25 }
    }

    #[test]
    fn config_for_cache_bytes() {
        let c = TableConfig::for_cache_bytes(2 << 20, 1);
        // 2 MiB / 16 B per slot = 128 Ki slots.
        assert_eq!(c.total_slots, 1 << 17);
        assert_eq!(c.capacity(), 1 << 15);
        // Tiny budgets still give a usable table.
        let tiny = TableConfig::for_cache_bytes(1024, 3);
        assert!(tiny.total_slots >= 2 * FANOUT);
    }

    #[test]
    fn insert_hit_new_roundtrip() {
        let mut t = AggTable::new(small(), 0, &[]);
        let h = Murmur2::default();
        let k = 42u64;
        match t.insert_key(k, h.hash_u64(k)) {
            Insert::New(s1) => match t.insert_key(k, h.hash_u64(k)) {
                Insert::Hit(s2) => assert_eq!(s1, s2),
                other => panic!("expected Hit, got {other:?}"),
            },
            other => panic!("expected New, got {other:?}"),
        }
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fill_limit_reports_full() {
        let cfg = small();
        let mut t = AggTable::new(cfg, 0, &[]);
        let h = Murmur2::default();
        let cap = cfg.capacity();
        let mut inserted = 0u64;
        let mut key = 0u64;
        while inserted < cap as u64 {
            match t.insert_key(key, h.hash_u64(key)) {
                Insert::New(_) => inserted += 1,
                Insert::Hit(_) => {}
                Insert::Full => panic!("full before fill limit at {inserted}"),
            }
            key += 1;
        }
        assert_eq!(t.insert_key(u64::MAX, h.hash_u64(u64::MAX)), Insert::Full);
    }

    #[test]
    fn distinct_keys_same_hash_block_coexist() {
        // Two different keys engineered into the same home slot must both
        // be stored (probe resolves on key comparison).
        let mut t = AggTable::new(small(), 0, &[]);
        let hash = 0xAB00_0000_0000_0000u64;
        assert!(matches!(t.insert_key(1, hash), Insert::New(_)));
        let s2 = match t.insert_key(2, hash) {
            Insert::New(s) => s,
            other => panic!("expected New, got {other:?}"),
        };
        assert_eq!(t.insert_key(2, hash), Insert::Hit(s2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn adversarial_block_overflow_reports_full() {
        // Same hash, all-distinct keys: the probe chain fills one block
        // while the table as a whole is nearly empty.
        let cfg = TableConfig { total_slots: FANOUT * 8, fill_percent: 100 };
        let mut t = AggTable::new(cfg, 0, &[]);
        let hash = 0u64;
        for k in 0..8 {
            assert!(matches!(t.insert_key(k, hash), Insert::New(_)), "k={k}");
        }
        assert_eq!(t.insert_key(99, hash), Insert::Full);
    }

    #[test]
    fn seal_splits_by_digit_and_preserves_keys() {
        let mut t = AggTable::new(small(), 0, &[]);
        let h = Murmur2::default();
        let n = 500u64;
        for k in 0..n {
            assert!(!matches!(t.insert_key(k, h.hash_u64(k)), Insert::Full));
        }
        let mut seen = Vec::new();
        let mut last_digit = None;
        t.seal(|d, keys, _cols| {
            // Digits strictly increasing; all keys belong to the digit.
            if let Some(prev) = last_digit {
                assert!(d > prev);
            }
            last_digit = Some(d);
            for &k in keys {
                assert_eq!(hsa_hash::digit(h.hash_u64(k), 0), d);
                seen.push(k);
            }
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
        // Table is reusable.
        assert!(t.is_empty());
        assert!(matches!(t.insert_key(7, h.hash_u64(7)), Insert::New(_)));
    }

    #[test]
    fn seal_emits_runs_sorted_by_hash_within_block() {
        let mut t = AggTable::new(small(), 0, &[]);
        let h = Murmur2::default();
        for k in 0..2000u64 {
            if t.insert_key(k, h.hash_u64(k)) == Insert::Full {
                break;
            }
        }
        t.seal(|d, keys, _| {
            // Home slots are hash-ordered; linear probing can displace a
            // key by at most its probe distance, which at 25% fill is tiny.
            // We assert the keys are *approximately* sorted by hash: full
            // sortedness of home slots.
            let hashes: Vec<u64> = keys.iter().map(|&k| h.hash_u64(k)).collect();
            for w in hashes.windows(2) {
                // allow local inversions from probing but not cross-block
                assert_eq!(hsa_hash::digit(w[0], 0), d);
            }
        });
    }

    #[test]
    fn state_columns_prefilled_and_reset() {
        let ids = [crate::identity_of(StateOp::Min), crate::identity_of(StateOp::Sum)];
        let mut t = AggTable::new(small(), 0, &ids);
        assert!(t.col(0).iter().all(|&s| s == u64::MAX));
        assert!(t.col(1).iter().all(|&s| s == 0));
        let h = Murmur2::default();
        let slot = match t.insert_key(5, h.hash_u64(5)) {
            Insert::New(s) => s as usize,
            other => panic!("{other:?}"),
        };
        t.col_mut(0)[slot] = 123;
        t.col_mut(1)[slot] = 456;
        let mut emitted = 0;
        t.seal(|_, keys, cols| {
            emitted += keys.len();
            assert_eq!(cols[0], vec![123]);
            assert_eq!(cols[1], vec![456]);
        });
        assert_eq!(emitted, 1);
        // Reset restored identities.
        assert!(t.col(0).iter().all(|&s| s == u64::MAX));
        assert!(t.col(1).iter().all(|&s| s == 0));
    }

    #[test]
    fn level_one_uses_second_digit() {
        let mut t = AggTable::new(small(), 1, &[]);
        // hash with digit0 = 0xAA, digit1 = 0x3C
        let hash = 0xAA3C_0000_0000_0000u64;
        assert!(matches!(t.insert_key(9, hash), Insert::New(_)));
        let mut digits = Vec::new();
        t.seal(|d, _, _| digits.push(d));
        assert_eq!(digits, vec![0x3C]);
    }

    #[test]
    fn set_level_retargets_digit() {
        let mut t = AggTable::new(small(), 0, &[]);
        t.set_level(3);
        // digit 3 of this hash is 0x5F.
        let hash = 0x5Fu64 << 32;
        assert!(matches!(t.insert_key(1, hash), Insert::New(_)));
        let mut digits = Vec::new();
        t.seal(|d, _, _| digits.push(d));
        assert_eq!(digits, vec![0x5F]);
    }

    #[test]
    fn deepest_level_still_works() {
        let mut t = AggTable::new(small(), 7, &[]);
        let h = Murmur2::default();
        for k in 0..100u64 {
            assert!(
                !matches!(t.insert_key(k, h.hash_u64(k)), Insert::Full),
                "level-7 insert failed for {k}"
            );
        }
        let mut total = 0;
        t.seal(|_, keys, _| total += keys.len());
        assert_eq!(total, 100);
    }

    #[test]
    #[should_panic(expected = "cannot re-level a non-empty table")]
    fn set_level_rejects_non_empty() {
        let mut t = AggTable::new(small(), 0, &[]);
        let _ = t.insert_key(1, 12345);
        t.set_level(1);
    }

    #[test]
    fn aggregation_through_columns_matches_reference() {
        // Full mini-pipeline: insert keys, update a SUM column via the
        // returned slots, seal, compare against a BTreeMap reference.
        let mut t = AggTable::new(small(), 0, &[crate::identity_of(StateOp::Sum)]);
        let h = Murmur2::default();
        let keys: Vec<u64> = (0..1000u64).map(|i| i % 97).collect();
        let vals: Vec<u64> = (0..1000u64).collect();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(&vals) {
            let slot = match t.insert_key(k, h.hash_u64(k)) {
                Insert::New(s) | Insert::Hit(s) => s as usize,
                Insert::Full => panic!("unexpected full"),
            };
            let s = &mut t.col_mut(0)[slot];
            *s = StateOp::Sum.apply(*s, v);
            *reference.entry(k).or_insert(0) += v;
        }
        let mut got: BTreeMap<u64, u64> = BTreeMap::new();
        t.seal(|_, keys, cols| {
            for (&k, &s) in keys.iter().zip(&cols[0]) {
                assert!(got.insert(k, s).is_none(), "duplicate group {k}");
            }
        });
        assert_eq!(got, reference);
    }

    /// A seal into slices writes exactly the groups `seal` yields, in its
    /// order, and leaves the table as `seal` does: empty, identities back.
    #[test]
    fn seal_to_writes_what_seal_emits() {
        let ids = [crate::identity_of(StateOp::Min), crate::identity_of(StateOp::Sum)];
        let h = Murmur2::default();
        let filled = || {
            let mut t = AggTable::new(small(), 0, &ids);
            let mut rng = xorshift(7);
            for _ in 0..700 {
                let k = rng() % 900;
                if let Insert::New(s) | Insert::Hit(s) = t.insert_key(k, h.hash_u64(k)) {
                    let v = rng() % 1000;
                    t.col_mut(0)[s as usize] = StateOp::Min.apply(t.col(0)[s as usize], v);
                    t.col_mut(1)[s as usize] = StateOp::Sum.apply(t.col(1)[s as usize], v);
                }
            }
            t
        };
        let (mut a, mut b) = (filled(), filled());
        let mut want = (Vec::new(), vec![Vec::new(), Vec::new()]);
        a.seal(|_, keys, cols| {
            want.0.extend_from_slice(keys);
            for (w, c) in want.1.iter_mut().zip(cols) {
                w.extend_from_slice(c);
            }
        });
        let n = b.len();
        assert_eq!(n, want.0.len());
        let (mut keys, mut c0, mut c1) = (vec![0; n], vec![0; n], vec![0; n]);
        b.seal_to(&mut keys, &mut [&mut c0, &mut c1]);
        assert_eq!((keys, vec![c0, c1]), want);
        assert!(b.is_empty());
        assert!(b.col(0).iter().all(|&s| s == u64::MAX) && b.col(1).iter().all(|&s| s == 0));
        assert!(matches!(b.insert_key(3, h.hash_u64(3)), Insert::New(_)), "reusable");

        let mut empty = AggTable::new(small(), 0, &ids);
        empty.seal_to(&mut [], &mut [&mut [], &mut []]);
        assert!(empty.is_empty());
    }

    /// Adversarial hasher: every key maps to the same hash, so probes
    /// chain through one block and overflow it.
    #[derive(Copy, Clone, Default)]
    struct ZeroHash;
    impl Hasher64 for ZeroHash {
        fn hash_u64(&self, _key: u64) -> u64 {
            0
        }

        fn hash_bytes(&self, _bytes: &[u8]) -> u64 {
            0
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// The `insert_key` loop by hand, reporting what `insert_batch`
    /// reports: (outcome, mapping).
    fn key_by_key<H: Hasher64>(
        t: &mut AggTable,
        hasher: H,
        keys: &[u64],
    ) -> (BatchInsert, Vec<u32>) {
        let mut mapping = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            match t.insert_key(key, hasher.hash_u64(key)) {
                Insert::New(s) | Insert::Hit(s) => mapping.push(s),
                Insert::Full => return (BatchInsert { consumed: i, full: true }, mapping),
            }
        }
        (BatchInsert { consumed: keys.len(), full: false }, mapping)
    }

    fn sealed_contents(t: &mut AggTable) -> Vec<(usize, Vec<u64>)> {
        let mut out = Vec::new();
        t.seal(|d, keys, _| out.push((d, keys.to_vec())));
        out
    }

    /// What a batch must have done, judged from a `BTreeMap` alone: one
    /// mapped slot per absorbed key, the same slot for every repeat of a
    /// key, no slot shared by two keys, and exactly those keys sealed.
    fn check_against_map(
        keys: &[u64],
        out: BatchInsert,
        mapping: &[u32],
        sealed: &[(usize, Vec<u64>)],
    ) {
        assert_eq!(mapping.len(), out.consumed);
        let mut slots: BTreeMap<u64, u32> = BTreeMap::new();
        for (&k, &s) in keys[..out.consumed].iter().zip(mapping) {
            assert_eq!(*slots.entry(k).or_insert(s), s, "key {k} moved slot");
        }
        let distinct: BTreeSet<u32> = slots.values().copied().collect();
        assert_eq!(distinct.len(), slots.len(), "two keys share a slot");
        let mut stored: Vec<u64> = sealed.iter().flat_map(|(_, ks)| ks.iter().copied()).collect();
        stored.sort_unstable();
        assert_eq!(stored, slots.into_keys().collect::<Vec<_>>());
    }

    #[test]
    fn insert_batch_matches_insert_key_on_random_workloads() {
        let h = Murmur2::default();
        let mut r = xorshift(0xBADC0DE);
        for round in 0..40 {
            let slots = [2 * FANOUT, 1 << 10, 1 << 12][round % 3];
            let fill = [25usize, 50, 100][(round / 3) % 3];
            let level = (round % 8) as u32;
            let cfg = TableConfig { total_slots: slots, fill_percent: fill };
            let n = (r() % 4000) as usize;
            let keys: Vec<u64> = (0..n)
                .map(|_| match r() % 4 {
                    0 => u64::MAX - r() % 3, // saturated keys
                    1 => r() % 16,           // heavy duplication
                    _ => r() % 1000,
                })
                .collect();
            let mut a = AggTable::new(cfg, level, &[]);
            let mut b = AggTable::new(cfg, level, &[]);
            a.set_metrics_enabled(true);
            b.set_metrics_enabled(true);
            let (out_a, map_a) = key_by_key(&mut a, h, &keys);
            let mut map_b = Vec::new();
            let out_b = b.insert_batch(h, &keys, KernelKind, &mut map_b);
            assert_eq!(out_a, out_b, "round {round} outcomes");
            assert_eq!(map_a, map_b, "round {round} mapping");
            assert_eq!(a.len(), b.len(), "round {round} len");
            assert_eq!(a.take_metrics(), b.take_metrics(), "round {round} metrics");
            let sealed = sealed_contents(&mut b);
            assert_eq!(sealed_contents(&mut a), sealed, "round {round} sealed runs");
            check_against_map(&keys, out_b, &map_b, &sealed);
        }
    }

    #[test]
    fn insert_batch_stops_mid_batch_where_the_table_is_full() {
        // A block overflow: ZeroHash funnels everything into block 0, whose
        // 8 slots fill while the table is nearly empty. Repeats of the 8
        // keys are still hits; the ninth distinct key stops the batch.
        let cfg = TableConfig { total_slots: FANOUT * 8, fill_percent: 100 };
        let keys: Vec<u64> = (0..8).chain([3, 5, 8]).chain(9..40).collect();
        let mut a = AggTable::new(cfg, 0, &[]);
        let mut b = AggTable::new(cfg, 0, &[]);
        let (out_a, map_a) = key_by_key(&mut a, ZeroHash, &keys);
        let mut map_b = Vec::new();
        let out_b = b.insert_batch(ZeroHash, &keys, KernelKind, &mut map_b);
        assert_eq!(out_b, BatchInsert { consumed: 10, full: true });
        assert_eq!((out_a, map_a), (out_b, map_b.clone()));
        check_against_map(&keys, out_b, &map_b, &sealed_contents(&mut b));

        // The fill limit: the capacity check comes before the walk, so
        // once 1024 groups are in, even a repeat of a stored key is refused.
        let keys: Vec<u64> = (0..1024).chain([0]).chain(1024..1100).collect();
        let mut t = AggTable::new(small(), 0, &[]);
        let mut mapping = Vec::new();
        let out = t.insert_batch(Murmur2::default(), &keys, KernelKind, &mut mapping);
        assert_eq!(out, BatchInsert { consumed: 1024, full: true });
        check_against_map(&keys, out, &mapping, &sealed_contents(&mut t));
    }

    #[test]
    fn insert_batch_distinct_matches_mapped_variant() {
        let h = Murmur2::default();
        let mut r = xorshift(77);
        let keys: Vec<u64> = (0..3000).map(|_| r() % 500).collect();
        let mut a = AggTable::new(small(), 2, &[]);
        let mut b = AggTable::new(small(), 2, &[]);
        let mut mapping = Vec::new();
        let out_a = a.insert_batch(h, &keys, KernelKind, &mut mapping);
        let out_b = b.insert_batch_distinct(h, &keys);
        assert_eq!(out_a, out_b);
        let sealed = sealed_contents(&mut a);
        assert_eq!(sealed, sealed_contents(&mut b));
        check_against_map(&keys, out_a, &mapping, &sealed);
    }

    #[test]
    fn insert_batch_resumes_after_seal() {
        // The framework's retry loop: on `full`, fold what was absorbed,
        // seal, and continue from `consumed`. Merging the sealed COUNTs
        // must give the reference counts.
        let h = Murmur2::default();
        let keys: Vec<u64> = (0..15_000u64).map(|i| i * 7 % 5000).collect();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in &keys {
            *reference.entry(k).or_insert(0) += 1;
        }
        let mut t = AggTable::new(small(), 0, &[0]);
        let mut got: BTreeMap<u64, u64> = BTreeMap::new();
        let mut merge_seal = |t: &mut AggTable| {
            t.seal(|_, ks, cols| {
                for (&k, &c) in ks.iter().zip(&cols[0]) {
                    *got.entry(k).or_insert(0) += c;
                }
            })
        };
        let (mut from, mut seals) = (0, 0);
        let mut mapping = Vec::new();
        while from < keys.len() {
            mapping.clear();
            let out = t.insert_batch(h, &keys[from..], KernelKind, &mut mapping);
            for &slot in &mapping {
                t.col_mut(0)[slot as usize] += 1;
            }
            from += out.consumed;
            if out.full {
                assert_eq!(t.len(), t.capacity(), "a batch stops only at the fill limit here");
                merge_seal(&mut t);
                seals += 1;
            }
        }
        merge_seal(&mut t);
        assert!(seals > 4, "5000 groups must overflow a 1024-group table repeatedly");
        assert_eq!(got, reference);
    }

    #[test]
    fn metrics_account_for_every_insert() {
        let mut t = AggTable::new(small(), 0, &[]);
        assert!(t.metrics().is_none(), "metrics are off by default");
        t.set_metrics_enabled(true);
        let h = Murmur2::default();
        let keys: Vec<u64> = (0..500u64).map(|i| i % 83).collect();
        let mut news = 0u64;
        for &k in &keys {
            match t.insert_key(k, h.hash_u64(k)) {
                Insert::New(_) => news += 1,
                Insert::Hit(_) => {}
                Insert::Full => panic!("unexpected full"),
            }
        }
        let m = t.take_metrics().expect("enabled");
        assert_eq!(m.inserts, keys.len() as u64);
        assert_eq!(m.probe_len.count(), keys.len() as u64);
        assert_eq!(m.displacement.count(), news);
        assert_eq!(m.probe_steps, m.probe_len.sum());
        // take_metrics leaves a fresh collector in place while enabled.
        let fresh = t.metrics().expect("still enabled");
        assert_eq!(fresh.inserts, 0);
        t.set_metrics_enabled(false);
        assert!(t.metrics().is_none());
    }
}
