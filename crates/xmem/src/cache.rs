//! A set-associative, write-back, write-allocate LRU cache simulator.
//!
//! Used to *measure* the cache-line transfers of the instrumented
//! aggregation algorithms in [`crate::traced`] rather than only deriving
//! them on paper. Addresses are byte addresses in a simulated flat address
//! space; the simulator tracks tags only, never data.

/// Transfer statistics; a "transfer" in the external memory model is a line
/// moved between cache and memory, i.e. `misses + writebacks`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit a cached line.
    pub hits: u64,
    /// Accesses that missed and loaded a line from memory.
    pub misses: u64,
    /// Dirty lines written back to memory on eviction or flush.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total line transfers (the quantity the §2 formulas count).
    pub fn transfers(&self) -> u64 {
        self.misses + self.writebacks
    }
}

#[derive(Copy, Clone, Debug)]
struct Line {
    tag: u64,
    dirty: bool,
    /// Monotone counter value of the last touch; smallest = LRU victim.
    last_used: u64,
}

/// The simulator.
#[derive(Clone, Debug)]
pub struct CacheSim {
    line_bytes: u64,
    n_sets: u64,
    ways: usize,
    sets: Vec<Vec<Line>>,
    clock: u64,
    stats: CacheStats,
}

impl CacheSim {
    /// Build a cache of `capacity_bytes` split into `ways`-associative sets
    /// of `line_bytes` lines. Capacity must divide evenly and the set count
    /// must be a power of two.
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways >= 1);
        assert_eq!(
            capacity_bytes % (line_bytes * ways as u64),
            0,
            "capacity must be a multiple of line_bytes * ways"
        );
        let n_sets = capacity_bytes / (line_bytes * ways as u64);
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Self {
            line_bytes,
            n_sets,
            ways,
            sets: vec![Vec::with_capacity(ways); n_sets as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// A fully associative cache of `capacity_bytes`, the closest concrete
    /// machine to the idealized external memory model.
    pub fn fully_associative(capacity_bytes: u64, line_bytes: u64) -> Self {
        let ways = (capacity_bytes / line_bytes) as usize;
        Self::new(capacity_bytes, line_bytes, ways)
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Simulate one access of any width contained in a single line.
    pub fn access(&mut self, addr: u64, write: bool) {
        self.clock += 1;
        let line_no = addr / self.line_bytes;
        let set_ix = (line_no & (self.n_sets - 1)) as usize;
        let tag = line_no >> self.n_sets.trailing_zeros();
        let set = &mut self.sets[set_ix];

        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            self.stats.hits += 1;
            line.last_used = self.clock;
            line.dirty |= write;
            return;
        }

        self.stats.misses += 1;
        if set.len() == self.ways {
            // Evict the least recently used way.
            if let Some(victim_ix) =
                set.iter().enumerate().min_by_key(|(_, l)| l.last_used).map(|(i, _)| i)
            {
                let victim = set.swap_remove(victim_ix);
                if victim.dirty {
                    self.stats.writebacks += 1;
                }
            }
        }
        set.push(Line { tag, dirty: write, last_used: self.clock });
    }

    /// Read `bytes` starting at `addr`, touching every line in the range.
    pub fn read(&mut self, addr: u64, bytes: u64) {
        self.touch_range(addr, bytes, false);
    }

    /// Write `bytes` starting at `addr`, touching every line in the range.
    pub fn write(&mut self, addr: u64, bytes: u64) {
        self.touch_range(addr, bytes, true);
    }

    fn touch_range(&mut self, addr: u64, bytes: u64, write: bool) {
        let first = addr / self.line_bytes;
        let last = (addr + bytes.max(1) - 1) / self.line_bytes;
        for line in first..=last {
            self.access(line * self.line_bytes, write);
        }
    }

    /// Write back all dirty lines (end-of-run accounting) and empty the
    /// cache. Returns the number of lines flushed.
    pub fn flush(&mut self) -> u64 {
        let mut flushed = 0;
        for set in &mut self.sets {
            for line in set.drain(..) {
                if line.dirty {
                    self.stats.writebacks += 1;
                    flushed += 1;
                }
            }
        }
        flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut c = CacheSim::new(4096, 64, 4);
        for i in 0..1024u64 {
            c.read(i * 8, 8);
        }
        // 1024 × 8 B = 8192 B = 128 lines.
        assert_eq!(c.stats().misses, 128);
        assert_eq!(c.stats().hits, 1024 - 128);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = CacheSim::new(4096, 64, 4);
        for round in 0..10 {
            for i in 0..64u64 {
                c.read(i * 64, 8);
            }
            if round == 0 {
                assert_eq!(c.stats().misses, 64);
            }
        }
        assert_eq!(c.stats().misses, 64, "steady state must be all hits");
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = CacheSim::new(128, 64, 1); // 2 sets, direct mapped
        c.write(0, 8); // set 0
        c.write(128, 8); // set 0 again -> evicts dirty line 0
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = CacheSim::new(128, 64, 2); // 1 set, 2 ways
        c.read(0, 8); // A
        c.read(64, 8); // B
        c.read(0, 8); // touch A
        c.read(128, 8); // C evicts B (LRU)
        c.read(0, 8); // A must still hit
        let s = c.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn flush_writes_back_dirty_lines_only() {
        let mut c = CacheSim::new(4096, 64, 4);
        c.write(0, 64);
        c.write(64, 64);
        c.read(128, 64);
        assert_eq!(c.flush(), 2);
        assert_eq!(c.stats().writebacks, 2);
    }

    #[test]
    fn range_access_spans_lines() {
        let mut c = CacheSim::new(4096, 64, 4);
        c.read(60, 8); // straddles the line boundary at 64
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn fully_associative_has_one_set() {
        let c = CacheSim::fully_associative(4096, 64);
        assert_eq!(c.n_sets, 1);
        assert_eq!(c.ways, 64);
    }

    #[test]
    fn transfers_is_misses_plus_writebacks() {
        let s = CacheStats { hits: 10, misses: 4, writebacks: 3 };
        assert_eq!(s.transfers(), 7);
    }
}
