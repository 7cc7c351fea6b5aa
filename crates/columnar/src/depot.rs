//! The chunk depot: one process-wide recycling layer for the chunks every
//! [`ChunkedVec`](crate::ChunkedVec) is built from.
//!
//! A query materializes its runs in chunks of the seven capacities of the
//! list-of-arrays ramp (64, 128, …, 4096 `u64`s), and frees most of them
//! on another thread than the one that filled them: a level-0 worker
//! fills a partition, whichever worker runs the level-1 bucket drops it.
//! Handed to the allocator, such chunks strand in the freeing thread's
//! arena and the next query faults in fresh pages. The depot keeps them
//! instead: one shelf per capacity, shared by all threads under one
//! short lock, so a chunk freed anywhere is the next chunk lent anywhere.
//!
//! Chunks are lent through a query's [`DepotAccount`], which counts what
//! the query took (recycled or freshly allocated), what it gave back, and
//! the bytes it held at its high water. A lent chunk stays charged to its
//! query's memory budget through the reservation of the run it belongs
//! to; an idle chunk on a shelf is charged to no query.
//!
//! The depot sizes itself: when a query closes its account, idle chunks
//! are freed, smallest first, until idle plus lent bytes are no more than
//! the bytes lent at the high water since the previous trim. A process
//! that repeats a large query keeps what that query needs; a small query
//! after it gives back what the large one left.

use crate::chunked::{DEFAULT_CHUNK_LEN, MIN_CHUNK_LEN};
use crate::io::lock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shelves, one per capacity of the ramp: `MIN_CHUNK_LEN << class`.
const CLASSES: usize = (DEFAULT_CHUNK_LEN / MIN_CHUNK_LEN).trailing_zeros() as usize + 1;

/// The shelf a chunk of `capacity` belongs on, if any.
fn class(capacity: usize) -> Option<usize> {
    let on_ramp =
        capacity.is_power_of_two() && (MIN_CHUNK_LEN..=DEFAULT_CHUNK_LEN).contains(&capacity);
    on_ramp.then(|| (capacity / MIN_CHUNK_LEN).trailing_zeros() as usize)
}

/// Heap bytes of a chunk of `capacity` values.
fn bytes(capacity: usize) -> u64 {
    (capacity * std::mem::size_of::<u64>()) as u64
}

/// The process-wide state behind the lock.
struct Shelves {
    idle: [Vec<Vec<u64>>; CLASSES],
    idle_bytes: u64,
    lent_bytes: u64,
    /// Most bytes lent at once since the last trim.
    high_water: u64,
}

static DEPOT: Mutex<Shelves> = Mutex::new(Shelves {
    idle: [const { Vec::new() }; CLASSES],
    idle_bytes: 0,
    lent_bytes: 0,
    high_water: 0,
});

/// Accounts closed with chunks still lent (see [`unbalanced_closes`]).
static UNBALANCED: AtomicU64 = AtomicU64::new(0);

/// What one query's chunks did at the depot.
#[derive(Debug, Default)]
struct Tally {
    hits: AtomicU64,
    fresh: AtomicU64,
    returned: AtomicU64,
    lent_bytes: AtomicU64,
    high_water: AtomicU64,
}

/// The account a query's chunks are lent through. Clones share the
/// tally; the default account lends and takes back like any other but
/// tallies nothing (one-off vectors outside a query).
#[derive(Clone, Debug, Default)]
pub struct DepotAccount {
    tally: Option<Arc<Tally>>,
}

/// A snapshot of one account's tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepotUsage {
    /// Chunks lent from a shelf.
    pub hits: u64,
    /// Chunks lent freshly allocated (their shelf was empty).
    pub fresh: u64,
    /// Chunks given back.
    pub returned: u64,
    /// Most bytes the account held lent at once.
    pub lent_high_water_bytes: u64,
}

impl DepotUsage {
    /// Chunks lent and not yet given back.
    pub fn outstanding(&self) -> u64 {
        (self.hits + self.fresh).saturating_sub(self.returned)
    }
}

impl DepotAccount {
    /// A fresh account with its own tally: one per query.
    pub fn open() -> Self {
        Self { tally: Some(Arc::default()) }
    }

    /// Lend an empty chunk of exactly `capacity` values: a recycled one
    /// when its shelf has any, else a fresh allocation.
    pub(crate) fn take(&self, capacity: usize) -> Vec<u64> {
        let size = bytes(capacity);
        let recycled = {
            let mut depot = lock(&DEPOT);
            depot.lent_bytes += size;
            depot.high_water = depot.high_water.max(depot.lent_bytes);
            let chunk = class(capacity).and_then(|c| depot.idle[c].pop());
            if chunk.is_some() {
                depot.idle_bytes -= size;
            }
            // The tally moves under the lock with the depot's own count:
            // outside it, a give on one worker and a take on another can
            // reach the tally in the other order, and a query alone in the
            // process would read a lower high water than the depot trims to.
            if let Some(t) = &self.tally {
                let counter = if chunk.is_some() { &t.hits } else { &t.fresh };
                // ORDERING: Relaxed — tally counters, written under the
                // depot lock; the account's reader runs after the query's
                // scopes joined.
                counter.fetch_add(1, Ordering::Relaxed);
                // ORDERING: Relaxed — see above.
                let held = t.lent_bytes.fetch_add(size, Ordering::Relaxed) + size;
                // ORDERING: Relaxed — see above.
                t.high_water.fetch_max(held, Ordering::Relaxed);
            }
            chunk
        };
        recycled.unwrap_or_else(|| Vec::with_capacity(capacity))
    }

    /// Take back chunks this account lent, under one lock. Their
    /// contents are dropped; a chunk of no ramp capacity goes to the
    /// allocator, after the lock is released.
    pub(crate) fn give(&self, chunks: impl IntoIterator<Item = Vec<u64>>) {
        let mut chunks = chunks.into_iter().filter(|c| c.capacity() > 0).peekable();
        if chunks.peek().is_none() {
            return;
        }
        let (mut count, mut size, mut off_ramp) = (0, 0, Vec::new());
        {
            let mut depot = lock(&DEPOT);
            for mut chunk in chunks {
                let chunk_bytes = bytes(chunk.capacity());
                (count, size) = (count + 1, size + chunk_bytes);
                chunk.clear();
                match class(chunk.capacity()) {
                    Some(c) => {
                        depot.idle_bytes += chunk_bytes;
                        depot.idle[c].push(chunk);
                    }
                    None => off_ramp.push(chunk),
                }
            }
            depot.lent_bytes = depot.lent_bytes.saturating_sub(size);
            if let Some(t) = &self.tally {
                // ORDERING: Relaxed — see `take`.
                t.returned.fetch_add(count, Ordering::Relaxed);
                // ORDERING: Relaxed — see `take`.
                t.lent_bytes.fetch_sub(size, Ordering::Relaxed);
            }
        }
        drop(off_ramp);
    }

    /// The tally so far (all zeros for the default account).
    pub fn usage(&self) -> DepotUsage {
        let Some(t) = &self.tally else { return DepotUsage::default() };
        // ORDERING: Relaxed — see `take`.
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DepotUsage {
            hits: read(&t.hits),
            fresh: read(&t.fresh),
            returned: read(&t.returned),
            lent_high_water_bytes: read(&t.high_water),
        }
    }

    /// The query is over and everything it built is gone: count the
    /// account as unbalanced if a chunk it lent was never given back,
    /// then trim the depot.
    pub fn close(&self) {
        if self.usage().outstanding() > 0 {
            // ORDERING: Relaxed — a count checkers read after the
            // queries that bump it have returned.
            UNBALANCED.fetch_add(1, Ordering::Relaxed);
        }
        trim();
    }
}

/// Free idle chunks, smallest first, until idle plus lent bytes are no
/// more than the bytes lent at the high water since the previous trim;
/// the high water then starts again from what is lent now. A shelf left
/// empty frees its own buffer too, so a process of small queries keeps
/// no more than the chunks its last query lent.
///
/// Smallest first because a query that needs more than the last one
/// allocates the difference afresh: small chunks fit the holes any
/// allocator arena has, while a freed 32 KiB chunk waits in the arena of
/// the thread that first allocated it for a request of its own size —
/// which may come from another thread. On `lib_spread`, whose high water
/// swings by a sixth from query to query, freeing the largest first
/// stranded about 25 MiB more.
fn trim() {
    let (mut freed, mut empty_shelves) = (Vec::new(), Vec::new());
    {
        let mut depot = lock(&DEPOT);
        let keep = depot.high_water.saturating_sub(depot.lent_bytes);
        for c in 0..CLASSES {
            while depot.idle_bytes > keep {
                let Some(chunk) = depot.idle[c].pop() else { break };
                depot.idle_bytes -= bytes(chunk.capacity());
                freed.push(chunk);
            }
            if depot.idle[c].is_empty() {
                empty_shelves.push(std::mem::take(&mut depot.idle[c]));
            }
        }
        depot.high_water = depot.lent_bytes;
    }
    // The allocator is called outside the lock.
    drop((freed, empty_shelves));
}

/// Bytes of the chunks on the shelves, lent to nobody.
pub fn idle_bytes() -> u64 {
    lock(&DEPOT).idle_bytes
}

/// Accounts closed, since the process started, while a chunk they lent
/// was still out: zero unless some structure outlived its query.
pub fn unbalanced_closes() -> u64 {
    // ORDERING: Relaxed — see `DepotAccount::close`.
    UNBALANCED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ramp_has_seven_shelves() {
        assert_eq!(CLASSES, 7);
        let shelves: Vec<_> = (0..CLASSES).map(|c| class(MIN_CHUNK_LEN << c)).collect();
        assert_eq!(shelves, (0..CLASSES).map(Some).collect::<Vec<_>>());
        for off_ramp in [0, 1, 32, 96, 8192] {
            assert_eq!(class(off_ramp), None, "{off_ramp}");
        }
    }

    #[test]
    fn an_account_tallies_what_it_lends_and_takes_back() {
        let account = DepotAccount::open();
        let a = account.take(64);
        let b = account.take(4096);
        assert_eq!((a.capacity(), b.capacity()), (64, 4096));
        let usage = account.usage();
        assert_eq!(usage.hits + usage.fresh, 2);
        assert_eq!(usage.outstanding(), 2);
        assert_eq!(usage.lent_high_water_bytes, 8 * (64 + 4096));
        account.give([a, b]);
        let usage = account.usage();
        assert_eq!((usage.returned, usage.outstanding()), (2, 0));
        // Closing a balanced account counts nothing (other tests in this
        // process may close unbalanced ones only through a bug).
        let before = unbalanced_closes();
        account.close();
        assert_eq!(unbalanced_closes(), before);
        assert_eq!(DepotAccount::default().usage(), DepotUsage::default());
    }
}
