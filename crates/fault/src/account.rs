//! The limited account under both budgets.
//!
//! [`crate::MemoryBudget`] and [`crate::DiskBudget`] are two faces over the
//! same four cells and the same lock-free protocol: a reserve is a CAS
//! loop on `reserved` that refuses to cross `limit`, a release is a
//! subtraction, and `denials` / `high_water` are statistics on the side.
//! The faces differ only in what they account (heap payload bytes, spill
//! file bytes), in their reservation types, and in the typed error a
//! refusal becomes — so the protocol and its `ORDERING:` annotations live
//! here, once.

use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug)]
pub(crate) struct Account {
    /// Hard limit in bytes.
    limit: u64,
    /// Bytes currently reserved.
    reserved: AtomicU64,
    /// Reservations denied over the account's lifetime.
    denials: AtomicU64,
    /// Highest value `reserved` ever reached (monotonic).
    high_water: AtomicU64,
}

/// A refused [`Account::try_add`]: the balance the request was judged
/// against (the face adds what was requested and names the error).
pub(crate) struct Denied {
    pub(crate) limit: u64,
    pub(crate) reserved: u64,
}

impl Account {
    pub(crate) fn new(limit: u64) -> Self {
        Self {
            limit,
            reserved: AtomicU64::new(0),
            denials: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    pub(crate) fn limit(&self) -> u64 {
        self.limit
    }

    /// Bytes currently reserved.
    pub(crate) fn outstanding(&self) -> u64 {
        // ORDERING: Acquire; site: balance; pairs-with: reserved.rmw —
        // a balance observed after an operator returns reflects every
        // reservation that operator made and dropped.
        self.reserved.load(Ordering::Acquire)
    }

    /// Highest concurrently reserved byte count the account ever saw.
    pub(crate) fn high_water(&self) -> u64 {
        // ORDERING: Relaxed — a monotonic statistic read after the fact;
        // no other memory is published through it.
        self.high_water.load(Ordering::Relaxed)
    }

    /// Reservations denied so far.
    pub(crate) fn denials(&self) -> u64 {
        // ORDERING: Relaxed — a monotonic statistics counter; no other
        // memory is published through it.
        self.denials.load(Ordering::Relaxed)
    }

    /// Add `bytes` to the balance unless that would cross the limit.
    pub(crate) fn try_add(&self, bytes: u64) -> Result<(), Denied> {
        // ORDERING: Relaxed — only a hint seeding the CAS loop; the
        // compare_exchange below revalidates against the real value.
        let mut current = self.reserved.load(Ordering::Relaxed);
        loop {
            let new = current.saturating_add(bytes);
            if new > self.limit {
                // ORDERING: Relaxed — statistics counter (see `denials`).
                self.denials.fetch_add(1, Ordering::Relaxed);
                return Err(Denied { limit: self.limit, reserved: current });
            }
            // ORDERING: AcqRel/Relaxed; site: rmw; pairs-with: reserved.balance —
            // success chains reserve/release RMWs into a single
            // modification order the Acquire readers observe; the failed
            // side only retries, the value is not acted on.
            match self.reserved.compare_exchange_weak(
                current,
                new,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // ORDERING: Relaxed — a monotonic statistic (see
                    // `high_water`); no ordering with the reserve CAS
                    // above is needed.
                    self.high_water.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Return `bytes` to the balance.
    pub(crate) fn sub(&self, bytes: u64) {
        // ORDERING: AcqRel; site: rmw; pairs-with: reserved.balance —
        // the release side of the reserve CAS; an Acquire read of the
        // balance afterwards sees the bytes returned (`outstanding() == 0`
        // after drops is asserted by the fault and chaos suites).
        self.reserved.fetch_sub(bytes, Ordering::AcqRel);
    }
}
