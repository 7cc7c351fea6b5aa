//! Shared atomic spill-disk accounting with RAII release.
//!
//! The disk mirror of [`crate::MemoryBudget`]: spill writes reserve their
//! file's bytes here *before* touching the filesystem, so a bounded spill
//! directory degrades exactly like a bounded heap — with a typed
//! [`AggError::DiskBudgetExceeded`] instead of a mid-write `ENOSPC`
//! panic — and the reservation rides the spilled run, releasing when the
//! scratch file is deleted.

use crate::account::Account;
use crate::error::AggError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared spill-disk budget. Cloning shares the account; the unlimited
/// budget is a `None` and costs a null check per spill.
///
/// Accounting covers the exact on-disk size of each spill file (the
/// writer computes it up front), so `outstanding()` is the live spill
/// footprint in bytes. The balance invariant matches the memory budget:
/// whatever an operator invocation reserves is released by the time its
/// runs are dropped, on every path including errors.
#[derive(Clone, Debug, Default)]
pub struct DiskBudget {
    inner: Option<Arc<Account>>,
}

impl DiskBudget {
    /// No limit; all accounting is skipped.
    pub fn unlimited() -> Self {
        Self { inner: None }
    }

    /// A budget of `limit_bytes` of spill space shared by all clones.
    pub fn limited(limit_bytes: u64) -> Self {
        Self { inner: Some(Arc::new(Account::new(limit_bytes))) }
    }

    /// The limit in bytes (`None` when unlimited).
    pub fn limit(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.limit())
    }

    /// Bytes currently reserved (0 when unlimited). Balanced back to its
    /// pre-invocation value once every spilled run is dropped; the chaos
    /// suite asserts it.
    pub fn outstanding(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.outstanding())
    }

    /// Highest concurrently reserved byte count this budget ever saw
    /// (0 when unlimited). Monotonic: the peak on-disk spill footprint.
    pub fn high_water(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.high_water())
    }

    /// Reservations denied so far (0 when unlimited).
    pub fn denials(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.denials())
    }

    /// Reserve `bytes` of spill space, failing with
    /// [`AggError::DiskBudgetExceeded`] if the limit would be crossed.
    /// The returned [`DiskReservation`] releases the bytes when dropped.
    pub fn try_reserve(&self, bytes: u64) -> Result<DiskReservation, AggError> {
        let Some(inner) = &self.inner else {
            return Ok(DiskReservation { budget: None, bytes: AtomicU64::new(bytes) });
        };
        match inner.try_add(bytes) {
            Ok(()) => Ok(DiskReservation {
                budget: Some(Arc::clone(inner)),
                bytes: AtomicU64::new(bytes),
            }),
            Err(d) => Err(AggError::DiskBudgetExceeded {
                requested: bytes,
                limit: d.limit,
                reserved: d.reserved,
            }),
        }
    }
}

/// A granted spill-space reservation. Releases its bytes on drop —
/// attach it to the spilled run whose file it covers so deleting the
/// scratch file and returning the disk space are the same event.
///
/// The covered byte count is interiorly mutable (only downward, via
/// [`shrink_to`](Self::shrink_to)) so an async spill writer can reserve a
/// compressed file's *upper bound* synchronously — keeping
/// [`AggError::DiskBudgetExceeded`] a submit-time error — and return the
/// difference once the actual encoded size is known.
#[derive(Debug, Default)]
pub struct DiskReservation {
    budget: Option<Arc<Account>>,
    bytes: AtomicU64,
}

impl DiskReservation {
    /// A zero-byte reservation against no budget.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Bytes this reservation currently covers.
    pub fn bytes(&self) -> u64 {
        // ORDERING: Acquire; site: count; pairs-with: bytes.shrink —
        // a reader that learned of the shrink (e.g. through a spill
        // ticket) sees the reduced count.
        self.bytes.load(Ordering::Acquire)
    }

    /// Shrink this reservation to `new_bytes`, returning the difference
    /// to the budget immediately (the drop will release only the
    /// remainder). Growing is not allowed — that would bypass the
    /// budget's limit check — so a larger `new_bytes` is a no-op.
    pub fn shrink_to(&self, new_bytes: u64) {
        // ORDERING: AcqRel; site: shrink; pairs-with: bytes.count —
        // the min-RMW both takes the previous count exactly once (so
        // racing shrinkers release each byte at most once) and publishes
        // the new one to `bytes()` readers.
        let old = self.bytes.fetch_min(new_bytes, Ordering::AcqRel);
        let released = old.saturating_sub(new_bytes);
        if released > 0 {
            if let Some(account) = &self.budget {
                account.sub(released);
            }
        }
    }
}

impl Drop for DiskReservation {
    fn drop(&mut self) {
        if let Some(account) = &self.budget {
            // `get_mut` on the count needs no ordering: drop has exclusive
            // access.
            account.sub(*self.bytes.get_mut());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_grants() {
        let b = DiskBudget::unlimited();
        assert_eq!(b.limit(), None);
        let r = b.try_reserve(u64::MAX).unwrap();
        assert_eq!(r.bytes(), u64::MAX);
        assert_eq!(b.outstanding(), 0);
        assert_eq!(b.high_water(), 0);
    }

    #[test]
    fn limited_budget_grants_denies_and_releases() {
        let b = DiskBudget::limited(100);
        let r1 = b.try_reserve(60).unwrap();
        assert_eq!(b.outstanding(), 60);
        let denied = b.try_reserve(50);
        assert_eq!(
            denied.unwrap_err(),
            AggError::DiskBudgetExceeded { requested: 50, limit: 100, reserved: 60 }
        );
        assert_eq!(b.denials(), 1);
        drop(r1);
        assert_eq!(b.outstanding(), 0);
        assert_eq!(b.high_water(), 60);
    }

    #[test]
    fn shrinking_returns_the_difference_and_never_grows() {
        let b = DiskBudget::limited(100);
        let r = b.try_reserve(80).unwrap();
        r.shrink_to(30);
        assert_eq!(r.bytes(), 30);
        assert_eq!(b.outstanding(), 30, "the difference is returned immediately");
        // Growing is refused: the budget's limit check cannot be bypassed.
        r.shrink_to(90);
        assert_eq!(r.bytes(), 30);
        assert_eq!(b.outstanding(), 30);
        r.shrink_to(0);
        assert_eq!(b.outstanding(), 0);
        drop(r);
        assert_eq!(b.outstanding(), 0, "drop releases only the remainder");
        assert_eq!(b.high_water(), 80, "the peak saw the nominal reservation");
        // Unlimited reservations shrink without accounting.
        let r = DiskBudget::unlimited().try_reserve(64).unwrap();
        r.shrink_to(8);
        assert_eq!(r.bytes(), 8);
    }

    #[test]
    fn clones_share_the_account() {
        let b = DiskBudget::limited(10);
        let b2 = b.clone();
        let _r = b.try_reserve(8).unwrap();
        assert_eq!(b2.outstanding(), 8);
        assert!(b2.try_reserve(4).is_err());
    }

    #[test]
    fn release_happens_on_unwind() {
        let b = DiskBudget::limited(100);
        let b2 = b.clone();
        let result = std::panic::catch_unwind(move || {
            let _r = b2.try_reserve(70).unwrap();
            panic!("boom");
        });
        assert!(result.is_err());
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn concurrent_reservations_stay_within_limit() {
        let b = DiskBudget::limited(1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Ok(r) = b.try_reserve(7) {
                            assert!(b.outstanding() <= 1000);
                            drop(r);
                        }
                    }
                });
            }
        });
        assert_eq!(b.outstanding(), 0);
        assert!(b.high_water() <= 1000);
    }
}
