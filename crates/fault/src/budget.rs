//! Shared atomic memory accounting with RAII release.

use crate::account::Account;
use crate::error::AggError;
use std::sync::Arc;

/// A shared memory budget: every structure that grows reserves its bytes
/// here *before* allocating and releases them when it is dropped.
///
/// Cloning shares the underlying account. The unlimited budget is a
/// `None` — reservation against it is a null check plus constructing a
/// no-op [`Reservation`], so the infallible fast path pays nothing
/// measurable.
///
/// Accounting is advisory, not an allocator hook: sites reserve their
/// *payload* bytes (8 bytes per u64 of keys, state columns, and table
/// slots). Container capacity rounding and small fixed overheads are not
/// tracked; the invariant that matters is that reservations are balanced —
/// whatever an invocation reserves is released by the time it returns,
/// on every path including errors, cancellation, and contained panics.
#[derive(Clone, Debug, Default)]
pub struct MemoryBudget {
    inner: Option<Arc<Account>>,
}

impl MemoryBudget {
    /// No limit; all accounting is skipped.
    pub fn unlimited() -> Self {
        Self { inner: None }
    }

    /// A budget of `limit_bytes` shared by all clones.
    pub fn limited(limit_bytes: u64) -> Self {
        Self { inner: Some(Arc::new(Account::new(limit_bytes))) }
    }

    /// The limit in bytes (`None` when unlimited).
    pub fn limit(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.limit())
    }

    /// Bytes currently reserved (0 when unlimited). After an operator
    /// invocation returns — `Ok` or `Err` — this is back to whatever it
    /// was before the call; the fault-injection suite asserts it.
    pub fn outstanding(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.outstanding())
    }

    /// Highest concurrently reserved byte count this budget ever saw
    /// (0 when unlimited — an unlimited budget tracks nothing). Monotonic
    /// over the budget's lifetime; read it after the operator has
    /// returned to learn the run's peak accounted footprint.
    pub fn high_water(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.high_water())
    }

    /// Reservations denied so far (0 when unlimited).
    pub fn denials(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.denials())
    }

    /// Reserve `bytes`, failing with [`AggError::BudgetExceeded`] if the
    /// limit would be crossed. The returned [`Reservation`] releases the
    /// bytes when dropped.
    pub fn try_reserve(&self, bytes: u64) -> Result<Reservation, AggError> {
        let Some(inner) = &self.inner else {
            return Ok(Reservation { budget: None, bytes });
        };
        match inner.try_add(bytes) {
            Ok(()) => Ok(Reservation { budget: Some(Arc::clone(inner)), bytes }),
            Err(d) => Err(AggError::BudgetExceeded {
                requested: bytes,
                limit: d.limit,
                reserved: d.reserved,
            }),
        }
    }
}

/// A granted memory reservation. Releases its bytes back to the budget on
/// drop — including unwinds and cancelled tasks — so accounting can never
/// leak. Attach one to the structure whose bytes it covers and let
/// ownership do the bookkeeping.
#[derive(Debug, Default)]
pub struct Reservation {
    budget: Option<Arc<Account>>,
    bytes: u64,
}

impl Reservation {
    /// A zero-byte reservation against no budget (useful as a neutral
    /// element for [`Reservation::merge`]).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Bytes this reservation covers.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Fold `other` into `self`. Both must come from the same budget (or
    /// either side from none); the merged reservation releases the sum.
    pub fn merge(&mut self, other: Reservation) {
        debug_assert!(
            match (&self.budget, &other.budget) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => true,
            },
            "merging reservations from different budgets"
        );
        if self.budget.is_none() {
            self.budget = other.budget.clone();
        }
        self.bytes += other.bytes;
        // `other`'s release is now self's responsibility.
        let mut other = other;
        other.budget = None;
        other.bytes = 0;
    }

    /// Split off up to `bytes` into a new reservation (saturating at what
    /// is left). Lets a pass reserve once up front and hand per-run slices
    /// of the grant to the runs it emits.
    pub fn take(&mut self, bytes: u64) -> Reservation {
        let granted = bytes.min(self.bytes);
        self.bytes -= granted;
        Reservation { budget: self.budget.clone(), bytes: granted }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if let Some(account) = &self.budget {
            account.sub(self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_grants() {
        let b = MemoryBudget::unlimited();
        assert_eq!(b.limit(), None);
        let r = b.try_reserve(u64::MAX).unwrap();
        assert_eq!(r.bytes(), u64::MAX);
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn limited_budget_grants_and_releases() {
        let b = MemoryBudget::limited(100);
        let r1 = b.try_reserve(60).unwrap();
        assert_eq!(b.outstanding(), 60);
        let denied = b.try_reserve(50);
        assert_eq!(
            denied.unwrap_err(),
            AggError::BudgetExceeded { requested: 50, limit: 100, reserved: 60 }
        );
        assert_eq!(b.denials(), 1);
        drop(r1);
        assert_eq!(b.outstanding(), 0);
        let _r2 = b.try_reserve(100).unwrap();
        assert_eq!(b.outstanding(), 100);
    }

    #[test]
    fn clones_share_the_account() {
        let b = MemoryBudget::limited(10);
        let b2 = b.clone();
        let _r = b.try_reserve(8).unwrap();
        assert_eq!(b2.outstanding(), 8);
        assert!(b2.try_reserve(4).is_err());
    }

    #[test]
    fn merge_combines_release() {
        let b = MemoryBudget::limited(100);
        let mut r = b.try_reserve(10).unwrap();
        r.merge(b.try_reserve(20).unwrap());
        r.merge(Reservation::empty());
        assert_eq!(r.bytes(), 30);
        assert_eq!(b.outstanding(), 30);
        drop(r);
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn take_splits_without_double_release() {
        let b = MemoryBudget::limited(100);
        let mut r = b.try_reserve(50).unwrap();
        let part = r.take(20);
        assert_eq!(part.bytes(), 20);
        assert_eq!(r.bytes(), 30);
        assert_eq!(b.outstanding(), 50);
        drop(part);
        assert_eq!(b.outstanding(), 30);
        let over = r.take(100);
        assert_eq!(over.bytes(), 30, "take saturates at the remainder");
        drop(over);
        drop(r);
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn release_happens_on_unwind() {
        let b = MemoryBudget::limited(100);
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
        let b = MemoryBudget::limited(1000);
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
    }

    #[test]
    fn high_water_is_the_peak_not_the_balance() {
        let b = MemoryBudget::limited(100);
        assert_eq!(b.high_water(), 0);
        let r1 = b.try_reserve(60).unwrap();
        let r2 = b.try_reserve(30).unwrap();
        assert_eq!(b.high_water(), 90);
        drop(r1);
        drop(r2);
        assert_eq!(b.outstanding(), 0);
        // The mark survives release and only moves up.
        let _r3 = b.try_reserve(40).unwrap();
        assert_eq!(b.high_water(), 90);
        assert_eq!(MemoryBudget::unlimited().high_water(), 0);
    }

    #[test]
    fn high_water_under_contention_is_bounded_and_reached() {
        let b = MemoryBudget::limited(1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Ok(_r) = b.try_reserve(125) {
                            assert!(b.high_water() <= 1000);
                        }
                    }
                });
            }
        });
        // Every grant raised the mark at least to its own new balance.
        assert!(b.high_water() >= 125);
        assert!(b.high_water() <= 1000);
    }
}
