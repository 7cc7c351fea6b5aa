//! Thin poison-ignoring wrappers over `std::sync` primitives.
//!
//! The pool contains panics with `catch_unwind` and re-raises them once the
//! scope has quiesced, so a poisoned mutex carries no extra information —
//! every lock site would just call `unwrap_or_else(PoisonError::into_inner)`.
//! These wrappers centralize that and give `Condvar` a `wait_for` that keeps
//! the guard, mirroring the call shape the pool wants.

use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutex whose `lock` never fails: poisoning is ignored (see module docs).
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wrap `value` in a new mutex.
    pub fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Condition variable matching [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// New condition variable.
    pub fn new() -> Self {
        Self(sync::Condvar::new())
    }

    /// Wait on `guard` for at most `timeout`, reacquiring the lock into the
    /// same guard binding before returning.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        // Safety note: this is plain safe code — we temporarily move the
        // guard out and back via the Option dance the std API requires.
        take_mut(guard, |g| {
            self.0.wait_timeout(g, timeout).unwrap_or_else(PoisonError::into_inner).0
        });
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Replace `*slot` with `f(*slot)` for a non-`Default` type, aborting on
/// panic in `f` (the closure only calls `wait_timeout`, which does not
/// panic; the abort guard is the cost of not having `replace_with`).
fn take_mut<T>(slot: &mut T, f: impl FnOnce(T) -> T) {
    struct AbortOnDrop;
    impl Drop for AbortOnDrop {
        fn drop(&mut self) {
            std::process::abort();
        }
    }
    let guard = AbortOnDrop;
    // SAFETY: `slot` is a valid, exclusively borrowed `T`. The value is
    // moved out by `read` and a replacement is always written back before
    // the borrow ends; if `f` panics in between, the guard aborts the
    // process so the double-drop can never be observed.
    unsafe {
        let old = std::ptr::read(slot);
        let new = f(old);
        std::ptr::write(slot, new);
    }
    // Disarms the abort guard — a zero-sized type with nothing to release.
    #[allow(clippy::mem_forget)]
    std::mem::forget(guard);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let t0 = Instant::now();
        cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(t0.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn condvar_wakes_waiter() {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (m.clone(), cv.clone());
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                cv2.wait_for(&mut g, Duration::from_millis(50));
            }
        });
        *m.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn lock_survives_poison() {
        let m = Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 1);
    }
}
