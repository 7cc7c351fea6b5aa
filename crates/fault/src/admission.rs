//! Admission control: carving per-query resource grants out of global
//! budgets.
//!
//! A serving process has *one* pool of memory, disk, and concurrency to
//! hand out. The [`AdmissionController`] owns that ledger: each admitted
//! query receives a [`QueryGrant`] — its own [`MemoryBudget`] slice,
//! [`DiskBudget`] slice, and [`CancelToken`] (with an optional deadline) —
//! and the grant returns its slices to the ledger on drop, on every path
//! including panics. Queries that cannot run *now* get a typed
//! [`AdmissionOutcome::Queued`]; queries that could *never* run against
//! the configured globals get [`AdmissionOutcome::Denied`] immediately, so
//! callers can distinguish "retry later" from "lower your ask".
//!
//! The controller is engine-agnostic on purpose (this crate knows nothing
//! about plans or tables): the caller assembles its `ExecEnv` from the
//! grant's parts.

use crate::budget::MemoryBudget;
use crate::cancel::CancelToken;
use crate::disk::DiskBudget;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Global resource ceilings one [`AdmissionController`] hands out.
#[derive(Clone, Debug, Default)]
pub struct AdmissionConfig {
    /// Total operator memory available to all admitted queries, in bytes
    /// (`None` = unmetered; per-query asks are granted as unlimited
    /// budgets unless the query caps itself).
    pub memory_bytes: Option<u64>,
    /// Total spill-disk space available to all admitted queries, in bytes
    /// (`None` = unmetered).
    pub disk_bytes: Option<u64>,
    /// Maximum queries admitted at once (`None` = unbounded).
    pub max_queries: Option<usize>,
}

/// What one query asks the controller for.
#[derive(Clone, Debug, Default)]
pub struct AdmissionRequest {
    /// Memory slice wanted, in bytes. `None` asks for the controller's
    /// default slice (an even share of the global pool under the
    /// concurrency cap, or unlimited when the pool is unmetered).
    pub memory_bytes: Option<u64>,
    /// Spill-disk slice wanted, in bytes. `None` mirrors `memory_bytes`.
    pub disk_bytes: Option<u64>,
    /// Wall-clock deadline for the query; the grant's [`CancelToken`]
    /// trips once it elapses.
    pub deadline: Option<Duration>,
}

/// Why a query was not admitted and never will be under this
/// configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionDenied {
    /// The memory ask alone exceeds the global pool.
    MemoryAskTooLarge {
        /// Bytes requested.
        requested: u64,
        /// The whole pool.
        pool: u64,
    },
    /// The disk ask alone exceeds the global pool.
    DiskAskTooLarge {
        /// Bytes requested.
        requested: u64,
        /// The whole pool.
        pool: u64,
    },
}

impl fmt::Display for AdmissionDenied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionDenied::MemoryAskTooLarge { requested, pool } => {
                write!(f, "memory ask {requested} B exceeds the global pool of {pool} B")
            }
            AdmissionDenied::DiskAskTooLarge { requested, pool } => {
                write!(f, "disk ask {requested} B exceeds the global pool of {pool} B")
            }
        }
    }
}

/// The typed result of [`AdmissionController::try_admit`].
#[derive(Debug)]
pub enum AdmissionOutcome {
    /// Admitted now; the grant carries the query's resource slices.
    Admitted(QueryGrant),
    /// Not admissible right now (pool exhausted or concurrency cap hit);
    /// retry once a running query finishes, or use
    /// [`AdmissionController::admit_blocking`].
    Queued {
        /// Queries currently holding grants.
        active: usize,
        /// What ran out: `"queries"`, `"memory"`, or `"disk"`.
        waiting_for: &'static str,
    },
    /// Never admissible under the configured globals.
    Denied(AdmissionDenied),
}

struct Ledger {
    mem_used: u64,
    disk_used: u64,
    active: usize,
}

struct ControllerInner {
    cfg: AdmissionConfig,
    ledger: Mutex<Ledger>,
    /// Waiters parked in [`AdmissionController::admit_blocking`], woken
    /// whenever a grant releases.
    released: Condvar,
}

/// The global admission ledger. Clone-shared; all clones hand out of the
/// same pools.
#[derive(Clone)]
pub struct AdmissionController {
    inner: Arc<ControllerInner>,
}

impl AdmissionController {
    /// A controller over the given global ceilings.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            inner: Arc::new(ControllerInner {
                cfg,
                ledger: Mutex::new(Ledger { mem_used: 0, disk_used: 0, active: 0 }),
                released: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ledger> {
        // A panic while holding the ledger lock leaves plain counters in
        // a consistent state (updates are single assignments), so poison
        // carries no information here.
        self.inner.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The default per-query slice of a global pool: an even share under
    /// the concurrency cap, or the whole pool when uncapped.
    fn default_slice(&self, pool: u64) -> u64 {
        match self.inner.cfg.max_queries {
            Some(n) if n > 1 => (pool / n as u64).max(1),
            _ => pool,
        }
    }

    fn resolve_asks(&self, req: &AdmissionRequest) -> (Option<u64>, Option<u64>) {
        let mem = match (req.memory_bytes, self.inner.cfg.memory_bytes) {
            (Some(ask), _) => Some(ask),
            (None, Some(pool)) => Some(self.default_slice(pool)),
            (None, None) => None,
        };
        let disk = match (req.disk_bytes, self.inner.cfg.disk_bytes) {
            (Some(ask), _) => Some(ask),
            (None, Some(pool)) => Some(self.default_slice(pool)),
            (None, None) => None,
        };
        (mem, disk)
    }

    /// Try to admit a query right now. Never blocks; returns the typed
    /// outcome.
    pub fn try_admit(&self, req: &AdmissionRequest) -> AdmissionOutcome {
        let (mem_ask, disk_ask) = self.resolve_asks(req);
        let mut ledger = self.lock();
        // Impossible asks are denied outright — queueing would wait
        // forever.
        if let (Some(ask), Some(pool)) = (mem_ask, self.inner.cfg.memory_bytes) {
            if ask > pool {
                return AdmissionOutcome::Denied(AdmissionDenied::MemoryAskTooLarge {
                    requested: ask,
                    pool,
                });
            }
        }
        if let (Some(ask), Some(pool)) = (disk_ask, self.inner.cfg.disk_bytes) {
            if ask > pool {
                return AdmissionOutcome::Denied(AdmissionDenied::DiskAskTooLarge {
                    requested: ask,
                    pool,
                });
            }
        }
        if let Some(cap) = self.inner.cfg.max_queries {
            if ledger.active >= cap {
                return AdmissionOutcome::Queued { active: ledger.active, waiting_for: "queries" };
            }
        }
        if let (Some(ask), Some(pool)) = (mem_ask, self.inner.cfg.memory_bytes) {
            if ledger.mem_used + ask > pool {
                return AdmissionOutcome::Queued { active: ledger.active, waiting_for: "memory" };
            }
        }
        if let (Some(ask), Some(pool)) = (disk_ask, self.inner.cfg.disk_bytes) {
            if ledger.disk_used + ask > pool {
                return AdmissionOutcome::Queued { active: ledger.active, waiting_for: "disk" };
            }
        }
        // Commit the slices.
        if self.inner.cfg.memory_bytes.is_some() {
            ledger.mem_used += mem_ask.unwrap_or(0);
        }
        if self.inner.cfg.disk_bytes.is_some() {
            ledger.disk_used += disk_ask.unwrap_or(0);
        }
        ledger.active += 1;
        drop(ledger);
        AdmissionOutcome::Admitted(QueryGrant {
            controller: Arc::clone(&self.inner),
            mem_slice: if self.inner.cfg.memory_bytes.is_some() { mem_ask } else { None },
            disk_slice: if self.inner.cfg.disk_bytes.is_some() { disk_ask } else { None },
            budget: match mem_ask {
                Some(b) => MemoryBudget::limited(b),
                None => MemoryBudget::unlimited(),
            },
            disk: match disk_ask {
                Some(b) => DiskBudget::limited(b),
                None => DiskBudget::unlimited(),
            },
            cancel: match req.deadline {
                Some(d) => CancelToken::with_timeout(d),
                None => CancelToken::new(),
            },
        })
    }

    /// [`Self::try_admit`], but parks the caller while the outcome is
    /// [`AdmissionOutcome::Queued`], waking on grant releases. Waiting is
    /// bounded by `timeout` (`None` = wait forever); a timeout returns
    /// the last `Queued` outcome so the caller can report what it was
    /// waiting for.
    pub fn admit_blocking(
        &self,
        req: &AdmissionRequest,
        timeout: Option<Duration>,
    ) -> AdmissionOutcome {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            let outcome = self.try_admit(req);
            let AdmissionOutcome::Queued { .. } = outcome else { return outcome };
            let guard = self.lock();
            let wait = match deadline {
                None => Duration::from_millis(50),
                Some(d) => match d.checked_duration_since(std::time::Instant::now()) {
                    Some(left) => left.min(Duration::from_millis(50)),
                    None => return outcome,
                },
            };
            // The 50 ms cap is a safety net against lost wakeups; the
            // condvar normally fires on every grant release.
            let _ = self
                .inner
                .released
                .wait_timeout(guard, wait)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ledger = self.lock();
        f.debug_struct("AdmissionController")
            .field("config", &self.inner.cfg)
            .field("active", &ledger.active)
            .field("mem_used", &ledger.mem_used)
            .field("disk_used", &ledger.disk_used)
            .finish()
    }
}

/// One admitted query's resource slices, released back to the controller
/// when dropped (RAII — every path, including contained panics and
/// cancelled queries, returns its slices).
pub struct QueryGrant {
    controller: Arc<ControllerInner>,
    mem_slice: Option<u64>,
    disk_slice: Option<u64>,
    budget: MemoryBudget,
    disk: DiskBudget,
    cancel: CancelToken,
}

impl QueryGrant {
    /// The query's memory budget slice (shared-clone semantics, like all
    /// [`MemoryBudget`]s).
    pub fn budget(&self) -> MemoryBudget {
        self.budget.clone()
    }

    /// The query's spill-disk budget slice.
    pub fn disk(&self) -> DiskBudget {
        self.disk.clone()
    }

    /// The query's cancellation token (cancel by id = cancel this).
    pub fn cancel(&self) -> CancelToken {
        self.cancel.clone()
    }
}

impl fmt::Debug for QueryGrant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryGrant")
            .field("mem_slice", &self.mem_slice)
            .field("disk_slice", &self.disk_slice)
            .finish()
    }
}

impl Drop for QueryGrant {
    fn drop(&mut self) {
        let mut ledger = self.controller.ledger.lock().unwrap_or_else(PoisonError::into_inner);
        ledger.mem_used = ledger.mem_used.saturating_sub(self.mem_slice.unwrap_or(0));
        ledger.disk_used = ledger.disk_used.saturating_sub(self.disk_slice.unwrap_or(0));
        ledger.active = ledger.active.saturating_sub(1);
        drop(ledger);
        self.controller.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capped(mem: u64, disk: u64, queries: usize) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            memory_bytes: Some(mem),
            disk_bytes: Some(disk),
            max_queries: Some(queries),
        })
    }

    #[test]
    fn unmetered_controller_admits_everything_unlimited() {
        let c = AdmissionController::new(AdmissionConfig::default());
        let AdmissionOutcome::Admitted(g) = c.try_admit(&AdmissionRequest::default()) else {
            panic!("unmetered admission must succeed");
        };
        assert_eq!((g.budget().limit(), g.disk().limit()), (None, None));
    }

    #[test]
    fn default_slice_is_an_even_share_of_the_pool() {
        let c = capped(100, 400, 4);
        let AdmissionOutcome::Admitted(g) = c.try_admit(&AdmissionRequest::default()) else {
            panic!("admission must succeed");
        };
        assert_eq!(g.budget().limit(), Some(25));
        assert_eq!(g.disk().limit(), Some(100));
        // The grant holds its 25 bytes of the pool: 75 more fit, then none.
        let ask = |b| AdmissionRequest { memory_bytes: Some(b), ..Default::default() };
        let rest = c.try_admit(&ask(75));
        assert!(matches!(rest, AdmissionOutcome::Admitted(_)), "{rest:?}");
        let full = c.try_admit(&ask(1));
        assert!(matches!(full, AdmissionOutcome::Queued { waiting_for: "memory", .. }), "{full:?}");
    }

    #[test]
    fn concurrency_cap_queues_and_releases() {
        let c = capped(1000, 1000, 2);
        let g1 = match c.try_admit(&AdmissionRequest::default()) {
            AdmissionOutcome::Admitted(g) => g,
            other => panic!("{other:?}"),
        };
        let _g2 = match c.try_admit(&AdmissionRequest::default()) {
            AdmissionOutcome::Admitted(g) => g,
            other => panic!("{other:?}"),
        };
        match c.try_admit(&AdmissionRequest::default()) {
            AdmissionOutcome::Queued { active, waiting_for } => {
                assert_eq!(active, 2);
                assert_eq!(waiting_for, "queries");
            }
            other => panic!("{other:?}"),
        }
        drop(g1);
        assert!(matches!(c.try_admit(&AdmissionRequest::default()), AdmissionOutcome::Admitted(_)));
    }

    #[test]
    fn impossible_asks_are_denied_not_queued() {
        let c = capped(100, 100, 8);
        let req = AdmissionRequest { memory_bytes: Some(101), ..Default::default() };
        match c.try_admit(&req) {
            AdmissionOutcome::Denied(AdmissionDenied::MemoryAskTooLarge { requested, pool }) => {
                assert_eq!((requested, pool), (101, 100));
            }
            other => panic!("{other:?}"),
        }
        let req = AdmissionRequest { disk_bytes: Some(7000), ..Default::default() };
        match c.try_admit(&req) {
            AdmissionOutcome::Denied(AdmissionDenied::DiskAskTooLarge { requested, pool }) => {
                assert_eq!((requested, pool), (7000, 100));
            }
            other => panic!("{other:?}"),
        }
        // Denials leak no ledger state: the whole pool is still there.
        let whole = AdmissionRequest {
            memory_bytes: Some(100),
            disk_bytes: Some(100),
            ..Default::default()
        };
        assert!(matches!(c.try_admit(&whole), AdmissionOutcome::Admitted(_)));
    }

    #[test]
    fn memory_exhaustion_queues_until_a_grant_releases() {
        let c = capped(100, 100, 8);
        let req = AdmissionRequest { memory_bytes: Some(60), ..Default::default() };
        let g1 = match c.try_admit(&req) {
            AdmissionOutcome::Admitted(g) => g,
            other => panic!("{other:?}"),
        };
        match c.try_admit(&req) {
            AdmissionOutcome::Queued { waiting_for, .. } => assert_eq!(waiting_for, "memory"),
            other => panic!("{other:?}"),
        }
        drop(g1);
        assert!(matches!(c.try_admit(&req), AdmissionOutcome::Admitted(_)));
    }

    #[test]
    fn admit_blocking_wakes_on_release() {
        let c = capped(100, 100, 1);
        let g = match c.try_admit(&AdmissionRequest::default()) {
            AdmissionOutcome::Admitted(g) => g,
            other => panic!("{other:?}"),
        };
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || {
            c2.admit_blocking(&AdmissionRequest::default(), Some(Duration::from_secs(10)))
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(g);
        match waiter.join().unwrap() {
            AdmissionOutcome::Admitted(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn admit_blocking_times_out_with_the_queued_outcome() {
        let c = capped(100, 100, 1);
        let _g = match c.try_admit(&AdmissionRequest::default()) {
            AdmissionOutcome::Admitted(g) => g,
            other => panic!("{other:?}"),
        };
        match c.admit_blocking(&AdmissionRequest::default(), Some(Duration::from_millis(30))) {
            AdmissionOutcome::Queued { waiting_for, .. } => assert_eq!(waiting_for, "queries"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn grants_release_on_panic_unwind() {
        let c = capped(100, 100, 1);
        let c2 = c.clone();
        let result = std::panic::catch_unwind(move || {
            let _g = match c2.try_admit(&AdmissionRequest::default()) {
                AdmissionOutcome::Admitted(g) => g,
                other => panic!("unexpected: {other:?}"),
            };
            panic!("boom");
        });
        assert!(result.is_err());
        assert!(matches!(c.try_admit(&AdmissionRequest::default()), AdmissionOutcome::Admitted(_)));
    }

    #[test]
    fn deadline_request_yields_a_deadline_token() {
        let c = AdmissionController::new(AdmissionConfig::default());
        let req =
            AdmissionRequest { deadline: Some(Duration::from_millis(0)), ..Default::default() };
        let AdmissionOutcome::Admitted(g) = c.try_admit(&req) else { panic!() };
        assert!(g.cancel().is_enabled());
        assert!(g.cancel().cancelled().is_some(), "zero deadline trips immediately");
    }

    #[test]
    fn concurrent_admissions_never_oversubscribe() {
        let c = capped(1000, 1000, 4);
        let held = Mutex::new(0usize);
        let req = AdmissionRequest { memory_bytes: Some(250), ..Default::default() };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..200 {
                        if let AdmissionOutcome::Admitted(g) = c.try_admit(&req) {
                            let live = {
                                let mut held = held.lock().unwrap();
                                *held += 1;
                                *held
                            };
                            assert!(live <= 4, "{live} grants exceed the cap");
                            *held.lock().unwrap() -= 1;
                            drop(g);
                        }
                    }
                });
            }
        });
        // All grants released: the whole pool admits four at once again.
        let all: Vec<_> = (0..4).map(|_| c.try_admit(&req)).collect();
        assert!(all.iter().all(|o| matches!(o, AdmissionOutcome::Admitted(_))), "{all:?}");
    }
}
