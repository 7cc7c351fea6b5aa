//! Shared work-stealing worker runtime (§3.2, grown into a service).
//!
//! The operator parallelizes along two axes: the recursive calls on
//! different buckets are completely independent tasks, while the main loop
//! over the input runs is parallelized by **work-stealing** so that threads
//! that finish their own buckets can help with large ones — the paper's
//! answer to heavy row-skew, where an ideal hash function balances *groups*
//! across buckets but cannot balance *rows*.
//!
//! Execution happens on one process-wide [`Runtime`]: a pool of worker
//! threads started once and sized to the machine, serving *every*
//! concurrently admitted query with round-robin fairness at task
//! granularity. A query is admitted with [`Runtime::admit`], yielding a
//! [`QueryHandle`] whose [`QueryId`] tags all of its work; each scope the
//! handle runs gets per-slot deques — the owner pushes and pops its own
//! tasks LIFO (depth-first recursion keeps working sets cache-hot), idle
//! executors steal FIFO from sibling slots (breadth-first stealing finds
//! the biggest remaining subtrees) — and executors "synchronize only at a
//! very coarse granularity" (§6.2): the deques, the per-slot claim flags,
//! and an outstanding-task counter used for quiescence detection.
//!
//! [`scope`] is the one-shot wrapper: it admits a fresh query for a single
//! scope. There is no per-call thread spin-up anywhere — every scope,
//! one-shot or streamed, executes on the shared runtime.
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! let sum = AtomicU64::new(0);
//! hsa_tasks::scope(4, |s| {
//!     for i in 0..100u64 {
//!         let sum = &sum;
//!         s.spawn(move |_| {
//!             sum.fetch_add(i, Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(sum.into_inner(), 4950);
//! ```

mod runtime;
pub mod sync;
mod util;

pub use runtime::{
    scope, PoolMetrics, QueryHandle, QueryId, Runtime, Scope, TaskPanic, WorkerPoolMetrics,
};
pub use util::{chunk_ranges, scoped_map};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_spawned_tasks() {
        let counter = AtomicUsize::new(0);
        scope(4, |s| {
            for _ in 0..1000 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.into_inner(), 1000);
    }

    #[test]
    fn nested_spawns_complete_before_scope_returns() {
        let counter = AtomicUsize::new(0);
        scope(3, |s| {
            for _ in 0..10 {
                s.spawn(|s2| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    for _ in 0..10 {
                        s2.spawn(|s3| {
                            counter.fetch_add(1, Ordering::Relaxed);
                            s3.spawn(|_| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    }
                });
            }
        });
        assert_eq!(counter.into_inner(), 10 + 100 + 100);
    }

    #[test]
    fn single_thread_runs_inline() {
        let mut touched = false;
        let out = scope(1, |s| {
            s.spawn(|_| {});
            touched = true;
            42
        });
        assert!(touched);
        assert_eq!(out, 42);
    }

    #[test]
    fn borrows_stack_data() {
        let data: Vec<u64> = (0..1024).collect();
        let sum = std::sync::atomic::AtomicU64::new(0);
        scope(4, |s| {
            for chunk in data.chunks(64) {
                let sum = &sum;
                s.spawn(move |_| {
                    sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.into_inner(), 1024 * 1023 / 2);
    }

    #[test]
    fn scope_returns_root_value() {
        assert_eq!(scope(2, |_| "done"), "done");
    }

    #[test]
    fn uneven_task_sizes_all_finish() {
        // Tasks of wildly different cost — stealing must drain them all.
        let counter = AtomicUsize::new(0);
        scope(4, |s| {
            for i in 0..64usize {
                let counter = &counter;
                s.spawn(move |_| {
                    let spins = if i == 0 { 200_000 } else { 10 };
                    let mut x = 1u64;
                    for _ in 0..spins {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    assert!(x != 42); // keep the loop alive
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.into_inner(), 64);
    }

    #[test]
    #[should_panic(expected = "task panicked")]
    fn task_panic_propagates() {
        scope(2, |s| {
            s.spawn(|_| panic!("boom"));
        });
    }

    #[test]
    fn scope_panic_payload_is_the_formatted_message() {
        // `scope` re-raises the contained task panic via `resume_unwind`
        // with a boxed `String` — the same payload type a formatting
        // `panic!` produces — so catch_unwind callers can read it.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(2, |s| {
                s.spawn(|_| panic!("boom {}", 3));
            });
        }))
        .expect_err("scope must re-raise the task panic");
        let message = caught.downcast_ref::<String>().expect("payload is a String");
        assert_eq!(message, "task panicked inside hsa_tasks::scope: boom 3");
    }

    #[test]
    fn try_scope_contains_panic_and_reports_message() {
        let (result, _metrics) = Runtime::global().admit(2).try_scope_observed(|s| {
            s.spawn(|_| panic!("injected failure {}", 7));
            "root result"
        });
        assert_eq!(result, Err(TaskPanic { message: "injected failure 7".to_string() }));
    }

    #[test]
    fn try_scope_drains_queued_tasks_after_panic() {
        // Single thread: tasks run in a deterministic LIFO order on the
        // caller. The panicking task runs first (spawned last), so the 100
        // earlier-queued tasks must be drained, not run.
        let ran = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        struct CountDrop<'a>(&'a AtomicUsize);
        impl Drop for CountDrop<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (result, _) = Runtime::global().admit(1).try_scope_observed(|s| {
            for _ in 0..100 {
                let ran = &ran;
                let guard = CountDrop(&dropped);
                s.spawn(move |_| {
                    let _g = &guard;
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            s.spawn(|_| panic!("first"));
        });
        assert!(result.is_err());
        assert_eq!(ran.into_inner(), 0, "queued tasks must not run after the panic");
        assert_eq!(dropped.into_inner(), 100, "drained closures must still be dropped");
    }

    #[test]
    fn try_scope_is_reusable_after_containment() {
        let (r1, _) = Runtime::global().admit(4).try_scope_observed(|s| {
            s.spawn(|_| panic!("one-off"));
        });
        assert!(r1.is_err());
        // A fresh scope on the same thread works fine afterwards.
        let counter = AtomicUsize::new(0);
        let (r2, _) = Runtime::global().admit(4).try_scope_observed(|s| {
            for _ in 0..100 {
                let counter = &counter;
                s.spawn(move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert!(r2.is_ok());
        assert_eq!(counter.into_inner(), 100);
    }

    #[test]
    fn try_scope_keeps_first_panic_message() {
        let (result, _) = Runtime::global().admit(1).try_scope_observed(|s| {
            s.spawn(|_| panic!("second"));
            s.spawn(|_| panic!("first")); // LIFO: runs first
        });
        // The second panicking task is drained, so only one message exists.
        assert_eq!(result.unwrap_err().message, "first");
    }

    #[test]
    fn try_scope_reports_non_string_payloads() {
        let (result, _) = Runtime::global().admit(1).try_scope_observed(|s| {
            s.spawn(|_| std::panic::panic_any(42usize));
        });
        assert_eq!(result.unwrap_err().message, "non-string panic payload");
    }

    #[test]
    fn handle_scopes_share_one_query_id() {
        let handle = Runtime::global().admit(2);
        let id = handle.id();
        let (seen1, _) = handle.scope_observed(|s| s.query_id());
        let (seen2, _) = handle.scope_observed(|s| s.query_id());
        assert_eq!(seen1, id);
        assert_eq!(seen2, id);
        // A different admission gets a different id.
        assert_ne!(Runtime::global().admit(2).id(), id);
    }

    #[test]
    fn scope_reports_slot_count_and_caller_slot() {
        let handle = Runtime::global().admit(3);
        handle.scope_observed(|s| {
            assert_eq!(s.threads(), 3);
            assert_eq!(s.worker_index(), 0, "the submitting thread holds slot 0");
        });
    }

    #[test]
    fn concurrent_scopes_from_many_threads_stay_isolated() {
        // Several queries in flight at once on the shared runtime: each
        // must see exactly its own tasks in its own metrics.
        std::thread::scope(|ts| {
            for q in 0..6u64 {
                ts.spawn(move || {
                    let handle = Runtime::global().admit(3);
                    let counter = AtomicUsize::new(0);
                    let (_, metrics) = handle.scope_observed(|s| {
                        for _ in 0..200 {
                            let counter = &counter;
                            s.spawn(move |_| {
                                let spins = 50 + q;
                                let mut x = q + 1;
                                for _ in 0..spins {
                                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                                }
                                assert!(x != 42);
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                    assert_eq!(counter.into_inner(), 200);
                    let executed: u64 = metrics.workers.iter().map(|w| w.tasks_executed).sum();
                    assert_eq!(executed, 200, "per-query task accounting must be exact");
                    assert_eq!(metrics.workers.len(), 3);
                });
            }
        });
    }

    #[test]
    fn root_panic_drains_queued_tasks_and_leaves_the_runtime_usable() {
        // A panic in the scope *root* (not a task) must still wind the
        // scope down — queued tasks drained, run deregistered — before the
        // unwind leaves the frame that owns the borrowed data.
        let dropped = AtomicUsize::new(0);
        struct CountDrop<'a>(&'a AtomicUsize);
        impl Drop for CountDrop<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Runtime::global().admit(1).try_scope_observed(|s| {
                for _ in 0..50 {
                    let guard = CountDrop(&dropped);
                    s.spawn(move |_| {
                        let _g = &guard;
                    });
                }
                panic!("root blew up");
            })
        }));
        assert!(result.is_err());
        assert_eq!(dropped.into_inner(), 50, "queued closures must be drained on root unwind");
        // The shared runtime is unperturbed.
        let counter = AtomicUsize::new(0);
        scope(2, |s| {
            for _ in 0..10 {
                let counter = &counter;
                s.spawn(move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.into_inner(), 10);
    }

    #[test]
    fn one_slot_scopes_never_run_on_shared_workers() {
        // With a single slot the submitting thread is the only executor:
        // execution is deterministic LIFO on the caller.
        let order = std::sync::Mutex::new(Vec::new());
        scope(1, |s| {
            for i in 0..10 {
                let order = &order;
                s.spawn(move |_| order.lock().unwrap().push(i));
            }
        });
        let order = order.into_inner().unwrap();
        assert_eq!(order, (0..10).rev().collect::<Vec<_>>(), "deterministic LIFO drain");
    }
}
