//! # qods-pool — the workspace's one worker pool
//!
//! Before this crate, the atomic-cursor worker pool was copy-pasted
//! three times (the Fig 15 sweep in `qods-arch`, the Monte-Carlo
//! runner in `qods-phys`, and `Registry::run_all` in `qods-core`).
//! This crate is the single implementation all of them — and the
//! `qods-service` scheduler — share:
//!
//! * [`host_threads`] is the one core-count policy, with a
//!   process-wide override so a `--threads N` flag pins every pool in
//!   the process at once;
//! * [`WorkQueue`] is the atomic claim cursor;
//! * [`run_workers`] fans a closure out over scoped worker threads;
//! * [`run_indexed`] runs `n` independent tasks and returns their
//!   results in index order — the common "embarrassingly parallel,
//!   deterministic assembly" shape.
//!
//! ## Determinism contract
//!
//! Nothing here injects nondeterminism: a task's result may depend
//! only on its index (never on which worker ran it or when), and
//! [`run_indexed`] reassembles results by index. Callers that follow
//! that rule are bit-identical at any thread count, including fully
//! sequential — the property the Monte-Carlo engine, the architecture
//! sweep, and the job scheduler all test for.
//!
//! ## Failure model
//!
//! Every worker runs under `catch_unwind`, so a panicking worker never
//! takes its siblings down blind. Once all workers have finished,
//! [`run_workers`] / [`run_indexed`] re-raise the failure on the
//! caller's thread: a real panic as `pool worker panicked: {message}`
//! (it outranks sibling deadline unwinds), a deadline hit as the
//! [`DeadlineHit`] sentinel. Nested pools therefore propagate one
//! consistent unwind to the outermost guard — the service
//! scheduler's, which answers it with one typed error line.
//!
//! ## Deadlines
//!
//! [`with_deadline`] installs a cooperative, thread-local deadline
//! that [`run_workers`] propagates into every worker it spawns.
//! Engines call [`check_deadline`] at *chunk boundaries only* (an MC
//! trial chunk, a sweep point): a hit unwinds with the private
//! [`DeadlineHit`] sentinel, so no partial result is ever observed —
//! a run either completes bit-identically or unwinds with the
//! sentinel, with nothing cached. That is what keeps the determinism
//! contract compatible with cancellation.

// The pool hosts every serving-path worker: no panicking unwraps
// outside tests (lint rule R1 and the chaos-job clippy gate agree).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use qods_obs::sites;
use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};
use std::time::Instant;

/// The sentinel payload [`check_deadline`] panics with. Private to
/// the cancellation protocol: the pool re-raises it across worker
/// threads, the scheduler's guard classifies it as a deadline outcome,
/// and the panic hook stays silent for it — a deadline is an outcome,
/// not a crash.
pub struct DeadlineHit;

thread_local! {
    /// The cooperative deadline for work on this thread, if any.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Suppresses default panic-hook output for [`DeadlineHit`] unwinds
/// (installed lazily, once, wrapping whatever hook was active).
fn install_quiet_deadline_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<DeadlineHit>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Restores the previous thread-local deadline on scope exit — also
/// on unwind, so a [`DeadlineHit`] flying past never leaks a stale
/// deadline into unrelated work on a reused thread.
struct DeadlineGuard {
    previous: Option<Instant>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.previous));
    }
}

/// Runs `f` under a cooperative deadline. `None` leaves any inherited
/// deadline in place; `Some(t)` tightens it (the *earlier* of `t` and
/// the inherited deadline wins, so nesting can only shorten a budget,
/// never extend one). The previous deadline is restored on exit,
/// unwind included.
pub fn with_deadline<R>(deadline: Option<Instant>, f: impl FnOnce() -> R) -> R {
    let previous = DEADLINE.with(Cell::get);
    let effective = match (previous, deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => b.or(a),
    };
    if effective.is_some() {
        install_quiet_deadline_hook();
    }
    DEADLINE.with(|d| d.set(effective));
    let _guard = DeadlineGuard { previous };
    f()
}

/// The deadline active on this thread, if any.
pub fn current_deadline() -> Option<Instant> {
    DEADLINE.with(Cell::get)
}

/// Whether this thread's deadline has passed (false when none is
/// set).
pub fn deadline_exceeded() -> bool {
    // qods-lint: allow(D1) -- deadline checks cancel whole runs; they
    // never alter a completed result (all-or-nothing contract above)
    current_deadline().is_some_and(|t| Instant::now() >= t)
}

/// The cooperative cancellation point: a no-op while the deadline
/// (if any) holds, an unwind with the [`DeadlineHit`] sentinel once
/// it has passed. Engines call this at chunk/point boundaries only,
/// so cancellation can never expose a partial result.
pub fn check_deadline() {
    if deadline_exceeded() {
        std::panic::panic_any(DeadlineHit);
    }
}

/// Poison-tolerant lock: acquires `m`, recovering the guard when a
/// previous holder panicked. The workspace's serving path never
/// protects an invariant with poisoning — every critical section
/// leaves the data valid even if it unwinds mid-way (deadline
/// sentinels, injected faults) — so a poisoned lock is recoverable by
/// construction. This is the one spelling of
/// `lock().unwrap_or_else(PoisonError::into_inner)` the serving
/// crates share; lint rule L1 recognizes it as a lock acquisition.
pub fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Why a worker returned no result.
#[derive(Debug, PartialEq)]
enum Failure {
    /// A real panic, carrying the payload's text.
    Panicked(String),
    /// The [`DeadlineHit`] sentinel.
    Deadline,
}

/// Classifies a caught worker unwind: the deadline sentinel, or a real
/// panic carrying the payload's text.
fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> Failure {
    if payload.downcast_ref::<DeadlineHit>().is_some() {
        return Failure::Deadline;
    }
    Failure::Panicked(if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    })
}

/// Folds per-worker outcomes into one pool outcome. A real panic
/// outranks a deadline hit: when both happened in one fan-out the
/// panic is the defect to surface (the deadline unwinds are its
/// siblings cancelling).
fn fold_outcomes<R>(outcomes: Vec<Result<R, Failure>>) -> Result<Vec<R>, Failure> {
    let mut deadline = false;
    let mut results = Vec::with_capacity(outcomes.len());
    let mut panic = None;
    for outcome in outcomes {
        match outcome {
            Ok(r) => results.push(r),
            Err(Failure::Deadline) => deadline = true,
            Err(e @ Failure::Panicked(_)) => {
                if panic.is_none() {
                    panic = Some(e);
                }
            }
        }
    }
    match (panic, deadline) {
        (Some(e), _) => Err(e),
        (None, true) => Err(Failure::Deadline),
        (None, false) => Ok(results),
    }
}

/// Process-wide worker-count override; 0 means "auto" (one worker per
/// core). Set through [`set_thread_override`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins (or with `None` unpins) the worker count every pool in the
/// process uses. This is what a `--threads N` command-line flag
/// should call once at startup: after it, [`host_threads`] — and so
/// every sweep, Monte-Carlo run, and scheduler pool — honors the pin.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// The currently pinned worker count, if any.
pub fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Worker threads this host supports: the pinned override when one is
/// set, otherwise one per available core (1 when the runtime cannot
/// tell). The single source of the core-count policy — sweeps, the
/// Monte-Carlo runner, the registry, and the service scheduler all
/// consult this instead of re-deriving it.
pub fn host_threads() -> usize {
    thread_override().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The worker count for a pool over `tasks` independent tasks: the
/// host policy, clamped so no worker can exist without work.
pub fn pool_threads(tasks: usize) -> usize {
    host_threads().clamp(1, tasks.max(1))
}

/// An atomic claim cursor over `0..total`: each [`WorkQueue::claim`]
/// hands out the next unclaimed index exactly once, across any number
/// of worker threads (chunked work-stealing when indices are chunks).
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicU64,
    total: u64,
}

impl WorkQueue {
    /// A queue over the indices `0..total`.
    pub fn new(total: u64) -> Self {
        WorkQueue {
            next: AtomicU64::new(0),
            total,
        }
    }

    /// How many indices the queue hands out in total.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Claims the next index, or `None` when the queue is drained.
    pub fn claim(&self) -> Option<u64> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }
}

/// Runs `worker(worker_index)` on `threads` scoped OS threads,
/// returning results in worker-index order. With `threads <= 1` the
/// worker runs inline on the caller's thread (no spawn) under the
/// same guard. The caller's thread-local deadline ([`with_deadline`])
/// is installed in every spawned worker, so nested pools inherit the
/// budget.
///
/// The `pool.worker` fault-injection site fires once per worker start
/// (`panic` and `delay` actions apply; others are ignored).
///
/// # Panics
///
/// Re-raises any worker failure once every worker has finished (see
/// the crate's failure model): a real panic as `pool worker panicked:
/// {message}`, outranking concurrent deadline unwinds; a deadline hit
/// as the [`DeadlineHit`] sentinel. No partial results are returned.
pub fn run_workers<R, F>(threads: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match run_guarded(threads, worker) {
        Ok(results) => results,
        Err(Failure::Deadline) => std::panic::panic_any(DeadlineHit),
        // qods-lint: allow(P1) -- deliberate re-raise: a worker panic must not be swallowed; callers sit inside the serve-loop catch_unwind
        Err(Failure::Panicked(message)) => panic!("pool worker panicked: {message}"),
    }
}

/// [`run_workers`]' fan-out with every worker's unwind caught and
/// classified, before the re-raise.
fn run_guarded<R, F>(threads: usize, worker: F) -> Result<Vec<R>, Failure>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let deadline = current_deadline();
    // Captured on the caller's thread: worker spans on spawned threads
    // link back to the span that scheduled them (cross-thread parent).
    let parent_span = qods_obs::trace::current_span();
    let guarded = |w: usize| -> Result<R, Failure> {
        let _span = qods_obs::span!(sites::POOL_WORKER).child_of(parent_span);
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_deadline(deadline, || {
                if let Some(action) = qods_fault::check_sleeping(qods_fault::site::POOL_WORKER) {
                    if action == qods_fault::FaultAction::Panic {
                        panic!("injected fault: pool worker {w} panicked");
                    }
                }
                worker(w)
            })
        }))
        .map_err(classify_panic)
    };
    if threads <= 1 {
        return fold_outcomes(vec![guarded(0)]);
    }
    qods_obs::Registry::global()
        .counter(sites::POOL_WORKERS_SPAWNED)
        .add(threads as u64);
    let guarded = &guarded;
    let outcomes: Vec<Result<R, Failure>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    // Fresh OS thread, fresh TLS: the worker renders
                    // on a lane no other live worker holds.
                    let _lane = qods_obs::trace::claim_worker_lane();
                    guarded(w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    // Unreachable in practice: the closure catches its
                    // own unwinds. Classify rather than re-panic.
                    Err(Failure::Panicked(
                        "worker thread died before reporting".to_string(),
                    ))
                })
            })
            .collect()
    });
    fold_outcomes(outcomes)
}

/// Runs `n` independent tasks — `task(i)` for `i in 0..n` — over a
/// shared [`WorkQueue`] on `threads` workers, returning the results
/// in index order. The assembly never depends on which worker
/// computed a task, so results are identical at any thread count.
///
/// # Panics
///
/// On any task failure, exactly as [`run_workers`] re-raises it; no
/// partial results are returned.
pub fn run_indexed<T, F>(n: usize, threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        let task = &task;
        return run_workers(1, move |_| (0..n).map(task).collect::<Vec<T>>())
            .pop()
            .unwrap_or_default();
    }
    let queue = WorkQueue::new(n as u64);
    let mut computed: Vec<(usize, T)> = run_workers(threads, |_| {
        let mut mine = Vec::new();
        while let Some(i) = queue.claim() {
            let i = i as usize;
            mine.push((i, task(i)));
        }
        mine
    })
    .into_iter()
    .flatten()
    .collect();
    computed.sort_unstable_by_key(|&(i, _)| i);
    computed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn queue_hands_out_each_index_exactly_once() {
        let q = WorkQueue::new(500);
        let claimed = Mutex::new(HashSet::new());
        run_workers(4, |_| {
            while let Some(i) = q.claim() {
                assert!(claimed.lock().unwrap().insert(i), "index {i} claimed twice");
            }
        });
        assert_eq!(claimed.lock().unwrap().len(), 500);
        assert_eq!(q.claim(), None);
    }

    #[test]
    fn indexed_results_are_ordered_at_any_thread_count() {
        let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 200] {
            assert_eq!(
                run_indexed(97, threads, |i| i * i),
                expect,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn empty_and_single_task_pools_are_safe() {
        assert_eq!(run_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 8, |i| i + 41), vec![41]);
    }

    #[test]
    fn workers_report_in_worker_order() {
        let ids = run_workers(3, |w| w);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(run_workers(0, |w| w), vec![0]);
    }

    /// What a `run_*` call re-raised, classified like a worker unwind.
    fn caught<R>(f: impl FnOnce() -> R) -> Result<R, Failure> {
        std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(classify_panic)
    }

    #[test]
    fn worker_panics_reraise_with_their_message() {
        for threads in [1, 4] {
            let err = caught(|| {
                run_workers(threads, |w| {
                    if w == 0 {
                        panic!("worker zero exploded");
                    }
                    w
                })
            })
            .expect_err("a worker panic must re-raise");
            assert_eq!(
                err,
                Failure::Panicked("pool worker panicked: worker zero exploded".to_string()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn indexed_panics_return_no_partial_results() {
        for threads in [1, 3] {
            let err = caught(|| {
                run_indexed(10, threads, |i| {
                    if i == 7 {
                        panic!("task seven");
                    }
                    i
                })
            })
            .expect_err("panic must surface");
            assert!(
                matches!(&err, Failure::Panicked(m) if m.contains("task seven")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn a_real_panic_outranks_sibling_deadline_hits() {
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = caught(|| {
            with_deadline(Some(past), || {
                run_workers(3, |w| {
                    if w == 1 {
                        panic!("the real defect");
                    }
                    check_deadline();
                })
            })
        })
        .expect_err("must re-raise");
        assert_eq!(
            err,
            Failure::Panicked("pool worker panicked: the real defect".to_string())
        );
    }

    #[test]
    fn expired_deadline_cancels_at_the_check() {
        let already_past = Instant::now() - std::time::Duration::from_millis(1);
        let err = caught(|| {
            with_deadline(Some(already_past), || {
                run_indexed(100, 2, |i| {
                    check_deadline();
                    i
                })
            })
        })
        .expect_err("expired deadline must cancel");
        assert_eq!(err, Failure::Deadline);
        // Outside the scope the deadline is gone.
        assert_eq!(current_deadline(), None);
        assert!(!deadline_exceeded());
    }

    #[test]
    fn unexpired_deadline_changes_nothing() {
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let results = with_deadline(Some(far), || {
            run_indexed(50, 2, |i| {
                check_deadline();
                i * 2
            })
        });
        assert_eq!(results, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_deadlines_tighten_never_extend() {
        let near = Instant::now() - std::time::Duration::from_millis(1);
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        with_deadline(Some(near), || {
            // An inner, later deadline must not revive expired work.
            with_deadline(Some(far), || {
                assert!(deadline_exceeded(), "inner scope keeps the tighter bound");
            });
            // `None` inherits.
            with_deadline(None, || assert!(deadline_exceeded()));
        });
    }

    #[test]
    fn workers_inherit_the_spawning_threads_deadline() {
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = caught(|| {
            with_deadline(Some(past), || {
                run_workers(3, |_| {
                    check_deadline(); // runs on a spawned thread
                    0u32
                })
            })
        })
        .expect_err("spawned workers must see the deadline");
        assert_eq!(err, Failure::Deadline);
    }

    #[test]
    fn injected_worker_panic_fires_through_the_fault_site() {
        // Process-global injector: keep arm/disarm in one test.
        qods_fault::arm(qods_fault::FaultPlan::new().once(
            "pool.worker",
            1,
            qods_fault::FaultAction::Panic,
        ));
        let err = caught(|| run_workers(1, |_| 7)).expect_err("injected panic");
        assert!(
            matches!(&err, Failure::Panicked(m) if m.contains("injected fault")),
            "{err:?}"
        );
        assert_eq!(qods_fault::fired_at("pool.worker"), 1);
        qods_fault::disarm();
        // Disarmed again: the same call succeeds.
        assert_eq!(run_workers(1, |_| 7), vec![7]);
    }

    /// The override tests live in one function: the pin is
    /// process-global, and splitting them across `#[test]`s would race
    /// under the parallel test harness.
    #[test]
    fn thread_override_pins_and_unpins() {
        assert!(host_threads() >= 1);
        set_thread_override(Some(3));
        assert_eq!(thread_override(), Some(3));
        assert_eq!(host_threads(), 3);
        assert_eq!(pool_threads(2), 2);
        assert_eq!(pool_threads(100), 3);
        set_thread_override(None);
        assert_eq!(thread_override(), None);
        assert!(host_threads() >= 1);
        assert_eq!(pool_threads(0), 1);
    }
}
