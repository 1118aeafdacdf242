//! # qods-pool — the workspace's one worker pool
//!
//! Before this crate, the atomic-cursor worker pool was copy-pasted
//! three times (the Fig 15 sweep in `qods-arch`, the Monte-Carlo
//! runner in `qods-phys`, and the experiment fan-out in `qods-core`).
//! This crate is the single implementation all of them — and the
//! `qods-service` scheduler's job plan — share:
//!
//! * [`host_threads`] is the one core-count policy, with a
//!   process-wide override so a `--threads N` flag pins every pool in
//!   the process at once;
//! * [`WorkQueue`] is the atomic claim cursor;
//! * [`run_workers`] fans a closure out to `threads` participants on
//!   the process-wide pool;
//! * [`run_indexed`] runs `n` independent tasks and returns their
//!   results in index order — the common "embarrassingly parallel,
//!   deterministic assembly" shape.
//!
//! ## One persistent pool, join by helping
//!
//! The pool starts `host_threads() − 1` background threads on its
//! first parallel fan-out (more if the pin rises later) and never
//! stops them, so a job starts no thread; the `pool.workers_spawned`
//! counter is the number it has started. A caller publishes its
//! fan-out, claims its own participants until none is left, and then
//! waits by *helping*: it runs participants of fan-outs nested
//! strictly deeper than its own, of any job. Shallower work is off
//! limits because the caller may be waiting inside a lazy initializer
//! (`OnceLock::get_or_init`) that a shallower task would re-enter on
//! the same thread. Idle background threads take the deepest open
//! fan-out first. `threads` still caps the participants of one
//! fan-out.
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
//! Every participant runs under `catch_unwind`, so a panicking worker
//! never takes its siblings, or the thread that ran it, down blind.
//! Once all participants have finished, [`run_workers`] /
//! [`run_indexed`] re-raise the failure on the caller's thread: a real
//! panic as `pool worker panicked: {message}` (it outranks sibling
//! deadline unwinds), a deadline hit as the [`DeadlineHit`] sentinel.
//! Nested pools therefore propagate one consistent unwind to the
//! outermost guard — the service scheduler's, which answers it with
//! one typed error line. A failure stays with its own fan-out, even
//! when a helping thread of another job ran the participant.
//!
//! ## Deadlines
//!
//! [`with_deadline`] installs a cooperative, thread-local deadline.
//! A fan-out captures its caller's deadline, and each participant
//! runs under exactly that deadline, whichever thread runs it: a
//! helper's own budget neither cancels nor extends another job's
//! task. Engines call [`check_deadline`] at *chunk boundaries only*
//! (an MC trial chunk, a sweep point): a hit unwinds with the private
//! [`DeadlineHit`] sentinel, so no partial result is ever observed —
//! a run either completes bit-identically or unwinds with the
//! sentinel, with nothing cached. That is what keeps the determinism
//! contract compatible with cancellation.

// The pool hosts every serving-path worker: no panicking unwraps
// outside tests (lint rule R1 and the chaos-job clippy gate agree).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use qods_obs::sites;
use std::cell::Cell;
use std::cmp::Reverse;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
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
    let effective = match (current_deadline(), deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => b.or(a),
    };
    under_deadline(effective, f)
}

/// Runs `f` under exactly `deadline`, replacing (not tightening)
/// whatever this thread had, and restores the previous deadline on
/// exit, unwind included. Pool participants run under their fan-out's
/// captured deadline this way: a thread helping another job's fan-out
/// must neither impose its own budget on that job's task nor lift
/// the task's budget.
fn under_deadline<R>(deadline: Option<Instant>, f: impl FnOnce() -> R) -> R {
    if deadline.is_some() {
        install_quiet_deadline_hook();
    }
    let previous = DEADLINE.with(|d| d.replace(deadline));
    let _guard = DeadlineGuard { previous };
    f()
}

/// The deadline active on this thread, if any.
pub fn current_deadline() -> Option<Instant> {
    DEADLINE.with(Cell::get)
}

/// Whether this thread's deadline has passed (false when none is
/// set).
#[expect(
    clippy::disallowed_methods,
    reason = "deadline checks cancel whole runs; they never alter a completed result \
              (all-or-nothing contract above)"
)]
pub fn deadline_exceeded() -> bool {
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

/// A published fan-out's participant body: `body(w)` runs participant
/// `w` and stores its outcome itself.
type Body<'a> = dyn Fn(usize) + Sync + 'a;

/// One fan-out published to the pool. Participants are claimed and
/// retired only under the pool lock; the atomics just make the shared
/// record `Sync`.
struct FanOut {
    /// One more than the depth of the thread that submitted it.
    depth: usize,
    participants: usize,
    body: &'static Body<'static>,
    claimed: AtomicUsize,
    finished: AtomicUsize,
}

/// The process-wide pool's shared state, guarded by [`STATE`].
struct PoolState {
    /// Fan-outs with participants left to claim, oldest first.
    open: Vec<Arc<FanOut>>,
    /// Background threads started so far.
    started: usize,
}

static STATE: Mutex<PoolState> = Mutex::new(PoolState {
    open: Vec::new(),
    started: 0,
});

/// Signalled (under [`STATE`]) whenever a fan-out is published or a
/// participant finishes.
static CHANGED: Condvar = Condvar::new();

thread_local! {
    /// The depth of the fan-out whose participant this thread is
    /// running; 0 outside the pool.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

impl PoolState {
    /// Claims the next participant of `fan` while it has one left.
    fn claim_own(&mut self, fan: &Arc<FanOut>) -> Option<usize> {
        let pos = self.open.iter().position(|f| Arc::ptr_eq(f, fan))?;
        Some(self.claim_at(pos).1)
    }

    /// Claims a participant of the deepest open fan-out nested
    /// strictly deeper than `depth` (the oldest among equals).
    fn claim_deeper(&mut self, depth: usize) -> Option<(Arc<FanOut>, usize)> {
        let pos = (0..self.open.len())
            .filter(|&i| self.open[i].depth > depth)
            .max_by_key(|&i| (self.open[i].depth, Reverse(i)))?;
        Some(self.claim_at(pos))
    }

    fn claim_at(&mut self, pos: usize) -> (Arc<FanOut>, usize) {
        let fan = Arc::clone(&self.open[pos]);
        let w = fan.claimed.fetch_add(1, Ordering::Relaxed);
        if w + 1 == fan.participants {
            self.open.remove(pos);
        }
        (fan, w)
    }

    /// Starts background threads until there are `host_threads() - 1`
    /// (each caller is the last participant of its own fan-outs). The
    /// pool never stops one, so a job starts none once the process is
    /// warm. Their handles are dropped on purpose: the threads live as
    /// long as the process and never unwind, since every participant
    /// catches its own panics.
    fn start_workers(&mut self) {
        while self.started + 1 < host_threads() {
            let spawned = std::thread::Builder::new()
                .name(format!("qods-pool-{}", self.started + 1))
                .spawn(help_forever);
            if spawned.is_err() {
                // Callers drain their own fan-outs: fewer helpers
                // only cost speed.
                break;
            }
            self.started += 1;
            qods_obs::Registry::global()
                .counter(sites::POOL_WORKERS_SPAWNED)
                .inc();
        }
    }
}

/// Sets this thread's depth until the guard drops (unwind included).
struct DepthGuard(usize);

impl Drop for DepthGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(self.0));
    }
}

fn enter_depth(depth: usize) -> DepthGuard {
    DepthGuard(DEPTH.with(|d| d.replace(depth)))
}

/// Runs participant `w` of `fan` at the fan-out's depth, then retires
/// it. The body never unwinds: [`run_guarded`]'s participants catch
/// their own panics.
fn participate(fan: &FanOut, w: usize) {
    {
        let _depth = enter_depth(fan.depth);
        (fan.body)(w);
    }
    let _state = plock(&STATE);
    fan.finished.fetch_add(1, Ordering::Relaxed);
    CHANGED.notify_all();
}

/// A background pool thread: holds one trace lane for the life of the
/// process and runs participants of any open fan-out, deepest first.
fn help_forever() {
    let _lane = qods_obs::trace::claim_worker_lane();
    let mut state = plock(&STATE);
    loop {
        match state.claim_deeper(0) {
            Some((fan, w)) => {
                drop(state);
                participate(&fan, w);
                state = plock(&STATE);
            }
            None => state = CHANGED.wait(state).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// Blocks, on drop, until every claimed participant of its fan-out has
/// finished; unwinding included, so no participant outlives the borrow
/// its body was erased from. While it waits, the thread helps only
/// fan-outs nested strictly deeper than its own: it may be waiting
/// inside a lazy initializer (`OnceLock::get_or_init`), and a
/// shallower task, such as a sibling of the one that started the
/// initializer, may read the same lazy and would re-enter it on this
/// thread.
struct Join<'a>(&'a Arc<FanOut>);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        let fan = self.0;
        let mut state = plock(&STATE);
        // Withdrawn: no participant is claimed after this point.
        state.open.retain(|f| !Arc::ptr_eq(f, fan));
        while fan.finished.load(Ordering::Relaxed) < fan.claimed.load(Ordering::Relaxed) {
            match state.claim_deeper(fan.depth) {
                Some((other, w)) => {
                    drop(state);
                    participate(&other, w);
                    state = plock(&STATE);
                }
                None => state = CHANGED.wait(state).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// Runs `body(w)` for every `w in 0..participants` on the process-wide
/// pool and returns once all have finished. The caller claims
/// participants of its own fan-out until none is left; idle pool
/// threads, and callers waiting on shallower fan-outs, claim the rest.
fn fan_out<'a>(participants: usize, body: &'a Body<'a>) {
    // SAFETY: the pool keeps `body` as `&'static` although it borrows
    // from this call's frame. It is dereferenced only by
    // `participate` on a claimed participant, and `join` below is
    // dropped before this frame is left, by return or unwind: its
    // drop withdraws the fan-out, so nothing more is claimed, then
    // blocks until every claimed participant has finished. A helper
    // may still hold the `Arc<FanOut>` for a moment after that, but
    // never reads `body` again.
    let body = unsafe { std::mem::transmute::<&'a Body<'a>, &'static Body<'static>>(body) };
    let fan = Arc::new(FanOut {
        depth: DEPTH.with(Cell::get) + 1,
        participants,
        body,
        claimed: AtomicUsize::new(0),
        finished: AtomicUsize::new(0),
    });
    let join = Join(&fan);
    {
        let mut state = plock(&STATE);
        state.start_workers();
        state.open.push(Arc::clone(&fan));
        CHANGED.notify_all();
    }
    loop {
        let next = plock(&STATE).claim_own(&fan);
        let Some(w) = next else { break };
        participate(&fan, w);
    }
    drop(join);
}

/// Runs `worker(worker_index)` for `threads` participants on the
/// process-wide pool, returning results in worker-index order. The
/// calling thread is one participant and helps with the others; with
/// `threads <= 1` the worker runs inline on the caller's thread under
/// the same guard. Every participant runs under the caller's
/// thread-local deadline ([`with_deadline`]) as it was at the call,
/// whichever thread runs it, so nested pools inherit the budget.
///
/// The `pool.worker` fault-injection site fires once per participant
/// start (`panic` and `delay` actions apply; others are ignored).
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
    // Captured on the caller's thread: worker spans on other threads
    // link back to the span that scheduled them (cross-thread parent).
    let parent_span = qods_obs::trace::current_span();
    let guarded = |w: usize| -> Result<R, Failure> {
        let _span = qods_obs::span!(sites::POOL_WORKER).child_of(parent_span);
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            under_deadline(deadline, || {
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
        let _depth = enter_depth(DEPTH.with(Cell::get) + 1);
        return fold_outcomes(vec![guarded(0)]);
    }
    let slots: Vec<Mutex<Option<Result<R, Failure>>>> =
        (0..threads).map(|_| Mutex::new(None)).collect();
    fan_out(threads, &|w| *plock(&slots[w]) = Some(guarded(w)));
    fold_outcomes(
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| unreachable!("every participant ran"))
            })
            .collect(),
    )
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
#[expect(
    clippy::disallowed_methods,
    reason = "the tests arm far and past deadlines"
)]
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
                    check_deadline(); // may run on a pool thread
                    0u32
                })
            })
        })
        .expect_err("every participant must see the deadline");
        assert_eq!(err, Failure::Deadline);
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
