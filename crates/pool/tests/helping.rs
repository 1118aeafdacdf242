//! Join-by-helping on the process-wide pool. A caller waiting on its
//! fan-out helps only fan-outs nested strictly deeper than its own, so
//! a fan-out started inside a lazy initializer cannot pick up a
//! sibling task that reads the same lazy and re-enter it. A helped
//! task runs under its own fan-out's deadline, never the helper's.
//!
//! Its own test binary: the thread pin is process-global, and the pool
//! starts its helpers from the pin in force at its first fan-out. The
//! tests run one at a time, so each controls who is free to help.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the test-serializing lock and pins the pool to the caller
/// plus one background helper, whatever the host.
fn one_helper() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    qods_pool::set_thread_override(Some(2));
    guard
}

/// A one-shot gate: `wait` blocks until some thread has called `open`.
#[derive(Default)]
struct Latch(Mutex<bool>, Condvar);

impl Latch {
    fn open(&self) {
        *self.0.lock().unwrap() = true;
        self.1.notify_all();
    }

    fn wait(&self) {
        let mut open = self.0.lock().unwrap();
        while !*open {
            open = self.1.wait(open).unwrap();
        }
    }
}

/// Runs `f` on its own thread and fails the test if it has not
/// returned within a generous bound, so a deadlock fails instead of
/// hanging the suite.
fn watchdog<T: Send + 'static>(what: String, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: deadlocked"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: panicked"),
    }
}

/// The caller's outer participant initializes a lazy through a nested
/// fan-out; latches hand one nested participant to the pool's helper
/// and keep it there while the caller, done with its own nested
/// participants, waits for it. Outer participants are still unclaimed
/// then, and one taken by the waiting caller would re-enter the lazy
/// on the caller's thread. Other threads' outer participants never
/// read the lazy, so the helper stays free for the nested fan-out.
#[test]
fn a_fan_out_inside_a_lazy_cannot_deadlock_on_its_siblings() {
    let _serial = one_helper();
    for threads in 1..=4 {
        let got = watchdog(format!("threads = {threads}"), move || {
            let caller = std::thread::current().id();
            let inner_started = Latch::default();
            let helper_inside = Latch::default();
            let lazy: OnceLock<usize> = OnceLock::new();
            let inner_sum: usize = (1..=threads).sum();
            qods_pool::run_workers(threads, |w| {
                if !on(caller) {
                    inner_started.wait();
                    return w + inner_sum;
                }
                let inner = *lazy.get_or_init(|| {
                    qods_pool::run_workers(threads, |v| {
                        inner_started.open();
                        if on(caller) {
                            if threads > 1 {
                                helper_inside.wait();
                            }
                        } else {
                            helper_inside.open();
                            // Hold the helper while the caller waits.
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        v + 1
                    })
                    .iter()
                    .sum()
                });
                w + inner
            })
        });
        let inner_sum: usize = (1..=threads).sum();
        let want: Vec<usize> = (0..threads).map(|w| w + inner_sum).collect();
        assert_eq!(got, want, "threads = {threads}");
    }
}

/// Job A's deadline has already passed and one of its participants
/// panics; job B has no deadline. Latches force the schedule that
/// matters: A's caller has no participant of its own left, waits on
/// the one the pool's helper holds, and so helps B's nested fan-out
/// while B's caller holds B's other participant. The helped task must
/// run under B's deadline (none), not the expired one of the thread
/// running it, and A's panic must stay A's.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test arms an expired deadline"
)]
fn a_helping_caller_carries_neither_its_deadline_nor_its_panic() {
    let _serial = one_helper();
    let (a_outcome, b_outcome) = watchdog("two jobs".to_string(), || {
        let a_held = Latch::default();
        let b_helped = Latch::default();
        let b_finished = Latch::default();
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                let a_caller = std::thread::current().id();
                let past = Instant::now() - Duration::from_millis(1);
                outcome(|| {
                    qods_pool::with_deadline(Some(past), || {
                        qods_pool::run_workers(2, |_| {
                            if on(a_caller) {
                                a_held.wait();
                                panic!("job A's defect");
                            }
                            a_held.open();
                            b_finished.wait();
                        })
                    })
                })
            });
            a_held.wait();
            let b_caller = std::thread::current().id();
            let b = outcome(|| {
                // Nested one level, so A's waiting caller may help it.
                qods_pool::run_workers(1, |_| {
                    qods_pool::run_workers(2, |w| {
                        if on(b_caller) {
                            b_helped.wait();
                        } else {
                            b_helped.open();
                        }
                        qods_pool::check_deadline();
                        w * 10
                    })
                })
            });
            b_finished.open();
            (a.join().unwrap(), b)
        })
    });
    assert_eq!(b_outcome, Ok(vec![vec![0, 10]]), "job B's result");
    assert!(
        matches!(
            a_outcome.as_ref().map_err(String::as_str),
            Err("deadline" | "pool worker panicked: job A's defect")
        ),
        "job A: {a_outcome:?}"
    );
}

fn on(thread: ThreadId) -> bool {
    std::thread::current().id() == thread
}

/// What `f` returned, or how it unwound: `"deadline"` for the
/// cancellation sentinel, else the panic message.
fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if payload.is::<qods_pool::DeadlineHit>() {
            "deadline".to_string()
        } else {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        }
    })
}
