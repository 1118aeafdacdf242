//! In-flight deduplication: N concurrent callers asking for the same
//! key block on **one** computation and all receive the same outcome.
//!
//! A cache dedupes *sequential* repeats — a finished value is served
//! without recomputation. What it cannot dedupe is the thundering
//! herd: callers that miss the same key within the same millisecond
//! would each start the full computation, because none of them has
//! finished populating the cache yet. [`InflightTable`] closes that
//! window: the first arrival for a key becomes the **leader** and
//! computes; every arrival while the leader is in flight becomes a
//! **follower** and blocks on the leader's outcome.
//!
//! Two layers use it: the artifact store single-flights each
//! `(stage, hash)` key ([`crate::ArtifactStore::get_or_compute`]),
//! and the `qods-service` scheduler coalesces concurrent submissions
//! of one job (`Scheduler::run_coalesced`).
//!
//! ## Leader-failure semantics
//!
//! A leader that panics or hits its deadline (its [`LeaderGuard`]
//! drops without [`LeaderGuard::complete`]) marks the slot
//! *abandoned*: followers wake, observe no outcome, and retry from the
//! top — one of them becomes the new leader. Work is therefore never
//! lost to a crashed peer, and a poisoned outcome is never served.

use qods_pool::plock;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// What followers observe when a leader finishes (or vanishes).
enum SlotState<T> {
    /// The leader is still running.
    Running,
    /// The leader finished with this shared outcome.
    Done(T),
    /// The leader dropped without completing (panic/unwind); retry.
    Abandoned,
}

/// One in-flight computation: the leader's eventual outcome plus the
/// wakeup channel followers block on.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

/// The in-flight computations, keyed by `K`.
pub struct InflightTable<K, T> {
    slots: Mutex<HashMap<K, Arc<Slot<T>>>>,
}

impl<K, T> std::fmt::Debug for InflightTable<K, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightTable")
            .field("in_flight", &plock(&self.slots).len())
            .finish()
    }
}

impl<K: Copy + Eq + Hash, T> Default for InflightTable<K, T> {
    fn default() -> Self {
        InflightTable::new()
    }
}

/// The role [`InflightTable::begin`] assigns an arrival.
pub enum Begin<'a, K: Copy + Eq + Hash, T> {
    /// First arrival: compute, then [`LeaderGuard::complete`] it.
    Leader(LeaderGuard<'a, K, T>),
    /// A leader is already computing this key: [`Follower::wait`].
    Follower(Follower<T>),
}

/// The leader's obligation: completing publishes the outcome to every
/// follower; dropping without completing marks the slot abandoned so
/// followers retry instead of hanging or seeing a poisoned value.
pub struct LeaderGuard<'a, K: Copy + Eq + Hash, T> {
    table: &'a InflightTable<K, T>,
    key: K,
    slot: Arc<Slot<T>>,
    completed: bool,
}

/// A follower's handle on the leader's in-flight slot.
pub struct Follower<T> {
    slot: Arc<Slot<T>>,
}

impl<K: Copy + Eq + Hash, T> InflightTable<K, T> {
    /// An empty table.
    pub fn new() -> Self {
        InflightTable {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// How many keys are in flight right now (the `svc.in_flight`
    /// gauge).
    ///
    /// Every lock in this table is poison-tolerant
    /// ([`qods_pool::plock`]): slot state is a single enum
    /// assignment and the map a single insert/remove, so a panicking
    /// holder can't leave either half-updated — and an abandoned
    /// leader must never make the table unusable for the retrying
    /// followers it just woke.
    pub fn len(&self) -> usize {
        plock(&self.slots).len()
    }

    /// Whether no key is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Joins the in-flight computation for `key`, or starts one: the
    /// first caller per key gets [`Begin::Leader`], concurrent callers
    /// get [`Begin::Follower`].
    pub fn begin(&self, key: K) -> Begin<'_, K, T> {
        let mut slots = plock(&self.slots);
        if let Some(slot) = slots.get(&key) {
            return Begin::Follower(Follower {
                slot: Arc::clone(slot),
            });
        }
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState::Running),
            cv: Condvar::new(),
        });
        slots.insert(key, Arc::clone(&slot));
        Begin::Leader(LeaderGuard {
            table: self,
            key,
            slot,
            completed: false,
        })
    }
}

impl<K: Copy + Eq + Hash, T: Clone> LeaderGuard<'_, K, T> {
    /// Publishes the outcome: the key leaves the in-flight table (new
    /// arrivals start fresh — the caller's cache takes over from
    /// here) and every blocked follower wakes with a clone of
    /// `outcome`.
    pub fn complete(mut self, outcome: T) {
        self.finish(SlotState::Done(outcome));
        self.completed = true;
    }
}

impl<K: Copy + Eq + Hash, T> Drop for LeaderGuard<'_, K, T> {
    fn drop(&mut self) {
        if !self.completed {
            // Leader unwound without an outcome: wake followers to
            // retry rather than leaving them blocked forever.
            self.finish(SlotState::Abandoned);
        }
    }
}

// `finish` is the body shared between `complete` and `Drop`; it
// lives on the impl without `T: Clone` so Drop can call it.
impl<K: Copy + Eq + Hash, T> LeaderGuard<'_, K, T> {
    fn finish(&self, state: SlotState<T>) {
        plock(&self.table.slots).remove(&self.key);
        *plock(&self.slot.state) = state;
        self.slot.cv.notify_all();
    }
}

impl<T: Clone> Follower<T> {
    /// Blocks until the leader publishes. `Some(outcome)` on
    /// completion; `None` when the leader was abandoned — call
    /// [`InflightTable::begin`] again (the caller may now lead).
    pub fn wait(self) -> Option<T> {
        let mut state = plock(&self.slot.state);
        loop {
            match &*state {
                SlotState::Running => {
                    state = self
                        .slot
                        .cv
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                SlotState::Done(outcome) => return Some(outcome.clone()),
                SlotState::Abandoned => return None,
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn second_arrival_is_a_follower_and_gets_the_leaders_outcome() {
        let table: InflightTable<u64, u32> = InflightTable::new();
        let Begin::Leader(leader) = table.begin(7) else {
            panic!("first arrival must lead");
        };
        let Begin::Follower(follower) = table.begin(7) else {
            panic!("second arrival must follow");
        };
        assert_eq!(table.len(), 1);
        let waiter = std::thread::spawn(move || follower.wait());
        leader.complete(42);
        assert_eq!(waiter.join().expect("follower thread"), Some(42));
        assert!(table.is_empty(), "completion removes the key");
        // The next arrival for the same key leads again.
        assert!(matches!(table.begin(7), Begin::Leader(_)));
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let table: InflightTable<u64, u32> = InflightTable::new();
        let _a = match table.begin(1) {
            Begin::Leader(l) => l,
            Begin::Follower(_) => panic!("fresh key must lead"),
        };
        assert!(matches!(table.begin(2), Begin::Leader(_)));
    }

    #[test]
    fn abandoned_leader_wakes_followers_to_retry() {
        let table: InflightTable<u64, u32> = InflightTable::new();
        let leader = match table.begin(9) {
            Begin::Leader(l) => l,
            Begin::Follower(_) => panic!("must lead"),
        };
        let Begin::Follower(follower) = table.begin(9) else {
            panic!("must follow");
        };
        drop(leader); // unwind path: no outcome published
        assert_eq!(follower.wait(), None, "abandonment yields no outcome");
        // The key is free: the retrying follower becomes the leader.
        assert!(matches!(table.begin(9), Begin::Leader(_)));
    }

    #[test]
    fn followers_of_a_panicked_leader_retry_and_execute_exactly_once() {
        // The full recovery path: a leader thread panics while holding
        // its guard, both followers wake, and — exactly as the store
        // and the scheduler compose this table with a cache — the
        // retry executes the job once, with the second retrier served
        // by the cache or by following the new leader.
        let table: InflightTable<u64, u32> = InflightTable::new();
        let executions = AtomicUsize::new(0);
        let cache: Mutex<Option<u32>> = Mutex::new(None);

        let run = || loop {
            if let Some(v) = *cache.lock().expect("test cache") {
                return v;
            }
            match table.begin(5) {
                Begin::Leader(leader) => {
                    // A leader consults the cache first, as the store's
                    // leaders do: an earlier retrier may have filled it
                    // since the check above.
                    if let Some(v) = *cache.lock().expect("test cache") {
                        leader.complete(v);
                        return v;
                    }
                    let n = executions.fetch_add(1, Ordering::SeqCst);
                    let v = 40 + n as u32;
                    *cache.lock().expect("test cache") = Some(v);
                    leader.complete(v);
                    return v;
                }
                Begin::Follower(f) => {
                    if let Some(v) = f.wait() {
                        return v;
                    }
                }
            }
        };

        std::thread::scope(|s| {
            let Begin::Leader(doomed) = table.begin(5) else {
                panic!("first arrival must lead");
            };
            let Begin::Follower(f1) = table.begin(5) else {
                panic!("must follow");
            };
            let Begin::Follower(f2) = table.begin(5) else {
                panic!("must follow");
            };
            let w1 = s.spawn(|| {
                f1.wait();
                run()
            });
            let w2 = s.spawn(|| {
                f2.wait();
                run()
            });
            let crash = s.spawn(move || {
                let _guard = doomed;
                panic!("leader dies before completing");
            });
            assert!(crash.join().is_err(), "the leader thread panicked");
            let (a, b) = (w1.join().expect("w1"), w2.join().expect("w2"));
            assert_eq!((a, b), (40, 40), "one retry led, the other shared");
        });
        assert_eq!(
            executions.load(Ordering::SeqCst),
            1,
            "the surviving job ran exactly once"
        );
        assert!(table.is_empty());
    }

    #[test]
    fn herd_of_threads_runs_the_job_exactly_once() {
        const THREADS: usize = 8;
        let table: InflightTable<u64, usize> = InflightTable::new();
        let executions = AtomicUsize::new(0);
        let start = Barrier::new(THREADS);
        // Every thread passes this barrier only after `begin` gave it
        // its role, and the leader completes only after passing it:
        // the other seven are followers by then, so exactly one
        // execution is guaranteed rather than likely.
        let roles_assigned = Barrier::new(THREADS);
        let outcomes: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        match table.begin(1234) {
                            Begin::Leader(leader) => {
                                roles_assigned.wait();
                                let n = executions.fetch_add(1, Ordering::SeqCst);
                                leader.complete(n * 10 + 5);
                                n * 10 + 5
                            }
                            Begin::Follower(f) => {
                                roles_assigned.wait();
                                f.wait().expect("the leader completes")
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("herd thread"))
                .collect()
        });
        assert_eq!(outcomes, vec![5; THREADS]);
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        assert!(table.is_empty());
    }
}
