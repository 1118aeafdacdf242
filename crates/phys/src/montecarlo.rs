//! A Monte-Carlo harness: seeded, optionally multi-threaded trial
//! runners with acceptance/error bookkeeping and allocation-free
//! per-trial state.
//!
//! The paper evaluates every ancilla-preparation circuit by Monte-Carlo
//! simulation (§2.2). Circuits with verification can *discard* a trial
//! (the block fails verification and is recycled), so the harness
//! distinguishes discarded trials from accepted ones, and counts logical
//! errors only among accepted trials — matching how the paper separately
//! reports error rates (per delivered ancilla) and the verification
//! failure rate (0.2%).
//!
//! ## Allocation-free trials
//!
//! Every trial closure receives a [`TrialArena`] alongside its RNG: a
//! bundle of reusable buffers (Pauli frame, measurement-flip vector,
//! limb scratch) that the hot path borrows instead of allocating. A
//! steady-state trial performs zero heap allocations.
//!
//! ## Work scheduling and determinism
//!
//! Trials are processed in fixed-size chunks ([`TRIAL_CHUNK`]); each
//! chunk seeds its own RNG from `(seed, chunk index)`. The parallel
//! runner hands chunks to the workspace's shared worker pool
//! ([`qods_pool::WorkQueue`] + [`qods_pool::run_workers`] — chunked
//! work-stealing), so discard-heavy or otherwise unbalanced trial
//! loads cannot idle a thread the way the old static per-thread quota
//! split could. Because the statistics of a chunk
//! depend only on its index — never on which worker ran it — results
//! are bit-identical for a fixed `(trials, seed)` across *any* thread
//! count, including the sequential runner. (This is stronger than the
//! old engine's per-`(seed, threads)` contract; the stream itself
//! differs from the old engine by design — see DESIGN.md.)
//!
//! ## Clean-trial skip-ahead
//!
//! At the paper's rates almost every trial is fault-free, and a
//! fault-free trial of a fixed circuit consumes a fixed number of
//! sampler ops, draws no random numbers and yields a fixed outcome. A
//! stream may declare that trial ([`CleanTrial`]); before each trial
//! the runner then counts the whole clean trials the sampler's
//! in-flight geometric gap already covers in O(1) and simulates only
//! the trial the next fault candidate lands in. The statistics are
//! identical to simulating every trial, because the skipped trials
//! would have left the sampler and the RNG in exactly the state the
//! skip leaves them in.

use crate::error_model::ErrorModel;
use crate::frame::PauliFrame;
use qods_pool::WorkQueue;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trials per scheduling chunk. Large enough that the atomic cursor and
/// per-chunk RNG seeding are noise (a chunk is ~10^5–10^6 ops), small
/// enough that typical trial counts split into many more chunks than
/// cores, which is what lets stealing balance discard-heavy loads.
pub const TRIAL_CHUNK: u64 = 1024;

/// Reusable per-trial buffers: a Pauli frame, a measurement-flip
/// vector, and generic limb scratch. One arena lives per pool participant
/// and is lent to every trial it runs, so steady-state trials allocate
/// nothing.
///
/// # Example
///
/// ```
/// use qods_phys::error_model::ErrorModel;
/// use qods_phys::montecarlo::TrialArena;
/// use qods_phys::ops::PhysOp;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut arena = TrialArena::new();
/// let mut rng = StdRng::seed_from_u64(7);
/// let (frame, flips) = arena.frame_and_flips(3, ErrorModel::paper());
/// frame.run(&[PhysOp::Prep(0), PhysOp::measure_z(0)], &mut rng, flips);
/// assert_eq!(flips.len(), 1);
/// ```
#[derive(Debug)]
pub struct TrialArena {
    frame: PauliFrame,
    flips: Vec<bool>,
    scratch: Vec<u64>,
}

impl TrialArena {
    /// An empty arena; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        TrialArena {
            frame: PauliFrame::new(0, ErrorModel::noiseless()),
            flips: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The arena's Pauli frame, reset for a fresh trial over `n` qubits
    /// under `model` (reusing the existing allocation). The fault
    /// sampler's geometric countdown carries across trials — exact by
    /// memorylessness; the runners isolate it per chunk via
    /// [`TrialArena::reset_sampling`].
    pub fn frame(&mut self, n: usize, model: ErrorModel) -> &mut PauliFrame {
        self.frame.reset(n, model);
        &mut self.frame
    }

    /// Starts a fresh fault-sampling stream (called by the trial
    /// runners at chunk boundaries so a chunk's results are a pure
    /// function of its seed, wherever the arena ran before).
    pub fn reset_sampling(&mut self) {
        self.frame.reset_sampling();
    }

    /// The reset frame plus the reusable measurement-flip buffer, split
    /// so both can be borrowed at once (e.g. for
    /// [`PauliFrame::run`]'s out-parameter).
    pub fn frame_and_flips(
        &mut self,
        n: usize,
        model: ErrorModel,
    ) -> (&mut PauliFrame, &mut Vec<bool>) {
        self.frame.reset(n, model);
        (&mut self.frame, &mut self.flips)
    }

    /// Counts up to `max` whole fault-free trials of `clean` off the
    /// frame's in-flight fault gap, and returns how many. Returns 0
    /// unless the frame samples in skip mode under `clean.model` with a
    /// drawn gap — so a fresh arena, a chunk start, exact sampling and
    /// a frame last reset under another model all run trials as usual.
    pub fn skip_clean_trials(&mut self, clean: &CleanTrial, max: u64) -> u64 {
        self.frame.skip_clean_trials(clean.model, clean.ops, max)
    }

    /// Reusable limb scratch, cleared and zero-filled to `limbs` words.
    pub fn scratch(&mut self, limbs: usize) -> &mut Vec<u64> {
        self.scratch.clear();
        self.scratch.resize(limbs, 0);
        &mut self.scratch
    }
}

impl Default for TrialArena {
    fn default() -> Self {
        TrialArena::new()
    }
}

/// Outcome of one Monte-Carlo trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The circuit delivered its product; `logical_error` records
    /// whether the delivered state carries an uncorrectable error.
    Accepted {
        /// True when the delivered state is logically corrupted.
        logical_error: bool,
    },
    /// Like [`TrialOutcome::Accepted`], with a secondary "any residual
    /// error at all" flag for experiments that report both metrics.
    AcceptedDetailed {
        /// True when the delivered state is logically corrupted.
        logical_error: bool,
        /// True when the delivered state carries *any* non-benign
        /// residual (including correctable ones).
        dirty: bool,
    },
    /// Verification rejected the product; nothing was delivered.
    Discarded,
}

/// A stream's fault-free trial, declared so the runners can count
/// whole clean trials instead of simulating them (see the module docs).
///
/// The declaration must be honest: every trial of the stream resets the
/// arena frame under `model`, and a trial that meets no fault consumes
/// exactly `ops` sampler ops, draws nothing else from its RNG and
/// returns `outcome`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleanTrial {
    /// The error model every trial runs its frame under.
    pub model: ErrorModel,
    /// Sampler ops (fault decisions) one fault-free trial consumes.
    pub ops: u64,
    /// The outcome of a fault-free trial.
    pub outcome: TrialOutcome,
}

/// Aggregated statistics over many trials.
///
/// # Example
///
/// ```
/// use qods_phys::montecarlo::{run_trials, TrialOutcome};
///
/// // A fake experiment that errors 10% of the time and discards 50%.
/// let stats = run_trials(10_000, 42, |rng, _arena| {
///     use rand::Rng;
///     if rng.gen_bool(0.5) {
///         TrialOutcome::Discarded
///     } else {
///         TrialOutcome::Accepted { logical_error: rng.gen_bool(0.1) }
///     }
/// });
/// assert!((stats.discard_rate() - 0.5).abs() < 0.05);
/// assert!((stats.error_rate() - 0.1).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonteCarloStats {
    /// Total trials attempted.
    pub trials: u64,
    /// Trials rejected by verification.
    pub discarded: u64,
    /// Trials that delivered a product.
    pub accepted: u64,
    /// Accepted trials whose product carried a logical error.
    pub logical_errors: u64,
    /// Accepted trials whose product carried any non-benign residual
    /// (only populated by [`TrialOutcome::AcceptedDetailed`]).
    pub dirty_errors: u64,
}

impl MonteCarloStats {
    /// Merges statistics from another run (used by the parallel runner;
    /// counts are sums, so merge order never matters).
    pub fn merge(&mut self, other: &MonteCarloStats) {
        self.trials += other.trials;
        self.discarded += other.discarded;
        self.accepted += other.accepted;
        self.logical_errors += other.logical_errors;
        self.dirty_errors += other.dirty_errors;
    }

    /// Any-residual-error rate among accepted products (0 when the
    /// experiment did not report the detailed flag).
    pub fn dirty_rate(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.dirty_errors as f64 / self.accepted as f64
        }
    }

    /// Logical error rate among *accepted* (delivered) products.
    /// Returns 0 when nothing was accepted.
    pub fn error_rate(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.logical_errors as f64 / self.accepted as f64
        }
    }

    /// Fraction of trials rejected by verification.
    pub fn discard_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.discarded as f64 / self.trials as f64
        }
    }

    /// A 95% confidence half-width for the error rate (normal
    /// approximation); useful for asserting Monte-Carlo agreement.
    pub fn error_rate_ci95(&self) -> f64 {
        if self.accepted == 0 {
            return f64::INFINITY;
        }
        let p = self.error_rate();
        1.96 * (p * (1.0 - p) / self.accepted as f64).sqrt()
    }

    /// A 95% confidence half-width for the discard rate.
    pub fn discard_rate_ci95(&self) -> f64 {
        if self.trials == 0 {
            return f64::INFINITY;
        }
        let p = self.discard_rate();
        1.96 * (p * (1.0 - p) / self.trials as f64).sqrt()
    }

    /// Records `count` trials that all had `outcome`.
    fn record(&mut self, outcome: TrialOutcome, count: u64) {
        self.trials += count;
        let (logical_error, dirty) = match outcome {
            TrialOutcome::Discarded => {
                self.discarded += count;
                return;
            }
            TrialOutcome::Accepted { logical_error } => (logical_error, false),
            TrialOutcome::AcceptedDetailed {
                logical_error,
                dirty,
            } => (logical_error, dirty),
        };
        self.accepted += count;
        self.logical_errors += u64::from(logical_error) * count;
        self.dirty_errors += u64::from(dirty) * count;
    }
}

/// The RNG seed owned by chunk `c` of a run seeded with `seed`.
/// Splitmix-style spreading; `StdRng::seed_from_u64` mixes further.
#[inline]
fn chunk_seed(seed: u64, c: u64) -> u64 {
    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c.wrapping_add(1)))
}

/// Runs the trials of chunk `c` (global trial indices
/// `[c * TRIAL_CHUNK, min(n, (c + 1) * TRIAL_CHUNK))`) into `stats`,
/// counting the whole clean trials `clean` lets it skip.
fn run_chunk<F>(
    n: u64,
    seed: u64,
    c: u64,
    clean: Option<&CleanTrial>,
    trial: &mut F,
    arena: &mut TrialArena,
) -> MonteCarloStats
where
    F: FnMut(&mut StdRng, &mut TrialArena) -> TrialOutcome,
{
    // The chunk boundary is the engine's only cancellation point: a
    // deadline hit unwinds *between* chunks, so partial statistics
    // are never observed and the bit-identical-at-any-thread-count
    // contract survives cancellation. The `mc.chunk` fault site rides
    // the same boundary (chaos tests inject delays to force deadline
    // expiry, and panics to exercise the pool's unwind guard).
    if let Some(action) = qods_fault::check_sleeping(qods_fault::site::MC_CHUNK) {
        if action == qods_fault::FaultAction::Panic {
            // Fault-injection site: this panic IS the injected fault the chaos tests exercise.
            panic!("injected fault: mc chunk {c} panicked");
        }
    }
    qods_pool::check_deadline();
    let lo = c * TRIAL_CHUNK;
    let hi = n.min(lo + TRIAL_CHUNK);
    let mut rng = StdRng::seed_from_u64(chunk_seed(seed, c));
    arena.reset_sampling();
    let mut stats = MonteCarloStats::default();
    let mut t = lo;
    while t < hi {
        if let Some(clean) = clean {
            let skipped = arena.skip_clean_trials(clean, hi - t);
            stats.record(clean.outcome, skipped);
            t += skipped;
            if t == hi {
                break;
            }
        }
        stats.record(trial(&mut rng, arena), 1);
        t += 1;
    }
    stats
}

/// Runs `n` seeded trials sequentially. Identical statistics to
/// [`run_trials_parallel`] at any thread count (both walk the same
/// per-chunk RNG streams).
pub fn run_trials<F>(n: u64, seed: u64, mut trial: F) -> MonteCarloStats
where
    F: FnMut(&mut StdRng, &mut TrialArena) -> TrialOutcome,
{
    let mut arena = TrialArena::new();
    let mut total = MonteCarloStats::default();
    for c in 0..n.div_ceil(TRIAL_CHUNK) {
        total.merge(&run_chunk(n, seed, c, None, &mut trial, &mut arena));
    }
    total
}

/// Runs `n` seeded trials across `threads` pool participants with chunked
/// work-stealing: workers drain `TRIAL_CHUNK`-sized chunks from an
/// atomic cursor, so a worker that lands on expensive (e.g.
/// discard-and-retry-heavy) trials simply claims fewer chunks instead
/// of gating the join. Results are bit-identical to [`run_trials`] for
/// the same `(n, seed)`, whatever `threads` is.
pub fn run_trials_parallel<F>(n: u64, seed: u64, threads: usize, trial: F) -> MonteCarloStats
where
    F: Fn(&mut StdRng, &mut TrialArena) -> TrialOutcome + Sync,
{
    run_trials_multi(&[(n, seed, None)], threads, |_, rng, arena| {
        trial(rng, arena)
    })
    .pop()
    .expect("one stream in, one stats out")
}

/// Runs several independent trial streams — `jobs[i] = (n_i, seed_i,
/// clean_i)`, trial closures told their stream index — through **one**
/// shared work-stealing pool. All streams' chunks feed a single atomic
/// cursor, so a long stream overlaps a short one instead of the pool
/// being statically split between them. A stream that declares its
/// [`CleanTrial`] has its covered clean trials counted, not simulated.
/// Stream `i`'s statistics are bit-identical to `run_trials(n_i,
/// seed_i, ...)` at any thread count, declared or not.
pub fn run_trials_multi<F>(
    jobs: &[(u64, u64, Option<CleanTrial>)],
    threads: usize,
    trial: F,
) -> Vec<MonteCarloStats>
where
    F: Fn(usize, &mut StdRng, &mut TrialArena) -> TrialOutcome + Sync,
{
    // Global chunk index space: stream 0's chunks first, then stream
    // 1's, ... mapped back through the prefix sums.
    let chunk_counts: Vec<u64> = jobs
        .iter()
        .map(|&(n, ..)| n.div_ceil(TRIAL_CHUNK))
        .collect();
    let total_chunks: u64 = chunk_counts.iter().sum();
    let locate = |g: u64| -> (usize, u64) {
        let mut base = 0u64;
        for (i, &c) in chunk_counts.iter().enumerate() {
            if g < base + c {
                return (i, g - base);
            }
            base += c;
        }
        // Proven invariant: callers draw g from 0..total_chunks, the sum of chunk_counts.
        unreachable!("global chunk index out of range")
    };
    let threads = (threads.max(1) as u64).min(total_chunks.max(1)) as usize;
    if threads <= 1 {
        let mut arena = TrialArena::new();
        let mut totals = vec![MonteCarloStats::default(); jobs.len()];
        for g in 0..total_chunks {
            let (i, c) = locate(g);
            let (n, seed, clean) = &jobs[i];
            let mut f = |rng: &mut StdRng, arena: &mut TrialArena| trial(i, rng, arena);
            totals[i].merge(&run_chunk(*n, *seed, c, clean.as_ref(), &mut f, &mut arena));
        }
        return totals;
    }
    let queue = WorkQueue::new(total_chunks);
    let workers = qods_pool::run_workers(threads, |_| {
        let mut arena = TrialArena::new();
        let mut stats = vec![MonteCarloStats::default(); jobs.len()];
        while let Some(g) = queue.claim() {
            let (i, c) = locate(g);
            let (n, seed, clean) = &jobs[i];
            let mut f = |rng: &mut StdRng, arena: &mut TrialArena| trial(i, rng, arena);
            stats[i].merge(&run_chunk(*n, *seed, c, clean.as_ref(), &mut f, &mut arena));
        }
        stats
    });
    let mut totals = vec![MonteCarloStats::default(); jobs.len()];
    for worker in &workers {
        for (t, w) in totals.iter_mut().zip(worker) {
            t.merge(w);
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn stats_bookkeeping() {
        let stats = run_trials(1000, 1, |rng, _| {
            if rng.gen_bool(0.25) {
                TrialOutcome::Discarded
            } else {
                TrialOutcome::Accepted {
                    logical_error: rng.gen_bool(0.5),
                }
            }
        });
        assert_eq!(stats.trials, 1000);
        assert_eq!(stats.accepted + stats.discarded, 1000);
        assert!((stats.discard_rate() - 0.25).abs() < 0.06);
        assert!((stats.error_rate() - 0.5).abs() < 0.06);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test arms far and past deadlines"
    )]
    fn deadlines_cancel_cleanly_and_leave_determinism_intact() {
        let trial = |rng: &mut StdRng, _: &mut TrialArena| TrialOutcome::Accepted {
            logical_error: rng.gen_bool(0.01),
        };
        // Reference run with no deadline at all.
        let baseline = run_trials(10_000, 7, trial);
        // A far deadline changes nothing, bit for bit, at any thread
        // count: the cancellation point is pure control flow.
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        for threads in [1, 4] {
            let under_deadline = qods_pool::with_deadline(Some(far), || {
                run_trials_parallel(10_000, 7, threads, trial)
            });
            assert_eq!(under_deadline, baseline, "threads = {threads}");
        }
        // An expired deadline unwinds with the sentinel before any
        // chunk runs — nothing partial escapes.
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let err = qods_pool::with_deadline(Some(past), || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_trials(10_000, 7, trial)
            }))
        })
        .expect_err("expired deadline must cancel the run");
        assert!(
            err.downcast_ref::<qods_pool::DeadlineHit>().is_some(),
            "cancellation unwinds with the deadline sentinel"
        );
        // And the engine is unpoisoned: the same run succeeds after.
        assert_eq!(run_trials(10_000, 7, trial), baseline);
    }

    #[test]
    fn parallel_matches_totals() {
        let stats = run_trials_parallel(10_000, 9, 4, |rng, _| TrialOutcome::Accepted {
            logical_error: rng.gen_bool(0.01),
        });
        assert_eq!(stats.trials, 10_000);
        assert_eq!(stats.accepted, 10_000);
        assert!((stats.error_rate() - 0.01).abs() < 0.005);
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let f = |rng: &mut StdRng, _: &mut TrialArena| TrialOutcome::Accepted {
            logical_error: rng.gen_bool(0.3),
        };
        let sequential = run_trials(5000, 77, f);
        for threads in [1, 2, 3, 4, 7] {
            let parallel = run_trials_parallel(5000, 77, threads, f);
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_is_reproducible() {
        let f = |rng: &mut StdRng, _: &mut TrialArena| TrialOutcome::Accepted {
            logical_error: rng.gen_bool(0.3),
        };
        let a = run_trials_parallel(5000, 77, 3, f);
        let b = run_trials_parallel(5000, 77, 3, f);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_stream_pool_matches_single_stream_runs() {
        // Each stream through the shared pool must equal its own
        // standalone run, at any thread count, even with uneven sizes.
        let jobs = [
            (3 * TRIAL_CHUNK + 7, 5u64, None),
            (100, 9, None),
            (TRIAL_CHUNK, 5, None),
        ];
        let trial = |i: usize, rng: &mut StdRng, _: &mut TrialArena| TrialOutcome::Accepted {
            logical_error: rng.gen_bool(0.1 * (i + 1) as f64),
        };
        let expected: Vec<MonteCarloStats> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(n, seed, _))| run_trials(n, seed, |rng, a| trial(i, rng, a)))
            .collect();
        for threads in [1, 2, 5] {
            let got = run_trials_multi(&jobs, threads, trial);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_tail_chunk_is_counted_once() {
        // n deliberately not a multiple of TRIAL_CHUNK.
        let n = 2 * TRIAL_CHUNK + 137;
        let stats = run_trials_parallel(n, 5, 4, |_, _| TrialOutcome::Accepted {
            logical_error: false,
        });
        assert_eq!(stats.trials, n);
        assert_eq!(stats.accepted, n);
    }

    #[test]
    fn arena_buffers_are_reused_across_trials() {
        use crate::ops::PhysOp;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let reallocs = AtomicUsize::new(0);
        let mut last_ptr: *const u64 = std::ptr::null();
        let _ = run_trials(3000, 11, |rng, arena| {
            let (frame, flips) = arena.frame_and_flips(28, ErrorModel::paper());
            frame.run(
                &[PhysOp::Prep(0), PhysOp::cx(0, 1), PhysOp::measure_z(1)],
                rng,
                flips,
            );
            let logical_error = flips[0];
            let ptr = arena.scratch(1).as_ptr();
            if !last_ptr.is_null() && ptr != last_ptr {
                reallocs.fetch_add(1, Ordering::Relaxed);
            }
            last_ptr = ptr;
            TrialOutcome::Accepted { logical_error }
        });
        // The scratch buffer settles after its first growth and must
        // then stay put for the entire run.
        assert!(reallocs.load(Ordering::Relaxed) <= 1);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = MonteCarloStats::default();
        assert_eq!(s.error_rate(), 0.0);
        assert_eq!(s.discard_rate(), 0.0);
        assert!(s.error_rate_ci95().is_infinite());
        assert!(s.discard_rate_ci95().is_infinite());
    }
}
