//! Monte-Carlo evaluation of the ancilla preparation circuits —
//! the experiment behind Fig 4 and the §2.3 numbers.
//!
//! Two delivered-quality metrics are reported side by side:
//!
//! * **uncorrectable rate** — the delivered block carries a residual
//!   that can corrupt data logically when the ancilla is consumed
//!   ([`SteaneCode::ancilla_uncorrectable`]); and
//! * **dirty rate** — the delivered block carries *any* non-benign
//!   residual, correctable or not ([`SteaneCode::ancilla_dirty`]).
//!
//! The paper reports a single number per circuit; its basic-prep value
//! (1.8e-3) is close to the circuit's entire fault budget, which
//! matches the dirty metric, while the ordering and the headline
//! "more than an order of magnitude improvement" of verify-and-correct
//! over verify-only are strongest in the uncorrectable metric. See
//! EXPERIMENTS.md for the paper-vs-measured discussion.

use crate::code::SteaneCode;
use crate::executor::OpCounts;
use crate::prep::{run_prep, run_prep_in, PrepOutcome, PrepStrategy};
use qods_phys::error_model::ErrorModel;
use qods_phys::montecarlo::{run_trials_multi, CleanTrial, MonteCarloStats, TrialOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The evaluation of one preparation strategy.
#[derive(Debug, Clone, Copy)]
pub struct PrepEvaluation {
    /// Which circuit was evaluated.
    pub strategy: PrepStrategy,
    /// Monte-Carlo statistics: discard rate plus both error rates
    /// (`error_rate()` = uncorrectable, `dirty_rate()` = any residual).
    pub stats: MonteCarloStats,
    /// Physical op census of one (noiseless) attempt, for latency and
    /// area accounting.
    pub ops: OpCounts,
}

impl PrepEvaluation {
    /// Delivered uncorrectable-error rate.
    pub fn error_rate(&self) -> f64 {
        self.stats.error_rate()
    }

    /// Delivered any-residual ("dirty") rate.
    pub fn dirty_rate(&self) -> f64 {
        self.stats.dirty_rate()
    }

    /// Verification failure (discard) rate — §2.3 reports 0.2% for the
    /// verified subunit.
    pub fn discard_rate(&self) -> f64 {
        self.stats.discard_rate()
    }
}

/// The Monte-Carlo record of one preparation outcome.
fn trial_outcome(outcome: PrepOutcome, code: &SteaneCode) -> TrialOutcome {
    match outcome {
        PrepOutcome::Discarded => TrialOutcome::Discarded,
        delivered => TrialOutcome::AcceptedDetailed {
            logical_error: delivered.is_uncorrectable(code),
            dirty: delivered.is_dirty(code),
        },
    }
}

/// The noiseless dry run of `strategy`: its op census, and the clean
/// trial it declares to the runner — a fault-free attempt under `model`
/// takes the same path, so it consumes one sampler op per counted op
/// and yields the dry run's outcome.
fn dry_run(strategy: PrepStrategy, model: ErrorModel, seed: u64) -> (OpCounts, CleanTrial) {
    let mut dry = StdRng::seed_from_u64(seed);
    let (outcome, ops) = run_prep(strategy, ErrorModel::noiseless(), &mut dry);
    let clean = CleanTrial {
        model,
        ops: ops.total(),
        outcome: trial_outcome(outcome, &SteaneCode::new()),
    };
    (ops, clean)
}

/// Runs the Monte-Carlo evaluation of one strategy.
///
/// Statistics are bit-identical for a fixed `(trials, seed)` at *any*
/// `threads` value (the runner walks per-chunk RNG streams; see
/// `qods_phys::montecarlo`), and the trial hot path is allocation-free:
/// each worker's [`qods_phys::montecarlo::TrialArena`] frame is reused
/// across its trials. Fault-free trials are counted, not simulated
/// (the strategy declares its [`CleanTrial`]).
pub fn evaluate_prep(
    strategy: PrepStrategy,
    model: ErrorModel,
    trials: u64,
    seed: u64,
    threads: usize,
) -> PrepEvaluation {
    evaluate(&[strategy], model, trials, seed, threads)[0]
}

/// Evaluates all four strategies (the full Fig 4 panel).
///
/// All four panels' trial chunks feed **one** shared work-stealing
/// pool ([`run_trials_multi`]), so a multi-core box overlaps the cheap
/// basic panel with the expensive verify-and-correct one — no static
/// split of `threads` between panels, and no panel-level join barrier
/// until everything is drained. Per-strategy statistics are
/// bit-identical to calling [`evaluate_prep`] per strategy, at any
/// thread count.
pub fn evaluate_all(
    model: ErrorModel,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Vec<PrepEvaluation> {
    evaluate(&PrepStrategy::ALL, model, trials, seed, threads)
}

/// Evaluates `strategies` as streams of one shared runner pool.
fn evaluate(
    strategies: &[PrepStrategy],
    model: ErrorModel,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Vec<PrepEvaluation> {
    let code = SteaneCode::new();
    let dry: Vec<(OpCounts, CleanTrial)> = strategies
        .iter()
        .map(|&s| dry_run(s, model, seed))
        .collect();
    let jobs: Vec<_> = dry
        .iter()
        .map(|&(_, clean)| (trials, seed, Some(clean)))
        .collect();
    let stats = run_trials_multi(&jobs, threads, |i, rng, arena| {
        trial_outcome(run_prep_in(strategies[i], model, rng, arena).0, &code)
    });
    strategies
        .iter()
        .zip(dry)
        .zip(stats)
        .map(|((&strategy, (ops, _)), stats)| PrepEvaluation {
            strategy,
            stats,
            ops,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inflated error rate so the hierarchy resolves with few trials.
    fn fast_model() -> ErrorModel {
        ErrorModel::paper().scaled(10.0)
    }

    /// An RNG whose uniform draws are all the largest below 1, so a
    /// sampler's first gap is as long as it gets (~3.7e5 ops at
    /// p = 1e-4): a preset gap no single trial exhausts.
    struct LongestGap;

    impl rand::Rng for LongestGap {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn declared_clean_trials_match_measured_sampler_consumption() {
        use qods_phys::montecarlo::TrialArena;
        use qods_phys::ops::PhysOp;
        let model = ErrorModel::paper();
        let single_ops = CleanTrial {
            model,
            ops: 1,
            outcome: TrialOutcome::Discarded,
        };
        // Measure the preset gap: one op draws it, and counting
        // single-op runs reads off the rest.
        let mut arena = TrialArena::new();
        arena
            .frame(1, model)
            .apply(&PhysOp::Prep(0), &mut LongestGap);
        let gap = 1 + arena.skip_clean_trials(&single_ops, u64::MAX);
        let mut declared = Vec::new();
        for s in PrepStrategy::ALL {
            let (_, clean) = dry_run(s, model, 1);
            let mut arena = TrialArena::new();
            let (outcome, _) = run_prep_in(s, model, &mut LongestGap, &mut arena);
            let consumed = gap - arena.skip_clean_trials(&single_ops, u64::MAX);
            assert_eq!(consumed, clean.ops, "{s:?}: declared vs consumed ops");
            assert_eq!(trial_outcome(outcome, &SteaneCode::new()), clean.outcome);
            declared.push(clean.ops);
        }
        assert_eq!(declared, [28, 78, 124, 274]);
    }

    #[test]
    fn hierarchy_matches_paper_ordering() {
        // With p_gate = 1e-3 the circuits must reproduce Fig 4's
        // ordering in the uncorrectable metric: v&c << verify-only,
        // verify-only < basic, correct-only not better than verify-only.
        let evals = evaluate_all(fast_model(), 60_000, 1234, 4);
        let get = |s: PrepStrategy| {
            *evals
                .iter()
                .find(|e| e.strategy == s)
                .expect("strategy present")
        };
        let basic = get(PrepStrategy::Basic);
        let verify = get(PrepStrategy::VerifyOnly);
        let correct = get(PrepStrategy::CorrectOnly);
        let vc = get(PrepStrategy::VerifyAndCorrect);
        // Verification alone beats correction alone (§2.3: "Correction
        // alone loses to verification alone in both error and area").
        assert!(
            verify.error_rate() < correct.error_rate(),
            "verify {} !< correct {}",
            verify.error_rate(),
            correct.error_rate()
        );
        // Verify-and-correct is more than an order of magnitude better
        // than verify alone.
        assert!(
            vc.error_rate() * 10.0 < verify.error_rate(),
            "v&c {} not >>10x below verify {}",
            vc.error_rate(),
            verify.error_rate()
        );
        // And in the dirty metric, verified pipelines improve on basic.
        // (Correct-only transfers its partners' residuals onto the
        // delivered block, so it does not — see EXPERIMENTS.md.)
        assert!(vc.dirty_rate() < basic.dirty_rate());
        assert!(verify.dirty_rate() < basic.dirty_rate());
        assert!(basic.error_rate() > 0.0);
    }

    #[test]
    fn evaluation_is_thread_count_invariant() {
        // The panel statistics must not depend on how many workers ran
        // them — neither inside one strategy nor across the panel pool —
        // and the shared-pool panel must equal per-strategy evaluation.
        let a = evaluate_all(fast_model(), 4_000, 3, 1);
        for (e, &s) in a.iter().zip(&PrepStrategy::ALL) {
            let single = evaluate_prep(s, fast_model(), 4_000, 3, 2);
            assert_eq!(e.strategy, s);
            assert_eq!(e.stats, single.stats, "panel vs single for {s:?}");
        }
        for threads in [2, 4, 8] {
            let b = evaluate_all(fast_model(), 4_000, 3, threads);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.strategy, y.strategy);
                assert_eq!(x.stats, y.stats, "threads = {threads}");
            }
        }
    }

    #[test]
    fn discard_rate_is_small_but_nonzero() {
        let eval = evaluate_prep(PrepStrategy::VerifyOnly, fast_model(), 20_000, 9, 4);
        let d = eval.discard_rate();
        // 10x-inflated noise => roughly 10x the paper's 0.2%.
        assert!(d > 0.001, "discard rate {d} suspiciously low");
        assert!(d < 0.2, "discard rate {d} suspiciously high");
    }

    #[test]
    fn basic_never_discards() {
        let eval = evaluate_prep(PrepStrategy::Basic, fast_model(), 2_000, 9, 2);
        assert_eq!(eval.stats.discarded, 0);
    }

    #[test]
    fn dirty_rate_dominates_uncorrectable_rate() {
        for s in PrepStrategy::ALL {
            let e = evaluate_prep(s, fast_model(), 10_000, 77, 4);
            assert!(
                e.dirty_rate() >= e.error_rate(),
                "{:?}: dirty {} < uncorrectable {}",
                s,
                e.dirty_rate(),
                e.error_rate()
            );
        }
    }
}
