//! Exactness of the Monte-Carlo engine: the Fig 4 panel's statistics
//! are pinned bit for bit, and counting declared clean trials instead
//! of simulating them never changes a count.

use proptest::prelude::*;
use qods_phys::error_model::ErrorModel;
use qods_phys::montecarlo::{run_trials_multi, MonteCarloStats, TrialOutcome, TRIAL_CHUNK};
use qods_steane::code::SteaneCode;
use qods_steane::eval::{evaluate_all, evaluate_prep};
use qods_steane::prep::{run_prep_in, PrepOutcome, PrepStrategy};
use speed_of_data::StudyConfig;

fn stats(trials: u64, discarded: u64, logical_errors: u64, dirty_errors: u64) -> MonteCarloStats {
    MonteCarloStats {
        trials,
        discarded,
        accepted: trials - discarded,
        logical_errors,
        dirty_errors,
    }
}

/// The paper-config Fig 4 panel, exactly. Any engine change that moves
/// one of these counts changed the RNG stream or the physics.
#[test]
fn paper_panel_statistics_are_pinned() {
    let expected = [
        (PrepStrategy::Basic, stats(200_000, 0, 67, 319)),
        (PrepStrategy::VerifyOnly, stats(200_000, 529, 12, 206)),
        (PrepStrategy::CorrectOnly, stats(200_000, 0, 66, 1031)),
        (PrepStrategy::VerifyAndCorrect, stats(200_000, 2552, 0, 72)),
    ];
    let seed = StudyConfig::default().seed;
    for threads in [1, 2] {
        let evals = evaluate_all(ErrorModel::paper(), 200_000, seed, threads);
        for (e, (strategy, want)) in evals.iter().zip(expected) {
            assert_eq!(e.strategy, strategy);
            assert_eq!(e.stats, want, "{strategy:?} at {threads} threads");
        }
    }
}

/// Every trial simulated: the four strategies with no clean-trial
/// declaration.
fn simulate_every_trial(
    model: ErrorModel,
    trials: u64,
    seed: u64,
    threads: usize,
) -> Vec<MonteCarloStats> {
    let code = SteaneCode::new();
    let jobs = [(trials, seed, None); 4];
    run_trials_multi(&jobs, threads, |i, rng, arena| {
        match run_prep_in(PrepStrategy::ALL[i], model, rng, arena).0 {
            PrepOutcome::Discarded => TrialOutcome::Discarded,
            delivered => TrialOutcome::AcceptedDetailed {
                logical_error: delivered.is_uncorrectable(&code),
                dirty: delivered.is_dirty(&code),
            },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The evaluations, which declare each strategy's clean trial,
    /// equal simulating every trial: all four strategies at rates from
    /// the paper's to 400x and 1, 2 and 4 threads, over ragged trial
    /// counts and seeds.
    #[test]
    fn declared_clean_trials_match_simulating_every_trial(
        chunks in 0u64..3,
        tail in 1u64..TRIAL_CHUNK,
        seed in 0u64..1_000_000,
    ) {
        let trials = chunks * TRIAL_CHUNK + tail;
        for scale in [1.0, 10.0, 100.0, 400.0] {
            let model = ErrorModel::paper().scaled(scale);
            for threads in [1, 2, 4] {
                let simulated = simulate_every_trial(model, trials, seed, threads);
                let panel = evaluate_all(model, trials, seed, threads);
                for (e, sim) in panel.iter().zip(&simulated) {
                    prop_assert_eq!(e.stats, *sim);
                    let single = evaluate_prep(e.strategy, model, trials, seed, threads);
                    prop_assert_eq!(single.stats, *sim);
                }
            }
        }
    }
}
