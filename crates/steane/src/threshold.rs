//! Error-rate scaling sweeps: how each preparation circuit's delivered
//! quality responds to the physical error rate.
//!
//! The paper fixes p_gate = 1e-4; this extension sweeps the scale to
//! expose the structural difference between the circuits: the basic
//! and verify-only circuits degrade linearly in p (first-order fault
//! paths), while verify-and-correct degrades quadratically until its
//! second-order floor crosses the first-order circuits — the
//! pseudo-threshold structure familiar from Steane's overhead analyses
//! (the paper's \[4\]).

use crate::eval::{evaluate_prep, PrepEvaluation};
use crate::prep::PrepStrategy;
use qods_phys::error_model::ErrorModel;

/// One point of a threshold sweep.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdPoint {
    /// Multiplier applied to the paper's error rates.
    pub scale: f64,
    /// The resulting physical gate error probability.
    pub p_gate: f64,
    /// Evaluation at this scale.
    pub eval: PrepEvaluation,
}

/// Sweeps `scales` (multipliers on the paper's p_gate = 1e-4) for one
/// strategy.
pub fn threshold_sweep(
    strategy: PrepStrategy,
    scales: &[f64],
    trials: u64,
    seed: u64,
    threads: usize,
) -> Vec<ThresholdPoint> {
    scales
        .iter()
        .map(|&scale| {
            let model = ErrorModel::paper().scaled(scale);
            ThresholdPoint {
                scale,
                p_gate: model.p_gate,
                eval: evaluate_prep(strategy, model, trials, seed, threads),
            }
        })
        .collect()
}

/// Fits the scaling exponent of the uncorrectable rate between two
/// sweep points: `rate ~ p^alpha` gives
/// `alpha = log(r2/r1) / log(p2/p1)`. Returns `None` when either rate
/// resolved to zero.
pub fn scaling_exponent(a: &ThresholdPoint, b: &ThresholdPoint) -> Option<f64> {
    let (r1, r2) = (a.eval.error_rate(), b.eval.error_rate());
    if r1 <= 0.0 || r2 <= 0.0 {
        return None;
    }
    Some((r2 / r1).ln() / (b.p_gate / a.p_gate).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_prep_scales_linearly() {
        let pts = threshold_sweep(PrepStrategy::Basic, &[10.0, 40.0], 30_000, 5, 4);
        let alpha = scaling_exponent(&pts[0], &pts[1]).expect("rates resolved");
        assert!(
            (0.7..1.4).contains(&alpha),
            "basic prep exponent {alpha}, expected ~1"
        );
    }

    #[test]
    fn verify_and_correct_scales_superlinearly() {
        let pts = threshold_sweep(PrepStrategy::VerifyAndCorrect, &[30.0, 100.0], 60_000, 5, 4);
        match scaling_exponent(&pts[0], &pts[1]) {
            Some(alpha) => assert!(alpha > 1.3, "v&c exponent {alpha}, expected ~2"),
            // At these sizes the low-scale point may resolve to zero —
            // itself evidence of super-linear suppression.
            None => assert!(pts[0].eval.error_rate() < 1e-3),
        }
    }

    #[test]
    fn discard_rate_grows_with_noise() {
        let pts = threshold_sweep(PrepStrategy::VerifyOnly, &[5.0, 50.0], 10_000, 5, 4);
        assert!(pts[1].eval.discard_rate() > pts[0].eval.discard_rate());
    }
}
