//! Per-operation independent error probabilities, and the fault
//! sampler that turns them into a stream of fault decisions.
//!
//! §2.2 of the paper: "We assume an independent error probability for
//! each gate and movement operation. The gate error rate is 1e-4 and the
//! error per movement op is 1e-6." Gates here include measurement and
//! preparation; turns are movement.
//!
//! ## Geometric skip-sampling
//!
//! At the paper's rates a Bernoulli draw per physical op wastes
//! ~10^4–10^6 RNG calls per actual fault. [`FaultSampler`] instead
//! draws the *gap* to the next fault candidate from a geometric
//! distribution at the dominating rate `p_max = max(p_gate, p_move)`
//! and counts ops down for free; when the countdown strikes an op whose
//! own rate `p_k` is below `p_max`, the candidate is *thinned* —
//! accepted with probability `p_k / p_max` — which reproduces exact
//! independent per-op Bernoulli faults (both constructions make every
//! op fault independently with probability `p_k`; the geometric gap is
//! just the run-length encoding of the Bernoulli stream at rate
//! `p_max`). Noiseless stretches therefore cost zero RNG calls.
//!
//! Above [`SKIP_MAX_P`] the gap draw (one `ln` plus one thinning draw
//! roughly every `1/p_max` ops) stops paying for itself against a plain
//! Bernoulli per op, so [`FaultSampling::Auto`] falls back to exact
//! per-op sampling there. See DESIGN.md for the crossover derivation.

use crate::ops::PhysOpKind;
use rand::Rng;

/// Error-rate regime above which geometric skip-sampling stops paying
/// and [`FaultSampling::Auto`] resolves to exact per-op draws.
///
/// The skip path costs one logarithm per candidate plus one thinning
/// draw, amortized over `1/p_max` ops; the exact path costs one uniform
/// draw per op. With a `ln` costing a handful of uniform draws, the
/// crossover sits around `p_max ~ 0.1`; 0.05 keeps a safety margin so
/// Auto never picks the slower path.
pub const SKIP_MAX_P: f64 = 0.05;

/// How fault locations are sampled from the per-op rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultSampling {
    /// Geometric skip-sampling below [`SKIP_MAX_P`], exact above it.
    #[default]
    Auto,
    /// One Bernoulli draw per op, unconditionally (the pre-skip-sampler
    /// engine behavior; retained for differential testing).
    Exact,
    /// Geometric skip-sampling regardless of rate (for testing the
    /// skip path in regimes Auto would not pick it).
    Skip,
}

/// Error probabilities per physical operation.
///
/// # Example
///
/// ```
/// use qods_phys::error_model::ErrorModel;
/// use qods_phys::ops::PhysOpKind;
///
/// let m = ErrorModel::paper();
/// assert_eq!(m.p_of(PhysOpKind::TwoQubitGate), 1e-4);
/// assert_eq!(m.p_of(PhysOpKind::StraightMove), 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Probability of a fault at any gate-type op (1q, 2q, measure, prep).
    pub p_gate: f64,
    /// Probability of a fault at any movement op (straight move, turn).
    pub p_move: f64,
    /// Fault-location sampling strategy (statistically equivalent
    /// choices; they differ in RNG stream and speed only).
    pub sampling: FaultSampling,
}

impl ErrorModel {
    /// The paper's values: gate 1e-4, movement 1e-6.
    pub fn paper() -> Self {
        ErrorModel {
            p_gate: 1e-4,
            p_move: 1e-6,
            sampling: FaultSampling::Auto,
        }
    }

    /// A noiseless model, for functional testing of circuits.
    pub fn noiseless() -> Self {
        ErrorModel {
            p_gate: 0.0,
            p_move: 0.0,
            sampling: FaultSampling::Auto,
        }
    }

    /// A uniformly scaled copy (for threshold-style sweeps).
    pub fn scaled(&self, factor: f64) -> Self {
        ErrorModel {
            p_gate: self.p_gate * factor,
            p_move: self.p_move * factor,
            sampling: self.sampling,
        }
    }

    /// A copy with the given fault-location sampling strategy.
    pub fn with_sampling(&self, sampling: FaultSampling) -> Self {
        ErrorModel { sampling, ..*self }
    }

    /// Fault probability for an op kind.
    pub fn p_of(&self, kind: PhysOpKind) -> f64 {
        match kind {
            PhysOpKind::OneQubitGate
            | PhysOpKind::TwoQubitGate
            | PhysOpKind::Measurement
            | PhysOpKind::ZeroPrepare => self.p_gate,
            PhysOpKind::StraightMove | PhysOpKind::Turn => self.p_move,
        }
    }

    /// The dominating per-op rate (the geometric gap is drawn at this
    /// rate; slower op kinds are thinned down from it).
    pub fn p_max(&self) -> f64 {
        self.p_gate.max(self.p_move)
    }
}

impl Default for ErrorModel {
    /// Defaults to the paper's error rates.
    fn default() -> Self {
        ErrorModel::paper()
    }
}

/// Sentinel for "no gap drawn yet"; lazily replaced by a real draw at
/// the first op so that resetting the sampler costs no RNG call. A
/// legitimate draw this large would require `p_max < ~1e-17`, far below
/// anything the study sweeps, and colliding with it merely costs one
/// redraw.
const GAP_UNDRAWN: u64 = u64::MAX;

/// Resolved sampling mode (Auto collapsed against the actual rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// All rates zero: never fault, never draw.
    Noiseless,
    /// Bernoulli draw per op.
    Exact,
    /// Geometric gap at `p_max`, thinned per op kind.
    Skip,
}

/// Stateful fault-location sampler for one [`ErrorModel`].
///
/// Statistically equivalent to an independent Bernoulli draw per op
/// under every [`FaultSampling`] choice; the skip mode merely
/// run-length-encodes the fault stream. The RNG streams of the modes
/// differ by design.
///
/// # Example
///
/// ```
/// use qods_phys::error_model::{ErrorModel, FaultSampler};
/// use qods_phys::ops::PhysOpKind;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut s = FaultSampler::new(ErrorModel::paper());
/// let faults = (0..10_000)
///     .filter(|_| s.fault_at(PhysOpKind::TwoQubitGate, &mut rng))
///     .count();
/// assert!(faults < 20); // ~1 expected at p = 1e-4
/// ```
#[derive(Debug, Clone)]
pub struct FaultSampler {
    model: ErrorModel,
    mode: Mode,
    /// Dominating rate the gap is drawn at (skip mode).
    p_max: f64,
    /// Precomputed `ln(1 - p_max)` (skip mode; strictly negative).
    ln_1m_p: f64,
    /// Fault-free ops remaining before the next candidate (skip mode).
    gap: u64,
}

impl FaultSampler {
    /// A sampler for `model`, resolving [`FaultSampling::Auto`] against
    /// the model's rates.
    pub fn new(model: ErrorModel) -> Self {
        let p_max = model.p_max();
        let mode = if p_max <= 0.0 {
            Mode::Noiseless
        } else {
            match model.sampling {
                FaultSampling::Exact => Mode::Exact,
                FaultSampling::Skip => Mode::Skip,
                FaultSampling::Auto => {
                    if p_max <= SKIP_MAX_P {
                        Mode::Skip
                    } else {
                        Mode::Exact
                    }
                }
            }
        };
        FaultSampler {
            model,
            mode,
            p_max,
            ln_1m_p: if mode == Mode::Skip {
                (1.0 - p_max).ln()
            } else {
                0.0
            },
            gap: GAP_UNDRAWN,
        }
    }

    /// The model this sampler draws from.
    pub fn model(&self) -> ErrorModel {
        self.model
    }

    /// Forgets any in-flight gap so the next decision starts a fresh
    /// geometric draw. Called at trial boundaries to make each trial a
    /// pure function of its RNG state (the geometric distribution is
    /// memoryless, so this does not change the fault statistics).
    pub fn reset(&mut self) {
        self.gap = GAP_UNDRAWN;
    }

    /// Fast path: consumes `count` consecutive ops as fault-free with
    /// zero RNG draws when that is already decided — the model is
    /// noiseless, or the in-flight geometric gap covers the whole run.
    /// Returns false when a real scan is needed.
    #[inline(always)]
    pub(crate) fn covers(&mut self, count: u64) -> bool {
        match self.mode {
            Mode::Noiseless => true,
            Mode::Skip => {
                if self.gap != GAP_UNDRAWN && self.gap >= count {
                    self.gap -= count;
                    true
                } else {
                    false
                }
            }
            Mode::Exact => false,
        }
    }

    /// Consumes up to `max` whole fault-free runs of `ops` ops each
    /// that the in-flight gap already covers, and returns how many.
    ///
    /// Exact: a run the gap covers draws no random numbers and meets
    /// no fault candidate, so counting it here leaves the sampler, and
    /// the RNG, in the state that running its ops would. Returns 0
    /// unless the sampler is in skip mode, its gap is drawn, and
    /// `model` is its own model (a trial under another model would
    /// replace the sampler and start a fresh gap).
    pub fn skip_clean_runs(&mut self, model: ErrorModel, ops: u64, max: u64) -> u64 {
        if self.mode != Mode::Skip || self.gap == GAP_UNDRAWN || self.model != model || ops == 0 {
            return 0;
        }
        let runs = (self.gap / ops).min(max);
        self.gap -= runs * ops;
        runs
    }

    /// Decides whether the op of kind `kind` that is being executed
    /// right now suffers a fault.
    #[inline]
    pub fn fault_at<R: Rng + ?Sized>(&mut self, kind: PhysOpKind, rng: &mut R) -> bool {
        if self.covers(1) {
            return false;
        }
        self.next_fault_within_slow(kind, 1, rng).is_some()
    }

    /// Advances the sampler across `count` consecutive ops of one kind
    /// and returns the offset (in `0..count`) of the first op that
    /// faults, or `None` when the whole run is fault-free. After
    /// `Some(off)` the sampler stands just past op `off`; scan the rest
    /// of the run by calling again with `count - off - 1`.
    ///
    /// The RNG stream is *identical* to calling [`FaultSampler::fault_at`]
    /// once per op, in every mode — batching is purely a speed choice.
    /// In skip mode a fault-free run costs one countdown subtraction
    /// and zero RNG draws.
    #[inline]
    pub fn next_fault_within<R: Rng + ?Sized>(
        &mut self,
        kind: PhysOpKind,
        count: u64,
        rng: &mut R,
    ) -> Option<u64> {
        if self.covers(count) {
            return None;
        }
        self.next_fault_within_slow(kind, count, rng)
    }

    fn next_fault_within_slow<R: Rng + ?Sized>(
        &mut self,
        kind: PhysOpKind,
        count: u64,
        rng: &mut R,
    ) -> Option<u64> {
        if count == 0 {
            // A zero-op run consumes nothing (and must not force a gap
            // draw, or empty batches would perturb the stream).
            return None;
        }
        match self.mode {
            Mode::Noiseless => None,
            Mode::Exact => {
                let p = self.model.p_of(kind);
                if p <= 0.0 {
                    return None;
                }
                (0..count).find(|_| rng.gen_bool(p))
            }
            Mode::Skip => {
                let mut consumed = 0u64;
                loop {
                    if self.gap == GAP_UNDRAWN {
                        self.gap = self.draw_gap(rng);
                    }
                    let remaining = count - consumed;
                    if self.gap >= remaining {
                        self.gap -= remaining;
                        return None;
                    }
                    let off = consumed + self.gap;
                    self.gap = self.draw_gap(rng);
                    let p = self.model.p_of(kind);
                    // Thinning: the candidate was drawn at rate p_max;
                    // an op kind with rate p keeps it with probability
                    // p / p_max.
                    if p >= self.p_max || (p > 0.0 && rng.gen_bool(p / self.p_max)) {
                        return Some(off);
                    }
                    consumed = off + 1;
                }
            }
        }
    }

    /// Number of fault-free ops before the next candidate:
    /// `K ~ Geometric(p_max)`, `P(K = k) = (1 - p_max)^k p_max`, via
    /// inversion `K = floor(ln(U) / ln(1 - p_max))` with `U` uniform in
    /// `(0, 1]`.
    fn draw_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u = 1.0 - rng.gen_range(0.0..1.0f64); // (0, 1]
        let k = u.ln() / self.ln_1m_p;
        if k >= GAP_UNDRAWN as f64 {
            // Saturate; the sentinel collision just forces a redraw.
            GAP_UNDRAWN - 1
        } else {
            k as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_rates() {
        let m = ErrorModel::paper();
        assert_eq!(m.p_of(PhysOpKind::OneQubitGate), 1e-4);
        assert_eq!(m.p_of(PhysOpKind::Measurement), 1e-4);
        assert_eq!(m.p_of(PhysOpKind::ZeroPrepare), 1e-4);
        assert_eq!(m.p_of(PhysOpKind::Turn), 1e-6);
        assert_eq!(m.p_max(), 1e-4);
    }

    #[test]
    fn scaling() {
        let m = ErrorModel::paper().scaled(10.0);
        assert!((m.p_gate - 1e-3).abs() < 1e-15);
        assert!((m.p_move - 1e-5).abs() < 1e-15);
        assert_eq!(m.sampling, FaultSampling::Auto);
    }

    #[test]
    fn auto_resolves_by_rate() {
        let low = FaultSampler::new(ErrorModel::paper());
        assert_eq!(low.mode, Mode::Skip);
        let high = FaultSampler::new(ErrorModel::paper().scaled(3000.0));
        assert_eq!(high.mode, Mode::Exact);
        let off = FaultSampler::new(ErrorModel::noiseless());
        assert_eq!(off.mode, Mode::Noiseless);
    }

    #[test]
    fn forced_modes_override_auto() {
        let m = ErrorModel::paper();
        assert_eq!(
            FaultSampler::new(m.with_sampling(FaultSampling::Exact)).mode,
            Mode::Exact
        );
        assert_eq!(
            FaultSampler::new(m.scaled(3000.0).with_sampling(FaultSampling::Skip)).mode,
            Mode::Skip
        );
    }

    #[test]
    fn noiseless_never_draws() {
        struct Panic;
        impl Rng for Panic {
            fn next_u64(&mut self) -> u64 {
                panic!("noiseless sampler must not touch the RNG")
            }
        }
        let mut s = FaultSampler::new(ErrorModel::noiseless());
        let mut rng = Panic;
        for _ in 0..1000 {
            assert!(!s.fault_at(PhysOpKind::TwoQubitGate, &mut rng));
        }
    }

    /// Skip-sampled fault rates match the exact rates per op kind.
    #[test]
    fn skip_matches_exact_rates() {
        let model = ErrorModel {
            p_gate: 0.01,
            p_move: 0.002,
            sampling: FaultSampling::Auto,
        };
        for sampling in [FaultSampling::Exact, FaultSampling::Skip] {
            let mut s = FaultSampler::new(model.with_sampling(sampling));
            let mut rng = StdRng::seed_from_u64(99);
            let n = 400_000;
            let mut gate_faults = 0u64;
            let mut move_faults = 0u64;
            for i in 0..n {
                // Interleave kinds so thinning is exercised.
                if i % 2 == 0 {
                    if s.fault_at(PhysOpKind::TwoQubitGate, &mut rng) {
                        gate_faults += 1;
                    }
                } else if s.fault_at(PhysOpKind::StraightMove, &mut rng) {
                    move_faults += 1;
                }
            }
            let gate_rate = gate_faults as f64 / (n / 2) as f64;
            let move_rate = move_faults as f64 / (n / 2) as f64;
            assert!(
                (gate_rate - 0.01).abs() < 0.0015,
                "{sampling:?}: gate rate {gate_rate}"
            );
            assert!(
                (move_rate - 0.002).abs() < 0.0007,
                "{sampling:?}: move rate {move_rate}"
            );
        }
    }

    /// In skip mode, fault-free stretches cost zero RNG draws.
    #[test]
    fn skip_draws_are_rare() {
        struct Counting {
            inner: StdRng,
            draws: u64,
        }
        impl Rng for Counting {
            fn next_u64(&mut self) -> u64 {
                self.draws += 1;
                self.inner.next_u64()
            }
        }
        let mut rng = Counting {
            inner: StdRng::seed_from_u64(5),
            draws: 0,
        };
        let mut s = FaultSampler::new(ErrorModel::paper());
        let n = 100_000u64;
        for _ in 0..n {
            s.fault_at(PhysOpKind::TwoQubitGate, &mut rng);
        }
        // ~p_max * n candidates, each costing a gap redraw + thinning
        // draw (plus the initial lazy draw): tens, not 100k.
        assert!(rng.draws < 200, "skip mode made {} draws", rng.draws);
    }

    /// Scanning in batches consumes the exact same RNG stream and
    /// reports the exact same fault locations as one call per op.
    #[test]
    fn batch_scan_matches_per_op_stream() {
        for sampling in [FaultSampling::Exact, FaultSampling::Skip] {
            let model = ErrorModel {
                p_gate: 0.02,
                p_move: 0.0,
                sampling,
            };
            let n = 10_000u64;
            let mut s1 = FaultSampler::new(model);
            let mut r1 = StdRng::seed_from_u64(3);
            let per_op: Vec<u64> = (0..n)
                .filter(|_| s1.fault_at(PhysOpKind::TwoQubitGate, &mut r1))
                .collect();
            let mut s2 = FaultSampler::new(model);
            let mut r2 = StdRng::seed_from_u64(3);
            let mut batched = Vec::new();
            let mut base = 0u64;
            let mut sizes = [1u64, 3, 7, 64].iter().cycle();
            while base < n {
                let size = (*sizes.next().unwrap()).min(n - base);
                let mut local = 0u64;
                while let Some(off) =
                    s2.next_fault_within(PhysOpKind::TwoQubitGate, size - local, &mut r2)
                {
                    batched.push(base + local + off);
                    local += off + 1;
                }
                base += size;
            }
            assert!(!per_op.is_empty(), "{sampling:?}: test needs some faults");
            assert_eq!(per_op, batched, "{sampling:?}: fault positions differ");
            assert_eq!(
                r1.next_u64(),
                r2.next_u64(),
                "{sampling:?}: RNG streams diverged"
            );
        }
    }

    #[test]
    fn skip_clean_runs_counts_only_runs_the_drawn_gap_covers() {
        let model = ErrorModel::paper();
        let mut s = FaultSampler::new(model);
        // Undrawn gap (a fresh or reset sampler): nothing to count.
        assert_eq!(s.skip_clean_runs(model, 10, u64::MAX), 0);
        let _ = s.fault_at(PhysOpKind::OneQubitGate, &mut StdRng::seed_from_u64(7));
        s.gap = 1005;
        // Whole covered runs, capped by `max`, come off the gap.
        assert_eq!(s.skip_clean_runs(model, 10, 3), 3);
        assert_eq!(s.gap, 975);
        assert_eq!(s.skip_clean_runs(model, 10, u64::MAX), 97);
        assert_eq!(s.gap, 5);
        assert_eq!(s.skip_clean_runs(model, 10, u64::MAX), 0);
        // Another model (rates or sampling choice): nothing to count.
        s.gap = 1000;
        assert_eq!(s.skip_clean_runs(model.scaled(2.0), 10, u64::MAX), 0);
        let forced = model.with_sampling(FaultSampling::Skip);
        assert_eq!(s.skip_clean_runs(forced, 10, u64::MAX), 0);
        assert_eq!(s.gap, 1000);
        // Exact mode draws per op: nothing to count.
        let exact = model.with_sampling(FaultSampling::Exact);
        let mut e = FaultSampler::new(exact);
        e.gap = 1000;
        assert_eq!(e.skip_clean_runs(exact, 10, u64::MAX), 0);
    }

    #[test]
    fn reset_redraws_lazily() {
        let mut s = FaultSampler::new(ErrorModel::paper());
        let mut rng = StdRng::seed_from_u64(7);
        let _ = s.fault_at(PhysOpKind::OneQubitGate, &mut rng);
        assert_ne!(s.gap, GAP_UNDRAWN);
        s.reset();
        assert_eq!(s.gap, GAP_UNDRAWN);
    }
}
