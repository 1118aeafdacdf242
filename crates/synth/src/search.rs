//! Fowler-style exhaustive search for minimum-length H/S/T sequences
//! approximating small-angle phase rotations (§2.5).

use crate::c64::C64;
use crate::clifford::CliffordGroup;
use crate::ma::{enumerate_cores, Core};
use crate::su2::U2;
use std::f64::consts::PI;

/// The physical single-qubit alphabet of synthesized sequences.
///
/// `S` is transversal on the \[\[7,1,3\]\] code and `T` consumes a pi/8
/// ancilla, so sequence cost is dominated by the T-count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HtGate {
    /// Hadamard.
    H,
    /// Phase gate.
    S,
    /// pi/8 gate.
    T,
}

/// A synthesized approximation.
#[derive(Debug, Clone)]
pub struct Sequence {
    /// Gates in circuit order.
    pub gates: Vec<HtGate>,
    /// Number of T gates (the fault-tolerance cost driver).
    pub t_count: u32,
    /// Global-phase-invariant distance to the target.
    pub distance: f64,
}

impl Sequence {
    /// Total gate count.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True for the empty sequence (target approximated by identity).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Rebuilds the sequence's unitary (for verification).
    pub fn matrix(&self) -> U2 {
        let mut m = U2::identity();
        for g in &self.gates {
            let u = match g {
                HtGate::H => U2::h(),
                HtGate::S => U2::s(),
                HtGate::T => U2::t(),
            };
            m = u.mul(&m);
        }
        m
    }
}

/// Exhaustive Clifford+T synthesizer with a T-count budget.
///
/// # Example
///
/// ```
/// use qods_synth::search::Synthesizer;
/// use qods_synth::su2::U2;
///
/// let synth = Synthesizer::with_max_t_count(8);
/// let seq = synth.approximate(&U2::t());
/// // T itself is in the search space: exact hit with one T.
/// assert_eq!(seq.t_count, 1);
/// assert!(seq.distance < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Synthesizer {
    max_t: u32,
    target_distance: f64,
    cliffords: CliffordGroup,
}

impl Synthesizer {
    /// Budget with a custom maximum T-count, stopping early below
    /// distance 1e-4.
    pub fn with_max_t_count(max_t: u32) -> Self {
        Self::with_budget(max_t, 1e-4)
    }

    /// Full budget control: search stops descending a branch once a
    /// sequence within `target_distance` at a lower T-count is known.
    pub fn with_budget(max_t: u32, target_distance: f64) -> Self {
        Synthesizer {
            max_t,
            target_distance,
            cliffords: CliffordGroup::generate(),
        }
    }

    /// Finds the best approximation of `target` within the budget.
    ///
    /// Preference order: satisfying `target_distance` at the smallest
    /// T-count; otherwise the smallest distance found overall (ties to
    /// lower T-count).
    pub fn approximate(&self, target: &U2) -> Sequence {
        self.approximate_batch(std::slice::from_ref(target))
            .pop()
            .unwrap_or_else(|| unreachable!("one target, one sequence"))
    }

    /// [`Synthesizer::approximate`] for many targets, in one shared
    /// enumeration per 64 targets.
    ///
    /// Every result equals the lone search's bit for bit: each core
    /// carries the set of targets whose own pruned search would visit
    /// it ([`enumerate_cores`]), `core * C` is formed once per
    /// (core, Clifford) pair, and each target only evaluates
    /// `tr(u^dag V)` in [`U2::distance`]'s association. A candidate
    /// is skipped from `|tr|^2` alone only when it provably cannot
    /// beat the target's current best.
    ///
    /// A chunk whose targets are all phase rotations `diag(1, e^{i t})`
    /// (every [`Synthesizer::rz_pi_over_2k`] target) forms only the
    /// two diagonal entries of `core * C` and scores
    /// `conj(u_00) + conj(u_11) * V_11`: the trace terms it drops are
    /// products with an exact 0 or 1, which can only flip the sign of
    /// a zero, and `|tr|^2` squares that away.
    pub fn approximate_batch(&self, targets: &[U2]) -> Vec<Sequence> {
        targets
            .chunks(64)
            .flat_map(|chunk| self.search(chunk))
            .collect()
    }

    /// Approximates `diag(1, e^{±i pi/2^k})` (the paper's pi/2^k
    /// rotation; `k = 2` is T itself and returns a length-1 sequence).
    pub fn rz_pi_over_2k(&self, k: u8, dagger: bool) -> Sequence {
        self.approximate(&rz_target(k, dagger))
    }

    /// [`Synthesizer::rz_pi_over_2k`] for many `(k, dagger)` rotations
    /// in one [`Synthesizer::approximate_batch`].
    pub fn rz_pi_over_2k_batch(&self, rotations: &[(u8, bool)]) -> Vec<Sequence> {
        let targets: Vec<U2> = rotations.iter().map(|&(k, d)| rz_target(k, d)).collect();
        self.approximate_batch(&targets)
    }

    /// One shared enumeration for at most 64 targets (one mask bit
    /// each), on the phase kernel when every target is a phase
    /// rotation.
    fn search(&self, targets: &[U2]) -> Vec<Sequence> {
        if targets.iter().all(is_phase) {
            self.search_with(
                targets,
                |m, c| Diagonal {
                    a: m.a * c.a + m.b * c.c,
                    d: m.c * c.b + m.d * c.d,
                },
                |u, v| (u.a.conj() + u.d.conj() * v.d).abs2(),
            )
        } else {
            self.search_with(
                targets,
                |m, c| m.mul(c),
                |u, v| u.trace_dagger_mul(v).abs2(),
            )
        }
    }

    /// The shared enumeration: `form(core, C)` builds the candidate
    /// for one (core, Clifford) pair and `score(u, V)` is its
    /// `|tr(u^dag V)|^2` against one target.
    fn search_with<K>(
        &self,
        targets: &[U2],
        form: impl Fn(&U2, &U2) -> K,
        score: impl Fn(&K, &U2) -> f64,
    ) -> Vec<Sequence> {
        debug_assert!(targets.len() <= 64);
        let cliffs = self.cliffords.elements();
        let eps = self.target_distance;
        let mut slots: Vec<Slot> = targets.iter().map(|&t| Slot::new(t)).collect();
        let all = u64::MAX >> (64 - targets.len());
        // `core * C` for each Clifford `C`, formed once per core.
        let mut candidates: Vec<K> = Vec::with_capacity(cliffs.len());
        enumerate_cores(self.max_t, all, |core, reach| {
            candidates.clear();
            candidates.extend(cliffs.iter().map(|c| form(&core.matrix, &c.matrix)));
            for j in bits(reach) {
                let slot = &mut slots[j];
                for (ci, u) in candidates.iter().enumerate() {
                    let tr_abs2 = score(u, &slot.target);
                    slot.offer(tr_abs2, core, ci, eps);
                }
            }
            // A lone search descends while the child T-count is below
            // the smallest T-count that already met `eps`.
            let next_t = core.t_count + 1;
            bits(reach)
                .filter(|&j| next_t < slots[j].sat_t)
                .fold(0, |m, j| m | 1 << j)
        });
        slots
            .into_iter()
            .map(|slot| {
                let b = slot.best.unwrap_or_else(|| {
                    // Proven invariant: enumerate_cores visits the identity core with every target's bit set, and a target's first offer always becomes its best.
                    unreachable!("the identity core is offered to every target")
                });
                // Circuit order: core gates first, then the Clifford
                // word. (Matrix = core * C means C is applied first;
                // but the trailing Clifford in MA form is on the
                // right, i.e. applied first in circuit order.)
                let mut gates = cliffs[b.cliff].word.clone();
                gates.extend(b.core.circuit_gates());
                Sequence {
                    gates,
                    t_count: b.t,
                    distance: b.dist,
                }
            })
            .collect()
    }
}

/// True when `u` is exactly `diag(1, e^{i t})`: the phase kernel's
/// precondition.
fn is_phase(u: &U2) -> bool {
    u.a == C64::ONE && u.b == C64::ZERO && u.c == C64::ZERO
}

/// The diagonal of a candidate `core * C`: all a phase target's trace
/// reads.
struct Diagonal {
    a: C64,
    d: C64,
}

/// The target unitary of the pi/2^k rotation.
fn rz_target(k: u8, dagger: bool) -> U2 {
    let theta = PI / 2f64.powi(i32::from(k)) * if dagger { -1.0 } else { 1.0 };
    U2::phase(theta)
}

/// Indices of the set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            j
        })
    })
}

/// Margin, in units of `|tr|`, by which [`skip_below`] stays on the
/// safe side of the rounding in [`U2::distance_from_trace_abs2`].
const SKIP_MARGIN: f64 = 1e-9;

/// The `|tr(u^dag V)|^2` below which a candidate cannot beat a best
/// distance of `best`.
///
/// Beating `best` needs `d < best + 1e-15 =: D`, and
/// `d = sqrt(1 - |tr| / 2)` is below `D` only if
/// `|tr| > 2 (1 - D^2)`. The threshold sits [`SKIP_MARGIN`] under
/// that bound, far more than the few ulps of rounding between
/// `|tr|^2` and the computed `d`, so every skipped candidate has
/// `d >= D` in floating point too.
fn skip_below(best: f64) -> f64 {
    let bound = best + 1e-15;
    let tr = 2.0 * (1.0 - bound * bound) - SKIP_MARGIN;
    if tr > 0.0 {
        tr * tr
    } else {
        0.0
    }
}

/// The best candidate a target has seen.
struct Best {
    dist: f64,
    t: u32,
    core: Core,
    cliff: usize,
}

/// One target's search state inside a shared enumeration.
struct Slot {
    target: U2,
    best: Option<Best>,
    /// Smallest T-count achieving the target distance.
    sat_t: u32,
    /// [`skip_below`] of the current best.
    skip: f64,
}

impl Slot {
    fn new(target: U2) -> Self {
        Slot {
            target,
            best: None,
            sat_t: u32::MAX,
            skip: 0.0,
        }
    }

    /// Considers the candidate `core * C_cliff`, whose
    /// `|tr(u^dag V)|^2` against this target is `tr_abs2`.
    fn offer(&mut self, tr_abs2: f64, core: &Core, cliff: usize, eps: f64) {
        if tr_abs2 < self.skip {
            return;
        }
        let d = U2::distance_from_trace_abs2(tr_abs2);
        let better = match &self.best {
            None => true,
            Some(b) => d + 1e-15 < b.dist || (d < b.dist + 1e-15 && core.t_count < b.t),
        };
        if better {
            self.best = Some(Best {
                dist: d,
                t: core.t_count,
                core: *core,
                cliff,
            });
            self.skip = skip_below(d);
            if d <= eps {
                self.sat_t = self.sat_t.min(core.t_count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_hits_for_native_gates() {
        let synth = Synthesizer::with_max_t_count(4);
        for (target, expect_t) in [
            (U2::identity(), 0),
            (U2::s(), 0),
            (U2::z(), 0),
            (U2::h(), 0),
            (U2::t(), 1),
        ] {
            let seq = synth.approximate(&target);
            assert!(seq.distance < 1e-9, "distance {}", seq.distance);
            assert_eq!(seq.t_count, expect_t);
            assert!(seq.matrix().distance(&target) < 1e-9);
        }
    }

    #[test]
    fn sequences_realize_their_reported_distance() {
        let synth = Synthesizer::with_max_t_count(8);
        for k in 3..=6u8 {
            let seq = synth.rz_pi_over_2k(k, false);
            let target = U2::phase(PI / f64::from(1u32 << k));
            let d = seq.matrix().distance(&target);
            assert!(
                (d - seq.distance).abs() < 1e-9,
                "k={k}: reported {} actual {d}",
                seq.distance
            );
        }
    }

    #[test]
    fn deeper_budget_never_hurts() {
        let coarse = Synthesizer::with_budget(4, 0.0);
        let fine = Synthesizer::with_budget(10, 0.0);
        for k in 3..=5u8 {
            let a = coarse.rz_pi_over_2k(k, false);
            let b = fine.rz_pi_over_2k(k, false);
            assert!(
                b.distance <= a.distance + 1e-12,
                "k={k}: {} vs {}",
                b.distance,
                a.distance
            );
        }
    }

    #[test]
    fn tiny_angles_are_near_identity() {
        // For very deep k the identity is already a good approximation
        // and the search should not spend T gates on it.
        let synth = Synthesizer::with_budget(8, 1e-3);
        let seq = synth.rz_pi_over_2k(14, false);
        assert_eq!(seq.t_count, 0);
        assert!(seq.distance < 1e-3);
    }

    #[test]
    fn skipped_candidates_never_beat_the_best() {
        // The largest |tr|^2 the filter skips must already give a
        // distance no candidate rule would call better.
        let mut bests: Vec<f64> = (0..20_000).map(|i| f64::from(i) / 20_000.0).collect();
        bests.extend((1..300).map(|e| 0.9f64.powi(e)));
        bests.extend((1..2_000).map(|i| 1.0 - f64::from(i) * 1e-16));
        for best in bests {
            let skip = skip_below(best);
            if skip <= 0.0 {
                continue;
            }
            let edge = f64::from_bits(skip.to_bits() - 1);
            let d = U2::distance_from_trace_abs2(edge);
            assert!(
                d >= best + 1e-15,
                "best {best:e}: skipped |tr|^2 {edge:e} has d {d:e}"
            );
        }
    }

    #[test]
    fn dagger_mirrors_distance() {
        let synth = Synthesizer::with_max_t_count(6);
        let a = synth.rz_pi_over_2k(3, false);
        let b = synth.rz_pi_over_2k(3, true);
        assert!((a.distance - b.distance).abs() < 1e-9);
    }
}
