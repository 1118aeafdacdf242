//! Fowler-style exhaustive search for minimum-length H/S/T sequences
//! approximating small-angle phase rotations (§2.5).
//!
//! Up to 64 targets share one walk of the Matsumoto-Amano tree
//! ([`Synthesizer::approximate_batch`]); each candidate `core * C` is
//! formed once per walk and offered to the targets that visit its
//! core. For phase targets the candidate is its diagonal, and it is
//! formed only when a bound shared by every phase target (a
//! `PhaseKernel`, computed once per core from `u_00` and the core's
//! distance from unitarity) shows it can still reach the lowest skip
//! threshold among those targets. Every sequence equals the lone
//! search's bit for bit.

use crate::c64::C64;
use crate::clifford::CliffordGroup;
use crate::ma::{enumerate_cores, Core};
use crate::su2::U2;
use std::f64::consts::PI;
use std::sync::OnceLock;

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
    /// The process's one copy of the group ([`cliffords`]).
    cliffords: &'static Cliffords,
}

/// The single-qubit Clifford group and its diagonal cosets.
#[derive(Debug)]
struct Cliffords {
    group: CliffordGroup,
    /// Its diagonal cosets ([`CliffordGroup::diagonal_cosets`]).
    cosets: Vec<u64>,
}

/// The Clifford group, generated once per process: every synthesizer
/// searches the same 24 elements, so none keeps a copy.
fn cliffords() -> &'static Cliffords {
    static GROUP: OnceLock<Cliffords> = OnceLock::new();
    GROUP.get_or_init(|| {
        let group = CliffordGroup::generate();
        let cosets = group.diagonal_cosets();
        Cliffords { group, cosets }
    })
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
            cliffords: cliffords(),
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
    /// a zero, and `|tr|^2` squares that away. It forms even those
    /// only for a candidate whose `u_00` shows it can reach the
    /// smallest skip threshold among the targets that visit the core:
    /// each of those targets would pass over any other candidate
    /// unscored.
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
            self.search_with::<PhaseKernel>(targets)
        } else {
            self.search_with::<GeneralKernel>(targets)
        }
    }

    /// The shared enumeration, forming and scoring candidates with
    /// the kernel `K`.
    fn search_with<K: Kernel>(&self, targets: &[U2]) -> Vec<Sequence> {
        debug_assert!(targets.len() <= 64);
        let cliffs = self.cliffords.group.elements();
        let eps = self.target_distance;
        let mut slots: Vec<Slot> = targets.iter().map(|&t| Slot::new(t)).collect();
        let all = u64::MAX >> (64 - targets.len());
        // `(ci, core * C_ci)` for each Clifford the kernel forms, once
        // per core.
        let mut candidates: Vec<(usize, K::Candidate)> = Vec::with_capacity(cliffs.len());
        enumerate_cores(self.max_t, all, |core, reach| {
            // A slot's `skip` only rises while the core is offered, so
            // a candidate scoring below this floor against every
            // target is one that each offer below would pass over.
            let floor = bits(reach).fold(f64::INFINITY, |f, j| f.min(slots[j].skip));
            let kernel = K::new(&core.matrix, floor, self.cliffords);
            candidates.clear();
            candidates
                .extend(bits(kernel.admitted()).map(|ci| (ci, kernel.form(&cliffs[ci].matrix))));
            for j in bits(reach) {
                let slot = &mut slots[j];
                for (ci, u) in &candidates {
                    let tr_abs2 = K::score(u, &slot.target);
                    slot.offer(tr_abs2, core, *ci, eps);
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
                    // Proven invariant: enumerate_cores visits the identity core with every target's bit set, every skip is 0 there so each kernel forms every candidate, and a target's first offer always becomes its best.
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

/// How a shared enumeration forms and scores the candidates
/// `core * C` of one core.
trait Kernel {
    /// What a target's score reads of one candidate.
    type Candidate;
    /// Prepares one core's visit. `floor` is the smallest
    /// [`Slot::skip`] among the targets that reach the core.
    fn new(core: &U2, floor: f64, cliffs: &Cliffords) -> Self;
    /// The Cliffords `C_ci` (bit `ci`) whose candidate may reach the
    /// floor against some target the kernel takes; the candidate of
    /// every other one provably scores below it against all of them.
    fn admitted(&self) -> u64;
    /// The candidate `core * c`.
    fn form(&self, c: &U2) -> Self::Candidate;
    /// The candidate's `|tr(u^dag V)|^2` against the target `v`.
    fn score(u: &Self::Candidate, v: &U2) -> f64;
}

/// Any target: every candidate, as the full product, scored in
/// [`U2::distance`]'s association.
struct GeneralKernel {
    core: U2,
    every: u64,
}

impl Kernel for GeneralKernel {
    type Candidate = U2;

    fn new(core: &U2, _floor: f64, cliffs: &Cliffords) -> Self {
        GeneralKernel {
            core: *core,
            every: u64::MAX >> (64 - cliffs.group.len()),
        }
    }

    fn admitted(&self) -> u64 {
        self.every
    }

    fn form(&self, c: &U2) -> U2 {
        self.core.mul(c)
    }

    fn score(u: &U2, v: &U2) -> f64 {
        u.trace_dagger_mul(v).abs2()
    }
}

/// Phase targets `diag(1, v)`: the candidate's diagonal, formed only
/// when its `u_00` shows it can reach the floor.
///
/// The bound, for a Clifford `C`, any core matrix `M` and `|v| = 1`:
/// the candidate `u = M C` scores
/// `|conj(u_00) + conj(u_11) v|^2 <= (|u_00| + |u_11|)^2`. `C` is
/// unitary, so its second column is `e^{i psi} (-conj(c_10),
/// conj(c_00))`, and `|u_11| = |y . c|` for the unit vector
/// `c = (c_00, c_10)` and the row `y = (conj(m_11), -conj(m_10))`.
/// With `x = (m_00, m_01)`, so that `u_00 = x . c`, and
/// `w = conj(det M)`: `|y . c| <= |w| |x . c| + |y - w x| =
/// |det M| |u_00| + g`, where `g` is the [`unitarity_gap`]. So every
/// phase target scores at most `((1 + |det M|) |u_00| + g)^2`, and a
/// candidate reaches the floor only if
/// `(1 + |det M|)^2 |u_00|^2 >= (sqrt(floor) - g)^2`, less
/// [`BOUND_MARGIN`] for rounding. For a unitary `M`, `|det M| = 1`
/// and `g = 0`: the bound is `4 |u_00|^2`. `|u_00|` is the same for
/// the four Cliffords of a diagonal coset, so the kernel computes it
/// once per coset, for its leader.
struct PhaseKernel {
    core: U2,
    /// Bit `ci` is set when `core * C_ci` can reach the floor.
    admitted: u64,
}

impl Kernel for PhaseKernel {
    type Candidate = Diagonal;

    fn new(core: &U2, floor: f64, cliffs: &Cliffords) -> Self {
        let det = core.a * core.d - core.b * core.c;
        // What `(1 + |det|) |u_00|` must reach, squared.
        let reach = (floor.sqrt() - unitarity_gap(core, det) - BOUND_MARGIN).max(0.0);
        let cut = reach * reach;
        let scale = (1.0 + det.abs()) * (1.0 + det.abs());
        let elements = cliffs.group.elements();
        let mut admitted = 0;
        for &members in &cliffs.cosets {
            let c = &elements[members.trailing_zeros() as usize].matrix;
            if (core.a * c.a + core.b * c.c).abs2() * scale >= cut {
                admitted |= members;
            }
        }
        PhaseKernel {
            core: *core,
            admitted,
        }
    }

    fn admitted(&self) -> u64 {
        self.admitted
    }

    fn form(&self, c: &U2) -> Diagonal {
        let m = &self.core;
        Diagonal {
            a: m.a * c.a + m.b * c.c,
            d: m.c * c.b + m.d * c.d,
        }
    }

    fn score(u: &Diagonal, v: &U2) -> f64 {
        (u.a.conj() + u.d.conj() * v.d).abs2()
    }
}

/// Margin, in units of `|tr|`, by which [`PhaseKernel`]'s cut stays
/// under the bound it proves. It covers the rounding between the
/// computed `u_00`, determinant, gap and score and their exact
/// values, and the last-ulp departures of the Cliffords from
/// unitarity and from their coset leader times a diagonal gate, and
/// of `V_11` from the unit circle: a few dozen ulps of quantities no
/// larger than 2, so `1e-12` is wide by orders of magnitude and still
/// forms next to no extra candidate.
const BOUND_MARGIN: f64 = 1e-12;

/// `|y - w x|` for the rows `x = (m_00, m_01)` and
/// `y = (conj(m_11), -conj(m_10))` of `m`, with `w = conj(det)`: a
/// unitary has `y = w x` exactly, so this is a few ulps for an
/// enumerated core.
fn unitarity_gap(m: &U2, det: C64) -> f64 {
    let w = det.conj();
    let e0 = m.d.conj() - w * m.a;
    let e1 = -m.c.conj() - w * m.b;
    (e0.abs2() + e1.abs2()).sqrt()
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

    /// A seeded stream of floats uniform in `[0, 1)`.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() * n as f64) as usize
        }
    }

    /// A core built as [`enumerate_cores`] builds it, down a seeded
    /// path of `t` T gates.
    fn random_core(rng: &mut Lcg, t: u32) -> U2 {
        let ht = U2::h().mul(&U2::t());
        let sht = U2::s().mul(&ht);
        let mut m = [U2::t(), ht, sht][rng.below(3)];
        for _ in 1..t {
            m = m.mul(if rng.below(2) == 0 { &ht } else { &sht });
        }
        m
    }

    /// `m` with each entry scaled by `1 + scale * z`, `z` a seeded
    /// complex number in the unit square: no longer unitary.
    fn perturbed(rng: &mut Lcg, m: &U2, scale: f64) -> U2 {
        let mut jitter = |x: C64| {
            let z = C64::new(rng.next() - 0.5, rng.next() - 0.5).scale(2.0 * scale);
            x * (C64::ONE + z)
        };
        U2 {
            a: jitter(m.a),
            b: jitter(m.b),
            c: jitter(m.c),
            d: jitter(m.d),
        }
    }

    #[test]
    fn the_phase_bound_never_falls_below_a_score() {
        // Enumerated cores (every one to T-count 6, then seeded paths
        // to 64 T gates), and the same with their unitarity broken by
        // up to 1e-3: the bound holds for any core and leaves only
        // rounding to the margin. Targets: seeded angles, multiples of
        // pi/4 (the candidates' own phases), pi/2^k rotations, and the
        // phase that lines `conj(u_11) v` up with `conj(u_00)`, where
        // the bound is tight. A candidate whose score equals the floor
        // must be admitted.
        let cliffs = cliffords();
        let mut rng = Lcg(0x5eed_b0d5);
        let mut cores = Vec::new();
        enumerate_cores(6, 1, |c, all| {
            cores.push(c.matrix);
            all
        });
        for _ in 0..2_000 {
            let t = 1 + rng.below(64) as u32;
            cores.push(random_core(&mut rng, t));
        }
        let exact = cores.len();
        for i in 0..exact {
            let scale = [1e-11, 1e-8, 1e-5, 1e-3][i % 4];
            let m = perturbed(&mut rng, &cores[i], scale);
            cores.push(m);
        }
        let mut checked = 0u32;
        for (i, m) in cores.iter().enumerate() {
            for (ci, c) in cliffs.group.elements().iter().enumerate() {
                let u = PhaseKernel::new(m, 0.0, cliffs).form(&c.matrix);
                let aligned = u.d.im.atan2(u.d.re) - u.a.im.atan2(u.a.re);
                let k = 3 + rng.below(46) as u8;
                for target in [
                    U2::phase(aligned),
                    U2::phase((rng.next() - 0.5) * 2.0 * PI),
                    U2::phase(rng.below(8) as f64 * PI / 4.0),
                    rz_target(k, rng.below(2) == 1),
                ] {
                    let floor = PhaseKernel::score(&u, &target);
                    let kernel = PhaseKernel::new(m, floor, cliffs);
                    assert!(
                        kernel.admitted() >> ci & 1 == 1,
                        "core {i} ({}) Clifford {ci}: score {floor:e} cut off",
                        if i < exact { "enumerated" } else { "perturbed" }
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 300_000);
    }

    #[test]
    fn dagger_mirrors_distance() {
        let synth = Synthesizer::with_max_t_count(6);
        let a = synth.rz_pi_over_2k(3, false);
        let b = synth.rz_pi_over_2k(3, true);
        assert!((a.distance - b.distance).abs() < 1e-9);
    }
}
