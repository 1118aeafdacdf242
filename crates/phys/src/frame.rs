//! Pauli-frame Monte-Carlo simulation of physical circuits.
//!
//! The simulator tracks, for every physical qubit, the X and Z
//! components of the accumulated Pauli *error* relative to the ideal
//! circuit execution. Faults are injected stochastically per operation
//! (§2.2 of the paper) and propagated through Clifford conjugation; in
//! particular two-qubit gates propagate bit and phase flips between
//! qubits, the effect the paper calls out explicitly.
//!
//! Measurements report whether the accumulated error *flips* the ideal
//! outcome. Callers (the Steane-code circuits in `qods-steane`) combine
//! these flips into syndromes; the ideal-state contribution of any
//! stabilizer measurement is zero by construction, so error bits are all
//! that is needed.
//!
//! ## Representation
//!
//! The X and Z components are stored as word-packed symplectic bitmasks
//! (`u64` limbs, bit `i` of limb `i / 64` = qubit `i`), matching the
//! encoding [`PauliString`] uses. Conjugation rules are single-bit
//! swap-and-xor operations on the limbs; block mask reads
//! ([`PauliFrame::x_mask7`]) and frame clears are whole-limb operations.
//! A `dirty` flag short-circuits conjugation entirely while the frame is
//! identically zero — at the paper's error rates most trials never leave
//! that state, so an op costs one countdown decrement and nothing else.
//! The boolean reference implementation this replaced is retained as
//! [`crate::frame_ref::RefPauliFrame`] and a property suite asserts
//! exact equivalence (same RNG stream, same states).
//!
//! ## Fault sampling
//!
//! Fault locations come from a [`FaultSampler`]: geometric skip-sampling
//! at the paper's rates (zero RNG draws on fault-free stretches), exact
//! per-op Bernoulli above the crossover — see
//! [`crate::error_model`] for the derivation.
//!
//! ## Non-Clifford gates
//!
//! `T` is not Clifford, so an X-component error does not map to a Pauli
//! under conjugation. We apply the standard stochastic twirl: an X or Y
//! error propagates through `T` unchanged or picks up an extra Z with
//! probability 1/2. This is exact for the twirled (Pauli) channel and
//! accurate to first order in the error rate for the untwirled one.
//! The same applies to controlled-S on its non-Clifford component.

use crate::error_model::{ErrorModel, FaultSampler};
use crate::ops::{Basis, Gate1, Gate2, PhysOp, PhysOpKind};
use crate::pauli::{Pauli, PauliString};
use rand::Rng;

#[inline(always)]
fn bit(v: &[u64], q: usize) -> bool {
    (v[q >> 6] >> (q & 63)) & 1 == 1
}

#[inline(always)]
fn xor_bit(v: &mut [u64], q: usize, b: bool) {
    v[q >> 6] ^= (b as u64) << (q & 63);
}

#[inline(always)]
fn set_bit(v: &mut [u64], q: usize) {
    v[q >> 6] |= 1 << (q & 63);
}

#[inline(always)]
fn clear_bit(v: &mut [u64], q: usize) {
    v[q >> 6] &= !(1 << (q & 63));
}

/// Pauli-frame state of a register of physical qubits.
///
/// # Example
///
/// ```
/// use qods_phys::frame::PauliFrame;
/// use qods_phys::error_model::ErrorModel;
/// use qods_phys::ops::PhysOp;
/// use qods_phys::pauli::Pauli;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut f = PauliFrame::new(2, ErrorModel::noiseless());
/// f.inject(0, Pauli::X);
/// f.apply(&PhysOp::cx(0, 1), &mut rng);
/// // CX propagates the bit flip from control to target.
/// assert_eq!(f.error_at(1), Pauli::X);
/// ```
#[derive(Debug, Clone)]
pub struct PauliFrame {
    n: usize,
    /// Bit `q & 63` of limb `q >> 6` set = X component on qubit `q`.
    x: Vec<u64>,
    /// Z components, same packing.
    z: Vec<u64>,
    sampler: FaultSampler,
    faults_injected: u64,
    /// False only when every limb is provably zero; conjugation of a
    /// clean frame is the identity and is skipped wholesale.
    dirty: bool,
}

impl PauliFrame {
    /// A clean frame over `n` qubits with the given error model.
    pub fn new(n: usize, model: ErrorModel) -> Self {
        let limbs = n.div_ceil(64);
        PauliFrame {
            n,
            x: vec![0; limbs],
            z: vec![0; limbs],
            sampler: FaultSampler::new(model),
            faults_injected: 0,
            dirty: false,
        }
    }

    /// Re-initializes the frame in place for a fresh trial: `n` qubits,
    /// all-zero error, fault counter cleared. Reuses the limb
    /// allocations (and the sampler itself when `model` is unchanged),
    /// so a reused frame allocates only on growth.
    ///
    /// The sampler's in-flight geometric gap deliberately *survives*
    /// the reset when the model is unchanged: the geometric
    /// distribution is memoryless, so continuing the countdown across
    /// trials is statistically exact and saves one logarithm per trial.
    /// Call [`PauliFrame::reset_sampling`] where stream isolation
    /// matters (the Monte-Carlo runners do, at chunk boundaries).
    pub fn reset(&mut self, n: usize, model: ErrorModel) {
        let limbs = n.div_ceil(64);
        if limbs == self.x.len() {
            if self.dirty {
                self.x.fill(0);
                self.z.fill(0);
            }
        } else {
            self.x.clear();
            self.x.resize(limbs, 0);
            self.z.clear();
            self.z.resize(limbs, 0);
        }
        self.n = n;
        self.faults_injected = 0;
        self.dirty = false;
        if self.sampler.model() != model {
            self.sampler = FaultSampler::new(model);
        }
    }

    /// Forgets the sampler's in-flight gap so the next fault decision
    /// starts a fresh geometric draw (see [`FaultSampler::reset`]).
    pub fn reset_sampling(&mut self) {
        self.sampler.reset();
    }

    /// Counts up to `max` whole fault-free trials of `ops` sampler ops
    /// under `model` off the sampler's in-flight gap (see
    /// [`FaultSampler::skip_clean_runs`]).
    pub fn skip_clean_trials(&mut self, model: ErrorModel, ops: u64, max: u64) -> u64 {
        self.sampler.skip_clean_runs(model, ops, max)
    }

    /// Number of qubits tracked.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when tracking zero qubits.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The error model faults are drawn from.
    pub fn model(&self) -> ErrorModel {
        self.sampler.model()
    }

    /// Number of stochastic faults injected so far (diagnostics).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// True when no qubit carries any error component.
    pub fn is_clean(&self) -> bool {
        !self.dirty
    }

    /// The current error on qubit `q`.
    #[inline]
    pub fn error_at(&self, q: usize) -> Pauli {
        debug_assert!(q < self.n);
        Pauli::from_bits(bit(&self.x, q), bit(&self.z, q))
    }

    /// Deterministically multiplies an error into qubit `q` (used by
    /// tests and by deliberate fault-injection experiments).
    #[inline]
    pub fn inject(&mut self, q: usize, p: Pauli) {
        debug_assert!(q < self.n);
        let (px, pz) = p.bits();
        xor_bit(&mut self.x, q, px);
        xor_bit(&mut self.z, q, pz);
        self.dirty |= px | pz;
    }

    /// Extracts the error pattern restricted to `qubits`, as a
    /// [`PauliString`] indexed in the order given.
    pub fn extract(&self, qubits: &[usize]) -> PauliString {
        let mut s = PauliString::identity(qubits.len());
        for (i, &q) in qubits.iter().enumerate() {
            s.mul_assign_at(i, self.error_at(q));
        }
        s
    }

    /// X-component mask over a 7-qubit block (bit `i` = `block[i]`
    /// carries an X or Y error). Contiguous single-limb blocks — the
    /// layout every Steane block in the study uses — read as one shift.
    #[inline]
    pub fn x_mask7(&self, block: &[usize; 7]) -> u8 {
        if !self.dirty {
            return 0;
        }
        Self::mask7_of(&self.x, block)
    }

    /// Z-component mask over a 7-qubit block (see [`PauliFrame::x_mask7`]).
    #[inline]
    pub fn z_mask7(&self, block: &[usize; 7]) -> u8 {
        if !self.dirty {
            return 0;
        }
        Self::mask7_of(&self.z, block)
    }

    fn mask7_of(bits: &[u64], block: &[usize; 7]) -> u8 {
        let q0 = block[0];
        let contiguous = block.iter().enumerate().all(|(i, &q)| q == q0 + i);
        if contiguous && (q0 >> 6) == ((q0 + 6) >> 6) {
            ((bits[q0 >> 6] >> (q0 & 63)) & 0x7f) as u8
        } else {
            let mut m = 0u8;
            for (i, &q) in block.iter().enumerate() {
                m |= (bit(bits, q) as u8) << i;
            }
            m
        }
    }

    /// Recomputes the dirty flag after bits were cleared.
    #[inline]
    fn refresh_dirty(&mut self) {
        self.dirty = self
            .x
            .iter()
            .chain(self.z.iter())
            .fold(0u64, |acc, &w| acc | w)
            != 0;
    }

    /// Applies one physical operation: ideal Clifford conjugation of the
    /// existing frame, then stochastic fault injection per the error
    /// model. Returns `Some(flip)` for measurements, where `flip` is
    /// true when the recorded outcome differs from the ideal one.
    #[inline]
    pub fn apply<R: Rng + ?Sized>(&mut self, op: &PhysOp, rng: &mut R) -> Option<bool> {
        match *op {
            PhysOp::Gate1(g, q) => {
                if self.dirty {
                    self.conjugate_gate1(g, q, rng);
                }
                if self.sampler.fault_at(PhysOpKind::OneQubitGate, rng) {
                    self.inject_random_1q(q, rng);
                }
                None
            }
            PhysOp::Gate2(g, a, b) => {
                if self.dirty {
                    self.conjugate_gate2(g, a, b, rng);
                }
                if self.sampler.fault_at(PhysOpKind::TwoQubitGate, rng) {
                    self.inject_random_2q(a, b, rng);
                }
                None
            }
            PhysOp::CondPauli(p, q) => {
                // In the ideal (fault-free) execution every syndrome is
                // zero and no correction fires, so an applied correction
                // is a deliberate deviation from the ideal circuit: it
                // multiplies into the frame, cancelling tracked errors.
                self.inject(q, p);
                if self.sampler.fault_at(PhysOpKind::OneQubitGate, rng) {
                    self.inject_random_1q(q, rng);
                }
                None
            }
            PhysOp::Prep(q) => {
                // Fresh |0>: prior errors are erased.
                if self.dirty {
                    clear_bit(&mut self.x, q);
                    clear_bit(&mut self.z, q);
                    self.refresh_dirty();
                }
                if self.sampler.fault_at(PhysOpKind::ZeroPrepare, rng) {
                    // A faulty |0> preparation yields the flipped state.
                    set_bit(&mut self.x, q);
                    self.dirty = true;
                    self.faults_injected += 1;
                }
                None
            }
            PhysOp::Measure(basis, q) => {
                let mut flip = self.dirty
                    && match basis {
                        Basis::Z => bit(&self.x, q),
                        Basis::X => bit(&self.z, q),
                    };
                if self.sampler.fault_at(PhysOpKind::Measurement, rng) {
                    // Faulty measurement misreports the outcome.
                    flip = !flip;
                    self.faults_injected += 1;
                }
                // The ion is consumed / re-prepared after measurement;
                // clear its frame so recycled qubits start clean.
                if self.dirty {
                    clear_bit(&mut self.x, q);
                    clear_bit(&mut self.z, q);
                    self.refresh_dirty();
                }
                Some(flip)
            }
            PhysOp::Move(q) => {
                if self.sampler.fault_at(PhysOpKind::StraightMove, rng) {
                    self.inject_random_1q(q, rng);
                }
                None
            }
            PhysOp::TurnOp(q) => {
                if self.sampler.fault_at(PhysOpKind::Turn, rng) {
                    self.inject_random_1q(q, rng);
                }
                None
            }
        }
    }

    /// Runs a straight-line circuit, writing measurement flips in
    /// program order into `flips` (which is cleared first and reused —
    /// no allocation once its capacity covers the circuit). Only valid
    /// for circuits without classical feedback; feedback circuits drive
    /// [`PauliFrame::apply`] manually.
    pub fn run<R: Rng + ?Sized>(&mut self, ops: &[PhysOp], rng: &mut R, flips: &mut Vec<bool>) {
        flips.clear();
        for op in ops {
            if let Some(f) = self.apply(op, rng) {
                flips.push(f);
            }
        }
    }

    /// Prepares every qubit in `qubits` (distinct indices), identical
    /// in semantics and RNG stream to applying [`PhysOp::Prep`] per
    /// qubit in order, but costing one sampler scan for the whole run.
    /// On a clean frame with the countdown covering the run this is a
    /// single subtraction.
    #[inline]
    pub fn prep_batch<R: Rng + ?Sized>(&mut self, qubits: &[usize], rng: &mut R) {
        if !self.dirty && self.sampler.covers(qubits.len() as u64) {
            return;
        }
        self.prep_batch_slow(qubits, rng);
    }

    fn prep_batch_slow<R: Rng + ?Sized>(&mut self, qubits: &[usize], rng: &mut R) {
        if self.dirty {
            for &q in qubits {
                clear_bit(&mut self.x, q);
                clear_bit(&mut self.z, q);
            }
            self.refresh_dirty();
        }
        let n = qubits.len() as u64;
        let mut done = 0u64;
        while let Some(off) = self
            .sampler
            .next_fault_within(PhysOpKind::ZeroPrepare, n - done, rng)
        {
            let idx = done + off;
            set_bit(&mut self.x, qubits[idx as usize]);
            self.dirty = true;
            self.faults_injected += 1;
            done = idx + 1;
        }
    }

    /// Applies the same twirl-free one-qubit gate to each qubit in
    /// order (distinct indices), batching the fault scan. Identical RNG
    /// stream to per-op application.
    ///
    /// # Panics
    ///
    /// Panics (debug) on `T`/`Tdg`, whose stochastic twirl draws during
    /// conjugation and therefore cannot be batched.
    #[inline]
    pub fn gate1_batch<R: Rng + ?Sized>(&mut self, g: Gate1, qubits: &[usize], rng: &mut R) {
        debug_assert!(
            !matches!(g, Gate1::T | Gate1::Tdg),
            "T conjugation twirls; apply it per op"
        );
        if !self.dirty && self.sampler.covers(qubits.len() as u64) {
            return;
        }
        self.gate1_batch_slow(g, qubits, rng);
    }

    fn gate1_batch_slow<R: Rng + ?Sized>(&mut self, g: Gate1, qubits: &[usize], rng: &mut R) {
        let n = qubits.len() as u64;
        let mut done = 0u64;
        loop {
            let next = self
                .sampler
                .next_fault_within(PhysOpKind::OneQubitGate, n - done, rng);
            let upto = next.map_or(n, |off| done + off + 1);
            if self.dirty {
                for &q in &qubits[done as usize..upto as usize] {
                    self.conjugate_gate1_pure(g, q);
                }
            }
            match next {
                None => return,
                Some(off) => {
                    self.inject_random_1q(qubits[(done + off) as usize], rng);
                    done += off + 1;
                }
            }
        }
    }

    /// Applies the same twirl-free two-qubit gate to each `(a, b)` pair
    /// in order (pairs may chain or overlap), batching the fault scan.
    /// Identical RNG stream to per-op application.
    ///
    /// # Panics
    ///
    /// Panics (debug) on `Cs` (its conjugation twirls).
    #[inline]
    pub fn gate2_batch<R: Rng + ?Sized>(
        &mut self,
        g: Gate2,
        pairs: &[(usize, usize)],
        rng: &mut R,
    ) {
        debug_assert!(
            !matches!(g, Gate2::Cs),
            "CS conjugation twirls; apply it per op"
        );
        if !self.dirty && self.sampler.covers(pairs.len() as u64) {
            return;
        }
        self.gate2_batch_slow(g, pairs, rng);
    }

    fn gate2_batch_slow<R: Rng + ?Sized>(
        &mut self,
        g: Gate2,
        pairs: &[(usize, usize)],
        rng: &mut R,
    ) {
        let n = pairs.len() as u64;
        let mut done = 0u64;
        loop {
            let next = self
                .sampler
                .next_fault_within(PhysOpKind::TwoQubitGate, n - done, rng);
            let upto = next.map_or(n, |off| done + off + 1);
            if self.dirty {
                for &(a, b) in &pairs[done as usize..upto as usize] {
                    self.conjugate_gate2_pure(g, a, b);
                }
            }
            match next {
                None => return,
                Some(off) => {
                    let (a, b) = pairs[(done + off) as usize];
                    self.inject_random_2q(a, b, rng);
                    done += off + 1;
                }
            }
        }
    }

    /// Measures every qubit in `qubits` (distinct indices) in `basis`,
    /// returning the flip outcomes as a mask (bit `i` = `qubits[i]`).
    /// Identical semantics and RNG stream to per-op measurement.
    ///
    /// # Panics
    ///
    /// Panics on more than 64 qubits (the mask could not hold the
    /// outcomes); measure larger registers in 64-qubit batches.
    #[inline]
    pub fn measure_batch<R: Rng + ?Sized>(
        &mut self,
        basis: Basis,
        qubits: &[usize],
        rng: &mut R,
    ) -> u64 {
        assert!(
            qubits.len() <= 64,
            "measure_batch mask holds at most 64 outcomes, got {}",
            qubits.len()
        );
        if !self.dirty && self.sampler.covers(qubits.len() as u64) {
            return 0;
        }
        self.measure_batch_slow(basis, qubits, rng)
    }

    fn measure_batch_slow<R: Rng + ?Sized>(
        &mut self,
        basis: Basis,
        qubits: &[usize],
        rng: &mut R,
    ) -> u64 {
        let mut flips = 0u64;
        if self.dirty {
            let bits = match basis {
                Basis::Z => &self.x,
                Basis::X => &self.z,
            };
            for (i, &q) in qubits.iter().enumerate() {
                flips |= (bit(bits, q) as u64) << i;
            }
        }
        let n = qubits.len() as u64;
        let mut done = 0u64;
        while let Some(off) = self
            .sampler
            .next_fault_within(PhysOpKind::Measurement, n - done, rng)
        {
            let idx = done + off;
            flips ^= 1 << idx; // faulty measurement misreports
            self.faults_injected += 1;
            done = idx + 1;
        }
        if self.dirty {
            for &q in qubits {
                clear_bit(&mut self.x, q);
                clear_bit(&mut self.z, q);
            }
            self.refresh_dirty();
        }
        flips
    }

    /// Applies `per_each` movement ops of `kind` (straight move or
    /// turn) to each qubit in order (`qubits[0]` × `per_each`, then
    /// `qubits[1]` × `per_each`, ...), batching the fault scan.
    /// Identical RNG stream to per-op application in that order.
    #[inline]
    pub fn movement_batch<R: Rng + ?Sized>(
        &mut self,
        kind: PhysOpKind,
        qubits: &[usize],
        per_each: u32,
        rng: &mut R,
    ) {
        debug_assert!(matches!(kind, PhysOpKind::StraightMove | PhysOpKind::Turn));
        let n = qubits.len() as u64 * per_each as u64;
        if self.sampler.covers(n) {
            return;
        }
        self.movement_batch_slow(kind, qubits, per_each, rng);
    }

    fn movement_batch_slow<R: Rng + ?Sized>(
        &mut self,
        kind: PhysOpKind,
        qubits: &[usize],
        per_each: u32,
        rng: &mut R,
    ) {
        if per_each == 0 {
            return;
        }
        let n = qubits.len() as u64 * per_each as u64;
        let mut done = 0u64;
        while let Some(off) = self.sampler.next_fault_within(kind, n - done, rng) {
            let idx = done + off;
            let q = qubits[(idx / per_each as u64) as usize];
            self.inject_random_1q(q, rng);
            done = idx + 1;
        }
    }

    #[inline]
    fn conjugate_gate1_pure(&mut self, g: Gate1, q: usize) {
        match g {
            Gate1::I | Gate1::X | Gate1::Y | Gate1::Z => {}
            Gate1::H => {
                let bx = bit(&self.x, q);
                let bz = bit(&self.z, q);
                xor_bit(&mut self.x, q, bx ^ bz);
                xor_bit(&mut self.z, q, bx ^ bz);
            }
            Gate1::S | Gate1::Sdg => {
                let bx = bit(&self.x, q);
                xor_bit(&mut self.z, q, bx);
            }
            Gate1::T | Gate1::Tdg => unreachable!("twirled gates are never batched"),
        }
    }

    #[inline]
    fn conjugate_gate2_pure(&mut self, g: Gate2, a: usize, b: usize) {
        match g {
            Gate2::Cx => {
                let xa = bit(&self.x, a);
                xor_bit(&mut self.x, b, xa);
                let zb = bit(&self.z, b);
                xor_bit(&mut self.z, a, zb);
            }
            Gate2::Cz => {
                let xa = bit(&self.x, a);
                let xb = bit(&self.x, b);
                xor_bit(&mut self.z, b, xa);
                xor_bit(&mut self.z, a, xb);
            }
            Gate2::Cs => unreachable!("twirled gates are never batched"),
        }
    }

    #[inline]
    fn conjugate_gate1<R: Rng + ?Sized>(&mut self, g: Gate1, q: usize, rng: &mut R) {
        match g {
            Gate1::T | Gate1::Tdg => {
                // Stochastic twirl of the non-Clifford conjugation:
                // X -> (X ± Y)/sqrt(2) becomes X or Y with prob 1/2.
                if bit(&self.x, q) && rng.gen_bool(0.5) {
                    xor_bit(&mut self.z, q, true);
                }
            }
            g => self.conjugate_gate1_pure(g, q),
        }
    }

    #[inline]
    fn conjugate_gate2<R: Rng + ?Sized>(&mut self, g: Gate2, a: usize, b: usize, rng: &mut R) {
        match g {
            Gate2::Cs => {
                // Clifford part acts like CZ on X errors; the residual
                // non-Clifford part is twirled like T.
                let xa = bit(&self.x, a);
                let xb = bit(&self.x, b);
                xor_bit(&mut self.z, b, xa);
                xor_bit(&mut self.z, a, xb);
                if xa && rng.gen_bool(0.5) {
                    xor_bit(&mut self.z, a, true);
                }
                if xb && rng.gen_bool(0.5) {
                    xor_bit(&mut self.z, b, true);
                }
            }
            g => self.conjugate_gate2_pure(g, a, b),
        }
    }

    #[inline]
    fn inject_random_1q<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        let p = Pauli::NON_IDENTITY[rng.gen_range(0..3)];
        self.inject(q, p);
        self.faults_injected += 1;
    }

    #[inline]
    fn inject_random_2q<R: Rng + ?Sized>(&mut self, a: usize, b: usize, rng: &mut R) {
        // Uniform over the 15 non-identity two-qubit Paulis.
        let k = rng.gen_range(1..16u8);
        let pa = match k / 4 {
            0 => Pauli::I,
            1 => Pauli::X,
            2 => Pauli::Y,
            _ => Pauli::Z,
        };
        let pb = match k % 4 {
            0 => Pauli::I,
            1 => Pauli::X,
            2 => Pauli::Y,
            _ => Pauli::Z,
        };
        self.inject(a, pa);
        self.inject(b, pb);
        self.faults_injected += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn cx_propagates_x_forward_and_z_backward() {
        let mut r = rng();
        let mut f = PauliFrame::new(2, ErrorModel::noiseless());
        f.inject(0, Pauli::X);
        f.inject(1, Pauli::Z);
        f.apply(&PhysOp::cx(0, 1), &mut r);
        assert_eq!(f.error_at(0), Pauli::Y); // X plus back-propagated Z
        assert_eq!(f.error_at(1), Pauli::Y); // Z plus forward-propagated X
    }

    #[test]
    fn h_exchanges_x_and_z() {
        let mut r = rng();
        let mut f = PauliFrame::new(1, ErrorModel::noiseless());
        f.inject(0, Pauli::X);
        f.apply(&PhysOp::h(0), &mut r);
        assert_eq!(f.error_at(0), Pauli::Z);
    }

    #[test]
    fn s_maps_x_to_y() {
        let mut r = rng();
        let mut f = PauliFrame::new(1, ErrorModel::noiseless());
        f.inject(0, Pauli::X);
        f.apply(&PhysOp::Gate1(Gate1::S, 0), &mut r);
        assert_eq!(f.error_at(0), Pauli::Y);
    }

    #[test]
    fn cz_deposits_z_across() {
        let mut r = rng();
        let mut f = PauliFrame::new(2, ErrorModel::noiseless());
        f.inject(0, Pauli::X);
        f.apply(&PhysOp::cz(0, 1), &mut r);
        assert_eq!(f.error_at(0), Pauli::X);
        assert_eq!(f.error_at(1), Pauli::Z);
    }

    #[test]
    fn measurement_reports_error_flip_and_consumes() {
        let mut r = rng();
        let mut f = PauliFrame::new(1, ErrorModel::noiseless());
        f.inject(0, Pauli::X);
        let flip = f.apply(&PhysOp::measure_z(0), &mut r).unwrap();
        assert!(flip);
        assert_eq!(f.error_at(0), Pauli::I); // consumed
                                             // Z error does not flip a Z-basis outcome.
        f.inject(0, Pauli::Z);
        let flip = f.apply(&PhysOp::measure_z(0), &mut r).unwrap();
        assert!(!flip);
    }

    #[test]
    fn x_basis_measurement_sees_z_errors() {
        let mut r = rng();
        let mut f = PauliFrame::new(1, ErrorModel::noiseless());
        f.inject(0, Pauli::Z);
        let flip = f.apply(&PhysOp::measure_x(0), &mut r).unwrap();
        assert!(flip);
    }

    #[test]
    fn prep_erases_history() {
        let mut r = rng();
        let mut f = PauliFrame::new(1, ErrorModel::noiseless());
        f.inject(0, Pauli::Y);
        f.apply(&PhysOp::Prep(0), &mut r);
        assert_eq!(f.error_at(0), Pauli::I);
    }

    #[test]
    fn noiseless_run_never_injects() {
        let mut r = rng();
        let mut f = PauliFrame::new(3, ErrorModel::noiseless());
        let ops = vec![
            PhysOp::Prep(0),
            PhysOp::h(0),
            PhysOp::cx(0, 1),
            PhysOp::cx(1, 2),
            PhysOp::measure_z(2),
        ];
        let mut flips = Vec::new();
        f.run(&ops, &mut r, &mut flips);
        assert_eq!(flips, vec![false]);
        assert_eq!(f.faults_injected(), 0);
    }

    #[test]
    fn run_reuses_the_flips_buffer() {
        let mut r = rng();
        let mut f = PauliFrame::new(1, ErrorModel::noiseless());
        let ops = vec![PhysOp::Prep(0), PhysOp::measure_z(0)];
        let mut flips = Vec::with_capacity(8);
        f.run(&ops, &mut r, &mut flips);
        assert_eq!(flips, vec![false]);
        let ptr = flips.as_ptr();
        f.run(&ops, &mut r, &mut flips);
        assert_eq!(flips, vec![false]);
        assert_eq!(ptr, flips.as_ptr(), "buffer must not reallocate");
    }

    #[test]
    fn noisy_run_injects_at_expected_rate() {
        // 10k two-qubit gates at p=0.01 should see ~100 faults.
        let mut r = rng();
        let model = ErrorModel {
            p_gate: 0.01,
            p_move: 0.0,
            ..ErrorModel::noiseless()
        };
        let mut f = PauliFrame::new(2, model);
        for _ in 0..10_000 {
            f.apply(&PhysOp::cx(0, 1), &mut r);
        }
        let n = f.faults_injected();
        assert!((50..200).contains(&n), "fault count {n} out of range");
    }

    #[test]
    fn extract_orders_by_request() {
        let mut f = PauliFrame::new(4, ErrorModel::noiseless());
        f.inject(2, Pauli::X);
        f.inject(3, Pauli::Z);
        let s = f.extract(&[3, 2]);
        assert_eq!(s.to_string(), "ZX");
    }

    #[test]
    fn frames_span_multiple_limbs() {
        let mut r = rng();
        let mut f = PauliFrame::new(130, ErrorModel::noiseless());
        f.inject(0, Pauli::X);
        f.inject(63, Pauli::X);
        f.inject(64, Pauli::Z);
        f.inject(129, Pauli::Y);
        assert_eq!(f.error_at(63), Pauli::X);
        assert_eq!(f.error_at(64), Pauli::Z);
        assert_eq!(f.error_at(129), Pauli::Y);
        // CX across the limb boundary propagates as usual.
        f.apply(&PhysOp::cx(63, 64), &mut r);
        assert_eq!(f.error_at(64), Pauli::Y); // Z plus propagated X
        assert_eq!(f.error_at(63), Pauli::Y); // X plus back-propagated Z
    }

    #[test]
    fn mask7_fast_and_slow_paths_agree() {
        // Straddle the limb boundary: block [60..67) forces the slow
        // path, block [0..7) takes the single-shift path.
        let mut f = PauliFrame::new(70, ErrorModel::noiseless());
        for &q in &[0, 3, 6, 60, 62, 66] {
            f.inject(q, Pauli::X);
        }
        f.inject(61, Pauli::Z);
        assert_eq!(f.x_mask7(&[0, 1, 2, 3, 4, 5, 6]), 0b100_1001);
        assert_eq!(f.x_mask7(&[60, 61, 62, 63, 64, 65, 66]), 0b100_0101);
        assert_eq!(f.z_mask7(&[60, 61, 62, 63, 64, 65, 66]), 0b000_0010);
        // Permuted (non-contiguous) blocks read per-bit.
        assert_eq!(f.x_mask7(&[6, 5, 4, 3, 2, 1, 0]), 0b100_1001);
    }

    /// Batched ops are defined to consume the identical RNG stream as
    /// per-op application; states, flips, and fault counts must match
    /// bit for bit under both sampling modes.
    #[test]
    fn batched_ops_match_per_op_stream() {
        use crate::error_model::FaultSampling;
        for sampling in [FaultSampling::Exact, FaultSampling::Skip] {
            // Inflated rates so faults land inside batches often.
            let model = ErrorModel {
                p_gate: 0.04,
                p_move: 0.01,
                sampling,
            };
            let qubits = [0usize, 1, 2, 3, 4, 5, 6];
            let hs = [0usize, 1, 3];
            let cxs = [(0usize, 2usize), (1, 5), (3, 6), (2, 4)]; // includes a chain
            for seed in 0..200 {
                let mut r1 = StdRng::seed_from_u64(seed);
                let mut a = PauliFrame::new(7, model);
                a.prep_batch(&qubits, &mut r1);
                a.gate1_batch(Gate1::H, &hs, &mut r1);
                a.gate2_batch(Gate2::Cx, &cxs, &mut r1);
                a.movement_batch(PhysOpKind::StraightMove, &[0, 1], 3, &mut r1);
                a.movement_batch(PhysOpKind::Turn, &[2], 2, &mut r1);
                let flips_a = a.measure_batch(Basis::Z, &[4, 5, 6], &mut r1);

                let mut r2 = StdRng::seed_from_u64(seed);
                let mut b = PauliFrame::new(7, model);
                for &q in &qubits {
                    b.apply(&PhysOp::Prep(q), &mut r2);
                }
                for &q in &hs {
                    b.apply(&PhysOp::h(q), &mut r2);
                }
                for &(c, t) in &cxs {
                    b.apply(&PhysOp::cx(c, t), &mut r2);
                }
                for &q in &[0usize, 0, 0, 1, 1, 1] {
                    b.apply(&PhysOp::Move(q), &mut r2);
                }
                for _ in 0..2 {
                    b.apply(&PhysOp::TurnOp(2), &mut r2);
                }
                let mut flips_b = 0u64;
                for (i, &q) in [4usize, 5, 6].iter().enumerate() {
                    if b.apply(&PhysOp::measure_z(q), &mut r2).unwrap() {
                        flips_b |= 1 << i;
                    }
                }

                assert_eq!(flips_a, flips_b, "{sampling:?} seed {seed}: flips");
                assert_eq!(
                    a.extract(&[0, 1, 2, 3, 4, 5, 6]),
                    b.extract(&[0, 1, 2, 3, 4, 5, 6]),
                    "{sampling:?} seed {seed}: state"
                );
                assert_eq!(
                    a.faults_injected(),
                    b.faults_injected(),
                    "{sampling:?} seed {seed}: fault count"
                );
                use rand::Rng as _;
                assert_eq!(
                    r1.next_u64(),
                    r2.next_u64(),
                    "{sampling:?} seed {seed}: RNG streams diverged"
                );
            }
        }
    }

    #[test]
    fn reset_clears_state_and_reuses_capacity() {
        let mut r = rng();
        let mut f = PauliFrame::new(28, ErrorModel::paper());
        f.inject(5, Pauli::Y);
        f.apply(&PhysOp::cx(5, 6), &mut r);
        assert!(!f.is_clean());
        f.reset(28, ErrorModel::paper());
        assert!(f.is_clean());
        assert_eq!(f.faults_injected(), 0);
        for q in 0..28 {
            assert_eq!(f.error_at(q), Pauli::I);
        }
        // Shrinking and growing both work.
        f.reset(7, ErrorModel::noiseless());
        assert_eq!(f.len(), 7);
        f.reset(130, ErrorModel::paper());
        assert_eq!(f.len(), 130);
        assert_eq!(f.error_at(129), Pauli::I);
    }

    #[test]
    fn clean_frame_skips_conjugation_but_tracks_dirt() {
        let mut r = rng();
        let mut f = PauliFrame::new(2, ErrorModel::noiseless());
        assert!(f.is_clean());
        f.apply(&PhysOp::h(0), &mut r);
        f.apply(&PhysOp::cx(0, 1), &mut r);
        assert!(f.is_clean());
        f.inject(0, Pauli::X);
        assert!(!f.is_clean());
        // Measuring the only dirty qubit restores cleanliness.
        let _ = f.apply(&PhysOp::measure_z(0), &mut r);
        assert!(f.is_clean());
    }
}
