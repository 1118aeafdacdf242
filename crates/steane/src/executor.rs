//! Protocol executor: drives a [`PauliFrame`] through a fault-tolerance
//! protocol while tallying physical-operation counts.
//!
//! The ancilla-preparation protocols contain classical feedback
//! (measure, then conditionally correct or discard), so they cannot be
//! expressed as straight-line circuits. Each protocol is instead a Rust
//! function over an [`Executor`], which:
//!
//! * applies each op to the Pauli frame (injecting faults per the
//!   error model),
//! * returns measurement outcome *flips* to the protocol logic, and
//! * counts ops by kind, so the same protocol run yields both
//!   Monte-Carlo statistics and the op census used for latency and
//!   bandwidth accounting (keeping a single source of truth).

use qods_phys::error_model::ErrorModel;
use qods_phys::frame::PauliFrame;
use qods_phys::latency::SymbolicLatency;
use qods_phys::montecarlo::TrialArena;
use qods_phys::ops::{Basis, Gate1, Gate2, PhysOp, PhysOpKind};
use qods_phys::pauli::Pauli;
use rand::Rng;

/// Census of physical operations executed by a protocol.
///
/// # Example
///
/// ```
/// use qods_steane::executor::OpCounts;
///
/// let mut c = OpCounts::default();
/// c.two_qubit_gates = 6;
/// c.measurements = 2;
/// assert_eq!(c.total(), 8);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// One-qubit gates (including conditional Pauli corrections).
    pub one_qubit_gates: u64,
    /// Two-qubit gates.
    pub two_qubit_gates: u64,
    /// Measurements in any basis.
    pub measurements: u64,
    /// Physical |0> preparations.
    pub preps: u64,
    /// Straight macroblock moves.
    pub moves: u64,
    /// Turns.
    pub turns: u64,
}

impl OpCounts {
    /// Total op count.
    pub fn total(&self) -> u64 {
        self.one_qubit_gates
            + self.two_qubit_gates
            + self.measurements
            + self.preps
            + self.moves
            + self.turns
    }

    /// A symbolic latency assuming fully serial execution — an upper
    /// bound used in sanity checks (scheduled latencies come from the
    /// factory models, not from here).
    pub fn serial_latency(&self) -> SymbolicLatency {
        SymbolicLatency {
            n_1q: self.one_qubit_gates as u32,
            n_2q: self.two_qubit_gates as u32,
            n_meas: self.measurements as u32,
            n_prep: self.preps as u32,
            n_move: self.moves as u32,
            n_turn: self.turns as u32,
        }
    }

    fn record(&mut self, kind: PhysOpKind) {
        match kind {
            PhysOpKind::OneQubitGate => self.one_qubit_gates += 1,
            PhysOpKind::TwoQubitGate => self.two_qubit_gates += 1,
            PhysOpKind::Measurement => self.measurements += 1,
            PhysOpKind::ZeroPrepare => self.preps += 1,
            PhysOpKind::StraightMove => self.moves += 1,
            PhysOpKind::Turn => self.turns += 1,
        }
    }
}

/// The executor's frame storage: owned for one-shot use, or borrowed
/// from a [`TrialArena`] so Monte-Carlo trials reuse one allocation.
enum FrameSlot<'r> {
    Owned(PauliFrame),
    Borrowed(&'r mut PauliFrame),
}

impl FrameSlot<'_> {
    #[inline(always)]
    fn get(&self) -> &PauliFrame {
        match self {
            FrameSlot::Owned(f) => f,
            FrameSlot::Borrowed(f) => f,
        }
    }

    #[inline(always)]
    fn get_mut(&mut self) -> &mut PauliFrame {
        match self {
            FrameSlot::Owned(f) => f,
            FrameSlot::Borrowed(f) => f,
        }
    }
}

/// Executes protocol steps against a Pauli frame with fault injection.
pub struct Executor<'r, R: Rng> {
    frame: FrameSlot<'r>,
    rng: &'r mut R,
    counts: OpCounts,
}

impl<'r, R: Rng> Executor<'r, R> {
    /// A new executor over `n` physical qubits, owning its frame.
    pub fn new(n: usize, model: ErrorModel, rng: &'r mut R) -> Self {
        Executor {
            frame: FrameSlot::Owned(PauliFrame::new(n, model)),
            rng,
            counts: OpCounts::default(),
        }
    }

    /// A new executor borrowing (and resetting) the arena's frame —
    /// the allocation-free path every Monte-Carlo trial runs on.
    pub fn in_arena(
        n: usize,
        model: ErrorModel,
        rng: &'r mut R,
        arena: &'r mut TrialArena,
    ) -> Self {
        Executor {
            frame: FrameSlot::Borrowed(arena.frame(n, model)),
            rng,
            counts: OpCounts::default(),
        }
    }

    /// The op census so far.
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Read-only view of the underlying frame (for final-state checks).
    pub fn frame(&self) -> &PauliFrame {
        self.frame.get()
    }

    /// Deterministic fault injection (for directed tests).
    pub fn inject(&mut self, q: usize, p: Pauli) {
        self.frame.get_mut().inject(q, p);
    }

    /// A fair coin from the executor's RNG — used by protocols whose
    /// ideal measurement outcomes are genuinely random (e.g. the pi/8
    /// gadget's teleportation branch).
    pub fn coin(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    #[inline]
    fn apply(&mut self, op: PhysOp) -> Option<bool> {
        self.counts.record(op.kind());
        self.frame.get_mut().apply(&op, self.rng)
    }

    // Single-op helpers route through the frame's batched entry points
    // (single-element runs) rather than the `PhysOp` dispatch: the
    // semantics and RNG stream are identical by the batch contract, and
    // the clean-frame fast path turns each into one countdown check.

    /// Physical |0> preparation.
    #[inline]
    pub fn prep(&mut self, q: usize) {
        self.counts.preps += 1;
        self.frame.get_mut().prep_batch(&[q], self.rng);
    }

    /// Hadamard.
    #[inline]
    pub fn h(&mut self, q: usize) {
        self.counts.one_qubit_gates += 1;
        self.frame.get_mut().gate1_batch(Gate1::H, &[q], self.rng);
    }

    /// Phase gate.
    #[inline]
    pub fn s(&mut self, q: usize) {
        self.counts.one_qubit_gates += 1;
        self.frame.get_mut().gate1_batch(Gate1::S, &[q], self.rng);
    }

    /// Pauli Z as a deliberate circuit gate (frame-transparent).
    #[inline]
    pub fn z(&mut self, q: usize) {
        self.counts.one_qubit_gates += 1;
        self.frame.get_mut().gate1_batch(Gate1::Z, &[q], self.rng);
    }

    /// Pauli X as a deliberate circuit gate (frame-transparent).
    #[inline]
    pub fn x(&mut self, q: usize) {
        self.counts.one_qubit_gates += 1;
        self.frame.get_mut().gate1_batch(Gate1::X, &[q], self.rng);
    }

    /// pi/8 gate (twirled conjugation; stays on the per-op path).
    pub fn t(&mut self, q: usize) {
        self.apply(PhysOp::Gate1(Gate1::T, q));
    }

    /// CX gate.
    #[inline]
    pub fn cx(&mut self, c: usize, t: usize) {
        self.counts.two_qubit_gates += 1;
        self.frame
            .get_mut()
            .gate2_batch(Gate2::Cx, &[(c, t)], self.rng);
    }

    /// CZ gate.
    #[inline]
    pub fn cz(&mut self, a: usize, b: usize) {
        self.counts.two_qubit_gates += 1;
        self.frame
            .get_mut()
            .gate2_batch(Gate2::Cz, &[(a, b)], self.rng);
    }

    /// CS gate (used in the pi/8 gadget; twirled, per-op path).
    pub fn cs(&mut self, a: usize, b: usize) {
        self.apply(PhysOp::Gate2(Gate2::Cs, a, b));
    }

    /// Z-basis measurement; returns true when the outcome is flipped
    /// relative to ideal execution.
    #[inline]
    pub fn measure_z(&mut self, q: usize) -> bool {
        self.counts.measurements += 1;
        self.frame.get_mut().measure_batch(Basis::Z, &[q], self.rng) & 1 == 1
    }

    /// X-basis measurement flip.
    #[inline]
    pub fn measure_x(&mut self, q: usize) -> bool {
        self.counts.measurements += 1;
        self.frame.get_mut().measure_batch(Basis::X, &[q], self.rng) & 1 == 1
    }

    /// Conditional Pauli correction (costed as a one-qubit gate).
    pub fn cond_pauli(&mut self, q: usize, p: Pauli) {
        self.apply(PhysOp::CondPauli(p, q));
    }

    // Batched ops: identical semantics and RNG stream to issuing the
    // per-op calls in the same order (see `PauliFrame`'s `*_batch`
    // methods), but one fault scan per run instead of one per op —
    // the difference between ~N and ~N·p sampler interactions.

    /// Prepares every qubit in `qubits` (distinct), in order.
    pub fn prep_all(&mut self, qubits: &[usize]) {
        self.counts.preps += qubits.len() as u64;
        self.frame.get_mut().prep_batch(qubits, self.rng);
    }

    /// Hadamard on every qubit in `qubits` (distinct), in order.
    pub fn h_all(&mut self, qubits: &[usize]) {
        self.counts.one_qubit_gates += qubits.len() as u64;
        self.frame.get_mut().gate1_batch(Gate1::H, qubits, self.rng);
    }

    /// Pauli Z (frame-transparent circuit gate) on every qubit, in order.
    pub fn z_all(&mut self, qubits: &[usize]) {
        self.counts.one_qubit_gates += qubits.len() as u64;
        self.frame.get_mut().gate1_batch(Gate1::Z, qubits, self.rng);
    }

    /// CX on every `(control, target)` pair in order (chains allowed).
    pub fn cx_all(&mut self, pairs: &[(usize, usize)]) {
        self.counts.two_qubit_gates += pairs.len() as u64;
        self.frame.get_mut().gate2_batch(Gate2::Cx, pairs, self.rng);
    }

    /// CZ on every pair in order.
    pub fn cz_all(&mut self, pairs: &[(usize, usize)]) {
        self.counts.two_qubit_gates += pairs.len() as u64;
        self.frame.get_mut().gate2_batch(Gate2::Cz, pairs, self.rng);
    }

    /// Z-basis measurement of every qubit in `qubits` (distinct), in
    /// order; bit `i` of the result = flip of `qubits[i]`.
    ///
    /// # Panics
    ///
    /// Panics on more than 64 qubits (the flip mask would overflow);
    /// measure larger registers in 64-qubit batches.
    pub fn measure_z_all(&mut self, qubits: &[usize]) -> u64 {
        self.counts.measurements += qubits.len() as u64;
        self.frame
            .get_mut()
            .measure_batch(Basis::Z, qubits, self.rng)
    }

    /// X-basis measurement of every qubit in `qubits` (distinct).
    ///
    /// # Panics
    ///
    /// Panics on more than 64 qubits (see [`Executor::measure_z_all`]).
    pub fn measure_x_all(&mut self, qubits: &[usize]) -> u64 {
        self.counts.measurements += qubits.len() as u64;
        self.frame
            .get_mut()
            .measure_batch(Basis::X, qubits, self.rng)
    }

    /// `n` straight moves of qubit `q` (fault chance per move).
    pub fn moves(&mut self, q: usize, n: u32) {
        self.moves_multi(&[q], n);
    }

    /// `n` turns of qubit `q`.
    pub fn turns(&mut self, q: usize, n: u32) {
        self.turns_multi(&[q], n);
    }

    /// `n` straight moves of each qubit in `qubits`, qubit by qubit.
    pub fn moves_multi(&mut self, qubits: &[usize], n: u32) {
        self.counts.moves += qubits.len() as u64 * u64::from(n);
        self.frame
            .get_mut()
            .movement_batch(PhysOpKind::StraightMove, qubits, n, self.rng);
    }

    /// `n` turns of each qubit in `qubits`, qubit by qubit.
    pub fn turns_multi(&mut self, qubits: &[usize], n: u32) {
        self.counts.turns += qubits.len() as u64 * u64::from(n);
        self.frame
            .get_mut()
            .movement_batch(PhysOpKind::Turn, qubits, n, self.rng);
    }

    /// X-component error mask over a 7-qubit block given as indices
    /// (a single limb shift for the contiguous blocks the study uses).
    pub fn x_mask(&self, block: &[usize; 7]) -> u8 {
        self.frame.get().x_mask7(block)
    }

    /// Z-component error mask over a 7-qubit block.
    pub fn z_mask(&self, block: &[usize; 7]) -> u8 {
        self.frame.get().z_mask7(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qods_phys::latency::LatencyTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_follow_ops() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ex = Executor::new(3, ErrorModel::noiseless(), &mut rng);
        ex.prep(0);
        ex.h(0);
        ex.cx(0, 1);
        ex.cz(1, 2);
        ex.moves(2, 4);
        ex.turns(2, 1);
        let _ = ex.measure_z(1);
        let c = ex.counts();
        assert_eq!(c.preps, 1);
        assert_eq!(c.one_qubit_gates, 1);
        assert_eq!(c.two_qubit_gates, 2);
        assert_eq!(c.moves, 4);
        assert_eq!(c.turns, 1);
        assert_eq!(c.measurements, 1);
        assert_eq!(c.total(), 10);
    }

    #[test]
    fn masks_reflect_frame() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ex = Executor::new(7, ErrorModel::noiseless(), &mut rng);
        ex.inject(2, Pauli::X);
        ex.inject(5, Pauli::Y);
        let block = [0, 1, 2, 3, 4, 5, 6];
        assert_eq!(ex.x_mask(&block), 0b010_0100);
        assert_eq!(ex.z_mask(&block), 0b010_0000);
    }

    #[test]
    fn arena_executor_matches_owned_executor() {
        // Same seed, same ops: the borrowed-frame path must be
        // behaviorally identical to the owned path.
        let mut arena = TrialArena::new();
        let run = |ex: &mut Executor<'_, StdRng>| {
            ex.prep(0);
            ex.h(0);
            ex.cx(0, 1);
            ex.inject(1, Pauli::Y);
            (
                ex.measure_z(1),
                ex.counts(),
                ex.x_mask(&[0, 1, 2, 3, 4, 5, 6]),
            )
        };
        let mut r1 = StdRng::seed_from_u64(9);
        let mut owned = Executor::new(7, ErrorModel::paper(), &mut r1);
        let a = run(&mut owned);
        for _ in 0..3 {
            let mut r2 = StdRng::seed_from_u64(9);
            arena.reset_sampling();
            let mut borrowed = Executor::in_arena(7, ErrorModel::paper(), &mut r2, &mut arena);
            assert_eq!(a, run(&mut borrowed));
        }
    }

    #[test]
    fn serial_latency_adds_up() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ex = Executor::new(2, ErrorModel::noiseless(), &mut rng);
        ex.prep(0); // 51
        ex.cx(0, 1); // 10
        let _ = ex.measure_z(1); // 50
        let latency = ex.counts().serial_latency();
        assert_eq!(latency.eval(&LatencyTable::ion_trap()), 111.0);
    }
}
