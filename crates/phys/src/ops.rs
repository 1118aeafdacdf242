//! The physical operation set of the ion-trap technology abstraction.
//!
//! The paper abstracts trapped-ion hardware into a handful of primitive
//! operations (§4.1): one-qubit gates, two-qubit gates, measurement,
//! zero-state preparation, straight channel moves, and turns. Every
//! latency, error, and layout calculation in the study is phrased in
//! terms of these primitives.

use crate::pauli::Pauli;

/// The kind of a physical operation, independent of which qubits it
/// touches. Used to look up latencies ([`crate::latency::LatencyTable`])
/// and error probabilities ([`crate::error_model::ErrorModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysOpKind {
    /// Any one-qubit unitary (H, X, Y, Z, S, T, small rotations...).
    OneQubitGate,
    /// Any two-qubit unitary (CX, CZ, CS...).
    TwoQubitGate,
    /// Projective measurement (basis recorded on the op itself).
    Measurement,
    /// Preparation of a fresh physical |0> state.
    ZeroPrepare,
    /// Ballistic movement across one macroblock.
    StraightMove,
    /// Movement around a corner (much slower than a straight move).
    Turn,
}

/// One-qubit gate flavors tracked by the Pauli-frame simulator.
///
/// Only the Clifford-frame action matters for error propagation, so the
/// non-Clifford `T` is listed explicitly and handled by stochastic
/// twirling in [`crate::frame::PauliFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate1 {
    /// Identity / idle slot (still occupies a gate location).
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
    /// Hadamard: exchanges X and Z errors.
    H,
    /// Phase gate S: maps X errors to Y errors.
    S,
    /// Inverse phase gate.
    Sdg,
    /// pi/8 gate (T). Non-Clifford; error propagation is twirled.
    T,
    /// Inverse pi/8 gate.
    Tdg,
}

/// Two-qubit gate flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate2 {
    /// Controlled-X: X propagates control->target, Z target->control.
    Cx,
    /// Controlled-Z: X on either qubit deposits Z on the other.
    Cz,
    /// Controlled-S, used in the pi/8-ancilla gadget (Fig 5b). Treated
    /// as CZ for Pauli-frame propagation purposes (documented
    /// approximation: its non-Clifford part only matters at second
    /// order in the error rate).
    Cs,
}

/// Measurement bases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Basis {
    /// Computational (Z) basis: outcomes flipped by X-component errors.
    Z,
    /// Hadamard (X) basis: outcomes flipped by Z-component errors.
    X,
}

/// A concrete physical operation applied to specific physical qubits.
///
/// # Example
///
/// ```
/// use qods_phys::ops::{PhysOp, PhysOpKind};
///
/// let op = PhysOp::cx(2, 5);
/// assert_eq!(op.kind(), PhysOpKind::TwoQubitGate);
/// assert_eq!(op.qubits(), vec![2, 5]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysOp {
    /// One-qubit gate on a qubit.
    Gate1(Gate1, usize),
    /// Two-qubit gate on (control, target).
    Gate2(Gate2, usize, usize),
    /// Measurement of a qubit in a basis.
    Measure(Basis, usize),
    /// Fresh |0> preparation.
    Prep(usize),
    /// One straight macroblock move of a qubit.
    Move(usize),
    /// One turn of a qubit.
    TurnOp(usize),
    /// A deterministic Pauli applied conditionally on earlier
    /// measurement outcomes (classical feedback); `usize` is the qubit,
    /// the controlling outcomes are wired by the executing circuit.
    /// Modeled as a one-qubit gate for latency/error purposes.
    CondPauli(Pauli, usize),
}

impl PhysOp {
    /// Convenience constructor for a CX gate.
    pub fn cx(control: usize, target: usize) -> Self {
        PhysOp::Gate2(Gate2::Cx, control, target)
    }

    /// Convenience constructor for a CZ gate.
    pub fn cz(a: usize, b: usize) -> Self {
        PhysOp::Gate2(Gate2::Cz, a, b)
    }

    /// Convenience constructor for a Hadamard.
    pub fn h(q: usize) -> Self {
        PhysOp::Gate1(Gate1::H, q)
    }

    /// Convenience constructor for a Z-basis measurement.
    pub fn measure_z(q: usize) -> Self {
        PhysOp::Measure(Basis::Z, q)
    }

    /// Convenience constructor for an X-basis measurement.
    pub fn measure_x(q: usize) -> Self {
        PhysOp::Measure(Basis::X, q)
    }

    /// The operation's kind, for latency and error lookups.
    pub fn kind(&self) -> PhysOpKind {
        match self {
            PhysOp::Gate1(..) | PhysOp::CondPauli(..) => PhysOpKind::OneQubitGate,
            PhysOp::Gate2(..) => PhysOpKind::TwoQubitGate,
            PhysOp::Measure(..) => PhysOpKind::Measurement,
            PhysOp::Prep(_) => PhysOpKind::ZeroPrepare,
            PhysOp::Move(_) => PhysOpKind::StraightMove,
            PhysOp::TurnOp(_) => PhysOpKind::Turn,
        }
    }

    /// The physical qubits the operation touches.
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            PhysOp::Gate1(_, q)
            | PhysOp::Measure(_, q)
            | PhysOp::Prep(q)
            | PhysOp::Move(q)
            | PhysOp::TurnOp(q)
            | PhysOp::CondPauli(_, q) => vec![q],
            PhysOp::Gate2(_, a, b) => vec![a, b],
        }
    }
}

/// A straight-line physical circuit: operations in program order.
///
/// The Pauli-frame simulator executes these in order; there is no
/// control flow other than [`PhysOp::CondPauli`], whose condition is
/// resolved by the caller (circuits in `qods-steane` wire measurement
/// outcomes to corrections themselves).
#[derive(Debug, Clone, Default)]
pub struct PhysCircuit {
    /// Number of physical qubits referenced.
    pub n_qubits: usize,
    /// Operations in execution order.
    pub ops: Vec<PhysOp>,
}

impl PhysCircuit {
    /// An empty circuit over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        PhysCircuit {
            n_qubits,
            ops: Vec::new(),
        }
    }

    /// Appends an operation.
    ///
    /// # Panics
    ///
    /// Panics if the op references a qubit outside the circuit.
    pub fn push(&mut self, op: PhysOp) {
        for q in op.qubits() {
            assert!(
                q < self.n_qubits,
                "op {op:?} references qubit {q} >= {}",
                self.n_qubits
            );
        }
        self.ops.push(op);
    }

    /// Counts operations of a given kind.
    pub fn count(&self, kind: PhysOpKind) -> usize {
        self.ops.iter().filter(|o| o.kind() == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_classified() {
        assert_eq!(PhysOp::h(0).kind(), PhysOpKind::OneQubitGate);
        assert_eq!(PhysOp::cx(0, 1).kind(), PhysOpKind::TwoQubitGate);
        assert_eq!(PhysOp::measure_z(0).kind(), PhysOpKind::Measurement);
        assert_eq!(PhysOp::Prep(0).kind(), PhysOpKind::ZeroPrepare);
        assert_eq!(PhysOp::Move(0).kind(), PhysOpKind::StraightMove);
        assert_eq!(PhysOp::TurnOp(0).kind(), PhysOpKind::Turn);
    }

    #[test]
    fn circuit_counts_ops() {
        let mut c = PhysCircuit::new(3);
        c.push(PhysOp::Prep(0));
        c.push(PhysOp::h(0));
        c.push(PhysOp::cx(0, 1));
        c.push(PhysOp::cx(0, 2));
        c.push(PhysOp::measure_z(2));
        assert_eq!(c.count(PhysOpKind::TwoQubitGate), 2);
        assert_eq!(c.count(PhysOpKind::Measurement), 1);
    }

    #[test]
    #[should_panic(expected = "references qubit")]
    fn out_of_range_op_panics() {
        let mut c = PhysCircuit::new(1);
        c.push(PhysOp::cx(0, 1));
    }
}
