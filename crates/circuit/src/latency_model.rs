//! The latency constants used by the speed-of-data characterization
//! (Tables 2-3), derived from the paper's published building blocks.
//!
//! All values are closed-form functions of the six physical latencies
//! (Tables 1 and 4) and the factory structures of §4:
//!
//! * **QEC interact** — the data-dependent part of a QEC step: a
//!   transversal CX, ancilla measurement, and conditional correction,
//!   once for bit and once for phase: `2 (t_2q + t_meas + t_1q)`
//!   = 122 us under ion-trap values.
//! * **Encoded-zero prep** — the hand-optimized verify-and-correct
//!   schedule of the simple factory (§4.3): `t_prep + 2 t_meas +
//!   6 t_2q + 2 t_1q + 8 t_turn + 30 t_move` = 323 us. The two zeros a
//!   QEC step consumes are prepared in parallel rows.
//! * **pi/8 interact** — the data-side latency of the Fig 5a gadget:
//!   transversal CX, measure, conditional correction:
//!   `t_2q + t_meas + t_1q` = 61 us.
//! * **pi/8 prep** — an encoded zero (prepared concurrently with the
//!   Fig 5b stage-1 cat state, so the longer of the two) followed by
//!   the gadget's remaining stages (Table 7): `max(zero_prep, 218) +
//!   53 + 218 + 74` = 668 us.
//!
//! `qods-factory` re-derives the same stage numbers from its pipeline
//! specs; an integration test asserts the two crates agree.

use crate::gate::Gate;
use qods_phys::latency::{LatencyTable, SymbolicLatency};

/// Latency constants for speed-of-data characterization.
#[derive(Debug, Clone, Copy)]
pub struct CharacterizationModel {
    /// The physical latency table (defaults to ion trap, Table 1/4).
    pub table: LatencyTable,
}

impl Default for CharacterizationModel {
    fn default() -> Self {
        CharacterizationModel {
            table: LatencyTable::ion_trap(),
        }
    }
}

impl CharacterizationModel {
    /// Ion-trap model (the paper's).
    pub fn ion_trap() -> Self {
        Self::default()
    }

    /// Data-side latency of one logical gate (Table 2, column 2
    /// contribution). Transversal 1q gates take `t_1q`; CX takes
    /// `t_2q`; the pi/8 gate takes its gadget's data-side latency.
    ///
    /// # Panics
    ///
    /// Panics on non-physical gates (Toffoli / unsynthesized
    /// rotations) — lower the circuit first.
    pub fn data_latency(&self, g: &Gate) -> f64 {
        assert!(g.is_physical(), "characterize a lowered circuit: {g:?}");
        let t = &self.table;
        match g {
            Gate::Cx(..) => t.t_2q,
            Gate::T(_) | Gate::Tdg(_) | Gate::PhaseRot { k: 2, .. } => self.pi8_interact(),
            _ => t.t_1q,
        }
    }

    /// Data/ancilla interaction latency of one QEC step (bit + phase).
    pub fn qec_interact(&self) -> f64 {
        2.0 * (self.table.t_2q + self.table.t_meas + self.table.t_1q)
    }

    /// Data-side latency of the encoded pi/8 gadget (Fig 5a).
    pub fn pi8_interact(&self) -> f64 {
        self.table.t_2q + self.table.t_meas + self.table.t_1q
    }

    /// Serial preparation latency of one high-fidelity encoded zero
    /// (§4.3's hand-optimized schedule; symbolic form below).
    pub fn zero_prep(&self) -> f64 {
        self.zero_prep_symbolic().eval(&self.table)
    }

    /// The §4.3 schedule as a symbolic latency.
    pub fn zero_prep_symbolic(&self) -> SymbolicLatency {
        SymbolicLatency::new()
            .prep(1)
            .meas(2)
            .two_q(6)
            .one_q(2)
            .turn(8)
            .mov(30)
    }

    /// Serial preparation latency of one encoded pi/8 ancilla: the
    /// encoded zero and the stage-1 cat state are prepared
    /// concurrently; stages 2-4 of Table 7 follow.
    pub fn pi8_prep(&self) -> f64 {
        let t = &self.table;
        let cat7 = 7.0 * t.t_2q + 14.0 * t.t_turn + 8.0 * t.t_move;
        let transversal = 3.0 * t.t_2q + 2.0 * t.t_turn + 3.0 * t.t_move;
        let decode = 7.0 * t.t_2q + 14.0 * t.t_turn + 8.0 * t.t_move;
        let readout = t.t_meas + 2.0 * t.t_1q + 2.0 * t.t_turn + 2.0 * t.t_move;
        self.zero_prep().max(cat7) + transversal + decode + readout
    }

    /// Encoded zeros consumed by one QEC step (bit + phase ancillae).
    pub fn zeros_per_qec(&self) -> u64 {
        2
    }

    /// Encoded zeros consumed to *feed* one pi/8 ancilla (the Fig 5b
    /// gadget turns one encoded zero into one pi/8 ancilla).
    pub fn zeros_per_pi8(&self) -> u64 {
        1
    }
}

/// The three kinds of physical gate the speed-of-data analyses price
/// apart: one-qubit Cliffords, pi/8 gates and CX. Every per-gate
/// quantity they read ([`CharacterizationModel::data_latency`],
/// [`Gate::needs_pi8_ancilla`], [`Gate::is_transversal`] and the qubit
/// count) is a function of the kind, which a test pins for every
/// physical gate, so a fold prices each kind once, through those rules
/// applied to [`GateKind::example`], and then only decodes gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GateKind {
    /// X, Y, Z, H, S, Sdg (and `PhaseRot{k <= 1}`).
    Clifford,
    /// T and Tdg (and `PhaseRot{k: 2}`).
    Pi8,
    /// CX.
    Cx,
}

impl GateKind {
    /// Every kind, in index order.
    pub(crate) const ALL: [GateKind; 3] = [GateKind::Clifford, GateKind::Pi8, GateKind::Cx];

    /// A gate of this kind.
    pub(crate) fn example(self) -> Gate {
        match self {
            GateKind::Clifford => Gate::H(0),
            GateKind::Pi8 => Gate::T(0),
            GateKind::Cx => Gate::Cx(0, 1),
        }
    }

    /// A physical gate's kind and qubits (the second only for a CX).
    ///
    /// # Panics
    ///
    /// Panics on non-physical gates, as
    /// [`CharacterizationModel::data_latency`] does.
    #[inline]
    pub(crate) fn decode(g: &Gate) -> (GateKind, usize, Option<usize>) {
        match *g {
            Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::PhaseRot { q, k: 0 | 1, .. } => (GateKind::Clifford, usize::from(q), None),
            Gate::T(q) | Gate::Tdg(q) | Gate::PhaseRot { q, k: 2, .. } => {
                (GateKind::Pi8, usize::from(q), None)
            }
            Gate::Cx(c, t) => (GateKind::Cx, usize::from(c), Some(usize::from(t))),
            _ => panic!("characterize a lowered circuit: {g:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ion_trap_constants() {
        let m = CharacterizationModel::ion_trap();
        assert_eq!(m.qec_interact(), 122.0);
        assert_eq!(m.pi8_interact(), 61.0);
        assert_eq!(m.zero_prep(), 323.0);
        // pi/8 prep: max(323, 218) + 53 + 218 + 74 = 668.
        assert_eq!(m.pi8_prep(), 668.0);
    }

    #[test]
    fn data_latencies() {
        let m = CharacterizationModel::ion_trap();
        assert_eq!(m.data_latency(&Gate::H(0)), 1.0);
        assert_eq!(m.data_latency(&Gate::Cx(0, 1)), 10.0);
        assert_eq!(m.data_latency(&Gate::T(0)), 61.0);
    }

    #[test]
    #[should_panic(expected = "lowered circuit")]
    fn non_physical_gate_panics() {
        let m = CharacterizationModel::ion_trap();
        let _ = m.data_latency(&Gate::Toffoli(0, 1, 2));
    }

    #[test]
    fn a_gate_is_priced_as_its_kind() {
        let m = CharacterizationModel::ion_trap();
        let mut physical = Vec::new();
        for q in [0, 3] {
            physical.extend([
                Gate::X(q),
                Gate::Y(q),
                Gate::Z(q),
                Gate::H(q),
                Gate::S(q),
                Gate::Sdg(q),
                Gate::T(q),
                Gate::Tdg(q),
                Gate::Cx(q, 1),
                Gate::Cx(2, q),
            ]);
            for k in 0..=2 {
                for dagger in [false, true] {
                    physical.push(Gate::PhaseRot { q, k, dagger });
                }
            }
        }
        for g in physical {
            assert!(g.is_physical());
            let (kind, a, b) = GateKind::decode(&g);
            let e = kind.example();
            assert_eq!(m.data_latency(&g), m.data_latency(&e), "{g:?}");
            assert_eq!(g.needs_pi8_ancilla(), e.needs_pi8_ancilla(), "{g:?}");
            assert_eq!(g.is_transversal(), e.is_transversal(), "{g:?}");
            let qubits: Vec<usize> = [a].into_iter().chain(b).collect();
            assert_eq!(*g.qubits(), qubits, "{g:?}");
        }
    }

    #[test]
    #[should_panic(expected = "lowered circuit")]
    fn a_non_physical_gate_has_no_kind() {
        let _ = GateKind::decode(&Gate::PhaseRot {
            q: 0,
            k: 3,
            dagger: false,
        });
    }
}
