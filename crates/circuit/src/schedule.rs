//! ASAP scheduling of a lowered circuit at the speed of data.
//!
//! At the speed of data (§1), ancilla preparation is fully off the
//! critical path: each gate occupies its qubits for its data-side
//! latency plus the QEC interaction that must follow it, and nothing
//! else. The schedule this module produces is the paper's "execution
//! limited only by data dependencies".
//!
//! Each gate waits only on the last gate on each of its qubits, so
//! every speed-of-data quantity comes out of one forward pass over
//! per-qubit frontier state (`frontier_pass`): no dependency graph
//! is built. The pass is bit-identical to the [`crate::dag::Dag`]
//! walks it replaced, which stay as its test oracle.

use crate::characterize::LatencyBreakdown;
use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::latency_model::CharacterizationModel;

/// A speed-of-data schedule: per-gate start times and the makespan.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Start time of each gate (us).
    pub start: Vec<f64>,
    /// Total execution time (us), including each gate's trailing QEC.
    pub makespan_us: f64,
    /// Per-gate occupied duration (data latency + QEC interact).
    pub duration: Vec<f64>,
}

impl Schedule {
    /// Builds the speed-of-data schedule for a lowered circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains non-physical gates.
    pub fn speed_of_data(circuit: &Circuit, model: &CharacterizationModel) -> Self {
        let mut start = Vec::with_capacity(circuit.len());
        let mut duration = Vec::with_capacity(circuit.len());
        let summary = frontier_pass(circuit, model, |_, s, d| {
            start.push(s);
            duration.push(d);
        });
        Schedule {
            start,
            makespan_us: summary.makespan_us,
            duration,
        }
    }

    /// Gate completion times (start + duration).
    pub fn ends(&self) -> Vec<f64> {
        self.start
            .iter()
            .zip(&self.duration)
            .map(|(s, d)| s + d)
            .collect()
    }
}

/// The circuit-wide speed-of-data quantities one frontier pass
/// computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedOfData {
    /// Makespan (us): the latest gate end, trailing QEC included.
    pub makespan_us: f64,
    /// Dependency depth in gate levels (unit durations).
    pub depth: usize,
    /// The Table 2 latency split along one weighted critical path
    /// (ties broken towards earlier gates).
    pub breakdown: LatencyBreakdown,
}

impl SpeedOfData {
    /// The summary of a lowered circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains non-physical gates.
    pub fn of(circuit: &Circuit, model: &CharacterizationModel) -> Self {
        frontier_pass(circuit, model, |_, _, _| {})
    }
}

/// The last gate on one qubit: its end time (the weighted longest path
/// ending at it), its unit-weight level, and the Table 2 sums along the
/// weighted path that ends at it.
#[derive(Debug, Clone, Copy, Default)]
struct Front {
    dist: f64,
    level: usize,
    data_op: f64,
    interact: f64,
    prep: f64,
}

/// One forward pass in program order. Each gate starts when the last
/// gate on every one of its qubits has ended, and `visit` sees it with
/// that start time and its occupied duration.
///
/// The weighted critical path is tracked without back pointers: a gate
/// extends the path of its predecessor with the latest end (the first
/// in qubit order on a tie, by strict `>`), carrying that path's sums
/// forward. A qubit no gate has touched yet holds the zero front,
/// which a strict `>` over ends `>= 0` never picks, so a path starts
/// from zero sums exactly where a predecessor-less gate would.
///
/// # Panics
///
/// Panics if the circuit contains non-physical gates.
pub(crate) fn frontier_pass(
    circuit: &Circuit,
    model: &CharacterizationModel,
    mut visit: impl FnMut(&Gate, f64, f64),
) -> SpeedOfData {
    let interact = model.qec_interact();
    let zero_prep = model.zero_prep();
    let pi8_prep = model.pi8_prep();
    let mut fronts = vec![Front::default(); circuit.n_qubits()];
    // The end of the critical path: the first gate with the latest end.
    let mut last = Front::default();
    let mut depth = 0;
    for g in circuit.gates() {
        let qubits = g.qubits();
        let mut pred = Front::default();
        let mut level = 0;
        for &q in qubits.iter() {
            let f = fronts[q];
            if f.dist > pred.dist {
                pred = f;
            }
            level = level.max(f.level);
        }
        let data = model.data_latency(g);
        let duration = data + interact;
        visit(g, pred.dist, duration);
        let mut prep = pred.prep + zero_prep; // two zeros prepared in parallel rows
        if g.needs_pi8_ancilla() {
            prep += pi8_prep;
        }
        let front = Front {
            dist: pred.dist + duration,
            level: level + 1,
            data_op: pred.data_op + data,
            interact: pred.interact + interact,
            prep,
        };
        for &q in qubits.iter() {
            fronts[q] = front;
        }
        if front.dist > last.dist {
            last = front;
        }
        depth = depth.max(front.level);
    }
    SpeedOfData {
        makespan_us: last.dist,
        depth,
        breakdown: LatencyBreakdown {
            data_op_us: last.data_op,
            qec_interact_us: last.interact,
            ancilla_prep_us: last.prep,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_chain_accumulates_gate_plus_qec() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.h(0);
        let m = CharacterizationModel::ion_trap();
        let s = Schedule::speed_of_data(&c, &m);
        // Each H occupies 1 + 122 us.
        assert_eq!(s.start, vec![0.0, 123.0]);
        assert_eq!(s.makespan_us, 246.0);
    }

    #[test]
    fn parallel_gates_overlap() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(1);
        let m = CharacterizationModel::ion_trap();
        let s = Schedule::speed_of_data(&c, &m);
        assert_eq!(s.start, vec![0.0, 0.0]);
        assert_eq!(s.makespan_us, 123.0);
    }

    #[test]
    fn t_gate_occupies_longer() {
        let mut c = Circuit::new(1);
        c.t(0);
        let m = CharacterizationModel::ion_trap();
        let s = Schedule::speed_of_data(&c, &m);
        assert_eq!(s.makespan_us, 61.0 + 122.0);
    }
}
