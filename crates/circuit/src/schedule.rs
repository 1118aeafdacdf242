//! ASAP scheduling of a lowered circuit at the speed of data.
//!
//! At the speed of data (§1), ancilla preparation is fully off the
//! critical path: each gate occupies its qubits for its data-side
//! latency plus the QEC interaction that must follow it, and nothing
//! else. The schedule this module produces is the paper's "execution
//! limited only by data dependencies".
//!
//! Each gate waits only on the last gate on each of its qubits, so
//! every speed-of-data quantity comes out of one forward fold over
//! per-qubit frontier state: no dependency graph is built. The fold,
//! [`Frontier`], is a [`GateSink`]: lowering can emit straight into it
//! ([`Circuit::lower_into`]), so a caller that wants only the summary
//! or the Tables 2/3 report never builds the lowered circuit, and a
//! stored circuit is folded by replaying its gates. Either way the
//! fold keeps O(qubits) state, sees the same gates in the same order
//! and does the same float operations, so both are bit-identical. It
//! is also bit-identical to the dependency-DAG walks it replaced,
//! which stay as its test oracle in
//! `crates/circuit/tests/frontier_oracle.rs`.

use crate::characterize::{report, CircuitReport, Counts, LatencyBreakdown};
use crate::circuit::{Circuit, GateSink};
use crate::gate::{Gate, Qubit};
use crate::latency_model::{CharacterizationModel, GateKind};

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
        let mut frontier = Frontier::new(circuit.n_qubits(), model);
        for g in circuit.gates() {
            let (s, d, _) = frontier.step(g);
            start.push(s);
            duration.push(d);
        }
        Schedule {
            start,
            makespan_us: frontier.summary().makespan_us,
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
        Frontier::over(circuit, model).summary()
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

impl Front {
    /// The path a gate extends from this front alone: the front if it
    /// ends after the zero front (by strict `>`), else the zero front.
    fn or_zero(self) -> Front {
        if self.dist > 0.0 {
            self
        } else {
            Front::default()
        }
    }
}

/// The speed-of-data fold: a [`GateSink`] that schedules each gate as
/// it arrives, in program order, and keeps only one front per qubit,
/// the critical path's end, the depth, and a gate count per kind (the
/// Tables 2/3 counts follow from those).
///
/// Each gate starts when the last gate on every one of its qubits has
/// ended. The weighted critical path is tracked without back pointers:
/// a gate extends the path of its predecessor with the latest end (the
/// first in qubit order on a tie, by strict `>`), carrying that path's
/// sums forward. A qubit no gate has touched yet holds the zero front,
/// which a strict `>` over ends `>= 0` never picks, so a path starts
/// from zero sums exactly where a predecessor-less gate would. The
/// critical path ends at the first gate with the latest end.
///
/// The latency model is read once, per gate kind, when the fold is
/// made; a gate is then only decoded. A one-qubit run
/// ([`GateSink::run`]) is folded with its qubit's front held in a
/// local for the whole run, by the same per-gate rule.
///
/// # Panics
///
/// Folding a non-physical gate, or one on a qubit past the width it
/// was made for, panics.
#[derive(Debug, Clone)]
pub struct Frontier {
    model: CharacterizationModel,
    prices: [Price; 3],
    interact: f64,
    zero_prep: f64,
    pi8_prep: f64,
    fronts: Vec<Front>,
    last: Front,
    depth: usize,
    counts: Counts,
}

/// What one gate of a kind adds to the path through it.
#[derive(Debug, Clone, Copy)]
struct Price {
    data: f64,
    duration: f64,
    pi8: bool,
}

impl Frontier {
    /// An empty fold over `n_qubits` qubits under `model`.
    pub fn new(n_qubits: usize, model: &CharacterizationModel) -> Self {
        let interact = model.qec_interact();
        Frontier {
            model: *model,
            prices: GateKind::ALL.map(|kind| {
                let g = kind.example();
                let data = model.data_latency(&g);
                Price {
                    data,
                    duration: data + interact,
                    pi8: g.needs_pi8_ancilla(),
                }
            }),
            interact,
            zero_prep: model.zero_prep(),
            pi8_prep: model.pi8_prep(),
            fronts: vec![Front::default(); n_qubits],
            last: Front::default(),
            depth: 0,
            counts: Counts::default(),
        }
    }

    /// The fold of a stored circuit's gates.
    ///
    /// # Panics
    ///
    /// Panics if the circuit contains non-physical gates.
    pub fn over(circuit: &Circuit, model: &CharacterizationModel) -> Self {
        let mut frontier = Frontier::new(circuit.n_qubits(), model);
        for g in circuit.gates() {
            frontier.step(g);
        }
        frontier
    }

    /// Folds one gate; returns its start time, its occupied duration
    /// and its kind.
    #[inline]
    pub(crate) fn step(&mut self, g: &Gate) -> (f64, f64, GateKind) {
        let (kind, a, b) = GateKind::decode(g);
        let fa = self.fronts[a];
        let mut pred = fa.or_zero();
        let mut level = fa.level;
        if let Some(b) = b {
            let fb = self.fronts[b];
            if fb.dist > pred.dist {
                pred = fb;
            }
            level = level.max(fb.level);
        }
        let front = self.advance(kind, pred, level);
        self.fronts[a] = front;
        if let Some(b) = b {
            self.fronts[b] = front;
        }
        (pred.dist, self.prices[kind as usize].duration, kind)
    }

    /// The front a gate of `kind` leaves on its qubits, extending
    /// `pred` (its predecessor with the latest end) from unit level
    /// `level`; also moves the critical path's end, the depth and the
    /// counts.
    #[inline]
    fn advance(&mut self, kind: GateKind, pred: Front, level: usize) -> Front {
        let price = self.prices[kind as usize];
        let mut prep = pred.prep + self.zero_prep; // two zeros prepared in parallel rows
        if price.pi8 {
            prep += self.pi8_prep;
        }
        let front = Front {
            dist: pred.dist + price.duration,
            level: level + 1,
            data_op: pred.data_op + price.data,
            interact: pred.interact + self.interact,
            prep,
        };
        if front.dist > self.last.dist {
            self.last = front;
        }
        self.depth = self.depth.max(front.level);
        self.counts.add_kind(kind);
        front
    }

    /// The speed-of-data summary of the gates folded so far.
    pub fn summary(&self) -> SpeedOfData {
        SpeedOfData {
            makespan_us: self.last.dist,
            depth: self.depth,
            breakdown: LatencyBreakdown {
                data_op_us: self.last.data_op,
                qec_interact_us: self.last.interact,
                ancilla_prep_us: self.last.prep,
            },
        }
    }

    /// The Tables 2/3 report of the gates folded so far, as
    /// [`crate::characterize::characterize_with`] makes it from the
    /// same gates stored in a circuit named `name`.
    pub fn report(&self, name: String) -> CircuitReport {
        report(
            name,
            self.fronts.len(),
            &self.counts,
            &self.summary(),
            &self.model,
        )
    }
}

impl GateSink for Frontier {
    #[inline]
    fn push(&mut self, g: Gate) {
        self.step(&g);
    }

    fn run(&mut self, q: Qubit, gates: impl IntoIterator<Item = Gate>) {
        let q = usize::from(q);
        let mut front = self.fronts[q];
        for g in gates {
            let (kind, on, _) = GateKind::decode(&g);
            assert_eq!(on, q, "a run on qubit {q} holds {g:?}");
            // As `step` on one qubit.
            front = self.advance(kind, front.or_zero(), front.level);
        }
        self.fronts[q] = front;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::tests::EmitsRun;

    #[test]
    #[should_panic(expected = "a run on qubit 0 holds H(1)")]
    fn a_run_off_its_qubit_panics_in_the_fold() {
        let mut c = Circuit::new(2);
        c.phase_rot(0, 5, false);
        let mut fold = Frontier::new(2, &CharacterizationModel::ion_trap());
        c.lower_into(&EmitsRun(Gate::H(1)), &mut fold);
    }

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
