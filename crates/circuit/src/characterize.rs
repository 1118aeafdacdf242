//! Circuit characterization: Tables 2 and 3 and the Fig 7 demand
//! profile.
//!
//! * [`LatencyBreakdown`] (Table 2): along one weighted critical path,
//!   the total useful-data-operation latency, the QEC data/ancilla
//!   interaction latency, and the encoded-ancilla preparation latency
//!   that the no-overlap execution would serialize.
//! * [`BandwidthReport`] (Table 3): running at the speed of data, the
//!   average encoded-zero bandwidth needed for QEC and the encoded
//!   pi/8-ancilla bandwidth needed for non-transversal gates.
//! * [`demand_profile`] (Fig 7): the number of encoded zeros that must
//!   be in flight (being prepared or queued) at each instant for the
//!   circuit to never wait on an ancilla.
//!
//! All three are folds over the gates in program order
//! ([`Frontier`], see `schedule.rs`), with no per-gate buffer. The
//! Tables 2/3 report keeps O(qubits) state: the fold's fronts plus a
//! gate count per kind (one-qubit Clifford, pi/8 gate, CX), the one
//! counting rule the fold and [`characterize_scheduled`] share; every
//! count in the report is a sum over kinds. The demand profile keeps
//! O(samples) state: each gate's zeros are added to the contiguous
//! range of samples `t` with `t <= e < t + window` (`e` the gate's
//! end, `window` the zero-preparation latency) in a per-sample
//! difference array, and one prefix sum turns that into the profile.

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::latency_model::{CharacterizationModel, GateKind};
use crate::schedule::{Frontier, SpeedOfData};
use serde::{Deserialize, Serialize};

/// Table 2 row: the latency split of a no-overlap execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Column 2: useful data-operation latency on the critical path.
    pub data_op_us: f64,
    /// Column 3: data/ancilla QEC interaction latency on the path.
    pub qec_interact_us: f64,
    /// Column 4: encoded-ancilla preparation latency (QEC zeros plus
    /// pi/8 preps for the path's non-transversal gates).
    pub ancilla_prep_us: f64,
}

impl LatencyBreakdown {
    /// Total serialized execution time.
    pub fn total_us(&self) -> f64 {
        self.data_op_us + self.qec_interact_us + self.ancilla_prep_us
    }

    /// Fraction of the total spent on useful data operations.
    pub fn data_op_share(&self) -> f64 {
        self.data_op_us / self.total_us()
    }

    /// Fraction spent interacting data with encoded ancillae.
    pub fn qec_interact_share(&self) -> f64 {
        self.qec_interact_us / self.total_us()
    }

    /// Fraction spent preparing encoded ancillae.
    pub fn ancilla_prep_share(&self) -> f64 {
        self.ancilla_prep_us / self.total_us()
    }

    /// The speed-of-data lower bound: columns 2 + 3 (the paper's
    /// "minimal running time").
    pub fn speed_of_data_us(&self) -> f64 {
        self.data_op_us + self.qec_interact_us
    }
}

/// Table 3 row: average ancilla bandwidths at the speed of data.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthReport {
    /// Average encoded zeros per millisecond needed for QEC.
    pub zero_per_ms: f64,
    /// Average encoded pi/8 ancillae per millisecond.
    pub pi8_per_ms: f64,
    /// Total encoded zeros consumed by QEC over the run.
    pub total_zeros: u64,
    /// Total pi/8 ancillae consumed.
    pub total_pi8: u64,
    /// Speed-of-data runtime (ms).
    pub runtime_ms: f64,
}

/// Full characterization of one benchmark circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitReport {
    /// Circuit name.
    pub name: String,
    /// Number of encoded qubits (data + data ancillae).
    pub n_qubits: usize,
    /// Total gate count (lowered).
    pub gate_count: usize,
    /// Fraction of non-transversal gates (§3.3 reports 40.5-46.9%).
    pub non_transversal_fraction: f64,
    /// Table 2 row.
    pub breakdown: LatencyBreakdown,
    /// Table 3 row.
    pub bandwidth: BandwidthReport,
}

/// Characterizes a lowered circuit under the ion-trap model.
pub fn characterize(circuit: &Circuit) -> CircuitReport {
    characterize_with(circuit, &CharacterizationModel::ion_trap())
}

/// Characterizes a lowered circuit under a custom latency model: one
/// speed-of-data fold over its gates for the critical-path split, the
/// runtime and the counts.
pub fn characterize_with(circuit: &Circuit, model: &CharacterizationModel) -> CircuitReport {
    Frontier::over(circuit, model).report(circuit.name.clone())
}

/// Characterizes a lowered circuit whose frontier pass has already run:
/// `summary` is [`SpeedOfData::of`] the circuit under `model`, as the
/// compile pipeline's `sched` stage keeps it. Only the ancilla and gate
/// counts are computed here, in one linear loop.
///
/// # Panics
///
/// Panics if the circuit contains non-physical gates.
pub fn characterize_scheduled(
    circuit: &Circuit,
    model: &CharacterizationModel,
    summary: &SpeedOfData,
) -> CircuitReport {
    let mut counts = Counts::default();
    for g in circuit.gates() {
        counts.add_kind(GateKind::decode(g).0);
    }
    report(
        circuit.name.clone(),
        circuit.n_qubits(),
        &counts,
        summary,
        model,
    )
}

/// Encoded zeros one gate consumes: its QEC step on every qubit, plus
/// the one that feeds its pi/8 ancilla if it needs one.
fn gate_zeros(g: &Gate, model: &CharacterizationModel) -> u64 {
    let mut zeros = model.zeros_per_qec() * g.qubits().len() as u64;
    if g.needs_pi8_ancilla() {
        zeros += model.zeros_per_pi8();
    }
    zeros
}

/// The gates counted so far, per [`GateKind`]: every Tables 2/3 count
/// is a sum over kinds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counts([u64; 3]);

impl Counts {
    /// Counts one more gate of `kind`.
    #[inline]
    pub(crate) fn add_kind(&mut self, kind: GateKind) {
        self.0[kind as usize] += 1;
    }

    /// The sum over kinds of `per_gate` of each kind's example gate.
    fn sum(&self, per_gate: impl Fn(&Gate) -> u64) -> u64 {
        GateKind::ALL
            .iter()
            .map(|&kind| self.0[kind as usize] * per_gate(&kind.example()))
            .sum()
    }
}

/// The report of the `counts` gates on `n_qubits` qubits whose
/// speed-of-data summary under `model` is `summary`.
pub(crate) fn report(
    name: String,
    n_qubits: usize,
    counts: &Counts,
    summary: &SpeedOfData,
    model: &CharacterizationModel,
) -> CircuitReport {
    let gates = counts.sum(|_| 1);
    let non_transversal = counts.sum(|g| u64::from(!g.is_transversal()));
    let zeros = counts.sum(|g| gate_zeros(g, model));
    let pi8 = counts.sum(|g| u64::from(g.needs_pi8_ancilla()));
    let runtime_ms = summary.makespan_us / 1000.0;
    let per_ms = |n: u64| {
        if runtime_ms > 0.0 {
            n as f64 / runtime_ms
        } else {
            0.0
        }
    };
    CircuitReport {
        name,
        n_qubits,
        gate_count: gates as usize,
        // As `Circuit::non_transversal_fraction`, from the same count.
        non_transversal_fraction: if gates == 0 {
            0.0
        } else {
            non_transversal as f64 / gates as f64
        },
        breakdown: summary.breakdown,
        bandwidth: BandwidthReport {
            zero_per_ms: per_ms(zeros),
            pi8_per_ms: per_ms(pi8),
            total_zeros: zeros,
            total_pi8: pi8,
            runtime_ms,
        },
    }
}

/// One point of the Fig 7 demand profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandPoint {
    /// Time into the execution (us).
    pub t_us: f64,
    /// Encoded zeros that must be in flight (being prepared) at `t`.
    pub zeros_in_flight: f64,
}

/// Computes the Fig 7 series: for the circuit to run at the speed of
/// data, every QEC consumption at time `e` must have its ancillae in
/// preparation during `(e - window, e]` (`window` the zero-preparation
/// latency); the profile counts the overlapping preparation windows at
/// `samples` evenly spaced times `t` over the makespan, so a gate's
/// zeros count at `t` exactly when `t <= e < t + window`.
///
/// `makespan_us` is the circuit's speed-of-data makespan under `model`
/// ([`SpeedOfData::makespan_us`], which the compile pipeline's `sched`
/// stage keeps): the sample times depend on it, so one fold over the
/// gates adds each gate's zeros to its range of samples as its end
/// time is known, with no per-gate buffer.
///
/// # Panics
///
/// Panics if the circuit contains non-physical gates.
pub fn demand_profile(
    circuit: &Circuit,
    model: &CharacterizationModel,
    makespan_us: f64,
    samples: usize,
) -> Vec<DemandPoint> {
    let window = model.zero_prep();
    let horizon = makespan_us.max(1.0);
    let per_us = samples as f64 / horizon;
    let times: Vec<f64> = (0..samples)
        .map(|s| horizon * (s as f64 + 0.5) / samples as f64)
        .collect();
    let zeros = GateKind::ALL.map(|kind| gate_zeros(&kind.example(), model) as i64);
    // `delta[s]` is the change in zeros in flight from sample s - 1 to s.
    let mut delta = vec![0i64; samples + 1];
    let mut frontier = Frontier::new(circuit.n_qubits(), model);
    for g in circuit.gates() {
        let (start, duration, kind) = frontier.step(g);
        let e = start + duration;
        // Both bounds rise with the sample, so the samples that count
        // `e` are `first..past`: those after every `t + window <= e`,
        // before the first `t > e`.
        let first = leading(samples, (e - window) * per_us + 0.5, |s| {
            times[s] + window <= e
        });
        let past = leading(samples, e * per_us + 0.5, |s| times[s] <= e);
        if first < past {
            delta[first] += zeros[kind as usize];
            delta[past] -= zeros[kind as usize];
        }
    }
    let mut in_flight = 0i64;
    times
        .iter()
        .zip(&delta)
        .map(|(&t_us, &d)| {
            in_flight += d;
            DemandPoint {
                t_us,
                zeros_in_flight: in_flight as f64,
            }
        })
        .collect()
}

/// The length of the prefix of `0..n` on which `holds` is true, for a
/// `holds` that is true on a prefix and false after it: searched from
/// `guess` (any value; a close one makes this O(1)).
fn leading(n: usize, guess: f64, holds: impl Fn(usize) -> bool) -> usize {
    // A float-to-int `as` saturates, and takes NaN to 0.
    let mut len = (guess as usize).min(n);
    while len > 0 && !holds(len - 1) {
        len -= 1;
    }
    while len < n && holds(len) {
        len += 1;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Circuit {
        let mut c = Circuit::named(2, "toy");
        c.h(0);
        c.cx(0, 1);
        c.t(1);
        c
    }

    #[test]
    fn breakdown_orders_as_in_table2() {
        let r = characterize(&toy());
        // prep >> interact > data op, as in every Table 2 row.
        assert!(r.breakdown.ancilla_prep_us > r.breakdown.qec_interact_us);
        assert!(r.breakdown.qec_interact_us > r.breakdown.data_op_us);
        let shares = r.breakdown.data_op_share()
            + r.breakdown.qec_interact_share()
            + r.breakdown.ancilla_prep_share();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toy_breakdown_is_exact() {
        let r = characterize(&toy());
        // Critical path = all three gates (serial chain).
        assert_eq!(r.breakdown.data_op_us, 1.0 + 10.0 + 61.0);
        assert_eq!(r.breakdown.qec_interact_us, 3.0 * 122.0);
        assert_eq!(r.breakdown.ancilla_prep_us, 3.0 * 323.0 + 668.0);
    }

    #[test]
    fn bandwidth_counts_zeros_and_pi8() {
        let r = characterize(&toy());
        // H: 2 zeros; CX: 4; T: 2 + 1 gadget feed. Total 9, one pi/8.
        assert_eq!(r.bandwidth.total_zeros, 9);
        assert_eq!(r.bandwidth.total_pi8, 1);
        assert!(r.bandwidth.zero_per_ms > 0.0);
    }

    #[test]
    fn demand_profile_integrates_to_total_window_mass() {
        let c = toy();
        let model = CharacterizationModel::ion_trap();
        let profile = demand_profile(&c, &model, SpeedOfData::of(&c, &model).makespan_us, 4000);
        assert_eq!(profile.len(), 4000);
        // Each consumption at time e contributes in-flight mass equal
        // to |(e - window, e] intersect [0, horizon)|. Compare the
        // sampled average against that exact integral.
        let sched = crate::schedule::Schedule::speed_of_data(&c, &model);
        let horizon = sched.makespan_us;
        let window = model.zero_prep();
        let weights = [2.0, 4.0, 3.0]; // H, CX, T(+feed) zeros
        let mass: f64 = sched
            .ends()
            .iter()
            .zip(weights)
            .map(|(&e, w)| w * (e.min(horizon) - (e - window).max(0.0)).max(0.0))
            .sum();
        let expected = mass / horizon;
        let avg: f64 =
            profile.iter().map(|p| p.zeros_in_flight).sum::<f64>() / profile.len() as f64;
        assert!(
            (avg - expected).abs() / expected < 0.02,
            "avg {avg} vs expected {expected}"
        );
    }

    #[test]
    fn empty_circuit_is_safe() {
        let c = Circuit::new(1);
        let r = characterize(&c);
        assert_eq!(r.gate_count, 0);
        assert_eq!(r.bandwidth.total_zeros, 0);
    }
}
