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

use crate::circuit::Circuit;
use crate::latency_model::CharacterizationModel;
use crate::schedule::{Schedule, SpeedOfData};
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
/// frontier pass for the critical-path split and the speed-of-data
/// runtime, then [`characterize_scheduled`].
pub fn characterize_with(circuit: &Circuit, model: &CharacterizationModel) -> CircuitReport {
    characterize_scheduled(circuit, model, &SpeedOfData::of(circuit, model))
}

/// Characterizes a lowered circuit whose frontier pass has already run:
/// `summary` is [`SpeedOfData::of`] the circuit under `model`, as the
/// compile pipeline's `sched` stage keeps it. Only the ancilla and gate
/// counts are computed here, in one linear loop.
pub fn characterize_scheduled(
    circuit: &Circuit,
    model: &CharacterizationModel,
    summary: &SpeedOfData,
) -> CircuitReport {
    let mut total_zeros = 0u64;
    let mut total_pi8 = 0u64;
    let mut non_transversal = 0usize;
    for g in circuit.gates() {
        total_zeros += model.zeros_per_qec() * g.qubits().len() as u64;
        if g.needs_pi8_ancilla() {
            total_pi8 += 1;
            total_zeros += model.zeros_per_pi8();
        }
        non_transversal += usize::from(!g.is_transversal());
    }
    let runtime_ms = summary.makespan_us / 1000.0;
    let bandwidth = BandwidthReport {
        zero_per_ms: if runtime_ms > 0.0 {
            total_zeros as f64 / runtime_ms
        } else {
            0.0
        },
        pi8_per_ms: if runtime_ms > 0.0 {
            total_pi8 as f64 / runtime_ms
        } else {
            0.0
        },
        total_zeros,
        total_pi8,
        runtime_ms,
    };

    CircuitReport {
        name: circuit.name.clone(),
        n_qubits: circuit.n_qubits(),
        gate_count: circuit.len(),
        // As `Circuit::non_transversal_fraction`, from the same count.
        non_transversal_fraction: if circuit.is_empty() {
            0.0
        } else {
            non_transversal as f64 / circuit.len() as f64
        },
        breakdown: summary.breakdown,
        bandwidth,
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
/// data, every QEC consumption at time `t` must have its ancillae in
/// preparation during `[t - zero_prep, t]`; the profile counts the
/// overlapping preparation windows at `samples` evenly spaced times.
pub fn demand_profile(
    circuit: &Circuit,
    model: &CharacterizationModel,
    samples: usize,
) -> Vec<DemandPoint> {
    let sched = Schedule::speed_of_data(circuit, model);
    let gates = circuit.gates();
    // Each gate consumes its QEC zeros at its end time.
    let mut events: Vec<(f64, u64)> = sched
        .ends()
        .into_iter()
        .zip(gates)
        .map(|(end, g)| {
            let mut zeros = model.zeros_per_qec() * g.qubits().len() as u64;
            if g.needs_pi8_ancilla() {
                zeros += model.zeros_per_pi8();
            }
            (end, zeros)
        })
        .collect();
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let window = model.zero_prep();
    let horizon = sched.makespan_us.max(1.0);
    // A consumption at time e keeps its zeros in flight during the
    // preparation interval (e - window, e]; at time t we count events
    // with e in [t, t + window).
    let mut points = Vec::with_capacity(samples);
    let mut lo = 0usize; // first event with e >= t
    let mut hi = 0usize; // first event with e >= t + window
    let mut in_window = 0u64;
    for s in 0..samples {
        let t = horizon * (s as f64 + 0.5) / samples as f64;
        while hi < events.len() && events[hi].0 < t + window {
            in_window += events[hi].1;
            hi += 1;
        }
        while lo < events.len() && events[lo].0 < t {
            in_window -= events[lo].1;
            lo += 1;
        }
        points.push(DemandPoint {
            t_us: t,
            zeros_in_flight: in_window as f64,
        });
    }
    points
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
        let profile = demand_profile(&c, &model, 4000);
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
