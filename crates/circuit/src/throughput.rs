//! Execution time under a constrained, steady ancilla supply — the
//! Fig 8 experiment.
//!
//! The factory farm produces encoded zeros at a steady rate. A gate may
//! finish (i.e. run its trailing QEC) only when enough zeros have
//! accumulated; otherwise it stalls. As the supply rate grows, the
//! execution time falls and then plateaus at the speed-of-data time —
//! the shape of all three panels of Fig 8.

use crate::circuit::Circuit;
use crate::latency_model::CharacterizationModel;

/// Executes the circuit with encoded zeros arriving at `zeros_per_ms`,
/// returning the makespan in microseconds.
///
/// Supply model: production starts at t = 0 and accumulates (a gate may
/// consume zeros banked while data dependencies were resolving). Gates
/// acquire their zeros in dataflow order; pi/8 gates additionally
/// consume the gadget-feed zero. A rate of `f64::INFINITY` reproduces
/// the speed-of-data schedule exactly.
///
/// # Panics
///
/// Panics if `zeros_per_ms <= 0` (use `INFINITY` for unconstrained).
pub fn execution_time_us(
    circuit: &Circuit,
    model: &CharacterizationModel,
    zeros_per_ms: f64,
) -> f64 {
    makespans_us(circuit, model, &[zeros_per_ms])[0]
}

/// [`execution_time_us`] at every rate in `zeros_per_ms`, in one
/// forward pass. A gate's data dependencies are the last gates on its
/// qubits, so the pass keeps each qubit's last end time per rate
/// (qubit-major: a gate's rows are contiguous) and decodes each gate
/// once for all rates. Each rate's arithmetic is exactly the one-rate
/// pass's.
fn makespans_us(
    circuit: &Circuit,
    model: &CharacterizationModel,
    zeros_per_ms: &[f64],
) -> Vec<f64> {
    assert!(
        zeros_per_ms.iter().all(|&r| r > 0.0),
        "throughput must be positive"
    );
    let rates_per_us: Vec<f64> = zeros_per_ms.iter().map(|r| r / 1000.0).collect();
    let n = rates_per_us.len();

    let mut last_end = vec![0.0f64; circuit.n_qubits() * n];
    let mut makespan = vec![0.0f64; n];
    let mut consumed: u64 = 0;
    for g in circuit.gates() {
        let qubits = g.qubits();
        let mut zeros = model.zeros_per_qec() * qubits.len() as u64;
        if g.needs_pi8_ancilla() {
            zeros += model.zeros_per_pi8();
        }
        consumed += zeros;
        let dur = model.data_latency(g) + model.qec_interact();
        for (j, (&rate_per_us, span)) in rates_per_us.iter().zip(&mut makespan).enumerate() {
            let mut ready = 0.0f64;
            for &q in qubits.iter() {
                ready = ready.max(last_end[q * n + j]);
            }
            // Earliest time the cumulative production covers `consumed`.
            let supply_time = if rate_per_us.is_infinite() {
                0.0
            } else {
                consumed as f64 / rate_per_us
            };
            // The zeros are needed at QEC time (the end of the gate), so
            // the gate may start on data readiness and stall only if the
            // supply has not yet covered its consumption by then.
            let e = (ready + dur).max(supply_time);
            for &q in qubits.iter() {
                last_end[q * n + j] = e;
            }
            *span = span.max(e);
        }
    }
    makespan
}

/// One point of a Fig 8 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Steady encoded-zero throughput (per ms).
    pub zeros_per_ms: f64,
    /// Resulting execution time (us).
    pub execution_us: f64,
}

/// Sweeps `points` log-spaced supply rates between `lo` and `hi`
/// zeros/ms (inclusive), producing the Fig 8 series for one circuit.
pub fn throughput_sweep(
    circuit: &Circuit,
    model: &CharacterizationModel,
    lo: f64,
    hi: f64,
    points: usize,
) -> Vec<ThroughputPoint> {
    assert!(lo > 0.0 && hi > lo && points >= 2, "bad sweep range");
    let step = (hi / lo).powf(1.0 / (points - 1) as f64);
    let rates: Vec<f64> = (0..points).map(|i| lo * step.powi(i as i32)).collect();
    let makespans = makespans_us(circuit, model, &rates);
    rates
        .into_iter()
        .zip(makespans)
        .map(|(zeros_per_ms, execution_us)| ThroughputPoint {
            zeros_per_ms,
            execution_us,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    fn toy() -> Circuit {
        let mut c = Circuit::named(3, "toy");
        for _ in 0..10 {
            c.h(0);
            c.cx(0, 1);
            c.cx(1, 2);
            c.t(2);
        }
        c
    }

    #[test]
    fn infinite_supply_matches_speed_of_data() {
        let c = toy();
        let m = CharacterizationModel::ion_trap();
        let sod = Schedule::speed_of_data(&c, &m).makespan_us;
        let t = execution_time_us(&c, &m, f64::INFINITY);
        assert!((t - sod).abs() < 1e-9, "{t} vs {sod}");
    }

    #[test]
    fn sweep_is_monotone_and_plateaus() {
        let c = toy();
        let m = CharacterizationModel::ion_trap();
        let pts = throughput_sweep(&c, &m, 0.5, 5000.0, 25);
        for w in pts.windows(2) {
            assert!(
                w[1].execution_us <= w[0].execution_us + 1e-9,
                "throughput sweep not monotone: {w:?}"
            );
        }
        // Starved regime is supply-limited.
        let total_zeros: f64 = 10.0 * (2.0 + 4.0 + 4.0 + 3.0);
        let starved = pts[0];
        let supply_bound = total_zeros / (starved.zeros_per_ms / 1000.0);
        assert!((starved.execution_us - supply_bound).abs() / supply_bound < 0.05);
        // Saturated regime hits the speed-of-data plateau.
        let sod = Schedule::speed_of_data(&c, &m).makespan_us;
        assert!((pts.last().expect("points").execution_us - sod).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let c = toy();
        let m = CharacterizationModel::ion_trap();
        let _ = execution_time_us(&c, &m, 0.0);
    }
}
