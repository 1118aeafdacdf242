//! Execution time under a constrained, steady ancilla supply — the
//! Fig 8 experiment.
//!
//! The factory farm produces encoded zeros at a steady rate. A gate may
//! finish (i.e. run its trailing QEC) only when enough zeros have
//! accumulated; otherwise it stalls. As the supply rate grows, the
//! execution time falls and then plateaus at the speed-of-data time —
//! the shape of all three panels of Fig 8.

use crate::circuit::Circuit;
use crate::dag::Dag;
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
    execution_time_on(circuit, &Dag::build(circuit), model, zeros_per_ms)
}

/// [`execution_time_us`] on a prebuilt dependency DAG of `circuit`, so
/// a sweep builds the DAG once rather than once per point.
fn execution_time_on(
    circuit: &Circuit,
    dag: &Dag,
    model: &CharacterizationModel,
    zeros_per_ms: f64,
) -> f64 {
    assert!(zeros_per_ms > 0.0, "throughput must be positive");
    let rate_per_us = zeros_per_ms / 1000.0;
    let gates = circuit.gates();

    let mut end = vec![0.0f64; gates.len()];
    let mut consumed: u64 = 0;
    let mut makespan = 0.0f64;
    for i in 0..gates.len() {
        let g = &gates[i];
        let mut ready = 0.0f64;
        for &p in dag.preds(i) {
            ready = ready.max(end[p]);
        }
        let mut zeros = model.zeros_per_qec() * g.qubits().len() as u64;
        if g.needs_pi8_ancilla() {
            zeros += model.zeros_per_pi8();
        }
        consumed += zeros;
        // Earliest time the cumulative production covers `consumed`.
        let supply_time = if rate_per_us.is_infinite() {
            0.0
        } else {
            consumed as f64 / rate_per_us
        };
        // The zeros are needed at QEC time (the end of the gate), so
        // the gate may start on data readiness and stall only if the
        // supply has not yet covered its consumption by then.
        let dur = model.data_latency(g) + model.qec_interact();
        let e = (ready + dur).max(supply_time);
        end[i] = e;
        makespan = makespan.max(e);
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
    let dag = Dag::build(circuit);
    (0..points)
        .map(|i| {
            let r = lo * step.powi(i as i32);
            ThroughputPoint {
                zeros_per_ms: r,
                execution_us: execution_time_on(circuit, &dag, model, r),
            }
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
