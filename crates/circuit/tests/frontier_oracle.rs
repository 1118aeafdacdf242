//! The frontier pass against the dependency-DAG walks it replaced.
//!
//! Every speed-of-data quantity (schedule, depth, the Tables 2/3
//! report and the Fig 8 supply-limited makespans) is computed here the
//! old way, from [`Dag::asap`] and [`Dag::critical_path`], and must
//! match the frontier pass bit for bit on seeded random circuits.
//! The DAG lives here, beside the tests that read it, with its own
//! tests.

use qods_circuit::characterize::{
    characterize_with, BandwidthReport, CircuitReport, LatencyBreakdown,
};
use qods_circuit::circuit::{Circuit, NoSynth};
use qods_circuit::latency_model::CharacterizationModel;
use qods_circuit::schedule::{Schedule, SpeedOfData};
use qods_circuit::throughput::{execution_time_us, throughput_sweep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dependency structure of a circuit.
///
/// Gate `j` depends on gate `i` when they share a qubit and `i` is the
/// most recent earlier gate on that qubit (last-writer chains — quantum
/// gates both read and write every qubit they touch).
///
/// Stored flat (compressed sparse rows): gate `i`'s predecessors are
/// `preds[offsets[i]..offsets[i + 1]]`, in the order of the gate's
/// qubits, each listed once.
#[derive(Debug, Clone)]
struct Dag {
    offsets: Vec<usize>,
    preds: Vec<usize>,
}

impl Dag {
    /// Builds the DAG for a circuit.
    fn build(circuit: &Circuit) -> Self {
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
        let mut offsets = Vec::with_capacity(circuit.len() + 1);
        let mut preds = Vec::with_capacity(2 * circuit.len());
        offsets.push(0);
        for (i, g) in circuit.gates().iter().enumerate() {
            let first = preds.len();
            for &q in g.qubits().iter() {
                if let Some(prev) = last_on_qubit[q] {
                    if !preds[first..].contains(&prev) {
                        preds.push(prev);
                    }
                }
                last_on_qubit[q] = Some(i);
            }
            offsets.push(preds.len());
        }
        Dag { offsets, preds }
    }

    /// Predecessors of gate `i`.
    fn preds(&self, i: usize) -> &[usize] {
        &self.preds[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Number of gates.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the DAG has no gates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// ASAP start times given a per-gate duration function; returns
    /// `(start_times, makespan)`. Gates are already in topological
    /// order (program order), so one forward pass suffices.
    fn asap(&self, duration: impl Fn(usize) -> f64) -> (Vec<f64>, f64) {
        let mut start = vec![0.0f64; self.len()];
        let mut makespan = 0.0f64;
        for i in 0..self.len() {
            let mut s = 0.0f64;
            for &p in self.preds(i) {
                let end = start[p] + duration(p);
                if end > s {
                    s = end;
                }
            }
            start[i] = s;
            let end = s + duration(i);
            if end > makespan {
                makespan = end;
            }
        }
        (start, makespan)
    }

    /// The gates on one weighted critical path (ties broken towards
    /// earlier gates), as indices in program order.
    fn critical_path(&self, duration: impl Fn(usize) -> f64) -> Vec<usize> {
        if self.is_empty() {
            return Vec::new();
        }
        // Longest path ending at each node.
        let mut dist = vec![0.0f64; self.len()];
        let mut back: Vec<Option<usize>> = vec![None; self.len()];
        for i in 0..self.len() {
            let mut best = 0.0f64;
            let mut who = None;
            for &p in self.preds(i) {
                let d = dist[p];
                if d > best {
                    best = d;
                    who = Some(p);
                }
            }
            dist[i] = best + duration(i);
            back[i] = who;
        }
        let mut end = 0;
        for i in 1..self.len() {
            if dist[i] > dist[end] {
                end = i;
            }
        }
        let mut path = vec![end];
        let mut cur = end;
        while let Some(p) = back[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Depth of the circuit in gate levels (unit durations).
    fn depth(&self) -> usize {
        self.critical_path(|_| 1.0).len()
    }
}

// The oracle's own tests.

fn chain3() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.h(2);
    c.h(0); // parallel with the tail
    c
}

#[test]
fn preds_follow_qubit_chains() {
    let d = Dag::build(&chain3());
    assert!(d.preds(0).is_empty());
    assert_eq!(d.preds(1), &[0]);
    assert_eq!(d.preds(2), &[1]);
    assert_eq!(d.preds(3), &[2]);
    assert_eq!(d.preds(4), &[1]); // H(0) waits on CX(0,1)
}

#[test]
fn asap_respects_dependencies() {
    let d = Dag::build(&chain3());
    let (start, makespan) = d.asap(|_| 1.0);
    assert_eq!(start, vec![0.0, 1.0, 2.0, 3.0, 2.0]);
    assert_eq!(makespan, 4.0);
}

#[test]
fn critical_path_picks_longest_chain() {
    let d = Dag::build(&chain3());
    let path = d.critical_path(|_| 1.0);
    assert_eq!(path, vec![0, 1, 2, 3]);
    assert_eq!(d.depth(), 4);
}

#[test]
fn weighted_critical_path_can_differ() {
    let mut c = Circuit::new(2);
    c.h(0); // 0
    c.h(0); // 1: chain of two cheap gates on q0
    c.t(1); // 2: one expensive gate on q1
    let d = Dag::build(&c);
    assert_eq!(d.critical_path(|_| 1.0), vec![0, 1]);
    let weights = [1.0, 1.0, 5.0];
    assert_eq!(d.critical_path(|i| weights[i]), vec![2]);
}

#[test]
fn empty_circuit() {
    let d = Dag::build(&Circuit::new(1));
    assert!(d.is_empty());
    assert_eq!(d.depth(), 0);
    let (s, m) = d.asap(|_| 1.0);
    assert!(s.is_empty());
    assert_eq!(m, 0.0);
}

#[test]
fn shared_pred_deduplicated() {
    let mut c = Circuit::new(2);
    c.cx(0, 1); // 0
    c.cx(0, 1); // 1 depends on 0 via both qubits -> one pred
    let d = Dag::build(&c);
    assert_eq!(d.preds(1), &[0]);
}

/// A random lowered circuit on 1-6 qubits over H/S/T/Tdg/CX/Toffoli.
/// Two-qubit gates often repeat (or swap) the previous operand pair,
/// so gates with one predecessor reached through two qubits are
/// common. `len` may be 0.
fn random_circuit(rng: &mut StdRng, len: usize) -> Circuit {
    let n = rng.gen_range(1usize..7);
    let mut c = Circuit::new(n);
    let mut pair = (0, 0);
    for _ in 0..len {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0u32..7) {
            0 => c.h(q),
            1 => c.s(q),
            2 => c.t(q),
            3 => c.tdg(q),
            4 | 5 if n >= 2 => {
                if pair.0 == pair.1 || rng.gen_bool(0.5) {
                    let a = rng.gen_range(0..n);
                    let b = (a + rng.gen_range(1..n)) % n;
                    pair = (a, b);
                } else if rng.gen_bool(0.3) {
                    pair = (pair.1, pair.0);
                }
                c.cx(pair.0, pair.1);
            }
            6 if n >= 3 => {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                let t = (0..n).find(|&t| t != a && t != b).unwrap_or(0);
                c.toffoli(a, b, t);
            }
            _ => c.h(q),
        }
    }
    c.lower(&NoSynth)
}

/// The Tables 2/3 report as the DAG walks computed it.
fn dag_report(c: &Circuit, model: &CharacterizationModel) -> CircuitReport {
    let dag = Dag::build(c);
    let gates = c.gates();
    let weight = |i: usize| model.data_latency(&gates[i]) + model.qec_interact();
    let (mut data_op, mut interact, mut prep) = (0.0, 0.0, 0.0);
    for i in dag.critical_path(weight) {
        data_op += model.data_latency(&gates[i]);
        interact += model.qec_interact();
        prep += model.zero_prep();
        if gates[i].needs_pi8_ancilla() {
            prep += model.pi8_prep();
        }
    }
    let (_, makespan) = dag.asap(weight);
    let runtime_ms = makespan / 1000.0;
    let (mut total_zeros, mut total_pi8) = (0u64, 0u64);
    for g in gates {
        total_zeros += model.zeros_per_qec() * g.qubits().len() as u64;
        if g.needs_pi8_ancilla() {
            total_pi8 += 1;
            total_zeros += model.zeros_per_pi8();
        }
    }
    let per_ms = |n: u64| {
        if runtime_ms > 0.0 {
            n as f64 / runtime_ms
        } else {
            0.0
        }
    };
    CircuitReport {
        name: c.name.clone(),
        n_qubits: c.n_qubits(),
        gate_count: c.len(),
        non_transversal_fraction: c.non_transversal_fraction(),
        breakdown: LatencyBreakdown {
            data_op_us: data_op,
            qec_interact_us: interact,
            ancilla_prep_us: prep,
        },
        bandwidth: BandwidthReport {
            zero_per_ms: per_ms(total_zeros),
            pi8_per_ms: per_ms(total_pi8),
            total_zeros,
            total_pi8,
            runtime_ms,
        },
    }
}

/// Every float of a report as bits, and every count.
fn report_bits(r: &CircuitReport) -> [u64; 11] {
    [
        r.n_qubits as u64,
        r.gate_count as u64,
        r.non_transversal_fraction.to_bits(),
        r.breakdown.data_op_us.to_bits(),
        r.breakdown.qec_interact_us.to_bits(),
        r.breakdown.ancilla_prep_us.to_bits(),
        r.bandwidth.zero_per_ms.to_bits(),
        r.bandwidth.pi8_per_ms.to_bits(),
        r.bandwidth.total_zeros,
        r.bandwidth.total_pi8,
        r.bandwidth.runtime_ms.to_bits(),
    ]
}

/// The Fig 8 supply-limited makespan as the DAG loop computed it.
fn dag_execution_time_us(c: &Circuit, model: &CharacterizationModel, zeros_per_ms: f64) -> f64 {
    let dag = Dag::build(c);
    let rate_per_us = zeros_per_ms / 1000.0;
    let gates = c.gates();
    let mut end = vec![0.0f64; gates.len()];
    let mut consumed = 0u64;
    let mut makespan = 0.0f64;
    for (i, g) in gates.iter().enumerate() {
        let mut ready = 0.0f64;
        for &p in dag.preds(i) {
            ready = ready.max(end[p]);
        }
        consumed += model.zeros_per_qec() * g.qubits().len() as u64;
        if g.needs_pi8_ancilla() {
            consumed += model.zeros_per_pi8();
        }
        let supply_time = if rate_per_us.is_infinite() {
            0.0
        } else {
            consumed as f64 / rate_per_us
        };
        let e = (ready + model.data_latency(g) + model.qec_interact()).max(supply_time);
        end[i] = e;
        makespan = makespan.max(e);
    }
    makespan
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A model under which unequal paths often tie: H and T occupy 3 us,
/// CX 2 us, yet only T carries a pi/8 prep and CX no data latency, so
/// the tie-break decides the Table 2 split.
fn tie_heavy() -> CharacterizationModel {
    let mut model = CharacterizationModel::ion_trap();
    model.table.t_1q = 1.0;
    model.table.t_2q = 0.0;
    model.table.t_meas = 0.0;
    model
}

#[test]
fn frontier_pass_matches_the_dag_walks() {
    let mut rng = StdRng::seed_from_u64(0x5eed_f207);
    for case in 0..400 {
        let len = if case == 0 { 0 } else { rng.gen_range(1..60) };
        let c = random_circuit(&mut rng, len);
        for (name, model) in [
            ("ion trap", CharacterizationModel::ion_trap()),
            ("tie-heavy", tie_heavy()),
        ] {
            assert_matches_dag(&c, &model, &format!("case {case}, {name}: {:?}", c.gates()));
        }
    }
}

fn assert_matches_dag(c: &Circuit, model: &CharacterizationModel, ctx: &str) {
    let dag = Dag::build(c);
    let gates = c.gates();
    let duration = |i: usize| model.data_latency(&gates[i]) + model.qec_interact();

    let (start, makespan) = dag.asap(duration);
    let sched = Schedule::speed_of_data(c, model);
    assert_eq!(bits(&sched.start), bits(&start), "{ctx}");
    assert_eq!(sched.makespan_us.to_bits(), makespan.to_bits(), "{ctx}");
    let durations: Vec<f64> = (0..c.len()).map(duration).collect();
    assert_eq!(bits(&sched.duration), bits(&durations), "{ctx}");

    let summary = SpeedOfData::of(c, model);
    assert_eq!(summary.makespan_us.to_bits(), makespan.to_bits(), "{ctx}");
    assert_eq!(summary.depth, dag.depth(), "{ctx}");

    let report = characterize_with(c, model);
    assert_eq!(
        report_bits(&report),
        report_bits(&dag_report(c, model)),
        "{ctx}"
    );

    let avg = report.bandwidth.zero_per_ms.max(1.0);
    for p in throughput_sweep(c, model, avg / 30.0, avg * 30.0, 7) {
        assert_eq!(
            p.execution_us.to_bits(),
            dag_execution_time_us(c, model, p.zeros_per_ms).to_bits(),
            "{ctx} at {} zeros/ms",
            p.zeros_per_ms
        );
    }
    for rate in [avg, f64::INFINITY] {
        assert_eq!(
            execution_time_us(c, model, rate).to_bits(),
            dag_execution_time_us(c, model, rate).to_bits(),
            "{ctx} at {rate} zeros/ms"
        );
    }
}

#[test]
fn repeated_operand_pairs_share_one_predecessor() {
    // CX(0,1) twice, then CX(1,0): each gate's one predecessor is
    // reached through both qubits; the path and the depth count it
    // once.
    let mut c = Circuit::new(2);
    c.cx(0, 1);
    c.cx(0, 1);
    c.cx(1, 0);
    let model = CharacterizationModel::ion_trap();
    let summary = SpeedOfData::of(&c, &model);
    assert_eq!(summary.depth, 3);
    assert_eq!(summary.makespan_us, 3.0 * (10.0 + 122.0));
    assert_eq!(summary.breakdown.data_op_us, 30.0);
}
