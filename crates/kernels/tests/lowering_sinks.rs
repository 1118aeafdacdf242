//! Lowering straight into the speed-of-data fold against lowering into
//! a stored circuit and folding that: random kernel IR (Toffoli,
//! controlled and plain pi/2^k rotations, k = 0..=20 of both signs)
//! goes through a real [`SynthAdapter`], so synthesized rotations reach
//! the fold as one-qubit runs, and the summary and the Tables 2/3
//! report must match bit for bit.

use qods_circuit::characterize::{characterize_scheduled, CircuitReport};
use qods_circuit::circuit::Circuit;
use qods_circuit::latency_model::CharacterizationModel;
use qods_circuit::schedule::{Frontier, SpeedOfData};
use qods_kernels::SynthAdapter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random kernel-level IR on 1-6 qubits.
fn random_ir(rng: &mut StdRng, len: usize) -> Circuit {
    let n = rng.gen_range(1usize..7);
    let mut c = Circuit::named(n, "random");
    for _ in 0..len {
        let q = rng.gen_range(0..n);
        let k = rng.gen_range(0u8..21);
        let dagger = rng.gen_bool(0.5);
        match rng.gen_range(0u32..6) {
            0 => c.h(q),
            1 | 2 => c.phase_rot(q, k, dagger),
            3 if n >= 2 => {
                let t = (q + rng.gen_range(1..n)) % n;
                c.cphase_rot(q, t, k, dagger);
            }
            4 if n >= 2 => {
                let t = (q + rng.gen_range(1..n)) % n;
                c.cx(q, t);
            }
            5 if n >= 3 => {
                let b = (q + rng.gen_range(1..n)) % n;
                let t = (0..n).find(|&t| t != q && t != b).unwrap_or(0);
                c.toffoli(q, b, t);
            }
            _ => c.t(q),
        }
    }
    c
}

/// A model under which H, S, X and Z take no time (a negative data
/// latency cancels the QEC step that follows), while T and CX do. A
/// synthesized run that ends in Cliffords then ties its own T gate's
/// end, and the critical path must still end at the first gate with
/// the latest end.
fn free_cliffords() -> CharacterizationModel {
    let mut model = CharacterizationModel::ion_trap();
    model.table.t_1q = -2.0;
    model.table.t_2q = 1.0;
    model.table.t_meas = 2.0;
    model
}

fn summary_bits(s: &SpeedOfData) -> [u64; 5] {
    [
        s.makespan_us.to_bits(),
        s.depth as u64,
        s.breakdown.data_op_us.to_bits(),
        s.breakdown.qec_interact_us.to_bits(),
        s.breakdown.ancilla_prep_us.to_bits(),
    ]
}

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

#[test]
fn folding_the_lowering_equals_folding_the_stored_circuit() {
    let synth = SynthAdapter::with_budget(4, 5e-2);
    let mut rng = StdRng::seed_from_u64(0x514b_f01d);
    let models = [
        ("ion trap", CharacterizationModel::ion_trap()),
        ("free Cliffords", free_cliffords()),
    ];
    for case in 0..300 {
        let len = if case == 0 { 0 } else { rng.gen_range(1..24) };
        let ir = random_ir(&mut rng, len);
        let stored = synth.lower(&ir);
        for (name, model) in &models {
            let ctx = format!("case {case}, {name}: {:?}", ir.gates());
            let mut fold = Frontier::new(ir.n_qubits(), model);
            synth.lower_into(&ir, &mut fold);
            let summary = SpeedOfData::of(&stored, model);
            assert_eq!(
                summary_bits(&fold.summary()),
                summary_bits(&summary),
                "{ctx}"
            );
            let want = characterize_scheduled(&stored, model, &summary);
            let got = fold.report(ir.name.clone());
            assert_eq!(report_bits(&got), report_bits(&want), "{ctx}");
            assert_eq!(got, want, "{ctx}");
        }
    }
}
