//! Differential suite: the word-packed [`PauliFrame`] against the
//! boolean reference implementation [`RefPauliFrame`] (the executable
//! specification, kept here beside the tests that read it), and the
//! batched frame ops against per-op application.
//!
//! The two frame implementations are *defined* to consume the RNG in
//! the same order, so under any fixed seed they must agree bit for bit
//! on error states, measurement flips, and fault counts — across random
//! op sequences, directed Pauli injections, and every sampling mode.

use proptest::prelude::*;
use qods_phys::error_model::{ErrorModel, FaultSampler, FaultSampling};
use qods_phys::frame::PauliFrame;
use qods_phys::ops::{Basis, Gate1, Gate2, PhysOp, PhysOpKind};
use qods_phys::pauli::{Pauli, PauliString};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The boolean reference Pauli frame: one `bool` per X/Z component,
/// straight-line conjugation rules transcribed from §2.2, no limb
/// packing, no clean-frame short-circuit. It consumes the RNG in
/// exactly the order the packed frame does (conjugation twirl draws,
/// then the fault-location decision, then the fault Pauli choice).
/// It is kept simple rather than fast.
#[derive(Debug, Clone)]
struct RefPauliFrame {
    x: Vec<bool>,
    z: Vec<bool>,
    sampler: FaultSampler,
    faults_injected: u64,
}

impl RefPauliFrame {
    /// A clean frame over `n` qubits with the given error model.
    fn new(n: usize, model: ErrorModel) -> Self {
        RefPauliFrame {
            x: vec![false; n],
            z: vec![false; n],
            sampler: FaultSampler::new(model),
            faults_injected: 0,
        }
    }

    /// Number of stochastic faults injected so far.
    fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// The current error on qubit `q`.
    fn error_at(&self, q: usize) -> Pauli {
        Pauli::from_bits(self.x[q], self.z[q])
    }

    /// Deterministically multiplies an error into qubit `q`.
    fn inject(&mut self, q: usize, p: Pauli) {
        let (px, pz) = p.bits();
        self.x[q] ^= px;
        self.z[q] ^= pz;
    }

    /// Extracts the error pattern restricted to `qubits`.
    fn extract(&self, qubits: &[usize]) -> PauliString {
        let mut s = PauliString::identity(qubits.len());
        for (i, &q) in qubits.iter().enumerate() {
            s.mul_assign_at(i, self.error_at(q));
        }
        s
    }

    /// Applies one physical operation (see [`PauliFrame::apply`] for
    /// the contract).
    fn apply<R: Rng + ?Sized>(&mut self, op: &PhysOp, rng: &mut R) -> Option<bool> {
        match *op {
            PhysOp::Gate1(g, q) => self.conjugate_gate1(g, q, rng),
            PhysOp::Gate2(g, a, b) => self.conjugate_gate2(g, a, b, rng),
            PhysOp::CondPauli(p, q) => self.inject(q, p),
            PhysOp::Prep(q) => {
                self.x[q] = false;
                self.z[q] = false;
            }
            PhysOp::Measure(..) | PhysOp::Move(_) | PhysOp::TurnOp(_) => {}
        }

        match *op {
            PhysOp::Measure(basis, q) => {
                let mut flip = match basis {
                    Basis::Z => self.x[q],
                    Basis::X => self.z[q],
                };
                if self.sampler.fault_at(PhysOpKind::Measurement, rng) {
                    flip = !flip;
                    self.faults_injected += 1;
                }
                self.x[q] = false;
                self.z[q] = false;
                Some(flip)
            }
            PhysOp::Prep(q) => {
                if self.sampler.fault_at(PhysOpKind::ZeroPrepare, rng) {
                    self.x[q] = true;
                    self.faults_injected += 1;
                }
                None
            }
            PhysOp::Gate1(_, q) | PhysOp::CondPauli(_, q) => {
                if self.sampler.fault_at(PhysOpKind::OneQubitGate, rng) {
                    self.inject_random_1q(q, rng);
                }
                None
            }
            PhysOp::Gate2(_, a, b) => {
                if self.sampler.fault_at(PhysOpKind::TwoQubitGate, rng) {
                    self.inject_random_2q(a, b, rng);
                }
                None
            }
            PhysOp::Move(q) => {
                if self.sampler.fault_at(PhysOpKind::StraightMove, rng) {
                    self.inject_random_1q(q, rng);
                }
                None
            }
            PhysOp::TurnOp(q) => {
                if self.sampler.fault_at(PhysOpKind::Turn, rng) {
                    self.inject_random_1q(q, rng);
                }
                None
            }
        }
    }

    /// Runs a straight-line circuit, writing measurement flips into
    /// `flips` (cleared first).
    fn run<R: Rng + ?Sized>(&mut self, ops: &[PhysOp], rng: &mut R, flips: &mut Vec<bool>) {
        flips.clear();
        for op in ops {
            if let Some(f) = self.apply(op, rng) {
                flips.push(f);
            }
        }
    }

    fn conjugate_gate1<R: Rng + ?Sized>(&mut self, g: Gate1, q: usize, rng: &mut R) {
        match g {
            Gate1::I | Gate1::X | Gate1::Y | Gate1::Z => {}
            Gate1::H => std::mem::swap(&mut self.x[q], &mut self.z[q]),
            Gate1::S | Gate1::Sdg => self.z[q] ^= self.x[q],
            Gate1::T | Gate1::Tdg => {
                if self.x[q] && rng.gen_bool(0.5) {
                    self.z[q] = !self.z[q];
                }
            }
        }
    }

    fn conjugate_gate2<R: Rng + ?Sized>(&mut self, g: Gate2, a: usize, b: usize, rng: &mut R) {
        match g {
            Gate2::Cx => {
                self.x[b] ^= self.x[a];
                self.z[a] ^= self.z[b];
            }
            Gate2::Cz => {
                self.z[b] ^= self.x[a];
                self.z[a] ^= self.x[b];
            }
            Gate2::Cs => {
                self.z[b] ^= self.x[a];
                self.z[a] ^= self.x[b];
                if self.x[a] && rng.gen_bool(0.5) {
                    self.z[a] = !self.z[a];
                }
                if self.x[b] && rng.gen_bool(0.5) {
                    self.z[b] = !self.z[b];
                }
            }
        }
    }

    fn inject_random_1q<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        let p = Pauli::NON_IDENTITY[rng.gen_range(0..3)];
        self.inject(q, p);
        self.faults_injected += 1;
    }

    fn inject_random_2q<R: Rng + ?Sized>(&mut self, a: usize, b: usize, rng: &mut R) {
        let k = rng.gen_range(1..16u8);
        let pa = match k / 4 {
            0 => Pauli::I,
            1 => Pauli::X,
            2 => Pauli::Y,
            _ => Pauli::Z,
        };
        let pb = match k % 4 {
            0 => Pauli::I,
            1 => Pauli::X,
            2 => Pauli::Y,
            _ => Pauli::Z,
        };
        self.inject(a, pa);
        self.inject(b, pb);
        self.faults_injected += 1;
    }
}

#[test]
fn reference_frame_propagates_like_the_spec() {
    let mut r = StdRng::seed_from_u64(1);
    let mut f = RefPauliFrame::new(2, ErrorModel::noiseless());
    f.inject(0, Pauli::X);
    f.inject(1, Pauli::Z);
    f.apply(&PhysOp::cx(0, 1), &mut r);
    assert_eq!(f.error_at(0), Pauli::Y);
    assert_eq!(f.error_at(1), Pauli::Y);
    let flip = f.apply(&PhysOp::measure_z(1), &mut r).unwrap();
    assert!(flip);
    assert_eq!(f.error_at(1), Pauli::I);
}

const N: usize = 9;

/// Decodes one sampled tuple into a physical op over `N` qubits,
/// covering every op variant including the twirled gates.
fn decode_op(kind: u8, a: usize, b: usize) -> PhysOp {
    let a = a % N;
    let b = b % N;
    let b = if a == b { (a + 1) % N } else { b };
    match kind % 12 {
        0 => PhysOp::Prep(a),
        1 => PhysOp::h(a),
        2 => PhysOp::Gate1(Gate1::S, a),
        3 => PhysOp::Gate1(Gate1::T, a),
        4 => PhysOp::cx(a, b),
        5 => PhysOp::cz(a, b),
        6 => PhysOp::Gate2(Gate2::Cs, a, b),
        7 => PhysOp::measure_z(a),
        8 => PhysOp::measure_x(a),
        9 => PhysOp::Move(a),
        10 => PhysOp::TurnOp(a),
        _ => PhysOp::CondPauli(Pauli::NON_IDENTITY[kind as usize % 3], a),
    }
}

fn model_for(mode: FaultSampling) -> ErrorModel {
    // Rates inflated far beyond the paper's so that op sequences of a
    // few dozen steps regularly fault (both kinds exercise thinning).
    ErrorModel {
        p_gate: 0.07,
        p_move: 0.02,
        sampling: mode,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Packed and reference frames stay bit-identical through random
    /// noisy op sequences, in both sampling modes.
    #[test]
    fn packed_matches_reference(
        ops in proptest::collection::vec((0u8..12, 0usize..N, 0usize..N), 1..60),
        seed in 0u64..1_000_000,
        mode_sel in 0u8..2,
    ) {
        let mode = [FaultSampling::Exact, FaultSampling::Skip][mode_sel as usize];
        let model = model_for(mode);
        let mut packed = PauliFrame::new(N, model);
        let mut reference = RefPauliFrame::new(N, model);
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        for &(kind, a, b) in &ops {
            let op = decode_op(kind, a, b);
            let f1 = packed.apply(&op, &mut r1);
            let f2 = reference.apply(&op, &mut r2);
            prop_assert_eq!(f1, f2, "flip mismatch on {:?}", op);
        }
        for q in 0..N {
            prop_assert_eq!(packed.error_at(q), reference.error_at(q), "state at {}", q);
        }
        let all: Vec<usize> = (0..N).collect();
        prop_assert_eq!(packed.extract(&all), reference.extract(&all));
        prop_assert_eq!(packed.faults_injected(), reference.faults_injected());
    }

    /// Directed injections propagate identically (no sampling noise at
    /// all: pure conjugation equivalence, including multi-limb frames).
    #[test]
    fn directed_injections_match(
        injections in proptest::collection::vec((0usize..70, 0usize..3), 1..8),
        ops in proptest::collection::vec((0u8..12, 0usize..70, 0usize..70), 1..40),
    ) {
        let n = 70; // crosses the 64-bit limb boundary
        let model = ErrorModel::noiseless();
        let mut packed = PauliFrame::new(n, model);
        let mut reference = RefPauliFrame::new(n, model);
        let mut r1 = StdRng::seed_from_u64(0);
        let mut r2 = StdRng::seed_from_u64(0);
        for &(q, p) in &injections {
            let pauli = Pauli::NON_IDENTITY[p];
            packed.inject(q, pauli);
            reference.inject(q, pauli);
        }
        for &(kind, a, b) in &ops {
            // Reuse decode_op's shape at width 70.
            let a = a % n;
            let b = b % n;
            let b = if a == b { (a + 1) % n } else { b };
            let op = match kind % 9 {
                0 => PhysOp::h(a),
                1 => PhysOp::Gate1(Gate1::S, a),
                2 => PhysOp::Gate1(Gate1::T, a),
                3 => PhysOp::cx(a, b),
                4 => PhysOp::cz(a, b),
                5 => PhysOp::Gate2(Gate2::Cs, a, b),
                6 => PhysOp::Prep(a),
                7 => PhysOp::measure_z(a),
                _ => PhysOp::measure_x(a),
            };
            let f1 = packed.apply(&op, &mut r1);
            let f2 = reference.apply(&op, &mut r2);
            prop_assert_eq!(f1, f2);
        }
        for q in 0..n {
            prop_assert_eq!(packed.error_at(q), reference.error_at(q), "state at {}", q);
        }
    }

    /// Arbitrarily partitioning same-kind runs into batches leaves
    /// states, flips, and the RNG stream untouched.
    #[test]
    fn batching_is_transparent(
        seed in 0u64..1_000_000,
        split in 1usize..7,
        mode_sel in 0u8..2,
    ) {
        let mode = [FaultSampling::Exact, FaultSampling::Skip][mode_sel as usize];
        let model = model_for(mode);
        let qubits: Vec<usize> = (0..7).collect();
        let pairs = [(0usize, 2usize), (1, 5), (3, 6), (0, 4), (2, 6), (4, 5)];

        let mut r1 = StdRng::seed_from_u64(seed);
        let mut batched = PauliFrame::new(7, model);
        let (qa, qb) = qubits.split_at(split.min(qubits.len()));
        batched.prep_batch(qa, &mut r1);
        batched.prep_batch(qb, &mut r1);
        let (pa, pb) = pairs.split_at(split.min(pairs.len()));
        batched.gate2_batch(Gate2::Cx, pa, &mut r1);
        batched.gate2_batch(Gate2::Cx, pb, &mut r1);
        let flips_batched = batched.measure_batch(Basis::Z, &qubits, &mut r1);

        let mut r2 = StdRng::seed_from_u64(seed);
        let mut per_op = PauliFrame::new(7, model);
        for &q in &qubits {
            per_op.apply(&PhysOp::Prep(q), &mut r2);
        }
        for &(c, t) in &pairs {
            per_op.apply(&PhysOp::cx(c, t), &mut r2);
        }
        let mut flips_per_op = 0u64;
        for (i, &q) in qubits.iter().enumerate() {
            if per_op.apply(&PhysOp::measure_z(q), &mut r2).unwrap() {
                flips_per_op |= 1 << i;
            }
        }

        prop_assert_eq!(flips_batched, flips_per_op);
        prop_assert_eq!(batched.faults_injected(), per_op.faults_injected());
        use rand::Rng as _;
        prop_assert_eq!(r1.next_u64(), r2.next_u64(), "RNG streams diverged");
    }
}

/// The straight-line `run` entry points also agree (out-param path).
#[test]
fn run_agrees_with_reference_run() {
    let model = ErrorModel {
        p_gate: 0.05,
        p_move: 0.01,
        sampling: FaultSampling::Skip,
    };
    let ops = vec![
        PhysOp::Prep(0),
        PhysOp::Prep(1),
        PhysOp::h(0),
        PhysOp::cx(0, 1),
        PhysOp::Move(1),
        PhysOp::measure_z(1),
        PhysOp::measure_x(0),
    ];
    let mut flips_a = Vec::new();
    let mut flips_b = Vec::new();
    for seed in 0..500 {
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let mut packed = PauliFrame::new(2, model);
        let mut reference = RefPauliFrame::new(2, model);
        packed.run(&ops, &mut r1, &mut flips_a);
        reference.run(&ops, &mut r2, &mut flips_b);
        assert_eq!(flips_a, flips_b, "seed {seed}");
    }
}
