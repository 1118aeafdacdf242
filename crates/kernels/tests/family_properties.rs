//! Property tests for the kernel families at *random* operand widths:
//! the `KernelSpec { family, width }` generalization only earns its
//! keep if every family is functionally correct at widths the paper
//! never exercised — adders must add, the QFT must implement the DFT —
//! not just at the fixed points the unit tests pin.

use proptest::prelude::*;
use qods_circuit::sim::permutation;
use qods_circuit::sim::statevector::{Amp, State};
use qods_kernels::{verify_adder, KernelFamily, KernelSpec, SynthAdapter};
use std::f64::consts::PI;

/// Widths are capped by the simulators, not the builders: the
/// permutation oracle tracks one u128 (3n+2 qubits for the controlled
/// adder caps n at 42), the statevector oracle 2^n amplitudes.
fn spec(family: KernelFamily, width: usize) -> KernelSpec {
    KernelSpec::new(family, width).expect("test widths are in bounds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ripple-carry adder adds at any width the oracle can check.
    #[test]
    fn qrca_adds_at_random_widths(width in 1usize..41, a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let circuit = spec(KernelFamily::Qrca, width).build_ir();
        let mask = (1u64 << width) - 1;
        verify_adder(&circuit, width, a & mask, b & mask)
            .map_err(TestCaseError::fail)?;
    }

    /// The carry-lookahead adder adds at any width (including the
    /// awkward non-powers-of-two the P-tree must round around).
    #[test]
    fn qcla_adds_at_random_widths(width in 1usize..34, a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
        let circuit = spec(KernelFamily::Qcla, width).build_ir();
        let mask = (1u64 << width) - 1;
        verify_adder(&circuit, width, a & mask, b & mask)
            .map_err(TestCaseError::fail)?;
    }

    /// The controlled adder adds exactly when the control is set and
    /// is the identity when it is not, at any width.
    #[test]
    fn ctrladd_is_controlled_at_random_widths(
        width in 1usize..41,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        ctrl_bit in 0u8..2,
    ) {
        let ctrl = ctrl_bit == 1;
        let circuit = spec(KernelFamily::CtrlAdd, width).build_ir();
        let mask = (1u64 << width) - 1;
        let (a, b) = (u128::from(a & mask), u128::from(b & mask));
        let input = u128::from(ctrl) | (a << 1) | (b << (1 + width));
        let out = permutation::apply(&circuit, input);
        let want_b = if ctrl { (a + b) & u128::from(mask) } else { b };
        prop_assert_eq!(out & 1, u128::from(ctrl), "control corrupted");
        prop_assert_eq!((out >> 1) & u128::from(mask), a, "input a corrupted");
        prop_assert_eq!((out >> (1 + width)) & u128::from(mask), want_b, "sum wrong");
        prop_assert_eq!(out >> (1 + 2 * width), 0u128, "carries not restored");
    }

    /// The QFT matches the DFT matrix on random basis states at
    /// random (statevector-checkable) widths.
    #[test]
    fn qft_matches_dft_at_random_widths(width in 1usize..7, x in 0usize..1_000_000) {
        let x = x % (1usize << width);
        let mut s = State::basis(width, x);
        s.run(&spec(KernelFamily::Qft, width).build_ir());
        let size = 1usize << width;
        let norm = 1.0 / (size as f64).sqrt();
        let mut re = 0.0;
        let mut im = 0.0;
        for (y, amp) in s.amps().iter().enumerate() {
            let theta = 2.0 * PI * (x as f64) * (y as f64) / size as f64;
            let want = Amp::new(norm * theta.cos(), norm * theta.sin());
            re += want.re * amp.re + want.im * amp.im;
            im += want.re * amp.im - want.im * amp.re;
        }
        let fidelity = re * re + im * im;
        prop_assert!((fidelity - 1.0).abs() < 1e-9, "QFT-{width} on |{x}>: fidelity {fidelity}");
    }

    /// The Draper adder adds modulo 2^n on random inputs at random
    /// widths (through the statevector oracle — its rotations are not
    /// classical gate-by-gate).
    #[test]
    fn draper_adds_at_random_widths(width in 1usize..6, a in 0usize..1_000_000, b in 0usize..1_000_000) {
        let size = 1usize << width;
        let (a, b) = (a % size, b % size);
        let mut s = State::basis(2 * width, a | (b << width));
        s.run(&spec(KernelFamily::Draper, width).build_ir());
        let want = a | (((a + b) % size) << width);
        let amp = s.amps()[want].norm_sq();
        prop_assert!(amp > 1.0 - 1e-9, "{width}-bit {a}+{b}: |amp|^2 = {amp}");
    }

    /// Lowering stays physical at random widths for every family.
    #[test]
    fn every_family_lowers_physical_at_random_widths(width in 1usize..13, fi in 0usize..5) {
        let family = KernelFamily::ALL[fi];
        let synth = SynthAdapter::with_budget(6, 5e-2);
        let spec = spec(family, width);
        let lowered = spec.lower(&spec.build_ir(), &synth);
        prop_assert!(lowered.gates().iter().all(|g| g.is_physical()), "{family}:{width}");
        prop_assert_eq!(lowered.n_qubits(), family.n_qubits(width));
    }
}
