//! The n-bit Quantum Fourier Transform (§2.5, §3.1).
//!
//! Standard textbook circuit: for each target bit (high to low) a
//! Hadamard followed by controlled phase rotations from every lower
//! bit, then a qubit-order reversal via swaps. The controlled rotation
//! between bits at distance `m` has angle `2*pi / 2^(m+1)` =
//! `pi / 2^m`, i.e. [`qods_circuit::gate::Gate::CPhaseRot`] with
//! `k = m`.
//!
//! Lowering decomposes each controlled rotation into CX gates plus
//! three half-angle single-qubit rotations (§2.5) and synthesizes the
//! sub-T-gate angles by exhaustive Clifford+T search.

use crate::synth_adapter::SynthAdapter;
use qods_circuit::circuit::Circuit;

/// Builds the n-qubit QFT in kernel IR (exact controlled rotations),
/// including the final bit-reversal swaps.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn qft(n: usize) -> Circuit {
    assert!(n > 0, "QFT width must be positive");
    let mut c = Circuit::named(n, format!("QFT-{n}"));
    for j in (0..n).rev() {
        c.h(j);
        for i in (0..j).rev() {
            // Controlled rotation between bits at distance j - i.
            let k = (j - i) as u8;
            c.cphase_rot(i, j, k, false);
        }
    }
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q);
    }
    c
}

/// The QFT lowered to the physical gate set using the given synthesis
/// budget.
pub fn qft_lowered(n: usize, synth: &SynthAdapter) -> Circuit {
    synth.lower(&qft(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qods_circuit::sim::statevector::{Amp, State};
    use std::f64::consts::PI;

    /// Directly computed DFT of the basis state |x> over n qubits.
    fn dft_state(n: usize, x: usize) -> Vec<Amp> {
        let size = 1usize << n;
        let norm = 1.0 / (size as f64).sqrt();
        (0..size)
            .map(|y| {
                let theta = 2.0 * PI * (x as f64) * (y as f64) / size as f64;
                Amp::new(norm * theta.cos(), norm * theta.sin())
            })
            .collect()
    }

    fn fidelity_to_dft(n: usize, x: usize) -> f64 {
        let mut s = State::basis(n, x);
        s.run(&qft(n));
        let want = dft_state(n, x);
        // |<want|s>|^2
        let mut re = 0.0;
        let mut im = 0.0;
        for (a, b) in want.iter().zip(s.amps()) {
            re += a.re * b.re + a.im * b.im;
            im += a.re * b.im - a.im * b.re;
        }
        re * re + im * im
    }

    #[test]
    fn matches_dft_matrix_exactly() {
        for n in 1..=5 {
            for x in 0..(1usize << n) {
                let f = fidelity_to_dft(n, x);
                assert!((f - 1.0).abs() < 1e-10, "QFT-{n} on |{x}>: fidelity {f}");
            }
        }
    }

    #[test]
    fn gate_count_is_quadratic() {
        let n = 16;
        let c = qft(n);
        // n H + n(n-1)/2 controlled rotations + 3*floor(n/2) swap CXs.
        assert_eq!(c.len(), n + n * (n - 1) / 2 + 3 * (n / 2));
    }

    #[test]
    fn lowered_qft_is_physical_and_t_heavy() {
        let synth = SynthAdapter::with_budget(8, 2e-2);
        let c = qft_lowered(16, &synth);
        assert!(c.gates().iter().all(|g| g.is_physical()));
        // Paper §3.3: 46.9% of QFT gates are non-transversal.
        let f = c.non_transversal_fraction();
        assert!((0.25..0.60).contains(&f), "T fraction {f}");
    }

    #[test]
    fn lowered_small_qft_stays_close_to_exact() {
        // With a real synthesis budget the lowered QFT-3 should match
        // the exact one to high fidelity (only k=3... none: QFT-3 has
        // k <= 2, all native). QFT-4 introduces k = 3.
        let synth = SynthAdapter::with_budget(10, 1e-3);
        let n = 4;
        let exact = qft(n);
        let lowered = qft_lowered(n, &synth);
        for x in 0..(1usize << n) {
            let mut s1 = State::basis(n, x);
            s1.run(&exact);
            let mut s2 = State::basis(n, x);
            s2.run(&lowered);
            let f = s1.fidelity(&s2);
            assert!(f > 0.98, "QFT-4 on |{x}>: lowered fidelity {f}");
        }
    }
}
