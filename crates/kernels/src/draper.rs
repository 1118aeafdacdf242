//! Draper's QFT-based adder ("Addition on a Quantum Computer",
//! quant-ph/0008033 — the paper's reference [18]).
//!
//! Adds register `a` into register `b` in the Fourier basis: QFT on
//! `b`, controlled phase rotations from `a`, inverse QFT. Uses no
//! carry ancillae at all (2n qubits), trading them for deep controlled
//! rotations — a useful contrast to the QRCA/QCLA kernels when
//! studying pi/8-ancilla bandwidth, since its non-transversal demand
//! scales very differently.
//!
//! Register layout: `a` at `[0, n)` (preserved), `b` at `[n, 2n)`
//! (becomes `(a + b) mod 2^n`).

use crate::synth_adapter::SynthAdapter;
use qods_circuit::circuit::Circuit;

/// Builds the n-bit Draper adder in kernel IR (exact rotations).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn draper_adder(n: usize) -> Circuit {
    assert!(n > 0, "adder width must be positive");
    let mut c = Circuit::named(2 * n, format!("Draper-{n}"));
    let a = |i: usize| i;
    let b = |i: usize| n + i;

    // QFT on b (without the final swaps: we uncompute symmetrically).
    for j in (0..n).rev() {
        c.h(b(j));
        for i in (0..j).rev() {
            c.cphase_rot(b(i), b(j), (j - i) as u8, false);
        }
    }
    // Phase additions: bit a_i contributes exp(2 pi i a_i 2^i y / 2^n)
    // = a controlled rotation of angle pi / 2^(j - i) onto Fourier
    // coefficient j >= i.
    for j in 0..n {
        for i in 0..=j {
            c.cphase_rot(a(i), b(j), (j - i) as u8, false);
        }
    }
    // Inverse QFT on b.
    for j in 0..n {
        for i in 0..j {
            c.cphase_rot(b(i), b(j), (j - i) as u8, true);
        }
        c.h(b(j));
    }
    c
}

/// The Draper adder lowered to the physical gate set.
pub fn draper_adder_lowered(n: usize, synth: &SynthAdapter) -> Circuit {
    synth.lower(&draper_adder(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qods_circuit::sim::statevector::State;

    /// Exhaustive functional verification through the statevector
    /// simulator (the circuit is not classical gate-by-gate, so the
    /// permutation oracle does not apply).
    fn check_adds(n: usize) {
        for a in 0..(1usize << n) {
            for b in 0..(1usize << n) {
                let mut s = State::basis(2 * n, a | (b << n));
                s.run(&draper_adder(n));
                let want = a | (((a + b) % (1 << n)) << n);
                let amp = s.amps()[want].norm_sq();
                assert!(amp > 1.0 - 1e-9, "{n}-bit {a}+{b}: |amp|^2 = {amp}");
            }
        }
    }

    #[test]
    fn adds_exhaustively_n1_to_n3() {
        for n in 1..=3 {
            check_adds(n);
        }
    }

    #[test]
    fn adds_sampled_n4() {
        for (a, b) in [(0usize, 0usize), (15, 15), (9, 7), (8, 8), (1, 14)] {
            let n = 4;
            let mut s = State::basis(2 * n, a | (b << n));
            s.run(&draper_adder(n));
            let want = a | (((a + b) % 16) << n);
            assert!(s.amps()[want].norm_sq() > 1.0 - 1e-9, "{a}+{b}");
        }
    }

    #[test]
    fn uses_no_ancillae() {
        assert_eq!(draper_adder(32).n_qubits(), 64);
    }

    #[test]
    fn lowered_is_physical() {
        let synth = SynthAdapter::with_budget(6, 5e-2);
        let c = draper_adder_lowered(8, &synth);
        assert!(c.gates().iter().all(|g| g.is_physical()));
        assert!(c.non_transversal_fraction() > 0.1);
    }

    #[test]
    fn bandwidth_profile_differs_from_ripple_carry() {
        // The Draper adder trades carry ancillae for rotation depth:
        // fewer encoded qubits than the QRCA, different pi/8 pattern.
        use qods_circuit::characterize::characterize;
        let synth = SynthAdapter::with_budget(8, 3e-2);
        let d = characterize(&draper_adder_lowered(16, &synth));
        let r = characterize(&crate::qrca_lowered(16));
        assert!(d.n_qubits < r.n_qubits);
        assert!(d.bandwidth.zero_per_ms > 0.0);
    }
}
