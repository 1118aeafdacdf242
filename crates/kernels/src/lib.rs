//! # qods-kernels — the paper's benchmark circuits (§3.1)
//!
//! Three kernels, all core subroutines of Shor-class algorithms:
//!
//! * [`qrca`](mod@qrca) — the n-bit quantum ripple-carry adder (VBE form: two
//!   n-bit inputs plus n+1 carry ancillae, 3n+1 = 97 encoded qubits at
//!   n = 32, matching the paper's 679-macroblock data region);
//! * [`qcla`](mod@qcla) — the Draper-Kutin-Rains-Svore out-of-place
//!   carry-lookahead adder (123 encoded qubits at n = 32, log depth);
//! * [`qft`](mod@qft) — the quantum Fourier transform, with controlled
//!   rotations decomposed per §2.5 and small-angle rotations
//!   synthesized by `qods-synth`;
//! * [`draper`] — Draper's ancilla-free QFT adder (the paper's \[18\]),
//!   an extension kernel contrasting carry chains against rotation
//!   depth.
//!
//! Builders return *kernel-level* IR (Toffolis, controlled rotations);
//! `*_lowered` variants produce the physical Clifford+T circuits the
//! characterization machinery consumes. Adders are verified against
//! classical addition with the permutation simulator; the QFT against
//! the DFT matrix with the statevector simulator.
//!
//! Every builder is parameterized by operand width; the [`family`]
//! module packages them as typed [`KernelSpec`] values (`family` x
//! `width`, with typed errors for bad input) — the unit the
//! `qods-compile` pipeline content-addresses its artifacts by.
//!
//! # Example
//!
//! ```
//! use qods_kernels::{qrca, verify_adder};
//!
//! let adder = qrca(4);
//! assert_eq!(adder.n_qubits(), 13); // 3n + 1
//! verify_adder(&adder, 4, 11, 6).expect("11 + 6 = 17");
//! ```

pub mod ctrl_add;
pub mod draper;
pub mod family;
pub mod qcla;
pub mod qft;
pub mod qrca;
pub mod synth_adapter;

pub use ctrl_add::{controlled_adder, controlled_adder_lowered};
pub use draper::{draper_adder, draper_adder_lowered};
pub use family::{KernelError, KernelFamily, KernelSpec, MAX_WIDTH};
pub use qcla::{qcla, qcla_lowered};
pub use qft::{qft, qft_lowered};
pub use qrca::{qrca, qrca_lowered};
pub use synth_adapter::SynthAdapter;

use qods_circuit::circuit::Circuit;
use qods_circuit::sim::permutation;

/// Checks that an (un-lowered) adder circuit maps inputs `(a, b)` to
/// the sum in the adder's output register.
///
/// Works for both kernels: register layout is queried from the circuit
/// name ("QRCA"/"QCLA" prefix set by the builders).
///
/// # Errors
///
/// Returns a message describing the first mismatch.
pub fn verify_adder(circuit: &Circuit, n: usize, a: u64, b: u64) -> Result<(), String> {
    assert!(n < 60, "operand width too large for the test harness");
    let mask = (1u128 << n) - 1;
    let a = u128::from(a) & mask;
    let b = u128::from(b) & mask;
    let expected = a + b;

    let is_qrca = circuit.name.starts_with("QRCA");
    // Input packing: QRCA: a at bits [0,n), b at [n,2n), carries zero.
    //                QCLA: same input packing; z and ancillae zero.
    let input = a | (b << n);
    let out = permutation::apply(circuit, input);

    if is_qrca {
        // b register holds the low n sum bits; c[n] the carry-out.
        let sum_lo = (out >> n) & mask;
        let carry_out = out >> (3 * n) & 1;
        let got = sum_lo | (carry_out << n);
        if got != expected {
            return Err(format!("QRCA {a}+{b}: got {got}, want {expected}"));
        }
        // a unchanged; carry ancillae c[0..n] restored.
        if out & mask != a {
            return Err(format!("QRCA {a}+{b}: input register a corrupted"));
        }
        let carries = (out >> (2 * n)) & mask;
        if carries != 0 {
            return Err(format!("QRCA {a}+{b}: carry ancillae not restored"));
        }
    } else {
        // z register at [2n, 3n+1) holds the full n+1-bit sum.
        let z_mask = (1u128 << (n + 1)) - 1;
        let got = (out >> (2 * n)) & z_mask;
        if got != expected {
            return Err(format!("QCLA {a}+{b}: got {got}, want {expected}"));
        }
        // inputs restored.
        if out & mask != a || (out >> n) & mask != b {
            return Err(format!("QCLA {a}+{b}: input registers corrupted"));
        }
        // P-tree ancillae restored to zero.
        if out >> (3 * n + 1) != 0 {
            return Err(format!("QCLA {a}+{b}: ancillae not restored"));
        }
    }
    Ok(())
}
