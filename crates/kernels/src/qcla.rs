//! The n-bit Quantum Carry-Lookahead Adder (Draper, Kutin, Rains,
//! Svore — the paper's [19]), out-of-place form.
//!
//! Register layout:
//!
//! ```text
//! a:  [0, n)            first input (preserved)
//! b:  [n, 2n)           second input (preserved)
//! z:  [2n, 3n+1)        output: the (n+1)-bit sum
//! P:  [3n+1, ...)       propagate-tree ancillae (restored to zero)
//! ```
//!
//! The propagate tree stores `P_t[m]` (block-propagate of the 2^t-wide
//! block starting at m*2^t) for t >= 1 and 1 <= m <= floor(n/2^t)-1 —
//! `sum_t (floor(n/2^t) - 1)` ancillae = n - w(n) - floor(lg n). At
//! n = 32 that is 26, for 123 qubits total: the paper's Table 9 data
//! area of 861 = 7 x 123 macroblocks.
//!
//! Correctness of the XOR (Toffoli) accumulation relies on generate
//! and propagate being mutually exclusive (`g_i p_i = 0`), which holds
//! because `g_i = a_i b_i` and `p_i = a_i ^ b_i`.

use qods_circuit::circuit::{Circuit, NoSynth};
use std::collections::HashMap;

fn floor_log2(n: usize) -> u32 {
    (usize::BITS - 1) - n.leading_zeros()
}

/// Number of propagate-tree ancillae for width `n`.
pub fn p_tree_ancillae(n: usize) -> usize {
    let mut total = 0;
    let mut t = 1;
    while (1usize << t) <= n {
        total += (n >> t).saturating_sub(1);
        t += 1;
    }
    total
}

struct Layout {
    n: usize,
    /// P_t[m] -> qubit index, for t >= 1.
    p_nodes: HashMap<(u32, usize), usize>,
}

impl Layout {
    fn new(n: usize) -> Self {
        let mut p_nodes = HashMap::new();
        let mut next = 3 * n + 1;
        let mut t = 1u32;
        while (1usize << t) <= n {
            for m in 1..(n >> t) {
                p_nodes.insert((t, m), next);
                next += 1;
            }
            t += 1;
        }
        Layout { n, p_nodes }
    }

    fn a(&self, i: usize) -> usize {
        i
    }

    fn b(&self, i: usize) -> usize {
        self.n + i
    }

    fn z(&self, i: usize) -> usize {
        2 * self.n + i
    }

    /// P_t[m]: t = 0 lives in b (p_i after the CX pass); t >= 1 in the
    /// ancilla pool. Returns `None` for nodes that were never
    /// materialized (only m >= 1 exists for t >= 1).
    fn p(&self, t: u32, m: usize) -> Option<usize> {
        if t == 0 {
            Some(self.b(m))
        } else {
            self.p_nodes.get(&(t, m)).copied()
        }
    }
}

/// Builds the n-bit out-of-place carry-lookahead adder (kernel IR).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn qcla(n: usize) -> Circuit {
    assert!(n > 0, "adder width must be positive");
    let lay = Layout::new(n);
    let total = 3 * n + 1 + p_tree_ancillae(n);
    let mut c = Circuit::named(total, format!("QCLA-{n}"));

    // 1. Generate bits: z[i+1] = a_i b_i.
    for i in 0..n {
        c.toffoli(lay.a(i), lay.b(i), lay.z(i + 1));
    }
    // 2. Propagate bits in place: b_i = p_i.
    for i in 0..n {
        c.cx(lay.a(i), lay.b(i));
    }
    let log_n = floor_log2(n);
    // 3. P rounds: P_t[m] = P_{t-1}[2m] & P_{t-1}[2m+1].
    // The three `expect`s per round are proven invariants: Layout::new
    // materializes P_t[m] for exactly the (t, m) pairs these loops
    // visit; skipping a missing node would silently build a wrong
    // adder, which is worse than the panic.
    for t in 1..=log_n {
        for m in 1..(n >> t) {
            let lo = lay.p(t - 1, 2 * m).expect("lo child");
            let hi = lay.p(t - 1, 2 * m + 1).expect("hi child");
            let dst = lay.p(t, m).expect("dst node");
            c.toffoli(lo, hi, dst);
        }
    }
    // 4. G rounds: z[2^t (m+1)] ^= z[2^t m + 2^{t-1}] & P_{t-1}[2m+1].
    for t in 1..=log_n {
        for m in 0..(n >> t) {
            let src = lay.z((1 << t) * m + (1 << (t - 1)));
            let dst = lay.z((1 << t) * (m + 1));
            if let Some(p) = lay.p(t - 1, 2 * m + 1) {
                c.toffoli(src, p, dst);
            }
        }
    }
    // 5. C rounds: z[2^t m + 2^{t-1}] ^= z[2^t m] & P_{t-1}[2m].
    for t in (1..=log_n).rev() {
        let span = 1usize << t;
        let half = span >> 1;
        let mut m = 1;
        while span * m + half <= n {
            let src = lay.z(span * m);
            let dst = lay.z(span * m + half);
            let p = lay.p(t - 1, 2 * m).expect("C-round propagate");
            c.toffoli(src, p, dst);
            m += 1;
        }
    }
    // 6. Undo the P rounds (restore ancillae).
    for t in (1..=log_n).rev() {
        for m in (1..(n >> t)).rev() {
            let lo = lay.p(t - 1, 2 * m).expect("lo child");
            let hi = lay.p(t - 1, 2 * m + 1).expect("hi child");
            let dst = lay.p(t, m).expect("dst node");
            c.toffoli(lo, hi, dst);
        }
    }
    // 7. Sum: z_i ^= p_i (z_i holds the carry c_i; z_0 holds 0).
    for i in 0..n {
        c.cx(lay.b(i), lay.z(i));
    }
    // 8. Restore b.
    for i in 0..n {
        c.cx(lay.a(i), lay.b(i));
    }
    c
}

/// The adder lowered to the physical Clifford+T set.
pub fn qcla_lowered(n: usize) -> Circuit {
    qcla(n).lower(&NoSynth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_adder;
    use qods_circuit::dag::Dag;

    #[test]
    fn qubit_budget_matches_paper() {
        assert_eq!(p_tree_ancillae(32), 26);
        assert_eq!(qcla(32).n_qubits(), 123);
    }

    #[test]
    fn adds_exhaustively_small() {
        for n in 1..=5 {
            let circ = qcla(n);
            for a in 0..(1u64 << n) {
                for b in 0..(1u64 << n) {
                    verify_adder(&circ, n, a, b).expect("exhaustive add");
                }
            }
        }
    }

    #[test]
    fn adds_sampled_wide() {
        for n in [8, 16, 32] {
            let circ = qcla(n);
            let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let mut x = 0x1234_5678_9abc_def0u64;
            for _ in 0..40 {
                // xorshift for deterministic pseudo-random operands
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = x & mask;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let b = x & mask;
                verify_adder(&circ, n, a, b).expect("sampled add");
            }
        }
    }

    #[test]
    fn log_depth_beats_ripple_carry() {
        let n = 32;
        let cla = qcla_lowered(n);
        let rca = crate::qrca::qrca_lowered(n);
        let d_cla = Dag::build(&cla).depth();
        let d_rca = Dag::build(&rca).depth();
        assert!(
            d_cla * 4 < d_rca,
            "QCLA depth {d_cla} not <<< QRCA depth {d_rca}"
        );
    }

    #[test]
    fn lowered_t_fraction_near_paper() {
        // Paper §3.3: 41.0% of QCLA gates are non-transversal.
        let f = qcla_lowered(32).non_transversal_fraction();
        assert!((0.35..0.50).contains(&f), "T fraction {f}");
    }

    #[test]
    fn ancilla_counts_for_other_widths() {
        // n - w(n) - floor(lg n).
        for n in [4usize, 8, 16, 32, 48] {
            let expect = n - (n.count_ones() as usize) - (floor_log2(n) as usize);
            assert_eq!(p_tree_ancillae(n), expect, "n = {n}");
        }
    }
}
