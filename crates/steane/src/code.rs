//! The \[\[7,1,3\]\] Steane CSS code: stabilizers, syndromes, decoding, and
//! logical-error classification.
//!
//! The code is built from the classical \[7,4,3\] Hamming code. With
//! qubits indexed 0..6, the three parity checks (both the X-type and
//! Z-type stabilizer generators share these supports, because the
//! Hamming code contains its dual) are:
//!
//! ```text
//! g0 = {3,4,5,6}    g1 = {1,2,5,6}    g2 = {0,2,4,6}
//! ```
//!
//! The columns of this check matrix enumerate 1..7 in binary, so a
//! syndrome *is* the (1-indexed) position of a single faulty qubit —
//! the classic Hamming decoding trick.

/// Number of physical qubits per encoded qubit.
pub const BLOCK: usize = 7;

/// The three parity-check supports as 7-bit masks (qubit i = bit i).
pub const CHECKS: [u8; 3] = [0b111_1000, 0b110_0110, 0b101_0101];

/// Support of the weight-3 logical Z (and logical X) representative
/// used for cat-state verification: qubits {2,4,5}.
pub const LOGICAL_SUPPORT: u8 = 0b011_0100;

/// Two independent weight-3 logical-Z representatives measured by the
/// verification stage (Fig 4 shows one cat-prep/verify unit per check).
/// The second is `LOGICAL_SUPPORT` times the first stabilizer check:
/// qubits {2,3,6}.
pub const VERIFY_SUPPORTS: [u8; 2] = [LOGICAL_SUPPORT, 0b100_1100];

/// The \[\[7,1,3\]\] Steane code.
///
/// The struct is stateless; it exists so call sites read naturally and
/// so alternative codes could slot in behind the same shape later.
///
/// # Example
///
/// ```
/// use qods_steane::code::SteaneCode;
///
/// let code = SteaneCode::new();
/// // Any weight-2 error pattern mis-decodes to a logical operator.
/// let e = 0b0000011u8;
/// let residual = e ^ code.decode(e);
/// assert!(code.is_logical(residual));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SteaneCode;

/// `syndrome_const(e)` for every 7-bit pattern, so the hot-path lookup
/// is one indexed load (the Monte-Carlo evaluations classify every
/// accepted trial).
const SYNDROMES: [u8; 128] = {
    let mut t = [0u8; 128];
    let mut e = 0usize;
    while e < 128 {
        t[e] = syndrome_const(e as u8);
        e += 1;
    }
    t
};

/// Bit `e` set = pattern `e` decodes to a logical residual
/// ([`SteaneCode::uncorrectable`] as a 128-entry bitset).
const UNCORRECTABLE: u128 = {
    let mut bits = 0u128;
    let mut e = 0usize;
    while e < 128 {
        let s = syndrome_const(e as u8);
        let correction = if s == 0 { 0 } else { 1u8 << (s - 1) };
        let residual = (e as u8) ^ correction;
        if residual.count_ones() % 2 == 1 {
            bits |= 1 << e;
        }
        e += 1;
    }
    bits
};

const fn syndrome_const(error: u8) -> u8 {
    let mut s = 0u8;
    let mut i = 0usize;
    while i < 3 {
        let parity = (error & CHECKS[i]).count_ones() % 2;
        s |= (parity as u8) << (2 - i);
        i += 1;
    }
    s
}

impl SteaneCode {
    /// Creates the code descriptor.
    pub fn new() -> Self {
        SteaneCode
    }

    /// The syndrome of a 7-bit error pattern: three parity bits,
    /// packed so the value equals the 1-indexed qubit position for
    /// single errors (0 means "no error detected").
    #[inline]
    pub fn syndrome(&self, error: u8) -> u8 {
        SYNDROMES[(error & 0x7f) as usize]
    }

    /// The minimum-weight correction for the observed error pattern:
    /// a mask with at most one bit set.
    pub fn decode(&self, error: u8) -> u8 {
        self.correction_for_syndrome(self.syndrome(error))
    }

    /// The correction mask implied by a syndrome value.
    pub fn correction_for_syndrome(&self, syndrome: u8) -> u8 {
        if syndrome == 0 {
            0
        } else {
            1 << (syndrome - 1)
        }
    }

    /// True when `pattern` (a syndrome-zero residual) implements a
    /// logical operator rather than a stabilizer.
    ///
    /// The X-part of the stabilizer group is the even-weight subcode of
    /// the Hamming code; the logical coset is the odd-weight half, so
    /// parity separates them.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `pattern` has a nonzero syndrome, i.e. is not
    /// a codeword at all.
    pub fn is_logical(&self, pattern: u8) -> bool {
        debug_assert_eq!(
            self.syndrome(pattern),
            0,
            "is_logical expects a syndrome-zero residual"
        );
        pattern.count_ones() % 2 == 1
    }

    /// True when the error pattern, after ideal minimum-weight
    /// decoding, leaves a logical operator on the block. This is the
    /// "uncorrectable error" notion used throughout §2. (A bitset
    /// lookup; the table is computed at compile time from the checks.)
    #[inline]
    pub fn uncorrectable(&self, error: u8) -> bool {
        (UNCORRECTABLE >> (error & 0x7f)) & 1 == 1
    }

    /// True when an X/Z error pair on a block is uncorrectable in
    /// either component (each CSS component decodes independently).
    pub fn uncorrectable_xz(&self, x_error: u8, z_error: u8) -> bool {
        self.uncorrectable(x_error) || self.uncorrectable(z_error)
    }

    /// Harm classification for a *delivered encoded-zero ancilla*.
    ///
    /// An encoded zero is harmful when using it in a QEC step can leave
    /// a logical error on the corrected data qubit:
    ///
    /// * An uncorrectable **X**-part is harmful: in the phase-correction
    ///   role the ancilla's X errors deposit wholesale onto the data
    ///   (CX back-action), and a logical-X-class pattern survives the
    ///   data's next decode. This includes the pure logical-X class —
    ///   `X_L |0_L> = |1_L>` is a genuinely different state.
    /// * A **Z**-part with *nonzero syndrome* that decodes to a logical
    ///   residue is harmful (it deposits onto data during bit
    ///   correction and then mis-corrects).
    /// * A **Z**-part in the *logical-Z class* (zero syndrome, odd
    ///   parity) is **harmless**: `Z_L |0_L> = |0_L>` exactly, so the
    ///   delivered state is identical to a clean ancilla. Counting it
    ///   as an error would overstate every preparation circuit's
    ///   failure rate.
    #[inline]
    pub fn ancilla_uncorrectable(&self, x_error: u8, z_error: u8) -> bool {
        if self.uncorrectable(x_error) {
            return true;
        }
        self.syndrome(z_error) != 0 && self.uncorrectable(z_error)
    }

    /// True when a delivered encoded-zero carries *any* non-benign
    /// residual error, correctable or not.
    ///
    /// Benign residuals are: an X-part in the stabilizer group
    /// (syndrome 0, even parity) and a Z-part in the stabilizer group
    /// *or* logical-Z class (`Z_L |0_L> = |0_L>`). Everything else is a
    /// physical deviation from a clean |0_L>; a consumer must spend a
    /// later QEC round cleaning up after it. This is the broader
    /// "delivered dirty" metric, reported next to
    /// [`SteaneCode::ancilla_uncorrectable`] in the Fig 4 reproduction
    /// (the paper's basic-prep rate of 1.8e-3 tracks this notion —
    /// it is close to the circuit's entire fault budget).
    #[inline]
    pub fn ancilla_dirty(&self, x_error: u8, z_error: u8) -> bool {
        let x_benign = self.syndrome(x_error) == 0 && x_error.count_ones().is_multiple_of(2);
        let z_benign = self.syndrome(z_error) == 0;
        !(x_benign && z_benign)
    }
}

#[cfg(test)]
mod lut_tests {
    use super::*;

    /// The compile-time tables must equal the definitional computation
    /// for every 7-bit pattern.
    #[test]
    fn tables_match_definitions() {
        let code = SteaneCode::new();
        for e in 0u8..128 {
            let mut s = 0u8;
            for (i, check) in CHECKS.iter().enumerate() {
                let parity = (e & check).count_ones() % 2;
                s |= (parity as u8) << (2 - i);
            }
            assert_eq!(code.syndrome(e), s, "syndrome({e})");
            let residual = e ^ code.correction_for_syndrome(s);
            assert_eq!(
                code.uncorrectable(e),
                residual.count_ones() % 2 == 1,
                "uncorrectable({e})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_pairwise_even_overlap() {
        // CSS condition: X and Z stabilizers share supports, so every
        // pair of checks must overlap evenly for them to commute.
        for (i, &ci) in CHECKS.iter().enumerate() {
            for (j, &cj) in CHECKS.iter().enumerate() {
                let overlap = (ci & cj).count_ones();
                if i != j {
                    assert_eq!(overlap % 2, 0, "checks {i},{j} anticommute");
                } else {
                    assert_eq!(overlap % 2, 0, "check {i} must be even weight");
                }
            }
        }
    }

    #[test]
    fn logical_support_commutes_with_checks_and_is_not_stabilizer() {
        for (i, check) in CHECKS.iter().enumerate() {
            assert_eq!(
                (LOGICAL_SUPPORT & check).count_ones() % 2,
                0,
                "logical rep anticommutes with check {i}"
            );
        }
        let code = SteaneCode::new();
        assert_eq!(code.syndrome(LOGICAL_SUPPORT), 0);
        assert!(code.is_logical(LOGICAL_SUPPORT));
    }

    #[test]
    fn syndrome_identifies_every_single_error() {
        let code = SteaneCode::new();
        for q in 0..7 {
            let e = 1u8 << q;
            assert_eq!(code.syndrome(e), q as u8 + 1, "qubit {q}");
            assert_eq!(code.decode(e), e);
            assert!(!code.uncorrectable(e));
        }
    }

    #[test]
    fn all_weight_two_errors_are_uncorrectable() {
        let code = SteaneCode::new();
        for a in 0..7 {
            for b in (a + 1)..7 {
                let e = (1u8 << a) | (1u8 << b);
                assert!(code.uncorrectable(e), "weight-2 error {e:#09b}");
            }
        }
    }

    #[test]
    fn stabilizers_are_harmless() {
        let code = SteaneCode::new();
        // Every element of the span of the checks decodes to nothing.
        for a in 0..2u8 {
            for b in 0..2u8 {
                for c in 0..2u8 {
                    let e = (CHECKS[0] * a) ^ (CHECKS[1] * b) ^ (CHECKS[2] * c);
                    assert_eq!(code.syndrome(e), 0);
                    assert!(!code.uncorrectable(e), "stabilizer {e:#09b} flagged");
                }
            }
        }
    }

    #[test]
    fn logical_coset_is_odd_weight() {
        let code = SteaneCode::new();
        // Logical X (all ones) times any stabilizer stays logical.
        for a in 0..2u8 {
            for b in 0..2u8 {
                let e = 0b111_1111 ^ (CHECKS[0] * a) ^ (CHECKS[1] * b);
                assert_eq!(code.syndrome(e), 0);
                assert!(code.uncorrectable(e));
            }
        }
    }

    #[test]
    fn verify_supports_are_independent_logical_reps() {
        let code = SteaneCode::new();
        for (k, s) in VERIFY_SUPPORTS.iter().enumerate() {
            assert_eq!(s.count_ones(), 3, "support {k} not weight 3");
            assert_eq!(code.syndrome(*s), 0, "support {k} not a codeword");
            assert!(code.is_logical(*s), "support {k} not logical");
        }
        // Their product must be a (nontrivial) stabilizer, i.e. the two
        // checks are distinct representatives of the same logical class.
        let prod = VERIFY_SUPPORTS[0] ^ VERIFY_SUPPORTS[1];
        assert_ne!(prod, 0);
        assert_eq!(code.syndrome(prod), 0);
        assert!(!code.is_logical(prod));
    }

    #[test]
    fn ancilla_harm_ignores_pure_logical_z() {
        let code = SteaneCode::new();
        // Z_L on |0_L> is the identical state: harmless.
        assert!(!code.ancilla_uncorrectable(0, 0b111_1111));
        assert!(!code.ancilla_uncorrectable(0, LOGICAL_SUPPORT));
        // ...but logical X means the block is |1_L>: harmful.
        assert!(code.ancilla_uncorrectable(LOGICAL_SUPPORT, 0));
        // Weight-2 Z mis-corrects on the data: harmful.
        assert!(code.ancilla_uncorrectable(0, 0b000_0011));
        // Weight-1 anything: fine.
        assert!(!code.ancilla_uncorrectable(0b000_0100, 0b100_0000));
    }

    #[test]
    fn exhaustive_distance_three() {
        // Minimum weight of a logical (syndrome-0, odd-parity) pattern
        // must be exactly 3 — the code distance.
        let code = SteaneCode::new();
        let mut min_w = u32::MAX;
        for e in 1u8..128 {
            if code.syndrome(e) == 0 && code.is_logical(e) {
                min_w = min_w.min(e.count_ones());
            }
        }
        assert_eq!(min_w, 3);
    }
}
