//! Pauli operators and Pauli strings over many qubits.
//!
//! Error tracking in the speed-of-data study is entirely Pauli-based:
//! every fault is a Pauli operator, and Clifford circuits map Pauli
//! errors to Pauli errors. We therefore only ever need the symplectic
//! (X-bit, Z-bit) representation; global phases are irrelevant for
//! error-rate accounting and are not tracked.

use std::fmt;

/// A single-qubit Pauli operator (phase-free).
///
/// `Y` is represented as "both an X and a Z component", consistent with
/// the symplectic representation used by [`PauliString`].
///
/// # Example
///
/// ```
/// use qods_phys::pauli::Pauli;
///
/// assert_eq!(Pauli::X * Pauli::Z, Pauli::Y);
/// assert!(Pauli::X.anticommutes_with(Pauli::Z));
/// assert!(!Pauli::X.anticommutes_with(Pauli::X));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Pauli {
    /// Identity.
    #[default]
    I,
    /// Bit flip.
    X,
    /// Bit and phase flip (product of X and Z, phase ignored).
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All non-identity Paulis, used for uniform error sampling.
    pub const NON_IDENTITY: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

    /// Returns the (x, z) symplectic component bits.
    #[inline]
    pub fn bits(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Builds a Pauli from its (x, z) symplectic component bits.
    #[inline]
    pub fn from_bits(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// True when `self` and `other` anticommute.
    #[inline]
    pub fn anticommutes_with(self, other: Pauli) -> bool {
        let (x1, z1) = self.bits();
        let (x2, z2) = other.bits();
        (x1 & z2) ^ (z1 & x2)
    }

    /// True for any operator with an X component (flips measured bits).
    #[inline]
    pub fn has_x(self) -> bool {
        self.bits().0
    }
}

impl std::ops::Mul for Pauli {
    type Output = Pauli;

    /// Phase-free Pauli product: `X * Z = Y`, `X * X = I`, etc.
    fn mul(self, rhs: Pauli) -> Pauli {
        let (x1, z1) = self.bits();
        let (x2, z2) = rhs.bits();
        Pauli::from_bits(x1 ^ x2, z1 ^ z2)
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// A multi-qubit Pauli operator in symplectic (bit-mask) form.
///
/// Supports up to 64 qubits, which is ample: the largest block the study
/// tracks at the physical level is a Steane-encoded qubit plus cat-state
/// and correction ancillae (a few tens of physical qubits).
///
/// # Example
///
/// ```
/// use qods_phys::pauli::{Pauli, PauliString};
///
/// let mut e = PauliString::identity(7);
/// e.mul_assign_at(0, Pauli::X);
/// e.mul_assign_at(3, Pauli::Y);
/// assert_eq!(e.weight(), 2);
/// assert_eq!(e.at(3), Pauli::Y);
/// assert_eq!(e.to_string(), "XIIYIII");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PauliString {
    n: u32,
    /// Bit i set = X component on qubit i.
    pub x: u64,
    /// Bit i set = Z component on qubit i.
    pub z: u64,
}

impl PauliString {
    /// The identity on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn identity(n: usize) -> Self {
        assert!(n <= 64, "PauliString supports at most 64 qubits, got {n}");
        PauliString {
            n: n as u32,
            x: 0,
            z: 0,
        }
    }

    /// Builds a string from raw X/Z masks.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or if a mask has bits at or above `n`.
    pub fn from_masks(n: usize, x: u64, z: u64) -> Self {
        assert!(n <= 64, "PauliString supports at most 64 qubits, got {n}");
        let valid = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        assert_eq!(x & !valid, 0, "x mask has bits beyond qubit count");
        assert_eq!(z & !valid, 0, "z mask has bits beyond qubit count");
        PauliString { n: n as u32, x, z }
    }

    /// Number of qubits this string is defined over.
    #[inline]
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when defined over zero qubits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The Pauli acting on qubit `q`.
    #[inline]
    pub fn at(&self, q: usize) -> Pauli {
        debug_assert!(q < self.len());
        Pauli::from_bits((self.x >> q) & 1 == 1, (self.z >> q) & 1 == 1)
    }

    /// Multiplies (XORs) `p` into position `q`.
    #[inline]
    pub fn mul_assign_at(&mut self, q: usize, p: Pauli) {
        debug_assert!(q < self.len());
        let (px, pz) = p.bits();
        self.x ^= (px as u64) << q;
        self.z ^= (pz as u64) << q;
    }

    /// Number of qubits acted on non-trivially.
    #[inline]
    pub fn weight(&self) -> u32 {
        (self.x | self.z).count_ones()
    }

    /// True when the string is the identity.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.x == 0 && self.z == 0
    }

    /// Phase-free product of two strings over the same qubit count.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn product(&self, other: &PauliString) -> PauliString {
        assert_eq!(self.n, other.n, "length mismatch in Pauli product");
        PauliString {
            n: self.n,
            x: self.x ^ other.x,
            z: self.z ^ other.z,
        }
    }

    /// True when `self` and `other` commute as operators.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        let cross = (self.x & other.z).count_ones() + (self.z & other.x).count_ones();
        cross.is_multiple_of(2)
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for q in 0..self.len() {
            write!(f, "{}", self.at(q))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_products_form_klein_group() {
        for &a in &[Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
            assert_eq!(a * a, Pauli::I);
            assert_eq!(a * Pauli::I, a);
        }
        assert_eq!(Pauli::X * Pauli::Y, Pauli::Z);
        assert_eq!(Pauli::Y * Pauli::Z, Pauli::X);
    }

    #[test]
    fn anticommutation_table() {
        assert!(Pauli::X.anticommutes_with(Pauli::Y));
        assert!(Pauli::Y.anticommutes_with(Pauli::Z));
        assert!(!Pauli::I.anticommutes_with(Pauli::X));
        assert!(!Pauli::Z.anticommutes_with(Pauli::Z));
    }

    #[test]
    fn string_weight_and_display() {
        let mut s = PauliString::identity(4);
        assert!(s.is_identity());
        s.mul_assign_at(1, Pauli::Z);
        s.mul_assign_at(2, Pauli::X);
        s.mul_assign_at(2, Pauli::Z); // X * Z = Y
        assert_eq!(s.to_string(), "IZYI");
        assert_eq!(s.weight(), 2);
        assert_eq!(s.x.count_ones(), 1);
        assert_eq!(s.z.count_ones(), 2);
    }

    #[test]
    fn string_commutation_matches_crossing_parity() {
        let xx = PauliString::from_masks(2, 0b11, 0b00);
        let zz = PauliString::from_masks(2, 0b00, 0b11);
        let zi = PauliString::from_masks(2, 0b00, 0b01);
        assert!(xx.commutes_with(&zz)); // two crossings -> commute
        assert!(!xx.commutes_with(&zi)); // one crossing -> anticommute
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_qubits_panics() {
        let _ = PauliString::identity(65);
    }

    #[test]
    fn product_is_componentwise_xor() {
        let a = PauliString::from_masks(3, 0b101, 0b001);
        let b = PauliString::from_masks(3, 0b100, 0b011);
        let p = a.product(&b);
        assert_eq!(p.x, 0b001);
        assert_eq!(p.z, 0b010);
    }
}
