//! 2x2 unitaries and the global-phase-invariant distance used by the
//! synthesis search.

use crate::c64::C64;
use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// A 2x2 complex matrix (assumed unitary by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct U2 {
    /// Row 0, column 0.
    pub a: C64,
    /// Row 0, column 1.
    pub b: C64,
    /// Row 1, column 0.
    pub c: C64,
    /// Row 1, column 1.
    pub d: C64,
}

impl U2 {
    /// The identity.
    pub fn identity() -> Self {
        U2 {
            a: C64::ONE,
            b: C64::ZERO,
            c: C64::ZERO,
            d: C64::ONE,
        }
    }

    /// Hadamard.
    pub fn h() -> Self {
        let s = C64::new(FRAC_1_SQRT_2, 0.0);
        U2 {
            a: s,
            b: s,
            c: s,
            d: -s,
        }
    }

    /// Phase gate S = diag(1, i).
    pub fn s() -> Self {
        U2 {
            a: C64::ONE,
            b: C64::ZERO,
            c: C64::ZERO,
            d: C64::new(0.0, 1.0),
        }
    }

    /// pi/8 gate T = diag(1, e^{i pi/4}).
    pub fn t() -> Self {
        U2 {
            a: C64::ONE,
            b: C64::ZERO,
            c: C64::ZERO,
            d: C64::cis(PI / 4.0),
        }
    }

    /// Pauli X.
    pub fn x() -> Self {
        U2 {
            a: C64::ZERO,
            b: C64::ONE,
            c: C64::ONE,
            d: C64::ZERO,
        }
    }

    /// Pauli Z.
    pub fn z() -> Self {
        U2 {
            a: C64::ONE,
            b: C64::ZERO,
            c: C64::ZERO,
            d: -C64::ONE,
        }
    }

    /// The phase rotation diag(1, e^{i theta}).
    pub fn phase(theta: f64) -> Self {
        U2 {
            a: C64::ONE,
            b: C64::ZERO,
            c: C64::ZERO,
            d: C64::cis(theta),
        }
    }

    /// Matrix product `self * rhs` (apply `rhs` first).
    pub fn mul(&self, rhs: &U2) -> U2 {
        U2 {
            a: self.a * rhs.a + self.b * rhs.c,
            b: self.a * rhs.b + self.b * rhs.d,
            c: self.c * rhs.a + self.d * rhs.c,
            d: self.c * rhs.b + self.d * rhs.d,
        }
    }

    /// Conjugate transpose.
    pub fn dagger(&self) -> U2 {
        U2 {
            a: self.a.conj(),
            b: self.c.conj(),
            c: self.b.conj(),
            d: self.d.conj(),
        }
    }

    /// Global-phase-invariant distance:
    /// `d(U, V) = sqrt(1 - |tr(U^dag V)| / 2)`, in [0, 1].
    ///
    /// This is the metric of Fowler's search (zero iff U = V up to
    /// global phase; sub-additive under composition).
    pub fn distance(&self, other: &U2) -> f64 {
        U2::distance_from_trace_abs2(self.trace_dagger_mul(other).abs2())
    }

    /// `tr(U^dag V)`: the diagonal of `self.dagger().mul(other)`,
    /// summed in that product's association (so bit-identical to it).
    pub fn trace_dagger_mul(&self, other: &U2) -> C64 {
        (self.a.conj() * other.a + self.c.conj() * other.c)
            + (self.b.conj() * other.b + self.d.conj() * other.d)
    }

    /// [`U2::distance`] given `|tr(U^dag V)|^2`. Non-increasing in its
    /// argument, which is what lets the synthesis search skip a
    /// candidate from `|tr|^2` alone.
    pub fn distance_from_trace_abs2(tr_abs2: f64) -> f64 {
        (1.0 - (tr_abs2.sqrt() / 2.0).min(1.0)).max(0.0).sqrt()
    }

    /// A canonical quantized key identifying the matrix up to global
    /// phase (used to deduplicate Clifford words).
    pub fn phase_key(&self) -> [i64; 8] {
        // Normalize by the phase of the largest entry.
        let entries = [self.a, self.b, self.c, self.d];
        let pivot = entries
            .iter()
            .copied()
            .max_by(|x, y| x.abs2().partial_cmp(&y.abs2()).expect("finite"))
            .expect("four entries");
        let inv_phase = pivot.conj().scale(1.0 / pivot.abs());
        let mut key = [0i64; 8];
        for (i, e) in entries.iter().enumerate() {
            let n = *e * inv_phase;
            key[2 * i] = (n.re * 1e9).round() as i64;
            key[2 * i + 1] = (n.im * 1e9).round() as i64;
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_squared_is_identity() {
        let hh = U2::h().mul(&U2::h());
        assert!(hh.distance(&U2::identity()) < 1e-12);
    }

    #[test]
    fn t_squared_is_s() {
        let tt = U2::t().mul(&U2::t());
        assert!(tt.distance(&U2::s()) < 1e-12);
    }

    #[test]
    fn s_squared_is_z() {
        let ss = U2::s().mul(&U2::s());
        assert!(ss.distance(&U2::z()) < 1e-12);
    }

    #[test]
    fn distance_is_phase_invariant() {
        let u = U2::h();
        let phased = U2 {
            a: u.a * C64::cis(1.234),
            b: u.b * C64::cis(1.234),
            c: u.c * C64::cis(1.234),
            d: u.d * C64::cis(1.234),
        };
        assert!(u.distance(&phased) < 1e-12);
    }

    #[test]
    fn distance_separates_distinct_gates() {
        assert!(U2::h().distance(&U2::t()) > 0.1);
        assert!(U2::s().distance(&U2::t()) > 0.1);
    }

    #[test]
    fn phase_key_identifies_up_to_phase() {
        let u = U2::h().mul(&U2::s());
        let phased = U2 {
            a: u.a * C64::cis(-0.7),
            b: u.b * C64::cis(-0.7),
            c: u.c * C64::cis(-0.7),
            d: u.d * C64::cis(-0.7),
        };
        assert_eq!(u.phase_key(), phased.phase_key());
        assert_ne!(u.phase_key(), U2::h().phase_key());
    }

    #[test]
    fn hthth_matches_explicit_product() {
        let m = U2::h().mul(&U2::t()).mul(&U2::h());
        // H T H is a rotation; check unitarity via U U^dag = I.
        let prod = m.mul(&m.dagger());
        assert!(prod.distance(&U2::identity()) < 1e-12);
    }
}
