//! A small sign-free stabilizer tableau, used to verify *structurally*
//! that circuits produce the states they claim (e.g. that the Fig 3b
//! encoder's output is stabilized by exactly the Steane group plus
//! logical Z).
//!
//! Rows are [`PauliString`]s conjugated through Clifford gates with the
//! same rules as the error frame. Signs are not tracked: span equality
//! up to signs is sufficient for the structural checks we perform. The
//! Monte-Carlo machinery never uses it: it is a test oracle, shared by
//! the property suite through `mod tableau;`.

use qods_phys::pauli::PauliString;
use qods_steane::code::CHECKS;
use qods_steane::encoder::{CONTROLS, CX_ROUNDS};

/// A set of stabilizer generators over `n` qubits.
#[derive(Debug, Clone)]
pub struct Tableau {
    n: usize,
    rows: Vec<PauliString>,
}

impl Tableau {
    /// The stabilizer group of |0>^n: one Z per qubit.
    pub fn zeros(n: usize) -> Self {
        let rows = (0..n)
            .map(|q| PauliString::from_masks(n, 0, 1 << q))
            .collect();
        Tableau { n, rows }
    }

    /// An empty tableau (rows added manually).
    pub fn empty(n: usize) -> Self {
        Tableau {
            n,
            rows: Vec::new(),
        }
    }

    /// Adds a generator row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the tableau's.
    pub fn push(&mut self, row: PauliString) {
        assert_eq!(row.len(), self.n, "row length mismatch");
        self.rows.push(row);
    }

    /// The generator rows.
    pub fn rows(&self) -> &[PauliString] {
        &self.rows
    }

    /// Conjugates every generator through a Hadamard on `q`.
    pub fn h(&mut self, q: usize) {
        for r in &mut self.rows {
            let x = (r.x >> q) & 1;
            let z = (r.z >> q) & 1;
            r.x = (r.x & !(1 << q)) | (z << q);
            r.z = (r.z & !(1 << q)) | (x << q);
        }
    }

    /// Conjugates through S on `q` (X -> Y).
    pub fn s(&mut self, q: usize) {
        for r in &mut self.rows {
            let x = (r.x >> q) & 1;
            r.z ^= x << q;
        }
    }

    /// Conjugates through CX(control, target).
    pub fn cx(&mut self, c: usize, t: usize) {
        for r in &mut self.rows {
            let xc = (r.x >> c) & 1;
            let zt = (r.z >> t) & 1;
            r.x ^= xc << t;
            r.z ^= zt << c;
        }
    }

    /// True when the F2 span of this tableau's rows (as 2n-bit
    /// symplectic vectors) equals the span of `other`'s.
    pub fn same_span(&self, other: &Tableau) -> bool {
        assert_eq!(self.n, other.n, "tableau size mismatch");
        let a = reduced(self);
        let b = reduced(other);
        a == b
    }
}

/// Row-reduced echelon basis of the tableau rows as (x|z) vectors.
fn reduced(t: &Tableau) -> Vec<u128> {
    let mut rows: Vec<u128> = t
        .rows
        .iter()
        .map(|r| (u128::from(r.x) << 64) | u128::from(r.z))
        .filter(|&v| v != 0)
        .collect();
    let mut basis: Vec<u128> = Vec::new();
    for mut v in rows.drain(..) {
        for &b in &basis {
            let lead = 127 - b.leading_zeros();
            if (v >> lead) & 1 == 1 {
                v ^= b;
            }
        }
        if v != 0 {
            basis.push(v);
            basis.sort_unstable_by(|x, y| y.cmp(x));
        }
    }
    // Back-substitute for a canonical reduced form.
    let snapshot = basis.clone();
    for (i, row) in basis.iter_mut().enumerate() {
        for (j, &b) in snapshot.iter().enumerate() {
            if i != j {
                let lead = 127 - b.leading_zeros();
                if (*row >> lead) & 1 == 1 && *row != b {
                    *row ^= b;
                }
            }
        }
    }
    basis.sort_unstable_by(|x, y| y.cmp(x));
    basis
}

#[test]
fn encoder_produces_steane_stabilizers_plus_logical_z() {
    // Start from |0>^7, apply the Fig 3b circuit to the tableau.
    let mut t = Tableau::zeros(7);
    for &c in &CONTROLS {
        t.h(c);
    }
    for round in &CX_ROUNDS {
        for &(c, tgt) in round {
            t.cx(c, tgt);
        }
    }
    // Expected group: three X-checks, three Z-checks, logical Z.
    let mut expect = Tableau::empty(7);
    for &chk in &CHECKS {
        expect.push(PauliString::from_masks(7, u64::from(chk), 0));
    }
    for &chk in &CHECKS {
        expect.push(PauliString::from_masks(7, 0, u64::from(chk)));
    }
    expect.push(PauliString::from_masks(7, 0, 0b111_1111));
    assert!(t.same_span(&expect), "encoder output group mismatch");
}

#[test]
fn ghz_stabilizers() {
    let mut t = Tableau::zeros(3);
    t.h(0);
    t.cx(0, 1);
    t.cx(1, 2);
    let mut expect = Tableau::empty(3);
    expect.push(PauliString::from_masks(3, 0b111, 0)); // XXX
    expect.push(PauliString::from_masks(3, 0, 0b011)); // Z0 Z1
    expect.push(PauliString::from_masks(3, 0, 0b110)); // Z1 Z2
    assert!(t.same_span(&expect));
}

#[test]
fn span_equality_is_basis_independent() {
    let mut a = Tableau::empty(2);
    a.push(PauliString::from_masks(2, 0b01, 0));
    a.push(PauliString::from_masks(2, 0b10, 0));
    let mut b = Tableau::empty(2);
    b.push(PauliString::from_masks(2, 0b11, 0));
    b.push(PauliString::from_masks(2, 0b01, 0));
    assert!(a.same_span(&b));
    let mut c = Tableau::empty(2);
    c.push(PauliString::from_masks(2, 0b11, 0));
    assert!(!a.same_span(&c));
}

#[test]
fn rotation_rules_are_consistent_with_frame() {
    // H then CX on a Z generator mirrors frame behavior.
    let mut t = Tableau::zeros(2);
    t.h(0); // Z0 -> X0
    t.cx(0, 1); // X0 -> X0 X1
    let mut expect = Tableau::empty(2);
    expect.push(PauliString::from_masks(2, 0b11, 0));
    expect.push(PauliString::from_masks(2, 0, 0b11)); // Z1 -> Z0 Z1
    assert!(t.same_span(&expect));
}
