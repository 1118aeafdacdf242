//! The 24 single-qubit Clifford gates, generated as shortest words in
//! {H, S} and deduplicated up to global phase.

use crate::search::HtGate;
use crate::su2::U2;
use std::collections::HashMap;

/// One Clifford element: its matrix and a shortest {H,S} word.
#[derive(Debug, Clone)]
pub struct CliffordElement {
    /// The unitary (up to global phase).
    pub matrix: U2,
    /// A shortest realizing word over {H, S}.
    pub word: Vec<HtGate>,
}

/// The full single-qubit Clifford group (24 elements mod phase).
#[derive(Debug, Clone)]
pub struct CliffordGroup {
    elements: Vec<CliffordElement>,
}

impl CliffordGroup {
    /// Generates the group by breadth-first search over {H, S} words.
    pub fn generate() -> Self {
        let gens = [(U2::h(), HtGate::H), (U2::s(), HtGate::S)];
        let mut seen: HashMap<[i64; 8], usize> = HashMap::new();
        let mut elements = vec![CliffordElement {
            matrix: U2::identity(),
            word: Vec::new(),
        }];
        seen.insert(U2::identity().phase_key(), 0);
        let mut frontier = std::collections::VecDeque::from([0usize]);
        while let Some(idx) = frontier.pop_front() {
            let base = elements[idx].clone();
            for (g, name) in &gens {
                // Append the gate in circuit order: new = base then g,
                // i.e. matrix = g * base.
                let m = g.mul(&base.matrix);
                let key = m.phase_key();
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(key) {
                    let mut word = base.word.clone();
                    word.push(*name);
                    e.insert(elements.len());
                    frontier.push_back(elements.len());
                    elements.push(CliffordElement { matrix: m, word });
                }
            }
        }
        CliffordGroup { elements }
    }

    /// The elements (24 of them).
    pub fn elements(&self) -> &[CliffordElement] {
        &self.elements
    }

    /// The cosets `C {I, S, Z, S^dag}` of the diagonal Cliffords, each
    /// as a mask of its elements' indices (bit `i` for element `i`),
    /// in order of their first element, the coset's leader. An
    /// element's coset is the elements whose first column equals its
    /// own up to a unit phase, and right-multiplying by a diagonal gate
    /// scales the first column of any product `M C` by a phase, so
    /// `|(M C)_00|` is one value per coset. The 24 elements fall into 6
    /// cosets of 4, one per Pauli eigenstate `C |0>`.
    pub(crate) fn diagonal_cosets(&self) -> Vec<u64> {
        let mut cosets: Vec<u64> = Vec::new();
        for (i, e) in self.elements.iter().enumerate() {
            // Unit columns are parallel iff `|<x, y>| = 1`.
            let parallel = |coset: u64| {
                let l = &self.elements[coset.trailing_zeros() as usize].matrix;
                let dot = l.a.conj() * e.matrix.a + l.c.conj() * e.matrix.c;
                (dot.abs() - 1.0).abs() < 1e-9
            };
            match cosets.iter_mut().find(|coset| parallel(**coset)) {
                Some(coset) => *coset |= 1 << i,
                None => cosets.push(1 << i),
            }
        }
        cosets
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the group is empty (never true after `generate`).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

impl Default for CliffordGroup {
    fn default() -> Self {
        CliffordGroup::generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_24_elements() {
        let g = CliffordGroup::generate();
        assert_eq!(g.len(), 24);
    }

    #[test]
    fn words_realize_their_matrices() {
        let g = CliffordGroup::generate();
        for e in g.elements() {
            let mut m = U2::identity();
            for gate in &e.word {
                let u = match gate {
                    HtGate::H => U2::h(),
                    HtGate::S => U2::s(),
                    HtGate::T => unreachable!("Clifford words are over H,S"),
                };
                m = u.mul(&m);
            }
            assert!(
                m.distance(&e.matrix) < 1e-9,
                "word {:?} does not realize its matrix",
                e.word
            );
        }
    }

    #[test]
    fn contains_the_paulis() {
        let g = CliffordGroup::generate();
        for target in [U2::x(), U2::z(), U2::identity()] {
            assert!(
                g.elements()
                    .iter()
                    .any(|e| e.matrix.distance(&target) < 1e-9),
                "missing a Pauli"
            );
        }
    }

    #[test]
    fn diagonal_cosets_are_six_of_four() {
        let g = CliffordGroup::generate();
        let cosets = g.diagonal_cosets();
        assert_eq!(cosets.len(), 6);
        assert_eq!(cosets.iter().fold(0, |all, c| all | c), (1 << 24) - 1);
        for coset in cosets {
            assert_eq!(coset.count_ones(), 4);
            let leader = &g.elements()[coset.trailing_zeros() as usize].matrix;
            for i in (0..24).filter(|i| coset >> i & 1 == 1) {
                // Element i is the leader times a diagonal, up to phase.
                let d = leader.dagger().mul(&g.elements()[i].matrix);
                assert!(d.b.abs() < 1e-12 && d.c.abs() < 1e-12, "element {i}");
            }
        }
    }

    #[test]
    fn words_are_short() {
        let g = CliffordGroup::generate();
        // Diameter of the Clifford group under {H,S} is small.
        assert!(g.elements().iter().all(|e| e.word.len() <= 7));
    }
}
