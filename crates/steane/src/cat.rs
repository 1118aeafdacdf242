//! Cat (GHZ) state preparation.
//!
//! Verification of an encoded zero uses a 3-qubit cat state ("Cat
//! Prep" in Fig 4); the pi/8-ancilla gadget uses a 7-qubit cat state
//! (Fig 5b). A cat state over n qubits is |0...0> + |1...1>, prepared
//! by a Hadamard followed by a CX chain.

use crate::executor::Executor;
use rand::Rng;

/// Prepares a cat state over the given qubits (first qubit is the
/// Hadamard root; CXs chain root -> next -> next...).
///
/// The chain layout matches the factory cat-prep unit (Fig 13d):
/// 2 sequential CXs for the 3-qubit cat, 6 for the 7-qubit cat.
pub fn prepare_cat<R: Rng>(ex: &mut Executor<'_, R>, qubits: &[usize]) {
    assert!(qubits.len() >= 2, "cat state needs at least two qubits");
    // Cats in this study are 3 or 7 qubits; a fixed link buffer keeps
    // the CX chain a single batched fault scan.
    assert!(qubits.len() <= 8, "cat chain buffer holds 7 links");
    ex.prep_all(qubits);
    ex.h(qubits[0]);
    let mut links = [(0usize, 0usize); 7];
    for (link, w) in links.iter_mut().zip(qubits.windows(2)) {
        *link = (w[0], w[1]);
    }
    ex.cx_all(&links[..qubits.len() - 1]);
}

/// Movement charged to cat qubits travelling from the cat-prep unit to
/// the verification site. From the factory layout (Fig 13d/e): each cat
/// qubit crosses the crossbar (2 turns) and a couple of straight
/// channels.
pub fn shuttle_cat<R: Rng>(ex: &mut Executor<'_, R>, qubits: &[usize], moves: u32, turns: u32) {
    // The cat travels as one convoy: all straight moves, then all
    // turns, each as a single batched fault scan.
    ex.moves_multi(qubits, moves);
    ex.turns_multi(qubits, turns);
}

/// Prepares a cat state and checks its two end qubits against each
/// other through an auxiliary qubit (`aux` is measured and recycled).
///
/// A *partial* branch flip (an X error on a suffix of the chain) is the
/// dangerous cat fault: used in a verification gadget it deposits a
/// correlated Z pattern onto the block being verified. The end check
/// catches every suffix flip except the full branch flip — which is the
/// GHZ stabilizer and therefore benign. Retries until the check
/// passes (the factory recycles flagged cats from the same stateless
/// pool; `max_retries` only guards against pathological error rates).
///
/// Returns `false` if the cat could not be prepared within the retry
/// budget (callers discard the surrounding block attempt).
pub fn prepare_verified_cat<R: Rng>(
    ex: &mut Executor<'_, R>,
    qubits: &[usize],
    aux: usize,
    max_retries: u32,
) -> bool {
    for _ in 0..=max_retries {
        prepare_cat(ex, qubits);
        ex.prep(aux);
        ex.cx_all(&[
            (*qubits.first().expect("cat is non-empty"), aux),
            (*qubits.last().expect("cat is non-empty"), aux),
        ]);
        if !ex.measure_z(aux) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use qods_phys::error_model::ErrorModel;
    use qods_phys::pauli::Pauli;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_cat_is_clean() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ex = Executor::new(3, ErrorModel::noiseless(), &mut rng);
        prepare_cat(&mut ex, &[0, 1, 2]);
        for q in 0..3 {
            assert_eq!(ex.frame().error_at(q), Pauli::I);
        }
        assert_eq!(ex.counts().two_qubit_gates, 2);
        assert_eq!(ex.counts().one_qubit_gates, 1);
    }

    #[test]
    fn seven_cat_uses_six_cx() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ex = Executor::new(7, ErrorModel::noiseless(), &mut rng);
        prepare_cat(&mut ex, &[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(ex.counts().two_qubit_gates, 6);
    }

    #[test]
    fn root_fault_spreads_to_whole_cat() {
        // An X on the root before the chain becomes X on every qubit —
        // in a real cat this is the branch-flip, which verification
        // tolerates (it only flips which GHZ branch is measured).
        let mut rng = StdRng::seed_from_u64(5);
        let mut ex = Executor::new(3, ErrorModel::noiseless(), &mut rng);
        for q in 0..3 {
            ex.prep(q);
        }
        ex.h(0);
        ex.inject(0, Pauli::X);
        ex.cx(0, 1);
        ex.cx(1, 2);
        for q in 0..3 {
            assert!(ex.frame().error_at(q).has_x());
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_qubit_cat_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ex = Executor::new(1, ErrorModel::noiseless(), &mut rng);
        prepare_cat(&mut ex, &[0]);
    }
}
