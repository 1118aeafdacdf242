//! The encoded pi/8 ancilla gadget (Fig 5) and its four-stage structure
//! (§4.4.2, Table 7).
//!
//! A fault-tolerant encoded pi/8 gate is performed by preparing an
//! ancilla in the encoded pi/8 state and interacting it transversally
//! with the data (Zhou-Leung-Chuang, the paper's \[13\]). Creating that
//! ancilla (Fig 5b) takes an encoded zero, a 7-qubit cat state, and a
//! series of transversal gates; the paper splits it into four pipeline
//! stages:
//!
//! 1. 7-qubit cat state prepare (7 two-qubit gates including the cat
//!    verification step),
//! 2. transversal CZ/CS/CX plus transversal pi/8 between cat and block,
//! 3. decode (plus store),
//! 4. one-qubit H, measurement, transversal Z conditioned on the
//!    outcome.
//!
//! The Monte-Carlo treatment of this gadget is approximate — the
//! transversal T is non-Clifford and is twirled (see `qods-phys`) — but
//! the op census and stage structure are exact, which is what the
//! factory model (Tables 7-8) consumes. The paper publishes no error
//! rate for the delivered pi/8 ancilla, so nothing quantitative hinges
//! on the twirl.

use crate::cat::prepare_cat;
use crate::encoder::{encode_zero, EncoderMovement};
use crate::executor::{Executor, OpCounts};
use qods_phys::error_model::ErrorModel;
use qods_phys::pauli::Pauli;
use rand::Rng;

/// Residual error masks of a delivered encoded pi/8 ancilla.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pi8Outcome {
    /// X-component residual over the 7-qubit block.
    pub x: u8,
    /// Z-component residual over the 7-qubit block.
    pub z: u8,
}

/// Op census per pipeline stage (the factory model bandwidth-matches
/// stages individually).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pi8StageCounts {
    /// Stage 1: cat prepare + verification.
    pub cat_prep: OpCounts,
    /// Stage 2: transversal two-qubit rounds + transversal T.
    pub transversal: OpCounts,
    /// Stage 3: decode.
    pub decode: OpCounts,
    /// Stage 4: H / measure / conditional transversal Z.
    pub readout: OpCounts,
}

const BLOCK: [usize; 7] = [0, 1, 2, 3, 4, 5, 6];
const CAT: [usize; 7] = [7, 8, 9, 10, 11, 12, 13];
const CAT_VERIFY: usize = 14;

/// Runs the Fig 5b gadget: consumes a (noisy) encoded zero produced
/// in-line and delivers an encoded pi/8 ancilla. Returns the residual
/// error masks and per-stage op counts.
pub fn run_pi8_prep<R: Rng>(model: ErrorModel, rng: &mut R) -> (Pi8Outcome, Pi8StageCounts) {
    let mut ex = Executor::new(15, model, rng);
    let mut stages = Pi8StageCounts::default();

    // Input: encoded zero (counted separately by factories; the zero
    // factory supplies it, so its ops are not part of any stage here).
    encode_zero(&mut ex, &BLOCK, EncoderMovement::default());
    let before = ex.counts();

    // Stage 1: 7-qubit cat prepare, plus one CX + measurement checking
    // the cat's ends against each other (7 two-qubit gates total,
    // matching the stage's symbolic latency in Table 7).
    prepare_cat(&mut ex, &CAT);
    ex.prep(CAT_VERIFY);
    ex.cx(CAT[6], CAT_VERIFY);
    let cat_bad = ex.measure_z(CAT_VERIFY);
    stages.cat_prep = diff(before, ex.counts());
    // A flagged cat would be recycled in the factory; for the error
    // study we simply continue (flag rate is first-order small and the
    // delivered-error metric conditions on acceptance upstream).
    let _ = cat_bad;

    // Stage 2: transversal CZ, CS, CX rounds between cat and block,
    // then the transversal pi/8 on the block. CZ and CX rounds batch;
    // CS and T conjugations twirl (draw per op) and stay per-op.
    let before = ex.counts();
    let mut pairs = [(0usize, 0usize); 7];
    for i in 0..7 {
        pairs[i] = (CAT[i], BLOCK[i]);
    }
    ex.cz_all(&pairs);
    for i in 0..7 {
        ex.cs(CAT[i], BLOCK[i]);
    }
    ex.cx_all(&pairs);
    for &b in &BLOCK {
        ex.t(b);
    }
    stages.transversal = diff(before, ex.counts());

    // Stage 3: decode the cat (reverse CX chain) and store.
    let before = ex.counts();
    let mut chain = [(0usize, 0usize); 6];
    for (k, i) in (0..6).rev().enumerate() {
        chain[k] = (CAT[i], CAT[i + 1]);
    }
    ex.cx_all(&chain);
    stages.decode = diff(before, ex.counts());

    // Stage 4: H on the cat root, measure, conditional transversal Z.
    let before = ex.counts();
    ex.h(CAT[0]);
    let flip = ex.measure_z(CAT[0]);
    // The ideal outcome of this measurement is uniformly random; the
    // transversal-Z branch fires for one of the two outcomes. Applying
    // the correction on the *observed* outcome is part of the ideal
    // protocol (so it uses plain Z gates, which do not disturb the
    // error frame beyond their own fault chance). A corrupted readout
    // (`flip`) makes the applied pattern differ from the ideal one by a
    // transversal Z — a genuine logical-phase deviation on the block.
    let ideal_branch = ex.coin();
    let observed = ideal_branch ^ flip;
    if observed {
        ex.z_all(&BLOCK);
    }
    if flip {
        for &q in &BLOCK {
            ex.inject(q, Pauli::Z);
        }
    }
    stages.readout = diff(before, ex.counts());

    (
        Pi8Outcome {
            x: ex.x_mask(&BLOCK),
            z: ex.z_mask(&BLOCK),
        },
        stages,
    )
}

fn diff(before: OpCounts, after: OpCounts) -> OpCounts {
    OpCounts {
        one_qubit_gates: after.one_qubit_gates - before.one_qubit_gates,
        two_qubit_gates: after.two_qubit_gates - before.two_qubit_gates,
        measurements: after.measurements - before.measurements,
        preps: after.preps - before.preps,
        moves: after.moves - before.moves,
        turns: after.turns - before.turns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stage_two_qubit_counts_match_table7_structure() {
        let mut rng = StdRng::seed_from_u64(51);
        let (_, stages) = run_pi8_prep(ErrorModel::noiseless(), &mut rng);
        // Stage 1: 6 chain CXs + 1 verification CX = 7 (Table 7: 7 t_2q).
        assert_eq!(stages.cat_prep.two_qubit_gates, 7);
        // Stage 2: three transversal rounds of 7.
        assert_eq!(stages.transversal.two_qubit_gates, 21);
        assert_eq!(stages.transversal.one_qubit_gates, 7); // transversal T
                                                           // Stage 3: decode chain.
        assert_eq!(stages.decode.two_qubit_gates, 6);
        // Stage 4: one H + one measurement (+ conditional Z's).
        assert_eq!(stages.readout.measurements, 1);
    }

    #[test]
    fn noiseless_gadget_delivers_clean_block_up_to_branch() {
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (out, _) = run_pi8_prep(ErrorModel::noiseless(), &mut rng);
            assert_eq!(out.x, 0, "seed {seed}");
            assert_eq!(out.z, 0, "seed {seed}");
        }
    }

    #[test]
    fn noisy_gadget_sometimes_errs() {
        let mut dirty = 0;
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = ErrorModel::paper().scaled(100.0);
            let (out, _) = run_pi8_prep(model, &mut rng);
            if out.x != 0 || out.z != 0 {
                dirty += 1;
            }
        }
        assert!(dirty > 0, "inflated noise must produce some errors");
    }
}
