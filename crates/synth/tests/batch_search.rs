//! The shared batch search against the lone search it replaces.
//!
//! `oracle` below is the one-target search written out in full (its
//! own DFS, pruning and best-candidate rule), so a batch result that
//! differs from it in any bit fails here.

use qods_synth::c64::C64;
use qods_synth::clifford::CliffordGroup;
use qods_synth::search::{HtGate, Sequence, Synthesizer};
use qods_synth::su2::U2;
use std::f64::consts::PI;

/// One node of the oracle's DFS: `matrix = [T?] * syl_1 * ... * syl_m`.
#[derive(Clone)]
struct Node {
    matrix: U2,
    leading_t: bool,
    syllables: Vec<bool>,
    t_count: u32,
}

impl Node {
    fn circuit_gates(&self) -> Vec<HtGate> {
        let mut gates = Vec::new();
        for &s in self.syllables.iter().rev() {
            gates.extend([HtGate::T, HtGate::H]);
            if s {
                gates.push(HtGate::S);
            }
        }
        if self.leading_t {
            gates.push(HtGate::T);
        }
        gates
    }
}

/// The lone exhaustive search: Matsumoto-Amano DFS, pruning every
/// subtree at or above the smallest T-count that met `eps`.
fn oracle(max_t: u32, eps: f64, target: &U2) -> Sequence {
    let cliffs = CliffordGroup::generate();
    let mut best: Option<(f64, u32, Node, usize)> = None;
    let mut sat_t = u32::MAX;
    let visit = |node: &Node, best: &mut Option<(f64, u32, Node, usize)>, sat_t: &mut u32| {
        for (ci, c) in cliffs.elements().iter().enumerate() {
            let d = node.matrix.mul(&c.matrix).distance(target);
            let better = match best {
                None => true,
                Some((dist, t, _, _)) => {
                    d + 1e-15 < *dist || (d < *dist + 1e-15 && node.t_count < *t)
                }
            };
            if better {
                *best = Some((d, node.t_count, node.clone(), ci));
                if d <= eps {
                    *sat_t = (*sat_t).min(node.t_count);
                }
            }
        }
    };
    let identity = Node {
        matrix: U2::identity(),
        leading_t: false,
        syllables: Vec::new(),
        t_count: 0,
    };
    visit(&identity, &mut best, &mut sat_t);
    let t = U2::t();
    let ht = U2::h().mul(&t);
    let sht = U2::s().mul(&ht);
    let mut stack = Vec::new();
    if max_t > 0 && 1 < sat_t {
        for (matrix, leading_t, syllables) in [
            (t, true, vec![]),
            (ht, false, vec![false]),
            (sht, false, vec![true]),
        ] {
            stack.push(Node {
                matrix,
                leading_t,
                syllables,
                t_count: 1,
            });
        }
    }
    while let Some(node) = stack.pop() {
        visit(&node, &mut best, &mut sat_t);
        let next_t = node.t_count + 1;
        if next_t <= max_t && next_t < sat_t {
            for (m, s) in [(&ht, false), (&sht, true)] {
                let mut syllables = node.syllables.clone();
                syllables.push(s);
                stack.push(Node {
                    matrix: node.matrix.mul(m),
                    leading_t: node.leading_t,
                    syllables,
                    t_count: next_t,
                });
            }
        }
    }
    let (distance, t_count, node, ci) = best.expect("identity is always offered");
    let mut gates = cliffs.elements()[ci].word.clone();
    gates.extend(node.circuit_gates());
    Sequence {
        gates,
        t_count,
        distance,
    }
}

fn rz(k: u8, dagger: bool) -> U2 {
    U2::phase(PI / 2f64.powi(i32::from(k)) * if dagger { -1.0 } else { 1.0 })
}

fn word(gates: &[HtGate]) -> String {
    gates
        .iter()
        .map(|g| match g {
            HtGate::H => 'H',
            HtGate::S => 'S',
            HtGate::T => 'T',
        })
        .collect()
}

fn same(a: &Sequence, b: &Sequence) -> bool {
    a.gates == b.gates && a.t_count == b.t_count && a.distance.to_bits() == b.distance.to_bits()
}

/// Paper budget `(12, 1e-2)`, captured from the per-target search
/// this batch search replaced: `(k, dagger, gates, t_count,
/// distance bits)`.
const PAPER_BUDGET_PINS: [(u8, bool, &str, u32, u64); 12] = [
    (
        3,
        false,
        "HSSHTHSTHSTHSTHSTHTHTHSTHS",
        8,
        0x3fa4565d34f89c62,
    ),
    (3, true, "HSHSTHSTHTHTHTHSTHTHS", 7, 0x3fa4565d34f89d2c),
    (
        4,
        false,
        "HSSHSSTHSTHSTHSTHTHSTHTHTHTHTHSTHST",
        12,
        0x3f91c326c585d5a8,
    ),
    (
        4,
        true,
        "HSSHTHSTHTHTHTHTHSTHTHSTHSTHSTHST",
        12,
        0x3f91c326c585d5a8,
    ),
    (
        5,
        false,
        "HSHSSTHSTHTHTHSTHTHTHSTHTHTHTH",
        11,
        0x3f96cc6348048e4e,
    ),
    (
        5,
        true,
        "HSHSSTHTHSTHTHTHSTHTHTHSTHTHSTH",
        11,
        0x3f96cc63480493eb,
    ),
    (
        6,
        false,
        "SSHTHTHTHSTHTHTHSTHTHTHSTHSTHS",
        11,
        0x3f82262c8afef376,
    ),
    (
        6,
        true,
        "SSHSTHTHSTHTHTHSTHTHTHSTHTHSTHS",
        11,
        0x3f82262c8afef376,
    ),
    (7, false, "", 0, 0x3f81c57bcbf4de2f),
    (7, true, "", 0, 0x3f81c57bcbf4de2f),
    (8, false, "", 0, 0x3f71c581472326a1),
    (8, true, "", 0, 0x3f71c581472326a1),
];

#[test]
fn paper_budget_sequences_are_pinned() {
    let synth = Synthesizer::with_budget(12, 1e-2);
    let rotations: Vec<(u8, bool)> = PAPER_BUDGET_PINS.iter().map(|p| (p.0, p.1)).collect();
    let batch = synth.rz_pi_over_2k_batch(&rotations);
    for (&(k, dagger, gates, t_count, bits), seq) in PAPER_BUDGET_PINS.iter().zip(&batch) {
        let lone = synth.rz_pi_over_2k(k, dagger);
        for (how, s) in [("batch", seq), ("lone", &lone)] {
            assert_eq!(word(&s.gates), gates, "{how} k={k} dagger={dagger}");
            assert_eq!(s.t_count, t_count, "{how} k={k} dagger={dagger}");
            assert_eq!(s.distance.to_bits(), bits, "{how} k={k} dagger={dagger}");
        }
    }
}

/// A seeded phase angle in `[-pi, pi)`.
fn seeded_phase(state: &mut u64) -> U2 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    U2::phase((*state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 * PI - PI)
}

/// 67 targets (past the 64-target chunk boundary): pi/2^k rotations
/// for k = 3..=20 both ways, seeded arbitrary phases, the
/// non-diagonal H, and duplicates — with the deep-searching ones
/// first so a prefix is a cheap but still demanding batch. The H in
/// the first chunk keeps it on the general evaluation.
fn targets() -> Vec<U2> {
    let mut out = vec![rz(3, false), U2::h(), rz(4, true), rz(3, false)];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..4 {
        out.push(seeded_phase(&mut state));
    }
    for k in 3..=20u8 {
        for dagger in [false, true] {
            out.push(rz(k, dagger));
        }
    }
    out.extend([rz(5, true), U2::h(), rz(12, false)]);
    while out.len() < 67 {
        out.push(rz(9, out.len() % 2 == 0));
    }
    out
}

/// 65 phase rotations `diag(1, e^{i t})` (past the chunk boundary, so
/// both chunks take the phase kernel): pi/2^k both ways, `t = 0` and
/// `+-pi`, seeded arbitrary phases and a duplicate, deep-searching
/// ones first.
fn phase_targets() -> Vec<U2> {
    let mut out = vec![
        rz(3, false),
        U2::phase(0.0),
        rz(4, true),
        U2::phase(PI),
        U2::phase(-PI),
        rz(3, false),
    ];
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..4 {
        out.push(seeded_phase(&mut state));
    }
    for k in 3..=20u8 {
        for dagger in [false, true] {
            out.push(rz(k, dagger));
        }
    }
    while out.len() < 65 {
        out.push(seeded_phase(&mut state));
    }
    out
}

/// Runs `all` through the batch search over the budget grid and
/// checks every result against the lone-search oracle bit for bit.
fn assert_batch_matches_oracle(all: &[U2]) {
    for max_t in [0u32, 1, 4, 8, 12] {
        for eps in [0.0, 1e-4, 1e-2, 5e-2] {
            // At the full depth with a tight eps every target runs the
            // whole tree; keep that case to an 8-target prefix so the
            // suite stays quick.
            let n = if max_t == 12 && eps < 1e-3 {
                8
            } else {
                all.len()
            };
            let targets = &all[..n];
            let synth = Synthesizer::with_budget(max_t, eps);
            let batch = synth.approximate_batch(targets);
            assert_eq!(batch.len(), n);
            for (j, (target, got)) in targets.iter().zip(&batch).enumerate() {
                let want = oracle(max_t, eps, target);
                assert!(
                    same(got, &want),
                    "max_t={max_t} eps={eps} target {j}: batch {} t={} d={:e}, lone {} t={} d={:e}",
                    word(&got.gates),
                    got.t_count,
                    got.distance,
                    word(&want.gates),
                    want.t_count,
                    want.distance
                );
            }
        }
    }
}

#[test]
fn batch_matches_the_lone_search_at_every_budget() {
    let all = targets();
    assert!(all.len() > 64);
    assert_batch_matches_oracle(&all);
}

#[test]
fn phase_batches_match_the_lone_search_at_every_budget() {
    let all = phase_targets();
    assert!(all.len() > 64);
    assert_batch_matches_oracle(&all);
}

#[test]
fn general_targets_keep_an_otherwise_phase_chunk_exact() {
    // Phase rotations plus two targets the phase kernel must not take:
    // the non-diagonal H, and `diag(e^{-i t}, e^{i t})`, diagonal but
    // with a top-left entry that is not exactly 1.
    let rz_symmetric = U2 {
        a: C64::cis(-PI / 16.0),
        b: C64::ZERO,
        c: C64::ZERO,
        d: C64::cis(PI / 16.0),
    };
    let mut all = phase_targets();
    all.insert(1, U2::h());
    all.insert(4, rz_symmetric);
    all.truncate(64);
    assert_batch_matches_oracle(&all);
}
