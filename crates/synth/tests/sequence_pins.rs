//! Every pi/2^k sequence the search returns, pinned bit for bit.
//!
//! One digest per budget covers `rz_pi_over_2k_batch` over k = 3..=48
//! and both signs (92 targets, so two chunks), captured before the
//! phase kernel learnt to pass over candidates that cannot win: a
//! change to the search that moves any gate, T-count or distance bit
//! of any sequence fails here.

use qods_synth::search::{HtGate, Sequence, Synthesizer};

/// Every `(k, dagger)` the digests cover, in batch order.
fn rotations() -> Vec<(u8, bool)> {
    (3..=48u8).flat_map(|k| [(k, false), (k, true)]).collect()
}

/// FNV-1a over each sequence's `(k, dagger, t_count, gates, distance
/// bits)`, in batch order.
fn digest(rotations: &[(u8, bool)], seqs: &[Sequence]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (&(k, dagger), seq) in rotations.iter().zip(seqs) {
        eat(&[k, u8::from(dagger)]);
        eat(&seq.t_count.to_le_bytes());
        eat(&(seq.gates.len() as u64).to_le_bytes());
        let gates: Vec<u8> = seq
            .gates
            .iter()
            .map(|g| match g {
                HtGate::H => b'H',
                HtGate::S => b'S',
                HtGate::T => b'T',
            })
            .collect();
        eat(&gates);
        eat(&seq.distance.to_bits().to_le_bytes());
    }
    h
}

fn assert_pinned(synth: &Synthesizer, want: u64, total_t: u32) {
    let rotations = rotations();
    let seqs = synth.rz_pi_over_2k_batch(&rotations);
    assert_eq!(seqs.len(), rotations.len());
    let got_t: u32 = seqs.iter().map(|s| s.t_count).sum();
    let got = digest(&rotations, &seqs);
    assert_eq!(
        (got, got_t),
        (want, total_t),
        "digest {got:#018x}, total T-count {got_t}"
    );
}

#[test]
fn paper_budget_digest_is_pinned() {
    // StudyConfig::default(): synth_max_t 12, synth_target 1e-2.
    assert_pinned(
        &Synthesizer::with_budget(12, 1e-2),
        0xad00_e895_230e_2fb3,
        83,
    );
}

#[test]
fn smoke_budget_digest_is_pinned() {
    // StudyConfig::smoke(): synth_max_t 8, synth_target 1e-2.
    assert_pinned(
        &Synthesizer::with_budget(8, 1e-2),
        0xfd26_22c7_4674_caa7,
        15,
    );
}

#[test]
fn max_t_count_8_digest_is_pinned() {
    // Stop-early distance 1e-4: k = 7..=13 search every core up to
    // T-count 8 instead of stopping at the identity, and still keep
    // it, so the sequences match the smoke budget's.
    assert_pinned(&Synthesizer::with_max_t_count(8), 0xfd26_22c7_4674_caa7, 15);
}
