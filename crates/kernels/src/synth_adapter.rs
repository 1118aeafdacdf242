//! Bridges `qods-synth` sequences into the circuit IR's
//! [`RotationSynthesizer`] hook, with a per-(k, dagger) cache.

use qods_circuit::circuit::{Circuit, GateSink, RotationSynthesizer};
use qods_circuit::gate::{Gate, Qubit};
use qods_obs::sites;
use qods_synth::search::{HtGate, Synthesizer};
use qods_synth::simplify::simplify;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Mutex;

/// A caching adapter from the Fowler-style search to circuit lowering.
///
/// [`SynthAdapter::lower_into`] solves every rotation a lowering needs
/// in one shared search ([`Synthesizer::rz_pi_over_2k_batch`]): a
/// first pass through the lowering rules, into a sink that keeps no
/// gates, records the `(k, dagger)` pairs they request, and the
/// uncached ones are solved as one batch. The requested sequences are
/// then copied out of the cache into a local table, and the second
/// pass lowers from that table without the lock, emitting each
/// sequence as one run. Each pair is solved at most once per adapter
/// and reused for every qubit and every later lowering, and no pair is
/// solved that no lowering asked for. Lowering through the
/// [`RotationSynthesizer`] impl directly solves each cache miss as a
/// batch of one, with identical results.
#[derive(Debug)]
pub struct SynthAdapter {
    synth: Synthesizer,
    cache: Mutex<HashMap<(u8, bool), Vec<HtGate>>>,
}

impl SynthAdapter {
    /// Adapter with a custom search budget (T-count cap, stop-early
    /// distance).
    pub fn with_budget(max_t: u32, target_distance: f64) -> Self {
        SynthAdapter {
            synth: Synthesizer::with_budget(max_t, target_distance),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Lowers `circuit` (see [`Circuit::lower`]) with one batched
    /// search for the rotations it needs that are not cached yet.
    pub fn lower(&self, circuit: &Circuit) -> Circuit {
        let mut out = Circuit::named(circuit.n_qubits(), circuit.name.clone());
        self.lower_into(circuit, &mut out);
        out.shrink_to_fit();
        out
    }

    /// Lowers `circuit` as [`SynthAdapter::lower`] does, emitting each
    /// physical gate into `sink` (see [`Circuit::lower_into`]).
    pub fn lower_into(&self, circuit: &Circuit, sink: &mut impl GateSink) {
        let wanted = Recorder::default();
        circuit.lower_into(&wanted, &mut Discard);
        let wanted = wanted.requested();
        let table = {
            let mut cache = qods_pool::plock(&self.cache);
            let missing: Vec<(u8, bool)> = wanted
                .iter()
                .copied()
                .filter(|key| !cache.contains_key(key))
                .collect();
            if !missing.is_empty() {
                let _span = qods_obs::span!(sites::SYNTH_BATCH, {
                    detail: &missing.len().to_string(),
                });
                let solved = self.synth.rz_pi_over_2k_batch(&missing);
                for (key, seq) in missing.into_iter().zip(solved) {
                    cache.insert(key, simplify(&seq.gates));
                }
            }
            Table::copy(&cache, &wanted)
        };
        circuit.lower_into(&table, sink);
    }
}

/// Emits `seq` on qubit `q` as one run.
fn emit(seq: &[HtGate], q: Qubit, out: &mut impl GateSink) {
    out.run(
        q,
        seq.iter().map(|g| match g {
            HtGate::H => Gate::H(q),
            HtGate::S => Gate::S(q),
            HtGate::T => Gate::T(q),
        }),
    );
}

/// Records the rotations a lowering requests and emits nothing: bit
/// `2k + dagger` is set once `(k, dagger)` is requested.
#[derive(Default)]
struct Recorder([Cell<u64>; 8]);

impl Recorder {
    /// The requested pairs, in `(k, dagger)` order.
    fn requested(&self) -> Vec<(u8, bool)> {
        (0..=u8::MAX)
            .flat_map(|k| [(k, false), (k, true)])
            .filter(|&(k, dagger)| {
                let i = Table::index(k, dagger);
                self.0[i / 64].get() >> (i % 64) & 1 == 1
            })
            .collect()
    }
}

impl RotationSynthesizer for Recorder {
    fn synthesize(&self, _q: Qubit, k: u8, dagger: bool, _out: &mut impl GateSink) {
        let i = Table::index(k, dagger);
        let word = &self.0[i / 64];
        word.set(word.get() | 1 << (i % 64));
    }
}

/// The request pass's sink: it keeps no gates.
struct Discard;

impl GateSink for Discard {
    fn push(&mut self, _g: Gate) {}
}

/// The sequences one lowering requests, copied out of the shared
/// cache: `(k, dagger)`'s sequence sits at index `2k + dagger`.
struct Table(Vec<Vec<HtGate>>);

impl Table {
    fn index(k: u8, dagger: bool) -> usize {
        2 * usize::from(k) + usize::from(dagger)
    }

    fn copy(cache: &HashMap<(u8, bool), Vec<HtGate>>, wanted: &[(u8, bool)]) -> Self {
        let len = wanted.last().map_or(0, |&(k, d)| Self::index(k, d) + 1);
        let mut seqs = vec![Vec::new(); len];
        for &(k, dagger) in wanted {
            seqs[Self::index(k, dagger)].clone_from(&cache[&(k, dagger)]);
        }
        Table(seqs)
    }
}

impl RotationSynthesizer for Table {
    fn synthesize(&self, q: Qubit, k: u8, dagger: bool, out: &mut impl GateSink) {
        emit(&self.0[Self::index(k, dagger)], q, out);
    }
}

impl RotationSynthesizer for SynthAdapter {
    fn synthesize(&self, q: Qubit, k: u8, dagger: bool, out: &mut impl GateSink) {
        let mut cache = qods_pool::plock(&self.cache);
        let seq = cache
            .entry((k, dagger))
            .or_insert_with(|| simplify(&self.synth.rz_pi_over_2k(k, dagger).gates));
        emit(seq, q, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qft::qft;
    use std::collections::BTreeSet;

    #[expect(clippy::disallowed_methods, reason = "collected into an ordered set")]
    fn solved(a: &SynthAdapter) -> BTreeSet<(u8, bool)> {
        qods_pool::plock(&a.cache).keys().copied().collect()
    }

    /// The gates `a` appends for one rotation.
    fn synthesized(a: &SynthAdapter, n_qubits: usize, q: Qubit, k: u8, dagger: bool) -> Vec<Gate> {
        let mut out = Circuit::new(n_qubits);
        a.synthesize(q, k, dagger, &mut out);
        out.gates().to_vec()
    }

    #[test]
    fn emits_physical_gates_on_requested_qubit() {
        let a = SynthAdapter::with_budget(6, 1e-2);
        let gates = synthesized(&a, 6, 5, 4, false);
        for g in &gates {
            assert!(g.is_physical());
            assert_eq!(g.qubits()[..], [5]);
        }
    }

    #[test]
    fn cache_returns_stable_sequences() {
        let a = SynthAdapter::with_budget(6, 1e-2);
        let g1 = synthesized(&a, 1, 0, 5, false);
        let g2 = synthesized(&a, 1, 0, 5, false);
        assert_eq!(g1, g2);
    }

    #[test]
    fn lowering_solves_exactly_the_rotations_it_emits() {
        // QFT-n's controlled pi/2^m rotations (m = 1..n-1) lower to
        // pi/2^(m+1) rotations of both signs; k <= 2 is native.
        for n in [1usize, 3, 4, 9] {
            let a = SynthAdapter::with_budget(4, 1e-2);
            let batched = a.lower(&qft(n));
            let want: BTreeSet<(u8, bool)> = (3..=n as u8)
                .flat_map(|k| [(k, false), (k, true)])
                .collect();
            assert_eq!(solved(&a), want, "QFT-{n}");
            // Same circuit as lowering one rotation at a time.
            let lone = SynthAdapter::with_budget(4, 1e-2);
            assert_eq!(batched, qft(n).lower(&lone), "QFT-{n}");
            assert_eq!(solved(&lone), want, "QFT-{n}");
        }
        // A narrower QFT after a wider one solves nothing new.
        let a = SynthAdapter::with_budget(4, 1e-2);
        a.lower(&qft(9));
        let before = solved(&a);
        a.lower(&qft(5));
        assert_eq!(solved(&a), before);
    }
}
