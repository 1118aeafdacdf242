//! Bridges `qods-synth` sequences into the circuit IR's
//! [`RotationSynthesizer`] hook, with a per-(k, dagger) cache.

use qods_circuit::circuit::RotationSynthesizer;
use qods_circuit::gate::Gate;
use qods_synth::search::{HtGate, Synthesizer};
use qods_synth::simplify::simplify;
use std::collections::HashMap;
use std::sync::Mutex;

/// A caching adapter from the Fowler-style search to circuit lowering.
///
/// The same pi/2^k sequence is reused for every qubit it is applied
/// to, so a QFT lowers with at most `n - 3` searches. Dagger targets
/// reuse the mirror search (the search space is closed under
/// conjugation, so distances match; see `qods-synth` tests).
#[derive(Debug)]
pub struct SynthAdapter {
    synth: Synthesizer,
    cache: Mutex<HashMap<(u8, bool), Vec<HtGate>>>,
}

impl SynthAdapter {
    /// Adapter with the default search budget.
    pub fn new() -> Self {
        SynthAdapter {
            synth: Synthesizer::new(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Adapter with a custom search budget (T-count cap, stop-early
    /// distance).
    pub fn with_budget(max_t: u32, target_distance: f64) -> Self {
        SynthAdapter {
            synth: Synthesizer::with_budget(max_t, target_distance),
            cache: Mutex::new(HashMap::new()),
        }
    }

    fn sequence(&self, k: u8, dagger: bool) -> Vec<HtGate> {
        let mut cache = qods_pool::plock(&self.cache);
        cache
            .entry((k, dagger))
            .or_insert_with(|| simplify(&self.synth.rz_pi_over_2k(k, dagger).gates))
            .clone()
    }
}

impl Default for SynthAdapter {
    fn default() -> Self {
        SynthAdapter::new()
    }
}

impl RotationSynthesizer for SynthAdapter {
    fn synthesize(&self, q: usize, k: u8, dagger: bool) -> Vec<Gate> {
        self.sequence(k, dagger)
            .into_iter()
            .map(|g| match g {
                HtGate::H => Gate::H(q),
                HtGate::S => Gate::S(q),
                HtGate::T => Gate::T(q),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_physical_gates_on_requested_qubit() {
        let a = SynthAdapter::with_budget(6, 1e-2);
        let gates = a.synthesize(5, 4, false);
        for g in &gates {
            assert!(g.is_physical());
            assert_eq!(g.qubits(), vec![5]);
        }
    }

    #[test]
    fn cache_returns_stable_sequences() {
        let a = SynthAdapter::with_budget(6, 1e-2);
        let g1 = a.synthesize(0, 5, false);
        let g2 = a.synthesize(0, 5, false);
        assert_eq!(g1, g2);
    }
}
