//! The staged pipeline: `KernelSpec -> Ir -> ScheduledCircuit ->
//! Characterization`, every stage a pure, content-hashed transform
//! memoized in the [`ArtifactStore`].
//!
//! ## Stages and key derivation
//!
//! | stage | artifact | key inputs |
//! |---|---|---|
//! | `ir` | kernel-level [`Circuit`] | schema, family, width |
//! | `sched` | [`ScheduledCircuit`] (lowered + scheduled) | schema, family, width, synthesis budget (rotation families only) |
//! | `char` | [`Characterization`] | schema, upstream `sched` hash, latency model id |
//!
//! Keys chain by content: the `char` key embeds the `sched` hash,
//! which embeds everything lowering depends on, so a change anywhere
//! upstream re-addresses everything downstream and nothing is ever
//! served stale. Adder families deliberately *exclude* the synthesis
//! budget from their keys — their lowering never synthesizes, so two
//! budgets share one artifact.
//!
//! ## What is kept
//!
//! A stage stores only what was asked for. The `char` stage does not
//! pull `sched` through the store: it characterizes the stored circuit
//! when the memory tier already holds one, and otherwise lowers the
//! kernel transiently and keeps just the report. So a caller that only
//! wants reports (the width sweep) parks no circuits, and a caller
//! that wants both asks for `sched` first.
//!
//! ## Fan-out
//!
//! [`Compiler::compile_many`] runs whole per-item chains on the
//! shared `qods-pool` — item A can be characterizing while item B is
//! still lowering (no barrier between stages), results are assembled
//! by index, and every stage is a pure function of its key, so output
//! is bit-identical at any thread count and any cache state.

use crate::hash::{hash_hex, hash_value};
use crate::store::{ArtifactKey, ArtifactStore, HeapBytes, ARTIFACT_SCHEMA};
use qods_circuit::characterize::{characterize_scheduled, CircuitReport, LatencyBreakdown};
use qods_circuit::circuit::Circuit;
use qods_circuit::latency_model::CharacterizationModel;
use qods_circuit::schedule::SpeedOfData;
use qods_kernels::{KernelError, KernelSpec, SynthAdapter};
use qods_obs::sites;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// The rotation-synthesis budget lowering runs under (mirrors the
/// study's `synth_max_t` / `synth_target` knobs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthBudget {
    /// Maximum T-count for pi/2^k sequences.
    pub max_t: u32,
    /// Early-stop approximation distance.
    pub target_distance: f64,
}

impl Default for SynthBudget {
    fn default() -> Self {
        // The paper configuration's budget.
        SynthBudget {
            max_t: 12,
            target_distance: 1e-2,
        }
    }
}

/// Stage-2 artifact: the physical Clifford+T circuit with its
/// speed-of-data schedule summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledCircuit {
    /// The lowered circuit.
    pub circuit: Circuit,
    /// Speed-of-data makespan (us) under the ion-trap model.
    pub makespan_us: f64,
    /// Dependency depth of the lowered circuit.
    pub depth: usize,
    /// The Table 2 latency split along the critical path, from the same
    /// frontier pass.
    pub breakdown: LatencyBreakdown,
}

impl ScheduledCircuit {
    /// The speed-of-data summary the schedule stage computed.
    pub fn speed_of_data(&self) -> SpeedOfData {
        SpeedOfData {
            makespan_us: self.makespan_us,
            depth: self.depth,
            breakdown: self.breakdown,
        }
    }
}

/// Stage-3 artifact: the full characterization of one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// The spec this characterizes.
    pub spec: KernelSpec,
    /// Speed-of-data makespan (us), copied from the schedule stage.
    pub makespan_us: f64,
    /// Tables 2/3-shaped report.
    pub report: CircuitReport,
}

impl HeapBytes for ScheduledCircuit {
    fn heap_bytes(&self) -> usize {
        self.circuit.heap_bytes()
    }
}

impl HeapBytes for Characterization {
    fn heap_bytes(&self) -> usize {
        self.report.name.capacity()
    }
}

/// All three artifacts of one fully compiled kernel.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The spec that was compiled.
    pub spec: KernelSpec,
    /// Stage 1: kernel IR.
    pub ir: Arc<Circuit>,
    /// Stage 2: lowered + scheduled.
    pub scheduled: Arc<ScheduledCircuit>,
    /// Stage 3: characterization.
    pub characterization: Arc<Characterization>,
}

/// The staged compiler: pure transforms over an [`ArtifactStore`].
/// Cheap to construct and clone — state lives in the (shared) store
/// and in one shared synthesis cache.
#[derive(Debug, Clone)]
pub struct Compiler {
    store: Arc<ArtifactStore>,
    synth: SynthBudget,
    /// One adapter for every lowering this compiler runs: rotation
    /// searches are deterministic, so sharing the per-(k, dagger)
    /// sequence cache across kernels and widths changes nothing but
    /// the wall clock.
    adapter: Arc<SynthAdapter>,
}

impl Compiler {
    /// A compiler over the given store and synthesis budget.
    pub fn new(store: Arc<ArtifactStore>, synth: SynthBudget) -> Self {
        let adapter = Arc::new(SynthAdapter::with_budget(
            synth.max_t,
            synth.target_distance,
        ));
        Compiler {
            store,
            synth,
            adapter,
        }
    }

    /// The store this compiler memoizes into.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// The synthesis budget lowering runs under.
    pub fn synth(&self) -> SynthBudget {
        self.synth
    }

    /// The `ir` stage key for a spec.
    pub fn ir_key(&self, spec: KernelSpec) -> ArtifactKey {
        let inputs = Value::Object(vec![
            ("schema".to_string(), ARTIFACT_SCHEMA.to_value()),
            ("family".to_string(), spec.family.to_value()),
            ("width".to_string(), spec.width.to_value()),
        ]);
        ArtifactKey {
            stage: "ir",
            hash: hash_value(&inputs),
        }
    }

    /// The `sched` stage key: IR inputs plus — for rotation families
    /// only — the synthesis budget.
    pub fn scheduled_key(&self, spec: KernelSpec) -> ArtifactKey {
        let mut fields = vec![
            ("schema".to_string(), ARTIFACT_SCHEMA.to_value()),
            ("family".to_string(), spec.family.to_value()),
            ("width".to_string(), spec.width.to_value()),
        ];
        if spec.family.uses_synthesis() {
            fields.push(("synth_max_t".to_string(), self.synth.max_t.to_value()));
            fields.push((
                "synth_target".to_string(),
                self.synth.target_distance.to_value(),
            ));
        }
        ArtifactKey {
            stage: "sched",
            hash: hash_value(&Value::Object(fields)),
        }
    }

    /// The `char` stage key: chained off the `sched` content hash.
    pub fn characterization_key(&self, spec: KernelSpec) -> ArtifactKey {
        let inputs = Value::Object(vec![
            ("schema".to_string(), ARTIFACT_SCHEMA.to_value()),
            (
                "sched".to_string(),
                hash_hex(self.scheduled_key(spec).hash).to_value(),
            ),
            ("model".to_string(), "ion_trap".to_value()),
        ]);
        ArtifactKey {
            stage: "char",
            hash: hash_value(&inputs),
        }
    }

    /// Stage 1: the kernel-level IR circuit.
    ///
    /// # Errors
    ///
    /// [`KernelError`] for an invalid spec (nothing is computed or
    /// cached on error).
    pub fn ir(&self, spec: KernelSpec) -> Result<Arc<Circuit>, KernelError> {
        spec.validate()?;
        Ok(self
            .store
            .get_or_compute(self.ir_key(spec), || spec.build_ir()))
    }

    /// Stage 2: the lowered physical circuit with its speed-of-data
    /// schedule summary. Pulls stage 1 through the store (hitting its
    /// cache when warm).
    ///
    /// # Errors
    ///
    /// [`KernelError`] for an invalid spec.
    pub fn scheduled(&self, spec: KernelSpec) -> Result<Arc<ScheduledCircuit>, KernelError> {
        spec.validate()?;
        Ok(self.store.get_or_compute(self.scheduled_key(spec), || {
            let ir = self
                .ir(spec)
                .unwrap_or_else(|e| unreachable!("spec validated above: {e}"));
            self.lower(spec, &ir)
        }))
    }

    /// Stage 3: the characterization. Only the report is stored: it
    /// reads the `sched` artifact when the memory tier already holds
    /// one, and otherwise lowers the kernel transiently (its span
    /// notes `cache: "transient"`), characterizes that circuit and
    /// drops it, touching no `ir` or `sched` key. Both routes run the
    /// same lowering over the same gates, so the result is
    /// bit-identical either way; a caller that wants the circuit kept
    /// asks for [`Compiler::scheduled`] first.
    ///
    /// # Errors
    ///
    /// [`KernelError`] for an invalid spec.
    pub fn characterization(&self, spec: KernelSpec) -> Result<Arc<Characterization>, KernelError> {
        spec.validate()?;
        Ok(self
            .store
            .get_or_compute(self.characterization_key(spec), || {
                let key = self.scheduled_key(spec);
                if let Some(scheduled) = self.store.peek::<ScheduledCircuit>(key) {
                    return characterize(spec, &scheduled);
                }
                let transient = {
                    let _span = qods_obs::span!(sites::COMPILE_SCHED, {
                        config_hash: key.hash,
                        cache: "transient",
                    });
                    self.lower(spec, &spec.build_ir())
                };
                characterize(spec, &transient)
            }))
    }

    /// Lowers `ir` and schedules it: the one computation behind both
    /// a stored `sched` artifact and a transient one.
    fn lower(&self, spec: KernelSpec, ir: &Circuit) -> ScheduledCircuit {
        let lowered = spec.lower(ir, &self.adapter);
        let summary = SpeedOfData::of(&lowered, &CharacterizationModel::ion_trap());
        ScheduledCircuit {
            makespan_us: summary.makespan_us,
            depth: summary.depth,
            breakdown: summary.breakdown,
            circuit: lowered,
        }
    }

    /// Runs the full chain for one spec.
    ///
    /// # Errors
    ///
    /// [`KernelError`] for an invalid spec.
    pub fn compile(&self, spec: KernelSpec) -> Result<CompiledKernel, KernelError> {
        Ok(CompiledKernel {
            spec,
            ir: self.ir(spec)?,
            scheduled: self.scheduled(spec)?,
            characterization: self.characterization(spec)?,
        })
    }

    /// Compiles a batch of specs, chaining all three stages per item
    /// on `threads` shared-pool workers (no barrier between stages —
    /// one kernel can characterize while another is still lowering).
    /// Results are returned in input order; every spec is validated
    /// up front so nothing runs on a bad batch.
    ///
    /// # Errors
    ///
    /// The first [`KernelError`] in the batch.
    pub fn compile_many(
        &self,
        specs: &[KernelSpec],
        threads: usize,
    ) -> Result<Vec<CompiledKernel>, KernelError> {
        for spec in specs {
            spec.validate()?;
        }
        Ok(qods_pool::run_indexed(specs.len(), threads, |i| {
            self.compile(specs[i])
                .unwrap_or_else(|e| unreachable!("specs validated above: {e}"))
        }))
    }

    /// Like [`Compiler::compile_many`] but materializing only the
    /// characterization stage of each item: a kernel whose `sched`
    /// artifact is not already in the memory tier is lowered
    /// transiently, and only its report is stored (see
    /// [`Compiler::characterization`]).
    ///
    /// # Errors
    ///
    /// The first [`KernelError`] in the batch.
    pub fn characterize_many(
        &self,
        specs: &[KernelSpec],
        threads: usize,
    ) -> Result<Vec<Arc<Characterization>>, KernelError> {
        for spec in specs {
            spec.validate()?;
        }
        Ok(qods_pool::run_indexed(specs.len(), threads, |i| {
            self.characterization(specs[i])
                .unwrap_or_else(|e| unreachable!("specs validated above: {e}"))
        }))
    }
}

/// The `char` stage's transform of one scheduled circuit.
fn characterize(spec: KernelSpec, scheduled: &ScheduledCircuit) -> Characterization {
    Characterization {
        spec,
        makespan_us: scheduled.makespan_us,
        report: characterize_scheduled(
            &scheduled.circuit,
            &CharacterizationModel::ion_trap(),
            &scheduled.speed_of_data(),
        ),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use qods_kernels::KernelFamily;

    fn compiler() -> Compiler {
        Compiler::new(
            Arc::new(ArtifactStore::in_memory()),
            SynthBudget {
                max_t: 6,
                target_distance: 5e-2,
            },
        )
    }

    #[test]
    fn stages_chain_and_memoize() {
        let spec = KernelSpec::new(KernelFamily::Qrca, 4).expect("valid");
        // A lone characterization lowers transiently: it stores the
        // report and no `ir` or `sched` artifact.
        let c = compiler();
        let ch = c.characterization(spec).expect("compiles");
        assert_eq!(ch.report.n_qubits, 13);
        assert!(ch.makespan_us > 0.0);
        let stats = c.store().stats();
        assert_eq!((stats.computed, stats.mem_hits, c.store().len()), (1, 0, 1));
        assert!(c.store().peek::<Circuit>(c.ir_key(spec)).is_none());
        assert!(c
            .store()
            .peek::<ScheduledCircuit>(c.scheduled_key(spec))
            .is_none());
        let again = c.characterization(spec).expect("cached");
        assert!(Arc::ptr_eq(&ch, &again));
        assert_eq!(c.store().stats().computed, 1);

        // `scheduled` first: sched pulled ir, and char is made from
        // the stored circuit without a counted lookup.
        let c = compiler();
        let scheduled = c.scheduled(spec).expect("compiles");
        assert_eq!(c.store().stats().computed, 2);
        let stored = c.characterization(spec).expect("compiles");
        let stats = c.store().stats();
        assert_eq!((stats.computed, stats.mem_hits, c.store().len()), (3, 0, 3));
        assert_eq!(*stored, *ch, "both routes characterize the same gates");

        // The stored route reads whatever the tier holds at the `sched`
        // key.
        let c = compiler();
        let mut doctored = (*scheduled).clone();
        doctored.makespan_us = 1.0;
        c.store()
            .get_or_compute(c.scheduled_key(spec), move || doctored);
        assert_eq!(c.characterization(spec).expect("compiles").makespan_us, 1.0);
    }

    #[test]
    fn adder_keys_ignore_the_synth_budget_and_rotation_keys_do_not() {
        let store = Arc::new(ArtifactStore::in_memory());
        let a = Compiler::new(Arc::clone(&store), SynthBudget::default());
        let b = Compiler::new(
            store,
            SynthBudget {
                max_t: 6,
                target_distance: 5e-2,
            },
        );
        let adder = KernelSpec::new(KernelFamily::Qrca, 8).expect("valid");
        let qft = KernelSpec::new(KernelFamily::Qft, 8).expect("valid");
        assert_eq!(a.scheduled_key(adder), b.scheduled_key(adder));
        assert_ne!(a.scheduled_key(qft), b.scheduled_key(qft));
        // And the chained char keys follow.
        assert_eq!(a.characterization_key(adder), b.characterization_key(adder));
        assert_ne!(a.characterization_key(qft), b.characterization_key(qft));
    }

    #[test]
    fn keys_separate_stages_families_and_widths() {
        let c = compiler();
        let s1 = KernelSpec::new(KernelFamily::Qrca, 8).expect("valid");
        let s2 = KernelSpec::new(KernelFamily::Qrca, 9).expect("valid");
        let s3 = KernelSpec::new(KernelFamily::Qcla, 8).expect("valid");
        assert_ne!(c.ir_key(s1), c.ir_key(s2));
        assert_ne!(c.ir_key(s1), c.ir_key(s3));
        assert_ne!(c.ir_key(s1).stage, c.scheduled_key(s1).stage);
    }

    #[test]
    fn invalid_specs_are_typed_errors_and_cache_nothing() {
        let c = compiler();
        let bad = KernelSpec {
            family: KernelFamily::Qft,
            width: 0,
        };
        assert!(c.ir(bad).is_err());
        assert!(c.scheduled(bad).is_err());
        assert!(c.characterization(bad).is_err());
        assert!(c.compile_many(&[bad], 2).is_err());
        assert!(c.store().is_empty());
    }

    #[test]
    fn lowered_qft32_is_stored_at_eight_bytes_per_gate() {
        // The paper configuration's QFT-32: 11,347 physical gates,
        // stored at exact length (363 KB at the old 32-byte gate).
        let c = Compiler::new(Arc::new(ArtifactStore::in_memory()), SynthBudget::default());
        let spec = KernelSpec::new(KernelFamily::Qft, 32).expect("valid");
        let lowered = &c.scheduled(spec).expect("compiles").circuit;
        assert_eq!(lowered.len(), 11_347);
        assert_eq!(lowered.heap_bytes(), 11_347 * 8 + lowered.name.len());
    }

    #[test]
    fn compile_many_is_thread_count_invariant() {
        let specs: Vec<KernelSpec> = [(KernelFamily::Qrca, 3), (KernelFamily::Qft, 4)]
            .into_iter()
            .map(|(f, w)| KernelSpec::new(f, w).expect("valid"))
            .collect();
        let base: Vec<Characterization> = compiler()
            .compile_many(&specs, 1)
            .expect("compiles")
            .into_iter()
            .map(|k| (*k.characterization).clone())
            .collect();
        for threads in [2, 8] {
            let got: Vec<Characterization> = compiler()
                .compile_many(&specs, threads)
                .expect("compiles")
                .into_iter()
                .map(|k| (*k.characterization).clone())
                .collect();
            assert_eq!(got, base, "threads = {threads}");
        }
    }
}
