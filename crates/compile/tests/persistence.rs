//! Integration tests for the persistent artifact store: byte-identity
//! between disk-cached and freshly compiled artifacts, cold-process
//! reuse, corruption tolerance, and cache-state-invariant results.

use proptest::prelude::*;
use qods_compile::{ArtifactStore, Compiler, SynthBudget};
use qods_kernels::{KernelFamily, KernelSpec};
use std::path::PathBuf;
use std::sync::Arc;

fn budget() -> SynthBudget {
    SynthBudget {
        max_t: 6,
        target_distance: 5e-2,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qods_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random specs, the bytes the disk store holds are exactly
    /// the bytes a fresh, store-free compilation would encode to —
    /// the "disk-cached vs freshly compiled artifacts are
    /// byte-identical" contract.
    #[test]
    fn disk_artifacts_are_byte_identical_to_fresh_compiles(width in 1usize..14, fi in 0usize..5) {
        let spec = KernelSpec::new(KernelFamily::ALL[fi], width).expect("valid");
        let dir = temp_dir("bytes");

        // Compile through a persistent store.
        let disk = Compiler::new(Arc::new(ArtifactStore::persistent(&dir)), budget());
        disk.compile(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;

        // Compile the same spec in a fresh, memory-only store.
        let fresh = Compiler::new(Arc::new(ArtifactStore::in_memory()), budget());
        let kernel = fresh.compile(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;

        for (key, encoded) in [
            (fresh.ir_key(spec), ArtifactStore::encode_artifact(fresh.ir_key(spec), kernel.ir.as_ref())),
            (fresh.scheduled_key(spec), ArtifactStore::encode_artifact(fresh.scheduled_key(spec), kernel.scheduled.as_ref())),
            (fresh.characterization_key(spec), ArtifactStore::encode_artifact(fresh.characterization_key(spec), kernel.characterization.as_ref())),
        ] {
            let on_disk = std::fs::read_to_string(dir.join(key.file_name()))
                .map_err(|e| TestCaseError::fail(format!("{key}: {e}")))?;
            prop_assert_eq!(&on_disk, &encoded, "{} bytes differ", key);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Results are bit-identical at any cache state: cold memory,
    /// warm memory, warm disk, and corrupted disk all produce the
    /// same characterization.
    #[test]
    fn any_cache_state_yields_identical_results(width in 1usize..14, fi in 0usize..5) {
        let spec = KernelSpec::new(KernelFamily::ALL[fi], width).expect("valid");
        let dir = temp_dir("states");

        let cold = Compiler::new(Arc::new(ArtifactStore::in_memory()), budget());
        let want = cold.compile(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;

        let persist = Compiler::new(Arc::new(ArtifactStore::persistent(&dir)), budget());
        let a = persist.compile(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&*a.characterization, &*want.characterization);

        // Fresh process simulation: new store, warm disk, no compute.
        let warm = Compiler::new(Arc::new(ArtifactStore::persistent(&dir)), budget());
        let b = warm.compile(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(warm.store().stats().computed, 0);
        prop_assert_eq!(&*b.characterization, &*want.characterization);

        // Corrupt every artifact file: still the same answer, by
        // recompute, and the files are healed for the next reader.
        for entry in std::fs::read_dir(&dir).map_err(|e| TestCaseError::fail(e.to_string()))? {
            let path = entry.map_err(|e| TestCaseError::fail(e.to_string()))?.path();
            std::fs::write(&path, b"{corrupt").map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        let healed = Compiler::new(Arc::new(ArtifactStore::persistent(&dir)), budget());
        let c = healed.compile(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(healed.store().stats().corrupt_reads > 0);
        prop_assert_eq!(&*c.characterization, &*want.characterization);
        let reread = Compiler::new(Arc::new(ArtifactStore::persistent(&dir)), budget());
        let d = reread.compile(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reread.store().stats().computed, 0, "healed files must serve");
        prop_assert_eq!(&*d.characterization, &*want.characterization);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The `char` stage's two routes agree to the bit: a lone
    /// characterization (lowered transiently, only the report kept)
    /// and one made from a stored `sched` artifact encode to the same
    /// bytes, for every family, widths 4-48 and two synthesis budgets.
    #[test]
    fn transient_and_stored_characterizations_are_bit_identical(
        width in 4usize..49,
        fi in 0usize..5,
        bi in 0usize..2,
    ) {
        let spec = KernelSpec::new(KernelFamily::ALL[fi], width).expect("valid");
        let synth = [budget(), SynthBudget::default()][bi];

        let transient = Compiler::new(Arc::new(ArtifactStore::in_memory()), synth);
        let lone = transient.characterization(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(transient.store().len(), 1, "only the report is kept");

        let stored = Compiler::new(Arc::new(ArtifactStore::in_memory()), synth);
        stored.scheduled(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let from_sched = stored.characterization(spec).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(stored.store().len(), 3);

        let key = stored.characterization_key(spec);
        prop_assert_eq!(
            ArtifactStore::encode_artifact(key, lone.as_ref()),
            ArtifactStore::encode_artifact(key, from_sched.as_ref())
        );
    }
}

/// A cold-process, warm-disk study context materializes its
/// benchmarks with zero stage recomputes — the end-to-end shape the
/// CI cache-persistence job asserts through `repro`.
#[test]
fn warm_disk_serves_a_fresh_process_without_recompiling() {
    let dir = temp_dir("coldproc");
    let specs = qods_compile::paper_specs(6);

    let first = Compiler::new(Arc::new(ArtifactStore::persistent(&dir)), budget());
    let a = first.compile_many(&specs, 2).expect("valid specs");
    assert!(first.store().stats().computed > 0);

    let second = Compiler::new(Arc::new(ArtifactStore::persistent(&dir)), budget());
    let b = second.compile_many(&specs, 2).expect("valid specs");
    let stats = second.store().stats();
    assert_eq!(stats.computed, 0, "warm disk must serve everything");
    assert!(stats.disk_hits > 0);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(*x.characterization, *y.characterization);
        assert_eq!(x.scheduled.circuit, y.scheduled.circuit);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The environment variable relocates the disk tier (the CI/sandbox
/// override), and an empty value disables it. The location policy is
/// a pure function (`ArtifactStore::resolve`) precisely so this test
/// never has to call `set_var` — mutating the process environment
/// races the parallel test harness's own `getenv` calls.
#[test]
fn env_var_overrides_the_store_location() {
    let dir = temp_dir("envvar");
    let env_dir = temp_dir("envvar_override");

    // No env: the default dir (or memory-only without one) applies.
    let store = ArtifactStore::resolve(None, Some(&dir));
    assert_eq!(store.dir(), Some(dir.as_path()));
    assert_eq!(ArtifactStore::resolve(None, None).dir(), None);

    // Env set: it beats the default dir.
    let store = ArtifactStore::resolve(env_dir.to_str(), Some(&dir));
    assert_eq!(store.dir(), Some(env_dir.as_path()));

    // Empty env value: disk tier off even with a default dir.
    assert_eq!(ArtifactStore::resolve(Some(""), Some(&dir)).dir(), None);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&env_dir);
}
