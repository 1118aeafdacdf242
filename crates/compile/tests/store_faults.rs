//! Fault-injection coverage for the artifact store's I/O seams: every
//! injected defect (failed write, torn write, failed read, corrupted
//! read) costs at most a recompute — never a crash, never a wrong
//! artifact. Lives in its own integration binary because the injector
//! is process-global.

use qods_compile::store::{ArtifactKey, ArtifactStore, HeapBytes};
use qods_fault::{site, FaultAction, FaultPlan};
use std::path::PathBuf;
use std::sync::Arc;
use std::sync::Mutex;

/// Serializes the tests in this file: one armed plan at a time.
static ARM_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    ARM_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qods_fault_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A heap-free test artifact, encoded as the bare number it holds.
struct Num(u64);

impl HeapBytes for Num {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl serde::Serialize for Num {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl serde::Deserialize for Num {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        u64::from_value(v).map(Num)
    }
}

const KEY: ArtifactKey = ArtifactKey {
    stage: "ir",
    hash: 0x0123_4567_89ab_cdef,
};

#[test]
fn failed_writes_leave_the_store_memory_only_for_that_artifact() {
    let _x = exclusive();
    let dir = temp_dir("enospc");
    qods_fault::arm(FaultPlan::new().once(site::STORE_WRITE, 1, FaultAction::IoError));
    let store = ArtifactStore::persistent(&dir);
    let a: Arc<Num> = store.get_or_compute(KEY, || Num(42));
    assert_eq!(a.0, 42, "the artifact itself is unaffected");
    assert_eq!(store.stats().write_errors, 1);
    assert!(
        !dir.join(KEY.file_name()).exists(),
        "ENOSPC-style failure writes nothing"
    );
    // The memory tier still serves it.
    let b: Arc<Num> = store.get_or_compute(KEY, || panic!("memory tier must hit"));
    assert_eq!(b.0, 42);
    qods_fault::disarm();
    // A later cold store recomputes (the disk file never landed) and
    // heals the disk tier.
    let cold = ArtifactStore::persistent(&dir);
    let c: Arc<Num> = cold.get_or_compute(KEY, || Num(42));
    assert_eq!(c.0, 42);
    assert!(dir.join(KEY.file_name()).is_file(), "healed after disarm");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_writes_are_healed_by_the_corruption_tolerant_read() {
    let _x = exclusive();
    let dir = temp_dir("torn");
    qods_fault::arm(FaultPlan::new().once(site::STORE_WRITE, 1, FaultAction::TornWrite));
    let store = ArtifactStore::persistent(&dir);
    let a: Arc<Num> = store.get_or_compute(KEY, || Num(7));
    assert_eq!(a.0, 7);
    assert_eq!(store.stats().write_errors, 1);
    let torn = std::fs::read_to_string(dir.join(KEY.file_name())).expect("torn file exists");
    assert!(
        serde_json::from_str::<serde_json::Value>(&torn).is_err(),
        "the landed file really is torn: {torn}"
    );
    qods_fault::disarm();
    // A cold store over the torn file: corrupt read, recompute, and
    // the rewrite repairs the file.
    let cold = ArtifactStore::persistent(&dir);
    let b: Arc<Num> = cold.get_or_compute(KEY, || Num(7));
    assert_eq!(b.0, 7);
    let stats = cold.stats();
    assert_eq!(
        (stats.corrupt_reads, stats.computed),
        (1, 1),
        "torn file is a tolerated corrupt read"
    );
    let healed = ArtifactStore::persistent(&dir);
    let c: Arc<Num> = healed.get_or_compute(KEY, || panic!("repaired file must hit"));
    assert_eq!(c.0, 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_read_faults_cost_a_recompute_never_a_wrong_answer() {
    let _x = exclusive();
    let dir = temp_dir("read");
    // Seed a valid artifact with no faults armed.
    qods_fault::disarm();
    let seed_store = ArtifactStore::persistent(&dir);
    let _: Arc<Num> = seed_store.get_or_compute(KEY, || Num(99));

    // Fault read 1 with an I/O error and read 2 with corruption;
    // read 3 is clean.
    qods_fault::arm(
        FaultPlan::new()
            .once(site::STORE_READ, 1, FaultAction::IoError)
            .once(site::STORE_READ, 2, FaultAction::CorruptRead),
    );
    for expected_corrupt in [1, 1, 0] {
        let store = ArtifactStore::persistent(&dir);
        let v: Arc<Num> = store.get_or_compute(KEY, || Num(99));
        assert_eq!(v.0, 99, "faulted reads never surface a wrong artifact");
        assert_eq!(store.stats().corrupt_reads, expected_corrupt);
    }
    assert_eq!(qods_fault::fired_at(site::STORE_READ), 2);
    qods_fault::disarm();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scattered_store_faults_heal_to_a_correct_store() {
    let _x = exclusive();
    let dir = temp_dir("scatter");
    // 8 faults scattered over the first 20 writes and 20 reads,
    // deterministically from a seed.
    qods_fault::arm(
        FaultPlan::new()
            .scatter(site::STORE_WRITE, FaultAction::IoError, 11, 4, 20)
            .scatter(site::STORE_READ, FaultAction::CorruptRead, 13, 4, 20),
    );
    // 20 distinct artifacts through a cold store, then a warm pass.
    let store = ArtifactStore::persistent(&dir);
    for round in 0..2 {
        let probe = ArtifactStore::persistent(&dir);
        for i in 0..10u64 {
            let key = ArtifactKey {
                stage: "ir",
                hash: i,
            };
            let v: Arc<Num> = if round == 0 {
                store.get_or_compute(key, || Num(i * i))
            } else {
                probe.get_or_compute(key, || Num(i * i))
            };
            assert_eq!(v.0, i * i, "round {round}, artifact {i}");
        }
    }
    assert!(qods_fault::fired_total() >= 1, "the scatter plan fired");
    qods_fault::disarm();
    // Faultless final pass: everything heals to a correct store.
    let final_store = ArtifactStore::persistent(&dir);
    for i in 0..10u64 {
        let key = ArtifactKey {
            stage: "ir",
            hash: i,
        };
        let v: Arc<Num> = final_store.get_or_compute(key, || Num(i * i));
        assert_eq!(v.0, i * i);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stored_gate_that_repeats_a_qubit_is_a_corrupt_read_that_heals() {
    use qods_circuit::circuit::Circuit;
    let _x = exclusive();
    qods_fault::disarm();
    let dir = temp_dir("repeat");
    let mut good = Circuit::named(4, "pair");
    good.h(3);
    good.cx(3, 2);
    let seed_store = ArtifactStore::persistent(&dir);
    let _: Arc<Circuit> = seed_store.get_or_compute(KEY, || good.clone());
    // Edit the stored program so its CX acts on qubit 3 twice.
    let path = dir.join(KEY.file_name());
    let text = std::fs::read_to_string(&path).expect("artifact written");
    assert!(text.contains("cx 3 2"), "{text}");
    std::fs::write(&path, text.replace("cx 3 2", "cx 3 3")).expect("rewrite");

    let store = ArtifactStore::persistent(&dir);
    let healed: Arc<Circuit> = store.get_or_compute(KEY, || good.clone());
    assert_eq!(*healed, good);
    let stats = store.stats();
    assert_eq!((stats.corrupt_reads, stats.computed), (1, 1));
    // The recompute rewrote a valid file.
    let warm = ArtifactStore::persistent(&dir);
    let again: Arc<Circuit> = warm.get_or_compute(KEY, || panic!("healed file must hit"));
    assert_eq!(*again, good);
    let _ = std::fs::remove_dir_all(&dir);
}
