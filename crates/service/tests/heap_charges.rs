//! The byte charges the artifact store and the output cache bound
//! themselves by, pinned against a counting allocator: for every
//! charged type, `heap_bytes()` equals the bytes `clone()` allocates.
//! Lives in its own integration binary because the allocator is
//! process-global; it counts only on a thread that asks it to, so
//! tests running in parallel do not disturb each other's counts.

use qods_core::circuit::circuit::Circuit;
use qods_core::compile::{ArtifactStore, Compiler, HeapBytes, SynthBudget};
use qods_core::kernels::{KernelFamily, KernelSpec};
use qods_core::study::StudyConfig;
use qods_obs::{sites, Registry};
use qods_service::{JobResult, RunRequest, Scheduler, CONTEXT_POOL_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

thread_local! {
    /// Bytes allocated on this thread since counting began, or `None`
    /// when it is not counting.
    static COUNTED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The system allocator, counting the bytes each allocation asks for.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's own
// layout and pointer; the count touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + layout.size())));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bytes cloning `value` allocates, after asserting that the
/// clone's `heap_bytes()` counts exactly those.
fn clone_bytes<T: Clone + HeapBytes>(what: &str, value: &T) -> usize {
    COUNTED.with(|c| c.set(Some(0)));
    let copy = value.clone();
    let allocated = COUNTED.with(|c| c.replace(None)).unwrap_or(0);
    assert_eq!(copy.heap_bytes(), allocated, "{what} clone");
    allocated
}

/// Asserts that `value.heap_bytes()` is what cloning it allocates: it
/// holds no growth slack, so its charge is exact.
fn assert_charged_as_cloned<T: Clone + HeapBytes>(what: &str, value: &T) {
    let allocated = clone_bytes(what, value);
    assert!(allocated > 0, "{what} owns no heap");
    assert_eq!(value.heap_bytes(), allocated, "{what}");
}

#[test]
fn lowered_decoded_and_characterized_kernels_are_charged_what_clone_allocates() {
    let dir = std::env::temp_dir().join(format!("qods_heap_charges_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = KernelSpec::parse("qft:32").expect("valid spec");
    let cold = Compiler::new(
        Arc::new(ArtifactStore::persistent(&dir)),
        SynthBudget::default(),
    );
    let scheduled = cold.scheduled(spec).expect("compiles");
    assert_eq!(scheduled.circuit.len(), 11_347);
    assert_charged_as_cloned("lowered QFT-32", &*scheduled);
    let characterization = cold.characterization(spec).expect("characterizes");
    assert_charged_as_cloned("QFT-32 characterization", &*characterization);

    // A fresh store decodes both circuits from the files just written.
    let warm = Compiler::new(
        Arc::new(ArtifactStore::persistent(&dir)),
        SynthBudget::default(),
    );
    let decoded: Arc<Circuit> = warm.ir(spec).expect("decodes");
    let decoded_lowered = warm.scheduled(spec).expect("decodes");
    assert_eq!(warm.store().stats().disk_hits, 2);
    assert_eq!(decoded_lowered.circuit, scheduled.circuit);
    assert_charged_as_cloned("disk-decoded QFT-32 IR", &*decoded);
    assert_charged_as_cloned("disk-decoded lowered QFT-32", &decoded_lowered.circuit);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn freshly_built_ir_holds_no_growth_slack() {
    for family in KernelFamily::ALL {
        for width in [32, 48] {
            let spec = KernelSpec::new(family, width).expect("valid spec");
            assert_charged_as_cloned(&format!("{spec} IR"), &spec.build_ir());
        }
    }
}

/// One paper-config job over its own store, run once for the tests
/// below.
fn paper_job() -> &'static (Scheduler, JobResult) {
    static JOB: OnceLock<(Scheduler, JobResult)> = OnceLock::new();
    JOB.get_or_init(|| {
        let store = Arc::new(ArtifactStore::in_memory());
        let scheduler = Scheduler::with_store(StudyConfig::default(), 2, store);
        let result = scheduler
            .run(&RunRequest::default())
            .expect("the paper job runs");
        (scheduler, result)
    })
}

#[test]
fn every_paper_output_is_charged_what_clone_allocates() {
    let (_, result) = paper_job();
    assert_eq!(result.records.len(), 14);
    // The pool caches a clone of each output, so that is what its
    // charge must count exactly.
    for record in &result.records {
        clone_bytes(&record.id, &record.output);
    }
}

#[test]
fn a_paper_job_never_evicts_under_the_default_budget() {
    let (scheduler, _) = paper_job();
    let store = scheduler
        .pool()
        .store()
        .expect("a caching scheduler's store");
    let stats = store.stats();
    // The three paper kernels' ir, sched and char, and a report for
    // each of the other 22 width-sweep kernels, which lower
    // transiently and keep no circuit.
    assert_eq!((stats.computed, stats.evictions), (31, 0));
    let gauge = |registry: &Registry, site| registry.gauge(site).get() as usize;
    // Measured 137,225 B. Keeping one more lowered kernel (Draper-48
    // alone is 440 KB) would break the bound.
    let mem_bytes = gauge(store.metrics(), sites::STORE_MEM_BYTES);
    assert!(mem_bytes <= 150_000, "{mem_bytes} B");
    // The pool retains all 14 outputs of the job, and the documented
    // 40 such jobs fit its budget.
    let pool = scheduler.pool();
    assert_eq!(pool.len(), 14);
    assert_eq!(
        pool.metrics().counter(sites::CACHE_CONTEXT_EVICTIONS).get(),
        0
    );
    let job = gauge(pool.metrics(), sites::CACHE_CONTEXT_BYTES);
    assert!(40 * job <= CONTEXT_POOL_BYTES, "{job} B");
}
