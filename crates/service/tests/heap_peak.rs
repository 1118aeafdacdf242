//! The live-heap peak of the width sweep, pinned against a counting
//! allocator: on a paper context whose benchmarks are already
//! materialized, at one worker, the `widthsweep` experiment lowers its
//! 22 other kernels straight into the speed-of-data fold and keeps
//! only their reports, so its peak is its IR, its synthesis searches
//! and O(qubits) fold state, not a lowered circuit. A transient
//! per-gate buffer (Draper-48 lowers to 55k gates, 440 KB) fails here,
//! not only in the benchmark's RSS.
//!
//! Lives in its own integration binary, with one test, because the
//! allocator and its counters are process-global.

use qods_core::compile::ArtifactStore;
use qods_core::study::StudyConfig;
use qods_core::{ExperimentOutput, Registry, StudyContext};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, tracking live bytes and their peak.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's own
// layout and pointer; the counters are atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The bound, with 3x headroom over the ~41 KB measured on x86-64
/// Linux in release. Lowering each kernel into a circuit and folding
/// that peaked at ~550 KB.
const PEAK_BOUND: usize = 128 * 1024;

#[test]
fn the_width_sweep_keeps_no_lowered_circuit() {
    qods_pool::set_thread_override(Some(1));
    let ctx =
        StudyContext::with_store(StudyConfig::default(), Arc::new(ArtifactStore::in_memory()));
    // The paper context: its three benchmarks lowered, stored and
    // characterized, as every paper job leaves them.
    assert_eq!(ctx.characterizations().len(), 3);
    let registry = Registry::paper();
    let sweep = registry.get("widthsweep").expect("registered");

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = sweep.run(&ctx);
    let peak = PEAK.load(Ordering::Relaxed) - before;

    let ExperimentOutput::WidthSweep(out) = out else {
        panic!("widthsweep produced {out:?}");
    };
    assert_eq!(out.curves.len() * out.widths.len(), 25);
    eprintln!("widthsweep live-heap peak: {peak} bytes (bound {PEAK_BOUND})");
    assert!(
        peak <= PEAK_BOUND,
        "widthsweep live-heap peak {peak} bytes exceeds {PEAK_BOUND}"
    );
}
