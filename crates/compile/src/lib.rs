//! # qods-compile — the staged kernel-compilation pipeline
//!
//! Before this crate, the lowering chain *kernel → fault-tolerant
//! circuit → schedule → characterization* lived as one opaque
//! in-process step inside the study context: recomputed from scratch
//! in every process, only at the paper's fixed kernel widths. This
//! crate makes it an explicit pipeline of pure, content-hashed
//! transforms —
//!
//! ```text
//! KernelSpec --ir--> Circuit --sched--> ScheduledCircuit --char--> Characterization
//! ```
//!
//! — memoized in a two-tier [`store::ArtifactStore`]: an in-process
//! map (warm-process hits across any number of study contexts) plus
//! an optional on-disk store of versioned, atomically written,
//! corruption-tolerant JSON artifacts (cold-process hits across
//! `repro`/`qods-serve` invocations; default `results/.artifacts/`,
//! overridden by `QODS_ARTIFACT_DIR`). The store single-flights each
//! key through an [`inflight::InflightTable`], so a key is computed
//! once however many threads miss it at the same moment.
//!
//! Everything is keyed by content ([`hash`]: FNV-1a over canonical
//! JSON, the same primitive the `qods-service` request cache uses),
//! so stale artifacts are structurally impossible — changed inputs
//! address different files. [`pipeline::Compiler::compile_many`] fans
//! whole per-item chains out over the `qods-pool` workers with no
//! barrier between stages and is bit-identical at any thread count
//! and any cache state.
//!
//! # Example
//!
//! ```
//! use qods_compile::{ArtifactStore, Compiler, SynthBudget};
//! use qods_kernels::KernelSpec;
//! use std::sync::Arc;
//!
//! let compiler = Compiler::new(
//!     Arc::new(ArtifactStore::in_memory()),
//!     SynthBudget { max_t: 6, target_distance: 5e-2 },
//! );
//! let spec = KernelSpec::parse("qrca:4").expect("valid spec");
//! let compiled = compiler.compile(spec).expect("compiles");
//! assert_eq!(compiled.characterization.report.n_qubits, 13);
//! // The second compile is served entirely from the store.
//! let computed = compiler.store().stats().computed;
//! compiler.compile(spec).expect("cached");
//! assert_eq!(compiler.store().stats().computed, computed);
//! ```

// The compile store sits on the serving path: no panicking unwraps —
// proven invariants use `unwrap_or_else(|e| unreachable!(...))`,
// locks use `unwrap_or_else(PoisonError::into_inner)`. Tests opt
// back in locally with `#[allow]`. Lint rule R1 enforces the same.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod hash;
pub mod inflight;
pub mod lru;
pub mod pipeline;
pub mod store;

pub use inflight::{Begin, InflightTable};
pub use lru::Lru;
pub use pipeline::{Characterization, CompiledKernel, Compiler, ScheduledCircuit, SynthBudget};
pub use store::{
    ArtifactKey, ArtifactStore, StoreStats, ARTIFACT_DIR_ENV, ARTIFACT_SCHEMA,
    DEFAULT_ARTIFACT_DIR, MEM_TIER_ENTRIES,
};

use qods_kernels::{KernelFamily, KernelSpec};

/// The paper's benchmark set at a given operand width: QRCA, QCLA,
/// and QFT, in the paper's order (`n_bits` = 32 reproduces §3.1).
pub fn paper_specs(n_bits: usize) -> Vec<KernelSpec> {
    [KernelFamily::Qrca, KernelFamily::Qcla, KernelFamily::Qft]
        .into_iter()
        .map(|family| KernelSpec {
            family,
            width: n_bits,
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_are_the_three_benchmarks() {
        let specs = paper_specs(32);
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].to_string(), "qrca:32");
        assert_eq!(specs[1].to_string(), "qcla:32");
        assert_eq!(specs[2].to_string(), "qft:32");
    }
}
