//! # qods-core — the speed-of-data study, end to end
//!
//! This crate is the public face of the reproduction of *"Running a
//! Quantum Circuit at the Speed of Data"* (Isailovic, Whitney, Patel,
//! Kubiatowicz — ISCA 2008). It re-exports the substrate crates and
//! provides the **experiment registry**: every table and figure of the
//! paper is an independent [`experiment::Experiment`], listed and
//! resolved by id, whose `run` reads a shared, memoized
//! [`experiment::StudyContext`]. Jobs — one experiment or all of them,
//! in parallel — run through the `qods-service` scheduler, which
//! plans each one with [`registry::run_planned`].
//! [`report::paper_report`] prints a full run in the paper's layout,
//! and [`study::PaperReproduction::from_records`] assembles it into
//! the `results/repro.json` schema.
//!
//! | artifact | experiment id | source |
//! |---|---|---|
//! | Table 1/4 | `table1`/`table4` | [`qods_phys::latency`] |
//! | Table 2 | `table2` | [`qods_circuit::characterize`](mod@qods_circuit::characterize) |
//! | Table 3 | `table3` | [`qods_circuit::characterize`](mod@qods_circuit::characterize) |
//! | §3.3 | `sec33`/`nontransversal` | [`qods_circuit::characterize`](mod@qods_circuit::characterize) |
//! | Table 5/6 | `table5`/`table6` | [`qods_factory::zero`] |
//! | Table 7/8 | `table7`/`table8` | [`qods_factory::pi8`] |
//! | Table 9 | `table9` | [`qods_arch::table9`] |
//! | Fig 4 | `fig4` | [`qods_steane::eval`] |
//! | Fig 6 | `fig6` | [`qods_synth::cascade`] |
//! | Fig 7 | `fig7` | [`qods_circuit::characterize`](mod@qods_circuit::characterize) |
//! | Fig 8 | `fig8` | [`qods_circuit::throughput`] |
//! | Fig 11 | `fig11` | [`qods_factory::simple`] |
//! | Fig 15 | `fig15`/`headline` | [`qods_arch::sweep`] |
//! | Width sweep (ext.) | `widthsweep`/`widths` | [`qods_compile`] |
//!
//! # Quickstart
//!
//! ```
//! use qods_core::prelude::*;
//!
//! // The paper's pipelined encoded-zero factory (§4.4.1).
//! let sized = ZeroFactory::paper().bandwidth_matched();
//! assert_eq!(sized.total_area(), 298);
//!
//! // Characterize a small adder at the speed of data.
//! let report = characterize(&qrca_lowered(4));
//! assert!(report.breakdown.ancilla_prep_share() > 0.5);
//! ```

pub mod experiment;
pub mod experiments;
pub mod output;
pub mod registry;
pub mod report;
pub mod study;

pub use qods_arch as arch;
pub use qods_circuit as circuit;
pub use qods_compile as compile;
pub use qods_factory as factory;
pub use qods_kernels as kernels;
pub use qods_layout as layout;
pub use qods_phys as phys;
pub use qods_steane as steane;
pub use qods_synth as synth;

pub use experiment::{Experiment, ExperimentOutput, ExperimentRecord, StudyContext, Substrate};
pub use registry::{ExperimentInfo, Registry, RegistryError};
pub use report::Render;
pub use study::{ArchChoice, PaperReproduction, StudyConfig};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::experiment::{
        Experiment, ExperimentOutput, ExperimentRecord, StudyContext, Substrate,
    };
    pub use crate::registry::{ExperimentInfo, Registry, RegistryError};
    pub use crate::report::Render;
    pub use crate::study::{ArchChoice, PaperReproduction, StudyConfig, SweepRange};
    pub use qods_arch::machine::Arch;
    pub use qods_arch::simulator::{simulate, SimContext};
    pub use qods_arch::sweep::{
        area_sweep, area_sweep_in, log_areas, speedup_summary, speedup_summary_from_curves,
    };
    pub use qods_arch::table9::{table9_row, table9_row_from_bandwidths};
    pub use qods_circuit::characterize::{characterize, demand_profile};
    pub use qods_circuit::circuit::Circuit;
    pub use qods_circuit::latency_model::CharacterizationModel;
    pub use qods_circuit::throughput::{execution_time_us, throughput_sweep};
    pub use qods_compile::{ArtifactStore, Compiler, SynthBudget};
    pub use qods_factory::pi8::Pi8Factory;
    pub use qods_factory::simple::SimpleFactory;
    pub use qods_factory::supply::{FactoryFarm, ZeroFactoryKind};
    pub use qods_factory::zero::ZeroFactory;
    pub use qods_kernels::{
        qcla, qcla_lowered, qft, qft_lowered, qrca, qrca_lowered, KernelError, KernelFamily,
        KernelSpec, SynthAdapter,
    };
    pub use qods_phys::error_model::ErrorModel;
    pub use qods_phys::latency::LatencyTable;
    pub use qods_steane::eval::{evaluate_all, evaluate_prep};
    pub use qods_steane::prep::PrepStrategy;
    pub use qods_synth::cascade::analyze_cascade;
    pub use qods_synth::search::Synthesizer;
}
