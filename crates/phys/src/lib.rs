//! # qods-phys — physical substrate for the speed-of-data study
//!
//! This crate models the *physical* layer of the paper "Running a Quantum
//! Circuit at the Speed of Data" (Isailovic et al., ISCA 2008):
//!
//! * [`pauli`] — single- and multi-qubit Pauli algebra used for error
//!   tracking (bit flips, phase flips, and their propagation).
//! * [`ops`] — the physical operation set of the ion-trap technology
//!   abstraction (one-/two-qubit gates, measurement, preparation,
//!   straight moves and turns).
//! * [`latency`] — the ion-trap latency model of Tables 1 and 4, plus a
//!   symbolic-latency vector type used to print the paper's symbolic
//!   formulas (Tables 5 and 7) and evaluate them numerically.
//! * [`error_model`] — per-operation independent error probabilities
//!   (gate error 1e-4, movement error 1e-6 in the paper).
//! * [`frame`] — a Pauli-frame simulator over word-packed symplectic
//!   bitmasks: errors are injected stochastically per operation
//!   (geometric skip-sampling at low rates) and propagated through
//!   Clifford conjugation, exactly the style of Monte-Carlo evaluation
//!   the paper performs on its ancilla-preparation circuits. Its
//!   executable specification, a boolean reference frame, lives with
//!   the differential suite in `tests/frame_equivalence.rs`.
//! * [`montecarlo`] — a harness for running many seeded trials
//!   (allocation-free via [`montecarlo::TrialArena`], chunked
//!   work-stealing in parallel) and aggregating acceptance/error
//!   statistics.
//!
//! # Example
//!
//! ```
//! use qods_phys::latency::LatencyTable;
//! use qods_phys::ops::PhysOp;
//!
//! let lat = LatencyTable::ion_trap();
//! // A two-qubit gate costs 10 us in the paper's ion-trap model.
//! assert_eq!(lat.of(&PhysOp::cx(0, 1)), 10.0);
//! ```

pub mod error_model;
pub mod frame;
pub mod latency;
pub mod montecarlo;
pub mod ops;
pub mod pauli;

pub use error_model::{ErrorModel, FaultSampler, FaultSampling};
pub use frame::PauliFrame;
pub use latency::{LatencyTable, SymbolicLatency};
pub use montecarlo::TrialArena;
pub use ops::{PhysOp, PhysOpKind};
pub use pauli::{Pauli, PauliString};
