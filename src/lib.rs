//! # speed-of-data
//!
//! Umbrella crate for the reproduction of *"Running a Quantum Circuit at
//! the Speed of Data"* (Isailovic, Whitney, Patel, Kubiatowicz — ISCA
//! 2008). It re-exports the full public API from [`qods_core`], so a
//! downstream user only needs this one dependency.
//!
//! See the repository `README.md` for an architecture overview,
//! `DESIGN.md` for the system inventory, and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use speed_of_data::prelude::*;
//!
//! // The pipelined encoded-zero ancilla factory of §4.4.1.
//! let factory = ZeroFactory::paper();
//! let sized = factory.bandwidth_matched();
//! assert_eq!(sized.total_area(), 298);
//! ```

pub use qods_core::*;

/// The job-service layer: typed [`service::RunRequest`]s, the
/// content-addressed [`service::ContextPool`], the
/// [`service::Scheduler`] — the one way to run experiments; the
/// registry only lists and resolves them — and (as `qods-serve`) the
/// NDJSON daemon.
///
/// ```
/// use speed_of_data::service::{Overrides, RunRequest, Scheduler};
/// use speed_of_data::StudyConfig;
///
/// let scheduler = Scheduler::with_options(StudyConfig::smoke(), 2, true);
/// let request = RunRequest::of(["table5"]).with_overrides(Overrides::default());
/// let result = scheduler.run(&request).expect("valid request");
/// assert_eq!(result.records.len(), 1);
/// ```
pub use qods_service as service;
