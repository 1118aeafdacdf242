//! # qods-service — the job-service layer
//!
//! PRs 1–3 made the engines fast; this crate makes them *servable*.
//! Instead of "construct a `StudyContext`, run everything once", a
//! caller submits typed [`request::RunRequest`]s — which experiments,
//! under which sparse [`request::Overrides`] — to a
//! [`scheduler::Scheduler`], the one way jobs run (the registry in
//! `qods-core` only lists and resolves), that:
//!
//! * resolves the overrides to a canonical configuration with a
//!   stable content hash ([`request::config_hash`]);
//! * looks finished outputs up in a content-addressed
//!   [`cache::ContextPool`] by `(config hash, experiment id)`, so
//!   repeated work is served without re-lowering,
//!   re-characterizing, or re-simulating anything;
//! * fans cache misses out over the workspace's one shared worker
//!   pool (`qods_pool`), streaming per-job [`scheduler::JobEvent`]s
//!   as experiments finish.
//!
//! Concurrent submissions of the same job coalesce onto one
//! execution ([`scheduler::Scheduler::run_coalesced`], built on the
//! same `qods_compile::InflightTable` with which the artifact store
//! single-flights each kernel artifact). The `qods-net` crate
//! wraps this scheduler in the NDJSON wire protocol (stdio and
//! multi-client TCP via its `qods-serve` binary), and the `perfbench`
//! package drives both to measure throughput, latency and cache-hit
//! rate. See `DESIGN.md` §6–7 for the architecture.
//!
//! ## Quickstart
//!
//! ```
//! use qods_core::study::StudyConfig;
//! use qods_service::{Overrides, RunRequest, Scheduler};
//!
//! let scheduler = Scheduler::with_options(StudyConfig::smoke(), 2, true);
//! let request = RunRequest::of(["table9", "fig7"]).with_overrides(Overrides {
//!     n_bits: Some(8),
//!     ..Overrides::default()
//! });
//! let first = scheduler.run(&request).expect("valid request");
//! let again = scheduler.run(&request).expect("valid request");
//! assert_eq!(again.output_hits, 2); // served entirely from cache
//! assert_eq!(first.records[0].output, again.records[0].output);
//! ```

// The serving path must not have un-typed failure modes: new
// `unwrap()`/`expect()` in this crate's hot paths are rejected by the
// CI clippy gate (`-D warnings`). Use typed errors, or
// `unwrap_or_else(PoisonError::into_inner)` for lock poisoning.
// Tests opt back in locally with `#[allow]`.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod request;
pub mod scheduler;

pub use cache::{CacheStats, ContextPool, CONTEXT_POOL_BYTES};
pub use request::{canonical_config_json, config_hash, Overrides, RunRequest};
pub use scheduler::{JobEvent, JobResult, Scheduler, SchedulerStats, ServiceError};
