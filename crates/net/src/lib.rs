//! # qods-net — the network serving layer
//!
//! PR 4 made the engines *servable* (`qods-service`: typed requests,
//! content-addressed cache, shared-pool scheduler); this crate makes
//! them *reachable*: the NDJSON wire protocol ([`protocol`]) served
//! over two transports — the original stdio daemon and a multi-client
//! TCP server (`qods-serve --listen ADDR`, thread-per-connection on
//! `std::net`; the offline build has no async runtime and needs
//! none).
//!
//! Both transports drive one [`server::ServeCore`], which layers the
//! serving concerns the scheduler itself stays free of:
//!
//! * **in-flight coalescing** — concurrent submissions of the same
//!   job key ([`qods_service::Scheduler::job_key`]: canonical config
//!   hash + resolved experiment selection) block on a single
//!   execution and each answer with identical result bytes;
//! * **admission control** ([`admission::Gate`]) — bounded execution
//!   slots plus a bounded wait queue; a burst past both answers a
//!   typed `overloaded` error line instead of queueing without bound,
//!   and per-connection request budgets cap any single client;
//! * **a `metrics` verb** — every counter, gauge and latency summary
//!   of the serving stack by site name: p50/p99/max request latency
//!   from an allocation-free histogram ([`qods_obs::LatencyHistogram`]),
//!   cache hit rates, coalesce counts, queue depth, connection
//!   gauges; verbs bypass admission so `metrics` answers even while
//!   jobs are being shed ([`server::StatsLine`] is the same snapshot
//!   as typed fields, for in-process readers);
//! * **graceful shutdown** — the `shutdown` verb (or stdin EOF, or a
//!   read error) stops intake, drains admitted jobs, and exits 0;
//!   both transports share the one drain path.
//!
//! Responses stay byte-reproducible for a fixed request sequence —
//! the transport byte-identity tests hold stdio bytes, TCP bytes, and
//! direct `Experiment::run` calls equal. See `DESIGN.md` §7 for the
//! wire protocol and serving semantics.
//!
//! **Robustness (PR 7):** the serving path is hardened against
//! misbehaving peers and its own bugs — capped NDJSON line reads
//! (oversize lines answer `bad_request`, never unbounded buffering),
//! socket read/write timeouts with an idle-connection reaper,
//! per-request deadlines (`deadline_ms`) with a server-wide
//! `--default-deadline`, panic isolation in the scheduler (a crashing
//! job is a typed `internal_error` line, not a dead daemon), and a
//! retrying [`client::Client`] with seeded exponential backoff. The
//! whole path is chaos-tested under `qods-fault` injection.

// Typed errors over in-band panics on the serving path: new code must
// not add `unwrap`/`expect` here (CI runs clippy with `-D warnings`).
// Test modules opt back in locally.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;

pub use admission::{Gate, Permit, Refusal};
pub use client::{Client, RetryPolicy};
pub use protocol::{ErrorKind, Request, Verb};
pub use server::{
    ConnState, LineOutcome, LineSink, NetServer, ServeCore, ServeOptions, StatsLine,
    DEFAULT_IDLE_TIMEOUT_SECS, DEFAULT_MAX_LINE_LEN,
};
