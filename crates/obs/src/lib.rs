//! Observability for the qods serving stack: end-to-end structured
//! request tracing, the unified metrics registry, and an exporter for
//! the Chrome trace-event format (DESIGN.md §13).
//!
//! Three pieces, one crate:
//!
//! * [`trace`] — RAII span guards around a process-wide [`Tracer`].
//!   Span/parent ids are counter-derived (never the clock) so span
//!   *trees* are deterministic; timestamps are telemetry only. Off by
//!   default: a disabled span is one relaxed atomic load. Enabled,
//!   events land in bounded shards via `try_lock` — a full or
//!   contended shard drops (and counts) rather than blocking the
//!   serving path.
//! * [`metrics`] — typed [`Counter`]/[`Gauge`]/histogram handles
//!   registered by [`Site`] in a [`Registry`], replacing the
//!   ad-hoc atomics that used to live on each serving struct; one
//!   serde [`MetricsSnapshot`] feeds the `metrics` verb.
//! * [`export`] — [`export::to_chrome`] (Perfetto-loadable, worker
//!   lanes named) and [`export::stage_breakdown`] for
//!   `repro --trace-out`'s stage table.
//!
//! Site names are the contract: every span and metric site is a
//! [`Site`] constant in [`sites`], and `Site` has no other values, so
//! a call naming a site that is not in the table does not compile.
//!
//! This crate is dependency-free by design (serde shims only) and
//! sits below every serving crate; like `qods-fault`, it must never
//! change what the system computes — only what it reports.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "telemetry by construction: span timestamps never reach result bytes (DESIGN.md §13)"
)]

pub mod export;
pub mod hist;
pub mod metrics;
pub mod sites;
pub mod trace;

pub use hist::{LatencyHistogram, LatencySummary, SUBBUCKETS};
pub use metrics::{Counter, Gauge, MetricsSnapshot, Registry};
pub use sites::Site;
pub use trace::{SpanGuard, TraceStats, Tracer};

/// Poison-tolerant lock: the crate's one copy of `qods_pool::plock`
/// (this crate sits below the pool and cannot depend on it).
fn plock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Opens a span at a site from [`sites`], optionally with structured
/// args, returning a [`SpanGuard`] that records on drop:
///
/// ```
/// use qods_obs::{span, sites};
/// let _request = span!(sites::NET_REQUEST);
/// let _sched = span!(sites::SVC_SCHEDULE, { config_hash: 0xabcd, role: "leader" });
/// ```
///
/// Field names map to [`SpanGuard`] builders: `cache` and `role` take
/// `&'static str`, `config_hash` a `u64`, `detail` any `&str`, and
/// `child_of` an explicit parent span id for cross-thread linking.
/// While tracing is disabled the expansion costs one relaxed load.
#[macro_export]
macro_rules! span {
    ($site:expr) => {
        $crate::trace::span($site)
    };
    ($site:expr, { $($field:ident : $value:expr),+ $(,)? }) => {
        $crate::trace::span($site)$(.$field($value))+
    };
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use crate::trace::{self, tests::TEST_GUARD};
    use crate::{sites, Registry};
    use std::sync::PoisonError;

    #[test]
    fn span_macro_builds_args() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        trace::disable();
        let _ = trace::tracer().drain();
        trace::enable();
        {
            let _plain = span!(sites::NET_READ);
            let _rich = span!(sites::SVC_COALESCE, {
                role: "follower",
                config_hash: 7,
                detail: "j-42",
            });
        }
        trace::disable();
        let events = trace::tracer().drain();
        let rich = events
            .iter()
            .find(|e| e.site == sites::SVC_COALESCE)
            .expect("coalesce span recorded");
        assert_eq!(rich.args.role, Some("follower"));
        assert_eq!(rich.args.config_hash, Some(7));
        assert_eq!(rich.args.detail.as_deref(), Some("j-42"));
        assert!(events.iter().any(|e| e.site == sites::NET_READ));
    }

    #[test]
    fn registry_and_tracer_compose_into_one_snapshot() {
        let _g = TEST_GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        trace::disable();
        let _ = trace::tracer().drain();
        let r = Registry::new();
        r.counter(sites::NET_REQUESTS).inc();
        let snap = r.snapshot();
        assert_eq!(snap.counters["net.requests"], 1);
        assert_eq!(snap.trace.buffered, 0);
    }
}
