//! The unified metrics registry: typed [`Counter`] / [`Gauge`] /
//! histogram handles registered by [`Site`], one registry per
//! serving stack (plus a process-global default), and one serde
//! [`MetricsSnapshot`] every reader — the `metrics` verb, the
//! server's typed `StatsLine` view, `perfbench` — renders from.
//!
//! Each instrumented structure keeps its own semantics (the context
//! pool still counts hits, the gate still gauges permits); what
//! changes is *where the numbers live*: handles are `Arc`s into a
//! [`Registry`], so a snapshot is one walk over sorted maps instead
//! of a hand-maintained field list per struct. Registries are
//! instantiable — a test or bench that builds two servers in one
//! process gives each its own — and [`Registry::global`] serves
//! process-wide singletons like the artifact store.
//!
//! Handle updates are relaxed atomics: metric reads are telemetry and
//! never feed a result line (the A1 lint boundary).

use crate::hist::{LatencyHistogram, LatencySummary};
use crate::plock;
use crate::sites::Site;
use crate::trace::TraceStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing count (requests answered, faults
/// fired). Lock-free; updates are relaxed.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (open connections, permits out). Lock-free;
/// updates are relaxed.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level up by one.
    pub fn rise(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Moves the level down by one.
    pub fn fall(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A set of named metrics with one snapshot shape (see module docs).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<Site, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<Site, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<Site, Arc<LatencyHistogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-global registry (for process-wide singletons; a
    /// per-server stack should carry its own instance).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter registered at `site` (created on first request).
    pub fn counter(&self, site: Site) -> Arc<Counter> {
        Arc::clone(plock(&self.counters).entry(site).or_default())
    }

    /// The gauge registered at `site` (created on first request).
    pub fn gauge(&self, site: Site) -> Arc<Gauge> {
        Arc::clone(plock(&self.gauges).entry(site).or_default())
    }

    /// The histogram registered at `site` (created on first request).
    pub fn histogram(&self, site: Site) -> Arc<LatencyHistogram> {
        Arc::clone(plock(&self.histograms).entry(site).or_default())
    }

    /// One point-in-time view of every registered metric, plus the
    /// process tracer's buffer accounting — the single struct the
    /// `metrics` verb and the bench reports serialize.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: plock(&self.counters)
                .iter()
                .map(|(k, c)| (k.name().to_owned(), c.get()))
                .collect(),
            gauges: plock(&self.gauges)
                .iter()
                .map(|(k, g)| (k.name().to_owned(), g.get()))
                .collect(),
            latency: plock(&self.histograms)
                .iter()
                .map(|(k, h)| (k.name().to_owned(), h.summary()))
                .collect(),
            trace: crate::trace::tracer().stats(),
        }
    }
}

/// The serde form of a [`Registry::snapshot`]: sorted site-name maps,
/// so output is deterministic and new sites need no schema change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by site.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by site.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by site.
    pub latency: BTreeMap<String, LatencySummary>,
    /// Span-buffer occupancy and drop accounting.
    pub trace: TraceStats,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::sites;

    #[test]
    fn handles_share_state_by_site_and_registries_are_isolated() {
        let a = Registry::new();
        let b = Registry::new();
        let c1 = a.counter(sites::NET_REQUESTS);
        let c2 = a.counter(sites::NET_REQUESTS);
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3, "same site, same underlying counter");
        assert_eq!(b.counter(sites::NET_REQUESTS).get(), 0, "isolated");

        let g = a.gauge(sites::NET_CONNECTIONS);
        g.rise();
        g.rise();
        g.fall();
        assert_eq!(g.get(), 1);

        a.histogram(sites::NET_LATENCY)
            .record(std::time::Duration::from_millis(2));
        let snap = a.snapshot();
        assert_eq!(snap.counters["net.requests"], 3);
        assert_eq!(snap.gauges["net.connections"], 1);
        assert_eq!(snap.latency["net.latency"].count, 1);
    }

    #[test]
    fn snapshot_round_trips_through_serde_with_sorted_sites() {
        let r = Registry::new();
        r.counter(sites::SVC_EXECUTED).add(7);
        r.counter(sites::CACHE_CONTEXT_HITS).add(3);
        r.gauge(sites::GATE_ACTIVE).set(2);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        // BTreeMap order: cache.* precedes svc.* in the text itself.
        let cache_at = json.find("cache.context_hits").expect("cache site");
        let svc_at = json.find("svc.executed").expect("svc site");
        assert!(cache_at < svc_at, "sites serialize sorted: {json}");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }
}
