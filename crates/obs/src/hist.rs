//! Request-latency accounting for the serving layer: a fixed-bucket
//! streaming histogram that records in O(1) with **no allocation in
//! steady state** (two relaxed atomic adds per sample), so the hot
//! request path of a server can afford one per request.
//!
//! The layout is HDR-style: geometric octaves (powers of two in
//! nanoseconds) split into [`SUBBUCKETS`] linear sub-buckets, giving a
//! bounded relative error of `1/SUBBUCKETS` (12.5%) on every reported
//! quantile — plenty for p50/p99 serving dashboards, and far cheaper
//! than retaining per-request samples. Quantiles report the bucket's
//! *upper* bound, so they never understate a latency.
//!
//! [`LatencyHistogram::record`] takes `&self`: one histogram is shared
//! by every connection thread of a server without a lock, so the
//! metrics registry and the `metrics` verb draw from one type.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per power-of-two octave (the resolution knob:
/// relative quantile error is bounded by `1/SUBBUCKETS`).
pub const SUBBUCKETS: usize = 8;
/// Nanosecond octaves covered before clamping (2^40 ns ≈ 18 minutes —
/// far past any request this service answers).
const OCTAVES: usize = 40;
/// Total bucket count.
const BUCKETS: usize = OCTAVES * SUBBUCKETS;

/// A concurrent fixed-bucket latency histogram (see module docs).
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// The bucket index for a sample of `ns` nanoseconds.
fn bucket_index(ns: u64) -> usize {
    // Samples below one full octave of sub-buckets land linearly.
    if ns < SUBBUCKETS as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize; // floor(log2), >= 3
    let shift = octave - SUBBUCKETS.trailing_zeros() as usize;
    let sub = ((ns >> shift) as usize) & (SUBBUCKETS - 1);
    ((octave - 2) * SUBBUCKETS + sub).min(BUCKETS - 1)
}

/// The (inclusive) upper bound in nanoseconds of bucket `index` — what
/// quantile lookups report.
fn bucket_upper_ns(index: usize) -> u64 {
    if index < SUBBUCKETS {
        return index as u64;
    }
    let octave = index / SUBBUCKETS + 2;
    let sub = (index % SUBBUCKETS) as u64;
    let base = 1u64 << octave;
    base + (sub + 1) * (base >> SUBBUCKETS.trailing_zeros()) - 1
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // `[AtomicU64; 320]` has no Default impl at this size; build
        // the boxed array from a vec once, at construction only.
        let counts: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("bucket count is fixed"));
        LatencyHistogram {
            counts,
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free and allocation-free.
    pub fn record(&self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample in nanoseconds. Lock-free and
    /// allocation-free.
    pub fn record_ns(&self, ns: u64) {
        self.counts[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The exact maximum recorded sample, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// The latency at quantile `q` in `[0, 1]`, in nanoseconds: the
    /// upper bound of the bucket holding the `ceil(q * count)`-th
    /// sample (0 when empty). Relative error ≤ `1/SUBBUCKETS`, never
    /// an understatement; the top quantile is capped at the exact
    /// recorded maximum.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_ns(i).min(self.max_ns());
            }
        }
        self.max_ns()
    }

    /// Median latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_ns(0.50) as f64 / 1e3
    }

    /// 99th-percentile latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.quantile_ns(0.99) as f64 / 1e3
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1e3
        }
    }

    /// A serializable point-in-time summary (what the `metrics` verb
    /// and the load report print).
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            mean_us: self.mean_us(),
            p50_us: self.p50_us(),
            p99_us: self.p99_us(),
            max_us: self.max_ns() as f64 / 1e3,
        }
    }
}

/// A snapshot of a [`LatencyHistogram`] — the wire shape of latency in
/// the `metrics` verb (all zeros by default, as for an empty
/// histogram).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Maximum latency, microseconds.
    pub max_us: f64,
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut last = 0;
        for ns in [0u64, 1, 7, 8, 9, 100, 1_000, 65_537, 1 << 30, u64::MAX] {
            let idx = bucket_index(ns);
            assert!(idx < BUCKETS, "index {idx} out of range for {ns}");
            assert!(idx >= last || ns < 8, "bucket order broke at {ns}");
            last = idx;
            // A sample never lands in a bucket whose upper bound is
            // below it (quantiles must not understate).
            if idx < BUCKETS - 1 {
                assert!(bucket_upper_ns(idx) >= ns, "upper bound below {ns}");
            }
        }
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let h = LatencyHistogram::new();
        // Uniform 1..=10_000 microseconds.
        for us in 1..=10_000u64 {
            h.record_ns(us * 1_000);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile_ns(0.50) as f64;
        let p99 = h.quantile_ns(0.99) as f64;
        let expect50 = 5_000_000.0;
        let expect99 = 9_900_000.0;
        // Upper-bound reporting: never below the true quantile, and
        // within one sub-bucket (12.5%) above it.
        assert!(p50 >= expect50 && p50 <= expect50 * 1.13, "p50 {p50}");
        assert!(p99 >= expect99 && p99 <= expect99 * 1.13, "p99 {p99}");
        assert_eq!(h.max_ns(), 10_000_000);
        // The top quantile reports the exact maximum, not a bucket lid.
        assert_eq!(h.quantile_ns(1.0), 10_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.record_ns(1 + t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
        assert_eq!(h.max_ns(), 4_000);
    }

    #[test]
    fn summary_round_trips_through_serde() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(250));
        h.record(Duration::from_millis(3));
        let s = h.summary();
        let json = serde_json::to_string(&s).expect("serialize");
        let back: LatencySummary = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, s);
        assert_eq!(back.count, 2);
    }
}
