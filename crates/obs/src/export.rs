//! Exporters for drained trace buffers: the Chrome trace-event format
//! (`chrome://tracing` / Perfetto-loadable), plus the per-stage
//! aggregation `repro --trace-out` prints as a time breakdown.
//!
//! Chrome mapping: every event shares `pid` 1; `tid` is the span's
//! lane (0 = main thread, `1..=N` = pool workers, ≥ 1000 = other
//! threads), and `"M"` metadata events name each lane so Perfetto
//! shows `worker-3` instead of a bare number. Spans render as `"X"`
//! (complete) events with microsecond `ts`/`dur`; instants as `"i"`.
//! Structured args carry the span id/parent link, cache outcome,
//! coalescing role, config hash (hex), and detail.
//!
//! Exports are built from hand-assembled [`Value`] trees rather than
//! derived structs so absent args are *omitted*, not `null` — trace
//! viewers are picky about nulls.

use crate::sites::Site;
use crate::trace::{Phase, SpanEvent, FIRST_DYNAMIC_LANE};
use serde_json::Value;
use std::collections::BTreeMap;

/// The `pid` every event carries (one process per trace file).
const PID: u64 = 1;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn args_value(ev: &SpanEvent) -> Value {
    let mut fields = vec![
        ("span", Value::UInt(ev.span_id)),
        ("parent", Value::UInt(ev.parent_id)),
    ];
    if let Some(cache) = ev.args.cache {
        fields.push(("cache", Value::Str(cache.to_owned())));
    }
    if let Some(role) = ev.args.role {
        fields.push(("role", Value::Str(role.to_owned())));
    }
    if let Some(hash) = ev.args.config_hash {
        fields.push(("config_hash", Value::Str(format!("{hash:016x}"))));
    }
    if let Some(detail) = &ev.args.detail {
        fields.push(("detail", Value::Str(detail.clone())));
    }
    obj(fields)
}

/// A human-readable name for `lane` (the Chrome thread name).
pub fn lane_name(lane: u32) -> String {
    match lane {
        0 => "main".to_owned(),
        n if n < FIRST_DYNAMIC_LANE => format!("worker-{n}"),
        n => format!("thread-{n}"),
    }
}

/// Renders events as a Chrome trace-event document:
/// `{"traceEvents": [...]}` with `"M"` thread-name metadata first,
/// then one `"X"`/`"i"` entry per event (see module docs).
pub fn to_chrome(events: &[SpanEvent]) -> String {
    let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();

    let mut entries: Vec<Value> = lanes
        .iter()
        .map(|&lane| {
            obj(vec![
                ("name", Value::Str("thread_name".to_owned())),
                ("ph", Value::Str("M".to_owned())),
                ("pid", Value::UInt(PID)),
                ("tid", Value::UInt(u64::from(lane))),
                ("args", obj(vec![("name", Value::Str(lane_name(lane)))])),
            ])
        })
        .collect();

    for ev in events {
        // Chrome wants microseconds; keep fractional ns as decimals.
        let ts_us = ev.start_ns as f64 / 1e3;
        let mut fields = vec![
            ("name", Value::Str(ev.site.name().to_owned())),
            ("cat", Value::Str(category(ev.site.name()).to_owned())),
            (
                "ph",
                Value::Str(
                    match ev.phase {
                        Phase::Span => "X",
                        Phase::Instant => "i",
                    }
                    .to_owned(),
                ),
            ),
            ("pid", Value::UInt(PID)),
            ("tid", Value::UInt(u64::from(ev.lane))),
            ("ts", Value::Float(ts_us)),
        ];
        match ev.phase {
            Phase::Span => fields.push(("dur", Value::Float(ev.dur_ns as f64 / 1e3))),
            Phase::Instant => fields.push(("s", Value::Str("t".to_owned()))),
        }
        fields.push(("args", args_value(ev)));
        entries.push(obj(fields));
    }

    let doc = obj(vec![("traceEvents", Value::Array(entries))]);
    match serde_json::to_string(&doc) {
        Ok(text) => text,
        Err(_) => unreachable!("Value serialization is infallible"),
    }
}

/// The `cat` field: the site's layer prefix (`net`, `svc`, `compile`,
/// …), which trace viewers use for filtering.
fn category(site: &str) -> &str {
    site.split('.').next().unwrap_or(site)
}

/// One entry parsed back out of a Chrome trace document — what the
/// round-trip test and `repro --trace-verify` consume.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name (the span site, or `thread_name` for metadata).
    pub name: String,
    /// Chrome phase: `X`, `i`, or `M`.
    pub ph: String,
    /// Thread lane.
    pub tid: u64,
    /// Start, microseconds (0 for metadata).
    pub ts_us: f64,
    /// Duration, microseconds (0 for instants/metadata).
    pub dur_us: f64,
    /// Structured args, flattened to strings.
    pub args: BTreeMap<String, String>,
}

fn value_to_display(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) => f.to_string(),
        _ => String::new(),
    }
}

/// Parses a Chrome trace document back into events, validating the
/// envelope shape (`traceEvents` array of objects with `ph`/`tid`).
pub fn parse_chrome(text: &str) -> Result<Vec<ChromeEvent>, serde_json::Error> {
    use serde_json::Error;
    let doc: Value = serde_json::from_str(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| Error::custom("missing traceEvents array"))?;
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        let field_str = |key: &str| -> Result<String, Error> {
            match ev.get(key) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(Error::custom(format!("event missing string `{key}`"))),
            }
        };
        let field_num = |key: &str| -> f64 { ev.get(key).and_then(Value::as_f64).unwrap_or(0.0) };
        let args = ev
            .get("args")
            .and_then(Value::as_object)
            .map(|fields| {
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), value_to_display(v)))
                    .collect()
            })
            .unwrap_or_default();
        out.push(ChromeEvent {
            name: field_str("name")?,
            ph: field_str("ph")?,
            tid: field_num("tid") as u64,
            ts_us: field_num("ts"),
            dur_us: field_num("dur"),
            args,
        });
    }
    Ok(out)
}

/// Aggregate time spent at one site across a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageAgg {
    /// Spans recorded at the site.
    pub count: u64,
    /// Summed span duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds: each span's duration minus the
    /// durations of its children on the same lane. A child on another
    /// lane runs concurrently with its parent, so it is not
    /// subtracted.
    pub self_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// Per-site time totals for span events (instants are counted with
/// zero duration) — the table behind `repro --trace-out`'s per-stage
/// breakdown. Sorted by site name for deterministic rendering.
pub fn stage_breakdown(events: &[SpanEvent]) -> Vec<(Site, StageAgg)> {
    let lane_of: BTreeMap<u64, u32> = events.iter().map(|ev| (ev.span_id, ev.lane)).collect();
    let mut nested_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in events {
        if lane_of.get(&ev.parent_id) == Some(&ev.lane) {
            *nested_ns.entry(ev.parent_id).or_default() += ev.dur_ns;
        }
    }
    let mut by_site: BTreeMap<Site, StageAgg> = BTreeMap::new();
    for ev in events {
        let agg = by_site.entry(ev.site).or_default();
        agg.count += 1;
        agg.total_ns += ev.dur_ns;
        let nested = nested_ns.get(&ev.span_id).copied().unwrap_or(0);
        agg.self_ns += ev.dur_ns.saturating_sub(nested);
        agg.max_ns = agg.max_ns.max(ev.dur_ns);
    }
    by_site.into_iter().collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::sites;
    use crate::trace::SpanArgs;

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                span_id: 1,
                parent_id: 0,
                site: sites::NET_REQUEST,
                lane: 0,
                start_ns: 1_000,
                dur_ns: 9_000,
                phase: Phase::Span,
                args: SpanArgs::default(),
            },
            SpanEvent {
                span_id: 2,
                parent_id: 1,
                site: sites::SVC_COALESCE,
                lane: 0,
                start_ns: 2_000,
                dur_ns: 500,
                phase: Phase::Span,
                args: SpanArgs {
                    role: Some("leader"),
                    config_hash: Some(0xdead_beef),
                    ..SpanArgs::default()
                },
            },
            SpanEvent {
                span_id: 3,
                parent_id: 2,
                site: sites::POOL_WORKER,
                lane: 2,
                start_ns: 3_000,
                dur_ns: 4_000,
                phase: Phase::Span,
                args: SpanArgs {
                    cache: Some("miss"),
                    ..SpanArgs::default()
                },
            },
            SpanEvent {
                span_id: 4,
                parent_id: 3,
                site: sites::FAULT_FIRED,
                lane: 2,
                start_ns: 3_500,
                dur_ns: 0,
                phase: Phase::Instant,
                args: SpanArgs {
                    detail: Some("pool.worker".to_owned()),
                    ..SpanArgs::default()
                },
            },
        ]
    }

    #[test]
    fn chrome_round_trips_with_named_lanes() {
        let events = sample_events();
        let text = to_chrome(&events);
        let parsed = parse_chrome(&text).expect("parse back");

        // Metadata names exactly the lanes the events use.
        let meta: Vec<&ChromeEvent> = parsed.iter().filter(|e| e.ph == "M").collect();
        let named: Vec<(u64, &str)> = meta
            .iter()
            .map(|e| (e.tid, e.args["name"].as_str()))
            .collect();
        assert_eq!(named, vec![(0, "main"), (2, "worker-2")]);

        // Every non-metadata event references a named lane.
        let lanes: Vec<u64> = meta.iter().map(|e| e.tid).collect();
        let body: Vec<&ChromeEvent> = parsed.iter().filter(|e| e.ph != "M").collect();
        assert_eq!(body.len(), events.len());
        for ev in &body {
            assert!(lanes.contains(&ev.tid), "unknown lane {}", ev.tid);
        }

        // Spans render as X with µs timestamps; instants as i.
        let req = body.iter().find(|e| e.name == "net.request").unwrap();
        assert_eq!(req.ph, "X");
        assert!((req.ts_us - 1.0).abs() < 1e-9);
        assert!((req.dur_us - 9.0).abs() < 1e-9);
        assert_eq!(req.args["span"], "1");
        let fault = body.iter().find(|e| e.name == "fault.fired").unwrap();
        assert_eq!(fault.ph, "i");
        assert_eq!(fault.args["detail"], "pool.worker");
        let co = body.iter().find(|e| e.name == "svc.coalesce").unwrap();
        assert_eq!(co.args["role"], "leader");
        assert_eq!(co.args["config_hash"], "00000000deadbeef");
    }

    #[test]
    fn breakdown_sums_per_site() {
        let agg = stage_breakdown(&sample_events());
        let names: Vec<&str> = agg.iter().map(|(s, _)| s.name()).collect();
        assert_eq!(
            names,
            vec!["fault.fired", "net.request", "pool.worker", "svc.coalesce"]
        );
        let pool = agg
            .iter()
            .find(|(s, _)| *s == sites::POOL_WORKER)
            .unwrap()
            .1;
        assert_eq!(pool.count, 1);
        assert_eq!(pool.total_ns, 4_000);
        assert_eq!(pool.max_ns, 4_000);
    }

    #[test]
    fn self_time_subtracts_only_same_lane_children() {
        let agg = stage_breakdown(&sample_events());
        let self_ns = |site: Site| agg.iter().find(|(s, _)| *s == site).unwrap().1.self_ns;
        // net.request (9 us) nests svc.coalesce (0.5 us) on lane 0.
        assert_eq!(self_ns(sites::NET_REQUEST), 8_500);
        // svc.coalesce's child pool.worker runs on lane 2, concurrently.
        assert_eq!(self_ns(sites::SVC_COALESCE), 500);
        // pool.worker's only child is a zero-length instant.
        assert_eq!(self_ns(sites::POOL_WORKER), 4_000);
        assert_eq!(self_ns(sites::FAULT_FIRED), 0);
    }
}
