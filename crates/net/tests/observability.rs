//! End-to-end observability over the real TCP transport: a traced
//! serve run covers every stage of the pipeline, its Chrome export
//! parses back losslessly, and every exported event sits on a lane
//! the metadata names — the properties that make the trace loadable
//! (and legible) in the Perfetto UI. Also checks that the `metrics`
//! verb merges every registry and that spans stay off when disabled.
//!
//! The tracer is process-global; tests in this binary serialize on
//! one lock so a parallel test's spans never leak into a drain.

use qods_core::study::StudyConfig;
use qods_net::{Client, NetServer, ServeCore, ServeOptions};
use qods_obs::trace::Phase;
use qods_service::Scheduler;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn start_server(options: ServeOptions) -> (SocketAddr, JoinHandle<()>) {
    let scheduler = Scheduler::with_options(StudyConfig::smoke(), 2, true);
    let core = Arc::new(ServeCore::new(scheduler, options));
    let server = NetServer::bind(core, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.serve().expect("serve returns cleanly"));
    (addr, handle)
}

fn job(id: usize) -> String {
    format!(
        "{{\"id\":\"job-{id}\",\"experiments\":[\"fig4\",\"table2\"],\
         \"overrides\":{{\"n_bits\":6,\"mc_trials\":300,\"seed\":{}}}}}",
        40 + id % 2
    )
}

#[test]
fn chrome_export_round_trips_a_real_serve_run_on_named_lanes() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let tracer = qods_obs::trace::tracer();
    tracer.drain();
    qods_obs::trace::enable();

    let (addr, server) = start_server(ServeOptions::default());
    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");
    for i in 0..3 {
        let line = if i % 2 == 0 { &mut a } else { &mut b }
            .roundtrip(&job(i))
            .expect("roundtrip")
            .expect("result line");
        assert!(line.contains("\"event\":\"result\""), "{line}");
    }
    a.shutdown().expect("ack");
    server.join().expect("server exits");

    qods_obs::trace::disable();
    let events = tracer.drain();

    // The run covered every stage of the serving path.
    for stage in ["net.", "svc.", "compile.", "pool."] {
        assert!(
            events
                .iter()
                .any(|e| e.phase == Phase::Span && e.site.name().starts_with(stage)),
            "no `{stage}*` span in a traced serve run"
        );
    }

    let text = qods_obs::export::to_chrome(&events);
    let parsed = qods_obs::export::parse_chrome(&text).expect("export parses back");

    // Lossless: one X per span, one i per instant, one thread_name
    // metadata record per distinct lane.
    let spans = events.iter().filter(|e| e.phase == Phase::Span).count();
    let instants = events.iter().filter(|e| e.phase == Phase::Instant).count();
    let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert_eq!(parsed.iter().filter(|e| e.ph == "X").count(), spans);
    assert_eq!(parsed.iter().filter(|e| e.ph == "i").count(), instants);
    assert_eq!(parsed.iter().filter(|e| e.ph == "M").count(), lanes.len());

    // Every event references a lane the metadata names, and every
    // name is one the exporter mints ("main" / "worker-N" /
    // "thread-N") — what Perfetto shows as track titles.
    let named: Vec<u64> = parsed
        .iter()
        .filter(|e| e.ph == "M")
        .map(|e| e.tid)
        .collect();
    for e in &parsed {
        assert!(
            named.contains(&e.tid),
            "event `{}` on unnamed lane {}",
            e.name,
            e.tid
        );
    }
    for lane in lanes {
        let name = qods_obs::export::lane_name(lane);
        assert!(
            name == "main" || name.starts_with("worker-") || name.starts_with("thread-"),
            "unexpected lane name `{name}`"
        );
    }
}

#[test]
fn metrics_verb_merges_every_registry_and_spans_stay_off_when_disabled() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    qods_obs::trace::disable();
    qods_obs::trace::tracer().drain();

    let (addr, server) = start_server(ServeOptions::default());
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..2 {
        client
            .roundtrip(&job(i))
            .expect("roundtrip")
            .expect("result line");
    }
    let metrics = client.metrics().expect("metrics verb").metrics;
    for site in [
        qods_obs::sites::NET_REQUESTS,
        qods_obs::sites::NET_RESULTS,
        qods_obs::sites::SVC_EXECUTED,
    ] {
        assert_eq!(
            metrics.counters.get(site.name()),
            Some(&2),
            "{}",
            site.name()
        );
    }
    assert!(
        metrics
            .counters
            .contains_key(qods_obs::sites::CACHE_CONTEXT_MISSES.name()),
        "cache counters merged into the snapshot"
    );
    assert!(
        metrics
            .counters
            .contains_key(qods_obs::sites::STORE_COMPUTED.name()),
        "artifact-store counters merged into the snapshot"
    );
    client.shutdown().expect("ack");
    server.join().expect("server exits");

    // Nothing traced while disabled: the fast path records no spans.
    assert!(qods_obs::trace::tracer().drain().is_empty());
}
