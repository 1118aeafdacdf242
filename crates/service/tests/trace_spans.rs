//! The tracing contracts of DESIGN.md §13, checked at the service
//! layer: drained span trees are well-formed at any pool size (every
//! recorded span closed, parent ids resolve, same-lane spans nest
//! like the guard stack that produced them), and arming the tracer
//! never changes a single result byte.
//!
//! The tracer is process-global, so every test here serializes on one
//! lock and drains residue before arming.

use proptest::prelude::*;
use qods_core::study::StudyConfig;
use qods_obs::trace::{Phase, SpanEvent};
use qods_service::{Overrides, RunRequest, Scheduler};
use std::sync::{Mutex, PoisonError};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A cheap request batch with `unique` distinct configurations.
fn batch(requests: usize, unique: usize) -> Vec<RunRequest> {
    (0..requests)
        .map(|i| {
            RunRequest::of(["fig4", "table2"]).with_overrides(Overrides {
                n_bits: Some(6),
                mc_trials: Some(300),
                seed: Some(100 + (i % unique.max(1)) as u64),
                ..Overrides::default()
            })
        })
        .collect()
}

/// Runs `reqs` on a fresh scheduler with tracing armed and returns
/// the drained events (the guard must be held by the caller).
fn traced_run(threads: usize, reqs: &[RunRequest]) -> Vec<SpanEvent> {
    let tracer = qods_obs::trace::tracer();
    tracer.drain(); // residue from whoever traced before us
    qods_obs::trace::enable();
    let sched = Scheduler::with_options(StudyConfig::smoke(), threads, true);
    for (i, req) in reqs.iter().enumerate() {
        sched
            .run(req)
            .unwrap_or_else(|e| panic!("request {i} failed under tracing: {e}"));
    }
    qods_obs::trace::disable();
    tracer.drain()
}

fn well_formed(events: &[SpanEvent]) {
    assert!(!events.is_empty(), "a traced run records spans");
    // Ids are unique and non-zero (0 is the root parent sentinel).
    let mut ids: Vec<u64> = events.iter().map(|e| e.span_id).collect();
    ids.sort_unstable();
    assert!(ids.first() != Some(&0), "span id 0 is reserved for roots");
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicate span ids in one drain");

    // Every parent resolves to a recorded *span* (never an instant).
    // A span only reaches the buffer when its guard drops, so a
    // resolved parent is also proof the parent closed.
    for e in events {
        if e.parent_id == 0 {
            continue;
        }
        let parent = events
            .iter()
            .find(|p| p.span_id == e.parent_id)
            .unwrap_or_else(|| {
                panic!(
                    "span {} at {} has unresolved parent {}",
                    e.span_id,
                    e.site.name(),
                    e.parent_id
                )
            });
        assert_eq!(
            parent.phase,
            Phase::Span,
            "{}'s parent {} is an instant",
            e.site.name(),
            parent.site.name()
        );
        // The child's interval sits inside the parent's: the guard
        // stack closes inner-first, and cross-thread parents (a pool
        // worker's spawning span) stay open across the join.
        assert!(
            e.start_ns >= parent.start_ns
                && e.start_ns + e.dur_ns <= parent.start_ns + parent.dur_ns,
            "span {} [{}, +{}] escapes parent {} [{}, +{}]",
            e.site.name(),
            e.start_ns,
            e.dur_ns,
            parent.site.name(),
            parent.start_ns,
            parent.dur_ns
        );
    }

    // On one lane, spans mirror a guard stack: any two either nest or
    // are disjoint — partial overlap would mean a guard outlived an
    // enclosing scope.
    let spans: Vec<&SpanEvent> = events.iter().filter(|e| e.phase == Phase::Span).collect();
    for a in &spans {
        for b in &spans {
            if a.span_id >= b.span_id || a.lane != b.lane {
                continue;
            }
            let (a0, a1) = (a.start_ns, a.start_ns + a.dur_ns);
            let (b0, b1) = (b.start_ns, b.start_ns + b.dur_ns);
            let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
            let disjoint = a1 <= b0 || b1 <= a0;
            assert!(
                nested || disjoint,
                "lane {} spans {} and {} partially overlap",
                a.lane,
                a.site.name(),
                b.site.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole well-formedness property, at pool sizes spanning
    /// the inline path (1) through oversubscription.
    #[test]
    fn span_trees_are_well_formed_at_any_pool_size(
        threads in 1usize..5,
        requests in 1usize..4,
        unique in 1usize..3,
    ) {
        let _guard = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let events = traced_run(threads, &batch(requests, unique.min(requests)));
        well_formed(&events);
        // The serving path is actually covered: scheduling, context
        // checkout, worker execution, per-experiment spans.
        for site in [
            qods_obs::sites::SVC_SCHEDULE,
            qods_obs::sites::SVC_CONTEXT,
            qods_obs::sites::POOL_WORKER,
            qods_obs::sites::JOB_EXPERIMENT,
        ] {
            prop_assert!(
                events.iter().any(|e| e.site == site),
                "no `{}` span in a {}-thread run",
                site.name(),
                threads
            );
        }
    }
}

/// Arming the tracer must not change a single result byte — span
/// timestamps are telemetry, never inputs (§13's determinism
/// boundary).
#[test]
fn results_are_byte_identical_with_tracing_on_and_off() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let reqs = batch(3, 2);

    qods_obs::trace::disable();
    qods_obs::trace::tracer().drain();
    let quiet = Scheduler::with_options(StudyConfig::smoke(), 2, true);
    let quiet_runs: Vec<_> = reqs
        .iter()
        .map(|r| quiet.run(r).expect("untraced run"))
        .collect();

    qods_obs::trace::enable();
    let traced = Scheduler::with_options(StudyConfig::smoke(), 2, true);
    let traced_runs: Vec<_> = reqs
        .iter()
        .map(|r| traced.run(r).expect("traced run"))
        .collect();
    qods_obs::trace::disable();
    let events = qods_obs::trace::tracer().drain();
    assert!(!events.is_empty(), "the traced arm really traced");

    for (a, b) in quiet_runs.iter().zip(&traced_runs) {
        assert_eq!(a.config_hash, b.config_hash);
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.id, rb.id);
            assert_eq!(ra.output, rb.output, "{} drifted under tracing", ra.id);
        }
    }
}
