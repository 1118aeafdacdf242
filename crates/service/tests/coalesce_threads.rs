//! The coalescing exactly-once contract, driven through the real
//! scheduler: N threads submitting the same request concurrently must
//! trigger exactly **one** execution — proven by the artifact store's
//! compile counter and the pool's output-miss counter, which count
//! actual compute, not wall clock — and every thread must receive
//! identical outputs.

use qods_core::compile::ArtifactStore;
use qods_core::study::StudyConfig;
use qods_service::{Overrides, RunRequest, Scheduler, ServiceError};
use std::sync::{Arc, Barrier};
use std::thread;

fn smoke_overrides() -> Overrides {
    Overrides {
        n_bits: Some(8),
        mc_trials: Some(2_000),
        synth_max_t: Some(8),
        sweep_points: Some(5),
        profile_samples: Some(32),
        ..Overrides::default()
    }
}

#[test]
fn concurrent_identical_requests_execute_exactly_once() {
    let n = 8;
    let store = Arc::new(ArtifactStore::in_memory());
    let scheduler = Arc::new(Scheduler::with_store(
        StudyConfig::smoke(),
        2,
        Arc::clone(&store),
    ));
    let barrier = Arc::new(Barrier::new(n));
    let request = RunRequest::of(["table2", "table3"]).with_overrides(smoke_overrides());

    let threads: Vec<_> = (0..n)
        .map(|_| {
            let scheduler = Arc::clone(&scheduler);
            let barrier = Arc::clone(&barrier);
            let request = request.clone();
            thread::spawn(move || {
                barrier.wait();
                scheduler.run_coalesced(&request).expect("valid request")
            })
        })
        .collect();
    let results: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("no panics"))
        .collect();

    // Exactly one compute, however the threads interleaved: one job
    // that found no output cached, the three kernels' ir, sched and
    // char artifacts compiled once each, and each of the two
    // experiments computed once (a late thread that missed the
    // in-flight window is served by the output cache instead — still
    // zero recompute).
    assert_eq!(store.stats().computed, 9);
    let cache = scheduler.pool().stats();
    assert_eq!(cache.context_misses, 1);
    assert_eq!(cache.output_misses, 2);

    // Every caller got the same answer, byte for byte.
    let first = &results[0].0;
    for (result, _) in &results {
        assert_eq!(result.records.len(), 2);
        for (a, b) in first.records.iter().zip(&result.records) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.output, b.output);
        }
    }

    // Accounting: every submission was either a leader or coalesced.
    let stats = scheduler.stats();
    assert_eq!(stats.jobs_led + stats.jobs_coalesced, n as u64);
    assert!(stats.jobs_led >= 1);
    assert_eq!(stats.in_flight, 0, "nothing left in flight");
}

#[test]
fn distinct_requests_do_not_coalesce() {
    let scheduler = Arc::new(Scheduler::with_options(StudyConfig::smoke(), 2, true));
    let barrier = Arc::new(Barrier::new(2));
    let a = RunRequest::of(["table2"]).with_overrides(smoke_overrides());
    let b = RunRequest::of(["table3"]).with_overrides(smoke_overrides());
    assert_ne!(
        scheduler.job_key(&a).expect("key"),
        scheduler.job_key(&b).expect("key")
    );

    let threads: Vec<_> = [a, b]
        .into_iter()
        .map(|request| {
            let scheduler = Arc::clone(&scheduler);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                scheduler.run_coalesced(&request).expect("valid request")
            })
        })
        .collect();
    for t in threads {
        let (_, coalesced) = t.join().expect("no panics");
        assert!(!coalesced, "different selections must not share a run");
    }
    // Same overrides: the two jobs shared the compiled kernels but
    // computed their own experiments.
    assert_eq!(scheduler.pool().stats().output_misses, 2);
    assert_eq!(scheduler.stats().jobs_coalesced, 0);
}

#[test]
fn selection_aliases_and_the_empty_selection_share_keys() {
    let scheduler = Scheduler::with_options(StudyConfig::smoke(), 1, true);
    // `table6` is an alias of `table5`: same resolved selection.
    let by_primary = scheduler.job_key(&RunRequest::of(["table5"])).expect("key");
    let by_alias = scheduler.job_key(&RunRequest::of(["table6"])).expect("key");
    assert_eq!(by_primary, by_alias);

    // Empty selection == explicit full registry, in registry order.
    let all_ids: Vec<String> = scheduler
        .registry()
        .iter()
        .map(|e| e.id().to_string())
        .collect();
    assert_eq!(
        scheduler.job_key(&RunRequest::default()).expect("key"),
        scheduler.job_key(&RunRequest::of(all_ids)).expect("key")
    );

    // Correlation ids are not part of the identity.
    let mut with_id = RunRequest::of(["table5"]);
    with_id.id = Some("different".to_string());
    assert_eq!(scheduler.job_key(&with_id).expect("key"), by_primary);
}

#[test]
fn leaders_share_errors_with_their_followers() {
    let n = 4;
    let scheduler = Arc::new(Scheduler::with_options(StudyConfig::smoke(), 2, true));
    let barrier = Arc::new(Barrier::new(n));
    // Resolvable selection, invalid resolved width: fails *inside*
    // the coalesced run, so followers receive the leader's error.
    let request = RunRequest::of(["table2"]).with_overrides(Overrides {
        n_bits: Some(4096),
        ..Overrides::default()
    });

    let threads: Vec<_> = (0..n)
        .map(|_| {
            let scheduler = Arc::clone(&scheduler);
            let barrier = Arc::clone(&barrier);
            let request = request.clone();
            thread::spawn(move || {
                barrier.wait();
                scheduler
                    .run_coalesced(&request)
                    .expect_err("invalid width")
            })
        })
        .collect();
    let errors: Vec<_> = threads
        .into_iter()
        .map(|t| t.join().expect("no panics"))
        .collect();
    for e in &errors {
        assert_eq!(e, &errors[0], "all callers observe the same rejection");
        assert!(matches!(e, ServiceError::Kernel(_)), "{e}");
    }
    assert!(scheduler.pool().is_empty(), "rejected jobs cache nothing");
}
