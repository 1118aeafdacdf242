//! The scheduler's isolation boundary under injected faults and
//! deadline budgets: a panicking or cancelled job is one typed error
//! — never a crashed scheduler, never a poisoned cache, never a
//! wrong answer afterwards. Lives in its own integration binary
//! because the fault injector is process-global.

use qods_core::study::StudyConfig;
use qods_fault::{site, FaultAction, FaultPlan};
use qods_service::{JobResult, Overrides, RunRequest, Scheduler, ServiceError};
use std::sync::Mutex;
use std::sync::PoisonError;

/// Serializes every test that runs pool work: an armed plan counts
/// `pool.worker` operations process-wide, so a concurrent test's pool
/// work would consume the plan's faults or trip over them.
static ARM_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    ARM_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn smoke_request(ids: &[&str]) -> RunRequest {
    RunRequest::of(ids.iter().copied()).with_overrides(Overrides {
        n_bits: Some(8),
        mc_trials: Some(2_000),
        noise_scale: Some(10.0),
        synth_max_t: Some(8),
        sweep_points: Some(5),
        profile_samples: Some(32),
        ..Overrides::default()
    })
}

#[test]
fn a_panicking_job_is_a_typed_error_and_the_scheduler_keeps_serving() {
    let _x = exclusive();
    let sched = Scheduler::with_options(StudyConfig::smoke(), 2, true);
    let req = smoke_request(&["table2"]);

    qods_fault::arm(FaultPlan::new().once(site::POOL_WORKER, 1, FaultAction::Panic));
    let err = sched.run(&req).expect_err("injected panic must surface");
    qods_fault::disarm();
    match &err {
        ServiceError::Internal { message } => {
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(sched.stats().panics_caught, 1);

    // The same scheduler — caches, pool, inflight table — still
    // serves the identical request correctly afterwards.
    let ok = sched.run(&req).expect("scheduler survives a caught panic");
    assert_eq!(ok.records.len(), 1);
    assert_eq!(sched.stats().panics_caught, 1, "no further panics");
}

#[test]
fn coalesced_followers_receive_the_leaders_typed_error() {
    let _x = exclusive();
    let sched = Scheduler::with_options(StudyConfig::smoke(), 2, true);
    let req = smoke_request(&["fig4"]);

    // The leader's first Monte-Carlo chunk stalls long enough for the
    // follower to join, then its second chunk panics. fig4's chunk
    // count is fixed by the config, not by how the job fans out over
    // the pool.
    qods_fault::arm(
        FaultPlan::new()
            .once(site::MC_CHUNK, 1, FaultAction::Delay(500))
            .once(site::MC_CHUNK, 2, FaultAction::Panic),
    );
    let (leader_out, follower_out) = std::thread::scope(|s| {
        let leader = s.spawn(|| sched.run_coalesced(&req));
        std::thread::sleep(std::time::Duration::from_millis(100));
        let follower = s.spawn(|| sched.run_coalesced(&req));
        (
            leader.join().expect("leader thread must not die"),
            follower.join().expect("follower thread must not die"),
        )
    });
    qods_fault::disarm();

    let leader_err = leader_out.expect_err("leader saw the injected panic");
    assert!(matches!(leader_err, ServiceError::Internal { .. }));
    let (follower_err, coalesced) = match follower_out {
        Err(e) => (e, true),
        Ok(_) => panic!("follower joined the failing execution and must share its error"),
    };
    assert!(coalesced);
    assert_eq!(follower_err, leader_err, "errors coalesce like results");
    assert_eq!(
        sched.stats().panics_caught,
        1,
        "one execution, one caught panic, shared by both callers"
    );
    assert_eq!(sched.stats().in_flight, 0, "the table is clean afterwards");

    // And the key is not poisoned: the next submission executes.
    assert!(sched.run(&req).is_ok());
}

#[test]
fn expired_deadlines_cancel_with_a_typed_error_and_no_partial_state() {
    let _x = exclusive();
    let req = smoke_request(&["table2", "table3"]);
    let baseline = Scheduler::with_options(StudyConfig::smoke(), 2, true)
        .run(&req)
        .expect("baseline");

    let sched = Scheduler::with_options(StudyConfig::smoke(), 2, true);
    let err = sched
        .run(&req.clone().with_deadline_ms(0))
        .expect_err("a zero budget cannot finish");
    assert_eq!(err, ServiceError::DeadlineExceeded);
    assert_eq!(err.to_string(), "deadline exceeded");
    assert_eq!(sched.stats().deadlines_exceeded, 1);
    assert_eq!(
        sched.stats().panics_caught,
        0,
        "cancellation is not a panic"
    );

    // Nothing partial was cached: the rerun on the same scheduler is
    // bit-identical to a fresh scheduler's run.
    let rerun = sched.run(&req).expect("rerun after cancellation");
    assert_eq!(rerun.records.len(), baseline.records.len());
    for (a, b) in baseline.records.iter().zip(&rerun.records) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.output, b.output, "cancellation must not perturb results");
    }
}

#[test]
fn generous_deadlines_change_nothing() {
    let _x = exclusive();
    let req = smoke_request(&["table9"]);
    let plain = Scheduler::with_options(StudyConfig::smoke(), 2, true)
        .run(&req)
        .expect("plain");
    let budgeted = Scheduler::with_options(StudyConfig::smoke(), 2, true)
        .run(&req.clone().with_deadline_ms(600_000))
        .expect("budgeted");
    assert_eq!(plain.records[0].output, budgeted.records[0].output);
}

#[test]
fn deadlines_are_policy_not_identity() {
    let sched = Scheduler::with_options(StudyConfig::smoke(), 2, true);
    let req = smoke_request(&["table9"]);
    let key_plain = sched.job_key(&req).expect("key");
    let key_budgeted = sched
        .job_key(&req.clone().with_deadline_ms(5))
        .expect("key");
    assert_eq!(
        key_plain, key_budgeted,
        "deadline_ms must not split the coalescing key"
    );
}

#[test]
fn the_server_wide_default_deadline_applies_only_when_unset() {
    let _x = exclusive();
    let sched = Scheduler::with_options(StudyConfig::smoke(), 2, true);
    assert_eq!(sched.default_deadline_ms(), None);
    sched.set_default_deadline_ms(1);
    assert_eq!(sched.default_deadline_ms(), Some(1));

    // A 1 ms server default cancels a request too heavy to finish
    // inside it (millions of Monte-Carlo trials cancel at the first
    // chunk boundary past the budget)...
    let heavy = RunRequest::of(["fig4"]).with_overrides(Overrides {
        n_bits: Some(8),
        mc_trials: Some(50_000_000),
        ..Overrides::default()
    });
    let err = sched.run(&heavy).expect_err("1ms default budget");
    assert_eq!(err, ServiceError::DeadlineExceeded);
    // ...but an explicit per-request budget always wins.
    let ok = sched
        .run(&smoke_request(&["table9"]).with_deadline_ms(600_000))
        .expect("explicit budget overrides the default");
    assert_eq!(ok.records.len(), 1);
    sched.set_default_deadline_ms(0);
    assert_eq!(sched.default_deadline_ms(), None);
}

/// A job's outputs as JSON, without the per-record timings.
fn output_bytes(result: &JobResult) -> String {
    let outputs: Vec<_> = result.records.iter().map(|r| &r.output).collect();
    serde_json::to_string(&outputs).expect("outputs serialize")
}

/// Job A fails on every run: on even runs its deadline has already
/// passed, on odd runs an injected panic hits its Monte-Carlo chunks.
/// Job B has no deadline and reads no Monte Carlo, so neither fault
/// can reach it directly. Both run at once on the one process-wide
/// pool, with two background helpers and a 5 ms stall at every
/// participant start, so A's caller often waits on a participant a
/// helper holds while B's nested fan-outs are open, and helps them.
/// Whatever the schedule, B returns its oracle's bytes and A fails
/// typed. (`qods-pool`'s `helping` tests force that schedule.)
#[test]
fn helping_threads_carry_no_deadline_or_panic_across_jobs() {
    let _x = exclusive();
    qods_pool::set_thread_override(Some(3));
    let b_req = RunRequest::of(["fig15", "table2"]).with_overrides(Overrides {
        n_bits: Some(8),
        synth_max_t: Some(8),
        sweep_points: Some(24),
        ..Overrides::default()
    });
    let oracle = output_bytes(
        &Scheduler::with_options(StudyConfig::smoke(), 2, false)
            .run(&b_req)
            .expect("oracle run"),
    );
    let a_req = smoke_request(&["fig4", "table1", "fig6", "table9"]);
    let a_sched = Scheduler::with_options(StudyConfig::smoke(), 2, false);
    let b_sched = Scheduler::with_options(StudyConfig::smoke(), 2, false);

    qods_fault::arm(
        FaultPlan::new()
            .repeating(site::POOL_WORKER, 1, 1, FaultAction::Delay(5))
            .repeating(site::MC_CHUNK, 1, 1, FaultAction::Panic),
    );
    let b_done = std::sync::atomic::AtomicBool::new(false);
    let (a_runs, b_runs) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut runs = Vec::new();
            while !b_done.load(std::sync::atomic::Ordering::Acquire) {
                let req = if runs.len() % 2 == 0 {
                    a_req.clone().with_deadline_ms(0)
                } else {
                    a_req.clone()
                };
                runs.push(a_sched.run(&req));
            }
            runs
        });
        let b = s.spawn(|| {
            let runs: Vec<_> = (0..4).map(|_| b_sched.run(&b_req)).collect();
            b_done.store(true, std::sync::atomic::Ordering::Release);
            runs
        });
        (
            a.join().expect("job A's thread must not die"),
            b.join().expect("job B's thread must not die"),
        )
    });
    qods_fault::disarm();
    qods_pool::set_thread_override(None);

    for run in b_runs {
        let run = run.expect("job B never sees A's deadline or panic");
        assert_eq!(output_bytes(&run), oracle, "job B's bytes drifted");
    }
    assert!(!a_runs.is_empty());
    for run in a_runs {
        assert!(
            matches!(
                run,
                Err(ServiceError::DeadlineExceeded | ServiceError::Internal { .. })
            ),
            "job A must fail typed: {run:?}"
        );
    }
}
