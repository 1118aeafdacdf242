//! The process-wide pool starts its threads once: after a warm-up job,
//! jobs run on the threads already there. Its own test binary, because
//! the thread pin and the started-thread counter are process-global.

use qods_core::study::StudyConfig;
use qods_obs::sites::POOL_WORKERS_SPAWNED;
use qods_service::{Overrides, RunRequest, Scheduler};

fn started() -> u64 {
    qods_obs::Registry::global()
        .counter(POOL_WORKERS_SPAWNED)
        .get()
}

#[test]
fn jobs_start_no_threads_once_the_pool_is_warm() {
    // Two workers, whatever the host, so jobs really fan out.
    qods_pool::set_thread_override(Some(2));
    let sched = Scheduler::with_options(StudyConfig::smoke(), 2, false);
    let req = RunRequest::of(["fig4", "table2", "fig15", "widthsweep"]).with_overrides(Overrides {
        n_bits: Some(8),
        mc_trials: Some(2_000),
        synth_max_t: Some(8),
        sweep_points: Some(5),
        ..Overrides::default()
    });
    let warm = sched.run(&req).expect("warm-up job");
    let after_warm_up = started();
    assert_eq!(after_warm_up, 1, "one background helper beside the caller");
    for i in 0..20 {
        let run = sched.run(&req).expect("job");
        assert_eq!(run.computed, req.experiments.len(), "the cache is off");
        for (a, b) in warm.records.iter().zip(&run.records) {
            assert_eq!(a.output, b.output, "job {i}: {} drifted", a.id);
        }
    }
    assert_eq!(started(), after_warm_up, "20 jobs started no thread");
}
