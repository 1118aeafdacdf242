//! Caching never changes an answer: seeded streams of jobs over a few
//! configurations and random selections run on a caching scheduler
//! whose output cache holds only a few outputs, so lookups hit, miss
//! and evict throughout, and every job's records must equal what a
//! cold scheduler answers for the same request. The cache accounting
//! is checked on every job too.

use proptest::prelude::*;
use qods_core::compile::{ArtifactStore, HeapBytes};
use qods_core::experiment::ExperimentOutput;
use qods_core::study::StudyConfig;
use qods_obs::sites;
use qods_service::{ContextPool, JobResult, Overrides, RunRequest, Scheduler};
use std::sync::Arc;

/// Cheap experiments: three that read no knob, `fig4` (which reads the
/// seed) and `table9` (which reads the kernel width), so an output
/// served under the wrong configuration changes an answer.
const CHEAP: [&str; 5] = ["table1", "table5", "fig11", "fig4", "table9"];

/// The three smoke configurations the jobs draw from.
fn overrides(config: usize) -> Overrides {
    Overrides {
        n_bits: Some(4 + config),
        seed: Some(7 + config as u64),
        mc_trials: Some(256),
        noise_scale: Some(10.0),
        synth_max_t: Some(4),
        ..Overrides::default()
    }
}

/// The request for `config` selecting the experiments whose bits are
/// set in `mask`, in registry order or reversed.
fn request(config: usize, mask: u32, reversed: bool) -> RunRequest {
    let mut ids: Vec<&str> = (0..CHEAP.len())
        .filter(|&i| mask & (1 << i) != 0)
        .map(|i| CHEAP[i])
        .collect();
    if reversed {
        ids.reverse();
    }
    RunRequest::of(ids).with_overrides(overrides(config))
}

/// What the pool charges one output.
fn charge(output: &ExperimentOutput) -> usize {
    std::mem::size_of::<ExperimentOutput>() + output.heap_bytes()
}

/// The `(id, output)` pairs of a job, the part caching must not touch.
fn answers(result: &JobResult) -> Vec<(&str, &ExperimentOutput)> {
    result
        .records
        .iter()
        .map(|r| (r.id.as_str(), &r.output))
        .collect()
}

/// A budget of three of the largest outputs, so the cache holds a few
/// outputs and evicts under this traffic.
fn small_budget(cold: &Scheduler) -> usize {
    let mut largest = 0;
    for config in 0..3 {
        let all = cold.run(&request(config, 0b11111, false)).expect("runs");
        for record in &all.records {
            largest = largest.max(charge(&record.output));
        }
    }
    3 * largest
}

#[test]
fn the_configurations_give_different_answers() {
    let cold = Scheduler::with_options(StudyConfig::smoke(), 1, false);
    for id in ["fig4", "table9"] {
        let outputs: Vec<ExperimentOutput> = (0..3)
            .map(|config| {
                let req = RunRequest::of([id]).with_overrides(overrides(config));
                cold.run(&req).expect("runs").records[0].output.clone()
            })
            .collect();
        assert_ne!(outputs[0], outputs[1], "{id}");
        assert_ne!(outputs[1], outputs[2], "{id}");
        assert_ne!(outputs[0], outputs[2], "{id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn caching_never_changes_an_answer(
        jobs in proptest::collection::vec((0usize..3, 1u32..32, 0u8..2), 36..45),
    ) {
        let cold = Scheduler::with_options(StudyConfig::smoke(), 1, false);
        let budget = small_budget(&cold);
        let warm = Scheduler::with_pool(StudyConfig::smoke(), 2, |base| {
            ContextPool::with_store(base, budget, Arc::new(ArtifactStore::in_memory()))
        });
        let bytes = warm.pool().metrics().gauge(sites::CACHE_CONTEXT_BYTES);
        for (n, &(config, mask, reversed)) in jobs.iter().enumerate() {
            let req = request(config, mask, reversed == 1);
            let served = warm.run(&req).expect("warm run");
            let expected = cold.run(&req).expect("cold run");
            prop_assert_eq!(answers(&served), answers(&expected), "job {}", n);
            prop_assert_eq!(
                served.output_hits + served.computed,
                req.experiments.len(),
                "job {}",
                n
            );
            prop_assert_eq!(served.context_hit, served.output_hits > 0, "job {}", n);
            let held = bytes.get() as usize;
            prop_assert!(
                held <= budget || warm.pool().len() == 1,
                "job {}: {} B held over a {} B budget",
                n,
                held,
                budget
            );
        }
        let stats = warm.pool().stats();
        prop_assert!(stats.output_hits > 0, "the cache never hit");
        prop_assert!(
            warm.pool().metrics().counter(sites::CACHE_CONTEXT_EVICTIONS).get() > 0,
            "the cache never evicted"
        );
        prop_assert_eq!(stats.context_hits + stats.context_misses, jobs.len() as u64);
    }
}
