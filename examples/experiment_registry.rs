//! The experiment registry lists and addresses paper artifacts; the
//! job scheduler runs any selection of them — or all at once, in
//! parallel — over one shared context.
//!
//! ```text
//! cargo run --example experiment_registry --release
//! ```

use speed_of_data::compile::ArtifactStore;
use speed_of_data::prelude::*;
use speed_of_data::service::{RunRequest, Scheduler};
use std::sync::Arc;

fn main() {
    let registry = Registry::paper();

    // 1. Experiments are first-class values: enumerable and
    //    addressable by id (or alias — `table6` resolves to the same
    //    experiment as `table5`).
    println!("registered experiments:");
    for info in registry.list() {
        println!("  {:<8} {}", info.id, info.title);
    }
    assert!(registry.get("table6").is_some());
    assert!(registry.get("fig99").is_none());

    // 2. A job names any subset of experiments; the scheduler runs it
    //    over one shared context per configuration. The three
    //    benchmark circuits are lowered once, on first use, no matter
    //    how many experiments run: the artifact store compiles each
    //    kernel stage once.
    let store = Arc::new(ArtifactStore::in_memory());
    let scheduler = Scheduler::with_store(StudyConfig::smoke(), 2, Arc::clone(&store));
    let job = scheduler
        .run(&RunRequest::of(["table9", "headline"]))
        .expect("known ids");
    for r in &job.records {
        print!("{}", r.output.render());
    }
    println!("(compiled {} kernel artifacts)", store.stats().computed);

    // 3. Or everything at once: an empty selection is the whole
    //    registry, planned over the shared worker pool, and the
    //    records assemble into the full-paper struct `repro` writes
    //    as results/repro.json. The repeated `table9` is served from
    //    the scheduler's output cache.
    let all = scheduler
        .run(&RunRequest::default())
        .expect("the full registry runs")
        .records;
    let slowest = all
        .iter()
        .max_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("non-empty registry");
    println!(
        "ran {} experiments; slowest was {} at {:.1} ms",
        all.len(),
        slowest.id,
        1e3 * slowest.seconds
    );
    let full = PaperReproduction::from_records(StudyConfig::smoke(), &all);
    println!(
        "zero factory: {} macroblocks @ {:.1}/ms",
        full.factories.zero.total_area, full.factories.zero.throughput_per_ms
    );
}
