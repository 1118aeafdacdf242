//! The experiment registry: list, address, and run paper artifacts
//! individually or all at once (in parallel) over one shared context.
//!
//! ```text
//! cargo run --example experiment_registry --release
//! ```

use speed_of_data::prelude::*;

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

    // 2. One shared context; any subset of experiments. The three
    //    benchmark circuits are lowered once, on first use, no matter
    //    how many experiments run: the context's artifact store
    //    compiles each kernel stage once.
    let ctx = StudyContext::new(StudyConfig::smoke());
    let records = registry
        .run_selected(&["table9", "headline"], &ctx)
        .expect("known ids");
    for r in &records {
        print!("{}", r.output.render());
    }
    println!(
        "(compiled {} kernel artifacts)",
        ctx.compiler().store().stats().computed
    );

    // 3. Or everything at once: `run_all` drains the registry with a
    //    pool of worker threads sized to the machine, and the records
    //    assemble into the full-paper struct `repro` writes as
    //    results/repro.json.
    let all = registry.run_all(&ctx);
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
