//! Integration tests for the experiment-registry API: id coverage
//! against the documented table, serde round-trips, and the runner's
//! differential oracle — every job the scheduler runs agrees byte for
//! byte with a direct `Experiment::run`.

use speed_of_data::prelude::*;
use speed_of_data::service::{RunRequest, Scheduler};
use std::sync::Arc;

/// The records of one cold smoke-config job over `ids` (the whole
/// registry when empty), run by the scheduler every binary uses.
fn smoke_records(ids: &[&str]) -> Vec<ExperimentRecord> {
    Scheduler::with_options(StudyConfig::smoke(), 2, false)
        .run(&RunRequest::of(ids.iter().copied()))
        .expect("known ids")
        .records
}

/// An output's serialized bytes: what a result line carries.
fn output_bytes(output: &ExperimentOutput) -> String {
    serde_json::to_string(output).expect("serialize output")
}

/// Extracts every backticked experiment id from the artifact table in
/// `qods-core`'s crate docs, so the docs and the registry can never
/// drift apart silently.
fn documented_ids() -> Vec<String> {
    let docs = include_str!("../crates/core/src/lib.rs");
    let mut ids = Vec::new();
    for line in docs.lines() {
        // Table rows look like `//! | Table 9 | `table9` | [...] |`.
        let Some(row) = line.trim_start().strip_prefix("//! |") else {
            continue;
        };
        let cols: Vec<&str> = row.split('|').collect();
        if cols.len() < 2 {
            continue;
        }
        let id_col = cols[1];
        let mut rest = id_col;
        while let Some(start) = rest.find('`') {
            let after = &rest[start + 1..];
            let Some(end) = after.find('`') else { break };
            ids.push(after[..end].to_string());
            rest = &after[end + 1..];
        }
    }
    ids
}

#[test]
fn registry_covers_every_documented_id() {
    let registry = Registry::paper();
    let ids = documented_ids();
    assert!(
        ids.len() >= 14,
        "docs table lists only {} ids: {ids:?}",
        ids.len()
    );
    for id in &ids {
        assert!(
            registry.get(id).is_some(),
            "documented id `{id}` does not resolve in the registry"
        );
    }
    // And the other direction: every registered id (and alias) is
    // documented.
    for info in registry.list() {
        assert!(
            ids.iter().any(|i| i == info.id),
            "registered id `{}` missing from the docs table",
            info.id
        );
        for alias in info.aliases {
            assert!(
                ids.iter().any(|i| i == *alias),
                "alias `{alias}` missing from the docs table"
            );
        }
    }
}

#[test]
fn repro_list_shape_is_complete() {
    let registry = Registry::paper();
    let list = registry.list();
    assert_eq!(list.len(), 14);
    for info in &list {
        assert!(!info.title.is_empty(), "{}: empty title", info.id);
        assert!(
            info.id.chars().all(|c| c.is_ascii_alphanumeric()),
            "{}: ids must be bare alphanumeric tokens",
            info.id
        );
    }
}

#[test]
fn every_experiment_output_round_trips_through_serde() {
    for record in smoke_records(&[]) {
        let json = serde_json::to_string(&record).expect("serialize record");
        let back: ExperimentRecord = serde_json::from_str(&json).expect("deserialize record");
        assert_eq!(
            back, record,
            "{}: JSON round-trip changed the record",
            record.id
        );
        // The output is externally tagged, so archived files are
        // self-describing.
        let value: serde_json::Value = serde_json::from_str(&json).expect("parse as value");
        assert!(
            value
                .get("output")
                .and_then(|o| o.as_object())
                .map(|o| o.len())
                == Some(1),
            "{}: output must be a single-variant tag object",
            record.id
        );
    }
}

/// One full-registry job — what the deleted `Registry::run_all` used to
/// run — through the scheduler at `threads` workers, with caching off
/// or on. A caching run compiles into the returned private store.
fn full_run(
    config: &StudyConfig,
    threads: usize,
    caching: bool,
) -> (Vec<ExperimentRecord>, Arc<ArtifactStore>) {
    let store = Arc::new(ArtifactStore::in_memory());
    let scheduler = if caching {
        Scheduler::with_store(config.clone(), threads, Arc::clone(&store))
    } else {
        Scheduler::with_options(config.clone(), threads, false)
    };
    let records = scheduler
        .run(&RunRequest::default())
        .expect("the full registry runs")
        .records;
    (records, store)
}

/// The runner's differential oracle. For every registered experiment
/// the full-registry job serves the exact output bytes of a single
/// direct `Experiment::run` over a fresh private-store context — at 1,
/// 2 and 3 workers, with caching off and on — and its records assemble
/// into the paper struct field for field.
#[test]
fn single_experiment_runs_agree_with_run_all() {
    const ASSEMBLED: [&str; 6] = ["fig4", "table2", "table9", "table5", "fig15", "fig6"];
    let config = StudyConfig::smoke();
    let registry = Registry::paper();
    let ctx = StudyContext::with_store(config.clone(), Arc::new(ArtifactStore::in_memory()));
    let direct: Vec<(&str, ExperimentOutput)> = registry
        .iter()
        .map(|exp| (exp.id(), exp.run(&ctx)))
        .collect();

    for threads in 1..=3 {
        for caching in [false, true] {
            let (records, _) = full_run(&config, threads, caching);
            assert_eq!(records.len(), direct.len());
            for (record, (id, output)) in records.iter().zip(&direct) {
                assert_eq!(record.id, *id);
                assert_eq!(
                    output_bytes(&record.output),
                    output_bytes(output),
                    "{id} at {threads} workers, caching {caching}"
                );
            }
            // Everything is seeded, so the assembled struct agrees
            // exactly with the direct runs.
            let out = PaperReproduction::from_records(config.clone(), &records);
            for (_, output) in direct.iter().filter(|(id, _)| ASSEMBLED.contains(id)) {
                match output.clone() {
                    ExperimentOutput::Fig4(o) => assert_eq!(o.rows, out.fig4),
                    ExperimentOutput::Table2(o) => assert_eq!(o.rows, out.table2),
                    ExperimentOutput::Table9(o) => assert_eq!(o.rows, out.table9),
                    ExperimentOutput::ZeroFactory(o) => assert_eq!(o, out.factories.zero),
                    ExperimentOutput::Fig15(o) => assert_eq!(o.panels, out.fig15),
                    ExperimentOutput::Cascade(o) => assert_eq!(o.rows, out.cascade),
                    other => panic!("unexpected output variant {other:?}"),
                }
            }
        }
    }
}

/// A caching full-registry job at 1, 2 and 3 workers runs all 14
/// experiments and compiles every kernel artifact it touches once,
/// however many experiments look it up concurrently: each compile is
/// one distinct key in the store's memory tier.
#[test]
fn run_all_lowers_benchmarks_exactly_once_across_parallel_experiments() {
    let config = StudyConfig::smoke();
    for threads in 1..=3 {
        let (records, store) = full_run(&config, threads, true);
        assert_eq!(records.len(), 14);
        assert_eq!(
            store.stats().computed,
            store.len() as u64,
            "at {threads} workers"
        );
        assert!(
            store.stats().mem_hits > 0,
            "experiments share the substrate"
        );
    }
}

#[test]
fn aliases_run_the_same_experiment() {
    let a = smoke_records(&["table5"]);
    let b = smoke_records(&["table6"]);
    assert_eq!(a[0].id, b[0].id);
    assert_eq!(a[0].output, b[0].output);
}

#[test]
fn paper_reproduction_round_trips_and_has_no_tuple_fields() {
    let out = PaperReproduction::from_records(StudyConfig::smoke(), &smoke_records(&[]));
    let json = serde_json::to_string_pretty(&out).expect("serialize");
    let back: PaperReproduction = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, out);
    // Named-struct spot checks on what used to be anonymous tuples.
    let v: serde_json::Value = serde_json::from_str(&json).expect("value");
    let factories = v.get("factories").expect("factories");
    assert!(factories
        .get("zero")
        .and_then(|z| z.get("total_area"))
        .is_some());
    let t2 = v.get("table2").and_then(|t| t.as_array()).expect("table2");
    assert!(t2[0]
        .get("shares")
        .and_then(|s| s.get("ancilla_prep"))
        .is_some());
    let t9 = v.get("table9").and_then(|t| t.as_array()).expect("table9");
    assert!(t9[0].get("data").and_then(|d| d.get("share")).is_some());
    let cascade = v
        .get("cascade")
        .and_then(|c| c.as_array())
        .expect("cascade");
    assert!(cascade[0].get("expected_cx").is_some());
}
