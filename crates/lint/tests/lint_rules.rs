//! Fixture-driven proof that every rule fires where it should, stays
//! quiet where it should, and respects allow annotations — plus the
//! NDJSON round-trip and the self-hosting run over the real
//! workspace.

use qods_lint::scan::Tree;
use qods_lint::{from_ndjson, lint_source, to_ndjson, Finding};
use std::path::Path;

fn rule_lines(findings: &[Finding]) -> Vec<(String, u32)> {
    findings.iter().map(|f| (f.rule.clone(), f.line)).collect()
}

fn pairs(list: &[(&str, u32)]) -> Vec<(String, u32)> {
    list.iter().map(|(r, l)| ((*r).to_owned(), *l)).collect()
}

#[test]
fn p1_reports_transitive_panics_stops_at_barriers_and_respects_allow() {
    let text = include_str!("fixtures/p1_violation.rs");
    let out = lint_source("fix/p1.rs", "qods-net", Tree::Src, text);
    assert_eq!(
        rule_lines(&out.findings),
        pairs(&[("P1", 15)]),
        "only the entry-reachable panic; the barrier-guarded and \
         never-called sites stay quiet"
    );
    assert!(
        out.findings[0].note.contains("serve_fixture") && out.findings[0].note.contains("step_two"),
        "the note names the call chain: {}",
        out.findings[0].note
    );
    assert_eq!(rule_lines(&out.suppressed), pairs(&[("P1", 38)]));
    assert!(out.unused_allows.is_empty());
}

#[test]
fn p1_does_not_fire_without_a_serving_entry() {
    let text = include_str!("fixtures/p1_violation.rs");
    // Same code in a leaf crate with no entry signatures: unreachable.
    let out = lint_source("fix/p1.rs", "qods-phys", Tree::Src, text);
    assert!(rule_lines(&out.findings).iter().all(|(r, _)| r != "P1"));
}

#[test]
fn l1_reports_inversion_cycles_and_locks_held_across_checkpoints() {
    let text = include_str!("fixtures/l1_violation.rs");
    let out = lint_source("fix/l1.rs", "qods-service", Tree::Src, text);
    assert_eq!(
        rule_lines(&out.findings),
        pairs(&[("L1", 13), ("L1", 24)]),
        "the a->b/b->a cycle (anchored at the first edge) and the \
         checkpoint-spanning hold"
    );
    assert!(
        out.findings[0].note.contains("Pair.a") && out.findings[0].note.contains("Pair.b"),
        "the cycle note names both locks: {}",
        out.findings[0].note
    );
    assert_eq!(rule_lines(&out.suppressed), pairs(&[("L1", 31)]));
}

#[test]
fn a1_reports_relaxed_loads_that_flow_into_sinks_and_respects_allow() {
    let text = include_str!("fixtures/a1_violation.rs");
    let out = lint_source("fix/a1.rs", "qods-service", Tree::Src, text);
    assert_eq!(
        rule_lines(&out.findings),
        pairs(&[("A1", 12)]),
        "the flowing load only; the sink-free and rebound loads stay clean"
    );
    assert_eq!(rule_lines(&out.suppressed), pairs(&[("A1", 28)]));
}

#[test]
fn the_drift_workspace_fails_the_run() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/drift_ws");
    let report = qods_lint::lint_workspace(&root).expect("fixture ws lints");
    assert!(
        !report.clean(),
        "the Relaxed load rendered by a result crate must fail"
    );
    let found: Vec<(String, String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.file.clone(), f.line))
        .collect();
    assert_eq!(
        found,
        [("A1".to_owned(), "src/lib.rs".to_owned(), 10)],
        "exactly the A1 drift: {}",
        to_ndjson(&report.findings)
    );
}

/// The sorted qualnames every call in `caller` resolves to, in the
/// fixture workspace at `root`.
fn callees(root: &Path, caller: &str) -> Vec<String> {
    let files = qods_lint::scan_workspace(root).expect("fixture ws scans");
    let index = qods_lint::graph::Index::build(&files);
    let i = index
        .fns
        .iter()
        .position(|f| f.qualname(&files) == caller)
        .expect("caller is indexed");
    let mut out: Vec<String> = index.fns[i]
        .calls
        .iter()
        .flat_map(|c| index.resolve(i, c))
        .map(|j| index.fns[j].qualname(&files))
        .collect();
    out.sort();
    out
}

#[test]
fn unqualified_calls_stay_in_the_callers_crate_and_its_imports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/scoped_ws");
    // Its own `record` and the imported `instant`; never qods-core's.
    assert_eq!(
        callees(&root, "qods-net::serve_line"),
        ["qods-net::record", "qods-obs::instant"]
    );
    assert_eq!(callees(&root, "qods-core::tally"), ["qods-core::record"]);
    // So qods-core's panicking `record` is off the serving path.
    let report = qods_lint::lint_workspace(&root).expect("fixture ws lints");
    assert!(report.clean(), "{}", to_ndjson(&report.findings));
}

#[test]
fn qualified_calls_reach_trait_impls_but_no_other_types_inherent_methods() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/qualified_ws");
    // `Vec::new()` reaches no workspace `new`; `Tally::new`, the
    // module-path call and the trait call still resolve.
    assert_eq!(
        callees(&root, "qods-net::serve_line"),
        [
            "qods-net::Request::from_value",
            "qods-net::Tally::new",
            "qods-obs::instant"
        ]
    );
    // A generic parameter dispatches to the trait impls too.
    assert_eq!(
        callees(&root, "qods-net::decode"),
        ["qods-net::Request::from_value"]
    );
    // So the trait impl's `unwrap` is on the serving path, and
    // qods-core's panicking `Registry::new` is not.
    let report = qods_lint::lint_workspace(&root).expect("fixture ws lints");
    let found: Vec<(String, String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.file.clone(), f.line))
        .collect();
    assert_eq!(
        found,
        [("P1".to_owned(), "crates/net/src/lib.rs".to_owned(), 24)],
        "{}",
        to_ndjson(&report.findings)
    );
}

#[test]
fn the_dot_export_renders_both_graphs() {
    let text = include_str!("fixtures/l1_violation.rs");
    let files = [qods_lint::scan::scan(
        "fix/l1.rs",
        "qods-service",
        Tree::Src,
        text,
    )];
    let index = qods_lint::graph::Index::build(&files);
    let locks = qods_lint::graph_rules::build_lock_graph(&index, &files);
    let dot = qods_lint::graph_rules::render_dot(&index, &files, &locks);
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("lock graph"));
    assert!(
        dot.contains("Pair_a") && dot.contains("Pair_b"),
        "both locks appear as nodes:\n{dot}"
    );
}

#[test]
fn malformed_and_unknown_rule_annotations_are_l0_findings() {
    let text = concat!(
        "// qods-lint: allow(P1)\n",                    // missing reason
        "// qods-lint: allow(Q9) -- no such rule\n",    // unknown rule
        "// qods-lint: allow(P1) -- fine but unused\n", // matches nothing
        "fn quiet() {}\n",
    );
    let out = lint_source("fix/l0.rs", "qods-core", Tree::Src, text);
    assert_eq!(rule_lines(&out.findings), pairs(&[("L0", 1), ("L0", 2)]));
    assert_eq!(out.unused_allows.len(), 1);
    assert_eq!(out.unused_allows[0].line, 3);
}

#[test]
fn ndjson_round_trips_exactly() {
    for (path, crate_name, text) in [
        (
            "fix/l1.rs",
            "qods-service",
            include_str!("fixtures/l1_violation.rs"),
        ),
        (
            "fix/p1.rs",
            "qods-net",
            include_str!("fixtures/p1_violation.rs"),
        ),
    ] {
        let out = lint_source(path, crate_name, Tree::Src, text);
        assert!(!out.findings.is_empty(), "{path} raises a finding");
        let stream = to_ndjson(&out.findings);
        assert_eq!(stream.lines().count(), out.findings.len(), "{path}");
        let back = from_ndjson(&stream).expect("the stream we just wrote parses");
        assert_eq!(back, out.findings, "{path}");
    }
}

#[test]
fn the_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = qods_lint::lint_workspace(&root).expect("workspace lints");
    assert!(
        report.clean(),
        "unsuppressed findings:\n{}",
        to_ndjson(&report.findings)
    );
    // Suppression bookkeeping is part of the report contract: the
    // workspace's allow annotations are all live.
    assert!(report.unused_allows.is_empty());
}

#[test]
fn the_workspace_walk_includes_the_root_examples() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = qods_lint::scan_workspace(&root).expect("workspace scans");
    let quickstart = files
        .iter()
        .find(|f| f.path == "examples/quickstart.rs")
        .expect("examples/quickstart.rs is linted");
    assert_eq!(quickstart.tree, Tree::Examples);
    assert_eq!(quickstart.crate_name, "speed-of-data");
}
