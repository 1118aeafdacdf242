//! qods-lint — the workspace invariant checker.
//!
//! The repo's determinism contract (bit-identical result lines at any
//! thread count, cache state, and fault plan) and its robustness
//! contract (no panics on the serving path) are written down in
//! DESIGN.md; this crate checks the parts of them that need a
//! cross-crate call graph. A hand-rolled lexer ([`scan`]) masks
//! comments and string interiors out of each source file, a
//! workspace-wide pass builds a symbol index and conservative call
//! graph ([`graph`]), and [`graph_rules`] runs the flow rules **P1**
//! (panic reachability from serving entries), **L1** (lock-order
//! cycles and locks held across checkpoints/blocking I/O), and **A1**
//! (Relaxed atomic loads flowing into result sinks, via [`flow`]).
//! Clock reads and hash iteration order need no rule here: clippy
//! resolves them by path, from the root `clippy.toml`. Config-hash
//! coverage needs no rule either: the canonical encoder and the
//! job key destructure their structs exhaustively, so a new field is
//! a compile error until it is encoded or declared policy; nor do
//! site names, which are the `qods_obs::Site` and `qods_fault::Site`
//! types, whose only values are their crates' tables. Explicit
//! `// qods-lint: allow(RULE) -- reason` annotations suppress
//! individual lines (counted, never silent); any other finding fails
//! the run.
//!
//! It depends on no other workspace crate, only the serde shims.
//!
//! Entry point: `cargo run -p qods-lint`.

pub mod flow;
pub mod graph;
pub mod graph_rules;
pub mod scan;

use scan::{ScannedFile, Tree};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The rule identifiers an `allow(...)` annotation may name: the
/// graph rules of [`graph_rules`]. Direct `unwrap`/`expect` sites on
/// the serving path, clock reads and hash iteration are clippy's, not
/// rules here.
pub const RULE_IDS: &[&str] = &["P1", "L1", "A1"];

/// One lint finding, as emitted on the NDJSON stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Rule identifier (`P1`, `L1`, `A1`, or `L0` for a malformed
    /// annotation).
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The trimmed source line.
    pub snippet: String,
    /// Why this is a finding and what to do instead.
    pub note: String,
}

/// An allow annotation that suppressed nothing — usually a sign the
/// underlying issue was fixed and the annotation should go.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UnusedAllow {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the annotation.
    pub line: u32,
    /// The rules it names.
    pub rules: Vec<String>,
}

/// The outcome of linting one file.
pub struct FileOutcome {
    /// Unsuppressed findings (including `L0` annotation errors).
    pub findings: Vec<Finding>,
    /// Findings suppressed by a valid allow annotation.
    pub suppressed: Vec<Finding>,
    /// Valid annotations that matched no finding.
    pub unused_allows: Vec<UnusedAllow>,
}

/// Lints one source text. `path` is only used for reporting;
/// `crate_name`/`tree` select which rules apply. The graph rules see
/// a one-file workspace, so a fixture file can exercise them.
pub fn lint_source(path: &str, crate_name: &str, tree: Tree, text: &str) -> FileOutcome {
    let files = [scan::scan(path, crate_name, tree, text)];
    lint_scanned(&files)
        .pop()
        .unwrap_or_else(|| unreachable!("one file in, one outcome out"))
}

/// The engine over an already-scanned file set: the graph rules
/// (P1/L1/A1) over the call graph built from *all* the files, with
/// each finding routed back to the file it anchors on so allow
/// annotations apply per file. One outcome per input file, findings
/// sorted by (line, rule).
pub fn lint_scanned(files: &[ScannedFile]) -> Vec<FileOutcome> {
    let index = graph::Index::build(files);
    let mut raw: Vec<Vec<Finding>> = vec![Vec::new(); files.len()];
    for f in graph_rules::run_graph_rules(&index, files) {
        if let Some(i) = files.iter().position(|sf| sf.path == f.file) {
            raw[i].push(f);
        }
    }
    files
        .iter()
        .zip(raw)
        .map(|(sf, raw)| {
            let mut out = apply_allows(sf, raw);
            let key = |f: &Finding| (f.line, f.rule.clone());
            out.findings.sort_by_key(key);
            out.suppressed.sort_by_key(key);
            out
        })
        .collect()
}

/// Splits raw findings into kept vs. suppressed using the file's
/// allow annotations, and raises `L0` findings for malformed or
/// unknown-rule annotations.
fn apply_allows(file: &ScannedFile, raw: Vec<Finding>) -> FileOutcome {
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; file.allows.len()];

    for f in raw {
        let slot = file
            .allows
            .iter()
            .enumerate()
            .find(|(_, a)| a.target as u32 == f.line && a.rules.iter().any(|r| r == &f.rule));
        match slot {
            Some((i, _)) => {
                used[i] = true;
                suppressed.push(f);
            }
            None => findings.push(f),
        }
    }

    for bad in &file.bad_allows {
        findings.push(Finding {
            rule: "L0".to_owned(),
            file: file.path.clone(),
            line: bad.line as u32,
            snippet: file
                .raw
                .get(bad.line - 1)
                .map(|l| l.trim().to_owned())
                .unwrap_or_default(),
            note: format!("malformed qods-lint annotation: {}", bad.why),
        });
    }
    for a in &file.allows {
        for r in &a.rules {
            if !RULE_IDS.contains(&r.as_str()) {
                findings.push(Finding {
                    rule: "L0".to_owned(),
                    file: file.path.clone(),
                    line: a.line as u32,
                    snippet: file
                        .raw
                        .get(a.line - 1)
                        .map(|l| l.trim().to_owned())
                        .unwrap_or_default(),
                    note: format!(
                        "annotation names unknown rule `{r}`; known rules: {}",
                        RULE_IDS.join(", ")
                    ),
                });
            }
        }
    }

    let unused_allows = file
        .allows
        .iter()
        .zip(&used)
        .filter(|(a, u)| !**u && a.rules.iter().all(|r| RULE_IDS.contains(&r.as_str())))
        .map(|(a, _)| UnusedAllow {
            file: file.path.clone(),
            line: a.line as u32,
            rules: a.rules.clone(),
        })
        .collect();

    FileOutcome {
        findings,
        suppressed,
        unused_allows,
    }
}

/// The aggregate outcome of a workspace run.
pub struct WorkspaceReport {
    /// How many files were scanned.
    pub files: usize,
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Suppressed findings, same order.
    pub suppressed: Vec<Finding>,
    /// Annotations that matched nothing.
    pub unused_allows: Vec<UnusedAllow>,
}

impl WorkspaceReport {
    /// True when the run passes: no unsuppressed finding.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Walks the workspace at `root` (root `src/`, `tests/` and
/// `examples/`, then `src/` and `tests/` of every `crates/*` except
/// `crates/lint`) and scans each `.rs` file into the lexer's views.
/// Paths are visited in sorted order so output is deterministic. This
/// is pass 1's input; the CLI also uses it directly for `--graph-out`.
///
/// # Errors
///
/// An I/O error message naming the path that failed.
pub fn scan_workspace(root: &Path) -> Result<Vec<ScannedFile>, String> {
    let mut units: Vec<(PathBuf, String, Tree)> = [
        ("src", Tree::Src),
        ("tests", Tree::Tests),
        ("examples", Tree::Examples),
    ]
    .into_iter()
    .map(|(sub, tree)| (root.join(sub), "speed-of-data".to_owned(), tree))
    .collect();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match std::fs::read_dir(&crates_dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(e) => return Err(format!("cannot read {}: {e}", crates_dir.display())),
    };
    crate_dirs.sort();
    for dir in crate_dirs {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(str::to_owned) else {
            continue;
        };
        if name == "lint" {
            continue; // the linter's own fixtures would trip every rule
        }
        let crate_name = format!("qods-{name}");
        units.push((dir.join("src"), crate_name.clone(), Tree::Src));
        units.push((dir.join("tests"), crate_name, Tree::Tests));
    }

    let mut scanned = Vec::new();
    for (dir, crate_name, tree) in units {
        if !dir.is_dir() {
            continue;
        }
        let mut sources = Vec::new();
        collect_rs(&dir, &mut sources)?;
        sources.sort();
        for path in sources {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            scanned.push(scan::scan(&rel, &crate_name, tree, &text));
        }
    }
    Ok(scanned)
}

/// Scans the workspace at `root` and runs the graph rules over it.
///
/// # Errors
///
/// An I/O error message naming the path that failed.
pub fn lint_workspace(root: &Path) -> Result<WorkspaceReport, String> {
    let scanned = scan_workspace(root)?;
    let outcomes = lint_scanned(&scanned);

    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut unused_allows = Vec::new();
    for out in outcomes {
        findings.extend(out.findings);
        suppressed.extend(out.suppressed);
        unused_allows.extend(out.unused_allows);
    }
    let by_pos = |f: &Finding| (f.file.clone(), f.line, f.rule.clone());
    findings.sort_by_key(by_pos);
    suppressed.sort_by_key(by_pos);
    Ok(WorkspaceReport {
        files: scanned.len(),
        findings,
        suppressed,
        unused_allows,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in rd.filter_map(Result::ok) {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Renders findings as NDJSON — one `{rule, file, line, snippet,
/// note}` object per line.
pub fn to_ndjson(findings: &[Finding]) -> String {
    let mut s = String::new();
    for f in findings {
        s.push_str(&serde_json::to_string(f).unwrap_or_else(|e| {
            unreachable!("a finding of plain strings/ints always serializes: {e}")
        }));
        s.push('\n');
    }
    s
}

/// Parses an NDJSON findings stream back (the round-trip the tests
/// assert).
///
/// # Errors
///
/// A message naming the first line that did not parse.
pub fn from_ndjson(text: &str) -> Result<Vec<Finding>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("bad NDJSON line: {e}: {l}")))
        .collect()
}

/// Renders the human-readable report.
pub fn render_human(report: &WorkspaceReport) -> String {
    let mut s = String::new();
    for f in &report.findings {
        s.push_str(&format!(
            "{}: {}:{}: {}\n    {}\n",
            f.rule, f.file, f.line, f.note, f.snippet
        ));
    }
    s.push_str(&format!(
        "qods-lint: {} files scanned; {} finding(s), {} suppressed by allow annotations\n",
        report.files,
        report.findings.len(),
        report.suppressed.len(),
    ));
    if !report.suppressed.is_empty() {
        let mut by_rule: Vec<(String, usize)> = Vec::new();
        for f in &report.suppressed {
            if let Some(e) = by_rule.iter_mut().find(|(r, _)| r == &f.rule) {
                e.1 += 1;
            } else {
                by_rule.push((f.rule.clone(), 1));
            }
        }
        by_rule.sort();
        let parts: Vec<String> = by_rule
            .into_iter()
            .map(|(r, n)| format!("{r}: {n}"))
            .collect();
        s.push_str(&format!("  suppressions by rule: {}\n", parts.join(", ")));
    }
    for u in &report.unused_allows {
        s.push_str(&format!(
            "warning: unused allow({}) at {}:{} — the finding it covered is gone; remove it\n",
            u.rules.join(", "),
            u.file,
            u.line
        ));
    }
    if report.clean() {
        s.push_str("OK: no findings\n");
    } else {
        s.push_str(&format!("FAIL: {} finding(s)\n", report.findings.len()));
    }
    s
}
