//! The rule set. Each rule encodes one written invariant of the
//! workspace (see DESIGN.md §12) as a line-level check over a
//! [`ScannedFile`]:
//!
//! * **D1** — no wall-clock/entropy sources in result-producing
//!   crates (results must be pure functions of the config).
//! * **D2** — no `HashMap`/`HashSet` iteration feeding serialization
//!   or hashing (iteration order is nondeterministic; use `BTreeMap`
//!   or sort first).
//!
//! Both checks run on the masked `code` view (comments and string
//! interiors blanked).

use crate::scan::{token_positions, ScannedFile, Tree};
use crate::Finding;

/// The rule identifiers an `allow(...)` annotation may name. The
/// first two are line rules (this module); the last three are graph
/// rules ([`crate::graph_rules`]). Direct `unwrap`/`expect` sites on
/// the serving path are clippy's `unwrap_used`/`expect_used`, denied
/// in CI, not a rule here.
pub const RULE_IDS: &[&str] = &["D1", "D2", "P1", "L1", "A1"];

/// Crates whose results feed hashed/serialized output; D1 applies.
/// `qods-bench` is the designated home for timing, and `qods-obs` is
/// telemetry by construction (span timestamps never reach result
/// bytes — DESIGN.md §13's determinism boundary); both are exempt.
fn d1_applies(crate_name: &str) -> bool {
    !matches!(crate_name, "qods-bench" | "qods-lint" | "qods-obs")
}

/// Runs every rule over one file, returning raw findings
/// (suppression is applied by the engine, not here).
pub fn run_rules(file: &ScannedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_d1(file, &mut out);
    rule_d2(file, &mut out);
    out
}

fn finding(file: &ScannedFile, rule: &str, line_idx: usize, note: String) -> Finding {
    Finding {
        rule: rule.to_owned(),
        file: file.path.clone(),
        line: (line_idx + 1) as u32,
        snippet: file
            .raw
            .get(line_idx)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default(),
        note,
    }
}

/// D1: wall-clock and entropy tokens in shipping (non-test) code of
/// result-producing crates.
fn rule_d1(file: &ScannedFile, out: &mut Vec<Finding>) {
    if file.tree != Tree::Src || !d1_applies(&file.crate_name) {
        return;
    }
    const TOKENS: &[(&str, &str)] = &[
        ("SystemTime::now", "wall clock"),
        ("Instant::now", "monotonic clock"),
        ("thread_rng", "OS entropy"),
        ("from_entropy", "OS entropy"),
        ("rand::random", "OS entropy"),
    ];
    for (idx, code) in file.code.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        for &(tok, what) in TOKENS {
            if !token_positions(code, tok).is_empty() {
                out.push(finding(
                    file,
                    "D1",
                    idx,
                    format!(
                        "{what} source `{tok}` in a result-producing crate; results must be \
                         pure functions of the config — move timing to qods-bench or annotate \
                         a timing-only site"
                    ),
                ));
            }
        }
    }
}

/// D2: iteration over a `HashMap`/`HashSet`-typed binding near a
/// serialization/hashing sink, plus unordered-container fields inside
/// `derive(Serialize)`/`derive(Hash)` types.
fn rule_d2(file: &ScannedFile, out: &mut Vec<Finding>) {
    if file.tree != Tree::Src || file.crate_name == "qods-lint" {
        return;
    }
    let names = collect_unordered_names(file);

    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_iter",
    ];
    const SINKS: &[&str] = &[
        "serde_json",
        "to_writer",
        "to_string",
        "Serialize",
        "serialize",
        "Fnv",
        "fnv",
        "Hasher",
        ".hash(",
        "write!",
        "writeln!",
        "format!",
        "push_str",
        ".join(",
        "render",
    ];
    const CLEARS: &[&str] = &["sort", "BTree"];

    for (idx, code) in file.code.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        let mut hit = false;
        for m in ITER_METHODS {
            let needle = format!(".{m}");
            for pos in token_positions(code, &needle) {
                let after = pos + needle.len();
                if code.as_bytes().get(after) != Some(&b'(') {
                    continue;
                }
                let receiver = receiver_ident(file, idx, pos);
                if receiver.map(|r| names.contains(&r)).unwrap_or(false) {
                    hit = true;
                }
            }
        }
        // `for pat in [&][mut ][self.]name` loops.
        if !hit && !token_positions(code, "for").is_empty() {
            if let Some(p) = code.find(" in ") {
                let mut rest = code[p + 4..].trim_start();
                for prefix in ["&", "mut ", "self."] {
                    rest = rest.strip_prefix(prefix).unwrap_or(rest);
                }
                let ident: String = rest
                    .bytes()
                    .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
                    .map(char::from)
                    .collect();
                // Bare `for x in map {` only — `map.values()` is the
                // method scan's job.
                let after = rest.as_bytes().get(ident.len());
                if !ident.is_empty() && names.contains(&ident) && after != Some(&b'.') {
                    hit = true;
                }
            }
        }
        if hit {
            let lo = idx.saturating_sub(1);
            let hi = (idx + 3).min(file.code.len().saturating_sub(1));
            let window = file.code[lo..=hi].join("\n");
            let sinky = SINKS.iter().any(|s| window.contains(s));
            let cleared = CLEARS.iter().any(|c| window.contains(c));
            if sinky && !cleared {
                out.push(finding(
                    file,
                    "D2",
                    idx,
                    "HashMap/HashSet iteration feeding a serialization/hashing sink; \
                     iteration order is nondeterministic — use BTreeMap/BTreeSet or sort \
                     before emitting"
                        .to_owned(),
                ));
            }
        }
    }

    // derive(Serialize)/derive(Hash) types with unordered fields.
    for (idx, code) in file.code.iter().enumerate() {
        if file.in_test[idx] || !code.contains("derive") {
            continue;
        }
        let derives_order_sensitive = !token_positions(code, "Serialize").is_empty()
            || !token_positions(code, "Hash").is_empty();
        if !derives_order_sensitive {
            continue;
        }
        // Walk the item body (first '{' after the attribute to its
        // matching '}') looking for unordered container fields.
        let mut depth = 0i64;
        let mut opened = false;
        for (k, ln) in file.code.iter().enumerate().skip(idx + 1) {
            if !opened && ln.contains(';') && !ln.contains('{') {
                break; // tuple struct / item without a body
            }
            for b in ln.bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            if opened
                && (!token_positions(ln, "HashMap").is_empty()
                    || !token_positions(ln, "HashSet").is_empty())
            {
                out.push(finding(
                    file,
                    "D2",
                    k,
                    "unordered container field in a derive(Serialize)/derive(Hash) type; \
                     its serialized form depends on iteration order — use BTreeMap/BTreeSet"
                        .to_owned(),
                ));
            }
            if opened && depth <= 0 {
                break;
            }
            if k > idx + 40 {
                break; // don't scan unbounded on pathological input
            }
        }
    }
}

/// Names of `let` bindings, struct fields, and fn parameters typed
/// `HashMap`/`HashSet` on their declaration line.
fn collect_unordered_names(file: &ScannedFile) -> Vec<String> {
    let mut names = Vec::new();
    for code in &file.code {
        if code.trim_start().starts_with("use ") {
            continue;
        }
        for tok in ["HashMap", "HashSet"] {
            for pos in token_positions(code, tok) {
                let name = let_binding_name(code).or_else(|| name_before_colon(code, pos));
                if let Some(name) = name {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// The identifier declared with type at `pos`: matches
/// `name: [&][mut ]Hash...` — a struct field or a fn parameter.
fn name_before_colon(code: &str, pos: usize) -> Option<String> {
    let mut head = code[..pos].trim_end_matches([' ', '&']);
    head = head.strip_suffix("mut").unwrap_or(head);
    head = head.trim_end_matches([' ', '&']);
    let head = head.strip_suffix(':')?.trim_end();
    let hb = head.as_bytes();
    let mut start = hb.len();
    while start > 0 && (hb[start - 1].is_ascii_alphanumeric() || hb[start - 1] == b'_') {
        start -= 1;
    }
    let name = &head[start..];
    (!name.is_empty()).then(|| name.to_owned())
}

pub(crate) fn let_binding_name(code: &str) -> Option<String> {
    let pos = *token_positions(code, "let").first()?;
    let mut rest = code[pos + 3..].trim_start();
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .bytes()
        .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
        .map(char::from)
        .collect();
    (!name.is_empty()).then_some(name)
}

/// The identifier a `.method(` call is invoked on: the ident chain
/// segment directly before the dot, or — for a chained call whose
/// line starts at the dot — the trailing ident of the previous line.
fn receiver_ident(file: &ScannedFile, line_idx: usize, dot_pos: usize) -> Option<String> {
    let code = &file.code[line_idx];
    let head = &code.as_bytes()[..dot_pos];
    let mut end = head.len();
    let mut start = end;
    while start > 0 && (head[start - 1].is_ascii_alphanumeric() || head[start - 1] == b'_') {
        start -= 1;
    }
    if start < end {
        return Some(String::from_utf8_lossy(&head[start..end]).into_owned());
    }
    // `map\n    .iter()` — take the previous non-empty line's
    // trailing identifier.
    let mut prev = line_idx;
    while prev > 0 {
        prev -= 1;
        let p = file.code[prev].trim_end();
        if p.is_empty() {
            continue;
        }
        let pb = p.as_bytes();
        end = pb.len();
        start = end;
        while start > 0 && (pb[start - 1].is_ascii_alphanumeric() || pb[start - 1] == b'_') {
            start -= 1;
        }
        return (start < end).then(|| String::from_utf8_lossy(&pb[start..end]).into_owned());
    }
    None
}
