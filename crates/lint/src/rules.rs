//! The rule set. Each rule encodes one written invariant of the
//! workspace (see DESIGN.md §12) as a line-level check over a
//! [`ScannedFile`]:
//!
//! * **D1** — no wall-clock/entropy sources in result-producing
//!   crates (results must be pure functions of the config).
//! * **D2** — no `HashMap`/`HashSet` iteration feeding serialization
//!   or hashing (iteration order is nondeterministic; use `BTreeMap`
//!   or sort first).
//! * **S1** — every fault-site, instrumentation-site and wire
//!   error-`kind` string literal must exist in the canonical table
//!   exported by the crate that owns it (`qods-fault`, `qods-obs`,
//!   `qods-net`), so string drift is a lint failure, not a fault that
//!   never fires or a metric nothing reads.
//!
//! All checks run on the masked `code` view (comments and string
//! interiors blanked), except S1's literal validation, which uses the
//! decoded `strings` table.

use crate::scan::{token_positions, ScannedFile, StrLit, Tree};
use crate::{Finding, Tables};

/// The rule identifiers an `allow(...)` annotation may name. The
/// first three are line rules (this module); the last four are graph
/// rules ([`crate::graph_rules`]). Direct `unwrap`/`expect` sites on
/// the serving path are clippy's `unwrap_used`/`expect_used`, denied
/// in CI, not a rule here.
pub const RULE_IDS: &[&str] = &["D1", "D2", "S1", "P1", "L1", "A1"];

/// Crates whose results feed hashed/serialized output; D1 applies.
/// `qods-bench` is the designated home for timing, and `qods-obs` is
/// telemetry by construction (span timestamps never reach result
/// bytes — DESIGN.md §13's determinism boundary); both are exempt.
fn d1_applies(crate_name: &str) -> bool {
    !matches!(crate_name, "qods-bench" | "qods-lint" | "qods-obs")
}

/// Runs every rule over one file, returning raw findings
/// (suppression is applied by the engine, not here).
pub fn run_rules(file: &ScannedFile, tables: &Tables) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_d1(file, &mut out);
    rule_d2(file, &mut out);
    rule_s1(file, tables, &mut out);
    out
}

/// The first string-literal argument of a call whose `(` sits at
/// `open_paren`: a quote right after the paren (spaces allowed), or
/// at the start of the next line for calls the formatter wrapped.
/// `None` when the argument is anything else (a `sites::` constant,
/// an expression).
fn first_arg_literal(file: &ScannedFile, line_idx: usize, open_paren: usize) -> Option<&StrLit> {
    let code = &file.code[line_idx];
    let cb = code.as_bytes();
    let mut c = open_paren + 1;
    while c < cb.len() && cb[c] == b' ' {
        c += 1;
    }
    if c < cb.len() && cb[c] == b'"' {
        file.string_at(line_idx + 1, c)
    } else if code[open_paren + 1..].trim().is_empty() && line_idx + 1 < file.code.len() {
        let next = &file.code[line_idx + 1];
        let c2 = next.len() - next.trim_start().len();
        file.string_at(line_idx + 2, c2)
    } else {
        None
    }
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

/// How an S1 call token is invoked.
#[derive(Clone, Copy)]
enum Call {
    /// `recv.token(`.
    Method,
    /// `qualifier::token(`, where the qualifier must end with the given
    /// text, so unrelated free functions of the same name stay out.
    Path(&'static str),
}

/// One S1 row: a string literal passed as the first argument of any
/// of `tokens` must name an entry of `table`.
struct SiteCall {
    tokens: &'static [&'static str],
    call: Call,
    /// The canonical names, and what they name (for the note).
    table: fn(&Tables) -> &[String],
    what: &'static str,
    /// The table's owner, whose own tests mint scratch names on purpose.
    exempt: &'static str,
    /// Only in files that mention the fault layer: plan-builder method
    /// names are common words.
    fault_aware_only: bool,
}

const SITE_CALLS: &[SiteCall] = &[
    SiteCall {
        tokens: &["check", "check_sleeping", "fired_at", "ops_at"],
        call: Call::Path("fault::"),
        table: |t| &t.sites,
        what: "fault site",
        exempt: "qods-fault",
        fault_aware_only: false,
    },
    SiteCall {
        tokens: &["once", "repeating", "scatter"],
        call: Call::Method,
        table: |t| &t.sites,
        what: "fault site",
        exempt: "qods-fault",
        fault_aware_only: true,
    },
    SiteCall {
        tokens: &["counter", "gauge", "histogram", "counter_value"],
        call: Call::Method,
        table: |t| &t.obs_sites,
        what: "instrumentation site",
        exempt: "qods-obs",
        fault_aware_only: false,
    },
    SiteCall {
        tokens: &["span!", "instant", "fault_fired"],
        call: Call::Path("::"),
        table: |t| &t.obs_sites,
        what: "instrumentation site",
        exempt: "qods-obs",
        fault_aware_only: false,
    },
];

/// S1: every name-bearing string literal must be in the canonical
/// table of the crate that owns it — call-site arguments per
/// [`SITE_CALLS`], sites inside fault-plan grammar literals, and
/// `"kind":"..."` wire fragments.
fn rule_s1(file: &ScannedFile, tables: &Tables, out: &mut Vec<Finding>) {
    if file.crate_name == "qods-lint" {
        return;
    }
    let mentions_fault = file.raw.iter().any(|l| {
        l.contains("qods_fault") || l.contains("FaultPlan") || l.contains("QODS_FAULT_PLAN")
    });
    let rows: Vec<&SiteCall> = SITE_CALLS
        .iter()
        .filter(|r| file.crate_name != r.exempt && (mentions_fault || !r.fault_aware_only))
        .collect();

    for (idx, code) in file.code.iter().enumerate() {
        let cb = code.as_bytes();
        for row in &rows {
            for tok in row.tokens {
                for pos in token_positions(code, tok) {
                    let after = pos + tok.len();
                    let shaped = match row.call {
                        Call::Method => pos > 0 && cb[pos - 1] == b'.',
                        Call::Path(qualifier) => code[..pos].ends_with(qualifier),
                    };
                    if cb.get(after) != Some(&b'(') || !shaped {
                        continue;
                    }
                    let Some(lit) = first_arg_literal(file, idx, after) else {
                        continue;
                    };
                    let names = (row.table)(tables);
                    if !names.iter().any(|s| s == &lit.value) {
                        out.push(finding(
                            file,
                            "S1",
                            lit.line - 1,
                            format!(
                                "unknown {} `{}`; canonical names, owned by {}: {}",
                                row.what,
                                lit.value,
                                row.exempt,
                                names.join(", ")
                            ),
                        ));
                    }
                }
            }
        }
    }

    for lit in &file.strings {
        // Plan grammar literals: `site:nth[+every]=action[:ms]`.
        if mentions_fault && file.crate_name != "qods-fault" {
            for entry in lit.value.split(';') {
                if let Some(site) = plan_entry_site(entry) {
                    if !tables.sites.iter().any(|s| s == site) {
                        out.push(finding(
                            file,
                            "S1",
                            lit.line - 1,
                            format!(
                                "fault plan names unknown site `{site}`; canonical sites: {}",
                                tables.sites.join(", ")
                            ),
                        ));
                    }
                }
            }
        }
        // Wire error kinds: any `"kind":"x"` fragment in any literal.
        let mut rest = lit.value.as_str();
        while let Some(p) = rest.find("\"kind\":\"") {
            let tail = &rest[p + "\"kind\":\"".len()..];
            let Some(q) = tail.find('"') else { break };
            let kind = &tail[..q];
            let identish =
                !kind.is_empty() && kind.bytes().all(|b| b.is_ascii_lowercase() || b == b'_');
            if identish && !tables.kinds.iter().any(|k| k == kind) {
                out.push(finding(
                    file,
                    "S1",
                    lit.line - 1,
                    format!(
                        "wire error kind `{kind}` is not in the protocol table; canonical \
                         kinds: {}",
                        tables.kinds.join(", ")
                    ),
                ));
            }
            rest = &tail[q..];
        }
    }
}

/// Parses one fault-plan entry (`site:nth[+every]=action[:ms]`) just
/// far enough to extract the site name; `None` when the string is not
/// plan-shaped.
fn plan_entry_site(entry: &str) -> Option<&str> {
    let entry = entry.trim();
    let (site, rest) = entry.split_once(':')?;
    let (nth, action) = rest.split_once('=')?;
    let nth = nth.split_once('+').map_or(nth, |(a, _)| a);
    if site.is_empty()
        || !nth.bytes().all(|b| b.is_ascii_digit())
        || nth.is_empty()
        || action.is_empty()
    {
        return None;
    }
    if !site
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_')
    {
        return None;
    }
    Some(site)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_entry_site_accepts_the_grammar_and_rejects_prose() {
        assert_eq!(plan_entry_site("store.read:3=io"), Some("store.read"));
        assert_eq!(
            plan_entry_site("pool.worker:1+4=sleep:20"),
            Some("pool.worker")
        );
        assert_eq!(plan_entry_site("127.0.0.1:8080"), None);
        assert_eq!(plan_entry_site("site:nth=action, like so"), None);
        assert_eq!(plan_entry_site("store.wrte:1=io"), Some("store.wrte"));
        assert_eq!(plan_entry_site("just words"), None);
        assert_eq!(plan_entry_site(""), None);
    }
}
