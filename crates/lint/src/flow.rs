//! Intra-procedural value flow: a binding tracker that lets a rule
//! ask "does the value bound on this line reach a sink line before
//! the function ends?".
//!
//! The tracking is deliberately shallow — one binding, one function
//! body, token-level uses — because that is the precision the masked
//! lexer view supports without a real parser. Uses are searched in
//! the *raw* lines, not the masked ones: a binding interpolated into
//! a format string (`format!("{hits}")`) is exactly the kind of flow
//! rule A1 exists to catch, and it is only visible inside the string
//! literal. The cost is that a comment or string merely *mentioning*
//! the binding name counts as a use — conservative in the direction
//! of more findings, which the allow mechanism absorbs.

use crate::scan::{let_binding_name, token_positions, ScannedFile};

/// Sinks that turn a value into result/artifact bytes: serialization,
/// hashing, and the render paths. A `Relaxed` atomic load flowing
/// here means a possibly-stale value can reach an output artifact.
pub const RESULT_SINKS: &[&str] = &[
    "serde_json",
    "to_writer",
    "serialize",
    ".hash(",
    "Hasher",
    "fnv1a",
    "format!",
    "write!",
    "writeln!",
    "push_str",
    ".join(",
    "render",
];

/// The first sink token present on a masked code line, if any.
pub fn sink_on(code: &str) -> Option<&'static str> {
    RESULT_SINKS.iter().copied().find(|s| code.contains(s))
}

/// Searches `lines_after` (0-based, within one function body) for a
/// line that both uses `binding` (token-wise, in the raw view) and
/// contains a sink token (in the masked view). Returns the 1-based
/// line and the sink token of the first hit.
pub fn binding_reaches_sink(
    file: &ScannedFile,
    body_range: (usize, usize),
    bound_line: usize,
    binding: &str,
) -> Option<(usize, &'static str)> {
    let (lo, hi) = body_range;
    let hi = hi.min(file.code.len().saturating_sub(1));
    for l in bound_line + 1..=hi {
        if l < lo || file.in_test[l] {
            continue;
        }
        if let Some(sink) = sink_on(&file.code[l]) {
            let used_in_code = !token_positions(&file.code[l], binding).is_empty();
            // Inline format captures live inside the (masked)
            // literal: check the raw line too.
            let used_in_raw = !token_positions(&file.raw[l], binding).is_empty();
            if used_in_code || used_in_raw {
                return Some((l + 1, sink));
            }
        }
        // A reassignment of the binding name ends the tracked value's
        // life; stop rather than misattribute the new value.
        if let_binding_name(&file.code[l]).as_deref() == Some(binding) {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan, Tree};

    fn file(text: &str) -> ScannedFile {
        scan("x/src/lib.rs", "qods-x", Tree::Src, text)
    }

    #[test]
    fn a_binding_interpolated_into_a_format_string_is_a_flow() {
        let f = file(concat!(
            "fn f(a: &A) -> String {\n",
            "    let hits = a.hits.load(Ordering::Relaxed);\n",
            "    format!(\"{hits}\")\n",
            "}\n",
        ));
        assert_eq!(
            binding_reaches_sink(&f, (0, 3), 1, "hits"),
            Some((3, "format!"))
        );
    }

    #[test]
    fn rebinding_the_name_ends_the_tracked_flow() {
        let f = file(concat!(
            "fn f(a: &A) -> String {\n",
            "    let hits = a.hits.load(Ordering::Relaxed);\n",
            "    let hits = 0u64;\n",
            "    format!(\"{hits}\")\n",
            "}\n",
        ));
        assert_eq!(binding_reaches_sink(&f, (0, 4), 1, "hits"), None);
    }

    #[test]
    fn unrelated_sinks_do_not_count_as_uses() {
        let f = file(concat!(
            "fn f(a: &A) -> String {\n",
            "    let hits = a.hits.load(Ordering::Relaxed);\n",
            "    format!(\"other\")\n",
            "}\n",
        ));
        assert_eq!(binding_reaches_sink(&f, (0, 3), 1, "hits"), None);
    }
}
