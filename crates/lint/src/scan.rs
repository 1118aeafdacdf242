//! A hand-rolled single-pass Rust lexer: enough of the token grammar
//! (line/nested-block comments, cooked/raw/byte strings with escapes,
//! char literals vs. lifetimes) to split a source file into two
//! synchronized views the rules match against:
//!
//! * `raw` — the file's lines verbatim;
//! * `code` — the same lines with comments and string *interiors*
//!   blanked to spaces (byte lengths preserved, so columns line up
//!   with `raw`), which is what token searches run on.
//!
//! A post-pass brace-matches `#[cfg(test)]` items so rules can skip
//! test code, and line comments are parsed for
//! `// qods-lint: allow(RULE) -- reason` suppression annotations.

/// Which source tree of a crate a file lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tree {
    /// `src/` — shipping code; all rules apply.
    Src,
    /// `tests/` — integration tests.
    Tests,
    /// `examples/` — the workspace root's runnable examples.
    Examples,
}

/// A parsed `// qods-lint: allow(...) -- reason` annotation.
#[derive(Clone, Debug)]
pub struct AllowAnn {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// 1-based line the suppression applies to (same line for a
    /// trailing comment, the next code line for a comment-only line).
    pub target: usize,
    /// Rule names listed inside `allow(...)`, as written.
    pub rules: Vec<String>,
    /// The free-text justification after `--`.
    pub reason: String,
}

/// A comment that names `qods-lint:` but does not parse as an allow
/// annotation — surfaced as a finding so typos cannot silently
/// un-suppress (or fake-suppress) anything.
#[derive(Clone, Debug)]
pub struct BadAllow {
    /// 1-based line of the malformed comment.
    pub line: usize,
    /// What was wrong with it.
    pub why: String,
}

/// One scanned source file: synchronized raw/masked views plus the
/// extracted annotations.
pub struct ScannedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Cargo package name (`qods-net`, `speed-of-data`, ...).
    pub crate_name: String,
    /// Which tree of the crate the file is in.
    pub tree: Tree,
    /// Lines verbatim.
    pub raw: Vec<String>,
    /// Lines with comments and string interiors blanked to spaces.
    pub code: Vec<String>,
    /// Per-line flag: inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Valid allow annotations.
    pub allows: Vec<AllowAnn>,
    /// Malformed `qods-lint:` comments.
    pub bad_allows: Vec<BadAllow>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `text` into a [`ScannedFile`].
pub fn scan(path: &str, crate_name: &str, tree: Tree, text: &str) -> ScannedFile {
    let raw: Vec<String> = text.lines().map(str::to_owned).collect();
    let mut code: Vec<Vec<u8>> = raw.iter().map(|l| l.as_bytes().to_vec()).collect();
    let mut comments: Vec<(usize, usize)> = Vec::new(); // (0-based line, byte col of "//")

    let bytes = text.as_bytes();
    let n = bytes.len();
    let mut i = 0usize;
    let mut line = 0usize;
    let mut col = 0usize;

    // Masks the byte at the cursor (if it is not a newline) and
    // advances line/column bookkeeping.
    macro_rules! step {
        (mask) => {{
            if bytes[i] != b'\n' {
                if let Some(l) = code.get_mut(line) {
                    if let Some(c) = l.get_mut(col) {
                        *c = b' ';
                    }
                }
            }
            step!();
        }};
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 0;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    // Consumes a cooked string body starting at the opening quote.
    // The quotes stay visible in `code`; the interior is masked. An
    // escape masks its backslash and the byte after it, so `\"` does
    // not close the string.
    macro_rules! cooked_string {
        () => {{
            step!(); // opening quote
            while i < n {
                match bytes[i] {
                    b'"' => {
                        step!();
                        break;
                    }
                    b'\\' if i + 1 < n => {
                        step!(mask); // the backslash
                        step!(mask); // the escaped byte
                    }
                    _ => step!(mask),
                }
            }
        }};
    }

    while i < n {
        let b = bytes[i];
        // Line comment.
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'/' {
            comments.push((line, col));
            while i < n && bytes[i] != b'\n' {
                step!(mask);
            }
            continue;
        }
        // Block comment (nestable).
        if b == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
            let mut depth = 0u32;
            loop {
                if i + 1 < n && bytes[i] == b'/' && bytes[i + 1] == b'*' {
                    depth += 1;
                    step!(mask);
                    step!(mask);
                } else if i + 1 < n && bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    depth -= 1;
                    step!(mask);
                    step!(mask);
                    if depth == 0 {
                        break;
                    }
                } else if i < n {
                    step!(mask);
                } else {
                    break;
                }
                if i >= n || depth == 0 {
                    break;
                }
            }
            continue;
        }
        // Raw / byte string prefixes: r", r#", br#", b".
        if (b == b'r' || b == b'b') && (i == 0 || !is_ident_byte(bytes[i - 1])) {
            let mut j = i;
            if bytes[j] == b'b' {
                j += 1;
            }
            let mut is_raw = false;
            if j < n && bytes[j] == b'r' {
                is_raw = true;
                j += 1;
            }
            let mut hashes = 0usize;
            while is_raw && j < n && bytes[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < n && bytes[j] == b'"' && (is_raw || b == b'b') {
                while i < j {
                    step!(); // prefix chars stay visible
                }
                if is_raw {
                    // Raw string: no escapes; ends at `"` + hashes `#`s.
                    step!(); // opening quote
                    while i < n {
                        if bytes[i] == b'"' {
                            let mut k = 0;
                            while k < hashes && i + 1 + k < n && bytes[i + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                step!(); // closing quote
                                for _ in 0..hashes {
                                    step!();
                                }
                                break;
                            }
                        }
                        step!(mask);
                    }
                } else {
                    cooked_string!();
                }
                continue;
            }
        }
        if b == b'"' {
            cooked_string!();
            continue;
        }
        // Char literal vs. lifetime.
        if b == b'\'' && i + 1 < n {
            if bytes[i + 1] == b'\\' {
                // Escaped char literal: consume to the closing quote.
                step!(); // opening quote
                step!(mask); // backslash
                while i < n && bytes[i] != b'\'' && bytes[i] != b'\n' {
                    step!(mask);
                }
                if i < n && bytes[i] == b'\'' {
                    step!();
                }
                continue;
            }
            // `'C'` where C is one (possibly multi-byte) char.
            let lead = bytes[i + 1];
            let char_len = if lead < 0x80 {
                1
            } else if lead >= 0xF0 {
                4
            } else if lead >= 0xE0 {
                3
            } else {
                2
            };
            if i + 1 + char_len < n && bytes[i + 1 + char_len] == b'\'' {
                step!(); // opening quote
                for _ in 0..char_len {
                    step!(mask);
                }
                step!(); // closing quote
                continue;
            }
            // Otherwise it is a lifetime — fall through.
        }
        step!();
    }

    let code: Vec<String> = code
        .into_iter()
        .map(|l| String::from_utf8_lossy(&l).into_owned())
        .collect();

    let in_test = mark_test_regions(&code);
    let (allows, bad_allows) = parse_allows(&raw, &code, &comments);

    ScannedFile {
        path: path.to_owned(),
        crate_name: crate_name.to_owned(),
        tree,
        raw,
        code,
        in_test,
        allows,
        bad_allows,
    }
}

/// Marks every line belonging to a `#[cfg(test)]` item (attribute
/// line through the matching closing brace) by brace-counting on the
/// masked code, where braces inside strings/comments are already
/// blanked.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut l = 0usize;
    while l < code.len() {
        if !code[l].contains("#[cfg(test)]") {
            l += 1;
            continue;
        }
        // Find the first '{' at or after the attribute line, then
        // brace-match to the end of the item.
        let mut depth = 0i64;
        let mut opened = false;
        let mut end = code.len().saturating_sub(1);
        'outer: for (k, ln) in code.iter().enumerate().skip(l) {
            for b in ln.bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    // `#[cfg(test)]` on a brace-less item (a `use`,
                    // a `mod foo;`): the item ends at the semicolon.
                    b';' if !opened => {
                        end = k;
                        break 'outer;
                    }
                    _ => {}
                }
                if opened && depth == 0 {
                    end = k;
                    break 'outer;
                }
            }
        }
        for flag in in_test.iter_mut().take(end + 1).skip(l) {
            *flag = true;
        }
        l = end + 1;
    }
    in_test
}

/// Parses `// qods-lint: allow(P1, L1) -- reason` annotations out of
/// the line comments. Anything mentioning `qods-lint:` that does not
/// match the grammar becomes a [`BadAllow`].
fn parse_allows(
    raw: &[String],
    code: &[String],
    comments: &[(usize, usize)],
) -> (Vec<AllowAnn>, Vec<BadAllow>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for &(line, col) in comments {
        let Some(text) = raw.get(line).and_then(|l| l.get(col..)) else {
            continue;
        };
        let Some(pos) = text.find("qods-lint:") else {
            continue;
        };
        let rest = text[pos + "qods-lint:".len()..].trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            bad.push(BadAllow {
                line: line + 1,
                why: "expected `allow(RULE, ...) -- reason` after `qods-lint:`".to_owned(),
            });
            continue;
        };
        let Some(close) = args.find(')') else {
            bad.push(BadAllow {
                line: line + 1,
                why: "unclosed `allow(` list".to_owned(),
            });
            continue;
        };
        let rules: Vec<String> = args[..close]
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            bad.push(BadAllow {
                line: line + 1,
                why: "empty rule list in `allow()`".to_owned(),
            });
            continue;
        }
        let after = args[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix("--") else {
            bad.push(BadAllow {
                line: line + 1,
                why: "missing `-- reason` after `allow(...)`".to_owned(),
            });
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            bad.push(BadAllow {
                line: line + 1,
                why: "empty reason after `--`".to_owned(),
            });
            continue;
        }
        // A trailing comment suppresses its own line; a comment-only
        // line suppresses the next line that carries code.
        let own_line_has_code = code
            .get(line)
            .map(|l| !l[..col.min(l.len())].trim().is_empty())
            .unwrap_or(false);
        let target = if own_line_has_code {
            line + 1
        } else {
            let mut t = line + 1;
            while t < code.len() && code[t].trim().is_empty() {
                t += 1;
            }
            t.min(code.len().saturating_sub(1)) + 1
        };
        allows.push(AllowAnn {
            line: line + 1,
            target,
            rules,
            reason: reason.to_owned(),
        });
    }
    (allows, bad)
}

/// All byte positions where `tok` occurs token-wise in `line`: with
/// non-identifier bytes (or the line edge) on both sides. `tok` may
/// contain `::`.
pub fn token_positions(line: &str, tok: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let lb = line.as_bytes();
    let mut from = 0usize;
    while let Some(rel) = line[from..].find(tok) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(lb[at - 1]);
        let end = at + tok.len();
        let after_ok = end >= lb.len() || !is_ident_byte(lb[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + tok.len().max(1);
    }
    out
}

/// The name a `let [mut] name` on this masked line binds.
pub(crate) fn let_binding_name(code: &str) -> Option<String> {
    let pos = *token_positions(code, "let").first()?;
    let mut rest = code[pos + 3..].trim_start();
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .bytes()
        .take_while(|b| is_ident_byte(*b))
        .map(char::from)
        .collect();
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_src(text: &str) -> ScannedFile {
        scan("x/src/lib.rs", "qods-x", Tree::Src, text)
    }

    #[test]
    fn comments_and_strings_are_masked_but_lengths_survive() {
        let f = scan_src("let a = \"SystemTime::now\"; // Instant::now\nlet b = 1;\n");
        assert_eq!(f.raw.len(), 2);
        assert_eq!(f.code[0].len(), f.raw[0].len());
        assert!(!f.code[0].contains("SystemTime"));
        assert!(!f.code[0].contains("Instant"));
        assert_eq!(f.code[0].trim_end(), "let a = \"               \";");
        assert_eq!(f.code[1], "let b = 1;");
    }

    #[test]
    fn escapes_and_raw_strings_stay_inside_the_mask() {
        // An escaped quote does not close a cooked string, and a raw
        // string ends only at its quote-and-hashes.
        let f = scan_src(r##"let a = "a\n\"b\""; let b = r#"raw "x" val"#; c()"##);
        assert_eq!(
            f.code[0],
            r##"let a = "        "; let b = r#"           "#; c()"##
        );
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_lexer() {
        let f = scan_src("fn f<'a>(x: &'a str) -> char { let q = '\"'; let n = '\\n'; q }\n");
        // The quote char literal must not open a string: the code
        // after it stays visible.
        assert!(f.code[0].contains("fn f<'a>"));
        assert!(f.code[0].ends_with("let n = '  '; q }"));
    }

    #[test]
    fn cfg_test_regions_are_brace_matched() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = scan_src(text);
        assert_eq!(f.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn allow_annotations_parse_with_targets_and_bad_ones_are_reported() {
        let text = concat!(
            "let a = 1; // qods-lint: allow(P1) -- trailing case\n",
            "// qods-lint: allow(L1, A1) -- next-line case\n",
            "let b = 2;\n",
            "// qods-lint: allow(P1)\n",
        );
        let f = scan_src(text);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].target, 1);
        assert_eq!(f.allows[0].rules, vec!["P1".to_owned()]);
        assert_eq!(f.allows[1].target, 3);
        assert_eq!(f.allows[1].rules, vec!["L1".to_owned(), "A1".to_owned()]);
        assert_eq!(f.bad_allows.len(), 1, "missing reason must be loud");
    }

    #[test]
    fn token_search_respects_identifier_boundaries() {
        assert_eq!(token_positions("x.unwrap()", "unwrap"), vec![2]);
        assert!(token_positions("x.unwrap_or_else(f)", "unwrap").is_empty());
        assert_eq!(token_positions("Instant::now()", "Instant::now"), vec![0]);
        assert!(token_positions("MyInstant::nowish()", "Instant::now").is_empty());
    }
}
