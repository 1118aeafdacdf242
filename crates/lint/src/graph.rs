//! Pass 1 of the workspace analyzer: a per-crate symbol index and a
//! conservative call graph, built from the lexer's masked-code view
//! (so strings and comments can never fake a call or a panic).
//!
//! Every `fn` item in a `src/` tree becomes a [`FnNode`] annotated
//! with the sites the graph rules care about: panic sites (P1), lock
//! acquisitions with an approximate hold range (L1), fault-injection
//! checkpoints and blocking I/O calls (L1's held-across check), and
//! `Ordering::Relaxed` loads (A1's taint sources). Call sites are
//! resolved *by name* within the workspace, filtered by arity when
//! the call's argument count is parseable, with a skip list for
//! method names that collide with `std` (resolving `.clone()` to
//! every workspace `clone` would drown the graph in false edges).
//! A method call lands only on functions that take `self`, and an
//! unqualified call `name(..)` only on free functions in scope: the
//! caller's crate, plus the crates its `use` items import that name
//! (or everything, by glob) from, following re-exports. A path call
//! `Q::name(..)` lands on `Q`'s own `name` when `Q` has one; otherwise
//! on free functions (`Q` is a module) and trait-impl methods (`Q` is
//! a trait or a generic parameter), never on another type's inherent
//! method, so `Vec::new()` lands on no node.
//!
//! The resolution is deliberately conservative in the "more edges"
//! direction everywhere except that skip list (the scope rules drop
//! only edges Rust's own name resolution rules out): a call that matches
//! several candidates gets an edge to each, and a call whose arity
//! cannot be parsed matches every candidate of that name. The
//! known false-negative classes this leaves are documented in
//! DESIGN.md §12.

use crate::scan::{token_positions, ScannedFile, Tree};
use std::collections::{BTreeMap, BTreeSet};

/// One annotated site inside a function body.
#[derive(Clone, Debug)]
pub struct Site {
    /// 1-based line.
    pub line: usize,
    /// The token that matched (`panic!`, `.unwrap(`, `write_all`, ...).
    pub what: String,
}

/// One lock acquisition with its approximate hold range.
#[derive(Clone, Debug)]
pub struct LockOp {
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Canonical lock name: `Type.field` for `self.field` receivers,
    /// `crate::STATIC` for upper-case statics, `fn-qualname::chain`
    /// for locals (unique per function, so locals order within a
    /// function but never alias across functions).
    pub lock: String,
    /// 1-based last line the guard is (approximately) held on.
    pub held_to: usize,
}

/// One call site, before resolution.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// 1-based line.
    pub line: usize,
    /// Callee name as written.
    pub name: String,
    /// Argument count when the argument list parsed, else `None`
    /// (matches any arity).
    pub arity: Option<usize>,
    /// Method call (`recv.name(...)`) vs. free/path call.
    pub is_method: bool,
    /// `Qualifier::name(...)` path segment, when present.
    pub qualifier: Option<String>,
}

/// One `fn` item of the workspace.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index into the scanned-file slice the index was built from.
    pub file: usize,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, when inside an impl block.
    pub impl_type: Option<String>,
    /// Inside an `impl Trait for Type` block: reachable through the
    /// trait or a generic parameter, not only through `Type`.
    pub trait_impl: bool,
    /// Declared with a `pub` visibility token.
    pub is_pub: bool,
    /// Parameter count excluding `self`.
    pub arity: usize,
    /// Takes `self` in any form.
    pub has_self: bool,
    /// 1-based line of the `fn` token.
    pub decl_line: usize,
    /// 1-based last line of the body (== `decl_line` for bodyless
    /// signatures, which produce no node — see [`Index::build`]).
    pub end_line: usize,
    /// Contains a `catch_unwind` call: an isolation barrier. P1
    /// neither reports this function's own panic sites nor follows
    /// its outgoing edges.
    pub catches_unwind: bool,
    /// Panic sites (`panic!`, `.unwrap(`, `.expect(`, `unreachable!`,
    /// `todo!`, `unimplemented!`).
    pub panics: Vec<Site>,
    /// Lock acquisitions (`.lock()` receivers and `plock(&...)`).
    pub locks: Vec<LockOp>,
    /// Fault-injection checkpoints and cancellation points.
    pub checkpoints: Vec<Site>,
    /// Blocking I/O calls.
    pub blocking_io: Vec<Site>,
    /// `.load(Ordering::Relaxed)` sites, with the `let` binding name
    /// when the loaded value is bound.
    pub relaxed_loads: Vec<(Site, Option<String>)>,
    /// Unresolved call sites.
    pub calls: Vec<CallSite>,
}

impl FnNode {
    /// `crate::Type::name` display form for chain notes and DOT.
    pub fn qualname(&self, files: &[ScannedFile]) -> String {
        let krate = &files[self.file].crate_name;
        match &self.impl_type {
            Some(t) => format!("{krate}::{t}::{}", self.name),
            None => format!("{krate}::{}", self.name),
        }
    }
}

/// The workspace symbol index: every `fn` node plus a name lookup.
pub struct Index {
    /// All nodes, in (file, line) order.
    pub fns: Vec<FnNode>,
    /// Name → node ids, for call resolution.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Package name of each scanned file, by file index.
    file_crates: Vec<String>,
    /// Package name → what its `use` items import, for resolving
    /// unqualified calls.
    imports: BTreeMap<String, Imports>,
}

/// What one crate's `use` items bring into scope, as package names.
#[derive(Default)]
struct Imports {
    /// Imported name (or its `as` alias) → the packages it names.
    names: BTreeMap<String, BTreeSet<String>>,
    /// Packages imported whole with `*`.
    globs: BTreeSet<String>,
}

/// Method names that collide with `std`/shim methods: resolving them
/// by bare name would wire `.clone()`/`.get()`/`.push()` calls to
/// every workspace function of that name. Method calls with these
/// names are not resolved (documented false-negative class); *path*
/// calls (`Type::get(...)`) still resolve, because the qualifier
/// disambiguates.
const COMMON_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "borrow",
    "borrow_mut",
    "bytes",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "flat_map",
    "flatten",
    "fold",
    "from_value",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "lock",
    "map",
    "map_err",
    "max",
    "min",
    "next",
    "ok",
    "or_else",
    "or_insert_with",
    "parse",
    "partial_cmp",
    "pop",
    "position",
    "push",
    "push_str",
    "read_line",
    "remove",
    "repeat",
    "replace",
    "retain",
    "rev",
    "serialize",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "splice",
    "split",
    "split_once",
    "split_whitespace",
    "starts_with",
    "step_by",
    "sum",
    "take",
    "take_while",
    "then",
    "then_some",
    "to_owned",
    "to_string",
    "to_value",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "values",
    "windows",
    "with_capacity",
    "wrapping_add",
    "write_all",
    "zip",
];

/// Keywords and ubiquitous constructor names a call scan must never
/// treat as callees.
const NON_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "as", "in", "move", "else", "fn",
    "impl", "pub", "use", "mod", "struct", "enum", "trait", "where", "unsafe", "ref", "mut", "dyn",
    "box", "Some", "None", "Ok", "Err", "Self", "self", "super", "crate", "Box", "Vec", "String",
    "Arc", "Rc", "Mutex", "RwLock", "Condvar", "Option", "Result", "drop", "Fn", "FnMut", "FnOnce",
    "Default", "From", "Into", "Ordering", "Duration", "Instant", "PathBuf",
];

/// Tokens whose presence marks a panic site, paired with how the
/// finding names them.
const PANIC_MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];

/// Fault-injection checkpoints and cooperative cancellation points —
/// lines the serving path may unwind or stall at, which L1 flags when
/// they sit inside a lock's hold range.
const CHECKPOINT_TOKENS: &[&str] = &["fault::check", "check_deadline", "check_sleeping"];

/// Blocking I/O call names for L1's held-across check.
const IO_TOKENS: &[&str] = &[
    "write_all",
    "flush",
    "read_line",
    "read_to_end",
    "read_to_string",
    "fill_buf",
    "sync_all",
    "rename",
    "remove_file",
    "create_dir_all",
    "accept",
    "connect",
];

impl Index {
    /// Builds the index over every `src/`-tree file in `files`
    /// (integration tests, examples, and benches are outside the
    /// serving path; `#[cfg(test)]` regions are skipped line-wise).
    pub fn build(files: &[ScannedFile]) -> Index {
        let mut fns = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            if file.tree == Tree::Src {
                parse_file(fi, file, &mut fns);
            }
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut imports: BTreeMap<String, Imports> = BTreeMap::new();
        for file in files.iter().filter(|f| f.tree == Tree::Src) {
            let scope = imports.entry(file.crate_name.clone()).or_default();
            for (root, name) in use_items(file) {
                let package = match root.as_str() {
                    "crate" | "self" | "super" => file.crate_name.clone(),
                    other => other.replace('_', "-"),
                };
                if name == "*" {
                    scope.globs.insert(package);
                } else {
                    scope.names.entry(name).or_default().insert(package);
                }
            }
        }
        Index {
            fns,
            by_name,
            file_crates: files.iter().map(|f| f.crate_name.clone()).collect(),
            imports,
        }
    }

    /// The packages an unqualified call to `name` from `krate` may
    /// land in: `krate` itself, and every package its `use` items
    /// import `name` from, by name or by glob, followed through
    /// re-exports.
    fn packages_in_scope(&self, krate: &str, name: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::from([krate.to_owned()]);
        let mut todo = vec![krate.to_owned()];
        while let Some(k) = todo.pop() {
            let Some(scope) = self.imports.get(&k) else {
                continue;
            };
            let named = scope.names.get(name).into_iter().flatten();
            for next in named.chain(&scope.globs) {
                if seen.insert(next.clone()) {
                    todo.push(next.clone());
                }
            }
        }
        seen
    }

    /// Node ids a call site in function `caller` may land on. Empty
    /// when the name is unknown to the workspace, not in scope, or
    /// skipped as a common method name.
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        if call.is_method && COMMON_METHODS.contains(&call.name.as_str()) {
            return Vec::new();
        }
        let Some(all) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        let all: Vec<usize> = if call.is_method {
            all.iter()
                .copied()
                .filter(|&i| self.fns[i].has_self)
                .collect()
        } else if call.qualifier.is_none() {
            let krate = &self.file_crates[self.fns[caller].file];
            let scope = self.packages_in_scope(krate, &call.name);
            all.iter()
                .copied()
                .filter(|&i| {
                    let f = &self.fns[i];
                    f.impl_type.is_none() && scope.contains(&self.file_crates[f.file])
                })
                .collect()
        } else {
            all.clone()
        };
        // Prefer candidates in the qualifier's impl block
        // (`Scheduler::run` must not edge into every `run`).
        let mut candidates: Vec<usize> = match &call.qualifier {
            Some(q) => {
                let scoped: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].impl_type.as_deref() == Some(q.as_str()))
                    .collect();
                if !scoped.is_empty() {
                    scoped
                } else if q == "Self" {
                    all
                } else {
                    // A module path (`qods_fault::check`) reaches free
                    // functions, and a trait or generic parameter
                    // (`T::from_value`) trait impls; neither reaches
                    // another type's inherent method (`Vec::new()`).
                    all.into_iter()
                        .filter(|&i| self.fns[i].impl_type.is_none() || self.fns[i].trait_impl)
                        .collect()
                }
            }
            None => all,
        };
        if let Some(arity) = call.arity {
            let fits = |f: &FnNode| {
                f.arity == arity
                    // `Type::method(&x, y)` spells the receiver as an
                    // argument.
                    || (!call.is_method && f.has_self && f.arity + 1 == arity)
            };
            let matching: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| fits(&self.fns[i]))
                .collect();
            // No arity match: keep every candidate (the parse may
            // have miscounted through a closure or generic).
            if !matching.is_empty() {
                candidates = matching;
            }
        }
        candidates
    }
}

/// Brace depth at the start of each line, on the masked code view.
fn depth_profile(code: &[String]) -> Vec<i64> {
    let mut depths = Vec::with_capacity(code.len() + 1);
    let mut d = 0i64;
    for line in code {
        depths.push(d);
        for b in line.bytes() {
            match b {
                b'{' => d += 1,
                b'}' => d -= 1,
                _ => {}
            }
        }
    }
    depths.push(d);
    depths
}

/// The `impl` context each line sits in: the impl'd type name, and
/// whether the impl is of a trait.
fn impl_profile(file: &ScannedFile, depths: &[i64]) -> Vec<Option<(String, bool)>> {
    let mut ctx: Vec<Option<(String, bool)>> = vec![None; file.code.len()];
    let mut l = 0usize;
    while l < file.code.len() {
        let code = &file.code[l];
        let trimmed = code.trim_start();
        let is_impl = trimmed.starts_with("impl ")
            || trimmed.starts_with("impl<")
            || trimmed.starts_with("unsafe impl ");
        if !is_impl {
            l += 1;
            continue;
        }
        let Some(imp) = impl_type_name(trimmed) else {
            l += 1;
            continue;
        };
        // The impl body runs until depth returns to the impl line's
        // starting depth.
        let d0 = depths[l];
        let mut end = file.code.len() - 1;
        for (k, &d) in depths.iter().enumerate().skip(l + 1) {
            if d <= d0 {
                end = k - 1;
                break;
            }
        }
        for slot in ctx.iter_mut().take(end + 1).skip(l) {
            *slot = Some(imp.clone());
        }
        l = end + 1;
    }
    ctx
}

/// The implemented type's last path segment: `impl Foo {`,
/// `impl Trait for Foo {`, `impl<T> Trait<T> for path::Foo<T> {`;
/// and whether a trait is implemented (`for` is present).
fn impl_type_name(trimmed: &str) -> Option<(String, bool)> {
    let rest = trimmed
        .strip_prefix("unsafe ")
        .unwrap_or(trimmed)
        .strip_prefix("impl")?;
    // Skip a generics list directly after `impl`.
    let rest = skip_generics(rest);
    // `Trait for Type` — the type is after `for`; otherwise the first
    // type is it.
    let for_pos = find_token(rest, "for");
    let ty_part = match for_pos {
        Some(pos) => &rest[pos + 3..],
        None => rest,
    };
    let ty_part = ty_part.trim_start();
    let name: String = ty_part
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == ':')
        .collect();
    let last = name.rsplit("::").next().unwrap_or(&name).to_owned();
    (!last.is_empty() && last.chars().next().is_some_and(|c| c.is_ascii_alphabetic()))
        .then_some((last, for_pos.is_some()))
}

fn skip_generics(s: &str) -> &str {
    let t = s.trim_start();
    if !t.starts_with('<') {
        return t;
    }
    let mut depth = 0i64;
    for (i, b) in t.bytes().enumerate() {
        match b {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return &t[i + 1..];
                }
            }
            _ => {}
        }
    }
    t
}

/// First token-wise occurrence of a bare word in `s`.
fn find_token(s: &str, tok: &str) -> Option<usize> {
    token_positions(s, tok).first().copied()
}

/// Parses every `fn` item of one file into nodes.
fn parse_file(fi: usize, file: &ScannedFile, out: &mut Vec<FnNode>) {
    let depths = depth_profile(&file.code);
    let impls = impl_profile(file, &depths);

    for (l, code) in file.code.iter().enumerate() {
        if file.in_test[l] {
            continue;
        }
        for pos in token_positions(code, "fn") {
            // `fn(` is a fn-pointer type, not a definition.
            let after = code[pos + 2..].trim_start();
            let name: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue;
            }
            let Some(sig) = parse_signature(file, l, pos) else {
                continue; // bodyless signature (trait method, extern)
            };
            let head = &code[..pos];
            let is_pub = !token_positions(head, "pub").is_empty();
            let mut node = FnNode {
                file: fi,
                name,
                impl_type: impls[l].as_ref().map(|(ty, _)| ty.clone()),
                trait_impl: impls[l].as_ref().is_some_and(|&(_, t)| t),
                is_pub,
                arity: sig.arity,
                has_self: sig.has_self,
                decl_line: l + 1,
                end_line: sig.end_line + 1,
                catches_unwind: false,
                panics: Vec::new(),
                locks: Vec::new(),
                checkpoints: Vec::new(),
                blocking_io: Vec::new(),
                relaxed_loads: Vec::new(),
                calls: Vec::new(),
            };
            annotate_body(file, &depths, &mut node, sig.body_start);
            out.push(node);
        }
    }
}

/// Every `use` item of `file` outside test code, expanded into
/// `(first path segment, imported name)` pairs: the `as` alias when
/// there is one, `*` for a glob. `use a::{b, c::d as e, f::*};` gives
/// `(a, b)`, `(a, e)` and `(a, *)`.
fn use_items(file: &ScannedFile) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut l = 0usize;
    while l < file.code.len() {
        let code = file.code[l].trim_start();
        let body = code
            .strip_prefix("use ")
            .or_else(|| code.strip_prefix("pub use "))
            .or_else(|| code.strip_prefix("pub(crate) use "));
        let Some(body) = body.filter(|_| !file.in_test[l]) else {
            l += 1;
            continue;
        };
        // The item runs to its `;`, possibly over several lines.
        let mut item = body.to_owned();
        while !item.contains(';') && l + 1 < file.code.len() {
            l += 1;
            item.push(' ');
            item.push_str(&file.code[l]);
        }
        l += 1;
        let tree = item.split(';').next().unwrap_or_default();
        use_tree_leaves(tree.trim().trim_start_matches("::"), None, &mut out);
    }
    out
}

/// Expands one `use` tree (see [`use_items`]); `root` is the first
/// path segment of the enclosing tree, if any.
fn use_tree_leaves(tree: &str, root: Option<&str>, out: &mut Vec<(String, String)>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        let path = tree[..open].trim().trim_end_matches("::");
        let root = root.or_else(|| path.split("::").next().filter(|s| !s.is_empty()));
        let close = tree.rfind('}').unwrap_or(tree.len());
        let inner = &tree[open + 1..close.max(open + 1)];
        let mut depth = 0i64;
        let mut start = 0usize;
        for (i, b) in inner.bytes().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                b',' if depth == 0 => {
                    use_tree_leaves(&inner[start..i], root, out);
                    start = i + 1;
                }
                _ => {}
            }
        }
        use_tree_leaves(&inner[start..], root, out);
        return;
    }
    let (path, alias) = match tree.split_once(" as ") {
        Some((p, a)) => (p.trim(), Some(a.trim())),
        None => (tree, None),
    };
    let first = path.split("::").next().unwrap_or_default().trim();
    let leaf = alias
        .or_else(|| path.rsplit("::").next())
        .unwrap_or_default();
    if leaf.is_empty() || leaf == "self" || leaf == "_" {
        return;
    }
    out.push((root.unwrap_or(first).to_owned(), leaf.to_owned()));
}

struct Signature {
    arity: usize,
    has_self: bool,
    /// 0-based line the body's `{` opens on.
    body_start: usize,
    /// 0-based last body line.
    end_line: usize,
}

/// Parses a `fn` item's parameter list and brace-matches its body.
/// `None` for bodyless signatures.
fn parse_signature(file: &ScannedFile, decl: usize, fn_pos: usize) -> Option<Signature> {
    // Find the parameter list's opening paren, skipping generics.
    let mut l = decl;
    let mut c = fn_pos + 2;
    let mut angle = 0i64;
    let open = 'find: loop {
        let code = file.code.get(l)?;
        let bytes = code.as_bytes();
        while c < bytes.len() {
            match bytes[c] {
                b'<' => angle += 1,
                b'>' if angle > 0 => angle -= 1,
                b'(' if angle == 0 => break 'find (l, c),
                b'{' | b';' => return None, // malformed
                _ => {}
            }
            c += 1;
        }
        l += 1;
        c = 0;
        if l > decl + 5 {
            return None;
        }
    };

    // Collect parameter text to the matching close paren.
    let (mut l, mut c) = (open.0, open.1 + 1);
    let mut paren = 1i64;
    let mut params = String::new();
    let close = 'close: loop {
        let code = file.code.get(l)?;
        let bytes = code.as_bytes();
        while c < bytes.len() {
            match bytes[c] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => {
                    paren -= 1;
                    if paren == 0 {
                        break 'close (l, c);
                    }
                }
                _ => {}
            }
            params.push(bytes[c] as char);
            c += 1;
        }
        params.push('\n');
        l += 1;
        c = 0;
        if l > open.0 + 40 {
            return None;
        }
    };

    let (arity, has_self) = count_params(&params);

    // After the params: the first `{` opens the body, a `;` at this
    // level means a bodyless signature.
    let (mut l, mut c) = (close.0, close.1 + 1);
    let body_open = 'body: loop {
        let code = file.code.get(l)?;
        let bytes = code.as_bytes();
        while c < bytes.len() {
            match bytes[c] {
                b'{' => break 'body (l, c),
                b';' => return None,
                _ => {}
            }
            c += 1;
        }
        l += 1;
        c = 0;
        if l > close.0 + 10 {
            return None;
        }
    };

    // Brace-match the body.
    let (mut l, mut c) = body_open;
    let mut depth = 0i64;
    let end = 'end: loop {
        let code = file.code.get(l)?;
        let bytes = code.as_bytes();
        while c < bytes.len() {
            match bytes[c] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break 'end l;
                    }
                }
                _ => {}
            }
            c += 1;
        }
        l += 1;
        c = 0;
        if l >= file.code.len() {
            return None;
        }
    };

    Some(Signature {
        arity,
        has_self,
        body_start: body_open.0,
        end_line: end,
    })
}

/// Counts top-level commas in a parameter list, tracking nested
/// parens/brackets/angles, and detects a leading `self`.
fn count_params(params: &str) -> (usize, bool) {
    let trimmed = params.trim();
    if trimmed.is_empty() {
        return (0, false);
    }
    let mut depth = 0i64;
    let mut angle = 0i64;
    let mut count = 1usize;
    for b in trimmed.bytes() {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'<' => angle += 1,
            b'>' if angle > 0 => angle -= 1,
            b',' if depth == 0 && angle == 0 => count += 1,
            _ => {}
        }
    }
    let first = trimmed
        .trim_start_matches('&')
        .trim_start_matches("'_ ")
        .trim_start();
    let first = first.strip_prefix("mut ").unwrap_or(first).trim_start();
    let has_self = first == "self"
        || first.starts_with("self,")
        || first.starts_with("self ")
        || first.starts_with("self:");
    if has_self {
        count -= 1;
    }
    (count, has_self)
}

/// Walks a node's body lines collecting panic/lock/checkpoint/IO/
/// atomic/call sites.
fn annotate_body(file: &ScannedFile, depths: &[i64], node: &mut FnNode, body_start: usize) {
    let lo = body_start;
    let hi = node.end_line - 1;
    for l in lo..=hi.min(file.code.len() - 1) {
        if file.in_test[l] {
            continue;
        }
        let code = &file.code[l];

        if code.contains("catch_unwind") {
            node.catches_unwind = true;
        }

        for &m in PANIC_MACROS {
            for pos in token_positions(code, m.trim_end_matches('!')) {
                if code.as_bytes().get(pos + m.len() - 1) != Some(&b'!') {
                    continue;
                }
                // The proven-invariant idiom
                // `unwrap_or_else(|e| unreachable!(...))` is the
                // documented escape hatch for a proven invariant.
                if code[..pos].contains("unwrap_or_else") || code[..pos].contains("ok_or_else") {
                    continue;
                }
                node.panics.push(Site {
                    line: l + 1,
                    what: m.to_owned(),
                });
            }
        }
        for m in ["unwrap", "expect"] {
            let needle = format!(".{m}");
            for pos in token_positions(code, &needle) {
                if code.as_bytes().get(pos + needle.len()) == Some(&b'(') {
                    node.panics.push(Site {
                        line: l + 1,
                        what: format!(".{m}("),
                    });
                }
            }
        }

        for &t in CHECKPOINT_TOKENS {
            if code.contains(t) {
                node.checkpoints.push(Site {
                    line: l + 1,
                    what: t.to_owned(),
                });
            }
        }
        for &t in IO_TOKENS {
            for pos in token_positions(code, t) {
                if code.as_bytes().get(pos + t.len()) == Some(&b'(') {
                    node.blocking_io.push(Site {
                        line: l + 1,
                        what: t.to_owned(),
                    });
                }
            }
        }

        // `.load(Ordering::Relaxed)` / `.load(Relaxed)`.
        if code.contains("load(Ordering::Relaxed)") || code.contains("load(Relaxed)") {
            node.relaxed_loads.push((
                Site {
                    line: l + 1,
                    what: ".load(Ordering::Relaxed)".to_owned(),
                },
                crate::scan::let_binding_name(code),
            ));
        }

        collect_locks(file, depths, node, l);
        collect_calls(code, l, node);
    }
}

/// Lock acquisitions on line `l`: `recv.lock()` chains and
/// `plock(&recv)` calls, each named canonically and given an
/// approximate hold range.
fn collect_locks(file: &ScannedFile, depths: &[i64], node: &mut FnNode, l: usize) {
    let code = &file.code[l];
    let bytes = code.as_bytes();

    // `token_positions` would reject `.lock` (the receiver ident sits
    // right before the dot), so match the substring; the trailing `(`
    // and the receiver-chain walk bound it.
    let mut receivers: Vec<(usize, String)> = Vec::new(); // (pos, chain)
    for (pos, _) in code.match_indices(".lock(") {
        if let Some(chain) = ident_chain_before(code, pos) {
            receivers.push((pos, chain));
        }
    }
    for pos in token_positions(code, "plock") {
        let Some(open) = bytes.get(pos + 5) else {
            continue;
        };
        if *open != b'(' {
            continue;
        }
        let arg = code[pos + 6..]
            .trim_start()
            .trim_start_matches('&')
            .trim_start_matches("mut ");
        let chain: String = arg
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
            .collect();
        if !chain.is_empty() {
            receivers.push((pos, chain));
        }
    }

    for (pos, chain) in receivers {
        let lock = canonical_lock_name(file, node, &chain);
        let held_to = hold_range_end(file, depths, node, l, pos);
        node.locks.push(LockOp {
            line: l + 1,
            lock,
            held_to,
        });
    }
}

/// The dotted identifier chain ending just before byte `pos`
/// (`self.state` for `self.state.lock()`); `None` when the receiver
/// is not an ident chain (e.g. `stdout().lock()`).
fn ident_chain_before(code: &str, pos: usize) -> Option<String> {
    let head = &code.as_bytes()[..pos];
    let mut i = pos;
    loop {
        let start = i;
        while i > 0 && (head[i - 1].is_ascii_alphanumeric() || head[i - 1] == b'_') {
            i -= 1;
        }
        if i == start {
            return None; // no ident segment where one was expected
        }
        if i > 0 && head[i - 1] == b'.' {
            i -= 1;
            continue;
        }
        return Some(code[i..pos].to_owned());
    }
}

/// Canonical lock name for a receiver chain (see [`LockOp::lock`]).
fn canonical_lock_name(file: &ScannedFile, node: &FnNode, chain: &str) -> String {
    let segments: Vec<&str> = chain.split('.').collect();
    if segments[0] == "self" && segments.len() > 1 {
        let owner = node.impl_type.as_deref().unwrap_or("Self");
        return format!("{owner}.{}", segments[1]);
    }
    let is_static = segments[0].len() > 1
        && segments[0]
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b == b'_' || b.is_ascii_digit());
    if is_static {
        return format!("{}::{}", file.crate_name, segments[0]);
    }
    // Local binding or parameter: unique per function.
    match &node.impl_type {
        Some(t) => format!("{}::{}::{}#{chain}", file.crate_name, t, node.name),
        None => format!("{}::{}#{chain}", file.crate_name, node.name),
    }
}

/// Where the guard acquired on line `l` is last held: a `let`-bound
/// guard lives to the end of its enclosing block (or an explicit
/// `drop(name)`); a temporary that feeds a block header (`for`,
/// `while`, `match`, `if`) lives through that block; a plain
/// temporary dies at its statement's `;`.
fn hold_range_end(
    file: &ScannedFile,
    depths: &[i64],
    node: &FnNode,
    l: usize,
    pos: usize,
) -> usize {
    let code = &file.code[l];
    let last = (node.end_line - 1).min(file.code.len() - 1);

    let block_end = |from: usize| -> usize {
        let d0 = depths[from + 1].max(depths[from]);
        for k in from + 1..=last {
            if depths[k + 1] < d0 {
                return k + 1;
            }
        }
        last + 1
    };

    if let Some(name) = crate::scan::let_binding_name(code) {
        let end = block_end(l);
        // An explicit `drop(guard)` ends the hold early.
        let needle = format!("drop({name})");
        for (k, later) in file.code.iter().enumerate().take(end.min(last + 1)).skip(l) {
            if later.contains(&needle) {
                return k + 1;
            }
        }
        return end;
    }

    let head = code[..pos].trim_start();
    let opens_block = ["for ", "while ", "match ", "if "]
        .iter()
        .any(|kw| head.starts_with(kw) || head.contains(&format!(" {kw}")));
    if opens_block {
        return block_end(l);
    }

    // Temporary: held to the statement's terminating `;`.
    for k in l..=last {
        if file.code[k].trim_end().ends_with(';') {
            return k + 1;
        }
        if k > l + 4 {
            break;
        }
    }
    l + 1
}

/// Call sites on one line: `name(...)` free/path calls and
/// `.name(...)` method calls, macros and keywords excluded.
fn collect_calls(code: &str, l: usize, node: &mut FnNode) {
    let bytes = code.as_bytes();
    for open in 0..bytes.len() {
        if bytes[open] != b'(' {
            continue;
        }
        // Walk the identifier immediately before the paren.
        let mut start = open;
        while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            start -= 1;
        }
        if start == open {
            continue; // `!(`, `)(`, ...
        }
        let name = &code[start..open];
        if name.as_bytes()[0].is_ascii_digit() || NON_CALLEES.contains(&name) {
            continue;
        }
        let before = if start > 0 { bytes[start - 1] } else { b' ' };
        // Skip the definition itself (`fn name(`); macro calls
        // (`name!(`) are already excluded because the `!` between
        // name and paren stops the ident walk at the paren.
        let head = code[..start].trim_end();
        if head.ends_with("fn") {
            continue;
        }
        let is_method = before == b'.';
        let qualifier = if before == b':' && start >= 2 && bytes[start - 2] == b':' {
            ident_chain_before(code, start - 2)
                .map(|c| c.rsplit('.').next().unwrap_or(&c).to_owned())
        } else {
            None
        };
        let arity = count_call_arity(code, open);
        node.calls.push(CallSite {
            line: l + 1,
            name: name.to_owned(),
            arity,
            is_method,
            qualifier,
        });
    }
}

/// Argument count of the call whose `(` is at `open`, or `None` when
/// the list does not close on this line (multi-line calls match any
/// arity — conservative).
fn count_call_arity(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0i64;
    let mut count = 0usize;
    let mut any = false;
    for &b in &bytes[open..] {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(if any { count + 1 } else { 0 });
                }
            }
            b',' if depth == 1 => count += 1,
            b' ' => {}
            _ if depth >= 1 => any = true,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn index_of(text: &str) -> (Index, Vec<ScannedFile>) {
        let files = vec![scan("x/src/lib.rs", "qods-x", Tree::Src, text)];
        (Index::build(&files), files)
    }

    #[test]
    fn fn_items_are_indexed_with_impl_context_arity_and_visibility() {
        let (idx, files) = index_of(concat!(
            "pub struct S;\n",
            "impl S {\n",
            "    pub fn run(&self, a: usize, b: Vec<(u8, u8)>) -> usize { a }\n",
            "}\n",
            "fn helper() {}\n",
        ));
        assert_eq!(idx.fns.len(), 2);
        let run = &idx.fns[0];
        assert_eq!(run.name, "run");
        assert_eq!(run.impl_type.as_deref(), Some("S"));
        assert!(run.is_pub && run.has_self);
        assert_eq!(run.arity, 2, "generic commas must not inflate arity");
        assert_eq!(run.qualname(&files), "qods-x::S::run");
        let helper = &idx.fns[1];
        assert!(!helper.is_pub && helper.impl_type.is_none());
    }

    #[test]
    fn calls_resolve_by_name_and_arity_and_common_methods_are_skipped() {
        let (idx, _) = index_of(concat!(
            "fn a() { b(1); v.clone(); c(1, 2); }\n",
            "fn b(x: usize) {}\n",
            "fn c(x: usize, y: usize) {}\n",
            "fn clone() {}\n",
        ));
        let a = &idx.fns[0];
        let resolved: Vec<&str> = a
            .calls
            .iter()
            .flat_map(|c| idx.resolve(0, c))
            .map(|i| idx.fns[i].name.as_str())
            .collect();
        assert!(resolved.contains(&"b") && resolved.contains(&"c"));
        assert!(
            !resolved.contains(&"clone"),
            "`.clone()` must not resolve into the workspace"
        );
    }

    #[test]
    fn use_items_expand_nested_trees_aliases_and_globs() {
        let file = scan(
            "x/src/lib.rs",
            "qods-x",
            Tree::Src,
            concat!(
                "use qods_obs::{instant, span::{Span as S, self}, metrics::*};\n",
                "pub use crate::inner::helper;\n",
                "use std::sync::{\n    Arc,\n    Mutex,\n};\n",
                "#[cfg(test)]\n",
                "mod tests {\n    use qods_core::record;\n}\n",
            ),
        );
        let got: Vec<(String, String)> = use_items(&file);
        let want = [
            ("qods_obs", "instant"),
            ("qods_obs", "S"),
            ("qods_obs", "*"),
            ("crate", "helper"),
            ("std", "Arc"),
            ("std", "Mutex"),
        ];
        let want: Vec<(String, String)> = want
            .iter()
            .map(|&(r, n)| (r.to_owned(), n.to_owned()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_method_call_lands_only_on_functions_taking_self() {
        let (idx, _) = index_of(concat!(
            "fn a(t: T) { t.record(1); }\n",
            "fn record(x: usize) {}\n",
            "impl T {\n",
            "    fn record(&self, x: usize) {}\n",
            "}\n",
        ));
        let resolved: Vec<usize> = idx.fns[0]
            .calls
            .iter()
            .flat_map(|c| idx.resolve(0, c))
            .collect();
        assert_eq!(resolved, [2], "only `T::record` takes self");
    }

    #[test]
    fn panic_locks_and_barrier_sites_are_annotated() {
        let (idx, _) = index_of(concat!(
            "use std::sync::Mutex;\n",
            "pub struct S { m: Mutex<u32> }\n",
            "impl S {\n",
            "    fn f(&self) {\n",
            "        let g = self.m.lock().unwrap();\n",
            "        panic!(\"boom\");\n",
            "    }\n",
            "    fn guarded(&self) {\n",
            "        let _ = std::panic::catch_unwind(|| 1);\n",
            "    }\n",
            "}\n",
        ));
        let f = idx.fns.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].lock, "S.m");
        // `.unwrap()` and `panic!` are both panic sites.
        assert_eq!(f.panics.len(), 2);
        let g = idx.fns.iter().find(|f| f.name == "guarded").unwrap();
        assert!(g.catches_unwind);
    }

    #[test]
    fn plock_counts_as_a_lock_acquisition() {
        let (idx, _) = index_of(concat!(
            "impl S {\n",
            "    fn f(&self) {\n",
            "        let g = plock(&self.state);\n",
            "        g.touch();\n",
            "    }\n",
            "}\n",
        ));
        let f = &idx.fns[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].lock, "S.state");
    }
}
