//! Pass 2 of the workspace analyzer: the three graph rules that run
//! over the [`crate::graph::Index`] built in pass 1.
//!
//! * **P1** — panic reachability: a path from a serving-path entry
//!   point to a `panic!`/`unwrap`/`expect`/`unreachable!` in *any*
//!   crate. Clippy's `unwrap_used`/`expect_used` only see direct
//!   sites in the serving crates; P1 follows calls. A function
//!   containing `catch_unwind` is an isolation barrier: its own panic
//!   sites and everything behind it are out of scope by design.
//! * **L1** — lock order: a directed graph over canonical lock names
//!   with an edge A→B wherever B is acquired (directly, or anywhere
//!   in a callee) while A is held. Cycles are potential inversions;
//!   additionally a lock held across a fault-injection checkpoint or
//!   a blocking I/O call is flagged directly.
//! * **A1** — atomic-ordering taint: a `.load(Ordering::Relaxed)`
//!   whose value flows (intra-procedurally, via [`crate::flow`])
//!   into a serialization/hash/result sink.

use crate::graph::{FnNode, Index};
use crate::scan::ScannedFile;
use crate::{flow, Finding};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Serving-path entry points: (crate, impl type or free fn, name
/// prefix). A `pub` function matching a row is a P1 traversal root.
const ENTRIES: &[(&str, Option<&str>, &str)] = &[
    ("qods-net", Some("ServeCore"), ""),
    ("qods-net", Some("NetServer"), ""),
    ("qods-net", None, "serve_"),
    ("qods-service", Some("Scheduler"), "run_"),
    ("qods-pool", None, "run_"),
];

fn is_entry(node: &FnNode, files: &[ScannedFile]) -> bool {
    if !node.is_pub {
        return false;
    }
    let krate = files[node.file].crate_name.as_str();
    ENTRIES.iter().any(|(c, imp, prefix)| {
        *c == krate && node.impl_type.as_deref() == *imp && node.name.starts_with(prefix)
    })
}

fn finding(files: &[ScannedFile], file: usize, line: usize, rule: &str, note: String) -> Finding {
    let f = &files[file];
    Finding {
        rule: rule.to_owned(),
        file: f.path.clone(),
        line: line as u32,
        snippet: f
            .raw
            .get(line - 1)
            .map(|l| l.trim().to_owned())
            .unwrap_or_default(),
        note,
    }
}

/// Runs all three graph rules and returns the raw findings
/// (suppression is the engine's job).
pub fn run_graph_rules(index: &Index, files: &[ScannedFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_p1(index, files, &mut out);
    let lock_graph = build_lock_graph(index, files);
    rule_l1(index, files, &lock_graph, &mut out);
    rule_a1(index, files, &mut out);
    out
}

// ---------------------------------------------------------------- P1

/// BFS over resolved calls from every entry, stopping at barriers.
/// Returns `node id -> parent id` (entries map to themselves).
fn reach_from_entries(index: &Index, files: &[ScannedFile]) -> BTreeMap<usize, usize> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, node) in index.fns.iter().enumerate() {
        if is_entry(node, files) {
            parent.insert(i, i);
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        let node = &index.fns[i];
        if node.catches_unwind {
            continue; // isolation barrier: don't follow its calls
        }
        for call in &node.calls {
            for j in index.resolve(i, call) {
                if j != i && !parent.contains_key(&j) {
                    parent.insert(j, i);
                    queue.push_back(j);
                }
            }
        }
    }
    parent
}

/// The `entry -> ... -> node` chain, rendered with qualnames.
fn chain_to(
    index: &Index,
    files: &[ScannedFile],
    parent: &BTreeMap<usize, usize>,
    i: usize,
) -> String {
    let mut nodes = vec![i];
    let mut cur = i;
    while let Some(&p) = parent.get(&cur) {
        if p == cur {
            break;
        }
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    let names: Vec<String> = nodes
        .iter()
        .map(|&n| index.fns[n].qualname(files))
        .collect();
    if names.len() > 6 {
        format!(
            "{} -> ... -> {}",
            names[..2].join(" -> "),
            names[names.len() - 3..].join(" -> ")
        )
    } else {
        names.join(" -> ")
    }
}

fn rule_p1(index: &Index, files: &[ScannedFile], out: &mut Vec<Finding>) {
    let parent = reach_from_entries(index, files);
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &i in parent.keys() {
        let node = &index.fns[i];
        if node.catches_unwind {
            continue; // its own panics are behind its own barrier
        }
        for site in &node.panics {
            if !seen.insert((node.file, site.line)) {
                continue;
            }
            let chain = chain_to(index, files, &parent, i);
            out.push(finding(
                files,
                node.file,
                site.line,
                "P1",
                format!(
                    "`{}` is reachable from a serving entry via {chain}; a panic here \
                     crosses the isolation boundary — return a typed error, or prove the \
                     invariant and annotate",
                    site.what
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- L1

/// One lock-graph edge: acquiring `to` while `from` is held.
pub struct LockEdge {
    /// File index and 1-based line where the edge is created.
    pub site: (usize, usize),
    /// The callee the inner acquisition sits in, for call-mediated
    /// edges (`None` for direct nesting).
    pub via: Option<String>,
}

/// The lock-acquisition graph over canonical lock names.
pub struct LockGraph {
    /// (held, acquired) → first edge site observed.
    pub edges: BTreeMap<(String, String), LockEdge>,
}

/// The pool's `plock` helper acquires on behalf of its caller — the
/// caller's `plock(&x)` site is already recorded as an acquisition,
/// so the helper's internal `m.lock()` must not contribute a second,
/// aliased lock to every call edge.
fn is_plock_helper(node: &FnNode, files: &[ScannedFile]) -> bool {
    node.name == "plock" && files[node.file].crate_name == "qods-pool"
}

/// Locks acquired by a function or (transitively) any callee.
fn lock_closure(
    index: &Index,
    files: &[ScannedFile],
    memo: &mut Vec<Option<BTreeSet<String>>>,
    visiting: &mut Vec<bool>,
    i: usize,
) -> BTreeSet<String> {
    if let Some(set) = &memo[i] {
        return set.clone();
    }
    if visiting[i] {
        return BTreeSet::new(); // recursion cycle: fixpoint below is enough
    }
    visiting[i] = true;
    let mut set = BTreeSet::new();
    if !is_plock_helper(&index.fns[i], files) {
        for op in &index.fns[i].locks {
            set.insert(op.lock.clone());
        }
        for call in &index.fns[i].calls {
            for j in index.resolve(i, call) {
                if j != i {
                    set.extend(lock_closure(index, files, memo, visiting, j));
                }
            }
        }
    }
    visiting[i] = false;
    memo[i] = Some(set.clone());
    set
}

/// Builds the lock graph: direct nesting edges and call-mediated
/// edges (a call made while holding A, to a callee whose closure
/// acquires B, is an A→B edge).
pub fn build_lock_graph(index: &Index, files: &[ScannedFile]) -> LockGraph {
    let mut memo: Vec<Option<BTreeSet<String>>> = vec![None; index.fns.len()];
    let mut visiting = vec![false; index.fns.len()];
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();

    for (i, node) in index.fns.iter().enumerate() {
        if is_plock_helper(node, files) {
            continue;
        }
        for a in &node.locks {
            // Direct nesting: B acquired while A is held.
            for b in &node.locks {
                if b.line > a.line && b.line <= a.held_to && b.lock != a.lock {
                    edges
                        .entry((a.lock.clone(), b.lock.clone()))
                        .or_insert(LockEdge {
                            site: (node.file, b.line),
                            via: None,
                        });
                }
            }
            // Call-mediated: a callee's transitive acquisitions.
            for call in &node.calls {
                if call.line < a.line || call.line > a.held_to {
                    continue;
                }
                for j in index.resolve(i, call) {
                    if j == i {
                        continue;
                    }
                    let inner = lock_closure(index, files, &mut memo, &mut visiting, j);
                    for b in inner {
                        if b == a.lock {
                            continue;
                        }
                        edges
                            .entry((a.lock.clone(), b.clone()))
                            .or_insert(LockEdge {
                                site: (node.file, call.line),
                                via: Some(index.fns[j].qualname(files)),
                            });
                    }
                }
            }
        }
    }
    LockGraph { edges }
}

/// Strongly connected components of the lock graph with ≥ 2 locks,
/// plus self-loops — both are ordering inversions.
fn lock_cycles(graph: &LockGraph) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&String> = BTreeSet::new();
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (from, to) in graph.edges.keys() {
        nodes.insert(from);
        nodes.insert(to);
        adj.entry(from).or_default().push(to);
    }
    // Tarjan, recursive (lock graphs are tiny).
    struct State<'a> {
        idx: BTreeMap<&'a String, usize>,
        low: BTreeMap<&'a String, usize>,
        stack: Vec<&'a String>,
        on: BTreeSet<&'a String>,
        counter: usize,
        sccs: Vec<Vec<String>>,
    }
    fn strong<'a>(v: &'a String, adj: &BTreeMap<&'a String, Vec<&'a String>>, st: &mut State<'a>) {
        st.idx.insert(v, st.counter);
        st.low.insert(v, st.counter);
        st.counter += 1;
        st.stack.push(v);
        st.on.insert(v);
        for &w in adj.get(v).map(Vec::as_slice).unwrap_or(&[]) {
            if !st.idx.contains_key(w) {
                strong(w, adj, st);
                let lw = st.low[w];
                let lv = st.low[v];
                st.low.insert(v, lv.min(lw));
            } else if st.on.contains(w) {
                let iw = st.idx[w];
                let lv = st.low[v];
                st.low.insert(v, lv.min(iw));
            }
        }
        if st.low[v] == st.idx[v] {
            let mut scc = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on.remove(w);
                scc.push(w.clone());
                if w == v {
                    break;
                }
            }
            scc.sort();
            st.sccs.push(scc);
        }
    }
    let mut st = State {
        idx: BTreeMap::new(),
        low: BTreeMap::new(),
        stack: Vec::new(),
        on: BTreeSet::new(),
        counter: 0,
        sccs: Vec::new(),
    };
    for v in &nodes {
        if !st.idx.contains_key(*v) {
            strong(v, &adj, &mut st);
        }
    }
    let mut cycles: Vec<Vec<String>> = st
        .sccs
        .into_iter()
        .filter(|scc| scc.len() >= 2 || graph.edges.contains_key(&(scc[0].clone(), scc[0].clone())))
        .collect();
    cycles.sort();
    cycles
}

fn rule_l1(index: &Index, files: &[ScannedFile], graph: &LockGraph, out: &mut Vec<Finding>) {
    // Inversion cycles.
    for cycle in lock_cycles(graph) {
        let in_cycle: Vec<(&(String, String), &LockEdge)> = graph
            .edges
            .iter()
            .filter(|((a, b), _)| cycle.contains(a) && cycle.contains(b))
            .collect();
        let Some((_, first)) = in_cycle
            .iter()
            .min_by_key(|(_, e)| (files[e.site.0].path.clone(), e.site.1))
        else {
            continue;
        };
        let shown: Vec<String> = in_cycle
            .iter()
            .take(4)
            .map(|((a, b), e)| format!("{a} -> {b} ({}:{})", files[e.site.0].path, e.site.1))
            .collect();
        out.push(finding(
            files,
            first.site.0,
            first.site.1,
            "L1",
            format!(
                "lock-order cycle between {{{}}}: {} — two threads interleaving these \
                 acquisitions deadlock; impose one order (or merge the critical sections)",
                cycle.join(", "),
                shown.join("; ")
            ),
        ));
    }

    // Locks held across checkpoints / blocking I/O.
    for node in &index.fns {
        if is_plock_helper(node, files) {
            continue;
        }
        for a in &node.locks {
            let offender = node
                .checkpoints
                .iter()
                .map(|s| (s, "a fault-injection/cancellation checkpoint"))
                .chain(node.blocking_io.iter().map(|s| (s, "blocking I/O")))
                .filter(|(s, _)| s.line >= a.line && s.line <= a.held_to)
                .min_by_key(|(s, _)| s.line);
            if let Some((site, kind)) = offender {
                out.push(finding(
                    files,
                    node.file,
                    a.line,
                    "L1",
                    format!(
                        "lock `{}` is held across {kind} (`{}` at line {}); an unwind or \
                         stall there keeps the lock — shrink the critical section",
                        a.lock, site.what, site.line
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- A1

fn rule_a1(index: &Index, files: &[ScannedFile], out: &mut Vec<Finding>) {
    for node in &index.fns {
        let file = &files[node.file];
        if matches!(file.crate_name.as_str(), "qods-bench" | "qods-lint") {
            continue;
        }
        for (site, binding) in &node.relaxed_loads {
            let code = &file.code[site.line - 1];
            let hit = match flow::sink_on(code) {
                Some(sink) => Some((site.line, sink)),
                None => binding.as_deref().and_then(|b| {
                    flow::binding_reaches_sink(
                        file,
                        (node.decl_line - 1, node.end_line - 1),
                        site.line - 1,
                        b,
                    )
                }),
            };
            if let Some((sink_line, sink)) = hit {
                out.push(finding(
                    files,
                    node.file,
                    site.line,
                    "A1",
                    format!(
                        "Relaxed atomic load flows into a `{sink}` sink at line {sink_line}; \
                         a stale value can reach a result/serialized artifact — use Acquire \
                         (or annotate a telemetry-only flow)"
                    ),
                ));
            }
        }
    }
}

// --------------------------------------------------------------- DOT

/// Renders the call graph (entry-reachable part) and the lock graph
/// as one Graphviz DOT document.
pub fn render_dot(index: &Index, files: &[ScannedFile], graph: &LockGraph) -> String {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    };
    let parent = reach_from_entries(index, files);
    let mut s = String::from("digraph qods {\n  rankdir=LR;\n");
    s.push_str("  subgraph cluster_calls {\n    label=\"call graph (entry-reachable)\";\n");
    for &i in parent.keys() {
        let node = &index.fns[i];
        let q = node.qualname(files);
        let shape = if node.catches_unwind {
            " shape=octagon style=bold" // isolation barrier
        } else if is_entry(node, files) {
            " shape=box style=bold"
        } else {
            ""
        };
        let panics = if node.panics.is_empty() {
            String::new()
        } else {
            format!(" color=red xlabel=\"{} panic site(s)\"", node.panics.len())
        };
        s.push_str(&format!(
            "    f_{} [label=\"{q}\"{shape}{panics}];\n",
            sanitize(&q)
        ));
    }
    for &i in parent.keys() {
        let node = &index.fns[i];
        if node.catches_unwind {
            continue;
        }
        let from = sanitize(&node.qualname(files));
        let mut seen = BTreeSet::new();
        for call in &node.calls {
            for j in index.resolve(i, call) {
                if j != i && parent.contains_key(&j) && seen.insert(j) {
                    s.push_str(&format!(
                        "    f_{from} -> f_{};\n",
                        sanitize(&index.fns[j].qualname(files))
                    ));
                }
            }
        }
    }
    s.push_str("  }\n  subgraph cluster_locks {\n    label=\"lock graph\";\n");
    let mut lock_nodes: BTreeSet<&String> = BTreeSet::new();
    for (from, to) in graph.edges.keys() {
        lock_nodes.insert(from);
        lock_nodes.insert(to);
    }
    for l in &lock_nodes {
        s.push_str(&format!("    l_{} [label=\"{l}\"];\n", sanitize(l)));
    }
    for ((from, to), edge) in &graph.edges {
        let label = match &edge.via {
            Some(via) => format!("{}:{} via {via}", files[edge.site.0].path, edge.site.1),
            None => format!("{}:{}", files[edge.site.0].path, edge.site.1),
        };
        s.push_str(&format!(
            "    l_{} -> l_{} [label=\"{label}\"];\n",
            sanitize(from),
            sanitize(to)
        ));
    }
    s.push_str("  }\n}\n");
    s
}
