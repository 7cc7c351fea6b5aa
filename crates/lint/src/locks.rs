//! Cross-file lock-order graph and potential-deadlock detection.
//!
//! The analyzer has no type system, so the graph is built from the shapes
//! std-only locking actually takes in this workspace:
//!
//! * `x.lock()` acquires the mutex named by the receiver's final
//!   identifier (`self.inner.ledger.lock()` → `ledger`). The repo's two
//!   mutex types (std's and `hsa-tasks`' poison-ignoring wrapper) share
//!   the call shape. (The workspace declares no `RwLock`, so `.read()` /
//!   `.write()` are not acquisitions here; should one appear, no other
//!   check catches it — `RwLock` is std, so not the manifest check either
//!   — and this scan must learn the shape first.)
//! * `let g = x.lock();` holds the guard until its enclosing block closes
//!   or an explicit `drop(g)`; `x.lock().f()` without a binding is a
//!   temporary, released at the end of the statement.
//! * one-hop intra-crate call resolution: while holding `a`, calling a
//!   same-crate function whose body directly acquires `b` adds the edge
//!   `a → b` (the `serve.rs` cancel-registry × `runtime.rs` query-list ×
//!   `admission.rs` ledger surface is exactly this shape). Receivers named
//!   `self` with a same-crate `fn lock` resolve through it.
//!
//! Every "holds `a` while acquiring `b`" observation is an edge `a → b`
//! keyed by the lock *names*; a cycle among the edges is reported as one
//! potential-deadlock finding per strongly-connected component. Name-based
//! identity pools same-named locks on different structs, so the check is a
//! heuristic: it can report a cycle two unrelated `state` fields cannot
//! actually deadlock on (rename one to silence it — distinct lock names
//! are better documentation anyway) and can miss cycles built through
//! guards smuggled across function boundaries. Within those limits the
//! edge set over-approximates per-function nesting, so an acyclic report
//! means no nesting the scanner can see is cyclic.

use crate::checks::{Check, Finding};
use crate::scan::SourceLine;
use std::collections::{BTreeMap, BTreeSet};

/// One observed "holds `from` while acquiring `to`" nesting.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// The lock already held.
    pub from: String,
    /// The lock acquired while holding it.
    pub to: String,
    /// Where the nesting occurs.
    pub path: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
}

/// Workspace-wide accumulator: feed every file, then `finish`.
#[derive(Default)]
pub struct LockGraph {
    /// crate key -> fn name -> locks its body acquires directly.
    fns: BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
    /// Files held back for the second (edge-building) pass.
    files: Vec<(String, Vec<FnBody>)>,
}

/// One function's extracted lines: (line number, code) only.
struct FnBody {
    name: String,
    lines: Vec<(usize, String)>,
}

/// The crate key of a workspace-relative path (`crates/tasks/src/…` →
/// `crates/tasks`, anything else → its first component).
fn crate_key(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some(first), _) => first.to_string(),
        _ => path.to_string(),
    }
}

/// Method names that are acquisition primitives or std noise, never
/// resolved as one-hop calls.
const NEVER_RESOLVED: &[&str] = &[
    "lock",
    "read",
    "write",
    "wait",
    "wait_timeout",
    "wait_timeout_while",
    "wait_for",
    "drop",
    "clone",
    "new",
    "default",
    "unwrap",
    "expect",
    "into_inner",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "iter",
    "map",
    "collect",
];

impl LockGraph {
    /// Record one scanned file (pass 1: per-fn bodies and what each
    /// acquires directly).
    pub fn add_file(&mut self, path: &str, lines: &[SourceLine]) {
        let bodies = split_functions(lines);
        let key = crate_key(path);
        for b in &bodies {
            let mut direct = BTreeSet::new();
            for (_, code) in &b.lines {
                direct.extend(direct_acquisitions(code));
            }
            if !direct.is_empty() {
                self.fns
                    .entry(key.clone())
                    .or_default()
                    .entry(b.name.clone())
                    .or_default()
                    .extend(direct);
            }
        }
        self.files.push((path.to_string(), bodies));
    }

    /// Build the edge set; returns how many distinct `from → to` pairs it
    /// holds and one finding per lock-order cycle.
    pub fn finish(self) -> (usize, Vec<Finding>) {
        let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
        for (path, bodies) in &self.files {
            let key = crate_key(path);
            let fn_map = self.fns.get(&key);
            for b in bodies {
                collect_edges(path, b, fn_map, &mut edges);
            }
        }
        let pairs: BTreeSet<(&str, &str)> =
            edges.iter().map(|e| (e.from.as_str(), e.to.as_str())).collect();
        (pairs.len(), findings_from_cycles(&edges))
    }
}

/// Split a file into function bodies by brace depth: a `fn name(` line
/// starts a body that runs until depth returns to its starting level.
fn split_functions(lines: &[SourceLine]) -> Vec<FnBody> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    let mut current: Option<(FnBody, i64)> = None;
    for l in lines {
        if l.in_test {
            // Depth still advances through test code so the tracker stays
            // aligned, but test bodies are never collected.
            for c in l.code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            continue;
        }
        let starts_fn = current.is_none() && fn_name(&l.code).is_some();
        if starts_fn {
            let name = fn_name(&l.code).unwrap();
            current = Some((FnBody { name, lines: Vec::new() }, depth));
        }
        if let Some((body, _)) = current.as_mut() {
            body.lines.push((l.number, l.code.clone()));
        }
        for c in l.code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some((_, start)) = current.as_ref() {
            // The body is closed once depth is back at (or below) the
            // level the `fn` line started on *and* a brace was seen.
            let opened =
                current.as_ref().is_some_and(|(b, _)| b.lines.iter().any(|(_, c)| c.contains('{')));
            if opened && depth <= *start {
                out.push(current.take().unwrap().0);
            }
        }
    }
    if let Some((body, _)) = current {
        out.push(body);
    }
    out
}

/// The function name on a `fn` line, if any.
fn fn_name(code: &str) -> Option<String> {
    for at in crate::scan::find_word(code, "fn") {
        let rest = &code[at + 2..];
        let rest = rest.trim_start();
        let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
        let name = &rest[..end];
        if !name.is_empty() && rest[end..].trim_start().starts_with(['(', '<']) {
            return Some(name.to_string());
        }
    }
    None
}

/// Direct lock acquisitions on one code line: the lock names.
fn direct_acquisitions(code: &str) -> Vec<String> {
    const LOCK: &str = ".lock()";
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(found) = code[from..].find(LOCK) {
        let at = from + found;
        from = at + LOCK.len();
        // `self.lock()` is a method call, not a field acquisition; the
        // caller resolves it through the same-crate fn map.
        if let Some(name) = receiver_name(code, at).filter(|n| n != "self" && n != "Self") {
            out.push(name);
        }
    }
    out
}

/// The final identifier of the receiver ending at `dot` (same rules as the
/// atomics extractor, minus the `self` special case — callers handle it).
fn receiver_name(code: &str, dot: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = dot;
    if i > 0 && (bytes[i - 1] == b']' || bytes[i - 1] == b')') {
        let (close, open) = if bytes[i - 1] == b']' { (b']', b'[') } else { (b')', b'(') };
        let mut depth = 0i64;
        while i > 0 {
            i -= 1;
            if bytes[i] == close {
                depth += 1;
            } else if bytes[i] == open {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    let end = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == end {
        return None;
    }
    Some(code[i..end].to_string())
}

/// A held guard: its binding name (for `drop(name)`), the locks it holds,
/// and the brace depth it dies below.
struct Held {
    binding: Option<String>,
    locks: Vec<String>,
    depth: i64,
}

/// Walk one function body, tracking held guards and recording every
/// "holding `a`, acquiring `b`" edge (direct or one function call deep).
fn collect_edges(
    path: &str,
    body: &FnBody,
    fn_map: Option<&BTreeMap<String, BTreeSet<String>>>,
    edges: &mut BTreeSet<LockEdge>,
) {
    let mut depth: i64 = 0;
    let mut held: Vec<Held> = Vec::new();
    for (number, code) in &body.lines {
        // Acquisitions on this line, with `self.lock()` resolved one hop
        // through a same-crate `fn lock` when one exists.
        let mut acquired = direct_acquisitions(code);
        if acquired.is_empty() && code.contains("self.lock()") {
            if let Some(locks) = fn_map.and_then(|m| m.get("lock")) {
                acquired = locks.iter().cloned().collect();
            }
        }
        // One-hop resolution of other same-crate calls.
        let mut called: Vec<String> = Vec::new();
        if let Some(map) = fn_map {
            for (name, locks) in map {
                if NEVER_RESOLVED.contains(&name.as_str()) || name == &body.name {
                    continue;
                }
                for at in crate::scan::find_word(code, name) {
                    let after = &code[at + name.len()..];
                    let is_call = after.starts_with('(');
                    let is_def = code[..at].trim_end().ends_with("fn");
                    if is_call && !is_def {
                        called.extend(locks.iter().cloned());
                    }
                }
            }
        }
        // Edges: everything currently held → everything newly acquired
        // (or acquired inside a called function).
        for h in &held {
            for from in &h.locks {
                for to in acquired.iter().chain(called.iter()) {
                    if from != to {
                        edges.insert(LockEdge {
                            from: from.clone(),
                            to: to.clone(),
                            path: path.to_string(),
                            line: *number,
                        });
                    }
                }
            }
        }
        // `drop(g)` releases g's guard explicitly.
        for at in crate::scan::find_word(code, "drop") {
            let rest = code[at + 4..].trim_start();
            if let Some(inner) = rest.strip_prefix('(') {
                let arg: String =
                    inner.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
                held.retain(|h| h.binding.as_deref() != Some(arg.as_str()));
            }
        }
        // Does this line bind its acquisition? (`let g = x.lock();`,
        // `if let Ok(g) = x.lock() {`, `while let …`, `let Ok(g) = … else`)
        let trimmed = code.trim_start();
        let binds = !acquired.is_empty()
            && (trimmed.starts_with("let ")
                || trimmed.starts_with("if let ")
                || trimmed.starts_with("while let ")
                || trimmed.starts_with("match "));
        // Track depth across the line *before* deciding guard lifetime:
        // a guard bound on an `if let … {` line lives in the body the
        // brace opens.
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if binds {
            held.push(Held { binding: binding_name(code), locks: acquired, depth });
        }
        held.retain(|h| h.depth <= depth);
    }
}

/// The bound identifier of a `let`-family line: the first identifier in
/// the pattern that is not a keyword or a constructor.
fn binding_name(code: &str) -> Option<String> {
    let pat = code.split('=').next()?;
    let skip = ["let", "if", "while", "match", "mut", "ref", "Some", "Ok", "Err", "None"];
    let mut cur = String::new();
    let mut chars = pat.chars().peekable();
    while let Some(c) = chars.next() {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c);
            let boundary = chars.peek().map(|n| !(n.is_ascii_alphanumeric() || *n == '_'));
            if boundary.unwrap_or(true) {
                if !skip.contains(&cur.as_str()) && !cur.chars().next().unwrap().is_ascii_digit() {
                    return Some(cur);
                }
                cur.clear();
            }
        } else {
            cur.clear();
        }
    }
    None
}

/// One finding per strongly-connected component with a cycle.
fn findings_from_cycles(edges: &BTreeSet<LockEdge>) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let nodes: Vec<&str> = adj
        .iter()
        .flat_map(|(k, vs)| std::iter::once(*k).chain(vs.iter().copied()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    // Tarjan's SCC: the graph has a handful of nodes, so a simple
    // recursive DFS-numbering implementation is plenty.
    let index: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let n = nodes.len();

    struct Tarjan<'g> {
        nodes: &'g [&'g str],
        adj: &'g BTreeMap<&'g str, BTreeSet<&'g str>>,
        index: &'g BTreeMap<&'g str, usize>,
        low: Vec<usize>,
        num: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        counter: usize,
        sccs: Vec<Vec<usize>>,
    }
    impl Tarjan<'_> {
        fn strongconnect(&mut self, v: usize) {
            self.num[v] = self.counter;
            self.low[v] = self.counter;
            self.counter += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            if let Some(next) = self.adj.get(self.nodes[v]) {
                for w in next {
                    let w = self.index[w];
                    if self.num[w] == usize::MAX {
                        self.strongconnect(w);
                        self.low[v] = self.low[v].min(self.low[w]);
                    } else if self.on_stack[w] {
                        self.low[v] = self.low[v].min(self.num[w]);
                    }
                }
            }
            if self.low[v] == self.num[v] {
                let mut comp = Vec::new();
                while let Some(w) = self.stack.pop() {
                    self.on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                self.sccs.push(comp);
            }
        }
    }
    let mut t = Tarjan {
        nodes: &nodes,
        adj: &adj,
        index: &index,
        low: vec![0usize; n],
        num: vec![usize::MAX; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        counter: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if t.num[v] == usize::MAX {
            t.strongconnect(v);
        }
    }
    let sccs = t.sccs;

    let mut out = Vec::new();
    for comp in sccs {
        let cyclic =
            comp.len() > 1 || adj.get(nodes[comp[0]]).is_some_and(|s| s.contains(nodes[comp[0]]));
        if !cyclic {
            continue;
        }
        let mut names: Vec<&str> = comp.iter().map(|&i| nodes[i]).collect();
        names.sort_unstable();
        let in_cycle: BTreeSet<&str> = names.iter().copied().collect();
        let mut witnesses: Vec<&LockEdge> = edges
            .iter()
            .filter(|e| in_cycle.contains(e.from.as_str()) && in_cycle.contains(e.to.as_str()))
            .collect();
        witnesses.sort_by_key(|e| (&e.from, &e.to));
        witnesses.dedup_by_key(|e| (e.from.clone(), e.to.clone()));
        let first = witnesses.first().expect("cycle has at least one edge");
        let detail = witnesses
            .iter()
            .map(|e| format!("{} -> {} at {}:{}", e.from, e.to, e.path, e.line))
            .collect::<Vec<_>>()
            .join("; ");
        out.push(Finding {
            check: Check::LockOrder,
            path: first.path.clone(),
            line: first.line,
            message: format!(
                "potential deadlock: lock-order cycle among [{}] ({detail}) — pick one global \
                 order and release the outer lock first",
                names.join(", ")
            ),
        });
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn graph(files: &[(&str, &str)]) -> Vec<Finding> {
        let mut g = LockGraph::default();
        for (path, src) in files {
            g.add_file(path, &scan(src));
        }
        g.finish().1
    }

    #[test]
    fn consistent_nesting_is_clean() {
        let src = "\
fn a(&self) {
    let g = self.outer.lock();
    self.inner.lock().push(1);
}
fn b(&self) {
    let g = self.outer.lock();
    let h = self.inner.lock();
}
";
        assert!(graph(&[("crates/x/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn cross_file_cycle_is_one_finding() {
        let a =
            "fn a(&self) {\n    let g = self.reg_a.lock();\n    let h = self.reg_b.lock();\n}\n";
        let b =
            "fn b(&self) {\n    let g = self.reg_b.lock();\n    let h = self.reg_a.lock();\n}\n";
        let f = graph(&[("crates/x/src/a.rs", a), ("crates/y/src/b.rs", b)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].check, Check::LockOrder);
        assert!(f[0].message.contains("reg_a") && f[0].message.contains("reg_b"));
    }

    #[test]
    fn temporaries_do_not_hold() {
        let src = "\
fn a(&self) {
    self.x.lock().push(1);
    let g = self.y.lock();
}
fn b(&self) {
    let g = self.y.lock();
    self.x.lock().push(1);
}
";
        // a: x is a temporary (released), then y — no x→y edge, so b's
        // y→x edge cannot close a cycle.
        assert!(graph(&[("crates/x/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "\
fn a(&self) {
    let g = self.x.lock();
    drop(g);
    let h = self.y.lock();
}
fn b(&self) {
    let g = self.y.lock();
    self.x.lock().clear();
}
";
        assert!(graph(&[("crates/x/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn block_scoped_guards_die_with_their_block() {
        let src = "\
fn a(&self) {
    {
        let g = self.x.lock();
    }
    let h = self.y.lock();
}
fn b(&self) {
    let g = self.y.lock();
    self.x.lock().clear();
}
";
        assert!(graph(&[("crates/x/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn one_hop_call_resolution_builds_cross_fn_edges() {
        let a = "\
fn helper(&self) {
    self.inner_lock.lock().push(1);
}
fn outer(&self) {
    let g = self.outer_lock.lock();
    self.helper();
}
";
        let b = "\
fn other(&self) {
    let g = self.inner_lock.lock();
    self.outer_lock.lock().clear();
}
";
        let f = graph(&[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("inner_lock") && f[0].message.contains("outer_lock"));
    }

    #[test]
    fn self_lock_resolves_through_same_crate_fn_lock() {
        let src = "\
fn lock(&self) -> Guard {
    self.inner.ledger.lock()
}
fn admit(&self) {
    let mut ledger = self.lock();
    self.waiters.lock().push(1);
}
fn release(&self) {
    let g = self.waiters.lock();
    let l = self.lock();
}
";
        let f = graph(&[("crates/fault/src/admission.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("ledger") && f[0].message.contains("waiters"));
    }

    #[test]
    fn test_code_builds_no_edges() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(&self) {
        let g = self.a.lock();
        let h = self.b.lock();
    }
    fn u(&self) {
        let g = self.b.lock();
        let h = self.a.lock();
    }
}
";
        assert!(graph(&[("crates/x/src/lib.rs", src)]).is_empty());
    }
}
