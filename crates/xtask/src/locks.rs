//! The `locks` pass — `cargo run -p xtask -- locks` (and `-- audit`).
//!
//! The engine's concurrency surface is small but load-bearing: `std`
//! mutexes around telemetry/trace/metrics registries, the executor's one
//! claim lock, a `RwLock` around the yield hook, and mutexes in the bench
//! capture plane. The executor holds its claim lock alone, never together
//! with another lock, and never while a task runs; this pass checks rules
//! of that kind for the whole workspace, statically. It finds every guard
//! acquisition (`.lock()`, `.read()`, `.write()` with empty argument lists —
//! IO `read`/`write` calls always take a buffer), reconstructs the guard's
//! lexical scope, and enforces three rules on non-test library code:
//!
//! * **lock-wildcard** — a guard bound to `_` (`let _ = m.lock();`) is
//!   dropped immediately: the critical section is empty and the lock is a
//!   silent no-op. Bind it to a name (`_held`) or delete it.
//! * **lock-blocking** — a guard held across a blocking operation (channel
//!   `send`/`recv`, thread `join`/`spawn`, sleeps, blocking IO, or a call
//!   documented to take another registry's lock) turns a bounded critical
//!   section into an unbounded one and can deadlock against the lock's
//!   other users. Hoist the blocking work out of the critical section.
//! * **lock-nested** / **lock-cycle** — acquiring a second lock while one
//!   is held creates an edge in the per-crate lock-order graph (keyed by
//!   the receiver's field path, indexes normalized to `[_]`). Every nested
//!   acquisition must be justified; two crates-worth of edges that form a
//!   cycle are a deadlock waiting for the right interleaving and are
//!   rejected outright — `lock-cycle` has no suppression tag.
//!
//! Guard scopes are lexical approximations (DESIGN.md §14): a `let`-bound
//! guard lives to the end of its block (or an explicit `drop(name)`); a
//! temporary guard (`m.lock().push(x)`) lives to the end of its statement.
//! Adapter chains that still yield the guard (`.expect(..)`, `.unwrap()`,
//! `.unwrap_or_else(..)`) are recognized, so a poison-tolerant
//! `.lock().unwrap_or_else(PoisonError::into_inner)` parses like a bare
//! `.lock()`. Stdio locks (`stdout().lock()`) serialize output
//! only and are out of scope. Justifications use the `locks(<why>)` tag on
//! the flagged line or up to three lines above.

use std::collections::{BTreeMap, BTreeSet};

use crate::audit::{scope_end, stmt_start, PassOutcome, SourceFile, Violation};

/// Blocking operations a guard must not be held across, with the reason
/// used in the diagnostic. Lexical needles over the masked code view.
const BLOCKING: &[(&str, &str)] = &[
    (".send(", "a channel send"),
    (".recv(", "a channel receive"),
    ("recv_timeout(", "a channel receive"),
    (".join()", "a thread join"),
    ("spawn(", "a thread spawn"),
    ("sleep(", "a sleep"),
    (".write_all(", "a blocking IO write"),
    (".flush()", "a blocking IO flush"),
    (".read_to_string(", "a blocking IO read"),
    (".read_to_end(", "a blocking IO read"),
    ("connect(", "a network connect"),
    ("connect_timeout(", "a network connect"),
    (".accept()", "a network accept"),
    ("File::create(", "file IO"),
    ("File::open(", "file IO"),
    ("fs::write(", "file IO"),
    ("fs::rename(", "file IO"),
    ("remove_file(", "file IO"),
    (".wait(", "a condvar wait"),
    // Project calls documented to take an internal registry lock: grabbing
    // a full telemetry snapshot while holding another guard nests the
    // registry mutex under it (see `TelemetryRegistry::snapshot`).
    (
        ".telemetry().snapshot(",
        "a telemetry snapshot (takes the registry lock)",
    ),
    (
        "registry.snapshot(",
        "a telemetry snapshot (takes the registry lock)",
    ),
];

/// How the guard produced by an acquisition is held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Binding {
    /// `let name = m.lock();` — lives to end of block or `drop(name)`.
    Named(String),
    /// `m.lock().push(x)` — lives to the end of the statement.
    Temp,
    /// `let _ = m.lock();` — dropped before the semicolon.
    Wildcard,
}

/// One audited guard acquisition.
pub(crate) struct Site {
    pub path: String,
    pub line: usize,
    /// `"lock"`, `"read"` or `"write"`.
    pub kind: &'static str,
    /// Normalized receiver field path (`self.` stripped, indexes `[_]`).
    pub key: String,
    pub binding: Binding,
    /// Guard scope as byte offsets into the file's code view.
    pub scope: (usize, usize),
    /// Byte offset of the acquisition itself.
    pub pos: usize,
    /// The `locks(<why>)` tag found at the site, if any.
    pub tag: Option<String>,
}

impl Site {
    pub(crate) fn describe(&self) -> String {
        let binding = match &self.binding {
            Binding::Named(n) => format!("guard={n}"),
            Binding::Temp => "guard=temp".to_string(),
            Binding::Wildcard => "guard=_".to_string(),
        };
        format!(
            "{}:{}: {} `{}` {} [{}]",
            self.path,
            self.line,
            self.kind,
            self.key,
            binding,
            self.tag.as_deref().unwrap_or("-"),
        )
    }
}

/// One lock-order edge: while a guard of `outer` was held, `inner` was
/// acquired. `line` is the inner acquisition (for diagnostics).
pub(crate) struct Edge {
    pub crate_key: String,
    pub outer: String,
    pub inner: String,
    pub path: String,
    pub line: usize,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scans backward from `dot` (the `.` of `.lock()`) over the receiver
/// chain: identifiers, `.`/`::` separators, balanced `[...]`/`(...)`
/// suffixes and interleaved whitespace. Returns the receiver's byte span.
fn receiver_span(code: &str, dot: usize) -> Option<(usize, usize)> {
    let bytes = code.as_bytes();
    let end = dot;
    let mut i = dot;
    let mut expecting_segment = true;
    loop {
        // Skip whitespace between chain links (`foo\n    .lock()`).
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 {
            break;
        }
        let b = bytes[i - 1];
        if b == b']' || b == b')' {
            // Balanced group suffix: `pending[idx]`, `stdout()`.
            let open = if b == b']' { b'[' } else { b'(' };
            let close = b;
            let mut depth = 0usize;
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
            expecting_segment = true;
            continue;
        }
        if is_ident_byte(b) {
            while i > 0 && is_ident_byte(bytes[i - 1]) {
                i -= 1;
            }
            expecting_segment = false;
            // A separator may precede this segment.
            let mut j = i;
            while j > 0 && bytes[j - 1].is_ascii_whitespace() {
                j -= 1;
            }
            if j > 0 && bytes[j - 1] == b'.' {
                i = j - 1;
                expecting_segment = true;
                continue;
            }
            if j > 1 && bytes[j - 1] == b':' && bytes[j - 2] == b':' {
                i = j - 2;
                expecting_segment = true;
                continue;
            }
            break;
        }
        break;
    }
    (!expecting_segment && i < end).then_some((i, end))
}

/// Normalizes a receiver span into the lock-order key: whitespace removed,
/// index expressions collapsed to `[_]`, leading `self.` stripped.
fn normalize_key(recv: &str) -> String {
    let mut out = String::new();
    let bytes = recv.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'[' {
                        depth += 1;
                    } else if bytes[i] == b']' {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
                out.push_str("[_]");
                i += 1;
            }
            b if b.is_ascii_whitespace() => i += 1,
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out.strip_prefix("self.")
        .map_or(out.clone(), str::to_string)
}

/// Consumes the adapter chain after an acquisition that still yields the
/// guard: `.expect(..)`, `.unwrap()`, `.unwrap_or_else(..)`. Returns the
/// offset just past the last adapter.
fn consume_adapters(code: &str, mut pos: usize) -> usize {
    let bytes = code.as_bytes();
    loop {
        let mut j = pos;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let rest = &code[j..];
        let adapter = [".expect(", ".unwrap_or_else(", ".unwrap()"]
            .into_iter()
            .find(|a| rest.starts_with(a));
        let Some(adapter) = adapter else { return pos };
        if adapter == ".unwrap()" {
            pos = j + adapter.len();
            continue;
        }
        // Skip the balanced argument list from the adapter's `(`.
        let mut k = j + adapter.len() - 1;
        let mut depth = 0usize;
        while k < bytes.len() {
            match bytes[k] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        pos = k;
    }
}

/// The crate a root-relative path belongs to, for the per-crate order graph.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        _ => "suite".to_string(),
    }
}

/// The outcome of auditing one file.
pub(crate) struct FileAudit {
    pub sites: Vec<Site>,
    pub violations: Vec<Violation>,
    pub edges: Vec<Edge>,
}

/// Audits one parsed file (callers filter to library files).
pub(crate) fn audit_file(file: &SourceFile) -> FileAudit {
    let code = &file.code;
    let mut sites: Vec<Site> = Vec::new();

    for (needle, kind) in [
        (".lock()", "lock"),
        (".read()", "read"),
        (".write()", "write"),
    ] {
        for (dot, _) in code.match_indices(needle) {
            if file.in_test(dot) {
                continue;
            }
            let Some((rs, re)) = receiver_span(code, dot) else {
                continue;
            };
            let key = normalize_key(&code[rs..re]);
            // Stdio locks serialize output only; out of scope by policy.
            if key.ends_with("stdout()") || key.ends_with("stderr()") || key.ends_with("stdin()") {
                continue;
            }
            let after = consume_adapters(code, dot + needle.len());
            let start = stmt_start(code, rs);
            let stmt_head = code[start..rs].trim_start();
            // Does the guard land in a `let` binding directly (nothing but
            // adapters between the acquisition and the `;`)?
            let mut j = after;
            let bytes = code.as_bytes();
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let ends_stmt = bytes.get(j) == Some(&b';');
            let binding = if let Some(rest) = stmt_head.strip_prefix("let ") {
                let rest = rest.trim_start();
                let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if ends_stmt && name == "_" {
                    Binding::Wildcard
                } else if ends_stmt && !name.is_empty() {
                    Binding::Named(name)
                } else {
                    Binding::Temp
                }
            } else {
                Binding::Temp
            };
            let scope = match &binding {
                Binding::Wildcard => (after, after),
                Binding::Temp => (after, scope_end(code, after, true)),
                Binding::Named(name) => {
                    let from = j + 1; // just past the `let`'s `;`
                    let mut to = scope_end(code, from, false);
                    // `drop(name)` releases the guard early.
                    let drop_needle = format!("drop({name})");
                    if let Some(p) = code[from..to].find(&drop_needle) {
                        to = from + p;
                    }
                    (from, to)
                }
            };
            let line = file.line_of(dot);
            sites.push(Site {
                path: file.rel.clone(),
                line,
                kind,
                key,
                binding,
                scope,
                pos: dot,
                tag: file.tag("locks", line),
            });
        }
    }
    sites.sort_by_key(|s| s.pos);

    let mut violations = Vec::new();
    let mut edges = Vec::new();
    let crate_key = crate_of(&file.rel);
    for i in 0..sites.len() {
        let site = &sites[i];
        match &site.binding {
            Binding::Wildcard => {
                if site.tag.is_none() {
                    violations.push(file.violation(
                        "lock-wildcard",
                        site.pos,
                        format!(
                            "guard of `{}` bound to `_` is dropped immediately — the critical \
                             section is empty; bind it to a name or delete the lock",
                            site.key
                        ),
                    ));
                }
                continue;
            }
            Binding::Temp | Binding::Named(_) => {}
        }
        let (from, to) = site.scope;
        let window = &code[from..to.max(from)];
        for (needle, what) in BLOCKING {
            if let Some(p) = window.find(needle) {
                if site.tag.is_none() && file.tag("locks", file.line_of(from + p)).is_none() {
                    violations.push(file.violation(
                        "lock-blocking",
                        from + p,
                        format!(
                            "guard of `{}` (acquired line {}) held across {what} — hoist the \
                             blocking work out of the critical section or justify with a \
                             `locks(<why>)` tag",
                            site.key, site.line
                        ),
                    ));
                }
            }
        }
        // Second acquisitions inside this guard's scope: order-graph edges.
        for inner in &sites {
            if inner.pos > from && inner.pos < to && inner.pos != site.pos {
                edges.push(Edge {
                    crate_key: crate_key.clone(),
                    outer: site.key.clone(),
                    inner: inner.key.clone(),
                    path: file.rel.clone(),
                    line: inner.line,
                });
                if site.tag.is_none() && inner.tag.is_none() {
                    violations.push(file.violation(
                        "lock-nested",
                        inner.pos,
                        format!(
                            "`{}` acquired while a guard of `{}` (line {}) is held — nested \
                             locks need a `locks(<why>)` tag stating the global order",
                            inner.key, site.key, site.line
                        ),
                    ));
                }
            }
        }
    }
    violations.sort_by_key(|v| (v.line, v.col));
    FileAudit {
        sites,
        violations,
        edges,
    }
}

/// Nodes of `edges` that sit on a cycle: a node is cyclic iff it can reach
/// itself through the order graph (self-loops included). Lock-order graphs
/// are tiny — a per-node DFS is exact and plenty fast, where plain Kahn
/// peeling would also keep acyclic nodes downstream of a cycle.
/// Deterministic via BTree ordering.
pub(crate) fn cycle_nodes(edges: &[(String, String)]) -> Vec<String> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut out: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges {
        nodes.insert(a);
        nodes.insert(b);
        out.entry(a).or_default().insert(b);
    }
    let mut cyclic = Vec::new();
    for &start in &nodes {
        let mut stack: Vec<&str> = out.get(start).into_iter().flatten().copied().collect();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut reaches_self = false;
        while let Some(n) = stack.pop() {
            if n == start {
                reaches_self = true;
                break;
            }
            if seen.insert(n) {
                stack.extend(out.get(n).into_iter().flatten().copied());
            }
        }
        if reaches_self {
            cyclic.push(start.to_string());
        }
    }
    cyclic
}

/// Audits the library files of the parsed tree and checks each crate's
/// lock-order graph for cycles.
pub(crate) fn run(sources: &[SourceFile]) -> PassOutcome {
    let mut sites = Vec::new();
    let mut violations = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    for file in sources {
        if !file.is_library() {
            continue;
        }
        let audit = audit_file(file);
        sites.extend(audit.sites.iter().map(Site::describe));
        violations.extend(audit.violations);
        edges.extend(audit.edges);
    }
    // Per-crate cycle check over the accumulated order graph.
    let mut by_crate: BTreeMap<&str, Vec<(String, String)>> = BTreeMap::new();
    for e in &edges {
        by_crate
            .entry(&e.crate_key)
            .or_default()
            .push((e.outer.clone(), e.inner.clone()));
    }
    for (crate_key, pairs) in &by_crate {
        let cyclic = cycle_nodes(pairs);
        if cyclic.is_empty() {
            continue;
        }
        // Anchor the diagnostic at the first edge into the cycle.
        let anchor = edges
            .iter()
            .find(|e| {
                e.crate_key == *crate_key && cyclic.contains(&e.outer) && cyclic.contains(&e.inner)
            })
            .expect("a cycle implies at least one edge between cyclic nodes");
        violations.push(Violation {
            rule: "lock-cycle",
            path: anchor.path.clone(),
            line: anchor.line,
            col: 1,
            msg: format!(
                "lock-order cycle in {} between {{{}}} — two sites acquire these locks in \
                 opposite orders; no tag can justify a deadlock, fix the ordering",
                crate_key,
                cyclic.join(", ")
            ),
        });
    }
    PassOutcome {
        pass: "locks",
        sites,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/lib.rs";

    fn audit(src: &str) -> FileAudit {
        audit_file(&SourceFile::parse(LIB, src))
    }

    #[test]
    fn named_parking_lot_guard_is_inventoried_clean() {
        let src = "fn f(&self) {\n    let mut events = self.inner.events.lock();\n    events.push(1);\n}\n";
        let a = audit(src);
        assert_eq!(a.sites.len(), 1);
        assert_eq!(a.sites[0].key, "inner.events");
        assert_eq!(a.sites[0].binding, Binding::Named("events".to_string()));
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn std_expect_chain_and_multiline_receivers_parse() {
        let src = "fn f(&self) {\n    self.reports\n        .lock()\n        .expect(\"poisoned\")\n        .push(1);\n}\n";
        let a = audit(src);
        assert_eq!(a.sites.len(), 1);
        assert_eq!(a.sites[0].key, "reports");
        assert_eq!(a.sites[0].binding, Binding::Temp);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn rwlock_poison_recovery_idiom_parses() {
        let src = "fn f() {\n    *HOOK.write().unwrap_or_else(std::sync::PoisonError::into_inner) = None;\n}\n";
        let a = audit(src);
        assert_eq!(a.sites.len(), 1);
        assert_eq!(a.sites[0].kind, "write");
        assert_eq!(a.sites[0].key, "HOOK");
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn wildcard_guard_is_flagged() {
        let src = "fn f(m: &Mutex<u32>) {\n    let _ = m.lock();\n}\n";
        let a = audit(src);
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
        assert_eq!(a.violations[0].rule, "lock-wildcard");
        // Discarding a *result computed under* a temp guard is not a
        // wildcard guard.
        let used = "fn f(m: &Mutex<Vec<u32>>) {\n    let _ = m.lock().len();\n}\n";
        assert!(audit(used).violations.is_empty());
    }

    #[test]
    fn guard_across_blocking_op_is_flagged_and_taggable() {
        let src = "fn f(&self, tx: &Sender<u32>) {\n    let g = self.state.lock();\n    tx.send(*g);\n}\n";
        let a = audit(src);
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
        assert_eq!(a.violations[0].rule, "lock-blocking");
        assert!(a.violations[0].msg.contains("channel send"));

        let tagged = "fn f(&self, tx: &Sender<u32>) {\n    // locks(send is non-blocking: unbounded channel)\n    let g = self.state.lock();\n    tx.send(*g);\n}\n";
        assert!(audit(tagged).violations.is_empty());
    }

    #[test]
    fn temp_guard_scope_ends_at_the_statement() {
        let src = "fn f(&self, s: &mut TcpStream) {\n    self.state.lock().push(1);\n    s.write_all(b\"x\");\n}\n";
        assert!(audit(src).violations.is_empty());
    }

    #[test]
    fn dropping_a_named_guard_ends_its_scope() {
        let src = "fn f(&self, s: &mut TcpStream) {\n    let g = self.state.lock();\n    drop(g);\n    s.write_all(b\"x\");\n}\n";
        assert!(audit(src).violations.is_empty());
        let held = "fn f(&self, s: &mut TcpStream) {\n    let g = self.state.lock();\n    s.write_all(b\"x\");\n}\n";
        assert_eq!(audit(held).violations.len(), 1);
    }

    #[test]
    fn nested_acquisition_records_an_edge_and_needs_a_tag() {
        let src =
            "fn f(&self) {\n    let a = self.first.lock();\n    let b = self.second.lock();\n}\n";
        let a = audit(src);
        assert_eq!(a.edges.len(), 1);
        assert_eq!(a.edges[0].outer, "first");
        assert_eq!(a.edges[0].inner, "second");
        assert!(
            a.violations.iter().any(|v| v.rule == "lock-nested"),
            "{:?}",
            a.violations
        );
    }

    #[test]
    fn indexes_normalize_into_one_key() {
        let src = "fn f(pending: &[Mutex<u32>], idx: usize) {\n    pending[idx]\n        .lock()\n        .checked_add(1);\n}\n";
        let a = audit(src);
        assert_eq!(a.sites.len(), 1);
        assert_eq!(a.sites[0].key, "pending[_]");
    }

    #[test]
    fn stdio_locks_are_out_of_scope() {
        let src = "fn f() {\n    let mut out = std::io::stdout().lock();\n}\n";
        let a = audit(src);
        assert!(a.sites.is_empty());
        assert!(a.violations.is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod t {\n    fn f(m: &Mutex<u32>) { let _ = m.lock(); }\n}\n";
        assert!(audit(src).violations.is_empty());
    }

    #[test]
    fn snapshot_under_capture_lock_regression() {
        // The pre-fix shape of a capture method that retained each run's
        // telemetry snapshot: the snapshots guard held while `snapshot()`
        // takes the telemetry registry lock.
        let old = "fn keep_snapshot(&self, cluster: &Cluster) {\n    self.snapshots\n        .lock()\n        .expect(\"capture snapshot lock poisoned\")\n        .push(cluster.telemetry().snapshot().to_json());\n}\n";
        let a = audit(old);
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
        assert_eq!(a.violations[0].rule, "lock-blocking");
        assert!(a.violations[0].msg.contains("telemetry snapshot"));

        // The fixed shape: snapshot first, lock after.
        let fixed = "fn keep_snapshot(&self, cluster: &Cluster) {\n    let doc = cluster.telemetry().snapshot().to_json();\n    self.snapshots\n        .lock()\n        .expect(\"capture snapshot lock poisoned\")\n        .push(doc);\n}\n";
        assert!(audit(fixed).violations.is_empty());
    }

    #[test]
    fn cycle_detector_on_hand_built_orderings() {
        let e = |a: &str, b: &str| (a.to_string(), b.to_string());
        // Consistent order: no cycle.
        assert!(cycle_nodes(&[e("a", "b"), e("b", "c"), e("a", "c")]).is_empty());
        // Opposite orders: both nodes are cyclic.
        assert_eq!(cycle_nodes(&[e("a", "b"), e("b", "a")]), vec!["a", "b"]);
        // Self-loop (re-entrant acquisition) is a cycle.
        assert_eq!(cycle_nodes(&[e("a", "a")]), vec!["a"]);
        // A cycle does not drag in acyclic neighbors.
        assert_eq!(
            cycle_nodes(&[e("x", "a"), e("a", "b"), e("b", "a"), e("b", "y")]),
            vec!["a", "b"]
        );
        // Longer cycle.
        assert_eq!(
            cycle_nodes(&[e("a", "b"), e("b", "c"), e("c", "a")]),
            vec!["a", "b", "c"]
        );
        assert!(cycle_nodes(&[]).is_empty());
    }

    #[test]
    fn run_reports_cycles_across_functions() {
        let src = "fn f(&self) {\n    // locks(order: first then second)\n    let a = self.first.lock();\n    let b = self.second.lock();\n}\nfn g(&self) {\n    // locks(order: second then first)\n    let b = self.second.lock();\n    let a = self.first.lock();\n}\n";
        let file = SourceFile::parse(LIB, src);
        let outcome = run(&[file]);
        let cycles: Vec<_> = outcome
            .violations
            .iter()
            .filter(|v| v.rule == "lock-cycle")
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", outcome.violations);
        assert!(cycles[0].msg.contains("first"));
        assert!(cycles[0].msg.contains("second"));
    }

    #[test]
    fn run_skips_non_library_files() {
        let test_file = SourceFile::parse(
            "crates/demo/tests/t.rs",
            "fn f(m: &Mutex<u32>) { let _ = m.lock(); }\n",
        );
        let outcome = run(&[test_file]);
        assert!(outcome.sites.is_empty());
        assert!(outcome.violations.is_empty());
    }
}
