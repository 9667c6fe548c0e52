//! The `atomics` pass — `cargo run -p xtask -- atomics` (and `-- audit`).
//!
//! A comment near an `Ordering::Relaxed` says nothing a tool can check.
//! This pass makes the justification structural: every
//! `Ordering::*` site in non-test library code is parsed, its operation is
//! recovered (which atomic method consumes the ordering), and `Relaxed`
//! sites must carry a machine-readable **class tag** in the audit core's
//! comment window (same line or ≤3 lines above):
//!
//! ```text
//! // relaxed(counter): independent statistics counter, read only after …
//! rs_joins.fetch_add(1, Ordering::Relaxed);
//! ```
//!
//! The taxonomy (DESIGN.md §"Concurrency checking and architectural
//! analysis"):
//!
//! | class             | meaning                                             | legal operations |
//! |-------------------|-----------------------------------------------------|------------------|
//! | `counter`         | monotonic statistic, read only after a join/barrier | RMW (`fetch_*`)  |
//! | `cursor`          | work-stealing claim index; atomicity is the payload | RMW (`fetch_*`)  |
//! | `unique-id`       | id/suffix allocator; only distinctness matters      | RMW (`fetch_*`)  |
//! | `flag`            | sticky best-effort boolean publishing nothing else  | `load` / `store` |
//! | `read-after-join` | read forced after writers joined (torn-read tolerant)| `load`          |
//!
//! A `Relaxed` **store** tagged anything but `flag` is cross-thread
//! publication without a release fence — the exact bug class the executor's
//! hand-over discipline forbids — and is rejected. `Relaxed` on
//! `swap`/`compare_exchange*` is always rejected (those exist to
//! synchronize). Non-`Relaxed` sites are inventoried for the report but
//! never violations: stronger-than-needed ordering is a performance
//! question, not a correctness one.

use crate::audit::{PassOutcome, SourceFile, Violation};

/// The `relaxed(<class>)` tags the audit accepts, with the operations each
/// class may justify.
const CLASSES: &[(&str, &[Op])] = &[
    ("counter", &[Op::Rmw]),
    ("cursor", &[Op::Rmw]),
    ("unique-id", &[Op::Rmw]),
    ("flag", &[Op::Load, Op::Store]),
    ("read-after-join", &[Op::Load]),
];

/// The kind of atomic operation consuming an `Ordering` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Load,
    Store,
    Rmw,
    Exchange,
    Unknown,
}

impl Op {
    fn describe(self) -> &'static str {
        match self {
            Op::Load => "load",
            Op::Store => "store",
            Op::Rmw => "read-modify-write",
            Op::Exchange => "swap/compare-exchange",
            Op::Unknown => "unrecognized operation",
        }
    }
}

/// One audited `Ordering::*` site (the pass inventory).
#[derive(Debug)]
pub(crate) struct Site {
    /// Root-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The ordering name (`Relaxed`, `Acquire`, …).
    pub ordering: String,
    /// The consuming operation.
    op: Op,
    /// The `relaxed(<class>)` tag found in the comment window, if any.
    pub class: Option<String>,
}

impl Site {
    /// One inventory line for the CLI report.
    pub(crate) fn describe(&self) -> String {
        format!(
            "{}:{}: {} {} [{}]",
            self.path,
            self.line,
            self.ordering,
            self.op.describe(),
            self.class.as_deref().unwrap_or("-"),
        )
    }
}

/// Recovers the operation that consumes the ordering at `pos`: the last
/// atomic method name between the start of the statement and the site.
/// (`compare_exchange(…, Ordering::SeqCst, Ordering::Relaxed)` resolves
/// both ordering arguments to the same call.)
fn op_before(code: &str, pos: usize) -> Op {
    let stmt_start = code[..pos].rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let window = &code[stmt_start..pos];
    const METHODS: &[(&str, Op)] = &[
        ("compare_exchange_weak", Op::Exchange),
        ("compare_exchange", Op::Exchange),
        ("swap", Op::Exchange),
        ("fetch_update", Op::Exchange),
        ("load", Op::Load),
        ("store", Op::Store),
        ("fetch_add", Op::Rmw),
        ("fetch_sub", Op::Rmw),
        ("fetch_and", Op::Rmw),
        ("fetch_or", Op::Rmw),
        ("fetch_xor", Op::Rmw),
        ("fetch_nand", Op::Rmw),
        ("fetch_max", Op::Rmw),
        ("fetch_min", Op::Rmw),
    ];
    let mut best: Option<(usize, Op)> = None;
    for &(name, op) in METHODS {
        let needle = format!(".{name}");
        if let Some(p) = window.rfind(&needle) {
            // Longest-name-first table order breaks ties at equal positions
            // (`.compare_exchange_weak` vs `.compare_exchange`).
            if best.is_none_or(|(bp, _)| p > bp) {
                best = Some((p, op));
            }
        }
    }
    best.map_or(Op::Unknown, |(_, op)| op)
}

/// Audits one parsed file: returns the site inventory and any violations.
pub(crate) fn audit_file(file: &SourceFile) -> (Vec<Site>, Vec<Violation>) {
    let mut sites = Vec::new();
    let mut violations = Vec::new();
    if !file.is_library() {
        return (sites, violations);
    }
    let code = &file.code;

    for (pos, _) in code.match_indices("Ordering::") {
        if file.in_test(pos) {
            continue;
        }
        let after = &code[pos + "Ordering::".len()..];
        let ordering: String = after
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].contains(&ordering.as_str()) {
            continue;
        }
        let line = file.line_of(pos);
        let op = op_before(code, pos);
        let class = file.tag("relaxed", line);
        let mut push = |msg: String| {
            violations.push(file.violation("atomics-audit", pos, msg));
        };
        if ordering == "Relaxed" {
            match &class {
                None => push(
                    "`Ordering::Relaxed` without a `relaxed(<class>)` tag — classify it as \
                     counter, cursor, unique-id, flag or read-after-join in the comment"
                        .to_string(),
                ),
                Some(class) => match CLASSES.iter().find(|(name, _)| name == class) {
                    None => push(format!(
                        "unknown relaxed class `{class}` — use counter, cursor, unique-id, \
                         flag or read-after-join"
                    )),
                    Some((_, legal_ops)) => {
                        if op == Op::Exchange {
                            push(
                                "`Ordering::Relaxed` on swap/compare-exchange — these \
                                 operations exist to synchronize; use AcqRel or SeqCst"
                                    .to_string(),
                            );
                        } else if !legal_ops.contains(&op) {
                            push(format!(
                                "relaxed class `{class}` does not justify a {}{}",
                                op.describe(),
                                if op == Op::Store {
                                    " — a Relaxed store is cross-thread publication unless \
                                     the value is a self-contained flag"
                                } else {
                                    ""
                                }
                            ));
                        }
                    }
                },
            }
        }
        sites.push(Site {
            path: file.rel.clone(),
            line,
            ordering,
            op,
            class,
        });
    }
    (sites, violations)
}

/// Audits the whole parsed tree.
pub(crate) fn run(sources: &[SourceFile]) -> PassOutcome {
    let mut sites = Vec::new();
    let mut violations = Vec::new();
    for file in sources {
        let (s, v) = audit_file(file);
        sites.extend(s.iter().map(Site::describe));
        violations.extend(v);
    }
    PassOutcome {
        pass: "atomics",
        sites,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/lib.rs";

    fn audit(rel: &str, src: &str) -> (Vec<Site>, Vec<Violation>) {
        audit_file(&SourceFile::parse(rel, src))
    }

    #[test]
    fn tagged_counter_rmw_is_clean() {
        let src = "fn f(c: &AtomicU64) {\n // relaxed(counter): independent statistic.\n c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let (sites, violations) = audit(LIB, src);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].class.as_deref(), Some("counter"));
    }

    #[test]
    fn untagged_relaxed_is_flagged() {
        let src =
            "fn f(c: &AtomicU64) {\n // relaxed is fine here, trust me.\n c.load(Ordering::Relaxed);\n}\n";
        let (_, violations) = audit(LIB, src);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].msg.contains("relaxed(<class>)"),
            "{violations:?}"
        );
    }

    #[test]
    fn relaxed_store_needs_the_flag_class() {
        let bad = "fn f(c: &AtomicU64) {\n // relaxed(counter): wat.\n c.store(1, Ordering::Relaxed);\n}\n";
        let (_, violations) = audit(LIB, bad);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].msg.contains("cross-thread publication"),
            "{violations:?}"
        );

        let good = "fn f(c: &AtomicBool) {\n // relaxed(flag): sticky best-effort bit.\n c.store(true, Ordering::Relaxed);\n}\n";
        assert!(audit(LIB, good).1.is_empty());
    }

    #[test]
    fn relaxed_compare_exchange_is_always_rejected() {
        let src = "fn f(c: &AtomicU64) {\n // relaxed(cursor): racing claim.\n let _ = c.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);\n}\n";
        let (sites, violations) = audit(LIB, src);
        assert_eq!(sites.len(), 2, "both ordering args are sites");
        assert_eq!(violations.len(), 2);
        assert!(violations[0].msg.contains("swap/compare-exchange"));
    }

    #[test]
    fn unknown_class_is_flagged() {
        let src = "fn f(c: &AtomicU64) {\n // relaxed(vibes): it felt right.\n c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let (_, violations) = audit(LIB, src);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].msg.contains("unknown relaxed class `vibes`"));
    }

    #[test]
    fn read_after_join_justifies_loads_only() {
        let load = "fn f(c: &AtomicU64) -> u64 {\n // relaxed(read-after-join): workers joined above.\n c.load(Ordering::Relaxed)\n}\n";
        assert!(audit(LIB, load).1.is_empty());
        let rmw = "fn f(c: &AtomicU64) {\n // relaxed(read-after-join): nope.\n c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert_eq!(audit(LIB, rmw).1.len(), 1);
    }

    #[test]
    fn stronger_orderings_are_inventory_not_violations() {
        let src = "fn f(c: &AtomicBool) {\n c.store(true, Ordering::Release);\n c.load(Ordering::Acquire);\n}\n";
        let (sites, violations) = audit(LIB, src);
        assert!(violations.is_empty());
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].ordering, "Release");
    }

    #[test]
    fn test_code_and_non_library_paths_are_exempt() {
        let src = "#[cfg(test)]\nmod t {\n fn g(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n}\n";
        assert!(audit(LIB, src).1.is_empty());
        let bare = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        assert!(audit("crates/demo/tests/t.rs", bare).1.is_empty());
    }

    #[test]
    fn ordering_in_strings_and_comments_is_ignored() {
        let src =
            "// Ordering::Relaxed in prose.\nfn f() -> &'static str { \"Ordering::Relaxed\" }\n";
        let (sites, violations) = audit(LIB, src);
        assert!(sites.is_empty() && violations.is_empty());
    }
}
