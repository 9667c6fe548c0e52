//! The `lint` pass behind `cargo run -p xtask -- lint` (and `-- audit`).
//!
//! The workspace policy (see DESIGN.md §"Static analysis & invariants"):
//!
//! * **no-unsafe** — no `unsafe` anywhere in the tree, tests included. The
//!   join kernels and the dataflow engine are 100% safe Rust and must stay so.
//! * **no-unwrap** / **no-panic** — no `.unwrap()` or `panic!(..)` in library
//!   code (any `src/` file) outside `#[cfg(test)]` regions. Use
//!   `.expect("<violated invariant>")` or propagate a proper error. Known
//!   stragglers live in the allowlist file, which may only ever shrink.
//! * **relaxed-comment** — every `Ordering::Relaxed` in non-test library code
//!   must carry a justifying comment mentioning "relaxed" on the same line or
//!   one of the three lines above it. Relaxed atomics are correct exactly
//!   when no other memory location is synchronized through them; the comment
//!   states why that holds at the site. (The `atomics` pass tightens this
//!   into the structural `relaxed(<class>)` grammar.)
//! * **no-todo** / **no-dbg** — no `todo!()` or `dbg!()` left anywhere in
//!   committed code.
//! * **stale-allow** — an allowlist entry that no longer matches a violation
//!   must be deleted (the list shrinks, it never idles).
//!
//! Demo code — `examples/` and `src/bin/` binaries — gets a relaxed set:
//! `.unwrap()` and `panic!` are acceptable in a binary that aborts on bad
//! input, but `todo!`/`dbg!`/`unsafe` stay banned and `Ordering::Relaxed`
//! still needs its justifying comment. This keeps demo code from drifting
//! without forcing library-grade error plumbing onto walkthroughs.
//!
//! The analyzer is deliberately lexical: it rides the audit core's masked
//! source model (`crate::audit`), pattern-matching the code view with
//! comments and string literals blanked out. That is robust against false
//! positives from doc examples and fixture strings without needing a full
//! parser (and thus without any external dependency).

use std::path::Path;

use crate::audit::{find_tokens, PassOutcome, SourceFile, Violation};

/// Lints one parsed file.
pub(crate) fn lint_file(file: &SourceFile) -> Vec<Violation> {
    let code = &file.code;
    let comment_lines: Vec<&str> = file.comments.split('\n').collect();
    let demo = file.is_demo();
    let library = file.is_library() && !demo;

    let mut out = Vec::new();

    for pos in find_tokens(code, "unsafe") {
        out.push(file.violation(
            "no-unsafe",
            pos,
            "`unsafe` is banned everywhere in this workspace".to_string(),
        ));
    }
    for pos in find_tokens(code, "todo") {
        if code[pos..].starts_with("todo") && code[pos + 4..].trim_start().starts_with('!') {
            out.push(file.violation(
                "no-todo",
                pos,
                "`todo!()` left in committed code".to_string(),
            ));
        }
    }
    for pos in find_tokens(code, "dbg") {
        if code[pos + 3..].trim_start().starts_with('!') {
            out.push(file.violation("no-dbg", pos, "`dbg!()` left in committed code".to_string()));
        }
    }

    if library {
        for pos in code.match_indices(".unwrap").map(|(p, _)| p) {
            let rest = code[pos + ".unwrap".len()..].trim_start();
            if rest.starts_with("()") && !file.in_test(pos) {
                out.push(file.violation(
                    "no-unwrap",
                    pos,
                    "`.unwrap()` in library code — use `.expect(\"<invariant>\")` or return an error"
                        .to_string(),
                ));
            }
        }
        for pos in find_tokens(code, "panic") {
            if code[pos + "panic".len()..].trim_start().starts_with('!') && !file.in_test(pos) {
                out.push(file.violation(
                    "no-panic",
                    pos,
                    "`panic!` in library code — return an error or use an assert with a message"
                        .to_string(),
                ));
            }
        }
    }

    if library || demo {
        for (pos, _) in code.match_indices("Ordering::Relaxed") {
            if file.in_test(pos) {
                continue;
            }
            let line = file.line_of(pos);
            let justified = (line.saturating_sub(4)..line)
                .filter_map(|n| comment_lines.get(n))
                .any(|c| c.to_ascii_lowercase().contains("relaxed"));
            if !justified {
                out.push(file.violation(
                    "relaxed-comment",
                    pos,
                    "`Ordering::Relaxed` without a justifying comment (same line or ≤3 lines above, mentioning \"relaxed\")"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// The allowlist: `rule path` lines in `crates/xtask/lint-allow.txt`.
fn load_allowlist(root: &Path) -> Vec<(String, String)> {
    let path = root.join("crates/xtask/lint-allow.txt");
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (rule, path) = l.split_once(char::is_whitespace)?;
            Some((rule.to_string(), path.trim().to_string()))
        })
        .collect()
}

/// Lints the whole parsed tree, applying the allowlist. Unused allowlist
/// entries are themselves violations (the list must only shrink).
pub(crate) fn run(root: &Path, sources: &[SourceFile]) -> PassOutcome {
    let allow = load_allowlist(root);
    let mut used = vec![false; allow.len()];
    let mut violations = Vec::new();
    for file in sources {
        for v in lint_file(file) {
            match allow
                .iter()
                .position(|(rule, p)| *rule == v.rule && *p == v.path)
            {
                Some(i) => used[i] = true,
                None => violations.push(v),
            }
        }
    }
    for (i, (rule, path)) in allow.iter().enumerate() {
        if !used[i] {
            violations.push(Violation {
                rule: "stale-allow",
                path: "crates/xtask/lint-allow.txt".to_string(),
                line: 1,
                col: 1,
                msg: format!(
                    "allowlist entry `{rule} {path}` matches nothing — delete it (the list only shrinks)"
                ),
            });
        }
    }
    PassOutcome {
        pass: "lint",
        sites: Vec::new(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Violation> {
        lint_file(&SourceFile::parse(rel, src))
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let v = lint("crates/demo/src/lib.rs", "fn f() { Some(1).unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn unwrap_inside_cfg_test_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { Some(1).unwrap(); panic!(\"x\"); }\n}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_tests_dir_is_exempt_but_todo_is_not() {
        let src = "fn f() { Some(1).unwrap(); todo!() }\n";
        let v = lint("crates/demo/tests/t.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-todo");
    }

    #[test]
    fn unsafe_is_flagged_everywhere() {
        for rel in [
            "crates/demo/src/lib.rs",
            "crates/demo/tests/t.rs",
            "examples/e.rs",
        ] {
            let v = lint(rel, "fn f() { let p = 0; let _ = unsafe { p }; }\n");
            assert_eq!(v.len(), 1, "{rel}");
            assert_eq!(v[0].rule, "no-unsafe");
        }
    }

    #[test]
    fn unsafe_in_doc_comment_or_string_is_fine() {
        let src = "//! Never uses `unsafe` code.\nfn f() -> &'static str { \"unsafe\" }\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn relaxed_requires_a_comment() {
        let bad = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        let v = lint("crates/demo/src/lib.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-comment");

        let same_line =
            "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); /* relaxed: plain counter */ }\n";
        assert!(lint("crates/demo/src/lib.rs", same_line).is_empty());

        let above = "fn f(c: &AtomicU64) {\n // Relaxed: independent counter, no other data synchronized.\n c.load(Ordering::Relaxed);\n}\n";
        assert!(lint("crates/demo/src/lib.rs", above).is_empty());

        let too_far = "fn f(c: &AtomicU64) {\n // relaxed justification\n\n\n\n\n c.load(Ordering::Relaxed);\n}\n";
        assert_eq!(lint("crates/demo/src/lib.rs", too_far).len(), 1);
    }

    #[test]
    fn dbg_and_panic_rules() {
        let v = lint("src/lib.rs", "fn f() { dbg!(1); panic!(\"boom\"); }\n");
        let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"no-dbg"));
        assert!(rules.contains(&"no-panic"));
    }

    #[test]
    fn should_panic_attribute_is_not_a_panic_call() {
        let src = "#[should_panic(expected = \"x\")]\nfn t() {}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn nested_block_comments_are_masked() {
        let src = "/* outer /* panic!() */ still comment .unwrap() */ fn f() {}\n";
        assert!(lint("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_use_declaration_does_not_swallow_the_file() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn f() { Some(1).unwrap(); }\n";
        let v = lint("crates/demo/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-unwrap");
    }

    #[test]
    fn demo_binaries_may_unwrap_but_not_todo() {
        for rel in [
            "crates/bench/src/bin/experiments.rs",
            "examples/quickstart.rs",
        ] {
            let ok = "fn main() { Some(1).unwrap(); panic!(\"bad input\"); }\n";
            assert!(lint(rel, ok).is_empty(), "{rel}");

            let v = lint(rel, "fn main() { todo!() }\n");
            assert_eq!(v.len(), 1, "{rel}");
            assert_eq!(v[0].rule, "no-todo");

            let v = lint(rel, "fn main() { dbg!(1); }\n");
            assert_eq!(v.len(), 1, "{rel}");
            assert_eq!(v[0].rule, "no-dbg");
        }
    }

    #[test]
    fn demo_code_still_justifies_relaxed_atomics() {
        let bad = "fn main() { C.load(Ordering::Relaxed); }\n";
        let v = lint("examples/live_metrics.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-comment");

        let good = "fn main() { C.load(Ordering::Relaxed); /* relaxed: display counter */ }\n";
        assert!(lint("examples/live_metrics.rs", good).is_empty());
    }

    #[test]
    fn demo_paths_are_classified_correctly() {
        use crate::audit::is_demo_path;
        assert!(is_demo_path("examples/quickstart.rs"));
        assert!(is_demo_path("crates/bench/src/bin/experiments.rs"));
        assert!(!is_demo_path("crates/bench/src/lib.rs"));
        assert!(!is_demo_path("crates/rankings/src/distance.rs"));
        assert!(!is_demo_path("src/suite.rs"));
    }

    #[test]
    fn violations_carry_columns() {
        let v = lint("crates/demo/src/lib.rs", "fn f() { Some(1).unwrap(); }\n");
        assert_eq!(v[0].col, "fn f() { Some(1)".len() + 1);
    }
}
