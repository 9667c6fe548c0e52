//! The `panics` pass — `cargo run -p xtask -- panics` (and `-- audit`).
//!
//! Clippy bans `panic!`/`unwrap` in library code and raw indexing in the
//! per-record modules (`indexing_slicing`, turned on by an inner attribute in
//! every [`HOT_PATHS`] file), but Rust panics through one more operator that
//! clippy has no scoped lint for: `x / n` and `x % n` compile silently and
//! abort the whole join at runtime when `n` is zero. On the verification hot
//! path a panic is not a diagnostic — it kills a worker mid-shuffle and the
//! driver reports a wrong (partial) join result as an I/O failure.
//!
//! So this pass audits the **hot-path files** for **division/remainder by a
//! non-literal**. Literal divisors are trivially non-zero, so only computed
//! divisors need a `panics(<invariant>)` tag (same line or ≤3 lines above)
//! or a guarded rewrite (`checked_div`, explicit `if n == 0` handling).
//! Statements that mention `f32`/`f64` or a float literal are skipped: float
//! division never panics.
//!
//! Deliberately out of scope: overflow in `+`/`-`/`*` (wraps in release;
//! the `debug_assert!` layer and clippy's cast lints own value-range
//! discipline) and cold paths (config parsing, report formatting), where a
//! panic is an acceptable assertion. The list of hot paths is code, not
//! config — extending it is a reviewed change.

use std::path::Path;

use crate::audit::{PassOutcome, SourceFile, Violation};

/// The per-pair / per-record modules. This pass audits their computed
/// divisors, and each of them must turn on `clippy::indexing_slicing` with an
/// inner attribute (`main.rs` tests that). Root-relative paths; extend the
/// list when a new file joins the per-pair / per-record path.
pub(crate) const HOT_PATHS: &[&str] = &[
    // rankings: per-pair distance/verification kernels.
    "crates/rankings/src/distance.rs",
    "crates/rankings/src/ordered.rs",
    "crates/rankings/src/bounds.rs",
    "crates/rankings/src/varlen.rs",
    "crates/rankings/src/jaccard.rs",
    "crates/rankings/src/verify.rs",
    // core: candidate generation and the driver pipeline's inner loops.
    "crates/core/src/kernels.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/index.rs",
    // core: the arrival joiner's query-then-insert loop runs per arrival.
    "crates/core/src/arrivals.rs",
    // core: the serving layer's per-request and per-record paths (every
    // upsert/query/delete and every WAL frame runs through these).
    "crates/core/src/serving.rs",
    "crates/core/src/wal.rs",
    // minispark: partitioning, skew splitting, spill and codec inner loops.
    "crates/minispark/src/shuffle.rs",
    "crates/minispark/src/skew.rs",
    "crates/minispark/src/spill.rs",
    "crates/minispark/src/codec.rs",
    "crates/minispark/src/executor.rs",
    // telemetry: the record path runs inside every task's inner loop.
    "crates/minispark/src/telemetry.rs",
];

/// One audited computed-divisor site.
pub(crate) struct Site {
    pub path: String,
    pub line: usize,
    /// A short excerpt of the offending code.
    pub excerpt: String,
    /// The `panics(<invariant>)` tag found, if any.
    pub tag: Option<String>,
}

impl Site {
    pub(crate) fn describe(&self) -> String {
        format!(
            "{}:{}: div `{}` [{}]",
            self.path,
            self.line,
            self.excerpt,
            self.tag.as_deref().unwrap_or("-"),
        )
    }
}

/// A short single-line excerpt of the code around `pos`.
fn excerpt(code: &str, pos: usize) -> String {
    let start = code[..pos].rfind('\n').map_or(0, |p| p + 1);
    let end = code[pos..].find('\n').map_or(code.len(), |p| pos + p);
    let line = code[start..end].trim();
    if line.len() > 60 {
        let mut cut = 57;
        while cut > 0 && !line.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &line[..cut])
    } else {
        line.to_string()
    }
}

/// Whether the `/` or `%` at `pos` (also `/=`, `%=`) has a non-literal
/// right-hand side. A literal divisor is non-zero unless it *is* zero, and
/// `/ 0` is a compile error (the unconditional-panic lint). A divisor on the
/// next line is rare enough to just audit.
fn nonliteral_divisor(code: &str, pos: usize) -> bool {
    let bytes = code.as_bytes();
    let mut j = pos + 1;
    if bytes.get(j) == Some(&b'=') {
        j += 1;
    }
    while matches!(bytes.get(j), Some(b' ' | b'\t')) {
        j += 1;
    }
    bytes.get(j).is_some_and(|b| !b.is_ascii_digit())
}

/// True when the statement around `pos` mentions a float type or float-ish
/// method, in which case `/`/`%` cannot panic.
fn floatish_context(code: &str, pos: usize) -> bool {
    let start = code[..pos].rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let end = code[pos..]
        .find([';', '{', '}'])
        .map_or(code.len(), |p| pos + p);
    let window = &code[start..end];
    [
        "f64", "f32", ".0e", "sqrt", "floor", "ceil", "powi", "powf", "1.0", "0.5", "2.0", "100.0",
    ]
    .iter()
    .any(|needle| window.contains(needle))
}

/// Audits one parsed file (callers filter to `HOT_PATHS`).
pub(crate) fn audit_file(file: &SourceFile) -> (Vec<Site>, Vec<Violation>) {
    let mut sites = Vec::new();
    let mut violations = Vec::new();
    let code = &file.code;
    for (pos, byte) in code.bytes().enumerate() {
        if !matches!(byte, b'/' | b'%')
            || file.in_test(pos)
            || !nonliteral_divisor(code, pos)
            || floatish_context(code, pos)
        {
            continue;
        }
        let line = file.line_of(pos);
        let tag = file.tag("panics", line);
        if tag.is_none() {
            violations.push(
                file.violation(
                    "panics-audit",
                    pos,
                    "division/remainder by a computed value — zero panics on the hot path; guard \
                 the divisor, use `checked_div`, or state the non-zero invariant in a \
                 `panics(<invariant>)` tag (same line or ≤3 lines above)"
                        .to_string(),
                ),
            );
        }
        sites.push(Site {
            path: file.rel.clone(),
            line,
            excerpt: excerpt(code, pos),
            tag,
        });
    }
    (sites, violations)
}

/// Audits the hot-path files of the parsed tree.
pub(crate) fn run(_root: &Path, sources: &[SourceFile]) -> PassOutcome {
    let mut sites = Vec::new();
    let mut violations = Vec::new();
    for file in sources {
        if !HOT_PATHS.contains(&file.rel.as_str()) {
            continue;
        }
        let (s, v) = audit_file(file);
        sites.extend(s.iter().map(Site::describe));
        violations.extend(v);
    }
    PassOutcome {
        pass: "panics",
        sites,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = "crates/rankings/src/distance.rs";

    fn audit(src: &str) -> (Vec<Site>, Vec<Violation>) {
        audit_file(&SourceFile::parse(HOT, src))
    }

    #[test]
    fn computed_divisor_needs_a_tag_but_literal_does_not() {
        let bad = "fn f(total: u64, n: u64) -> u64 { total / n }\n";
        let (sites, violations) = audit(bad);
        assert_eq!(violations.len(), 1);
        assert_eq!(sites.len(), 1);
        assert!(violations[0].msg.contains("computed value"));

        let literal = "fn f(total: u64) -> u64 { total / 2 + total % 8 }\n";
        assert!(audit(literal).0.is_empty());

        let tagged = "fn f(total: u64, n: u64) -> u64 {\n    // panics(n = num_partitions ≥ 1, validated in Config::new)\n    total / n\n}\n";
        assert!(audit(tagged).1.is_empty());
    }

    #[test]
    fn compound_assignment_is_a_division_too() {
        let src = "fn f(mut total: u64, n: u64) -> u64 { total %= n; total }\n";
        assert_eq!(audit(src).1.len(), 1);
    }

    #[test]
    fn float_division_is_exempt() {
        // Lexical: the statement itself has to say it is float arithmetic.
        let src = "fn f(a: u32, b: u32) -> f64 { let r = f64::from(a) / f64::from(b); r }\n";
        assert!(audit(src).0.is_empty());
    }

    #[test]
    fn indexing_is_clippys_business() {
        let src = "fn f(xs: &[u32], i: usize) -> u32 { xs[i] }\n";
        assert!(audit(src).0.is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod t { fn f(a: u64, n: u64) -> u64 { a / n } }\n";
        assert!(audit(src).1.is_empty());
    }

    #[test]
    fn only_hot_paths_are_audited_by_run() {
        let src = "fn f(a: u64, n: u64) -> u64 { a / n }\n";
        let cold = SourceFile::parse("crates/core/src/report.rs", src);
        let hot = SourceFile::parse(HOT, src);
        let outcome = run(Path::new("."), &[cold, hot]);
        assert_eq!(outcome.violations.len(), 1);
        assert!(outcome.violations[0].path.contains("distance.rs"));
    }

    #[test]
    fn comments_and_strings_never_trip_the_rule() {
        let src = "// a / b in prose\nfn f() -> &'static str { \"a % n\" }\n";
        assert!(audit(src).1.is_empty());
    }
}
