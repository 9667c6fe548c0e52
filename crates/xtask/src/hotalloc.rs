//! The `hotalloc` pass — `cargo run -p xtask -- hotalloc` (and `-- audit`).
//!
//! PR 4 made the verify stage's steady state allocation-free (GroupScratch:
//! one arena reused across groups) and PR 5's skew splitting keeps partition
//! buffers preallocated. Those wins erode one `collect()` at a time: an
//! allocation that lands on the per-record path costs more than the
//! partitioning it optimizes (the motivation mirrors the silent per-record
//! overheads that distributed-join papers keep rediscovering). This pass
//! pins the property: every **allocation expression** on the hot-path file
//! set — `panics::HOT_PATHS`, the per-pair / per-record modules, minus
//! `bounds.rs` (pure arithmetic) and `telemetry.rs` (allocates only on
//! first-registration, a cold path by construction) — must carry an
//! `alloc(<why>)` tag stating why the allocation is not per-record (setup,
//! per-stage, spill boundary, error path), or be hoisted into scratch.
//!
//! Classified expression families (lexical, over the masked code view):
//!
//! * collection constructors — `Vec::new`/`with_capacity`, `String::new`/
//!   `with_capacity`/`from`, `Box::new`, `HashMap`/`HashSet`/`BTreeMap`/
//!   `BTreeSet`/`VecDeque` constructors;
//! * the `vec![..]` macro and `format!(..)`;
//! * `.to_vec()` and `.collect()`/`.collect::<..>()`;
//! * `.clone()` on a receiver the lexical type table binds to a collection
//!   type (annotation scanning over `Vec`/`String`/map/set/deque bindings).
//!
//! The ratchet baseline starts (and stays) at zero: a new untagged
//! allocation on a hot file fails CI, so the zero-alloc property can only
//! improve. Cold paths (config, reporting, tests) are exempt by the file
//! list, not by guesswork.

use std::collections::BTreeSet;
use std::path::Path;

use crate::audit::{find_tokens, PassOutcome, SourceFile, Violation};

/// The hot-path files whose allocations this pass audits:
/// `panics::HOT_PATHS` minus `bounds.rs` and `telemetry.rs` (see module docs).
pub(crate) const HOT_PATHS: &[&str] = &[
    "crates/rankings/src/distance.rs",
    "crates/rankings/src/ordered.rs",
    "crates/rankings/src/verify.rs",
    "crates/rankings/src/varlen.rs",
    "crates/rankings/src/jaccard.rs",
    "crates/core/src/kernels.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/index.rs",
    "crates/core/src/arrivals.rs",
    "crates/core/src/serving.rs",
    "crates/core/src/wal.rs",
    "crates/minispark/src/shuffle.rs",
    "crates/minispark/src/skew.rs",
    "crates/minispark/src/spill.rs",
    "crates/minispark/src/codec.rs",
    "crates/minispark/src/executor.rs",
];

/// Collection constructors that allocate (token-boundary needles followed by
/// an argument list).
const CTORS: &[&str] = &[
    "Vec::new",
    "Vec::with_capacity",
    "String::new",
    "String::with_capacity",
    "String::from",
    "Box::new",
    "HashMap::new",
    "HashMap::with_capacity",
    "HashSet::new",
    "HashSet::with_capacity",
    "BTreeMap::new",
    "BTreeSet::new",
    "VecDeque::new",
    "VecDeque::with_capacity",
];

/// Type names whose `.clone()` duplicates a heap allocation.
const COLLECTION_TYPES: &[&str] = &[
    "Vec", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque",
];

/// One audited allocation site.
pub(crate) struct Site {
    pub path: String,
    pub line: usize,
    /// `"ctor"`, `"vec!"`, `"format!"`, `"to_vec"`, `"collect"`, `"clone"`.
    pub kind: &'static str,
    pub excerpt: String,
    /// The `alloc(<why>)` tag found, if any.
    pub tag: Option<String>,
}

impl Site {
    pub(crate) fn describe(&self) -> String {
        format!(
            "{}:{}: {} `{}` [{}]",
            self.path,
            self.line,
            self.kind,
            self.excerpt,
            self.tag.as_deref().unwrap_or("-"),
        )
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
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

/// Identifiers the file's annotations bind to a collection type: scans
/// `name: Vec<..>`-shaped annotations (fn params, struct fields, typed
/// lets).
pub(crate) fn collection_bindings(code: &str) -> BTreeSet<String> {
    let bytes = code.as_bytes();
    let mut out = BTreeSet::new();
    for (pos, _) in code.match_indices(':') {
        // Skip `::` path separators (either side).
        if bytes.get(pos + 1) == Some(&b':') || (pos > 0 && bytes[pos - 1] == b':') {
            continue;
        }
        // Backward: the annotated identifier.
        let mut s = pos;
        while s > 0 && bytes[s - 1].is_ascii_whitespace() {
            s -= 1;
        }
        let end = s;
        while s > 0 && is_ident_byte(bytes[s - 1]) {
            s -= 1;
        }
        if s == end || bytes[s].is_ascii_digit() {
            continue;
        }
        let name = &code[s..end];
        // Forward: the type's leading segment (skip `&`, `mut`, whitespace).
        let mut t = pos + 1;
        loop {
            while t < bytes.len() && bytes[t].is_ascii_whitespace() {
                t += 1;
            }
            if bytes.get(t) == Some(&b'&') {
                t += 1;
                continue;
            }
            if bytes.get(t) == Some(&b'\'') {
                t += 1;
                while t < bytes.len() && is_ident_byte(bytes[t]) {
                    t += 1;
                }
                continue;
            }
            if code[t..].starts_with("mut ") {
                t += 4;
                continue;
            }
            break;
        }
        let ty_end = (t..bytes.len())
            .find(|&i| !is_ident_byte(bytes[i]))
            .unwrap_or(bytes.len());
        let ty = &code[t..ty_end];
        if COLLECTION_TYPES.contains(&ty) {
            out.insert(name.to_string());
        }
    }
    out
}

/// Audits one parsed file (callers filter to `HOT_PATHS`).
pub(crate) fn audit_file(file: &SourceFile) -> (Vec<Site>, Vec<Violation>) {
    let code = &file.code;
    let bytes = code.as_bytes();
    let collections = collection_bindings(code);
    let mut found: Vec<(usize, &'static str)> = Vec::new();

    for ctor in CTORS {
        for pos in find_tokens(code, ctor) {
            if bytes.get(pos + ctor.len()) == Some(&b'(') {
                found.push((pos, "ctor"));
            }
        }
    }
    for pos in find_tokens(code, "vec") {
        if code[pos + 3..].starts_with('!') {
            found.push((pos, "vec!"));
        }
    }
    for pos in find_tokens(code, "format") {
        if code[pos + "format".len()..].starts_with('!') {
            found.push((pos, "format!"));
        }
    }
    for (pos, _) in code.match_indices(".to_vec()") {
        found.push((pos, "to_vec"));
    }
    for (pos, _) in code.match_indices(".collect") {
        let rest = &code[pos + ".collect".len()..];
        if rest.starts_with("()") || rest.starts_with("::<") {
            found.push((pos, "collect"));
        }
    }
    for (pos, _) in code.match_indices(".clone()") {
        // Receiver identifier directly before the dot.
        let mut s = pos;
        while s > 0 && is_ident_byte(bytes[s - 1]) {
            s -= 1;
        }
        if s < pos && collections.contains(&code[s..pos]) {
            found.push((pos, "clone"));
        }
    }
    found.sort_by_key(|&(pos, _)| pos);

    let mut sites = Vec::new();
    let mut violations = Vec::new();
    for (pos, kind) in found {
        if file.in_test(pos) {
            continue;
        }
        let line = file.line_of(pos);
        let tag = file.tag("alloc", line);
        if tag.is_none() {
            violations.push(file.violation(
                "alloc-audit",
                pos,
                format!(
                    "allocation ({kind}) on a hot-path file — hoist it into setup/scratch or \
                     justify why it is not per-record with an `alloc(<why>)` tag (same line or \
                     ≤3 lines above)"
                ),
            ));
        }
        sites.push(Site {
            path: file.rel.clone(),
            line,
            kind,
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
        pass: "hotalloc",
        sites,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = "crates/core/src/kernels.rs";

    fn audit(src: &str) -> (Vec<Site>, Vec<Violation>) {
        audit_file(&SourceFile::parse(HOT, src))
    }

    #[test]
    fn untagged_constructor_is_flagged() {
        let (sites, violations) = audit("fn f() -> Vec<u32> { Vec::new() }\n");
        assert_eq!(violations.len(), 1);
        assert_eq!(sites[0].kind, "ctor");
        assert!(violations[0].msg.contains("alloc(<why>)"));
    }

    #[test]
    fn tagged_sites_are_inventoried_clean() {
        let src = "fn plan() -> Vec<u32> {\n    // alloc(per-stage plan buffer, not per-record)\n    Vec::with_capacity(8)\n}\n";
        let (sites, violations) = audit(src);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(
            sites[0].tag.as_deref(),
            Some("per-stage plan buffer, not per-record")
        );
    }

    #[test]
    fn macros_and_collect_are_classified() {
        let src = "fn f(xs: &[u32]) {\n    let a = vec![1];\n    let b = format!(\"{}\", 1);\n    let c: Vec<u32> = xs.iter().copied().collect();\n    let d = xs.to_vec();\n}\n";
        let (sites, violations) = audit(src);
        let kinds: Vec<_> = sites.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec!["vec!", "format!", "collect", "to_vec"]);
        assert_eq!(violations.len(), 4);
    }

    #[test]
    fn clone_on_a_collection_binding_is_an_allocation() {
        let src = "fn f(names: Vec<String>) -> Vec<String> { names.clone() }\n";
        let (sites, violations) = audit(src);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(sites[0].kind, "clone");
        // `.clone()` on an untyped (likely `Arc`/`Copy`-ish) receiver is not.
        let cheap = "fn f(handle: &Handle) -> Handle { handle.clone() }\n";
        assert!(audit(cheap).1.is_empty());
    }

    #[test]
    fn collection_bindings_scan_params_fields_and_lets() {
        let src = "struct S { buf: Vec<u8>, name: String }\nfn f(rows: &mut Vec<u32>, k: usize) { let acc: HashMap<u32, u32> = make(); }\n";
        let b = collection_bindings(src);
        assert!(b.contains("buf") && b.contains("name") && b.contains("rows") && b.contains("acc"));
        assert!(!b.contains("k"));
    }

    #[test]
    fn vec_the_identifier_is_not_the_macro() {
        let (sites, _) = audit("fn f(vec: &[u32]) -> usize { vec.len() }\n");
        assert!(sites.is_empty());
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = "#[cfg(test)]\nmod t { fn f() -> Vec<u32> { vec![1, 2] } }\n";
        assert!(audit(src).1.is_empty());
    }

    #[test]
    fn only_hot_paths_are_audited_by_run() {
        let cold = SourceFile::parse("crates/core/src/report.rs", "fn f() { let v = vec![1]; }\n");
        let hot = SourceFile::parse(HOT, "fn f() { let v = vec![1]; }\n");
        let outcome = run(Path::new("."), &[cold, hot]);
        assert_eq!(outcome.violations.len(), 1);
        assert!(outcome.violations[0].path.contains("kernels.rs"));
    }
}
