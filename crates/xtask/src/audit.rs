//! The shared audit core: the source model, suppression-tag grammar and JSON
//! reporting that both `xtask` analysis passes build on.
//!
//! Every pass needs the same plumbing: walk the tree, mask comments and
//! literals out of the code view, find `#[cfg(test)]` regions, map byte
//! offsets to line numbers, and print `path:line` diagnostics. This module
//! holds that plumbing once (DESIGN.md §12 "The audit framework"):
//!
//! * **[`SourceFile`]** — one parsed source file: raw text, a code view and a
//!   comment view of identical shape, line starts, test regions, and
//!   line/column span helpers. Passes consume `&[SourceFile]`, so the tree
//!   is read and masked exactly once per `audit` run.
//! * **Suppression tags** — the machine-readable justification grammar
//!   `<tag>(<payload>)` in a comment on the same line as the flagged site or
//!   up to three lines above it. `relaxed(<class>)` (atomics) and
//!   `locks(<why>)` (locks) both parse through [`SourceFile::tag`].
//! * **JSON report** — [`render_report`] serializes every pass's inventory
//!   and violations to a dependency-free `audit-report/v1` document for CI
//!   artifacts (`--json <path>`).
//!
//! There is no tolerated-debt budget: any violation fails the run.

use std::fmt;
use std::path::Path;

/// One policy violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Violation {
    /// Rule identifier, e.g. `lock-cycle`.
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte offset within the line); 1 when unknown.
    pub col: usize,
    /// Human-oriented explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.msg
        )
    }
}

/// The lexical classes a source byte can belong to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Code,
    Comment,
    Literal,
}

/// Splits `src` into a code view and a comment view: each output has the same
/// length and line structure as `src`, with bytes of the other classes
/// blanked out. Handles line/block (nested) comments, string/char/byte
/// literals and raw strings.
pub(crate) fn mask_source(src: &str) -> (String, String) {
    let bytes = src.as_bytes();
    let mut class = vec![Class::Code; bytes.len()];
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    class[i] = Class::Comment;
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        class[i] = Class::Comment;
                        class[i + 1] = Class::Comment;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        class[i] = Class::Comment;
                        class[i + 1] = Class::Comment;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        class[i] = Class::Comment;
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                // r"..."  r#"..."#  br##"..."## — find the hash count, then
                // scan for the closing quote + hashes.
                let start = i;
                let mut j = i;
                while bytes.get(j) == Some(&b'r') || bytes.get(j) == Some(&b'b') {
                    j += 1;
                }
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                loop {
                    match bytes.get(j) {
                        None => break,
                        Some(&b'"') => {
                            let mut h = 0;
                            while h < hashes && bytes.get(j + 1 + h) == Some(&b'#') {
                                h += 1;
                            }
                            if h == hashes {
                                j += 1 + hashes;
                                break;
                            }
                            j += 1;
                        }
                        _ => j += 1,
                    }
                }
                for c in class.iter_mut().take(j.min(bytes.len())).skip(start) {
                    *c = Class::Literal;
                }
                i = j;
            }
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                for c in class.iter_mut().take(i.min(bytes.len())).skip(start) {
                    *c = Class::Literal;
                }
            }
            b'\'' => {
                // Char literal vs. lifetime: a literal closes within a few
                // bytes ('x', '\n', '\u{1F600}'); a lifetime never closes.
                if let Some(end) = char_literal_end(bytes, i) {
                    for c in class.iter_mut().take(end).skip(i) {
                        *c = Class::Literal;
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // Blanked characters become one space PER BYTE, so the views keep the
    // exact byte length and offsets of `src` — spans computed on a view
    // index directly into the original (multi-byte chars in comments used
    // to shift every downstream line/column until this held).
    let project = |keep: Class| -> String {
        let mut out = String::with_capacity(src.len());
        for (pos, ch) in src.char_indices() {
            if ch == '\n' || class[pos] == keep {
                out.push(ch);
            } else {
                for _ in 0..ch.len_utf8() {
                    out.push(' ');
                }
            }
        }
        out
    };
    (project(Class::Code), project(Class::Comment))
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r" r# b" (byte string) br" br# — but not a plain identifier like `rank`.
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    let mut saw_r = false;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        saw_r = true;
        j += 1;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    match bytes.get(j) {
        Some(&b'"') => saw_r || bytes[i] == b'b',
        _ => false,
    }
}

fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    // `i` points at the opening quote. Returns the index one past the
    // closing quote for a genuine char literal, `None` for a lifetime.
    let mut j = i + 1;
    if bytes.get(j) == Some(&b'\\') {
        j += 2;
        // Escapes like \u{..} or \x41 extend further; scan to the quote.
        while j < bytes.len() && bytes[j] != b'\'' && bytes[j] != b'\n' {
            j += 1;
        }
        return (bytes.get(j) == Some(&b'\'')).then_some(j + 1);
    }
    // A literal holds exactly one char (possibly multi-byte UTF-8).
    while j < bytes.len() && j <= i + 5 {
        if bytes[j] == b'\'' {
            return (j > i + 1).then_some(j + 1);
        }
        if bytes[j] == b'\n' {
            return None;
        }
        j += 1;
    }
    None
}

/// Byte ranges of items gated behind `#[cfg(test)]` in the masked code view.
pub(crate) fn test_regions(code: &str) -> Vec<(usize, usize)> {
    const ATTR: &str = "#[cfg(test)]";
    let bytes = code.as_bytes();
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find(ATTR).map(|p| p + from) {
        let mut j = pos + ATTR.len();
        // Skip whitespace and any further attributes on the same item.
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') && bytes.get(j + 1) == Some(&b'[') {
                let mut depth = 0;
                while j < bytes.len() {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                break;
            }
        }
        // The gated item ends at the first `;` at brace depth 0 (use decl,
        // const) or at the matching `}` of its first brace block.
        let mut depth = 0usize;
        let mut end = bytes.len();
        while j < bytes.len() {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        regions.push((pos, end));
        from = end.max(pos + ATTR.len());
    }
    regions
}

/// Start of the statement containing `pos`: scans backward over balanced
/// `()`/`[]`/`{}` groups (so a `;` inside a closure body or struct literal
/// does not end the walk early) until an unmatched opener or a top-level
/// `;`/`,` is found. Returns the byte offset just past that boundary.
pub(crate) fn stmt_start(code: &str, pos: usize) -> usize {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut i = pos;
    while i > 0 {
        i -= 1;
        match bytes[i] {
            b')' | b']' | b'}' => depth += 1,
            b'(' | b'[' | b'{' => {
                if depth == 0 {
                    return i + 1;
                }
                depth -= 1;
            }
            b';' | b',' if depth == 0 => return i + 1,
            _ => {}
        }
    }
    0
}

/// End of the guard scope that starts at `pos`: scans forward over balanced
/// groups to the closer of the enclosing block (returned exclusive — tail
/// expressions and `let`-bound guards end there). With `statement`, a
/// top-level `;`/`,` ends the scan first (returned inclusive): a temporary
/// guard lives to the end of its statement.
pub(crate) fn scope_end(code: &str, pos: usize, statement: bool) -> usize {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut i = pos;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            b';' | b',' if statement && depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// How many lines above a site the tag/justification comment window extends
/// (same line or up to this many lines above).
pub(crate) const TAG_WINDOW: usize = 3;

/// One parsed source file — the audit framework's source model. Built once
/// per file and shared by every pass.
pub(crate) struct SourceFile {
    /// Workspace-root-relative path with `/` separators.
    pub rel: String,
    /// Code view: comments and literals blanked, shape preserved.
    pub code: String,
    /// Comment view: everything but comments blanked, shape preserved.
    pub comments: String,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
    /// Byte ranges of `#[cfg(test)]`-gated items in the code view.
    test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Parses one file. `rel` must be root-relative with `/` separators.
    pub(crate) fn parse(rel: &str, src: &str) -> Self {
        let (code, comments) = mask_source(src);
        let test_regions = test_regions(&code);
        let mut line_starts = vec![0usize];
        line_starts.extend(src.match_indices('\n').map(|(p, _)| p + 1));
        Self {
            rel: rel.to_string(),
            code,
            comments,
            line_starts,
            test_regions,
        }
    }

    /// 1-based line of a byte offset.
    pub(crate) fn line_of(&self, pos: usize) -> usize {
        match self.line_starts.binary_search(&pos) {
            Ok(n) => n + 1,
            Err(n) => n,
        }
    }

    /// 1-based column (byte offset within the line) of a byte offset.
    pub(crate) fn col_of(&self, pos: usize) -> usize {
        let line = self.line_of(pos);
        pos - self.line_starts[line - 1] + 1
    }

    /// Whether `pos` falls inside a `#[cfg(test)]`-gated item.
    pub(crate) fn in_test(&self, pos: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| pos >= a && pos < b)
    }

    /// Whether this file is library code for the atomics and locks rules:
    /// any `src/` file of a crate or the suite (binaries included — they
    /// ship). `tests/`, `benches/` and `examples/` are exempt by policy.
    pub(crate) fn is_library(&self) -> bool {
        let rel = self.rel.as_str();
        let exempt = ["tests/", "benches/", "examples/"];
        if exempt
            .iter()
            .any(|d| rel.starts_with(d) || rel.contains(&format!("/{d}")))
        {
            return false;
        }
        rel.starts_with("src/") || rel.contains("/src/")
    }

    /// A [`Violation`] at byte offset `pos` in this file.
    pub(crate) fn violation(&self, rule: &'static str, pos: usize, msg: String) -> Violation {
        Violation {
            rule,
            path: self.rel.clone(),
            line: self.line_of(pos),
            col: self.col_of(pos),
            msg,
        }
    }

    /// Extracts the payload of a `<name>(<payload>)` suppression tag from the
    /// comment window around 1-based `line`: the same line or up to
    /// [`TAG_WINDOW`] lines above. Matching is case-insensitive on the tag
    /// name; the payload is returned trimmed, in original case.
    pub(crate) fn tag(&self, name: &str, line: usize) -> Option<String> {
        let needle = format!("{}(", name.to_ascii_lowercase());
        for n in (line.saturating_sub(TAG_WINDOW + 1)..line).rev() {
            let Some(comment) = self.comments.split('\n').nth(n) else {
                continue;
            };
            let lower = comment.to_ascii_lowercase();
            if let Some(open) = lower.find(&needle) {
                let start = open + needle.len();
                let rest = &comment[start..];
                if let Some(close) = rest.find(')') {
                    return Some(rest[..close].trim().to_string());
                }
            }
        }
        None
    }
}

/// Reads and parses every `.rs` file under `root` into [`SourceFile`]s, in
/// path order.
pub(crate) fn load_tree(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    const SKIP_DIRS: &[&str] = &["target", "results"];
    let mut stack = vec![root.to_path_buf()];
    let mut files = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
            let src = std::fs::read_to_string(path)?;
            Ok(SourceFile::parse(&rel.replace('\\', "/"), &src))
        })
        .collect()
}

/// The result of one analysis pass over the tree: its inventory (one
/// human-oriented line per audited site) and its violations.
pub(crate) struct PassOutcome {
    /// Pass name as the CLI knows it.
    pub pass: &'static str,
    /// One line per audited site (may be empty for violation-only passes).
    pub sites: Vec<String>,
    /// Violations found.
    pub violations: Vec<Violation>,
}

// ---------------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (u32::from(c)) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes an audit run to the `audit-report/v1` JSON document: per pass,
/// the audited-site inventory and every violation with its span.
/// Dependency-free by design (xtask must build anywhere the workspace builds).
pub(crate) fn render_report(root: &Path, passes: &[PassOutcome]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"audit-report/v1\",\n");
    out.push_str(&format!(
        "  \"root\": \"{}\",\n  \"passes\": [\n",
        json_escape(&root.display().to_string())
    ));
    for (i, p) in passes.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"pass\": \"{}\",\n", json_escape(p.pass)));
        out.push_str(&format!("      \"sites\": {},\n", p.sites.len()));
        out.push_str(&format!("      \"violations\": {},\n", p.violations.len()));
        out.push_str("      \"inventory\": [");
        for (j, site) in p.sites.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(site)));
        }
        out.push_str("],\n      \"findings\": [");
        for (j, v) in p.violations.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"msg\": \"{}\"}}",
                json_escape(v.rule),
                json_escape(&v.path),
                v.line,
                v.col,
                json_escape(&v.msg)
            ));
        }
        out.push_str("]\n    }");
        out.push_str(if i + 1 < passes.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_strips_strings_and_comments() {
        let src = "let a = \"x.unwrap()\"; // calls panic!\nlet b = r#\"dbg!(1)\"#;\n";
        let (code, comments) = mask_source(src);
        assert!(!code.contains("unwrap") && !code.contains("panic") && !code.contains("dbg"));
        assert!(comments.contains("panic"));
        assert_eq!(code.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let (code, _) = mask_source("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';\n");
        assert!(code.contains("'a str"));
        assert!(!code.contains('x') || !code.contains("'x'"));
    }

    #[test]
    fn multibyte_comments_preserve_byte_offsets() {
        // Doc prose in this repo is full of τ, σ, Σ, ≤, —; blanking them
        // must not shift the byte positions of anything that follows.
        let src = "// τ·σ — Σ over D_τ ∪ D_σ\nfn f() { Some(1).unwrap(); }\n";
        let (code, comments) = mask_source(src);
        assert_eq!(code.len(), src.len());
        assert_eq!(comments.len(), src.len());
        let pos = code.find(".unwrap").expect("unwrap is code");
        assert_eq!(pos, src.find(".unwrap").expect("present"), "offsets align");
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        assert_eq!(f.line_of(pos), 2);
    }

    #[test]
    fn nested_block_comments_are_masked() {
        let (code, _) = mask_source("/* outer /* inner */ still */ fn f() {}\n");
        assert!(!code.contains("inner") && !code.contains("still"));
        assert!(code.contains("fn f"));
    }

    #[test]
    fn source_file_spans_are_one_based() {
        let src = "fn a() {}\nfn bb() {}\n";
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        let pos = src.find("bb").expect("bb is in the source");
        assert_eq!(f.line_of(pos), 2);
        assert_eq!(f.col_of(pos), 4);
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.col_of(0), 1);
    }

    #[test]
    fn tag_parses_from_the_window() {
        let src = "fn f() {\n    // locks(registry first: the order every caller takes)\n    let x = 1;\n}\n";
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        assert_eq!(
            f.tag("locks", 3).as_deref(),
            Some("registry first: the order every caller takes")
        );
        // Window: same line or ≤3 above; line 7 is too far from line 2.
        assert_eq!(f.tag("locks", 7), None);
        // Other tag names don't match.
        assert_eq!(f.tag("relaxed", 3), None);
    }

    #[test]
    fn tag_ignores_code_and_strings() {
        let src = "fn locks(x: u32) {}\nlet s = \"locks(nope)\";\nlet y = 2;\n";
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        assert_eq!(f.tag("locks", 3), None);
    }

    #[test]
    fn tag_payload_preserves_case_and_trims() {
        let src = "// LOCKS( Once: K ≤ MAX_K )\nlet x = 1;\n";
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        assert_eq!(f.tag("locks", 2).as_deref(), Some("Once: K ≤ MAX_K"));
    }

    #[test]
    fn report_is_valid_json_shape() {
        let passes = vec![PassOutcome {
            pass: "locks",
            sites: vec!["a.rs:1: lock `m` [named]".to_string()],
            violations: vec![Violation {
                rule: "lock-wildcard",
                path: "a \"quoted\".rs".to_string(),
                line: 3,
                col: 7,
                msg: "bad\nguard".to_string(),
            }],
        }];
        let json = render_report(Path::new("/tmp/x"), &passes);
        assert!(json.contains("\"schema\": \"audit-report/v1\""));
        assert!(json.contains("\"pass\": \"locks\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("bad\\nguard"));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
