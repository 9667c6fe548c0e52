//! The shared audit core: the source model, suppression-tag grammar, ratchet
//! baseline and JSON reporting that every `xtask` analysis pass builds on.
//!
//! Every pass needs the same plumbing: walk the tree, mask comments and
//! literals out of the code view, find `#[cfg(test)]` regions, map byte
//! offsets to line numbers, and print `path:line` diagnostics. This module
//! holds that plumbing once, plus the three pieces a pass catalogue needs
//! (DESIGN.md §12 "The audit framework"):
//!
//! * **[`SourceFile`]** — one parsed source file: raw text, a code view and a
//!   comment view of identical shape, line starts, test regions, and
//!   line/column span helpers. Passes consume `&[SourceFile]`, so the tree
//!   is read and masked exactly once per `audit` run.
//! * **Suppression tags** — the machine-readable justification grammar
//!   `<tag>(<payload>)` in a comment on the same line as the flagged site or
//!   up to three lines above it. `relaxed(<class>)` (atomics),
//!   `panics(<invariant>)` (panics), `locks(<why>)` (locks) and
//!   `alloc(<why>)` (hotalloc) all parse through [`SourceFile::tag`].
//! * **Ratchet baseline** — `crates/xtask/audit-baseline.txt` pins the
//!   accepted violation count per pass. Counts may only shrink: a run above
//!   its baseline fails, and a run *below* it fails too until the baseline
//!   is lowered.
//! * **JSON report** — [`render_report`] serializes every pass's inventory
//!   and violations to a dependency-free `audit-report/v1` document for CI
//!   artifacts (`--json <path>`).

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

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

pub(crate) fn in_regions(regions: &[(usize, usize)], pos: usize) -> bool {
    regions.iter().any(|&(a, b)| pos >= a && pos < b)
}

pub(crate) fn line_of(line_starts: &[usize], pos: usize) -> usize {
    match line_starts.binary_search(&pos) {
        Ok(n) => n + 1,
        Err(n) => n,
    }
}

/// Occurrences of `needle` in `hay` that sit on identifier boundaries.
pub(crate) fn find_tokens(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle).map(|p| p + from) {
        let before_ok = pos == 0 || {
            let b = bytes[pos - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after = pos + needle.len();
        let after_ok = after >= bytes.len() || {
            let b = bytes[after];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            out.push(pos);
        }
        from = pos + needle.len();
    }
    out
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

/// End of the statement containing `pos`: scans forward over balanced
/// groups until a top-level `;` (returned inclusive) or the closer of the
/// enclosing block (returned exclusive — tail expressions end there).
pub(crate) fn stmt_end(code: &str, pos: usize) -> usize {
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
            b';' | b',' if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// End of the block enclosing `pos`: scans forward over balanced groups to
/// the first unmatched `}`. Used for the lexical scope of a `let`-bound
/// guard (it lives to the end of its block unless dropped earlier).
pub(crate) fn block_end(code: &str, pos: usize) -> usize {
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
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Whether `rel` is library code for the atomics and locks rules: any `src/`
/// file of a crate or the suite (binaries included — they ship). `tests/`,
/// `benches/` and `examples/` are exempt by policy.
pub(crate) fn is_library_path(rel: &str) -> bool {
    let exempt = ["tests/", "benches/", "examples/"];
    if exempt
        .iter()
        .any(|d| rel.starts_with(d) || rel.contains(&format!("/{d}")))
    {
        return false;
    }
    rel.starts_with("src/") || rel.contains("/src/")
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
        line_of(&self.line_starts, pos)
    }

    /// 1-based column (byte offset within the line) of a byte offset.
    pub(crate) fn col_of(&self, pos: usize) -> usize {
        let line = self.line_of(pos);
        pos - self.line_starts[line - 1] + 1
    }

    /// Whether `pos` falls inside a `#[cfg(test)]`-gated item.
    pub(crate) fn in_test(&self, pos: usize) -> bool {
        in_regions(&self.test_regions, pos)
    }

    /// The test regions, for passes that walk the code view directly.
    pub(crate) fn test_regions(&self) -> &[(usize, usize)] {
        &self.test_regions
    }

    /// Whether this file is library code (ships; strictest rules apply).
    pub(crate) fn is_library(&self) -> bool {
        is_library_path(&self.rel)
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

/// Recursively collects the workspace's `.rs` files, root-relative.
pub(crate) fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    const SKIP_DIRS: &[&str] = &["target", ".git", "results", ".claude", "fixtures"];
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
    Ok(files)
}

/// Reads and parses the whole tree under `root` into [`SourceFile`]s.
pub(crate) fn load_tree(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        out.push(SourceFile::parse(&rel, &src));
    }
    Ok(out)
}

/// The result of one analysis pass over the tree: its inventory (one
/// human-oriented line per audited site) and its violations.
pub(crate) struct PassOutcome {
    /// Pass name as the CLI and the baseline file know it.
    pub pass: &'static str,
    /// One line per audited site (may be empty for violation-only passes).
    pub sites: Vec<String>,
    /// Violations found.
    pub violations: Vec<Violation>,
}

// ---------------------------------------------------------------------------
// Ratchet baseline
// ---------------------------------------------------------------------------

/// Root-relative path of the committed ratchet baseline.
pub(crate) const BASELINE_PATH: &str = "crates/xtask/audit-baseline.txt";

/// The committed per-pass violation budget. Counts may only shrink.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct Baseline(BTreeMap<String, usize>);

impl Baseline {
    /// The budget for `pass` (absent passes have budget 0 — new passes start
    /// strict and the baseline only ever records debt, never headroom).
    pub(crate) fn budget(&self, pass: &str) -> usize {
        self.0.get(pass).copied().unwrap_or(0)
    }
}

/// Parses `pass count` lines; `#` comments and blank lines are skipped.
pub(crate) fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((pass, count)) = line.split_once(char::is_whitespace) else {
            return Err(format!("{BASELINE_PATH}:{}: expected `pass count`", n + 1));
        };
        let count: usize = count
            .trim()
            .parse()
            .map_err(|e| format!("{BASELINE_PATH}:{}: bad count: {e}", n + 1))?;
        if map.insert(pass.to_string(), count).is_some() {
            return Err(format!(
                "{BASELINE_PATH}:{}: duplicate pass `{pass}`",
                n + 1
            ));
        }
    }
    Ok(Baseline(map))
}

/// Loads the committed baseline under `root` (absent file = all-zero budgets).
pub(crate) fn load_baseline(root: &Path) -> Result<Baseline, String> {
    match std::fs::read_to_string(root.join(BASELINE_PATH)) {
        Ok(text) => parse_baseline(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("{BASELINE_PATH}: {e}")),
    }
}

/// Enforces the ratchet for one pass: a violation count above the budget
/// fails outright, and a count *below* it fails until the baseline is
/// lowered, so recorded debt can never silently regrow. Returns the ratchet
/// violations to append to the pass's own.
pub(crate) fn ratchet(baseline: &Baseline, pass: &'static str, count: usize) -> Vec<Violation> {
    let budget = baseline.budget(pass);
    let mut out = Vec::new();
    if count < budget {
        out.push(Violation {
            rule: "ratchet-stale",
            path: BASELINE_PATH.to_string(),
            line: 1,
            col: 1,
            msg: format!(
                "pass `{pass}` now has {count} violation(s) but the baseline still \
                 budgets {budget} — lower the `{pass}` line (the ratchet only tightens)"
            ),
        });
    }
    // Note: `count > budget` is not reported here — the `count - budget`
    // excess violations are already being reported by the pass itself, and
    // the runner fails on them. The ratchet's job is the shrink direction.
    out
}

/// Splits a pass's raw violations into `(tolerated, excess)` under the
/// baseline budget: the first `budget` violations are tolerated (recorded
/// debt), the rest must be fixed. Deterministic because passes emit
/// violations in tree order.
pub(crate) fn apply_budget(
    baseline: &Baseline,
    pass: &str,
    violations: Vec<Violation>,
) -> (Vec<Violation>, Vec<Violation>) {
    let budget = baseline.budget(pass);
    let mut tolerated = violations;
    let excess = tolerated.split_off(budget.min(tolerated.len()));
    (tolerated, excess)
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
/// the audited-site inventory, every violation with its span, and the
/// baseline budget in force. Dependency-free by design (xtask must build
/// anywhere the workspace builds).
pub(crate) fn render_report(root: &Path, baseline: &Baseline, passes: &[PassOutcome]) -> String {
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
        out.push_str(&format!(
            "      \"baseline\": {},\n",
            baseline.budget(p.pass)
        ));
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
        let src = "fn f() {\n    // alloc(setup buffer: built once per stage)\n    let x = 1;\n}\n";
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        assert_eq!(
            f.tag("alloc", 3).as_deref(),
            Some("setup buffer: built once per stage")
        );
        // Window: same line or ≤3 above; line 7 is too far from line 2.
        assert_eq!(f.tag("alloc", 7), None);
        // Other tag names don't match.
        assert_eq!(f.tag("panics", 3), None);
    }

    #[test]
    fn tag_ignores_code_and_strings() {
        let src = "fn alloc(x: u32) {}\nlet s = \"alloc(nope)\";\nlet y = 2;\n";
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        assert_eq!(f.tag("alloc", 3), None);
    }

    #[test]
    fn tag_payload_preserves_case_and_trims() {
        let src = "// ALLOC( Once: K ≤ MAX_K )\nlet x = 1;\n";
        let f = SourceFile::parse("crates/demo/src/lib.rs", src);
        assert_eq!(f.tag("alloc", 2).as_deref(), Some("Once: K ≤ MAX_K"));
    }

    #[test]
    fn baseline_parses_and_defaults_to_zero() {
        let b = parse_baseline("# comment\nlocks 3\n\nlayers 0\n").expect("valid");
        assert_eq!(b.budget("locks"), 3);
        assert_eq!(b.budget("layers"), 0);
        assert_eq!(b.budget("panics"), 0, "absent pass defaults to zero");
    }

    #[test]
    fn baseline_rejects_garbage_and_duplicates() {
        assert!(parse_baseline("locks\n").is_err());
        assert!(parse_baseline("locks x\n").is_err());
        assert!(parse_baseline("locks 1\nlocks 2\n").is_err());
    }

    #[test]
    fn ratchet_flags_only_the_stale_direction() {
        let b = parse_baseline("locks 2\n").expect("valid");
        assert!(ratchet(&b, "locks", 2).is_empty(), "at budget: fine");
        assert!(
            ratchet(&b, "locks", 3).is_empty(),
            "above budget: the excess violations themselves fail the run"
        );
        let stale = ratchet(&b, "locks", 1);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "ratchet-stale");
        assert!(stale[0].msg.contains("lower the `locks` line"));
    }

    #[test]
    fn budget_tolerates_exactly_the_recorded_debt() {
        let b = parse_baseline("locks 1\n").expect("valid");
        let v = |line| Violation {
            rule: "lock-wildcard",
            path: "crates/demo/src/lib.rs".to_string(),
            line,
            col: 1,
            msg: "x".to_string(),
        };
        let (tolerated, excess) = apply_budget(&b, "locks", vec![v(1), v(2)]);
        assert_eq!(tolerated.len(), 1);
        assert_eq!(excess.len(), 1);
        assert_eq!(excess[0].line, 2, "excess keeps tree order");
        let (tolerated, excess) = apply_budget(&b, "locks", vec![v(1)]);
        assert_eq!((tolerated.len(), excess.len()), (1, 0));
    }

    #[test]
    fn report_is_valid_json_shape() {
        let b = Baseline::default();
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
        let json = render_report(Path::new("/tmp/x"), &b, &passes);
        assert!(json.contains("\"schema\": \"audit-report/v1\""));
        assert!(json.contains("\"pass\": \"locks\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("bad\\nguard"));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
