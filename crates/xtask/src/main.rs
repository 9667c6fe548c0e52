//! `xtask` — project-native developer tooling, run as `cargo run -p xtask -- <cmd>`.
//!
//! Every command is an analysis **pass** over the shared audit core
//! (`audit.rs`: masked source model, suppression-tag grammar, JSON report —
//! DESIGN.md §12). The two passes are what only a lexical pass over this
//! tree can say; every other rule has an owner that states it better —
//! clippy, rustc, cargo, a `NonZeroUsize`, the counting allocator of
//! `crates/core/tests/alloc_budget.rs` (DESIGN.md §7 has the table).
//!
//! * `atomics` — every `Ordering::*` site classified by operation; `Relaxed`
//!   requires a `relaxed(<class>)` tag justifying that operation.
//! * `locks` — every `.lock()`/`.read()`/`.write()` guard inventoried with
//!   its lexical scope; wildcard guards, guards held across blocking calls,
//!   and inconsistent per-crate acquisition orders (deadlock cycles) fail.
//! * `audit` — both passes in one run, with an optional `--json <path>`
//!   machine-readable report.
//!
//! Flags (any command): `--root <path>` scans a different tree,
//! `--json <path>` writes the `audit-report/v1` document. Each command exits
//! non-zero on any violation, and each pass also runs as a `#[test]`, so
//! plain `cargo test` is the tier-1 gate for both.

mod atomics;
mod audit;
mod locks;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use audit::{PassOutcome, SourceFile};

/// A pass: its command name and its entry point over the parsed tree.
type Pass = (&'static str, fn(&[SourceFile]) -> PassOutcome);

const PASSES: &[Pass] = &[("atomics", atomics::run), ("locks", locks::run)];

const USAGE: &str = "usage: cargo run -p xtask -- \
     <atomics|locks|audit> [--root <path>] [--json <path>]";

/// The tree to scan when `--root` does not name one.
fn workspace_root() -> PathBuf {
    // This file lives at <root>/crates/xtask/src/main.rs.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or(manifest.clone(), Path::to_path_buf)
}

/// Parsed command-line flags shared by every subcommand.
#[derive(Debug, Default, PartialEq, Eq)]
struct Flags {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
}

/// Parses the `[--root <path>] [--json <path>]` tail. A flag with no operand
/// is an error (a silent fallback used to mask typos like a trailing
/// `--root`).
fn parse_flags(cmd: &str, args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut args = args;
    let mut flags = Flags::default();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--root" => &mut flags.root,
            "--json" => &mut flags.json,
            other => return Err(format!("xtask {cmd}: unknown argument `{other}`\n{USAGE}")),
        };
        match args.next() {
            Some(path) => *slot = Some(PathBuf::from(path)),
            None => {
                return Err(format!(
                    "xtask {cmd}: `{arg}` needs a path operand\n{USAGE}"
                ))
            }
        }
    }
    Ok(flags)
}

/// Runs `which` over one parse of the tree, in the order given.
fn run_passes(root: &Path, which: &[Pass]) -> Result<Vec<PassOutcome>, String> {
    let sources =
        audit::load_tree(root).map_err(|e| format!("failed to scan {}: {e}", root.display()))?;
    Ok(which.iter().map(|(_, run)| run(&sources)).collect())
}

/// Runs the command, prints the human report, writes the JSON report when
/// asked, and fails on any violation.
fn run(cmd: &str, args: impl Iterator<Item = String>) -> Result<(), String> {
    let which: Vec<Pass> = PASSES
        .iter()
        .filter(|(name, _)| cmd == "audit" || cmd == *name)
        .copied()
        .collect();
    if which.is_empty() {
        return Err(USAGE.to_string());
    }
    let flags = parse_flags(cmd, args)?;
    let root = flags.root.unwrap_or_else(workspace_root);
    let outcomes = run_passes(&root, &which).map_err(|e| format!("xtask {cmd}: {e}"))?;
    for outcome in &outcomes {
        let (pass, sites) = (outcome.pass, outcome.sites.len());
        if which.len() == 1 {
            eprintln!("xtask {pass}: {sites} site(s) audited");
            for site in &outcome.sites {
                eprintln!("  {site}");
            }
        } else {
            let violations = outcome.violations.len();
            eprintln!("xtask {pass}: {sites} site(s), {violations} violation(s)");
        }
    }
    if let Some(path) = &flags.json {
        std::fs::write(path, audit::render_report(&root, &outcomes))
            .map_err(|e| format!("xtask {cmd}: failed to write {}: {e}", path.display()))?;
        eprintln!("xtask {cmd}: wrote {}", path.display());
    }
    let failures: Vec<_> = outcomes.iter().flat_map(|o| &o.violations).collect();
    if failures.is_empty() {
        eprintln!("xtask {cmd}: clean ({})", root.display());
        return Ok(());
    }
    for v in &failures {
        eprintln!("{v}");
    }
    Err(format!(
        "xtask {cmd}: {} violation(s). Fix each site or justify it with the pass's \
         suppression tag.",
        failures.len()
    ))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let outcome = match args.next() {
        Some(cmd) => run(&cmd, args),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one pass over the real workspace and asserts it saw sites and
    /// found no violation — the body of both tier-1 gates below.
    fn assert_workspace_clean(pass: &'static str, run: fn(&[SourceFile]) -> PassOutcome) {
        let outcome = run_passes(&workspace_root(), &[(pass, run)])
            .expect("workspace tree must be readable")
            .remove(0);
        assert!(
            !outcome.sites.is_empty(),
            "xtask {pass} saw no site — scanning the wrong tree?"
        );
        let rendered: Vec<String> = outcome.violations.iter().map(ToString::to_string).collect();
        assert!(
            rendered.is_empty(),
            "xtask {pass} found {} violation(s):\n{}",
            rendered.len(),
            rendered.join("\n")
        );
    }

    /// The atomics gate: every `Ordering::Relaxed` in library code carries a
    /// class tag that justifies its operation.
    #[test]
    fn workspace_atomics_are_clean() {
        assert_workspace_clean("atomics", atomics::run);
    }

    /// The lock-discipline gate: every guard in library code has a clean
    /// lexical scope — no wildcard bindings, no blocking calls under a held
    /// guard, consistent per-crate acquisition order.
    #[test]
    fn workspace_locks_are_clean() {
        assert_workspace_clean("locks", locks::run);
    }

    // -- what cargo, rustc and clippy enforce --------------------------------

    /// The library-code rules that are clippy's to enforce: casts, discarded
    /// `Result`s, unwrap/panic/todo/dbg (`indexing_slicing`, scoped to
    /// `HOT_PATHS`, and rustc's `unsafe_code` are checked separately below).
    const CLIPPY_GATE: &[&str] = &[
        "cast_possible_truncation",
        "cast_possible_wrap",
        "cast_precision_loss",
        "cast_sign_loss",
        "let_underscore_must_use",
        "unused_result_ok",
        "unwrap_used",
        "panic",
        "todo",
        "dbg_macro",
    ];

    /// The per-pair / per-record modules: each must turn on
    /// `clippy::indexing_slicing` with an inner attribute. Root-relative
    /// paths; extend the list when a new file joins the per-pair /
    /// per-record path.
    const HOT_PATHS: &[&str] = &[
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

    /// The four library crates, bottom of the stack first.
    const LIBS: &[&str] = &["topk-rankings", "minispark", "topk-simjoin", "topk-datagen"];

    /// The layering contract, one row per member manifest: the workspace
    /// crates its `[dependencies]` may name. Cargo refuses cycles and rustc
    /// refuses a crate the manifest does not declare, so all that is left to
    /// state is which acyclic edges are wanted: dependencies point down
    /// `rankings → minispark → core → datagen → bench → suite`, and `xtask`
    /// depends on nothing at all. `[dev-dependencies]` are free (core's tests
    /// use datagen's fixtures).
    const ALLOWED_EDGES: &[(&str, &[&str])] = &[
        ("crates/rankings/Cargo.toml", &[]),
        ("crates/minispark/Cargo.toml", &[]),
        ("crates/core/Cargo.toml", &["topk-rankings", "minispark"]),
        ("crates/datagen/Cargo.toml", &["topk-rankings"]),
        ("crates/bench/Cargo.toml", LIBS),
        ("Cargo.toml", LIBS),
        ("crates/xtask/Cargo.toml", &[]),
    ];

    /// The `key = value` entries of one `[header]` table of a manifest, both
    /// sides trimmed (quotes kept), comments skipped.
    fn manifest_table<'a>(manifest: &'a str, header: &str) -> Vec<(&'a str, &'a str)> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|line| *line != header)
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.split_once('='))
            .map(|(key, value)| (key.trim(), value.trim()))
            .collect()
    }

    /// Whether `table` sets `key` to one of `values` (quotes included).
    fn table_sets(table: &[(&str, &str)], key: &str, values: &[&str]) -> bool {
        table.iter().any(|(k, v)| *k == key && values.contains(v))
    }

    /// What cargo, rustc and clippy enforce is only enforced if every crate
    /// keeps asking for it: the workspace lint table names each lint, every
    /// member inherits that table (so a new crate cannot opt out silently),
    /// every member's workspace `[dependencies]` are edges the layering
    /// allows, every hot-path module turns on `indexing_slicing`, and
    /// `clippy.toml` holds nothing but the test exemptions.
    #[test]
    fn clippy_enforces_the_library_rules_in_every_member() {
        let root = workspace_root();
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
        };
        let manifest = read("Cargo.toml");
        let clippy = manifest_table(&manifest, "[workspace.lints.clippy]");
        for lint in CLIPPY_GATE {
            assert!(
                table_sets(&clippy, lint, &["\"warn\"", "\"deny\""]),
                "`{lint}` must be warn or deny in [workspace.lints.clippy]"
            );
        }
        let rust = manifest_table(&manifest, "[workspace.lints.rust]");
        assert!(table_sets(
            &rust,
            "unsafe_code",
            &["\"deny\"", "\"forbid\""]
        ));

        let mut members = vec!["Cargo.toml".to_string()];
        for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
            let name = entry.expect("dir entry").file_name();
            let rel = format!("crates/{}/Cargo.toml", name.to_string_lossy());
            if root.join(&rel).is_file() {
                members.push(rel);
            }
        }
        let manifests: Vec<(&str, String)> =
            members.iter().map(|m| (m.as_str(), read(m))).collect();
        let packages: Vec<&str> = manifests
            .iter()
            .flat_map(|(_, manifest)| manifest_table(manifest, "[package]"))
            .filter(|(key, _)| *key == "name")
            .map(|(_, name)| name.trim_matches('"'))
            .collect();
        assert_eq!(packages.len(), members.len(), "{packages:?}");
        for (rel, manifest) in &manifests {
            assert!(
                table_sets(&manifest_table(manifest, "[lints]"), "workspace", &["true"]),
                "{rel} must inherit the workspace lints: `[lints] workspace = true`"
            );
            let (_, allowed) = ALLOWED_EDGES
                .iter()
                .find(|(member, _)| member == rel)
                .unwrap_or_else(|| panic!("{rel} has no row in ALLOWED_EDGES"));
            for (dep, _) in manifest_table(manifest, "[dependencies]") {
                assert!(
                    !packages.contains(&dep) || allowed.contains(&dep),
                    "{rel}: `{dep}` in [dependencies] points up the stack \
                     (allowed workspace edges: {allowed:?})"
                );
                assert_ne!(
                    *rel, "crates/xtask/Cargo.toml",
                    "xtask builds with std alone"
                );
            }
        }

        for rel in HOT_PATHS {
            assert!(
                read(rel)
                    .lines()
                    .any(|line| line == "#![warn(clippy::indexing_slicing)]"),
                "{rel} is a hot path and must turn on clippy::indexing_slicing"
            );
        }

        for line in read("clippy.toml").lines() {
            let line = line.trim();
            assert!(
                line.is_empty()
                    || line.starts_with('#')
                    || (line.starts_with("allow-") && line.ends_with("-in-tests = true")),
                "clippy.toml holds only the allow-*-in-tests switches, not `{line}`"
            );
        }
    }

    // -- CLI plumbing -------------------------------------------------------

    #[test]
    fn workspace_root_derives_from_the_manifest_dir() {
        let root = workspace_root();
        assert!(
            root.join("crates/xtask/src/main.rs").is_file(),
            "derived root {} should contain this very file",
            root.display()
        );
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn parse_flags_accepts_root_and_json() {
        let args = [
            "--root".to_string(),
            "/tmp/tree".to_string(),
            "--json".to_string(),
            "report.json".to_string(),
        ];
        let flags = parse_flags("audit", args.into_iter()).expect("valid flags");
        assert_eq!(flags.root, Some(PathBuf::from("/tmp/tree")));
        assert_eq!(flags.json, Some(PathBuf::from("report.json")));
    }

    #[test]
    fn parse_flags_rejects_a_missing_operand() {
        for flag in ["--root", "--json"] {
            let args = [flag.to_string()];
            let err = parse_flags("locks", args.into_iter()).expect_err("missing operand");
            assert!(err.contains("needs a path operand"), "{err}");
            assert!(err.contains("usage:"), "{err}");
        }
    }

    #[test]
    fn parse_flags_rejects_unknown_flags() {
        let args = ["--frobnicate".to_string()];
        let err = parse_flags("atomics", args.into_iter()).expect_err("unknown flag");
        assert!(err.contains("unknown argument `--frobnicate`"), "{err}");
    }

    #[test]
    fn the_json_report_covers_every_pass() {
        let root = workspace_root();
        let outcomes = run_passes(&root, PASSES).expect("workspace tree must be readable");
        let json = audit::render_report(&root, &outcomes);
        for (pass, _) in PASSES {
            assert!(json.contains(&format!("\"pass\": \"{pass}\"")), "{pass}");
        }
        assert!(json.contains("\"schema\": \"audit-report/v1\""));
    }
}
