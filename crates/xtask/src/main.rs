//! `xtask` — project-native developer tooling, run as `cargo run -p xtask -- <cmd>`.
//!
//! Every command is an analysis **pass** over the shared audit core
//! (`audit.rs`: masked source model, suppression-tag grammar, ratchet
//! baseline, JSON report — DESIGN.md §12). The passes are the rules that
//! clippy cannot state; casts, discarded `Result`s, `unwrap`/`panic!`/
//! `todo!`/`dbg!`, `unsafe` and raw indexing are clippy's and rustc's
//! (`[workspace.lints]` in the root `Cargo.toml`, `clippy.toml`).
//!
//! * `layers` — architectural layering: crate dependencies point strictly
//!   down the `rankings → minispark → core → datagen → bench` stack, `xtask`
//!   stays isolated, intra-crate module imports are acyclic.
//! * `atomics` — every `Ordering::*` site classified by operation; `Relaxed`
//!   requires a `relaxed(<class>)` tag justifying that operation.
//! * `panics` — computed divisors (`x / n`, `x % n`) on the hot-path file
//!   list require a `panics(<invariant>)` tag or a checked rewrite.
//! * `locks` — every `.lock()`/`.read()`/`.write()` guard inventoried with
//!   its lexical scope; wildcard guards, guards held across blocking calls,
//!   and inconsistent per-crate acquisition orders (deadlock cycles) fail.
//! * `hotalloc` — allocation expressions (`Vec::new`, `vec![`, `collect`,
//!   `format!`, collection `clone()`, …) on the hot-path file list require
//!   an `alloc(<why>)` tag, pinning the zero-steady-state-alloc property.
//! * `audit` — all five passes in one run, with the ratchet baseline
//!   enforced and an optional `--json <path>` machine-readable report.
//!
//! Flags (any command): `--root <path>` scans a different tree,
//! `--json <path>` writes the `audit-report/v1` document. Each command exits
//! non-zero on any enforced violation, and each pass also runs as a
//! `#[test]`, so plain `cargo test` is the tier-1 gate for all of them.

mod atomics;
mod audit;
mod hotalloc;
mod layers;
mod locks;
mod panics;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use audit::{Baseline, PassOutcome, Violation};

const PASSES: &[&str] = &["layers", "atomics", "panics", "locks", "hotalloc"];

const USAGE: &str = "usage: cargo run -p xtask -- \
     <layers|atomics|panics|locks|hotalloc|audit> [--root <path>] [--json <path>]";

fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    if let Some(root) = explicit {
        return root;
    }
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

/// Runs the named passes over one parse of the tree. Returns the outcomes in
/// the order requested plus the loaded ratchet baseline.
fn run_passes(root: &Path, which: &[&str]) -> Result<(Vec<PassOutcome>, Baseline), String> {
    let sources =
        audit::load_tree(root).map_err(|e| format!("failed to scan {}: {e}", root.display()))?;
    let baseline = audit::load_baseline(root)?;
    let mut outcomes = Vec::new();
    for &name in which {
        let outcome = match name {
            "layers" => layers::run(root, &sources)
                .map_err(|e| format!("failed to scan {}: {e}", root.display()))?,
            "atomics" => atomics::run(root, &sources),
            "panics" => panics::run(root, &sources),
            "locks" => locks::run(root, &sources),
            "hotalloc" => hotalloc::run(root, &sources),
            other => return Err(format!("xtask: unknown pass `{other}`\n{USAGE}")),
        };
        outcomes.push(outcome);
    }
    Ok((outcomes, baseline))
}

/// Applies the ratchet baseline to raw pass outcomes: violations beyond each
/// pass's recorded budget fail, and a count below the budget fails too until
/// the baseline line is lowered. Returns every enforced failure.
fn enforce(baseline: &Baseline, outcomes: &[PassOutcome]) -> Vec<Violation> {
    let mut failures = Vec::new();
    for outcome in outcomes {
        let (_tolerated, excess) =
            audit::apply_budget(baseline, outcome.pass, outcome.violations.clone());
        failures.extend(audit::ratchet(
            baseline,
            outcome.pass,
            outcome.violations.len(),
        ));
        failures.extend(excess);
    }
    failures
}

/// Runs `which` under `root`, prints the human report, writes the JSON
/// report when asked, and returns the process exit code.
fn run_command(cmd: &str, root: &Path, which: &[&str], json: Option<&Path>) -> ExitCode {
    let (outcomes, baseline) = match run_passes(root, which) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("xtask {cmd}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for outcome in &outcomes {
        if which.len() == 1 && !outcome.sites.is_empty() {
            eprintln!(
                "xtask {}: {} site(s) audited",
                outcome.pass,
                outcome.sites.len()
            );
            for site in &outcome.sites {
                eprintln!("  {site}");
            }
        } else {
            eprintln!(
                "xtask {}: {} site(s), {} violation(s), baseline {}",
                outcome.pass,
                outcome.sites.len(),
                outcome.violations.len(),
                baseline.budget(outcome.pass)
            );
        }
    }
    if let Some(path) = json {
        let report = audit::render_report(root, &baseline, &outcomes);
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("xtask {cmd}: failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xtask {cmd}: wrote {}", path.display());
    }
    let failures = enforce(&baseline, &outcomes);
    if failures.is_empty() {
        eprintln!("xtask {cmd}: clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        for v in &failures {
            eprintln!("{v}");
        }
        eprintln!(
            "xtask {cmd}: {} violation(s). Fix each site, justify it with the pass's \
             suppression tag, or (exceptionally) record debt in {} — which may only shrink.",
            failures.len(),
            audit::BASELINE_PATH
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let which: Vec<&str> = if cmd == "audit" {
        PASSES.to_vec()
    } else if let Some(pass) = PASSES.iter().find(|p| **p == cmd) {
        vec![pass]
    } else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&cmd, args) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let root = workspace_root(flags.root);
    run_command(&cmd, &root, &which, flags.json.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(violations: &[Violation]) -> String {
        violations
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Runs one pass over the real workspace and returns its outcome plus
    /// the enforced failures — the body of every tier-1 gate below.
    fn workspace_gate(pass: &'static str) -> (PassOutcome, Vec<Violation>) {
        let root = workspace_root(None);
        let (mut outcomes, baseline) =
            run_passes(&root, &[pass]).expect("workspace tree must be readable");
        let failures = enforce(&baseline, &outcomes);
        (outcomes.remove(0), failures)
    }

    /// The layering gate: crate ranks and intra-crate module acyclicity.
    #[test]
    fn workspace_layers_are_clean() {
        let (_, failures) = workspace_gate("layers");
        assert!(
            failures.is_empty(),
            "xtask layers found {} violation(s):\n{}",
            failures.len(),
            render(&failures)
        );
    }

    /// The atomics gate: every `Ordering::Relaxed` in library code carries a
    /// class tag that justifies its operation.
    #[test]
    fn workspace_atomics_are_clean() {
        let (outcome, failures) = workspace_gate("atomics");
        assert!(
            !outcome.sites.is_empty(),
            "the audit should see the executor's atomics — scanning the wrong tree?"
        );
        assert!(
            failures.is_empty(),
            "xtask atomics found {} violation(s):\n{}",
            failures.len(),
            render(&failures)
        );
    }

    /// The panic-freedom gate: computed divisors on the hot-path files carry
    /// `panics(<invariant>)` tags or checked rewrites.
    #[test]
    fn workspace_panics_are_clean() {
        let (outcome, failures) = workspace_gate("panics");
        assert!(
            !outcome.sites.is_empty(),
            "the audit should see hot-path divisor sites — scanning the wrong tree?"
        );
        assert!(
            failures.is_empty(),
            "xtask panics found {} violation(s):\n{}",
            failures.len(),
            render(&failures)
        );
    }

    /// The lock-discipline gate: every guard in library code has a clean
    /// lexical scope — no wildcard bindings, no blocking calls under a held
    /// guard, consistent per-crate acquisition order.
    #[test]
    fn workspace_locks_are_clean() {
        let (outcome, failures) = workspace_gate("locks");
        assert!(
            !outcome.sites.is_empty(),
            "the audit should see the runtime's lock sites — scanning the wrong tree?"
        );
        assert!(
            failures.is_empty(),
            "xtask locks found {} violation(s):\n{}",
            failures.len(),
            render(&failures)
        );
    }

    /// The allocation gate: hot-path allocation expressions carry an
    /// `alloc(<why>)` tag, so the kernels' zero-steady-state-allocation
    /// property can only improve.
    #[test]
    fn workspace_hotalloc_is_clean() {
        let (outcome, failures) = workspace_gate("hotalloc");
        assert!(
            !outcome.sites.is_empty(),
            "the audit should see hot-path allocation sites — scanning the wrong tree?"
        );
        assert!(
            failures.is_empty(),
            "xtask hotalloc found {} violation(s):\n{}",
            failures.len(),
            render(&failures)
        );
    }

    // -- what clippy enforces ------------------------------------------------

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

    /// The trimmed lines of one `[header]` table of a manifest.
    fn manifest_table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|line| *line != header)
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .collect()
    }

    /// Whether `table` sets `key` to one of `values` (quotes included).
    fn table_sets(table: &[&str], key: &str, values: &[&str]) -> bool {
        table.iter().any(|line| {
            line.split_once('=')
                .is_some_and(|(k, v)| k.trim() == key && values.contains(&v.trim()))
        })
    }

    /// Clippy's share of the policy is only enforced if every crate keeps
    /// asking for it: the workspace lint table names each lint, every
    /// member inherits that table (so a new crate cannot opt out silently),
    /// every hot-path module turns on `indexing_slicing`, and `clippy.toml`
    /// holds nothing but the test exemptions.
    #[test]
    fn clippy_enforces_the_library_rules_in_every_member() {
        let root = workspace_root(None);
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
        assert!(members.len() > 5, "found only {members:?}");
        for rel in &members {
            assert!(
                table_sets(
                    &manifest_table(&read(rel), "[lints]"),
                    "workspace",
                    &["true"]
                ),
                "{rel} must inherit the workspace lints: `[lints] workspace = true`"
            );
        }

        for rel in panics::HOT_PATHS {
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

    // -- ratchet fixture ----------------------------------------------------
    //
    // `fixtures/ratchet-demo` is a committed mini-tree with exactly one
    // unjustified site per ratcheted pass — a wildcard lock guard and a
    // hot-path `Vec::new` — each recorded at budget 1 in its own
    // audit-baseline.txt. It is not a workspace member and `collect_sources`
    // skips `fixtures` dirs, so the workspace gates above never see it.

    fn fixture_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/ratchet-demo")
    }

    #[test]
    fn fixture_debt_is_tolerated_at_its_recorded_budget() {
        let (outcomes, baseline) = run_passes(&fixture_root(), &["locks", "hotalloc"])
            .expect("fixture tree must be readable");
        for outcome in &outcomes {
            assert_eq!(
                outcome.violations.len(),
                1,
                "pass `{}` should see exactly one debt site:\n{}",
                outcome.pass,
                render(&outcome.violations)
            );
            assert_eq!(baseline.budget(outcome.pass), 1, "{}", outcome.pass);
        }
        let failures = enforce(&baseline, &outcomes);
        assert!(failures.is_empty(), "{}", render(&failures));
    }

    #[test]
    fn an_unjustified_computed_divisor_fails_the_gate() {
        // The panics pass scopes to HOT_PATHS, so stage the source under a
        // hot path name.
        let hot = audit::SourceFile::parse(
            "crates/core/src/kernels.rs",
            "pub fn f(total: u64, n: u64) -> u64 { total / n }\n",
        );
        let outcome = panics::run(Path::new("."), &[hot]);
        let failures = enforce(&Baseline::default(), &[outcome]);
        assert_eq!(failures.len(), 1, "{}", render(&failures));
        assert_eq!(failures[0].rule, "panics-audit");
    }

    #[test]
    fn an_unjustified_new_lock_site_fails_the_gate() {
        let wild = audit::SourceFile::parse(
            "crates/demo/src/extra.rs",
            "pub fn f(m: &std::sync::Mutex<u32>) {\n    let _ = m.lock().expect(\"poisoned\");\n}\n",
        );
        let outcome = locks::run(Path::new("."), &[wild]);
        let failures = enforce(&Baseline::default(), &[outcome]);
        assert_eq!(failures.len(), 1, "{}", render(&failures));
        assert_eq!(failures[0].rule, "lock-wildcard");
    }

    #[test]
    fn an_unjustified_new_hot_allocation_fails_the_gate() {
        // hotalloc scopes to HOT_PATHS, so stage the source under a hot name.
        let hot = audit::SourceFile::parse(
            "crates/minispark/src/shuffle.rs",
            "pub fn f() -> Vec<u32> { Vec::new() }\n",
        );
        let outcome = hotalloc::run(Path::new("."), &[hot]);
        let failures = enforce(&Baseline::default(), &[outcome]);
        assert_eq!(failures.len(), 1, "{}", render(&failures));
        assert_eq!(failures[0].rule, "alloc-audit");
    }

    #[test]
    fn fixing_recorded_debt_forces_the_baseline_down() {
        // Each pass's fixture debt, once fixed, must be struck from the
        // fixture baseline — a clean outcome against budget 1 is stale.
        let baseline = audit::load_baseline(&fixture_root()).expect("fixture baseline parses");
        for pass in ["locks", "hotalloc"] {
            let clean = PassOutcome {
                pass,
                sites: Vec::new(),
                violations: Vec::new(),
            };
            let failures = enforce(&baseline, &[clean]);
            assert_eq!(failures.len(), 1, "{pass}: {}", render(&failures));
            assert_eq!(failures[0].rule, "ratchet-stale", "{pass}");
            assert!(failures[0]
                .msg
                .contains(&format!("lower the `{pass}` line")));
        }
    }

    #[test]
    fn the_workspace_baseline_is_all_zero() {
        // The real tree carries no recorded debt: every budget in the
        // committed baseline must be zero, so the gates above are strict.
        let baseline =
            audit::load_baseline(&workspace_root(None)).expect("workspace baseline parses");
        for pass in PASSES {
            assert_eq!(
                baseline.budget(pass),
                0,
                "pass `{pass}` carries recorded debt — burn it down instead"
            );
        }
    }

    // -- CLI plumbing -------------------------------------------------------

    #[test]
    fn workspace_root_prefers_the_explicit_path() {
        let explicit = PathBuf::from("/tmp/some-tree");
        assert_eq!(workspace_root(Some(explicit.clone())), explicit);
    }

    #[test]
    fn workspace_root_derives_from_the_manifest_dir() {
        let root = workspace_root(None);
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
        let err = parse_flags("layers", args.into_iter()).expect_err("unknown flag");
        assert!(err.contains("unknown argument `--frobnicate`"), "{err}");
    }

    #[test]
    fn the_json_report_covers_every_pass() {
        let root = workspace_root(None);
        let (outcomes, baseline) =
            run_passes(&root, PASSES).expect("workspace tree must be readable");
        let json = audit::render_report(&root, &baseline, &outcomes);
        for pass in PASSES {
            assert!(json.contains(&format!("\"pass\": \"{pass}\"")), "{pass}");
        }
        assert!(json.contains("\"schema\": \"audit-report/v1\""));
    }
}
