//! `cargo run -p xtask -- layers` — architectural layering analysis.
//!
//! The workspace is a strict stack (DESIGN.md §"Concurrency checking and
//! architectural analysis"):
//!
//! ```text
//! topk-rankings  →  minispark  →  topk-simjoin (core)  →  topk-datagen
//!               →  topk-bench  →  topk-simjoin-suite (root)
//! ```
//!
//! with `xtask` standing outside the stack (zero workspace dependencies).
//! Three rules make the stack structural rather than aspirational:
//!
//! * **crate-rank** — a crate's `[dependencies]` may only name workspace
//!   crates of strictly lower rank (no back-edges, so e.g. no `bench` types
//!   can ever reach `core`). `[dev-dependencies]` are exempt from rank (a
//!   lower layer may use a higher one's *test fixtures* — core's tests use
//!   datagen) but still feed the source-reference rule below.
//! * **crate-ref** — a source file may only reference (`ident::…`) workspace
//!   crates its manifest declares for that context: library code sees
//!   `[dependencies]`; test code (`tests/`, `benches/`, `examples/`,
//!   `#[cfg(test)]` regions) additionally sees `[dev-dependencies]`.
//! * **module-cycle** — within each crate, the intra-crate import graph
//!   (`crate::<module>` references in non-test code) must be acyclic, so
//!   the layering holds *inside* crates too (e.g. the executor depends on
//!   `sched`, never on the `check` harness above it).
//!
//! The pass is purely lexical (comments and literals are masked first) and
//! dependency-free.

use std::collections::BTreeMap;
use std::path::Path;

use crate::audit::{find_tokens, in_regions, PassOutcome, SourceFile, Violation};

/// One workspace crate: directory prefix, manifest package name, Rust
/// identifier, and layer rank (lower = further down the stack; `None` =
/// outside the stack, may depend on nothing in the workspace).
struct WorkspaceCrate {
    dir: &'static str,
    package: &'static str,
    ident: &'static str,
    rank: Option<usize>,
}

/// The layering contract. Order within the table is the documentation
/// order; the `rank` field is the law.
const CRATES: &[WorkspaceCrate] = &[
    WorkspaceCrate {
        dir: "crates/rankings",
        package: "topk-rankings",
        ident: "topk_rankings",
        rank: Some(0),
    },
    WorkspaceCrate {
        dir: "crates/minispark",
        package: "minispark",
        ident: "minispark",
        rank: Some(1),
    },
    WorkspaceCrate {
        dir: "crates/core",
        package: "topk-simjoin",
        ident: "topk_simjoin",
        rank: Some(2),
    },
    WorkspaceCrate {
        dir: "crates/datagen",
        package: "topk-datagen",
        ident: "topk_datagen",
        rank: Some(3),
    },
    WorkspaceCrate {
        dir: "crates/bench",
        package: "topk-bench",
        ident: "topk_bench",
        rank: Some(4),
    },
    WorkspaceCrate {
        dir: "",
        package: "topk-simjoin-suite",
        ident: "topk_simjoin_suite",
        rank: Some(5),
    },
    WorkspaceCrate {
        dir: "crates/xtask",
        package: "xtask",
        ident: "xtask",
        rank: None,
    },
];

fn crate_by_package(package: &str) -> Option<&'static WorkspaceCrate> {
    CRATES.iter().find(|c| c.package == package)
}

/// The workspace crate a root-relative path belongs to. Longest directory
/// prefix wins, so `crates/…` files never fall through to the root suite.
fn crate_of_path(rel: &str) -> Option<&'static WorkspaceCrate> {
    CRATES
        .iter()
        .filter(|c| c.dir.is_empty() || rel.starts_with(&format!("{}/", c.dir)))
        .max_by_key(|c| c.dir.len())
}

/// Workspace-crate names found in one manifest: `(lib_deps, dev_deps)`.
fn manifest_workspace_deps(manifest: &str) -> (Vec<&'static str>, Vec<&'static str>) {
    let mut lib = Vec::new();
    let mut dev = Vec::new();
    let mut section = "";
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let bucket: &mut Vec<&'static str> = match section {
            "[dependencies]" => &mut lib,
            "[dev-dependencies]" => &mut dev,
            _ => continue,
        };
        // `name = …` or `name.workspace = true`; the name ends at the first
        // `.`, `=` or whitespace.
        let name = line
            .split(|c: char| c == '.' || c == '=' || c.is_whitespace())
            .next()
            .unwrap_or("");
        if let Some(c) = crate_by_package(name) {
            bucket.push(c.package);
        }
    }
    (lib, dev)
}

/// Checks every manifest against the crate-rank rule.
fn check_manifest_ranks(root: &Path, violations: &mut Vec<Violation>) -> std::io::Result<()> {
    for c in CRATES {
        let rel = if c.dir.is_empty() {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", c.dir)
        };
        let manifest = std::fs::read_to_string(root.join(&rel))?;
        let (lib_deps, _) = manifest_workspace_deps(&manifest);
        for dep in lib_deps {
            let dep_crate = crate_by_package(dep).expect("deps are filtered to workspace crates");
            let ok = match (c.rank, dep_crate.rank) {
                (Some(mine), Some(theirs)) => theirs < mine,
                // A crate outside the stack (xtask) may depend on nothing in
                // the workspace; nothing may depend on it either.
                _ => false,
            };
            if !ok {
                violations.push(Violation {
                    rule: "crate-rank",
                    path: rel.clone(),
                    line: 1,
                    col: 1,
                    msg: format!(
                        "`{}` must not depend on `{dep}`: layering is \
                         rankings → minispark → core → datagen → bench → suite \
                         (back-edges and xtask coupling are banned)",
                        c.package
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Positions in `code` where `ident` is used as a crate path (`ident::…`).
fn crate_path_refs(code: &str, ident: &str) -> Vec<usize> {
    find_tokens(code, ident)
        .into_iter()
        .filter(|&pos| code[pos + ident.len()..].trim_start().starts_with("::"))
        .collect()
}

/// Checks every source file against the crate-ref rule.
fn check_source_refs(
    root: &Path,
    sources: &[SourceFile],
    violations: &mut Vec<Violation>,
) -> std::io::Result<()> {
    // Manifest deps per package, resolved once.
    let mut deps: BTreeMap<&'static str, (Vec<&'static str>, Vec<&'static str>)> = BTreeMap::new();
    for c in CRATES {
        let rel = if c.dir.is_empty() {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", c.dir)
        };
        let manifest = std::fs::read_to_string(root.join(rel))?;
        deps.insert(c.package, manifest_workspace_deps(&manifest));
    }

    for file in sources {
        let rel = &file.rel;
        let Some(owner) = crate_of_path(rel) else {
            continue;
        };
        let (lib_deps, dev_deps) = &deps[owner.package];
        let test_file = ["tests/", "benches/", "examples/"]
            .iter()
            .any(|d| rel.starts_with(d) || rel.contains(&format!("/{d}")));
        for target in CRATES {
            if target.ident == owner.ident {
                continue;
            }
            for pos in crate_path_refs(&file.code, target.ident) {
                let test_context = test_file || file.in_test(pos);
                let allowed = lib_deps.contains(&target.package)
                    || (test_context && dev_deps.contains(&target.package));
                if !allowed {
                    violations.push(file.violation(
                        "crate-ref",
                        pos,
                        format!(
                            "`{}::` used in `{}` {} code, but `{}` is not in its manifest's {}",
                            target.ident,
                            owner.package,
                            if test_context { "test" } else { "library" },
                            target.package,
                            if test_context {
                                "[dependencies]/[dev-dependencies]"
                            } else {
                                "[dependencies]"
                            },
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The module a root-relative source path defines, if it participates in
/// its crate's module graph: a direct child of `src/` (file or directory),
/// excluding crate roots (`lib.rs`, `main.rs`, the suite's `suite.rs`) and
/// binary targets under `src/bin/`.
fn module_of_path<'a>(owner: &WorkspaceCrate, rel: &'a str) -> Option<&'a str> {
    let under_src = if owner.dir.is_empty() {
        rel.strip_prefix("src/")
    } else {
        rel.strip_prefix(&format!("{}/src/", owner.dir)[..])
    }?;
    let first = under_src.split('/').next().unwrap_or("");
    if first == "bin" {
        return None;
    }
    if under_src.contains('/') {
        return Some(first); // src/<module>/… — a directory module
    }
    let stem = first.strip_suffix(".rs")?;
    match stem {
        "lib" | "main" | "suite" => None,
        _ => Some(stem),
    }
}

/// Module names referenced as `crate::<module>` in non-test code, including
/// brace groups (`use crate::{a, b::c}` contributes `a` and `b`).
fn crate_module_refs(code: &str, regions: &[(usize, usize)]) -> Vec<String> {
    let mut out = Vec::new();
    for pos in find_tokens(code, "crate") {
        if in_regions(regions, pos) {
            continue;
        }
        let rest = &code[pos + "crate".len()..];
        let Some(rest) = rest.trim_start().strip_prefix("::") else {
            continue;
        };
        let rest = rest.trim_start();
        if let Some(group) = rest.strip_prefix('{') {
            // First ident of each depth-1 comma-separated element.
            let mut depth = 1usize;
            let mut element_start = true;
            let mut current = String::new();
            for ch in group.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        if depth == 1 {
                            break;
                        }
                        depth -= 1;
                    }
                    ',' if depth == 1 => {
                        if !current.is_empty() {
                            out.push(std::mem::take(&mut current));
                        }
                        element_start = true;
                    }
                    c if depth == 1 && element_start => {
                        if c.is_alphanumeric() || c == '_' {
                            current.push(c);
                        } else if !current.is_empty() {
                            out.push(std::mem::take(&mut current));
                            element_start = false;
                        }
                    }
                    _ => {}
                }
            }
            if !current.is_empty() {
                out.push(current);
            }
        } else {
            let ident: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !ident.is_empty() {
                out.push(ident);
            }
        }
    }
    out
}

/// Checks each crate's intra-crate module graph for cycles.
fn check_module_cycles(sources: &[SourceFile], violations: &mut Vec<Violation>) {
    // crate package → module → set of referenced modules.
    let mut graphs: BTreeMap<&'static str, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    for file in sources {
        let Some(owner) = crate_of_path(&file.rel) else {
            continue;
        };
        let Some(module) = module_of_path(owner, &file.rel) else {
            continue;
        };
        let refs = crate_module_refs(&file.code, file.test_regions());
        graphs
            .entry(owner.package)
            .or_default()
            .entry(module.to_string())
            .or_default()
            .extend(refs);
    }
    for (package, mut graph) in graphs {
        let known: Vec<String> = graph.keys().cloned().collect();
        for (module, refs) in &mut graph {
            refs.retain(|r| r != module && known.contains(r));
            refs.sort();
            refs.dedup();
        }
        if let Some(cycle) = find_cycle(&graph) {
            violations.push(Violation {
                rule: "module-cycle",
                path: format!("{package} (module graph)"),
                line: 1,
                col: 1,
                msg: format!(
                    "intra-crate import cycle: {} — break it by moving the shared \
                     piece into the lower module",
                    cycle.join(" → ")
                ),
            });
        }
    }
}

/// Depth-first search for a cycle; returns the cycle path (closed: first
/// element repeated at the end) if one exists.
fn find_cycle(graph: &BTreeMap<String, Vec<String>>) -> Option<Vec<String>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: BTreeMap<&str, Color> =
        graph.keys().map(|k| (k.as_str(), Color::White)).collect();
    let mut stack: Vec<&str> = Vec::new();

    fn dfs<'a>(
        node: &'a str,
        graph: &'a BTreeMap<String, Vec<String>>,
        color: &mut BTreeMap<&'a str, Color>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        color.insert(node, Color::Grey);
        stack.push(node);
        for next in graph.get(node).into_iter().flatten() {
            match color.get(next.as_str()).copied().unwrap_or(Color::Black) {
                Color::Grey => {
                    let from = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[from..].iter().map(|&s| s.to_string()).collect();
                    cycle.push(next.clone());
                    return Some(cycle);
                }
                Color::White => {
                    if let Some(cycle) = dfs(next, graph, color, stack) {
                        return Some(cycle);
                    }
                }
                Color::Black => {}
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
        None
    }

    let nodes: Vec<&str> = graph.keys().map(String::as_str).collect();
    for node in nodes {
        if color[node] == Color::White {
            if let Some(cycle) = dfs(node, graph, &mut color, &mut stack) {
                return Some(cycle);
            }
        }
    }
    None
}

/// Runs all three layering rules over the parsed tree.
pub(crate) fn run(root: &Path, sources: &[SourceFile]) -> std::io::Result<PassOutcome> {
    let mut violations = Vec::new();
    check_manifest_ranks(root, &mut violations)?;
    check_source_refs(root, sources, &mut violations)?;
    check_module_cycles(sources, &mut violations);
    Ok(PassOutcome {
        pass: "layers",
        sites: Vec::new(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_to_crate_mapping() {
        assert_eq!(
            crate_of_path("crates/minispark/src/executor.rs")
                .unwrap()
                .package,
            "minispark"
        );
        assert_eq!(
            crate_of_path("crates/core/tests/t.rs").unwrap().package,
            "topk-simjoin"
        );
        assert_eq!(
            crate_of_path("src/bin/topk-cli.rs").unwrap().package,
            "topk-simjoin-suite"
        );
        assert_eq!(
            crate_of_path("examples/engine_tour.rs").unwrap().package,
            "topk-simjoin-suite"
        );
    }

    #[test]
    fn manifest_parsing_separates_dep_kinds() {
        let manifest = "[package]\nname = \"topk-simjoin\"\n\n[dependencies]\n\
                        topk-rankings = { workspace = true }\nminispark.workspace = true\n\
                        rand = \"0.8\"\n\n[dev-dependencies]\ntopk-datagen = { workspace = true }\n";
        let (lib, dev) = manifest_workspace_deps(manifest);
        assert_eq!(lib, vec!["topk-rankings", "minispark"]);
        assert_eq!(dev, vec!["topk-datagen"]);
    }

    #[test]
    fn module_of_path_rules() {
        let ms = crate_by_package("minispark").unwrap();
        assert_eq!(
            module_of_path(ms, "crates/minispark/src/sched.rs"),
            Some("sched")
        );
        assert_eq!(module_of_path(ms, "crates/minispark/src/lib.rs"), None);
        assert_eq!(module_of_path(ms, "crates/minispark/tests/t.rs"), None);
        let suite = crate_by_package("topk-simjoin-suite").unwrap();
        assert_eq!(module_of_path(suite, "src/suite.rs"), None);
        assert_eq!(module_of_path(suite, "src/bin/topk-cli.rs"), None);
    }

    #[test]
    fn module_refs_handle_brace_groups() {
        let code = "use crate::config::ClusterConfig;\nuse crate::{sched, trace::TraceCollector};\nfn f() { crate::spill::noop(); }\n";
        let refs = crate_module_refs(code, &[]);
        assert_eq!(refs, vec!["config", "sched", "trace", "spill"]);
    }

    #[test]
    fn module_refs_skip_test_regions() {
        let src = "use crate::alpha::X;\n#[cfg(test)]\nmod tests { use crate::beta::Y; }\n";
        let file = SourceFile::parse("crates/minispark/src/demo.rs", src);
        assert_eq!(
            crate_module_refs(&file.code, file.test_regions()),
            vec!["alpha"]
        );
    }

    #[test]
    fn cycle_detection_finds_and_clears() {
        let mut graph: BTreeMap<String, Vec<String>> = BTreeMap::new();
        graph.insert("a".into(), vec!["b".into()]);
        graph.insert("b".into(), vec!["c".into()]);
        graph.insert("c".into(), vec![]);
        assert!(find_cycle(&graph).is_none());
        graph.get_mut("c").unwrap().push("a".into());
        let cycle = find_cycle(&graph).expect("a→b→c→a is a cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() == 4);
    }

    #[test]
    fn back_edge_in_manifest_is_flagged() {
        // Simulated: core depending on bench would violate the rank rule.
        let c = crate_by_package("topk-simjoin").unwrap();
        let bench = crate_by_package("topk-bench").unwrap();
        assert!(c.rank.unwrap() < bench.rank.unwrap());
        let (lib, _) =
            manifest_workspace_deps("[dependencies]\ntopk-bench = { workspace = true }\n");
        assert_eq!(lib, vec!["topk-bench"]);
    }
}
