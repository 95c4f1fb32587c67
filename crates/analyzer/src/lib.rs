//! `dcrd-analyzer`: workspace-wide determinism & safety lints.
//!
//! DCRD's evaluation rests on a deterministic discrete-event simulator:
//! identical seeds must yield identical traces, or the chaos/recovery
//! acceptance tests and the paper's delay/reliability comparisons are
//! unreproducible. This crate statically enforces the invariants the
//! simulator's determinism (and the sweeps' crash-resistance) depend on:
//!
//! | rule | what it forbids |
//! |------|-----------------|
//! | `DET001` | `HashMap`/`HashSet` in sim-facing crates |
//! | `DET002` | ambient clocks/RNGs and SplitMix64 constants outside `dcrd_sim::rng` |
//! | `DET003` | `partial_cmp` inside sort comparators |
//! | `SAFE001` | `unwrap()`/`expect()` in hot-path crates |
//! | `SAFE002` | unchecked arithmetic in `SimTime` construction and counters |
//! | `PURE001` | ambient IO/threads/async runtimes in the sans-io crates |
//! | `PURE002` | wall clocks and `std::io` in the sans-io crates |
//! | `PURE003` | `std::sync` shared-mutation primitives (Arc is allowed) |
//! | `PANIC001` | panic sources reachable from the hot-path entry points |
//! | `LAYER001` | crate dependencies against the `[layers]` order |
//!
//! Violations are reported as `file:line:col` diagnostics. Legacy debt is
//! suppressed through the checked-in `analyzer.toml` baseline so new
//! violations fail CI (`--deny-new`) while the debt stays visible.
//!
//! The v1 rules are per-file lexical scans. The v2 passes (`PURE`,
//! `PANIC`, `LAYER`) ride on a workspace symbol graph: a lightweight item
//! parser ([`items`]) extracts functions, impl owners, `use` declarations
//! and modules from the masked source, and [`graph`] resolves a
//! deliberately over-approximate intra-workspace call graph on top
//! (see `DESIGN.md` §15 for semantics and known gaps).
//!
//! The scanner is a hand-rolled lexer rather than a `syn` walk so the
//! crate has **zero dependencies** — it must build before anything else,
//! including in offline bootstrap environments.

pub mod config;
pub mod graph;
pub mod items;
pub mod json;
pub mod mask;
pub mod rules;
pub mod rules_v2;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use config::{AllowEntry, AnalyzerConfig, Baseline};
pub use rules::{Diagnostic, RuleInfo, RULES};

/// Directory names never scanned: build output, scratch space, VCS, and
/// test-only trees (rules target non-test code; fixtures are lint bait).
const SKIP_DIRS: &[&str] = &[
    ".git", ".scratch", "target", "results", "tests", "benches", "examples", "fixtures",
];

/// Scans one file's source as if it lived at workspace-relative `path`.
/// This is the unit the fixture tests drive directly.
#[must_use]
pub fn analyze_source(path: &str, source: &str) -> Vec<Diagnostic> {
    let masked = mask::strip_test_regions(&mask::mask_source(source));
    rules::scan_file(path, source, &masked)
}

/// Loads the root `analyzer.toml` (all sections); a missing file yields
/// the default (empty) config.
pub fn load_config(root: &Path) -> io::Result<AnalyzerConfig> {
    let path = root.join("analyzer.toml");
    if !path.exists() {
        return Ok(AnalyzerConfig::default());
    }
    let text = fs::read_to_string(&path)?;
    AnalyzerConfig::parse(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("analyzer.toml: {e}")))
}

/// Walks the workspace under `root` and runs every pass: the per-file
/// lexical rules over each non-test `.rs` file, then the graph passes
/// (`PANIC001` over the symbol graph, `LAYER001` over the manifests).
/// A file that a `#[cfg(test)] mod name;` pulls in is test code, as is
/// every module below it: it is scanned fully masked.
/// Diagnostics come back sorted by `(path, line, col, rule)`.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let cfg = load_config(root)?;
    let mut files: Vec<PathBuf> = Vec::new();
    collect_files(root, &mut files)?;
    files.sort();
    // path → (original, masked) for every scanned `.rs` file; the graph
    // passes reuse the masking work done for the lexical rules.
    let mut texts: BTreeMap<String, (String, String)> = BTreeMap::new();
    let mut manifests: BTreeMap<String, String> = BTreeMap::new();
    for file in files {
        let Ok(source) = fs::read_to_string(&file) else {
            continue; // Non-UTF-8 file: nothing lexical to scan.
        };
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.ends_with("Cargo.toml") {
            manifests.insert(rel, source);
        } else {
            let masked = mask::mask_source(&source);
            texts.insert(rel, (source, masked));
        }
    }
    let test_modules = out_of_line_test_files(&texts);
    let mut diags = Vec::new();
    for (rel, (source, masked)) in &mut texts {
        *masked = if test_modules.contains(rel) {
            mask::blank_all(masked)
        } else {
            mask::strip_test_regions(masked)
        };
        let mut file_diags = rules::scan_file(rel, source, masked);
        if cfg.pure_exempt.iter().any(|p| rel.starts_with(p.as_str())) {
            file_diags.retain(|d| !d.rule.starts_with("PURE"));
        }
        diags.extend(file_diags);
    }

    let masked_files: Vec<(String, String)> = texts
        .iter()
        .map(|(p, (_, m))| (p.clone(), m.clone()))
        .collect();
    let crate_deps: BTreeMap<String, BTreeSet<String>> = manifests
        .iter()
        .filter_map(|(path, toml)| {
            let krate = if let Some(rest) = path.strip_prefix("crates/") {
                rest.split('/').next()?.to_string()
            } else if path == "Cargo.toml" {
                "dcrd".to_string()
            } else {
                return None;
            };
            Some((krate, graph::parse_cargo_deps(toml)))
        })
        .collect();
    let symbol_graph = graph::SymbolGraph::build(&masked_files, crate_deps);
    diags.extend(rules_v2::panic_reachability(&symbol_graph, &texts));
    diags.extend(rules_v2::layering(&manifests, &cfg));

    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(diags)
}

/// The files under `texts` (path → masked source) that some
/// `#[cfg(test)] mod name;` pulls in: `name.rs` or `name/mod.rs` beside a
/// `lib.rs`, `main.rs` or `mod.rs`, under `parent/` beside any other
/// `parent.rs`, together with every file below `name/`.
fn out_of_line_test_files(texts: &BTreeMap<String, (String, String)>) -> BTreeSet<String> {
    let mut test_files = BTreeSet::new();
    for (path, (_, masked)) in texts {
        let module_dir = match path.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir,
            _ => path.strip_suffix(".rs").unwrap_or(path),
        };
        for name in mask::out_of_line_test_modules(masked) {
            let module = format!("{module_dir}/{name}");
            let below = format!("{module}/");
            test_files.extend(
                texts
                    .keys()
                    .filter(|p| {
                        p.strip_suffix(".rs") == Some(module.as_str()) || p.starts_with(&below)
                    })
                    .cloned(),
            );
        }
    }
    test_files
}

/// Collects the `.rs` sources and `Cargo.toml` manifests the passes need.
fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_files(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

/// Splits diagnostics into `(new, suppressed)` against the baseline and
/// reports baseline entries that no longer match anything (stale debt
/// that should be deleted).
#[must_use]
pub fn partition(
    diags: Vec<Diagnostic>,
    baseline: &Baseline,
) -> (Vec<Diagnostic>, Vec<Diagnostic>, Vec<AllowEntry>) {
    let mut fresh = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; baseline.allows.len()];
    for d in diags {
        match baseline.allows.iter().position(|a| a.matches(&d)) {
            Some(i) => {
                used[i] = true;
                suppressed.push(d);
            }
            None => fresh.push(d),
        }
    }
    let unused = baseline
        .allows
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| a.clone())
        .collect();
    (fresh, suppressed, unused)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_source_ties_mask_and_rules_together() {
        let src = "use std::collections::HashMap; // HashSet in a comment\n";
        let diags = analyze_source("crates/pubsub/src/x.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "DET001");
        assert_eq!(diags[0].path, "crates/pubsub/src/x.rs");
    }

    #[test]
    fn partition_tracks_used_and_stale_allows() {
        let diags = analyze_source("crates/core/src/x.rs", "let v = o.unwrap();\n");
        let baseline = Baseline::parse(
            "[[allow]]\nrule = \"SAFE001\"\npath = \"crates/core/src/x.rs\"\ncontains = \"o.unwrap()\"\nreason = \"r\"\n\n[[allow]]\nrule = \"DET001\"\npath = \"crates/core/src/gone.rs\"\ncontains = \"HashMap\"\nreason = \"r\"\n",
        )
        .expect("parses");
        let (fresh, suppressed, unused) = partition(diags, &baseline);
        assert!(fresh.is_empty());
        assert_eq!(suppressed.len(), 1);
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].path, "crates/core/src/gone.rs");
    }
}
