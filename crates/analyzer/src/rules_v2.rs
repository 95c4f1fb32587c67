//! The graph-based rule passes: `PANIC001` and `LAYER001`.
//!
//! Unlike the lexical rules in [`crate::rules`], these need the whole
//! workspace at once: `PANIC001` walks the [`crate::graph::SymbolGraph`]
//! call graph from the hot-path entry points, and `LAYER001` checks every
//! `Cargo.toml` dependency edge against the `[layers]` order declared in
//! `analyzer.toml`.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::config::AnalyzerConfig;
use crate::graph::SymbolGraph;
use crate::rules::Diagnostic;

/// The functions that must be panic-free together with everything they
/// can reach: the Theorem-1 router hot path and the runtime's per-event
/// tick. `(crate dir, owner type, fn name)`.
pub const PANIC_ENTRY_POINTS: &[(&str, Option<&str>, &str)] = &[
    ("core", Some("Forwarding"), "process"),
    ("pubsub", Some("OverlayRuntime"), "tick"),
];

/// `PANIC001`: every potential panic site inside a function transitively
/// reachable from [`PANIC_ENTRY_POINTS`]. Each diagnostic carries the BFS
/// call chain from the entry point as its note. Entry points that do not
/// exist in the scanned tree are skipped (fixture workspaces seed only
/// the entries they exercise).
#[must_use]
pub fn panic_reachability(
    graph: &SymbolGraph,
    texts: &BTreeMap<String, (String, String)>,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for &(krate, owner, name) in PANIC_ENTRY_POINTS {
        let roots = graph.find(krate, owner, name);
        if roots.is_empty() {
            continue;
        }
        let parents = graph.reachable_from(&roots);
        for &idx in parents.keys() {
            let f = &graph.fns[idx];
            for site in &f.panics {
                if !seen.insert((f.file.clone(), site.offset)) {
                    continue;
                }
                let Some((original, masked)) = texts.get(&f.file) else {
                    continue;
                };
                out.push(crate::rules::diagnostic_at(
                    "PANIC001",
                    &f.file,
                    original,
                    masked,
                    site.offset,
                    format!(
                        "{} reachable via {}",
                        site.kind.label(),
                        graph.chain(&parents, idx)
                    ),
                ));
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    out
}

/// `LAYER001`: every `dcrd-*` entry in a manifest's `[dependencies]`
/// section must name a crate in a strictly lower layer of the `[layers]`
/// order. `manifests` maps workspace-relative `Cargo.toml` paths to their
/// contents; crates absent from the order are unconstrained.
#[must_use]
pub fn layering(manifests: &BTreeMap<String, String>, cfg: &AnalyzerConfig) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    if cfg.layer_order.is_empty() {
        return out;
    }
    for (path, toml) in manifests {
        let krate = manifest_crate(path);
        let Some(my_layer) = cfg.layer_of(&krate) else {
            continue;
        };
        let mut in_deps = false;
        for (lineno, raw) in toml.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps || line.starts_with('#') {
                continue;
            }
            let Some(dep_name) = line.split(['=', '.']).next().map(str::trim) else {
                continue;
            };
            let Some(dep_dir) = dep_name.strip_prefix("dcrd-") else {
                continue;
            };
            let Some(dep_layer) = cfg.layer_of(dep_dir) else {
                continue;
            };
            if dep_layer >= my_layer {
                out.push(Diagnostic {
                    rule: "LAYER001",
                    path: path.clone(),
                    line: lineno + 1,
                    col: 1,
                    snippet: line.to_string(),
                    note: format!(
                        "`{krate}` (layer {my_layer}) may only depend on layers \
                         below it, but `{dep_dir}` is at layer {dep_layer}"
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// The crate key a manifest path belongs to (`crates/core/Cargo.toml` →
/// `core`, the root manifest → `dcrd`).
fn manifest_crate(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("dcrd")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::parse_cargo_deps;
    use crate::mask::{mask_source, strip_test_regions};

    fn analyze_panic(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let mut texts: BTreeMap<String, (String, String)> = BTreeMap::new();
        let mut masked_files: Vec<(String, String)> = Vec::new();
        for (p, s) in files {
            let masked = strip_test_regions(&mask_source(s));
            masked_files.push((p.to_string(), masked.clone()));
            texts.insert(p.to_string(), (s.to_string(), masked));
        }
        let mut deps = BTreeMap::new();
        deps.insert("core".to_string(), BTreeSet::new());
        deps.insert("pubsub".to_string(), BTreeSet::new());
        let graph = SymbolGraph::build(&masked_files, deps);
        panic_reachability(&graph, &texts)
    }

    #[test]
    fn transitive_panic_is_caught_with_a_chain_note() {
        let diags = analyze_panic(&[(
            "crates/core/src/router/forward.rs",
            "pub struct Forwarding;\n\
             impl Forwarding {\n\
                 pub fn process(&mut self) { self.helper(); }\n\
                 fn helper(&self) { deep_util(); }\n\
             }\n\
             fn deep_util() { let v: Vec<u32> = Vec::new(); let _ = v[3]; }\n",
        )]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "PANIC001");
        assert!(diags[0].note.contains("indexing"));
        assert!(
            diags[0]
                .note
                .contains("Forwarding::process → Forwarding::helper → deep_util"),
            "{}",
            diags[0].note
        );
    }

    #[test]
    fn unreachable_panics_are_not_flagged() {
        let diags = analyze_panic(&[(
            "crates/core/src/router/forward.rs",
            "pub struct Forwarding;\n\
             impl Forwarding { pub fn process(&mut self) {} }\n\
             fn cold_path() { panic!(\"never called from an entry point\"); }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn missing_entry_points_are_skipped() {
        let diags = analyze_panic(&[(
            "crates/core/src/lib.rs",
            "pub fn unrelated() { panic!(\"boom\") }\n",
        )]);
        assert!(diags.is_empty());
    }

    fn layer_cfg() -> AnalyzerConfig {
        AnalyzerConfig::parse("[layers]\norder = \"sim < net < pubsub | core < experiments\"\n")
            .expect("parses")
    }

    #[test]
    fn upward_and_sideways_deps_are_flagged() {
        let mut manifests = BTreeMap::new();
        manifests.insert(
            "crates/net/Cargo.toml".to_string(),
            "[package]\nname = \"dcrd-net\"\n[dependencies]\n\
             dcrd-sim.workspace = true\n\
             dcrd-experiments.workspace = true\n"
                .to_string(),
        );
        manifests.insert(
            "crates/pubsub/Cargo.toml".to_string(),
            "[dependencies]\ndcrd-core.workspace = true\n".to_string(),
        );
        let diags = layering(&manifests, &layer_cfg());
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].path.ends_with("net/Cargo.toml"));
        assert!(diags[0].snippet.contains("dcrd-experiments"));
        // pubsub and core share a layer: peers may not depend on each other.
        assert!(diags[1].path.ends_with("pubsub/Cargo.toml"));
        assert!(diags[1].note.contains("layer 2"));
    }

    #[test]
    fn downward_deps_and_dev_dependencies_are_clean() {
        let mut manifests = BTreeMap::new();
        manifests.insert(
            "crates/experiments/Cargo.toml".to_string(),
            "[dependencies]\ndcrd-sim.workspace = true\ndcrd-core.workspace = true\n\
             [dev-dependencies]\ndcrd-experiments = { path = \".\" }\n"
                .to_string(),
        );
        assert!(layering(&manifests, &layer_cfg()).is_empty());
    }

    #[test]
    fn crates_outside_the_order_are_unconstrained() {
        let mut manifests = BTreeMap::new();
        manifests.insert(
            "crates/scratchpad/Cargo.toml".to_string(),
            "[dependencies]\ndcrd-experiments.workspace = true\n".to_string(),
        );
        assert!(layering(&manifests, &layer_cfg()).is_empty());
    }

    #[test]
    fn cargo_deps_ignore_workspace_tables() {
        let toml = "[workspace.dependencies]\ndcrd-sim = { path = \"crates/sim\" }\n\
                    [dependencies]\ndcrd-net.workspace = true\n";
        assert_eq!(parse_cargo_deps(toml), BTreeSet::from(["net".to_string()]));
    }
}
