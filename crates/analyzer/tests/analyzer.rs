//! Fixture-driven rule tests plus a whole-workspace smoke test.
//!
//! Each rule gets a positive fixture (must fire) and a negative fixture
//! (must stay quiet) under `tests/fixtures/`. Fixtures are fed through
//! [`dcrd_analyzer::analyze_source`] with a synthetic workspace-relative
//! path chosen to land inside the rule's scope; the fixtures directory
//! itself is excluded from real workspace scans, so the bait never shows
//! up in `--deny-new` runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dcrd_analyzer::graph::SymbolGraph;
use dcrd_analyzer::rules_v2::PANIC_ENTRY_POINTS;
use dcrd_analyzer::{
    analyze_source, analyze_workspace, json, mask, partition, AllowEntry, Baseline, Diagnostic,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Diagnostics for `name` scanned as if it lived at `scoped_path`.
fn scan(name: &str, scoped_path: &str) -> Vec<String> {
    analyze_source(scoped_path, &fixture(name))
        .into_iter()
        .map(|d| d.rule.to_string())
        .collect()
}

fn assert_fires(rules: &[String], rule: &str, at_least: usize, fixture_name: &str) {
    let hits = rules.iter().filter(|r| *r == rule).count();
    assert!(
        hits >= at_least,
        "{fixture_name}: expected >= {at_least} {rule} hit(s), got {hits} (all: {rules:?})"
    );
}

fn assert_quiet(rules: &[String], rule: &str, fixture_name: &str) {
    assert!(
        !rules.iter().any(|r| r == rule),
        "{fixture_name}: expected no {rule} hits, got {rules:?}"
    );
}

// ---------------------------------------------------------------- DET001

#[test]
fn det001_flags_hash_containers_in_sim_facing_code() {
    let rules = scan("det001_pos.rs", "crates/core/src/fixture.rs");
    // `use` line + two type annotations + two constructors, each naming
    // HashMap or HashSet: at minimum the two container names must fire.
    assert_fires(&rules, "DET001", 2, "det001_pos.rs");
}

#[test]
fn det001_ignores_ordered_containers_comments_strings_and_tests() {
    let rules = scan("det001_neg.rs", "crates/core/src/fixture.rs");
    assert_quiet(&rules, "DET001", "det001_neg.rs");
}

#[test]
fn det001_is_scoped_to_sim_facing_crates() {
    // The same hash-container bait is fine in a non-sim-facing crate.
    let rules = scan("det001_pos.rs", "crates/metrics/src/fixture.rs");
    assert_quiet(&rules, "DET001", "det001_pos.rs (metrics scope)");
}

// ---------------------------------------------------------------- DET002

#[test]
fn det002_flags_ambient_clocks_and_rngs() {
    let rules = scan("det002_pos.rs", "crates/pubsub/src/fixture.rs");
    // Instant::now, thread_rng, rand::random, a SplitMix64 multiplier.
    assert_fires(&rules, "DET002", 4, "det002_pos.rs");
}

#[test]
fn det002_ignores_seeded_rng_and_comments() {
    let rules = scan("det002_neg.rs", "crates/pubsub/src/fixture.rs");
    assert_quiet(&rules, "DET002", "det002_neg.rs");
}

#[test]
fn det002_exempts_the_sim_rng_module() {
    // crates/sim/src/rng.rs is the sanctioned wrapper; ambient entropy
    // there is the whole point.
    let rules = scan("det002_pos.rs", "crates/sim/src/rng.rs");
    assert_quiet(&rules, "DET002", "det002_pos.rs (rng.rs exemption)");
}

// ---------------------------------------------------------------- DET003

#[test]
fn det003_flags_partial_cmp_sort_comparators() {
    let rules = scan("det003_pos.rs", "crates/experiments/src/fixture.rs");
    // One sort_by + one min_by (multi-line comparator).
    assert_fires(&rules, "DET003", 2, "det003_pos.rs");
}

#[test]
fn det003_ignores_total_cmp_and_partial_ord_impls() {
    let rules = scan("det003_neg.rs", "crates/experiments/src/fixture.rs");
    assert_quiet(&rules, "DET003", "det003_neg.rs");
}

// --------------------------------------------------------------- SAFE001

#[test]
fn safe001_flags_unwrap_and_expect_in_hot_path_code() {
    let rules = scan("safe001_pos.rs", "crates/core/src/fixture.rs");
    assert_fires(&rules, "SAFE001", 2, "safe001_pos.rs");
}

#[test]
fn safe001_ignores_graceful_handling_and_test_code() {
    let rules = scan("safe001_neg.rs", "crates/pubsub/src/fixture.rs");
    assert_quiet(&rules, "SAFE001", "safe001_neg.rs");
}

#[test]
fn safe001_is_scoped_to_hot_path_crates() {
    // The simulator shell may unwrap; only core/pubsub are gated.
    let rules = scan("safe001_pos.rs", "crates/sim/src/fixture.rs");
    assert_quiet(&rules, "SAFE001", "safe001_pos.rs (sim scope)");
}

// --------------------------------------------------------------- SAFE002

#[test]
fn safe002_flags_unchecked_arithmetic_in_time_constructors() {
    let rules = scan("safe002_pos.rs", "crates/sim/src/fixture.rs");
    // `millis * 1_000` and `a + b` inside SimTime(..)/SimDuration(..).
    assert_fires(&rules, "SAFE002", 2, "safe002_pos.rs");
}

#[test]
fn safe002_ignores_saturating_and_checked_construction() {
    let rules = scan("safe002_neg.rs", "crates/sim/src/fixture.rs");
    assert_quiet(&rules, "SAFE002", "safe002_neg.rs");
}

// ------------------------------------------------- masking regressions

#[test]
fn masking_ignores_bait_in_raw_strings() {
    let rules = scan("mask_raw_strings.rs", "crates/core/src/fixture.rs");
    for rule in ["SAFE001", "DET001", "DET002"] {
        assert_quiet(&rules, rule, "mask_raw_strings.rs");
    }
}

#[test]
fn masking_ignores_bait_in_nested_block_comments() {
    let rules = scan("mask_nested_comments.rs", "crates/core/src/fixture.rs");
    for rule in ["SAFE001", "DET001", "DET002", "PURE002"] {
        assert_quiet(&rules, rule, "mask_nested_comments.rs");
    }
}

#[test]
fn masking_ignores_expect_in_doc_comments() {
    let rules = scan("mask_doc_comments.rs", "crates/core/src/fixture.rs");
    assert_quiet(&rules, "SAFE001", "mask_doc_comments.rs");
}

// --------------------------------------------------------------- PURE00x

#[test]
fn pure_rules_flag_io_clocks_and_sync_in_scope() {
    let rules = scan("pure_pos.rs", "crates/core/src/fixture.rs");
    // std::{net, fs, thread, process}.
    assert_fires(&rules, "PURE001", 4, "pure_pos.rs");
    // std::io + Instant + SystemTime.
    assert_fires(&rules, "PURE002", 3, "pure_pos.rs");
    // Mutex.
    assert_fires(&rules, "PURE003", 1, "pure_pos.rs");
}

#[test]
fn pure_rules_allow_owned_state_and_arc() {
    let rules = scan("pure_neg.rs", "crates/core/src/fixture.rs");
    for rule in ["PURE001", "PURE002", "PURE003"] {
        assert_quiet(&rules, rule, "pure_neg.rs");
    }
}

#[test]
fn pure002_ignores_variants_that_share_a_clock_name() {
    let rules = scan("pure002_variant_neg.rs", "crates/pubsub/src/fixture.rs");
    assert_quiet(&rules, "PURE002", "pure002_variant_neg.rs");
}

#[test]
fn pure_rules_are_scoped_to_the_sans_io_core() {
    // The experiment driver writes real files; sans-io rules stay out.
    let rules = scan("pure_pos.rs", "crates/experiments/src/fixture.rs");
    for rule in ["PURE001", "PURE002", "PURE003"] {
        assert_quiet(&rules, rule, "pure_pos.rs (experiments scope)");
    }
}

// ----------------------------------- fixture workspace: the graph passes

fn fixture_workspace() -> Vec<Diagnostic> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_v2");
    analyze_workspace(&root).expect("fixture workspace scans")
}

/// The seeded violation: `Forwarding::process` → `helper` → `deep_util`
/// which indexes a slice. PANIC001 must walk the chain and say so.
#[test]
fn fixture_workspace_catches_seeded_transitive_panic() {
    let diags = fixture_workspace();
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == "PANIC001").collect();
    assert!(
        hits.iter().any(|d| d.path == "crates/core/src/lib.rs"
            && d.note.contains("Forwarding::process")
            && d.note.contains("deep_util")),
        "seeded transitive panic not caught via its chain: {hits:?}"
    );
}

#[test]
fn fixture_workspace_flags_upward_layer_dependency() {
    let diags = fixture_workspace();
    assert!(
        diags.iter().any(|d| d.rule == "LAYER001"
            && d.path == "crates/net/Cargo.toml"
            && d.snippet.contains("dcrd-core")),
        "net -> core upward dependency not flagged: {diags:?}"
    );
    assert!(
        !diags
            .iter()
            .any(|d| d.rule == "LAYER001" && d.path == "crates/core/Cargo.toml"),
        "downward dependencies wrongly flagged"
    );
}

#[test]
fn fixture_workspace_honours_pure_exempt_paths() {
    let diags = fixture_workspace();
    assert!(
        !diags
            .iter()
            .any(|d| d.rule.starts_with("PURE") && d.path.starts_with("crates/net/")),
        "exempt path still produced PURE diagnostics"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "PURE001" && d.path == "crates/core/src/lib.rs"),
        "non-exempt socket bait did not fire PURE001"
    );
}

/// `router/tests.rs` is pulled in by `#[cfg(test)] mod tests;`, so its
/// `unwrap` is test code; the same body in `helpers.rs`, a plain module,
/// is production code the router reaches.
#[test]
fn out_of_line_test_modules_are_test_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws_test_modules");
    let diags = analyze_workspace(&root).expect("fixture workspace scans");
    let at = |path: &str| -> Vec<&str> {
        diags
            .iter()
            .filter(|d| d.path == path)
            .map(|d| d.rule)
            .collect()
    };
    assert!(
        at("crates/core/src/router/tests.rs").is_empty(),
        "test module linted as production code: {diags:?}"
    );
    let helpers = at("crates/core/src/helpers.rs");
    for rule in ["SAFE001", "PANIC001"] {
        assert!(helpers.contains(&rule), "{rule} missing: {diags:?}");
    }
}

// ----------------------------------------------- JSON schema golden file

#[test]
fn json_report_matches_the_golden_file() {
    let fresh = vec![Diagnostic {
        rule: "PANIC001",
        path: "crates/core/src/router.rs".to_string(),
        line: 12,
        col: 5,
        snippet: "let x = v[0];".to_string(),
        note: "indexing reachable via DcrdStrategy::process → deep_util".to_string(),
    }];
    let suppressed = vec![Diagnostic {
        rule: "SAFE001",
        path: "crates/pubsub/src/codec.rs".to_string(),
        line: 40,
        col: 9,
        snippet: "len.unwrap()".to_string(),
        note: String::new(),
    }];
    let stale = vec![AllowEntry {
        rule: "DET001".to_string(),
        path: "crates/core/src/router.rs".to_string(),
        contains: "HashMap".to_string(),
        reason: "legacy".to_string(),
    }];
    let rendered = json::render_report(&fresh, &suppressed, &stale);
    let golden = fixture("report_golden.json");
    assert_eq!(
        rendered, golden,
        "JSON report shape drifted — bump json::SCHEMA_VERSION and regenerate the golden file"
    );
}

// ------------------------------------------- core symbol-graph coverage

/// Every `.rs` file under `crates/<krate>/src`, subdirectories included,
/// as the `(workspace-relative path, masked source)` pairs the graph takes.
fn crate_sources(krate: &str) -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("source dir readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = workspace_root();
    let mut paths = Vec::new();
    walk(&root.join("crates").join(krate).join("src"), &mut paths);
    let mut files: Vec<(String, String)> = paths
        .iter()
        .map(|path| {
            let source = std::fs::read_to_string(path).expect("source readable");
            let rel = path
                .strip_prefix(&root)
                .expect("under the workspace")
                .to_string_lossy()
                .replace('\\', "/");
            (rel, mask::strip_test_regions(&mask::mask_source(&source)))
        })
        .collect();
    files.sort();
    files
}

/// Byte offsets of every `fn name(` / `fn name<` declaration in a masked
/// source: an independent lexical count of the fns the item parser should
/// find (a `fn(..)` pointer type names nothing and is not counted).
fn declared_fns(masked: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut found = Vec::new();
    let mut at = 0;
    while let Some(rel) = masked.get(at..).and_then(|rest| rest.find("fn")) {
        let start = at + rel;
        at = start + 2;
        let before = start.checked_sub(1).and_then(|i| bytes.get(i));
        if before.is_some_and(|&b| ident(b)) {
            continue;
        }
        let gap = bytes[at..]
            .iter()
            .take_while(|b| b.is_ascii_whitespace())
            .count();
        let name = bytes[at + gap..].iter().take_while(|&&b| ident(b)).count();
        if gap == 0 || name == 0 {
            continue;
        }
        let after = bytes[at + gap + name..]
            .iter()
            .find(|b| !b.is_ascii_whitespace());
        if matches!(after, Some(b'(' | b'<')) {
            found.push(start);
        }
    }
    found
}

/// The item parser finds every fn of dcrd-core, file by file — checked
/// against [`declared_fns`], which knows nothing of the parser, so a
/// parser that drops fns (as one once dropped every fn after a file's
/// first `impl Trait` argument) fails here — and every `pub fn` it finds
/// resolves through the graph's lookup.
#[test]
fn graph_resolves_every_pub_fn_in_core() {
    let files = crate_sources("core");
    assert!(
        files
            .iter()
            .any(|(p, _)| p == "crates/core/src/router/forward.rs"),
        "the walk must reach the router's module directory"
    );
    assert!(
        files.len() >= 5,
        "expected the full core crate, got {files:?}"
    );
    let graph = SymbolGraph::build(&files, BTreeMap::new());
    let mut declared_total = 0;
    for (path, masked) in &files {
        let declared = declared_fns(masked);
        let mut parsed: Vec<usize> = graph
            .fns
            .iter()
            .filter(|f| &f.file == path)
            .map(|f| f.item.offset)
            .collect();
        parsed.sort_unstable();
        assert_eq!(
            parsed, declared,
            "{path}: the parser's fns (left) differ from the declared ones (right)"
        );
        declared_total += declared.len();
    }
    assert!(
        declared_total >= 100,
        "only {declared_total} fns declared in dcrd-core"
    );
    let pubs: Vec<_> = graph.fns.iter().filter(|f| f.item.is_pub).collect();
    assert!(
        pubs.len() >= 20,
        "expected a rich public surface, found {} pub fns",
        pubs.len()
    );
    for f in &pubs {
        let found = graph.find("core", f.item.owner.as_deref(), &f.item.name);
        assert!(
            !found.is_empty(),
            "graph cannot resolve pub fn {} ({})",
            f.qualified_name(),
            f.file
        );
    }
}

/// `PANIC001` skips an entry point that resolves to nothing, so a renamed
/// or moved hot-path root would switch the rule off without a word. Each
/// root must resolve to at least one fn of the real workspace.
#[test]
fn every_panic_entry_point_resolves_in_the_workspace() {
    for &(krate, owner, name) in PANIC_ENTRY_POINTS {
        let graph = SymbolGraph::build(&crate_sources(krate), BTreeMap::new());
        assert!(
            !graph.find(krate, owner, name).is_empty(),
            "PANIC001 entry point {krate}::{}{name} resolves to no fn",
            owner.map_or(String::new(), |o| format!("{o}::"))
        );
    }
}

// ---------------------------------------------------- workspace smoke test

fn workspace_root() -> PathBuf {
    // crates/analyzer -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf()
}

/// The shipped baseline must describe reality: scanning the actual tree
/// yields no violations beyond `analyzer.toml`, no stale allow entries,
/// and the baseline itself stays near-empty (<= 3 entries).
#[test]
fn workspace_is_clean_under_the_shipped_baseline() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );

    let baseline_path = root.join("analyzer.toml");
    let baseline_text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", baseline_path.display()));
    let baseline = Baseline::parse(&baseline_text).expect("shipped baseline parses");
    assert!(
        baseline.allows.len() <= 3,
        "baseline has grown to {} entries; fix violations instead of suppressing them",
        baseline.allows.len()
    );

    let diags = analyze_workspace(&root).expect("workspace scan succeeds");
    let (fresh, _suppressed, unused) = partition(diags, &baseline);
    assert!(
        fresh.is_empty(),
        "unbaselined violations in the tree:\n{}",
        fresh
            .iter()
            .map(|d| format!(
                "  {}:{}:{}: {}: {}",
                d.path, d.line, d.col, d.rule, d.snippet
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        unused.is_empty(),
        "stale baseline entries (delete them): {unused:?}"
    );
}
