//! The DCRD lint rules.
//!
//! Every rule is a lexical scan over masked, test-stripped source (see
//! [`crate::mask`]): comments, literals and `#[cfg(test)]` modules can
//! never trigger a diagnostic. Scopes are path prefixes relative to the
//! workspace root; a rule only fires inside its scope.

/// Crates whose code runs inside the deterministic simulation. Iteration
/// order and ambient entropy here change same-seed traces.
pub const SIM_FACING: &[&str] = &[
    "crates/sim",
    "crates/net",
    "crates/core",
    "crates/pubsub",
    "crates/baselines",
];

/// Hot-path crates where a panic aborts a whole experiment sweep.
pub const HOT_PATH: &[&str] = &["crates/core", "crates/pubsub"];

/// The one module allowed to touch raw entropy: the seeded RNG factory.
pub const DET002_EXEMPT: &[&str] = &["crates/sim/src/rng.rs"];

/// The SplitMix64 finalizer multipliers, lowercase and without `_`. A
/// literal spelling one outside the RNG factory is a hand-rolled copy of
/// its mixer: a hash draw `dcrd_sim::rng` should own.
const SPLITMIX64_MULTIPLIERS: [&str; 2] = ["0xbf58476d1ce4e5b9", "0x94d049bb133111eb"];

/// Crates that must stay sans-io: the protocol logic the transport split
/// will lift behind a driver. Purity violations here would leak ambient
/// environment effects into code the simulator must fully control.
pub const PURE_SCOPE: &[&str] = &["crates/core", "crates/pubsub", "crates/sim", "crates/net"];

/// Files where the SAFE002 counter extension applies: metrics histogram
/// bucket math and gossip round counters, where a wrap corrupts a whole
/// sweep's statistics silently.
pub const SAFE002_COUNTER_SCOPE: &[&str] = &[
    "crates/metrics",
    "crates/net/src/gossip.rs",
    "crates/sim/src/stats.rs",
];

/// One rule's identity and rationale (`--list-rules` output).
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id (`DET001` …).
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Human-readable scope.
    pub scope: &'static str,
}

/// The rule registry, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "DET001",
        summary: "no HashMap/HashSet in sim-facing crates (iteration order is \
                  nondeterministic); use BTreeMap/BTreeSet",
        scope: "crates/{sim,net,core,pubsub,baselines}, non-test code",
    },
    RuleInfo {
        id: "DET002",
        summary: "no ambient nondeterminism (Instant::now, SystemTime::now, \
                  thread_rng, rand::random, from_entropy) and no hand-rolled \
                  SplitMix64 mixer (its finalizer constants); derive all \
                  entropy from the run seed via dcrd_sim::rng",
        scope: "crates/{sim,net,core,pubsub,baselines} except sim/src/rng.rs",
    },
    RuleInfo {
        id: "DET003",
        summary: "no partial_cmp inside sort/min/max comparators (NaN makes \
                  the comparator panic or lie); use f64::total_cmp",
        scope: "whole workspace, non-test code",
    },
    RuleInfo {
        id: "SAFE001",
        summary: "no unwrap()/expect() in non-test hot-path code; degrade \
                  gracefully or return a typed error",
        scope: "crates/{core,pubsub}, non-test code",
    },
    RuleInfo {
        id: "SAFE002",
        summary: "no unchecked integer arithmetic inside SimTime/SimDuration \
                  construction, and no bare `+=` on struct-field counters \
                  (histogram buckets, gossip rounds); use the \
                  saturating/checked API",
        scope: "crates/sim; counters also in crates/metrics, \
                net/src/gossip.rs, sim/src/stats.rs",
    },
    RuleInfo {
        id: "PURE001",
        summary: "no ambient IO, threads or async runtimes (std::{net,thread,\
                  fs,process}, tokio, async-std, mio) in the sans-io crates; \
                  effects belong behind the transport driver",
        scope: "crates/{core,pubsub,sim,net} minus [pure] exempt paths",
    },
    RuleInfo {
        id: "PURE002",
        summary: "no wall clocks or blocking IO traits (std::io, \
                  std::time::Instant, SystemTime) in the sans-io crates; \
                  time flows only through SimTime",
        scope: "crates/{core,pubsub,sim,net} minus [pure] exempt paths",
    },
    RuleInfo {
        id: "PURE003",
        summary: "no std::sync primitives (Mutex, RwLock, Condvar, mpsc, \
                  atomics, parking_lot/crossbeam/rayon) in the sans-io \
                  crates; Arc is allowed, shared mutation is not",
        scope: "crates/{core,pubsub,sim,net} minus [pure] exempt paths",
    },
    RuleInfo {
        id: "PANIC001",
        summary: "no panic source (panic-family macro, unwrap/expect, \
                  indexing) transitively reachable from Router::process \
                  or OverlayRuntime::tick, by call-graph over-approximation",
        scope: "workspace call graph from the hot-path entry points",
    },
    RuleInfo {
        id: "LAYER001",
        summary: "crate dependencies must point strictly down the [layers] \
                  order in analyzer.toml; sim-facing crates may not depend \
                  on experiment/CLI crates",
        scope: "every workspace Cargo.toml [dependencies] section",
    },
];

/// One finding: rule, location (1-based line/column) and the offending
/// source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id.
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// The trimmed original source line.
    pub snippet: String,
    /// Optional extra context (e.g. a PANIC001 reachability chain);
    /// empty when there is none.
    pub note: String,
}

fn in_scope(path: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| path.starts_with(p))
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Start offsets of the integer literals that spell a SplitMix64 finalizer
/// multiplier, in either case, with any `_` separators and any type
/// suffix.
fn mixer_constant_positions(masked: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let mut hits = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if !is_ident(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && is_ident(bytes[i]) {
            i += 1;
        }
        if bytes[start] != b'0' {
            continue;
        }
        let literal: String = masked[start..i]
            .chars()
            .filter(|&c| c != '_')
            .map(|c| c.to_ascii_lowercase())
            .collect();
        // A suffix starts at its `u` or `i`, which no hex digit is.
        let digits = literal.split(['u', 'i']).next().unwrap_or_default();
        if SPLITMIX64_MULTIPLIERS.contains(&digits) {
            hits.push(start);
        }
    }
    hits
}

/// Word-boundary occurrences of `word` in `text`.
fn word_positions(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find(word) {
        let pos = from + rel;
        let before_ok = pos == 0 || !is_ident(bytes[pos - 1]);
        let after = pos + word.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            hits.push(pos);
        }
        from = pos + word.len().max(1);
    }
    hits
}

/// `(line, col)` of a byte offset, both 1-based.
fn line_col(text: &str, offset: usize) -> (usize, usize) {
    let before = &text.as_bytes()[..offset];
    let line = before.iter().filter(|&&b| b == b'\n').count() + 1;
    let col = offset
        - before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1)
        + 1;
    (line, col)
}

fn snippet_of(original: &str, line: usize) -> String {
    original
        .lines()
        .nth(line - 1)
        .unwrap_or_default()
        .trim()
        .to_string()
}

/// Builds one diagnostic at a byte offset of the masked source (masking
/// is length-preserving, so the offset maps 1:1 onto `original`).
#[must_use]
pub fn diagnostic_at(
    rule: &'static str,
    path: &str,
    original: &str,
    masked: &str,
    offset: usize,
    note: String,
) -> Diagnostic {
    let (line, col) = line_col(masked, offset);
    Diagnostic {
        rule,
        path: path.to_string(),
        line,
        col,
        snippet: snippet_of(original, line),
        note,
    }
}

fn push(
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    path: &str,
    original: &str,
    masked: &str,
    offset: usize,
) {
    out.push(diagnostic_at(
        rule,
        path,
        original,
        masked,
        offset,
        String::new(),
    ));
}

/// Runs every rule over one file. `path` is workspace-relative and
/// determines which scopes apply; `masked` must be the output of
/// [`crate::mask::mask_source`] + [`crate::mask::strip_test_regions`].
#[must_use]
pub fn scan_file(path: &str, original: &str, masked: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    if in_scope(path, SIM_FACING) {
        for word in ["HashMap", "HashSet"] {
            for pos in word_positions(masked, word) {
                push(&mut out, "DET001", path, original, masked, pos);
            }
        }
        if !DET002_EXEMPT.contains(&path) {
            for pat in [
                "Instant::now",
                "SystemTime::now",
                "thread_rng",
                "rand::random",
                "from_entropy",
            ] {
                let word = pat.split("::").next().unwrap_or(pat);
                for pos in word_positions(masked, word) {
                    let end = pos + pat.len();
                    let after_ok = end >= masked.len() || !is_ident(masked.as_bytes()[end]);
                    if after_ok && masked[pos..].starts_with(pat) {
                        push(&mut out, "DET002", path, original, masked, pos);
                    }
                }
            }
            for pos in mixer_constant_positions(masked) {
                push(&mut out, "DET002", path, original, masked, pos);
            }
        }
    }

    for pos in det003_positions(masked) {
        push(&mut out, "DET003", path, original, masked, pos);
    }

    if in_scope(path, HOT_PATH) {
        for pos in word_positions(masked, "unwrap") {
            if pos > 0
                && masked.as_bytes()[pos - 1] == b'.'
                && masked[pos..].starts_with("unwrap()")
            {
                push(&mut out, "SAFE001", path, original, masked, pos);
            }
        }
        for pos in word_positions(masked, "expect") {
            if pos > 0 && masked.as_bytes()[pos - 1] == b'.' && masked[pos..].starts_with("expect(")
            {
                push(&mut out, "SAFE001", path, original, masked, pos);
            }
        }
    }

    if path.starts_with("crates/sim") {
        for pos in safe002_positions(masked) {
            push(&mut out, "SAFE002", path, original, masked, pos);
        }
    }

    if in_scope(path, SAFE002_COUNTER_SCOPE) {
        for pos in safe002_counter_positions(masked) {
            push(&mut out, "SAFE002", path, original, masked, pos);
        }
    }

    if in_scope(path, PURE_SCOPE) {
        for (rule, pos) in pure_positions(masked) {
            push(&mut out, rule, path, original, masked, pos);
        }
    }

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// DET003: `partial_cmp` occurring inside the balanced-paren argument of a
/// comparator-taking call (`sort_by`, `sort_unstable_by`, `min_by`,
/// `max_by`, `binary_search_by`). A `PartialOrd` *impl* defining
/// `partial_cmp` is not a sort and is not flagged.
fn det003_positions(masked: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    for call in [
        "sort_by",
        "sort_unstable_by",
        "min_by",
        "max_by",
        "binary_search_by",
    ] {
        for pos in word_positions(masked, call) {
            let open = pos + call.len();
            if masked.as_bytes().get(open) != Some(&b'(') {
                continue; // e.g. `sort_by_key` already excluded by boundary.
            }
            let close = match matching_paren(masked.as_bytes(), open) {
                Some(c) => c,
                None => masked.len(),
            };
            let span = &masked[open..close];
            for rel in word_positions(span, "partial_cmp") {
                hits.push(open + rel);
            }
        }
    }
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// SAFE002: raw `+`/`-`/`*` inside the argument of a `SimTime(…)` /
/// `SimDuration(…)` tuple construction. Spans that go through the
/// saturating/checked API or the (saturating) float path are exempt.
fn safe002_positions(masked: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    for ctor in ["SimTime", "SimDuration"] {
        for pos in word_positions(masked, ctor) {
            let open = pos + ctor.len();
            if masked.as_bytes().get(open) != Some(&b'(') {
                continue;
            }
            let close = match matching_paren(masked.as_bytes(), open) {
                Some(c) => c,
                None => continue,
            };
            let span = &masked[open + 1..close];
            if span.contains("saturating_")
                || span.contains("checked_")
                || span.contains("wrapping_")
                || span.contains("as u64")
            {
                continue;
            }
            if let Some(rel) = span.bytes().position(|b| matches!(b, b'+' | b'-' | b'*')) {
                hits.push(open + 1 + rel);
            }
        }
    }
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// SAFE002 counter extension: `field.path += <int literal>` (or `-=`) on a
/// struct field. A wrap in a long sweep silently corrupts statistics, so
/// counters must go through `saturating_add`. Bare locals (`salt += 1`)
/// are exempt: they live and die inside one function and overflow panics
/// surface immediately in debug runs.
fn safe002_counter_positions(masked: &str) -> Vec<usize> {
    let bytes = masked.as_bytes();
    let mut hits = Vec::new();
    for op in 0..bytes.len().saturating_sub(1) {
        // `+=` increments and `-=` decrements (underflow → u64::MAX).
        if !matches!(bytes[op], b'+' | b'-') || bytes[op + 1] != b'=' {
            continue;
        }
        // LHS: walk back over an expression path (`self.buckets[idx]`).
        let mut start = op;
        while start > 0 {
            let b = bytes[start - 1];
            if is_ident(b) || matches!(b, b'.' | b'[' | b']' | b' ') {
                start -= 1;
            } else {
                break;
            }
        }
        let lhs = masked[start..op].trim();
        if !lhs.contains('.') || lhs.contains("..") {
            continue; // bare local, or a range expression — not a counter
        }
        // RHS must be a plain integer literal (`+= 1`, `+= 1_000`).
        let mut r = op + 2;
        while r < bytes.len() && bytes[r] == b' ' {
            r += 1;
        }
        let rhs_start = r;
        while r < bytes.len() && (bytes[r].is_ascii_digit() || bytes[r] == b'_') {
            r += 1;
        }
        let rhs_is_int = r > rhs_start && bytes.get(r).is_none_or(|&b| !is_ident(b) && b != b'.');
        if rhs_is_int {
            hits.push(op);
        }
    }
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// Occurrences of a qualified path pattern like `std::net` or `tokio::`:
/// the first segment must sit on a word boundary and the match must not
/// continue into a longer identifier (`std::fsync` never matches
/// `std::fs`).
fn qualified_positions(masked: &str, pat: &str) -> Vec<usize> {
    let first = pat.split(':').next().unwrap_or(pat);
    word_positions(masked, first)
        .into_iter()
        .filter(|&pos| {
            if !masked[pos..].starts_with(pat) {
                return false;
            }
            let end = pos + pat.len();
            pat.ends_with(':') || end >= masked.len() || !is_ident(masked.as_bytes()[end])
        })
        .collect()
}

/// PURE003 type names: the `std::sync` (and ecosystem) shared-mutation
/// primitives. `Arc` is deliberately absent — refcounted sharing of
/// immutable protocol state is sanctioned; locks, channels and atomics
/// are not.
const PURE003_WORDS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "OnceLock",
    "LazyLock",
    "mpsc",
    "parking_lot",
    "crossbeam",
    "rayon",
];

/// PURE002's wall clocks: `Instant` or `SystemTime` qualified as
/// `time::X`, used as a path root (`X::now()`), or imported in a
/// `time::{..}` group. Elsewhere the bare name is some other item, such as
/// an enum variant `Mode::Instant`.
fn wall_clock_positions(masked: &str) -> Vec<usize> {
    let groups: Vec<(usize, usize)> = word_positions(masked, "time")
        .into_iter()
        .filter(|&pos| masked[pos..].starts_with("time::{"))
        .map(|pos| {
            let open = pos + "time::{".len();
            let close = masked[open..].find('}').map_or(masked.len(), |c| open + c);
            (open, close)
        })
        .collect();
    let mut hits = Vec::new();
    for word in ["Instant", "SystemTime"] {
        for pos in word_positions(masked, word) {
            let qualified = masked[..pos]
                .strip_suffix("time::")
                .is_some_and(|before| !before.bytes().last().is_some_and(is_ident));
            let path_root = masked[pos + word.len()..].starts_with("::");
            let imported = groups
                .iter()
                .any(|&(open, close)| open <= pos && pos < close);
            if qualified || path_root || imported {
                hits.push(pos);
            }
        }
    }
    hits
}

/// The sans-io purity scans (PURE001–003) over one masked file.
fn pure_positions(masked: &str) -> Vec<(&'static str, usize)> {
    let mut hits: Vec<(&'static str, usize)> = Vec::new();
    for pat in [
        "std::net",
        "std::thread",
        "std::fs",
        "std::process",
        "tokio::",
        "async_std::",
        "mio::",
    ] {
        for pos in qualified_positions(masked, pat) {
            hits.push(("PURE001", pos));
        }
    }
    for pos in qualified_positions(masked, "std::io") {
        hits.push(("PURE002", pos));
    }
    for pos in wall_clock_positions(masked) {
        hits.push(("PURE002", pos));
    }
    for word in PURE003_WORDS {
        for pos in word_positions(masked, word) {
            hits.push(("PURE003", pos));
        }
    }
    // Atomics: any `Atomic`-prefixed type name (AtomicU64, AtomicBool, …).
    let bytes = masked.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident(bytes[i]) && (i == 0 || !is_ident(bytes[i - 1])) {
            let start = i;
            while i < bytes.len() && is_ident(bytes[i]) {
                i += 1;
            }
            let word = &masked[start..i];
            if word.len() > "Atomic".len() && word.starts_with("Atomic") {
                hits.push(("PURE003", start));
            }
        } else {
            i += 1;
        }
    }
    hits.sort_unstable_by_key(|&(_, pos)| pos);
    hits
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::{mask_source, strip_test_regions};

    fn scan(path: &str, src: &str) -> Vec<Diagnostic> {
        let masked = strip_test_regions(&mask_source(src));
        scan_file(path, src, &masked)
    }

    #[test]
    fn word_boundaries_are_respected() {
        let hits = scan("crates/core/src/x.rs", "type MyHashMapLike = u32;");
        assert!(hits.is_empty());
        let hits = scan("crates/core/src/x.rs", "use std::collections::HashMap;");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "DET001");
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn out_of_scope_paths_are_quiet() {
        let hits = scan("crates/experiments/src/x.rs", "let m: HashMap<u32, u32>;");
        assert!(hits.is_empty());
    }

    #[test]
    fn det003_flags_only_comparator_spans() {
        let src = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());";
        let hits = scan("crates/metrics/src/x.rs", src);
        assert_eq!(hits.iter().filter(|d| d.rule == "DET003").count(), 1);
        // A PartialOrd impl defines partial_cmp without sorting: clean.
        let imp = "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None }";
        assert!(scan("crates/metrics/src/x.rs", imp).is_empty());
    }

    #[test]
    fn safe001_ignores_unwrap_or_family() {
        let src =
            "let a = x.unwrap_or(0); let b = y.unwrap_or_else(f); let c = z.unwrap_or_default();";
        assert!(scan("crates/core/src/x.rs", src).is_empty());
        let hits = scan("crates/core/src/x.rs", "let a = x.unwrap();");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "SAFE001");
    }

    #[test]
    fn safe002_exempts_saturating_and_float_paths() {
        let bad = "SimTime(millis * 1_000)";
        let hits = scan("crates/sim/src/time.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "SAFE002");
        for good in [
            "SimTime(millis.saturating_mul(1_000))",
            "SimDuration((secs * 1e6).round() as u64)",
            "SimDuration(self.0.saturating_sub(rhs.0))",
        ] {
            assert!(scan("crates/sim/src/time.rs", good).is_empty(), "{good}");
        }
    }

    #[test]
    fn pure002_flags_wall_clocks_not_their_namesakes() {
        let pure002 = |src: &str| {
            scan("crates/net/src/x.rs", src)
                .iter()
                .filter(|d| d.rule == "PURE002")
                .count()
        };
        for clock in [
            "use std::time::{Duration, Instant};",
            "use std::time::Instant;",
            "let t = Instant::now();",
            "let t: Option<std::time::SystemTime> = None;",
        ] {
            assert_eq!(pure002(clock), 1, "{clock}");
        }
        for namesake in [
            "enum Mode { Instant, Later }",
            "match m { Mode::Instant => 0, Mode::Later => 1 }",
            "use crate::mode::Mode::SystemTime;",
            "let t = datetime::Instant;",
        ] {
            assert_eq!(pure002(namesake), 0, "{namesake}");
        }
    }

    #[test]
    fn line_and_col_are_one_based_and_accurate() {
        let src = "fn f() {}\nlet m = HashMap::new();\n";
        let hits = scan("crates/net/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].line, hits[0].col), (2, 9));
        assert_eq!(hits[0].snippet, "let m = HashMap::new();");
    }
}
