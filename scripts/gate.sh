#!/usr/bin/env bash
# Runs the CI gates locally, one stage per CI job, with the same commands.
#
#   bash scripts/gate.sh <stage>...   # e.g. `fmt clippy`
#   bash scripts/gate.sh all          # every CI stage, then `loc`
#
# Stages: fmt clippy analyzer analyzer-v2 test churn gossip bench fuzz
# hostile loc. Every stage runs from the repository root and stops at the
# first failing command. The workspace has no registry dependency, so no
# stage needs the network. Files a stage leaves behind (`fig2-out/`,
# `bench-smoke.txt`, ...) are what CI uploads as artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

stage_fmt() {
    # The committed Cargo.lock may name only the workspace's own `dcrd*`
    # crates; checked before any cargo command could rewrite the lock.
    local extra
    extra=$(awk '/^\[\[package\]\]/ { getline; print }' Cargo.lock \
        | sed -e 's/^name = "//' -e 's/"$//' \
        | grep -v -x -E 'dcrd(-[a-z-]+)?' || true)
    if [ -n "$extra" ]; then
        echo "Cargo.lock names registry crates:" $extra >&2
        return 1
    fi
    cargo fmt --all --check
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
    cargo clippy --workspace --tests -- -D warnings
}

stage_analyzer() {
    cargo run -p dcrd-analyzer -- --deny-new
}

stage_analyzer-v2() {
    cargo test --release -p dcrd-analyzer
    cargo run -p dcrd-analyzer -- --deny-new
    cargo run -p dcrd-analyzer -- --format json | tee analyzer-report.json
    # The seeded fixture workspace must fail the gate.
    if cargo run -p dcrd-analyzer -- --root crates/analyzer/tests/fixtures/ws_v2 --deny-new; then
        echo "fixture workspace unexpectedly clean" >&2
        return 1
    fi
    cargo clippy --all-targets -- -D warnings
}

stage_test() {
    cargo build --release
    cargo test -q --workspace
    cargo test --doc
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    cargo test --release --lib -p dcrd-sim -p dcrd-net -p dcrd-pubsub -p dcrd-core -p dcrd-metrics -p dcrd-baselines
    cargo test --release -p dcrd-core --test router_script
    cargo test --release -p dcrd-experiments --lib --test cli --test figure_smoke --test recovery
    cargo run --release -p dcrd-experiments -- fig2 --quality smoke --out fig2-out
    python3 -m json.tool fig2-out/fig2.json > /dev/null
}

stage_churn() {
    cargo test --release -p dcrd-experiments --test churn
    cargo test --release --test membership_detector --test membership_repair --test broker_churn
    cargo run --release -p dcrd-experiments -- churn --quality quick --out churn-out
}

stage_gossip() {
    cargo run -p dcrd-analyzer -- --deny-new
    cargo test --release --test gossip_partition_heal --test gossip_convergence
    cargo test --release -p dcrd-experiments --test gossip
    cargo run --release -p dcrd-experiments -- gossip --quality quick --out gossip-out
}

stage_bench() {
    : > bench-smoke.txt
    local workload
    for workload in steady-64 build-256 churn-32 storm-64 overload-64; do
        bash benchmark/run.sh --workload "$workload" --seed 20110620 \
            --seconds 5 --trace 0 --check | tee -a bench-smoke.txt
    done
    # `allocs_per_hop` is an exact count for the seed, so the limits carry
    # no noise margin. The JSON result lines come in workload order.
    python3 - <<'EOF'
import json
limits = [("steady-64", 0.15), ("build-256", 0.25), ("churn-32", 0.40),
          ("storm-64", 0.25), ("overload-64", 0.35)]
lines = [l for l in open("bench-smoke.txt") if l.startswith("{")]
assert len(lines) == len(limits), f"{len(lines)} result lines"
over = []
for (name, limit), line in zip(limits, lines):
    value = json.loads(line)["metrics"]["allocs_per_hop"]["value"]
    print(f"{name}: allocs_per_hop {value:.3f} (limit {limit})")
    if value >= limit:
        over.append(name)
if over:
    raise SystemExit(f"allocs_per_hop at or over its limit on {over}")
EOF
}

stage_fuzz() {
    cargo run --release -p dcrd-fuzz-harness --bin fuzz-smoke
    cargo test --release -p dcrd-fuzz-harness
}

stage_hostile() {
    cargo test --release -p dcrd-experiments --test hostile
    cargo run --release -p dcrd-experiments -- hostile --quality quick --out hostile-out
}

# The two size counts the simplicity work tracks: every Rust line outside
# `benchmark/`, and the non-test share of it (lines before a file's first
# column-0 `#[cfg(test)]`, files under a `tests/` directory left out). Only
# a column-0 attribute starts the test code: a doc comment that names it,
# or an indented test-only item, does not. Tracked and
# untracked-but-not-ignored files count alike. Then the non-test lines of
# each router file, which fail the stage past 800, and of `propagation.rs`,
# which fail it past 1 300.
stage_loc() {
    local files
    files=$(git ls-files --cached --others --exclude-standard -- '*.rs' \
        | grep -v '^benchmark/' | while read -r f; do if [ -f "$f" ]; then echo "$f"; fi; done)
    echo "rust lines outside benchmark/: $(echo "$files" | xargs cat | wc -l)"
    echo "non-test lines: $(echo "$files" | grep -v '\(^\|/\)tests/' \
        | xargs awk 'FNR == 1 { skip = 0 } /^#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n }')"
    awk 'FNR == 1 { skip = 0; files[++k] = FILENAME } /^#\[cfg\(test\)\]/ { skip = 1 }
        !skip { n[FILENAME]++ }
        END {
            for (i = 1; i <= k; i++) {
                printf "%s: %d non-test lines\n", files[i], n[files[i]]
                if (files[i] ~ /router/ && n[files[i]] > 800) over = 1
                if (files[i] ~ /propagation/ && n[files[i]] > 1300) over = 1
            }
            if (over) { print "a router file is over 800 non-test lines, or propagation.rs over 1300" > "/dev/stderr"; exit 1 }
        }' crates/core/src/router.rs crates/core/src/router/*.rs crates/core/src/propagation.rs
}

ci_stages=(fmt clippy analyzer analyzer-v2 test churn gossip bench fuzz hostile)

if [ $# -eq 0 ]; then
    echo "usage: $0 <stage|all>...; stages: ${ci_stages[*]} loc" >&2
    exit 2
fi
for arg in "$@"; do
    if [ "$arg" = all ]; then
        stages=("${ci_stages[@]}" loc)
    else
        stages=("$arg")
    fi
    for stage in "${stages[@]}"; do
        if ! declare -F "stage_$stage" > /dev/null; then
            echo "unknown stage: $stage" >&2
            exit 2
        fi
        echo "== gate: $stage"
        "stage_$stage"
    done
done
