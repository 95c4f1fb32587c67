#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoked from the repository
# root as `bash benchmark/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`; every argument goes to the binary (see README.md).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for build outputs and trace files, inside the
# checkout and ignored by git. A relative CARGO_TARGET_DIR is relative to
# the directory the benchmark was started from.
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo must run from this directory: .cargo/config.toml here overrides the
# repository's registry patches (see that file). --offline: every
# dependency is a path dependency, so no index is ever needed.
cd "$here"
cargo build --release --offline --quiet 1>&2

cd "$root"
exec "$target/release/dcrd-benchmark" "$@"
