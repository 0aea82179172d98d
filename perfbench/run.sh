#!/usr/bin/env bash
# Builds the benchmark and the `htsat-serve` / `htsat-router` binaries from
# source, then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload stream-table2 --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
  -p perfbench -p htsat-serve -p htsat-router >&2
work="$target/perfbench-work"
mkdir -p "$work"
exec "$target/release/perfbench" --bin-dir "$target/release" --work-dir "$work" "$@"
