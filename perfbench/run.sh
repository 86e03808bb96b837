#!/usr/bin/env bash
# Builds the `lis` service binary and the benchmark program from source, then
# runs one benchmark workload against the service:
#
#   bash perfbench/run.sh --workload cold-design --seed 1 --seconds 40 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the JSON result. Exits non-zero (printing no result) when
# the repository sources are missing or a build fails.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates" || ! -f "$root/perfbench/Cargo.toml" ]]; then
    echo "perfbench: run from the repository root (Cargo.toml and crates/ not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet -p lis-cli --bin lis 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

exec "$target/release/perfbench" --lis "$target/release/lis" --work "$target/perfbench-runs" "$@"
