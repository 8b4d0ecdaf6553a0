#!/usr/bin/env bash
# Build the workbench programs and the benchmark's load generator from source,
# then run one workload:
#
#   bash wbbench/run.sh --workload curation --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -d crates/server ] || [ ! -d crates/router ]; then
    echo "wbbench: run from the repository root (workspace sources not found)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p iwb-server --bin workbenchd 1>&2
cargo build --release --offline --quiet -p iwb-router --bin workbench-router 1>&2
cargo build --release --offline --quiet --manifest-path wbbench/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/wbbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
