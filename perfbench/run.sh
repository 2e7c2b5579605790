#!/usr/bin/env bash
# Builds the release daemon and the benchmark binary from this checkout,
# then runs one benchmark pass.  Usage (from the repository root):
#
#   bash perfbench/run.sh [FIXED FLAGS] --workload NAME --seed N --seconds S --trace 0|1
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# `target`), which also holds the benchmark's scratch files.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p birelcost-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --daemon "$CARGO_TARGET_DIR/release/birelcost" "$@"
