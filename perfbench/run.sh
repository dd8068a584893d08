#!/usr/bin/env bash
# Build the shipped binaries and the benchmark binary, then run it.
#
#   bash perfbench/run.sh --workload viewers|uploaders|routed \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Both builds share one target directory
# (CARGO_TARGET_DIR, `target` when unset); the benchmark finds
# `lightor-serve` and `lightor-router` there.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p lightor_server --bin lightor-serve --bin lightor-router
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
