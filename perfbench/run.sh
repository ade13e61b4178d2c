#!/usr/bin/env bash
# Builds the release `dial` binary and the benchmark harness from this
# checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); scratch inputs and trace files go to .bench_work.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin dial >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --dial "$CARGO_TARGET_DIR/release/dial" "$@"
