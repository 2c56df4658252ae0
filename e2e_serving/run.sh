#!/usr/bin/env bash
# Builds the e2e_serving benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2e_serving/run.sh --workload stream_plain --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: e2e_serving/target);
# the benchmark's JSON result is the last line of standard output.
set -euo pipefail
target="${CARGO_TARGET_DIR:-e2e_serving/target}"
cargo build --release --offline --quiet --manifest-path e2e_serving/Cargo.toml >&2
exec "$target/release/e2e_serving" "$@"
