#!/usr/bin/env bash
# The one command: release-builds the benchmark offline, then runs it.
#
#   benchmark/run.sh                                   every workload -> benchmark/target/results.json
#   benchmark/run.sh --aa                              two sets of runs -> benchmark/target/aa.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1      one run
#
# The build goes to $CARGO_TARGET_DIR when the caller sets it (relative
# to the repository root), else to benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
# exec: signals reach the benchmark itself, which reaps its children.
exec "$CARGO_TARGET_DIR/release/sift-benchmark" "$@"
