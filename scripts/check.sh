#!/usr/bin/env bash
# Full local gate: release build, every test in the workspace, the
# sift-lint static-analysis pass, a warning-free clippy pass over all
# targets, and rustfmt. The build environment has no crates.io access
# (external deps resolve to the vendored shims), hence --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# The root package auto-discovers tests/*.rs, so this runs every
# acceptance test (overload, resume, cluster, nemesis, serve, ...) too.
cargo test -q --offline --workspace

# Static-analysis gate: one full lint of the workspace (every file, every
# run — about 0.14 s), then the stale-suppression audit so inline allows
# cannot outlive the findings they excuse.
cargo run -p sift-lint --release --offline
cargo run -p sift-lint --release --offline -- --audit-allows

cargo clippy --workspace --all-targets --offline -- -D warnings
cargo fmt --check

# Chaos determinism gate: two runs of the seeded fault-injection example
# must produce byte-identical reports (fault decisions are a pure
# function of seed + request + arrival, never of timing).
cargo build --release --offline --example chaos_crawl
./target/release/examples/chaos_crawl --seed 7 > target/chaos-a.txt
./target/release/examples/chaos_crawl --seed 7 > target/chaos-b.txt
diff target/chaos-a.txt target/chaos-b.txt \
  || { echo "chaos replay diverged between same-seed runs" >&2; exit 1; }

# Benchmark build gate: `benchmark/` is a package of its own that the
# workspace commands above never compile. Its tests build it against the
# workspace's public API and run all four workloads at --smoke size, so
# an API change that would break the benchmark fails here, not later.
cargo test --offline --manifest-path benchmark/Cargo.toml

# Resume determinism gate: two same-seed runs of the crash-and-resume
# example must print byte-identical reports (the injected crash lands at
# the same fetch, recovery replays the same journal, the resumed result
# diffs clean against the uninterrupted run inside the example itself).
cargo build --release --offline --example resumable_crawl
./target/release/examples/resumable_crawl --seed 7 --crash-at mid_journal_record \
  > target/resume-a.txt 2> /dev/null
./target/release/examples/resumable_crawl --seed 7 --crash-at mid_journal_record \
  > target/resume-b.txt 2> /dev/null
diff target/resume-a.txt target/resume-b.txt \
  || { echo "resumed replay diverged between same-seed runs" >&2; exit 1; }

# Nemesis determinism gate: two same-seed runs of the quick nemesis
# example must print byte-identical reports (stdout is a pure function
# of the seed — the schedule, the converged spikes, and the
# kill/restart/recovery audit; timing-dependent observations go to
# stderr, which is discarded).
cargo build --release --offline --example nemesis_crawl
./target/release/examples/nemesis_crawl --seed 42 --quick \
  > target/nemesis-a.txt 2> /dev/null
./target/release/examples/nemesis_crawl --seed 42 --quick \
  > target/nemesis-b.txt 2> /dev/null
diff target/nemesis-a.txt target/nemesis-b.txt \
  || { echo "nemesis replay diverged between same-seed runs" >&2; exit 1; }

# Serving determinism gate: two same-seed runs of the online-daemon
# example must print byte-identical reports (spike tables are a pure
# function of the seed; host-timing observations like staleness go to
# stderr, discarded here).
cargo build --release --offline --example online_daemon
./target/release/examples/online_daemon --seed 7 \
  > target/serve-a.txt 2> /dev/null
./target/release/examples/online_daemon --seed 7 \
  > target/serve-b.txt 2> /dev/null
diff target/serve-a.txt target/serve-b.txt \
  || { echo "online daemon diverged between same-seed runs" >&2; exit 1; }

echo "all checks passed"
