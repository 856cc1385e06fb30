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
# run — about 0.04 s), then the stale-suppression audit so inline allows
# cannot outlive the findings they excuse.
cargo run -p sift-lint --release --offline
cargo run -p sift-lint --release --offline -- --audit-allows

cargo clippy --workspace --all-targets --offline -- -D warnings
cargo fmt --check

# Benchmark build gate: `benchmark/` is a package of its own that the
# workspace commands above never compile. Its tests build it against the
# workspace's public API and run all four workloads at --smoke size, so
# an API change that would break the benchmark fails here, not later.
cargo test --offline --manifest-path benchmark/Cargo.toml

# Same-seed determinism gate: builds an example, runs it twice with the
# same arguments and fails when the two reports differ. Standard output
# is the report; standard error (injected-crash panic notes, host-timing
# observations) is discarded.
#   same_seed_gate <report name> <what diverged> <example> [arguments]
same_seed_gate() {
  local name=$1 what=$2 example=$3
  shift 3
  cargo build --release --offline --example "$example"
  "./target/release/examples/$example" "$@" > "target/$name-a.txt" 2> /dev/null
  "./target/release/examples/$example" "$@" > "target/$name-b.txt" 2> /dev/null
  diff "target/$name-a.txt" "target/$name-b.txt" \
    || { echo "$what diverged between same-seed runs" >&2; exit 1; }
}

# Chaos: fault decisions are a pure function of seed + request + arrival,
# never of timing.
same_seed_gate chaos "chaos replay" chaos_crawl --seed 7

# Resume: the injected crash lands at the same fetch, recovery replays
# the same journal, and the resumed result diffs clean against the
# uninterrupted run inside the example itself — at both journal crash
# sites (a torn record, a landed one).
same_seed_gate resume-mid "resumed replay" resumable_crawl \
  --seed 7 --crash-at mid_journal_record
same_seed_gate resume-after "resumed replay" resumable_crawl \
  --seed 7 --crash-at after_journal_record

# Nemesis: stdout is a pure function of the seed — the schedule, the
# converged spikes, and the kill/restart/recovery audit.
same_seed_gate nemesis "nemesis replay" nemesis_crawl --seed 42 --quick

# Serving: spike tables are a pure function of the seed; host-timing
# observations like staleness go to stderr.
same_seed_gate serve "online daemon" online_daemon --seed 7

echo "all checks passed"
