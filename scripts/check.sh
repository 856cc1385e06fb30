#!/usr/bin/env bash
# Full local gate: release build, every test in the workspace, the
# sift-lint static-analysis pass, a warning-free clippy pass over all
# targets, and rustfmt. The build environment has no crates.io access
# (external deps resolve to the vendored shims), hence --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace

# Static-analysis gate, exercised the way CI hits it: a cold cached run
# (populates target/sift-lint-cache.json), a warm run that must reuse it
# and agree byte-for-byte, and the stale-suppression audit so inline
# allows cannot outlive the findings they excuse.
rm -f target/sift-lint-cache.json
cargo run -p sift-lint --release --offline -- --json --cache --timing \
  > target/lint-cold.json
cargo run -p sift-lint --release --offline -- --json --cache --timing \
  > target/lint-warm.json
diff target/lint-cold.json target/lint-warm.json \
  || { echo "cached lint run diverged from the cold run" >&2; exit 1; }
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

# Overload gate: the acceptance test pins a server, sheds a 4x burst,
# opens and re-closes the breaker, and replays the whole choreography to
# an identical report. Runs as part of the workspace pass above too; the
# explicit invocation keeps the gate loud if the test file is ever
# dropped from the workspace manifest.
cargo test -q --offline --test overload_http

# Crash-consistency gate: a seeded crawl killed at each durability
# boundary (in-process panic and out-of-process abort) must resume to
# the identical result, re-fetching at most the one in-flight response.
cargo test -q --offline --test resume_http

# Sharded-crawl gate: a coordinator plus in-process workers over real
# sockets must assemble a StudyResult bit-identical to single-process
# run_study — including when a worker is killed mid-run, its heartbeats
# go silent, and its shards reroute to the survivors.
cargo test -q --offline --test cluster_http

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

# Nemesis gate: the acceptance test kills and recovers the coordinator
# mid-run and partitions a worker, converging to the clean baseline; then
# two same-seed runs of the quick nemesis example must print
# byte-identical reports (stdout is a pure function of the seed — the
# schedule, the converged spikes, and the kill/restart/recovery audit;
# timing-dependent observations go to stderr, which is discarded).
cargo test -q --offline --test nemesis_http
cargo build --release --offline --example nemesis_crawl
./target/release/examples/nemesis_crawl --seed 42 --quick \
  > target/nemesis-a.txt 2> /dev/null
./target/release/examples/nemesis_crawl --seed 42 --quick \
  > target/nemesis-b.txt 2> /dev/null
diff target/nemesis-a.txt target/nemesis-b.txt \
  || { echo "nemesis replay diverged between same-seed runs" >&2; exit 1; }

# Serving gate: the daemon acceptance test crashes ingest at every
# durability boundary (in-process panic and out-of-process abort) and
# must recover to the identical spike set while the front keeps serving;
# then two same-seed runs of the online-daemon example must print
# byte-identical reports (spike tables are a pure function of the seed;
# host-timing observations like staleness go to stderr, discarded here).
cargo test -q --offline --test serve_http
cargo build --release --offline --example online_daemon
./target/release/examples/online_daemon --seed 7 \
  > target/serve-a.txt 2> /dev/null
./target/release/examples/online_daemon --seed 7 \
  > target/serve-b.txt 2> /dev/null
diff target/serve-a.txt target/serve-b.txt \
  || { echo "online daemon diverged between same-seed runs" >&2; exit 1; }

echo "all checks passed"
