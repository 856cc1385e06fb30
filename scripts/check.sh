#!/usr/bin/env bash
# Full local gate: release build, every test in the workspace, clippy
# (the workspace's one static-analysis tool), rustfmt, the benchmark
# package's smoke tests, and the determinism gates (same-seed example
# diffs, a 1-vs-4-thread report diff). The build environment has no
# crates.io access (external deps resolve to the vendored shims), hence
# --offline. Every cargo build, test and clippy also passes --locked: a
# manifest edit that would rewrite Cargo.lock or benchmark/Cargo.lock
# fails the gate instead of silently editing the lock file.
set -euo pipefail
cd "$(dirname "$0")/.."

# Flake budget, not part of the default gate: `check.sh --soak N` runs the
# suites that start threads or sockets (every sift-core, sift-cluster,
# sift-net, sift-fetcher, sift-serve and sift-chaos test, plus the root
# cluster_http, nemesis_http, overload_http, chaos_http, resume_http,
# pipeline_http, serve_http and metrics_http acceptance tests) N times at
# --test-threads 1 and N times at the
# default, with one CPU hog per core — the condition both flakes found so
# far needed. It counts: tests passed and failed, runs that died without
# a verdict, and the slowest single test (timed between result lines, so
# only in the one-thread runs, where tests do not overlap). Any failure
# exits non-zero.
soak() {
  local n=$1 threads suite line now ms
  local passed=0 failed=0 dead_runs=0 slowest_ms=0 slowest=none hogs=()
  local suites=("-p sift-core" "-p sift-cluster" "-p sift-net" "-p sift-fetcher"
    "-p sift-serve" "-p sift-chaos"
    "--test cluster_http --test nemesis_http"
    "--test overload_http --test chaos_http"
    "--test resume_http --test pipeline_http"
    "--test serve_http --test metrics_http")
  for suite in "${suites[@]}"; do
    # shellcheck disable=SC2086 # $suite is an argument list
    cargo test -q --offline --locked $suite --no-run
  done
  for _ in $(seq "$(nproc)"); do
    yes > /dev/null &
    hogs+=($!)
  done
  trap "kill ${hogs[*]} 2> /dev/null" EXIT # expanded now: hogs is local
  shopt -s lastpipe # the read loop below runs in this shell and keeps its counts
  for threads in --test-threads=1 ""; do
    for _ in $(seq "$n"); do
      for suite in "${suites[@]}"; do
        # shellcheck disable=SC2086 # $suite and $threads are argument lists
        cargo test --offline --locked $suite -- $threads 2>&1 | while IFS= read -r line; do
          now=${EPOCHREALTIME/./}
          if [[ $line =~ ^test\ (.+)\ \.\.\.\ (ok|FAILED)$ ]]; then
            if [[ ${BASH_REMATCH[2]} == ok ]]; then
              passed=$((passed + 1))
            else
              failed=$((failed + 1))
              echo "FAILED (${threads:-default threads}): ${BASH_REMATCH[1]}"
            fi
            ms=$(((now - started) / 1000))
            if [[ -n $threads && $ms -gt $slowest_ms ]]; then
              slowest_ms=$ms slowest=${BASH_REMATCH[1]}
            fi
          fi
          started=$now # a result line or "running N tests": the next test starts here
        done || dead_runs=$((dead_runs + 1))
      done
    done
  done
  echo "soak x$n under $(nproc) CPU hogs: $passed passed, $failed failed," \
    "$dead_runs runs exited non-zero; slowest test ${slowest_ms} ms ($slowest)"
  [[ $failed -eq 0 && $dead_runs -eq 0 ]]
}
if [[ ${1:-} == --soak ]]; then
  soak "${2:?usage: check.sh --soak N}"
  exit
fi

cargo build --release --offline --locked
# sift-chaos is test support: the root package and its own tests may
# depend on it (as a dev-dependency), no product package may.
normal_deps=$(cargo tree -e normal --offline --locked --workspace --exclude sift-chaos --prefix none)
if grep -q '^sift-chaos ' <<< "$normal_deps"; then
  echo "sift-chaos is a normal dependency of a product package" >&2
  exit 1
fi
# The root package auto-discovers tests/*.rs, so this runs every
# acceptance test (overload, resume, cluster, nemesis, serve, ...) too.
cargo test -q --offline --locked --workspace

# Static analysis. Each scope's lints are listed once, here; the calls
# library code may not make are in clippy.toml. A site that needs an
# exception carries `#[expect(clippy::<lint>, reason = "...")]`, and
# -D warnings fails an expectation that no longer matches a finding, so
# waivers cannot outlive what they excuse. The vendored shims keep the
# stock lints (--no-deps lints just the packages named).
vendor=(bytes crossbeam parking_lot proptest rand rand_chacha serde serde_derive serde_json)
clippy() { cargo clippy --offline --locked --no-deps "$@"; }
clippy "${vendor[@]/#/--package=}" --all-targets -- -D warnings -A clippy::disallowed_methods
# Except the panic lints on the two shims that decode every untrusted
# request body and WAL record, straight from the bytes.
clippy --package=serde --package=serde_json --lib -- -D warnings -A clippy::disallowed_methods \
  -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
  -D clippy::unreachable -D clippy::todo
# Every target, tests and examples included: no exact float comparison,
# and no `#[allow]` (a waiver is an `#[expect(…, reason)]`, which fails
# once nothing fires). Tests and examples may read the clock and print.
clippy --workspace "${vendor[@]/#/--exclude=}" --all-targets -- -D warnings \
  -D clippy::float_cmp -D clippy::allow_attributes -A clippy::disallowed_methods
# Library code: no panics, no lossy casts, no prints, no swallowed
# results, no call clippy.toml disallows (host clock, bare spans, in-place
# file writes), and no `pub` item a crate's public API cannot reach
# (`unreachable_pub`: such an item is `pub(crate)`).
clippy --workspace "${vendor[@]/#/--exclude=}" --lib -- -D warnings -D unreachable_pub \
  -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
  -D clippy::unreachable -D clippy::todo \
  -D clippy::cast_possible_truncation -D clippy::cast_sign_loss -D clippy::cast_possible_wrap \
  -D clippy::print_stdout -D clippy::print_stderr -D clippy::dbg_macro \
  -D clippy::let_underscore_must_use -D clippy::unused_result_ok
cargo fmt --check

# Benchmark build gate: `benchmark/` is a package of its own that the
# workspace commands above never compile. Its tests build it against the
# workspace's public API and run all four workloads at --smoke size, so
# an API change that would break the benchmark fails here, not later.
cargo test --offline --locked --manifest-path benchmark/Cargo.toml

# Same-seed determinism gate: builds an example, runs it twice with the
# same arguments and fails when the two reports differ. Standard output
# is the report; standard error (injected-crash panic notes, host-timing
# observations) is discarded.
#   same_seed_gate <report name> <what diverged> <example> [arguments]
same_seed_gate() {
  local name=$1 what=$2 example=$3
  shift 3
  cargo build --release --offline --locked --example "$example"
  "./target/release/examples/$example" "$@" > "target/$name-a.txt" 2> /dev/null
  "./target/release/examples/$example" "$@" > "target/$name-b.txt" 2> /dev/null
  diff "target/$name-a.txt" "target/$name-b.txt" \
    || { echo "$what diverged between same-seed runs" >&2; exit 1; }
}

# Chaos: fault decisions are a pure function of seed + request + arrival,
# never of timing — and a seed yields the same faults as it always has:
# the report is pinned byte for byte.
same_seed_gate chaos "chaos replay" chaos_crawl --seed 7
diff tests/golden/chaos-crawl-seed7.txt target/chaos-a.txt \
  || { echo "chaos report differs from tests/golden/chaos-crawl-seed7.txt" >&2; exit 1; }

# Resume: the crash state is each region's journal cut at the same
# seed-derived record, recovery replays the same prefix, and the resumed
# result diffs clean against the uninterrupted run inside the example
# itself — cut inside the record (a torn tail) and just after it.
same_seed_gate resume-mid "resumed replay" resumable_crawl \
  --seed 7 --crash-at mid_journal_record
same_seed_gate resume-after "resumed replay" resumable_crawl \
  --seed 7 --crash-at after_journal_record

# Nemesis: stdout is a pure function of the seed — the schedule, the
# converged spikes, and the kill/restart/recovery audit — pinned too.
same_seed_gate nemesis "nemesis replay" nemesis_crawl --seed 42 --quick
diff tests/golden/nemesis-crawl-seed42-quick.txt target/nemesis-a.txt \
  || { echo "nemesis report differs from tests/golden/nemesis-crawl-seed42-quick.txt" >&2; exit 1; }

# Serving: spike tables are a pure function of the seed, pinned byte
# for byte — however many threads recovery opens regions on; host-timing
# observations like staleness go to stderr.
same_seed_gate serve "online daemon" online_daemon --seed 7
diff tests/golden/online-daemon-seed7.txt target/serve-a.txt \
  || { echo "online daemon report differs from tests/golden/online-daemon-seed7.txt" >&2; exit 1; }

# Recorded-trace gate: the observability example is the one end-to-end
# reader of a recorded trace across HTTP outside the unit tests. It
# records its crawl, exports the tree and walks its critical path; the
# export must hold client `request` and server `serve` spans.
cargo build --release --offline --locked --example observability
rm -f target/observability-trace.json
./target/release/examples/observability > target/observability.txt
grep -Eq '^exported [0-9]+ spans \([1-9][0-9]* client request attempts, [1-9][0-9]* server serves\)' \
  target/observability.txt \
  && grep -q '"name":"request"' target/observability-trace.json \
  && grep -q '"name":"serve"' target/observability-trace.json \
  && grep -q '^critical path: ' target/observability.txt \
  || { echo "observability example exported no joined trace with a critical path" >&2; exit 1; }

# Thread-count gate: annotations, clusters and every table built from them
# are a function of the study, not of how many workers computed them
# (DESIGN.md decision 8), so one thread and four print the same report.
# Stage timings go to standard error.
cargo build --release --offline --locked -p sift-bench --bin experiments
for threads in 1 4; do
  ./target/release/experiments --quick --only stats,fig2,tab1,tab3 --threads "$threads" \
    > "target/threads-$threads.txt" 2> /dev/null
done
diff target/threads-1.txt target/threads-4.txt \
  || { echo "experiments report diverged between 1 and 4 threads" >&2; exit 1; }

# Output pin: the same report, byte for byte, as the committed golden
# file. A change that claims identical output (a speed-up, a refactor)
# must pass this unedited; a change to the algorithm or the world
# regenerates the file on purpose, with the command above at --threads 1.
diff tests/golden/experiments-quick.txt target/threads-1.txt \
  || { echo "experiments report differs from tests/golden/experiments-quick.txt" >&2; exit 1; }

echo "all checks passed"
