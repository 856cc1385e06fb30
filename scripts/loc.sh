#!/usr/bin/env bash
# Non-test line count, per crate and for the workspace: the lines of
# each crates/*/src/**/*.rs and src/*.rs before the file's first
# unindented `#[cfg(test)]` (the whole file when it has none). This is
# the count ROADMAP.md's *Smaller* table quotes.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines before the first unindented #[cfg(test)] of each file given.
count() {
  local total=0 file n
  for file in "$@"; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    total=$((total + n))
  done
  echo "$total"
}

workspace=0
for dir in crates/*/; do
  name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)
  mapfile -t files < <(find "$dir/src" -name '*.rs' | sort)
  n=$(count "${files[@]}")
  workspace=$((workspace + n))
  printf '%-14s %6d\n' "$name" "$n"
done
mapfile -t files < <(find src -maxdepth 1 -name '*.rs' | sort)
n=$(count "${files[@]}")
workspace=$((workspace + n))
printf '%-14s %6d\n' "root src/" "$n"
printf '%-14s %6d\n' "workspace" "$workspace"
