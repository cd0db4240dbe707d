#!/bin/sh
# Re-captures every committed BENCH_*.json at the repo root: runs the bench
# binary behind each file from BUILD_DIR/bench at its default arguments,
# one after another, writing straight into the repo root, so the committed
# snapshots are one commit's numbers on one machine (each file's first
# record names that machine). Build BUILD_DIR with an optimized build type
# (the default, RelWithDebInfo) and keep the host otherwise idle.
#
# Usage: sh scripts/capture_bench.sh BUILD_DIR
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
bench_dir=$(cd "$1/bench" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)

for snapshot in "$root"/BENCH_*.json; do
  name=$(basename "$snapshot" .json)
  bin="$bench_dir/bench_${name#BENCH_}"
  if [ ! -x "$bin" ]; then
    echo "capture_bench: $bin is missing; build it first" >&2
    exit 1
  fi
  echo "== $(basename "$bin")"
  (cd "$bench_dir" && APSS_BENCH_DIR="$root" "$bin")
done
