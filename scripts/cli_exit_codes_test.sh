#!/bin/sh
# Asserts the apss_cli exit-code contract (the table at the top of
# examples/apss_cli.cpp): every typed failure maps to its own nonzero
# code, and no path leaks an uncaught exception (which would abort with
# 134 instead of a small code).
#
# Usage: scripts/cli_exit_codes_test.sh <path-to-apss_cli>

set -u
cli="${1:?usage: cli_exit_codes_test.sh <path-to-apss_cli>}"
status=0
tmp="${TMPDIR:-/tmp}/apss_cli_exit.$$"
mkdir -p "$tmp"
trap 'rm -rf "$tmp"' EXIT

check() {
  want="$1"
  name="$2"
  shift 2
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: want exit $want, got $got ($*)" >&2
    status=1
  else
    echo "ok   $name (exit $got)"
  fi
}

# 0: healthy end-to-end runs, both backends.
check 0 "success-cycle"      "$cli" knn 16 32 3 1
check 0 "success-bit"        "$cli" knn 16 32 3 1 --backend=bit
# 2: usage and invalid arguments (missing args, bad flag, bad values).
check 2 "usage-noargs"       "$cli"
check 2 "usage-missing"      "$cli" knn 16 32
check 2 "usage-bad-flag"     "$cli" knn 16 32 3 --frobnicate=1
check 2 "usage-bad-backend"  "$cli" knn 16 32 3 --backend=quantum
check 2 "usage-bad-policy"   "$cli" knn 16 32 3 --on-error=bogus
check 2 "usage-no-isolate"   "$cli" knn 16 32 3 --on-error=isolate
check 2 "usage-no-lane-width" "$cli" knn 16 32 3 --lane-width=64
check 2 "usage-bad-deadline" "$cli" knn 16 32 3 --deadline-ms=-5
check 2 "usage-artifact-needs-bit" "$cli" knn 16 32 3 --artifact-cache="$tmp/c"
# 3: load errors (missing ANML file, malformed ANML, unreadable artifact).
check 3 "load-missing-anml"  "$cli" anml "$tmp/nonexistent.anml" text
printf 'not anml at all' > "$tmp/bad.anml"
check 3 "load-bad-anml"      "$cli" anml "$tmp/bad.anml" text
check 3 "load-missing-artifact" "$cli" knn 16 32 3 1 --backend=bit \
      --load-artifact="$tmp/nonexistent.apss-art"
# 4: shard failure under the default fail-fast policy (deterministic
# injected fault at the shard entry site).
check 4 "shard-fail-fast"    "$cli" knn 16 32 3 1 --threads=1 \
      --inject-fault=engine.shard
# ...but the same fault under retry is absorbed into shard status, with
# no plain retries (retry:0) as with two.
check 0 "shard-isolated"     "$cli" knn 16 32 3 1 --threads=1 \
      --on-error=retry:0 --inject-fault=engine.shard
check 0 "shard-retried"      "$cli" knn 16 32 3 1 --threads=1 \
      --on-error=retry:2 --inject-fault=engine.shard:1:1
# 5: a deadline far below one query frame expires at the first checkpoint.
check 5 "deadline"           "$cli" knn 16 32 3 1 --threads=1 \
      --deadline-ms=0.0001
# 7: a valid artifact that belongs to a different design.
"$cli" knn 16 32 3 99 --backend=bit --save-artifact="$tmp/other.apss-art" \
      >/dev/null 2>&1 || { echo "FAIL setup: save-artifact" >&2; status=1; }
check 7 "artifact-mismatch"  "$cli" knn 16 32 3 1 --backend=bit \
      --load-artifact="$tmp/other.apss-art"

exit $status
