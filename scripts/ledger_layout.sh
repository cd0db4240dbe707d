#!/bin/sh
# Prints, for each bench_ledger binary given, the address of every clone
# of the layer ledger's yardstick scan (ledger::detail::scan_rows in
# bench/ledger/yardstick.hpp: the ifunc, its resolver and its default and
# POPCNT bodies) as `nm` reads it, and exits 1 when two binaries place them
# differently. Every scan_ratio divides by that scan, and its speed moves
# with where its code lands, so before reading a scan_ratio shift between
# two builds as the engine's, check that their yardsticks sit at the same
# addresses.
#
# Usage: sh scripts/ledger_layout.sh BENCH_LEDGER...
#   e.g. sh scripts/ledger_layout.sh \
#          ../parent/.bench_build/ledger/bench_ledger \
#          .bench_build/ledger/bench_ledger
set -eu

if [ $# -lt 1 ]; then
  echo "usage: $0 BENCH_LEDGER..." >&2
  exit 2
fi

first=""
status=0
for bin in "$@"; do
  if [ ! -f "$bin" ]; then
    echo "ledger_layout: $bin is missing" >&2
    exit 2
  fi
  # The clones are one mangled name with a .default, .popcnt or .resolver
  # suffix; the bare name is the ifunc.
  layout=$(nm "$bin" | awk '
    $3 ~ /^_ZN6ledger6detail9scan_rows/ {
      clone = $3
      sub(/^_ZN6ledger6detail9scan_rows[A-Za-z0-9_]*/, "", clone)
      print (clone == "" ? "ifunc" : substr(clone, 2)), $1
    }' | sort)
  if [ -z "$layout" ]; then
    echo "ledger_layout: no ledger::detail::scan_rows in $bin" >&2
    exit 2
  fi
  echo "== $bin"
  echo "$layout"
  if [ -z "$first" ]; then
    first=$layout
  elif [ "$layout" != "$first" ]; then
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "ledger_layout: the yardstick's clones sit at different addresses" >&2
fi
exit "$status"
