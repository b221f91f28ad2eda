#!/usr/bin/env bash
# Runs one paperrepro row and diffs its stdout against the committed table
# in bench/golden/<row>.txt, taken at FDD_BENCH_SCALE=0.5.
#
# The row's own exit code wins: 1 when a shape check fails. A row that
# passes its checks but prints another table than the golden file fails
# with the diff. A change that moves a
# table updates its golden file in the same commit and says why.
#
# Usage: paper_golden.sh <paperrepro-binary> <row>
# ctest runs it as paper.<row>.
set -uo pipefail

PAPERREPRO=${1:?usage: paper_golden.sh <paperrepro-binary> <row>}
ROW=${2:?usage: paper_golden.sh <paperrepro-binary> <row>}
GOLDEN="$(cd "$(dirname "$0")" && pwd)/golden/$ROW.txt"
OUT=$(mktemp /tmp/paper-golden.XXXXXX)
trap 'rm -f "$OUT"' EXIT

rc=0
"$PAPERREPRO" "$ROW" > "$OUT" || rc=$?
cat "$OUT"
if [ "$rc" -ne 0 ]; then
  exit "$rc"
fi
if ! diff -u "$GOLDEN" "$OUT"; then
  echo "FAIL paper.$ROW: stdout differs from $GOLDEN" >&2
  exit 1
fi
