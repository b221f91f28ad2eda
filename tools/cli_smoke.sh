#!/usr/bin/env bash
# End-to-end smoke of the fdd CLI on local stores:
#  - round trip: back up 8 MiB + 1 MiB of random data, restore it under
#    FDD_TRACE, compare, edit one file and commit both names again, restore
#    into a fresh directory, compare, verify --deep, delete, gc and
#    verify --deep again;
#  - tiered: back up with --compress=deflate, demote every container but
#    the newest during gc, restore from the cold tier through an 8m block
#    cache, compare, verify --deep;
#  - usage: malformed numeric flags, a flag the subcommand does not take
#    and a missing store exit 2, and the missing store is not created;
#  - dedup ratio: backing up the same file a second time must print a
#    ratio above 1 for that run.
# check_stats.py checks the --stats=json dumps, and the trace must be valid
# JSON. The dumps and the trace are kept in <stats-dir>.
#
# Usage: cli_smoke.sh <fdd-binary> <stats-dir>
# Exits non-zero on any failure. ctest runs it as cli.smoke.
set -euo pipefail

FDD=${1:?usage: cli_smoke.sh <fdd-binary> <stats-dir>}
STATS=${2:?usage: cli_smoke.sh <fdd-binary> <stats-dir>}
TOOLS_DIR="$(cd "$(dirname "$0")" && pwd)"
WORK=$(mktemp -d /tmp/fdd-cli.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$STATS"

# expect_usage_error <fdd arguments>: fdd must exit 2.
expect_usage_error() {
  local rc=0
  "$FDD" "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "fdd $* exited $rc, want 2"; exit 1
  fi
}

# Malformed numeric and byte-size flags are usage errors, caught before
# the daemon binds or the store opens.
expect_usage_error serve "$WORK/store" "unix:$WORK/sock" --threads=abc
expect_usage_error serve "$WORK/store" "unix:$WORK/sock" --quota-bytes=12x
mkdir "$WORK/empty"
expect_usage_error verify "$WORK/empty" --threads=4x
expect_usage_error verify "$WORK/empty" --cache-bytes=-5
# A flag the subcommand does not take is refused, not ignored.
expect_usage_error backup "$WORK/src" ci-pass --remote="unix:$WORK/sock" \
    --compress=deflate
expect_usage_error restore "$WORK/empty" "$WORK/out" ci-pass --threads=4
expect_usage_error list "$WORK/empty" --keep-hot=1
# Every subcommand but backup and serve refuses a missing store.
NOSTORE="$WORK/no-such-store"
expect_usage_error restore "$NOSTORE" "$WORK/out" ci-pass
expect_usage_error list "$NOSTORE"
expect_usage_error delete "$NOSTORE" big.bin
expect_usage_error gc "$NOSTORE"
expect_usage_error verify "$NOSTORE"
expect_usage_error stats "$NOSTORE"
if [ -e "$NOSTORE" ] || [ -e "$WORK/store" ] || [ -e "$WORK/out" ]; then
  echo "a refused command created a directory"; exit 1
fi

# Round trip.
mkdir -p "$WORK/src"
head -c 8388608 /dev/urandom > "$WORK/src/big.bin"
head -c 1048576 /dev/urandom > "$WORK/src/small.bin"
"$FDD" backup "$WORK/store" "$WORK/src" ci-pass --stats=json \
    | tee "$STATS/backup.json"
FDD_TRACE="$STATS/restore_trace.json" \
    "$FDD" restore "$WORK/store" "$WORK/out" ci-pass --stats=json \
    | tee "$STATS/restore.json"
cmp "$WORK/src/big.bin" "$WORK/out/big.bin"
cmp "$WORK/src/small.bin" "$WORK/out/small.bin"
printf 'edited' | dd of="$WORK/src/small.bin" bs=1 seek=4096 conv=notrunc \
    status=none
"$FDD" backup "$WORK/store" "$WORK/src" ci-pass
"$FDD" restore "$WORK/store" "$WORK/out2" ci-pass
cmp "$WORK/src/big.bin" "$WORK/out2/big.bin"
cmp "$WORK/src/small.bin" "$WORK/out2/small.bin"
"$FDD" verify "$WORK/store" --deep=ci-pass --threads=4
"$FDD" delete "$WORK/store" small.bin
"$FDD" gc "$WORK/store" --stats=json | tee "$STATS/gc.json"
"$FDD" verify "$WORK/store" --deep=ci-pass --threads=4 --stats=json \
    | tee "$STATS/verify.json"
python3 "$TOOLS_DIR/check_stats.py" "$STATS/backup.json" "$STATS/restore.json" \
    "$STATS/gc.json" "$STATS/verify.json"
python3 - "$STATS/restore_trace.json" <<'PY'
import json, sys
events = json.load(open(sys.argv[1]))
assert events and all("ph" in e for e in events)
print(len(events), "trace events, valid JSON")
PY

# Tiered. The backups are MLE ciphertext, so every container frame takes
# the incompressible fallback; the storage suites cover the codec frames.
TIER="$WORK/tier"
mkdir -p "$TIER/src"
seq 1 300000 > "$TIER/src/text1.txt"
seq 500000 900000 > "$TIER/src/text2.txt"
head -c 2097152 /dev/urandom > "$TIER/src/noise.bin"
"$FDD" backup "$TIER/store" "$TIER/src" ci-pass --compress=deflate \
    --stats=json | tee "$STATS/tier_backup.json"
"$FDD" gc "$TIER/store" --demote-on-gc --keep-hot=1 --stats=json \
    | tee "$STATS/tier_gc.json"
if [ -z "$(ls "$TIER/store/cold")" ]; then
  echo "gc demoted no container"; exit 1
fi
"$FDD" restore "$TIER/store" "$TIER/out" ci-pass --cache-bytes=8m \
    --stats=json | tee "$STATS/tier_restore.json"
for f in text1.txt text2.txt noise.bin; do
  cmp "$TIER/src/$f" "$TIER/out/$f"
done
"$FDD" verify "$TIER/store" --deep=ci-pass --threads=4 --stats=json \
    | tee "$STATS/tier_verify.json"
python3 "$TOOLS_DIR/check_stats.py" "$STATS/tier_backup.json" "$STATS/tier_gc.json" \
    "$STATS/tier_restore.json" "$STATS/tier_verify.json"

# Dedup ratio. The second backup of an unchanged file adds no chunk, so
# its own ratio (bytes backed up over bytes added) reads "inf".
RATIO="$WORK/ratio"
mkdir -p "$RATIO/src"
head -c 2097152 /dev/urandom > "$RATIO/src/same.bin"
"$FDD" backup "$RATIO/store" "$RATIO/src" ci-pass
second=$("$FDD" backup "$RATIO/store" "$RATIO/src" ci-pass)
echo "$second"
python3 - "$second" <<'PY'
import re, sys
m = re.search(r"dedup ratio (inf|[0-9.]+)", sys.argv[1])
assert m and float(m.group(1)) > 1, "second backup's ratio is not above 1"
print("second backup's dedup ratio:", m.group(1))
PY

echo "cli smoke OK"
