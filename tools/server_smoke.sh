#!/usr/bin/env bash
# End-to-end daemon smoke: start `fdd serve` on a unix socket, drive two
# concurrent tenants through backup -> restore -> byte-compare -> delete
# with `fdd --remote`, check tenant namespaces and authentication, validate
# the server/tenant metrics live and at daemon exit, shut the daemon down
# remotely and check that it exits cleanly, serve the same store again and
# check that the tenant usage gauges come back unchanged, then gc and
# verify the store it leaves behind.
#
# Usage: server_smoke.sh <fdd-binary> <stats-dir>
# Works in its own mktemp directory under /tmp, so the socket path stays
# short and parallel runs never share a socket. The live and final stats
# dumps and the daemon log are kept in <stats-dir>. Exits non-zero on any
# failure. ctest runs it as cli.server_smoke.
set -euo pipefail

FDD=${1:?usage: server_smoke.sh <fdd-binary> <stats-dir>}
STATS=${2:?usage: server_smoke.sh <fdd-binary> <stats-dir>}
TOOLS_DIR="$(cd "$(dirname "$0")" && pwd)"
WORK=$(mktemp -d /tmp/fdd-server.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$STATS" "$WORK/src-acme" "$WORK/src-beta"
SOCK="unix:$WORK/sock"
STORE="$WORK/store"
LOG="$STATS/daemon.log"

# Distinct data per tenant plus one shared file, so the smoke crosses the
# cross-tenant dedup path too.
head -c 4194304 /dev/urandom > "$WORK/src-acme/big.bin"
head -c  524288 /dev/urandom > "$WORK/src-acme/small.bin"
head -c 2097152 /dev/urandom > "$WORK/src-beta/other.bin"
cp "$WORK/src-acme/big.bin" "$WORK/src-beta/big.bin"

"$FDD" serve "$STORE" "$SOCK" --threads=4 --quota-bytes=64m \
    --stats=json > "$LOG" 2>&1 &
DAEMON_PID=$!
trap 'kill -9 "$DAEMON_PID" 2>/dev/null || true; wait "$DAEMON_PID" || true;
      rm -rf "$WORK"' EXIT

# The daemon prints "fdd serve: listening on ..." once it is accepting.
for _ in $(seq 1 300); do
  grep -q "fdd serve: listening on" "$LOG" && break
  kill -0 "$DAEMON_PID" 2>/dev/null || {
    echo "daemon died during startup:"; cat "$LOG"; exit 1; }
  sleep 0.1
done
grep -q "fdd serve: listening on" "$LOG" || {
  echo "daemon never started listening:"; cat "$LOG"; exit 1; }

# Two tenants back up CONCURRENTLY through the one daemon.
"$FDD" backup "$WORK/src-acme" acme-pass --remote="$SOCK" --tenant=acme &
ACME_PID=$!
"$FDD" backup "$WORK/src-beta" beta-pass --remote="$SOCK" --tenant=beta &
BETA_PID=$!
wait "$ACME_PID"
wait "$BETA_PID"

# Namespaces: each tenant lists exactly its own files.
"$FDD" list --remote="$SOCK" --tenant=acme --pass=acme-pass | sort \
    > "$WORK/acme.list"
printf 'big.bin\nsmall.bin\n' | diff - "$WORK/acme.list"
"$FDD" list --remote="$SOCK" --tenant=beta --pass=beta-pass | sort \
    > "$WORK/beta.list"
printf 'big.bin\nother.bin\n' | diff - "$WORK/beta.list"

# Tenant auth: claiming acme's id with the wrong passphrase must fail.
if "$FDD" list --remote="$SOCK" --tenant=acme --pass=wrong-pass \
    > /dev/null 2>&1; then
  echo "wrong passphrase was accepted for tenant acme"; exit 1
fi

# Restore (concurrently) and byte-compare everything.
"$FDD" restore "$WORK/out-acme" acme-pass --remote="$SOCK" --tenant=acme &
ACME_PID=$!
"$FDD" restore "$WORK/out-beta" beta-pass --remote="$SOCK" --tenant=beta &
BETA_PID=$!
wait "$ACME_PID"
wait "$BETA_PID"
cmp "$WORK/src-acme/big.bin"   "$WORK/out-acme/big.bin"
cmp "$WORK/src-acme/small.bin" "$WORK/out-acme/small.bin"
cmp "$WORK/src-beta/big.bin"   "$WORK/out-beta/big.bin"
cmp "$WORK/src-beta/other.bin" "$WORK/out-beta/other.bin"

# Live stats over the socket must pass the daemon invariants.
"$FDD" stats --remote="$SOCK" --tenant=acme --pass=acme-pass \
    > "$STATS/server_stats.json"
python3 "$TOOLS_DIR/check_stats.py" "$STATS/server_stats.json"

# Delete one backup per tenant; acme's copy of big.bin must survive beta's.
"$FDD" delete small.bin --remote="$SOCK" --tenant=acme --pass=acme-pass
"$FDD" delete big.bin   --remote="$SOCK" --tenant=beta --pass=beta-pass
"$FDD" restore "$WORK/out-acme2" acme-pass --remote="$SOCK" --tenant=acme
cmp "$WORK/src-acme/big.bin" "$WORK/out-acme2/big.bin"

# The tenant usage gauges the restarted daemon must derive again.
"$FDD" stats --remote="$SOCK" --tenant=acme --pass=acme-pass \
    > "$STATS/server_stats_before_restart.json"

# Remote shutdown; the daemon must exit 0 and dump a clean final snapshot.
"$FDD" shutdown --remote="$SOCK" --tenant=acme --pass=acme-pass
DAEMON_RC=0
wait "$DAEMON_PID" || DAEMON_RC=$?
trap 'rm -rf "$WORK"' EXIT
if [ "$DAEMON_RC" -ne 0 ]; then
  echo "daemon exited with $DAEMON_RC:"; cat "$LOG"; exit 1
fi
grep -q "fdd serve: stopped" "$LOG"
python3 "$TOOLS_DIR/check_stats.py" "$LOG"

# Serve the same store again: usage is derived from the manifests at
# startup, so both tenants' logical_bytes and backups gauges must equal
# those before the restart.
LOG2="$STATS/daemon_restart.log"
"$FDD" serve "$STORE" "$SOCK" --threads=4 --quota-bytes=64m \
    --stats=json > "$LOG2" 2>&1 &
DAEMON_PID=$!
trap 'kill -9 "$DAEMON_PID" 2>/dev/null || true; wait "$DAEMON_PID" || true;
      rm -rf "$WORK"' EXIT
for _ in $(seq 1 300); do
  grep -q "fdd serve: listening on" "$LOG2" && break
  kill -0 "$DAEMON_PID" 2>/dev/null || {
    echo "restarted daemon died during startup:"; cat "$LOG2"; exit 1; }
  sleep 0.1
done
grep -q "fdd serve: listening on" "$LOG2" || {
  echo "restarted daemon never started listening:"; cat "$LOG2"; exit 1; }
"$FDD" stats --remote="$SOCK" --tenant=beta --pass=beta-pass \
    > "$STATS/server_stats_after_restart.json"
python3 - "$STATS/server_stats_before_restart.json" \
    "$STATS/server_stats_after_restart.json" <<'EOF'
import json
import sys

before, after = (json.load(open(p))["gauges"] for p in sys.argv[1:])
for tenant in ("acme", "beta"):
    for gauge in ("logical_bytes", "backups"):
        name = f"tenant.{tenant}.{gauge}"
        if before.get(name) != after.get(name):
            sys.exit(f"{name}: {before.get(name)} before the restart, "
                     f"{after.get(name)} after")
EOF
"$FDD" restore "$WORK/out-acme3" acme-pass --remote="$SOCK" --tenant=acme
cmp "$WORK/src-acme/big.bin" "$WORK/out-acme3/big.bin"
"$FDD" stats --remote="$SOCK" --tenant=acme --pass=acme-pass \
    > "$STATS/server_stats_restarted.json"
python3 "$TOOLS_DIR/check_stats.py" "$STATS/server_stats_restarted.json"
"$FDD" shutdown --remote="$SOCK" --tenant=acme --pass=acme-pass
DAEMON_RC=0
wait "$DAEMON_PID" || DAEMON_RC=$?
trap 'rm -rf "$WORK"' EXIT
if [ "$DAEMON_RC" -ne 0 ]; then
  echo "restarted daemon exited with $DAEMON_RC:"; cat "$LOG2"; exit 1
fi

# The store the daemon leaves behind is a normal store: gc the deleted
# backups' chunks, then cross-check index, containers and manifests.
"$FDD" gc "$STORE"
"$FDD" verify "$STORE"

echo "server smoke OK"
