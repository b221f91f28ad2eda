#!/usr/bin/env python3
"""Sanity-check a --stats=json dump from fdd.

Usage: check_stats.py <file> [<file>...]

Each file is CLI output whose last '{'-prefixed line is the single-line
JSON metrics snapshot (or a bare .json file). Checks, per file:
  - the snapshot parses and has the counters/gauges/histograms sections;
  - at least one work counter is nonzero (a backup that chunked nothing,
    a restore that streamed nothing or a gc that never ran is a broken
    run);
  - the container read cache hit rate is a real rate in [0, 1];
  - block cache accounting: hits + misses == lookups, and the byte
    gauges respect cached_bytes <= peak_cached_bytes <= budget_bytes
    (the budget gauge is only emitted for bounded caches);
  - tiering: tier.promotions <= tier.cold_reads (every promotion is
    driven by a cold read) and the placement gauges are non-negative;
  - backup.seal_memo_hits <= backup.chunks_duplicate (a chunk stored from
    the client's seal memo, without encrypting it again, is a duplicate);
  - byte conservation through the chunker: the chunk.size_bytes histogram
    counts chunk.chunks_produced chunks summing to chunk.bytes_total, and
    chunk.bytes_total <= backup.bytes_appended (a chunker that drops or
    duplicates bytes breaks one of the three);
  - settled gauges: restore.prefetch_window reads 0;
  - every histogram's count/sum/bucket totals are internally consistent.

When the snapshot carries daemon counters (any "server." counter, as from
`fdd serve` at exit or `fdd stats --remote`), it is additionally checked as a
daemon dump:
  - server.requests > 0 and server.request_errors <= server.requests;
  - frame accounting: frames_rx >= requests, frames_tx > 0, bytes flowing;
  - connection lifecycle: connections_opened >= connections_closed > 0,
    server.active_connections == opened - closed;
  - per tenant: cross_tenant_dedup_hits <= dedup_hits <= chunks, and the
    usage gauges (logical_bytes, backups) are non-negative.

Exit code 0 when every file passes, 1 otherwise.
"""
import json
import sys

WORK_COUNTERS = (
    "chunk.chunks_produced",
    "restore.chunks_streamed",
    "store.chunk_reads",
    "store.put_chunks",
    "store.gc_runs",
)
SETTLED_GAUGES = (
    "restore.prefetch_window",
)


def extract_snapshot(path):
    text = open(path, encoding="utf-8").read().strip()
    lines = [ln for ln in text.splitlines() if ln.startswith("{")]
    if not lines:
        raise ValueError("no JSON object line found")
    return json.loads(lines[-1])


def check_server(snap):
    """Daemon-specific invariants; no-op for non-daemon snapshots."""
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    if not any(name.startswith("server.") for name in counters):
        return []
    errors = []

    requests = counters.get("server.requests", 0)
    if requests <= 0:
        errors.append("server.requests is zero in a daemon dump")
    if counters.get("server.request_errors", 0) > requests:
        errors.append(
            f"server.request_errors {counters.get('server.request_errors')} "
            f"> server.requests {requests}"
        )
    # Every request arrives in a frame (the Hello frame makes rx strictly
    # greater in practice, but >= is the invariant).
    if counters.get("server.frames_rx", 0) < requests:
        errors.append(
            f"server.frames_rx {counters.get('server.frames_rx', 0)} < "
            f"server.requests {requests}"
        )
    if counters.get("server.frames_tx", 0) <= 0:
        errors.append("server.frames_tx is zero")
    if counters.get("server.bytes_rx", 0) <= 0:
        errors.append("server.bytes_rx is zero")

    opened = counters.get("server.connections_opened", 0)
    closed = counters.get("server.connections_closed", 0)
    if opened <= 0:
        errors.append("server.connections_opened is zero in a daemon dump")
    # Every auth failure happened on some accepted connection.
    if counters.get("server.auth_failures", 0) > opened:
        errors.append(
            f"server.auth_failures {counters.get('server.auth_failures')} "
            f"> connections_opened {opened}"
        )
    if closed > opened:
        errors.append(
            f"server.connections_closed {closed} > connections_opened {opened}"
        )
    # The gauge must agree with the counters at snapshot time (the snapshot
    # itself is usually served over one still-open connection).
    active = gauges.get("server.active_connections")
    if active is not None and active != opened - closed:
        errors.append(
            f"server.active_connections {active} != opened-closed "
            f"{opened - closed}"
        )

    # Per-tenant dedup accounting: cross-tenant hits are a subset of dedup
    # hits, which are a subset of chunks written.
    tenants = set()
    for name in counters:
        if name.startswith("tenant.") and name.count(".") >= 2:
            tenants.add(name.split(".")[1])
    for tenant in sorted(tenants):
        chunks = counters.get(f"tenant.{tenant}.chunks", 0)
        dedup = counters.get(f"tenant.{tenant}.dedup_hits", 0)
        cross = counters.get(f"tenant.{tenant}.cross_tenant_dedup_hits", 0)
        if cross > dedup:
            errors.append(
                f"tenant {tenant}: cross_tenant_dedup_hits {cross} > "
                f"dedup_hits {dedup}"
            )
        if dedup > chunks:
            errors.append(
                f"tenant {tenant}: dedup_hits {dedup} > chunks {chunks}"
            )
        for gauge in ("logical_bytes", "backups"):
            v = gauges.get(f"tenant.{tenant}.{gauge}", 0)
            if v < 0:
                errors.append(f"tenant {tenant}: gauge {gauge} negative: {v}")
    return errors


def check(path):
    errors = []
    snap = extract_snapshot(path)
    for section in ("counters", "gauges", "histograms"):
        if section not in snap:
            errors.append(f"missing section '{section}'")
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})

    if not any(counters.get(name, 0) > 0 for name in WORK_COUNTERS):
        errors.append(f"all work counters are zero ({', '.join(WORK_COUNTERS)})")

    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    lookups = counters.get("cache.lookups", 0)
    if hits < 0 or misses < 0:
        errors.append("negative cache counters")
    elif hits + misses > 0:
        rate = hits / (hits + misses)
        if not 0.0 <= rate <= 1.0:
            errors.append(f"cache hit rate {rate} outside [0, 1]")
    # Every lookup resolves as exactly one hit or one miss.
    if hits + misses != lookups:
        errors.append(
            f"cache.hits {hits} + cache.misses {misses} != "
            f"cache.lookups {lookups}"
        )

    # Byte-budget accounting: the resident bytes never exceed the peak, and
    # the peak never exceeds the configured budget. cache.budget_bytes is
    # only emitted for bounded caches, so its absence skips the budget leg.
    cached = gauges.get("cache.cached_bytes", 0)
    peak = gauges.get("cache.peak_cached_bytes", 0)
    budget = gauges.get("cache.budget_bytes")
    if cached < 0:
        errors.append(f"cache.cached_bytes negative: {cached}")
    if cached > peak:
        errors.append(
            f"cache.cached_bytes {cached} > cache.peak_cached_bytes {peak}"
        )
    if budget is not None:
        if cached > budget:
            errors.append(
                f"cache.cached_bytes {cached} > cache.budget_bytes {budget}"
            )
        if peak > budget:
            errors.append(
                f"cache.peak_cached_bytes {peak} > "
                f"cache.budget_bytes {budget}"
            )

    # Tiering: promotions only happen in service of a cold read, and the
    # placement gauges (container/byte counts per tier) can never go
    # negative no matter how demote/promote/gc interleave.
    promotions = counters.get("tier.promotions", 0)
    cold_reads = counters.get("tier.cold_reads", 0)
    if promotions > cold_reads:
        errors.append(
            f"tier.promotions {promotions} > tier.cold_reads {cold_reads}"
        )
    for name in ("tier.hot_containers", "tier.hot_bytes",
                 "tier.cold_containers", "tier.cold_bytes"):
        v = gauges.get(name, 0)
        if v < 0:
            errors.append(f"gauge {name} negative: {v}")

    # A seal-memo hit is a chunk stored without encrypting it again, which
    # only a duplicate can be.
    memo_hits = counters.get("backup.seal_memo_hits", 0)
    duplicates = counters.get("backup.chunks_duplicate", 0)
    if memo_hits > duplicates:
        errors.append(
            f"backup.seal_memo_hits {memo_hits} > "
            f"backup.chunks_duplicate {duplicates}"
        )

    # Every appended byte lands in exactly one chunk; an object still open
    # (or aborted) has bytes appended but not yet chunked.
    sizes = snap.get("histograms", {}).get("chunk.size_bytes", {})
    produced = counters.get("chunk.chunks_produced", 0)
    chunked = counters.get("chunk.bytes_total", 0)
    appended = counters.get("backup.bytes_appended", 0)
    if sizes.get("count", 0) != produced:
        errors.append(
            f"chunk.size_bytes count {sizes.get('count', 0)} != "
            f"chunk.chunks_produced {produced}"
        )
    if sizes.get("sum", 0) != chunked:
        errors.append(
            f"chunk.size_bytes sum {sizes.get('sum', 0)} != "
            f"chunk.bytes_total {chunked}"
        )
    if chunked > appended:
        errors.append(
            f"chunk.bytes_total {chunked} > backup.bytes_appended {appended}"
        )

    for name in SETTLED_GAUGES:
        if gauges.get(name, 0) != 0:
            errors.append(f"gauge {name} did not settle to 0: {gauges[name]}")

    errors.extend(check_server(snap))

    for name, h in snap.get("histograms", {}).items():
        bucket_total = sum(count for _, count in h.get("buckets", []))
        if bucket_total != h.get("count", 0):
            errors.append(
                f"histogram {name}: bucket counts {bucket_total} != "
                f"count {h.get('count', 0)}"
            )
        if h.get("count", 0) > 0 and h.get("max", 0) < h.get("min", 0):
            errors.append(f"histogram {name}: max < min")
        if h.get("count", 0) == 0 and h.get("sum", 0) != 0:
            errors.append(f"histogram {name}: empty but sum != 0")

    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            errors = check(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            errors = [str(e)]
        if errors:
            failed = True
            for e in errors:
                print(f"{path}: FAIL: {e}")
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
