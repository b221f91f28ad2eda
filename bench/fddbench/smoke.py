#!/usr/bin/env python3
"""fddbench smoke test: every workload once at --quick sizes, plus one
traced run.

    python3 bench/fddbench/smoke.py FDDBENCH_BINARY

Asserts that each untraced run reports every end-to-end metric of
BENCHMARK.json (and the traced run every per-layer metric) with its unit,
that no operation or check failed, and that the Chrome trace parses and
holds spans. Numbers from --quick runs mean nothing; only their presence
is checked.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SECONDS = "0.1"


def run(binary, workdir, workload, traced):
    out = workdir / f"{workload}{'-trace' if traced else ''}.json"
    cmd = [binary, "--workload", workload, "--seed", "1", "--quick",
           "--seconds", SECONDS, "--out", str(out),
           "--work-dir", str(workdir / "scratch")]
    trace = workdir / f"{workload}.trace.json"
    if traced:
        cmd += ["--trace", str(trace)]
    subprocess.run(cmd, check=True, timeout=60)
    result = json.loads(out.read_text())
    return result, (json.loads(trace.read_text()) if traced else None)


def check(result, wanted, label):
    errors = []
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{label}: failed operations: {result['failures']}")
    if result["error_pct"] != 0:
        errors.append(f"{label}: error_pct is {result['error_pct']}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            errors.append(f"{label}: missing metric {metric['name']}")
        elif got["unit"] != metric["unit"]:
            errors.append(f"{label}: {metric['name']} in {got['unit']}, "
                          f"expected {metric['unit']}")
    return errors


def main():
    if len(sys.argv) != 2:
        print("usage: smoke.py FDDBENCH_BINARY", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    with tempfile.TemporaryDirectory(prefix="fddbench-smoke-",
                                     dir=Path.cwd()) as tmp:
        workdir = Path(tmp)
        for workload in spec["workloads"]:
            result, _ = run(binary, workdir, workload["name"], traced=False)
            errors += check(result, spec["end_to_end"], workload["name"])
        result, trace = run(binary, workdir, "snapshot-ingest", traced=True)
        errors += check(result, spec["per_layer"], "snapshot-ingest traced")
        if not trace["traceEvents"]:
            errors.append("traced run wrote no spans")
    for error in errors:
        print(error, file=sys.stderr)
    print(f"fddbench smoke: {'FAILED' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
