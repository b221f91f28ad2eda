#!/usr/bin/env python3
"""Builds fddbench from source and runs one workload.

    python3 bench/fddbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--quick] [--keep DIR]

Run from the root of a checkout. The first run configures and builds the
freqdedup library and the bench (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only relink what changed. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json with --trace 0 and every
per_layer metric with --trace 1. --keep copies the full run JSON (header,
checks, metrics) and, for traced runs, the Chrome trace into DIR, where
compare.py reads them. Exits non-zero, printing no result, when the build
or the run fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "fddbench"


def build(out):
    """Configures (once) and builds the fddbench target; returns the binary."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "--target", "fddbench",
                        "-j", jobs], check=True, stdout=sys.stderr)
    return out / "fddbench"


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", False) outside git."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"], capture_output=True,
                                text=True, check=True, timeout=10).stdout
        return sha, bool(status.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--keep", type=Path)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no freqdedup sources under {ROOT / 'src'}; "
            "run from a full checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work = out / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_json = work / "run.json"
    trace_json = work / "trace.json"
    sha, dirty = git_state()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(run_json),
           "--work-dir", str(work / "scratch"), "--git-sha", sha]
    if dirty:
        cmd.append("--git-dirty")
    if args.trace:
        cmd += ["--trace", str(trace_json)]
    if args.quick:
        cmd.append("--quick")
    try:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"fddbench ran longer than {RUN_TIMEOUT_S} s")
            return 1
        if proc.returncode != 0 or not run_json.exists():
            log(f"fddbench exited with {proc.returncode}")
            return 1
        run = json.loads(run_json.read_text())
        if args.keep:
            args.keep.mkdir(parents=True, exist_ok=True)
            stem = (f"{args.workload}-seed{args.seed}"
                    f"{'-trace' if args.trace else ''}")
            shutil.copy(run_json, args.keep / f"{stem}.json")
            if args.trace:
                shutil.copy(trace_json, args.keep / f"{stem}.trace.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"fddbench did not report {m['name']} in {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": run["correct"],
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
