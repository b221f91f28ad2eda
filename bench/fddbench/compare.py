#!/usr/bin/env python3
"""Compares two sets of fddbench runs: a parent commit against a change.

    python3 bench/fddbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run JSONs as `run.py --keep DIR` writes them; traced
runs are ignored. Runs pair by seed. For every (workload, end-to-end
metric) it prints both sides' median and quartiles, the change's win
fraction over pairs (ties count for neither side) and a verdict from the
metric's bound in BENCHMARK.json:

  regressed   the change's median is worse than the parent's by more than
              the bound allows;
  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound;
  unchanged   otherwise.

Exits 1 on any regression, any rise in the share of failed operations, or
any run whose checks failed.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(directory):
    """{workload: {seed: run}} of the untraced runs in a directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            run = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(run, dict) or "header" not in run or run["traced"]:
            continue
        header = run["header"]
        runs.setdefault(header["workload"], {})[int(header["seed"])] = run
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def share(part, whole):
    """part / whole; against a zero median (a broken run) any nonzero part
    counts as 100 %."""
    if whole:
        return part / whole
    return 0.0 if part == 0 else 1.0


def verdict(parent, change, pairs, metric):
    bound, higher = metric["bound"], metric["better"] == "higher"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = share(pm - cm if higher else cm - pm, pm)
    wins = sum(1 for p, c in pairs if (c > p if higher else c < p))
    win_share = wins / len(pairs) if pairs else 0.0
    if worse > bound:
        result = "regressed"
    elif win_share >= 0.9 and abs(cm - pm) > p3 - p1:
        result = "improved"
    elif share(p3 - p1, pm) > bound or share(c3 - c1, cm) > bound:
        result = "unresolved"
    else:
        result = "unchanged"
    return (p1, pm, p3), (c1, cm, c3), win_share, result


def error_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / max(attempted, 1)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    failing = False
    header = (f"{'workload':16} {'metric':30} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>5}  verdict")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        if not p_runs or not c_runs:
            print(f"{workload:16} missing runs (parent {len(p_runs)}, "
                  f"change {len(c_runs)})")
            failing = True
            continue
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            for seed, run in sorted(runs.items()):
                if not run["correct"]:
                    print(f"{workload:16} {side} seed {seed}: failed checks: "
                          f"{run['failures']}")
                    failing = True
        p_err = error_share(p_runs.values())
        c_err = error_share(c_runs.values())
        if c_err > p_err:
            print(f"{workload:16} failed-operation share rose: "
                  f"{100 * p_err:.3f}% -> {100 * c_err:.3f}%")
            failing = True
        seeds = sorted(set(p_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"],
                      c_runs[s]["metrics"][name]["value"]) for s in seeds]
            pq, cq, wins, result = verdict(pv, cv, pairs, metric)
            failing |= result == "regressed"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:16} {name:30} {fmt.format(*pq):>32} "
                  f"{fmt.format(*cq):>32} {wins:5.2f}  {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
