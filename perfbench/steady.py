"""Steadiness report: how much each end-to-end metric moves across repeated runs.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload real-mini
    python3 perfbench/steady.py --runs 10 --write STEADINESS.json

Runs ``run.py --trace 0`` ``--runs`` times per workload for ``run_seconds``
(from ``BENCHMARK.json``), with seeds 1, 2, ..., then prints each metric's
median, quartiles and relative spread (``(q3 - q1) / median``, quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound.  A spread under a third of the bound is steady; ``setup_s`` has no
spread gate, only its bound on the median.

``--write`` appends this set to ``perfbench/FILE`` (the file keeps the last
two) and prints, per workload and metric, how far the later set's median
moved from the earlier one against the bound: two sets of runs of the same
code, taken at different times, should agree within it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

#: The first seed; run ``i`` uses ``SEED_BASE + i``.
SEED_BASE = 1

#: Sets of runs kept in the written report.
KEEP_SETS = 2


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def measure(names, runs: int, seconds: int, bounds: dict):
    """Run every workload ``runs`` times; returns (steady, per-workload summary)."""
    steady = True
    workloads = {}
    for name in names:
        values: dict = {}
        correct = True
        for i in range(runs):
            seed = SEED_BASE + i
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        print(f"\n{name}: {runs} runs, correct={correct}")
        print(f"  {'metric':<14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for metric, vals in values.items():
            stats = spread(vals)
            bound = bounds[metric]
            summary[metric] = dict(stats, values=vals)
            flag = ""
            if metric != "setup_s":
                ok = stats["spread"] < bound / 3
                steady &= ok
                flag = "steady" if ok else "WIDE"
            print(f"  {metric:<14s} {stats['median']:>12.6g} {stats['q1']:>12.6g} "
                  f"{stats['q3']:>12.6g} {100 * stats['spread']:>7.2f}% {bound:>6.2f} {flag}")
        workloads[name] = {"correct": correct, "metrics": summary}
        steady &= correct
    return steady, workloads


def drift(before: dict, after: dict, bounds: dict):
    """How far each median moved from the earlier set, against the bound.

    Returns (agree, rows); ``change`` is ``(after - before) / before``, and a
    metric agrees when it did not get worse by more than its bound.
    """
    agree = True
    rows = {}
    for name, entry in after["workloads"].items():
        earlier = before["workloads"].get(name)
        if earlier is None:
            continue
        rows[name] = {}
        for metric, stats in entry["metrics"].items():
            old = earlier["metrics"][metric]["median"]
            change = (stats["median"] - old) / old
            ok = change <= bounds[metric]
            agree &= ok
            rows[name][metric] = {"change": change, "bound": bounds[metric], "agrees": ok}
    return agree, rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--write", default=None, metavar="FILE",
                        help="append this set to perfbench/FILE (keeps the last two)")
    args = parser.parse_args()
    run.check_checkout()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    steady, workloads = measure(names, args.runs, bench["run_seconds"], bounds)
    this = {"started": started, "runs": args.runs, "seconds": bench["run_seconds"],
            "workloads": workloads}
    if not args.write:
        return 0 if steady else 1

    path = os.path.join(run.HERE, os.path.basename(args.write))
    sets = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            sets = json.load(fh)["sets"]
    sets = (sets + [this])[-KEEP_SETS:]
    report = {"host": host_fingerprint(), "sets": sets, "drift": []}
    agree = True
    for i, before in enumerate(sets):
        for after in sets[i + 1:]:
            ok, rows = drift(before, after, bounds)
            agree &= ok
            report["drift"].append({"between": [before["started"], after["started"]],
                                    "agree": ok, "workloads": rows})
            print(f"\nmedian change from the set of {before['started']} "
                  f"to the set of {after['started']}:")
            for name, metrics in rows.items():
                for metric, row in metrics.items():
                    print(f"  {name:<14s} {metric:<12s} {100 * row['change']:>+7.2f}%  "
                          f"bound {100 * row['bound']:.0f}%  "
                          f"{'agrees' if row['agrees'] else 'WORSE'}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(path, run.ROOT)}")
    return 0 if steady and agree else 1


if __name__ == "__main__":
    sys.exit(main())
