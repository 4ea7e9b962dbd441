"""The repository's benchmark: one workload per call, golden-checked passes.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seconds 20          # every workload, one table

Run from the repository root.  A run:

1. imports the program from ``src/`` and builds the workload from ``--seed``;
2. times ``setup_s``: a fresh interpreter importing the CLI, loading the
   scenario and building the platform (``setup_probe.py``), several times,
   median reported;
3. runs passes of the workload until ``--seconds`` have elapsed, timing each
   pass (serial engine, one process) and checking every pass's outputs
   against ``golden.json``;
4. prints readable lines, then one JSON line with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

Host times that are gated (``norm_wall_s``, ``setup_s``) are normalized to
a fixed host speed by ``hostspeed.SpeedClock``, which samples the speed of the
shared host while the timed code runs; the raw host seconds are printed
beside them.

With ``--trace 0`` the metrics are the end-to-end ones (``norm_wall_s``,
``setup_s``, ``peak_rss_mb``).  With ``--trace 1`` untraced and traced passes
alternate, the traced ones attribute host time to layers (``layers.py``) and
the metrics are the per-layer ones; the span table is written once, at exit,
to ``.perfbench/trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh-process set-up samples per run (median reported).
SETUP_SAMPLES = 5


def check_checkout() -> None:
    """Refuse to run anywhere but a checkout holding the program's sources."""
    missing = [
        path
        for path in (os.path.join("src", "repro", "__init__.py"),
                     os.path.join("scenarios", "paper-caddy-150.yaml"))
        if not os.path.isfile(os.path.join(ROOT, path))
    ]
    if missing:
        print(f"perfbench: not a repository checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure_setup(workload: str, seed: int) -> Dict[str, float]:
    """Median fresh-process set-up time and its phases over SETUP_SAMPLES runs.

    ``setup_s`` and the phases are the probe's speed-normalized seconds;
    ``setup.raw_s`` is the raw spawn-to-exit time of the probe process.
    """
    walls: List[float] = []
    parts: Dict[str, List[float]] = {}
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        for key, value in json.loads(proc.stdout.strip().splitlines()[-1]).items():
            parts.setdefault(key, []).append(value)
    out = {f"setup.{key}": statistics.median(values) for key, values in parts.items()}
    out["setup_s"] = out.pop("setup.total_s")
    out["setup.raw_s"] = statistics.median(walls)
    return out


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_pass(workload, tracer, pass_id: int):
    """Run one pass; returns (host s, normalized s, digests, notes, per-layer metrics).

    Untraced passes run under a :class:`hostspeed.SpeedClock` and return
    ``None`` metrics.  A traced pass is not normalized (``None``); it
    installs the layer wrappers for its own duration only and checks that the
    layer self times plus the unattributed remainder equal the root span
    exactly.
    """
    import layers
    from hostspeed import SpeedClock

    workload.prepare()
    gc.collect()
    try:
        metrics = normalized = None
        if tracer is None:
            clock = SpeedClock().start()
            try:
                workload.run()
            finally:
                clock.stop()
            elapsed, normalized = clock.wall_s, clock.normalized_s
        else:
            layers.install(tracer)
            first = tracer.reset()
            try:
                with tracer.root(pass_id) as root:
                    workload.run()
            finally:
                tracer.uninstall()
            elapsed = root.duration_ns / 1e9
            metrics = layers.pass_metrics(tracer, first, root.duration_ns,
                                          workload.extra_counts())
            metrics["trace.identity_ok"] = sum(tracer.self_ns.values()) == root.duration_ns
        return elapsed, normalized, workload.digests(), workload.notes(), metrics
    finally:
        workload.cleanup()


def run_workload(args) -> dict:
    import workloads
    from tracer import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.make(args.workload, ROOT, args.seed, workdir)
    pinned = workloads.load_golden().get(workload.golden_key())
    if pinned is None:
        raise SystemExit(f"perfbench: no pinned digests for {workload.golden_key()}")

    setup = measure_setup(args.workload, args.seed)

    tracer = Tracer() if args.trace else None
    walls: List[float] = []
    normalized: List[float] = []
    traced_walls: List[float] = []
    layer_passes: List[dict] = []
    identity_ok = True
    attempted = failed = 0
    model_errs: List[float] = []
    deadline = time.perf_counter() + args.seconds
    n = 0
    try:
        while True:
            traced = tracer is not None and n % 2 == 1
            try:
                elapsed, norm, got, notes, metrics = one_pass(
                    workload, tracer if traced else None, n)
            except Exception:  # a pass that raises fails all of its units
                traceback.print_exc()
                attempted += workload.units_per_pass
                failed += workload.units_per_pass
            else:
                attempted += workload.units_per_pass
                bad = workload.check(got, pinned)
                failed += bad
                if bad:
                    print(f"pass {n}: {bad} unit(s) differ from golden.json", file=sys.stderr)
                if "model_err_pct" in notes:
                    model_errs.append(notes["model_err_pct"])
                if traced:
                    traced_walls.append(elapsed)
                    identity_ok &= metrics.pop("trace.identity_ok")
                    layer_passes.append(metrics)
                else:
                    walls.append(elapsed)
                    normalized.append(norm)
            n += 1
            # Start another pass only if at least half of a typical one fits
            # before the deadline; trace runs make one pass of each kind.
            typical = statistics.median(walls + traced_walls) if walls or traced_walls else 0.0
            if time.perf_counter() + typical / 2 >= deadline and (tracer is None or n >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.save(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "walls": walls,
        "normalized": normalized,
        "traced_walls": traced_walls,
        "attempted": attempted,
        "failed": failed,
        "setup": setup,
        "peak_rss_mb": peak_rss_mb(),
        "model_err_pct": max(model_errs) if model_errs else None,
        "layer_passes": layer_passes,
        "identity_ok": identity_ok,
    }
    return report


def summarize(report: dict, trace: bool) -> dict:
    """Readable lines on stdout; returns the final JSON object."""
    import layers

    attempted, failed = report["attempted"], report["failed"]
    walls = report["walls"]
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{len(walls)} untraced + {len(report['traced_walls'])} traced passes")
    if walls:
        q1, med, q3 = quartiles(report["normalized"])
        print(f"  norm_wall_s median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(walls)}")
        q1, med, q3 = quartiles(walls)
        print(f"  (raw wall   median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}; "
              f"host at {med and statistics.median(report['normalized']) / med:.3f}"
              " x reference speed)")
    setup = report["setup"]
    print(f"  setup_s     median {setup['setup_s']:.4f} s  "
          f"(import {setup['setup.import_s']:.4f}, "
          f"scenario {setup['setup.scenario_s']:.4f}, "
          f"platform {setup['setup.platform_s']:.4f}; raw process {setup['setup.raw_s']:.4f} s)")
    print(f"  peak_rss_mb {report['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio  {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    if report["model_err_pct"] is not None:
        print(f"  model_err_pct {report['model_err_pct']:.4f} % (max held-out Eq. 5 error)")
    correct = failed == 0 and attempted > 0 and bool(walls)
    metrics: Dict[str, dict] = {}
    if not trace:
        values = {
            "norm_wall_s": statistics.median(report["normalized"]) if walls else 0.0,
            "setup_s": report["setup"]["setup_s"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.declared_metrics("end_to_end").items()}
    else:
        passes = report["layer_passes"]
        correct &= bool(passes) and report["identity_ok"]
        if not report["identity_ok"]:
            print("  trace: layer self times do not sum to the root span", file=sys.stderr)
        counts = [{k: p[k] for k in layers.COUNTS} for p in passes]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            print("  trace: per-layer counts differ between traced passes", file=sys.stderr)
        values: Dict[str, float] = {}
        if passes:
            for name in passes[0]:
                values[name] = statistics.median(p[name] for p in passes)
        for key in ("setup.import_s", "setup.scenario_s", "setup.platform_s"):
            values[key] = report["setup"][key]
        if walls and report["traced_walls"]:
            values["trace.overhead"] = (
                statistics.median(report["traced_walls"]) / statistics.median(walls))
        for name, unit in layers.PER_LAYER.items():
            metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        if passes:
            root = values["trace.root_s"]
            print(f"  traced pass {root:.4f} s; self time by layer:")
            shares = sorted(((values[f"{layer}.self_s"], layer) for layer in layers.LAYERS),
                            reverse=True)
            for seconds, layer in shares:
                print(f"    {layer:<10s} {seconds:9.4f} s  {100 * seconds / root:5.1f} %")
            print(f"    {'(bench)':<10s} {values['trace.unattributed_s']:9.4f} s")
            print(f"  trace.overhead {values.get('trace.overhead', 0.0):.4f} "
                  "(traced / untraced pass wall)")
            for statement, holds in layers.predictions(report["workload"], values):
                print(f"  prediction: {statement}: {'holds' if holds else 'DOES NOT HOLD'}")
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload in turn (one subprocess each), then one table."""
    import workloads

    results = {}
    for name in workloads.all_names():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'workload':<14s} {'metric':<26s} {'value':>14s}  unit")
    for name, result in results.items():
        print(f"{name:<14s} {'fail_ratio':<26s} "
              f"{result['failed'] / result['attempted']:>14.4f}  "
              f"({result['failed']}/{result['attempted']} units)")
        for metric, entry in result["metrics"].items():
            print(f"{name:<14s} {metric:<26s} {entry['value']:>14.6g}  {entry['unit']}")
    if not args.trace:
        base = results["paper-grid"]["metrics"]["norm_wall_s"]["value"]
        inst = results["instrumented"]["metrics"]["norm_wall_s"]["value"]
        print(f"\ntelemetry_overhead = instrumented norm_wall_s {inst:.4f} s / "
              f"paper-grid norm_wall_s {base:.4f} s = {inst / base:.4f}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="paper-grid, storage-churn, instrumented or real-mini")
    parser.add_argument("--all", action="store_true", help="run every workload, print one table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check_checkout()
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    report = run_workload(args)
    result = summarize(report, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
