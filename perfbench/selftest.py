"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

1. Two traced passes of ``storage-churn`` give identical per-layer counts.
2. In every traced pass the layer self times plus the unattributed remainder
   equal the root span exactly (integer nanoseconds), both as accumulated
   online and as recomputed from the stored span table.
3. A corrupted copy of a pass's outputs is caught: one flipped byte in a
   ``real-mini`` PNG, and one changed byte of the ``paper-grid`` study JSON,
   each make the pass's fail ratio positive.
4. The host-speed clock: an untraced ``storage-churn`` pass, interrupted by
   its speed samples, still matches ``golden.json``; the clock sampled
   during the pass; and its laps add up to its total.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import run


def check(label: str, ok: bool) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return ok


def traced_passes() -> bool:
    import layers
    import workloads
    from tracer import Tracer, self_time_from_table

    ok = True
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        workload = workloads.make("storage-churn", run.ROOT, 0, workdir)
        tracer = Tracer()
        passes = [run.one_pass(workload, tracer, i)[4] for i in range(2)]
    counts = [{k: p[k] for k in layers.COUNTS} for p in passes]
    ok &= check("two traced passes give identical per-layer counts", counts[0] == counts[1])
    ok &= check("per-layer counts are non-trivial",
                counts[0]["events.steps"] > 0 and counts[0]["storage.writes"] > 0)
    ok &= check("online self times + unattributed == root span, every pass",
                all(p["trace.identity_ok"] for p in passes))
    table = tracer.table()
    recomputed = self_time_from_table(table, tracer.layer_of)
    root = tracer.name_id("root")
    root_ns = int((table[:, 3] - table[:, 2])[table[:, 1] == root].sum())
    ok &= check("span-table self times + unattributed == root spans",
                sum(recomputed.values()) == root_ns)
    online = {layer: sum(round(p[f"{layer}.self_s"] * 1e9) for p in passes)
              for layer in layers.LAYERS}
    ok &= check("span-table self times match the online accumulators",
                all(abs(online[layer] - recomputed.get(layer, 0)) <= len(passes)
                    for layer in layers.LAYERS))
    return ok


def corrupted_outputs() -> bool:
    import workloads

    ok = True
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        real = workloads.make("real-mini", run.ROOT, 0, workdir)
        pinned = workloads.load_golden()[real.golden_key()]
        real.prepare()
        try:
            real.run()
            ok &= check("real-mini pass matches golden.json", real.check(real.digests(), pinned) == 0)
            measurement = real.handle[0]
            copy = os.path.join(workdir, "corrupted")
            shutil.copytree(measurement.label, copy)
            png = next(os.path.join(d, f) for d, _, fs in sorted(os.walk(copy))
                       for f in sorted(fs) if f.endswith(".png"))
            with open(png, "r+b") as fh:
                fh.seek(64)
                byte = fh.read(1)
                fh.seek(64)
                fh.write(bytes([byte[0] ^ 0xFF]))
            got = real.digests()
            got[f"unit/{measurement.pipeline}"] = workloads.tree_digest(copy)
            bad = real.check(got, pinned)
            ok &= check(f"corrupted PNG copy fails {bad}/{real.units_per_pass} units", bad > 0)
        finally:
            real.cleanup()

        grid = workloads.make("paper-grid", run.ROOT, 0, workdir)
        pinned = workloads.load_golden()[grid.golden_key()]
        grid.prepare()
        try:
            grid.run()
            got = grid.digests()
            ok &= check("paper-grid pass matches golden.json", grid.check(got, pinned) == 0)
            study_json = bytearray(grid.handle[1])
            study_json[100] ^= 0x01
            got["study.json"] = workloads.sha256(bytes(study_json))
            bad = grid.check(got, pinned)
            ok &= check(f"corrupted study JSON copy fails {bad}/{grid.units_per_pass} units",
                        bad == grid.units_per_pass)
        finally:
            grid.cleanup()
    return ok


def speed_clock() -> bool:
    import workloads
    from hostspeed import INTERVAL_S, SpeedClock

    ok = True
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        churn = workloads.make("storage-churn", run.ROOT, 0, workdir)
        wall, normalized, got, _, _ = run.one_pass(churn, None, 0)
        pinned = workloads.load_golden()[churn.golden_key()]
        ok &= check("a pass under the speed clock matches golden.json",
                    churn.check(got, pinned) == 0)
        ok &= check(f"the clock scaled {wall:.3f} s of pass to {normalized:.3f} s",
                    wall > 0 and normalized > 0)
    clock = SpeedClock().start()
    laps = []
    for _ in range(3):
        end = clock.wall_s + 5 * INTERVAL_S
        while clock.wall_s < end:
            sum(range(1000))
        laps.append(clock.lap())
    total = clock.normalized_s
    clock.stop()
    ok &= check(f"the clock sampled {clock.samples} times in {len(laps)} laps",
                clock.samples >= 3 * 5)
    ok &= check("laps add up to the clock's total", abs(sum(laps) - total) <= 1e-9 * total)
    return ok


def main() -> int:
    run.check_checkout()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    ok = traced_passes()
    ok &= corrupted_outputs()
    ok &= speed_clock()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
