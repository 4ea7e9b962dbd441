"""Pin the golden output digests in ``golden.json``.

    python3 perfbench/pin.py

Runs one pass of every workload (``real-mini`` once per pinned ocean seed),
cross-checks the simulated outputs byte for byte against the CLI
(``repro run ... --json`` for the grid and the what-if report, and the
telemetry streams
of ``repro run --telemetry``), and only then writes the digests.  Re-pin only
when a change is meant to alter the program's outputs, and say so.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run
import workloads


def cli(*args: str, cwd: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"repro {' '.join(args)} failed:\n{proc.stderr.decode()}")
    return proc.stdout


def cli_digests(name: str, workdir: str) -> dict:
    """The CLI's own outputs for a simulated workload, digested."""
    scenario = os.path.join(run.ROOT, workloads.SCENARIO)
    sha = workloads.sha256
    if name == "paper-grid":
        return {"study.json": sha(cli("run", scenario, "--json", cwd=run.ROOT)),
                "whatif.json": sha(cli("run", scenario, "--set", "experiment.kind=whatif",
                                       "--json", cwd=run.ROOT))}
    if name == "storage-churn":
        sets = [a for o in workloads.STORAGE_CHURN_OVERRIDES for a in ("--set", o)]
        return {"study.json": sha(cli("run", scenario, *sets, "--json", cwd=run.ROOT))}
    directory = os.path.join(workdir, "cli-telemetry")
    out = {"study.json": sha(cli("run", scenario, "--telemetry", directory, "--json",
                                 cwd=run.ROOT))}
    for filename in ("events.jsonl", "timeline.jsonl"):
        with open(os.path.join(directory, filename), "rb") as fh:
            out[filename] = sha(fh.read())
    return out


def main() -> int:
    run.check_checkout()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    golden = {}
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        for name in ("paper-grid", "storage-churn", "instrumented"):
            got = run.one_pass(workloads.make(name, run.ROOT, 0, workdir), None, 0)[2]
            for key, digest in cli_digests(name, workdir).items():
                if got[key] != digest:
                    raise SystemExit(f"{name}: {key} differs from the CLI's output")
            golden[name] = got
            print(f"{name}: {len(got)} digests, CLI cross-check ok")
        for seed in range(workloads.REAL_OCEAN_SEEDS):
            workload = workloads.make("real-mini", run.ROOT, seed, workdir)
            first, second = (run.one_pass(workload, None, i)[2] for i in range(2))
            if first != second:
                raise SystemExit(f"real-mini ocean seed {seed}: outputs are not deterministic")
            golden[workload.golden_key()] = first
            print(f"{workload.golden_key()}: deterministic over two passes")
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
