"""Fresh-process set-up of one workload: import, scenario load, platform build.

Run by ``run.py`` in a new interpreter several times per benchmark run; it
prints one JSON object with the three phases and their total (``setup_s``),
each in host seconds normalized to reference host speed by a
``hostspeed.SpeedClock`` that runs from the probe's first line to its end.
The parent also times the whole process from spawn to exit (raw seconds).

    python3 perfbench/setup_probe.py --workload paper-grid
"""

from hostspeed import SpeedClock

CLOCK = SpeedClock().start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import repro.cli  # noqa: F401  (what every `repro` invocation imports)
    import workloads

    import_s = CLOCK.lap()
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=out_dir)
    try:
        CLOCK.lap()
        workload = workloads.make(args.workload, ROOT, args.seed, workdir)
        scenario_s = CLOCK.lap()
        workload.prepare()
        CLOCK.lap()
        workload.build_platform()
        platform_s = CLOCK.lap()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        CLOCK.stop()
    print(json.dumps({"import_s": import_s, "scenario_s": scenario_s, "platform_s": platform_s,
                      "total_s": CLOCK.normalized_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
