"""The benchmark's four workloads and their golden-output checks.

Each workload runs one *pass* at a time.  :meth:`Workload.run` is the timed
part: it calls the program's public API exactly as a user would.
:meth:`Workload.digests` (untimed) turns the pass's outputs into SHA-256
digests, and :meth:`Workload.check` compares them with the pinned ones in
``golden.json``.

A *unit* is one campaign run (simulated workloads) or one real-mode run
(``real-mini``).  A unit fails if the pass raises or if its digest differs
from the pinned one; a pass-wide output (the study JSON, the what-if report,
the telemetry streams) that differs fails every unit of the pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SCENARIO = os.path.join("scenarios", "paper-caddy-150.yaml")

#: ``repro run`` overrides that turn the paper grid into ``storage-churn``.
STORAGE_CHURN_OVERRIDES = ("cluster.nodes=10", "sampling.intervals_hours=[2]")

#: Fig. 9 / Fig. 10 cadences (hours).
FIG_SWEEP_HOURS = (1.0, 4.0, 8.0, 24.0, 72.0, 192.0, 384.0)

#: ``real-mini`` ocean seeds with pinned digests; the workload seed picks one.
REAL_OCEAN_SEEDS = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    """The ``--json`` spelling: ``json.dumps(indent=2, sort_keys=True)`` plus newline."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def tree_digest(directory: str) -> str:
    """Digest of every file under ``directory`` (relative path + bytes, sorted)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames.sort()
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(sha256(fh.read()).encode())
    return h.hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One workload: build inputs from the seed, run passes, check outputs."""

    name = ""
    units_per_pass = 0

    def __init__(self, root: str, seed: int, workdir: str) -> None:
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.handle = None

    def golden_key(self) -> str:
        """The key of this workload's pinned digests in ``golden.json``."""
        return self.name

    def prepare(self) -> None:
        """Untimed work before each pass (fresh output directories)."""

    def build_platform(self):
        """The platform one unit runs on (``setup_probe.py`` times this)."""
        raise NotImplementedError

    def run(self) -> None:
        """The timed pass; keeps whatever :meth:`digests` needs in ``self.handle``."""
        raise NotImplementedError

    def digests(self) -> Dict[str, str]:
        """Digest every output of the last pass (``unit/...`` keys are units)."""
        raise NotImplementedError

    def extra_counts(self) -> Dict[str, int]:
        """Counts measured outside the program for the last pass."""
        return {}

    def notes(self) -> Dict[str, float]:
        """Readable figures of the last pass that are not digested or gated."""
        return {}

    def cleanup(self) -> None:
        """Drop the last pass's outputs (untimed)."""
        self.handle = None

    def check(self, got: Dict[str, str], pinned: Dict[str, str]) -> int:
        """Failed units of a pass whose outputs digest to ``got``."""
        units = [k for k in pinned if k.startswith("unit/")]
        if any(got.get(k) != v for k, v in pinned.items() if not k.startswith("unit/")):
            return self.units_per_pass
        if set(got) != set(pinned):
            return self.units_per_pass
        return sum(1 for k in units if got.get(k) != pinned[k])


class _Simulated(Workload):
    """Shared set-up for the three campaign-scale (simulated) workloads."""

    overrides: tuple = ()
    #: Fixed argv recorded in a run manifest (manifests are not digested).
    ARGV = ["run", SCENARIO, "--json"]

    def __init__(self, root: str, seed: int, workdir: str) -> None:
        super().__init__(root, seed, workdir)
        from repro.scenario.loader import load_scenario

        # Simulated workloads are deterministic: the seed is recorded, unused.
        self.scenario = load_scenario(os.path.join(root, SCENARIO), overrides=self.overrides)
        if self.scenario.execution.wants_engine:
            raise SystemExit(f"{SCENARIO} asks for an execution engine; "
                             "the benchmark measures the inline serial path only")

    def build_platform(self):
        from repro.pipelines.platform import SimulatedPlatform
        from repro.scenario.build import build_platform_factory

        factory = build_platform_factory(self.scenario)
        return factory() if factory is not None else SimulatedPlatform()

    def _run_scenario(self, scenario) -> bytes:
        """``repro run <scenario> --json`` in this process; returns its stdout."""
        from repro.scenario.run import run_scenario

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_scenario(scenario, json_output=True, argv=self.ARGV)
        if code != 0:
            raise RuntimeError(f"repro run exited {code}: {stderr.getvalue()}")
        return stdout.getvalue().encode()

    @staticmethod
    def _unit_digests(study_dict: dict) -> Dict[str, str]:
        return {
            f"unit/{m['pipeline']}@{m['sample_interval_hours']:g}h": sha256(canonical(m))
            for m in study_dict["measurements"]
        }


@contextlib.contextmanager
def _captured_studies():
    """Keep every study ``repro run`` characterizes while the block runs.

    ``repro run`` prints the what-if report but not the study behind it;
    the study's digests, its Eq. 5 validation and the Fig. 9/10 sweeps need
    it, and running the grid a second time would double the measured work.
    """
    from repro.scenario import run as scenario_run

    studies: list = []
    original = scenario_run._characterize

    def characterize(*args, **kwargs):
        study = original(*args, **kwargs)
        studies.append(study)
        return study

    scenario_run._characterize = characterize
    try:
        yield studies
    finally:
        scenario_run._characterize = original


class PaperGrid(_Simulated):
    """Section V grid, Eq. 5 calibration with held-out validation, Figs. 9/10."""

    name = "paper-grid"
    units_per_pass = 6
    ARGV = ["run", SCENARIO, "--set", "experiment.kind=whatif", "--json"]

    def __init__(self, root: str, seed: int, workdir: str) -> None:
        super().__init__(root, seed, workdir)
        from repro.scenario.loader import load_scenario

        self.whatif = load_scenario(os.path.join(root, SCENARIO),
                                    overrides=("experiment.kind=whatif",))

    def run(self) -> None:
        from repro.units import years

        # The what-if report is exactly what
        # `repro run <scenario> --set experiment.kind=whatif --json` prints.
        with _captured_studies() as studies:
            whatif = self._run_scenario(self.whatif)
        (study,) = studies
        study_dict = study.to_dict()
        validation = study.validate()
        analyzer = study.analyzer()
        duration = years(self.whatif.experiment.years)
        fig9 = canonical(analyzer.storage_vs_rate(
            intervals_hours=FIG_SWEEP_HOURS, duration_seconds=duration).to_dict())
        fig10 = canonical(analyzer.energy_vs_rate(
            intervals_hours=FIG_SWEEP_HOURS, duration_seconds=duration).to_dict())
        self.handle = (study_dict, canonical(study_dict), validation, whatif, fig9, fig10)

    def notes(self) -> Dict[str, float]:
        """The largest absolute held-out Eq. 5 error, in percent."""
        return {"model_err_pct": 100.0 * max(abs(rel) for _, _, rel in self.handle[2])}

    def digests(self) -> Dict[str, str]:
        study_dict, study_json, validation, whatif, fig9, fig10 = self.handle
        out = self._unit_digests(study_dict)
        out["study.json"] = sha256(study_json)
        out["validation.json"] = sha256(canonical(
            [[p.label, predicted, rel] for p, predicted, rel in validation]))
        out["whatif.json"] = sha256(whatif)
        out["fig9.json"] = sha256(fig9)
        out["fig10.json"] = sha256(fig10)
        return out


class StorageChurn(_Simulated):
    """Both pipelines at a 2 h cadence over 6 months on a 10-node cluster."""

    name = "storage-churn"
    units_per_pass = 2
    overrides = STORAGE_CHURN_OVERRIDES

    def run(self) -> None:
        from repro.scenario.run import _characterize

        study_dict = _characterize(self.scenario).to_dict()
        self.handle = (study_dict, canonical(study_dict))

    def digests(self) -> Dict[str, str]:
        study_dict, study_json = self.handle
        out = self._unit_digests(study_dict)
        out["study.json"] = sha256(study_json)
        return out


class Instrumented(_Simulated):
    """``paper-grid``'s simulation through ``repro run`` with telemetry and timeline on."""

    name = "instrumented"
    units_per_pass = 6
    ARGV = ["run", SCENARIO, "--telemetry", "<workdir>", "--json"]
    #: The deterministic telemetry streams (digested and counted).
    STREAMS = ("events.jsonl", "timeline.jsonl")

    def __init__(self, root: str, seed: int, workdir: str) -> None:
        super().__init__(root, seed, workdir)
        self._count = 0
        self.directory: Optional[str] = None

    def prepare(self) -> None:
        """Untimed: a fresh telemetry directory and a clean metrics registry,
        as a fresh ``repro run`` process would have."""
        from repro.obs.registry import default_registry

        default_registry().reset()
        self._count += 1
        self.directory = os.path.join(self.workdir, f"telemetry-{self._count:04d}")

    def run(self) -> None:
        self.handle = self._run_scenario(dataclasses.replace(
            self.scenario,
            telemetry=dataclasses.replace(self.scenario.telemetry, directory=self.directory),
        ))

    def digests(self) -> Dict[str, str]:
        out = self._unit_digests(json.loads(self.handle))
        out["study.json"] = sha256(self.handle)
        for filename in self.STREAMS:
            with open(os.path.join(self.directory, filename), "rb") as fh:
                out[filename] = sha256(fh.read())
        return out

    def extra_counts(self) -> Dict[str, int]:
        # The two streams only: the manifest and metrics.prom carry wall
        # times and pids, so their sizes do not repeat exactly.
        return {"obs.bytes_written": sum(
            os.path.getsize(os.path.join(self.directory, filename))
            for filename in self.STREAMS)}

    def cleanup(self) -> None:
        super().cleanup()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


class RealMini(Workload):
    """Real-mode miniature of both pipelines (real solver, PNGs, nclite files)."""

    name = "real-mini"
    units_per_pass = 2

    def __init__(self, root: str, seed: int, workdir: str) -> None:
        super().__init__(root, seed, workdir)
        from repro.pipelines.platform import RealScale

        # The workload seed picks the ocean seed among the pinned ones.
        self.ocean_seed = seed % REAL_OCEAN_SEEDS
        self.scale = RealScale(seed=self.ocean_seed)
        self.directory: Optional[str] = None

    def golden_key(self) -> str:
        return f"{self.name}/ocean-seed-{self.ocean_seed}"

    def prepare(self) -> None:
        self.directory = tempfile.mkdtemp(prefix="real-mini-", dir=self.workdir)

    def build_platform(self):
        from repro.pipelines.platform import RealPlatform

        return RealPlatform(self.directory, scale=self.scale)

    def run(self) -> None:
        from repro.exec.api import RunRequest
        from repro.pipelines.insitu import InSituPipeline
        from repro.pipelines.postprocessing import PostProcessingPipeline

        platform = self.build_platform()
        self.handle = [
            pipeline.execute(RunRequest(mode="real"), platform=platform).measurement
            for pipeline in (InSituPipeline(), PostProcessingPipeline())
        ]

    def digests(self) -> Dict[str, str]:
        return {
            f"unit/{m.pipeline}": tree_digest(m.label) for m in self.handle
        }

    def cleanup(self) -> None:
        super().cleanup()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (PaperGrid, StorageChurn, Instrumented, RealMini)}


def make(name: str, root: str, seed: int, workdir: str) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](root, seed, workdir)


def all_names() -> List[str]:
    return list(WORKLOADS)
