"""Which public functions belong to which layer, and the per-layer metrics.

A layer is a ``repro`` subpackage.  :func:`install` wraps the functions
listed here on a :class:`~tracer.Tracer`; :func:`pass_metrics` turns one
traced pass's spans and counters into the named per-layer metrics.

Host time only: every ``*_s`` value is host seconds, never simulated time.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from tracer import ROOT, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def declared_metrics(section: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics.

    ``BENCHMARK.json`` is the one place a metric is declared; every other
    file takes the names and units from here.
    """
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def layer_map() -> dict:
    """``layers.json``: which layer should move which metric on which workload."""
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)


#: Every per-layer metric the traced run reports: name -> unit.
PER_LAYER = declared_metrics("per_layer")

#: Layers with a ``<layer>.self_s`` metric.
LAYERS = tuple(name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s"))

#: Count metrics: deterministic, so they must repeat exactly across passes.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "B"))

#: Inclusive-time groups: metric -> span names, outermost span only.
_INCLUSIVE = {
    "power.meter_read_s": ("power.PowerMeter.read",),
    "core.calibrate_s": ("core.CharacterizationStudy.calibrate",
                         "core.CharacterizationStudy.validate"),
    "core.sweep_s": ("core.WhatIfAnalyzer.sweep", "core.WhatIfAnalyzer.storage_vs_rate",
                     "core.WhatIfAnalyzer.energy_vs_rate",
                     "core.WhatIfAnalyzer.finest_interval_for_storage"),
    "ocean.advance_s": ("ocean.MiniOceanDriver.advance",),
    "viz.render_s": ("viz.render_okubo_weiss",),
}


def install(tracer: Tracer) -> None:
    """Wrap every listed public function of the program on ``tracer``."""
    from repro.cluster.machine import ComputeCluster
    from repro.cluster.node import Node
    from repro.core import characterization, whatif
    from repro.events.engine import Simulator
    from repro.exec import engine as exec_engine
    from repro.faults.retry import RetryPolicy
    from repro.io import ncformat, pio
    from repro.obs.registry import MetricsRegistry
    from repro.obs.telemetry import TelemetrySession
    from repro.obs.timeline import TimelineSampler
    from repro.ocean.driver import MiniOceanDriver
    from repro.pipelines import platform as pplatform
    from repro.pipelines.base import Pipeline
    from repro.pipelines.insitu import InSituPipeline
    from repro.pipelines.postprocessing import PostProcessingPipeline
    from repro.power.meter import PowerMeter
    from repro.power.signal import PowerSignal
    from repro.power.trace import PowerTrace
    from repro.storage.lustre import LustreFileSystem, StorageCluster
    from repro.viz import render
    from repro.viz.catalyst import CatalystAdaptor
    from repro.viz.cinema import CinemaDatabase

    def call(layer, owner, attr, count=None, on_result=None):
        name = f"{layer}.{getattr(owner, '__name__', '').rsplit('.', 1)[-1]}.{attr}"
        if isinstance(owner, type):
            tracer.patch_attr(owner, attr, lambda fn: tracer.wrap_call(
                layer, name, fn, count=count, on_result=on_result))
        else:
            tracer.patch_function(owner, attr, lambda fn: tracer.wrap_call(
                layer, f"{layer}.{attr}", fn, count=count, on_result=on_result))

    def gen(layer, owner, attr, count=None, on_result=None):
        tracer.patch_attr(owner, attr, lambda fn: tracer.wrap_gen(
            layer, f"{layer}.{owner.__name__}.{attr}", fn, count=count,
            on_result=on_result))

    # events: one span per processed event.
    call("events", Simulator, "step", count="events.steps")

    # cluster: phase changes are spans; the per-node fan-out is counted only.
    call("cluster", ComputeCluster, "set_utilization", count="cluster.phase_changes")
    gen("cluster", ComputeCluster, "run_phase")
    call("cluster", ComputeCluster, "read_total")
    # The two hottest methods (millions of calls per pass) are counted with
    # wrappers that spell out the signature: a ``*args`` wrapper costs about
    # 0.3 us a call here, which would triple the trace overhead.
    node_updates = tracer.cell("cluster.node_updates")

    def count_node_updates(fn):
        def set_utilization(node, utilization, frequency_ghz=None):
            node_updates[0] += 1
            return fn(node, utilization, frequency_ghz)
        return set_utilization

    tracer.patch_attr(Node, "set_utilization", count_node_updates)

    # power: signal updates are counted only; breakpoints are counted where
    # the power layer scans them (combining signals, integrating a window).
    signal_sets = tracer.cell("power.signal_sets")

    def count_signal_sets(fn):
        def set(signal, time, watts):
            signal_sets[0] += 1
            return fn(signal, time, watts)
        return set

    tracer.patch_attr(PowerSignal, "set", count_signal_sets)
    scanned = tracer.cell("power.breakpoints")

    def note_integrated(args, _kwargs, _result):
        scanned[0] += len(args[0]._times)

    def note_combined(args, _kwargs, _result):
        scanned[0] += sum(len(signal._times) for signal in args[0])

    call("power", PowerSignal, "integrate", count="power.integrate_calls",
         on_result=note_integrated)
    call("power", PowerSignal, "total", on_result=note_combined)
    call("power", PowerMeter, "read")
    call("power", PowerMeter, "total_watts")
    call("power", PowerTrace, "from_signal")
    call("power", PowerTrace, "aligned_sum")

    # storage: DES operations per resumption, namespace rescans per call.
    files_peak = tracer.cell("storage.files_peak")

    def note_files(args, _kwargs, _result):
        files_peak[0] = max(files_peak[0], args[0].n_files)

    gen("storage", LustreFileSystem, "write", count="storage.writes", on_result=note_files)
    gen("storage", LustreFileSystem, "read", count="storage.reads")
    gen("storage", LustreFileSystem, "delete")
    for attr in ("used_bytes", "ost_fill_fractions", "listdir"):
        call("storage", LustreFileSystem, attr, count="storage.namespace_queries")
    call("storage", StorageCluster, "read_pdu")
    attempts = tracer.cell("storage.attempts")
    operations = tracer.cell("storage.retried_ops")

    def counting_run(fn):
        def run(policy, sim, factory, *args, **kwargs):
            operations[0] += 1

            def attempt():
                attempts[0] += 1
                return factory()

            return fn(policy, sim, attempt, *args, **kwargs)
        return run

    tracer.patch_attr(RetryPolicy, "run", counting_run)

    # io: PIO writes (simulated and real) and the nclite codec.
    gen("io", pio.PIOWriter, "write_simulated", count="io.pio_writes")
    gen("io", pio.SimulatedIOBackend, "write_bytes")
    call("io", pio.RealIOBackend, "write_fields", count="io.pio_writes")
    nclite_bytes = tracer.cell("io.nclite_bytes")

    def note_nclite(_args, _kwargs, result):
        nclite_bytes[0] += int(result)

    call("io", ncformat, "write_nclite", on_result=note_nclite)
    call("io", ncformat, "read_nclite")

    # ocean: the real barotropic solver.
    steps = tracer.cell("ocean.steps")

    def note_steps(args, kwargs, _result):
        steps[0] += int(args[1] if len(args) > 1 else kwargs.get("n_steps", 1))

    call("ocean", MiniOceanDriver, "advance", on_result=note_steps)
    call("ocean", MiniOceanDriver, "output_fields")

    # viz: rendering, the Catalyst adaptor and the Cinema image database.
    png_bytes = tracer.cell("viz.png_bytes")

    def note_png(_args, _kwargs, entry):
        png_bytes[0] += entry.nbytes

    call("viz", render, "render_okubo_weiss", count="viz.frames")
    call("viz", CatalystAdaptor, "coprocess")
    call("viz", CinemaDatabase, "add_image", on_result=note_png)
    call("viz", CinemaDatabase, "close")

    # obs: session emission, registry updates, probes and step listeners.
    for attr in ("event", "phase", "open_span", "close_span", "close"):
        call("obs", TelemetrySession, attr)
    call("obs", TelemetrySession, "emit_timeline", count="obs.timeline_samples")
    for attr in ("counter", "gauge", "histogram"):
        call("obs", MetricsRegistry, attr)

    def traced_add_probe(fn):
        def add_probe(sampler, name, probe):
            return fn(sampler, name, tracer.wrap_call(
                "obs", "obs.probe", probe, count="obs.probe_calls"))
        return add_probe

    tracer.patch_attr(TimelineSampler, "add_probe", traced_add_probe)
    listeners: dict = {}

    def traced_add_listener(fn):
        def add_step_listener(sim, listener):
            wrapped = tracer.wrap_call("obs", "obs.step_listener", listener)
            listeners[listener] = wrapped
            fn(sim, wrapped)
            return listener
        return add_step_listener

    def traced_remove_listener(fn):
        def remove_step_listener(sim, listener):
            fn(sim, listeners.pop(listener, listener))
        return remove_step_listener

    tracer.patch_attr(Simulator, "add_step_listener", traced_add_listener)
    tracer.patch_attr(Simulator, "remove_step_listener", traced_remove_listener)

    # exec: the serial engine.
    call("exec", exec_engine.ExecutionEngine, "map")
    call("exec", exec_engine, "execute_request", count="exec.tasks")

    # core: the grid driver, Eq. 5 calibration and the what-if sweeps.
    call("core", characterization, "run_characterization")
    for attr in ("calibrate", "validate", "analyzer", "to_dict"):
        call("core", characterization.CharacterizationStudy, attr)
    for attr in ("sweep", "storage_vs_rate", "energy_vs_rate",
                 "finest_interval_for_storage"):
        call("core", whatif.WhatIfAnalyzer, attr)

    # pipelines: one unit per execute(); the workflow generators per resumption.
    runs = tracer.cell("pipelines.runs")

    def unit_execute(fn):
        traced = tracer.wrap_call("pipelines", "pipelines.Pipeline.execute", fn)

        def execute(*args, **kwargs):
            runs[0] += 1
            tracer.begin_unit()
            return traced(*args, **kwargs)
        return execute

    tracer.patch_attr(Pipeline, "execute", unit_execute)
    for cls in (InSituPipeline, PostProcessingPipeline):
        gen("pipelines", cls, "simulated_process")
        call("pipelines", cls, "run_real")
    call("pipelines", pplatform.SimulatedPlatform, "__init__")
    call("pipelines", pplatform.RealPlatform, "new_driver")


def _inclusive_seconds(tracer: Tracer, first: int) -> Dict[str, float]:
    """Outermost-span inclusive time per group, over span rows ``first`` on."""
    wanted = {}
    for metric, names in _INCLUSIVE.items():
        for name in names:
            nid = tracer.name_id(name)
            if nid is not None:
                wanted[nid] = metric
    totals = {metric: 0 for metric in _INCLUSIVE}
    table = tracer.table(first)
    ids, names, parents = table[:, 0].tolist(), table[:, 1].tolist(), table[:, 4].tolist()
    durations = (table[:, 3] - table[:, 2]).tolist()
    index = {sid: i for i, sid in enumerate(ids)}
    for i, nid in enumerate(names):
        metric = wanted.get(nid)
        if metric is None:
            continue
        parent = parents[i]
        while parent in index and wanted.get(names[index[parent]]) != metric:
            parent = parents[index[parent]]
        if parent not in index:  # no enclosing span of the same group
            totals[metric] += durations[i]
    return {k: v / 1e9 for k, v in totals.items()}


def pass_metrics(tracer: Tracer, first_span: int, root_ns: int, extra: Dict[str, int]) -> dict:
    """Per-layer metrics of the traced pass whose spans start at ``first_span``.

    ``extra`` carries counts measured from outside the program (bytes the
    telemetry session wrote).  Setup and overhead metrics are filled in by
    the caller.
    """
    counts = tracer.counts()
    counts.update(extra)
    out: Dict[str, float] = {}
    for name in COUNTS:
        if name == "storage.retries":
            out[name] = counts.get("storage.attempts", 0) - counts.get("storage.retried_ops", 0)
        else:
            out[name] = counts.get(name, 0)
    self_ns = tracer.self_ns
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
    out["trace.unattributed_s"] = self_ns.get(ROOT, 0) / 1e9
    inclusive = _inclusive_seconds(tracer, first_span)
    out["power.meter_read_s"] = inclusive["power.meter_read_s"]
    out["core.calibrate_s"] = inclusive["core.calibrate_s"]
    out["core.sweep_s"] = inclusive["core.sweep_s"]
    steps = out["events.steps"]
    out["events.us_per_step"] = 1e6 * out["events.self_s"] / steps if steps else 0.0
    osteps = out["ocean.steps"]
    out["ocean.ms_per_step"] = 1e3 * inclusive["ocean.advance_s"] / osteps if osteps else 0.0
    frames = out["viz.frames"]
    out["viz.ms_per_frame"] = 1e3 * inclusive["viz.render_s"] / frames if frames else 0.0
    out["trace.root_s"] = root_ns / 1e9
    return out


def predictions(workload: str, values: dict) -> list:
    """The predicted split of ``layers.json`` checked on one traced run: a
    list of ``(statement, holds)``."""
    split = layer_map()["predicted_split"].get(workload, {})
    out = []
    leads = split.get("leads", [])
    if leads:
        others = max(values[f"{layer}.self_s"] for layer in LAYERS if layer not in leads)
        total = sum(values[f"{layer}.self_s"] for layer in leads)
        out.append((f"{' + '.join(f'{layer}.self_s' for layer in leads)} exceeds every "
                    "other layer's self time", total > others))
    for layer in split.get("nonzero", []):
        out.append((f"{layer}.self_s is non-zero", values[f"{layer}.self_s"] > 0))
    for layer in split.get("zero", []):
        out.append((f"{layer}.self_s is zero", values[f"{layer}.self_s"] == 0))
    return out
