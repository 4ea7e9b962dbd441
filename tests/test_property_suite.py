"""Cross-module property tests.

Hypothesis-driven invariants that span module boundaries: the analytical
model's algebraic identities, meter/trace consistency, eddy-detection
symmetries, the sampling calendar's arithmetic, the cage-level power
state's agreement with per-node power signals, and the array-at-a-time
contour extractor and segment rasterizer's agreement with the per-cell and
per-segment loops they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cluster.machine import ComputeCluster
from repro.core.model import DataModel, PerformanceModel, PipelinePredictor
from repro.events.engine import Simulator
from repro.ocean.driver import MPASOceanConfig
from repro.ocean.eddies import detect_eddies
from repro.ocean.okubo_weiss import okubo_weiss
from repro.pipelines.sampling import SamplingPolicy
from repro.power.signal import PowerSignal
from repro.power.trace import PowerTrace
from repro.viz.contour import _CASES, marching_squares
from repro.viz.image import Image


def _predictor(alpha, beta, t_sim, power):
    model = PerformanceModel(
        t_sim_ref=t_sim, iter_ref=8_640, alpha=alpha, beta=beta, power_watts=power
    )
    data = DataModel(24.0, 80.0, 180.0, 8_640)
    return PipelinePredictor("p", model, data)


class TestModelAlgebra:
    @settings(deadline=None, max_examples=50)
    @given(
        alpha=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        beta=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        t_sim=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        power=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        h=st.floats(min_value=0.5, max_value=1_000.0, allow_nan=False),
    )
    def test_energy_time_ratio_is_power(self, alpha, beta, t_sim, power, h):
        """E / t = P for every query (Eq. 1)."""
        pred = _predictor(alpha, beta, t_sim, power).predict(h)
        # Subnormal execution times (e.g. t_sim = 5e-324) round E = P*t to
        # the nearest denormal and break the exact ratio; require a normal
        # float, which is all Eq. 1 claims.
        assume(pred.execution_time > 1e-300)
        assert pred.energy / pred.execution_time == pytest.approx(power, rel=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(
        h=st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
        factor=st.floats(min_value=1.01, max_value=50.0, allow_nan=False),
    )
    def test_storage_inverse_in_interval(self, h, factor):
        """Eq. 6: S(h) / S(f*h) = f exactly."""
        p = _predictor(6.3, 1.2, 603.0, 46_000.0)
        a = p.predict(h).s_io_gb
        b = p.predict(h * factor).s_io_gb
        assert a / b == pytest.approx(factor, rel=1e-9)

    @settings(deadline=None, max_examples=50)
    @given(
        h=st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
        scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    def test_everything_linear_in_iterations(self, h, scale):
        """Doubling the campaign doubles time, energy, storage and images."""
        p = _predictor(6.3, 1.2, 603.0, 46_000.0)
        base = p.predict(h, 8_640.0)
        scaled = p.predict(h, 8_640.0 * scale)
        for attr in ("execution_time", "energy", "s_io_gb", "n_viz"):
            assert getattr(scaled, attr) == pytest.approx(
                getattr(base, attr) * scale, rel=1e-9
            )


class TestMeterConsistency:
    @settings(deadline=None, max_examples=40)
    @given(
        changes=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=300.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=5e4, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_trace_energy_equals_signal_energy(self, changes):
        """Interval-averaged sampling conserves energy exactly."""
        signal = PowerSignal(100.0)
        t = 0.0
        for dt, watts in changes:
            t += dt
            signal.set(t, watts)
        end = t + 60.0
        trace = PowerTrace.from_signal(signal, 0.0, end, 60.0)
        assert trace.energy() == pytest.approx(signal.integrate(0.0, end), rel=1e-9)

    @settings(deadline=None, max_examples=40)
    @given(
        watts=st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_average_between_min_and_max(self, watts):
        trace = PowerTrace(0.0, 60.0, watts)
        assert min(watts) - 1e-9 <= trace.average_power() <= max(watts) + 1e-9


_LEVELS = st.one_of(
    st.sampled_from([0.0, 0.85, 0.92, 0.95, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
_SCHEDULE_STEP = st.tuples(
    st.sampled_from([0.0, 0.0, 0.5, 30.0, 60.0, 95.25]),  # dt; 0 repeats a timestamp
    st.sampled_from(["all", "subset", "node", "idle"]),
    _LEVELS,
    st.lists(st.integers(min_value=0, max_value=22), max_size=23),
    st.one_of(st.none(), st.floats(min_value=1.2, max_value=2.6, allow_nan=False)),
)


class TestCagePowerState:
    """The cage monitors sum exactly what per-node signals would sum."""

    @settings(deadline=None, max_examples=60)
    @given(schedule=st.lists(_SCHEDULE_STEP, min_size=1, max_size=25))
    def test_cage_state_matches_per_node_signals(self, schedule):
        sim = Simulator()
        cluster = ComputeCluster(sim, n_nodes=23, nodes_per_cage=10)
        model = cluster.node_model
        # The reference: one signal per node, fed the same schedule.
        refs = [PowerSignal(model.idle_watts, name=f"node-{i:03d}") for i in range(23)]

        def drive():
            for dt, kind, level, picked, frequency in schedule:
                if dt:
                    yield sim.timeout(dt)
                if kind == "node":
                    for i in picked[:1]:
                        cluster.nodes[i].set_utilization(level, frequency_ghz=frequency)
                        refs[i].set(sim.now, model.power(level, frequency))
                    continue
                if kind == "idle":
                    level = 0.0
                targets = picked if kind == "subset" else range(23)
                cluster.set_utilization(
                    level, nodes=[cluster.nodes[i] for i in picked] if kind == "subset" else None
                )
                for i in targets:
                    refs[i].set(sim.now, model.power(level))

        sim.process(drive())
        sim.run()
        end = sim.now + 90.0
        assert [len(cage) for cage in cluster.cages] == [10, 10, 3]
        for cage in cluster.cages:
            members = [refs[node.node_id] for node in cage.nodes]
            reference = PowerTrace.from_signal(
                PowerSignal.total(members), 0.0, end, cage.monitor.interval
            )
            got = cage.monitor.read(0.0, end)
            assert got.watts.tolist() == reference.watts.tolist()
            assert (got.start, got.dt, got.final_dt) == (
                reference.start, reference.dt, reference.final_dt
            )
        probes = sorted({0.0, end} | {t for ref in refs for t, _ in ref.breakpoints})
        probes += [t + 0.25 for t in probes]
        for node, ref in zip(cluster.nodes, refs):
            assert [node.power_signal.value_at(t) for t in probes] == [
                ref.value_at(t) for t in probes
            ]
            assert node.current_power == ref.value_at(end)


class TestEddySymmetries:
    @settings(deadline=None, max_examples=20)
    @given(
        shift_r=st.integers(min_value=0, max_value=31),
        shift_c=st.integers(min_value=0, max_value=31),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_detection_count_invariant_under_periodic_shift(
        self, shift_r, shift_c, seed
    ):
        """Rolling the field around the torus cannot change what is found."""
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((32, 32))
        v = rng.standard_normal((32, 32))
        w = okubo_weiss(u, v, 1.0, 1.0)
        base = detect_eddies(w, min_cells=2)
        rolled = detect_eddies(np.roll(np.roll(w, shift_r, 0), shift_c, 1), min_cells=2)
        assert len(rolled) == len(base)
        assert sorted(e.area_cells for e in rolled) == sorted(
            e.area_cells for e in base
        )

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(min_value=0, max_value=50))
    def test_velocity_mirror_flips_vorticity_not_w(self, seed):
        """(u, v) -> (u, -v) with x -> -x mirrors the flow: W is preserved."""
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((24, 24))
        v = rng.standard_normal((24, 24))
        w = okubo_weiss(u, v, 1.0, 1.0)
        w_mirror = okubo_weiss(u[:, ::-1], -v[:, ::-1], 1.0, 1.0)
        np.testing.assert_allclose(np.sort(w.ravel()), np.sort(w_mirror.ravel()),
                                   atol=1e-10)


class TestSamplingArithmetic:
    @settings(deadline=None, max_examples=50)
    @given(k=st.integers(min_value=1, max_value=200))
    def test_outputs_times_stride_bounded_by_steps(self, k):
        """n_outputs * steps_between <= total steps, with remainder < stride."""
        cfg = MPASOceanConfig()
        hours = k * 0.5  # every multiple of the timestep is valid
        policy = SamplingPolicy(hours)
        n = policy.n_outputs(cfg)
        stride = policy.steps_between_outputs(cfg)
        assert n * stride <= cfg.n_timesteps
        assert cfg.n_timesteps - n * stride < stride

    @settings(deadline=None, max_examples=50)
    @given(
        a=st.integers(min_value=1, max_value=100),
        b=st.integers(min_value=1, max_value=100),
    )
    def test_rate_ratio_antisymmetry(self, a, b):
        pa, pb = SamplingPolicy(a * 0.5), SamplingPolicy(b * 0.5)
        assert pa.rate_ratio(pb) == pytest.approx(1.0 / pb.rate_ratio(pa))


# -- Reference oracles: the per-cell contour loop and per-segment rasterizer --


def _reference_edge_point(edge, r, c, f, level):
    if edge == 0:  # top: (r, c) -> (r, c+1)
        a, b = f[r, c], f[r, c + 1]
        t = (level - a) / (b - a)
        return (float(r), c + float(t))
    if edge == 1:  # right: (r, c+1) -> (r+1, c+1)
        a, b = f[r, c + 1], f[r + 1, c + 1]
        t = (level - a) / (b - a)
        return (r + float(t), float(c + 1))
    if edge == 2:  # bottom: (r+1, c) -> (r+1, c+1)
        a, b = f[r + 1, c], f[r + 1, c + 1]
        t = (level - a) / (b - a)
        return (float(r + 1), c + float(t))
    # left: (r, c) -> (r+1, c)
    a, b = f[r, c], f[r + 1, c]
    t = (level - a) / (b - a)
    return (r + float(t), float(c))


def _reference_marching_squares(field, level):
    f = np.asarray(field, dtype=float)
    eps = 1e-12 * (np.abs(f).max() + 1.0)
    f = np.where(f == level, f + eps, f)
    above = f > level
    segments = []
    nrows, ncols = f.shape
    for r in range(nrows - 1):
        for c in range(ncols - 1):
            case = (
                (1 if above[r, c] else 0)
                | (2 if above[r, c + 1] else 0)
                | (4 if above[r + 1, c + 1] else 0)
                | (8 if above[r + 1, c] else 0)
            )
            pairs = _CASES[case]
            if case in (5, 10):
                center = 0.25 * (f[r, c] + f[r, c + 1] + f[r + 1, c] + f[r + 1, c + 1])
                if case == 5 and center > level:
                    pairs = ((0, 1), (3, 2))
                elif case == 10 and center > level:
                    pairs = ((3, 0), (1, 2))
            for e0, e1 in pairs:
                segments.append(
                    (
                        _reference_edge_point(e0, r, c, f, level),
                        _reference_edge_point(e1, r, c, f, level),
                    )
                )
    return _reference_chain_segments(segments)


def _reference_chain_segments(segments):
    if not segments:
        return []

    def key(p):
        return (round(p[0] * 1e6), round(p[1] * 1e6))

    endpoints = {}
    for i, (a, b) in enumerate(segments):
        endpoints.setdefault(key(a), []).append((i, 0))
        endpoints.setdefault(key(b), []).append((i, 1))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        for grow_tail in (True, False):
            while True:
                tip = chain[-1] if grow_tail else chain[0]
                options = [(i, end) for i, end in endpoints.get(key(tip), []) if not used[i]]
                if not options:
                    break
                i, end = options[0]
                used[i] = True
                nxt = segments[i][1 - end]
                if grow_tail:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        polylines.append(np.array(chain))
    return polylines


def _reference_draw_polyline(pixels, points, color):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        return
    height, width = pixels.shape[:2]
    for (r0, c0), (r1, c1) in zip(pts[:-1], pts[1:]):
        n = int(max(abs(r1 - r0), abs(c1 - c0), 1)) + 1
        rr = np.linspace(r0, r1, n).round().astype(int)
        cc = np.linspace(c0, c1, n).round().astype(int)
        ok = (rr >= 0) & (rr < height) & (cc >= 0) & (cc < width)
        pixels[rr[ok], cc[ok]] = color


@st.composite
def _contour_case(draw):
    """A small field and a level: random, integer, constant or saddle-heavy."""
    shape = (draw(st.integers(2, 40)), draw(st.integers(2, 40)))
    kind = draw(st.sampled_from(["float", "integer", "constant", "saddle"]))
    if kind == "float":
        field = draw(hnp.arrays(float, shape, elements=st.floats(-50.0, 50.0)))
    elif kind == "integer":
        field = draw(hnp.arrays(np.int8, shape, elements=st.integers(-3, 3))).astype(float)
    elif kind == "constant":
        field = np.full(shape, draw(st.floats(-5.0, 5.0)))
    else:
        sign = np.where(np.add.outer(np.arange(shape[0]), np.arange(shape[1])) % 2, -1.0, 1.0)
        magnitude = draw(hnp.arrays(float, shape, elements=st.floats(0.1, 2.0)))
        field = sign * magnitude + draw(st.floats(-0.5, 0.5))
    # Exact hits on a vertex value exercise the epsilon nudge.
    level = draw(st.one_of(st.floats(-50.0, 50.0), st.sampled_from(field.ravel().tolist())))
    return field, level


_COORD = st.one_of(
    st.floats(-4.0, 34.0),
    st.integers(-2, 32).map(float),
    st.integers(-2, 32).map(lambda k: k + 0.5),  # rounding ties
)


@st.composite
def _polylines(draw):
    """Polylines with sub-pixel, zero-length, steep and out-of-bounds segments."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        r, c = draw(_COORD), draw(_COORD)
        points = [(r, c)]
        for _ in range(draw(st.integers(0, 6))):
            move = draw(st.sampled_from(["jump", "stay", "nudge", "steep"]))
            if move == "jump":
                r, c = draw(_COORD), draw(_COORD)
            elif move == "nudge":  # sub-pixel, down to denormal offsets
                tiny = st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, 1e-9, 0.3])
                r, c = r + draw(tiny), c + draw(tiny)
            elif move == "steep":
                r += draw(st.floats(-30.0, 30.0))
            points.append((r, c))
        lines.append(np.array(points))
    return lines


class TestArrayContouring:
    """Array-at-a-time contouring and rasterization equal the loops they replaced."""

    @settings(deadline=None, max_examples=120)
    @given(case=_contour_case())
    def test_marching_squares_matches_per_cell_loop(self, case):
        field, level = case
        got = marching_squares(field, level)
        want = _reference_marching_squares(field, level)
        assert [line.shape for line in got] == [line.shape for line in want]
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert g.tobytes() == w.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(
        lines=_polylines(),
        height=st.integers(1, 30),
        width=st.integers(1, 30),
    )
    def test_batched_rasterizer_matches_per_segment_linspace(self, lines, height, width):
        got = Image.blank(width, height)
        got.draw_polylines(lines, color=(255, 128, 7))
        want = np.zeros((height, width, 3), dtype=np.uint8)
        for line in lines:
            _reference_draw_polyline(want, line, (255, 128, 7))
        assert np.array_equal(got.pixels, want)
