"""Cross-module property tests.

Hypothesis-driven invariants that span module boundaries: the analytical
model's algebraic identities, meter/trace consistency, eddy-detection
symmetries, the sampling calendar's arithmetic and the cage-level power
state's agreement with per-node power signals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.machine import ComputeCluster
from repro.core.model import DataModel, PerformanceModel, PipelinePredictor
from repro.events.engine import Simulator
from repro.ocean.driver import MPASOceanConfig
from repro.ocean.eddies import detect_eddies
from repro.ocean.okubo_weiss import okubo_weiss
from repro.pipelines.sampling import SamplingPolicy
from repro.power.signal import PowerSignal
from repro.power.trace import PowerTrace


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
