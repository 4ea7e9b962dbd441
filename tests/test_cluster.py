"""Tests for the compute-cluster simulator (:mod:`repro.cluster`)."""

from __future__ import annotations

import math

import pytest

from repro.cluster.machine import ComputeCluster, PhaseProfile, caddy
from repro.cluster.node import Node
from repro.cluster.power import CpuPowerModel, NodePowerModel, PState, e5_2670_node
from repro.cluster.topology import Cage, Interconnect
from repro.errors import ConfigurationError
from repro.events.engine import Simulator


class TestCpuPowerModel:
    def test_idle_and_peak(self):
        cpu = CpuPowerModel(idle_watts=25.0, peak_watts=110.0)
        assert cpu.power(0.0) == 25.0
        assert cpu.power(1.0) == 110.0

    def test_linear_in_utilization_by_default(self):
        cpu = CpuPowerModel(idle_watts=20.0, peak_watts=120.0)
        assert cpu.power(0.5) == pytest.approx(70.0)

    def test_gamma_shapes_curve(self):
        cpu = CpuPowerModel(idle_watts=0.0, peak_watts=100.0, gamma=2.0)
        assert cpu.power(0.5) == pytest.approx(25.0)

    def test_dvfs_cubic_scaling(self):
        cpu = CpuPowerModel(idle_watts=0.0, peak_watts=100.0, base_frequency_ghz=2.6)
        half = cpu.power(1.0, frequency_ghz=1.3)
        assert half == pytest.approx(100.0 * 0.125)

    def test_utilization_bounds(self):
        cpu = CpuPowerModel(idle_watts=10.0, peak_watts=100.0)
        with pytest.raises(ConfigurationError):
            cpu.power(1.5)
        with pytest.raises(ConfigurationError):
            cpu.power(-0.1)

    def test_peak_below_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuPowerModel(idle_watts=100.0, peak_watts=50.0)

    def test_slowest_pstate(self):
        cpu = CpuPowerModel(idle_watts=10.0, peak_watts=100.0)
        assert cpu.slowest_pstate().frequency_ghz == 1.2

    def test_pstate_validation(self):
        with pytest.raises(ConfigurationError):
            PState(-1.0)


class TestNodePowerModel:
    def test_caddy_node_calibration(self):
        """The calibrated node hits the paper's 100 W / 293.3 W endpoints."""
        node = e5_2670_node()
        assert node.idle_watts == pytest.approx(100.0)
        assert node.peak_watts == pytest.approx(293.33, abs=0.01)

    def test_dynamic_range_matches_paper(self):
        """193 % idle-to-loaded increase (Section V)."""
        assert e5_2670_node().dynamic_range() == pytest.approx(1.93, abs=0.005)

    def test_monotone_in_utilization(self):
        node = e5_2670_node()
        powers = [node.power(u / 10) for u in range(11)]
        assert powers == sorted(powers)

    def test_dram_interpolation(self):
        node = NodePowerModel(
            cpu=CpuPowerModel(idle_watts=0.0, peak_watts=0.0),
            n_sockets=1, base_watts=0.0, dram_idle_watts=10.0, dram_active_watts=30.0,
        )
        assert node.power(0.5) == pytest.approx(20.0)

    def test_active_dram_below_idle_rejected(self):
        with pytest.raises(ConfigurationError):
            NodePowerModel(
                cpu=CpuPowerModel(idle_watts=1.0, peak_watts=2.0),
                dram_idle_watts=30.0, dram_active_watts=10.0,
            )


class TestNode:
    def test_utilization_drives_power_signal(self, sim):
        node = Node(sim, 0, e5_2670_node())
        assert node.power_signal.value_at(0.0) == pytest.approx(100.0)
        sim.timeout(10.0)
        sim.run()
        node.set_utilization(1.0)
        assert node.power_signal.value_at(10.0) == pytest.approx(293.33, abs=0.01)

    def test_busy_core_seconds_accounting(self, sim):
        node = Node(sim, 0, e5_2670_node())
        node.set_utilization(0.5)
        sim.timeout(10.0)
        sim.run()
        # 16 cores at 0.5 utilization for 10 s.
        assert node.busy_core_seconds() == pytest.approx(80.0)

    def test_n_cores(self, sim):
        node = Node(sim, 0, e5_2670_node(), cores_per_socket=8)
        assert node.n_cores == 16

    def test_frequency_default_and_override(self, sim):
        node = Node(sim, 0, e5_2670_node())
        assert node.frequency_ghz == 2.6
        node.set_utilization(1.0, frequency_ghz=1.3)
        assert node.frequency_ghz == 1.3
        assert node.current_power < 293.0  # DVFS'd down

    def test_invalid_construction(self, sim):
        with pytest.raises(ConfigurationError):
            Node(sim, -1, e5_2670_node())
        with pytest.raises(ConfigurationError):
            Node(sim, 0, e5_2670_node(), cores_per_socket=0)
        with pytest.raises(ConfigurationError):
            Node(sim, 0, e5_2670_node(), memory_gb=0.0)


class TestCageAndInterconnect:
    def test_cage_attaches_monitor(self, sim):
        nodes = [Node(sim, i, e5_2670_node()) for i in range(10)]
        cage = Cage(0, nodes)
        assert len(cage) == 10
        assert cage.nodes == nodes
        nodes[3].set_utilization(1.0)
        nodes[7].set_utilization(0.5)
        sim.timeout(60.0)
        sim.run()
        expected = sum(n.current_power for n in nodes)
        assert cage.monitor.instantaneous(60.0) == pytest.approx(expected)
        assert cage.monitor.read(0.0, 60.0).watts[0] == pytest.approx(expected)

    def test_cage_size_limit(self, sim):
        nodes = [Node(sim, i, e5_2670_node()) for i in range(11)]
        with pytest.raises(ConfigurationError):
            Cage(0, nodes)

    def test_empty_cage_rejected(self):
        with pytest.raises(ConfigurationError):
            Cage(0, [])

    def test_point_to_point_time(self):
        ic = Interconnect(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        assert ic.point_to_point_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_allreduce_log_rounds(self):
        ic = Interconnect(latency_s=1e-6, bandwidth_bytes_per_s=1e9)
        t_2 = ic.allreduce_time(1_000, 2)
        t_8 = ic.allreduce_time(1_000, 8)
        assert t_8 == pytest.approx(3 * t_2)

    def test_single_rank_collectives_free(self):
        ic = Interconnect()
        assert ic.allreduce_time(1e6, 1) == 0.0
        assert ic.gather_time(1e6, 1) == 0.0
        assert ic.binary_swap_composite_time(1e6, 1) == 0.0

    def test_composite_bounded_by_image_size(self):
        """Binary-swap traffic is ~one image regardless of rank count."""
        ic = Interconnect()
        image = 6.2e6
        t150 = ic.binary_swap_composite_time(image, 150)
        # Generous bound: a few image transfer times.
        assert t150 < 5 * (image / ic.bandwidth_bytes_per_s) + 20 * ic.latency_s

    def test_negative_message_rejected(self):
        with pytest.raises(ConfigurationError):
            Interconnect().point_to_point_time(-1.0)

    def test_invalid_rank_count(self):
        with pytest.raises(ConfigurationError):
            Interconnect().allreduce_time(10.0, 0)


class TestComputeCluster:
    def test_caddy_shape(self, cluster):
        assert cluster.n_nodes == 150
        assert cluster.n_cores == 2_400
        assert len(cluster.cages) == 15
        assert len(cluster.monitors) == 15

    def test_caddy_power_envelope(self, cluster):
        """15 kW idle and 44 kW loaded (Section V)."""
        assert cluster.idle_watts == pytest.approx(15_000.0)
        assert cluster.peak_watts == pytest.approx(44_000.0, rel=1e-4)

    def test_run_phase_sets_and_resets_utilization(self, sim, cluster):
        def proc():
            yield from cluster.run_phase(10.0, 0.95)

        sim.process(proc())
        sim.run()
        assert sim.now == 10.0
        assert all(n.utilization == 0.0 for n in cluster.nodes)

    def test_run_phase_power_during(self, sim, cluster):
        def proc():
            yield from cluster.run_phase(60.0, 1.0)
            yield sim.timeout(60.0)

        sim.process(proc())
        sim.run()
        trace = cluster.read_total(0.0, 120.0)
        assert trace.watts[0] == pytest.approx(44_000.0, rel=1e-3)
        assert trace.watts[1] == pytest.approx(15_000.0, rel=1e-3)

    def test_read_monitors_sum_equals_read_total(self, sim, cluster):
        def proc():
            yield from cluster.run_phase(120.0, 0.5)

        sim.process(proc())
        sim.run()
        per_cage = cluster.read_monitors(0.0, 120.0)
        total = cluster.read_total(0.0, 120.0)
        assert sum(t.average_power() for t in per_cage) == pytest.approx(
            total.average_power()
        )

    def test_partial_cage_for_nondivisible_counts(self, sim):
        c = ComputeCluster(sim, n_nodes=25, nodes_per_cage=10)
        assert [len(cage) for cage in c.cages] == [10, 10, 5]

    def test_negative_phase_duration_rejected(self, sim, cluster):
        with pytest.raises(ConfigurationError):
            list(cluster.run_phase(-1.0, 0.5))

    def test_phase_profile_validation(self):
        with pytest.raises(ConfigurationError):
            PhaseProfile(simulation=1.5)

    def test_io_wait_keeps_cpus_hot(self):
        """MPI busy-polling: the default I/O phase is far from idle."""
        prof = PhaseProfile()
        assert prof.io_wait >= 0.8

    def test_current_power_tracks_nodes(self, sim, cluster):
        cluster.set_utilization(1.0)
        assert cluster.current_power == pytest.approx(44_000.0, rel=1e-4)

    def test_zero_nodes_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            ComputeCluster(sim, n_nodes=0)
