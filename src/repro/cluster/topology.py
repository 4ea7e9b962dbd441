"""Cluster topology: cages of nodes and the InfiniBand interconnect.

*Cages* follow the paper's Appro GreenBlade layout — ten nodes per cage, one
power monitor per cage, fifteen cages covering all 150 nodes.  The cage is
the unit of simulated power state: it owns its members' utilization,
frequency and power, keeps their history, and writes the members' summed
power into one exact :class:`~repro.power.signal.PowerSignal` — the one
signal its :class:`~repro.power.meter.CageMonitor` reads.  A phase change
therefore costs one update per cage, however many nodes the cage holds;
per-node quantities (:class:`~repro.cluster.node.Node` properties and
:class:`MemberSignal`) are derived from the cage's history when asked for.

The :class:`Interconnect` is an analytical QLogic QDR InfiniBand model used
for collective-cost estimates (image compositing in the renderer, aggregation
in the parallel I/O layer).  It uses the standard latency/bandwidth (Hockney)
model with log-rounds collectives.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, NamedTuple, Optional, Sequence

from repro.errors import ConfigurationError, MeterError
from repro.power.meter import CageMonitor
from repro.power.signal import PowerSignal

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["Cage", "Interconnect", "MemberSignal", "Members"]


class Members(NamedTuple):
    """One setting of a cage's members, indexed by slot (immutable)."""

    utilization: tuple[float, ...]
    frequency_ghz: tuple[Optional[float], ...]
    watts: tuple[float, ...]
    total: float


class Cage:
    """A group of (up to) ten nodes behind one cage-level power monitor.

    The cage adopts ``nodes`` idle at the current simulated time and
    becomes the owner of their state: each node is a view of
    ``(cage, slot)`` from then on.
    """

    def __init__(self, index: int, nodes: Sequence[Node]) -> None:
        if not nodes:
            raise ConfigurationError("a cage needs at least one node")
        if len(nodes) > CageMonitor.NODES_PER_CAGE:
            raise ConfigurationError(
                f"cage holds at most {CageMonitor.NODES_PER_CAGE} nodes, got {len(nodes)}"
            )
        self.index = index
        self.nodes = list(nodes)
        self.sim = self.nodes[0].sim
        n = len(self.nodes)
        # Member-watts tuple -> cage total, and (utilization, frequency,
        # watts) -> the setting with every member at that level.
        self._totals: dict[tuple[float, ...], float] = {}
        self._uniform: dict[tuple[float, Optional[float], float], Members] = {}
        idle = self._members(
            (0.0,) * n, (None,) * n, tuple(node.power_model.idle_watts for node in self.nodes)
        )
        # History: ``_history[i]`` holds from ``_times[i]`` until the next entry.
        self._times = [self.sim.now]
        self._history = [idle]
        self.power_signal = PowerSignal(
            idle.total, start_time=self.sim.now, name=f"cage-{index:02d}"
        )
        self.monitor = CageMonitor(index)
        self.monitor.attach(self.power_signal)
        for slot, node in enumerate(self.nodes):
            node._cage, node._slot = self, slot

    def __len__(self) -> int:
        return len(self.nodes)

    # --------------------------------------------------------------- queries

    @property
    def members(self) -> Members:
        """The members' current setting."""
        return self._history[-1]

    def busy_seconds(self, slot: int) -> float:
        """Utilization-weighted seconds of member ``slot`` up to now."""
        ends = self._times[1:] + [self.sim.now]
        return sum(
            members.utilization[slot] * (t1 - t0)
            for members, t0, t1 in zip(self._history, self._times, ends)
        )

    # --------------------------------------------------------------- control

    def set_members(
        self,
        utilization: float,
        watts: float,
        frequency_ghz: Optional[float] = None,
        slots: Optional[Collection[int]] = None,
    ) -> None:
        """Set the members at ``slots`` (default: all) to one level *now*.

        ``watts`` is the power each of them draws at ``utilization`` and
        ``frequency_ghz``; the caller computes it once for the whole group.
        """
        if slots is None or len(slots) == len(self.nodes):
            key = (utilization, frequency_ghz, watts)
            members = self._uniform.get(key)
            if members is None:
                n = len(self.nodes)
                members = self._uniform[key] = self._members(
                    (utilization,) * n, (frequency_ghz,) * n, (watts,) * n
                )
        else:
            current = self._history[-1]
            u = list(current.utilization)
            f = list(current.frequency_ghz)
            w = list(current.watts)
            for slot in slots:
                u[slot], f[slot], w[slot] = utilization, frequency_ghz, watts
            members = self._members(tuple(u), tuple(f), tuple(w))
        now = self.sim.now
        if members != self._history[-1]:
            if now == self._times[-1]:
                self._history[-1] = members
            else:
                self._times.append(now)
                self._history.append(members)
        self.power_signal.set(now, members.total)

    def _members(
        self,
        utilization: tuple[float, ...],
        frequency_ghz: tuple[Optional[float], ...],
        watts: tuple[float, ...],
    ) -> Members:
        total = self._totals.get(watts)
        if total is None:
            # Left fold in slot order from 0.0: the same float the sum of
            # per-node signals gives, so cage readings stay bit-identical.
            total = 0.0
            for w in watts:
                total += w
            self._totals[watts] = total
        return Members(utilization, frequency_ghz, watts, total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cage {self.index}: {len(self.nodes)} nodes>"


class MemberSignal:
    """The exact power of one cage member, derived from the cage's history.

    Answers :meth:`value_at` like a
    :class:`~repro.power.signal.PowerSignal`, so meters can sum members
    node by node.
    """

    __slots__ = ("_cage", "_slot")

    def __init__(self, cage: Cage, slot: int) -> None:
        self._cage = cage
        self._slot = slot

    def value_at(self, time: float) -> float:  # repro-unit: watts, time=seconds
        """Instantaneous member power at ``time`` (right-continuous)."""
        times = self._cage._times
        if time < times[0]:
            raise MeterError(f"query at {time} precedes signal start {times[0]}")
        return self._cage._history[bisect.bisect_right(times, time) - 1].watts[self._slot]


@dataclass(frozen=True)
class Interconnect:
    """Hockney-model InfiniBand fabric.

    Defaults approximate QLogic QDR (4 × 10 Gb/s signalling, ~3.2 GB/s
    effective per link after 8b/10b encoding and protocol overhead, ~1.3 µs
    MPI latency).
    """

    latency_s: float = 1.3e-6
    bandwidth_bytes_per_s: float = 3.2e9

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ConfigurationError(f"negative latency: {self.latency_s}")
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError(f"non-positive bandwidth: {self.bandwidth_bytes_per_s}")

    def point_to_point_time(self, nbytes: float) -> float:
        """Time to move ``nbytes`` between two nodes."""
        if nbytes < 0:
            raise ConfigurationError(f"negative message size: {nbytes}")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s

    def _rounds(self, n_ranks: int) -> int:
        if n_ranks < 1:
            raise ConfigurationError(f"need >= 1 rank, got {n_ranks}")
        return max(1, math.ceil(math.log2(n_ranks))) if n_ranks > 1 else 0

    def allreduce_time(self, nbytes: float, n_ranks: int) -> float:
        """Recursive-doubling allreduce of an ``nbytes`` buffer."""
        r = self._rounds(n_ranks)
        return r * self.point_to_point_time(nbytes) if r else 0.0

    def gather_time(self, nbytes_per_rank: float, n_ranks: int) -> float:
        """Binomial-tree gather; the root ends up receiving everything."""
        if n_ranks <= 1:
            return 0.0
        r = self._rounds(n_ranks)
        # Data volume at the root doubles each round; total receive time is
        # dominated by the final rounds.
        total = 0.0
        for k in range(r):
            total += self.point_to_point_time(nbytes_per_rank * 2**k)
        return total

    def binary_swap_composite_time(self, image_bytes: float, n_ranks: int) -> float:
        """Binary-swap image compositing (the sort-last render pattern).

        Each of ``log2 p`` rounds exchanges half of the remaining image, so
        the per-rank traffic is bounded by the full image size; a final
        gather reassembles the image at the root.
        """
        if n_ranks <= 1:
            return 0.0
        r = self._rounds(n_ranks)
        time = 0.0
        remaining = image_bytes / 2.0
        for _ in range(r):
            time += self.point_to_point_time(remaining)
            remaining /= 2.0
        # Final gather of the fully composited tiles to rank 0.
        time += self.gather_time(image_bytes / n_ranks, n_ranks)
        return time
