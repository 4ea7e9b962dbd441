"""A simulated compute node.

A node is a thin, stable view of one slot of a
:class:`~repro.cluster.topology.Cage`, which owns the simulated state:
utilization, DVFS frequency and the power its
:class:`~repro.cluster.power.NodePowerModel` draws there.  Utilization,
power, busy core-seconds and the node's power signal are all derived from
the cage's history when asked for.  A node built on its own sits in a
one-node cage until a larger cage adopts it.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.power import NodePowerModel
from repro.cluster.topology import Cage, MemberSignal
from repro.errors import ConfigurationError
from repro.events.engine import Simulator

__all__ = ["Node"]


class Node:
    """One compute node: sockets × cores and a power model, in a cage slot."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        power_model: NodePowerModel,
        cores_per_socket: int = 8,
        memory_gb: float = 64.0,
    ) -> None:
        if node_id < 0:
            raise ConfigurationError(f"negative node id: {node_id}")
        if cores_per_socket < 1:
            raise ConfigurationError(f"cores_per_socket must be >= 1, got {cores_per_socket}")
        if memory_gb <= 0:
            raise ConfigurationError(f"memory must be positive, got {memory_gb}")
        self.sim = sim
        self.node_id = node_id
        self.power_model = power_model
        self.cores_per_socket = cores_per_socket
        self.memory_gb = memory_gb
        # Set by the owning cage: a node built on its own gets a one-node
        # cage until a larger cage adopts it.
        self._cage: Cage
        self._slot: int
        Cage(node_id, [self])

    # --------------------------------------------------------------- queries

    @property
    def n_cores(self) -> int:
        """Total core count of the node."""
        return self.power_model.n_sockets * self.cores_per_socket

    @property
    def cage(self) -> Cage:
        """The cage that owns this node's state."""
        return self._cage

    @property
    def slot(self) -> int:
        """This node's position in its cage."""
        return self._slot

    @property
    def utilization(self) -> float:
        """Current utilization in [0, 1]."""
        return self._cage.members.utilization[self._slot]

    @property
    def frequency_ghz(self) -> float:
        """Current operating frequency (base frequency unless DVFS'd)."""
        frequency = self._cage.members.frequency_ghz[self._slot]
        if frequency is not None:
            return frequency
        return self.power_model.cpu.base_frequency_ghz

    @property
    def current_power(self) -> float:
        """Instantaneous node power draw in watts."""
        return self._cage.members.watts[self._slot]

    @property
    def power_signal(self) -> MemberSignal:
        """The node's exact power over time, read from its cage."""
        return MemberSignal(self._cage, self._slot)

    def busy_core_seconds(self) -> float:
        """Accumulated core-busy-seconds up to the current simulated time."""
        return self.n_cores * self._cage.busy_seconds(self._slot)

    # --------------------------------------------------------------- control

    def set_utilization(self, utilization: float, frequency_ghz: Optional[float] = None) -> None:
        """Change the node's utilization (and optionally DVFS frequency) *now*."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(f"utilization outside [0, 1]: {utilization}")
        self._cage.set_members(
            utilization,
            self.power_model.power(utilization, frequency_ghz),
            frequency_ghz=frequency_ghz,
            slots=(self._slot,),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.node_id} util={self.utilization:.2f} "
            f"{self.current_power:.0f} W @ {self.sim.now:.1f}s>"
        )
