"""Compute-cluster simulator (the paper's *Caddy* machine).

The cluster is a collection of :class:`~repro.cluster.node.Node` objects
grouped into cages of ten, each node carrying a calibrated power model.  The
cage owns its members' state and one exact
:class:`~repro.power.signal.PowerSignal` of their summed power; nodes are
views of cage slots.  Workflows drive the cluster
through *phases* (simulation, rendering, I/O wait), each with a utilization
level; node power follows utilization, which is how the paper's 15 kW-idle /
44 kW-loaded dynamic range — and the flat power profile of Fig. 5 — arise.
"""

from repro.cluster.machine import ComputeCluster, caddy
from repro.cluster.node import Node
from repro.cluster.power import CpuPowerModel, NodePowerModel, PState
from repro.cluster.topology import Cage, Interconnect

__all__ = [
    "Cage",
    "ComputeCluster",
    "CpuPowerModel",
    "Interconnect",
    "Node",
    "NodePowerModel",
    "PState",
    "caddy",
]
