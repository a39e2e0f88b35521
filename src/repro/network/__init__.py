"""Network substrate: fat-tree topology, ECMP routing, packet-level simulation, faults."""

from .faults import LinkFailure, RandomBlackhole, SwitchDrop, apply_faults, victims_by_cause
from .routing import EcmpRouter
from .simulator import EpochTruth, NetworkSimulator, build_testbed_simulator
from .topology import FatTreeSpec, FatTreeTopology, NodeId

__all__ = [
    "EcmpRouter",
    "EpochTruth",
    "FatTreeSpec",
    "FatTreeTopology",
    "LinkFailure",
    "NetworkSimulator",
    "NodeId",
    "RandomBlackhole",
    "SwitchDrop",
    "apply_faults",
    "build_testbed_simulator",
    "victims_by_cause",
]
