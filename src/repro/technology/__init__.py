"""CMOS technology substrate: node parameters and material models."""

from .node import TechnologyNode
from .library import all_nodes, get_node
from .materials import (
    CONDUCTORS,
    GATE_DIELECTRICS,
    INTER_METAL_DIELECTRICS,
    Conductor,
    GateDielectric,
    InterMetalDielectric,
    rc_improvement,
)

__all__ = [
    "TechnologyNode",
    "all_nodes",
    "get_node",
    "CONDUCTORS",
    "GATE_DIELECTRICS",
    "INTER_METAL_DIELECTRICS",
    "Conductor",
    "GateDielectric",
    "InterMetalDielectric",
    "rc_improvement",
]
