"""GALS partitioning: globally asynchronous, locally synchronous.

Section 3.3's architectural conclusion: when the skew-limited
synchronous region shrinks below the die size, the chip must be split
into locally synchronous islands talking through asynchronous
interfaces -- "power and silicon area overhead along with an increased
design complexity".  This module quantifies that: island counts,
interface overheads, and the crossover node where a given die/clock
combination stops fitting in one clock domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..technology.node import TechnologyNode
from ..interconnect.clocktree import max_wire_length_for_skew
from ..robust.errors import ModelDomainError


@dataclass(frozen=True)
class GalsPartition:
    """A GALS partitioning of one die at one node/frequency."""

    node_name: str
    die_edge: float            # m
    frequency: float           # Hz
    island_edge: float         # m (skew-limited synchronous region)
    islands_per_edge: int
    n_islands: int
    n_interfaces: int          # async boundaries between neighbours
    interface_area_overhead: float   # fraction of die area
    interface_power_overhead: float  # fraction of core dynamic power
    synchronizer_latency: float      # s per crossing


def partition_die(node: TechnologyNode, die_edge: float = 10e-3,
                  frequency: float = 1e9,
                  skew_fraction: float = 0.2,
                  interface_depth: int = 4) -> GalsPartition:
    """Partition a die into skew-feasible synchronous islands.

    Each island's edge is the skew-limited wire length of
    :func:`~repro.interconnect.clocktree.max_wire_length_for_skew`;
    neighbouring islands pay an asynchronous FIFO interface whose cost
    is modelled as a strip of ``interface_depth`` flip-flop rows along
    the shared border, plus a 2-cycle synchronizer latency.
    """
    if die_edge <= 0:
        raise ModelDomainError("die_edge must be positive")
    island_edge = max_wire_length_for_skew(node, frequency, skew_fraction)
    islands_per_edge = max(int(math.ceil(die_edge / island_edge)), 1)
    n_islands = islands_per_edge ** 2
    # Internal borders: 2 * n * (n - 1) for an n x n grid.
    n_interfaces = 2 * islands_per_edge * (islands_per_edge - 1)
    # Interface strip: FF rows of ~12 pitches height along each border.
    strip_width = interface_depth * 12.0 * node.wire_pitch
    border_length = min(island_edge, die_edge)
    interface_area = n_interfaces * strip_width * border_length
    area_overhead = interface_area / die_edge ** 2
    # The interface registers clock every cycle: power overhead scales
    # with their share of the (activity-weighted) flop population.
    power_overhead = min(area_overhead * 3.0, 1.0)
    return GalsPartition(
        node_name=node.name,
        die_edge=die_edge,
        frequency=frequency,
        island_edge=island_edge,
        islands_per_edge=islands_per_edge,
        n_islands=n_islands,
        n_interfaces=n_interfaces,
        interface_area_overhead=area_overhead,
        interface_power_overhead=power_overhead,
        synchronizer_latency=2.0 / frequency,
    )


def gals_trend(nodes: Sequence[TechnologyNode],
               die_edge: float = 10e-3,
               frequency: float = 1e9) -> List[Dict[str, float]]:
    """Island count and overheads per node at fixed die and clock.

    The paper's localization argument in one table: the island count
    grows with scaling and the async overhead follows.
    """
    rows = []
    for node in nodes:
        partition = partition_die(node, die_edge, frequency)
        rows.append({
            "node": node.name,
            "island_edge_mm": partition.island_edge * 1e3,
            "n_islands": float(partition.n_islands),
            "n_interfaces": float(partition.n_interfaces),
            "area_overhead_pct":
                partition.interface_area_overhead * 100.0,
            "power_overhead_pct":
                partition.interface_power_overhead * 100.0,
        })
    return rows


def single_domain_max_frequency(node: TechnologyNode,
                                die_edge: float = 10e-3,
                                skew_fraction: float = 0.2) -> float:
    """Highest clock [Hz] at which the whole die stays one domain.

    Inverts the skew constraint: for an unrepeated clock wire,
    f_max = fraction * 2 / (r*c*die_edge^2).
    """
    if die_edge <= 0:
        raise ModelDomainError("die_edge must be positive")
    lo, hi = 1e6, 1e12
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        reach = max_wire_length_for_skew(node, mid, skew_fraction)
        if reach >= die_edge:
            lo = mid
        else:
            hi = mid
    return lo
