"""Elmore delay on RC trees.

The first-order wire formula (eq. 3) covers point-to-point lines; real
signal and clock nets are trees.  This module provides an RC-tree data
structure and the Elmore delay -- the standard first moment of the
impulse response -- used by the clock-skew analysis (Fig. 5) and the
repeater-insertion optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..robust.validate import check_non_negative
from ..robust.errors import RoadmapDataError


@dataclass
class RCNode:
    """One node of an RC tree.

    ``resistance`` is the resistance of the branch from the parent to
    this node; ``capacitance`` is the grounded capacitance lumped at
    this node.
    """

    name: str
    resistance: float = 0.0
    capacitance: float = 0.0
    children: List["RCNode"] = field(default_factory=list)

    def add_child(self, child: "RCNode") -> "RCNode":
        """Attach ``child`` and return it (for chaining)."""
        self.children.append(child)
        return child

    def iter_nodes(self):
        """Yield this node and all descendants (pre-order)."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()


class RCTree:
    """An RC tree rooted at a driver with source resistance.

    Examples
    --------
    >>> tree = RCTree(driver_resistance=1e3)
    >>> a = tree.root.add_child(RCNode("a", 100.0, 1e-15))
    >>> tree.elmore_delay("a") > 0
    True
    """

    def __init__(self, driver_resistance: float = 0.0):
        check_non_negative("driver_resistance", driver_resistance)
        self.root = RCNode("root", resistance=driver_resistance)

    def subtree_capacitance(self, node: Optional[RCNode] = None) -> float:
        """Total capacitance at and below ``node`` [F]."""
        node = node or self.root
        return sum(n.capacitance for n in node.iter_nodes())

    def _path_to(self, name: str) -> List[RCNode]:
        """Return the node path root -> target."""
        def search(node: RCNode, path: List[RCNode]) -> Optional[List[RCNode]]:
            path = path + [node]
            if node.name == name:
                return path
            for child in node.children:
                found = search(child, path)
                if found:
                    return found
            return None

        path = search(self.root, [])
        if path is None:
            raise RoadmapDataError(f"no RC node named {name!r}")
        return path

    def elmore_delay(self, sink: str) -> float:
        """Elmore delay [s] from the driver to ``sink``.

        T_D = sum over path nodes k of R_k * C_downstream(k), the
        classic upper bound / first moment.
        """
        path = self._path_to(sink)
        delay = 0.0
        for node in path:
            delay += node.resistance * self.subtree_capacitance(node)
        return delay

    def all_sink_delays(self) -> Dict[str, float]:
        """Elmore delay to every leaf node."""
        return {node.name: self.elmore_delay(node.name)
                for node in self.root.iter_nodes()
                if not node.children and node is not self.root}

    def skew(self) -> float:
        """Max - min leaf delay [s] (clock-skew of the tree)."""
        delays = list(self.all_sink_delays().values())
        if not delays:
            return 0.0
        return max(delays) - min(delays)
