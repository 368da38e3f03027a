"""Grid-based Manhattan router for placed analog blocks.

Routes each net as a rectilinear spanning tree over a coarse routing
grid using BFS maze search (Lee's algorithm) with obstacle avoidance:
metal1 runs horizontal, metal2 vertical, vias where they meet.  Not a
production router -- but enough to close the AMGIE/LAYLA loop and
measure routed wirelength for Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..robust.guards import SimulationBudget
from ..robust.validate import check_count, check_non_negative, check_positive
from .layout import Layout, Rect


@dataclass(frozen=True)
class RouteResult:
    """Routing statistics for one layout."""

    n_nets: int
    n_routed: int
    total_wirelength: float     # m
    n_vias: int
    #: True when the router stopped early because its search budget
    #: ran out; the counts above still describe the nets it finished.
    budget_exhausted: bool = False

    @property
    def completion(self) -> float:
        """Fraction of nets fully routed."""
        return self.n_routed / self.n_nets if self.n_nets else 1.0


class MazeRouter:
    """Two-layer maze router over a uniform grid."""

    def __init__(self, layout: Layout, grid_pitch: Optional[float] = None,
                 halo: float = 0.0,
                 search_budget: Optional[int] = None):
        if grid_pitch is not None:
            check_positive("grid_pitch", grid_pitch)
        check_non_negative("halo", halo)
        if search_budget is not None:
            search_budget = check_count("search_budget", search_budget)
        self.search_budget = search_budget
        self._budget: Optional[SimulationBudget] = None
        self.layout = layout
        rules = layout.rules
        self.pitch = (grid_pitch if grid_pitch is not None
                      else rules.metal_width + rules.metal_spacing)
        x1, y1, x2, y2 = layout.bbox()
        margin = 8.0 * self.pitch
        self.x0 = x1 - margin
        self.y0 = y1 - margin
        self.nx = max(int((x2 - x1 + 2 * margin) / self.pitch), 4)
        self.ny = max(int((y2 - y1 + 2 * margin) / self.pitch), 4)
        self.halo = halo
        # Blocked cells per layer: cells covered by instance geometry.
        self.blocked: Dict[str, Set[Tuple[int, int]]] = {
            "metal1": set(), "metal2": set()}
        for placement in layout.placements.values():
            bx1, by1, bx2, by2 = placement.bbox()
            self._block_box(bx1 - halo, by1 - halo,
                            bx2 + halo, by2 + halo, "metal1")
        # Pins must be reachable: carve an access window around every
        # net terminal so routes can enter the blocked instance area.
        for terminals in layout.nets.values():
            for inst, pin in terminals:
                if inst not in layout.placements:
                    continue
                px, py = layout.placements[inst].pin_position(pin)
                i, j = self._to_grid(px, py)
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        self.blocked["metal1"].discard((i + di, j + dj))

    def _block_box(self, x1: float, y1: float, x2: float, y2: float,
                   layer: str) -> None:
        i1 = max(int((x1 - self.x0) / self.pitch), 0)
        i2 = min(int((x2 - self.x0) / self.pitch) + 1, self.nx)
        j1 = max(int((y1 - self.y0) / self.pitch), 0)
        j2 = min(int((y2 - self.y0) / self.pitch) + 1, self.ny)
        for i in range(i1, i2):
            for j in range(j1, j2):
                self.blocked[layer].add((i, j))

    def _to_grid(self, x: float, y: float) -> Tuple[int, int]:
        return (min(max(int(round((x - self.x0) / self.pitch)), 0),
                    self.nx - 1),
                min(max(int(round((y - self.y0) / self.pitch)), 0),
                    self.ny - 1))

    def _to_chip(self, i: int, j: int) -> Tuple[float, float]:
        return (self.x0 + i * self.pitch, self.y0 + j * self.pitch)

    #: Cost multiplier for grid cells covered by instance geometry.
    #: Routing over cells is legal but discouraged (it models using a
    #: higher layer over the device area).
    BLOCKED_COST = 8

    def _bfs(self, start: Tuple[int, int], targets: Set[Tuple[int, int]]
             ) -> Optional[List[Tuple[int, int]]]:
        """Cheapest grid path from start to any target.

        Weighted search: free cells cost 1, cells covered by instances
        cost :data:`BLOCKED_COST` -- routes prefer open channels but
        can always escape over a cell, so completion does not depend
        on placement luck.
        """
        import heapq
        if start in targets:
            return [start]
        blocked = self.blocked["metal1"]
        best: Dict[Tuple[int, int], float] = {start: 0.0}
        parent: Dict[Tuple[int, int], Tuple[int, int]] = {start: start}
        counter = 0
        queue = [(0.0, counter, start)]
        budget = self._budget
        while queue:
            if budget is not None and not budget.spend():
                return None  # search budget exhausted: give up this net
            cost, _, current = heapq.heappop(queue)
            if current in targets:
                path = [current]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if cost > best.get(current, float("inf")):
                continue
            ci, cj = current
            for ni, nj in ((ci + 1, cj), (ci - 1, cj),
                           (ci, cj + 1), (ci, cj - 1)):
                nxt = (ni, nj)
                if not (0 <= ni < self.nx and 0 <= nj < self.ny):
                    continue
                step = self.BLOCKED_COST if nxt in blocked else 1.0
                new_cost = cost + step
                if new_cost < best.get(nxt, float("inf")):
                    best[nxt] = new_cost
                    parent[nxt] = current
                    counter += 1
                    heapq.heappush(queue, (new_cost, counter, nxt))
        return None

    def route_net(self, terminals: Sequence[Tuple[float, float]]
                  ) -> Optional[List[List[Tuple[int, int]]]]:
        """Route one net as incremental paths to the growing tree."""
        if len(terminals) < 2:
            return []
        grid_points = [self._to_grid(x, y) for x, y in terminals]
        tree: Set[Tuple[int, int]] = {grid_points[0]}
        paths = []
        for point in grid_points[1:]:
            path = self._bfs(point, tree)
            if path is None:
                return None
            paths.append(path)
            tree.update(path)
        return paths

    def route(self) -> RouteResult:
        """Route every net in the layout; adds wire rects to it.

        With a ``search_budget`` the router stops expanding once the
        total number of heap pops across all nets exceeds it; nets
        routed before exhaustion are kept and the result is flagged
        ``budget_exhausted`` -- a partial answer, never a hang.
        """
        rules = self.layout.rules
        self._budget = (SimulationBudget(
            self.search_budget, name="router search budget",
            raise_on_exhaust=False)
            if self.search_budget is not None else None)
        n_routed = 0
        wirelength = 0.0
        n_vias = 0
        n_nets = 0
        for net, terminals in self.layout.nets.items():
            if self._budget is not None and self._budget.exhausted:
                break
            points = [self.layout.placements[inst].pin_position(pin)
                      for inst, pin in terminals
                      if inst in self.layout.placements]
            if len(points) < 2:
                continue
            n_nets += 1
            paths = self.route_net(points)
            if paths is None:
                continue
            n_routed += 1
            for path in paths:
                wirelength += (len(path) - 1) * self.pitch
                for (i1, j1), (i2, j2) in zip(path, path[1:]):
                    x1, y1 = self._to_chip(i1, j1)
                    x2, y2 = self._to_chip(i2, j2)
                    horizontal = j1 == j2
                    layer = "metal1" if horizontal else "metal2"
                    lx = min(x1, x2)
                    ly = min(y1, y2)
                    w = abs(x2 - x1) + rules.metal_width
                    h = abs(y2 - y1) + rules.metal_width
                    self.layout.routes.append(Rect(layer, lx, ly, w, h))
                # Vias at direction changes.
                for k in range(1, len(path) - 1):
                    (ia, ja), (ib, jb), (ic, jc) = \
                        path[k - 1], path[k], path[k + 1]
                    turned = (ia == ib) != (ib == ic)
                    if turned:
                        vx, vy = self._to_chip(ib, jb)
                        self.layout.routes.append(Rect(
                            "via1", vx, vy, rules.contact_size,
                            rules.contact_size))
                        n_vias += 1
                # Mark routed cells as (softly) used.
                for cell in path:
                    self.blocked["metal1"].add(cell)
        return RouteResult(
            n_nets=n_nets,
            n_routed=n_routed,
            total_wirelength=wirelength,
            n_vias=n_vias,
            budget_exhausted=(self._budget is not None
                              and self._budget.exhausted),
        )


def route_layout(layout: Layout, grid_pitch: Optional[float] = None,
                 search_budget: Optional[int] = None) -> RouteResult:
    """One-call routing of a placed layout."""
    return MazeRouter(layout, grid_pitch=grid_pitch,
                      search_budget=search_budget).route()
