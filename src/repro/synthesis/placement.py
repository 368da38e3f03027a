"""Simulated-annealing analog placement (the LAYLA placer).

Minimizes half-perimeter wirelength plus area, under the analog
constraints LAYLA is known for:

* **no overlap** (hard, enforced by construction on a slot grid),
* **symmetry pairs** -- two cells mirrored about a common vertical
  axis (differential signal paths),
* **proximity groups** -- matched devices kept adjacent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .layout import DesignRules, Layout, LayoutCell, Placement
from ..robust.rng import resolve_rng
from ..robust.errors import ModelDomainError


@dataclass
class PlacementProblem:
    """Input to the placer.

    ``nets`` maps net name -> list of (instance, pin); ``symmetry``
    lists instance pairs to mirror about a shared axis; ``proximity``
    lists instance groups to keep together.
    """

    cells: Dict[str, LayoutCell]
    nets: Dict[str, List[Tuple[str, str]]]
    symmetry: List[Tuple[str, str]] = field(default_factory=list)
    proximity: List[List[str]] = field(default_factory=list)

    def validate(self) -> None:
        """Check that constraints reference known instances."""
        for a, b in self.symmetry:
            if a not in self.cells or b not in self.cells:
                raise ModelDomainError(f"symmetry pair ({a}, {b}) not placed")
        for group in self.proximity:
            for name in group:
                if name not in self.cells:
                    raise ModelDomainError(f"proximity member {name} unknown")


@dataclass
class _State:
    """Annealer state: instance -> (column, row) slot assignment."""

    slots: Dict[str, Tuple[int, int]]


class SimulatedAnnealingPlacer:
    """Slot-grid annealer.

    Instances live on a regular grid whose cell size is the largest
    instance footprint plus the design-rule margin, so any slot
    assignment is overlap-free; the annealer permutes slot assignments
    with swap/relocate moves.
    """

    def __init__(self, problem: PlacementProblem, rules: DesignRules,
                 seed: Optional[int] = None,
                 n_columns: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        problem.validate()
        self.problem = problem
        self.rules = rules
        self.rng = resolve_rng(rng, seed=seed)
        n_cells = len(problem.cells)
        self.n_columns = (n_columns if n_columns is not None
                          else max(int(math.ceil(math.sqrt(n_cells))), 1))
        self.n_rows = int(math.ceil(n_cells / self.n_columns)) + 1
        self.slot_w = max(cell.width for cell in problem.cells.values()) \
            + rules.cell_margin
        self.slot_h = max(cell.height for cell in problem.cells.values()) \
            + rules.cell_margin

    # --- geometry ----------------------------------------------------------

    def _position(self, slot: Tuple[int, int]) -> Tuple[float, float]:
        col, row = slot
        return (col * self.slot_w, row * self.slot_h)

    def _pin_position(self, state: _State, instance: str, pin: str
                      ) -> Tuple[float, float]:
        cell = self.problem.cells[instance]
        x, y = self._position(state.slots[instance])
        p = cell.pin(pin)
        return (x + p.x, y + p.y)

    # --- cost ---------------------------------------------------------------

    def cost(self, state: _State) -> float:
        """Wirelength + symmetry and proximity penalties (in metres)."""
        total = 0.0
        for terminals in self.problem.nets.values():
            points = [self._pin_position(state, inst, pin)
                      for inst, pin in terminals
                      if inst in state.slots]
            if len(points) < 2:
                continue
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        # Symmetry: same row, equidistant from the mean axis.
        for a, b in self.problem.symmetry:
            (ca, ra), (cb, rb) = state.slots[a], state.slots[b]
            total += abs(ra - rb) * self.slot_h * 4.0
            total += abs((ca + cb) / 2.0
                         - self.n_columns / 2.0) * self.slot_w * 0.5
        # Proximity: Manhattan spread of the group.
        for group in self.problem.proximity:
            cols = [state.slots[n][0] for n in group]
            rows = [state.slots[n][1] for n in group]
            spread = (max(cols) - min(cols)) + (max(rows) - min(rows))
            total += max(spread - len(group) + 1, 0) \
                * (self.slot_w + self.slot_h)
        return total

    # --- annealing -------------------------------------------------------------

    def _initial_state(self) -> _State:
        names = list(self.problem.cells)
        slots = {}
        for index, name in enumerate(names):
            slots[name] = (index % self.n_columns,
                           index // self.n_columns)
        return _State(slots=slots)

    def _random_move(self, state: _State) -> _State:
        names = list(state.slots)
        slots = dict(state.slots)
        if self.rng.random() < 0.5 and len(names) >= 2:
            a, b = self.rng.choice(len(names), size=2, replace=False)
            na, nb = names[int(a)], names[int(b)]
            slots[na], slots[nb] = slots[nb], slots[na]
        else:
            name = names[int(self.rng.integers(len(names)))]
            target = (int(self.rng.integers(self.n_columns)),
                      int(self.rng.integers(self.n_rows)))
            occupant = next((n for n, s in slots.items()
                             if s == target), None)
            if occupant is not None:
                slots[occupant] = slots[name]
            slots[name] = target
        return _State(slots=slots)

    def place(self, n_iterations: int = 3000,
              initial_temperature: Optional[float] = None,
              cooling: float = 0.995) -> Tuple[_State, List[float]]:
        """Run the annealer; returns (best state, cost history)."""
        if n_iterations < 1:
            raise ModelDomainError("n_iterations must be positive")
        state = self._initial_state()
        cost = self.cost(state)
        best_state, best_cost = state, cost
        temperature = (initial_temperature if initial_temperature
                       is not None else cost * 0.5 + 1e-9)
        history = [cost]
        for _ in range(n_iterations):
            candidate = self._random_move(state)
            c_cost = self.cost(candidate)
            delta = c_cost - cost
            if delta <= 0 or self.rng.random() < math.exp(
                    -delta / max(temperature, 1e-30)):
                state, cost = candidate, c_cost
                if cost < best_cost:
                    best_state, best_cost = state, cost
            temperature *= cooling
            history.append(cost)
        return best_state, history

    def to_layout(self, state: _State, name: str = "placed") -> Layout:
        """Materialize a state as a :class:`Layout`."""
        layout = Layout(name, self.rules)
        for inst, slot in state.slots.items():
            x, y = self._position(slot)
            layout.add_instance(inst, Placement(
                cell=self.problem.cells[inst], x=x, y=y))
        for net, terminals in self.problem.nets.items():
            layout.connect(net, terminals)
        return layout


def place_cells(problem: PlacementProblem, rules: DesignRules,
                n_iterations: int = 3000,
                seed: Optional[int] = None,
                name: str = "placed") -> Layout:
    """One-call placement: anneal and return the layout."""
    placer = SimulatedAnnealingPlacer(problem, rules, seed=seed)
    state, _ = placer.place(n_iterations=n_iterations)
    return placer.to_layout(state, name=name)
