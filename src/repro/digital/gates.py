"""Standard-cell gate library.

Provides the logic, timing and electrical views of a small static-CMOS
cell library.  The same cells carry the SWAN substrate-injection
macromodels (:mod:`repro.substrate.injection`), so the digital
simulator and the substrate-noise flow share one library -- mirroring
the paper's description of SWAN ("a-priori characterizing every cell in
a digital standard cell library").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

from ..technology.node import TechnologyNode
from ..devices.capacitance import (inverter_input_capacitance,
                                   inverter_self_load)
from ..devices.leakage import gate_leakage_per_gate
from .delay import DelayModel
from ..robust.errors import ModelDomainError, RoadmapDataError


# Logic functions map an input tuple to a bool.
LogicFunction = Callable[[Tuple[bool, ...]], bool]


def _inv(inputs: Tuple[bool, ...]) -> bool:
    return not inputs[0]


def _buf(inputs: Tuple[bool, ...]) -> bool:
    return inputs[0]


def _nand(inputs: Tuple[bool, ...]) -> bool:
    return not all(inputs)


def _nor(inputs: Tuple[bool, ...]) -> bool:
    return not any(inputs)


def _and(inputs: Tuple[bool, ...]) -> bool:
    return all(inputs)


def _or(inputs: Tuple[bool, ...]) -> bool:
    return any(inputs)


def _xor(inputs: Tuple[bool, ...]) -> bool:
    return bool(sum(inputs) % 2)


def _xnor(inputs: Tuple[bool, ...]) -> bool:
    return not bool(sum(inputs) % 2)


def _mux(inputs: Tuple[bool, ...]) -> bool:
    select, a, b = inputs
    return b if select else a


def _aoi21(inputs: Tuple[bool, ...]) -> bool:
    a, b, c = inputs
    return not ((a and b) or c)


@dataclass(frozen=True)
class CellType:
    """One library cell: logic plus electrical characterization inputs.

    ``logical_effort`` follows Sutherland's convention (INV = 1);
    ``internal_nodes`` scales the substrate-injection charge in the
    SWAN macromodel (more internal switching -> more injected charge).
    """

    name: str
    n_inputs: int
    function: LogicFunction
    logical_effort: float = 1.0
    parasitic_effort: float = 1.0
    internal_nodes: int = 1
    is_sequential: bool = False

    def evaluate(self, inputs: Sequence[bool]) -> bool:
        """Evaluate the cell logic."""
        if len(inputs) != self.n_inputs:
            raise ModelDomainError(
                f"{self.name} takes {self.n_inputs} inputs, "
                f"got {len(inputs)}")
        return self.function(tuple(bool(v) for v in inputs))


# The library.  Logical efforts are the standard static-CMOS values.
CELL_TYPES: Dict[str, CellType] = {
    "INV": CellType("INV", 1, _inv, 1.0, 1.0, 1),
    "BUF": CellType("BUF", 1, _buf, 1.0, 2.0, 2),
    "NAND2": CellType("NAND2", 2, _nand, 4.0 / 3.0, 2.0, 2),
    "NAND3": CellType("NAND3", 3, _nand, 5.0 / 3.0, 3.0, 3),
    "NOR2": CellType("NOR2", 2, _nor, 5.0 / 3.0, 2.0, 2),
    "NOR3": CellType("NOR3", 3, _nor, 7.0 / 3.0, 3.0, 3),
    "AND2": CellType("AND2", 2, _and, 4.0 / 3.0, 3.0, 3),
    "OR2": CellType("OR2", 2, _or, 5.0 / 3.0, 3.0, 3),
    "XOR2": CellType("XOR2", 2, _xor, 4.0, 4.0, 4),
    "XNOR2": CellType("XNOR2", 2, _xnor, 4.0, 4.0, 4),
    "MUX2": CellType("MUX2", 3, _mux, 2.0, 4.0, 4),
    "AOI21": CellType("AOI21", 3, _aoi21, 2.0, 3.0, 3),
    "DFF": CellType("DFF", 2, _mux, 2.0, 8.0, 8, is_sequential=True),
}


@dataclass
class Cell:
    """A sized instance of a :class:`CellType` in a technology node."""

    cell_type: CellType
    node: TechnologyNode
    drive: float = 1.0          # drive strength in unit (X1) inverters

    def __post_init__(self) -> None:
        if self.drive <= 0:
            raise ModelDomainError(f"drive must be positive, got {self.drive}")

    @property
    def nmos_width(self) -> float:
        """Equivalent NMOS width of the output stage [m]."""
        return 2.0 * self.node.feature_size * self.drive

    @property
    def input_capacitance(self) -> float:
        """Capacitance of one input pin [F] (logical effort scaled)."""
        return (self.cell_type.logical_effort
                * inverter_input_capacitance(self.node, self.nmos_width))

    @property
    def output_parasitic(self) -> float:
        """Parasitic self-load at the output [F]."""
        return (self.cell_type.parasitic_effort
                * inverter_self_load(self.node, self.nmos_width))

    def delay_model(self, load_capacitance: float) -> DelayModel:
        """The :class:`DelayModel` of this cell driving the given load.

        The effective drive width is de-rated by the logical effort
        and the extra internal parasitics (beyond one inverter's) are
        folded into the load, so one alpha-power-law model covers the
        whole library.  ``load_capacitance`` may be a scalar or an
        array (one entry per gate) -- the batched timing engine builds
        a single array-valued model for a whole netlist this way.
        """
        return DelayModel(
            node=self.node,
            drive_width=self.nmos_width / self.cell_type.logical_effort,
            load_capacitance=load_capacitance
            + (self.cell_type.parasitic_effort - 1.0)
            * inverter_self_load(self.node, self.nmos_width),
        )

    def delay(self, load_capacitance: float,
              vth_offset: float = 0.0) -> float:
        """Propagation delay [s] driving ``load_capacitance``.

        ``vth_offset`` may be a scalar or a numpy array of per-sample
        shifts (elementwise delays come back in the same shape).
        """
        model = self.delay_model(load_capacitance)
        return model.delay(vth=self.node.vth + vth_offset)

    def leakage_current(self) -> float:
        """Average static leakage [A]."""
        budget = gate_leakage_per_gate(
            self.node,
            nmos_width=self.nmos_width,
            fanin=max(self.cell_type.n_inputs, 1))
        return budget.total

    def leakage_power(self) -> float:
        """Average static power [W]."""
        return self.leakage_current() * self.node.vdd

    def area(self) -> float:
        """Footprint estimate [m^2]: height 12 pitches, width scales
        with inputs and drive."""
        pitch = self.node.wire_pitch
        width = (2.0 + 2.0 * self.cell_type.n_inputs) * pitch \
            * math.sqrt(self.drive)
        return width * 12.0 * pitch


def make_cell(name: str, node: TechnologyNode, drive: float = 1.0) -> Cell:
    """Instantiate a library cell by name."""
    try:
        cell_type = CELL_TYPES[name]
    except KeyError:
        raise RoadmapDataError(
            f"unknown cell {name!r}; available: "
            f"{', '.join(CELL_TYPES)}") from None
    return Cell(cell_type=cell_type, node=node, drive=drive)
