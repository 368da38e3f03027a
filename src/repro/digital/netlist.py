"""Gate-level netlist representation.

A :class:`Netlist` is a directed graph of sized cells connected by
named nets.  It is consumed by the static timing analyzer
(:mod:`repro.digital.timing`), the event-driven simulator
(:mod:`repro.digital.simulator`) and the SWAN substrate-noise flow
(:mod:`repro.substrate.swan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..technology.node import TechnologyNode
from .gates import CELL_TYPES, Cell, make_cell
from ..robust.errors import ModelDomainError

#: One gate for :meth:`Netlist._add_gates`: (cell name, input nets,
#: output net or None, drive, instance name or None).
_GateRow = Tuple[str, Sequence[str], Optional[str], float, Optional[str]]


@dataclass
class Instance:
    """One placed gate: a cell with named input nets and an output net."""

    name: str
    cell: Cell
    inputs: Tuple[str, ...]
    output: str

    @property
    def is_sequential(self) -> bool:
        """True for flip-flops and latches."""
        return self.cell.cell_type.is_sequential


class Netlist:
    """A combinational / sequential gate-level netlist.

    Nets are plain strings; primary inputs are declared explicitly,
    every instance output defines its net, and any net that is never
    consumed is a primary output unless declared otherwise.

    Examples
    --------
    >>> from repro.technology import get_node
    >>> netlist = Netlist(get_node("65nm"))
    >>> netlist.add_input("a"); netlist.add_input("b")
    >>> _ = netlist.add_gate("NAND2", ["a", "b"], "y")
    >>> netlist.evaluate({"a": True, "b": True})["y"]
    False
    """

    def __init__(self, node: TechnologyNode, name: str = "top"):
        self.node = node
        self.name = name
        self.instances: Dict[str, Instance] = {}
        self.primary_inputs: List[str] = []
        self._declared_outputs: List[str] = []
        self._net_driver: Dict[str, str] = {}
        # net -> instance names loading it, in insertion order (the
        # fanout index that keeps loads_of/fanout_capacitance O(fanout)
        # instead of a scan over every instance).
        self._net_loads: Dict[str, List[str]] = {}
        self._counter = 0
        self._topo_cache: Optional[List[Instance]] = None

    def _invalidate_caches(self) -> None:
        """Drop derived structure after a mutation."""
        self._topo_cache = None

    # --- construction -----------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        if net in self._net_driver:
            raise ModelDomainError(f"net {net!r} is already driven")
        if net in self.primary_inputs:
            raise ModelDomainError(f"input {net!r} already declared")
        self.primary_inputs.append(net)
        self._invalidate_caches()
        return net

    def add_inputs(self, nets: Iterable[str]) -> List[str]:
        """Declare several primary inputs."""
        return [self.add_input(net) for net in nets]

    def add_output(self, net: str) -> str:
        """Declare a primary output net."""
        self._declared_outputs.append(net)
        return net

    def add_gate(self, cell_name: str, inputs: Sequence[str],
                 output: Optional[str] = None, drive: float = 1.0,
                 instance_name: Optional[str] = None) -> Instance:
        """Add a gate instance and return it.

        ``output`` defaults to an auto-generated net name.
        """
        return self._add_gates(
            [(cell_name, inputs, output, drive, instance_name)])[0]

    def _add_gates(self, rows: Iterable[_GateRow]) -> List[Instance]:
        """Add gates given as ``(cell_name, inputs, output, drive,
        instance_name)`` rows, in order, and return them.

        Each row is one :meth:`add_gate` call: the same checks in the
        same order, the same errors, auto-generated names and index
        updates.  A bad row raises with every row before it added.
        """
        node = self.node
        instances = self.instances
        net_driver = self._net_driver
        net_loads = self._net_loads
        primary_inputs = self.primary_inputs
        added: List[Instance] = []
        self._invalidate_caches()
        for cell_name, pins, output, drive, name in rows:
            counter = self._counter
            if output is None:
                output = f"n{counter}"
            if output in net_driver or output in primary_inputs:
                raise ModelDomainError(f"net {output!r} is already driven")
            if name is None:
                name = f"u{counter}"
            if name in instances:
                raise ModelDomainError(f"instance {name!r} already exists")
            self._counter = counter + 1
            cell_type = CELL_TYPES.get(cell_name)
            if cell_type is None:
                make_cell(cell_name, node, drive)   # the unknown-cell error
            cell = Cell(cell_type, node, drive)
            if len(pins) != cell_type.n_inputs:
                raise ModelDomainError(
                    f"{cell_name} takes {cell_type.n_inputs} inputs, "
                    f"got {len(pins)}")
            instance = Instance(name, cell, tuple(pins), output)
            instances[name] = instance
            net_driver[output] = name
            for net in instance.inputs:
                loads = net_loads.get(net)
                if loads is None:
                    net_loads[net] = [name]
                elif loads[-1] != name:     # a net on several pins
                    loads.append(name)      # loads this gate once
            added.append(instance)
        return added

    # --- structure queries --------------------------------------------------

    @property
    def nets(self) -> List[str]:
        """All nets in the design."""
        seen = dict.fromkeys(self.primary_inputs)
        for instance in self.instances.values():
            for net in instance.inputs:
                seen.setdefault(net)
            seen.setdefault(instance.output)
        return list(seen)

    @property
    def primary_outputs(self) -> List[str]:
        """Declared outputs, or nets nothing consumes."""
        if self._declared_outputs:
            return list(self._declared_outputs)
        consumed = {net for inst in self.instances.values()
                    for net in inst.inputs}
        return [inst.output for inst in self.instances.values()
                if inst.output not in consumed]

    def driver_of(self, net: str) -> Optional[Instance]:
        """Instance driving ``net`` (None for primary inputs)."""
        name = self._net_driver.get(net)
        return self.instances[name] if name else None

    def loads_of(self, net: str) -> List[Instance]:
        """Instances with ``net`` as an input (O(fanout) via index)."""
        return [self.instances[name]
                for name in self._net_loads.get(net, ())]

    def fanout_capacitance(self, net: str,
                           wire_cap_per_fanout: float = 0.5e-15) -> float:
        """Capacitive load on ``net`` [F]: pin caps + wire estimate."""
        loads = self.loads_of(net)
        pin_cap = sum(inst.cell.input_capacitance
                      * inst.inputs.count(net) for inst in loads)
        return pin_cap + wire_cap_per_fanout * max(len(loads), 1)

    def gate_count(self) -> int:
        """Number of gate instances."""
        return len(self.instances)

    def topological_order(self) -> List[Instance]:
        """Instances in topological order (cached until mutation).

        Sequential cells break cycles: edges *out of* flip-flops are
        treated as new timing startpoints, so feedback through DFFs is
        legal.

        The order comes from a generational Kahn pass over the
        driver -> load graph (in-edges of sequential cells cut, a net
        on several pins of one load counted once).  The first
        generation is every instance without a driver in insertion
        order; each later one collects the loads whose last unvisited
        driver sits in the previous generation, in the order those
        drivers are visited and then in net-load insertion order.  The
        timing analyzers break equal-arrival ties by this order, so it
        must not change.
        """
        if self._topo_cache is None:
            self._topo_cache = self._kahn_order()
        return list(self._topo_cache)

    def _kahn_order(self) -> List[Instance]:
        instances = self.instances
        net_driver = self._net_driver
        net_loads = self._net_loads
        # Unvisited driver count of each combinational instance with
        # any; each instance drives exactly one net, so distinct driven
        # input nets are distinct drivers.
        pending: Dict[str, int] = {}
        generation: List[str] = []
        for name, inst in instances.items():
            count = 0 if inst.is_sequential else len(
                {net for net in inst.inputs if net in net_driver})
            if count:
                pending[name] = count
            else:
                generation.append(name)
        order: List[Instance] = []
        while generation:
            following: List[str] = []
            for name in generation:
                inst = instances[name]
                order.append(inst)
                for load in net_loads.get(inst.output, ()):
                    count = pending.get(load)
                    if count is None:       # sequential: in-edges cut
                        continue
                    if count == 1:
                        del pending[load]
                        following.append(load)
                    else:
                        pending[load] = count - 1
            generation = following
        if pending:
            raise ModelDomainError("netlist contains a combinational loop")
        return order

    # --- evaluation -----------------------------------------------------------

    def evaluate(self, input_values: Dict[str, bool],
                 state: Optional[Dict[str, bool]] = None
                 ) -> Dict[str, bool]:
        """Evaluate all nets for the given primary-input values.

        ``state`` supplies current flip-flop outputs (by output net);
        missing state bits default to False.  Returns every net value.
        """
        missing = [net for net in self.primary_inputs
                   if net not in input_values]
        if missing:
            raise ModelDomainError(f"missing input values for {missing}")
        values: Dict[str, bool] = {net: bool(v)
                                   for net, v in input_values.items()}
        state = state or {}
        for instance in self.topological_order():
            if instance.is_sequential:
                values[instance.output] = bool(
                    state.get(instance.output, False))
                continue
            ins = tuple(values.get(net, False) for net in instance.inputs)
            values[instance.output] = instance.cell.cell_type.evaluate(ins)
        return values

    def step(self, input_values: Dict[str, bool],
             state: Optional[Dict[str, bool]] = None
             ) -> Tuple[Dict[str, bool], Dict[str, bool]]:
        """One clock cycle: evaluate, then capture DFF inputs.

        Returns (net values, next state).  DFF input pin 1 is the data
        pin (pin 0 is treated as enable and ignored here).
        """
        values = self.evaluate(input_values, state)
        next_state = {}
        for instance in self.instances.values():
            if instance.is_sequential:
                data_net = instance.inputs[-1]
                next_state[instance.output] = values.get(data_net, False)
        return values, next_state

    # --- aggregate electrical views -----------------------------------------

    def total_leakage_power(self) -> float:
        """Sum of cell leakage powers [W]."""
        return sum(inst.cell.leakage_power()
                   for inst in self.instances.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Netlist({self.name!r}, {self.gate_count()} gates, "
                f"{len(self.primary_inputs)} inputs, "
                f"{len(self.primary_outputs)} outputs)")
