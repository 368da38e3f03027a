"""Gate-level netlist representation.

A :class:`Netlist` is a directed graph of sized cells connected by
named nets.  It is consumed by the static timing analyzer
(:mod:`repro.digital.timing`), the event-driven simulator
(:mod:`repro.digital.simulator`) and the SWAN substrate-noise flow
(:mod:`repro.substrate.swan`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..technology.node import TechnologyNode
from .gates import Cell, make_cell
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


class _InstanceView(Mapping):
    """Read-only ``name -> Instance`` view of a netlist's gate columns.

    ``len``, iteration (names in insertion order) and ``in`` read the
    columns and build nothing.  An :class:`Instance` is built on the
    first read of its item and kept, so every read of one gate returns
    the same object; once every gate has been read, :meth:`values` and
    :meth:`items` copy the kept list.  Both return lists, snapshots in
    insertion order.  The view holds the columns themselves, which the
    netlist only ever appends to, and no reference back to the netlist,
    so a dropped netlist is freed without waiting for the cyclic
    garbage collector.
    """

    __slots__ = ("_names", "_pins", "_outputs", "_kinds", "_cells",
                 "_position", "_built", "_n_built")

    def __init__(self, names: List[str], pins: List[Tuple[str, ...]],
                 outputs: List[str], kinds: List[int], cells: List[Cell],
                 position: Dict[str, int]):
        self._names = names
        self._pins = pins
        self._outputs = outputs
        self._kinds = kinds
        self._cells = cells
        self._position = position
        # Instance of each position read so far (None: not yet), and
        # how many are built; the list grows on demand.
        self._built: List[Optional[Instance]] = []
        self._n_built = 0

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._position

    def __getitem__(self, name: str) -> Instance:
        return self._at(self._position[name])

    def _at(self, position: int) -> Instance:
        """The instance of the gate at ``position`` in insertion order."""
        built = self._built
        if position >= len(built):
            built.extend([None] * (position + 1 - len(built)))
        instance = built[position]
        if instance is None:
            instance = built[position] = Instance(
                self._names[position],
                self._cells[self._kinds[position]],
                self._pins[position],
                self._outputs[position])
            self._n_built += 1
        return instance

    def _all(self) -> List[Instance]:
        """The kept list, with every gate's instance built."""
        n_gates = len(self._names)
        if self._n_built < n_gates:
            for position in range(n_gates):
                self._at(position)
        return self._built

    def values(self) -> List[Instance]:          # type: ignore[override]
        """Every instance, in insertion order."""
        return self._all()[:]

    def items(self) -> List[Tuple[str, Instance]]:  # type: ignore[override]
        """``(name, instance)`` pairs, in insertion order."""
        return list(zip(self._names, self._all()))


class Netlist:
    """A combinational / sequential gate-level netlist.

    Nets are plain strings; primary inputs are declared explicitly,
    every instance output defines its net, and any net that is never
    consumed is a primary output unless declared otherwise.

    Gates are kept as columns in insertion order -- names, pin tuples,
    output nets and a kind index into one shared :class:`Cell` per
    (cell name, drive type, drive) -- plus a name -> position index.
    :attr:`instances` is a read-only mapping over those columns that
    builds an :class:`Instance` only when one is read, so a flow that
    lowers the netlist to arrays (the compiled event engine, the SWAN
    placement) never builds one.

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
        self.primary_inputs: List[str] = []
        self._declared_outputs: List[str] = []
        self._net_driver: Dict[str, str] = {}
        # One immutable Cell per kind -- (cell name, drive type, drive)
        # -- shared by every instance of that kind: _kinds maps the key
        # to the kind's index in _kind_cells.
        self._kinds: Dict[Tuple[str, type, float], int] = {}
        self._kind_cells: List[Cell] = []
        # The gate columns, in insertion order, and name -> position.
        self._gate_names: List[str] = []
        self._gate_pins: List[Tuple[str, ...]] = []
        self._gate_outputs: List[str] = []
        self._gate_kind: List[int] = []
        self._gate_position: Dict[str, int] = {}
        self._instances = _InstanceView(
            self._gate_names, self._gate_pins, self._gate_outputs,
            self._gate_kind, self._kind_cells, self._gate_position)
        self._counter = 0
        self._loads_cache: Optional[Dict[str, List[int]]] = None
        self._topo_cache: Optional[List[Instance]] = None

    @property
    def instances(self) -> Mapping[str, Instance]:
        """Read-only ``name -> Instance`` mapping, in insertion order.

        A view of the gate columns: ``len``, iteration and ``in`` build
        nothing, and an instance is built on the first read of its item
        and kept, so ``add_gate(...) is instances[name]``.  ``values()``
        and ``items()`` return lists in insertion order.
        """
        return self._instances

    def _invalidate_caches(self) -> None:
        """Drop derived structure after a mutation."""
        self._loads_cache = None
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
        self._add_gates([(cell_name, inputs, output, drive, instance_name)])
        return self._instances._at(len(self._gate_names) - 1)

    def _add_gates(self, rows: Iterable[_GateRow]) -> None:
        """Add gates given as ``(cell_name, inputs, output, drive,
        instance_name)`` rows, in order.

        Each row is one :meth:`add_gate` call: the same checks in the
        same order, the same errors and auto-generated names.  Rows of
        one kind -- cell name, drive type and drive, so ``1`` and
        ``1.0`` differ -- share one :func:`make_cell` cell, which
        raised any unknown-cell or drive error when it was built.  A
        bad row raises with every row before it added.

        A row that passes every check appends to each gate column
        (name, pins, output, kind) and to the name index; no row
        builds an :class:`Instance`.  The columns stay in step after a
        bad row, and the compiled event engine and the SWAN placement
        read them directly.
        """
        node = self.node
        net_driver = self._net_driver
        kinds = self._kinds
        kind_cells = self._kind_cells
        names = self._gate_names
        pin_column = self._gate_pins
        outputs = self._gate_outputs
        gate_kind = self._gate_kind
        position = self._gate_position
        primary_inputs = set(self.primary_inputs)
        self._invalidate_caches()
        for cell_name, pins, output, drive, name in rows:
            counter = self._counter
            if output is None:
                output = f"n{counter}"
            if output in net_driver or output in primary_inputs:
                raise ModelDomainError(f"net {output!r} is already driven")
            if name is None:
                name = f"u{counter}"
            if name in position:
                raise ModelDomainError(f"instance {name!r} already exists")
            self._counter = counter + 1
            key = (cell_name, type(drive), drive)
            kind = kinds.get(key)
            if kind is None:
                cell = make_cell(cell_name, node, drive)
                kind = kinds[key] = len(kind_cells)
                kind_cells.append(cell)
            else:
                cell = kind_cells[kind]
            cell_type = cell.cell_type
            if len(pins) != cell_type.n_inputs:
                raise ModelDomainError(
                    f"{cell_name} takes {cell_type.n_inputs} inputs, "
                    f"got {len(pins)}")
            position[name] = len(names)
            names.append(name)
            pin_column.append(tuple(pins))
            outputs.append(output)
            gate_kind.append(kind)
            net_driver[output] = name

    # --- structure queries --------------------------------------------------

    @property
    def nets(self) -> List[str]:
        """All nets in the design."""
        seen = dict.fromkeys(self.primary_inputs)
        for pins, output in zip(self._gate_pins, self._gate_outputs):
            for net in pins:
                seen.setdefault(net)
            seen.setdefault(output)
        return list(seen)

    @property
    def primary_outputs(self) -> List[str]:
        """Declared outputs, or nets nothing consumes."""
        if self._declared_outputs:
            return list(self._declared_outputs)
        consumed = {net for pins in self._gate_pins for net in pins}
        return [output for output in self._gate_outputs
                if output not in consumed]

    def driver_of(self, net: str) -> Optional[Instance]:
        """Instance driving ``net`` (None for primary inputs)."""
        name = self._net_driver.get(net)
        return None if name is None else self._instances[name]

    def _net_loads(self) -> Dict[str, List[int]]:
        """net -> positions of the gates loading it, in insertion order.

        The fanout index that keeps :meth:`loads_of` and
        :meth:`fanout_capacitance` O(fanout): built by one pass over
        the pin column when first queried and cached until mutation.  A
        net on several pins of one gate loads that gate once.
        """
        if self._loads_cache is None:
            net_loads: Dict[str, List[int]] = {}
            for position, pins in enumerate(self._gate_pins):
                for net in pins:
                    loads = net_loads.get(net)
                    if loads is None:
                        net_loads[net] = [position]
                    elif loads[-1] != position:
                        loads.append(position)
            self._loads_cache = net_loads
        return self._loads_cache

    def loads_of(self, net: str) -> List[Instance]:
        """Instances with ``net`` as an input (O(fanout) via index)."""
        instance_at = self._instances._at
        return [instance_at(position)
                for position in self._net_loads().get(net, ())]

    def fanout_capacitance(self, net: str,
                           wire_cap_per_fanout: float = 0.5e-15) -> float:
        """Capacitive load on ``net`` [F]: pin caps + wire estimate.

        Each load adds its pin cap times the pins ``net`` takes on it
        to a running total, in :meth:`loads_of` order: an explicit left
        fold, because ``sum`` over floats is compensated from CPython
        3.12.  The compiled event engine folds the same terms in the
        same order, so the two agree bit for bit on every Python.
        """
        loads = self._net_loads().get(net, ())
        cells = self._kind_cells
        gate_kind = self._gate_kind
        gate_pins = self._gate_pins
        pin_cap = 0.0
        for position in loads:
            pin_cap += (cells[gate_kind[position]].input_capacitance
                        * gate_pins[position].count(net))
        return pin_cap + wire_cap_per_fanout * max(len(loads), 1)

    def gate_count(self) -> int:
        """Number of gate instances."""
        return len(self._gate_names)

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
            instance_at = self._instances._at
            self._topo_cache = [instance_at(position)
                                for position in self._kahn_order()]
        return list(self._topo_cache)

    def _kahn_order(self) -> List[int]:
        """Gate positions in :meth:`topological_order`."""
        net_driver = self._net_driver
        net_loads = self._net_loads()
        outputs = self._gate_outputs
        sequential = [cell.cell_type.is_sequential
                      for cell in self._kind_cells]
        # Unvisited driver count of each combinational gate with any;
        # each gate drives exactly one net, so distinct driven input
        # nets are distinct drivers.
        pending: Dict[int, int] = {}
        generation: List[int] = []
        for position, (kind, pins) in enumerate(
                zip(self._gate_kind, self._gate_pins)):
            count = 0 if sequential[kind] else len(
                {net for net in pins if net in net_driver})
            if count:
                pending[position] = count
            else:
                generation.append(position)
        order: List[int] = []
        while generation:
            following: List[int] = []
            for position in generation:
                order.append(position)
                for load in net_loads.get(outputs[position], ()):
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
