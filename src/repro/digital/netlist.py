"""Gate-level netlist representation.

A :class:`Netlist` is a directed graph of sized cells connected by
named nets.  It is consumed by the static timing analyzer
(:mod:`repro.digital.timing`), the event-driven simulator
(:mod:`repro.digital.simulator`) and the SWAN substrate-noise flow
(:mod:`repro.substrate.swan`).
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..technology.node import TechnologyNode
from .gates import CELL_TYPES, Cell, make_cell
from ..robust.errors import ModelDomainError

#: One gate for :meth:`Netlist._add_gates`: (cell name, input nets,
#: output net or None, drive, instance name or None).
_GateRow = Tuple[str, Sequence[str], Optional[str], float, Optional[str]]

#: ``Netlist._net_driver`` of a net no gate drives: -1, or this for a
#: primary input (which no gate may drive).
_PRIMARY_INPUT = -2

#: Shared, read-only empty result of :func:`_csr_rows`.
_NO_GATES = np.zeros(0, dtype=np.int64)
_NO_GATES.flags.writeable = False


def _csr_rows(rows: np.ndarray, csr_start: np.ndarray,
              csr_count: np.ndarray, csr_gates: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
    """The loads of each net in ``rows``, concatenated in row order.

    Returns the load gates and, for each, its position in ``rows``.
    """
    counts = csr_count[rows]
    total = int(counts.sum())
    if not total:
        return _NO_GATES, _NO_GATES
    offsets = np.cumsum(counts) - counts
    ramp = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return (csr_gates[np.repeat(csr_start[rows], counts) + ramp],
            np.repeat(np.arange(rows.size, dtype=np.int64), counts))


class _Lowering(NamedTuple):
    """A netlist's structure as read-only arrays (:meth:`Netlist
    ._lowering`).  Gates are numbered in insertion order and nets in
    :attr:`Netlist.nets` order; net ``n_nets`` is the padding slot."""

    fanin: np.ndarray        # (n_gates, 3) pin nets, padded with n_nets
    n_inputs: np.ndarray     # (n_gates,) pins of each gate
    out_net: np.ndarray      # (n_gates,) output net
    is_seq: np.ndarray       # (n_gates,) flip-flop or latch
    pin_cap: np.ndarray      # (n_gates,) left-folded pin caps of the output
    load_count: np.ndarray   # (n_gates,) distinct loads of the output
    csr_gates: np.ndarray    # combinational loads, grouped by net
    csr_count: np.ndarray    # (n_nets,) combinational loads per net
    csr_start: np.ndarray    # (n_nets,) each net's first in csr_gates
    order: np.ndarray        # gates in topological order
    levels: List[np.ndarray]  # combinational settle levels

    def load_capacitance(self, wire_cap_per_fanout: float) -> np.ndarray:
        """Each gate's output load [F], bit for bit
        :meth:`Netlist.fanout_capacitance` of its output net."""
        return self.pin_cap + wire_cap_per_fanout * np.maximum(
            self.load_count, 1)


@dataclass(frozen=True, init=False)
class Instance:
    """One placed gate: a cell with named input nets and an output net.

    Frozen: it reads one gate of its netlist, and assigning to a field
    would silently part it from the netlist's own columns.
    """

    name: str
    cell: Cell
    inputs: Tuple[str, ...]
    output: str

    def __init__(self, name: str, cell: Cell, inputs: Tuple[str, ...],
                 output: str):
        # What the frozen dataclass's own __init__ does field by field
        # through object.__setattr__, at half the cost: every add_gate
        # builds one.
        fields = self.__dict__
        fields["name"] = name
        fields["cell"] = cell
        fields["inputs"] = inputs
        fields["output"] = output

    @property
    def is_sequential(self) -> bool:
        """True for flip-flops and latches."""
        return self.cell.cell_type.is_sequential


class _InstanceView(Mapping):
    """Read-only ``name -> Instance`` view of a netlist's gate columns.

    ``len``, iteration (names in insertion order) and ``in`` read the
    columns and build nothing.  An :class:`Instance` is built on the
    first read of its item, its net ids named through the net table,
    and kept, so every read of one gate returns the same object; once
    every gate has been read, :meth:`values` and :meth:`items` copy
    the kept list.  Both return lists, snapshots in insertion order.
    The view holds the columns themselves, which the netlist only
    ever appends to, and no reference back to the netlist, so a
    dropped netlist is freed without waiting for the cyclic garbage
    collector.
    """

    __slots__ = ("_names", "_pins", "_pin_end", "_outputs", "_kinds",
                 "_cells", "_net_names", "_position", "_built",
                 "_n_built")

    def __init__(self, names: List[str], pins: array, pin_end: array,
                 outputs: array, kinds: array, cells: List[Cell],
                 net_names: List[str], position: Dict[str, int]):
        self._names = names
        self._pins = pins
        self._pin_end = pin_end
        self._outputs = outputs
        self._kinds = kinds
        self._cells = cells
        self._net_names = net_names
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

    def _at(self, position: int,
            inputs: Optional[Tuple[str, ...]] = None) -> Instance:
        """The instance of the gate at ``position`` in insertion order.

        ``inputs``, if given, are the gate's input nets as its row
        named them, so a new instance need not name its pin ids.
        """
        built = self._built
        if position >= len(built):
            built.extend([None] * (position + 1 - len(built)))
        instance = built[position]
        if instance is None:
            net_names = self._net_names
            if inputs is None:
                pin_end = self._pin_end
                start = pin_end[position - 1] if position else 0
                inputs = tuple([net_names[net] for net
                                in self._pins[start:pin_end[position]]])
            instance = built[position] = Instance(
                self._names[position],
                self._cells[self._kinds[position]],
                inputs,
                net_names[self._outputs[position]])
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

    Nets are named by strings; primary inputs are declared explicitly,
    every instance output defines its net, and any net that is never
    consumed is a primary output unless declared otherwise.

    Every net is numbered once, when it is created: a net table maps
    ids to names, its index maps names to ids, and a per-net column
    holds the position of the net's driving gate.  Gates are kept as
    columns in insertion order -- names, pins as net ids (one flat
    column and each gate's end offset in it), output net ids and a
    kind index into one shared :class:`Cell` per (cell name, drive
    type, drive) -- plus a name -> position index.  Ids follow
    creation; :attr:`nets` orders the nets by first sight after the
    primary inputs, an order that :meth:`_net_order` computes once per
    netlist state with array passes and that the compiled event engine
    shares.  :meth:`_lowering` lowers the gates, once per netlist
    state, to the arrays that :meth:`topological_order` and both
    compiled engines read.  :attr:`instances` is a read-only mapping
    over the columns that builds an :class:`Instance` only when one is
    read, so a flow that lowers the netlist to arrays (the compiled
    engines, the SWAN placement) builds none and looks up no net by
    name.

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
        # The net table: id -> name, name -> id, and the position of
        # each net's driving gate (-1: none, _PRIMARY_INPUT: none, and
        # the net is a primary input).
        self._net_names: List[str] = []
        self._net_index: Dict[str, int] = {}
        self._net_driver = array("q")
        # One immutable Cell per kind -- (cell name, drive type, drive)
        # -- shared by every instance of that kind: _kinds maps the key
        # to the kind's index in _kind_cells.
        self._kinds: Dict[Tuple[str, type, float], int] = {}
        self._kind_cells: List[Cell] = []
        # The gate columns, in insertion order, and name -> position.
        # Gate g's pins are the net ids of _gate_pins from the previous
        # gate's end offset up to _gate_pin_end[g].
        self._gate_names: List[str] = []
        self._gate_pins = array("q")
        self._gate_pin_end = array("q")
        self._gate_outputs = array("q")
        self._gate_kind = array("q")
        self._gate_position: Dict[str, int] = {}
        self._instances = _InstanceView(
            self._gate_names, self._gate_pins, self._gate_pin_end,
            self._gate_outputs, self._gate_kind, self._kind_cells,
            self._net_names, self._gate_position)
        self._counter = 0
        self._loads_cache: Optional[Dict[str, List[int]]] = None
        self._topo_cache: Optional[List[Instance]] = None
        self._order_cache: Optional[Tuple[np.ndarray,
                                          Tuple[str, ...]]] = None
        self._kind_cache: Optional[np.ndarray] = None
        self._lowering_cache: Optional[_Lowering] = None

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
        self._order_cache = None
        self._kind_cache = None
        self._lowering_cache = None

    # --- construction -----------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary input net."""
        driver = self._net_driver
        net_id = self._net_index.get(net)
        if net_id is None:
            self._net_index[net] = len(self._net_names)
            self._net_names.append(net)
            driver.append(_PRIMARY_INPUT)
        elif driver[net_id] >= 0:
            raise ModelDomainError(f"net {net!r} is already driven")
        elif driver[net_id] == _PRIMARY_INPUT:
            raise ModelDomainError(f"input {net!r} already declared")
        else:
            driver[net_id] = _PRIMARY_INPUT
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
        return self._instances._at(len(self._gate_names) - 1, tuple(inputs))

    def _add_gates(self, rows: Iterable[_GateRow]) -> None:
        """Add gates given as ``(cell_name, inputs, output, drive,
        instance_name)`` rows of names, in order.

        Each row is one :meth:`add_gate` call: the same checks in the
        same order, the same errors and auto-generated names.  Rows of
        one kind -- cell name, drive type and drive, so ``1`` and
        ``1.0`` differ -- share one :func:`make_cell` cell, which
        raised any unknown-cell or drive error when it was built.  A
        bad row raises with every row before it added.

        A row that passes every check numbers its nets, pins then
        output -- a name the net table lacks gets the next id -- and
        appends to each gate column (name, pin ids and end offset,
        output id, kind) and to the name index; no row builds an
        :class:`Instance`.  A bad row numbers nothing, so the columns
        and the net table stay in step after it.
        """
        node = self.node
        net_names = self._net_names
        net_index = self._net_index
        driver = self._net_driver
        kinds = self._kinds
        kind_cells = self._kind_cells
        names = self._gate_names
        pin_column = self._gate_pins
        pin_end = self._gate_pin_end
        outputs = self._gate_outputs
        gate_kind = self._gate_kind
        position = self._gate_position
        self._invalidate_caches()
        for cell_name, pins, output, drive, name in rows:
            counter = self._counter
            if output is None:
                output = f"n{counter}"
            out_net = net_index.get(output)
            # Driven, or a primary input.
            if out_net is not None and driver[out_net] != -1:
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
            gate = len(names)
            position[name] = gate
            names.append(name)
            for net in pins:
                net_id = net_index.get(net)
                if net_id is None:
                    net_id = net_index[net] = len(net_names)
                    net_names.append(net)
                    driver.append(-1)
                pin_column.append(net_id)
            pin_end.append(len(pin_column))
            # Looked up again: one of the gate's own pins may name it.
            out_net = net_index.get(output)
            if out_net is None:
                net_index[output] = len(net_names)
                net_names.append(output)
                driver.append(gate)
                outputs.append(len(net_names) - 1)
            else:
                driver[out_net] = gate
                outputs.append(out_net)
            gate_kind.append(kind)

    def _add_columns(self, base: int, net_names: Sequence[str],
                     cells: Sequence[str], pins: Sequence[int],
                     pin_counts: Sequence[int],
                     outputs: Sequence[int]) -> None:
        """Add auto-named, drive-1 gates given as numbered columns.

        ``net_names`` names new nets, numbered from ``base`` on (the
        netlist's net count when the columns were started); ``pins``
        (flat, ``pin_counts`` of them per gate) and ``outputs`` are net
        ids, below ``base`` for nets the netlist already has.  Gate k
        is the row ``(cells[k], its pins, outputs[k], 1.0, None)``.

        The batch is checked at once (:meth:`_append_columns`) and, if
        it passes, appended as it is.  Otherwise the gates go through
        :meth:`_add_gates` as string rows, so a bad gate's error, its
        message, the gates added before it and the counter are exactly
        what :meth:`add_gate` gives.
        """
        if self._append_columns(base, net_names, cells, pins, pin_counts,
                                outputs):
            return
        known = self._net_names
        pin_names = [known[net] if net < base else net_names[net - base]
                     for net in pins]
        self._add_gates(
            (cell_name, pin_names[end - count:end],
             known[output] if output < base else net_names[output - base],
             1.0, None)
            for cell_name, count, end, output in zip(
                cells, pin_counts, itertools.accumulate(pin_counts),
                outputs))

    def _append_columns(self, base: int, net_names: Sequence[str],
                        cells: Sequence[str], pins: Sequence[int],
                        pin_counts: Sequence[int],
                        outputs: Sequence[int]) -> bool:
        """Check numbered columns as one batch and append them if they
        pass; returns whether they did.

        The checks are the rows' own, made with array and set
        operations: the net ids index the net table or the new names,
        the new names are distinct and new to the netlist, every output
        is a new net and none repeats (so none is a primary input or
        already driven), the instance names the rows would take are
        free, every cell is known and each gate's pin count is its
        cell's.  The kinds the batch uses are then made in the order of
        their first use, as the rows would make them.  A batch that
        fails changes nothing.
        """
        n_gates = len(cells)
        n_new = len(net_names)
        pin_ids = np.fromiter(pins, np.int64, len(pins))
        counts = np.fromiter(pin_counts, np.int64, n_gates)
        out_ids = np.fromiter(outputs, np.int64, n_gates)
        first = self._counter
        gate_names = [f"u{counter}"
                      for counter in range(first, first + n_gates)]
        new_index = dict(zip(net_names, range(base, base + n_new)))
        # The distinct cells in order of first use, and each gate's.
        code_of = dict.fromkeys(cells)
        for k, cell_name in enumerate(code_of):
            code_of[cell_name] = k
        code = np.fromiter(map(code_of.__getitem__, cells), np.int64,
                           n_gates)
        fresh = out_ids - base
        position = self._gate_position
        if not (base == len(self._net_names)
                and counts.sum() == pin_ids.size
                and pin_ids.min(initial=0) >= 0
                and pin_ids.max(initial=0) < base + n_new
                and fresh.min(initial=0) >= 0
                and fresh.max(initial=0) < n_new
                and np.bincount(fresh).max(initial=0) <= 1
                and len(new_index) == n_new
                and self._net_index.keys().isdisjoint(new_index.keys())
                and (not position
                     or position.keys().isdisjoint(gate_names))
                and all(cell_name in CELL_TYPES for cell_name in code_of)
                and np.array_equal(counts, np.array(
                    [CELL_TYPES[cell_name].n_inputs
                     for cell_name in code_of], dtype=np.int64)[code])):
            return False
        kinds = self._kinds
        kind_cells = self._kind_cells
        kind_of_code = np.empty(len(code_of), dtype=np.int64)
        for k, cell_name in enumerate(code_of):
            key = (cell_name, float, 1.0)
            kind = kinds.get(key)
            if kind is None:
                kind = kinds[key] = len(kind_cells)
                kind_cells.append(make_cell(cell_name, self.node, 1.0))
            kind_of_code[k] = kind
        self._invalidate_caches()
        start = len(self._gate_names)
        self._counter = first + n_gates
        self._net_names += net_names
        self._net_index.update(new_index)
        driver = np.full(n_new, -1, dtype=np.int64)
        driver[fresh] = np.arange(start, start + n_gates)
        self._net_driver.frombytes(driver.tobytes())
        self._gate_names += gate_names
        position.update(zip(gate_names, range(start, start + n_gates)))
        self._gate_pin_end.frombytes(
            (np.cumsum(counts) + len(self._gate_pins)).tobytes())
        self._gate_pins.frombytes(pin_ids.tobytes())
        self._gate_outputs.frombytes(out_ids.tobytes())
        self._gate_kind.frombytes(kind_of_code[code].tobytes())
        return True

    # --- structure queries --------------------------------------------------

    def _net_order(self) -> Tuple[np.ndarray, Tuple[str, ...]]:
        """Each net id's position in :attr:`nets` (-1: not a net of any
        gate or input), and the net names in that order.

        The order is first sight over the primary inputs, then each
        gate's pins and output in insertion order, computed with array
        passes: the sighting sequence of net ids, each id's first
        sighting (a ``minimum.at`` scatter) and the sightings that are
        first ones.  Cached until a mutation.
        """
        if self._order_cache is None:
            net_index = self._net_index
            n_ids = len(self._net_names)
            pins = np.array(self._gate_pins, dtype=np.int64)
            outputs = np.array(self._gate_outputs, dtype=np.int64)
            # Gate g's output follows its pins: the pins of gates 0..g
            # and the outputs of the g gates before it.
            out_at = (np.array(self._gate_pin_end, dtype=np.int64)
                      + np.arange(outputs.size))
            is_pin = np.ones(pins.size + outputs.size, dtype=bool)
            is_pin[out_at] = False
            n_inputs = len(self.primary_inputs)
            sighting = np.empty(n_inputs + is_pin.size, dtype=np.int64)
            sighting[:n_inputs] = [net_index[net]
                                   for net in self.primary_inputs]
            body = sighting[n_inputs:]
            body[out_at] = outputs
            body[is_pin] = pins
            first = np.full(n_ids, sighting.size, dtype=np.int64)
            np.minimum.at(first, sighting, np.arange(sighting.size))
            is_first = np.zeros(sighting.size, dtype=bool)
            is_first[first[first < sighting.size]] = True
            order = sighting[is_first]
            rank = np.full(n_ids, -1, dtype=np.int64)
            rank[order] = np.arange(order.size)
            rank.flags.writeable = False
            net_names = self._net_names
            self._order_cache = (rank, tuple([net_names[net]
                                              for net in order.tolist()]))
        return self._order_cache

    def _kind_array(self) -> np.ndarray:
        """The kind column as one read-only int64 array, cached until a
        mutation: the compile and the SWAN placement share it."""
        if self._kind_cache is None:
            kind = np.array(self._gate_kind, dtype=np.int64)
            kind.flags.writeable = False
            self._kind_cache = kind
        return self._kind_cache

    def _lowering(self) -> _Lowering:
        """The gates lowered to arrays, cached until a mutation: what
        :meth:`topological_order`, the compiled event engine and the
        compiled timing graph read.

        Array passes through the :attr:`nets` rank and the kind array.
        The distinct (gate, net) input pins, each weighted by the pins
        its net takes on the gate, are grouped by net with a stable
        sort, so each net's loads stay in :meth:`loads_of` order.  Each
        gate's output load is the left fold of those loads' pin caps
        that :meth:`fanout_capacitance` takes, one array step per
        fanout position (numpy reductions add pairwise, and from
        CPython 3.12 ``sum`` over floats is compensated, so neither
        would do).  The combinational loads of each net form a CSR
        index (sequential cells sample only at the clock edge).  A
        generational Kahn pass then orders the gates: a combinational
        gate waits for its distinct driven input nets; generation 0 is
        every gate without one, sequential gates included, in insertion
        order, and each later generation is the loads the previous one
        released, in the order of their last visit.  A combinational
        gate's settle level is one past its deepest combinational
        driver's, and each level lists its gates in that order.
        """
        if self._lowering_cache is not None:
            return self._lowering_cache
        rank, net_names = self._net_order()
        kind = self._kind_array()
        kind_cells = self._kind_cells
        n_gates = kind.size
        n_nets = len(net_names)
        is_seq = np.array([cell.cell_type.is_sequential
                           for cell in kind_cells], dtype=bool)[kind]
        n_inputs = np.array([cell.cell_type.n_inputs
                             for cell in kind_cells], dtype=np.int64)[kind]
        out_net = rank[np.array(self._gate_outputs, dtype=np.int64)]
        # Every gate's pin count was checked against its cell (three at
        # most), and the pins are flat in gate-then-pin order.
        fanin = np.full((n_gates, 3), n_nets, dtype=np.int64)
        fanin[np.arange(3) < n_inputs[:, None]] = rank[
            np.array(self._gate_pins, dtype=np.int64)]

        # The distinct pins, their multiplicities, grouped by net.
        a, b, c = fanin.T
        ab, ac, bc = a == b, a == c, b == c
        distinct = np.column_stack([a != n_nets, (b != n_nets) & ~ab,
                                    (c != n_nets) & ~ac & ~bc])
        pin_gate = np.nonzero(distinct)[0]
        pin_net = fanin[distinct]
        pin_mult = np.column_stack(
            [1 + ab + ac, 1 + ab + bc, 1 + ac + bc])[distinct]
        by_net = np.argsort(pin_net, kind="stable")
        n_loads = np.bincount(pin_net, minlength=n_nets)
        first_load = np.cumsum(n_loads) - n_loads

        # The fold: with the gates ordered by fanout, the driven nets
        # that have a j-th load term are a prefix, and step j adds that
        # term to each one's running total.
        kind_cap = np.array([cell.input_capacitance
                             for cell in kind_cells], dtype=float)
        terms = (kind_cap[kind[pin_gate]] * pin_mult)[by_net]
        load_count = n_loads[out_net]
        widest = np.argsort(load_count)[::-1]
        first = first_load[out_net][widest]
        folded = np.zeros(n_gates)
        live = n_gates - np.cumsum(np.bincount(load_count))[:-1]
        for j, n in enumerate(live.tolist()):
            folded[:n] += terms[first[:n] + j]
        pin_cap = np.empty(n_gates)
        pin_cap[widest] = folded

        loads = pin_gate[by_net]
        csr_gates = loads[~is_seq[loads]]
        csr_count = np.bincount(pin_net[~is_seq[pin_gate]],
                                minlength=n_nets)
        csr_start = np.cumsum(csr_count) - csr_count

        # The Kahn pass; level slot n_gates (index -1) is "no
        # combinational driver".
        driver = np.full(n_nets + 1, -1, dtype=np.int64)
        driver[out_net] = np.arange(n_gates, dtype=np.int64)
        waits = (driver[pin_net] >= 0) & ~is_seq[pin_gate]
        pending = np.bincount(pin_gate[waits], minlength=n_gates)
        driver[out_net[is_seq]] = -1
        pin_drivers = driver[fanin]
        level = np.full(n_gates + 1, -1, dtype=np.int64)
        generations: List[np.ndarray] = []
        frontier = np.flatnonzero(pending == 0)
        while frontier.size:
            generations.append(frontier)
            comb = frontier[~is_seq[frontier]]
            level[comb] = level[pin_drivers[comb]].max(axis=1) + 1
            visits, _ = _csr_rows(out_net[frontier], csr_start,
                                  csr_count, csr_gates)
            pending -= np.bincount(visits, minlength=n_gates)
            gates, last = np.unique(visits[::-1], return_index=True)
            ready = pending[gates] == 0
            frontier = visits[np.sort(visits.size - 1 - last[ready])]
        if pending.any():
            raise ModelDomainError("netlist contains a combinational loop")
        order = np.concatenate(generations or [_NO_GATES])
        comb = order[~is_seq[order]]
        comb_level = level[comb]
        by_level = comb[np.argsort(comb_level, kind="stable")]
        by_level.flags.writeable = False    # and so the levels, its views
        lowering = _Lowering(
            fanin, n_inputs, out_net, is_seq, pin_cap, load_count,
            csr_gates, csr_count, csr_start, order,
            np.split(by_level, np.cumsum(np.bincount(comb_level))[:-1])
            if comb.size else [])
        for array in lowering[:-1]:
            array.flags.writeable = False
        self._lowering_cache = lowering
        return lowering

    @property
    def nets(self) -> List[str]:
        """All nets in the design: the primary inputs, then every other
        net at its first sight in a gate's pins then output, in
        insertion order."""
        return list(self._net_order()[1])

    @property
    def primary_outputs(self) -> List[str]:
        """Declared outputs, or nets nothing consumes."""
        if self._declared_outputs:
            return list(self._declared_outputs)
        outputs = np.array(self._gate_outputs, dtype=np.int64)
        consumed = np.zeros(len(self._net_names), dtype=bool)
        consumed[np.array(self._gate_pins, dtype=np.int64)] = True
        net_names = self._net_names
        return [net_names[net]
                for net in outputs[~consumed[outputs]].tolist()]

    def driver_of(self, net: str) -> Optional[Instance]:
        """Instance driving ``net`` (None for primary inputs)."""
        net_id = self._net_index.get(net)
        if net_id is None:
            return None
        position = self._net_driver[net_id]
        return None if position < 0 else self._instances._at(position)

    def _net_loads(self) -> Dict[str, List[int]]:
        """net -> positions of the gates loading it, in insertion order.

        The fanout index that keeps :meth:`loads_of` and
        :meth:`fanout_capacitance` O(fanout): built by one pass over
        the pin column when first queried and cached until mutation.  A
        net on several pins of one gate loads that gate once.
        """
        if self._loads_cache is None:
            pins = self._gate_pins
            by_id: Dict[int, List[int]] = {}
            start = 0
            for position, end in enumerate(self._gate_pin_end):
                for net in pins[start:end]:
                    loads = by_id.get(net)
                    if loads is None:
                        by_id[net] = [position]
                    elif loads[-1] != position:
                        loads.append(position)
                start = end
            net_names = self._net_names
            self._loads_cache = {net_names[net]: loads
                                 for net, loads in by_id.items()}
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
        3.12.  :meth:`_lowering` folds the same terms in the same order
        with array steps, for the compiled event engine and timing
        graph, so the two agree bit for bit on every Python.
        """
        loads = self._net_loads().get(net, ())
        net_id = self._net_index.get(net)
        cells = self._kind_cells
        gate_kind = self._gate_kind
        pins = self._gate_pins
        pin_end = self._gate_pin_end
        pin_cap = 0.0
        for position in loads:
            start = pin_end[position - 1] if position else 0
            pin_cap += (cells[gate_kind[position]].input_capacitance
                        * pins[start:pin_end[position]].count(net_id))
        return pin_cap + wire_cap_per_fanout * max(len(loads), 1)

    def gate_count(self) -> int:
        """Number of gate instances."""
        return len(self._gate_names)

    def topological_order(self) -> List[Instance]:
        """Instances in topological order (cached until mutation).

        Sequential cells break cycles: edges *out of* flip-flops are
        treated as new timing startpoints, so feedback through DFFs is
        legal.

        The order is the generational Kahn order of :meth:`_lowering`,
        which both compiled engines share: every instance without a
        driver in insertion order, then each generation's loads in the
        order their last driver is visited.  The timing analyzers break
        equal-arrival ties by this order, so it must not change.
        """
        if self._topo_cache is None:
            instance_at = self._instances._at
            self._topo_cache = [instance_at(position) for position
                                in self._lowering().order.tolist()]
        return list(self._topo_cache)

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
