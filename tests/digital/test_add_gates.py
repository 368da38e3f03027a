"""``Netlist._add_gates`` against ``Netlist.add_gate``.

The row routine is what ``soc_netlist`` and ``full_adder`` lower
through, and ``add_gate`` is its one-row call.  Building a random gate
sequence gate by gate and in one ``_add_gates`` call must give the
same netlist, and a bad row must raise what ``add_gate`` raises and
leave exactly the rows before it.  The rows share one cell per kind,
and the net->loads index they leave behind is rebuilt when first
queried, so queries between rows must see every row.  The per-gate
kind column the compiled engine reads must name every instance's
cell, in insertion order, whatever happened before.
"""

import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.digital import CELL_TYPES, Netlist, soc_netlist
from repro.robust.errors import ModelDomainError
from repro.technology import get_node

NODE = get_node("65nm")
PRIMARY_INPUTS = ("a", "b", "c")
CELLS = sorted(CELL_TYPES)
DRIVES = (1.0, 0.5, 2.0, 4.0)


@st.composite
def gate_rows(draw, min_size=0, max_size=12):
    """(cell, inputs, output, drive, instance name) rows; inputs come
    from nets that already exist, names are auto-generated (None) or
    explicit."""
    nets = list(PRIMARY_INPUTS)
    rows = []
    for k in range(draw(st.integers(min_size, max_size))):
        cell = draw(st.sampled_from(CELLS))
        n_pins = CELL_TYPES[cell].n_inputs
        pins = tuple(draw(st.lists(st.sampled_from(nets),
                                   min_size=n_pins, max_size=n_pins)))
        output = draw(st.sampled_from((None, f"x{k}")))
        name = draw(st.sampled_from((None, f"g{k}")))
        rows.append((cell, pins, output, draw(st.sampled_from(DRIVES)),
                     name))
        nets.append(f"n{k}" if output is None else output)
    return rows


def fresh():
    netlist = Netlist(NODE)
    netlist.add_inputs(PRIMARY_INPUTS)
    return netlist


def build_per_gate(rows):
    """Rows added by ``add_gate`` up to the first error (returned)."""
    netlist = fresh()
    for cell, pins, output, drive, name in rows:
        try:
            netlist.add_gate(cell, list(pins), output, drive=drive,
                             instance_name=name)
        except Exception as error:      # noqa: BLE001 -- compared below
            return netlist, error
    return netlist, None


def build_bulk(rows):
    """Rows added by one ``_add_gates`` call, and what it raised."""
    netlist = fresh()
    try:
        netlist._add_gates(rows)
    except Exception as error:          # noqa: BLE001 -- compared below
        return netlist, error
    return netlist, None


def snapshot(netlist):
    nets = netlist.nets
    return {
        "instances": list(netlist.instances.items()),
        "loads": [(net, [inst.name for inst in netlist.loads_of(net)])
                  for net in nets],
        "nets": nets,
        "primary_outputs": netlist.primary_outputs,
        "order": [inst.name for inst in netlist.topological_order()],
    }


def brute_force_loads(netlist, net):
    return [inst for inst in netlist.instances.values()
            if net in inst.inputs]


def assert_kinds_in_step(netlist):
    """The kind column lists each instance's own shared cell."""
    cells = [netlist._kind_cells[k] for k in netlist._gate_kind]
    instances = list(netlist.instances.values())
    assert len(cells) == len(instances)
    assert all(cell is inst.cell for cell, inst in zip(cells, instances))


def assert_same(per_gate, bulk):
    assert snapshot(bulk) == snapshot(per_gate)
    # The load index lists each gate reading a net once, in insertion
    # order, whatever built it.
    for net in bulk.nets:
        assert bulk.loads_of(net) == brute_force_loads(bulk, net)
    # The auto-name counter agrees too: the next auto-named gate gets
    # the same instance and net names in both.
    assert bulk.add_gate("INV", ["a"]) == per_gate.add_gate("INV", ["a"])


@given(rows=gate_rows())
@settings(max_examples=60, deadline=None)
def test_one_call_builds_the_per_gate_netlist(rows):
    per_gate, error = build_per_gate(rows)
    assert error is None
    bulk, error = build_bulk(rows)
    assert error is None
    assert len(bulk.instances) == len(rows)
    assert_same(per_gate, bulk)


def bad_row(kind, rows):
    """A row ``add_gate`` rejects, given the valid rows before it."""
    _, _, last_output, _, last_name = rows[-1]
    last_output = last_output or f"n{len(rows) - 1}"
    last_name = last_name or f"u{len(rows) - 1}"
    return {
        "driven-output": ("INV", ("a",), last_output, 1.0, None),
        "primary-input-output": ("INV", ("b",), "a", 1.0, None),
        "duplicate-instance": ("INV", ("a",), None, 1.0, last_name),
        "pin-count": ("NAND2", ("a",), None, 1.0, None),
        "unknown-cell": ("NAND9", ("a", "b"), None, 1.0, None),
        "zero-drive": ("INV", ("a",), None, 0.0, None),
        "negative-drive": ("INV", ("a",), None, -2.0, None),
        "nan-drive": ("INV", ("a",), None, float("nan"), None),
        "inf-drive": ("INV", ("a",), None, float("inf"), None),
    }[kind]


ERROR_KINDS = ("driven-output", "primary-input-output",
               "duplicate-instance", "pin-count", "unknown-cell",
               "zero-drive", "negative-drive", "nan-drive", "inf-drive")
#: Errors raised after the row has taken its auto-name number.
COUNTED_ERRORS = ("pin-count", "unknown-cell", "zero-drive",
                  "negative-drive", "nan-drive", "inf-drive")


@given(rows=gate_rows(min_size=1), tail=gate_rows(max_size=3),
       kind=st.sampled_from(ERROR_KINDS))
@settings(max_examples=60, deadline=None)
def test_bad_row_raises_like_add_gate(rows, tail, kind):
    # Rows after the bad one reuse names from the front; they must
    # never be reached.
    sequence = rows + [bad_row(kind, rows)] + tail
    per_gate, expected = build_per_gate(sequence)
    bulk, error = build_bulk(sequence)
    assert expected is not None
    assert type(error) is type(expected)
    assert str(error) == str(expected)
    assert len(bulk.instances) == len(rows)
    assert_kinds_in_step(bulk)
    assert_kinds_in_step(per_gate)
    counter = len(rows) + (kind in COUNTED_ERRORS)
    assert bulk.add_gate("BUF", ["a"]).name == f"u{counter}"
    per_gate.add_gate("BUF", ["a"])
    assert_same(per_gate, bulk)
    assert_kinds_in_step(bulk)
    assert_kinds_in_step(per_gate)


@pytest.mark.parametrize("kind, error_type, message", [
    ("driven-output", "ModelDomainError", "is already driven"),
    ("primary-input-output", "ModelDomainError",
     "net 'a' is already driven"),
    ("duplicate-instance", "ModelDomainError", "already exists"),
    ("pin-count", "ModelDomainError", "NAND2 takes 2 inputs, got 1"),
    ("unknown-cell", "RoadmapDataError", "unknown cell 'NAND9'"),
    ("zero-drive", "ModelDomainError",
     "drive must be a positive finite number, got 0.0"),
    ("negative-drive", "ModelDomainError",
     "drive must be a positive finite number, got -2.0"),
    ("nan-drive", "ModelDomainError",
     "drive must be a positive finite number, got nan"),
    ("inf-drive", "ModelDomainError",
     "drive must be a positive finite number, got inf"),
])
def test_each_error_kind_is_the_add_gate_error(kind, error_type,
                                               message):
    rows = [("NAND2", ("a", "b"), "y", 1.0, "g0")]
    _, error = build_bulk(rows + [bad_row(kind, rows)])
    assert type(error).__name__ == error_type
    assert message in str(error)


def test_one_cell_per_kind():
    netlist = fresh()
    x1 = netlist.add_gate("INV", ["a"], drive=1.0)
    x2 = netlist.add_gate("INV", ["a"], drive=2.0)
    again = netlist.add_gate("INV", ["b"], drive=1.0)
    as_int = netlist.add_gate("INV", ["c"], drive=1)
    assert x2.cell is not x1.cell
    assert x2.cell.drive == 2.0
    assert again.cell is x1.cell
    # The drive's type is part of the kind: an int drive stays an int.
    assert as_int.cell is not x1.cell
    assert repr(as_int.cell.drive) == "1"
    assert repr(x1.cell.drive) == "1.0"


def test_cli_default_soc_has_one_cell_per_kind():
    soc = soc_netlist(NODE, target_gates=20_000, n_blocks=8, seed=0)
    assert len(soc.instances) == 20_000
    assert len({id(inst.cell) for inst in soc.instances.values()}) == 11


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_queries_between_rows_see_every_row(data):
    netlist = fresh()
    nets = list(PRIMARY_INPUTS)
    for step in range(data.draw(st.integers(1, 10))):
        action = data.draw(st.sampled_from((
            "add", "add-then-fail", "loads_of", "fanout_capacitance",
            "topological_order", "primary_outputs")))
        if action in ("add", "add-then-fail"):
            # Pins may read nets of earlier rows in the same call, and
            # one net may sit on several pins of a gate.
            rows = []
            for k in range(data.draw(st.integers(1, 4))):
                cell = data.draw(st.sampled_from(CELLS))
                n_pins = CELL_TYPES[cell].n_inputs
                pins = tuple(data.draw(st.lists(
                    st.sampled_from(nets), min_size=n_pins,
                    max_size=n_pins)))
                output = f"s{step}_{k}"
                rows.append((cell, pins, output,
                             data.draw(st.sampled_from(DRIVES)), None))
                nets.append(output)
            if action == "add":
                netlist._add_gates(rows)
            else:
                # A pin-count error after the valid rows, at a drive
                # that may be a new kind.
                bad = ("NAND2", ("a",), None,
                       data.draw(st.sampled_from(DRIVES + (3.0,))), None)
                with pytest.raises(ModelDomainError, match="takes 2"):
                    netlist._add_gates(rows + [bad])
        elif action == "loads_of":
            netlist.loads_of(data.draw(st.sampled_from(nets)))
        elif action == "fanout_capacitance":
            netlist.fanout_capacitance(data.draw(st.sampled_from(nets)))
        elif action == "topological_order":
            netlist.topological_order()
        else:
            consumed = {net for inst in netlist.instances.values()
                        for net in inst.inputs}
            assert netlist.primary_outputs == [
                inst.output for inst in netlist.instances.values()
                if inst.output not in consumed]
        assert_kinds_in_step(netlist)
        for net in netlist.nets:
            loads = brute_force_loads(netlist, net)
            assert netlist.loads_of(net) == loads
            # The pin caps add left to right, in load order.
            assert netlist.fanout_capacitance(net) == functools.reduce(
                operator.add,
                [inst.cell.input_capacitance * inst.inputs.count(net)
                 for inst in loads], 0.0) + 0.5e-15 * max(len(loads), 1)
