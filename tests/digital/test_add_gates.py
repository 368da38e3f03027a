"""``Netlist._add_gates`` against ``Netlist.add_gate``.

The row routine is what ``soc_netlist`` and ``full_adder`` lower
through, and ``add_gate`` is its one-row call.  Building a random gate
sequence gate by gate and in one ``_add_gates`` call must give the
same netlist, and a bad row must raise what ``add_gate`` raises and
leave exactly the rows before it.  The rows share one cell per kind,
and the net->loads index they leave behind is rebuilt when first
queried, so queries between rows must see every row.  The gates are
columns behind a read-only ``instances`` mapping that builds each
``Instance`` on its first read: reads between rows must see every
row and keep returning the objects already handed out, and the
soc-noise flow must build none.  The per-gate kind column the
compiled engine reads must name every instance's cell, in insertion
order, whatever happened before.
"""

import functools
import gc
import operator
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.digital import (CELL_TYPES, Instance, Netlist, make_cell,
                           random_stimulus, soc_netlist)
from repro.digital.simulator_compiled import CompiledEventEngine
from repro.robust.errors import ModelDomainError
from repro.substrate import SwanSimulator
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


def test_soc_noise_flow_builds_no_instance(monkeypatch):
    """The soc-noise flow reads the gate columns, never an Instance."""
    built = []
    init = Instance.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Instance, "__init__", counted)
    soc = soc_netlist(NODE, target_gates=2_000, n_blocks=4, seed=0)
    engine = CompiledEventEngine(soc, clock_period=1.0 / 50e6,
                                 event_budget=10_000_000)
    stimulus = random_stimulus(
        soc, 4, seed=0, held_high=["en"] + [f"blk{b}_en" for b in range(4)])
    trace = engine.run(stimulus, 4)
    swan = SwanSimulator(soc, clock_frequency=50e6, seed=0)
    wave = swan.stream_noise(trace, chunk_events=100_000)
    assert len(soc.instances) == soc.gate_count() == 2_000
    assert trace.n_events > 0 and wave.rms > 0.0
    assert built == []
    # The count sees a read.
    first = soc.instances[trace.instance_names[0]]
    assert [args[0] for args in built] == [first.name]


def test_instances_read_out_of_order_keep_their_objects():
    netlist = fresh()
    rows = [("INV", ("a",), f"y{k}", 1.0, None) for k in range(6)]
    netlist._add_gates(rows[:4])
    view = netlist.instances
    late, early = view["u3"], view["u1"]
    netlist._add_gates(rows[4:])
    last = view["u5"]
    values = view.values()
    assert [inst.name for inst in values] == [f"u{k}" for k in range(6)]
    assert [inst.output for inst in values] == [f"y{k}" for k in range(6)]
    assert values[1] is early and values[3] is late and values[5] is last
    assert all(a is b for a, b in zip(values, view.values()))
    assert [inst for _, inst in view.items()] == values


def test_a_dropped_netlist_is_freed_without_the_collector():
    """The instance view holds the columns, not the netlist: no cycle."""
    soc = soc_netlist(NODE, target_gates=200, n_blocks=1, seed=0)
    soc.instances[next(iter(soc.instances))]
    soc.topological_order()
    freed = weakref.ref(soc)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del soc
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


def assert_loads_of(netlist, reference):
    """``loads_of`` lists each reference load once, in insertion order,
    as the instances the mapping returns."""
    for net in netlist.nets:
        got = netlist.loads_of(net)
        assert got == [inst for inst in reference if net in inst.inputs]
        assert all(inst is netlist.instances[inst.name] for inst in got)


def draw_row(data, nets, output):
    """A valid row with an explicit output and an auto-named gate; its
    pins may read nets of earlier rows, one net on several pins."""
    cell = data.draw(st.sampled_from(CELLS))
    n_pins = CELL_TYPES[cell].n_inputs
    pins = tuple(data.draw(st.lists(st.sampled_from(nets),
                                    min_size=n_pins, max_size=n_pins)))
    return (cell, pins, output, data.draw(st.sampled_from(DRIVES)), None)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_queries_between_rows_see_every_row(data):
    netlist = fresh()
    nets = list(PRIMARY_INPUTS)
    # The brute-force reference: one Instance per added row, built from
    # the row itself, and every instance the netlist has handed out.
    reference = []
    handed_out = {}
    counter = 0
    for step in range(data.draw(st.integers(1, 10))):
        action = data.draw(st.sampled_from((
            "add", "add-then-fail", "add_gate", "loads_of",
            "fanout_capacitance", "topological_order", "primary_outputs",
            "len", "iter", "items", "getitem", "in")))
        names = [inst.name for inst in reference]
        if action in ("add", "add-then-fail", "add_gate"):
            rows = []
            n_rows = 1 if action == "add_gate" else data.draw(
                st.integers(1, 4))
            for k in range(n_rows):
                rows.append(draw_row(data, nets, f"s{step}_{k}"))
                nets.append(f"s{step}_{k}")
            if action == "add_gate":
                cell, pins, output, drive, _ = rows[0]
                added = netlist.add_gate(cell, list(pins), output,
                                         drive=drive)
                assert added is netlist.instances[added.name]
                handed_out[added.name] = added
            elif action == "add":
                netlist._add_gates(rows)
            else:
                # A pin-count error after the valid rows, at a drive
                # that may be a new kind; it takes an auto-name number.
                bad = ("NAND2", ("a",), None,
                       data.draw(st.sampled_from(DRIVES + (3.0,))), None)
                with pytest.raises(ModelDomainError, match="takes 2"):
                    netlist._add_gates(rows + [bad])
            for cell, pins, output, drive, _ in rows:
                reference.append(Instance(f"u{counter}",
                                          make_cell(cell, NODE, drive),
                                          pins, output))
                counter += 1
            counter += action == "add-then-fail"
        elif action == "loads_of":
            netlist.loads_of(data.draw(st.sampled_from(nets)))
        elif action == "fanout_capacitance":
            netlist.fanout_capacitance(data.draw(st.sampled_from(nets)))
        elif action == "topological_order":
            order = netlist.topological_order()
            assert sorted(inst.name for inst in order) == sorted(names)
            handed_out.update((inst.name, inst) for inst in order)
        elif action == "primary_outputs":
            consumed = {net for inst in reference for net in inst.inputs}
            assert netlist.primary_outputs == [
                inst.output for inst in reference
                if inst.output not in consumed]
        elif action == "len":
            assert len(netlist.instances) == len(reference)
            assert netlist.gate_count() == len(reference)
        elif action == "iter":
            assert list(netlist.instances) == names
            assert list(netlist.instances.keys()) == names
        elif action == "items":
            items = netlist.instances.items()
            assert items == [(inst.name, inst) for inst in reference]
            assert netlist.instances.values() == reference
            handed_out.update(items)
        elif action == "getitem":
            if reference:
                expected = data.draw(st.sampled_from(reference))
                got = netlist.instances[expected.name]
                assert got == expected
                assert netlist.instances.get(expected.name) is got
                handed_out[expected.name] = got
            with pytest.raises(KeyError):
                netlist.instances[f"u{counter}"]
            assert netlist.instances.get(f"u{counter}") is None
        else:
            name = data.draw(st.sampled_from(
                names + [f"u{counter}", "a", "", f"s{step}_0"]))
            assert (name in netlist.instances) == (name in names)
        # Every instance handed out stays the one the mapping returns.
        for name, inst in handed_out.items():
            assert netlist.instances[name] is inst
        # The kind column names each row's cell, in row order.
        assert [netlist._kind_cells[k] for k in netlist._gate_kind] \
            == [inst.cell for inst in reference]
        assert netlist.nets == list(dict.fromkeys(
            list(PRIMARY_INPUTS)
            + [net for inst in reference
               for net in inst.inputs + (inst.output,)]))
        for net in netlist.nets:
            loads = [inst for inst in reference if net in inst.inputs]
            # The load index, checked without building an Instance.
            assert [netlist._gate_names[position]
                    for position in netlist._net_loads().get(net, ())] \
                == [inst.name for inst in loads]
            # The pin caps add left to right, in load order.
            assert netlist.fanout_capacitance(net) == functools.reduce(
                operator.add,
                [inst.cell.input_capacitance * inst.inputs.count(net)
                 for inst in loads], 0.0) + 0.5e-15 * max(len(loads), 1)
        # ``loads_of`` builds every gate it returns, which is every gate
        # here; reading it on some steps only keeps steps whose
        # instances are partly built.  It is read after the last step.
        if data.draw(st.booleans(), label="read loads_of"):
            assert_loads_of(netlist, reference)
    assert_loads_of(netlist, reference)
    assert netlist.instances.items() == [(inst.name, inst)
                                         for inst in reference]
    assert_kinds_in_step(netlist)
