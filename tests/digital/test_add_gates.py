"""``Netlist._add_gates`` against ``Netlist.add_gate``, and the
numbered columns ``soc_netlist`` hands ``Netlist._add_columns``.

The row routine is what ``add_gate`` calls with one row.  Building a
random gate sequence gate by gate and in one ``_add_gates`` call must
give the same netlist, and a bad row must raise what ``add_gate``
raises and leave exactly the rows before it.  The rows share one cell
per kind, and the net->loads index they leave behind is rebuilt when
first queried, so queries between rows must see every row.  The gates
are columns behind a read-only ``instances`` mapping that builds each
(frozen) ``Instance`` on its first read: reads between rows must see
every row and keep returning the objects already handed out, and the
soc-noise flow must build none.  The per-gate kind column the
compiled engine reads must name every instance's cell, in insertion
order, whatever happened before.

``soc_netlist`` numbers its nets where it creates them and adds its
gates as numbered columns, checked as one batch.  The SoC must equal
its own instances rebuilt as string rows -- every query, the load
index and every compiled array -- a corrupted column must raise what
the string rows raise, after the same gates, and building and
compiling it must look up no pin's net by name.
"""

import dataclasses
import functools
import gc
import operator
import weakref

import numpy as np
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


class CountingIndex(dict):
    """A net-name index that records every lookup by name."""

    def __init__(self, lookups):
        super().__init__()
        self.lookups = lookups

    def get(self, key, default=None):
        self.lookups.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups.append(key)
        return super().__contains__(key)


def test_soc_build_and_compile_look_up_no_pin_by_name(monkeypatch):
    """The SoC is numbered where it is created: building, compiling
    and running it look up the primary inputs and the stimulus nets by
    name, never a pin."""
    lookups = []
    init = Netlist.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._net_index = CountingIndex(lookups)

    monkeypatch.setattr(Netlist, "__init__", counted)
    soc = soc_netlist(NODE, target_gates=2_000, n_blocks=4, seed=0)
    engine = CompiledEventEngine(soc, clock_period=1.0 / 50e6,
                                 event_budget=10_000_000)
    stimulus = random_stimulus(
        soc, 4, seed=0, held_high=["en"] + [f"blk{b}_en" for b in range(4)])
    trace = engine.run(stimulus, 4)
    assert trace.n_events > 0
    assert isinstance(soc._net_index, CountingIndex)
    # Each primary input is looked up when it is declared, when the
    # generator resolves it and when the nets are ordered; each
    # stimulus net when the run places it.
    assert 0 < len(lookups) <= 3 * len(soc.primary_inputs) + len(stimulus)
    assert set(lookups) == set(soc.primary_inputs)
    assert len(soc._gate_pins) > 100 * len(lookups)


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


def test_instance_is_frozen():
    netlist = fresh()
    gate = netlist.add_gate("INV", ["a"], "y")
    before = (netlist.nets, netlist.primary_outputs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gate.output = "z"
    assert gate.output == "y"
    assert (netlist.nets, netlist.primary_outputs) == before
    assert netlist.driver_of("y") is gate
    assert netlist.driver_of("z") is None


def test_primary_inputs_are_marked_in_the_net_table():
    """A primary input, declared before or after a pin reads it, is a
    net no gate may drive and no second declaration may repeat."""
    netlist = fresh()
    netlist.add_gate("INV", ["late"], "y")
    netlist.add_input("late")
    for net in ("a", "late"):
        with pytest.raises(ModelDomainError,
                           match=f"input '{net}' already declared"):
            netlist.add_input(net)
        with pytest.raises(ModelDomainError,
                           match=f"net '{net}' is already driven"):
            netlist.add_gate("BUF", ["b"], net)
        assert netlist.driver_of(net) is None
    with pytest.raises(ModelDomainError, match="net 'y' is already driven"):
        netlist.add_input("y")
    assert netlist.primary_inputs == ["a", "b", "c", "late"]
    assert netlist.nets == ["a", "b", "c", "late", "y"]
    assert netlist.add_gate("BUF", ["b"]).name == "u1"


def test_one_kind_array_per_netlist_state():
    netlist = fresh()
    netlist.add_gate("INV", ["a"], "y")
    kinds = netlist._kind_array()
    assert netlist._kind_array() is kinds
    assert not kinds.flags.writeable
    netlist.add_gate("NAND2", ["a", "y"], drive=2.0)
    assert kinds.tolist() == [0]
    assert netlist._kind_array().tolist() == list(netlist._gate_kind) \
        == [0, 1]


#: The ``TestSocNetlistPins`` configs of tests/golden/test_path_pins.py.
SOC_CONFIGS = {
    "cli-default": ("65nm", dict(target_gates=20_000, n_blocks=8, seed=0)),
    "130nm": ("130nm", dict(seed=1234)),
    "glue": ("65nm", dict(target_gates=3_000, n_blocks=3,
                          glue_fraction=0.3, seed=7)),
    "tiny": ("65nm", dict(target_gates=200, n_blocks=1, adder_width=4,
                          seed=3)),
}


def as_string_rows(soc):
    """``soc`` rebuilt from its own instances as string rows."""
    rebuilt = Netlist(soc.node, soc.name)
    rebuilt.add_inputs(soc.primary_inputs)
    rebuilt._add_gates((inst.cell.cell_type.name, inst.inputs, inst.output,
                        inst.cell.drive, None)
                       for inst in soc.instances.values())
    return rebuilt


def public_queries(netlist):
    nets = netlist.nets
    return {
        "instances": [(inst.name, inst.cell.cell_type.name,
                       inst.cell.drive, inst.inputs, inst.output)
                      for inst in netlist.instances.values()],
        "kinds": ([(cell.cell_type.name, cell.drive)
                   for cell in netlist._kind_cells],
                  list(netlist._gate_kind)),
        "nets": nets,
        "primary_inputs": netlist.primary_inputs,
        "primary_outputs": netlist.primary_outputs,
        "drivers": [getattr(netlist.driver_of(net), "name", None)
                    for net in nets],
        "loads": [[inst.name for inst in netlist.loads_of(net)]
                  for net in nets],
        "load_index": netlist._net_loads(),
        "fanout_caps": [netlist.fanout_capacitance(net) for net in nets],
        "order": [inst.name for inst in netlist.topological_order()],
        "gate_count": netlist.gate_count(),
        "step": netlist.step(dict.fromkeys(netlist.primary_inputs, True)),
    }


def compiled_arrays(engine):
    """Every array and name table of a compiled engine, as bytes, but
    ``_net_rank``: it maps the netlist's own net ids, which follow
    creation, so the two routes number them differently."""
    arrays = {}
    for name, value in vars(engine).items():
        if name == "_net_rank":
            continue
        if isinstance(value, np.ndarray):
            arrays[name] = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, (list, tuple)) and value \
                and isinstance(value[0], np.ndarray):
            arrays[name] = [(part.dtype.str, part.tobytes())
                            for part in value]
        elif isinstance(value, tuple):
            arrays[name] = value
    return arrays


@pytest.mark.parametrize("config", list(SOC_CONFIGS))
def test_numbered_soc_equals_its_string_rows(config, monkeypatch):
    node_name, kwargs = SOC_CONFIGS[config]

    def no_rows(self, rows):
        raise AssertionError("the SoC went in as string rows")

    # The generator's columns pass the batch checks: no row is added
    # through the string-row routine.
    monkeypatch.setattr(Netlist, "_add_gates", no_rows)
    soc = soc_netlist(get_node(node_name), **kwargs)
    monkeypatch.undo()
    rebuilt = as_string_rows(soc)
    numbered, rows = CompiledEventEngine(soc), CompiledEventEngine(rebuilt)
    assert numbered._net_names == rows._net_names == tuple(soc.nets)
    assert compiled_arrays(numbered) == compiled_arrays(rows)
    assert public_queries(soc) == public_queries(rebuilt)
    # The next auto-named gate gets the same names in both.
    assert soc.add_gate("INV", ["en"]) == rebuilt.add_gate("INV", ["en"])


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_numbered_columns_add_like_string_rows(data):
    """Numbered columns of a few or of many gates, with one fault or
    none: the same error, gates, nets, kinds and counter as their
    string rows."""
    batch, by_rows = fresh(), fresh()
    base = len(batch._net_names)
    names, cells, pins, counts, outputs = [], [], [], [], []
    n_gates = data.draw(st.sampled_from((3, 40)))
    fault = data.draw(st.sampled_from(
        ("",) * 4 + ("repeat-output", "input-output", "read-output",
                     "pin-count", "unknown-cell", "repeat-name",
                     "input-name", "unused-net")))
    at = data.draw(st.integers(1, n_gates - 1))
    for k in range(n_gates):
        here = fault if k == at else ""
        cell = "NAND9" if here == "unknown-cell" else data.draw(
            st.sampled_from(CELLS))
        n_pins = CELL_TYPES.get(cell, CELL_TYPES["NAND2"]).n_inputs
        n_pins += (here == "pin-count") * (1 if n_pins < 3 else -1)
        pins += data.draw(st.lists(st.integers(0, base + len(names) - 1),
                                   min_size=n_pins, max_size=n_pins))
        output = base + len(names)
        if here == "repeat-output":
            output = outputs[-1]
        elif here == "input-output":
            output = 0
        elif here == "read-output":
            output = pins[-1]
        name = f"y{k}"
        if here == "repeat-name":
            name = names[-1]
        elif here == "input-name":
            name = "b"
        names.append(name)
        if here == "unused-net":
            names.append(f"unused{k}")
        cells.append(cell)
        counts.append(n_pins)
        outputs.append(output)
    columns = (base, names, cells, pins, counts, outputs)
    errors = []
    for netlist, add in ((batch, lambda: batch._add_columns(*columns)),
                         (by_rows, lambda: by_rows._add_gates(
                             string_rows(by_rows, columns)))):
        try:
            add()
            errors.append(None)
        except Exception as error:      # noqa: BLE001 -- compared below
            errors.append((type(error), str(error)))
    assert errors[0] == errors[1]
    assert batch._counter == by_rows._counter
    assert_kinds_in_step(batch)
    assert [(cell.cell_type.name, cell.drive) for cell in batch._kind_cells] \
        == [(cell.cell_type.name, cell.drive)
            for cell in by_rows._kind_cells]
    assert list(batch.instances.items()) == list(by_rows.instances.items())
    assert batch.nets == by_rows.nets
    assert batch.primary_outputs == by_rows.primary_outputs
    for net in by_rows.nets:
        assert batch.driver_of(net) == by_rows.driver_of(net)
        assert batch.loads_of(net) == by_rows.loads_of(net)


CORRUPTIONS = ("duplicate-output", "primary-input-output", "pin-count",
               "unknown-cell", "taken-instance")


def corrupted(netlist, columns, kind, k):
    """The columns with gate ``k`` corrupted; ``taken-instance`` first
    adds a gate to ``netlist`` named like the batch's gate ``k``."""
    base, names, cells, pins, counts, outputs = columns
    names, cells, pins, counts, outputs = (
        list(names), list(cells), list(pins), list(counts), list(outputs))
    start = sum(counts[:k])
    if kind == "duplicate-output":
        outputs[k] = outputs[k - 1]
    elif kind == "primary-input-output":
        outputs[k] = netlist._net_index["zero"]
    elif kind == "pin-count":
        del pins[start]
        counts[k] -= 1
    elif kind == "unknown-cell":
        cells[k] = "NAND9"
    else:
        # The gate takes one auto-name number and one net id.
        netlist.add_gate("INV", ["en"], "pre", instance_name=f"u{k + 1}")
        pins = [net + (net >= base) for net in pins]
        outputs = [net + (net >= base) for net in outputs]
        base += 1
    return base, names, cells, pins, counts, outputs


def string_rows(netlist, columns):
    """The rows the numbered columns stand for."""
    base, names, cells, pins, counts, outputs = columns
    table = netlist._net_names[:base] + names
    rows, end = [], 0
    for cell, count, output in zip(cells, counts, outputs):
        rows.append((cell, tuple(table[net] for net in pins[end:end + count]),
                     table[output], 1.0, None))
        end += count
    return rows


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_corrupted_columns_raise_like_string_rows(kind, monkeypatch):
    captured = []
    monkeypatch.setattr(Netlist, "_add_columns",
                        lambda self, *columns: captured.append(columns))
    inputs = soc_netlist(NODE, **SOC_CONFIGS["tiny"][1]).primary_inputs
    monkeypatch.undo()

    def start():
        netlist = Netlist(NODE)
        netlist.add_inputs(inputs)
        return netlist

    k = len(captured[0][2]) // 2
    batch, by_rows = start(), start()
    columns = corrupted(batch, captured[0], kind, k)
    corrupted(by_rows, captured[0], kind, k)
    with pytest.raises(Exception) as expected:
        by_rows._add_gates(string_rows(by_rows, columns))
    with pytest.raises(Exception) as raised:
        batch._add_columns(*columns)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)
    assert len(batch.instances) == k + (kind == "taken-instance")
    assert snapshot(batch) == snapshot(by_rows)
    assert batch._counter == by_rows._counter
    assert_kinds_in_step(batch)
