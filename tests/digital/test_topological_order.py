"""``Netlist.topological_order`` against the networkx oracle.

The order comes from the generational Kahn pass of the netlist's
array lowering, which the compiled event engine and the compiled
timing graph share.  Both timing analyzers break exact arrival ties by
it, so it must stay the order ``networkx.topological_sort`` gives on
the instance graph (driver -> load per input net, in-edges of
sequential cells cut).  The oracle (``netlists.networkx_order``)
builds that graph with networkx and is compared on hypothesis netlists
with flip-flop feedback, self-fed flip-flops, a net on several pins of
one gate, undriven nets and loads added before their driver, and on
every library generator and test netlist builder.
The compiled event engine's settle levels, which come from the same
pass, are checked against the oracle too.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.digital import (CELL_TYPES, CompiledEventEngine,
                           CompiledTimingGraph, Netlist,
                           StaticTimingAnalyzer, generators)
from repro.robust.errors import ModelDomainError
from repro.technology import get_node

import netlists as builders
from netlists import networkx_order

NODE = get_node("65nm")
LOOP = r"^netlist contains a combinational loop$"


def order_names(netlist):
    return [instance.name for instance in netlist.topological_order()]


@st.composite
def netlists(draw, forward_comb_refs=False):
    """Random netlists over the whole cell library.

    Flip-flop pins may name any net, their own output included.
    Combinational pins name primary inputs, an undriven net, any
    flip-flop output (earlier or later) and earlier combinational
    outputs -- or, with ``forward_comb_refs``, any output at all,
    which may close a combinational loop.
    """
    n_inputs = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(sorted(CELL_TYPES)),
                          min_size=1, max_size=24))
    netlist = Netlist(NODE)
    inputs = netlist.add_inputs(f"in{i}" for i in range(n_inputs))
    outputs = [f"n{i}" for i in range(len(kinds))]
    registered = [net for net, kind in zip(outputs, kinds)
                  if CELL_TYPES[kind].is_sequential]
    for i, kind in enumerate(kinds):
        cell_type = CELL_TYPES[kind]
        if cell_type.is_sequential or forward_comb_refs:
            driven = outputs
        else:
            driven = outputs[:i] + registered
        pool = inputs + driven + ["floating"]
        pins = draw(st.lists(st.sampled_from(pool),
                             min_size=cell_type.n_inputs,
                             max_size=cell_type.n_inputs))
        netlist.add_gate(kind, pins, outputs[i])
    return netlist


class TestNetworkxOracle:
    @settings(max_examples=200, deadline=None)
    @given(netlist=netlists())
    def test_matches_networkx_order(self, netlist):
        assert order_names(netlist) == networkx_order(netlist)

    @settings(max_examples=200, deadline=None)
    @given(netlist=netlists(forward_comb_refs=True))
    def test_loop_verdict_matches_networkx(self, netlist):
        try:
            expected = networkx_order(netlist)
        except nx.NetworkXUnfeasible:
            with pytest.raises(ModelDomainError, match=LOOP):
                netlist.topological_order()
        else:
            assert order_names(netlist) == expected

    def test_pinned_corner_cases(self):
        """Registered feedback, a self-fed DFF, a repeated pin, an
        undriven net and a load added before its driver, together."""
        netlist = Netlist(NODE)
        netlist.add_inputs(["a", "en"])
        netlist.add_gate("INV", ["late"], "m", instance_name="early_load")
        netlist.add_gate("NAND2", ["a", "a"], "x", instance_name="twice")
        netlist.add_gate("NOR2", ["x", "floating"], "y",
                         instance_name="undriven")
        netlist.add_gate("DFF", ["en", "q"], "q", instance_name="self_ff")
        netlist.add_gate("XOR2", ["q", "q2"], "z", instance_name="mix")
        netlist.add_gate("DFF", ["en", "z"], "q2", instance_name="loop_ff")
        netlist.add_gate("BUF", ["y"], "late", instance_name="driver")
        expected = ["twice", "self_ff", "loop_ff", "undriven", "mix",
                    "driver", "early_load"]
        assert networkx_order(netlist) == expected
        assert order_names(netlist) == expected

    @pytest.mark.parametrize("build", [
        lambda: generators.ripple_adder(NODE, 6),
        lambda: builders.array_multiplier(NODE, 4),
        lambda: builders.lfsr(NODE, 8),
        lambda: generators.random_logic(NODE, 150, seed=3,
                                        sequential_fraction=0.2),
        lambda: generators.clocked_datapath(NODE, 4, 3, seed=2),
        lambda: generators.soc_netlist(NODE, target_gates=1500,
                                       n_blocks=3, seed=5),
        lambda: generators.kogge_stone_adder(NODE, 8),
        lambda: builders.decoder(NODE, 3),
        lambda: builders.equality_comparator(NODE, 7),
        lambda: builders.fir_filter(NODE, 3, 3),
    ], ids=["ripple", "multiplier", "lfsr", "random", "datapath", "soc",
            "kogge_stone", "decoder", "comparator", "fir"])
    def test_generators_match_networkx(self, build):
        netlist = build()
        assert order_names(netlist) == networkx_order(netlist)


class TestCompiledSettleLevels:
    """The event engine's settle levels against the networkx order.

    ``CompiledEventEngine`` levelizes its initial settle with the
    lowering's Kahn pass.  Each settle level must list its gates in
    the oracle's order, a gate's level must be one past its deepest
    combinational driver, and a loop must raise the loop error.
    """

    @settings(max_examples=200, deadline=None)
    @given(netlist=netlists(forward_comb_refs=True))
    def test_levels_follow_order(self, netlist):
        try:
            order = networkx_order(netlist)
        except nx.NetworkXUnfeasible:
            with pytest.raises(ModelDomainError, match=LOOP):
                CompiledEventEngine(netlist)
            return
        engine = CompiledEventEngine(netlist)
        levels = [[engine._instance_names[g] for g in gates.tolist()]
                  for gates in engine._levels]
        level_of = {name: depth for depth, names in enumerate(levels)
                    for name in names}
        instances = netlist.instances
        comb = [name for name in order
                if not instances[name].is_sequential]
        assert [name for names in levels for name in names] \
            == sorted(comb, key=level_of.__getitem__)
        for name in comb:
            drivers = [netlist.driver_of(net)
                       for net in instances[name].inputs]
            assert level_of[name] == max(
                (level_of[d.name] + 1 for d in drivers
                 if d is not None and not d.is_sequential), default=0)


class TestCombinationalLoops:
    def test_gate_reading_own_output(self):
        netlist = Netlist(NODE)
        netlist.add_input("a")
        netlist.add_gate("NAND2", ["a", "y"], "y")
        with pytest.raises(ModelDomainError, match=LOOP):
            netlist.topological_order()

    def test_two_gate_loop_behind_valid_logic(self):
        netlist = Netlist(NODE)
        netlist.add_input("a")
        netlist.add_gate("INV", ["a"], "b")
        netlist.add_gate("NAND2", ["b", "d"], "c")
        netlist.add_gate("INV", ["c"], "d")
        with pytest.raises(ModelDomainError, match=LOOP):
            netlist.topological_order()

    def test_self_fed_flip_flop_is_not_a_loop(self):
        netlist = Netlist(NODE)
        netlist.add_input("en")
        netlist.add_gate("DFF", ["en", "q"], "q")
        assert order_names(netlist) == ["u0"]


class TestExactTieBreaking:
    """Equal arrivals are settled by the topological order.

    ``s`` fans out to two identical branches.  The second branch's end
    gate is inserted first, but the Kahn order visits ``p1`` before
    ``p2`` and so places ``q1`` before ``q2``: both analyzers take the
    first maximum in that order and report the ``q1`` branch.
    """

    @pytest.fixture(scope="class")
    def netlist(self):
        netlist = Netlist(NODE)
        netlist.add_input("a")
        netlist.add_gate("INV", ["a"], "s", instance_name="S")
        netlist.add_gate("INV", ["s"], "p1", instance_name="P1")
        netlist.add_gate("INV", ["s"], "p2", instance_name="P2")
        netlist.add_gate("INV", ["p2"], "q2", instance_name="Q2")
        netlist.add_gate("INV", ["p1"], "q1", instance_name="Q1")
        return netlist

    def test_order(self, netlist):
        assert order_names(netlist) == ["S", "P1", "P2", "Q1", "Q2"]

    def test_static_timing_analyzer(self, netlist):
        report = StaticTimingAnalyzer(netlist).analyze()
        assert report.arrival_times["q1"] == report.arrival_times["q2"]
        assert report.critical_path == ("S", "P1", "Q1")

    def test_compiled_timing_graph(self, netlist):
        result = CompiledTimingGraph(netlist).evaluate()
        arrivals = dict(zip(result.names_topo, result.gate_arrivals[0]))
        assert arrivals["Q1"] == arrivals["Q2"]
        assert result.critical_path(0) == ("S", "P1", "Q1")
