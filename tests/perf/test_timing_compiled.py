"""Scalar-vs-compiled timing equivalence suite (PR 4).

The batched engine (:mod:`repro.digital.timing_compiled`) must
reproduce the scalar :class:`StaticTimingAnalyzer` oracle exactly --
fixed-seed SSTA distributions, per-sample critical paths and
criticality maps -- on chain, tree, fanout-heavy and DFF-containing
netlists, while the netlist-side index/caching fixes keep the old
O(G^2) queries byte-compatible.
"""

import numpy as np
import pytest

from repro.digital import (CompiledTimingGraph, Netlist,
                           StaticTimingAnalyzer,
                           StatisticalTimingAnalyzer, clocked_datapath,
                           delay_under_mismatch,
                           kogge_stone_adder, random_logic)
from repro.robust.errors import ModelDomainError
from repro.technology import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


def inverter_chain(node, length=12):
    netlist = Netlist(node, "chain")
    netlist.add_input("a")
    net = "a"
    for i in range(length):
        net = netlist.add_gate("INV", [net], f"n{i}").output
    return netlist


def decoder(node, n_select=4):
    """One-hot decoder: every select line fans out to half the AND
    terms, and the symmetric terms tie exactly."""
    netlist = Netlist(node, "decoder")
    selects = netlist.add_inputs(f"sel{i}" for i in range(n_select))
    inverted = [netlist.add_gate("INV", [s], f"nsel{i}").output
                for i, s in enumerate(selects)]
    for code in range(2 ** n_select):
        terms = [selects[bit] if (code >> bit) & 1 else inverted[bit]
                 for bit in range(n_select)]
        net = terms[0]
        for k, term in enumerate(terms[1:]):
            net = netlist.add_gate("AND2", [net, term],
                                   f"d{code}_{k}").output
        netlist.add_gate("BUF", [net], f"out{code}")
        netlist.add_output(f"out{code}")
    return netlist


def topologies(node):
    """The four equivalence workloads: chain, tree, fanout, sequential."""
    return {
        "chain": inverter_chain(node, 12),
        "tree": kogge_stone_adder(node, 8),
        "fanout": decoder(node, 4),
        "sequential": clocked_datapath(node, adder_width=8,
                                       n_slices=3, seed=5),
    }


class TestDeterministicEquivalence:
    @pytest.mark.parametrize("key", ["chain", "tree", "fanout",
                                     "sequential"])
    def test_nominal_delay_and_path_match_oracle(self, node, key):
        netlist = topologies(node)[key]
        report = StaticTimingAnalyzer(netlist).analyze()
        batch = CompiledTimingGraph(netlist).evaluate()
        assert batch.critical_delays[0] == pytest.approx(
            report.critical_delay, rel=1e-12)
        # Ties (symmetric structures) must break the same way.
        assert batch.critical_path(0) == report.critical_path

    @pytest.mark.parametrize("key", ["chain", "tree", "fanout",
                                     "sequential"])
    def test_random_offsets_match_oracle_per_sample(self, node, key):
        netlist = topologies(node)[key]
        names = list(netlist.instances)
        rng = np.random.default_rng(42)
        offsets = rng.normal(0.0, 0.02, size=(8, len(names)))
        shifts = rng.normal(0.0, 0.01, size=8)
        batch = CompiledTimingGraph(netlist).evaluate(
            offsets, global_vth_offset=shifts)
        for sample in range(8):
            report = StaticTimingAnalyzer(
                netlist,
                vth_offsets=dict(zip(names, offsets[sample])),
                global_vth_offset=shifts[sample]).analyze()
            assert batch.critical_delays[sample] == pytest.approx(
                report.critical_delay, rel=1e-10)
            assert batch.critical_path(sample) == report.critical_path

    def test_wire_cap_parameter_respected(self, node):
        netlist = topologies(node)["tree"]
        heavy = CompiledTimingGraph(
            netlist, wire_cap_per_fanout=5e-15).evaluate()
        light = CompiledTimingGraph(
            netlist, wire_cap_per_fanout=0.1e-15).evaluate()
        assert heavy.critical_delays[0] > light.critical_delays[0]
        report = StaticTimingAnalyzer(
            netlist, wire_cap_per_fanout=5e-15).analyze()
        assert heavy.critical_delays[0] == pytest.approx(
            report.critical_delay, rel=1e-12)

    def test_empty_netlist(self, node):
        batch = CompiledTimingGraph(Netlist(node)).evaluate()
        assert batch.critical_delays.shape == (1,)
        assert batch.critical_delays[0] == 0.0
        assert batch.critical_path(0) == ()
        assert batch.criticality() == {}


class TestSstaEquivalence:
    @pytest.mark.parametrize("key", ["chain", "tree", "fanout",
                                     "sequential"])
    def test_fixed_seed_distribution_matches_scalar_loop(self, node,
                                                         key):
        netlist = topologies(node)[key]
        fast = StatisticalTimingAnalyzer(netlist, seed=9).run(40)
        oracle = StatisticalTimingAnalyzer(netlist,
                                           seed=9)._run_reference(40)
        # Identical variates, one shared delay formula: the samples
        # agree to float64 round-off and the per-sample critical
        # paths (hence criticality counts) agree exactly.
        np.testing.assert_allclose(fast.samples, oracle.samples,
                                   rtol=1e-10)
        assert fast.criticality == oracle.criticality
        assert fast.nominal_delay == oracle.nominal_delay

    def test_delay_under_mismatch_matches_scalar_loop(self, node):
        netlist = topologies(node)["tree"]
        fast = delay_under_mismatch(netlist, 0.02, n_samples=25,
                                    seed=4)
        # Per-sample scalar STA over the same stream: one row of
        # n_gates draws per sample.
        rng = np.random.default_rng(4)
        names = list(netlist.instances)
        oracle = [StaticTimingAnalyzer(netlist, vth_offsets=dict(zip(
            names, rng.normal(0.0, 0.02, size=len(names)))))
            .analyze().critical_delay for _ in range(25)]
        np.testing.assert_allclose(fast, oracle, rtol=1e-10)

    def test_quantiles_match_scalar_loop(self, node):
        netlist = random_logic(node, n_gates=60, seed=1)
        fast = StatisticalTimingAnalyzer(netlist, seed=3).run(60)
        oracle = StatisticalTimingAnalyzer(netlist,
                                           seed=3)._run_reference(60)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert fast.quantile(q) == pytest.approx(
                oracle.quantile(q), rel=1e-10)

    def test_criticality_is_probability_map(self, node):
        netlist = topologies(node)["sequential"]
        result = StatisticalTimingAnalyzer(netlist, seed=6).run(30)
        assert result.criticality
        assert all(0 < p <= 1 for p in result.criticality.values())


class TestBatchedDelayModel:
    def test_array_vth_matches_scalar_calls(self, node):
        from repro.digital import fo4_delay_model
        model = fo4_delay_model(node)
        vths = np.linspace(0.1, 0.4, 7)
        batched = model.delay(vth=vths)
        scalar = np.array([model.delay(vth=v) for v in vths])
        np.testing.assert_allclose(batched, scalar, rtol=1e-14)

    def test_scalar_call_still_returns_float(self, node):
        from repro.digital import fo4_delay_model
        assert isinstance(fo4_delay_model(node).delay(), float)

    def test_cell_delay_accepts_offset_array(self, node):
        from repro.digital import make_cell
        cell = make_cell("NAND2", node)
        offsets = np.array([-0.02, 0.0, 0.02])
        delays = cell.delay(1e-15, vth_offset=offsets)
        assert delays.shape == (3,)
        assert delays[0] < delays[1] < delays[2]


class TestValidation:
    def test_evaluate_rejects_nan_offsets(self, node):
        graph = CompiledTimingGraph(inverter_chain(node, 3))
        offsets = np.zeros((2, graph.n_gates))
        offsets[1, 0] = np.nan
        with pytest.raises(ModelDomainError):
            graph.evaluate(offsets)

    def test_evaluate_rejects_bad_shape(self, node):
        graph = CompiledTimingGraph(inverter_chain(node, 3))
        with pytest.raises(ModelDomainError):
            graph.evaluate(np.zeros((2, graph.n_gates + 1)))

    def test_evaluate_rejects_nonfinite_global(self, node):
        graph = CompiledTimingGraph(inverter_chain(node, 3))
        with pytest.raises(ModelDomainError):
            graph.evaluate(global_vth_offset=float("inf"))

    def test_rejects_negative_wire_cap(self, node):
        with pytest.raises(ModelDomainError):
            CompiledTimingGraph(inverter_chain(node, 3),
                                wire_cap_per_fanout=-1e-15)

    def test_run_rejects_bad_sample_counts(self, node):
        analyzer = StatisticalTimingAnalyzer(inverter_chain(node, 3))
        for bad in (1, 0, -5, float("nan"), 2.5):
            with pytest.raises(ValueError):
                analyzer.run(bad)

    def test_mismatch_rejects_nan_sigma(self, node):
        with pytest.raises(ModelDomainError):
            delay_under_mismatch(inverter_chain(node, 3),
                                 float("nan"))


class TestNetlistIndexAndCaches:
    def test_loads_index_matches_brute_force(self, node):
        netlist = clocked_datapath(node, adder_width=8, n_slices=3,
                                   seed=2)
        for net in netlist.nets:
            indexed = [inst.name for inst in netlist.loads_of(net)]
            brute = [inst.name for inst in netlist.instances.values()
                     if net in inst.inputs]
            assert indexed == brute

    def test_fanout_capacitance_counts_multi_pin_loads(self, node):
        netlist = Netlist(node)
        netlist.add_input("a")
        netlist.add_gate("NAND2", ["a", "a"], "y")
        single = Netlist(node)
        single.add_input("a")
        single.add_gate("INV", ["a"], "y")
        # Both pins of the NAND load net "a": more than the inverter.
        assert netlist.fanout_capacitance("a") \
            > single.fanout_capacitance("a")

    def test_topological_order_cache_invalidated_on_add(self, node):
        netlist = inverter_chain(node, 3)
        first = [inst.name for inst in netlist.topological_order()]
        assert first == ["u0", "u1", "u2"]
        netlist.add_gate("INV", ["n2"], "n3")
        second = [inst.name for inst in netlist.topological_order()]
        assert len(second) == len(first) + 1
        assert second[-1] == "u3"

    def test_compiled_graph_is_snapshot(self, node):
        """Mutating the netlist does not corrupt a compiled graph."""
        netlist = inverter_chain(node, 3)
        graph = CompiledTimingGraph(netlist)
        before = graph.evaluate().critical_delays[0]
        netlist.add_gate("INV", ["n2"], "n3")
        assert graph.evaluate().critical_delays[0] \
            == pytest.approx(before)
        assert CompiledTimingGraph(netlist).n_gates == 4
