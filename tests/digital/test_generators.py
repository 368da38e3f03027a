"""Tests for the netlist generators."""

import pytest

from repro.digital import (EventDrivenSimulator, clocked_datapath,
                           estimate_gates_for_target, random_logic,
                           random_stimulus, ripple_adder)
from repro.technology import get_node

from netlists import array_multiplier, fir_filter, lfsr


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestRippleAdder:
    def test_gate_count(self, node):
        assert ripple_adder(node, width=8).gate_count() == 40

    def test_rejects_zero_width(self, node):
        with pytest.raises(ValueError):
            ripple_adder(node, width=0)

    @pytest.mark.parametrize("a,b,cin", [(0, 0, 0), (255, 1, 0),
                                         (170, 85, 1), (200, 100, 0)])
    def test_arithmetic(self, node, a, b, cin):
        adder = ripple_adder(node, width=8)
        inputs = {f"a{i}": bool((a >> i) & 1) for i in range(8)}
        inputs.update({f"b{i}": bool((b >> i) & 1) for i in range(8)})
        inputs["cin"] = bool(cin)
        values = adder.evaluate(inputs)
        result = sum(1 << i for i in range(8) if values[f"fa{i}_s"])
        carry = values[adder.primary_outputs[-1]]
        assert result + (256 if carry else 0) == a + b + cin


class TestMultiplier:
    @pytest.mark.parametrize("a,b", [(0, 0), (3, 5), (7, 7), (15, 15),
                                     (9, 12)])
    def test_arithmetic(self, node, a, b):
        mult = array_multiplier(node, width=4)
        inputs = {f"a{i}": bool((a >> i) & 1) for i in range(4)}
        inputs.update({f"b{i}": bool((b >> i) & 1) for i in range(4)})
        inputs["zero"] = False
        values = mult.evaluate(inputs)
        outs = mult.primary_outputs
        product = sum(1 << i for i, net in enumerate(outs)
                      if values[net])
        assert product == a * b

    def test_rejects_width_one(self, node):
        with pytest.raises(ValueError):
            array_multiplier(node, width=1)


class TestLfsr:
    def test_cycles_through_states(self, node):
        netlist = lfsr(node, width=4, taps=[3, 2])
        state = {"q0": True, "q1": False, "q2": False, "q3": False}
        seen = set()
        for _ in range(15):
            key = tuple(sorted(state.items()))
            seen.add(key)
            _, state = netlist.step({"enable": True}, state)
        # A maximal 4-bit LFSR visits 15 distinct non-zero states.
        assert len(seen) == 15

    def test_rejects_width_one(self, node):
        with pytest.raises(ValueError):
            lfsr(node, width=1)


class TestRandomLogic:
    def test_gate_count_and_acyclic(self, node):
        netlist = random_logic(node, n_gates=50, seed=0)
        assert netlist.gate_count() == 50
        netlist.topological_order()  # must not raise

    def test_reproducible(self, node):
        a = random_logic(node, n_gates=30, seed=1)
        b = random_logic(node, n_gates=30, seed=1)
        assert [i.cell.cell_type.name for i in a.instances.values()] \
            == [i.cell.cell_type.name for i in b.instances.values()]

    def test_sequential_fraction(self, node):
        netlist = random_logic(node, n_gates=100, seed=2,
                               sequential_fraction=0.3)
        n_seq = sum(1 for inst in netlist.instances.values()
                    if inst.is_sequential)
        assert 10 < n_seq < 60

    def test_rejects_bad_sizes(self, node):
        with pytest.raises(ValueError):
            random_logic(node, n_gates=0)


class TestClockedDatapath:
    def test_produces_requested_scale(self, node):
        slices = estimate_gates_for_target(1000, adder_width=8)
        netlist = clocked_datapath(node, adder_width=8,
                                   n_slices=slices, seed=0)
        assert netlist.gate_count() == pytest.approx(1000, rel=0.4)

    def test_simulates_with_activity(self, node):
        netlist = clocked_datapath(node, adder_width=4, n_slices=2,
                                   seed=1)
        sim = EventDrivenSimulator(netlist, clock_period=2e-9)
        result = sim.run({"en": [True], "zero": [False]}, n_cycles=6,
                         initial_state={"src0": True})
        assert len(result.events) > 20

    def test_estimate_gates_positive(self):
        assert estimate_gates_for_target(100) >= 1
        assert estimate_gates_for_target(1) == 1


class TestFirFilter:
    def test_gate_count_scales(self, node):
        small = fir_filter(node, n_taps=2, data_width=2)
        big = fir_filter(node, n_taps=6, data_width=6)
        assert big.gate_count() > 3 * small.gate_count()

    def test_zero_coefficients_zero_output(self, node):
        """All coefficient bits low: the accumulator stays zero."""
        fir = fir_filter(node, n_taps=3, data_width=3)
        state = {}
        inputs = {"en": True, "zero": False,
                  "d0": True, "d1": True, "d2": True,
                  "c0": False, "c1": False, "c2": False}
        for _ in range(6):
            values, state = fir.step(inputs, state)
        assert not any(values[f"y{i}"] for i in range(3))

    def test_passthrough_single_tap_coefficient(self, node):
        """Only c0 set: the output registers the previous sample."""
        fir = fir_filter(node, n_taps=3, data_width=3)
        state = {}
        inputs = {"en": True, "zero": False,
                  "d0": True, "d1": False, "d2": True,
                  "c0": True, "c1": False, "c2": False}
        for _ in range(4):
            values, state = fir.step(inputs, state)
        assert values["y0"] is True
        assert values["y1"] is False
        assert values["y2"] is True

    def test_produces_switching_activity(self, node):
        fir = fir_filter(node, n_taps=4, data_width=4)
        sim = EventDrivenSimulator(fir, clock_period=2e-9)
        result = sim.run(random_stimulus(fir, 8, seed=0,
                                         held_high=("en",)), 8)
        assert len(result.events) > 50

    def test_validation(self, node):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            fir_filter(node, n_taps=1)


class TestSocNetlist:
    def test_gate_count_near_target(self, node):
        from repro.digital import soc_netlist
        for target in (1000, 4000):
            soc = soc_netlist(node, target_gates=target, n_blocks=4,
                              adder_width=4, seed=0)
            assert abs(soc.gate_count() - target) <= 0.1 * target

    def test_primary_inputs(self, node):
        from repro.digital import soc_netlist
        soc = soc_netlist(node, target_gates=800, n_blocks=3, seed=0)
        assert "en" in soc.primary_inputs
        assert "zero" in soc.primary_inputs
        for b in range(3):
            assert f"blk{b}_en" in soc.primary_inputs

    def test_clock_gating_silences_blocks(self, node):
        from repro.digital import (CompiledEventEngine, random_stimulus,
                                   soc_netlist)
        soc = soc_netlist(node, target_gates=600, n_blocks=2,
                          adder_width=4, seed=0)
        engine = CompiledEventEngine(soc, clock_period=2e-9)
        enables = ["en", "blk0_en", "blk1_en"]
        on = engine.run(random_stimulus(soc, 6, seed=1,
                                        held_high=enables), 6)
        off = engine.run(
            {**random_stimulus(soc, 6, seed=1, held_high=["en"]),
             "blk0_en": [False], "blk1_en": [False]}, 6)
        assert on.n_events > 50
        assert off.n_events < 0.2 * on.n_events

    def test_reproducible(self, node):
        from repro.digital import soc_netlist
        a = soc_netlist(node, target_gates=500, seed=4)
        b = soc_netlist(node, target_gates=500, seed=4)
        assert list(a.instances) == list(b.instances)

    def test_validation(self, node):
        from repro.digital import soc_netlist
        with pytest.raises(ValueError):
            soc_netlist(node, target_gates=0)
        with pytest.raises(ValueError):
            soc_netlist(node, target_gates=500, glue_fraction=1.5)
