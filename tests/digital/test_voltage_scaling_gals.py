"""Tests for V_DD/V_T co-optimization and GALS partitioning."""

import math

import pytest

from repro.digital import (EnergyDelayModel, gals_trend,
                           minimum_energy_trend, partition_die,
                           single_domain_max_frequency)
from repro.interconnect import max_wire_length_for_skew
from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.fixture(scope="module")
def model(node):
    return EnergyDelayModel(node.at_temperature(358.0))


class TestEnergyDelayModel:
    def test_construction_validation(self, node):
        with pytest.raises(ValueError):
            EnergyDelayModel(node, logic_depth=0)
        with pytest.raises(ValueError):
            EnergyDelayModel(node, activity=0.0)

    def test_lower_vdd_slower(self, model, node):
        fast = model.gate_delay(node.vdd, node.vth)
        slow = model.gate_delay(0.6 * node.vdd, node.vth)
        assert slow > fast

    def test_no_overdrive_infinite_delay(self, model, node):
        assert math.isinf(model.gate_delay(node.vth, node.vth))

    def test_dynamic_energy_quadratic_in_vdd(self, model, node):
        e1 = model.evaluate(node.vdd, node.vth).dynamic_energy
        e2 = model.evaluate(0.5 * node.vdd, node.vth).dynamic_energy
        assert e1 == pytest.approx(4.0 * e2)

    def test_higher_vth_less_leakage_energy_at_fixed_vdd(self, model,
                                                         node):
        lo = model.evaluate(node.vdd, node.vth)
        hi = model.evaluate(node.vdd, node.vth + 0.1)
        # Exponential leakage cut beats the linear delay increase.
        assert hi.leakage_energy < lo.leakage_energy

    def test_minimum_energy_point_feasible(self, model, node):
        best = model.minimum_energy_point()
        assert best.vdd < node.vdd          # below nominal supply
        assert best.total_energy < model.evaluate(
            node.vdd, node.vth).total_energy

    def test_delay_limit_raises_optimal_vdd(self, model, node):
        free = model.minimum_energy_point()
        nominal = model.evaluate(node.vdd, node.vth)
        tight = model.minimum_energy_point(
            delay_limit=1.5 * nominal.delay_per_stage)
        assert tight.vdd >= free.vdd
        assert tight.total_energy >= free.total_energy

    def test_impossible_delay_limit_raises(self, model):
        with pytest.raises(ValueError):
            model.minimum_energy_point(delay_limit=1e-18)

    def test_sweep_covers_grid(self, model, node):
        points = model.sweep([node.vdd], [node.vth, node.vth + 0.05])
        assert len(points) == 2


class TestMinimumEnergyTrend:
    def test_savings_positive_everywhere(self):
        hot = [n.at_temperature(358.0) for n in all_nodes()]
        rows = minimum_energy_trend(hot)
        assert all(0 <= row["energy_saving"] < 1 for row in rows)

    def test_leakage_share_grows_with_scaling(self):
        """The section-3 warning: leakage claws back the low-VDD
        energy win at nanometre nodes."""
        hot = [get_node(n).at_temperature(358.0)
               for n in ("180nm", "65nm", "32nm")]
        rows = minimum_energy_trend(hot)
        shares = [row["leakage_share_at_optimum"] for row in rows]
        assert shares[-1] > shares[0]


class TestGals:
    def test_small_die_single_domain(self, node):
        reach = max_wire_length_for_skew(node, 1e9)
        partition = partition_die(node, die_edge=0.5 * reach,
                                  frequency=1e9)
        assert partition.n_islands == 1
        assert partition.n_interfaces == 0
        assert partition.interface_area_overhead == 0.0

    def test_big_die_fragments(self, node):
        partition = partition_die(node, die_edge=10e-3, frequency=2e9)
        assert partition.n_islands > 4
        assert partition.n_interfaces > 0
        assert 0 < partition.interface_area_overhead < 1

    def test_higher_frequency_more_islands(self, node):
        slow = partition_die(node, die_edge=10e-3, frequency=0.5e9)
        fast = partition_die(node, die_edge=10e-3, frequency=4e9)
        assert fast.n_islands > slow.n_islands

    def test_trend_monotone_with_scaling(self):
        rows = gals_trend(all_nodes(), die_edge=10e-3, frequency=1e9)
        islands = [row["n_islands"] for row in rows]
        assert islands == sorted(islands)
        assert islands[-1] > islands[0]

    def test_rejects_bad_die(self, node):
        with pytest.raises(ValueError):
            partition_die(node, die_edge=0.0)

    def test_single_domain_fmax_consistent(self, node):
        die = 3e-3
        fmax = single_domain_max_frequency(node, die_edge=die)
        at_fmax = partition_die(node, die_edge=die,
                                frequency=0.95 * fmax)
        above = partition_die(node, die_edge=die,
                              frequency=2.0 * fmax)
        assert at_fmax.n_islands == 1
        assert above.n_islands > 1

    def test_fmax_falls_with_node(self):
        fmaxes = [single_domain_max_frequency(n, die_edge=5e-3)
                  for n in all_nodes()]
        assert fmaxes == sorted(fmaxes, reverse=True)
