"""Tests for the built-in node library: the roadmap trends the paper
builds its argument on must hold across the table."""

import pytest

from repro.technology import all_nodes, get_node


@pytest.fixture(scope="module")
def nodes():
    return all_nodes()


class TestLookup:
    def test_contains_the_paper_node(self):
        node = get_node("65nm")
        assert node.feature_size == pytest.approx(65e-9)

    def test_lookup_without_suffix(self):
        assert get_node("65") is get_node("65nm")

    def test_lookup_with_int(self):
        assert get_node(65) is get_node("65nm")

    def test_unknown_node_raises_keyerror_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            get_node("7nm")

    def test_available_nodes_ordered_largest_first(self):
        sizes = [node.feature_size for node in all_nodes()]
        assert sizes == sorted(sizes, reverse=True)


class TestRoadmapTrends:
    """Monotone trends of every scaling-sensitive parameter."""

    def _series(self, nodes, attr):
        return [getattr(node, attr) for node in nodes]

    def test_vdd_decreases(self, nodes):
        series = self._series(nodes, "vdd")
        assert series == sorted(series, reverse=True)

    def test_vth_decreases(self, nodes):
        series = self._series(nodes, "vth")
        assert series == sorted(series, reverse=True)

    def test_tox_decreases(self, nodes):
        series = self._series(nodes, "tox")
        assert series == sorted(series, reverse=True)

    def test_pitch_decreases(self, nodes):
        series = self._series(nodes, "wire_pitch")
        assert series == sorted(series, reverse=True)

    def test_doping_increases(self, nodes):
        series = self._series(nodes, "channel_doping")
        assert series == sorted(series)

    def test_dibl_worsens(self, nodes):
        series = self._series(nodes, "dibl")
        assert series == sorted(series)

    def test_body_factor_shrinks(self, nodes):
        """Section 3.2: 'as technology scales down, the bulk factor
        becomes smaller'."""
        series = self._series(nodes, "body_factor")
        assert series == sorted(series, reverse=True)

    def test_avt_improves(self, nodes):
        """Section 4.1: 'the transistor mismatch improves slightly'."""
        series = self._series(nodes, "avt")
        assert series == sorted(series, reverse=True)

    def test_subthreshold_n_worsens(self, nodes):
        series = self._series(nodes, "subthreshold_n")
        assert series == sorted(series)

    def test_off_current_density_explodes(self, nodes):
        """Eq. 1's consequence: I_off per um grows by decades."""
        from repro.devices import Mosfet
        ioffs = [Mosfet(n, width=1e-6).off_current() for n in nodes]
        assert ioffs == sorted(ioffs)
        assert ioffs[-1] / ioffs[0] > 1e4

    def test_vth_scaling_slower_than_vdd(self, nodes):
        """V_T/V_DD grows: the noise/leakage squeeze."""
        first, last = nodes[0], nodes[-1]
        assert last.vth / last.vdd > first.vth / first.vdd

    def test_relative_sigma_vt_grows(self, nodes):
        """The paper's 50 mV example: same tolerance matters more."""
        rel = [0.05 / node.overdrive for node in nodes]
        assert rel == sorted(rel)


class TestElectricalSanity:
    def test_65nm_sigma_vt_minimum_device(self):
        node = get_node("65nm")
        sigma = node.sigma_vt_min_device
        # A_VT ~ 2.4 mV*um over a 65x65 nm device: tens of mV.
        assert 10e-3 < sigma < 100e-3

    def test_metal_layers_grow(self, nodes):
        layers = [node.metal_layers for node in nodes]
        assert layers == sorted(layers)

    def test_low_k_adoption(self, nodes):
        ks = [node.dielectric_k for node in nodes]
        assert ks == sorted(ks, reverse=True)
        assert ks[-1] < 3.0

    def test_copper_adoption_below_250(self):
        assert get_node("350nm").conductor_resistivity \
            > get_node("180nm").conductor_resistivity
