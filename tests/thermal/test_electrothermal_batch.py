"""Batched electrothermal solver vs the scalar oracle."""

import re
import warnings

import numpy as np
import pytest

from repro.digital.delay import fo4_delay_model
from repro.robust.errors import ModelDomainError, ModelDomainWarning
from repro.technology import all_nodes
from repro.technology.library import get_node
from repro.thermal import (ElectrothermalBatch, ThermalStack,
                           electrothermal_rth_sweep,
                           fixed_die_electrothermal_trend,
                           runaway_rth_threshold, runaway_rth_thresholds,
                           solve_operating_point,
                           solve_operating_point_batch)
from repro.thermal.electrothermal import (_runaway_rth_threshold_reference,
                                          _rth_sweep_reference)

RTH_GRID = [2.0, 10.0, 30.0, 80.0]


def _strip_wall_clock(text):
    return re.sub(r" in \S+ s wall-clock", "", text)


@pytest.fixture(scope="module")
def nodes():
    return all_nodes()


@pytest.fixture(scope="module")
def batch(nodes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelDomainWarning)
        return solve_operating_point_batch(
            nodes, rth=np.array(RTH_GRID), n_gates=1_000_000)


@pytest.fixture(scope="module")
def scalars(nodes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelDomainWarning)
        return [[solve_operating_point(
            node, n_gates=1_000_000,
            stack=ThermalStack(rth_junction_to_ambient=rth))
            for rth in RTH_GRID] for node in nodes]


class TestGridEquivalence:
    """Nodes x Rth grid: every element matches its scalar solve."""

    def test_shape(self, batch, nodes):
        assert batch.shape == (len(nodes), len(RTH_GRID))

    def test_discrete_outcomes_exact(self, batch, nodes, scalars):
        for i in range(len(nodes)):
            for j in range(len(RTH_GRID)):
                scalar = scalars[i][j]
                assert bool(batch.converged[i, j]) == scalar.converged
                assert bool(batch.runaway[i, j]) == scalar.runaway
                assert int(batch.n_iterations[i, j]) \
                    == scalar.n_iterations

    def test_junction_within_contract(self, batch, nodes, scalars):
        for i in range(len(nodes)):
            for j in range(len(RTH_GRID)):
                assert batch.junction_temperature[i, j] == pytest.approx(
                    scalars[i][j].junction_temperature, rel=1e-9)

    def test_powers_within_contract(self, batch, nodes, scalars):
        for i in range(len(nodes)):
            for j in range(len(RTH_GRID)):
                scalar = scalars[i][j]
                assert batch.leakage_power[i, j] == pytest.approx(
                    scalar.leakage_power, rel=1e-9)
                assert batch.dynamic_power[i, j] == pytest.approx(
                    scalar.dynamic_power, rel=1e-9)
                assert batch.leakage_power_cold[i, j] == pytest.approx(
                    scalar.leakage_power_cold, rel=1e-9)

    def test_report_string_parity_modulo_wall_clock(self, batch, nodes,
                                                    scalars):
        for i in range(len(nodes)):
            for j in range(len(RTH_GRID)):
                assert _strip_wall_clock(
                    str(batch.result((i, j)).report)) \
                    == _strip_wall_clock(str(scalars[i][j].report))

    def test_result_extracts_scalar_element(self, batch):
        element = batch.result((0, 0))
        assert isinstance(element.junction_temperature, float)
        assert element.report is not None
        assert element.report.max_iterations == batch.max_iterations

    def test_result_rejects_subarray_index(self, batch):
        with pytest.raises(ModelDomainError, match="sub-array"):
            batch.result(0)


class TestBatchValidation:
    def test_empty_nodes_rejected(self):
        with pytest.raises(ModelDomainError, match="at least one"):
            solve_operating_point_batch([])

    def test_negative_rth_rejected(self):
        with pytest.raises(ModelDomainError):
            solve_operating_point_batch(all_nodes(),
                                        rth=np.array([1.0, -2.0]))

    def test_fractional_gate_count_rejected(self):
        with pytest.raises(ModelDomainError, match="n_gates"):
            solve_operating_point_batch(all_nodes(), n_gates=0.5)

    def test_single_node_accepted(self):
        batch = solve_operating_point_batch(get_node("65nm"),
                                            n_gates=100_000)
        assert batch.shape == (1,)
        assert batch.node_names == ("65nm",)


class TestRunawayThresholds:
    """Batched bisection vs the scalar bisection."""

    def test_thresholds_match_scalar_backend(self, nodes):
        batched = runaway_rth_thresholds(nodes, n_gates=2_000_000)
        for node, threshold in zip(nodes, batched):
            scalar = _runaway_rth_threshold_reference(node,
                                                      n_gates=2_000_000)
            assert threshold == pytest.approx(scalar, rel=1e-6)

    def test_scalar_entry_point_delegates_to_batch(self):
        node = get_node("65nm")
        assert runaway_rth_threshold(node, n_gates=2_000_000) \
            == runaway_rth_thresholds([node], n_gates=2_000_000)[0]


class TestTrendEquivalence:
    """The sweep/trend entry points agree with per-node scalar solves."""

    def test_rth_sweep_rows_agree(self, nodes):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelDomainWarning)
            oracle = _rth_sweep_reference(nodes, RTH_GRID)
            vector = electrothermal_rth_sweep(nodes, RTH_GRID)
        assert len(oracle) == len(vector) == len(nodes) * len(RTH_GRID)
        for a, b in zip(oracle, vector):
            assert a["node"] == b["node"]
            assert a["converged"] == b["converged"]
            assert a["runaway"] == b["runaway"]
            assert a["n_iterations"] == b["n_iterations"]
            assert a["junction_K"] == pytest.approx(b["junction_K"],
                                                    rel=1e-9)
            assert a["leakage_W"] == pytest.approx(b["leakage_W"],
                                                   rel=1e-9)

    def test_fixed_die_trend_rows_agree(self, nodes):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelDomainWarning)
            vector = fixed_die_electrothermal_trend(nodes)
            assert len(vector) == len(nodes)
            for node, row in zip(nodes, vector):
                # The oracle fills a 50 mm^2 die at the node's density
                # and clocks it at the node's speed, capped at 3 GHz.
                gate_area = (8 * node.wire_pitch) * (12 * node.wire_pitch)
                n_gates = max(int(50e-6 / gate_area), 1)
                f_clk = min(1.0 / (30.0 * fo4_delay_model(node).delay()),
                            3e9)
                scalar = solve_operating_point(node, n_gates, f_clk)
                assert row["node"] == node.name
                assert row["n_gates_M"] == n_gates / 1e6
                assert row["f_clk_GHz"] == f_clk / 1e9
                assert row["runaway"] == float(scalar.runaway)
                assert row["junction_C"] == pytest.approx(
                    scalar.junction_temperature - 273.15,
                    rel=1e-9, abs=1e-6)


class TestBatchProperties:
    def test_total_power_and_feedback(self, batch):
        assert np.all(batch.total_power
                      == batch.dynamic_power + batch.leakage_power)
        assert np.all(batch.feedback_amplification >= 1.0)

    def test_nonfinite_ok_marks_residual(self):
        assert ElectrothermalBatch.__nonfinite_ok__ == ("residual",)
