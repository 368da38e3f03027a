"""Hypothesis property suite: batched engines vs their scalar paths.

Each engine's tolerance is its :class:`EquivalenceContract` in
:mod:`repro.backends`; these properties drive randomly drawn inputs
through both paths and check the contract with
:func:`assert_backends_agree` -- bit-for-bit for the closed-form
synthesis evaluators, a 1e-9 relative tolerance (plus exact discrete
outcomes) for the iterative electrothermal solver.  A deterministic
population test backs the bitwise contracts at a size where a
one-ulp libm mismatch shows.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analog.circuits import (DetectorFrontend, DetectorFrontendDesign,
                                   FrontendPerformance, OtaDesign,
                                   OtaPerformance, SingleStageOta)
from repro.backends import EquivalenceContract, equivalence_contract
from repro.robust.errors import ModelDomainError, ModelDomainWarning
from repro.robust.validate import iter_numeric_leaves
from repro.synthesis.sizing import (default_frontend_spec,
                                    default_ota_spec, frontend_synthesizer,
                                    ota_synthesizer)
from repro.technology.library import get_node
from repro.thermal import (ThermalStack, solve_operating_point,
                           solve_operating_point_batch)

NODE = get_node("65nm")
FEATURE = NODE.feature_size

widths = st.floats(min_value=2.0 * FEATURE, max_value=1e-4,
                   allow_nan=False, allow_infinity=False)
lengths = st.floats(min_value=FEATURE, max_value=1e-5,
                    allow_nan=False, allow_infinity=False)
currents = st.floats(min_value=1e-7, max_value=1e-3,
                     allow_nan=False, allow_infinity=False)

ota_rows = st.lists(st.tuples(widths, lengths, widths, lengths, currents),
                    min_size=1, max_size=6)

frontend_rows = st.lists(
    st.tuples(widths, lengths,
              st.floats(min_value=1e-14, max_value=1e-11),
              st.floats(min_value=1e-8, max_value=1e-5),
              currents),
    min_size=1, max_size=6)


def assert_backends_agree(oracle_result: object, vectorized_result: object,
                          contract: EquivalenceContract) -> None:
    """Assert two results agree per ``contract``.

    Walks every numeric leaf (dataclasses, mappings, sequences,
    arrays) of both results in parallel; a bitwise contract uses exact
    array equality (NaNs must match positionally), a tolerance
    contract uses ``rtol`` with equal-nan semantics.  Failures name
    the engine.
    """
    oracle_leaves = [np.asarray(leaf, dtype=float).ravel()
                     for leaf in iter_numeric_leaves(oracle_result)]
    vector_leaves = [np.asarray(leaf, dtype=float).ravel()
                     for leaf in iter_numeric_leaves(vectorized_result)]
    assert len(oracle_leaves) == len(vector_leaves), (
        f"{contract.engine}: results have different shapes "
        f"({len(oracle_leaves)} vs {len(vector_leaves)} numeric leaves)")
    for index, (a, b) in enumerate(zip(oracle_leaves, vector_leaves)):
        if contract.bitwise:
            assert np.array_equal(a, b, equal_nan=True), (
                f"{contract.engine}: bit-for-bit contract violated at "
                f"numeric leaf {index}: {a!r} != {b!r}")
        else:
            assert np.allclose(a, b, rtol=contract.rtol, atol=0.0,
                               equal_nan=True), (
                f"{contract.engine}: rtol={contract.rtol:g} contract "
                f"violated at numeric leaf {index}: {a!r} vs {b!r}")


def _stack(cls, scalars):
    """Scalar results stacked per field into one array-valued result."""
    return cls(**{f.name: np.array([getattr(s, f.name) for s in scalars])
                  for f in dataclasses.fields(cls)})


class TestSynthesisOtaContract:
    """``synthesis.ota``: evaluate_batch is bit-for-bit the scalar loop."""

    @given(ota_rows)
    @settings(max_examples=25, deadline=None)
    def test_population_is_bitwise_equal(self, rows):
        engine = SingleStageOta(NODE, load_capacitance=1e-12)
        oracle = _stack(OtaPerformance,
                        [engine.evaluate(OtaDesign(*row)) for row in rows])
        iw, il, lw, ll, tail = (np.array(col) for col in zip(*rows))
        batch = engine.evaluate_batch(iw, il, lw, ll, tail)
        assert_backends_agree(oracle, batch,
                              equivalence_contract("synthesis.ota"))

    @given(ota_rows,
           st.lists(st.floats(min_value=1e-10, max_value=5e-9),
                    min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_tox_overrides_match_shifted_nodes(self, rows, toxes):
        n = min(len(rows), len(toxes))
        rows, toxes = rows[:n], toxes[:n]
        scalars = [
            SingleStageOta(NODE.with_overrides(tox=tox),
                           load_capacitance=1e-12).evaluate(OtaDesign(*row))
            for row, tox in zip(rows, toxes)]
        iw, il, lw, ll, tail = (np.array(col) for col in zip(*rows))
        batch = SingleStageOta(NODE, load_capacitance=1e-12).evaluate_batch(
            iw, il, lw, ll, tail,
            node_overrides={"tox": np.array(toxes)})
        assert_backends_agree(_stack(OtaPerformance, scalars), batch,
                              equivalence_contract("synthesis.ota"))


class TestSynthesisFrontendContract:
    """``synthesis.frontend``: bit-for-bit population evaluation."""

    @given(frontend_rows)
    @settings(max_examples=25, deadline=None)
    def test_population_is_bitwise_equal(self, rows):
        engine = DetectorFrontend(NODE)
        oracle = _stack(
            FrontendPerformance,
            [engine.evaluate(DetectorFrontendDesign(*row)) for row in rows])
        arrays = (np.array(col) for col in zip(*rows))
        batch = engine.evaluate_batch(*arrays)
        assert_backends_agree(oracle, batch,
                              equivalence_contract("synthesis.frontend"))


class TestSynthesisPopulationBitwise:
    """Both synthesis evaluators on a seeded population of designs.

    The hypothesis properties above draw at most six designs per
    example.  numpy's ``arctan`` and ``x ** 2`` differ from libm's
    ``atan`` and ``pow`` on about 0.1 % of inputs, too rarely for them
    to notice.  Here each engine and node scores enough designs for a
    one-ulp drift in any batched expression to move several elements:
    16,384 OTAs, and 65,536 front-ends, whose one libm square moves
    ENC on only about 1 in 10^4 designs (its scalar loop is ten times
    cheaper).  The designs are decoded from each synthesizer's own
    variable bounds, so every one is valid and the batch holds no NaN.
    """

    @pytest.mark.parametrize("node_name", ["65nm", "350nm"])
    @pytest.mark.parametrize("make_synthesizer, performance, n_designs", [
        (lambda node: ota_synthesizer(node, 2e-12, default_ota_spec()),
         OtaPerformance, 16_384),
        (lambda node: frontend_synthesizer(node, default_frontend_spec()),
         FrontendPerformance, 65_536),
    ], ids=["ota", "frontend"])
    def test_every_field_is_bitwise_equal(self, make_synthesizer,
                                          performance, n_designs,
                                          node_name):
        synthesizer = make_synthesizer(get_node(node_name))
        units = np.random.default_rng(21).random(
            (len(synthesizer.variables), n_designs))
        values = synthesizer._decode_batch(units)
        batch = synthesizer.evaluate_batch(values)
        rows = zip(*(column.tolist() for column in values.values()))
        oracle = _stack(performance, [
            synthesizer.evaluate(dict(zip(values, row))) for row in rows])
        mismatches = {}
        for field in dataclasses.fields(performance):
            expected = getattr(oracle, field.name)
            actual = np.asarray(getattr(batch, field.name), dtype=float)
            assert actual.shape == expected.shape
            differ = int(np.count_nonzero(
                actual.view(np.uint64) != expected.view(np.uint64)))
            if differ:
                mismatches[field.name] = differ
        assert mismatches == {}, (
            f"elements differing from the scalar loop, of "
            f"{n_designs}: {mismatches}")


class TestElectrothermalContract:
    """``thermal.electrothermal``: 1e-9 relative junction agreement and
    exact discrete outcomes per grid element."""

    @given(st.lists(st.floats(min_value=0.5, max_value=120.0),
                    min_size=1, max_size=5),
           st.floats(min_value=2e8, max_value=3e9),
           st.floats(min_value=0.02, max_value=0.4))
    @settings(max_examples=20, deadline=None)
    def test_rth_grid_matches_scalar_solves(self, rth_values, frequency,
                                            activity):
        contract = equivalence_contract("thermal.electrothermal")
        n_gates = 200_000
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelDomainWarning)
            batch = solve_operating_point_batch(
                [NODE], rth=np.array(rth_values), n_gates=n_gates,
                frequency=frequency, activity=activity)
            for j, rth in enumerate(rth_values):
                scalar = solve_operating_point(
                    NODE, n_gates=n_gates, frequency=frequency,
                    activity=activity,
                    stack=ThermalStack(rth_junction_to_ambient=rth))
                element = batch.result((0, j))
                assert element.converged == scalar.converged
                assert element.runaway == scalar.runaway
                assert element.n_iterations == scalar.n_iterations
                assert element.junction_temperature == pytest.approx(
                    scalar.junction_temperature, rel=contract.rtol)
                assert element.total_power == pytest.approx(
                    scalar.total_power, rel=1e-9)

    def test_report_parity_modulo_wall_clock(self):
        scalar = solve_operating_point(NODE, n_gates=500_000)
        batch = solve_operating_point_batch([NODE], n_gates=500_000)
        strip = lambda s: re.sub(r" in \S+ s wall-clock", "", s)
        assert strip(str(batch.result((0,)).report)) \
            == strip(str(scalar.report))


class TestContracts:
    """The tolerance table in :mod:`repro.backends`."""

    def test_synthesis_contracts_are_bitwise(self):
        assert equivalence_contract("synthesis.ota").bitwise
        assert equivalence_contract("synthesis.frontend").bitwise
        assert equivalence_contract("analog.ota_yield").bitwise

    def test_electrothermal_contract_is_tolerance(self):
        contract = equivalence_contract("thermal.electrothermal")
        assert not contract.bitwise
        assert 0.0 < contract.rtol <= 1e-9

    def test_missing_contract_is_typed_error(self):
        with pytest.raises(ModelDomainError, match="no equivalence"):
            equivalence_contract("no.such.engine")


class TestAssertBackendsAgree:
    """The checker itself: engine-naming assertion failures."""

    def test_bitwise_divergence_raises_typed_error(self):
        contract = equivalence_contract("synthesis.ota")
        a = {"x": np.array([1.0, 2.0])}
        b = {"x": np.array([1.0, 2.0 + 1e-12])}
        with pytest.raises(AssertionError, match="synthesis.ota"):
            assert_backends_agree(a, b, contract)

    def test_tolerance_contract_accepts_one_ulp(self):
        contract = equivalence_contract("thermal.electrothermal")
        a = {"x": np.array([300.0])}
        b = {"x": np.array([np.nextafter(300.0, 400.0)])}
        assert_backends_agree(a, b, contract)

    def test_leaf_count_mismatch_raises(self):
        contract = equivalence_contract("synthesis.ota")
        with pytest.raises(AssertionError, match="leaves"):
            assert_backends_agree({"x": 1.0}, {"x": 1.0, "y": 2.0},
                                  contract)

    def test_matching_nans_satisfy_bitwise_contract(self):
        contract = equivalence_contract("synthesis.ota")
        a = {"x": np.array([float("nan"), 1.0])}
        b = {"x": np.array([float("nan"), 1.0])}
        assert_backends_agree(a, b, contract)
