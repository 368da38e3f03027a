"""Backend behavior of the sizing loop: fixed-seed oracle equivalence,
the column decode, array-aware penalties and typed spec validation."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.robust.errors import ModelDomainError
from repro.synthesis.sizing import (CircuitSynthesizer, Specification,
                                    Variable, default_frontend_spec,
                                    default_ota_spec, frontend_synthesizer,
                                    ota_synthesizer)
from repro.technology.library import get_node


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


class TestFixedSeedEquivalence:
    """The headline contract: fixed-seed DE returns the *identical*
    best design through either backend."""

    def test_ota_best_design_is_identical(self, node):
        spec = default_ota_spec()
        oracle = ota_synthesizer(node, 2e-12, spec).run(
            seed=11, maxiter=10, popsize=8, backend="oracle")
        vector = ota_synthesizer(node, 2e-12, spec).run(
            seed=11, maxiter=10, popsize=8, backend="vectorized")
        assert oracle.values == vector.values          # bit-for-bit
        assert oracle.cost == vector.cost
        assert oracle.n_evaluations == vector.n_evaluations
        assert oracle.feasible == vector.feasible

    def test_frontend_best_design_is_identical(self, node):
        spec = default_frontend_spec()
        oracle = frontend_synthesizer(node, spec).run(
            seed=4, maxiter=8, popsize=8, backend="oracle")
        vector = frontend_synthesizer(node, spec).run(
            seed=4, maxiter=8, popsize=8, backend="vectorized")
        assert oracle.values == vector.values
        assert oracle.cost == vector.cost
        assert oracle.n_evaluations == vector.n_evaluations

    def test_default_backend_is_vectorized_and_recorded(self, node):
        result = ota_synthesizer(node, 2e-12, default_ota_spec()).run(
            seed=2, maxiter=3, popsize=6)
        assert result.backend == "vectorized"

    def test_oracle_backend_recorded(self, node):
        result = ota_synthesizer(node, 2e-12, default_ota_spec()).run(
            seed=2, maxiter=2, popsize=6, backend="oracle")
        assert result.backend == "oracle"


# Bounds spanning up to twelve decades, on either scale.
variable_bounds = st.tuples(st.floats(min_value=-18.0, max_value=6.0),
                            st.floats(min_value=1e-3, max_value=12.0),
                            st.booleans())
# Units DE can send, the clamp's edges and points outside [0, 1].
edge_units = st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53,
                              -1.0, 2.0, -1e300, 1e300])
planted_units = st.lists(
    st.one_of(edge_units,
              st.floats(min_value=-2.0, max_value=3.0, allow_nan=False)),
    min_size=1, max_size=16)


class TestColumnDecode:
    """``_decode_batch`` is ``Variable.decode`` applied per element."""

    @given(st.lists(variable_bounds, min_size=1, max_size=4),
           st.sampled_from([1, 256]),
           st.integers(min_value=0, max_value=2 ** 32 - 1),
           planted_units)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_decode_bitwise(self, bounds, size, seed,
                                           planted):
        variables = [Variable(f"v{i}", 10.0 ** exponent,
                              10.0 ** exponent * 10.0 ** decades,
                              log_scale=log_scale)
                     for i, (exponent, decades, log_scale)
                     in enumerate(bounds)]
        x = np.random.default_rng(seed).uniform(
            -0.5, 1.5, (len(variables), size))
        n = min(len(planted), x.size)
        x.flat[:n] = planted[:n]
        synthesizer = CircuitSynthesizer(
            variables, lambda values: None, Specification(constraints={}))
        decoded = synthesizer._decode_batch(x)
        assert list(decoded) == [var.name for var in variables]
        for var, row in zip(variables, x):
            column = decoded[var.name]
            assert column.dtype == np.float64 and column.shape == (size,)
            # float.hex tells -0.0 from 0.0 and shows every bit.
            assert [value.hex() for value in column.tolist()] == [
                var.decode(float(u)).hex() for u in row]


class TestBackendValidation:
    def test_unknown_backend_rejected(self, node):
        synthesizer = ota_synthesizer(node, 2e-12, default_ota_spec())
        with pytest.raises(ModelDomainError, match="backend"):
            synthesizer.run(seed=0, maxiter=2, backend="gpu")

    def test_vectorized_without_batch_evaluator_rejected(self):
        spec = Specification(constraints={"power": ("max", 1.0)})
        synthesizer = CircuitSynthesizer(
            [Variable("x", 1.0, 2.0)],
            lambda values: SimpleNamespace(power=values["x"]), spec)
        with pytest.raises(ModelDomainError, match="no batched evaluator"):
            synthesizer.run(seed=0, maxiter=2, backend="vectorized")

    def test_oracle_only_synthesizer_still_runs(self):
        spec = Specification(constraints={"power": ("max", 1.5)})
        synthesizer = CircuitSynthesizer(
            [Variable("x", 1.0, 2.0)],
            lambda values: SimpleNamespace(power=values["x"]), spec)
        result = synthesizer.run(seed=0, maxiter=3, popsize=5)
        assert result.backend == "oracle"
        assert result.feasible


class TestSpecificationValidation:
    """Satellite: typed validation of spec targets at construction."""

    def test_nan_bound_rejected(self):
        with pytest.raises(ModelDomainError, match="finite"):
            Specification(constraints={"gain_db": ("min", float("nan"))})

    def test_infinite_bound_rejected(self):
        with pytest.raises(ModelDomainError, match="finite"):
            Specification(constraints={"power": ("max", float("inf"))})

    def test_non_numeric_bound_rejected(self):
        with pytest.raises(ModelDomainError, match="finite"):
            Specification(constraints={"power": ("max", "1e-3")})

    def test_bool_bound_rejected(self):
        with pytest.raises(ModelDomainError, match="finite"):
            Specification(constraints={"power": ("max", True)})

    def test_malformed_entry_rejected(self):
        with pytest.raises(ModelDomainError, match="pair"):
            Specification(constraints={"power": 1e-3})

    def test_direction_still_checked_lazily(self):
        spec = Specification(constraints={"gain_db": ("min", 40.0)})
        spec.constraints["gain_db"] = ("between", 40.0)
        with pytest.raises(ModelDomainError, match="direction"):
            spec.penalty(SimpleNamespace(gain_db=50.0))


class TestArrayPenalty:
    """Satellite: penalty/is_feasible accept array-valued performance."""

    SPEC = dict(constraints={"gain_db": ("min", 40.0),
                             "power": ("max", 1e-3)})

    def test_array_penalty_matches_scalar_loop_bitwise(self):
        spec = Specification(**self.SPEC)
        gains = np.array([35.0, 40.0, 55.0, float("nan")])
        powers = np.array([2e-3, 1e-3, 5e-4, 1e-4])
        batch = spec.penalty(SimpleNamespace(gain_db=gains, power=powers))
        scalar = [spec.penalty(SimpleNamespace(gain_db=g, power=p))
                  for g, p in zip(gains, powers)]
        assert batch.shape == (4,)
        assert all(a == b for a, b in zip(batch, scalar))

    def test_array_is_feasible_elementwise(self):
        spec = Specification(**self.SPEC)
        verdict = spec.is_feasible(SimpleNamespace(
            gain_db=np.array([35.0, 50.0]),
            power=np.array([5e-4, 5e-4])))
        assert verdict.dtype == bool
        assert list(verdict) == [False, True]

    def test_scalar_penalty_still_returns_float(self):
        spec = Specification(**self.SPEC)
        penalty = spec.penalty(SimpleNamespace(gain_db=50.0, power=5e-4))
        assert isinstance(penalty, float)
        assert penalty == 0.0

    def test_broadcasting_mixed_scalar_and_array(self):
        spec = Specification(**self.SPEC)
        penalty = spec.penalty(SimpleNamespace(
            gain_db=np.array([35.0, 50.0]), power=5e-4))
        assert penalty.shape == (2,)
        assert penalty[0] > 0 and penalty[1] == 0.0
