"""Array-valued evaluator twins: bit-for-bit against the scalar path."""

import dataclasses

import numpy as np
import pytest

from repro.analog import OtaDesign, OtaYieldAnalyzer
from repro.analog.circuits import (DetectorFrontend, DetectorFrontendDesign,
                                   SingleStageOta)
from repro.robust.errors import ModelDomainError
from repro.technology import get_node

NODE = get_node("65nm")

OTA_ROWS = [
    (20e-6, 0.5e-6, 10e-6, 1e-6, 100e-6),
    (4e-6, 0.13e-6, 2e-6, 0.26e-6, 5e-6),
    (100e-6, 2e-6, 50e-6, 4e-6, 1e-3),
]

FRONTEND_ROWS = [
    (200e-6, 0.2e-6, 100e-15, 1e-6, 200e-6),
    (20e-6, 0.065e-6, 20e-15, 100e-9, 20e-6),
]


def _columns(rows):
    return tuple(np.array(col) for col in zip(*rows))


class TestOtaBatchTwin:
    @pytest.fixture(scope="class")
    def engine(self):
        return SingleStageOta(NODE, load_capacitance=2e-12)

    def test_bitwise_equal_to_scalar_loop(self, engine):
        batch = engine.evaluate_batch(*_columns(OTA_ROWS))
        for i, row in enumerate(OTA_ROWS):
            scalar = engine.evaluate(OtaDesign(*row))
            for f in dataclasses.fields(scalar):
                assert getattr(batch, f.name)[i] \
                    == getattr(scalar, f.name), f.name

    def test_broadcasting_scalar_arguments(self, engine):
        iw = np.array([20e-6, 40e-6])
        batch = engine.evaluate_batch(iw, 0.5e-6, 10e-6, 1e-6, 100e-6)
        assert batch.gain_db.shape == (2,)
        scalar = engine.evaluate(OtaDesign(40e-6, 0.5e-6, 10e-6, 1e-6,
                                           100e-6))
        assert batch.gain_db[1] == scalar.gain_db

    def test_node_overrides_match_with_overrides(self, engine):
        vth_shift = np.array([-0.05, 0.0, 0.04])
        tox_factor = np.array([0.95, 1.0, 1.08])
        row = OTA_ROWS[0]
        batch = engine.evaluate_batch(
            *(np.full(3, v) for v in row),
            node_overrides={"vth": NODE.vth + vth_shift,
                            "tox": NODE.tox * tox_factor})
        for i in range(3):
            shifted = NODE.with_overrides(
                vth=float(NODE.vth + vth_shift[i]),
                tox=float(NODE.tox * tox_factor[i]))
            scalar = SingleStageOta(shifted, 2e-12).evaluate(
                OtaDesign(*row))
            assert batch.gain_db[i] == scalar.gain_db
            assert batch.offset_sigma[i] == scalar.offset_sigma
            assert batch.power[i] == scalar.power

    def test_invalid_raise_matches_scalar_error(self, engine):
        with pytest.raises(ModelDomainError, match="tail_current"):
            engine.evaluate_batch(20e-6, 0.5e-6, 10e-6, 1e-6,
                                  np.array([100e-6, -1e-6]))

    def test_invalid_nan_isolates_bad_candidates(self, engine):
        tail = np.array([100e-6, -1e-6, 50e-6])
        batch = engine.evaluate_batch(20e-6, 0.5e-6, 10e-6, 1e-6, tail,
                                      invalid="nan")
        assert np.isnan(batch.gain_db[1])
        good = engine.evaluate(OtaDesign(20e-6, 0.5e-6, 10e-6, 1e-6,
                                         100e-6))
        assert batch.gain_db[0] == good.gain_db

    def test_invalid_policy_validated(self, engine):
        with pytest.raises(ModelDomainError, match="invalid"):
            engine.evaluate_batch(20e-6, 0.5e-6, 10e-6, 1e-6, 100e-6,
                                  invalid="ignore")

    def test_nonfinite_inputs_always_raise(self, engine):
        with pytest.raises(ModelDomainError):
            engine.evaluate_batch(np.array([20e-6, float("nan")]),
                                  0.5e-6, 10e-6, 1e-6, 100e-6,
                                  invalid="nan")

    def test_unknown_override_rejected(self, engine):
        with pytest.raises(ModelDomainError, match="node_overrides"):
            engine.evaluate_batch(20e-6, 0.5e-6, 10e-6, 1e-6, 100e-6,
                                  node_overrides={"vdd": 1.0})


class TestFrontendBatchTwin:
    @pytest.fixture(scope="class")
    def engine(self):
        return DetectorFrontend(NODE)

    def test_bitwise_equal_to_scalar_loop(self, engine):
        batch = engine.evaluate_batch(*_columns(FRONTEND_ROWS))
        for i, row in enumerate(FRONTEND_ROWS):
            scalar = engine.evaluate(DetectorFrontendDesign(*row))
            for f in dataclasses.fields(scalar):
                assert getattr(batch, f.name)[i] \
                    == getattr(scalar, f.name), f.name

    def test_invalid_nan_isolates_bad_candidates(self, engine):
        cfb = np.array([100e-15, -1e-15])
        batch = engine.evaluate_batch(200e-6, 0.2e-6, cfb, 1e-6, 200e-6,
                                      invalid="nan")
        assert np.isnan(batch.enc_electrons[1])
        assert np.isfinite(batch.enc_electrons[0])


class TestYieldBackendParity:
    """The yield engine's per-die loop vs the one-shot batched twin."""

    SPEC = {"gain_db": 30.0, "offset_sigma": 5e-3}

    def _analyzer(self, seed):
        design = OtaDesign(input_width=20e-6, input_length=0.5e-6,
                           load_width=10e-6, load_length=1e-6,
                           tail_current=100e-6)
        return OtaYieldAnalyzer(NODE, design, load_capacitance=2e-12,
                                seed=seed)

    def _matrices(self, seed, n_samples, keys):
        """Both performance matrices of one sampled die batch."""
        analyzer = self._analyzer(seed)
        batch = analyzer._sampler.sample_dies_batch(n_samples)
        offsets = np.abs(analyzer.rng.standard_normal(n_samples))
        return (analyzer._performance_matrix_oracle(batch, offsets, keys),
                analyzer._performance_matrix_batch(batch, offsets, keys))

    def test_reports_identical_across_backends(self):
        oracle, vector = self._matrices(31, 150, list(self.SPEC))
        assert np.array_equal(oracle, vector)

    def test_default_backend_matches_oracle(self):
        keys = ["gain_db", "gbw_hz", "phase_margin_deg", "slew_rate",
                "swing", "power", "offset_sigma"]
        oracle, vector = self._matrices(12, 100, keys)
        assert np.array_equal(oracle, vector)
