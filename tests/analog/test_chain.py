"""Tests for the DAC -> SC filter -> ADC behavioral chain blocks."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analog import (ChainDesign, ChainSpec, R2rDac, SarAdc,
                          SignalChain, chain_signoff)
from repro.analog.chain import _midstep_ramp
from repro.analog.metrics import _ramp_monotonic
from repro.robust import ModelDomainError, ReproError
from repro.technology import get_node
from repro.variability import MonteCarloSampler


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@st.composite
def mismatched_sars(draw):
    """A batched SAR ADC with gross mismatch and a mid-step ramp.

    Cap weights and terminations carry relative Gaussian errors of up
    to sigma 2, one cap weight may be zeroed, and offsets reach half
    full scale, so the ramp saturates at both ends.  Offsets may be
    snapped to the ramp's half step, which puts samples exactly on the
    thresholds of an unmismatched cap DAC.
    """
    n_bits = draw(st.integers(2, 10))
    n_dies = draw(st.integers(1, 30))
    sigma = draw(st.floats(0.0, 2.0))
    n_per_code = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = np.maximum(2.0 ** np.arange(n_bits) * (
        1.0 + sigma * rng.standard_normal((n_dies, n_bits))), 0.0)
    zeroed = draw(st.none() | st.integers(0, n_bits - 1))
    if zeroed is not None:
        weights[:, zeroed] = 0.0
    termination = np.maximum(
        1.0 + sigma * rng.standard_normal(n_dies), 0.05)
    offset = rng.uniform(-0.5, 0.5, n_dies)
    if draw(st.booleans()):
        half_step = 0.5 / (2 ** n_bits * n_per_code)
        offset = np.round(offset / half_step) * half_step
    adc = SarAdc(n_bits=n_bits, weights=weights,
                 termination=termination, offset=offset)
    return adc, _midstep_ramp(n_bits, n_per_code)


def with_shorted_leg(chain, leg):
    """Chain with DAC ladder leg ``leg`` shorted out (weight 0): killing
    bit ``leg`` collapses ``2**leg`` codes onto their neighbours, an INL
    signature of about ``2**leg`` LSB that the sign-off must flag."""
    weights = np.array(chain.dac.weights, dtype=float, copy=True)
    weights[..., leg] = 0.0
    return replace(chain, dac=replace(chain.dac, weights=weights))


# --- Test-only references: the plain expressions the kernels replaced ----

def _levels_reference(dac):
    """Every code's per-bit product, summed by numpy, over the total."""
    weights = np.asarray(dac.weights, dtype=float)
    codes = np.arange(2 ** dac.n_bits, dtype=np.int64)
    bits = ((codes[:, None] >> np.arange(dac.n_bits)) & 1).astype(float)
    total = weights.sum(axis=-1) + np.asarray(dac.termination, dtype=float)
    return (weights[..., None, :] * bits).sum(axis=-1) / total[..., None]


def _descent_reference(adc, held):
    """Textbook MSB-first SAR: one division and one np.where per bit."""
    weights = np.asarray(adc.weights, dtype=float)
    batched = weights.ndim > 1
    total = weights.sum(axis=-1) + np.asarray(adc.termination, dtype=float)
    if batched:
        total = total[..., None]
    settled = np.zeros_like(held)
    codes = np.zeros(held.shape, dtype=np.int64)
    for j in range(adc.n_bits - 1, -1, -1):
        trial = settled + (weights[..., j:j + 1] if batched
                           else weights[j])
        keep = held >= trial / total
        settled = np.where(keep, trial, settled)
        codes += keep.astype(np.int64) * (1 << j)
    return codes


def _convert_reference(adc, values):
    offset = np.broadcast_to(np.asarray(adc.offset, dtype=float),
                             np.shape(adc.weights)[:-1])
    if offset.ndim:
        offset = offset[..., None]
    return _descent_reference(adc, np.asarray(values, dtype=float) + offset)


def _table_reference(adc):
    """Every trial threshold, built level by level, sorted, and the
    descent's code at each."""
    weights = np.asarray(adc.weights, dtype=float)
    total = (weights.sum(axis=-1) + np.asarray(adc.termination,
                                               dtype=float))[..., None]
    settled = np.zeros(weights.shape[:-1] + (1,))
    levels = []
    for j in range(adc.n_bits - 1, -1, -1):
        trial = settled + weights[..., j:j + 1]
        levels.append(trial / total)
        settled = np.concatenate([settled, trial], axis=-1)
    thresholds = np.sort(np.concatenate(levels, axis=-1), axis=-1)
    return thresholds, _descent_reference(adc, thresholds)


def _ramp_histogram_reference(adc, ramp):
    """Counts from one searchsorted per die in its own held ramp."""
    thresholds, codes = _table_reference(adc)
    offset = np.broadcast_to(np.asarray(adc.offset, dtype=float),
                             thresholds.shape[:1])
    below = np.stack([np.searchsorted(ramp + offset[d], thresholds[d],
                                      side="left")
                      for d in range(thresholds.shape[0])])
    hits = np.diff(below, axis=-1, prepend=0, append=ramp.size)
    row_codes = np.insert(codes, 0, 0, axis=-1)
    counts = np.stack([np.bincount(c, weights=h, minlength=2 ** adc.n_bits)
                       for c, h in zip(row_codes, hits)])
    return counts.astype(np.int64)


@st.composite
def kernel_cases(draw):
    """A mismatched DAC and SAR, with or without a die axis, and an
    ascending ramp.

    Weights carry relative errors up to sigma 2 and may have a zeroed
    leg (0.0 or -0.0).  The ramp is a mid-step ramp, arbitrary sorted
    samples with repeats, or -- at zero offset -- every SAR threshold
    of the first die with its two float neighbours.
    """
    n_bits = draw(st.integers(2, 14))
    dies = (draw(st.integers(1, 5)),) if draw(st.booleans()) else ()
    sigma = draw(st.floats(0.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def weights():
        w = np.maximum(2.0 ** np.arange(n_bits) * (
            1.0 + sigma * rng.standard_normal(dies + (n_bits,))), 0.0)
        zeroed = draw(st.none() | st.integers(0, n_bits - 1))
        if zeroed is not None:
            w[..., zeroed] = draw(st.sampled_from([0.0, -0.0]))
        return w

    def termination():
        return np.maximum(1.0 + sigma * rng.standard_normal(dies), 0.05)

    dac = R2rDac(n_bits=n_bits, weights=weights(),
                 termination=termination())
    adc = SarAdc(n_bits=n_bits, weights=weights(),
                 termination=termination(),
                 offset=rng.uniform(-0.5, 0.5, dies))
    kind = draw(st.sampled_from(["midstep", "sorted", "thresholds"]))
    if kind == "midstep":
        ramp = _midstep_ramp(n_bits, draw(st.sampled_from([1, 2, 4])))
    elif kind == "sorted":
        grid = draw(st.sampled_from([0.0, 2.0 ** -n_bits, 1e-3]))
        ramp = np.sort(rng.uniform(-0.6, 1.6, draw(st.integers(1, 3000))))
        if grid:
            ramp = np.round(ramp / grid) * grid
    else:
        adc = replace(adc, offset=np.zeros(dies))
        t = _table_reference(adc)[0].reshape(-1, 2 ** n_bits - 1)[0]
        ramp = np.sort(np.concatenate(
            [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]))
    return dac, adc, ramp


def assert_bitwise(actual, expected):
    """Same dtype, shape and bit pattern (zero signs included)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(case=kernel_cases())
def test_kernels_match_references_bitwise(case):
    """Levels, conversion, transition table and ramp counts equal the
    plain expressions they replaced, to the last bit."""
    dac, adc, ramp = case
    assert_bitwise(dac.levels(), _levels_reference(dac))
    assert_bitwise(adc.convert(ramp), _convert_reference(adc, ramp))
    thresholds, codes = adc._transition_table()
    ref_thresholds, ref_codes = _table_reference(adc)
    assert_bitwise(thresholds, ref_thresholds)
    assert_bitwise(codes, ref_codes)
    if np.ndim(adc.offset):
        counts, monotonic = adc._ramp_histogram(ramp)
        assert_bitwise(counts, _ramp_histogram_reference(adc, ramp))
        assert_bitwise(monotonic,
                       _ramp_monotonic(_convert_reference(adc, ramp)))


@pytest.mark.parametrize("n_bits", [4, 8, 11])
def test_negative_zero_weights_sum_to_positive_zero(n_bits):
    """Every level of an all -0.0 ladder is the reference's +0.0."""
    dac = R2rDac(n_bits=n_bits, weights=np.full(n_bits, -0.0),
                 termination=1.0)
    assert_bitwise(dac.levels(), _levels_reference(dac))
    assert not np.signbit(dac.levels()).any()


class TestR2rDac:
    def test_ideal_levels_are_exact_dyadics(self):
        dac = R2rDac.ideal(8)
        levels = dac.levels()
        np.testing.assert_array_equal(levels,
                                      np.arange(256) / 256.0)

    def test_convert_indexes_levels(self):
        dac = R2rDac.ideal(4)
        codes = np.array([0, 5, 15])
        np.testing.assert_array_equal(dac.convert(codes),
                                      codes / 16.0)

    def test_mismatch_breaks_uniformity(self):
        weights = 2.0 ** np.arange(8)
        weights[7] *= 1.02  # 2% heavy MSB
        dac = R2rDac(n_bits=8, weights=weights, termination=1.0)
        steps = np.diff(dac.levels())
        assert steps.max() / steps.min() > 1.5  # big step at 127->128

    def test_validation(self):
        with pytest.raises(ReproError):
            R2rDac(n_bits=8, weights=np.ones(4), termination=1.0)
        with pytest.raises(ReproError):
            R2rDac(n_bits=4, weights=-np.ones(4), termination=1.0)
        with pytest.raises(ReproError):
            R2rDac(n_bits=4, weights=np.ones(4), termination=0.0)


class TestSarAdc:
    def test_ideal_is_floor_quantizer(self):
        adc = SarAdc.ideal(8)
        values = (np.arange(1024) + 0.5) / 1024.0
        codes = adc.convert(values)
        np.testing.assert_array_equal(codes, np.arange(1024) // 4)

    def test_round_trip_with_ideal_dac(self):
        """ADC exactly inverts the DAC: the chain identity."""
        dac, adc = R2rDac.ideal(8), SarAdc.ideal(8)
        np.testing.assert_array_equal(adc.convert(dac.levels()),
                                      np.arange(256))

    def test_offset_shifts_codes(self):
        adc = SarAdc(n_bits=8, weights=2.0 ** np.arange(8),
                     termination=1.0, offset=4.0 / 256.0)
        codes = adc.convert((np.arange(256) + 0.5) / 256.0)
        assert codes[100] == 104

    def test_out_of_range_saturates(self):
        adc = SarAdc.ideal(8)
        assert adc.convert(np.array([-0.5]))[0] == 0
        assert adc.convert(np.array([1.5]))[0] == 255

    def test_batched_weights_broadcast(self):
        """A (n_dies, n_bits) ADC converts a shared ramp per die."""
        weights = np.broadcast_to(2.0 ** np.arange(8),
                                  (3, 8)).copy()
        adc = SarAdc(n_bits=8, weights=weights,
                     termination=np.ones(3),
                     offset=np.array([0.0, 0.0, 1.0 / 256.0]))
        ramp = (np.arange(512) + 0.5) / 512.0
        codes = adc.convert(ramp)
        assert codes.shape == (3, 512)
        np.testing.assert_array_equal(codes[0], codes[1])
        assert np.any(codes[2] != codes[0])

    def test_batched_default_offset_broadcasts(self):
        """The scalar default offset converts like an explicit zero
        offset per die."""
        weights = 2.0 ** np.arange(8) * (
            1.0 + 0.01 * np.random.default_rng(3).standard_normal((3, 8)))
        ramp = (np.arange(512) + 0.5) / 512.0
        default = SarAdc(n_bits=8, weights=weights,
                         termination=np.ones(3)).convert(ramp)
        explicit = SarAdc(n_bits=8, weights=weights, termination=np.ones(3),
                          offset=np.zeros(3)).convert(ramp)
        assert default.shape == (3, 512)
        np.testing.assert_array_equal(default, explicit)

    def test_zero_dies_convert_to_no_codes(self):
        adc = SarAdc(n_bits=8, weights=np.ones((0, 8)),
                     termination=np.ones(0), offset=np.zeros(0))
        codes = adc.convert(np.linspace(0.0, 1.0, 5))
        assert codes.shape == (0, 5) and codes.dtype == np.int64

    def test_fields_must_broadcast_to_die_axis(self):
        weights = np.ones((3, 8))
        with pytest.raises(ModelDomainError):
            SarAdc(n_bits=8, weights=weights, termination=np.ones(4))
        with pytest.raises(ModelDomainError):
            SarAdc(n_bits=8, weights=weights, termination=np.ones(3),
                   offset=np.zeros(4))
        with pytest.raises(ModelDomainError):
            R2rDac(n_bits=8, weights=weights, termination=np.ones(4))

    @settings(max_examples=300, deadline=None)
    @given(case=mismatched_sars())
    def test_ramp_histogram_counts_converted_codes(self, case):
        """The transition-table histogram is the converted ramp's."""
        adc, ramp = case
        codes = adc.convert(ramp)
        counts, monotonic = adc._ramp_histogram(ramp)
        np.testing.assert_array_equal(
            counts, [np.bincount(row, minlength=2 ** adc.n_bits)
                     for row in codes])
        np.testing.assert_array_equal(monotonic, _ramp_monotonic(codes))

    @pytest.mark.parametrize("n_bits,sigma,zeroed",
                             [(2, 0.0, None), (8, 0.0, None),
                              (8, 0.3, None), (8, 0.3, 6), (10, 1.5, 0)])
    def test_table_codes_at_thresholds(self, n_bits, sigma, zeroed):
        """Each threshold and its float neighbours convert to the
        table's code, and a ramp of them histograms exactly."""
        rng = np.random.default_rng(n_bits)
        for _ in range(3):
            weights = np.maximum(2.0 ** np.arange(n_bits) * (
                1.0 + sigma * rng.standard_normal((1, n_bits))), 0.0)
            if zeroed is not None:
                weights[:, zeroed] = 0.0
            adc = SarAdc(n_bits=n_bits, weights=weights,
                         termination=1.0 + sigma * rng.uniform(0, 1, 1),
                         offset=np.zeros(1))
            (t,), (table_codes,) = adc._transition_table()
            assert t.size == 2 ** n_bits - 1
            probes = np.sort(np.concatenate(
                [t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]))
            converted = adc.convert(probes)[0]
            # Code 0 below every threshold, table code i on [t_i, t_i+1).
            row_codes = np.concatenate([[0], table_codes])
            np.testing.assert_array_equal(
                converted, row_codes[np.searchsorted(t, probes,
                                                     side="right")])
            counts, _ = adc._ramp_histogram(probes)
            np.testing.assert_array_equal(
                counts[0], np.bincount(converted, minlength=2 ** n_bits))


class TestSignalChain:
    def test_ideal_chain_is_identity(self, node):
        chain = SignalChain.ideal(node)
        codes = np.arange(256)
        out = chain.adc.convert(
            chain.through_filter(chain.dac.levels()))
        np.testing.assert_array_equal(out, codes)

    def test_unity_filter_is_bit_exact(self, node):
        chain = SignalChain.ideal(node)
        fractions = np.arange(256) / 256.0
        filtered = chain.through_filter(fractions)
        np.testing.assert_array_equal(filtered, fractions)

    def test_from_die_reproducible(self, node):
        design = ChainDesign()
        a = SignalChain.from_die(
            node, design, MonteCarloSampler(node, seed=5).sample_die())
        b = SignalChain.from_die(
            node, design, MonteCarloSampler(node, seed=5).sample_die())
        np.testing.assert_array_equal(a.dac.weights, b.dac.weights)
        assert a.sc_gain_eff == b.sc_gain_eff
        assert a.adc.offset == b.adc.offset

    def test_from_die_requires_generator(self, node):
        from repro.variability import SampledDie, VariationSpec
        bare = SampledDie(node=node, spec=VariationSpec(),
                          vth_global=0.0, length_factor_global=1.0,
                          tox_factor_global=1.0)
        with pytest.raises(ReproError):
            SignalChain.from_die(node, ChainDesign(), bare)

    def test_shorted_leg_inl_signature(self, node):
        """Killing DAC bit 6 leaves a ~2**6 LSB INL scar."""
        chain = with_shorted_leg(SignalChain.ideal(node), 6)
        report = chain.signoff()
        assert not report.passed
        assert report.dac.inl_max > 30.0
        assert report.dac.dnl_max > 30.0
        assert not report.dac.monotonic

    def test_shorted_lsb_leg_small_but_detectable(self, node):
        chain = with_shorted_leg(SignalChain.ideal(node), 0)
        report = chain.signoff()
        assert not report.passed
        assert report.dac.dnl_max == pytest.approx(1.0, abs=0.05)

    def test_batched_default_offset_signoff(self, node):
        """A batched chain whose ADC keeps the scalar default offset
        signs off like one with an explicit zero offset per die."""
        sampler = MonteCarloSampler(node, seed=4)
        dies = [sampler.sample_die() for _ in range(3)]
        chains = [SignalChain.from_die(node, ChainDesign(), die)
                  for die in dies]
        dac = R2rDac(n_bits=8,
                     weights=np.stack([c.dac.weights for c in chains]),
                     termination=np.array([c.dac.termination
                                           for c in chains]))
        adc_weights = np.stack([c.adc.weights for c in chains])
        adc_termination = np.array([c.adc.termination for c in chains])
        gain = np.array([c.sc_gain_eff for c in chains])

        def signoff(**offset):
            adc = SarAdc(n_bits=8, weights=adc_weights,
                         termination=adc_termination, **offset)
            return SignalChain(node=node, design=ChainDesign(), dac=dac,
                               adc=adc, sc_gain_eff=gain).signoff()

        default, explicit = signoff(), signoff(offset=np.zeros(3))
        for part in ("dac", "adc", "spectral"):
            one, other = getattr(default, part), getattr(explicit, part)
            for field in fields(one):
                np.testing.assert_array_equal(getattr(one, field.name),
                                              getattr(other, field.name))
        np.testing.assert_array_equal(default.monotonic, explicit.monotonic)
        np.testing.assert_array_equal(default.passed, explicit.passed)


class TestChainSignoff:
    def test_ideal_signoff_exact_zeros(self, node):
        report = chain_signoff(node)
        assert report.dac.dnl_max == 0.0
        assert report.dac.inl_max == 0.0
        assert report.adc.dnl_max == 0.0
        assert report.adc.inl_max == 0.0
        assert report.monotonic is True
        assert report.passed is True

    def test_ideal_enob_near_nominal(self, node):
        report = chain_signoff(node)
        # double quantization of a 0.9 FS sine: ~N - 0.15 bits
        assert report.spectral.enob == pytest.approx(7.855, abs=0.05)

    def test_spec_knobs_bind(self, node):
        strict = ChainSpec(enob_min=9.0)
        assert not chain_signoff(node, spec=strict).passed

    def test_die_signoff_reports_mismatch(self, node):
        die = MonteCarloSampler(node, seed=2).sample_die()
        report = chain_signoff(node, die=die)
        assert report.dac.dnl_max > 0.0
        assert report.adc.dnl_max > 0.0
        assert report.spectral.enob < 7.855

    def test_validation(self, node):
        with pytest.raises(ReproError):
            chain_signoff(node, cycles=64)  # not coprime with 1024
        with pytest.raises(ReproError):
            chain_signoff(node, amplitude_fraction=1.5)
        with pytest.raises(ReproError):
            chain_signoff(node, n_fft=0)
        with pytest.raises(ReproError):
            ChainDesign(n_bits=1)
        with pytest.raises(ReproError):
            ChainDesign(sc_gain=-1.0)
        with pytest.raises(ReproError):
            ChainSpec(dnl_limit=0.0)
