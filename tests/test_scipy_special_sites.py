"""The normal and beta quantile sites read ``scipy.special``.

``ndtr``, ``ndtri`` and ``betaincinv`` are the functions behind
``scipy.stats.norm.cdf``, ``norm.ppf`` and ``beta.ppf``, without the
0.6 s it takes to import ``scipy.stats``.  Each site below must give
the bits its old ``scipy.stats`` expression gave, so ``scipy.stats``
is the reference here and is imported nowhere in ``src``.  A scipy
release where the two differ fails these tests rather than moving a
pinned figure.
"""

import math

from hypothesis import given, settings, strategies as st
from scipy.stats import beta, norm

from repro.analog.yield_analysis import offset_yield
from repro.digital import (StatisticalTimingAnalyzer,
                           corner_vs_statistical_margin, ripple_adder)
from repro.exec.result import clopper_pearson_interval, wilson_interval
from repro.memory.sram import cell_failure_probability
from repro.technology import all_nodes, get_node
from repro.variability import VariationSpec
from repro.variability.pelgrom import sigma_delta_vth
from repro.variability.statistical import YieldResult

NODE = get_node("65nm")
ADDER = ripple_adder(NODE, width=2)

levels = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def counts(draw):
    """``(n_pass, n)`` with ``0 <= n_pass <= n``."""
    n = draw(st.integers(1, 10 ** 7))
    return draw(st.integers(0, n)), n


def wilson_reference(n_pass, n, level):
    """``wilson_interval``'s bounds with ``norm.ppf`` for z."""
    z = float(norm.ppf(0.5 + level / 2.0))
    p = n_pass / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(
        p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


@settings(max_examples=300, deadline=None)
@given(counts(), levels)
def test_wilson_interval(pair, level):
    bounds = wilson_interval(*pair, level=level)
    assert (bounds.lower, bounds.upper) == wilson_reference(*pair, level)


@settings(max_examples=300, deadline=None)
@given(counts(), levels)
def test_clopper_pearson_interval(pair, level):
    n_pass, n = pair
    alpha = 1.0 - level
    lower = 0.0 if n_pass == 0 else float(
        beta.ppf(alpha / 2.0, n_pass, n - n_pass + 1))
    upper = 1.0 if n_pass == n else float(
        beta.ppf(1.0 - alpha / 2.0, n_pass + 1, n - n_pass))
    bounds = clopper_pearson_interval(n_pass, n, level=level)
    assert (bounds.lower, bounds.upper) == (lower, upper)


@settings(max_examples=300, deadline=None)
@given(counts())
def test_yield_sigma_level(pair):
    n_pass, n = pair
    frac = min(max(n_pass / n, 1e-12), 1 - 1e-12)
    result = YieldResult(n_samples=n, n_pass=n_pass)
    assert result.sigma_level == float(norm.ppf(frac))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(all_nodes()), st.floats(0.1e-6, 100e-6),
       st.floats(0.05e-6, 10e-6), st.floats(1e-5, 0.1))
def test_offset_yield(node, width, length, limit):
    sigma = sigma_delta_vth(node, width, length)
    expected = float(norm.cdf(limit / sigma) - norm.cdf(-limit / sigma))
    assert offset_yield(node, width, length, limit) == expected


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 6.0), st.integers(0, 2 ** 32 - 1))
def test_ssta_statistical_quantile(n_sigma, seed):
    """``corner_vs_statistical_margin`` reads the delay distribution
    at the normal CDF of ``n_sigma``."""
    variation = VariationSpec()
    margins = corner_vs_statistical_margin(
        ADDER, variation, n_samples=16, n_sigma=n_sigma, seed=seed)
    result = StatisticalTimingAnalyzer(ADDER, variation,
                                       seed=seed).run(16)
    expected = result.quantile(float(norm.cdf(n_sigma))) * 1e12
    assert margins["statistical_ps"] == expected


@settings(max_examples=15, deadline=None)
@given(st.floats(-0.2, 0.3), st.integers(0, 2 ** 32 - 1))
def test_sram_fail_probability(snm_floor, seed):
    """The fail probability is the normal tail beyond the returned
    sigma level."""
    stats = cell_failure_probability(NODE, snm_floor=snm_floor,
                                     n_samples=2, seed=seed)
    assert stats["fail_probability"] \
        == float(norm.cdf(-stats["sigma_level"]))
