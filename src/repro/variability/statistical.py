"""Statistical design framework: inter-die + intra-die Monte Carlo.

Section 2.4 of the paper splits process variability into *inter-die*
(common to all devices on a die) and *intra-die* (device mismatch) and
notes that circuit-level countermeasures differ for each.  This module
provides the sampling machinery both digital (Fig. 4, worst-case
sizing) and analog (mismatch budgets) analyses use, plus simple yield
estimators in the spirit of the statistical-design reference [8].

Two sampling paths share one seeded RNG contract:

* the **scalar** path (:meth:`MonteCarloSampler.sample_die` /
  :meth:`SampledDie.sample_device`) -- one die object per draw, used
  by code that inspects individual dies;
* the **batched** path (:meth:`MonteCarloSampler.sample_dies_batch`)
  -- every inter-die shift and per-device draw as one numpy array,
  10-100x more samples per second.

Both consume the *same* random variates under a fixed seed: inter-die
shifts come from the sampler's own generator in (vth, length, tox)
order per die, and each die's device draws come from a generator
spawned off the sampler (one child per die, in die order), so the
batched arrays are bit-for-bit equal to the scalar objects.

A sharded batch (``shard=(start, stop)``) is a slice of the full
population's inter-die draw.  The shards of one population replay a
single memoized draw (:data:`_INTER_DIE_DRAWS`, keyed on the exact
generator state), so in one process the population is drawn once,
however many shards slice it.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..perf.cache import KeyedCache
from ..perf.profile import timed
from ..robust.errors import ModelDomainError
from ..robust.validate import (check_count, check_finite,
                               check_non_negative, check_positive)
from ..technology.node import TechnologyNode
from ..robust.rng import resolve_rng
from ..robust.validate import validated

ArrayLike = Union[float, np.ndarray]

ShardRange = Tuple[int, int]

#: The last sharded population's inter-die draw: (exact generator state
#: at entry, n_dies) -> (read-only (n_dies, 3) normals, generator state
#: after the draw).  Every shard of one population rebuilds its sampler
#: from the same seed, so all but the first replay this entry.
_INTER_DIE_DRAWS = KeyedCache("variability.inter_die_draws", maxsize=1)


def check_shard(shard: Optional[ShardRange],
                n_total: int) -> Optional[ShardRange]:
    """Validate a ``(start, stop)`` shard range against ``n_total``.

    Shard ranges are half-open die index intervals of the *full*
    batch; ``None`` means the whole batch.  Raises
    :class:`ModelDomainError` on anything else, so a transposed or
    out-of-range shard fails loudly instead of silently mis-slicing a
    Monte Carlo population.
    """
    if shard is None:
        return None
    try:
        start, stop = shard
    except (TypeError, ValueError):
        raise ModelDomainError(
            f"shard must be a (start, stop) pair, got {shard!r}")
    for name, value in (("start", start), ("stop", stop)):
        if isinstance(value, bool) or \
                not isinstance(value, (int, np.integer)):
            raise ModelDomainError(
                f"shard {name} must be an integer, got {value!r}")
    start, stop = int(start), int(stop)
    if not 0 <= start < stop <= n_total:
        raise ModelDomainError(
            f"shard range [{start}, {stop}) must satisfy "
            f"0 <= start < stop <= {n_total}")
    return start, stop


@dataclass(frozen=True)
class VariationSpec:
    """One-sigma magnitudes of the modelled process variations.

    ``vth_inter``/``vth_intra`` are absolute [V]; the geometric terms
    are relative fractions.  ``vth_intra`` is the sigma of a
    *minimum-size* device; larger devices are de-rated by
    sqrt(area_min/area) per Pelgrom.
    """

    vth_inter: float = 0.015
    vth_intra: float = 0.0          # 0 -> derive from node A_VT
    length_inter_rel: float = 0.04
    length_intra_rel: float = 0.02
    tox_inter_rel: float = 0.02

    def __post_init__(self) -> None:
        for name in ("vth_inter", "vth_intra", "length_inter_rel",
                     "length_intra_rel", "tox_inter_rel"):
            check_non_negative(name, getattr(self, name))

    def intra_sigma_vth(self, node: TechnologyNode, width: ArrayLike,
                        length: ArrayLike) -> ArrayLike:
        """Intra-die sigma_VT for a W x L device [V].

        Accepts scalars or (broadcastable) arrays of widths/lengths;
        the Pelgrom de-rating is applied elementwise.
        """
        check_positive("width", width)
        check_positive("length", length)
        width = np.asarray(width, dtype=float)
        length = np.asarray(length, dtype=float)
        area = width * length
        if self.vth_intra > 0:
            min_area = node.feature_size ** 2 * 2.0
            out = self.vth_intra * np.sqrt(min_area / area)
        else:
            out = node.avt / np.sqrt(area)
        return out if out.ndim else float(out)


@dataclass
class SampledDevice:
    """Per-device sampled deviations (additive/relative)."""

    vth_offset: float
    length_factor: float


@dataclass
class SampledDie:
    """One die: global shifts plus per-device draws on demand.

    ``rng`` drives the intra-die (device) draws.  The factory
    (:meth:`MonteCarloSampler.sample_die`) always injects a child
    generator spawned off the sampler, so each die's device stream is
    independent of every other die's and of the inter-die stream; the
    field is ``Optional`` only for hand-built instances, which must
    supply a generator before calling :meth:`sample_device`.
    """

    node: TechnologyNode
    spec: VariationSpec
    vth_global: float
    length_factor_global: float
    tox_factor_global: float
    rng: Optional[np.random.Generator] = field(repr=False, default=None)

    def sample_device(self, width: float,
                      length: Optional[float] = None) -> SampledDevice:
        """Draw one device's total (inter + intra) deviation."""
        if self.rng is None:
            raise ModelDomainError(
                "SampledDie.rng is unset; use MonteCarloSampler."
                "sample_die() or provide a generator explicitly")
        length = length if length is not None else self.node.feature_size
        sigma_intra = self.spec.intra_sigma_vth(self.node, width, length)
        return SampledDevice(
            vth_offset=self.vth_global
            + sigma_intra * self.rng.standard_normal(),
            length_factor=self.length_factor_global
            * (1.0 + self.spec.length_intra_rel
               * self.rng.standard_normal()),
        )


@dataclass
class DieBatch:
    """A batch of sampled dies as plain numpy arrays.

    The array-of-structs twin of a list of :class:`SampledDie`:
    inter-die shifts are 1-D arrays over dies, and (when devices were
    requested) the per-device totals are 2-D ``(n_dies, n_devices)``
    arrays with the inter-die shift already folded in -- the same
    quantities :meth:`SampledDie.sample_device` returns, just batched.
    """

    node: TechnologyNode
    spec: VariationSpec
    vth_global: np.ndarray            # (n_dies,) [V]
    length_factor_global: np.ndarray  # (n_dies,) relative
    tox_factor_global: np.ndarray     # (n_dies,) relative
    #: Per-device total V_T offsets [V], (n_dies, n_devices); None
    #: when the batch was drawn without devices.
    device_vth_offset: Optional[np.ndarray] = field(
        repr=False, default=None)
    #: Per-device total length factors, (n_dies, n_devices).
    device_length_factor: Optional[np.ndarray] = field(
        repr=False, default=None)

    @property
    def n_dies(self) -> int:
        """Number of dies in the batch."""
        return int(self.vth_global.size)

    @property
    def n_devices(self) -> int:
        """Devices sampled per die (0 when inter-die only)."""
        if self.device_vth_offset is None:
            return 0
        return int(self.device_vth_offset.shape[1])

    def die(self, index: int) -> SampledDie:
        """Scalar view of die ``index`` (without a device generator)."""
        return SampledDie(
            node=self.node,
            spec=self.spec,
            vth_global=float(self.vth_global[index]),
            length_factor_global=float(self.length_factor_global[index]),
            tox_factor_global=float(self.tox_factor_global[index]),
        )


class MonteCarloSampler:
    """Two-level (die, device) Monte Carlo process sampler.

    The sampler's own generator produces the inter-die stream; device
    streams are spawned children (one per die), which makes the
    scalar and batched paths draw identical variates under the same
    seed regardless of how callers interleave device sampling.
    """

    def __init__(self, node: TechnologyNode,
                 spec: VariationSpec = VariationSpec(),
                 seed: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None):
        self.node = node
        self.spec = spec
        self.rng = resolve_rng(rng, seed=seed)

    def sample_die(self) -> SampledDie:
        """Draw one die's global (inter-die) shifts."""
        child = self.rng.spawn(1)[0]
        return SampledDie(
            node=self.node,
            spec=self.spec,
            vth_global=self.spec.vth_inter * self.rng.standard_normal(),
            length_factor_global=1.0 + self.spec.length_inter_rel
            * self.rng.standard_normal(),
            tox_factor_global=1.0 + self.spec.tox_inter_rel
            * self.rng.standard_normal(),
            rng=child,
        )

    def sample_dies(self, count: int) -> List[SampledDie]:
        """Draw ``count`` dies."""
        count = check_count("count", count)
        return [self.sample_die() for _ in range(count)]

    @timed("variability.sample_dies_batch")
    def sample_dies_batch(self, n_dies: int, n_devices: int = 0,
                          width: Optional[ArrayLike] = None,
                          length: Optional[ArrayLike] = None,
                          shard: Optional[ShardRange] = None) -> DieBatch:
        """Draw ``n_dies`` dies (and optionally devices) as arrays.

        With ``n_devices > 0``, each die also gets that many device
        draws of a ``width`` x ``length`` device (``length`` defaults
        to the node feature size; ``width``/``length`` may be scalars
        or per-device arrays of shape ``(n_devices,)`` for
        heterogeneous device lists, Pelgrom de-rating applied
        elementwise).

        Stream contract: die ``d`` of the batch carries exactly the
        variates die ``d`` of :meth:`sample_dies` would -- the
        inter-die draws come from this sampler's generator in
        (vth, length, tox) per-die order, and device draws come from
        the per-die spawned child in (vth, length) per-device order.

        A ``shard=(start, stop)`` range returns only dies
        ``start..stop-1`` of the *same* ``n_dies`` population: the
        full inter-die stream is drawn and then sliced, and only the
        sharded dies' spawned children are consumed for device draws.
        Die ``start + k`` of a sharded batch is bit-for-bit die
        ``start + k`` of the full batch, which is what makes
        :mod:`repro.exec` shard merges exact.  The full draw is
        memoized on the generator's exact state and ``n_dies``: a
        later shard of the same population replays it and sets the
        generator to the state the draw left.  Either way the
        generator ends where the unsharded call leaves it.
        """
        n_dies = check_count("n_dies", n_dies)
        n_devices = check_count("n_devices", n_devices, minimum=0)
        shard = check_shard(shard, n_dies)
        start, stop = shard if shard is not None else (0, n_dies)
        if n_devices > 0 and width is None:
            raise ModelDomainError(
                "width is required when sampling devices")
        # One spawn per die, exactly as sample_die() would.  Spawning
        # advances only the SeedSequence child counter, never the
        # parent bit stream, so when no devices are requested it is
        # skipped entirely (it is by far the dominant per-die cost)
        # without changing any inter-die draw.
        children = self.rng.spawn(n_dies) if n_devices > 0 else ()
        if shard is None:
            draws = self.rng.standard_normal((n_dies, 3))
        else:
            draws = self._inter_die_draws(n_dies)[start:stop]
        batch = DieBatch(
            node=self.node,
            spec=self.spec,
            vth_global=self.spec.vth_inter * draws[:, 0],
            length_factor_global=1.0
            + self.spec.length_inter_rel * draws[:, 1],
            tox_factor_global=1.0
            + self.spec.tox_inter_rel * draws[:, 2],
        )
        if n_devices == 0:
            return batch
        length = length if length is not None else self.node.feature_size
        sigma_intra = np.broadcast_to(
            np.asarray(self.spec.intra_sigma_vth(
                self.node, width, length), dtype=float), (n_devices,))
        n_sharded = stop - start
        vth_offset = np.empty((n_sharded, n_devices))
        length_factor = np.empty((n_sharded, n_devices))
        for d, child in enumerate(children[start:stop]):
            z = child.standard_normal((n_devices, 2))
            vth_offset[d] = batch.vth_global[d] + sigma_intra * z[:, 0]
            length_factor[d] = batch.length_factor_global[d] * (
                1.0 + self.spec.length_intra_rel * z[:, 1])
        batch.device_vth_offset = vth_offset
        batch.device_length_factor = length_factor
        return batch

    def _inter_die_draws(self, n_dies: int) -> np.ndarray:
        """The ``(n_dies, 3)`` inter-die normals, drawn or replayed.

        The key pickles the whole bit-generator state, so it is exact
        for any bit generator; the value is read-only because every
        shard of the population shares it.
        """
        bit_generator = self.rng.bit_generator
        key = (pickle.dumps(bit_generator.state), n_dies)

        def draw() -> Tuple[np.ndarray, dict]:
            draws = self.rng.standard_normal((n_dies, 3))
            draws.flags.writeable = False
            return draws, bit_generator.state

        draws, end_state = _INTER_DIE_DRAWS.get_or_compute(key, draw)
        bit_generator.state = end_state
        return draws


@dataclass(frozen=True)
class YieldResult:
    """Outcome of a Monte Carlo yield run.

    ``passed`` is the per-die pass vector when the run produced one
    (the batched path always does); the scalar loop leaves it ``None``.
    It is the merge currency of :mod:`repro.exec`: concatenating shard
    pass vectors in shard order reproduces the single-process vector
    bit for bit, so counts, fractions and sigma levels merge exactly.
    """

    n_samples: int
    n_pass: int
    # compare=False: equality stays (n_samples, n_pass) -- comparing
    # ndarray fields with == is ambiguous, and two runs with the same
    # counts are the same yield outcome.
    passed: Optional[np.ndarray] = field(repr=False, compare=False,
                                         default=None)

    @property
    def yield_fraction(self) -> float:
        """Fraction of samples meeting spec."""
        return self.n_pass / self.n_samples

    @property
    def sigma_level(self) -> float:
        """Equivalent one-sided Gaussian sigma of the yield."""
        from scipy.special import ndtri
        frac = min(max(self.yield_fraction, 1e-12), 1 - 1e-12)
        return float(ndtri(frac))


def monte_carlo_yield(sampler: MonteCarloSampler,
                      metric: Callable[[SampledDie], float],
                      limit: float,
                      n_dies: int = 500,
                      upper_is_fail: bool = True) -> YieldResult:
    """Estimate parametric yield of ``metric`` against ``limit``.

    ``metric`` maps a sampled die to a scalar performance (e.g. a
    critical-path delay); a die passes when the metric is on the good
    side of ``limit``.
    """
    n_dies = check_count("n_dies", n_dies)
    check_finite("limit", limit)
    n_pass = 0
    for _ in range(n_dies):
        value = metric(sampler.sample_die())
        ok = value <= limit if upper_is_fail else value >= limit
        n_pass += int(ok)
    return YieldResult(n_samples=n_dies, n_pass=n_pass)


@timed("variability.monte_carlo_yield_batch")
def monte_carlo_yield_batch(sampler: MonteCarloSampler,
                            metric: Callable[[DieBatch], np.ndarray],
                            limit: float,
                            n_dies: int = 500,
                            upper_is_fail: bool = True,
                            shard: Optional[ShardRange] = None
                            ) -> YieldResult:
    """Batched twin of :func:`monte_carlo_yield`.

    ``metric`` maps a :class:`DieBatch` to a ``(n_dies,)`` array of
    performances, evaluated in one vectorized shot.  Under the same
    seed the sampled shifts are bit-for-bit those of the scalar path,
    so a vectorized metric gives the identical pass/fail vector.

    With ``shard=(start, stop)`` only that slice of the ``n_dies``
    population is sampled and evaluated (the metric sees the
    sub-batch and must stay elementwise per die); the returned
    ``passed`` vector is the exact slice of the full run's vector, so
    shard results merge bit-for-bit (see :mod:`repro.exec`).
    """
    n_dies = check_count("n_dies", n_dies)
    check_finite("limit", limit)
    shard = check_shard(shard, n_dies)
    start, stop = shard if shard is not None else (0, n_dies)
    batch = sampler.sample_dies_batch(n_dies, shard=shard)
    values = np.asarray(metric(batch), dtype=float)
    if values.shape != (stop - start,):
        raise ModelDomainError(
            f"metric must return shape ({stop - start},), "
            f"got {values.shape}")
    ok = values <= limit if upper_is_fail else values >= limit
    return YieldResult(n_samples=stop - start,
                       n_pass=int(np.count_nonzero(ok)),
                       passed=np.asarray(ok, dtype=bool))


@validated(absolute_sigma_vth="positive")
def relative_variability_trend(nodes: Sequence[TechnologyNode],
                               absolute_sigma_vth: float = 0.015
                               ) -> List[Dict[str, float]]:
    """The paper's central variability claim, quantified per node:

    the same absolute sigma_VT consumes a growing fraction of both V_T
    itself and of the gate overdrive V_DD - V_T.
    """
    rows = []
    for node in nodes:
        rows.append({
            "node": node.name,
            "vth_V": node.vth,
            "overdrive_V": node.overdrive,
            "sigma_over_vth": absolute_sigma_vth / node.vth,
            "sigma_over_overdrive": absolute_sigma_vth / node.overdrive,
        })
    return rows
