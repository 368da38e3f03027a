"""Statistical static timing analysis (SSTA).

Corner-based worst-case timing (section 3.1's "worst-case design")
over-margins because intra-die mismatch averages out along deep paths
but not across them.  This module quantifies that: Monte Carlo SSTA
over the netlist with per-gate (intra-die) and shared (inter-die)
V_T draws, path-delay statistics, gate criticality, and the
corner-vs-statistical margin comparison that motivates statistical
design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..robust.validate import check_count
from ..technology.node import TechnologyNode
from ..variability.statistical import VariationSpec
from .netlist import Netlist
from .timing import StaticTimingAnalyzer
from .timing_compiled import CompiledTimingGraph
from ..robust.rng import resolve_rng
from ..robust.errors import ModelDomainError
from ..variability.statistical import check_shard


@dataclass(frozen=True)
class SstaShard:
    """One shard's slice of a Monte Carlo SSTA population.

    ``samples[k]`` is bit-for-bit sample ``start + k`` of the full
    ``n_total``-sample run, and ``counts`` are *integer* critical-path
    hit counts aligned with ``names`` (netlist insertion order).
    Shards therefore merge exactly: concatenate ``samples`` in shard
    order, sum ``counts`` elementwise, and divide by the total sample
    count only at the end -- never average per-shard fractions.
    """

    samples: np.ndarray        # (stop - start,) critical delays [s]
    counts: np.ndarray         # (n_gates,) int64, insertion order
    names: tuple               # gate axis of ``counts``
    nominal_delay: float       # deterministic STA delay [s]
    start: int
    stop: int


def merge_ssta_shards(shards: Sequence[SstaShard]) -> SstaResult:
    """Exactly merge contiguous :class:`SstaShard` slices.

    The shards must tile ``[0, n_total)``; pass them in any order.
    Raises :class:`ModelDomainError` on gaps, overlaps, or mismatched
    gate axes.
    """
    if not shards:
        raise ModelDomainError("cannot merge zero SSTA shards")
    ordered = sorted(shards, key=lambda s: s.start)
    names = ordered[0].names
    cursor = 0
    for shard in ordered:
        if shard.names != names:
            raise ModelDomainError(
                "SSTA shards disagree on the gate axis")
        if shard.start != cursor:
            raise ModelDomainError(
                f"SSTA shards do not tile the population: expected "
                f"start {cursor}, got {shard.start}")
        cursor = shard.stop
    samples = np.concatenate([s.samples for s in ordered])
    counts = np.sum([s.counts for s in ordered], axis=0)
    n_total = len(samples)
    criticality = {name: int(count) / n_total
                   for name, count in zip(names, counts) if count}
    return SstaResult(samples=samples,
                      nominal_delay=ordered[0].nominal_delay,
                      criticality=criticality)


@dataclass(frozen=True)
class SstaResult:
    """Monte Carlo timing distribution of one design."""

    samples: np.ndarray        # critical delays [s]
    nominal_delay: float       # deterministic STA delay [s]
    criticality: Dict[str, float]   # instance -> P(on critical path)

    @property
    def mean(self) -> float:
        """Mean critical delay [s]."""
        return float(self.samples.mean())

    @property
    def sigma(self) -> float:
        """Standard deviation of the critical delay [s]."""
        return float(self.samples.std(ddof=1))

    def quantile(self, q: float) -> float:
        """Delay quantile (e.g. 0.999 for timing sign-off) [s]."""
        if not 0.0 < q < 1.0:
            raise ModelDomainError("q must be in (0, 1)")
        return float(np.quantile(self.samples, q))

    def yield_at(self, clock_period: float) -> float:
        """Fraction of dies meeting ``clock_period``."""
        return float(np.mean(self.samples <= clock_period))

    def most_critical(self, count: int = 5) -> List[str]:
        """Instances most often on the critical path."""
        ranked = sorted(self.criticality.items(),
                        key=lambda item: item[1], reverse=True)
        return [name for name, _ in ranked[:count]]


class StatisticalTimingAnalyzer:
    """Monte Carlo SSTA over a :class:`Netlist`.

    Each sample draws one shared inter-die V_T shift plus independent
    per-gate intra-die offsets (Pelgrom-sized from each gate's device
    area).  :meth:`run` compiles the netlist once
    (:class:`~repro.digital.timing_compiled.CompiledTimingGraph`) and
    evaluates all samples as one ``(n_samples, n_gates)`` array; the
    per-sample scalar loop stays as :meth:`_run_reference`, the
    equivalence oracle.  Both draw per sample one inter-die variate
    followed by ``n_gates`` intra-die variates, so fixed-seed samples,
    critical paths and criticality counts agree.
    """

    def __init__(self, netlist: Netlist,
                 variation: VariationSpec = VariationSpec(),
                 wire_cap_per_fanout: float = 0.5e-15,
                 seed: Optional[int] = None):
        self.netlist = netlist
        self.variation = variation
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self.rng = resolve_rng(seed=seed)

    def _intra_sigmas(self) -> Dict[str, float]:
        node = self.netlist.node
        sigmas = {}
        for name, instance in self.netlist.instances.items():
            width = instance.cell.nmos_width
            sigmas[name] = self.variation.intra_sigma_vth(
                node, width, node.feature_size)
        return sigmas

    def run(self, n_samples: int = 200) -> SstaResult:
        """Draw ``n_samples`` dies and collect delay statistics."""
        return merge_ssta_shards([self.run_shard(n_samples)])

    def _run_reference(self, n_samples: int = 200) -> SstaResult:
        """Per-sample scalar loop (one full dict-based STA per die).

        The oracle :meth:`run` is tested against: same variates, same
        delay formula, one :class:`StaticTimingAnalyzer` per sample.
        """
        n_samples = check_count("n_samples", n_samples, minimum=2)
        nominal = StaticTimingAnalyzer(
            self.netlist,
            wire_cap_per_fanout=self.wire_cap_per_fanout).analyze()
        sigmas = self._intra_sigmas()
        names = list(sigmas)
        samples = np.empty(n_samples)
        on_path: Dict[str, int] = {name: 0 for name in names}
        for i in range(n_samples):
            global_shift = (self.variation.vth_inter
                            * self.rng.standard_normal())
            offsets = {
                name: sigmas[name] * self.rng.standard_normal()
                for name in names}
            report = StaticTimingAnalyzer(
                self.netlist,
                wire_cap_per_fanout=self.wire_cap_per_fanout,
                vth_offsets=offsets,
                global_vth_offset=global_shift).analyze()
            samples[i] = report.critical_delay
            for name in report.critical_path:
                on_path[name] = on_path.get(name, 0) + 1
        criticality = {name: count / n_samples
                       for name, count in on_path.items() if count}
        return SstaResult(samples=samples,
                          nominal_delay=nominal.critical_delay,
                          criticality=criticality)

    def run_shard(self, n_samples: int,
                  shard: Optional[tuple] = None) -> SstaShard:
        """Evaluate one ``(start, stop)`` slice of an ``n_samples`` run.

        Draws the full run's variate matrix (the cheap part) and
        evaluates only the slice (the expensive part), so shard ``k``
        of any partition carries bit-for-bit the samples ``run()``
        would have produced at those indices under the same seed.
        Returns integer criticality *counts* -- the mergeable form --
        via :class:`SstaShard`; :func:`merge_ssta_shards` rebuilds the
        exact single-process :class:`SstaResult`.
        """
        n_samples = check_count("n_samples", n_samples, minimum=2)
        shard = check_shard(shard, n_samples)
        start, stop = shard if shard is not None else (0, n_samples)
        nominal = StaticTimingAnalyzer(
            self.netlist,
            wire_cap_per_fanout=self.wire_cap_per_fanout).analyze()
        sigmas = self._intra_sigmas()
        names = list(sigmas)
        compiled = CompiledTimingGraph(
            self.netlist, wire_cap_per_fanout=self.wire_cap_per_fanout)
        # Same stream as the scalar loop: per sample, one inter-die
        # draw then n_gates intra-die draws.
        draws = self.rng.standard_normal(
            (n_samples, 1 + len(names)))[start:stop]
        global_shift = self.variation.vth_inter * draws[:, 0]
        offsets = np.array([sigmas[name] for name in names]) \
            * draws[:, 1:]
        batch = compiled.evaluate(
            offsets, global_vth_offset=global_shift)
        counts_topo = batch.criticality_counts()
        topo_of = {name: i for i, name in enumerate(batch.names_topo)}
        counts = np.array([counts_topo[topo_of[name]]
                           for name in batch.names], dtype=np.int64)
        return SstaShard(samples=batch.critical_delays,
                         counts=counts, names=tuple(batch.names),
                         nominal_delay=nominal.critical_delay,
                         start=start, stop=stop)


def corner_vs_statistical_margin(netlist: Netlist,
                                 variation: VariationSpec =
                                 VariationSpec(),
                                 n_samples: int = 200,
                                 n_sigma: float = 3.0,
                                 seed: Optional[int] = None
                                 ) -> Dict[str, float]:
    """The pessimism of corner-based sign-off, measured.

    Corner margin: every gate simultaneously at +n_sigma of *both*
    inter- and intra-die V_T (the classic worst case).  Statistical
    margin: the same confidence (Gaussian n-sigma quantile) of the
    MC distribution.  The ratio > 1 is silicon left on the table.
    """
    from scipy.stats import norm
    node = netlist.node
    corner_shift = n_sigma * variation.vth_inter \
        + n_sigma * variation.intra_sigma_vth(
            node, 2.0 * node.feature_size, node.feature_size)
    corner_delay = float(CompiledTimingGraph(netlist).evaluate(
        global_vth_offset=corner_shift).critical_delays[0])
    analyzer = StatisticalTimingAnalyzer(netlist, variation, seed=seed)
    result = analyzer.run(n_samples)
    quantile = float(norm.cdf(n_sigma))
    statistical_delay = result.quantile(quantile)
    return {
        "nominal_ps": result.nominal_delay * 1e12,
        "corner_ps": corner_delay * 1e12,
        "statistical_ps": statistical_delay * 1e12,
        "corner_margin_pct": (corner_delay / result.nominal_delay
                              - 1.0) * 100.0,
        "statistical_margin_pct": (statistical_delay
                                   / result.nominal_delay - 1.0)
        * 100.0,
        "pessimism_ratio": corner_delay / statistical_delay,
    }


def depth_averaging_study(node: TechnologyNode,
                          depths: Sequence[int] = (4, 8, 16, 32),
                          n_samples: int = 200,
                          seed: int = 0) -> List[Dict[str, float]]:
    """Mismatch averaging along path depth.

    Independent per-gate sigma averages as 1/sqrt(depth) along a
    chain -- the statistical argument for why deep pipelines tolerate
    mismatch better than short ones (and why the shallow-logic trend
    of fast clocks collides with variability).
    """
    from .netlist import Netlist as _Netlist
    rows = []
    for depth in depths:
        chain = _Netlist(node, f"chain{depth}")
        chain.add_input("a")
        net = "a"
        for i in range(depth):
            net = chain.add_gate("INV", [net], f"n{i}").output
        analyzer = StatisticalTimingAnalyzer(
            chain, VariationSpec(vth_inter=0.0), seed=seed)
        result = analyzer.run(n_samples)
        rows.append({
            "depth": float(depth),
            "mean_ps": result.mean * 1e12,
            "sigma_ps": result.sigma * 1e12,
            "sigma_over_mean": result.sigma / result.mean,
        })
    return rows


def spatially_correlated_ssta(netlist: Netlist,
                              die: float = 2e-3,
                              spec: Optional["object"] = None,
                              n_samples: int = 120,
                              seed: Optional[int] = None
                              ) -> Dict[str, float]:
    """SSTA with spatially *correlated* intra-die variation.

    Places the instances on the die (row-major grid) and draws each
    sample's V_T offsets from a smooth spatial map
    (:mod:`repro.variability.spatial`) instead of independently per
    gate.  Neighbouring gates then vary together, so path delays
    average less than the independent-mismatch model predicts -- the
    variance the white-noise SSTA underestimates.

    Returns both sigmas for comparison.

    Each sample's V_T map is still drawn die-by-die (the maps are
    independently seeded objects), but every per-gate query is one
    batched :meth:`VtMap.at` call and all timing runs happen in two
    :meth:`CompiledTimingGraph.evaluate` calls over the stacked
    offset matrices -- same variate stream as per-gate scalar
    queries and per-sample STA.
    """
    import numpy as np
    from ..variability.spatial import SpatialSpec, sample_vt_map

    n_samples = check_count("n_samples", n_samples, minimum=2)
    node = netlist.node
    white_sigma = VariationSpec().intra_sigma_vth(
        node, 2.0 * node.feature_size, node.feature_size)
    spatial_spec = spec or SpatialSpec(
        gradient_sigma=white_sigma / die,
        correlated_sigma=0.5 * white_sigma,
        correlation_length=0.3 * die,
        white_sigma=white_sigma)

    names = list(netlist.instances)
    n_gates = len(names)
    n_cols = max(int(math.ceil(math.sqrt(n_gates))), 1)
    xs = np.array([0.05 * die + 0.9 * die * (index % n_cols) / n_cols
                   for index in range(n_gates)])
    ys = np.array([0.05 * die + 0.9 * die * (index // n_cols) / n_cols
                   for index in range(n_gates)])

    rng = resolve_rng(seed=seed)
    correlated_offsets = np.empty((n_samples, n_gates))
    independent_offsets = np.empty((n_samples, n_gates))
    total_sigma = math.sqrt(spatial_spec.white_sigma ** 2
                            + spatial_spec.correlated_sigma ** 2)
    for i in range(n_samples):
        vt_map = sample_vt_map(node, die, spatial_spec,
                               seed=int(rng.integers(2 ** 31)))
        correlated_offsets[i] = vt_map.at(xs, ys)
        independent_offsets[i] = rng.normal(
            0.0, total_sigma, size=n_gates)
    compiled = CompiledTimingGraph(netlist)
    correlated = compiled.evaluate(correlated_offsets).critical_delays
    independent = compiled.evaluate(
        independent_offsets).critical_delays
    return {
        "sigma_correlated_ps": float(correlated.std(ddof=1)) * 1e12,
        "sigma_independent_ps": float(independent.std(ddof=1)) * 1e12,
        "mean_correlated_ps": float(correlated.mean()) * 1e12,
        "mean_independent_ps": float(independent.mean()) * 1e12,
        "underestimation":
            float(correlated.std(ddof=1)
                  / max(independent.std(ddof=1), 1e-30)),
    }

