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
        n_samples = check_count("n_samples", n_samples, minimum=2)
        nominal = StaticTimingAnalyzer(
            self.netlist,
            wire_cap_per_fanout=self.wire_cap_per_fanout).analyze()
        sigmas = self._intra_sigmas()
        names = list(sigmas)
        compiled = CompiledTimingGraph(
            self.netlist, wire_cap_per_fanout=self.wire_cap_per_fanout)
        # Same stream as the scalar loop: per sample, one inter-die
        # draw then n_gates intra-die draws.
        draws = self.rng.standard_normal((n_samples, 1 + len(names)))
        global_shift = self.variation.vth_inter * draws[:, 0]
        offsets = np.array([sigmas[name] for name in names]) \
            * draws[:, 1:]
        batch = compiled.evaluate(
            offsets, global_vth_offset=global_shift)
        counts = batch.criticality_counts()
        topo_of = {name: i for i, name in enumerate(batch.names_topo)}
        criticality = {name: int(counts[topo_of[name]]) / n_samples
                       for name in batch.names if counts[topo_of[name]]}
        return SstaResult(samples=batch.critical_delays,
                          nominal_delay=nominal.critical_delay,
                          criticality=criticality)

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
    from scipy.special import ndtr
    node = netlist.node
    corner_shift = n_sigma * variation.vth_inter \
        + n_sigma * variation.intra_sigma_vth(
            node, 2.0 * node.feature_size, node.feature_size)
    corner_delay = float(CompiledTimingGraph(netlist).evaluate(
        global_vth_offset=corner_shift).critical_delays[0])
    analyzer = StatisticalTimingAnalyzer(netlist, variation, seed=seed)
    result = analyzer.run(n_samples)
    quantile = float(ndtr(n_sigma))
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
    rows = []
    for depth in depths:
        chain = Netlist(node, f"chain{depth}")
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
