"""Deterministic fault-injection harness for the public model APIs.

The contract every public model entry point must honour (enforced as
a tier-1 test suite)::

    for any perturbed numeric input -- NaN, +/-inf, zero, negative,
    or an extreme corner -- the call either returns only finite
    values or raises a typed ReproError subclass.

No raw NaN/inf escapes; no unhandled ``TypeError`` /
``ZeroDivisionError`` / bare builtin exceptions.  The sweep is fully
deterministic: a fixed perturbation set applied parameter-by-
parameter over a fixed registry, with fixed RNG seeds where an API is
stochastic.

Registering a new API
---------------------
Append an :class:`ApiSpec` in :func:`default_registry` (or pass your
own registry to :func:`run_fault_sweep`): the public function, class
or method itself, a keyword-only callable that drives it, and a
known-good ``baseline`` kwarg dict whose every key the sweep
perturbs.  The baseline call itself must return finite values -- the
sweep checks that first.  The spec's name comes from the API object,
so a renamed API fails when the registry is built; the tier-1 tests
require every ``@validated(_result_finite=True)`` function or method
to be some spec's ``api``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ReproError
from .validate import iter_numeric_leaves

__all__ = ["ApiSpec", "FaultOutcome", "FaultReport", "PERTURBATIONS",
           "default_registry", "run_fault_sweep"]


#: The perturbation set swept over every baseline parameter.
PERTURBATIONS: Tuple[float, ...] = (
    float("nan"), float("inf"), float("-inf"),
    0.0, -1.0, 1e30, 1e-30,
)


@dataclass(frozen=True)
class ApiSpec:
    """One public model API registered for fault injection.

    ``api`` is the public function, class or method under test;
    ``call`` drives it with keyword arguments only (wrap methods and
    constructors in a function); ``baseline`` is a known-good input
    set, and the sweep perturbs each of its keys in turn.
    """

    api: Any
    call: Callable[..., Any]
    baseline: Mapping[str, Any]

    @property
    def name(self) -> str:
        """Dotted path of ``api`` below the ``repro`` package, e.g.
        ``devices.mosfet.Mosfet.ids``."""
        return (f"{self.api.__module__.removeprefix('repro.')}."
                f"{self.api.__qualname__}")


@dataclass(frozen=True)
class FaultOutcome:
    """Result of one perturbed call."""

    api: str
    param: str
    value: str              # repr of the injected value
    status: str             # "finite" | "typed-error" | "nan-escape" | "crash"
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether this call honoured the robustness contract."""
        return self.status in ("finite", "typed-error")


@dataclass
class FaultReport:
    """Aggregate outcome of a fault-injection sweep."""

    outcomes: List[FaultOutcome] = field(default_factory=list)
    n_apis: int = 0

    @property
    def failures(self) -> List[FaultOutcome]:
        """Calls that leaked non-finite values or crashed untyped."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def passed(self) -> bool:
        """True when every perturbed call honoured the contract."""
        return not self.failures

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        by_status: Dict[str, int] = {}
        for outcome in self.outcomes:
            by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
        lines = [f"fault sweep: {self.n_apis} APIs, "
                 f"{len(self.outcomes)} perturbed calls, "
                 f"{len(self.failures)} contract violations"]
        for status in sorted(by_status):
            lines.append(f"  {status}: {by_status[status]}")
        for outcome in self.failures[:20]:
            lines.append(f"  FAIL {outcome.api}({outcome.param}="
                         f"{outcome.value}): {outcome.status} "
                         f"{outcome.detail}")
        return "\n".join(lines)


def _classify(result: Any) -> Tuple[str, str]:
    """Classify a returned value: all-finite or a NaN/inf escape."""
    for leaf in iter_numeric_leaves(result):
        if not np.all(np.isfinite(leaf)):
            return "nan-escape", f"non-finite value in {type(result).__name__}"
    return "finite", ""


def _call_one(spec: ApiSpec, kwargs: Dict[str, Any]) -> Tuple[str, str]:
    """Invoke one API and classify the outcome.

    Numpy overflow/invalid warnings are expected when probing extreme
    corners -- the classification below catches the non-finite result
    itself, which is the actual contract.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            try:
                result = spec.call(**kwargs)
            except ReproError as error:
                return "typed-error", f"{type(error).__name__}: {error}"
            except Exception as error:  # noqa: BLE001 - the point of the sweep
                return "crash", f"{type(error).__name__}: {error}"
    return _classify(result)


def run_fault_sweep(registry: Optional[Sequence[ApiSpec]] = None
                    ) -> FaultReport:
    """Sweep every baseline parameter of every registered API with
    every perturbation.

    Returns a :class:`FaultReport`; ``report.passed`` is the tier-1
    assertion.  The baseline (unperturbed) call of each API is checked
    first -- a registry entry whose baseline crashes or returns
    non-finite values is itself a failure.
    """
    registry = list(default_registry() if registry is None else registry)
    report = FaultReport(n_apis=len(registry))
    for spec in registry:
        status, detail = _call_one(spec, dict(spec.baseline))
        if status != "finite":
            report.outcomes.append(FaultOutcome(
                api=spec.name, param="<baseline>", value="-",
                status="crash" if status == "typed-error" else status,
                detail=f"baseline call must succeed finitely: {detail}"))
            continue
        for param in spec.baseline:
            for value in PERTURBATIONS:
                kwargs = dict(spec.baseline)
                kwargs[param] = value
                status, detail = _call_one(spec, kwargs)
                report.outcomes.append(FaultOutcome(
                    api=spec.name, param=param, value=repr(value),
                    status=status, detail=detail))
    return report


def default_registry() -> List[ApiSpec]:
    """The built-in registry of public model APIs (>= 25 entries).

    Imports lazily so ``repro.robust`` stays import-light and free of
    circular dependencies.
    """
    from types import SimpleNamespace

    from ..analog import chain as achain
    from ..analog import metrics as ametrics
    from ..analog import tradeoff
    from ..analog.circuits import DetectorFrontend, OtaDesign, SingleStageOta
    from ..analog.yield_analysis import OtaYieldAnalyzer
    from ..devices import leakage
    from ..devices.mosfet import Mosfet
    from ..digital import delay as ddelay
    from ..digital.generators import ripple_adder, soc_netlist
    from ..digital.simulator_compiled import CompiledEventEngine, EventTrace
    from ..digital.ssta import StatisticalTimingAnalyzer
    from ..digital.timing import delay_under_mismatch
    from ..digital.timing_compiled import CompiledTimingGraph
    from ..exec import (ChaosSpec, RetryPolicy, YieldWorkload,
                        clopper_pearson_interval, plan_shards,
                        run_sharded, wilson_interval)
    from ..interconnect import elmore, wire
    from ..lint.semantic import AnalysisCache
    from ..substrate.mesh import SubstrateMesh, SubstrateProcess
    from ..synthesis.sizing import (CircuitSynthesizer, Specification,
                                    ota_synthesizer)
    from ..technology.library import get_node
    from ..technology.node import TechnologyNode
    from ..thermal.electrothermal import (runaway_rth_thresholds,
                                          solve_operating_point,
                                          solve_operating_point_batch)
    from ..thermal.mesh import ThermalStack
    from ..variability import dopants, ler, pelgrom
    from ..variability.statistical import (MonteCarloSampler, VariationSpec,
                                           monte_carlo_yield_batch)

    node = get_node("65nm")
    f = node.feature_size
    geometry = wire.WireGeometry.for_node(node)

    def mosfet_ids(width: float, vgs: float, vds: float,
                   vbs: float) -> float:
        return Mosfet(node, width=width).ids(vgs, vds, vbs)

    def mosfet_off_current(width: float, vds: float) -> float:
        return Mosfet(node, width=width).off_current(vds=vds)

    def fo4_delay(drive_width: float, vth: float, vdd: float) -> float:
        return ddelay.fo4_delay_model(node, drive_width).delay(
            vth=vth, vdd=vdd)

    def delay_spread(sigma_vth: float, n_sigma: float) -> Dict[str, float]:
        return ddelay.fo4_delay_model(node).delay_spread(
            sigma_vth, n_sigma=n_sigma)

    def wire_geometry(pitch: float, width_fraction: float,
                      aspect_ratio: float) -> wire.WireGeometry:
        return wire.WireGeometry(pitch=pitch,
                                 width_fraction=width_fraction,
                                 aspect_ratio=aspect_ratio)

    def uniform_line_delay(length: float, driver_resistance: float,
                           load_capacitance: float) -> float:
        tree = elmore.uniform_line(
            geometry, length, segments=4,
            driver_resistance=driver_resistance,
            load_capacitance=load_capacitance)
        return tree.elmore_delay("seg_sink")

    def node_override(vdd: float, vth: float, tox: float
                      ) -> TechnologyNode:
        return node.with_overrides(vdd=vdd, vth=vth, tox=tox)

    def sample_batch(n_dies: Any, width: float) -> Any:
        sampler = MonteCarloSampler(node, seed=7)
        return sampler.sample_dies_batch(n_dies, n_devices=2, width=width)

    def variation_spec(vth_inter: float, length_inter_rel: float
                       ) -> VariationSpec:
        return VariationSpec(vth_inter=vth_inter,
                             length_inter_rel=length_inter_rel)

    def yield_batch(limit: float, n_dies: Any) -> float:
        sampler = MonteCarloSampler(node, seed=11)
        result = monte_carlo_yield_batch(
            sampler, lambda batch: batch.vth_global, limit,
            n_dies=n_dies)
        return result.yield_fraction

    def intra_sigma(width: float, length: float) -> float:
        return float(VariationSpec().intra_sigma_vth(node, width, length))

    def electrothermal(frequency: float, activity: float,
                       rth: float) -> Any:
        return solve_operating_point(
            node, n_gates=10_000, frequency=frequency,
            activity=activity,
            stack=ThermalStack(rth_junction_to_ambient=rth),
            max_iterations=8)

    def retry_policy(timeout_s: float, backoff_initial_s: float,
                     backoff_factor: float) -> Any:
        return RetryPolicy(max_retries=2, timeout_s=timeout_s,
                           backoff_initial_s=backoff_initial_s,
                           backoff_factor=backoff_factor
                           ).delay_before(2)

    def chaos_spec(crash_rate: float, hang_rate: float,
                   poison_rate: float) -> Any:
        return ChaosSpec(seed=7, crash_rate=crash_rate,
                         hang_rate=hang_rate,
                         poison_rate=poison_rate).total_rate

    def exec_plan_shards(n_total: Any, n_shards: Any) -> Any:
        return [s.size for s in plan_shards(n_total, n_shards)]

    def exec_wilson(n_pass: Any, level: float) -> Any:
        return wilson_interval(n_pass, 50, level=level)

    def exec_clopper_pearson(n_pass: Any, level: float) -> Any:
        return clopper_pearson_interval(n_pass, 50, level=level)

    def exec_run_sharded(limit: float, n_shards: Any) -> Any:
        result = run_sharded(
            YieldWorkload(node_name="65nm", metric="vth-shift",
                          limit=limit, n_dies=8, seed=11),
            n_shards=n_shards, env_chaos=False)
        return result.value.yield_fraction

    def lint_cache_capacity(max_files: Any) -> float:
        return float(AnalysisCache(max_files=max_files).max_files)

    coherent_record = np.sin(
        2.0 * np.pi * 5.0 * np.arange(128) / 128.0)
    ramp_codes_2bit = np.repeat(np.arange(4), 4)

    def chain_batch(n_dies: Any, n_ramp_per_code: Any, n_fft: Any,
                    cycles: Any, amplitude_fraction: float) -> Any:
        sampler = MonteCarloSampler(node, seed=23)
        return achain.chain_signoff_batch(
            sampler, n_dies=n_dies, n_ramp_per_code=n_ramp_per_code,
            n_fft=n_fft, cycles=cycles,
            amplitude_fraction=amplitude_fraction)

    timing_netlist = ripple_adder(node, width=2)

    def compiled_evaluate(global_vth_offset: float,
                          wire_cap_per_fanout: float,
                          vth_offset: float) -> Any:
        graph = CompiledTimingGraph(
            timing_netlist, wire_cap_per_fanout=wire_cap_per_fanout)
        offsets = np.full((2, graph.n_gates), vth_offset)
        result = graph.evaluate(
            offsets, global_vth_offset=global_vth_offset)
        return {"critical_delays": result.critical_delays,
                "criticality": result.criticality()}

    def batched_ssta(n_samples: Any, vth_inter: float) -> Any:
        analyzer = StatisticalTimingAnalyzer(
            timing_netlist, VariationSpec(vth_inter=vth_inter), seed=13)
        result = analyzer.run(n_samples)
        return {"samples": result.samples,
                "nominal": result.nominal_delay}

    def mismatch_delays(sigma_vth: float, n_samples: Any) -> Any:
        return delay_under_mismatch(timing_netlist, sigma_vth,
                                    n_samples=n_samples, seed=17)

    sim_stimulus = {net: [True, False]
                    for net in timing_netlist.primary_inputs}

    def compiled_sim_run(clock_period: float,
                         wire_cap_per_fanout: float,
                         n_cycles: Any) -> Any:
        engine = CompiledEventEngine(
            timing_netlist, clock_period=clock_period,
            wire_cap_per_fanout=wire_cap_per_fanout)
        trace = engine.run(sim_stimulus, n_cycles)
        return {"times": trace.times,
                "activity": trace.activity_factor(n_cycles),
                "toggles": float(trace.toggle_count())}

    def trace_activity_factor(n_cycles: Any) -> float:
        trace = CompiledEventEngine(
            timing_netlist, clock_period=1e-9).run(sim_stimulus, 2)
        return trace.activity_factor(n_cycles)

    def soc_generator(target_gates: Any, glue_fraction: float) -> Any:
        netlist = soc_netlist(node, target_gates=target_gates,
                              n_blocks=2, adder_width=4,
                              glue_fraction=glue_fraction, seed=1)
        return {"n_gates": float(len(netlist.instances))}

    def mesh_batched_solve(die_width: float,
                           backside_resistance: float,
                           current: float) -> Any:
        mesh = SubstrateMesh(
            die_width, 1e-3, nx=8, ny=8,
            process=SubstrateProcess(
                backside_resistance=backside_resistance))
        rhs = np.full((mesh.n_nodes, 2), current)
        return mesh.solve(rhs)

    def ler_spread(sigma: float, correlation_length: float,
                   width: float) -> Dict[str, float]:
        params = ler.LerParameters(sigma=sigma,
                                   correlation_length=correlation_length)
        return ler.current_spread_from_ler(
            node, params, n_devices=8, width=width, n_points=32, seed=5)

    def ota_evaluate_batch(input_width: float, tail_current: float,
                           vth_override: float) -> Any:
        engine = SingleStageOta(node, load_capacitance=1e-12)
        return engine.evaluate_batch(
            np.array([input_width, 20 * f]),
            np.array([4 * f, 4 * f]), np.array([10 * f, 10 * f]),
            np.array([6 * f, 6 * f]),
            np.array([tail_current, 20e-6]),
            node_overrides={"vth": np.array([vth_override, node.vth])})

    def frontend_evaluate_batch(input_width: float,
                                feedback_capacitance: float,
                                drain_current: float) -> Any:
        engine = DetectorFrontend(node, detector_capacitance=5e-12)
        return engine.evaluate_batch(
            np.array([input_width, 200 * f]),
            np.array([2 * f, 2 * f]),
            np.array([feedback_capacitance, 0.3e-12]),
            np.array([1e-6, 1e-6]),
            np.array([drain_current, 300e-6]))

    def electrothermal_batch(frequency: float, activity: float,
                             rth: float) -> Any:
        return solve_operating_point_batch(
            node, rth=np.array([rth, 2.0 * rth]),
            n_gates=10_000, frequency=frequency,
            activity=activity, max_iterations=8)

    def runaway_thresholds_batch(frequency: float,
                                 activity: float) -> Any:
        return runaway_rth_thresholds(
            [node], n_gates=10_000, frequency=frequency,
            activity=activity)

    def synthesis_run(gain_bound: float, power_bound: float) -> Any:
        spec = Specification(
            objective="power",
            constraints={"gain_db": ("min", gain_bound),
                         "power": ("max", power_bound)})
        synthesizer = ota_synthesizer(node, 1e-12, spec)
        result = synthesizer.run(seed=5, maxiter=2, popsize=6)
        return {"cost": result.cost, "values": result.values}

    def specification_penalty(gain_bound: float) -> float:
        spec = Specification(
            objective="power",
            constraints={"gain_db": ("min", gain_bound)})
        return spec.penalty(SimpleNamespace(gain_db=45.0, power=1e-3))

    def ota_yield_run(gain_bound: float, offset_bound: float) -> Any:
        analyzer = OtaYieldAnalyzer(
            node, OtaDesign(input_width=40 * f, input_length=4 * f,
                            load_width=20 * f, load_length=6 * f,
                            tail_current=20e-6),
            load_capacitance=1e-12, seed=19)
        report = analyzer.run({"gain_db": gain_bound,
                               "offset_sigma": offset_bound},
                              n_samples=32)
        return {"overall": report.overall_yield,
                "sigma_offset": report.sigma_offset}

    return [
        ApiSpec(leakage.subthreshold_current,
                leakage.subthreshold_current,
                {"i0": 1e-7, "vth": 0.22, "n": 1.45,
                 "temperature": 300.0, "vgs": 0.0}),
        ApiSpec(leakage.dibl_effective_vth, leakage.dibl_effective_vth,
                {"vth0": 0.22, "dibl": 0.08, "vds": 1.0}),
        ApiSpec(leakage.gate_leakage_current,
                leakage.gate_leakage_current,
                {"width": 2 * f, "vgb": 1.0, "tox": node.tox,
                 "k_fit": node.gate_leak_k,
                 "alpha_fit": node.gate_leak_alpha}),
        ApiSpec(leakage.device_leakage,
                lambda **kw: leakage.device_leakage(node, **kw),
                {"width": 2 * f, "vds": 1.0, "vbs": 0.0,
                 "vth_offset": 0.0}),
        ApiSpec(leakage.gate_leakage_per_gate,
                lambda **kw: leakage.gate_leakage_per_gate(node, **kw),
                {"nmos_width": 2 * f, "pmos_width": 4 * f}),
        ApiSpec(leakage.leakage_power_density,
                lambda **kw: leakage.leakage_power_density(node, **kw),
                {"gates_per_mm2": 1e5}),
        ApiSpec(leakage.ioff_vs_vth_sweep,
                lambda **kw: leakage.ioff_vs_vth_sweep(node, **kw),
                {"vth_values": 0.3, "width": 2 * f}),
        ApiSpec(Mosfet.ids, mosfet_ids,
                {"width": 2 * f, "vgs": 1.0, "vds": 1.0, "vbs": 0.0}),
        ApiSpec(Mosfet.off_current, mosfet_off_current,
                {"width": 2 * f, "vds": 1.0}),
        ApiSpec(ddelay.DelayModel.delay, fo4_delay,
                {"drive_width": 2 * f, "vth": 0.22, "vdd": 1.0}),
        ApiSpec(ddelay.DelayModel.delay_spread, delay_spread,
                {"sigma_vth": 0.015, "n_sigma": 3.0}),
        ApiSpec(ddelay.energy_delay_product,
                lambda **kw: ddelay.energy_delay_product(node, **kw),
                {"vdd": 1.0, "vth": 0.22}),
        ApiSpec(CompiledTimingGraph.evaluate, compiled_evaluate,
                {"global_vth_offset": 0.0,
                 "wire_cap_per_fanout": 0.5e-15,
                 "vth_offset": 0.01}),
        ApiSpec(StatisticalTimingAnalyzer.run, batched_ssta,
                {"n_samples": 6, "vth_inter": 0.015}),
        ApiSpec(delay_under_mismatch, mismatch_delays,
                {"sigma_vth": 0.01, "n_samples": 6}),
        ApiSpec(CompiledEventEngine.run, compiled_sim_run,
                {"clock_period": 1e-9,
                 "wire_cap_per_fanout": 0.5e-15, "n_cycles": 2}),
        ApiSpec(EventTrace.activity_factor, trace_activity_factor,
                {"n_cycles": 2}),
        ApiSpec(soc_netlist, soc_generator,
                {"target_gates": 200, "glue_fraction": 0.1}),
        ApiSpec(SubstrateMesh.solve, mesh_batched_solve,
                {"die_width": 1e-3, "backside_resistance": 2.0,
                 "current": 1e-3}),
        ApiSpec(wire.WireGeometry, wire_geometry,
                {"pitch": 180e-9, "width_fraction": 0.5,
                 "aspect_ratio": 2.0}),
        ApiSpec(wire.capacitance_per_length,
                lambda **kw: wire.capacitance_per_length(geometry, **kw),
                {"miller_factor": 1.0}),
        ApiSpec(wire.wire_delay,
                lambda **kw: wire.wire_delay(geometry, **kw),
                {"length": 1e-3, "miller_factor": 1.0}),
        ApiSpec(wire.wire_energy,
                lambda **kw: wire.wire_energy(geometry, **kw),
                {"length": 1e-3, "vdd": 1.0, "activity": 0.5}),
        ApiSpec(elmore.driver_wire_load_delay,
                lambda **kw: elmore.driver_wire_load_delay(geometry, **kw),
                {"length": 1e-3, "driver_resistance": 1e3,
                 "load_capacitance": 1e-15}),
        ApiSpec(elmore.uniform_line, uniform_line_delay,
                {"length": 1e-3, "driver_resistance": 1e3,
                 "load_capacitance": 1e-15}),
        ApiSpec(tradeoff.accuracy_from_bits, tradeoff.accuracy_from_bits,
                {"n_bits": 10.0}),
        ApiSpec(tradeoff.bits_from_accuracy, tradeoff.bits_from_accuracy,
                {"accuracy": 1254.0}),
        ApiSpec(tradeoff.thermal_noise_constant,
                tradeoff.thermal_noise_constant,
                {"temperature": 300.0, "efficiency": 0.01}),
        ApiSpec(tradeoff.mismatch_constant,
                lambda **kw: tradeoff.mismatch_constant(node, **kw),
                {"swing_fraction": 0.6, "efficiency": 0.01}),
        ApiSpec(tradeoff.minimum_power,
                lambda **kw: tradeoff.minimum_power(node=node, **kw),
                {"speed": 1e8, "accuracy": 1254.0, "temperature": 300.0}),
        ApiSpec(pelgrom.sigma_delta_vth,
                lambda **kw: pelgrom.sigma_delta_vth(node, **kw),
                {"width": 10 * f, "length": 2 * f, "distance": 1e-5}),
        ApiSpec(pelgrom.sigma_delta_beta,
                lambda **kw: pelgrom.sigma_delta_beta(node, **kw),
                {"width": 10 * f, "length": 2 * f}),
        ApiSpec(pelgrom.area_for_matching,
                lambda **kw: pelgrom.area_for_matching(node, **kw),
                {"sigma_vth_target": 1e-3}),
        ApiSpec(pelgrom.offset_sigma_diff_pair,
                lambda **kw: pelgrom.offset_sigma_diff_pair(node, **kw),
                {"width": 10 * f, "length": 2 * f, "gm_over_id": 10.0}),
        ApiSpec(pelgrom.sigma_resistor_mismatch,
                lambda **kw: pelgrom.sigma_resistor_mismatch(node, **kw),
                {"width": 8 * f, "length": 64 * f,
                 "matching_coefficient": 2 * node.abeta}),
        ApiSpec(pelgrom.sigma_capacitor_mismatch,
                lambda **kw: pelgrom.sigma_capacitor_mismatch(node, **kw),
                {"width": 12 * f, "length": 12 * f,
                 "matching_coefficient": node.abeta}),
        ApiSpec(ametrics.transfer_linearity, ametrics.transfer_linearity,
                {"levels": [0.0, 0.25, 0.5, 0.75, 1.0]}),
        ApiSpec(ametrics.transfer_linearity_batch,
                ametrics.transfer_linearity_batch,
                {"levels": [[0.0, 0.25, 0.5, 0.75, 1.0],
                            [0.0, 0.3, 0.5, 0.7, 1.0]]}),
        ApiSpec(ametrics.histogram_linearity, ametrics.histogram_linearity,
                {"codes": ramp_codes_2bit, "n_bits": 2}),
        ApiSpec(ametrics.histogram_linearity_batch,
                ametrics.histogram_linearity_batch,
                {"codes": np.stack([ramp_codes_2bit, ramp_codes_2bit]),
                 "n_bits": 2}),
        ApiSpec(ametrics.spectral_metrics, ametrics.spectral_metrics,
                {"signal": coherent_record, "cycles": 5,
                 "full_scale": 2.0}),
        ApiSpec(ametrics.spectral_metrics_batch,
                ametrics.spectral_metrics_batch,
                {"signals": np.stack([coherent_record,
                                      -coherent_record]),
                 "cycles": 5, "full_scale": 2.0}),
        ApiSpec(achain.chain_signoff,
                lambda **kw: achain.chain_signoff(node, **kw),
                {"n_ramp_per_code": 4, "n_fft": 256, "cycles": 67,
                 "amplitude_fraction": 0.9}),
        ApiSpec(achain.chain_signoff_batch, chain_batch,
                {"n_dies": 4, "n_ramp_per_code": 4, "n_fft": 256,
                 "cycles": 67, "amplitude_fraction": 0.9}),
        ApiSpec(achain.chain_yield_vs_node,
                lambda **kw: achain.chain_yield_vs_node(
                    nodes=[node], n_ramp_per_code=4, n_fft=256, **kw),
                {"n_dies": 3, "seed": 1, "amplitude_fraction": 0.9}),
        ApiSpec(dopants.channel_dopant_count,
                lambda **kw: dopants.channel_dopant_count(node, **kw),
                {"width": 2 * f, "length": f}),
        ApiSpec(dopants.dopant_count_sigma, dopants.dopant_count_sigma,
                {"mean_count": 100.0}),
        ApiSpec(dopants.vth_sigma_from_rdf,
                lambda **kw: dopants.vth_sigma_from_rdf(node, **kw),
                {"width": 2 * f, "length": f}),
        ApiSpec(ler.current_spread_from_ler, ler_spread,
                {"sigma": 1.5e-9, "correlation_length": 25e-9,
                 "width": 130e-9}),
        ApiSpec(VariationSpec, variation_spec,
                {"vth_inter": 0.015, "length_inter_rel": 0.04}),
        ApiSpec(VariationSpec.intra_sigma_vth, intra_sigma,
                {"width": 2 * f, "length": f}),
        ApiSpec(MonteCarloSampler.sample_dies_batch, sample_batch,
                {"n_dies": 4, "width": 2 * f}),
        ApiSpec(monte_carlo_yield_batch, yield_batch,
                {"limit": 0.03, "n_dies": 16}),
        ApiSpec(TechnologyNode.with_overrides, node_override,
                {"vdd": 1.0, "vth": 0.22, "tox": 1.6e-9}),
        ApiSpec(TechnologyNode.at_temperature,
                lambda **kw: node.at_temperature(**kw),
                {"temperature": 358.0}),
        ApiSpec(TechnologyNode.scaled, lambda **kw: node.scaled(**kw),
                {"s": 1.4}),
        ApiSpec(TechnologyNode.sigma_vt, lambda **kw: node.sigma_vt(**kw),
                {"width": 2 * f, "length": f}),
        ApiSpec(solve_operating_point, electrothermal,
                {"frequency": 1e9, "activity": 0.1, "rth": 1.0}),
        ApiSpec(solve_operating_point_batch, electrothermal_batch,
                {"frequency": 1e9, "activity": 0.1, "rth": 1.0}),
        ApiSpec(runaway_rth_thresholds, runaway_thresholds_batch,
                {"frequency": 1e9, "activity": 0.1}),
        ApiSpec(SingleStageOta.evaluate_batch, ota_evaluate_batch,
                {"input_width": 40 * f, "tail_current": 20e-6,
                 "vth_override": 0.22}),
        ApiSpec(DetectorFrontend.evaluate_batch, frontend_evaluate_batch,
                {"input_width": 200 * f,
                 "feedback_capacitance": 0.3e-12,
                 "drain_current": 300e-6}),
        ApiSpec(CircuitSynthesizer.run, synthesis_run,
                {"gain_bound": 40.0, "power_bound": 1e-3}),
        ApiSpec(Specification.penalty, specification_penalty,
                {"gain_bound": 40.0}),
        ApiSpec(OtaYieldAnalyzer.run, ota_yield_run,
                {"gain_bound": 30.0, "offset_bound": 5e-3}),
        ApiSpec(RetryPolicy, retry_policy,
                {"timeout_s": 1.0, "backoff_initial_s": 0.05,
                 "backoff_factor": 2.0}),
        ApiSpec(ChaosSpec, chaos_spec,
                {"crash_rate": 0.2, "hang_rate": 0.1,
                 "poison_rate": 0.2}),
        ApiSpec(plan_shards, exec_plan_shards,
                {"n_total": 100, "n_shards": 7}),
        ApiSpec(wilson_interval, exec_wilson,
                {"n_pass": 45, "level": 0.95}),
        ApiSpec(clopper_pearson_interval, exec_clopper_pearson,
                {"n_pass": 45, "level": 0.95}),
        ApiSpec(run_sharded, exec_run_sharded,
                {"limit": 0.03, "n_shards": 2}),
        ApiSpec(AnalysisCache, lint_cache_capacity,
                {"max_files": 64}),
    ]
