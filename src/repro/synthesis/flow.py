"""End-to-end analog synthesis flow: AMGIE sizing + LAYLA layout.

Reproduces Fig. 8: "a particle/radiation detector frontend generated
with the AMGIE/LAYLA analog synthesis tools".  The flow is

    spec --(differential-evolution sizing)--> device values
         --(procedural device generation)--> layout cells
         --(simulated-annealing placement)--> placed block
         --(maze routing)--> routed layout + report
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..technology.node import TechnologyNode
from ..analog.circuits import FrontendPerformance
from .devices_gen import (capacitor_cell, matched_pair_cell, mosfet_cell,
                          resistor_cell)
from .layout import DesignRules, Layout
from .placement import PlacementProblem, place_cells
from .router import RouteResult, route_layout
from .sizing import (Specification, SynthesisResult,
                     default_frontend_spec, frontend_synthesizer)


@dataclass
class FrontendFlowReport:
    """Everything the Fig. 8 flow produces."""

    sizing: SynthesisResult
    layout: Layout
    routing: RouteResult

    @property
    def performance(self) -> FrontendPerformance:
        """The synthesized circuit performance."""
        return self.sizing.performance

    @property
    def area_mm2(self) -> float:
        """Routed block area [mm^2]."""
        return self.layout.area() * 1e6

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports."""
        perf = self.performance
        return {
            "feasible": float(self.sizing.feasible),
            "enc_electrons": perf.enc_electrons,
            "power_mW": perf.power * 1e3,
            "peaking_time_us": perf.peaking_time * 1e6,
            "area_mm2": self.area_mm2,
            "n_evaluations": float(self.sizing.n_evaluations),
            "route_completion": self.routing.completion,
            "wirelength_mm": self.routing.total_wirelength * 1e3,
        }


def synthesize_detector_frontend(node: TechnologyNode,
                                 spec: Optional[Specification] = None,
                                 detector_capacitance: float = 5e-12,
                                 seed: int = 0,
                                 sizing_maxiter: int = 40,
                                 placement_iterations: int = 2000
                                 ) -> FrontendFlowReport:
    """Run the full AMGIE/LAYLA flow for the detector front-end.

    Returns the sized, placed and routed block.  Deterministic for a
    given ``seed``.
    """
    spec = spec or default_frontend_spec()

    # 1. AMGIE: optimization-based sizing.
    synthesizer = frontend_synthesizer(
        node, spec, detector_capacitance=detector_capacitance)
    sizing = synthesizer.run(seed=seed, maxiter=sizing_maxiter)
    values = sizing.values

    # 2. Procedural device generation.
    rules = DesignRules.for_node(node)
    input_pair = matched_pair_cell(
        node, "input_pair", values["input_width"],
        values["input_length"])
    cascode = mosfet_cell(node, "cascode",
                          max(values["input_width"] / 4.0,
                              2 * node.feature_size))
    feedback_cap = capacitor_cell(node, "cfb",
                                  values["feedback_capacitance"])
    # CR-RC shaper: R = tau / C with a convenient shaper capacitance.
    shaper_cap_value = 1e-12
    shaper_res_value = values["shaper_time_constant"] / shaper_cap_value
    shaper_cap = capacitor_cell(node, "csh", shaper_cap_value)
    shaper_res = resistor_cell(node, "rsh",
                               min(shaper_res_value, 2e6))
    bias_mirror = matched_pair_cell(
        node, "bias_mirror", max(values["input_width"] / 8.0,
                                 4 * node.feature_size))
    output_buffer = mosfet_cell(node, "buffer",
                                max(values["input_width"] / 2.0,
                                    2 * node.feature_size))

    cells = {
        "input_pair": input_pair,
        "cascode": cascode,
        "cfb": feedback_cap,
        "csh": shaper_cap,
        "rsh": shaper_res,
        "bias_mirror": bias_mirror,
        "buffer": output_buffer,
    }

    # 3. Connectivity (schematic netlist of the front-end).
    nets = {
        "in": [("input_pair", "GA"), ("cfb", "BOT")],
        "casc": [("input_pair", "DA"), ("cascode", "S")],
        "csa_out": [("cascode", "D"), ("cfb", "TOP"),
                    ("rsh", "P"), ("buffer", "G")],
        "shaped": [("rsh", "N"), ("csh", "TOP")],
        "bias": [("bias_mirror", "DA"), ("input_pair", "SA"),
                 ("input_pair", "SB")],
        "out": [("buffer", "D"), ("csh", "BOT")],
        "vref": [("input_pair", "GB"), ("bias_mirror", "GA"),
                 ("bias_mirror", "GB")],
    }

    problem = PlacementProblem(
        cells=cells,
        nets=nets,
        symmetry=[("cfb", "csh")],
        proximity=[["input_pair", "cascode"],
                   ["bias_mirror", "buffer"]],
    )

    # 4. LAYLA: placement + routing.
    layout = place_cells(problem, rules,
                         n_iterations=placement_iterations,
                         seed=seed, name=f"frontend_{node.name}")
    routing = route_layout(layout)

    return FrontendFlowReport(sizing=sizing, layout=layout,
                              routing=routing)


def manual_design_baseline(node: TechnologyNode,
                           detector_capacitance: float = 5e-12
                           ) -> Dict[str, float]:
    """A 'hand-crafted' reference sizing for comparison.

    Uses the classic manual recipes (capacitive matching C_g =
    C_det/3, tau at the series/parallel noise optimum) so the
    benchmark can show the synthesis engine matching or beating
    manual quality -- the paper's productivity claim.
    """
    from ..analog.circuits import (DetectorFrontend,
                                   DetectorFrontendDesign)
    engine = DetectorFrontend(node, detector_capacitance)
    length = 2.0 * node.feature_size
    c_gate_target = detector_capacitance / 3.0
    width = c_gate_target / (node.cox * length)
    design = DetectorFrontendDesign(
        input_width=width,
        input_length=length,
        feedback_capacitance=0.3e-12,
        shaper_time_constant=1e-6,
        drain_current=500e-6,
    )
    perf = engine.evaluate(design)
    return {
        "enc_electrons": perf.enc_electrons,
        "power_mW": perf.power * 1e3,
        "peaking_time_us": perf.peaking_time * 1e6,
        "input_width_um": width * 1e6,
    }
