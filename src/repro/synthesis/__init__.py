"""AMGIE/LAYLA-style analog synthesis: sizing, placement, routing."""

from .layout import (
    LAYERS,
    DesignRules,
    Layout,
    LayoutCell,
    Pin,
    Placement,
    Rect,
)
from .devices_gen import (
    capacitor_cell,
    matched_pair_cell,
    mosfet_cell,
    resistor_cell,
)
from .placement import (
    PlacementProblem,
    SimulatedAnnealingPlacer,
    place_cells,
)
from .router import MazeRouter, RouteResult, route_layout
from .sizing import (
    CircuitSynthesizer,
    Specification,
    SynthesisResult,
    Variable,
    default_frontend_spec,
    default_ota_spec,
    frontend_synthesizer,
    ota_synthesizer,
)
from .centering import (
    CenteringComparison,
    GuardBandedOta,
    centered_ota_synthesizer,
    compare_centering,
)
from .flow import (
    FrontendFlowReport,
    manual_design_baseline,
    synthesize_detector_frontend,
)

__all__ = [
    "LAYERS", "DesignRules", "Layout", "LayoutCell", "Pin", "Placement",
    "Rect",
    "capacitor_cell", "matched_pair_cell",
    "mosfet_cell", "resistor_cell",
    "PlacementProblem", "SimulatedAnnealingPlacer", "place_cells",
    "MazeRouter", "RouteResult", "route_layout",
    "CircuitSynthesizer", "Specification", "SynthesisResult", "Variable",
    "default_frontend_spec", "default_ota_spec", "frontend_synthesizer",
    "ota_synthesizer",
    "CenteringComparison", "GuardBandedOta",
    "centered_ota_synthesizer", "compare_centering",
    "FrontendFlowReport", "manual_design_baseline",
    "synthesize_detector_frontend",
]
