"""Substrate-noise analysis: FD mesh, injection macromodels, SWAN."""

from .mesh import (
    SubstrateMesh,
    SubstrateProcess,
)
from .injection import (
    INJECTION_FRACTION,
    InjectionMacromodel,
    characterize_cell,
    characterize_library,
)
from .comparison import (
    EPI_PROCESS,
    HIGH_OHMIC_PROCESS,
    IsolationStudy,
    compare_substrates,
    isolation_knob_ranking,
)
from .swan import (
    Floorplan,
    NoiseWaveform,
    SwanComparison,
    SwanSimulator,
    run_swan_experiment,
)

__all__ = [
    "SubstrateMesh", "SubstrateProcess",
    "INJECTION_FRACTION", "InjectionMacromodel", "characterize_cell",
    "characterize_library",
    "EPI_PROCESS", "HIGH_OHMIC_PROCESS", "IsolationStudy",
    "compare_substrates", "isolation_knob_ranking",
    "Floorplan", "NoiseWaveform", "SwanComparison", "SwanSimulator",
    "run_swan_experiment",
]
