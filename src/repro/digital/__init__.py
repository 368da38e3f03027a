"""Digital circuit design analysis: delay, energy, timing, leakage."""

from .delay import (
    DelayModel,
    delay_variability_trend,
    energy_delay_product,
    fo4_delay_model,
    fo4_load,
)
from .gates import CELL_TYPES, Cell, CellType, make_cell
from .netlist import Instance, Netlist
from .generators import (
    clocked_datapath,
    estimate_gates_for_target,
    full_adder,
    kogge_stone_adder,
    random_logic,
    ripple_adder,
    soc_netlist,
)
from .ssta import (
    SstaResult,
    StatisticalTimingAnalyzer,
    corner_vs_statistical_margin,
    depth_averaging_study,
)
from .simulator import (
    EventDrivenSimulator,
    SimulationResult,
    SwitchingEvent,
    random_stimulus,
)
from .timing import (
    StaticTimingAnalyzer,
    TimingReport,
    delay_under_mismatch,
)
from .timing_compiled import BatchTimingResult, CompiledTimingGraph
from .simulator_compiled import CompiledEventEngine, EventTrace
from .energy import (
    PowerReport,
    analytic_power_estimate,
    leakage_fraction_trend,
)
from .sizing import (
    SizingResult,
    WorstCasePenalty,
    size_for_delay,
    stage_delay,
    stage_energy,
    worst_case_energy_trend,
    worst_case_penalty,
)
from .voltage_scaling import (
    EnergyDelayModel,
    OperatingPoint,
    minimum_energy_trend,
)
from .gals import (
    GalsPartition,
    gals_trend,
    partition_die,
    single_domain_max_frequency,
)
from .leakage_mgmt import (
    MtcmosResult,
    PowerGatingResult,
    VtcmosResult,
    apply_vtcmos_standby,
    assign_dual_vth,
    body_bias_trend_on_design,
    insert_power_gating,
    leakage_ratio_for_vth_delta,
)

__all__ = [
    "DelayModel", "delay_variability_trend", "energy_delay_product",
    "fo4_delay_model", "fo4_load",
    "CELL_TYPES", "Cell", "CellType", "make_cell",
    "Instance", "Netlist",
    "clocked_datapath", "estimate_gates_for_target", "full_adder",
    "kogge_stone_adder", "random_logic", "ripple_adder",
    "soc_netlist",
    "SstaResult", "StatisticalTimingAnalyzer",
    "corner_vs_statistical_margin", "depth_averaging_study",
    "EventDrivenSimulator", "SimulationResult", "SwitchingEvent",
    "random_stimulus",
    "StaticTimingAnalyzer", "TimingReport", "delay_under_mismatch",
    "BatchTimingResult", "CompiledTimingGraph",
    "CompiledEventEngine", "EventTrace",
    "PowerReport", "analytic_power_estimate", "leakage_fraction_trend",
    "SizingResult", "WorstCasePenalty",
    "size_for_delay", "stage_delay", "stage_energy",
    "worst_case_energy_trend", "worst_case_penalty",
    "EnergyDelayModel", "OperatingPoint", "minimum_energy_trend",
    "GalsPartition", "gals_trend", "partition_die",
    "single_domain_max_frequency",
    "MtcmosResult", "PowerGatingResult", "VtcmosResult",
    "apply_vtcmos_standby", "assign_dual_vth",
    "body_bias_trend_on_design", "insert_power_gating",
    "leakage_ratio_for_vth_delta",
]
