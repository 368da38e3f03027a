"""One-shot reproduction report: every headline trend in one document.

``generate_report()`` runs the library's key analyses (the data behind
the paper's figures and prose claims) and renders them as a markdown
document -- the artifact to attach to a reproduction claim, or to diff
after changing a model.  Runtime: tens of seconds; the heavier
Monte Carlo experiments (Figs. 8-10) live in ``benchmarks/`` and are
summarized by reference.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, TextIO

from ..robust.validate import check_positive

if TYPE_CHECKING:
    from ..technology.node import TechnologyNode


def _table(rows: Sequence[Dict], columns: Optional[List[str]] = None,
           float_format: str = "{:.4g}") -> str:
    if not rows:
        return "(no data)\n"
    columns = columns or list(rows[0].keys())
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            cells.append(float_format.format(value)
                         if isinstance(value, float) else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def generate_report(nodes: Optional[Sequence[TechnologyNode]] = None,
                    stream: Optional[TextIO] = None,
                    operating_temperature: float = 358.0) -> str:
    """Run the headline analyses and return the markdown report.

    Parameters
    ----------
    nodes:
        Node set (defaults to the built-in library).
    stream:
        Optional stream to write progressively (e.g. sys.stdout).
    operating_temperature:
        Junction temperature for the leakage sections [K].
    """
    from ..technology.library import all_nodes
    from ..core.endofroad import end_of_road_table
    from ..digital.delay import delay_variability_trend
    from ..digital.energy import leakage_fraction_trend
    from ..digital.sizing import worst_case_energy_trend
    from ..digital.gals import gals_trend
    from ..devices.body_bias import body_bias_effectiveness
    from ..interconnect.clocktree import synchronous_region_trend
    from ..analog.supply_scaling import (analog_power_trend,
                                         headroom_trend)
    from ..analog.tradeoff import limit_gap
    from ..variability.dopants import channel_dopant_count
    from ..memory.sram import snm_trend

    check_positive("temperature", operating_temperature)  # before any output
    nodes = list(nodes) if nodes is not None else all_nodes()
    out = io.StringIO()

    def emit(text: str = "") -> None:
        out.write(text + "\n")
        if stream is not None:
            stream.write(text + "\n")

    emit("# Reproduction report: 65 nm CMOS -- end of the road?")
    emit()
    emit(f"Nodes analyzed: {', '.join(n.name for n in nodes)}.  "
         f"Leakage sections at {operating_temperature - 273.15:.0f} C "
         f"junction.")
    emit()

    emit("## 1. Leakage (paper sections 2.1-2.2, Tab B)")
    emit()
    hot = [node.at_temperature(operating_temperature)
           for node in nodes]
    emit(_table(leakage_fraction_trend(hot, frequency=1e9),
                columns=["node", "dynamic_mW", "subthreshold_mW",
                         "gate_leak_mW", "leakage_fraction"]))

    emit("## 2. Variability (sections 2.4, 3.1; Figs. 2-4, Tab C)")
    emit()
    dopants = [{
        "node": node.name,
        "dopant_atoms": channel_dopant_count(node),
        "sigma_vt_min_mV": node.sigma_vt_min_device * 1e3,
        "sigma_over_overdrive":
            node.sigma_vt_min_device / node.overdrive,
    } for node in nodes]
    emit(_table(dopants))
    emit("Delay impact of a 50 mV V_T shift (Fig. 4):")
    emit()
    emit(_table(delay_variability_trend(nodes),
                columns=["node", "fo4_delay_ps",
                         "delay_increase_pct"]))
    emit("Worst-case sizing energy penalty (Tab C):")
    emit()
    emit(_table(worst_case_energy_trend(nodes),
                columns=["node", "width_ratio",
                         "energy_penalty_pct"]))

    emit("## 3. Leakage countermeasures (section 3.2, Tab D)")
    emit()
    body = [{
        "node": r.node_name,
        "delta_vth_mV": r.delta_vth * 1e3,
        "subthreshold_reduction": r.leakage_reduction,
    } for r in body_bias_effectiveness(nodes, vsb=0.5)]
    emit(_table(body))

    emit("## 4. Interconnect and architecture (sections 2.3, 3.3; "
         "Fig. 5)")
    emit()
    emit(_table(synchronous_region_trend(nodes, frequency=1e9)))
    emit("GALS partitioning of a 10 mm die at 1 GHz:")
    emit()
    emit(_table(gals_trend(nodes, die_edge=10e-3, frequency=1e9),
                columns=["node", "island_edge_mm", "n_islands",
                         "area_overhead_pct"]))

    emit("## 5. Analog scaling (section 4.1; eqs. 4-5, Figs. 6-7)")
    emit()
    gap_rows = [{"node": node.name, "mismatch_over_thermal":
                 limit_gap(node)} for node in nodes]
    emit(_table(gap_rows))
    emit(_table(analog_power_trend(nodes, normalize_to=nodes[0].name),
                columns=["node", "power_matching_only_rel",
                         "power_actual_rel"]))
    emit("Supply headroom:")
    emit()
    emit(_table(headroom_trend(nodes),
                columns=["node", "vdd_V", "cascode_possible",
                         "stackable_devices", "swing_fraction"]))

    emit("## 6. Embedded memory (abstract; 6T SRAM)")
    emit()
    emit(_table(snm_trend(nodes),
                columns=["node", "hold_snm_mV", "read_snm_mV",
                         "sigma_vt_access_mV", "cell_leakage_pA"]))

    emit("## 7. The composite question (end of the road?)")
    emit()
    emit(_table(end_of_road_table(
        nodes, operating_temperature=operating_temperature)))
    emit("Monte-Carlo-heavy reproductions (Figs. 8-10: synthesis, "
         "VCO spurs, SWAN accuracy) run under `benchmarks/` -- see "
         "EXPERIMENTS.md.")
    return out.getvalue()


def write_report(path: str,
                 nodes: Optional[Sequence[TechnologyNode]] = None,
                 operating_temperature: float = 358.0) -> str:
    """Generate the report and write it to ``path``; returns the text."""
    text = generate_report(nodes,
                           operating_temperature=operating_temperature)
    with open(path, "w") as handle:
        handle.write(text)
    return text
