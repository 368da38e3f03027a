"""Parameterized procedural device generators (LAYLA's pcells).

The paper notes that even manual analog design relies on "an
interactive layout environment (with parameterized procedural device
generators)".  These functions generate DRC-clean-by-construction
multi-finger MOSFETs, MIM capacitors, poly resistors and guard rings
as :class:`~repro.synthesis.layout.LayoutCell` objects.
"""

from __future__ import annotations

import math
from typing import Optional

from ..technology.node import TechnologyNode
from .layout import DesignRules, LayoutCell, Pin, Rect
from ..robust.errors import ModelDomainError


def _finger_count(width: float, length: float,
                  max_finger_width: float) -> int:
    """Number of fingers keeping each finger below the aspect cap."""
    return max(int(math.ceil(width / max_finger_width)), 1)


def mosfet_cell(node: TechnologyNode, name: str, width: float,
                length: Optional[float] = None,
                pmos: bool = False,
                max_finger_width: float = 10e-6) -> LayoutCell:
    """Multi-finger MOSFET pcell.

    The device is drawn with vertical poly fingers over a horizontal
    active strip; source/drain contacts alternate between fingers.
    Pins: ``G`` (gate, poly), ``S``/``D`` (metal1), ``B`` (bulk).
    """
    rules = DesignRules.for_node(node)
    length = length if length is not None else node.feature_size
    if width < node.feature_size or length < node.feature_size:
        raise ModelDomainError("device dimensions below feature size")
    n_fingers = _finger_count(width, length, max_finger_width)
    finger_width = width / n_fingers

    contact = rules.contact_size
    pitch = length + 2.0 * contact + 2.0 * rules.poly_width
    active_height = finger_width
    active_width = n_fingers * pitch + contact

    cell = LayoutCell(name=name)
    margin = rules.cell_margin
    if pmos:
        cell.rects.append(Rect("nwell", 0.0, 0.0,
                               active_width + 2.0 * margin,
                               active_height + 2.0 * margin))
    cell.rects.append(Rect("active", margin, margin,
                           active_width, active_height))
    y_mid = margin + active_height / 2.0

    for finger in range(n_fingers):
        x_gate = margin + contact + rules.poly_width \
            + finger * pitch
        # Poly finger extends past active top and bottom.
        cell.rects.append(Rect(
            "poly", x_gate, margin - 2.0 * rules.poly_width,
            length, active_height + 4.0 * rules.poly_width))
        # Source/drain contact column left of this finger.
        x_cut = x_gate - rules.poly_width - contact
        cell.rects.append(Rect("contact", x_cut, y_mid - contact / 2.0,
                               contact, contact))
        cell.rects.append(Rect("metal1", x_cut - contact / 4.0,
                               margin, 1.5 * contact, active_height))
    # Last contact column on the right.
    x_cut = margin + contact + n_fingers * pitch - contact
    cell.rects.append(Rect("contact", x_cut, y_mid - contact / 2.0,
                           contact, contact))
    cell.rects.append(Rect("metal1", x_cut - contact / 4.0, margin,
                           1.5 * contact, active_height))

    # Pins: gate at the first finger top, S at first column, D at last.
    first_gate_x = margin + contact + rules.poly_width
    cell.pins.append(Pin("G", "poly",
                         first_gate_x + length / 2.0,
                         margin + active_height
                         + 2.0 * rules.poly_width))
    cell.pins.append(Pin("S", "metal1", margin + contact / 2.0, y_mid))
    cell.pins.append(Pin("D", "metal1", x_cut + contact / 2.0, y_mid))
    cell.pins.append(Pin("B", "metal1", margin / 2.0, margin / 2.0))
    return cell


def matched_pair_cell(node: TechnologyNode, name: str, width: float,
                      length: Optional[float] = None) -> LayoutCell:
    """Common-centroid matched pair (A-B-B-A interdigitation).

    The matching-critical layout style LAYLA applies to differential
    pairs and current mirrors: both halves see the same gradients.
    Pins: ``GA``, ``GB``, ``SA``, ``SB``, ``DA``, ``DB``.
    """
    half = mosfet_cell(node, f"{name}_half", width / 2.0, length)
    rules = DesignRules.for_node(node)
    cell = LayoutCell(name=name)
    step = half.width + rules.cell_margin
    # A B B A along x.
    order = ["A", "B", "B", "A"]
    for index, tag in enumerate(order):
        dx = index * step
        for rect in half.rects:
            cell.rects.append(rect.translated(dx, 0.0))
    # Expose pins of the leftmost A and the second (B) device.
    for pin in half.pins:
        if pin.name in ("G", "S", "D"):
            cell.pins.append(Pin(pin.name + "A", pin.layer,
                                 pin.x, pin.y))
            cell.pins.append(Pin(pin.name + "B", pin.layer,
                                 pin.x + step, pin.y))
    return cell


def capacitor_cell(node: TechnologyNode, name: str,
                   capacitance: float,
                   cap_per_area: float = 1e-3) -> LayoutCell:
    """Square MIM capacitor (metal1 bottom plate, metal2 top plate).

    ``cap_per_area`` defaults to 1 fF/um^2.
    """
    if capacitance <= 0:
        raise ModelDomainError("capacitance must be positive")
    rules = DesignRules.for_node(node)
    side = math.sqrt(capacitance / cap_per_area)
    margin = rules.cell_margin
    cell = LayoutCell(name=name)
    cell.rects.append(Rect("metal1", margin, margin, side, side))
    inset = rules.metal_width
    cell.rects.append(Rect("metal2", margin + inset, margin + inset,
                           max(side - 2 * inset, inset),
                           max(side - 2 * inset, inset)))
    cell.rects.append(Rect("via1", margin + side / 2.0,
                           margin + side / 2.0,
                           rules.contact_size, rules.contact_size))
    cell.pins.append(Pin("BOT", "metal1", margin + side / 2.0, margin))
    cell.pins.append(Pin("TOP", "metal2", margin + side / 2.0,
                         margin + side))
    return cell


def resistor_cell(node: TechnologyNode, name: str, resistance: float,
                  sheet_resistance: float = 200.0) -> LayoutCell:
    """Serpentine poly resistor.

    ``sheet_resistance`` in ohm/square; the serpentine folds every 20
    squares.
    """
    if resistance <= 0:
        raise ModelDomainError("resistance must be positive")
    rules = DesignRules.for_node(node)
    squares = resistance / sheet_resistance
    strip_width = 2.0 * rules.poly_width
    squares_per_leg = 20.0
    n_legs = max(int(math.ceil(squares / squares_per_leg)), 1)
    leg_length = (squares / n_legs) * strip_width
    margin = rules.cell_margin
    cell = LayoutCell(name=name)
    leg_pitch = strip_width * 3.0
    for leg in range(n_legs):
        x = margin + leg * leg_pitch
        cell.rects.append(Rect("poly", x, margin, strip_width,
                               leg_length))
        if leg < n_legs - 1:
            y = margin + (leg_length if leg % 2 == 0 else 0.0)
            cell.rects.append(Rect(
                "poly", x, y - (strip_width if leg % 2 else 0.0),
                leg_pitch + strip_width, strip_width))
    cell.pins.append(Pin("P", "poly", margin + strip_width / 2.0,
                         margin))
    x_last = margin + (n_legs - 1) * leg_pitch + strip_width / 2.0
    y_last = margin + (leg_length if n_legs % 2 == 1 else 0.0)
    cell.pins.append(Pin("N", "poly", x_last, y_last))
    return cell
