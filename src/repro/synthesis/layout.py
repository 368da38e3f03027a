"""Layout data model: rectangles, cells, pins and design-rule checks.

The LAYLA-style layout generator (placement + routing) produces
instances of these classes.  Geometry is Manhattan-only (axis-aligned
rectangles on named layers), which is all a CMOS analog block needs.
Design rules are lambda-style, derived from the technology node's
feature size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..technology.node import TechnologyNode
from ..robust.errors import ModelDomainError, RoadmapDataError


#: Drawing layers in stack order.
LAYERS = ("nwell", "active", "poly", "contact", "metal1", "via1", "metal2")


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle on one layer (units: metres)."""

    layer: str
    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ModelDomainError(
                f"unknown layer {self.layer!r}; expected one of {LAYERS}")
        if self.width <= 0 or self.height <= 0:
            raise ModelDomainError("rectangle dimensions must be positive")

    @property
    def x2(self) -> float:
        """Right edge."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top edge."""
        return self.y + self.height

    @property
    def area(self) -> float:
        """Rectangle area [m^2]."""
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        """Centre point."""
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def translated(self, dx: float, dy: float) -> "Rect":
        """A copy moved by (dx, dy)."""
        return Rect(self.layer, self.x + dx, self.y + dy,
                    self.width, self.height)

    def mirrored_x(self, axis: float) -> "Rect":
        """A copy mirrored about the vertical line x = axis."""
        return Rect(self.layer, 2.0 * axis - self.x2, self.y,
                    self.width, self.height)


@dataclass(frozen=True)
class Pin:
    """A named connection point of a cell."""

    name: str
    layer: str
    x: float
    y: float

    def translated(self, dx: float, dy: float) -> "Pin":
        """A copy moved by (dx, dy)."""
        return Pin(self.name, self.layer, self.x + dx, self.y + dy)


@dataclass
class LayoutCell:
    """A leaf cell: rectangles plus pins, origin at (0, 0)."""

    name: str
    rects: List[Rect] = field(default_factory=list)
    pins: List[Pin] = field(default_factory=list)

    def bbox(self) -> Tuple[float, float, float, float]:
        """(x1, y1, x2, y2) bounding box."""
        if not self.rects:
            return (0.0, 0.0, 0.0, 0.0)
        return (min(r.x for r in self.rects),
                min(r.y for r in self.rects),
                max(r.x2 for r in self.rects),
                max(r.y2 for r in self.rects))

    @property
    def width(self) -> float:
        """Bounding-box width."""
        x1, _, x2, _ = self.bbox()
        return x2 - x1

    @property
    def height(self) -> float:
        """Bounding-box height."""
        _, y1, _, y2 = self.bbox()
        return y2 - y1

    def pin(self, name: str) -> Pin:
        """Look up a pin by name."""
        for pin in self.pins:
            if pin.name == name:
                return pin
        raise RoadmapDataError(f"cell {self.name!r} has no pin {name!r}")


@dataclass
class Placement:
    """A cell instance at a position (optionally x-mirrored)."""

    cell: LayoutCell
    x: float
    y: float
    mirror: bool = False

    def rects(self) -> List[Rect]:
        """The instance geometry in chip coordinates."""
        x1, _, x2, _ = self.cell.bbox()
        axis = (x1 + x2) / 2.0
        out = []
        for rect in self.cell.rects:
            r = rect.mirrored_x(axis) if self.mirror else rect
            out.append(r.translated(self.x, self.y))
        return out

    def pin_position(self, name: str) -> Tuple[float, float]:
        """Chip coordinates of a pin."""
        pin = self.cell.pin(name)
        x = pin.x
        if self.mirror:
            x1, _, x2, _ = self.cell.bbox()
            x = (x1 + x2) - pin.x
        return (x + self.x, pin.y + self.y)

    def bbox(self) -> Tuple[float, float, float, float]:
        """Instance bounding box in chip coordinates."""
        x1, y1, x2, y2 = self.cell.bbox()
        return (x1 + self.x, y1 + self.y, x2 + self.x, y2 + self.y)


@dataclass(frozen=True)
class DesignRules:
    """Lambda-style rules derived from the node feature size."""

    feature: float

    @classmethod
    def for_node(cls, node: TechnologyNode) -> "DesignRules":
        """Rules for ``node``."""
        return cls(feature=node.feature_size)

    @property
    def poly_width(self) -> float:
        """Minimum poly (gate) width = drawn L."""
        return self.feature

    @property
    def contact_size(self) -> float:
        """Contact cut size."""
        return 2.0 * self.feature

    @property
    def metal_width(self) -> float:
        """Minimum metal width."""
        return 3.0 * self.feature

    @property
    def metal_spacing(self) -> float:
        """Minimum same-layer metal spacing."""
        return 3.0 * self.feature

    @property
    def cell_margin(self) -> float:
        """Keep-out margin around placed cells."""
        return 6.0 * self.feature


class Layout:
    """A placed-and-routed block: instances plus routing rectangles."""

    def __init__(self, name: str, rules: DesignRules):
        self.name = name
        self.rules = rules
        self.placements: Dict[str, Placement] = {}
        self.routes: List[Rect] = []
        self.nets: Dict[str, List[Tuple[str, str]]] = {}

    def add_instance(self, name: str, placement: Placement) -> None:
        """Place a cell instance."""
        if name in self.placements:
            raise ModelDomainError(f"instance {name!r} already placed")
        self.placements[name] = placement

    def connect(self, net: str, terminals: Iterable[Tuple[str, str]]
                ) -> None:
        """Declare a net as (instance, pin) terminal pairs."""
        self.nets.setdefault(net, []).extend(terminals)

    def all_rects(self) -> List[Rect]:
        """Every rectangle in chip coordinates."""
        rects = list(self.routes)
        for placement in self.placements.values():
            rects.extend(placement.rects())
        return rects

    def bbox(self) -> Tuple[float, float, float, float]:
        """Block bounding box."""
        rects = self.all_rects()
        if not rects:
            return (0.0, 0.0, 0.0, 0.0)
        return (min(r.x for r in rects), min(r.y for r in rects),
                max(r.x2 for r in rects), max(r.y2 for r in rects))

    def area(self) -> float:
        """Bounding-box area [m^2]."""
        x1, y1, x2, y2 = self.bbox()
        return (x2 - x1) * (y2 - y1)

    def check_overlaps(self) -> List[Tuple[str, str]]:
        """Instance-pair bounding-box overlaps (placement DRC)."""
        names = list(self.placements)
        failures = []
        for i, a in enumerate(names):
            ax1, ay1, ax2, ay2 = self.placements[a].bbox()
            for b in names[i + 1:]:
                bx1, by1, bx2, by2 = self.placements[b].bbox()
                if ax1 < bx2 and bx1 < ax2 and ay1 < by2 and by1 < ay2:
                    failures.append((a, b))
        return failures

    def wirelength(self) -> float:
        """Total half-perimeter wirelength over all nets [m]."""
        total = 0.0
        for terminals in self.nets.values():
            points = [self.placements[inst].pin_position(pin)
                      for inst, pin in terminals
                      if inst in self.placements]
            if len(points) < 2:
                continue
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            total += (max(xs) - min(xs)) + (max(ys) - min(ys))
        return total

    def to_text(self) -> str:
        """Human-readable layout dump (a GDS stand-in)."""
        lines = [f"LAYOUT {self.name}"]
        x1, y1, x2, y2 = self.bbox()
        lines.append(f"  BBOX {x1*1e6:.2f} {y1*1e6:.2f} "
                     f"{x2*1e6:.2f} {y2*1e6:.2f} um")
        for name, placement in sorted(self.placements.items()):
            lines.append(
                f"  INST {name} cell={placement.cell.name} "
                f"x={placement.x*1e6:.2f}um y={placement.y*1e6:.2f}um"
                f"{' mirrored' if placement.mirror else ''}")
        lines.append(f"  ROUTES {len(self.routes)} rects")
        lines.append(f"  NETS {len(self.nets)}")
        return "\n".join(lines)

    def to_svg(self, scale: float = 1e8) -> str:
        """Minimal SVG rendering (for eyeballing the Fig. 8 result)."""
        colors = {"nwell": "#ddddaa", "active": "#88cc88",
                  "poly": "#cc4444", "contact": "#222222",
                  "metal1": "#4466cc", "via1": "#111111",
                  "metal2": "#9944cc"}
        x1, y1, x2, y2 = self.bbox()
        width = (x2 - x1) * scale
        height = (y2 - y1) * scale
        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width:.0f}" height="{height:.0f}">']
        for rect in self.all_rects():
            parts.append(
                f'<rect x="{(rect.x - x1) * scale:.1f}" '
                f'y="{(y2 - rect.y2) * scale:.1f}" '
                f'width="{rect.width * scale:.1f}" '
                f'height="{rect.height * scale:.1f}" '
                f'fill="{colors.get(rect.layer, "#999")}" '
                f'fill-opacity="0.6"/>')
        parts.append("</svg>")
        return "\n".join(parts)
