"""Physical-design substrate: geometry, cells, placement, routing, assembly."""

from repro.layout.cells import (
    CELL_HEIGHT,
    GND,
    VDD,
    CellLayout,
    Transistor,
    build_cell,
    build_cells,
)
from repro.layout.design import LayoutDesign, build_layout
from repro.layout.drc import SpacingViolation, check_spacing
from repro.layout.extract import (
    Connectivity,
    ExtractedTransistor,
    VerificationReport,
    build_connectivity,
    extract_transistors,
    find_shorts,
    verify_layout,
)
from repro.layout.geometry import DesignRules, Layer, Rect, bounding_box, facing_span
from repro.layout.placement import PlacedCell, Placement, place
from repro.layout.routing import NetRoute, PinRef, RoutingPlan, route
from repro.layout.spatial import SpatialIndex
from repro.layout.techmap import MAX_CELL_FANIN, techmap

__all__ = [
    "CELL_HEIGHT",
    "CellLayout",
    "Connectivity",
    "DesignRules",
    "ExtractedTransistor",
    "GND",
    "Layer",
    "LayoutDesign",
    "MAX_CELL_FANIN",
    "NetRoute",
    "PinRef",
    "PlacedCell",
    "Placement",
    "Rect",
    "RoutingPlan",
    "SpacingViolation",
    "SpatialIndex",
    "Transistor",
    "VDD",
    "VerificationReport",
    "bounding_box",
    "build_cell",
    "build_cells",
    "build_connectivity",
    "build_layout",
    "check_spacing",
    "extract_transistors",
    "facing_span",
    "find_shorts",
    "place",
    "route",
    "techmap",
    "verify_layout",
]
