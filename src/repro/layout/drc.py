"""Design-rule spacing checks.

The LVS-lite pass (:mod:`repro.layout.extract`) guarantees *electrical*
correctness — no shorts, no splits.  This module adds the geometric check:
same-layer shapes of different nets must keep the technology's minimum
spacing.  The generators are designed to be spacing-clean; the test suite
asserts it, and the checker doubles as a diagnostic when modifying the cell
template or router.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.layout.design import LayoutDesign
from repro.layout.geometry import DesignRules, Rect
from repro.layout.spatial import SpatialIndex

__all__ = ["SpacingViolation", "check_spacing"]


@dataclass(frozen=True)
class SpacingViolation:
    """One pair of different-net shapes closer than the layer's rule."""

    shape_a: Rect
    shape_b: Rect
    spacing: float
    required: float

    @property
    def severity(self) -> float:
        """1 - spacing/required: 0 at the rule edge, 1 at contact."""
        return 1.0 - self.spacing / self.required


#: Metal1 clearance between a pin pad and neighbouring cell metal — real
#: rule decks carry a separate (smaller) pad-clearance rule.
PAD_CLEARANCE_RULE = 1.0


def check_spacing(
    design: LayoutDesign, rules: DesignRules | None = None
) -> list[SpacingViolation]:
    """Find same-layer, different-net shape pairs below minimum spacing.

    Only conductor layers are checked (cut layers sit inside conductor
    geometry by construction).  Touching/overlapping pairs are *shorts* and
    the LVS pass reports those; they appear here with spacing 0.

    Two technology-intent waivers apply:

    * source/drain diffusion segments flanking the same transistor channel —
      the drawn masks have *continuous* diffusion there, the gap is the
      gate, not a spacing site;
    * metal1 involving a pin pad uses the (smaller) pad-clearance rule.
    """
    rules = rules or DesignRules()
    violations: list[SpacingViolation] = []
    max_space = max(
        rules.min_space(layer)
        for layer in {s.layer for s in design.shapes if s.layer.is_conductor}
    )
    channels = [t.channel for t in design.transistors]
    channel_index = SpatialIndex(channels) if channels else None

    def separated_by_channel(a: Rect, b: Rect) -> bool:
        if channel_index is None:
            return False
        # Gap band between the two rects (works for the x-separated S/D case).
        lo_x = min(a.urx, b.urx)
        hi_x = max(a.llx, b.llx)
        lo_y = max(a.lly, b.lly)
        hi_y = min(a.ury, b.ury)
        if hi_x <= lo_x or hi_y <= lo_y:
            return False
        band = Rect(a.layer, lo_x, lo_y, hi_x, hi_y)
        return any(
            ch.intersects(band) and ch.overlap_area(band) > 0
            for ch in channel_index.near(band)
        )

    index = SpatialIndex([s for s in design.shapes if s.layer.is_conductor])
    for a, b in index.candidate_pairs(margin=max_space):
        if a.net == b.net or not a.net or not b.net:
            continue
        required = rules.min_space(a.layer)
        if "pin" in (a.purpose, b.purpose):
            required = min(required, PAD_CLEARANCE_RULE)
        spacing = a.distance_to(b)
        if spacing >= required - 1e-9:
            continue
        if a.layer.value.endswith("diff") and separated_by_channel(a, b):
            continue
        violations.append(SpacingViolation(a, b, spacing, required))
    violations.sort(key=lambda v: -v.severity)
    return violations
