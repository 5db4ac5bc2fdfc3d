"""Layout-to-circuit extraction and physical verification.

This is the "layout-level circuit description + circuit extraction rules"
half of the paper's *lift* tool:

* :func:`build_connectivity` derives the electrical connectivity graph from
  pure geometry (same-layer contact/overlap plus contact/via cuts);
* :func:`verify_layout` is an LVS-lite check: every net label forms exactly
  one connected component and no two different nets touch (a hard short);
* :func:`extract_transistors` recovers MOS devices from poly/diffusion
  adjacency and cross-checks them against the generator's netlist.

These checks run in the test suite on every generated layout, so the defect
extractor downstream can trust shape labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.layout.design import LayoutDesign
from repro.layout.geometry import Layer, Rect
from repro.layout.spatial import SpatialIndex

__all__ = [
    "ExtractedTransistor",
    "VerificationReport",
    "build_connectivity",
    "verify_layout",
    "extract_transistors",
    "find_shorts",
]

_CONDUCTORS = (Layer.NDIFF, Layer.PDIFF, Layer.POLY, Layer.METAL1, Layer.METAL2)
_CONTACT_BOTTOM = (Layer.POLY, Layer.NDIFF, Layer.PDIFF)


def build_connectivity(shapes: list[Rect]) -> nx.Graph:
    """Electrical connectivity graph over shape indices.

    Edges join same-layer shapes that touch/overlap, and conductor shapes
    joined through a contact (poly/diff <-> metal1) or via (metal1 <->
    metal2) cut that overlaps both with positive area.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(len(shapes)))
    index_of = {id(s): i for i, s in enumerate(shapes)}
    is_cut = [s.layer.is_cut for s in shapes]
    index = SpatialIndex(shapes)

    for i, shape in enumerate(shapes):
        for other in index.near(shape):
            j = index_of[id(other)]
            if j <= i:
                continue
            if shape.layer == other.layer and shape.layer in _CONDUCTORS:
                if shape.intersects(other):
                    graph.add_edge(i, j)
            elif is_cut[i] or is_cut[j]:
                cut, metal = (shape, other) if is_cut[i] else (other, shape)
                if cut.overlap_area(metal) <= 0:
                    continue
                if cut.layer is Layer.CONTACT and metal.layer in (
                    Layer.METAL1,
                    *_CONTACT_BOTTOM,
                ):
                    graph.add_edge(i, j)
                elif cut.layer is Layer.VIA and metal.layer in (
                    Layer.METAL1,
                    Layer.METAL2,
                ):
                    graph.add_edge(i, j)
    return graph


@dataclass
class VerificationReport:
    """Result of the LVS-lite pass."""

    split_nets: dict[str, int] = field(default_factory=dict)  # net -> n components
    merged_nets: list[tuple[str, str]] = field(default_factory=list)
    shorts: list[tuple[Rect, Rect]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when connectivity matches labels and no shorts exist."""
        return not self.split_nets and not self.merged_nets and not self.shorts


def find_shorts(shapes: list[Rect]) -> list[tuple[Rect, Rect]]:
    """Same-layer shape pairs of *different* nets that touch or overlap."""
    shorts = []
    index = SpatialIndex(shapes)
    for a, b in index.candidate_pairs():
        if (
            a.layer in _CONDUCTORS
            and a.net != b.net
            and a.net
            and b.net
            and a.intersects(b)
        ):
            shorts.append((a, b))
    return shorts


def verify_layout(design: LayoutDesign) -> VerificationReport:
    """Check the layout's geometry against its net labels.

    * every labelled net must form exactly one connected component;
    * no connected component may carry two different net labels;
    * no two different-net shapes on one layer may touch.
    """
    report = VerificationReport()
    shapes = design.shapes
    graph = build_connectivity(shapes)

    for component in nx.connected_components(graph):
        labels = {shapes[i].net for i in component if shapes[i].net}
        if len(labels) > 1:
            ordered = sorted(labels)
            report.merged_nets.extend(
                (ordered[0], other) for other in ordered[1:]
            )

    components_per_net: dict[str, int] = {}
    for component in nx.connected_components(graph):
        labels = {shapes[i].net for i in component if shapes[i].net}
        for label in labels:
            components_per_net[label] = components_per_net.get(label, 0) + 1
    for net, count in components_per_net.items():
        if count > 1:
            report.split_nets[net] = count

    report.shorts = find_shorts(shapes)
    return report


@dataclass(frozen=True)
class ExtractedTransistor:
    """A MOS device recovered from geometry."""

    polarity: str
    gate_net: str
    sd_nets: frozenset[str]
    x: float
    y: float


def extract_transistors(design: LayoutDesign) -> list[ExtractedTransistor]:
    """Recover transistors from poly-over-diffusion adjacency.

    A device exists wherever a poly stripe separates two source/drain
    diffusion segments that abut it from opposite sides with overlapping
    vertical extent.
    """
    polys = [s for s in design.shapes if s.layer is Layer.POLY and s.purpose == "gate"]
    diffs = [s for s in design.shapes if s.layer in (Layer.NDIFF, Layer.PDIFF)]
    diff_index = SpatialIndex(diffs)

    devices: list[ExtractedTransistor] = []
    for poly in polys:
        near = [d for d in diff_index.near(poly, margin=1.0)]
        for layer in (Layer.NDIFF, Layer.PDIFF):
            left = [
                d
                for d in near
                if d.layer is layer
                and abs(d.urx - poly.llx) < 1e-9
                and min(d.ury, poly.ury) - max(d.lly, poly.lly) > 0
            ]
            right = [
                d
                for d in near
                if d.layer is layer
                and abs(d.llx - poly.urx) < 1e-9
                and min(d.ury, poly.ury) - max(d.lly, poly.lly) > 0
            ]
            for a in left:
                for b in right:
                    y_lo = max(a.lly, b.lly, poly.lly)
                    y_hi = min(a.ury, b.ury, poly.ury)
                    if y_hi <= y_lo:
                        continue
                    devices.append(
                        ExtractedTransistor(
                            polarity="n" if layer is Layer.NDIFF else "p",
                            gate_net=poly.net,
                            sd_nets=frozenset({a.net, b.net}),
                            x=(poly.llx + poly.urx) / 2,
                            y=(y_lo + y_hi) / 2,
                        )
                    )
    return devices
