"""Layout-to-circuit extraction and physical verification.

This is the "layout-level circuit description + circuit extraction rules"
half of the paper's *lift* tool:

* :func:`build_connectivity` derives the electrical connectivity graph from
  pure geometry (same-layer contact/overlap plus contact/via cuts), as CSR
  arrays built from the spatial index's vectorised pair walks;
* :func:`verify_layout` is an LVS-lite check: every net label forms exactly
  one connected component and no two different nets touch (a hard short);
* :func:`extract_transistors` recovers MOS devices from poly/diffusion
  adjacency and cross-checks them against the generator's netlist.

These checks run in the test suite on every generated layout, so the defect
extractor downstream can trust shape labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.layout.design import LayoutDesign
from repro.layout.geometry import Layer, Rect
from repro.layout.spatial import SpatialIndex, layer_code

__all__ = [
    "Connectivity",
    "ExtractedTransistor",
    "VerificationReport",
    "build_connectivity",
    "verify_layout",
    "extract_transistors",
    "find_shorts",
]

_CONDUCTORS = (Layer.NDIFF, Layer.PDIFF, Layer.POLY, Layer.METAL1, Layer.METAL2)
_CONTACT_BOTTOM = (Layer.POLY, Layer.NDIFF, Layer.PDIFF)
#: Each cut layer and the layers it joins.
_LANDINGS = (
    (Layer.CONTACT, (Layer.METAL1, *_CONTACT_BOTTOM)),
    (Layer.VIA, (Layer.METAL1, Layer.METAL2)),
)


@dataclass(frozen=True)
class Connectivity:
    """Undirected shape connectivity as CSR arrays.

    Node ``k``'s neighbours are ``indices[indptr[k]:indptr[k + 1]]``: first
    the lower-indexed ones, ascending; then the higher-indexed ones ordered
    by the first bucket they share with ``k`` in ``k``'s x-then-y footprint
    walk, then by index (the order of :meth:`SpatialIndex.near`).
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Number of shapes."""
        return len(self.indptr) - 1

    def neighbors(self, node: int) -> list[int]:
        """Neighbours of ``node``, in the order above."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]].tolist()

    def components(self) -> np.ndarray:
        """Connected-component label of every node."""
        data = np.ones(len(self.indices), dtype=np.int8)
        matrix = csr_matrix(
            (data, self.indices, self.indptr), shape=(self.n_nodes, self.n_nodes)
        )
        return connected_components(matrix, directed=False)[1]


def build_connectivity(
    shapes: list[Rect], index: SpatialIndex | None = None
) -> Connectivity:
    """Electrical connectivity over shape indices.

    Edges join same-layer conductor shapes that touch/overlap, and conductor
    shapes joined through a contact (poly/diff <-> metal1) or via (metal1 <->
    metal2) cut that overlaps both with positive area.  ``index`` is a
    :class:`SpatialIndex` over ``shapes`` to reuse, if the caller has one.
    """
    if index is None:
        index = SpatialIndex(shapes)
    llx, lly, urx, ury = index.llx, index.lly, index.urx, index.ury
    conductor = np.isin(index.layer, [layer_code(layer) for layer in _CONDUCTORS])

    def touching(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (
            conductor[a]
            & (llx[a] <= urx[b])
            & (llx[b] <= urx[a])
            & (lly[a] <= ury[b])
            & (lly[b] <= ury[a])
        )

    def overlapping(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # ``Rect.overlap_area(...) > 0``, with its arithmetic.
        w = np.minimum(urx[a], urx[b]) - np.maximum(llx[a], llx[b])
        h = np.minimum(ury[a], ury[b]) - np.maximum(lly[a], lly[b])
        return np.maximum(0.0, w) * np.maximum(0.0, h) > 0

    lo, hi, _ = index.same_layer_pairs(keep=touching)
    firsts, seconds = [lo], [hi]
    for cut, landings in _LANDINGS:
        a, b = index.cross_pairs(
            np.flatnonzero(index.layer == layer_code(cut)),
            np.flatnonzero(np.isin(index.layer, [layer_code(x) for x in landings])),
            keep=overlapping,
        )
        firsts.append(np.minimum(a, b))
        seconds.append(np.maximum(a, b))
    lo, hi = np.concatenate(firsts), np.concatenate(seconds)

    # Row ``hi`` lists ``lo`` among its lower neighbours; row ``lo`` lists
    # ``hi`` among its upper ones, at the first bucket both share.
    x0, _, y0, _ = index.footprints(0.0)
    n_edges = len(lo)
    rows = np.concatenate((hi, lo))
    cols = np.concatenate((lo, hi))
    upper = np.repeat(np.array([0, 1], dtype=np.int64), n_edges)
    bx = np.concatenate((np.zeros(n_edges, np.int64), np.maximum(x0[lo], x0[hi])))
    by = np.concatenate((np.zeros(n_edges, np.int64), np.maximum(y0[lo], y0[hi])))
    order = np.lexsort((cols, by, bx, upper, rows))
    indptr = np.zeros(len(index.shapes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(index.shapes)), out=indptr[1:])
    return Connectivity(indptr, cols[order])


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
    labels = build_connectivity(shapes).components()

    # The distinct (component, net) labellings, components in order of
    # their lowest shape.
    nets_of: dict[int, set[str]] = {}
    for component, shape in zip(labels.tolist(), shapes):
        nets = nets_of.setdefault(component, set())
        if shape.net:
            nets.add(shape.net)
    components_per_net: dict[str, int] = {}
    for nets in nets_of.values():
        if len(nets) > 1:
            ordered = sorted(nets)
            report.merged_nets.extend((ordered[0], other) for other in ordered[1:])
        for net in nets:
            components_per_net[net] = components_per_net.get(net, 0) + 1
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
