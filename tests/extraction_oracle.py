"""Reference implementations kept as test oracles for the fast extraction paths.

* :func:`oracle_candidate_pairs` is the original bucket-by-bucket all-pairs
  walk of the spatial index: it yields every pair sharing a bucket, on any
  layers, de-duplicated by a set of emitted pairs.
* :class:`OracleFaultExtractor` is the original fault extractor: it consumes
  that walk and rejects cross-layer pairs itself, and classifies every open
  site with a fresh breadth-first search over the whole net.
* :func:`oracle_check_spacing` and :func:`oracle_find_shorts` are the
  original spacing DRC and short finder over the same walk.
* :func:`oracle_connectivity` is the original connectivity builder: one
  ``near()`` query per shape, neighbour lists in edge-insertion order; and
  :func:`oracle_verify_layout` the LVS-lite check over its components.

``repro.layout.spatial`` and ``repro.defects.extraction`` must reproduce
these results exactly: the same pairs in the same order, and the same
fault list with bit-identical weights.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from repro.defects.critical_area import average_critical_area
from repro.defects.fault_types import (
    BridgeFault,
    FaultList,
    FloatingNetFault,
    TransistorGateOpen,
    TransistorStuckOn,
    TransistorStuckOpen,
)
from repro.defects.statistics import (
    LAYER_MECHANISMS,
    DefectMechanism,
    DefectStatistics,
)
from repro.layout.cells import GND, VDD
from repro.layout.design import LayoutDesign
from repro.layout.drc import PAD_CLEARANCE_RULE, SpacingViolation
from repro.layout.extract import VerificationReport
from repro.layout.geometry import DesignRules, Layer, Rect, facing_span
from repro.layout.spatial import SpatialIndex

_CONDUCTORS = (Layer.NDIFF, Layer.PDIFF, Layer.POLY, Layer.METAL1, Layer.METAL2)
_CONTACT_BOTTOM = (Layer.POLY, Layer.NDIFF, Layer.PDIFF)


def oracle_connectivity(shapes: list[Rect]) -> dict[int, list[int]]:
    """Electrical connectivity over shape indices, one ``near()`` per shape.

    Each node's neighbours are listed in insertion order: the edges of
    lower-indexed nodes first (as those nodes are visited), then the node's
    own edges in ``near()`` order.
    """
    graph: dict[int, list[int]] = {i: [] for i in range(len(shapes))}
    index_of = {id(s): i for i, s in enumerate(shapes)}
    is_cut = [s.layer.is_cut for s in shapes]
    index = SpatialIndex(shapes)

    def add_edge(i: int, j: int) -> None:
        graph[i].append(j)
        graph[j].append(i)

    for i, shape in enumerate(shapes):
        for other in index.near(shape):
            j = index_of[id(other)]
            if j <= i:
                continue
            if shape.layer == other.layer and shape.layer in _CONDUCTORS:
                if shape.intersects(other):
                    add_edge(i, j)
            elif is_cut[i] or is_cut[j]:
                cut, metal = (shape, other) if is_cut[i] else (other, shape)
                if cut.overlap_area(metal) <= 0:
                    continue
                if cut.layer is Layer.CONTACT and metal.layer in (
                    Layer.METAL1,
                    *_CONTACT_BOTTOM,
                ):
                    add_edge(i, j)
                elif cut.layer is Layer.VIA and metal.layer in (
                    Layer.METAL1,
                    Layer.METAL2,
                ):
                    add_edge(i, j)
    return graph


def oracle_candidate_pairs(
    shapes: list[Rect], margin: float = 0.0, cell_size: float = 25.0
) -> Iterator[tuple[Rect, Rect]]:
    """Every unordered shape pair sharing a bucket (with margin), any layers."""
    grid: dict[tuple[int, int], list[int]] = defaultdict(list)
    widen = margin if margin > 0.0 else 0.0
    for index, shape in enumerate(shapes):
        x0 = int((shape.llx - widen) // cell_size)
        x1 = int((shape.urx + widen) // cell_size)
        y0 = int((shape.lly - widen) // cell_size)
        y1 = int((shape.ury + widen) // cell_size)
        for gx in range(x0, x1 + 1):
            for gy in range(y0, y1 + 1):
                grid[(gx, gy)].append(index)
    emitted: set[tuple[int, int]] = set()
    for indices in grid.values():
        for i, a in enumerate(indices):
            for b in indices[i + 1 :]:
                pair = (a, b) if a < b else (b, a)
                if pair not in emitted:
                    emitted.add(pair)
                    yield shapes[pair[0]], shapes[pair[1]]


def oracle_verify_layout(design: LayoutDesign) -> VerificationReport:
    """The LVS-lite check over :func:`oracle_connectivity`'s components,
    visited in order of their lowest shape."""
    report = VerificationReport()
    shapes = design.shapes
    graph = oracle_connectivity(shapes)
    components: list[set[int]] = []
    seen: set[int] = set()
    for root in graph:
        if root in seen:
            continue
        seen.add(root)
        component, frontier = {root}, [root]
        while frontier:
            for j in graph[frontier.pop()]:
                if j not in seen:
                    seen.add(j)
                    component.add(j)
                    frontier.append(j)
        components.append(component)

    for component in components:
        labels = {shapes[i].net for i in component if shapes[i].net}
        if len(labels) > 1:
            ordered = sorted(labels)
            report.merged_nets.extend((ordered[0], other) for other in ordered[1:])
    components_per_net: dict[str, int] = {}
    for component in components:
        for label in {shapes[i].net for i in component if shapes[i].net}:
            components_per_net[label] = components_per_net.get(label, 0) + 1
    for net, count in components_per_net.items():
        if count > 1:
            report.split_nets[net] = count
    report.shorts = oracle_find_shorts(shapes)
    return report


def oracle_find_shorts(shapes: list[Rect]) -> list[tuple[Rect, Rect]]:
    """Same-layer shape pairs of *different* nets that touch or overlap."""
    shorts = []
    for a, b in oracle_candidate_pairs(shapes):
        if (
            a.layer == b.layer
            and a.layer in _CONDUCTORS
            and a.net != b.net
            and a.net
            and b.net
            and a.intersects(b)
        ):
            shorts.append((a, b))
    return shorts


def oracle_check_spacing(
    design: LayoutDesign, rules: DesignRules | None = None
) -> list[SpacingViolation]:
    """Same-layer, different-net shape pairs below minimum spacing."""
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

    conductors = [s for s in design.shapes if s.layer.is_conductor]
    for a, b in oracle_candidate_pairs(conductors, margin=max_space):
        if a.layer != b.layer or a.net == b.net or not a.net or not b.net:
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


_SUPPLIES = (VDD, GND)
_DIFF_LAYERS = (Layer.NDIFF, Layer.PDIFF)
_GENERIC_OPEN_LAYERS = (Layer.METAL1, Layer.METAL2)


def oracle_extract_faults(
    design: LayoutDesign, statistics: DefectStatistics | None = None
) -> FaultList:
    """The reference extractor's full fault list for ``design``."""
    return OracleFaultExtractor(design, statistics or DefectStatistics()).extract()


@dataclass
class _NetContext:
    """Per-net working data for open-fault analysis."""

    name: str
    nodes: list[int] = field(default_factory=list)
    adjacency: dict[int, list[int]] = field(default_factory=dict)
    anchors: set[int] = field(default_factory=set)
    gate_shapes: set[int] = field(default_factory=set)
    po_ports: set[int] = field(default_factory=set)
    diff_shapes: set[int] = field(default_factory=set)


class OracleFaultExtractor:
    """The reference extractor: all-pairs walk and one BFS per open site."""

    def __init__(self, design: LayoutDesign, statistics: DefectStatistics):
        self.design = design
        self.stats = statistics
        self.size = statistics.size
        self.shapes = design.shapes
        self.graph = oracle_connectivity(self.shapes)
        self._adjacent_transistors = self._map_seg_transistors()
        self._sd_pair_transistor = self._map_sd_pairs()
        self._instance_of = {t.name: t.name.rsplit(".", 1)[0] for t in design.transistors}
        # Work counters, defined as in the fast extractor; ``net_passes``
        # counts the whole-net searches (one per ``_bfs`` call).
        self.pairs_walked = 0
        self.pairs_examined = 0
        self.bridge_sites = 0
        self.open_sites = 0
        self.net_passes = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def extract(self) -> FaultList:
        """Run all extraction passes and return the aggregated fault list."""
        faults = FaultList()
        self.extract_bridges(faults)
        self.extract_oxide_shorts(faults)
        self.extract_opens(faults)
        return faults

    # ------------------------------------------------------------------
    # Bridge extraction
    # ------------------------------------------------------------------
    def extract_bridges(self, faults: FaultList) -> None:
        """Same-layer proximity bridges (plus channel stuck-on shorts)."""
        margin = self.size.x_max
        for a, b in oracle_candidate_pairs(self.shapes, margin=margin):
            self.pairs_walked += 1
            if a.layer != b.layer:
                continue
            self.pairs_examined += 1
            if not a.layer.is_conductor:
                continue
            if not a.net or not b.net or a.net == b.net:
                continue
            span = facing_span(a, b)
            if span is None:
                continue
            spacing, run = span
            if spacing >= margin or run <= 0:
                continue
            mech = LAYER_MECHANISMS[a.layer][0]
            weight = self.stats.density(mech) * average_critical_area(
                run, spacing, self.size
            )
            if weight <= 0:
                continue
            self.bridge_sites += 1
            fault = self._classify_bridge(a, b, weight, mech)
            faults.add(fault)

    def _classify_bridge(
        self, a: Rect, b: Rect, weight: float, mech: DefectMechanism
    ):
        # A diffusion bridge across a transistor channel conducts regardless
        # of the gate: a stuck-on device, not a node-to-node bridge.
        if (
            a.layer in _DIFF_LAYERS
            and a.owner
            and a.owner == b.owner
        ):
            t_name = self._sd_pair_transistor.get(
                (a.owner, frozenset((a.net, b.net)))
            )
            if t_name is not None:
                return TransistorStuckOn(
                    weight=weight,
                    origin=(mech,),
                    transistor=t_name,
                    instance=a.owner,
                )
        return BridgeFault(weight=weight, origin=(mech,), net_a=a.net, net_b=b.net)

    def extract_oxide_shorts(self, faults: FaultList) -> None:
        """Gate-oxide pinholes: gate net bridged to the channel region.

        Modelled as a bridge between the gate net and the device's most
        external source/drain terminal (drain preferred; falls back through
        source to the driving cell's output net for fully internal devices).
        """
        density = self.stats.density(DefectMechanism.GATE_OXIDE_SHORT)
        if density <= 0:
            return
        for t in self.design.transistors:
            weight = density * t.channel.area
            other = t.drain if "#" not in t.drain else t.source
            if "#" in other:
                other = self._cell_output_of(t.name)
            if other == t.gate:
                continue
            faults.add(
                BridgeFault(
                    weight=weight,
                    origin=(DefectMechanism.GATE_OXIDE_SHORT,),
                    net_a=t.gate,
                    net_b=other,
                )
            )

    # ------------------------------------------------------------------
    # Open extraction
    # ------------------------------------------------------------------
    def extract_opens(self, faults: FaultList) -> None:
        """All open mechanisms, classified per electrical consequence."""
        contexts = self._build_net_contexts()
        for ctx in contexts.values():
            self._opens_for_net(ctx, faults)

    # -- net context construction ---------------------------------------
    def _build_net_contexts(self) -> dict[str, _NetContext]:
        contexts: dict[str, _NetContext] = {}
        po_set = set(self.design.mapped.primary_outputs)
        pi_set = set(self.design.mapped.primary_inputs)

        for i, shape in enumerate(self.shapes):
            if not shape.net:
                continue
            ctx = contexts.setdefault(shape.net, _NetContext(name=shape.net))
            ctx.nodes.append(i)
            ctx.adjacency[i] = [
                j for j in self.graph[i] if self.shapes[j].net == shape.net
            ]
            if shape.purpose == "gate":
                ctx.gate_shapes.add(i)
            if shape.purpose == "port" and shape.net in po_set:
                ctx.po_ports.add(i)
            if shape.layer in _DIFF_LAYERS and shape.owner:
                ctx.diff_shapes.add(i)

        for net, ctx in contexts.items():
            if net in _SUPPLIES:
                ctx.anchors = {
                    i
                    for i in ctx.nodes
                    if self.shapes[i].layer is Layer.METAL2 and not self.shapes[i].owner
                }
            elif net in pi_set:
                ctx.anchors = {
                    i for i in ctx.nodes if self.shapes[i].purpose == "port"
                }
            else:
                driver = self.design.cell_of_net.get(net)
                if driver is not None:
                    ctx.anchors = {
                        i
                        for i in ctx.diff_shapes
                        if self.shapes[i].owner == driver.instance
                    }
            # Internal cell nets have no anchors; they are handled by the
            # diffusion-segment pass, not the graph pass.
        return contexts

    # -- per-net analysis --------------------------------------------------
    def _opens_for_net(self, ctx: _NetContext, faults: FaultList) -> None:
        internal = "#" in ctx.name
        for i in ctx.nodes:
            shape = self.shapes[i]
            if shape.layer in _DIFF_LAYERS:
                self._diff_open(shape, faults)
            elif shape.layer.is_cut:
                self._cut_open(ctx, i, faults)
            elif shape.layer is Layer.POLY and shape.purpose == "gate":
                self._gate_stripe_opens(shape, faults)
            elif shape.layer in _GENERIC_OPEN_LAYERS and not internal:
                self._wire_opens(ctx, i, faults)

    def _diff_open(self, shape: Rect, faults: FaultList) -> None:
        """A broken source/drain segment severs its adjacent devices."""
        mech = LAYER_MECHANISMS[shape.layer][1]
        weight = self.stats.density(mech) * average_critical_area(
            shape.length, shape.min_dimension, self.size
        )
        if weight <= 0:
            return
        self.open_sites += 1
        affected = self._adjacent_transistors.get(id(shape), ())
        if affected:
            faults.add(
                TransistorStuckOpen(
                    weight=weight,
                    origin=(mech,),
                    transistors=tuple(sorted(affected)),
                    instance=shape.owner,
                )
            )

    def _gate_stripe_opens(self, shape: Rect, faults: FaultList) -> None:
        """Breaks along a poly gate stripe.

        Connection points: the pin contact plus each transistor channel the
        stripe forms.  A break below the lowest channel floats the whole
        input pin; a break between channels floats only the devices above it.
        """
        mech = DefectMechanism.POLY_OPEN
        density = self.stats.density(mech)
        if density <= 0:
            return
        devices = [
            t
            for t in self.design.transistors
            if t.gate == shape.net
            and t.channel.llx >= shape.llx - 1e-9
            and t.channel.urx <= shape.urx + 1e-9
            and t.channel.lly >= shape.lly - 1e-9
            and t.channel.ury <= shape.ury + 1e-9
        ]
        if not devices:
            return
        instance = self._instance_of.get(devices[0].name, shape.owner)
        # Connection intervals along y: contacts first, then channels.
        contacts = [
            (self.shapes[j].lly, self.shapes[j].ury)
            for j in self.graph[self._index_of(shape)]
            if self.shapes[j].layer is Layer.CONTACT
        ]
        channels = sorted(
            ((t.channel.lly, t.channel.ury, t) for t in devices),
            key=lambda item: item[0],
        )
        if not contacts:
            return
        contact_top = max(c[1] for c in contacts)

        prev_top = contact_top
        floating_above: list = [t for _, __, t in channels]
        for lly, ury, device in channels:
            gap = lly - prev_top
            if gap > 0:
                weight = density * average_critical_area(
                    gap, shape.width, self.size
                )
                if weight > 0:
                    self.open_sites += 1
                    if len(floating_above) == len(devices):
                        faults.add(
                            FloatingNetFault(
                                weight=weight,
                                origin=(mech,),
                                net=shape.net,
                                floating_inputs=((instance, shape.net),),
                            )
                        )
                    elif len(floating_above) == 1:
                        faults.add(
                            TransistorGateOpen(
                                weight=weight,
                                origin=(mech,),
                                transistor=floating_above[0].name,
                                instance=instance,
                            )
                        )
                    else:
                        faults.add(
                            TransistorStuckOpen(
                                weight=weight,
                                origin=(mech,),
                                transistors=tuple(
                                    sorted(t.name for t in floating_above)
                                ),
                                instance=instance,
                            )
                        )
            prev_top = max(prev_top, ury)
            floating_above = floating_above[1:]

    def _cut_open(self, ctx: _NetContext, node: int, faults: FaultList) -> None:
        """A missing contact or via."""
        shape = self.shapes[node]
        mech = (
            DefectMechanism.CONTACT_OPEN
            if shape.layer is Layer.CONTACT
            else DefectMechanism.VIA_OPEN
        )
        weight = self.stats.density(mech)
        if weight <= 0 or not ctx.anchors:
            return
        self.open_sites += 1
        reach = self._bfs(ctx, ctx.anchors, removed=frozenset((node,)))
        floating = set(ctx.nodes) - reach - {node}
        self._emit_open(ctx, floating, weight, mech, faults)

    def _wire_opens(self, ctx: _NetContext, node: int, faults: FaultList) -> None:
        """Breaks along a metal wire: one fault per inter-connection gap."""
        shape = self.shapes[node]
        mech = LAYER_MECHANISMS[shape.layer][1]
        density = self.stats.density(mech)
        if density <= 0 or not ctx.anchors:
            return
        neighbours = ctx.adjacency.get(node, [])
        if len(neighbours) < 2:
            return
        horizontal = shape.width >= shape.height
        span_of = (
            (lambda r: (max(r.llx, shape.llx), min(r.urx, shape.urx)))
            if horizontal
            else (lambda r: (max(r.lly, shape.lly), min(r.ury, shape.ury)))
        )
        marks = sorted(
            (span_of(self.shapes[j]) + (j,) for j in neighbours),
            key=lambda item: item[0],
        )
        prev_hi = marks[0][1]
        left: list[int] = [marks[0][2]]
        for lo, hi, j in marks[1:]:
            gap = lo - prev_hi
            if gap > 0:
                weight = density * average_critical_area(
                    gap, shape.min_dimension, self.size
                )
                if weight > 0:
                    right = [m[2] for m in marks if m[2] not in left]
                    self._split_open(ctx, node, left, right, weight, mech, faults)
            left.append(j)
            prev_hi = max(prev_hi, hi)

    def _split_open(
        self,
        ctx: _NetContext,
        node: int,
        left: list[int],
        right: list[int],
        weight: float,
        mech: DefectMechanism,
        faults: FaultList,
    ) -> None:
        """Open splitting ``node`` with its neighbours divided left/right."""
        self.open_sites += 1
        removed = frozenset((node,))
        anchors = ctx.anchors
        # Seed from anchor-side: anchors themselves plus whichever side of
        # the split they reach.
        reach = self._bfs(ctx, anchors, removed=removed)
        floating = set()
        anchor_sides = {"left": False, "right": False}
        for group, name in ((left, "left"), (right, "right")):
            if any(j in reach for j in group):
                anchor_sides[name] = True
        if anchor_sides["left"] and anchor_sides["right"]:
            # Both sides independently reach anchors: check for stranded
            # anchor groups that lost every sink (partial drive loss).
            self._stranded_anchor_check(ctx, node, weight, mech, faults)
            return
        # Nodes not reachable from anchors (excluding the broken one) float.
        floating = set(ctx.nodes) - reach - {node}
        self._emit_open(ctx, floating, weight, mech, faults)

    def _stranded_anchor_check(
        self,
        ctx: _NetContext,
        node: int,
        weight: float,
        mech: DefectMechanism,
        faults: FaultList,
    ) -> None:
        sinks = ctx.gate_shapes | ctx.po_ports
        if not sinks:
            return
        reach_from_sinks = self._bfs(ctx, sinks, removed=frozenset((node,)))
        stranded = [a for a in ctx.anchors if a not in reach_from_sinks]
        if not stranded:
            return
        devices: set[str] = set()
        for a in stranded:
            devices.update(self._adjacent_transistors.get(id(self.shapes[a]), ()))
        if devices:
            faults.add(
                TransistorStuckOpen(
                    weight=weight,
                    origin=(mech,),
                    transistors=tuple(sorted(devices)),
                    instance=self.shapes[stranded[0]].owner,
                )
            )

    def _emit_open(
        self,
        ctx: _NetContext,
        floating: set[int],
        weight: float,
        mech: DefectMechanism,
        faults: FaultList,
    ) -> None:
        if not floating:
            return
        floating_inputs: set[tuple[str, str]] = set()
        stuck_open: set[str] = set()
        floats_po = False
        for i in floating:
            shape = self.shapes[i]
            if i in ctx.gate_shapes:
                floating_inputs.add((shape.owner, ctx.name))
            elif i in ctx.po_ports:
                floats_po = True
            elif i in ctx.diff_shapes:
                stuck_open.update(self._adjacent_transistors.get(id(shape), ()))
        if not floating_inputs and not stuck_open and not floats_po:
            return
        faults.add(
            FloatingNetFault(
                weight=weight,
                origin=(mech,),
                net=ctx.name,
                floating_inputs=tuple(sorted(floating_inputs)),
                floats_output_port=floats_po,
                stuck_open=tuple(sorted(stuck_open)),
            )
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _bfs(
        self, ctx: _NetContext, seeds: set[int], removed: frozenset[int]
    ) -> set[int]:
        self.net_passes += 1
        seen = set(s for s in seeds if s not in removed)
        stack = list(seen)
        while stack:
            current = stack.pop()
            for nxt in ctx.adjacency.get(current, ()):  # pragma: no branch
                if nxt not in seen and nxt not in removed:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def _map_seg_transistors(self) -> dict[int, tuple[str, ...]]:
        """id(diff shape) -> names of devices horizontally adjacent to it."""
        by_owner: dict[str, list] = defaultdict(list)
        for t in self.design.transistors:
            by_owner[self._instance(t.name)].append(t)
        mapping: dict[int, tuple[str, ...]] = {}
        for shape in self.shapes:
            if shape.layer not in _DIFF_LAYERS or not shape.owner:
                continue
            polarity = "n" if shape.layer is Layer.NDIFF else "p"
            names = []
            for t in by_owner.get(shape.owner, ()):  # pragma: no branch
                if t.polarity != polarity:
                    continue
                ch = t.channel
                touches = (
                    abs(ch.llx - shape.urx) < 1e-6 or abs(ch.urx - shape.llx) < 1e-6
                )
                y_overlap = min(ch.ury, shape.ury) - max(ch.lly, shape.lly) > 0
                if touches and y_overlap:
                    names.append(t.name)
            if names:
                mapping[id(shape)] = tuple(sorted(names))
        return mapping

    def _map_sd_pairs(self) -> dict[tuple[str, frozenset], str]:
        mapping: dict[tuple[str, frozenset], str] = {}
        for t in self.design.transistors:
            key = (self._instance(t.name), frozenset((t.source, t.drain)))
            mapping.setdefault(key, t.name)
        return mapping

    def _cell_output_of(self, transistor_name: str) -> str:
        instance = self._instance(transistor_name)
        for net, cell in self.design.cell_of_net.items():
            if cell.instance == instance:
                return net
        return GND

    @staticmethod
    def _instance(transistor_name: str) -> str:
        return transistor_name.rsplit(".", 1)[0]

    def _index_of(self, shape: Rect) -> int:
        if not hasattr(self, "_id_index"):
            self._id_index = {id(s): i for i, s in enumerate(self.shapes)}
        return self._id_index[id(shape)]
