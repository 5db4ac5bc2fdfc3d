"""Layout fault extraction — the fault-extraction half of the paper's *lift*.

Walks the full-design geometry and produces the weighted realistic fault
list:

* **bridges** from same-layer proximity (facing parallel runs), with
  diffusion bridges across a transistor channel classified as stuck-on
  devices and gate-oxide shorts added per transistor channel area;
* **opens** from wire-segment breaks (each gap between a wire's connection
  points is a separate fault site), missing contacts/vias, broken diffusion
  source/drain segments, and poly gate-stripe breaks — each classified by its
  electrical consequence (floating gate inputs, floating PO observers,
  stuck-open devices, single floating transistor gates).

Every fault's weight is ``density x size-averaged critical area`` (eq. 4's
``w_j = A_j D_j``); behaviourally identical faults aggregate by summing
weights (:class:`repro.defects.fault_types.FaultList`).

Cost: bridges filter the same-layer pair walk of the spatial index as
arrays, so only bridge sites reach Python; the connectivity graph comes
from the same index as CSR arrays; opens run one depth-first lowpoint pass
per net (:class:`_NodeCuts`), which answers "what floats when this node
breaks" for every open site of the net without a search per site.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro import obs
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
from repro.layout.extract import build_connectivity
from repro.layout.geometry import Layer, Rect
from repro.layout.spatial import SpatialIndex, layer_code

__all__ = ["FaultExtractor", "extract_faults"]

_SUPPLIES = (VDD, GND)
_DIFF_LAYERS = (Layer.NDIFF, Layer.PDIFF)
_GENERIC_OPEN_LAYERS = (Layer.METAL1, Layer.METAL2)
_CONDUCTORS = frozenset(layer for layer in Layer if layer.is_conductor)


def extract_faults(
    design: LayoutDesign, statistics: DefectStatistics | None = None
) -> FaultList:
    """One-call extraction: all weighted realistic faults of ``design``."""
    return FaultExtractor(design, statistics or DefectStatistics()).extract()


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
    cuts: _NodeCuts | None = None


class _NodeCuts:
    """What stays attached to a net's anchors when any one node is removed.

    One iterative depth-first pass over the net's shape graph records each
    node's preorder number, subtree extent and lowpoint (the smallest
    preorder reachable from its subtree through one back edge).  Removing
    node ``v`` splits its component into the pieces of ``G - v``:

    * each DFS child subtree ``c`` of ``v`` with ``low[c] >= pre[v]`` (only
      ``v`` joins it to the rest), a contiguous preorder range;
    * the *rest*: the component minus ``v``'s subtree, plus the child
      subtrees that reach above ``v`` by a back edge.

    Prefix counts of anchors and sinks over preorder then say in O(1) per
    piece whether it still reaches an anchor (driver/port/rail) or a sink
    (gate input/PO port), which is what every open-site query asks.
    """

    def __init__(self, ctx: _NetContext):
        adjacency = ctx.adjacency
        pre: dict[int, int] = {}
        order: list[int] = []
        parent: list[int] = []
        low: list[int] = []
        end: list[int] = []
        children: list[list[int]] = []
        component: list[int] = []  # preorder of each node's DFS root
        for root in ctx.nodes:
            if root in pre:
                continue
            start = len(order)
            pre[root] = start
            order.append(root)
            parent.append(-1)
            low.append(start)
            end.append(0)
            children.append([])
            stack = [(start, iter(adjacency.get(root, ())))]
            while stack:
                pv, neighbours = stack[-1]
                for w in neighbours:
                    pw = pre.get(w)
                    if pw is None:
                        pw = len(order)
                        pre[w] = pw
                        order.append(w)
                        parent.append(pv)
                        low.append(pw)
                        end.append(0)
                        children.append([])
                        children[pv].append(pw)
                        stack.append((pw, iter(adjacency.get(w, ()))))
                        break
                    if pw != parent[pv] and pw < low[pv]:
                        low[pv] = pw
                else:
                    stack.pop()
                    end[pv] = len(order)
                    up = parent[pv]
                    if up >= 0 and low[pv] < low[up]:
                        low[up] = low[pv]
            component.extend([start] * (len(order) - start))
        self._pre = pre
        self._order = order
        self._low = low
        self._end = end
        self._children = children
        self._component = component
        sinks = ctx.gate_shapes | ctx.po_ports
        self._anchors = _prefix_counts(order, ctx.anchors)
        self._sinks = _prefix_counts(order, sinks)
        # Nodes of components without any anchor float whatever breaks.
        self._unanchored = [
            node
            for node in order
            if self._count(self._anchors, *self._span(pre[node])) == 0
        ]

    @staticmethod
    def _count(prefix: list[int], lo: int, hi: int) -> int:
        return prefix[hi] - prefix[lo]

    def _span(self, p: int) -> tuple[int, int]:
        """Preorder range of the component holding preorder ``p``."""
        root = self._component[p]
        return root, self._end[root]

    def _pieces(self, p: int) -> tuple[list[int], list[int]]:
        """Children of ``p`` that split off when it goes, and those that don't."""
        separated: list[int] = []
        attached: list[int] = []
        for c in self._children[p]:
            (separated if self._low[c] >= p else attached).append(c)
        return separated, attached

    def _piece_of(self, p: int, q: int) -> int:
        """The piece of ``G - node(p)`` holding preorder ``q``, named by its
        separated child, or ``-1`` for the rest of the component."""
        if not p < q < self._end[p]:
            return -1
        kids = self._children[p]
        c = kids[bisect_right(kids, q) - 1]
        return c if self._low[c] >= p else -1

    def _rest_count(self, prefix: list[int], p: int) -> int:
        lo, hi = self._span(p)
        total = self._count(prefix, lo, hi) - self._count(prefix, p, self._end[p])
        for c in self._pieces(p)[1]:
            total += self._count(prefix, c, self._end[c])
        return total

    def _reaches(self, prefix: list[int], p: int, q: int) -> bool:
        """Whether preorder ``q``'s piece of ``G - node(p)`` holds a marked node."""
        if self._component[q] != self._component[p]:
            return self._count(prefix, *self._span(q)) > 0
        piece = self._piece_of(p, q)
        if piece < 0:
            return self._rest_count(prefix, p) > 0
        return self._count(prefix, piece, self._end[piece]) > 0

    def anchored_without(self, node: int, group: list[int]) -> bool:
        """True when some node of ``group`` still reaches an anchor once
        ``node`` is removed."""
        p = self._pre[node]
        return any(self._reaches(self._anchors, p, self._pre[j]) for j in group)

    def sunk_without(self, node: int, anchor: int) -> bool:
        """True when ``anchor`` still reaches a sink once ``node`` is removed."""
        if anchor == node:
            return False
        return self._reaches(self._sinks, self._pre[node], self._pre[anchor])

    def floating_without(self, node: int) -> list[int]:
        """Nodes cut off from every anchor once ``node`` is removed."""
        p = self._pre[node]
        lo, hi = self._span(p)
        order = self._order
        floating = [n for n in self._unanchored if not lo <= self._pre[n] < hi]
        separated, attached = self._pieces(p)
        if self._rest_count(self._anchors, p) == 0:
            floating.extend(order[lo:p])
            floating.extend(order[self._end[p] : hi])
            for c in attached:
                floating.extend(order[c : self._end[c]])
        for c in separated:
            if self._count(self._anchors, c, self._end[c]) == 0:
                floating.extend(order[c : self._end[c]])
        return floating


def _pick(b: np.ndarray, a: np.ndarray, greater: bool) -> np.ndarray:
    """``b if b > a else a`` (or ``<``) elementwise: ties keep ``a``."""
    return np.where(b > a if greater else b < a, b, a)


def _prefix_counts(order: list[int], marked: set[int]) -> list[int]:
    """``prefix[k]`` = how many of ``order[:k]`` are in ``marked``."""
    prefix = [0]
    for node in order:
        prefix.append(prefix[-1] + (node in marked))
    return prefix


class FaultExtractor:
    """Stateful extractor bound to one design and one defect-density table."""

    def __init__(self, design: LayoutDesign, statistics: DefectStatistics):
        self.design = design
        self.stats = statistics
        self.size = statistics.size
        self.shapes = design.shapes
        self.index = SpatialIndex(self.shapes)
        self.graph = build_connectivity(self.shapes, self.index)
        net_ids: dict[str, int] = {"": -1}
        #: Per-shape net id (-1 for unlabelled shapes).
        self._net_id = np.array(
            [net_ids.setdefault(s.net, len(net_ids) - 1) for s in self.shapes],
            dtype=np.int64,
        )
        self._adjacent_transistors = self._map_seg_transistors()
        self._sd_pair_transistor = self._map_sd_pairs()
        self._instance_of = {t.name: t.name.rsplit(".", 1)[0] for t in design.transistors}
        self._gated_by: dict[str, list] = defaultdict(list)
        for t in design.transistors:
            self._gated_by[t.gate].append(t)
        self.open_sites = 0
        self.net_passes = 0
        self._areas: dict[tuple[float, float], float] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def extract(self) -> FaultList:
        """Run all extraction passes and return the aggregated fault list."""
        faults = FaultList()
        with obs.span(
            "defects.extract", n_shapes=len(self.shapes)
        ) as extract_span:
            with obs.span("defects.extract.bridges"):
                self.extract_bridges(faults)
            with obs.span("defects.extract.oxide_shorts"):
                self.extract_oxide_shorts(faults)
            with obs.span("defects.extract.opens"):
                self.extract_opens(faults)
            extract_span.set(n_faults=len(faults))
        obs.inc("extraction.faults_extracted", len(faults))
        if obs.is_enabled():
            for fault in faults:
                obs.observe("extraction.weights", fault.weight)
                obs.inc(f"extraction.{type(fault).__name__}")
        return faults

    # ------------------------------------------------------------------
    # Bridge extraction
    # ------------------------------------------------------------------
    def extract_bridges(self, faults: FaultList) -> None:
        """Same-layer proximity bridges (plus channel stuck-on shorts).

        The pair walk is filtered as arrays; only the bridge sites (different
        labelled nets facing each other on a conductor layer, closer than the
        largest defect) reach the per-site loop, in walk order.
        """
        margin = self.size.x_max
        index, net = self.index, self._net_id
        conductor = np.isin(
            index.layer, [layer_code(layer) for layer in _CONDUCTORS]
        )

        def site(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            na, nb = net[a], net[b]
            candidate = (na >= 0) & (nb >= 0) & (na != nb) & conductor[a]
            a, b = a[candidate], b[candidate]
            spacing, run, facing = self._facing(a, b)
            candidate[candidate] = facing & ~(spacing >= margin) & ~(run <= 0)
            return candidate

        first, second, examined = index.same_layer_pairs(margin, keep=site)
        spacings, runs, _ = self._facing(first, second)
        shapes = self.shapes
        sites = 0
        for i, j, spacing, run in zip(
            first.tolist(), second.tolist(), spacings.tolist(), runs.tolist()
        ):
            a, b = shapes[i], shapes[j]
            mech = LAYER_MECHANISMS[a.layer][0]
            weight = self.stats.density(mech) * self._area(run, spacing)
            if weight <= 0:
                continue
            sites += 1
            faults.add(self._classify_bridge(a, b, weight, mech))
        obs.inc("extraction.pairs_examined", examined)
        obs.inc("extraction.bridge_sites", sites)

    def _facing(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`facing_span` over index arrays: ``(spacing, run, facing)``,
        with spacing and run meaningful only where ``facing``."""
        index = self.index
        # The same selections as facing_span's inline min()/max().
        lo_x = _pick(index.llx[b], index.llx[a], greater=True)
        hi_x = _pick(index.urx[b], index.urx[a], greater=False)
        lo_y = _pick(index.lly[b], index.lly[a], greater=True)
        hi_y = _pick(index.ury[b], index.ury[a], greater=False)
        x_overlap = hi_x - lo_x
        y_overlap = hi_y - lo_y
        along_x = x_overlap > 0
        along_y = y_overlap > 0
        spacing = np.where(along_x, lo_y - hi_y, lo_x - hi_x)
        run = np.where(along_x, x_overlap, y_overlap)
        return spacing, run, along_x != along_y

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
        self.open_sites = self.net_passes = 0
        contexts = self._build_net_contexts()
        for ctx in contexts.values():
            self._opens_for_net(ctx, faults)
        obs.inc("extraction.open_sites", self.open_sites)
        obs.inc("extraction.net_passes", self.net_passes)

    # -- net context construction ---------------------------------------
    def _build_net_contexts(self) -> dict[str, _NetContext]:
        contexts: dict[str, _NetContext] = {}
        po_set = set(self.design.mapped.primary_outputs)
        pi_set = set(self.design.mapped.primary_inputs)

        # Same-net neighbour lists, cut from the CSR arrays in one pass.
        graph, net = self.graph, self._net_id
        rows = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
        same = net[rows] == net[graph.indices]
        neighbours = graph.indices[same].tolist()
        bounds = np.zeros(graph.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[same], minlength=graph.n_nodes), out=bounds[1:])
        bounds_list = bounds.tolist()

        for i, shape in enumerate(self.shapes):
            if not shape.net:
                continue
            ctx = contexts.setdefault(shape.net, _NetContext(name=shape.net))
            ctx.nodes.append(i)
            ctx.adjacency[i] = neighbours[bounds_list[i] : bounds_list[i + 1]]
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
                self._gate_stripe_opens(i, faults)
            elif shape.layer in _GENERIC_OPEN_LAYERS and not internal:
                self._wire_opens(ctx, i, faults)

    def _diff_open(self, shape: Rect, faults: FaultList) -> None:
        """A broken source/drain segment severs its adjacent devices."""
        mech = LAYER_MECHANISMS[shape.layer][1]
        weight = self.stats.density(mech) * self._area(
            shape.length, shape.min_dimension
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

    def _gate_stripe_opens(self, node: int, faults: FaultList) -> None:
        """Breaks along a poly gate stripe.

        Connection points: the pin contact plus each transistor channel the
        stripe forms.  A break below the lowest channel floats the whole
        input pin; a break between channels floats only the devices above it.
        """
        shape = self.shapes[node]
        mech = DefectMechanism.POLY_OPEN
        density = self.stats.density(mech)
        if density <= 0:
            return
        devices = [
            t
            for t in self._gated_by.get(shape.net, ())
            if t.channel.llx >= shape.llx - 1e-9
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
            for j in self.graph.neighbors(node)
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
                weight = density * self._area(gap, shape.width)
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
        floating = self._cuts(ctx).floating_without(node)
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
                weight = density * self._area(gap, shape.min_dimension)
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
        cuts = self._cuts(ctx)
        if cuts.anchored_without(node, left) and cuts.anchored_without(node, right):
            # Both sides independently reach anchors: check for stranded
            # anchor groups that lost every sink (partial drive loss).
            self._stranded_anchor_check(ctx, node, weight, mech, faults)
            return
        # Nodes not reachable from anchors (excluding the broken one) float.
        self._emit_open(ctx, cuts.floating_without(node), weight, mech, faults)

    def _stranded_anchor_check(
        self,
        ctx: _NetContext,
        node: int,
        weight: float,
        mech: DefectMechanism,
        faults: FaultList,
    ) -> None:
        if not ctx.gate_shapes and not ctx.po_ports:
            return
        cuts = self._cuts(ctx)
        stranded = [a for a in ctx.anchors if not cuts.sunk_without(node, a)]
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

    def _cuts(self, ctx: _NetContext) -> _NodeCuts:
        """The net's single-node-removal structure, built on first use."""
        if ctx.cuts is None:
            ctx.cuts = _NodeCuts(ctx)
            self.net_passes += 1
        return ctx.cuts

    def _emit_open(
        self,
        ctx: _NetContext,
        floating: list[int],
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

    def _area(self, length: float, gap: float) -> float:
        """:func:`average_critical_area` under this extractor's size
        distribution, memoised: a regular layout repeats a few thousand
        geometries across all its sites."""
        key = (length, gap)
        area = self._areas.get(key)
        if area is None:
            area = self._areas[key] = average_critical_area(length, gap, self.size)
        return area

    def _cell_output_of(self, transistor_name: str) -> str:
        instance = self._instance(transistor_name)
        for net, cell in self.design.cell_of_net.items():
            if cell.instance == instance:
                return net
        return GND

    @staticmethod
    def _instance(transistor_name: str) -> str:
        return transistor_name.rsplit(".", 1)[0]
