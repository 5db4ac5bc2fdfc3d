"""The fast extraction paths against the reference implementations.

``extraction_oracle`` keeps the original all-pairs spatial walk, the
per-site breadth-first open classification and the ``near()``-walk
connectivity graph.  The same-layer pair walk, the one-pass open
classification and the CSR connectivity graph must reproduce them exactly:
the same pairs in the same order, the same neighbours in the same order,
and the same fault list down to the bits of every weight.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extraction_oracle import (
    oracle_candidate_pairs,
    oracle_check_spacing,
    oracle_connectivity,
    oracle_extract_faults,
    oracle_find_shorts,
    oracle_verify_layout,
)
from repro import obs
from repro.circuit import BENCHMARKS
from repro.defects import DefectStatistics, extract_faults
from repro.layout import Layer, Rect, SpatialIndex, build_layout
from repro.layout.drc import check_spacing
from repro.layout.extract import build_connectivity, find_shorts, verify_layout

#: Every built-in circuit once (``c432_like`` is ``c432``); c880 is covered
#: by the full-mode extraction benchmark.
_CIRCUITS = sorted(
    {
        factory: name
        for name, factory in sorted(BENCHMARKS.items(), reverse=True)
        if not name.startswith("c880")
    }.values()
)
_COUNTERS = (
    "extraction.pairs_examined",
    "extraction.bridge_sites",
    "extraction.open_sites",
    "extraction.net_passes",
)
_designs: dict = {}


def _design(name: str):
    if name not in _designs:
        _designs[name] = build_layout(BENCHMARKS[name]())
    return _designs[name]


def _signature(faults) -> list[tuple]:
    return [
        (type(f).__name__, f.key(), f.weight.hex(), f.origin) for f in faults
    ]


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    yield
    obs.disable()


@pytest.mark.parametrize("name", _CIRCUITS)
def test_fault_list_matches_oracle(name):
    design = _design(name)
    assert _signature(extract_faults(design)) == _signature(
        oracle_extract_faults(design)
    )


_LAYERS = (Layer.METAL1, Layer.METAL2, Layer.POLY, Layer.CONTACT)
_coord = st.floats(min_value=-60, max_value=120, allow_nan=False)
_extent = st.floats(min_value=0, max_value=40, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(
    rects=st.lists(
        st.tuples(
            st.sampled_from(_LAYERS),
            _coord,
            _coord,
            _extent,
            _extent,
            st.sampled_from(("", "a", "b", "c")),
        ),
        max_size=50,
    ),
    cell_size=st.floats(min_value=2.0, max_value=40.0),
    margin=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=30.0)),
)
def test_candidate_pairs_are_the_oracle_walk_restricted_to_same_layer(
    rects, cell_size, margin
):
    shapes = [Rect(layer, x, y, x + w, y + h, net) for layer, x, y, w, h, net in rects]
    index = SpatialIndex(shapes, cell_size=cell_size)
    fast = [(id(a), id(b)) for a, b in index.candidate_pairs(margin=margin)]
    reference = [
        (id(a), id(b))
        for a, b in oracle_candidate_pairs(shapes, margin=margin, cell_size=cell_size)
        if a.layer == b.layer
    ]
    assert fast == reference


_WIRING = (
    Layer.METAL1,
    Layer.METAL2,
    Layer.POLY,
    Layer.NDIFF,
    Layer.CONTACT,
    Layer.VIA,
    Layer.NWELL,
)


@settings(max_examples=80, deadline=None)
@given(
    rects=st.lists(
        st.tuples(
            st.sampled_from(_WIRING),
            _coord,
            _coord,
            _extent,
            _extent,
            st.sampled_from(("", "a", "b")),
        ),
        max_size=60,
    )
)
def test_connectivity_is_the_oracle_graph_in_neighbour_order(rects):
    shapes = [Rect(layer, x, y, x + w, y + h, net) for layer, x, y, w, h, net in rects]
    graph = build_connectivity(shapes)
    reference = oracle_connectivity(shapes)
    assert [graph.neighbors(i) for i in range(len(shapes))] == [
        reference[i] for i in range(len(shapes))
    ]


def _report(report) -> tuple:
    return (
        report.split_nets,
        report.merged_nets,
        [(id(a), id(b)) for a, b in report.shorts],
    )


def test_verify_layout_matches_oracle_on_broken_c17():
    design = _design("c17")
    via = next(
        s for s in design.shapes if s.layer is Layer.VIA and s.net not in ("VDD", "GND")
    )
    no_via = dataclasses.replace(
        design, shapes=[s for s in design.shapes if s is not via]
    )
    a = next(s for s in design.shapes if s.net == "G10" and s.layer is Layer.METAL2)
    b = next(s for s in design.shapes if s.net == "G11" and s.layer is Layer.METAL2)
    strap = Rect(
        Layer.METAL2,
        min(a.llx, b.llx),
        min(a.lly, b.lly),
        max(a.urx, b.urx),
        max(a.ury, b.ury),
        "G10",
    )
    shorted = dataclasses.replace(design, shapes=list(design.shapes) + [strap])
    for broken in (no_via, shorted):
        report = verify_layout(broken)
        assert not report.clean
        assert _report(report) == _report(oracle_verify_layout(broken))
    assert _report(verify_layout(design)) == _report(oracle_verify_layout(design))


def _sabotaged(design):
    """``design`` plus planted different-net shapes: spacing violations and
    shorts on every conductor layer, and cross-layer overlaps that are
    neither."""
    planted = []
    conductors = [s for s in design.shapes if s.layer.is_conductor and s.net]
    for k, victim in enumerate(conductors[::97]):
        net = f"INTRUDER{k}"
        near_miss = (victim.urx + 0.5, victim.lly, victim.urx + 2.0, victim.ury)
        overlap = (victim.llx, victim.lly, victim.llx + 0.5, victim.ury)
        planted.append(Rect(victim.layer, *near_miss, net))
        planted.append(Rect(victim.layer, *overlap, net))
        other = Layer.METAL2 if victim.layer is not Layer.METAL2 else Layer.METAL1
        planted.append(Rect(other, victim.llx, victim.lly, victim.urx, victim.ury, net))
    return dataclasses.replace(design, shapes=list(design.shapes) + planted)


def _violations(violations) -> list[tuple]:
    return [
        (id(v.shape_a), id(v.shape_b), v.spacing.hex(), v.required.hex())
        for v in violations
    ]


def _pairs(pairs) -> list[tuple[int, int]]:
    return [(id(a), id(b)) for a, b in pairs]


def test_c432_spacing_and_shorts_match_oracle():
    clean = _design("c432")
    sabotaged = _sabotaged(clean)
    for design in (clean, sabotaged):
        assert _violations(check_spacing(design)) == _violations(
            oracle_check_spacing(design)
        )
        assert _pairs(find_shorts(design.shapes)) == _pairs(
            oracle_find_shorts(design.shapes)
        )
    # The planted shapes really exercise both checks.
    assert check_spacing(sabotaged) and find_shorts(sabotaged.shapes)


def _counted_extraction(design) -> dict[str, int]:
    _, registry = obs.enable()
    try:
        extract_faults(design)
        return {name: registry.counter(name).value for name in _COUNTERS}
    finally:
        obs.disable()


def test_work_counters_repeat_exactly():
    design = _design("rca8")
    first = _counted_extraction(design)
    assert all(first.values()), first
    assert _counted_extraction(design) == first


def test_pairs_examined_is_the_brute_force_same_layer_count(c17_design):
    """Same-layer shape pairs whose margin-widened bucket footprints meet."""
    margin = DefectStatistics().size.x_max
    cell = SpatialIndex([]).cell_size

    def footprint(s: Rect) -> tuple[int, int, int, int]:
        return (
            int((s.llx - margin) // cell),
            int((s.urx + margin) // cell),
            int((s.lly - margin) // cell),
            int((s.ury + margin) // cell),
        )

    boxes = [footprint(s) for s in c17_design.shapes]
    brute = sum(
        1
        for (a, sa), (b, sb) in itertools.combinations(
            zip(boxes, c17_design.shapes), 2
        )
        if sa.layer == sb.layer
        and a[0] <= b[1]
        and b[0] <= a[1]
        and a[2] <= b[3]
        and b[2] <= a[3]
    )
    assert _counted_extraction(c17_design)["extraction.pairs_examined"] == brute
