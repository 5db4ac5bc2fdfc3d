"""Additional extraction-robustness tests: sabotage / failure injection.

The LVS-lite checker must actually catch broken layouts — these tests break
a good layout in controlled ways and assert the verifier reports it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.layout import (
    Layer,
    Rect,
    build_connectivity,
    verify_layout,
)
from repro.layout.design import LayoutDesign


def _clone_with_shapes(design: LayoutDesign, shapes) -> LayoutDesign:
    return LayoutDesign(
        name=design.name,
        source=design.source,
        mapped=design.mapped,
        placement=design.placement,
        plan=design.plan,
        shapes=list(shapes),
        transistors=design.transistors,
        cell_of_net=design.cell_of_net,
        row_base=design.row_base,
    )


def test_detects_split_net(c17_design):
    # Remove one routing trunk: its net must fall apart.
    shapes = list(c17_design.shapes)
    victim = next(
        s
        for s in shapes
        if s.layer is Layer.METAL1 and s.net == "G11" and s.purpose == "wire"
        and s.width > s.height  # a horizontal trunk
    )
    shapes.remove(victim)
    report = verify_layout(_clone_with_shapes(c17_design, shapes))
    assert "G11" in report.split_nets


def test_detects_merged_nets(c17_design):
    # Plant a strap connecting two different signal nets.
    shapes = list(c17_design.shapes)
    a = next(s for s in shapes if s.net == "G10" and s.layer is Layer.METAL2)
    b = next(s for s in shapes if s.net == "G11" and s.layer is Layer.METAL2)
    lo_x = min(a.llx, b.llx)
    hi_x = max(a.urx, b.urx)
    lo_y = min(a.lly, b.lly)
    hi_y = max(a.ury, b.ury)
    shapes.append(Rect(Layer.METAL2, lo_x, lo_y, hi_x, hi_y, "G10"))
    report = verify_layout(_clone_with_shapes(c17_design, shapes))
    assert report.merged_nets or report.shorts


def test_connectivity_graph_edges_sane(c17_design):
    graph = build_connectivity(c17_design.shapes)
    assert graph.n_nodes == len(c17_design.shapes)
    assert len(graph.indices)
    # Every edge joins shapes of the same net (the layout is clean), and
    # is listed from both ends.
    for i in range(graph.n_nodes):
        for j in graph.neighbors(i):
            assert c17_design.shapes[i].net == c17_design.shapes[j].net
            assert i in graph.neighbors(j)


def test_missing_via_splits_net(c17_design):
    shapes = list(c17_design.shapes)
    # Remove the first signal via found: some net must split.
    victim = next(
        s for s in shapes if s.layer is Layer.VIA and s.net not in ("VDD", "GND")
    )
    shapes.remove(victim)
    report = verify_layout(_clone_with_shapes(c17_design, shapes))
    assert victim.net in report.split_nets


def test_layout_to_fault_tail_needs_no_networkx():
    # A fresh interpreter, so that no other test's imports count.
    code = (
        "import sys\n"
        "from repro.circuit import BENCHMARKS\n"
        "from repro.defects import extract_faults\n"
        "from repro.layout import build_layout, verify_layout\n"
        "design = build_layout(BENCHMARKS['c17']())\n"
        "assert len(extract_faults(design))\n"
        "assert verify_layout(design).clean\n"
        "assert 'networkx' not in sys.modules\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
