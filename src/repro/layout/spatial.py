"""Uniform-grid spatial index over layout rectangles.

Connectivity extraction, DRC-style checks, and critical-area neighbour
queries all need "which shapes are near this one" in better than O(n^2);
a simple bucket grid is ample at this library's die sizes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

import numpy as np

from repro.layout.geometry import Rect

__all__ = ["SpatialIndex"]

#: Upper bound on the bucket-level pair visits materialised at once by
#: :meth:`SpatialIndex.candidate_pairs` (bounds its transient memory).
_PAIR_CHUNK = 1 << 19


class SpatialIndex:
    """Buckets rectangles into a uniform grid for neighbourhood queries."""

    def __init__(self, shapes: Iterable[Rect], cell_size: float = 25.0):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self.shapes: list[Rect] = list(shapes)
        self._grid: dict[tuple[int, int], list[int]] = defaultdict(list)
        for index, shape in enumerate(self.shapes):
            for key in self._keys(shape, 0.0):
                self._grid[key].append(index)

    def _keys(self, shape: Rect, margin: float) -> Iterator[tuple[int, int]]:
        x0, x1, y0, y1 = self._footprint(shape, margin)
        for gx in range(x0, x1 + 1):
            for gy in range(y0, y1 + 1):
                yield (gx, gy)

    def _footprint(self, shape: Rect, margin: float) -> tuple[int, int, int, int]:
        """Inclusive bucket range ``(x0, x1, y0, y1)`` of ``shape`` +- margin."""
        return (
            int((shape.llx - margin) // self.cell_size),
            int((shape.urx + margin) // self.cell_size),
            int((shape.lly - margin) // self.cell_size),
            int((shape.ury + margin) // self.cell_size),
        )

    def near(self, shape: Rect, margin: float = 0.0) -> list[Rect]:
        """Shapes whose bucket neighbourhood overlaps ``shape`` +- margin.

        Candidates only — callers still apply their exact predicate.
        """
        seen: set[int] = set()
        result: list[Rect] = []
        for key in self._keys(shape, margin):
            for index in self._grid.get(key, ()):  # pragma: no branch
                if index not in seen:
                    seen.add(index)
                    result.append(self.shapes[index])
        return result

    def candidate_pairs(self, margin: float = 0.0) -> Iterator[tuple[Rect, Rect]]:
        """Yield each unordered **same-layer** shape pair sharing a bucket.

        ``margin`` widens each shape's bucket footprint so near-but-not-
        touching pairs are included, which is what spacing and critical-area
        analyses need.  Pairs on different layers are never yielded: every
        caller (bridge extraction, spacing DRC, short detection) compares
        same-layer geometry only.

        Emission-order contract: each pair ``(a, b)`` is yielded exactly
        once, with ``a`` before ``b`` in :attr:`shapes`, ordered by

        1. the first bucket both footprints share, buckets ranked by when
           the shape-ordered footprint walk first touches them;
        2. then by the index of ``a``, then of ``b``.

        This is the order of a bucket-by-bucket all-pairs walk with
        first-seen de-duplication, filtered to same-layer pairs, so callers
        that accumulate per pair (fault weights) are deterministic.
        """
        first, second = self._same_layer_pairs(max(margin, 0.0))
        shapes = self.shapes
        for a, b in zip(first.tolist(), second.tolist()):
            yield shapes[a], shapes[b]

    def _same_layer_pairs(self, margin: float) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays of the pairs :meth:`candidate_pairs` yields, in order.

        Vectorised: memory is linear in the bucket memberships plus a dense
        rank grid over the footprints' bounding box of buckets.
        """
        n = len(self.shapes)
        empty = np.zeros(0, dtype=np.int64)
        if n < 2:
            return empty, empty
        x0, x1, y0, y1 = np.array(
            [self._footprint(s, margin) for s in self.shapes], dtype=np.int64
        ).T.copy()
        layer_ids: dict[object, int] = {}
        layer = np.array(
            [layer_ids.setdefault(s.layer, len(layer_ids)) for s in self.shapes],
            dtype=np.int64,
        )
        x_lo, y_lo = int(x0.min()), int(y0.min())
        n_x = int(x1.max()) - x_lo + 1
        n_y = int(y1.max()) - y_lo + 1

        # Every (shape, bucket) membership in the footprint walk's order:
        # shapes ascending, then x, then y within each shape.
        heights = y1 - y0 + 1
        counts = (x1 - x0 + 1) * heights
        owner = np.repeat(np.arange(n, dtype=np.int64), counts)
        offset = np.arange(len(owner), dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        gx = x0[owner] + offset // heights[owner]
        gy = y0[owner] + offset % heights[owner]
        bucket = (gx - x_lo) * n_y + (gy - y_lo)
        del offset

        # A bucket's rank is the position at which the walk first touches it.
        touched, first_touch = np.unique(bucket, return_index=True)
        rank = np.full(n_x * n_y, len(touched), dtype=np.int64)
        rank[touched[np.argsort(first_touch, kind="stable")]] = np.arange(
            len(touched), dtype=np.int64
        )

        # Group memberships by (layer, bucket); shapes stay ascending within.
        order = np.argsort(layer[owner] * (n_x * n_y) + bucket, kind="stable")
        owner = owner[order]
        group_key = layer[owner] * (n_x * n_y) + bucket[order]
        # A pair is kept only in the lowest-left bucket both footprints
        # share, where one of the two starts its columns and one its rows:
        # that visits each pair exactly once.
        left = gx[order] == x0[owner]
        bottom = gy[order] == y0[owner]
        del order, bucket, gx, gy
        starts = np.flatnonzero(np.r_[True, group_key[1:] != group_key[:-1]])
        ends = np.r_[starts[1:], len(owner)]
        del group_key
        # Later members of the same group each membership pairs with.
        partners = np.repeat(ends, ends - starts) - np.arange(len(owner)) - 1

        firsts: list[np.ndarray] = []
        seconds: list[np.ndarray] = []
        cumulative = np.cumsum(partners)
        lo = 0
        while lo < len(owner):
            base = int(cumulative[lo - 1]) if lo else 0
            hi = int(np.searchsorted(cumulative, base + _PAIR_CHUNK, side="right"))
            hi = max(hi, lo + 1)
            counts_chunk = partners[lo:hi]
            total = int(counts_chunk.sum())
            if total:
                entry = np.repeat(np.arange(lo, hi), counts_chunk)
                mate = (
                    entry
                    + 1
                    + np.arange(total)
                    - np.repeat(np.cumsum(counts_chunk) - counts_chunk, counts_chunk)
                )
                keep = (left[entry] | left[mate]) & (bottom[entry] | bottom[mate])
                firsts.append(owner[entry[keep]])
                seconds.append(owner[mate[keep]])
            lo = hi
        a = np.concatenate(firsts) if firsts else empty
        b = np.concatenate(seconds) if seconds else empty
        if not len(a):
            return empty, empty

        # Rank of the first bucket each pair shares: a 2-D range minimum
        # over the rectangle of buckets common to both footprints.
        first_rank = _range_min(
            rank.reshape(n_x, n_y),
            np.maximum(x0[a], x0[b]) - x_lo,
            np.minimum(x1[a], x1[b]) - x_lo,
            np.maximum(y0[a], y0[b]) - y_lo,
            np.minimum(y1[a], y1[b]) - y_lo,
        )
        order = np.argsort(a * n + b)
        order = order[np.argsort(first_rank[order], kind="stable")]
        return a[order], b[order]


def _range_min(
    grid: np.ndarray,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
) -> np.ndarray:
    """Minimum of ``grid[x_lo..x_hi, y_lo..y_hi]`` (inclusive) per query.

    A 2-D sparse table: level ``(i, j)`` holds the minimum over every
    ``2^i x 2^j`` window, so each query is the minimum of four windows.
    """
    # floor(log2(extent)), exact for integer extents below 2**53.
    kx = np.frexp((x_hi - x_lo + 1).astype(np.float64))[1] - 1
    ky = np.frexp((y_hi - y_lo + 1).astype(np.float64))[1] - 1
    levels_y = int(ky.max()) + 1
    by_level = np.argsort(kx * levels_y + ky, kind="stable")
    bounds = np.cumsum(
        np.bincount(kx * levels_y + ky, minlength=(int(kx.max()) + 1) * levels_y)
    )
    result = np.empty(len(x_lo), dtype=grid.dtype)
    row = [grid]
    for i in range(int(kx.max()) + 1):
        if i:
            prev, step = row[0], 1 << (i - 1)
            row = [np.minimum(prev[:-step], prev[step:])]
        for j in range(levels_y):
            if j:
                prev, step = row[j - 1], 1 << (j - 1)
                row.append(np.minimum(prev[:, :-step], prev[:, step:]))
            level = i * levels_y + j
            sel = by_level[(bounds[level - 1] if level else 0) : bounds[level]]
            if not len(sel):
                continue
            table = row[j]
            xa, ya = x_lo[sel], y_lo[sel]
            xb = x_hi[sel] - (1 << i) + 1
            yb = y_hi[sel] - (1 << j) + 1
            result[sel] = np.minimum(
                np.minimum(table[xa, ya], table[xa, yb]),
                np.minimum(table[xb, ya], table[xb, yb]),
            )
    return result
