"""Uniform-grid spatial index over layout rectangles.

Bridge extraction, connectivity, spacing DRC and short detection all need
"which shapes are near which" in better than O(n^2); a uniform bucket grid
is ample at this library's die sizes.  Those bulk callers take whole pair
walks as index arrays (:meth:`SpatialIndex.same_layer_pairs` and
:meth:`SpatialIndex.cross_pairs`); :meth:`SpatialIndex.near` answers
one-off neighbourhood queries from a Python bucket grid built on first use.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.layout.geometry import Layer, Rect

__all__ = ["SpatialIndex", "layer_code"]

#: Upper bound on the bucket-level pair visits materialised at once by the
#: pair walks (bounds their transient memory).
_PAIR_CHUNK = 1 << 19

_LAYER_CODE = {layer: code for code, layer in enumerate(Layer)}

#: ``keep(a, b)``: a boolean mask over index-array pairs.
PairFilter = Callable[[np.ndarray, np.ndarray], np.ndarray]


def layer_code(layer: Layer) -> int:
    """The integer code :attr:`SpatialIndex.layer` uses for ``layer``."""
    return _LAYER_CODE[layer]


class SpatialIndex:
    """Buckets rectangles into a uniform grid for neighbourhood queries.

    The shapes' geometry is also held as columns (:attr:`llx`, :attr:`lly`,
    :attr:`urx`, :attr:`ury`, :attr:`layer`), so that callers can filter
    pair walks as arrays.
    """

    def __init__(self, shapes: Iterable[Rect], cell_size: float = 25.0):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self.shapes: list[Rect] = list(shapes)
        table = np.array(
            [
                (s.llx, s.lly, s.urx, s.ury, _LAYER_CODE[s.layer])
                for s in self.shapes
            ],
            dtype=np.float64,
        ).reshape(-1, 5)
        self.llx, self.lly, self.urx, self.ury = table[:, :4].T.copy()
        self.layer = table[:, 4].astype(np.int64)
        self._grid: dict[tuple[int, int], list[int]] | None = None

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

    def footprints(
        self, margin: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_footprint` of every shape, as ``x0, x1, y0, y1`` columns.

        ``np.floor_divide`` on floats is Python's ``//``, so the buckets are
        the ones :meth:`near` walks.
        """
        cell = self.cell_size
        return (
            np.floor_divide(self.llx - margin, cell).astype(np.int64),
            np.floor_divide(self.urx + margin, cell).astype(np.int64),
            np.floor_divide(self.lly - margin, cell).astype(np.int64),
            np.floor_divide(self.ury + margin, cell).astype(np.int64),
        )

    def near(self, shape: Rect, margin: float = 0.0) -> list[Rect]:
        """Shapes whose bucket neighbourhood overlaps ``shape`` +- margin.

        Candidates only — callers still apply their exact predicate.
        """
        if self._grid is None:
            self._grid = defaultdict(list)
            for index, member in enumerate(self.shapes):
                for key in self._keys(member, 0.0):
                    self._grid[key].append(index)
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

        The pairs of :meth:`same_layer_pairs`, in its order, as shapes.
        """
        first, second, _ = self.same_layer_pairs(margin)
        shapes = self.shapes
        for a, b in zip(first.tolist(), second.tolist()):
            yield shapes[a], shapes[b]

    def same_layer_pairs(
        self, margin: float = 0.0, keep: PairFilter | None = None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Index arrays of the same-layer pairs sharing a bucket, in order.

        ``margin`` widens each shape's bucket footprint so near-but-not-
        touching pairs are included, which is what spacing and critical-area
        analyses need.  Pairs on different layers are never included: those
        callers compare same-layer geometry only.

        Emission-order contract: each pair ``(a, b)`` appears exactly once,
        with ``a < b``, ordered by

        1. the first bucket both footprints share, buckets ranked by when
           the shape-ordered footprint walk first touches them;
        2. then by ``a``, then by ``b``.

        This is the order of a bucket-by-bucket all-pairs walk with
        first-seen de-duplication, filtered to same-layer pairs, so callers
        that accumulate per pair (fault weights) are deterministic.

        ``keep``, when given, drops pairs before they are ordered; the
        survivors keep their relative order.  The third value is the number
        of pairs walked before ``keep``.

        Vectorised: memory is linear in the bucket memberships plus a dense
        rank grid over the footprints' bounding box of buckets.
        """
        n = len(self.shapes)
        empty = np.zeros(0, dtype=np.int64)
        if n < 2:
            return empty, empty, 0
        x0, x1, y0, y1 = self.footprints(max(margin, 0.0))
        x_lo, y_lo = int(x0.min()), int(y0.min())
        n_x = int(x1.max()) - x_lo + 1
        n_y = int(y1.max()) - y_lo + 1

        owner, gx, gy = _memberships(x0, x1, y0, y1, np.arange(n, dtype=np.int64))
        bucket = (gx - x_lo) * n_y + (gy - y_lo)

        # A bucket's rank is the position at which the walk first touches it.
        touched, first_touch = np.unique(bucket, return_index=True)
        rank = np.full(n_x * n_y, len(touched), dtype=np.int64)
        rank[touched[np.argsort(first_touch, kind="stable")]] = np.arange(
            len(touched), dtype=np.int64
        )

        # Group memberships by (layer, bucket); shapes stay ascending within.
        layer = self.layer
        order = np.argsort(layer[owner] * (n_x * n_y) + bucket, kind="stable")
        owner = owner[order]
        group_key = layer[owner] * (n_x * n_y) + bucket[order]
        left = gx[order] == x0[owner]
        bottom = gy[order] == y0[owner]
        del order, bucket, gx, gy
        starts = np.flatnonzero(np.r_[True, group_key[1:] != group_key[:-1]])
        ends = np.r_[starts[1:], len(owner)]
        del group_key
        # Each membership pairs with the later members of its group.
        lo = np.arange(1, len(owner) + 1, dtype=np.int64)
        hi = np.repeat(ends, ends - starts)
        a, b, walked = _bucket_pairs(owner, left, bottom, lo, hi, keep)
        if not len(a):
            return empty, empty, walked

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
        return a[order], b[order], walked

    def cross_pairs(
        self,
        first: np.ndarray,
        second: np.ndarray,
        keep: PairFilter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pairs ``(i, j)``, ``i`` in ``first`` and ``j`` in ``second``,
        whose footprints (no margin) share a bucket, each once.

        ``first`` and ``second`` are disjoint index arrays; the pairs come
        in no particular order.  ``keep`` filters them as in
        :meth:`same_layer_pairs`.
        """
        empty = np.zeros(0, dtype=np.int64)
        if not len(first) or not len(second):
            return empty, empty
        x0, x1, y0, y1 = self.footprints(0.0)
        rows = np.concatenate((first, second)).astype(np.int64)
        member, gx, gy = _memberships(x0, x1, y0, y1, rows)
        owner = rows[member]
        x_lo, y_lo = int(x0[rows].min()), int(y0[rows].min())
        n_y = int(y1[rows].max()) - y_lo + 1
        # Group by bucket, ``first`` members before ``second`` members.
        key = ((gx - x_lo) * n_y + (gy - y_lo)) * 2 + (member >= len(first))
        order = np.argsort(key, kind="stable")
        key = key[order]
        owner = owner[order]
        left = gx[order] == x0[owner]
        bottom = gy[order] == y0[owner]
        # A ``first`` member pairs with its bucket's ``second`` members.
        lo = np.searchsorted(key, key | 1)
        hi = np.where(key & 1, lo, np.searchsorted(key, (key | 1) + 1))
        a, b, _ = _bucket_pairs(owner, left, bottom, lo, hi, keep)
        return a, b


def _memberships(
    x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every bucket membership of the ``rows``' footprints, in walk order
    (``rows`` in order, then x, then y): the position in ``rows`` of its
    shape, and the bucket's x and y."""
    heights = y1[rows] - y0[rows] + 1
    counts = (x1[rows] - x0[rows] + 1) * heights
    member = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    offset = np.arange(len(member), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    owner = rows[member]
    height = heights[member]
    return member, x0[owner] + offset // height, y0[owner] + offset % height


def _bucket_pairs(
    owner: np.ndarray,
    left: np.ndarray,
    bottom: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    keep: PairFilter | None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The pairs ``(owner[e], owner[m])`` for every membership ``e`` and
    ``lo[e] <= m < hi[e]``, each pair once; plus how many there were before
    ``keep``.

    Two footprints share a rectangle of buckets; a pair is kept only in its
    lowest-left one, where one member starts its columns (``left``) and one
    its rows (``bottom``).  The visits are materialised ``_PAIR_CHUNK`` at a
    time and filtered chunk by chunk.
    """
    empty = np.zeros(0, dtype=np.int64)
    partners = hi - lo
    cumulative = np.cumsum(partners)
    firsts: list[np.ndarray] = []
    seconds: list[np.ndarray] = []
    walked = 0
    start = 0
    while start < len(owner):
        base = int(cumulative[start - 1]) if start else 0
        stop = int(np.searchsorted(cumulative, base + _PAIR_CHUNK, side="right"))
        stop = max(stop, start + 1)
        counts = partners[start:stop]
        total = int(counts.sum())
        if total:
            entry = np.repeat(np.arange(start, stop), counts)
            mate = (
                np.repeat(lo[start:stop], counts)
                + np.arange(total)
                - np.repeat(np.cumsum(counts) - counts, counts)
            )
            once = (left[entry] | left[mate]) & (bottom[entry] | bottom[mate])
            a, b = owner[entry[once]], owner[mate[once]]
            del entry, mate, once
            walked += len(a)
            if keep is not None:
                kept = keep(a, b)
                a, b = a[kept], b[kept]
            firsts.append(a)
            seconds.append(b)
        start = stop
    if not firsts:
        return empty, empty, walked
    return np.concatenate(firsts), np.concatenate(seconds), walked


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
