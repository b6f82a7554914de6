"""Packed Sort-Tile-Recursive R-tree (Leutenegger et al. 1997) in
pure NumPy — the "STRtree + ray-casting" index of the north star,
Shapely-free.

Bulk-loaded once per actor / per cell group over polygon envelopes;
queries then prune point-in-polygon candidates from O(polys x points)
to O(hits).  The structure is fully packed: each level is one
(n, 4) float64 array of [minx, miny, maxx, maxy], node ``j`` of a
level parents children ``[j*fanout, (j+1)*fanout)`` of the level
below, so traversal is frontier expansion with vectorized bbox tests
— no per-node Python objects, no recursion.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

_FANOUT = 16


class STRtree:
    """Bulk-loaded packed R-tree over axis-aligned boxes.

    boxes: (n, 4) [minx, miny, maxx, maxy].
    """

    def __init__(self, boxes: np.ndarray, fanout: int = _FANOUT):
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self.fanout = fanout
        self.n = len(boxes)
        if self.n == 0:
            self.order = np.empty(0, dtype=np.int64)
            self.levels: List[np.ndarray] = [boxes]
            return

        # STR packing: sort by x-center, cut into ~sqrt(n_leaves)
        # vertical slices, sort each slice by y-center.
        cx = (boxes[:, 0] + boxes[:, 2]) * 0.5
        cy = (boxes[:, 1] + boxes[:, 3]) * 0.5
        n_leaves = -(-self.n // fanout)
        n_slices = int(np.ceil(np.sqrt(n_leaves)))
        slice_cap = n_slices * fanout

        by_x = np.argsort(cx, kind="stable")
        order = np.empty(self.n, dtype=np.int64)
        pos = 0
        for s in range(0, self.n, slice_cap):
            sl = by_x[s : s + slice_cap]
            sl = sl[np.argsort(cy[sl], kind="stable")]
            order[pos : pos + len(sl)] = sl
            pos += len(sl)
        self.order = order

        self.levels = [boxes[order]]
        cur = self.levels[0]
        while len(cur) > 1:
            n_par = -(-len(cur) // fanout)
            pad = n_par * fanout - len(cur)
            lo = np.vstack([cur[:, :2], np.full((pad, 2), np.inf)])
            hi = np.vstack([cur[:, 2:], np.full((pad, 2), -np.inf)])
            parent = np.empty((n_par, 4), dtype=np.float64)
            parent[:, :2] = lo.reshape(n_par, fanout, 2).min(axis=1)
            parent[:, 2:] = hi.reshape(n_par, fanout, 2).max(axis=1)
            self.levels.append(parent)
            cur = parent

    def query_points(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All (point_idx, box_idx) pairs where box contains point
        (inclusive edges).  Vectorized frontier descent."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if self.n == 0 or len(x) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        top = self.levels[-1]
        pts = np.repeat(np.arange(len(x), dtype=np.int64), len(top))
        nodes = np.tile(np.arange(len(top), dtype=np.int64), len(x))
        m = self._contains(top, nodes, x[pts], y[pts])
        pts, nodes = pts[m], nodes[m]
        f = self.fanout
        for lvl in range(len(self.levels) - 2, -1, -1):
            level = self.levels[lvl]
            child = nodes[:, None] * f + np.arange(f, dtype=np.int64)[None, :]
            pts = np.repeat(pts, f)
            child = child.ravel()
            valid = child < len(level)
            pts, child = pts[valid], child[valid]
            m = self._contains(level, child, x[pts], y[pts])
            pts, nodes = pts[m], child[m]
        return pts, self.order[nodes]

    @staticmethod
    def _contains(level: np.ndarray, idx: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        b = level[idx]
        return (px >= b[:, 0]) & (px <= b[:, 2]) & (py >= b[:, 1]) & (py <= b[:, 3])

    def query_box(self, qbox) -> np.ndarray:
        """Original indices of boxes intersecting qbox."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        qminx, qminy, qmaxx, qmaxy = (float(v) for v in qbox)
        nodes = np.arange(len(self.levels[-1]), dtype=np.int64)
        nodes = nodes[self._intersects(self.levels[-1], nodes, qminx, qminy, qmaxx, qmaxy)]
        f = self.fanout
        for lvl in range(len(self.levels) - 2, -1, -1):
            level = self.levels[lvl]
            child = (nodes[:, None] * f + np.arange(f, dtype=np.int64)[None, :]).ravel()
            child = child[child < len(level)]
            nodes = child[self._intersects(level, child, qminx, qminy, qmaxx, qmaxy)]
        return self.order[nodes]

    @staticmethod
    def _intersects(level, idx, qminx, qminy, qmaxx, qmaxy):
        b = level[idx]
        return (b[:, 0] <= qmaxx) & (b[:, 2] >= qminx) & (b[:, 1] <= qmaxy) & (b[:, 3] >= qminy)
