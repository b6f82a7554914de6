"""Planar-arrangement overlay: the GEOS-MakeValid "linework" strategy.

Given the rings of an arbitrary (possibly self-intersecting,
overlapping-parts) Polygon/MultiPolygon:

1. **Node** every segment against every other (proper crossings,
   T-junctions, collinear overlaps) and dedupe coincident
   sub-segments — zero-width corridors vanish here.
2. **Extract faces** from the half-edge structure (at each node the
   next half-edge is the clockwise-most turn from the twin — the
   classic DCEL face walk).
3. **Classify parity**: a face is IN when a point of it is covered by
   an ODD number of the original rings (even-odd), which is exactly
   how GEOS MakeValid decides kept faces (overlap of two parts ->
   covered twice -> hole).
4. **Assemble**: positive cycles of IN faces become shells; negative
   cycles nest as holes of the face that contains them.

Pure NumPy/stdlib; O(n^2) noding — fine for the feature-geometry
sizes this engine processes per row (the reference's geometries are
tens of vertices).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

_EPS = 1e-12
_KEY_DECIMALS = 12


def _key(p) -> Tuple[float, float]:
    return (round(float(p[0]), _KEY_DECIMALS), round(float(p[1]), _KEY_DECIMALS))


def _node_segments(rings: Sequence[np.ndarray]) -> List[Tuple[Tuple[float, float], Tuple[float, float]]]:
    segs: List[Tuple[np.ndarray, np.ndarray]] = []
    for r in rings:
        r = np.asarray(r, dtype=np.float64)
        for k in range(len(r) - 1):
            a, b = r[k], r[k + 1]
            if _key(a) != _key(b):
                segs.append((a, b))
    n = len(segs)
    # cut points per segment: (t, point) — intersection points are
    # computed ONCE per pair and shared so both segments key the same
    # coordinates exactly
    cuts: List[List[Tuple[float, Tuple[float, float]]]] = [[] for _ in range(n)]

    def on_seg(p, a, b):
        """t when p lies on segment ab (within eps), else None."""
        d = b - a
        L2 = d @ d
        if L2 < _EPS:
            return None
        t = ((p - a) @ d) / L2
        if -1e-9 <= t <= 1 + 1e-9:
            proj = a + t * d
            if np.hypot(*(p - proj)) <= 1e-9 * max(1.0, math.sqrt(L2)):
                return min(max(t, 0.0), 1.0)
        return None

    for i in range(n):
        a, b = segs[i]
        d1 = b - a
        for j in range(i + 1, n):
            c, dd = segs[j]
            d2 = dd - c
            denom = d1[0] * d2[1] - d1[1] * d2[0]
            if abs(denom) > _EPS:
                t = ((c[0] - a[0]) * d2[1] - (c[1] - a[1]) * d2[0]) / denom
                u = ((c[0] - a[0]) * d1[1] - (c[1] - a[1]) * d1[0]) / denom
                if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
                    t = min(max(t, 0.0), 1.0)
                    u = min(max(u, 0.0), 1.0)
                    pt = (float(a[0] + t * d1[0]), float(a[1] + t * d1[1]))
                    cuts[i].append((t, pt))
                    cuts[j].append((u, pt))
            else:
                # parallel: collinear overlap / T-junctions (exact
                # endpoints are reused as the cut points)
                for p in (c, dd):
                    t = on_seg(p, a, b)
                    if t is not None:
                        cuts[i].append((t, (float(p[0]), float(p[1]))))
                for p in (a, b):
                    t = on_seg(p, c, dd)
                    if t is not None:
                        cuts[j].append((t, (float(p[0]), float(p[1]))))
    out = set()
    for i, (a, b) in enumerate(segs):
        pts = [(0.0, (float(a[0]), float(a[1]))), (1.0, (float(b[0]), float(b[1])))] + cuts[i]
        pts.sort(key=lambda tp: tp[0])
        for k in range(len(pts) - 1):
            ka, kb = _key(pts[k][1]), _key(pts[k + 1][1])
            if ka == kb:
                continue
            out.add((ka, kb) if ka < kb else (kb, ka))  # undirected, deduped
    return sorted(out)


def _signed_area(cycle: np.ndarray) -> float:
    x, y = cycle[:, 0], cycle[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def _left_sample(cycle: np.ndarray) -> Tuple[float, float]:
    """A point just to the LEFT of the cycle's longest edge — inside
    the face this cycle bounds."""
    seg = cycle[1:] - cycle[:-1]
    lens = np.hypot(seg[:, 0], seg[:, 1])
    k = int(np.argmax(lens))
    mid = (cycle[k] + cycle[k + 1]) / 2.0
    d = seg[k] / lens[k]
    normal = np.array([-d[1], d[0]])  # left of travel direction
    span = max(lens.max(), 1e-9)
    return tuple(mid + normal * span * 1e-7)


def _point_in_cycle(p, cycle: np.ndarray) -> bool:
    from gdal_boots_ray.kernels.geometry import points_in_rings

    return bool(points_in_rings(np.array([p[0]]), np.array([p[1]]), [cycle])[0])


def _split_at_repeats(cycle: np.ndarray) -> List[np.ndarray]:
    """Split a closed cycle at repeated interior vertices into simple
    closed sub-loops (same walk logic as make_valid's loop splitter)."""
    verts = [_key(p) for p in cycle[:-1]]
    seen: Dict[Tuple[float, float], int] = {}
    out: List[np.ndarray] = []
    cur: List[Tuple[float, float]] = []
    for v in verts + [verts[0]]:
        if v in seen and seen[v] < len(cur):
            k = seen[v]
            loop = cur[k:] + [v]
            if len(loop) >= 4:
                out.append(np.asarray(loop, dtype=np.float64))
            cur = cur[: k + 1]
            seen = {p: idx for idx, p in enumerate(cur)}
        else:
            seen[v] = len(cur)
            cur.append(v)
    if len(cur) >= 4:
        if cur[0] != cur[-1]:
            cur.append(cur[0])
        out.append(np.asarray(cur, dtype=np.float64))
    return out


def overlay_even_odd(rings: Sequence[np.ndarray]) -> List[List[np.ndarray]]:
    """rings -> list of polygons [[shell, hole, ...], ...] of the region
    covered an odd number of times (even-odd).

    Boundary-edge method: a noded edge survives iff the cover parity
    differs on its two sides; surviving edges are oriented with the IN
    region on the LEFT and re-traced — internal edges (IN both sides)
    disappear, merging adjacent faces exactly like GEOS MakeValid.
    """
    from gdal_boots_ray.kernels.geometry import points_in_rings

    rings = [np.asarray(r, dtype=np.float64) for r in rings if len(r) >= 4]
    if not rings:
        return []
    segments = _node_segments(rings)
    if not segments:
        return []

    def parity(p) -> int:
        return (
            sum(int(points_in_rings(np.array([p[0]]), np.array([p[1]]), [r])[0]) for r in rings) % 2
        )

    span = max(
        max(abs(a[0] - b[0]), abs(a[1] - b[1])) for a, b in segments
    ) or 1.0
    kept: List[Tuple[Tuple[float, float], Tuple[float, float]]] = []
    for a, b in segments:
        ax, ay = a
        bx, by = b
        mx, my = (ax + bx) / 2.0, (ay + by) / 2.0
        dx, dy = bx - ax, by - ay
        ln = math.hypot(dx, dy)
        nx, ny = -dy / ln, dx / ln  # left normal of a->b
        # offset scales with the edge (adjacent faces are ~edge-sized)
        # but must clear the noding round-off by a wide margin
        eps = max(ln * 1e-3, 100.0 * 10.0**-_KEY_DECIMALS)
        p_left = (mx + nx * eps, my + ny * eps)
        p_right = (mx - nx * eps, my - ny * eps)
        pl, pr = parity(p_left), parity(p_right)
        if pl == 1 and pr == 0:
            kept.append((a, b))
        elif pr == 1 and pl == 0:
            kept.append((b, a))

    if not kept:
        return []

    # trace cycles over kept directed edges: arriving at v from u, the
    # continuation is the clockwise-most kept outgoing edge from the
    # reverse direction (the face-walk rule keeps the IN region on the
    # left through pinch vertices)
    outgoing: Dict[Tuple[float, float], List[Tuple[float, float]]] = defaultdict(list)
    for a, b in kept:
        outgoing[a].append(b)
    for v, lst in outgoing.items():
        lst.sort(key=lambda w: math.atan2(w[1] - v[1], w[0] - v[0]))
    unused = set(kept)
    cycles: List[np.ndarray] = []
    for h in kept:
        if h not in unused:
            continue
        cycle = [h[0]]
        cur = h
        ok = True
        while True:
            if cur not in unused:
                ok = False
                break
            unused.discard(cur)
            u, v = cur
            cycle.append(v)
            nbrs = outgoing.get(v)
            if not nbrs:
                ok = False
                break
            # clockwise-most from the reverse direction (v -> u)
            ang_back = math.atan2(u[1] - v[1], u[0] - v[0])
            # candidates sorted by angle; pick first angle strictly less
            # than ang_back cyclically (rotate clockwise)
            idx = None
            best_delta = None
            for w in nbrs:
                ang = math.atan2(w[1] - v[1], w[0] - v[0])
                delta = (ang_back - ang) % (2 * math.pi)
                if delta < 1e-12:
                    delta = 2 * math.pi  # avoid going straight back unless forced
                if best_delta is None or delta < best_delta:
                    best_delta = delta
                    idx = w
            cur = (v, idx)
            if cur == h:
                break
        if ok and len(cycle) >= 4 and _key(cycle[0]) == _key(cycle[-1]):
            cycles.append(np.asarray(cycle, dtype=np.float64))

    # a pinched face traces as ONE self-touching cycle (its boundary
    # passes the pinch twice); GEOS represents it as shell + hole —
    # split every cycle at repeated vertices into simple sub-loops
    loops: List[np.ndarray] = []
    for c in cycles:
        loops.extend(_split_at_repeats(c))

    shells = [(c, _signed_area(c)) for c in loops if _signed_area(c) > _EPS]
    holes = [(c, _signed_area(c)) for c in loops if _signed_area(c) < -_EPS]
    polygons: List[List[np.ndarray]] = [[c] for c, _a in shells]
    for c, _a in holes:
        p = _left_sample(c)
        best = None
        for idx, (sc, sa) in enumerate(shells):
            if _point_in_cycle(p, sc):
                if best is None or sa < shells[best][1]:
                    best = idx
        if best is not None:
            polygons[best].append(c)
    return polygons
