"""GeoJSON geometry codec + planar predicates, pure NumPy.

Reimplements the reference's GeoJSON<->OGR layer
(``GeometryBuilder`` / ``GeometryGeoJson`` / ``to_geojson`` /
``transform_geojson``, reference geometry.py:7-157) without OGR:
geometries stay GeoJSON-shaped dicts; kernels extract packed
``(n, 2)`` float64 coordinate arrays for vectorized math.

Also provides the planar predicates the engine's joins need:
envelope, even-odd ray-casting point-in-polygon (with holes; one ring
list at a time in ``points_in_rings``, and batched over many polygons
in ``points_in_polygons`` over their ``PolygonEdges`` table),
segment-intersection validity test, Douglas-Peucker simplify, and a
best-effort ``make_valid`` (bow-tie splitting) standing in for GEOS
MakeValid (reference geometry.py:160-193).
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from gdal_boots_ray.kernels.ranges import concat_ranges, csr_expand, pair_chunks

RawGeometry = Union[str, dict]

_TYPES = {
    "point",
    "multipoint",
    "linestring",
    "multilinestring",
    "linearring",
    "polygon",
    "multipolygon",
    "geometrycollection",
}


def parse_geometry(geometry: RawGeometry) -> dict:
    """str|dict GeoJSON -> dict; validates the type tag (reference
    GeometryBuilder.create dispatch, geometry.py:14-24)."""
    if isinstance(geometry, str):
        geometry = json.loads(geometry)
    gtype = geometry.get("type", "")
    if gtype.lower() not in _TYPES and gtype.lower() != "feature" and gtype.lower() != "featurecollection":
        raise ValueError(f"{gtype.lower()} is not supported")
    if gtype.lower() == "feature":
        return geometry["geometry"]
    return geometry


def _round_coords(coords, precision: int):
    if isinstance(coords, (list, tuple)) and coords and isinstance(coords[0], (int, float)):
        return [round(float(c), precision) for c in coords]
    return [_round_coords(c, precision) for c in coords]


def _flatten_coords(coords):
    if isinstance(coords, (list, tuple)) and coords and isinstance(coords[0], (int, float)):
        return [float(c) for c in coords[:2]]
    return [_flatten_coords(c) for c in coords]


def to_geojson(geometry: RawGeometry, flatten: bool = True, precision: int = 15) -> dict:
    """Normalize to GeoJSON with coordinate rounding at ``precision``
    (default 15) and optional 2D flattening — reference ``to_geojson`` /
    ``GeometryGeoJson`` semantics (geometry.py:72-119)."""
    geom = parse_geometry(geometry)
    gtype = geom["type"]
    if gtype == "GeometryCollection":
        return {
            "type": "GeometryCollection",
            "geometries": [to_geojson(g, flatten, precision) for g in geom["geometries"]],
        }
    coords = geom.get("coordinates", [])
    if flatten:
        coords = _flatten_coords(coords)
    return {"type": gtype, "coordinates": _round_coords(coords, precision)}


def map_coords(geometry: RawGeometry, fn: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]) -> dict:
    """Apply a vectorized (x_arr, y_arr) -> (x_arr, y_arr) function to
    every coordinate of a geometry; z is dropped (2D flatten).  Used for
    CRS transforms (reference transform_geojson, geometry.py:148-157)."""
    geom = parse_geometry(geometry)
    gtype = geom["type"]
    if gtype == "GeometryCollection":
        return {"type": gtype, "geometries": [map_coords(g, fn) for g in geom["geometries"]]}

    def walk(coords):
        if not coords:
            return []
        if isinstance(coords[0], (int, float)):
            x, y = fn(np.array([coords[0]], dtype=np.float64), np.array([coords[1]], dtype=np.float64))
            return [float(x[0]), float(y[0])]
        if isinstance(coords[0][0], (int, float)):
            arr = np.asarray([c[:2] for c in coords], dtype=np.float64)
            x, y = fn(arr[:, 0], arr[:, 1])
            return [[float(a), float(b)] for a, b in zip(x, y)]
        return [walk(c) for c in coords]

    return {"type": gtype, "coordinates": walk(geom.get("coordinates", []))}


def transform_geojson(geometry: RawGeometry, from_crs, to_crs, precision: int = 15) -> dict:
    from gdal_boots_ray.kernels.crs import transform_points

    out = map_coords(geometry, lambda x, y: transform_points(from_crs, to_crs, x, y))
    return to_geojson(out, flatten=True, precision=precision)


# ---------------------------------------------------------------------------
# Coordinate extraction
# ---------------------------------------------------------------------------


def iter_coord_arrays(geometry: RawGeometry) -> Iterable[np.ndarray]:
    """Yield all (n, 2) coordinate arrays (one per point/line/ring)."""
    geom = parse_geometry(geometry)
    gtype = geom["type"]
    if gtype == "GeometryCollection":
        for g in geom["geometries"]:
            yield from iter_coord_arrays(g)
        return
    coords = geom.get("coordinates", [])

    def walk(c):
        if not c:
            return
        if isinstance(c[0], (int, float)):
            yield np.asarray([c[:2]], dtype=np.float64)
        elif isinstance(c[0][0], (int, float)):
            yield np.asarray([p[:2] for p in c], dtype=np.float64)
        else:
            for sub in c:
                yield from walk(sub)

    yield from walk(coords)


def envelope(geometry: RawGeometry) -> Tuple[float, float, float, float]:
    """(minx, miny, maxx, maxy) — OGR GetEnvelope equivalent."""
    mins = np.array([np.inf, np.inf])
    maxs = np.array([-np.inf, -np.inf])
    for arr in iter_coord_arrays(geometry):
        mins = np.minimum(mins, arr.min(axis=0))
        maxs = np.maximum(maxs, arr.max(axis=0))
    if not np.all(np.isfinite(mins)):
        raise ValueError("empty geometry has no envelope")
    return float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1])


def polygon_rings(geometry: RawGeometry) -> List[np.ndarray]:
    """All rings of a Polygon/MultiPolygon as closed (n, 2) arrays.
    Exterior + holes are returned flat — even-odd predicates treat
    them uniformly."""
    geom = parse_geometry(geometry)
    gtype = geom["type"]
    rings: List[np.ndarray] = []
    if gtype == "Polygon":
        polys = [geom["coordinates"]]
    elif gtype == "MultiPolygon":
        polys = geom["coordinates"]
    elif gtype == "GeometryCollection":
        for g in geom["geometries"]:
            rings.extend(polygon_rings(g))
        return rings
    else:
        return rings
    for poly in polys:
        for ring in poly:
            if not ring:
                continue
            arr = np.asarray([p[:2] for p in ring], dtype=np.float64)
            if len(arr) and not np.array_equal(arr[0], arr[-1]):
                arr = np.vstack([arr, arr[:1]])  # CloseRings (geometry.py:167)
            rings.append(arr)
    return rings


def close_rings(geometry: RawGeometry) -> dict:
    """Append the first vertex to unclosed polygon rings (OGR CloseRings)."""
    geom = parse_geometry(geometry)
    gtype = geom["type"]
    if gtype == "GeometryCollection":
        return {"type": gtype, "geometries": [close_rings(g) for g in geom["geometries"]]}
    if gtype not in ("Polygon", "MultiPolygon"):
        return geom

    def close(ring):
        if ring and ring[0] != ring[-1]:
            return list(ring) + [ring[0]]
        return list(ring)

    if gtype == "Polygon":
        coords = [close(r) for r in geom["coordinates"]]
    else:
        coords = [[close(r) for r in poly] for poly in geom["coordinates"]]
    return {"type": gtype, "coordinates": coords}


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def points_in_rings(px: np.ndarray, py: np.ndarray, rings: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized even-odd ray-casting PIP over a list of closed rings.

    A point is inside when a ray to +x crosses an odd number of edges
    over all rings — holes flip parity naturally.  Points exactly on a
    horizontal edge follow the GDAL/GEOS half-open convention
    (lower-inclusive) used by rasterize.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    inside = np.zeros(px.shape, dtype=bool)
    for ring in rings:
        if len(ring) < 4:
            continue
        x0, y0 = ring[:-1, 0], ring[:-1, 1]
        x1, y1 = ring[1:, 0], ring[1:, 1]
        # (m edges) x (n points)
        cond = (y0[:, None] > py[None, :]) != (y1[:, None] > py[None, :])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            xint = x0[:, None] + (py[None, :] - y0[:, None]) / (y1[:, None] - y0[:, None]) * (x1 - x0)[:, None]
        crosses = cond & (px[None, :] < xint)
        inside ^= (crosses.sum(axis=0) % 2).astype(bool)
    return inside


class PolygonEdges:
    """The rings of ``polygons``, (poly_id, rings) pairs, as one CSR
    (compressed sparse row) table, built once per worker.  Polygon ``j``
    (``ids[j]``, in list order) has the vertex box ``bbox[j]`` (+inf
    minima, -inf maxima if empty) and owns the vertices
    ``vx/vy[v_off[j]:v_off[j+1]]`` of all of its rings and the edges
    ``e_off[j]:e_off[j+1]`` between consecutive vertices of a ring:
    endpoints ``x0/y0/x1/y1``, ``dx = x1 - x0``, ``dy = y1 - y0``, their
    bbox ``ex_lo/ex_hi/ey_lo/ey_hi`` and ``a``, the polygon-local index
    of the start vertex.  The edges of rings of at least 4 points, the
    only ones the even-odd tests count, are ``fill[f_off[j]:f_off[j+1]]``."""

    def __init__(self, polygons):
        items = list(polygons)
        self.ids = np.array([int(p) for p, _ in items], np.int64)
        rings = [np.asarray(r, np.float64).reshape(-1, 2) for _, rs in items for r in rs]
        ring_poly = np.repeat(np.arange(len(items)), [len(rs) for _, rs in items])
        n_v = np.array([len(r) for r in rings], np.int64)
        n_e = np.maximum(n_v - 1, 0)

        def offsets(counts):
            return np.concatenate(([0], np.cumsum(np.bincount(ring_poly, counts, len(items))))).astype(np.int64)

        self.v_off, self.e_off, self.f_off = offsets(n_v), offsets(n_e), offsets(n_e * (n_v >= 4))
        v = np.concatenate(rings) if rings else np.zeros((0, 2))
        self.vx, self.vy = v[:, 0].copy(), v[:, 1].copy()
        # edge e runs from vertex start[e] to vertex start[e] + 1
        start = np.repeat(np.cumsum(n_v) - n_v, n_e) + concat_ranges(n_e)
        self.x0, self.y0, self.x1, self.y1 = self.vx[start], self.vy[start], self.vx[start + 1], self.vy[start + 1]
        self.dx, self.dy = self.x1 - self.x0, self.y1 - self.y0
        self.ex_lo, self.ex_hi = np.minimum(self.x0, self.x1), np.maximum(self.x0, self.x1)
        self.ey_lo, self.ey_hi = np.minimum(self.y0, self.y1), np.maximum(self.y0, self.y1)
        self.a = start - np.repeat(self.v_off[:-1], np.diff(self.e_off))
        self.fill = np.flatnonzero(np.repeat(n_v >= 4, n_e))
        has = np.flatnonzero(np.diff(self.v_off))
        self.bbox = np.tile([np.inf, np.inf, -np.inf, -np.inf], (len(items), 1))
        self.bbox[has] = np.hstack([np.minimum.reduceat(v, self.v_off[has]), np.maximum.reduceat(v, self.v_off[has])])
        # the zonal lookup: the last entry of each poly_id, if it has vertices
        last = len(self.ids) - 1 - np.unique(self.ids[::-1], return_index=True)[1]
        self._pos = last[np.diff(self.v_off)[last] > 0]
        self._key = self.ids[self._pos]

    def index(self, pids) -> np.ndarray:
        """The polygon each poly_id selects: the position of its last
        entry, or -1 for an unknown id or a last entry without
        vertices."""
        pids = np.asarray(pids, np.int64)
        if not len(self._key):
            return np.full(len(pids), -1, np.int64)
        j = np.minimum(np.searchsorted(self._key, pids), len(self._key) - 1)
        return np.where(self._key[j] == pids, self._pos[j], -1)


def points_in_polygons(polys: PolygonEdges, px, py, q) -> np.ndarray:
    """bool[n]: is point ``(px[i], py[i])`` inside polygon ``q[i]`` (a
    position in ``polys``)?  THE batched point-in-polygon test: every
    (point, edge of a ring of at least 4 points of its polygon) in
    ``pair_chunks`` slices, with ``points_in_rings``' float operations
    (the half-open crossing rule), and parity by ``bincount``."""
    inside = np.zeros(len(q), bool)
    for lo, hi in pair_chunks(polys.f_off[q + 1] - polys.f_off[q]):
        p, f = csr_expand(polys.f_off, q[lo:hi])
        f = polys.fill[f]
        x, y, y0 = px[lo:hi][p], py[lo:hi][p], polys.y0[f]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            xint = polys.x0[f] + (y - y0) / polys.dy[f] * polys.dx[f]
        crosses = ((y0 > y) != (polys.y1[f] > y)) & (x < xint)
        inside[lo:hi] = np.bincount(p[crosses], minlength=hi - lo) % 2 == 1
    return inside


def points_in_polygon(points_xy: np.ndarray, geometry: RawGeometry) -> np.ndarray:
    """points_xy: (n, 2) -> bool (n,). Even-odd rule incl. holes."""
    pts = np.atleast_2d(np.asarray(points_xy, dtype=np.float64))
    return points_in_rings(pts[:, 0], pts[:, 1], polygon_rings(geometry))


def _seg_intersections(ring: np.ndarray):
    """All proper self-intersection points of a closed ring's edges.
    O(m^2) — rings in this engine are small (test fixtures, footprints)."""
    p0 = ring[:-1]
    p1 = ring[1:]
    m = len(p0)
    pts = []
    for i in range(m):
        a, b = p0[i], p1[i]
        d1 = b - a
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue  # adjacent via closure
            c, d = p0[j], p1[j]
            d2 = d - c
            denom = d1[0] * d2[1] - d1[1] * d2[0]
            if denom == 0:
                continue
            t = ((c[0] - a[0]) * d2[1] - (c[1] - a[1]) * d2[0]) / denom
            u = ((c[0] - a[0]) * d1[1] - (c[1] - a[1]) * d1[0]) / denom
            if 0 < t < 1 and 0 < u < 1:
                pts.append((i, t, j, u, a + t * d1))
    return pts


def ring_is_simple(ring: np.ndarray) -> bool:
    return not _seg_intersections(ring)


def is_valid(geometry: RawGeometry) -> bool:
    """Ring-simplicity validity check (subset of GEOS IsValid — catches
    the self-intersections the reference repairs after reprojection,
    gdal.py:842-846)."""
    try:
        rings = polygon_rings(geometry)
    except Exception:
        return False
    return all(ring_is_simple(r) for r in rings)


def make_valid(geometry: RawGeometry) -> dict:
    """GEOS-MakeValid-equivalent repair (reference
    geometry.py:160-193) via the planar-arrangement overlay
    (kernels/overlay.py): node everything, keep even-odd faces, emit
    boundary rings with GEOS's pinch-splitting representation.
    Matches all five reference goldens coordinate-exactly (bow-tie,
    hole extraction, pinch corridor, MultiPolygon promotion, and the
    6-face overlapping-parts decomposition,
    tests/test_geometry.py:184-538)."""
    from gdal_boots_ray.kernels.overlay import overlay_even_odd

    geom0 = close_rings(parse_geometry(geometry))
    gtype0 = geom0["type"]
    if gtype0 in ("Polygon", "MultiPolygon"):
        rings0 = polygon_rings(geom0)
        try:
            polys = overlay_even_odd(rings0)
        except Exception:
            polys = None
        if polys is not None:
            if not polys:
                return {"type": gtype0, "coordinates": []}
            coords = [[[list(map(float, p)) for p in ring] for ring in poly] for poly in polys]
            if len(coords) == 1 and gtype0 == "Polygon":
                return {"type": "Polygon", "coordinates": coords[0]}
            return {"type": "MultiPolygon", "coordinates": coords}
    return _make_valid_loops(geometry)


def _make_valid_loops(geometry: RawGeometry) -> dict:
    """Fallback loop-splitting repair (pre-overlay implementation)."""
    geom = close_rings(parse_geometry(geometry))
    gtype = geom["type"]
    if gtype not in ("Polygon", "MultiPolygon"):
        return geom
    polys = [geom["coordinates"]] if gtype == "Polygon" else geom["coordinates"]

    loops: List[np.ndarray] = []
    for poly in polys:
        new_rings: List[np.ndarray] = []
        for ring in poly:
            arr = np.asarray([p[:2] for p in ring], dtype=np.float64)
            if len(arr) < 4:
                continue
            if not np.array_equal(arr[0], arr[-1]):
                arr = np.vstack([arr, arr[:1]])
            inters = _seg_intersections(arr)
            if not inters:
                new_rings.append(arr)
                continue
            # insert intersection vertices into the edge cycle
            insertions: Dict[int, list] = {}
            for i, t, j, u, pt in inters:
                insertions.setdefault(i, []).append((t, tuple(pt)))
                insertions.setdefault(j, []).append((u, tuple(pt)))
            verts: List[Tuple[float, float]] = []
            for e in range(len(arr) - 1):
                verts.append(tuple(arr[e]))
                for _t, pt in sorted(insertions.get(e, [])):
                    verts.append(pt)
            # walk the vertex cycle splitting at repeated (intersection) points
            seen: Dict[Tuple[float, float], int] = {}
            stack_rings: List[List[Tuple[float, float]]] = []
            cur: List[Tuple[float, float]] = []
            for v in verts + [verts[0]]:
                if v in seen and seen[v] < len(cur):
                    k = seen[v]
                    loop = cur[k:] + [v]
                    if len(loop) >= 4:
                        stack_rings.append(loop)
                    cur = cur[: k + 1]
                    seen = {p: idx for idx, p in enumerate(cur)}
                else:
                    seen[v] = len(cur)
                    cur.append(v)
            if len(cur) >= 4:
                if cur[0] != cur[-1]:
                    cur.append(cur[0])
                stack_rings.append(cur)
            for loop in stack_rings:
                la = np.asarray(loop, dtype=np.float64)
                if abs(ring_area(la)) > 1e-12:
                    new_rings.append(la)
        loops.extend(new_rings)

    if not loops:
        return {"type": gtype, "coordinates": []}

    # even-odd nesting: a loop whose interior lies inside an odd number
    # of OTHER loops is a hole of its innermost containing shell (GEOS
    # MakeValid emits exactly this for the reference's
    # self-intersection-with-hole golden, tests/test_geometry.py:211-247)
    # containment probe: the midpoint of each loop's longest edge.
    # Noded loops never cross and never share edges, so an edge
    # midpoint of A is strictly inside/outside any other loop B — an
    # arbitrary interior point of A could fall inside a nested hole.
    def edge_mid(r: np.ndarray):
        seg = r[1:] - r[:-1]
        k = int(np.argmax(np.hypot(seg[:, 0], seg[:, 1])))
        return ((r[k, 0] + r[k + 1, 0]) / 2.0, (r[k, 1] + r[k + 1, 1]) / 2.0)

    pts = [edge_mid(r) for r in loops]
    n = len(loops)
    contains = np.zeros((n, n), dtype=bool)
    for j, ring in enumerate(loops):
        for i in range(n):
            if i != j:
                contains[j, i] = bool(points_in_rings(np.array([pts[i][0]]), np.array([pts[i][1]]), [ring])[0])
    depth = contains.sum(axis=0)
    shells = [i for i in range(n) if depth[i] % 2 == 0]
    out_polys: List[list] = []
    shell_of = {}
    for i in shells:
        shell_of[i] = len(out_polys)
        out_polys.append([[list(map(float, p)) for p in loops[i]]])
    holes_by_shell: Dict[int, List[np.ndarray]] = {}
    for i in range(n):
        if depth[i] % 2 == 1:
            # innermost containing shell = containing shell of max depth
            parents = [j for j in shells if contains[j, i]]
            if parents:
                parent = max(parents, key=lambda j: depth[j])
                holes_by_shell.setdefault(shell_of[parent], []).append(loops[i])
    for sidx, holes in holes_by_shell.items():
        # GEOS dissolves holes touching at a pinch vertex into one ring
        holes = _merge_touching_rings(holes)
        for hring in holes:
            out_polys[sidx].append([list(map(float, p)) for p in hring])

    if not out_polys:
        return {"type": gtype, "coordinates": []}
    if len(out_polys) == 1 and gtype == "Polygon":
        return {"type": "Polygon", "coordinates": out_polys[0]}
    return {"type": "MultiPolygon", "coordinates": out_polys}


def _merge_touching_rings(rings: List[np.ndarray]) -> List[np.ndarray]:
    """Dissolve a set of closed rings into boundary rings: opposite
    directed edges shared by two rings cancel (zero-width corridors
    disappear), remaining edges re-trace into cycles, rings that then
    share a vertex splice into one ring through the pinch."""
    if len(rings) < 2:
        return [np.asarray(r, dtype=np.float64) for r in rings]
    edges: List[Tuple[Tuple[float, float], Tuple[float, float]]] = []
    for r in rings:
        r = np.asarray(r, dtype=np.float64)
        for k in range(len(r) - 1):
            edges.append((tuple(r[k]), tuple(r[k + 1])))
    # cancel opposite pairs
    from collections import Counter, defaultdict

    counts = Counter(edges)
    out_edges: List[Tuple[Tuple[float, float], Tuple[float, float]]] = []
    for e, c in counts.items():
        rev = (e[1], e[0])
        cancel = min(c, counts.get(rev, 0))
        keep = c - cancel if e <= rev else c - cancel  # symmetric cancel
        out_edges.extend([e] * keep)
    # successor map + cycle tracing (arbitrary successor at pinches,
    # then vertex-splice cycles that still share a vertex)
    succ = defaultdict(list)
    for a, b in out_edges:
        succ[a].append(b)
    cycles: List[List[Tuple[float, float]]] = []
    while any(succ.values()):
        start = next(v for v, lst in succ.items() if lst)
        path = [start]
        cur = start
        while True:
            nxts = succ[cur]
            if not nxts:
                break
            cur = nxts.pop()
            path.append(cur)
            if cur == start:
                break
        if len(path) >= 4 and path[0] == path[-1]:
            cycles.append(path)
    rings_out = [np.asarray(c, dtype=np.float64) for c in cycles]
    # splice remaining vertex-touching cycles
    changed = True
    while changed and len(rings_out) > 1:
        changed = False
        for a_i in range(len(rings_out)):
            for b_i in range(a_i + 1, len(rings_out)):
                a, b = rings_out[a_i], rings_out[b_i]
                a_keys = {tuple(p): k for k, p in enumerate(a[:-1])}
                pin = None
                for k, p in enumerate(b[:-1]):
                    if tuple(p) in a_keys:
                        pin = (a_keys[tuple(p)], k)
                        break
                if pin is None:
                    continue
                ai, bi = pin
                b_rot = np.vstack([b[bi:-1], b[:bi]])
                merged = np.vstack([a[: ai + 1], b_rot[1:], a[ai:]])
                rings_out = [r for idx, r in enumerate(rings_out) if idx not in (a_i, b_i)] + [merged]
                changed = True
                break
            if changed:
                break
    return rings_out


def simplify_geometry(geometry: RawGeometry, tolerance: float) -> dict:
    """Douglas-Peucker simplify applied to every ring/line of a
    geometry (working semantics for the reference's no-op
    VectorDataset.simplify, gdal.py:1290-1293)."""
    geom = parse_geometry(geometry)
    gtype = geom["type"]
    if gtype == "GeometryCollection":
        return {"type": gtype, "geometries": [simplify_geometry(g, tolerance) for g in geom["geometries"]]}

    def walk(coords, depth_is_line):
        if not coords:
            return coords
        if isinstance(coords[0], (list, tuple)) and coords and isinstance(coords[0][0], (int, float)):
            arr = np.asarray([p[:2] for p in coords], dtype=np.float64)
            out = douglas_peucker(arr, tolerance)
            return [[float(p[0]), float(p[1])] for p in out]
        return [walk(c, depth_is_line) for c in coords]

    if gtype == "Point":
        return geom
    return {"type": gtype, "coordinates": walk(geom.get("coordinates", []), True)}


def ring_area(ring: np.ndarray) -> float:
    """Signed shoelace area of a closed ring."""
    x, y = ring[:, 0], ring[:, 1]
    return float(0.5 * np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


def buffer_convex_ring(
    ring: np.ndarray, dist: float, steps_per_corner: int = 8
) -> np.ndarray:
    """Positive buffer of a CONVEX ring — the ogr
    ``Geometry.Buffer`` analog for the convex case (the reference
    reaches Buffer through ogr.Geometry; the general concave case
    needs a full offset-curve/self-intersection pass and is out of
    scope).  Each edge translates outward by ``dist`` along its
    normal; each vertex gets a circular fan of ``steps_per_corner``
    equal angular steps between the adjacent edge normals, so for a
    convex input the exact polygon area of the result is
    ``A + P*dist + (dist^2/2) * sum_i m*sin(theta_i/m)`` (edge
    rectangles + corner fans, no overlaps).  Works for either
    orientation; raises ValueError on non-convex or degenerate
    input.  Returns a closed ring."""
    r = np.asarray(ring, dtype=np.float64)
    if len(r) >= 2 and np.array_equal(r[0], r[-1]):
        r = r[:-1]
    n = len(r)
    if n < 3:
        raise ValueError("buffer_convex_ring: need >= 3 distinct vertices")
    if dist <= 0:
        raise ValueError("buffer_convex_ring: dist must be positive")
    d = np.roll(r, -1, axis=0) - r  # edge i: r[i] -> r[i+1]
    lens = np.hypot(d[:, 0], d[:, 1])
    if (lens == 0).any():
        raise ValueError("buffer_convex_ring: repeated vertex")
    cross = d[:, 0] * np.roll(d[:, 1], -1) - d[:, 1] * np.roll(d[:, 0], -1)
    sgn = np.sign(np.sum(cross))
    if sgn == 0 or (np.sign(cross) != sgn).any():
        raise ValueError("buffer_convex_ring: ring is not strictly convex")
    # outward unit normal per edge: right of travel for CW (sgn<0),
    # left for CCW (sgn>0)
    if sgn < 0:
        nx, ny = -d[:, 1] / lens, d[:, 0] / lens
    else:
        nx, ny = d[:, 1] / lens, -d[:, 0] / lens
    ang = np.arctan2(ny, nx)
    out_x: list = []
    out_y: list = []
    m = int(steps_per_corner)
    for i in range(n):
        # offset edge i
        out_x += [r[i, 0] + dist * nx[i], r[(i + 1) % n, 0] + dist * nx[i]]
        out_y += [r[i, 1] + dist * ny[i], r[(i + 1) % n, 1] + dist * ny[i]]
        # fan at vertex i+1 between normals of edge i and edge i+1,
        # turning through the exterior (the ring's own orientation)
        j = (i + 1) % n
        delta = ang[j] - ang[i]
        if sgn < 0:  # CW: exterior turn is clockwise (negative)
            delta = delta - 2 * np.pi * np.ceil(delta / (2 * np.pi))
            if delta == 0.0:
                delta = -2 * np.pi
        else:
            delta = delta - 2 * np.pi * np.floor(delta / (2 * np.pi))
            if delta == 0.0:
                delta = 2 * np.pi
        steps = np.arange(1, m) / m
        a = ang[i] + delta * steps
        out_x += (r[j, 0] + dist * np.cos(a)).tolist()
        out_y += (r[j, 1] + dist * np.sin(a)).tolist()
    out_x.append(out_x[0])
    out_y.append(out_y[0])
    return np.column_stack([out_x, out_y])


def ring_metrics(ring: np.ndarray) -> Tuple[float, float, float, float]:
    """(abs area, perimeter, centroid_x, centroid_y) of a closed ring
    — the OGR ``GetArea`` / ``Length`` / ``Centroid`` accessor family
    the reference reaches through ogr.Geometry (geometry.py wraps but
    never reimplements them).  Coordinates are translated to the
    first vertex before the shoelace/centroid sums: projected-CRS
    coordinates are ~1e6 and the raw cross terms would cancel ~12
    digits, poisoning the area for large rings."""
    r = np.asarray(ring, dtype=np.float64)
    x = r[:, 0] - r[0, 0]
    y = r[:, 1] - r[0, 1]
    cross = x[:-1] * y[1:] - x[1:] * y[:-1]
    a2 = np.sum(cross)  # 2 * signed area
    area = 0.5 * a2
    dx = r[1:, 0] - r[:-1, 0]
    dy = r[1:, 1] - r[:-1, 1]
    perim = float(np.sum(np.sqrt(dx * dx + dy * dy)))
    if area == 0.0:
        # degenerate ring: fall back to the vertex mean
        cx = float(np.mean(x[:-1])) + r[0, 0]
        cy = float(np.mean(y[:-1])) + r[0, 1]
    else:
        cx = float(np.sum((x[:-1] + x[1:]) * cross) / (3.0 * a2)) + r[0, 0]
        cy = float(np.sum((y[:-1] + y[1:]) * cross) / (3.0 * a2)) + r[0, 1]
    return abs(float(area)), perim, cx, cy


def douglas_peucker(coords: np.ndarray, tolerance: float) -> np.ndarray:
    """Line simplification (reference VectorDataset.simplify is a no-op,
    gdal.py:1290-1293 — this provides working semantics)."""
    coords = np.asarray(coords, dtype=np.float64)
    if len(coords) < 3:
        return coords
    keep = np.zeros(len(coords), dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, len(coords) - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi <= lo + 1:
            continue
        seg = coords[hi] - coords[lo]
        norm = np.hypot(*seg)
        pts = coords[lo + 1 : hi]
        if norm == 0:
            d = np.hypot(*(pts - coords[lo]).T)
        else:
            d = np.abs(np.cross(seg / norm, (pts - coords[lo])))
        idx = int(np.argmax(d))
        if d[idx] > tolerance:
            mid = lo + 1 + idx
            keep[mid] = True
            stack.extend([(lo, mid), (mid, hi)])
    return coords[keep]


def geometry_bounds_polygon(b) -> dict:
    """Bounds box -> closed 5-point GeoJSON Polygon (gdal.py:344-362)."""
    minx, miny, maxx, maxy = (float(v) for v in b)
    return {
        "type": "Polygon",
        "coordinates": [
            [[minx, miny], [maxx, miny], [maxx, maxy], [minx, maxy], [minx, miny]]
        ],
    }
