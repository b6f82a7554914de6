"""Spatial cell indexing: S2 cells, lon/lat grid cells, hex cells.

The north-star rule (BASELINE.json) asks for H3/S2 cell indexing as the
join/partition key.  This module provides, fully vectorized:

- ``s2_cell_id``: genuine S2 cell ids (face + Hilbert curve position)
  from the public S2 geometry algorithm (s2geometry.io: unit-sphere XYZ
  -> cube face (u,v) -> quadratic s,t -> leaf (i,j) -> Hilbert position
  with the standard lookup tables).  Deterministic + hierarchical
  (``s2_parent``); bit-layout identical to the reference library's
  (face << 61 | pos << 1 | 1).
- ``grid_cell_id``: rectangular lon/lat grid cells (res in degrees) —
  the primary shuffle/join key because neighbors and covers are O(1)
  and the id is SQL-expressible for the DuckDB oracle.
- ``hex_cell_id``: axial hex binning on a planar projection — an
  H3-*like* index (documented approximation: true H3 icosahedral faces
  are not reproduced; hexes here are planar axial cells, still giving
  ~uniform neighbor counts for skew experiments).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from gdal_boots_ray.kernels.ranges import concat_ranges

# S2 Hilbert lookup tables (public algorithm constants)
_IJ_TO_POS = np.array(
    [
        [0, 1, 3, 2],  # orientation 0: canonical
        [0, 3, 1, 2],  # orientation 1 (swap)
        [2, 3, 1, 0],  # orientation 2 (invert)
        [2, 1, 3, 0],  # orientation 3 (swap|invert)
    ],
    dtype=np.int64,
)
_POS_TO_ORIENT = np.array([1, 0, 0, 3], dtype=np.int64)  # swap, none, none, invert|swap

_S2_MAX_LEVEL = 30


def _lonlat_to_xyz(lon_deg, lat_deg):
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    clat = np.cos(lat)
    return clat * np.cos(lon), clat * np.sin(lon), np.sin(lat)


def _xyz_to_face_uv(x, y, z):
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= ay, np.where(ax >= az, 0, 2), np.where(ay >= az, 1, 2))
    face = face + np.where(
        (face == 0) & (x < 0), 3, np.where((face == 1) & (y < 0), 3, np.where((face == 2) & (z < 0), 3, 0))
    )
    u = np.empty_like(x)
    v = np.empty_like(x)
    for f, (uf, vf, wf) in enumerate(
        [
            (lambda x, y, z: y / x, lambda x, y, z: z / x, None),  # face 0 (+x)
            (lambda x, y, z: -x / y, lambda x, y, z: z / y, None),  # face 1 (+y)
            (lambda x, y, z: -x / z, lambda x, y, z: -y / z, None),  # face 2 (+z)
            (lambda x, y, z: z / x, lambda x, y, z: y / x, None),  # face 3 (-x)
            (lambda x, y, z: z / y, lambda x, y, z: -x / y, None),  # face 4 (-y)
            (lambda x, y, z: -y / z, lambda x, y, z: -x / z, None),  # face 5 (-z)
        ]
    ):
        m = face == f
        if np.any(m):
            u[m] = uf(x[m], y[m], z[m])
            v[m] = vf(x[m], y[m], z[m])
    return face.astype(np.int64), u, v


def _uv_to_st(u):
    """S2 quadratic projection."""
    with np.errstate(invalid="ignore"):
        return np.where(u >= 0, 0.5 * np.sqrt(1 + 3 * u), 1 - 0.5 * np.sqrt(np.maximum(1 - 3 * u, 0.0)))


def s2_cell_id(lon_deg, lat_deg, level: int = 9) -> np.ndarray:
    """Vectorized S2 cell id at ``level`` (<= 30) for lon/lat arrays."""
    if not 0 <= level <= _S2_MAX_LEVEL:
        raise ValueError(f"S2 level must be 0..30, got {level}")
    x, y, z = _lonlat_to_xyz(lon_deg, lat_deg)
    face, u, v = _xyz_to_face_uv(x, y, z)
    max_size = 1 << _S2_MAX_LEVEL
    i = np.clip((_uv_to_st(u) * max_size).astype(np.int64), 0, max_size - 1)
    j = np.clip((_uv_to_st(v) * max_size).astype(np.int64), 0, max_size - 1)

    orient = face & 1  # swap mask for odd faces
    pos = np.zeros(face.shape, dtype=np.int64)
    for k in range(_S2_MAX_LEVEL - 1, _S2_MAX_LEVEL - 1 - level, -1):
        ij = (((i >> k) & 1) << 1) | ((j >> k) & 1)
        p = _IJ_TO_POS[orient, ij]
        pos = (pos << 2) | p
        orient = orient ^ _POS_TO_ORIENT[p]
    # id layout: 3 face bits, 2*level pos bits, then a 1 bit and zeros
    shift = 2 * (_S2_MAX_LEVEL - level)
    cell = (face << 61) | (pos << (shift + 1)) | (np.int64(1) << shift)
    return cell


def s2_parent(cell_id: np.ndarray, level: int) -> np.ndarray:
    """Parent of an S2 cell id at a coarser level."""
    cell_id = np.asarray(cell_id, dtype=np.int64)
    lsb = np.int64(1) << (2 * (_S2_MAX_LEVEL - level))
    return (cell_id & ~(lsb - 1)) | lsb


def s2_level(cell_id: np.ndarray) -> np.ndarray:
    """Level of cell ids (position of the lowest set bit)."""
    cell_id = np.asarray(cell_id, dtype=np.int64)
    low = (cell_id & -cell_id).astype(np.uint64)
    return (_S2_MAX_LEVEL - (np.log2(low.astype(np.float64)) / 2)).astype(np.int64)


# ---------------------------------------------------------------------------
# Rectangular lon/lat grid cells (primary join/shuffle key)
# ---------------------------------------------------------------------------

_GRID_WIDTH = np.int64(1) << 20  # cells per axis band


def grid_cell_id(x, y, res: float) -> np.ndarray:
    """Cell id = (floor(x/res) + 2^19) * 2^20 + (floor(y/res) + 2^19).

    Stable, SQL-expressible (the DuckDB oracle reproduces it verbatim),
    supports negative coordinates via the +2^19 offset.
    """
    cx = np.floor(np.asarray(x, dtype=np.float64) / res).astype(np.int64) + (1 << 19)
    cy = np.floor(np.asarray(y, dtype=np.float64) / res).astype(np.int64) + (1 << 19)
    return cx * _GRID_WIDTH + cy


def morton_interleave2(cx, cy, bits: int = 16) -> np.ndarray:
    """Z-order (Morton) key: bit-interleave two non-negative integer
    cell coordinates, cx in the even bits, cy in the odd bits — the
    locality-preserving clustering key a columnar table (Lance /
    Parquet) sorts on so that spatially-adjacent tiles land in the
    same fragment and a bbox scan prunes to O(matching fragments).
    Vectorized per-bit (``bits`` iterations of O(n) numpy); the
    per-bit shift/mask form is exactly replayable in SQL."""
    cx = np.asarray(cx, dtype=np.int64)
    cy = np.asarray(cy, dtype=np.int64)
    if (cx < 0).any() or (cy < 0).any():
        raise ValueError("morton coordinates must be non-negative")
    if (cx >> bits).any() or (cy >> bits).any():
        raise ValueError(f"morton coordinates exceed {bits} bits")
    out = np.zeros(cx.shape, np.int64)
    for b in range(bits):
        out |= ((cx >> b) & 1) << (2 * b)
        out |= ((cy >> b) & 1) << (2 * b + 1)
    return out


_GEOHASH32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def geohash_encode(lon, lat, precision: int = 6):
    """Standard geohash (Niemeyer base-32): alternate-axis binary
    range halving, longitude first.  Returns (string array, packed
    int value) — the int is the raw 5*precision-bit code, which a SQL
    twin reproduces with the identical midpoint comparisons and
    decodes to the same base-32 text.  Vectorized: 5*precision
    iterations of O(n) numpy."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    lo_lon = np.full(lon.shape, -180.0)
    hi_lon = np.full(lon.shape, 180.0)
    lo_lat = np.full(lat.shape, -90.0)
    hi_lat = np.full(lat.shape, 90.0)
    val = np.zeros(lon.shape, np.int64)
    for i in range(5 * precision):
        if i % 2 == 0:
            mid = (lo_lon + hi_lon) / 2
            bit = lon >= mid
            lo_lon = np.where(bit, mid, lo_lon)
            hi_lon = np.where(bit, hi_lon, mid)
        else:
            mid = (lo_lat + hi_lat) / 2
            bit = lat >= mid
            lo_lat = np.where(bit, mid, lo_lat)
            hi_lat = np.where(bit, hi_lat, mid)
        val = (val << 1) | bit.astype(np.int64)
    idx = np.stack(
        [(val >> (5 * (precision - 1 - j))) & 31 for j in range(precision)], axis=1
    )
    strs = np.array(["".join(_GEOHASH32[i] for i in row) for row in idx], dtype=object)
    return strs, val


def hilbert_xy2d(cx, cy, bits: int = 10) -> np.ndarray:
    """Hilbert curve index of non-negative integer cell coordinates
    on a 2^bits x 2^bits grid — the stronger-locality alternative to
    the Morton key (consecutive indices are always grid-adjacent, so
    a fragment of consecutive keys is a connected region, which
    Morton's quadrant jumps cannot guarantee).  The classic per-bit
    rotate-and-reflect walk, vectorized as ``bits`` iterations of
    O(n) numpy; each step is integer CASE arithmetic a recursive-CTE
    twin replays exactly."""
    x = np.asarray(cx, dtype=np.int64).copy()
    y = np.asarray(cy, dtype=np.int64).copy()
    n = np.int64(1) << bits
    if (x < 0).any() or (y < 0).any() or (x >= n).any() or (y >= n).any():
        raise ValueError(f"hilbert coordinates out of [0, 2^{bits})")
    d = np.zeros(x.shape, np.int64)
    s = n >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant: reflection uses the pre-swap values
        refl = (ry == 0) & (rx == 1)
        x_r = np.where(refl, s - 1 - x, x)
        y_r = np.where(refl, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y_r, x_r), np.where(swap, x_r, y_r)
        s >>= 1
    return d


def grid_cell_neighbors(cell_id: int, ring: int = 1) -> np.ndarray:
    """All cells within ``ring`` (Chebyshev) of a cell — for kNN
    neighbor-ring expansion."""
    cx, cy = divmod(int(cell_id), int(_GRID_WIDTH))
    offs = np.arange(-ring, ring + 1)
    gx, gy = np.meshgrid(offs, offs)
    return ((cx + gx.ravel()) * _GRID_WIDTH + (cy + gy.ravel())).astype(np.int64)


def grid_cell_disc(x, y, res: float, ring: int) -> np.ndarray:
    """Vectorized Chebyshev disc: for point arrays, the (n, (2r+1)^2)
    matrix of all cell ids within ``ring`` of each point's home cell —
    the query-side explode of the partitioned kNN shuffle."""
    cx = np.floor(np.asarray(x, dtype=np.float64) / res).astype(np.int64) + (1 << 19)
    cy = np.floor(np.asarray(y, dtype=np.float64) / res).astype(np.int64) + (1 << 19)
    offs = np.arange(-ring, ring + 1, dtype=np.int64)
    gx, gy = np.meshgrid(offs, offs)
    dx = gx.ravel()[None, :]
    dy = gy.ravel()[None, :]
    return (cx[:, None] + dx) * _GRID_WIDTH + (cy[:, None] + dy)


def grid_cells_covering_bounds(b, res: float) -> np.ndarray:
    """All grid cells intersecting a (minx, miny, maxx, maxy) box —
    footprint-to-cells assignment for the PIP join (polygons are
    duplicated to each covering cell, then results deduped)."""
    minx, miny, maxx, maxy = (float(v) for v in b)
    cx0 = int(np.floor(minx / res))
    cx1 = int(np.floor(np.nextafter(maxx, -np.inf) / res))
    cy0 = int(np.floor(miny / res))
    cy1 = int(np.floor(np.nextafter(maxy, -np.inf) / res))
    cx1 = max(cx1, cx0)
    cy1 = max(cy1, cy0)
    xs = np.arange(cx0, cx1 + 1, dtype=np.int64) + (1 << 19)
    ys = np.arange(cy0, cy1 + 1, dtype=np.int64) + (1 << 19)
    gx, gy = np.meshgrid(xs, ys)
    return (gx.ravel() * _GRID_WIDTH + gy.ravel()).astype(np.int64)


def grid_cells_covering_boxes(boxes, res: float) -> Tuple[np.ndarray, np.ndarray]:
    """``(box, cell)``: every grid cell intersecting each (minx, miny,
    maxx, maxy) row of ``boxes``, box by box, with one ``concat_ranges``
    expansion for the whole array and no loop over boxes.  Each box's
    cells are exactly ``grid_cells_covering_bounds``' (same order, x
    fastest, and the same edge rule: a max edge on a cell boundary does
    not reach into the next cell).  A non-finite box raises
    ``ValueError``."""
    b = np.asarray(boxes, np.float64).reshape(-1, 4)
    if not np.isfinite(b).all():
        raise ValueError("grid cells of a non-finite box")
    c0 = np.floor(b[:, :2] / res).astype(np.int64)
    c1 = np.floor(np.nextafter(b[:, 2:], -np.inf) / res).astype(np.int64)
    span = np.maximum(c1, c0) - c0 + 1
    nx = span[:, 0]
    box = np.repeat(np.arange(len(b), dtype=np.int64), nx * span[:, 1])
    k = concat_ranges(nx * span[:, 1])
    gx = c0[box, 0] + k % nx[box] + (1 << 19)
    gy = c0[box, 1] + k // nx[box] + (1 << 19)
    return box, gx * _GRID_WIDTH + gy


def grid_cell_center(cell_id, res: float) -> Tuple[np.ndarray, np.ndarray]:
    cell_id = np.asarray(cell_id, dtype=np.int64)
    cx = cell_id // _GRID_WIDTH - (1 << 19)
    cy = cell_id % _GRID_WIDTH - (1 << 19)
    return (cx + 0.5) * res, (cy + 0.5) * res


# ---------------------------------------------------------------------------
# Icosahedral aperture-7 hex cells ("h3x") — the H3-geometry index
# ---------------------------------------------------------------------------
#
# A from-scratch icosahedral gnomonic aperture-7 hexagonal index with
# the same geometric construction as H3 (north-star rule: "H3 (res
# 7-9) and S2"): 20 icosahedron faces, gnomonic projection per face,
# hexagonal axial grid refined by aperture 7 with the Class-II/III
# alternating rotation atan(sqrt(3)/5) per resolution, cube-rounded
# assignment, center/parent/neighbor operations.
#
# Honest deviation from canonical H3 (documented; the canonical base
# cell + face-IJK tables are not reproducible offline): ids are NOT
# bit-compatible with the h3 library, cells are clipped at face
# boundaries (each face owns the Voronoi region of its center, so
# boundary cells are partial hexes instead of spanning faces, and the
# 12 pentagon cells appear as clipped vertex neighborhoods), and the
# resolution scale S0 is chosen so res-7..9 cell sizes match H3's
# published edge lengths (~1.22 km at res 7).

_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=np.float64,
)
_ICO_VERTS /= np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _ico_bases():
    centers = _ICO_VERTS[_ICO_FACES].sum(axis=1)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    # u-axis: first face vertex projected into the tangent plane
    v0 = _ICO_VERTS[_ICO_FACES[:, 0]]
    u = v0 - (v0 * centers).sum(axis=1, keepdims=True) * centers
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(centers, u)
    return centers, u, v


_ICO_CENTERS, _ICO_U, _ICO_V = _ico_bases()

# aperture-7 inter-resolution rotation and scale
_H3X_ALPHA = np.arctan(np.sqrt(3.0) / 5.0)
_H3X_S0 = 0.1755  # res-0 hex size in gnomonic units (~H3 res-0 edge)
_H3X_OFF = np.int64(1) << 20
_SQRT3_3 = np.sqrt(3.0) / 3.0


def _h3x_grid_params(res: int):
    s = _H3X_S0 / (7.0 ** (res / 2.0))
    c = np.cos(res * _H3X_ALPHA)
    sn = np.sin(res * _H3X_ALPHA)
    return s, c, sn


def _h3x_face_of(x, y, z):
    dots = x[:, None] * _ICO_CENTERS[:, 0] + y[:, None] * _ICO_CENTERS[:, 1] + z[:, None] * _ICO_CENTERS[:, 2]
    return np.argmax(dots, axis=1)


def _cube_round(q, r):
    """Axial (fractional) -> nearest hex, standard cube rounding with
    floor(x+0.5) ties (mirrored verbatim in the SQL twin)."""
    x, z = q, r
    y = -x - z
    rx, ry, rz = np.floor(x + 0.5), np.floor(y + 0.5), np.floor(z + 0.5)
    dx, dy, dz = np.abs(rx - x), np.abs(ry - y), np.abs(rz - z)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & ~(dy > dz)
    qf = np.where(fix_x, -ry - rz, rx)
    rf = np.where(fix_z, -rx - ry, rz)
    return qf.astype(np.int64), rf.astype(np.int64)


def h3x_cell(lon_deg, lat_deg, res: int) -> np.ndarray:
    """Vectorized icosahedral aperture-7 hex cell id at ``res``
    (0..15; the north-star range is 7-9)."""
    if not 0 <= res <= 15:
        raise ValueError(f"h3x res must be 0..15, got {res}")
    x, y, z = _lonlat_to_xyz(lon_deg, lat_deg)
    x, y, z = np.atleast_1d(x), np.atleast_1d(y), np.atleast_1d(z)
    face = _h3x_face_of(x, y, z)
    c = _ICO_CENTERS[face]
    u = _ICO_U[face]
    v = _ICO_V[face]
    dp = x * c[:, 0] + y * c[:, 1] + z * c[:, 2]
    tx, ty, tz = x / dp, y / dp, z / dp  # gnomonic point on tangent plane
    px = tx * u[:, 0] + ty * u[:, 1] + tz * u[:, 2]
    py = tx * v[:, 0] + ty * v[:, 1] + tz * v[:, 2]
    s, co, sn = _h3x_grid_params(res)
    gx = (co * px + sn * py) / s
    gy = (-sn * px + co * py) / s
    fq = _SQRT3_3 * gx - gy / 3.0
    fr = (2.0 / 3.0) * gy
    qi, ri = _cube_round(fq, fr)
    # the 21-bit q/r fields hold axials in [-2^20, 2^20); beyond that
    # (res >= ~13 near face edges) packing would silently alias into
    # the neighbouring bit fields — refuse rather than corrupt
    if np.any((np.abs(qi) >= _H3X_OFF) | (np.abs(ri) >= _H3X_OFF)):
        raise ValueError(
            f"h3x res {res}: axial coordinates overflow the 21-bit cell packing "
            "(use res <= 12 for global coverage)"
        )
    return (
        ((face * np.int64(16) + res) << np.int64(42))
        | ((qi + _H3X_OFF) << np.int64(21))
        | (ri + _H3X_OFF)
    )


def h3x_decode(cell_id: np.ndarray):
    """(face, res, q, r) of h3x ids."""
    cell_id = np.asarray(cell_id, dtype=np.int64)
    fr = cell_id >> np.int64(42)
    face, res = fr // 16, fr % 16
    q = ((cell_id >> np.int64(21)) & np.int64((1 << 21) - 1)) - _H3X_OFF
    r = (cell_id & np.int64((1 << 21) - 1)) - _H3X_OFF
    return face, res, q, r


def h3x_res(cell_id: np.ndarray) -> np.ndarray:
    return h3x_decode(cell_id)[1]


def h3x_cell_center(cell_id: np.ndarray):
    """(lon, lat) of cell centers (inverse gnomonic through the cell's
    own face basis)."""
    face, res, q, r = h3x_decode(np.asarray(cell_id, dtype=np.int64))
    out_lon = np.empty(len(face))
    out_lat = np.empty(len(face))
    for rr in np.unique(res):
        m = res == rr
        s, co, sn = _h3x_grid_params(int(rr))
        gx = np.sqrt(3.0) * (q[m] + r[m] / 2.0)
        gy = 1.5 * r[m]
        # undo the res rotation, rescale to gnomonic units
        px = (co * gx - sn * gy) * s
        py = (sn * gx + co * gy) * s
        c = _ICO_CENTERS[face[m]]
        u = _ICO_U[face[m]]
        v = _ICO_V[face[m]]
        t = c + px[:, None] * u + py[:, None] * v
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        out_lon[m] = np.degrees(np.arctan2(t[:, 1], t[:, 0]))
        out_lat[m] = np.degrees(np.arcsin(np.clip(t[:, 2], -1, 1)))
    return out_lon, out_lat


def h3x_parent(cell_id: np.ndarray, res: int = None) -> np.ndarray:
    """Parent at ``res`` (default: one coarser): the cell containing
    this cell's center — H3's center-containment hierarchy."""
    cell_id = np.asarray(cell_id, dtype=np.int64)
    cur = h3x_res(cell_id)
    target = (cur - 1) if res is None else np.full_like(cur, res)
    lon, lat = h3x_cell_center(cell_id)
    out = np.empty_like(cell_id)
    for t in np.unique(target):
        m = target == t
        out[m] = h3x_cell(lon[m], lat[m], int(t))
    return out


def h3x_neighbors(cell_id: int) -> np.ndarray:
    """The 6 axial neighbors on the same face grid (face-local; cells
    across an icosahedron edge belong to the neighboring face's grid
    — documented deviation from canonical H3 edge traversal)."""
    face, res, q, r = (int(a[0]) for a in h3x_decode(np.asarray([cell_id])))
    deltas = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
    out = []
    for dq, dr in deltas:
        out.append(
            ((face * 16 + res) << 42)
            | ((q + dq + int(_H3X_OFF)) << 21)
            | (r + dr + int(_H3X_OFF))
        )
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Hex cells (planar axial binning; the cheap planar fallback)
# ---------------------------------------------------------------------------


def hex_cell_id(x, y, size: float) -> np.ndarray:
    """Pointy-top hex binning via axial coords + cube rounding."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    q = (np.sqrt(3) / 3 * x - y / 3) / size
    r = (2.0 / 3 * y) / size
    # cube rounding
    cx, cz = q, r
    cy = -cx - cz
    rx, ry, rz = np.round(cx), np.round(cy), np.round(cz)
    dx, dy, dz = np.abs(rx - cx), np.abs(ry - cy), np.abs(rz - cz)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & (dz > dy)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(fix_z, -rx - ry, rz)
    qi = rx.astype(np.int64) + (1 << 19)
    ri = rz.astype(np.int64) + (1 << 19)
    return qi * _GRID_WIDTH + ri
