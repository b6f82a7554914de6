"""Zonal extraction — the pixel path of the flagship composed pipeline.

The Ray shape of reference ``crop_by_geometry`` (gdal.py:819-888,
SURVEY §3.2) plus a reduce over the polygon's pixels: after the PIP
join has matched tiles to polygons, :func:`zone_spans` selects the
band-0 pixels of every (tile, poly) pair inside its polygon in one
vectorized pass over plain arrays, as ``(pair, start, end)`` spans into
the tile's flat band.  The spans read the geotransform, the tile size
and the polygon only, never a pixel:

- a batch-wide cover test (:func:`_cover_pairs`) sends each tile the
  polygon covers whole to one span over the tile;
- every other pair gets one span per run of inside pixels of each tile
  row, from the sorted scanline crossings of its polygon's edges
  (:func:`_boundary_spans`) — the even-odd rule ``_rings_mask``
  rasterizes, so the selection is the same pixel for pixel.

The polygons' rings are one CSR (compressed sparse row) table,
``kernels.geometry.PolygonEdges``, built once per worker by the PIP
join; each pass expands (pair x polygon edge) from it, and the join and
the cover test share one even-odd kernel over it,
``kernels.geometry.points_in_polygons``.  Two
reducers fold the spans, shifted into one flat buffer of decoded band-0
pixels, into one small partial per pair: :func:`zonal_partials` (n_px,
sum, min, max, with ``reduceat``) for the flagship and ``zonal_stats``,
and :func:`zonal_histograms` (nonzero bins) for ``zonal_majority`` /
``zonal_median``.  Partials, never
pixels, leave the process.  ``_rings_cover_tiles`` and ``_rings_mask``
are the one-polygon forms of the two tests, kept as their references.
``CropTiles`` is the full crop, for pipelines that need the cropped
pixels themselves.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from gdal_boots_ray.kernels.affine import invert_gt
from gdal_boots_ray.kernels.geometry import PolygonEdges, points_in_polygons
from gdal_boots_ray.kernels.ranges import concat_ranges, csr_expand, pair_chunks
from gdal_boots_ray.kernels.warp import WarpSource, crop_by_geometry
from gdal_boots_ray.stages.decode import binary_column_views, pixels_view


def zone_spans(polys: PolygonEdges, pids, hs, ws, gts):
    """THE zone-pixel selection of every zonal reduction: ``(pair,
    start, end)`` int64 arrays, sorted by pair, of the non-empty spans
    ``band[start:end]`` of the pixels inside polygon ``pids[i]`` of
    pair ``i``'s tile (``hs[i]`` x ``ws[i]`` pixels, geotransform
    ``gts[i]``), as offsets into the tile's flat (h, w) band.  The
    spans read no pixel, so a caller computes them once and shifts
    them by wherever it puts each band.  A pair whose polygon is not in
    ``polys`` selects nothing."""
    gts = np.asarray(gts, np.float64).reshape(-1, 6)
    hs = np.asarray(hs, np.int64)
    ws = np.asarray(ws, np.int64)
    q = polys.index(pids)
    known = np.flatnonzero(q >= 0)
    out = [np.zeros((3, 0), np.int64)]
    # bounded (pair x edge) expansions, whatever the polygons' sizes
    for lo, hi in pair_chunks(polys.e_off[q[known] + 1] - polys.e_off[q[known]]):
        i = known[lo:hi]
        covered = _cover_pairs(polys, q[i], hs[i], ws[i], gts[i])
        inner = i[covered]
        out.append(np.stack([inner, np.zeros_like(inner), hs[inner] * ws[inner]]))
        b = i[~covered]
        pair, start, end = _boundary_spans(polys, q[b], hs[b], ws[b], gts[b])
        out.append(np.stack([b[pair], start, end]))
    pair, start, end = np.concatenate(out, axis=1)
    keep = np.flatnonzero(start < end)
    order = keep[np.argsort(pair[keep], kind="stable")]
    return pair[order], start[order], end[order]


def _cover_pairs(polys: PolygonEdges, q, hs, ws, gts) -> np.ndarray:
    """bool[k]: does polygon ``q[j]`` cover tile j whole?  The batch
    form of :func:`_rings_cover_tiles`, over every pair at once, with
    the same test in the same float operations: no edge of any ring
    crosses the tile (bbox candidates, then the 4-corner sign test)
    and all 4 corners are inside by even-odd parity over the rings of
    at least 4 points (``points_in_rings``' crossing rule)."""
    k = len(q)
    # corner columns and rows, (k, 4): 0 or w, 0 or h
    cw = np.asarray(ws, np.float64)[:, None] * np.array([0.0, 1.0, 0.0, 1.0])
    ch = np.asarray(hs, np.float64)[:, None] * np.array([0.0, 0.0, 1.0, 1.0])
    xs = gts[:, 0:1] * cw + gts[:, 1:2] * ch + gts[:, 2:3]
    ys = gts[:, 3:4] * cw + gts[:, 4:5] * ch + gts[:, 5:6]
    p, e = csr_expand(polys.e_off, q)
    cand = np.flatnonzero(
        (polys.ex_lo[e] <= xs.max(axis=1)[p])
        & (polys.ex_hi[e] >= xs.min(axis=1)[p])
        & (polys.ey_lo[e] <= ys.max(axis=1)[p])
        & (polys.ey_hi[e] >= ys.min(axis=1)[p])
    )
    p, e = p[cand], e[cand, None]
    s = polys.dx[e] * (ys[p] - polys.y0[e]) - polys.dy[e] * (xs[p] - polys.x0[e])
    crossed = np.zeros(k, bool)
    crossed[p[~((s > 0).all(axis=1) | (s < 0).all(axis=1))]] = True
    inside = points_in_polygons(polys, xs.reshape(-1), ys.reshape(-1), np.repeat(q, 4))
    return ~crossed & inside.reshape(k, 4).all(axis=1)


def _boundary_spans(polys: PolygonEdges, q, hs, ws, gts):
    """(pair, start, end) int64 arrays: the runs of tile pixels whose
    centers are inside polygon ``q[j]`` on tile j (``hs[j]`` x ``ws[j]``,
    geotransform ``gts[j]``), as flat offsets into the tile's band, by
    pair then row then column.  The batch form of :func:`_rings_mask`
    with the same float operations: the vertices go to pixel space by
    ``invert_gt``, into the window of their bbox clipped to the tile;
    each edge of a ring of at least 4 points that is not horizontal
    crosses the window rows ``r`` whose centers ``yc = r + 0.5`` it
    spans, at column ``t = ceil(xint - 0.5)`` clipped to [0, W].  In a
    row of ``m`` crossings sorted ascending, the ``k``-th gap (before
    the ``k``-th crossing) is inside iff ``m + k`` is odd — the parity
    ``fill_mask_pixelspace`` accumulates; the gap after the last
    crossing never is."""
    nothing = (np.zeros(0, np.int64),) * 3
    if not len(q):
        return nothing
    inv = invert_gt(gts)
    pv, v = csr_expand(polys.v_off, q)
    px = inv[pv, 0] * polys.vx[v] + inv[pv, 1] * polys.vy[v] + inv[pv, 2]
    py = inv[pv, 3] * polys.vx[v] + inv[pv, 4] * polys.vy[v] + inv[pv, 5]
    # the window: the vertices' bbox, clipped to the tile
    n_v = polys.v_off[q + 1] - polys.v_off[q]
    first = np.cumsum(n_v) - n_v
    col_lo = np.maximum(0.0, np.floor(np.minimum.reduceat(px, first)))
    col_hi = np.minimum(ws, np.ceil(np.maximum.reduceat(px, first)) + 1)
    row_lo = np.maximum(0.0, np.floor(np.minimum.reduceat(py, first)))
    row_hi = np.minimum(hs, np.ceil(np.maximum.reduceat(py, first)) + 1)
    height, width = np.maximum(row_hi - row_lo, 0), np.maximum(col_hi - col_lo, 0)
    # the crossing edges, between vertices in the window's frame
    px -= col_lo[pv]
    py -= row_lo[pv]
    p, f = csr_expand(polys.f_off, q)
    f = polys.fill[f]
    in_window = (width[p] > 0) & (height[p] > 0)
    p, f = p[in_window], f[in_window]
    a = first[p] + polys.a[f]
    x0, y0, x1, y1 = px[a], py[a], px[a + 1], py[a + 1]
    r_lo = np.maximum(0.0, np.ceil(np.minimum(y0, y1) - 0.5))
    r_hi = np.minimum(height[p] - 1, np.ceil(np.maximum(y0, y1) - 0.5) - 1)
    live = np.flatnonzero((r_hi >= r_lo) & (y0 != y1))
    if not len(live):
        return nothing
    n_rows = (r_hi[live] - r_lo[live] + 1).astype(np.int64)
    j = np.repeat(live, n_rows)
    rows = np.repeat(r_lo[live].astype(np.int64), n_rows) + concat_ranges(n_rows)
    yc = rows + 0.5
    xint = x0[j] + (yc - y0[j]) * (x1 - x0)[j] / (y1 - y0)[j]
    pair = p[j]
    width = width.astype(np.int64)
    t = np.clip(np.ceil(xint - 0.5).astype(np.int64), 0, width[pair])
    # one key per (pair, window row), ascending with pair; sort the
    # crossings by row, then column
    g = (np.cumsum(height) - height).astype(np.int64)[pair] + rows
    order = np.argsort(g * (int(width.max()) + 1) + t)
    g, t, pair, rows = g[order], t[order], pair[order], rows[order]
    head = np.concatenate(([True], g[1:] != g[:-1]))
    starts = np.flatnonzero(head)
    group = np.cumsum(head) - 1
    m = np.diff(np.concatenate((starts, [len(g)])))[group]
    kth = np.arange(len(g)) - starts[group]
    gap_lo = np.where(head, 0, np.concatenate(([0], t[:-1])))
    inside = np.flatnonzero(((m + kth) % 2 == 1) & (gap_lo < t))
    pair, rows = pair[inside], rows[inside]
    flat = (rows + row_lo[pair].astype(np.int64)) * ws[pair] + col_lo[pair].astype(np.int64)
    return pair, flat + gap_lo[inside], flat + t[inside]


def zonal_partials(pids, pair, start, end, buf: np.ndarray) -> dict:
    """Per-(poly, tile) partials, by pair, of the spans ``buf[start:
    end]`` of the pairs ``pair`` (sorted, as :func:`zone_spans` gives
    them, shifted to where each band lies in ``buf``): ``poly_id``
    (``pids[pair]``), ``n_px``, ``sum_v``, ``min_v`` and ``max_v``
    arrays, one entry per pair with a span — the stats reducer of the
    flagship.  ``buf`` has one trailing sentinel element past its last
    band, so a span ending at the last pixel is a valid ``reduceat``
    index.  An unsigned ``buf`` whose longest span cannot overflow 32
    bits is summed in uint32, anything else in float64; on integer
    pixels both sums are exact, so ``sum_v`` is the same either way."""
    idx = np.empty(2 * len(start), np.int64)
    idx[0::2], idx[1::2] = start, end
    if len(idx):
        # the even results reduce the spans, the odd ones the gaps between;
        # unsigned spans too short to overflow uint32 sum without a
        # per-pixel float64 cast (an exact integer either way)
        small = buf.dtype.kind == "u" and int((end - start).max()) * int(np.iinfo(buf.dtype).max) < 2**32
        span_sum = np.add.reduceat(buf, idx, dtype=np.uint32 if small else np.float64)[0::2]
        span_min = np.minimum.reduceat(buf, idx)[0::2]
        span_max = np.maximum.reduceat(buf, idx)[0::2]
    else:
        span_sum = span_min = span_max = np.zeros(0, buf.dtype)
    first = np.flatnonzero(np.concatenate(([len(pair) > 0], pair[1:] != pair[:-1])))

    def per_pair(ufunc, x):
        return ufunc.reduceat(x, first) if len(first) else x[:0]

    return {
        "poly_id": np.asarray(pids, np.int64)[pair[first]],
        "n_px": per_pair(np.add, end - start).astype(np.int64),
        "sum_v": per_pair(np.add, span_sum.astype(np.float64)),
        "min_v": per_pair(np.minimum, span_min).astype(np.float64),
        "max_v": per_pair(np.maximum, span_max).astype(np.float64),
    }


def zonal_histograms(pids, pair, start, end, buf: np.ndarray) -> pa.Table:
    """The nonzero histogram bins of the spans ``buf[start:end]`` of
    each pair of ``pair`` (sorted, as for :func:`zonal_partials`), as
    (poly_id, v, cnt) int64 rows by pair, then value ascending, with
    ``pids[pair]`` the pair's poly_id — the histogram reducer of the
    zonal MAJORITY / QUARTILES queries.  A pair emits at most 256 rows
    for uint8 pixels, so an exchange downstream carries histograms,
    never pixels."""
    n = end - start
    v = buf[np.repeat(start, n) + concat_ranges(n)].astype(np.int64)
    pair = np.repeat(pair, n)
    pids = np.asarray(pids, np.int64)
    if len(v) and v.min() < 0:
        j = int(np.argmin(v))
        raise ValueError(f"poly_id {pids[pair[j]]}: zonal histograms need non-negative pixels, got {v[j]}")
    bins = int(v.max()) + 1 if len(v) else 1
    # one key per (pair, value): sorted, they run by pair, then value
    nz, cnt = np.unique(pair * bins + v, return_counts=True)
    return pa.table(
        {
            "poly_id": pa.array(pids[nz // bins]),
            "v": pa.array(nz % bins),
            "cnt": pa.array(cnt.astype(np.int64)),
        }
    )


def _rings_cover_tile(rings, shape, gt) -> bool:
    """True iff the polygon fully covers the (h, w) = ``shape`` tile
    with geotransform ``gt`` — the one-tile form of
    :func:`_rings_cover_tiles`, which holds the test."""
    return bool(_rings_cover_tiles(rings, [shape[0]], [shape[1]], np.reshape(gt, (1, 6)))[0])


def _rings_cover_tiles(rings, hs, ws, gts) -> np.ndarray:
    """bool[k]: does the polygon fully cover tile j (``hs[j]`` x
    ``ws[j]`` pixels, geotransform ``gts[j]``)?  True iff all 4 tile
    corners are inside (even-odd parity) AND no ring edge crosses the
    tile.  Corners-inside + no-boundary-crossing means the whole tile
    boundary (hence interior) lies inside the polygon.

    The edge test is a cheap (edges x tiles) bbox-overlap candidate
    mask followed by an exact segment-vs-rectangle test on candidate
    edges only: a segment misses the rectangle iff all 4 corners lie
    strictly on one side of its line, an (edges x tiles x 4) sign
    array (diagonal edges have huge bboxes, so a bbox-only test would
    false-bail on every interior tile of a diamond/rotated AOI).  It
    is conservative — a corner exactly on an edge line counts as a
    crossing — so it may send a covered tile to the mask path but
    never false-covers.  One ``points_in_rings`` call then tests all
    4k corners.

    This is the one-polygon reference for :func:`_cover_pairs`, the
    batch form the zonal pass runs; the tests compare the two tile for
    tile."""
    from gdal_boots_ray.kernels.geometry import points_in_rings

    gts = np.asarray(gts, np.float64).reshape(-1, 6)
    k = len(gts)
    if k == 0:
        return np.zeros(0, bool)
    hs = np.asarray(hs, np.float64).reshape(k, 1)
    ws = np.asarray(ws, np.float64).reshape(k, 1)
    zero = np.zeros((k, 1))
    cw = np.hstack([zero, ws, zero, ws])  # corner columns, (k, 4)
    ch = np.hstack([zero, zero, hs, hs])  # corner rows
    xs = gts[:, 0:1] * cw + gts[:, 1:2] * ch + gts[:, 2:3]
    ys = gts[:, 3:4] * cw + gts[:, 4:5] * ch + gts[:, 5:6]
    bx0, bx1 = xs.min(axis=1), xs.max(axis=1)
    by0, by1 = ys.min(axis=1), ys.max(axis=1)
    crossed = np.zeros(k, bool)
    for ring in rings:
        x0, y0 = ring[:-1, 0], ring[:-1, 1]
        x1, y1 = ring[1:, 0], ring[1:, 1]
        # (edges x tiles) bbox-overlap candidates
        cand = (
            (np.minimum(x0, x1)[:, None] <= bx1)
            & (np.maximum(x0, x1)[:, None] >= bx0)
            & (np.minimum(y0, y1)[:, None] <= by1)
            & (np.maximum(y0, y1)[:, None] >= by0)
        )
        e = np.flatnonzero(cand.any(axis=1))
        if e.size == 0:
            continue
        dx = (x1 - x0)[e, None, None]
        dy = (y1 - y0)[e, None, None]
        s = dx * (ys[None] - y0[e, None, None]) - dy * (xs[None] - x0[e, None, None])
        hits = ~((s > 0).all(axis=2) | (s < 0).all(axis=2))
        crossed |= (cand[e] & hits).any(axis=0)
    inside = points_in_rings(xs.reshape(-1), ys.reshape(-1), rings).reshape(k, 4).all(axis=1)
    return ~crossed & inside


def _rings_mask(rings, shape, gt) -> np.ndarray:
    """Pixel-center mask of pre-parsed rings on a tile grid (scanline
    parity fill — O(edges*h + area), no (edges x pixels) broadcast)."""
    from gdal_boots_ray.kernels.affine import invert_gt
    from gdal_boots_ray.kernels.rasterize import fill_mask_pixelspace

    h, w = shape
    inv = invert_gt(np.asarray(gt))[0]
    pix_rings = []
    for ring in rings:
        px = inv[0] * ring[:, 0] + inv[1] * ring[:, 1] + inv[2]
        py = inv[3] * ring[:, 0] + inv[4] * ring[:, 1] + inv[5]
        pix_rings.append(np.stack([px, py], axis=1))
    allr = np.vstack(pix_rings)
    col_lo = max(0, int(np.floor(allr[:, 0].min())))
    col_hi = min(w, int(np.ceil(allr[:, 0].max())) + 1)
    row_lo = max(0, int(np.floor(allr[:, 1].min())))
    row_hi = min(h, int(np.ceil(allr[:, 1].max())) + 1)
    mask = np.zeros((h, w), dtype=bool)
    if col_lo >= col_hi or row_lo >= row_hi:
        return mask
    shifted = [r - np.array([col_lo, row_lo], dtype=np.float64) for r in pix_rings]
    mask[row_lo:row_hi, col_lo:col_hi] = fill_mask_pixelspace(shifted, row_hi - row_lo, col_hi - col_lo)
    return mask


class CropTiles:
    """Full crop_by_geometry per (tile, polygon) row: emits cropped
    pixel rows (image_id, poly_id, pixels, w, h, bands, gt) — the
    raster→vector tile-extraction output (kept for pipelines that
    need pixels, e.g. re-encode sinks)."""

    def __init__(self, polygons_ref, geometry_crs=None, apply_mask: bool = True):
        polys = ray.get(polygons_ref) if isinstance(polygons_ref, ray.ObjectRef) else polygons_ref
        self.geoms = {int(p["poly_id"]): p["geometry"] for p in polys} if isinstance(polys[0], dict) else None
        if self.geoms is None:
            raise ValueError("CropTiles needs raw polygon dicts (poly_id + geometry)")
        self.apply_mask = apply_mask
        self.geometry_crs = geometry_crs

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        ws = batch.column("w").to_numpy()
        hs = batch.column("h").to_numpy()
        bands = batch.column("bands").to_numpy()
        epsg = batch.column("epsg").to_numpy()
        pix = binary_column_views(batch.column("pixels"))
        pids = batch.column("poly_id").to_numpy()
        ids = batch.column("image_id").to_pylist()
        rows = {k: [] for k in ("image_id", "poly_id", "pixels", "w", "h", "bands", "gt")}
        for i in range(n):
            geom = self.geoms.get(int(pids[i]))
            if geom is None:
                continue
            img = pixels_view(pix[i], int(bands[i]), int(hs[i]), int(ws[i]))
            src = WarpSource(img if img.ndim == 3 else img[None], gts[i], int(epsg[i]))
            try:
                out, gi, mask = crop_by_geometry(
                    src,
                    geom,
                    geometry_crs=self.geometry_crs if self.geometry_crs is not None else int(epsg[i]),
                    apply_mask=self.apply_mask,
                )
            except RuntimeError:
                continue  # degenerate overlap
            rows["image_id"].append(ids[i])
            rows["poly_id"].append(int(pids[i]))
            rows["pixels"].append(np.ascontiguousarray(out).tobytes())
            rows["w"].append(out.shape[2])
            rows["h"].append(out.shape[1])
            rows["bands"].append(out.shape[0])
            rows["gt"].append(list(gi.transform))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "poly_id": pa.array(rows["poly_id"], pa.int64()),
                "pixels": pa.array(rows["pixels"], pa.large_binary()),
                "w": pa.array(rows["w"], pa.int32()),
                "h": pa.array(rows["h"], pa.int32()),
                "bands": pa.array(rows["bands"], pa.int32()),
                "gt": pa.array(rows["gt"], pa.list_(pa.float64(), 6)),
            }
        )
