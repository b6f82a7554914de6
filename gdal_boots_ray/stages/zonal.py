"""Zonal / tile extraction stage — the flagship composed pipeline.

The Ray shape of reference ``crop_by_geometry`` (gdal.py:819-888,
SURVEY §3.2): after the PIP join has attached ``poly_id`` to tile
rows, this actor crops each tile to the polygon (envelope warp +
scanline mask) and emits per-(poly, tile) zonal statistics; a
downstream ``groupby(poly_id)`` merges tile partials into polygon
totals — a partial->final aggregate, so the shuffle moves one stats
row per (poly, tile), never pixels.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa
import ray

from gdal_boots_ray.kernels.rasterize import rasterize
from gdal_boots_ray.kernels.warp import WarpSource, crop_by_geometry
from gdal_boots_ray.stages.decode import binary_column_views, pixels_view


class ZonalStats:
    """map_batches actor over (tile row + poly_id) batches.

    For each row: rasterize the polygon onto the tile grid, mask, and
    emit (poly_id, image_id, n_px, sum_v, min_v, max_v) partials of
    band 0 (reference masks with nodata, gdal.py:882-887; here we
    aggregate instead of materializing masked pixels)."""

    def __init__(self, polygons_ref):
        polys = ray.get(polygons_ref) if isinstance(polygons_ref, ray.ObjectRef) else polygons_ref
        self.polygons = {pid: rings for pid, rings in polys}

    def __call__(self, batch: pa.Table) -> pa.Table:
        from gdal_boots_ray.kernels.geometry import points_in_rings

        from gdal_boots_ray.stages.decode import batch_pixel_views

        n = batch.num_rows
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        hs = batch.column("h").to_numpy()
        ws = batch.column("w").to_numpy()
        views = batch_pixel_views(batch)
        pids = batch.column("poly_id").to_numpy()
        out = {
            "poly_id": np.asarray(pids, np.int64),
            "image_id": batch.column("image_id").to_pylist(),
            "n_px": np.zeros(n, np.int64),
            "sum_v": np.zeros(n, np.float64),
            "min_v": np.full(n, np.inf),
            "max_v": np.full(n, -np.inf),
        }
        for i in range(n):
            rings = self.polygons.get(int(pids[i]))
            if rings is None:
                continue
            img = views[i]
            band0 = img if img.ndim == 2 else img[0]
            sel = select_zone_pixels(rings, band0, (int(hs[i]), int(ws[i])), gts[i])
            out["n_px"][i] = sel.size
            if sel.size:
                out["sum_v"][i] = float(sel.sum(dtype=np.float64))
                out["min_v"][i] = float(sel.min())
                out["max_v"][i] = float(sel.max())
        keep = out["n_px"] > 0
        return pa.table(
            {
                "poly_id": pa.array(out["poly_id"][keep]),
                "image_id": pa.array([v for v, k in zip(out["image_id"], keep) if k], pa.string()),
                "n_px": pa.array(out["n_px"][keep]),
                "sum_v": pa.array(out["sum_v"][keep]),
                "min_v": pa.array(out["min_v"][keep]),
                "max_v": pa.array(out["max_v"][keep]),
            }
        )


def select_zone_pixels(rings, band: np.ndarray, shape, gt) -> np.ndarray:
    """Flat array of ``band`` values whose pixel centers lie inside
    the polygon — THE zone-pixel-selection convention (interior-tile
    fast path + scanline mask), shared by ZonalStats and every other
    zonal reduction so they cannot silently diverge."""
    if _rings_cover_tile(rings, shape, gt):
        return band.reshape(-1)
    return band[_rings_mask(rings, shape, gt)]


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

    Batched over every tile one polygon matched in a batch, so the
    fixed numpy cost is paid once per polygon, not once per pair.  At
    scale this is the dominant zonal fast path: for any AOI much
    larger than a tile, almost every matched tile is interior — the
    O(edges·h + area) scanline fill collapses to an O(edges) check and
    whole-array stats (no mask allocation, no gather)."""
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
