"""Stateless geo column stages: bounds, centers, CRS, cell assignment.

All are vectorized pyarrow/numpy batch functions for
``map_batches(fn, batch_format="pyarrow")`` — the columnar versions of
reference ``bounds`` / ``bounds_polygon`` / cell indexing
(gdal.py:301-362 + north-star H3/S2 requirement).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_boots_ray.kernels.affine import bounds as bounds_kernel
from gdal_boots_ray.kernels.cells import grid_cell_id, s2_cell_id
from gdal_boots_ray.kernels.crs import transform_points


def gt_matrix(batch: pa.Table) -> np.ndarray:
    """The (n, 6) geotransforms of the ``gt`` column."""
    col = batch.column("gt")
    flat = col.combine_chunks().flatten() if isinstance(col, pa.ChunkedArray) else col.flatten()
    return flat.to_numpy(zero_copy_only=False).reshape(-1, 6)


def add_bounds(batch: pa.Table) -> pa.Table:
    """Append minx/miny/maxx/maxy + center cx/cy columns from gt+w+h."""
    gt = gt_matrix(batch)
    w = batch.column("w").to_numpy()
    h = batch.column("h").to_numpy()
    b = bounds_kernel(gt, w, h)
    for i, name in enumerate(("minx", "miny", "maxx", "maxy")):
        batch = batch.append_column(name, pa.array(b[:, i], pa.float64()))
    batch = batch.append_column("cx", pa.array((b[:, 0] + b[:, 2]) / 2, pa.float64()))
    batch = batch.append_column("cy", pa.array((b[:, 1] + b[:, 3]) / 2, pa.float64()))
    return batch


def make_add_grid_cell(res: float, x_col: str = "cx", y_col: str = "cy", out: str = "cell"):
    """Grid cell id of a point column (SQL-mirrored formula)."""

    def fn(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy()
        y = batch.column(y_col).to_numpy()
        return batch.append_column(out, pa.array(grid_cell_id(x, y, res), pa.int64()))

    return fn


def make_add_s2_cell(level: int, lon_col: str = "lon", lat_col: str = "lat", out: str = "s2_cell"):
    def fn(batch: pa.Table) -> pa.Table:
        lon = batch.column(lon_col).to_numpy()
        lat = batch.column(lat_col).to_numpy()
        return batch.append_column(out, pa.array(s2_cell_id(lon, lat, level), pa.int64()))

    return fn


def to_lonlat(epsg: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(lon, lat) of the points (x[i], y[i]) in CRS ``epsg[i]``, grouped
    by code so the CRS kernel runs vectorized per distinct code."""
    lon = np.empty_like(x)
    lat = np.empty_like(y)
    for code in np.unique(epsg):
        m = epsg == code
        lon[m], lat[m] = transform_points(int(code), 4326, x[m], y[m])
    return lon, lat


def make_add_lonlat(crs_col: str = "epsg", x_col: str = "cx", y_col: str = "cy"):
    """Reproject point columns to lon/lat (``to_lonlat``)."""

    def fn(batch: pa.Table) -> pa.Table:
        lon, lat = to_lonlat(
            batch.column(crs_col).to_numpy(), batch.column(x_col).to_numpy(), batch.column(y_col).to_numpy()
        )
        batch = batch.append_column("lon", pa.array(lon, pa.float64()))
        batch = batch.append_column("lat", pa.array(lat, pa.float64()))
        return batch

    return fn
