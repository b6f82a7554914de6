"""Distributed mosaic (reference ``union`` / warp extra_ds mosaics,
gdal.py:890-895, 713-714).

Ray blocks arrive unordered, but mosaic overlap resolution is
order-dependent (later-listed dataset wins).  Every mosaic group
therefore carries an explicit ``seq`` column and the per-group merge
sorts by it before painting — never relying on block arrival order
(SURVEY §2.8)."""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

from gdal_boots_ray.kernels.warp import WarpSource, union_mosaic
from gdal_boots_ray.stages.decode import binary_column_views, pixels_view


def mosaic_group(g: pa.Table) -> pa.Table:
    """map_groups fn: one mosaic per ``mosaic_key`` group; rows need
    pixels/w/h/bands/gt/epsg/seq.  Output row = the merged raster.
    Arrow in/out: pixel payloads enter as zero-copy buffer views, not
    per-row pandas object cells."""
    seq = g.column("seq").to_numpy()
    order = np.argsort(seq, kind="mergesort")  # higher seq painted later -> wins
    views = binary_column_views(g.column("pixels"))
    bands = g.column("bands").to_numpy()
    hs = g.column("h").to_numpy()
    ws = g.column("w").to_numpy()
    gts = g.column("gt").to_pylist()
    epsg = g.column("epsg").to_numpy()
    sources = []
    for i in order:
        img = pixels_view(views[i], int(bands[i]), int(hs[i]), int(ws[i]))
        sources.append(
            WarpSource(img if img.ndim == 3 else img[None], np.asarray(gts[i]), int(epsg[i]))
        )
    img, gi = union_mosaic(sources)
    return pa.table(
        {
            "mosaic_key": g.column("mosaic_key").take(pa.array([0], pa.int64())),
            "pixels": pa.array([np.ascontiguousarray(img).tobytes()], pa.binary()),
            "bands": pa.array([img.shape[0]], pa.int64()),
            "h": pa.array([img.shape[1]], pa.int64()),
            "w": pa.array([img.shape[2]], pa.int64()),
            "gt": pa.array([list(gi.transform)], pa.list_(pa.float64())),
            "epsg": pa.array([int(epsg[0])], pa.int64()),
            "n_inputs": pa.array([g.num_rows], pa.int64()),
        }
    )


def mosaic_dataset(ds):
    """groupby(mosaic_key).map_groups(mosaic_group) — the groupby is
    the only shuffle; pixels move once."""
    return ds.groupby("mosaic_key").map_groups(mosaic_group, batch_format="pyarrow")
