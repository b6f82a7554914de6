"""Oracle-checked query suite over the driver's sf tables.

Each ``q_*`` function takes ``sf_dir`` and returns a Dataset / pandas
DataFrame; ``ORACLE_SQL`` holds the DuckDB twin for every
SQL-expressible query.  Geo inputs are derived deterministically from
the TPC-H-ish tables (``part`` -> tiles, ``customer`` -> points,
``nation`` -> diamond polygons; formulas in sources/fixtures.py) so
the SQL oracle can replay even decoded-pixel math via the closed-form
pixel field ``(x*31 + y*17 + key) % 256``.

Column-naming rule: every computed column is named identically in the
Ray pipeline and the SQL (the driver sorts columns by name and hashes
values).  Floats that accumulate (sums, ratios, similarities) are
rounded identically on both sides.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

TILE_SQL_CTE = """
tiles AS (
    SELECT
        p_partkey AS k,
        printf('img-%08d', p_partkey) AS image_id,
        CAST(32 + (p_partkey % 3) * 16 AS BIGINT) AS w,
        CAST(32 + (p_partkey % 5) * 8 AS BIGINT) AS h,
        600000.0 + (p_partkey % 40) * 1000.0 AS x0,
        5700000.0 - (p_partkey // 40) * 1000.0 AS y0
    FROM part
)
"""

# bit-interleave replay of kernels/cells.morton_interleave2 (16 bits
# per axis), over integer columns named cx / cy
MORTON_SQL_EXPR = " + ".join(
    f"(((cx >> {b}) & 1) << {2 * b}) + (((cy >> {b}) & 1) << {2 * b + 1})" for b in range(16)
)

POLY_SQL_CTE = """
polys AS (
    SELECT
        CAST(n_nationkey AS BIGINT) AS poly_id,
        600000.0 + (n_nationkey % 8) * 5000.0 + 2500.0 AS pcx,
        5700000.0 - (n_nationkey % 5) * 8000.0 - 4000.0 AS pcy,
        2609.0 + (n_nationkey % 3) * 401.0 AS rx,
        3607.0 + (n_nationkey % 2) * 503.0 AS ry
    FROM nation
)
"""

POINT_SQL_CTE = """
pts AS (
    SELECT
        CAST(c_custkey AS BIGINT) AS pid,
        c_custkey % (SELECT count(*) FROM part) AS k,
        (c_custkey % 23) + 0.5 AS ox,
        (c_custkey % 19) + 0.5 AS oy
    FROM customer
),
pt_coords AS (
    SELECT
        pid, pts.k,
        600000.0 + (pts.k % 40) * 1000.0 + ox * 10.0 AS px,
        5700000.0 - (pts.k // 40) * 1000.0 - oy * 10.0 AS py
    FROM pts
)
"""


def _read(path: str, columns=None, min_block_bytes: int = 1 << 21, floor: int = 8, **kw):
    """``read_parquet`` with a BYTES-scaled block count for small
    inputs.  Ray's planner splits any file into >= ~2x-CPU blocks for
    parallelism; for the small relational/doc tables that yields
    hundreds of ~10 KB blocks and every downstream sort/groupby
    exchange pays per-block fixed cost (measured: a 5000-row
    bucketed aggregate spent ~6 s wall in 64x64 micro sort tasks).
    Block count should track bytes — ceil(file_bytes / ~2 MB),
    floored at ``floor`` for downstream per-batch parallelism —
    while big inputs (>= 64 MB) keep Ray's default planning, so the
    100 TB path is unchanged.  NOT used by ``_tiles_dataset``: the
    tile reads intentionally keep high fan-out because each key row
    explodes into synthesized pixel data downstream."""
    import os as _os

    import ray.data as rd

    try:
        if _os.path.isdir(path):
            with _os.scandir(path) as it:
                size = sum(e.stat().st_size for e in it if e.is_file())
        else:
            size = _os.path.getsize(path)
    except OSError:
        return rd.read_parquet(path, columns=columns, **kw)
    if size < (64 << 20):
        nb = max(floor, int(np.ceil(size / min_block_bytes)))
        return rd.read_parquet(path, columns=columns, override_num_blocks=nb, **kw)
    return rd.read_parquet(path, columns=columns, **kw)


def _tiles_dataset(sf_dir: str, decode: bool = True, concurrency=(1, 4), pre_decode_filter=None):
    """part keys -> synthesized input_hint images -> (optionally)
    decoded pixels.  The synth+decode both run distributed.
    ``pre_decode_filter`` (batch -> batch) runs between synth and
    decode — the semi-join pushdown hook: dropping rows there skips
    their decode cost entirely."""
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import synth_images_batch
    from gdal_boots_ray.stages.decode import DecodeImages

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey"])

    def synth(batch: pa.Table) -> pa.Table:
        return synth_images_batch(batch.column("p_partkey").to_numpy())

    ds = ds.map_batches(synth, batch_format="pyarrow", batch_size=256)
    if pre_decode_filter is not None:
        ds = ds.map_batches(pre_decode_filter, batch_format="pyarrow")
    if decode:
        # stateless tasks fuse with the synth stage (DecodeImages init
        # is trivial; the closure cache keeps one instance per worker
        # process) — avoids spinning a fresh actor pool per query in
        # the driver's long correctness session
        def _decode(batch, _cache={}):
            d = _cache.get("d")
            if d is None:
                d = _cache["d"] = DecodeImages()
            return d(batch)

        ds = ds.map_batches(_decode, batch_format="pyarrow", batch_size=128)
    return ds


def _with_bounds(ds):
    from gdal_boots_ray.stages.geo import add_bounds

    return ds.map_batches(add_bounds, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Geo queries
# ---------------------------------------------------------------------------


def q_tile_bounds(sf_dir: str):
    ds = _with_bounds(_tiles_dataset(sf_dir))
    return ds.select_columns(["image_id", "minx", "miny", "maxx", "maxy"])


def q_tile_bounds_4326(sf_dir: str):
    from gdal_boots_ray.kernels.crs import transform_points

    ds = _with_bounds(_tiles_dataset(sf_dir))

    def to4326(batch: pa.Table) -> pa.Table:
        minx = batch.column("minx").to_numpy()
        miny = batch.column("miny").to_numpy()
        maxx = batch.column("maxx").to_numpy()
        maxy = batch.column("maxy").to_numpy()
        lon_min, lat_min = transform_points(3857, 4326, minx, miny)
        lon_max, lat_max = transform_points(3857, 4326, maxx, maxy)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "lon_min": pa.array(np.round(lon_min, 9)),
                "lat_min": pa.array(np.round(lat_min, 9)),
                "lon_max": pa.array(np.round(lon_max, 9)),
                "lat_max": pa.array(np.round(lat_max, 9)),
            }
        )

    return ds.map_batches(to4326, batch_format="pyarrow")


def q_tile_bounds_3395(sf_dir: str):
    """Tile bounds reprojected 3857 -> 4326 -> 3395 (ellipsoidal World
    Mercator).  The DuckDB twin replays the closed form (y = a*[ln
    tan(pi/4+phi/2) + e/2*ln((1-e sin)/(1+e sin))], Snyder 7-7), so
    the new Mercator registry entry is oracle-checked end to end; x is
    invariant under the chain (both Mercators share lon0=0, k0=1)."""
    from gdal_boots_ray.kernels.crs import transform_points

    ds = _with_bounds(_tiles_dataset(sf_dir))

    def to3395(batch: pa.Table) -> pa.Table:
        minx = batch.column("minx").to_numpy()
        miny = batch.column("miny").to_numpy()
        maxx = batch.column("maxx").to_numpy()
        maxy = batch.column("maxy").to_numpy()
        lon_min, lat_min = transform_points(3857, 4326, minx, miny)
        lon_max, lat_max = transform_points(3857, 4326, maxx, maxy)
        x_min, y_min = transform_points(4326, 3395, lon_min, lat_min)
        x_max, y_max = transform_points(4326, 3395, lon_max, lat_max)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "mx_min": pa.array(np.round(x_min, 6)),
                "my_min": pa.array(np.round(y_min, 6)),
                "mx_max": pa.array(np.round(x_max, 6)),
                "my_max": pa.array(np.round(y_max, 6)),
            }
        )

    return ds.map_batches(to3395, batch_format="pyarrow")


def q_tile_bounds_6933(sf_dir: str):
    """Tile bounds reprojected 3857 -> 4326 -> 6933 (EASE-Grid 2.0
    Global, ellipsoidal cylindrical equal-area — the NSIDC/earth-
    science grid).  The DuckDB twin replays Snyder 10-1/10-2
    (x = a k0 λ, y = a q(φ)/(2 k0)) with the kernel's exact float
    constants, so the new CEA registry entry (kernels/crs.py
    _CeaConsts) is oracle-checked end to end."""
    from gdal_boots_ray.kernels.crs import transform_points

    ds = _with_bounds(_tiles_dataset(sf_dir))

    def to6933(batch: pa.Table) -> pa.Table:
        minx = batch.column("minx").to_numpy()
        miny = batch.column("miny").to_numpy()
        maxx = batch.column("maxx").to_numpy()
        maxy = batch.column("maxy").to_numpy()
        lon_min, lat_min = transform_points(3857, 4326, minx, miny)
        lon_max, lat_max = transform_points(3857, 4326, maxx, maxy)
        x_min, y_min = transform_points(4326, 6933, lon_min, lat_min)
        x_max, y_max = transform_points(4326, 6933, lon_max, lat_max)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "ex_min": pa.array(np.round(x_min, 6)),
                "ey_min": pa.array(np.round(y_min, 6)),
                "ex_max": pa.array(np.round(x_max, 6)),
                "ey_max": pa.array(np.round(y_max, 6)),
            }
        )

    return ds.map_batches(to6933, batch_format="pyarrow")


def q_tile_bounds_54009(sf_dir: str):
    """Tile bounds reprojected 3857 -> 4326 -> 54009 (World
    Mollweide, the equal-area world grid of choice for global area
    statistics).  The DuckDB twin replays Snyder 31-1..31-5 with the
    SAME Newton iteration t <- t - (2t + sin 2t - pi sin phi) /
    (2 + 2 cos 2t), unrolled 10 steps in chained CTEs — both sides
    converge to machine precision at mid-latitudes, so the round-6
    outputs are identical and the new moll kernel (kernels/crs.py
    _MollConsts) is oracle-checked end to end."""
    from gdal_boots_ray.kernels.crs import transform_points

    ds = _with_bounds(_tiles_dataset(sf_dir))

    def to54009(batch: pa.Table) -> pa.Table:
        minx = batch.column("minx").to_numpy()
        miny = batch.column("miny").to_numpy()
        maxx = batch.column("maxx").to_numpy()
        maxy = batch.column("maxy").to_numpy()
        lon_min, lat_min = transform_points(3857, 4326, minx, miny)
        lon_max, lat_max = transform_points(3857, 4326, maxx, maxy)
        x_min, y_min = transform_points(4326, 54009, lon_min, lat_min)
        x_max, y_max = transform_points(4326, 54009, lon_max, lat_max)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "mx_min": pa.array(np.round(x_min, 6)),
                "my_min": pa.array(np.round(y_min, 6)),
                "mx_max": pa.array(np.round(x_max, 6)),
                "my_max": pa.array(np.round(y_max, 6)),
            }
        )

    return ds.map_batches(to54009, batch_format="pyarrow")


def q_tile_viewshed(sf_dir: str, obs_up: int = 10):
    """gdal_viewshed analog along the 8 principal rays: the observer
    stands ``obs_up`` units above the field value at the tile-center
    pixel (w//2, h//2); walking outward on each ray, a pixel is
    visible iff its elevation angle STRICTLY exceeds every previous
    angle on that ray.  Within one ray the geometric step length (1
    vs sqrt(2)) is constant and cancels, so the comparison key is the
    exact float64 (v - obs) / step_index — numpy and DuckDB evaluate
    the identical IEEE division, and the twin's window-function
    running max replays the prefix-max scan bit-for-bit.  (A full
    viewshed sweeps all rays; the 8-ray census is the verifiable
    distributed core — same per-ray kernel, more rays.)  Per image:
    ray-pixel count and visible count.  Pure map, no exchange."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)
    dirs = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]

    def viewshed(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_ray_px = np.empty(n, np.int64)
        n_visible = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            hh, ww = b0.shape
            cx, cy = ww // 2, hh // 2
            obs = int(b0[cy, cx]) + obs_up
            tot = vis = 0
            for dx, dy in dirs:
                if dx > 0:
                    steps = ww - 1 - cx
                elif dx < 0:
                    steps = cx
                else:
                    steps = 1 << 30
                if dy > 0:
                    steps = min(steps, hh - 1 - cy)
                elif dy < 0:
                    steps = min(steps, cy)
                if steps <= 0:
                    continue
                k = np.arange(1, steps + 1)
                v = b0[cy + k * dy, cx + k * dx]
                t = (v - obs) / k
                run = np.maximum.accumulate(t)
                visible = np.empty(steps, bool)
                visible[0] = True
                visible[1:] = t[1:] > run[:-1]
                tot += steps
                vis += int(visible.sum())
            n_ray_px[i] = tot
            n_visible[i] = vis
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_ray_px": pa.array(n_ray_px),
                "n_visible": pa.array(n_visible),
            }
        )

    return ds.map_batches(viewshed, batch_format="pyarrow")


def q_tile_dist_aeqd(sf_dir: str, obs_lon: float = 27.0, obs_lat: float = 53.0):
    """Azimuthal-equidistant tile centers (the range-ring /
    coverage-radius computation every ground-station and disaster-
    response pipeline runs): each tile center (3857 -> 4326) is
    projected into a spherical ``+proj=aeqd`` frame centered on the
    observer; rho IS the great-circle distance, reported alongside
    x/y.  The DuckDB twin replays Snyder 25-2/25-3/25-4 in closed
    form (arccos + k' = c/sin c), gating the new aeqd kernel
    (kernels/crs.py _AzSphConsts) end to end at round-6 metres."""
    from gdal_boots_ray.kernels.crs import crs_from_proj4, transform_points

    R = 6371000.0
    aeqd = crs_from_proj4(f"+proj=aeqd +lat_0={obs_lat} +lon_0={obs_lon} +R={R}")
    ds = _with_bounds(_tiles_dataset(sf_dir))

    def to_aeqd(batch: pa.Table) -> pa.Table:
        cx = (batch.column("minx").to_numpy() + batch.column("maxx").to_numpy()) / 2.0
        cy = (batch.column("miny").to_numpy() + batch.column("maxy").to_numpy()) / 2.0
        lon, lat = transform_points(3857, 4326, cx, cy)
        x, y = aeqd.from_lonlat(lon, lat)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "ax": pa.array(np.round(x, 6)),
                "ay": pa.array(np.round(y, 6)),
                # sqrt(x*x + y*y), NOT np.hypot: the twin replays the
                # plain IEEE expression and hypot can differ by 1 ulp
                "dist_m": pa.array(np.round(np.sqrt(x * x + y * y), 6)),
            }
        )

    return ds.map_batches(to_aeqd, batch_format="pyarrow")


def q_global_equalize(sf_dir: str):
    """GLOBAL histogram equalization — the cross-image radiometric
    normalization a mosaic of the whole corpus needs (per-tile
    ``tile_equalize`` ignores the corpus distribution; this is the
    two-pass distributed version): pass 1 reduces every tile to a
    256-bin count partial (kB-sized exchanges, one small aggregate);
    the global CDF LUT ``eq(v) = (cdf(v) - cdf_min) * 255 //
    (N - cdf_min)`` is broadcast back; pass 2 remaps each tile
    through the shared LUT and reports integer remap stats.  All
    integer, so the DuckDB twin (global value counts -> window
    cumsum -> LUT join) matches exactly.  The plan shape is the
    100 TB one: the full pixel stream is touched twice but only
    256-row partials and one 256-entry LUT ever cross the wire."""
    import ray

    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def hist_partial(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        cnt = np.zeros(256, np.int64)
        for img in views:
            b0 = img if img.ndim == 2 else img[0]
            cnt += np.bincount(b0.ravel(), minlength=256)
        return pa.table({"h": pa.array([cnt.tobytes()], pa.binary())})

    def hist_merge(batch: pa.Table) -> pa.Table:
        tot = np.zeros(256, np.int64)
        for b in batch.column("h").to_pylist():
            tot += np.frombuffer(b, np.int64)
        return pa.table({"h": pa.array([tot.tobytes()], pa.binary())})

    merged = (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(hist_merge, batch_format="pyarrow")
        .take_all()
    )  # 2 KB rows — the only thing the driver ever sees
    cnt = np.zeros(256, np.int64)
    for row in merged:
        cnt = cnt + np.frombuffer(row["h"], np.int64)
    cdf = np.cumsum(cnt)
    nz = np.flatnonzero(cnt)
    cdf_min = int(cdf[nz[0]]) if nz.size else 0
    n_tot = int(cdf[-1])
    denom = max(n_tot - cdf_min, 1)
    lut = ((np.maximum(cdf - cdf_min, 0)) * 255 // denom).astype(np.int64)
    lut_ref = ray.put(lut)

    def remap(batch: pa.Table, _state={}) -> pa.Table:
        lt = _state.get("lut")
        if lt is None:
            lt = _state["lut"] = ray.get(lut_ref)
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        eq_sum = np.empty(n, np.int64)
        eq_min = np.empty(n, np.int64)
        eq_max = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = img if img.ndim == 2 else img[0]
            ev = lt[b0.astype(np.int64)]
            eq_sum[i] = int(ev.sum())
            eq_min[i] = int(ev.min())
            eq_max[i] = int(ev.max())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "eq_sum": pa.array(eq_sum),
                "eq_min": pa.array(eq_min),
                "eq_max": pa.array(eq_max),
            }
        )

    return ds.map_batches(remap, batch_format="pyarrow")


def q_tile_bounds_54030(sf_dir: str):
    """Tile bounds reprojected 3857 -> 4326 -> 54030 (World Robinson,
    the compromise world-map grid).  The DuckDB twin inlines
    Robinson's published 1974 table AND the natural-cubic-spline
    second derivatives (solved once at import in kernels/crs.py) as
    exact float literals, then evaluates the SAME IEEE cubic —
    gating the robin kernel including its between-node interpolation
    (the tile latitudes sit off-node at ~45.3 deg)."""
    from gdal_boots_ray.kernels.crs import transform_points

    ds = _with_bounds(_tiles_dataset(sf_dir))

    def to54030(batch: pa.Table) -> pa.Table:
        minx = batch.column("minx").to_numpy()
        miny = batch.column("miny").to_numpy()
        maxx = batch.column("maxx").to_numpy()
        maxy = batch.column("maxy").to_numpy()
        lon_min, lat_min = transform_points(3857, 4326, minx, miny)
        lon_max, lat_max = transform_points(3857, 4326, maxx, maxy)
        x_min, y_min = transform_points(4326, 54030, lon_min, lat_min)
        x_max, y_max = transform_points(4326, 54030, lon_max, lat_max)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "rx_min": pa.array(np.round(x_min, 6)),
                "ry_min": pa.array(np.round(y_min, 6)),
                "rx_max": pa.array(np.round(x_max, 6)),
                "ry_max": pa.array(np.round(y_max, 6)),
            }
        )

    return ds.map_batches(to54030, batch_format="pyarrow")


def q_tile_grid_cells(sf_dir: str):
    from gdal_boots_ray.stages.geo import make_add_grid_cell

    ds = _with_bounds(_tiles_dataset(sf_dir))
    ds = ds.map_batches(make_add_grid_cell(1000.0), batch_format="pyarrow")
    return ds.select_columns(["image_id", "cell"])


def q_tile_s2_cells(sf_dir: str):
    """S2 cell ids of tile centers — oracle-checked: the DuckDB twin
    reimplements the full S2 pipeline (sphere -> cube face -> quadratic
    st -> leaf ij -> recursive-CTE Hilbert walk) independently."""
    from gdal_boots_ray.stages.geo import make_add_lonlat, make_add_s2_cell

    ds = _with_bounds(_tiles_dataset(sf_dir))
    ds = ds.map_batches(make_add_lonlat(), batch_format="pyarrow")
    ds = ds.map_batches(make_add_s2_cell(9), batch_format="pyarrow")
    return ds.select_columns(["image_id", "s2_cell"])


def q_tile_h3_cells(sf_dir: str):
    """Icosahedral aperture-7 hex cells (h3x) of tile centers at the
    north-star res 7-9 — oracle-checked: the DuckDB twin replays the
    whole geometric pipeline (sphere -> argmax icosahedron face ->
    gnomonic -> rotated aperture-7 axial grid -> cube rounding) in
    SQL over the embedded face-basis table."""
    from gdal_boots_ray.kernels.cells import h3x_cell
    from gdal_boots_ray.stages.geo import make_add_lonlat

    ds = _with_bounds(_tiles_dataset(sf_dir, decode=False))
    ds = ds.map_batches(make_add_lonlat(), batch_format="pyarrow")

    def cells(batch: pa.Table) -> pa.Table:
        lon = batch.column("lon").to_numpy()
        lat = batch.column("lat").to_numpy()
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "h3_7": pa.array(h3x_cell(lon, lat, 7), pa.int64()),
                "h3_8": pa.array(h3x_cell(lon, lat, 8), pa.int64()),
                "h3_9": pa.array(h3x_cell(lon, lat, 9), pa.int64()),
            }
        )

    return ds.map_batches(cells, batch_format="pyarrow")


def _h3x_sql() -> str:
    """DuckDB twin of h3x_cell at res 7/8/9 over tile centers: the
    face table and per-res grid constants are embedded as literals
    derived from the kernel's icosahedron; every runtime op (argmax
    face, gnomonic divide, rotation, axial transform, cube rounding)
    is re-expressed in SQL with matching association order."""
    from gdal_boots_ray.kernels.cells import _ICO_CENTERS, _ICO_U, _ICO_V, _h3x_grid_params

    rows = []
    for f in range(20):
        c, u, v = _ICO_CENTERS[f], _ICO_U[f], _ICO_V[f]
        vals = ", ".join(repr(float(x)) for x in (*c, *u, *v))
        rows.append(f"({f}, {vals})")
    faces_values = ",\n            ".join(rows)

    res_cols = []
    for res in (7, 8, 9):
        s, co, sn = _h3x_grid_params(res)
        sq3_3 = repr(float(np.sqrt(3.0) / 3.0))
        expr = f"""
        r{res} AS (
            SELECT image_id, face,
                ({co!r} * px + {sn!r} * py) / {s!r} AS gx,
                (-{sn!r} * px + {co!r} * py) / {s!r} AS gy
            FROM proj
        ),
        a{res} AS (
            SELECT image_id, face,
                {sq3_3} * gx - gy / 3.0 AS fq,
                (2.0 / 3.0) * gy AS fr
            FROM r{res}
        ),
        c{res} AS (
            SELECT image_id, face, fq, fr,
                floor(fq + 0.5) AS rx, floor((-fq - fr) + 0.5) AS ry, floor(fr + 0.5) AS rz,
                abs(floor(fq + 0.5) - fq) AS dx,
                abs(floor((-fq - fr) + 0.5) - (-fq - fr)) AS dy,
                abs(floor(fr + 0.5) - fr) AS dz
            FROM a{res}
        ),
        h{res} AS (
            SELECT image_id,
                (face * 16 + {res}) * 4398046511104
                + (CAST(CASE WHEN dx > dy AND dx > dz THEN -ry - rz ELSE rx END AS BIGINT) + 1048576) * 2097152
                + (CAST(CASE WHEN NOT (dx > dy AND dx > dz) AND NOT (dy > dz) THEN -rx - ry ELSE rz END AS BIGINT) + 1048576)
                AS h3_{res}
            FROM c{res}
        )"""
        res_cols.append(expr)

    return f"""
        WITH {TILE_SQL_CTE},
        ll AS (
            SELECT image_id,
                degrees((x0 + w * 10.0 / 2) / 6378137.0) AS lon,
                degrees(2 * atan(exp((y0 - h * 10.0 / 2) / 6378137.0)) - pi() / 2) AS lat
            FROM tiles
        ),
        xyz AS (
            SELECT image_id,
                cos(radians(lat)) * cos(radians(lon)) AS x,
                cos(radians(lat)) * sin(radians(lon)) AS y,
                sin(radians(lat)) AS z
            FROM ll
        ),
        faces(f, cx, cy, cz, ux, uy, uz, vx, vy, vz) AS (VALUES
            {faces_values}
        ),
        sel AS (
            SELECT image_id, x, y, z, f AS face, cx, cy, cz, ux, uy, uz, vx, vy, vz,
                   row_number() OVER (PARTITION BY image_id
                                      ORDER BY x * cx + y * cy + z * cz DESC, f ASC) AS rn
            FROM xyz, faces
        ),
        proj AS (
            SELECT image_id, face,
                (x / (x * cx + y * cy + z * cz)) * ux
                  + (y / (x * cx + y * cy + z * cz)) * uy
                  + (z / (x * cx + y * cy + z * cz)) * uz AS px,
                (x / (x * cx + y * cy + z * cz)) * vx
                  + (y / (x * cx + y * cy + z * cz)) * vy
                  + (z / (x * cx + y * cy + z * cz)) * vz AS py
            FROM sel WHERE rn = 1
        ),{",".join(res_cols)}
        SELECT h7.image_id, h7.h3_7, h8.h3_8, h9.h3_9
        FROM h7 JOIN h8 USING (image_id) JOIN h9 USING (image_id)
    """


def q_tile_pip_join(sf_dir: str):
    import pyarrow.parquet as pq

    from gdal_boots_ray.sources.fixtures import nation_polygons
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin, put_polygons

    nk = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    poly_ref = put_polygons(nation_polygons(nk))
    ds = _with_bounds(_tiles_dataset(sf_dir, decode=False))
    joined = ds.map_batches(
        BroadcastPIPJoin,
        batch_format="pyarrow",
        fn_constructor_kwargs={"polygons_ref": poly_ref, "keep_cols": ["image_id", "cx", "cy"]},
        concurrency=(1, 4),
        num_cpus=1,
    )
    return joined.select_columns(["poly_id", "image_id"])


def q_donut_pip_join(sf_dir: str):
    """Hole-aware PIP join: each nation diamond gets a half-scale
    interior hole (a second ring), and a tile matches only when its
    center falls in the annulus — the even-odd parity of the
    ray-cast (kernels/geometry.points_in_rings: holes flip parity
    naturally) is what the twin's outer-AND-NOT-inner closed form
    checks.  Same broadcast STRtree join stage as tile_pip_join, so
    multi-ring geometries ride the production path."""
    import pyarrow.parquet as pq
    import ray

    from gdal_boots_ray.kernels.geometry import polygon_rings
    from gdal_boots_ray.sources.fixtures import nation_polygon_params, nation_polygons
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin

    nk = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    donuts = []
    for p in nation_polygons(nk):
        cx, cy, rx, ry = nation_polygon_params(int(p["poly_id"]))
        outer = polygon_rings(p["geometry"])[0]
        hx, hy = rx * 0.5, ry * 0.5
        hole = np.array(
            [[cx - hx, cy], [cx, cy + hy], [cx + hx, cy], [cx, cy - hy], [cx - hx, cy]]
        )
        donuts.append((int(p["poly_id"]), [outer, hole]))
    poly_ref = ray.put(donuts)
    ds = _with_bounds(_tiles_dataset(sf_dir, decode=False))
    joined = ds.map_batches(
        BroadcastPIPJoin,
        batch_format="pyarrow",
        fn_constructor_kwargs={"polygons_ref": poly_ref, "keep_cols": ["image_id", "cx", "cy"]},
        concurrency=(1, 4),
        num_cpus=1,
    )
    from ray.data.aggregate import Count

    return joined.groupby("poly_id").aggregate(Count(alias_name="n_tiles"))


def q_points_pip_join(sf_dir: str):
    """Shuffle-path PIP join (polygon Dataset exploded to covering
    cells, co-shuffled with the points on cell)."""
    import pyarrow.parquet as pq

    from gdal_boots_ray.sources.fixtures import nation_polygons
    from gdal_boots_ray.stages.joins import cell_pip_join

    nk = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    out = cell_pip_join(_points_dataset(sf_dir), nation_polygons(nk), cell_res=4000.0)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pid": batch.column("pid").cast(pa.int64()),
                "poly_id": batch.column("poly_id").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_parts_pip_join(sf_dir: str):
    """TWO-LARGE-SIDES shuffle PIP join: one diamond polygon per part
    key (thousands of polygons — a side the broadcast plan cannot
    take) joined against every customer point.  Both sides stream as
    Datasets; the polygon side explodes to covering grid cells inside
    map_batches and co-shuffles with the points on `cell`."""
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import part_polygons_batch
    from gdal_boots_ray.stages.joins import cell_pip_join

    polys_ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey"]).map_batches(
        lambda b: part_polygons_batch(b.column("p_partkey").to_numpy()), batch_format="pyarrow"
    )
    out = cell_pip_join(_points_dataset(sf_dir), polys_ds, cell_res=1000.0)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pid": batch.column("pid").cast(pa.int64()),
                "poly_id": batch.column("poly_id").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_point_values(sf_dir: str):
    """Distributed values_by_points via a tile-key SHUFFLE join: the
    point side streams from the customer table (NO driver-side read —
    points are the unbounded side at scale), tiles stream decoded;
    both co-shuffle once on the tile key and every group gathers its
    points' pixel values with the inverse-affine kernel.  SQL twin is
    the closed-form pixel field."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.kernels.sampling import sample_points
    from gdal_boots_ray.sources.fixtures import point_params
    from gdal_boots_ray.stages.agg import exchange
    from gdal_boots_ray.stages.decode import pixels_view

    import ray

    n_part = pq.read_metadata(f"{sf_dir}/part.parquet").num_rows

    def tag_points(batch: pa.Table) -> pa.Table:
        p = point_params(batch.column("c_custkey").to_numpy(), n_part)
        n = len(p["custkey"])
        return pa.table(
            {
                "k": pa.array(p["tile_key"], pa.int64()),
                "kind": pa.array(np.zeros(n, np.int8)),
                "pid": pa.array(p["custkey"], pa.int64()),
                "x": pa.array(p["x"], pa.float64()),
                "y": pa.array(p["y"], pa.float64()),
                "pixels": pa.array([None] * n, pa.large_binary()),
                "gt": pa.array([None] * n, pa.list_(pa.float64(), 6)),
                "w": pa.array(np.zeros(n, np.int64)),
                "h": pa.array(np.zeros(n, np.int64)),
                "bands": pa.array(np.zeros(n, np.int64)),
            }
        )

    def tag_tiles(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        keys = np.array([int(i.split("-")[1]) for i in ids], dtype=np.int64)
        return pa.table(
            {
                "k": pa.array(keys, pa.int64()),
                "kind": pa.array(np.ones(n, np.int8)),
                "pid": pa.array(np.zeros(n, np.int64)),
                "x": pa.array(np.full(n, np.nan), pa.float64()),
                "y": pa.array(np.full(n, np.nan), pa.float64()),
                "pixels": batch.column("pixels").cast(pa.large_binary()),
                "gt": batch.column("gt"),
                "w": batch.column("w").cast(pa.int64()),
                "h": batch.column("h").cast(pa.int64()),
                "bands": batch.column("bands").cast(pa.int64()),
            }
        )

    pts = _read(f"{sf_dir}/customer.parquet", columns=["c_custkey"]).map_batches(
        tag_points, batch_format="pyarrow"
    )

    # Bloom semi-join pushdown, COST-BASED: a 128 KB superset bitmap
    # of the point side's tile keys, built distributed (per-batch
    # partials, OR tree) and broadcast once — tiles no point touches
    # drop BEFORE decode, so at a low match rate decode cost tracks
    # matches, not corpus size.  False positives only: results are
    # bit-identical to the unfiltered join.  Engaged only when the
    # expected untouched-tile fraction exp(-points/tiles) can prune
    # meaningfully (sparse points); with points >~ tiles the bitmap
    # saturates and the extra point pass is pure overhead, so the
    # planner skips it (parquet row counts are free metadata).
    tile_filter = None
    n_points = pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    if n_points < n_part:  # expected prune fraction > ~37%
        from gdal_boots_ray.stages.bloom import bloom_test, build_bloom

        def point_keys(batch: pa.Table) -> np.ndarray:
            return point_params(batch.column("c_custkey").to_numpy(), n_part)["tile_key"]

        bloom_ref = ray.put(
            build_bloom(
                _read(f"{sf_dir}/customer.parquet", columns=["c_custkey"]), point_keys
            )
        )

        def tile_filter(batch: pa.Table, _cache={}) -> pa.Table:
            words = _cache.get("w")
            if words is None:
                words = _cache["w"] = ray.get(bloom_ref)
            ids = batch.column("image_id").to_pylist()
            keys = np.array([int(i.split("-")[1]) for i in ids], dtype=np.int64)
            return batch.filter(pa.array(bloom_test(words, keys)))

    tiles = _tiles_dataset(sf_dir, decode=True, pre_decode_filter=tile_filter).map_batches(
        tag_tiles, batch_format="pyarrow"
    )

    def sample_bucket(g: pa.Table) -> pa.Table:
        # Arrow group: tile pixel payloads stay zero-copy buffer views
        # (never pandas object cells); points sort once per bucket and
        # each tile's points are a searchsorted slice
        from gdal_boots_ray.stages.decode import binary_column_views

        empty = pa.table(
            {"pid": pa.array([], pa.int64()), "value": pa.array([], pa.int64())}
        )
        kind = g.column("kind").to_numpy()
        tm = np.flatnonzero(kind == 1)
        pm = np.flatnonzero(kind == 0)
        if not len(tm) or not len(pm):
            return empty
        k = g.column("k").to_numpy()
        xs = g.column("x").to_numpy()
        ys = g.column("y").to_numpy()
        pid = g.column("pid").to_numpy()
        order = np.argsort(k[pm], kind="mergesort")
        pks = k[pm][order]
        views = binary_column_views(g.column("pixels"))
        gts = g.column("gt").to_pylist()
        ws = g.column("w").to_numpy()
        hs = g.column("h").to_numpy()
        bs = g.column("bands").to_numpy()
        out_pid, out_val = [], []
        for ti in tm:
            lo = np.searchsorted(pks, k[ti], side="left")
            hi = np.searchsorted(pks, k[ti], side="right")
            if lo == hi:
                continue
            rows = pm[order[lo:hi]]
            img = pixels_view(views[ti], int(bs[ti]), int(hs[ti]), int(ws[ti]))
            gt = np.asarray(gts[ti], np.float64)
            vals, ok = sample_points(
                img if img.ndim == 2 else img[0], gt, xs[rows], ys[rows]
            )
            out_pid.append(pid[rows][ok].astype(np.int64))
            out_val.append(vals[ok].astype(np.int64))
        if not out_pid:
            return empty
        return pa.table(
            {
                "pid": pa.array(np.concatenate(out_pid), pa.int64()),
                "value": pa.array(np.concatenate(out_val), pa.int64()),
            }
        )

    # the tile key is bucketed so the shuffle has a bounded number of
    # groups (per-key map_groups pays Ray's per-group cost thousands
    # of times)
    return exchange([pts, tiles], ["k"], sample_bucket)


def q_zonal_stats(sf_dir: str):
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from gdal_boots_ray.sources.fixtures import nation_polygons
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin, put_polygons
    from gdal_boots_ray.stages.zonal import ZonalStats

    nk = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    polys = nation_polygons(nk)
    poly_ref = put_polygons(polys)

    ds = _with_bounds(_tiles_dataset(sf_dir, decode=True))
    joined = ds.map_batches(
        BroadcastPIPJoin,
        batch_format="pyarrow",
        fn_constructor_kwargs={"polygons_ref": poly_ref},
        concurrency=(1, 4),
        num_cpus=1,
    )
    stats = joined.map_batches(
        ZonalStats,
        batch_format="pyarrow",
        fn_constructor_kwargs={"polygons_ref": poly_ref},
        concurrency=(1, 4),
        num_cpus=1,
    )
    agg = stats.groupby("poly_id").aggregate(
        Sum("n_px", alias_name="n_px"), Sum("sum_v", alias_name="sum_v")
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "poly_id": batch.column("poly_id").cast(pa.int64()),
                "n_px": batch.column("n_px").cast(pa.int64()),
                "sum_v": pc.round(batch.column("sum_v").cast(pa.float64()), 0),
            }
        )

    return agg.map_batches(cast, batch_format="pyarrow")


def q_image_stats(sf_dir: str):
    """Per-image pixel stats off the decode path (validates codec +
    zero-copy view end-to-end; SQL twin enumerates the pixel field)."""
    ds = _tiles_dataset(sf_dir, decode=True)

    from gdal_boots_ray.stages.decode import binary_column_views, pixels_view

    def stats(batch: pa.Table) -> pa.Table:
        ws = batch.column("w").to_numpy()
        hs = batch.column("h").to_numpy()
        bands = batch.column("bands").to_numpy()
        pix = binary_column_views(batch.column("pixels"))
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        out = {
            "image_id": ids,
            "n_px": np.empty(n, np.int64),
            "sum_v": np.empty(n, np.int64),
            "min_v": np.empty(n, np.int64),
            "max_v": np.empty(n, np.int64),
        }
        for i in range(n):
            img = pixels_view(pix[i], int(bands[i]), int(hs[i]), int(ws[i]))
            b0 = img if img.ndim == 2 else img[0]
            out["n_px"][i] = b0.size
            out["sum_v"][i] = int(b0.sum(dtype=np.int64))
            out["min_v"][i] = int(b0.min())
            out["max_v"][i] = int(b0.max())
        return pa.table(
            {
                "image_id": pa.array(out["image_id"], pa.string()),
                "n_px": pa.array(out["n_px"]),
                "sum_v": pa.array(out["sum_v"]),
                "min_v": pa.array(out["min_v"]),
                "max_v": pa.array(out["max_v"]),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def q_image_stats_u16(sf_dir: str):
    """Multi-dtype decode path: uint16 payloads (16-bit PNG + RAW1
    dtype streams) decode to px_dtype-tagged pixel buffers; stats run
    on the dtype-aware zero-copy views.  SQL twin enumerates the
    %60000 field."""
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import synth_images_u16_batch
    from gdal_boots_ray.stages.decode import DecodeImages, batch_pixel_views

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey"])
    ds = ds.map_batches(
        lambda b: synth_images_u16_batch(b.column("p_partkey").to_numpy()),
        batch_format="pyarrow",
        batch_size=256,
    )
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), batch_size=128)

    def stats(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        sum_v = np.empty(n, np.int64)
        min_v = np.empty(n, np.int64)
        max_v = np.empty(n, np.int64)
        for i in range(n):
            b0 = views[i] if views[i].ndim == 2 else views[i][0]
            assert b0.dtype == np.uint16, f"expected uint16 view, got {b0.dtype}"
            n_px[i], sum_v[i] = b0.size, int(b0.sum(dtype=np.int64))
            min_v[i], max_v[i] = int(b0.min()), int(b0.max())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "sum_v": pa.array(sum_v),
                "min_v": pa.array(min_v),
                "max_v": pa.array(max_v),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def q_mosaic_groups(sf_dir: str):
    """Row-of-tiles mosaics: group by grid row, explicit seq order,
    pixel mosaics distributed; SQL twin checks the output grid shape."""
    from gdal_boots_ray.stages.mosaic import mosaic_dataset

    ds = _tiles_dataset(sf_dir, decode=True)

    def add_key(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keys = np.array([int(i.split("-")[1]) for i in ids], dtype=np.int64)
        batch = batch.append_column("mosaic_key", pa.array(keys // 40, pa.int64()))
        return batch.append_column("seq", pa.array(keys, pa.int64()))

    ds = ds.map_batches(add_key, batch_format="pyarrow")
    out = mosaic_dataset(ds)

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "mosaic_key": batch.column("mosaic_key").cast(pa.int64()),
                "out_w": batch.column("w").cast(pa.int64()),
                "out_h": batch.column("h").cast(pa.int64()),
                "n_inputs": batch.column("n_inputs").cast(pa.int64()),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


def q_union_bounds(sf_dir: str):
    """Union-of-bounds per mosaic row group (reference union_mosaic's
    bbox union, gdal.py:891-894 — associative min/max aggregate with
    per-batch partials)."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ds = _with_bounds(_tiles_dataset(sf_dir, decode=False))

    def add_key(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keys = np.array([int(i.split("-")[1]) for i in ids], dtype=np.int64)
        return batch.append_column("mosaic_key", pa.array(keys // 40, pa.int64()))

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    out = bucketed_aggregate(
        keyed, ["mosaic_key"], {"minx": "min", "miny": "min", "maxx": "max", "maxy": "max"}
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "mosaic_key": batch.column("mosaic_key").cast(pa.int64()),
                "minx": batch.column("minx").cast(pa.float64()),
                "miny": batch.column("miny").cast(pa.float64()),
                "maxx": batch.column("maxx").cast(pa.float64()),
                "maxy": batch.column("maxy").cast(pa.float64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_tile_focal_sum(sf_dir: str):
    """Focal (neighborhood) statistics — the classic raster focal-mean
    family the engine didn't cover yet: per tile, the total of all
    3x3 box sums centered on interior pixels, computed fully
    vectorized as nine shifted slice sums (no convolution library,
    no per-pixel loop).  The DuckDB twin avoids the 9x join blowup by
    weighting each pixel with the count of interior boxes that
    contain it (a separable min/max formula per axis), so the
    integer identity is exact."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def focal(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_interior = np.empty(n, np.int64)
        box_total = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            h, w = b0.shape
            ih, iw = h - 2, w - 2
            n_interior[i] = ih * iw
            t = 0
            for dy in range(3):
                for dx in range(3):
                    t += int(b0[dy : ih + dy, dx : iw + dx].sum())
            box_total[i] = t
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_interior": pa.array(n_interior),
                "box_total": pa.array(box_total),
            }
        )

    return ds.map_batches(focal, batch_format="pyarrow")


def q_tile_glcm(sf_dir: str, levels_shift: int = 4):
    """GLCM texture metrics (Haralick contrast / homogeneity / energy
    over the horizontal gray-level co-occurrence matrix) — the classic
    remote-sensing texture stage (Haralick, Shanmugam & Dinstein 1973).
    Pixels quantize to 16 levels (>> 4); per tile the UN-normalized
    integer statistics are contrast = sum (qi-qj)^2, homogeneity =
    sum floor(1e6 / (1 + (qi-qj)^2)) (micro-unit rationals — the
    divisor takes only 16 distinct values so floor is exact), and
    energy = sum c_ij^2 over the joint histogram.  All integer, so
    the DuckDB twin (pair replay + a GROUP BY joint histogram)
    hash-matches bit for bit.  Pure map over decoded tiles — one row
    per tile, no exchange, vectorized bincount per image."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def glcm(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_pairs = np.empty(n, np.int64)
        contrast = np.empty(n, np.int64)
        homog = np.empty(n, np.int64)
        energy = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            q = b0 >> levels_shift
            qi, qj = q[:, :-1], q[:, 1:]
            d2 = (qi - qj) ** 2
            n_pairs[i] = d2.size
            contrast[i] = int(d2.sum())
            homog[i] = int((1_000_000 // (1 + d2)).sum())
            c = np.bincount((qi * 16 + qj).ravel(), minlength=256)
            energy[i] = int((c.astype(np.int64) ** 2).sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_pairs": pa.array(n_pairs),
                "contrast_sum": pa.array(contrast),
                "homog_sum": pa.array(homog),
                "energy_sum": pa.array(energy),
            }
        )

    return ds.map_batches(glcm, batch_format="pyarrow")


def _lag1_corr(band: np.ndarray):
    """``(n_pairs, r)``: the horizontal lag-1 Pearson r of ``band``
    over its (pixel, east-neighbor) pairs, from integer moments.  r
    replays the twin's exact IEEE tree (cast num -> double, cast each
    variance -> double, multiply, sqrt, divide) and is None when a
    variance is zero (a constant tile or east-shifted band), where the
    twin's division by zero gives NULL."""
    b0 = band.astype(np.int64)
    a, b = b0[:, :-1], b0[:, 1:]
    n = a.size
    sx, sy = int(a.sum()), int(b.sum())
    sxx, syy, sxy = int((a * a).sum()), int((b * b).sum()), int((a * b).sum())
    num = n * sxy - sx * sy
    den = float(n * sxx - sx * sx) * float(n * syy - sy * sy)
    return n, (float(num) / math.sqrt(den) if den != 0 else None)


def q_tile_spatial_autocorr(sf_dir: str):
    """Per-tile spatial autocorrelation (horizontal lag-1 Pearson —
    the Moran's-I-flavored texture statistic remote sensing uses to
    separate smooth from noisy tiles), by ``_lag1_corr`` of band 0.
    Pure map over decoded tiles: one row per image, no exchange."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def autocorr(batch: pa.Table) -> pa.Table:
        rows = [_lag1_corr(img if img.ndim == 2 else img[0]) for img in batch_pixel_views(batch)]
        return pa.table(
            {
                "image_id": pa.array(batch.column("image_id").to_pylist(), pa.string()),
                "n_pairs": pa.array([n for n, _ in rows], pa.int64()),
                "lag1_corr": pa.array([r for _, r in rows], pa.float64()),
            }
        )

    return ds.map_batches(autocorr, batch_format="pyarrow")


def q_tile_pyramid(sf_dir: str):
    """Overview/pyramid build — the GDAL ``BuildOverviews('AVERAGE')``
    analog the reference relies on GDAL for: per tile, downsample
    levels 2x and 4x where each level pixel is the floor-mean of its
    f x f block (integer-exact, so the DuckDB twin can replay it from
    the closed-form pixel field).  Fully per-tile vectorized
    reshape-sums inside map_batches — at 10^12 images this is a pure
    map stage writing one pyramid row per (tile, level), no exchange.
    Tile dims from sources/fixtures.py are multiples of 4, so blocks
    tile exactly."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def pyramid(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        out_id, out_lvl, out_px, out_sum, out_mean = [], [], [], [], []
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            h, w = b0.shape
            for f in (2, 4):
                hh, ww = h // f, w // f
                s = b0[: hh * f, : ww * f].reshape(hh, f, ww, f).sum(axis=(1, 3))
                lvl = s // (f * f)
                out_id.append(ids[i])
                out_lvl.append(f)
                out_px.append(hh * ww)
                tot = int(lvl.sum())
                out_sum.append(tot)
                out_mean.append(round(tot / (hh * ww), 6))
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "level": pa.array(out_lvl, pa.int64()),
                "lvl_px": pa.array(out_px, pa.int64()),
                "lvl_sum": pa.array(out_sum, pa.int64()),
                "lvl_mean": pa.array(out_mean, pa.float64()),
            }
        )

    return ds.map_batches(pyramid, batch_format="pyarrow")


def q_tile_slope(sf_dir: str, steep_deg: float = 45.0):
    """Terrain-derivative raster op (Horn 1981 as in gdaldem slope):
    per tile, the 3x3 Horn gradient over interior pixels of the
    deterministic field at 10 m spacing, reporting interior count,
    steep-pixel count (slope > 45 deg) and mean slope.  Vectorized as
    eight shifted slices per tile (no per-pixel loop); the twin
    replays each neighbor tap in closed form from (x, y, key) so the
    check is exact without any SQL self-join."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)
    px = 10.0  # fixture resolution (m), matches TILE_SQL_CTE bounds math

    def slope(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_interior = np.empty(n, np.int64)
        n_steep = np.empty(n, np.int64)
        mean_slope = np.empty(n, np.float64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.float64)
            tl, t, tr = b0[:-2, :-2], b0[:-2, 1:-1], b0[:-2, 2:]
            l, r = b0[1:-1, :-2], b0[1:-1, 2:]
            bl, b, br = b0[2:, :-2], b0[2:, 1:-1], b0[2:, 2:]
            gx = ((tr + 2 * r + br) - (tl + 2 * l + bl)) / (8.0 * px)
            gy = ((bl + 2 * b + br) - (tl + 2 * t + tr)) / (8.0 * px)
            deg = np.degrees(np.arctan(np.hypot(gx, gy)))
            n_interior[i] = deg.size
            n_steep[i] = int((deg > steep_deg).sum())
            mean_slope[i] = round(float(deg.mean()), 6)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_interior": pa.array(n_interior),
                "n_steep": pa.array(n_steep),
                "mean_slope": pa.array(mean_slope),
            }
        )

    return ds.map_batches(slope, batch_format="pyarrow")


def q_tile_contours(sf_dir: str, level: float = 127.5):
    """Contour extraction (the gdal_contour analog): marching-squares
    segment census per tile at one iso-level — per 2x2 pixel cell the
    corner >= level bit pattern decides 0, 1 or 2 crossing segments
    (2 for the two saddle cases).  Vectorized as four shifted boolean
    slices + a 16-entry LUT; the DuckDB twin replays every corner
    from the closed-form field, so the count is exact.  A full
    contour-line writer would trace these same cells; the census is
    the verifiable distributed core (pure map, no exchange)."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)
    # segments per marching-squares case, corners TL=1 TR=2 BL=4 BR=8
    lut = np.ones(16, np.int64)
    lut[0] = lut[15] = 0
    lut[6] = lut[9] = 2  # saddles: TR+BL / TL+BR

    def contours(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_cells = np.empty(n, np.int64)
        n_segments = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.float64)
            inside = b0 >= level
            case = (
                inside[:-1, :-1] * 1
                + inside[:-1, 1:] * 2
                + inside[1:, :-1] * 4
                + inside[1:, 1:] * 8
            )
            n_cells[i] = case.size
            n_segments[i] = int(lut[case].sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_cells": pa.array(n_cells),
                "n_segments": pa.array(n_segments),
            }
        )

    return ds.map_batches(contours, batch_format="pyarrow")


def q_tile_equalize(sf_dir: str):
    """Histogram equalization per tile — the classic contrast
    stretch: eq(v) = (cdf(v) - cdf_min) * 255 // (N - cdf_min), all
    integer so the DuckDB twin (value counts -> window cumsum ->
    floor-divide LUT) matches exactly.  Engine side is bincount +
    cumsum + LUT gather per tile, one map_batches pass."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def equalize(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        eq_sum = np.empty(n, np.int64)
        eq_max = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64).ravel()
            counts = np.bincount(b0, minlength=256)
            cdf = np.cumsum(counts)
            present = counts > 0
            cdf_min = int(cdf[np.argmax(present)])
            total = int(b0.size)
            if total == cdf_min:
                lut = np.zeros(256, np.int64)
            else:
                lut = (cdf - cdf_min) * 255 // (total - cdf_min)
            ev = lut[b0]
            eq_sum[i] = int(ev.sum())
            eq_max[i] = int(ev.max())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "eq_sum": pa.array(eq_sum),
                "eq_max": pa.array(eq_max),
            }
        )

    return ds.map_batches(equalize, batch_format="pyarrow")


def q_pixel_histogram(sf_dir: str, n_tiles: int = 64):
    """Pixel-value histogram over the first ``n_tiles`` tiles
    (reference's np.unique(return_counts) assertions,
    tests/test_raster.py:267-281): per-batch partial counts ->
    small final combine."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def first_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keep = np.array([int(i.split("-")[1]) < n_tiles for i in ids])
        return batch.filter(pa.array(keep))

    ds = ds.map_batches(first_keys, batch_format="pyarrow")

    def partial_hist(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        counts = np.zeros(256, dtype=np.int64)
        for img in views:
            b0 = img if img.ndim == 2 else img[0]
            counts += np.bincount(b0.ravel(), minlength=256)
        vals = np.nonzero(counts)[0]
        return pa.table(
            {"value": pa.array(vals.astype(np.int64)), "n_px": pa.array(counts[vals])}
        )

    part = ds.map_batches(partial_hist, batch_format="pyarrow")
    out = bucketed_aggregate(part, ["value"], {"n_px": "sum"}, n_buckets=8)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "value": batch.column("value").cast(pa.int64()),
                "n_px": batch.column("n_px").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_image_features(sf_dir: str):
    """ImageFeatures stage over decoded tiles; the oracle checks the
    per-image mean brightness (dhash/std are engine-side extras)."""
    from gdal_boots_ray.stages.multimodal import ImageFeatures

    ds = _tiles_dataset(sf_dir, decode=True)
    out = ds.map_batches(ImageFeatures, batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)

    def project(batch: pa.Table) -> pa.Table:
        means = batch.column("mean_v").to_numpy()
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                # half-away rounding to match DuckDB on integer-ratio ties
                "mean_v": pa.array([_round_half_away(float(v), 6) for v in means], pa.float64()),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


def q_polygonize_regions(sf_dir: str, n_tiles: int = 24):
    """Connected-component counts of the >=128 threshold masks — the
    oracle reimplements 4-connected labeling as a recursive-CTE
    min-label propagation in SQL (an independent algorithm entirely)."""
    from gdal_boots_ray.kernels.polygonize import label_components
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def first_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keep = np.array([int(i.split("-")[1]) < n_tiles for i in ids])
        return batch.filter(pa.array(keep))

    def regions(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        out_n = []
        for i in range(len(ids)):
            b0 = views[i] if views[i].ndim == 2 else views[i][0]
            mask = (b0 >= 128).astype(np.uint8)
            labels, _ = label_components(mask)
            pos = np.unique(labels[mask == 1])
            out_n.append(len(pos))
        return pa.table(
            {"image_id": pa.array(ids, pa.string()), "n_regions": pa.array(out_n, pa.int64())}
        )

    return ds.map_batches(first_keys, batch_format="pyarrow").map_batches(regions, batch_format="pyarrow")


def _points_dataset(sf_dir: str, id_col: str = "pid"):
    """customer keys -> (id, x, y) sample points, synthesized
    distributed (no driver-side read of the customer table)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import point_params

    n_part = pq.read_metadata(f"{sf_dir}/part.parquet").num_rows
    pts_ds = _read(f"{sf_dir}/customer.parquet", columns=["c_custkey"])

    def to_points(batch: pa.Table) -> pa.Table:
        p = point_params(batch.column("c_custkey").to_numpy(), n_part)
        return pa.table(
            {
                id_col: pa.array(p["custkey"], pa.int64()),
                "x": pa.array(p["x"], pa.float64()),
                "y": pa.array(p["y"], pa.float64()),
            }
        )

    return pts_ds.map_batches(to_points, batch_format="pyarrow")


def q_spatial_knn(sf_dir: str, k: int = 5):
    """Spatial kNN over the cell-partitioned SHUFFLE path
    (broadcast_threshold=0 disables the broadcast plan): for the first
    32 customer points, the k nearest OTHER customer points; the
    oracle is a quadratic distance join with row_number."""
    from gdal_boots_ray.stages.knn import spatial_knn_dataset

    data_ds = _points_dataset(sf_dir, id_col="nid")

    def to_queries(batch: pa.Table) -> pa.Table:
        m = pc.less(batch.column("nid"), 32)
        batch = batch.filter(m)
        return pa.table(
            {
                "qid": batch.column("nid"),
                "x": batch.column("x"),
                "y": batch.column("y"),
            }
        )

    queries_ds = _points_dataset(sf_dir, id_col="nid").map_batches(to_queries, batch_format="pyarrow")
    out = spatial_knn_dataset(queries_ds, data_ds, k=k + 1, cell_res=2000.0, broadcast_threshold=0)

    # drop self-matches (dist 0 to the same id), keep k, re-rank
    import pandas as pd

    def drop_self(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["nid"] != g["qid"].iloc[0]].sort_values(["d2", "nid"]).head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["qid", "rank", "nid", "dist"]]

    return out.groupby("qid").map_groups(drop_self, batch_format="pandas")


def q_knn_ivf(sf_dir: str, k: int = 5, recall_bound: float = 0.4):
    """IVF approximate embedding search judged by a CHECKED invariant:
    per-query recall against the exact brute-force top-k must clear
    ``recall_bound``.  The oracle emits (q_id, recall_ok=true) rows,
    so any recall regression breaks the hash (the exact baseline knn
    is itself oracle-checked separately)."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.stages.joins import knn_brute_force
    from gdal_boots_ray.stages.knn import knn_ivf

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt.column("vec_id"), 8))
    qmat = np.asarray(qt.column("embedding").to_pylist(), dtype=np.float64)
    qids = qt.column("vec_id").to_numpy()

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # nprobe=6 of 16 lists: deterministic min per-query recall 0.4
    # across sf0.001/0.01/0.1 (measured) — the invariant's floor
    approx = knn_ivf(ds, qmat, k=k, nprobe=6, query_ids=qids)
    exact = knn_brute_force(ds, qmat, k=k, query_ids=qids)

    a_sets = approx.groupby("q_id")["vec_id"].apply(set)
    e_sets = exact.groupby("q_id")["vec_id"].apply(set)
    rows = []
    for q in sorted(e_sets.index):
        inter = len(a_sets.get(q, set()) & e_sets[q])
        rows.append((int(q), bool(inter / max(len(e_sets[q]), 1) >= recall_bound)))
    return pd.DataFrame(rows, columns=["q_id", "recall_ok"])


def q_knn_lsh(sf_dir: str, k: int = 5, recall_bound: float = 0.4):
    """Hyperplane-LSH approximate embedding search judged by the same
    CHECKED recall invariant as ``knn_ivf``: per-query recall against
    the exact brute-force top-k must clear ``recall_bound``.  This is
    the training-free ANN plan (seeded sign-bit tables + 1-bit
    multi-probe, stages/knn.knn_lsh) — no quantizer fit, so it scales
    to corpora where even a sampled k-means pass is unwanted."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.stages.joins import knn_brute_force
    from gdal_boots_ray.stages.knn import knn_lsh

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt.column("vec_id"), 8))
    qmat = np.asarray(qt.column("embedding").to_pylist(), dtype=np.float64)
    qids = qt.column("vec_id").to_numpy()

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    approx = knn_lsh(ds, qmat, k=k, n_tables=4, n_bits=6, query_ids=qids)
    exact = knn_brute_force(ds, qmat, k=k, query_ids=qids)

    a_sets = approx.groupby("q_id")["vec_id"].apply(set)
    e_sets = exact.groupby("q_id")["vec_id"].apply(set)
    rows = []
    for q in sorted(e_sets.index):
        inter = len(a_sets.get(q, set()) & e_sets[q])
        rows.append((int(q), bool(inter / max(len(e_sets[q]), 1) >= recall_bound)))
    return pd.DataFrame(rows, columns=["q_id", "recall_ok"])


def q_knn_pq(sf_dir: str, k: int = 5, recall_bound: float = 0.4):
    """Product-quantization ADC search under the same recall
    invariant as knn_ivf/knn_lsh: 8 subspaces x 16 codes compress the
    64-d embeddings 64x, the table scan + exact re-rank must still
    recover >= ``recall_bound`` of the exact top-k per query."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.stages.joins import knn_brute_force
    from gdal_boots_ray.stages.knn import knn_pq

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt.column("vec_id"), 8))
    qmat = np.asarray(qt.column("embedding").to_pylist(), dtype=np.float64)
    qids = qt.column("vec_id").to_numpy()

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    approx = knn_pq(ds, qmat, k=k, query_ids=qids)
    exact = knn_brute_force(ds, qmat, k=k, query_ids=qids)

    a_sets = approx.groupby("q_id")["vec_id"].apply(set)
    e_sets = exact.groupby("q_id")["vec_id"].apply(set)
    rows = []
    for q in sorted(e_sets.index):
        inter = len(a_sets.get(q, set()) & e_sets[q])
        rows.append((int(q), bool(inter / max(len(e_sets[q]), 1) >= recall_bound)))
    return pd.DataFrame(rows, columns=["q_id", "recall_ok"])


def q_knn_ivfpq(sf_dir: str, k: int = 5, recall_bound: float = 0.4):
    """IVF-PQ combined index (FAISS IVFx,PQy layout): coarse-quantizer
    pruning to nprobe lists, ADC table scan over the survivors, exact
    re-rank — under the same per-query recall invariant as
    knn_ivf/knn_lsh/knn_pq (>= ``recall_bound`` of the exact top-k),
    so the oracle is non-vacuous: a broken prune or scan fails it."""
    import pandas as pd
    import pyarrow.parquet as pq

    from gdal_boots_ray.stages.joins import knn_brute_force
    from gdal_boots_ray.stages.knn import knn_ivfpq

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt.column("vec_id"), 8))
    qmat = np.asarray(qt.column("embedding").to_pylist(), dtype=np.float64)
    qids = qt.column("vec_id").to_numpy()

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # nprobe=6/16 lists: every fixture query clears the bound with
    # the coarse prune still dropping ~5/8 of each batch
    approx = knn_ivfpq(ds, qmat, k=k, query_ids=qids, nprobe=6, refine=6)
    exact = knn_brute_force(ds, qmat, k=k, query_ids=qids)

    a_sets = approx.groupby("q_id")["vec_id"].apply(set)
    e_sets = exact.groupby("q_id")["vec_id"].apply(set)
    rows = []
    for q in sorted(e_sets.index):
        inter = len(a_sets.get(q, set()) & e_sets[q])
        rows.append((int(q), bool(inter / max(len(e_sets[q]), 1) >= recall_bound)))
    return pd.DataFrame(rows, columns=["q_id", "recall_ok"])


def q_phash_neardup(sf_dir: str, max_hamming: int = 3):
    """Near-duplicate images by phash hamming distance <= 3 over the
    20-bit phash: LSH banding (4 bands x 5 bits — pigeonhole-exact for
    hamming<=3: 3 errors cannot dirty all 4 bands) + verify.  The oracle is the quadratic
    bit_count(xor()) join, so this checks EXACTNESS of the banding.

    Scale note: exact banding's candidate volume is governed by the
    HASH WIDTH — 5-bit bands give 32 buckets, so bucket population is
    N/32 and the per-bucket all-pairs grows quadratically with the
    corpus.  The fixture's phash is 20-bit by construction; a
    production 64-bit phash yields 16-bit bands (65,536 buckets per
    band), which keeps expected bucket population ~N/65k while
    staying pigeonhole-exact.  Capping buckets here would break the
    exact-recall contract the oracle checks, so none is applied."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ds = _read(f"{sf_dir}/part.parquet", columns=["p_partkey"])

    def phash_rows(batch: pa.Table) -> pa.Table:
        from gdal_boots_ray.sources.fixtures import tile_phash

        k = batch.column("p_partkey").to_numpy()
        ph = tile_phash(k)
        return pa.table({"key": pa.array(k, pa.int64()), "phash": pa.array(ph, pa.int64())})

    rows = ds.map_batches(phash_rows, batch_format="pyarrow")

    def band_rows(batch: pa.Table) -> pa.Table:
        keys = batch.column("key").to_numpy()
        ph = batch.column("phash").to_numpy()
        out_k, out_b = [], []
        for b in range(4):
            band_val = (ph >> (b * 5)) & 0x1F
            out_k.extend(keys.tolist())
            out_b.extend((band_val + (b << 40)).tolist())
        return pa.table({"key": pa.array(out_k, pa.int64()), "bucket": pa.array(out_b, pa.int64())})

    from gdal_boots_ray.sources.fixtures import tile_phash as _ph

    def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        x = np.bitwise_xor(_ph(a), _ph(b)).astype(np.uint64)
        cnt = np.zeros(len(x), np.int64)
        while np.any(x):
            cnt += (x & 1).astype(np.int64)
            x >>= np.uint64(1)
        return cnt

    # verify INSIDE the group task: the 20-bit fixture phash gives
    # only 32 buckets per band, so raw band candidates are O((N/32)^2)
    # per bucket (~25M rows at sf0.1) — filtering to exact
    # hamming<=max BEFORE emitting means only true pairs (~20x fewer)
    # ever leave the group task or cross the dedup exchange.  Recall
    # is untouched: the filter is the same closed-form check the
    # oracle applies.
    def pairs(g: pa.Table) -> pa.Table:
        bk = g.column("bucket").to_numpy()
        did = g.column("key").to_numpy()
        order = np.lexsort((did, bk))
        bk, did = bk[order], did[order]
        keep = np.r_[True, (bk[1:] != bk[:-1]) | (did[1:] != did[:-1])]
        bk, did = bk[keep], did[keep]
        starts = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]])
        ends = np.r_[starts[1:], len(bk)]
        out_a: list = []
        out_b: list = []
        out_h: list = []
        for s, e in zip(starts, ends):
            ids = did[s:e]
            if len(ids) < 2:
                continue
            a, b = np.triu_indices(len(ids), k=1)
            ka, kb = ids[a], ids[b]
            ham = _hamming(ka, kb)
            m = ham <= max_hamming
            if m.any():
                out_a.append(ka[m])
                out_b.append(kb[m])
                out_h.append(ham[m])
        if not out_a:
            return pa.table(
                {
                    "key_a": pa.array([], pa.int64()),
                    "key_b": pa.array([], pa.int64()),
                    "hamming": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "key_a": pa.array(np.concatenate(out_a).astype(np.int64), pa.int64()),
                "key_b": pa.array(np.concatenate(out_b).astype(np.int64), pa.int64()),
                "hamming": pa.array(np.concatenate(out_h), pa.int64()),
            }
        )

    verified = rows.map_batches(band_rows, batch_format="pyarrow").groupby("bucket").map_groups(
        pairs, batch_format="pyarrow"
    )
    # dedup band-duplicate pairs; hamming is identical per pair so min
    # is a no-op combine that carries it through the exchange
    return bucketed_aggregate(verified, ["key_a", "key_b"], {"hamming": "min"})


# ---------------------------------------------------------------------------
# Embeddings / documents / events queries
# ---------------------------------------------------------------------------


def q_knn(sf_dir: str, k: int = 5, n_queries: int = 8):
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.stages.joins import knn_brute_force

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt.column("vec_id"), n_queries))
    qmat = np.asarray(qt.column("embedding").to_pylist(), dtype=np.float64)
    qids = qt.column("vec_id").to_numpy()

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = knn_brute_force(ds, qmat, k=k, query_ids=qids)  # pandas (driver-side final top-k)
    out = out.astype({"q_id": "int64", "vec_id": "int64", "sim": "float64"})
    out["sim"] = out["sim"].round(4)
    return out


def q_dedup_exact(sf_dir: str):
    import ray.data as rd

    from gdal_boots_ray.stages.textstages import exact_dedup

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = exact_dedup(docs)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "h": batch.column("h"),
                "keep_id": batch.column("keep_id").cast(pa.int64()),
                "n_dups": batch.column("n_dups").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_text_tokens(sf_dir: str):
    import ray.data as rd

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_tokens_ws": pa.array([len(t.split()) for t in texts], pa.int64()),
                "n_chars_txt": pa.array([len(t) for t in texts], pa.int64()),
            }
        )

    return docs.map_batches(toks, batch_format="pyarrow")


def q_cms_sketch(sf_dir: str, depth: int = 4, width: int = 1024):
    """Count-Min sketch of the corpus token stream (the mergeable
    heavy-hitter structure): 4 rows x 1024 buckets, token buckets from
    md5 hex slices (the md5-twin recipe minhash_pairs established).
    The OUTPUT IS THE SKETCH TABLE itself — entrywise sums are
    commutative, so the result is deterministic under any merge order
    and any partitioning, which is exactly the property that makes
    CMS the scale-path frequency structure.  Per-batch partials are
    depth x width bounded (16 KB of int64 per task), combined by one
    bucketed sum; token md5s are cached per batch (word-soup corpora
    repeat heavily)."""
    import hashlib

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        texts = batch.column("text").to_pylist()
        wc = Counter()
        for t in texts:
            wc.update(t.split())
        counts = np.zeros(depth * width, np.int64)
        for w, k in wc.items():  # one md5 per DISTINCT word
            hx = hashlib.md5(w.encode()).hexdigest()
            for j in range(depth):
                counts[j * width + int(hx[j * 8 : (j + 1) * 8], 16) % width] += k
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "row_id": pa.array(nz // width, pa.int64()),
                "bucket": pa.array(nz % width, pa.int64()),
                "cnt": pa.array(counts[nz], pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow")
    return bucketed_aggregate(parts, ["row_id", "bucket"], {"cnt": "sum"})


def q_doc_chunks(sf_dir: str, window: int = 64, stride: int = 48):
    """RAG-style document chunking: every doc splits into overlapping
    token windows (64 tokens, stride 48 — the retrieval-index prep
    step), one output row per chunk with its token count and the sum
    of its token LENGTHS (an integer signature that pins the exact
    window boundaries).  Chunk starts at 0, stride, 2*stride, ...
    while < n_tokens, so the count is ceil(n/stride) and tails may be
    short — the rule the twin replays with list slicing.  Pure
    flat-map; chunks inherit the doc's partition, no shuffle."""
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def chunks(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        out_id, out_c, out_n, out_len = [], [], [], []
        for i, t in enumerate(texts):
            toks = t.split()
            n = len(toks)
            if n == 0:
                continue
            lens = np.fromiter((len(x) for x in toks), np.int64, n)
            cum = np.concatenate([[0], np.cumsum(lens)])
            c = 0
            for s in range(0, n, stride):
                e = min(s + window, n)
                out_id.append(int(ids[i]))
                out_c.append(c)
                out_n.append(e - s)
                out_len.append(int(cum[e] - cum[s]))
                c += 1
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "chunk_id": pa.array(out_c, pa.int64()),
                "n_tok": pa.array(out_n, pa.int64()),
                "sum_len": pa.array(out_len, pa.int64()),
            }
        )

    return docs.map_batches(chunks, batch_format="pyarrow")


def q_line_dedup(sf_dir: str, chunk_tokens: int = 8):
    """Corpus-level EXACT chunk ("line") deduplication — the
    C4/RefinedWeb repeated-span removal step: every doc splits into
    consecutive 8-token chunks, and each distinct chunk string is kept
    only at its FIRST occurrence corpus-wide (first = smallest
    (doc_id, chunk_idx), the deterministic scan order).  Output per
    doc: total chunks, chunks kept, and the character mass kept — the
    integer signature of which spans survived.

    Scale shape: chunks flat-map out of the docs carrying only their
    own text span; ONE bucketed shuffle keyed on the chunk string
    co-locates duplicates (bounded fan-out via ``stages.agg.exchange``,
    never a per-chunk groupby); each bucket resolves keep-first with
    np.unique + a packed (doc_id, idx) min, emits per-doc count
    partials, and a second bounded shuffle sums them per doc.  No
    stage ever holds more than its bucket; duplicate-heavy (skewed)
    chunks cost one group pass, not a cross join."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate, exchange

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        out_chunk, out_doc, out_ci, out_len = [], [], [], []
        for i, t in enumerate(texts):
            # EXACT DuckDB mirror: trim() strips SPACES only and RE2's
            # \s is the ASCII class [\t\n\f\r ] — Python's str.strip()
            # / \s are Unicode-wide and would shift chunk boundaries on
            # non-space leading whitespace
            t = t.strip(" ")
            toks = re.split(r"[\t\n\f\r ]+", t) if t else []
            if not toks:
                continue
            n_chunks_doc = (len(toks) + chunk_tokens - 1) // chunk_tokens
            if n_chunks_doc >= (1 << 20) or int(ids[i]) >= (1 << 43):
                raise ValueError(
                    "line_dedup packing bound exceeded: chunk index needs "
                    "< 2^20 and doc_id < 2^43 for the (doc_id, ci) min"
                )
            for c in range(0, n_chunks_doc):
                s = " ".join(toks[c * chunk_tokens : (c + 1) * chunk_tokens])
                out_chunk.append(s)
                out_doc.append(int(ids[i]))
                out_ci.append(c)
                out_len.append(len(s))
        return pa.table(
            {
                "chunk": pa.array(out_chunk, pa.string()),
                "doc_id": pa.array(out_doc, pa.int64()),
                "ci": pa.array(out_ci, pa.int64()),
                "clen": pa.array(out_len, pa.int64()),
            }
        )

    def keep_first(g: pa.Table) -> pa.Table:
        chunk = np.asarray(g.column("chunk").to_pylist(), dtype=object)
        doc = g.column("doc_id").to_numpy()
        ci = g.column("ci").to_numpy()
        clen = g.column("clen").to_numpy()
        _, inv = np.unique(chunk, return_inverse=True)
        packed = doc * (1 << 20) + ci
        first = np.full(inv.max() + 1, np.iinfo(np.int64).max)
        np.minimum.at(first, inv, packed)
        kept = packed == first[inv]
        udoc, dinv = np.unique(doc, return_inverse=True)
        n_chunks = np.bincount(dinv)
        n_kept = np.bincount(dinv, weights=kept).astype(np.int64)
        kept_chars = np.bincount(dinv, weights=np.where(kept, clen, 0)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(udoc, pa.int64()),
                "n_chunks": pa.array(n_chunks.astype(np.int64)),
                "n_kept": pa.array(n_kept),
                "kept_chars": pa.array(kept_chars),
            }
        )

    partials = exchange(docs.map_batches(explode, batch_format="pyarrow"), ["chunk"], keep_first)
    return bucketed_aggregate(
        partials,
        ["doc_id"],
        {"n_chunks": "sum", "n_kept": "sum", "kept_chars": "sum"},
    )


def q_token_quantiles(sf_dir: str):
    """Exact distributed quantiles of per-doc whitespace token counts
    via the histogram plan (`exact_quantiles`): per-batch value-count
    partials -> bucketed count merge -> driver cumulative walk over
    distinct VALUES (bounded by the token-count domain, not rows).
    Oracle: DuckDB percentile_disc over the same SQL-replayed count."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import exact_quantiles

    docs = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def toks(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({"n_tokens_ws": pa.array([len(t.split()) for t in texts], pa.int64())})

    out = exact_quantiles(
        docs.map_batches(toks, batch_format="pyarrow"),
        "n_tokens_ws",
        [0.25, 0.5, 0.75, 0.9, 0.99],
    )
    out["n_tokens_ws"] = out["n_tokens_ws"].astype("int64")
    return out


def q_stratified_sample(sf_dir: str):
    """Deterministic per-language stratified sample of the documents
    table (downsample 'en' to 20%, 'de' to 50%, everything else
    kept): md5-hash membership so the sample is identical across
    retries/resumes/cluster sizes, replayed exactly by the DuckDB
    md5 twin."""
    import ray.data as rd

    from gdal_boots_ray.stages.sample import stratified_sample

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    out = stratified_sample(
        docs, "doc_id", "lang", {"en": 0.2, "de": 0.5}, default_rate=1.0
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch.column("doc_id").cast(pa.int64()), "lang": batch.column("lang")}
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_top_terms(sf_dir: str, k: int = 10):
    """Corpus vocabulary analysis: top-k most frequent words per
    language.  Composition of three scale-safe pieces — tokenize
    inside map_batches (one (lang, word, n) partial row per distinct
    word per batch), bucketed count merge, then ``grouped_top_k`` —
    so the exchanges move word-count partials, never text."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import bucketed_aggregate, grouped_top_k

    docs = _read(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def word_partials(batch: pd.DataFrame) -> pd.DataFrame:
        word_lists = [_WORD_RE.findall(t.lower()) for t in batch["text"]]
        lens = np.array([len(w) for w in word_lists])
        langs = np.repeat(batch["lang"].to_numpy(), lens)
        words = np.concatenate([np.asarray(w, dtype=object) for w in word_lists if w]) if lens.sum() else np.array([], dtype=object)
        df = pd.DataFrame({"lang": langs, "word": words})
        out = df.groupby(["lang", "word"], sort=False).size().rename("cnt").reset_index()
        return out

    counts = bucketed_aggregate(
        docs.map_batches(word_partials, batch_format="pandas"), ["lang", "word"], {"cnt": "sum"}
    )
    top = grouped_top_k(counts, ["lang"], "cnt", k, descending=True, tie_cols=["word"])

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "word": batch.column("word"),
                "cnt": batch.column("cnt").cast(pa.int64()),
            }
        )

    return top.map_batches(cast, batch_format="pyarrow")


def q_token_quantiles_by_lang(sf_dir: str):
    """Per-language token-count quantiles — the distributed form of
    ``exact_quantiles`` where even the cumulative walk runs inside a
    groupby (driver only sees langs x quantiles result rows)."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import grouped_quantiles

    docs = _read(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_tokens_ws": pa.array([len(t.split()) for t in texts], pa.int64()),
            }
        )

    out = grouped_quantiles(
        docs.map_batches(toks, batch_format="pyarrow"), "lang", "n_tokens_ws", [0.25, 0.5, 0.9]
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "q": batch.column("q").cast(pa.float64()),
                "n_tokens_ws": batch.column("n_tokens_ws").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_bigram_pmi(sf_dir: str, k: int = 20):
    """Collocation extraction: the top-k corpus bigrams with their
    pointwise mutual information (the classic new-term/phrase miner).
    Scale shape: bigram and unigram counts are separate tokenize
    passes into ``bucketed_aggregate`` (count rows shuffle, text
    doesn't), totals come from the aggregated tables, selection is a
    single-group ``grouped_top_k`` (integer-deterministic: cnt DESC,
    words ASC), and only the <= 2k winner words' unigram counts are
    looked up — the full vocabulary table never materializes."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import bucketed_aggregate, grouped_top_k

    docs = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def bigram_partials(batch: pd.DataFrame) -> pd.DataFrame:
        w1l, w2l = [], []
        for t in batch["text"]:
            ws = _WORD_RE.findall(t.lower())
            if len(ws) > 1:
                w1l.extend(ws[:-1])
                w2l.extend(ws[1:])
        df = pd.DataFrame({"w1": w1l, "w2": w2l})
        return df.groupby(["w1", "w2"], sort=False).size().rename("cnt").reset_index()

    def unigram_partials(batch: pd.DataFrame) -> pd.DataFrame:
        ws = [w for t in batch["text"] for w in _WORD_RE.findall(t.lower())]
        df = pd.DataFrame({"word": ws})
        return df.groupby(["word"], sort=False).size().rename("cnt").reset_index()

    big = bucketed_aggregate(
        docs.map_batches(bigram_partials, batch_format="pandas"), ["w1", "w2"], {"cnt": "sum"}
    )
    uni = bucketed_aggregate(
        docs.map_batches(unigram_partials, batch_format="pandas"), ["word"], {"cnt": "sum"}
    )
    tb = float(big.sum("cnt"))
    tu = float(uni.sum("cnt"))

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["g"] = 0
        return batch

    top = grouped_top_k(
        big.map_batches(tag, batch_format="pandas"), ["g"], "cnt", k, descending=True, tie_cols=["w1", "w2"]
    ).to_pandas()

    words = sorted(set(top["w1"]) | set(top["w2"]))
    lookup = uni.map_batches(
        lambda ba: ba[ba["word"].isin(words)], batch_format="pandas"
    ).to_pandas()
    cmap = dict(zip(lookup["word"], lookup["cnt"].astype(float)))

    cab = top["cnt"].to_numpy(dtype=np.float64)
    ca = top["w1"].map(cmap).to_numpy(dtype=np.float64)
    cb = top["w2"].map(cmap).to_numpy(dtype=np.float64)
    pmi = np.log((cab / tb) / ((ca / tu) * (cb / tu)))
    return pd.DataFrame(
        {
            "w1": top["w1"],
            "w2": top["w2"],
            "cnt": top["cnt"].astype(np.int64),
            "pmi": np.round(pmi, 6),
        }
    )


def q_embedding_centroids(sf_dir: str, n_groups: int = 8):
    """Per-group embedding centroids (the E-step / class-prototype
    aggregate of a vector pipeline): per-batch partial sums by group
    and dimension, bucketed merge, centroid = sum/count.  The
    exchange moves (groups x dims) partial rows per batch — never a
    vector table."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        emb = batch.column("embedding").combine_chunks()
        dim = len(emb[0])
        vecs = emb.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
        grp = ids % n_groups
        rows = {"grp": [], "dim": [], "s": [], "n": []}
        for g in np.unique(grp):
            m = grp == g
            rows["grp"].extend([int(g)] * dim)
            rows["dim"].extend(range(dim))
            rows["s"].extend(vecs[m].sum(axis=0).tolist())
            rows["n"].extend([int(m.sum())] * dim)
        return pd.DataFrame(
            {
                "grp": np.array(rows["grp"], np.int64),
                "dim": np.array(rows["dim"], np.int64),
                "s": np.array(rows["s"], np.float64),
                "n": np.array(rows["n"], np.int64),
            }
        )

    merged = bucketed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), ["grp", "dim"], {"s": "sum", "n": "sum"}
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy()
        n = batch.column("n").to_numpy()
        return pa.table(
            {
                "grp": batch.column("grp").cast(pa.int64()),
                "dim": batch.column("dim").cast(pa.int64()),
                "c": pa.array(np.round(s / n, 6), pa.float64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


def q_embedding_cov(sf_dir: str):
    """Corpus-wide second-moment (Gram) matrix of the embedding table —
    the one-pass statistic behind PCA whitening, decorrelation and
    OPQ rotation fitting in a vector pipeline.  Scale shape: each
    batch quantizes the per-row products X[:,a]*X[:,b] (float32
    promoted to float64, exactly as SQL promotes FLOAT to DOUBLE) to
    integer micro-units and sums them locally, so the corpus total is
    an order-independent INTEGER sum; one D*(D+1)/2-long int64 blob
    (~16.6 kB for D=64) leaves each task and there is NO shuffle at
    all — the driver folds the bounded per-block partials and unpacks
    the upper triangle to (dim_a, dim_b, sxy) rows.  At 100 TB the
    reduce input is (#blocks) 16 kB rows; the vector table itself
    never moves."""
    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding").combine_chunks()
        if not len(emb):
            return pa.table({"dim": pa.array([], pa.int64()), "part": pa.array([], pa.binary())})
        dim = len(emb[0])
        x = emb.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim).astype(np.float64)
        ia, ib = np.triu_indices(dim)
        # per-row quantized product, THEN integer sum: order-free
        q = np.floor(x[:, ia] * x[:, ib] * 1e6 + 0.5).astype(np.int64).sum(axis=0)
        return pa.table(
            {
                "dim": pa.array([dim], pa.int64()),
                "part": pa.array([q.tobytes()], pa.binary()),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    dim = int(rows[0]["dim"]) if rows else 0
    total = np.zeros(dim * (dim + 1) // 2, np.int64)
    for r in rows:
        total += np.frombuffer(r["part"], np.int64)
    ia, ib = np.triu_indices(dim)
    return pa.table(
        {
            "dim_a": pa.array(ia.astype(np.int64)),
            "dim_b": pa.array(ib.astype(np.int64)),
            "sxy": pa.array(total),
        }
    )


def _doc_word_counts(batch):
    """Per-(doc, word) counts + doc length, computed in ONE pass inside
    the batch (a document is one row, so tf/doclen are exact without a
    combine; the (doc_id, word) rows are globally unique)."""
    import pandas as pd

    from gdal_boots_ray.kernels.text import _WORD_RE

    wl = [_WORD_RE.findall(t.lower()) for t in batch["text"]]
    lens = np.array([len(w) for w in wl])
    ids = np.repeat(batch["doc_id"].to_numpy(), lens)
    words = (
        np.concatenate([np.asarray(w, dtype=object) for w in wl if w])
        if lens.sum()
        else np.array([], dtype=object)
    )
    df = pd.DataFrame({"doc_id": ids, "word": words})
    out = df.groupby(["doc_id", "word"], sort=False).size().rename("cnt").reset_index()
    out["doclen"] = out.groupby("doc_id", sort=False)["cnt"].transform("sum")
    return out


def q_doc_keywords(sf_dir: str):
    """Per-document TF-IDF keyword extraction — the classic corpus
    summarization step of a training-data pipeline.  Scale shape: one
    tokenize pass emits (doc_id, word, cnt, doclen) partials, document
    frequencies come from a ``bucketed_aggregate`` over those unique
    rows, the df side streams back via the bucketed ``hash_join`` (no
    broadcast of the vocabulary), and the winner per doc is a
    ``grouped_top_k`` — every exchange moves word-count rows, never
    text.  Selection is integer-deterministic (cnt DESC, df ASC, word
    ASC) so the float tf-idf is an output value, not a comparator."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.stages.agg import bucketed_aggregate, grouped_top_k
    from gdal_boots_ray.stages.joins import hash_join

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # row count from parquet footers — no extra read pass
    n_docs = float(pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows)

    # the partials feed TWO consumers (df aggregate + join left side);
    # materializing them stops the lineage re-executing the tokenize
    # pass per branch.  Word-count rows are ~10x smaller than the
    # text they summarize, so pinning them (with object-store spill)
    # is the right trade at any scale.
    counts = docs.map_batches(_doc_word_counts, batch_format="pandas").materialize()
    dfreq = bucketed_aggregate(counts, ["word"], {"df": "count"})
    joined = hash_join(
        counts, dfreq, on="word", left_cols=["doc_id", "cnt", "doclen"], right_cols=["df"]
    )
    top = grouped_top_k(joined, ["doc_id"], "cnt", 1, descending=True, tie_cols=["df", "word"])

    def finish(batch: pa.Table) -> pa.Table:
        cnt = batch.column("cnt").to_numpy().astype(np.float64)
        doclen = batch.column("doclen").to_numpy().astype(np.float64)
        dfv = batch.column("df").to_numpy().astype(np.float64)
        tfidf = cnt / doclen * np.log(n_docs / dfv)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "word": batch.column("word").cast(pa.string()),
                "cnt": batch.column("cnt").cast(pa.int64()),
                "df": batch.column("df").cast(pa.int64()),
                "tfidf": pa.array(np.round(tfidf, 6), pa.float64()),
            }
        )

    return top.map_batches(finish, batch_format="pyarrow")


_BM25_TERMS = ("spark", "window", "merge")


def q_bm25_scores(sf_dir: str, k1: float = 1.2, b: float = 0.75):
    """BM25 retrieval scoring of the corpus against a fixed query
    (Robertson/Sparck-Jones idf, the Okapi tf saturation) — the
    ranking primitive behind quality-targeted corpus selection.
    Scale shape: the tokenize pass keeps only query-term rows (tf +
    doclen per doc), corpus scalars (N, avgdl) are exact integer
    aggregates, per-term df is an output-sized aggregate broadcast in
    a closure, and the per-doc score is a ``bucketed_aggregate`` sum —
    the only shuffle moves (doc x matched-term) rows.  Row membership
    is integer-deterministic; the float score is output-only."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = float(pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows)

    # three consumers (corpus token total, df aggregate, score pass)
    # share one tokenize — pin the word-count partials once
    counts = docs.map_batches(_doc_word_counts, batch_format="pandas").materialize()
    total_tokens = counts.map_batches(
        lambda ba: pd.DataFrame({"t": [int(ba["cnt"].sum())]}), batch_format="pandas"
    ).sum("t")
    avgdl = float(total_tokens) / n_docs

    qrows = counts.map_batches(
        lambda ba: ba[ba["word"].isin(_BM25_TERMS)], batch_format="pandas"
    )
    df_rows = bucketed_aggregate(qrows, ["word"], {"df": "count"}).to_pandas()
    df_map = dict(zip(df_rows["word"], df_rows["df"].astype(float)))

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        dfv = batch["word"].map(df_map).to_numpy(dtype=np.float64)
        cnt = batch["cnt"].to_numpy(dtype=np.float64)
        doclen = batch["doclen"].to_numpy(dtype=np.float64)
        idf = np.log((n_docs - dfv + 0.5) / (dfv + 0.5) + 1.0)
        score = idf * (cnt * (k1 + 1.0)) / (cnt + k1 * (1.0 - b + b * doclen / avgdl))
        return pd.DataFrame({"doc_id": batch["doc_id"], "score": score, "n_terms": 1})

    agg = bucketed_aggregate(
        qrows.map_batches(contrib, batch_format="pandas"),
        ["doc_id"],
        {"score": "sum", "n_terms": "sum"},
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_terms": batch.column("n_terms").cast(pa.int64()),
                "score": pc.round(batch.column("score").cast(pa.float64()), 6),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_doc_logprob(sf_dir: str):
    """Unigram language-model cross-entropy scoring (the CCNet-style
    LM quality filter): each document is scored by the mean token
    log-probability under the corpus's own unigram distribution.
    Scale shape: corpus term frequencies via ``bucketed_aggregate``
    over the unique (doc, word) count rows, streamed back with the
    bucketed ``hash_join``, per-doc reduction is another bucketed sum
    — text never re-shuffles, and the model "training" (the unigram
    table) and "inference" (scoring) are the same two exchanges."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.joins import hash_join

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # two consumers (unigram table + join left side) share the
    # tokenize pass — pin the word-count partials once
    counts = docs.map_batches(_doc_word_counts, batch_format="pandas").materialize()
    tf = bucketed_aggregate(counts, ["word"], {"cnt": "sum"}).map_batches(
        lambda ba: ba.rename(columns={"cnt": "tot"}), batch_format="pandas"
    )
    # total tokens from the (vocabulary-sized) unigram table — avoids
    # a second tokenize pass over the corpus
    total_tokens = float(tf.sum("tot"))

    joined = hash_join(counts, tf, on="word", left_cols=["doc_id", "cnt", "doclen"], right_cols=["tot"])

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        lp = np.log(batch["tot"].to_numpy(dtype=np.float64) / total_tokens)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "s": batch["cnt"].to_numpy(dtype=np.float64) * lp,
                "doclen": batch["cnt"].astype(np.int64),
            }
        )

    agg = bucketed_aggregate(
        joined.map_batches(contrib, batch_format="pandas"),
        ["doc_id"],
        {"s": "sum", "doclen": "sum"},
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy().astype(np.float64)
        dl = batch.column("doclen").to_numpy().astype(np.float64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "doclen": batch.column("doclen").cast(pa.int64()),
                "avg_logprob": pa.array(np.round(s / dl, 6), pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_kmeans(sf_dir: str, k: int = 8, iters: int = 6):
    """Distributed Lloyd k-means over the embeddings table
    (stages/kmeans.py): per-iteration broadcast centroids + per-batch
    partial sums; vectors never shuffle.  Deterministic md5-ranked
    seeding.  Oracle is invariant-style (like knn_ivf): ``ok``
    asserts monotone non-increasing inertia, ``n_assigned`` (the sum
    of member counts) is hash-checked against DuckDB's row count —
    proving no vector is lost or duplicated by the iteration."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.kmeans import assign_clusters, kmeans

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    cents, inertias = kmeans(ds, "vec_id", "embedding", k=k, iters=iters)
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(inertias, inertias[1:]))
    assigned = assign_clusters(ds, "embedding", cents)
    counts = (
        assigned.groupby("cluster").count().to_pandas().rename(columns={"count()": "n"})
    )
    n_assigned = int(counts["n"].sum())
    return pd.DataFrame(
        {
            "cluster": np.arange(k, dtype=np.int64),
            "n_assigned": np.full(k, n_assigned, dtype=np.int64),
            "ok": [bool(monotone)] * k,
        }
    )


def q_price_quantiles(sf_dir: str):
    """Interpolated percentile_cont over an unbounded float column —
    the three-pass histogram-refine plan (min/max pass, fixed-range
    histogram, filtered candidate-bucket collect); no global sort."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import continuous_quantiles

    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    out = continuous_quantiles(orders, "o_totalprice", [0.25, 0.5, 0.75, 0.95])
    out["o_totalprice"] = np.round(out["o_totalprice"], 4)
    return out


def q_capped_sample(sf_dir: str, cap: int = 50):
    """Per-group capped downsampling (at most ``cap`` docs per
    language, chosen by md5 rank): deterministic across
    retries/resumes/cluster sizes AND order-free — the "cap per
    domain" step of a corpus pipeline, as grouped_top_k over the
    hash rank (partial top-k per batch, bucketed merge)."""
    import hashlib as _hashlib

    import ray.data as rd

    from gdal_boots_ray.stages.agg import grouped_top_k

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def rank(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        r = [_hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang": batch.column("lang"),
                "r": pa.array(r, pa.string()),
            }
        )

    top = grouped_top_k(
        docs.map_batches(rank, batch_format="pyarrow"), ["lang"], "r", cap, descending=False
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch.column("doc_id").cast(pa.int64()), "lang": batch.column("lang")}
        )

    return top.map_batches(cast, batch_format="pyarrow")


def q_approx_distinct(sf_dir: str):
    """HyperLogLog count-distinct vs the exact distributed count, for
    an int key (orders.o_custkey) and a string domain (distinct words
    in documents).  ``exact_distinct`` is hash-checked against
    DuckDB's count(DISTINCT ..); ``ok`` asserts the HLL estimate
    within 5% (~3 sigma at p=12) — the sketch's contract, since the
    estimate itself is implementation-defined."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import approx_count_distinct, bucketed_aggregate

    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    est_cust = approx_count_distinct(orders, "o_custkey")
    exact_cust = bucketed_aggregate(orders, ["o_custkey"], {"n": "count"}).count()

    docs = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def words(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for t in batch["text"]:
            out.extend(set(_WORD_RE.findall(t.lower())))
        return pd.DataFrame({"word": pd.Series(out, dtype=str)})

    word_ds = docs.map_batches(words, batch_format="pandas")
    est_words = approx_count_distinct(word_ds, "word")
    exact_words = bucketed_aggregate(word_ds, ["word"], {"n": "count"}).count()

    return pd.DataFrame(
        {
            "metric": ["o_custkey", "word"],
            "exact_distinct": np.array([exact_cust, exact_words], dtype=np.int64),
            "ok": [
                abs(est_cust / max(exact_cust, 1) - 1.0) < 0.05,
                abs(est_words / max(exact_words, 1) - 1.0) < 0.05,
            ],
        }
    )


_ALPHA_RE = re.compile(r"[^a-zA-Z]")
_DIGIT_RE = re.compile(r"[^0-9]")


def _round_half_away(x: float, d: int) -> float:
    """DuckDB-compatible rounding (half away from zero) — Python's
    round() is half-to-even and disagrees exactly at ties like
    105/128 = 0.8203125."""
    import math

    scale = 10.0**d
    return math.copysign(math.floor(abs(x) * scale + 0.5) / scale, x)


def q_text_quality(sf_dir: str):
    import ray.data as rd

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def feats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ar, dr = [], []
        for t in texts:
            n = len(t)
            ar.append(_round_half_away(len(_ALPHA_RE.sub("", t)) / n, 6) if n else 0.0)
            dr.append(_round_half_away(len(_DIGIT_RE.sub("", t)) / n, 6) if n else 0.0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "alpha_ratio": pa.array(ar, pa.float64()),
                "digit_ratio": pa.array(dr, pa.float64()),
            }
        )

    return docs.map_batches(feats, batch_format="pyarrow")


def q_lang_id(sf_dir: str):
    """Full text-features row per doc (label + prediction + quality
    score + BPE token count) — oracle-checked: the DuckDB twin
    replays the stopword-argmax, the quality-score formula (same
    factor order, so products are bit-identical) and the BPE regex."""
    import ray.data as rd

    from gdal_boots_ray.kernels.text import lang_id, quality_score, token_count_bpe

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def feats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang": batch.column("lang"),
                "lang_pred": pa.array([lang_id(t)[0] for t in texts], pa.string()),
                "quality": pa.array(
                    [_round_half_away(quality_score(t), 6) for t in texts], pa.float64()
                ),
                "n_tokens_bpe": pa.array([token_count_bpe(t) for t in texts], pa.int64()),
            }
        )

    return docs.map_batches(feats, batch_format="pyarrow")


def q_lang_id_pred(sf_dir: str):
    """Language-ID predictions only — oracle-checked (the stopword
    hit-rate argmax is SQL-expressible; first-lang-wins tie rule
    emulated with the ordered CASE chain)."""
    import ray.data as rd

    from gdal_boots_ray.kernels.text import lang_id

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pred(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang_pred": pa.array([lang_id(t)[0] for t in texts], pa.string()),
            }
        )

    return docs.map_batches(pred, batch_format="pyarrow")


def q_multimodal_neardup(sf_dir: str, max_ph_ham: int = 3, max_sh_ham: int = 12):
    """JOINT image+caption near-duplicate pairs over the north-star
    image+caption table: a pair survives only if the IMAGES are
    phash-near (banded LSH + exact hamming <= ``max_ph_ham``, the
    oracle-exact q_phash_neardup) AND the CAPTIONS are simhash-near
    (hamming <= ``max_sh_ham``) — the multimodal dedup rule (a meme
    re-uploaded with a new caption, or one caption on two images, is
    NOT a joint duplicate).  Plan: image pairs from the banded phash
    path; caption simhashes attach to BOTH ends through ONE doc
    shuffle (attach_pair_columns); the final filter recomputes both
    hammings vectorized.  The twin replays phash closed-form + the
    caption simhash CTE quadratically, so banding + attach + filter
    are all hash-checked."""
    from gdal_boots_ray.kernels.text import simhash64
    from gdal_boots_ray.stages.textstages import attach_pair_columns

    pairs = q_phash_neardup(sf_dir, max_hamming=max_ph_ham).select_columns(["key_a", "key_b"])

    caps = _read(f"{sf_dir}/part.parquet", columns=["p_partkey"])

    def cap_sh(batch: pa.Table) -> pa.Table:
        ks = batch.column("p_partkey").to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ks, pa.int64()),
                "sh": pa.array([simhash64(f"tile img-{int(k):08d}") for k in ks], pa.int64()),
            }
        )

    withsh = attach_pair_columns(
        pairs,
        caps.map_batches(cap_sh, batch_format="pyarrow"),
        key_a="key_a",
        key_b="key_b",
        out_a="sh_a",
        out_b="sh_b",
        val_col="sh",
    )

    def popcount64(v: np.ndarray) -> np.ndarray:
        return np.unpackbits(v.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)

    def joint(batch: pa.Table) -> pa.Table:
        ka = batch.column("key_a").to_numpy()
        kb = batch.column("key_b").to_numpy()
        pha = (ka * 1000003 + 12345) % 1048576
        phb = (kb * 1000003 + 12345) % 1048576
        ph_ham = popcount64((pha ^ phb).astype(np.uint64))
        sha = batch.column("sh_a").to_numpy().astype(np.int64)
        shb = batch.column("sh_b").to_numpy().astype(np.int64)
        sh_ham = popcount64((sha ^ shb).astype(np.uint64))
        keep = sh_ham <= max_sh_ham
        return pa.table(
            {
                "key_a": pa.array(ka[keep], pa.int64()),
                "key_b": pa.array(kb[keep], pa.int64()),
                "ph_ham": pa.array(ph_ham[keep], pa.int64()),
                "sh_ham": pa.array(sh_ham[keep], pa.int64()),
            }
        )

    return withsh.map_batches(joint, batch_format="pyarrow")


def q_domain_mix(sf_dir: str):
    """Deterministic domain-balancing sampler — the data-MIXING stage
    of a training pipeline (downsample over-represented languages to
    the smallest language's count, in expectation): pass 1 predicts
    the language per doc (the oracle-checked stopword argmax) and
    reduces PER-LANGUAGE counts (a handful of rows — the only
    driver-side materialization); pass 2 keeps a doc iff
    ``md5(doc_id) ppm < floor(min_count * 1e6 / count_lang)`` — a
    deterministic integer-ppm hash gate, so the sample is
    reproducible row-for-row, resumable, and SQL-replayable (no RNG).
    ``und`` docs are dropped (unknown domain).  At 100 TB this is two
    streaming passes with one tiny aggregate between them; the
    broadcast is a <=5-entry dict."""
    import hashlib as _hashlib

    from gdal_boots_ray.kernels.text import lang_id
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pred(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang_pred": pa.array([lang_id(t)[0] for t in texts], pa.string()),
            }
        )

    langs = docs.map_batches(pred, batch_format="pyarrow")
    counts = bucketed_aggregate(langs, ["lang_pred"], {"n": "count"}).to_pandas()
    counts = counts[counts["lang_pred"] != "und"]
    min_cnt = int(counts["n"].min())
    thresh = {
        r.lang_pred: (min_cnt * 1_000_000) // int(r.n) for r in counts.itertuples(index=False)
    }

    def sample(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        lp = batch.column("lang_pred").to_pylist()
        keep = np.zeros(len(ids), bool)
        for i, (d, l) in enumerate(zip(ids, lp)):
            t = thresh.get(l)
            if t is None:
                continue
            ppm = int(_hashlib.md5(str(int(d)).encode()).hexdigest()[:8], 16) % 1_000_000
            keep[i] = ppm < t
        return batch.filter(pa.array(keep))

    return langs.map_batches(sample, batch_format="pyarrow")


def q_minhash_pairs(sf_dir: str, doc_cap: int = 1500):
    """ORACLE-CHECKED MinHash-LSH band construction: md5-based shingle
    hash + mod-(2^31-1) permutations (exact 64-bit integer arithmetic
    on both sides), 32 bands x 2 rows, pairs = docs sharing >= 1 band
    bucket with the shared-band count.  The DuckDB twin replays the
    ENTIRE construction — shingling, md5 hash, permutations, band
    keys, pair join — so the LSH machinery itself is hash-checked
    (the production rolling-hash MinHash is exercised by
    minhash_neardup whose oracle is the exact quadratic Jaccard).
    hot_cap is effectively off so star-linking (a physical-plan skew
    control, not SQL-expressible) can't perturb the set; doc_id <
    ``doc_cap`` bounds the quadratic twin (and this construction
    check) at larger SFs — the full-corpus production path is
    minhash_neardup / corpus_clean."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.stages.textstages import MD5MinHashStage, band_pairs_from_rows

    n_docs = min(pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows, doc_cap)
    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )
    band_rows = docs.map_batches(
        MD5MinHashStage,
        batch_format="pyarrow",
        fn_constructor_kwargs={"num_perm": 64, "bands": 32},
        concurrency=(1, 8),
    )
    out = band_pairs_from_rows(band_rows, int(n_docs), 32, hot_cap=1 << 40)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": batch.column("doc_a").cast(pa.int64()),
                "doc_b": batch.column("doc_b").cast(pa.int64()),
                "n_bands": batch.column("n_bands").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def _shingle_set(text: str, n: int = 5):
    """Whitespace-normalized lowercase character n-grams — EXACTLY the
    normalization MinHasher hashes, and SQL-expressible (substring over
    regexp_replace(lower(trim(text)), '\\s+', ' ', 'g'))."""
    t = " ".join(text.lower().split())
    return {t[i : i + n] for i in range(len(t) - n + 1)}


def q_minhash_neardup(sf_dir: str, threshold: float = 0.5):
    """VERIFIED near-duplicate pairs: MinHash-LSH candidates (32 bands
    x 2 rows over 64 perms — P[miss] < 1e-6 at jaccard 0.5) followed
    by an EXACT 5-gram Jaccard >= 0.5 verify; the oracle is the
    quadratic DuckDB twin, so this hash-checks the whole LSH+verify
    construction end to end.  Candidate generation shuffles with
    count-derived bucket fan-out; texts are attached to candidate
    pairs with two streaming shuffle joins (no document broadcast)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.stages.textstages import attach_pair_columns, minhash_candidate_pairs

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    cand = minhash_candidate_pairs(docs, num_perm=64, bands=32, n_docs=n_docs).select_columns(
        ["doc_a", "doc_b"]
    )
    withtext = attach_pair_columns(cand, docs)
    return _exact_jaccard_verify(withtext, threshold)


def _exact_jaccard_verify(withtext_ds, threshold: float):
    """Shared verify tail of every near-dup candidate generator:
    exact 5-gram Jaccard >= threshold over attached pair texts ->
    (doc_a, doc_b, jac) rows.  A per-batch {doc_id: shingle_set}
    cache shingles each doc ONCE however many candidate pairs it
    appears in (verify cost is output-sized; hub docs in m pairs
    previously paid m re-shingles)."""

    def verify(batch: pa.Table) -> pa.Table:
        da = batch.column("doc_a").to_numpy().astype(np.int64)
        db = batch.column("doc_b").to_numpy().astype(np.int64)
        ta = batch.column("text_a").to_pylist()
        tb = batch.column("text_b").to_pylist()
        cache: dict = {}

        def _sh(doc_id: int, text: str):
            s = cache.get(doc_id)
            if s is None:
                s = cache[doc_id] = _shingle_set(text)
            return s

        out_a, out_b, out_j = [], [], []
        for i in range(len(da)):
            sa = _sh(int(da[i]), ta[i])
            sb = _sh(int(db[i]), tb[i])
            union = len(sa | sb)
            jac = len(sa & sb) / union if union else 0.0
            if jac >= threshold:
                out_a.append(int(da[i]))
                out_b.append(int(db[i]))
                out_j.append(_round_half_away(jac, 6))
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jac": pa.array(out_j, pa.float64()),
            }
        )

    return withtext_ds.map_batches(verify, batch_format="pyarrow")


def q_jaccard_neardup(sf_dir: str, threshold: float = 0.6):
    """EXACT n-gram Jaccard near-duplicate pairs (jac >= 0.6) via
    prefix filtering (AllPairs, Bayardo et al. WWW'07): each doc
    emits only its first ``n - ceil(t*n) + 1`` hash-sorted 5-gram
    shingles; any pair at Jaccard >= t provably shares a prefix
    token, so the blocking has recall EXACTLY 1 — this is the
    deterministic sibling of minhash_neardup (P[miss] < 1e-6).
    Candidates shuffle through count-scaled buckets with the exact
    length filter (min(sz) >= t*max(sz)); texts attach via streaming
    shuffle joins; the exact Jaccard verify makes precision 1.  The
    oracle is the quadratic DuckDB shingle-Jaccard twin at the same
    threshold, so recall=1 of the prefix blocking is hash-checked
    end to end."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.stages.textstages import (
        attach_pair_columns,
        prefix_jaccard_candidate_pairs,
    )

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    cand = prefix_jaccard_candidate_pairs(docs, threshold=threshold, n_docs=n_docs).select_columns(
        ["doc_a", "doc_b"]
    )
    withtext = attach_pair_columns(cand, docs)
    return _exact_jaccard_verify(withtext, threshold)


def q_corpus_clean(
    sf_dir: str,
    min_tokens: int = 5,
    jac_threshold: float = 0.5,
    checkpoint_dir: Optional[str] = None,
):
    """END-TO-END training-corpus cleaning pipeline, one streaming
    composition of the verified pieces: language-ID + token-count
    filter (stateless map) -> exact dedup (md5 co-shuffle, min doc_id
    survives) -> MinHash-LSH near-dup detection with exact-Jaccard
    verify (count-scaled bucket shuffle) -> ANTI join dropping every
    verified near-duplicate's doc_b.  The DuckDB twin replays the
    entire chain (stopword argmax, QUALIFY dedup, quadratic shingle
    Jaccard, NOT EXISTS), so the whole pipeline is hash-checked —
    the corpus a 100 TB text job would actually ship."""
    import hashlib as _hashlib

    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.kernels.text import lang_id
    from gdal_boots_ray.stages.joins import hash_join
    from gdal_boots_ray.stages.textstages import attach_pair_columns, minhash_candidate_pairs

    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def feat_filter(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        langs = [lang_id(t)[0] for t in texts]
        ntok = np.array([len(t.split()) for t in texts], dtype=np.int64)
        keep = np.array([l != "und" for l in langs]) & (ntok >= min_tokens)
        hs = [_hashlib.md5(t.encode()).hexdigest() for t in texts]
        out = pa.table(
            {
                "doc_id": pa.array(ids),
                "text": batch.column("text"),
                "lang_pred": pa.array(langs, pa.string()),
                "n_tokens_ws": pa.array(ntok),
                "h": pa.array(hs, pa.string()),
            }
        )
        return out.filter(pa.array(keep))

    filtered = docs.map_batches(feat_filter, batch_format="pyarrow")

    # exact dedup, bucketed: hash buckets bound the shuffle fan-out
    # and the min-per-h reduce is vectorized per BUCKET (thousands of
    # h groups each), never per tiny h group (the per-group pandas
    # overhead trap at 10^9 distinct texts)
    from gdal_boots_ray.stages.agg import exchange

    def keep_min_per_hash(g: pa.Table) -> pa.Table:
        # rows in doc_id order, then the first occurrence of each hash
        # is the min-doc_id survivor (np.unique returns first indices)
        did = g.column("doc_id").to_numpy()
        order = np.argsort(did, kind="mergesort")
        h = g.column("h").to_numpy(zero_copy_only=False)[order]
        _, first = np.unique(h, return_index=True)
        rows = order[np.sort(first)]
        return g.take(pa.array(rows, pa.int64()))

    unique = exchange(filtered, ["h"], keep_min_per_hash)

    # checkpoint the cleaned-survivor set once: three downstream
    # consumers (LSH, two text attaches, anti join) would otherwise
    # re-execute the whole filter+dedup lineage per consumption —
    # at corpus scale that is 4 extra reads of the input.  Parquet
    # checkpoint = bounded by disk, resumable, partition-parallel.
    #
    # The checkpoint path must be CLUSTER-SHARED (every node reads
    # it back): callers pass an explicit dir under the job's output
    # root, or set GDAL_BOOTS_RAY_CKPT to the shared scratch root.
    # Publication is atomic (write to .tmp, rename), so a finished
    # checkpoint is the resume unit: a rerun with the same params
    # skips the whole filter+dedup lineage and streams from parquet.
    import atexit
    import os
    import shutil

    if checkpoint_dir is None:
        root = os.environ.get("GDAL_BOOTS_RAY_CKPT", "/tmp/gdal_boots_ray_ckpt")
        sf_tag = os.path.basename(os.path.normpath(sf_dir))
        checkpoint_dir = os.path.join(root, f"corpus_unique_{sf_tag}_mt{min_tokens}")
        # default-owned cache: drop it at interpreter exit so repeated
        # gate runs don't leak one parquet dir per invocation
        atexit.register(shutil.rmtree, checkpoint_dir, True)
    if not os.path.isdir(checkpoint_dir):
        tmp = checkpoint_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        unique.write_parquet(tmp)
        os.makedirs(os.path.dirname(checkpoint_dir), exist_ok=True)
        os.rename(tmp, checkpoint_dir)  # atomic publish = completion marker
    unique = _read(checkpoint_dir)

    cand = minhash_candidate_pairs(
        unique, num_perm=64, bands=32, n_docs=n_docs
    ).select_columns(["doc_a", "doc_b"])
    withtext = attach_pair_columns(cand, unique)

    def verify_drop(batch: pa.Table) -> pa.Table:
        db = batch.column("doc_b").to_numpy().astype(np.int64)
        ta = batch.column("text_a").to_pylist()
        tb = batch.column("text_b").to_pylist()
        out = []
        for i in range(len(db)):
            sa = _shingle_set(ta[i])
            sb = _shingle_set(tb[i])
            union = len(sa | sb)
            if union and len(sa & sb) / union >= jac_threshold:
                out.append(int(db[i]))
        return pa.table({"doc_id": pa.array(out, pa.int64())})

    drops = withtext.map_batches(verify_drop, batch_format="pyarrow")

    clean = hash_join(
        unique,
        drops,
        on="doc_id",
        left_cols=["lang_pred", "n_tokens_ws"],
        right_cols=[],
        how="anti",
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang_pred": batch.column("lang_pred").cast(pa.string()),
                "n_tokens_ws": batch.column("n_tokens_ws").cast(pa.int64()),
            }
        )

    return clean.map_batches(cast, batch_format="pyarrow")


def q_simhash(sf_dir: str):
    """Rows-only: 64-bit SimHash per document."""
    import ray.data as rd

    from gdal_boots_ray.stages.textstages import SimHashStage

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(SimHashStage, batch_format="pyarrow", concurrency=(1, 4))
    return out.select_columns(["doc_id", "simhash"])


def q_simhash_neardup(sf_dir: str, max_hamming: int = 3):
    """Near-duplicate documents by SimHash hamming distance <= 3 over
    the 64-bit fingerprint: LSH banding (4 bands x 16 bits —
    pigeonhole-EXACT for hamming<=3, as in phash_neardup) + verify.
    The oracle is the quadratic bit_count(xor) join over the same
    SQL-replayed simhash, so banding exactness is hash-checked."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.kernels.text import simhash64
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sim_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        sh = np.array([simhash64(t) for t in texts], dtype=np.int64)
        return pa.table({"doc_id": pa.array(ids), "sh": pa.array(sh, pa.int64())})

    rows = docs.map_batches(sim_rows, batch_format="pyarrow")

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        sh = batch.column("sh").to_numpy().astype(np.uint64)
        out_i, out_b = [], []
        for b in range(4):
            band_val = (sh >> np.uint64(b * 16)) & np.uint64(0xFFFF)
            out_i.extend(ids.tolist())
            out_b.extend((band_val.astype(np.int64) + (b << 40)).tolist())
        return pa.table({"doc_id": pa.array(out_i, pa.int64()), "bucket": pa.array(out_b, pa.int64())})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["doc_id"].unique())
        if len(ids) < 2:
            return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64), "doc_b": pd.Series([], dtype=np.int64)})
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"doc_a": ids[a].astype(np.int64), "doc_b": ids[b].astype(np.int64)})

    cand = rows.map_batches(band_rows, batch_format="pyarrow").groupby("bucket").map_groups(
        pairs, batch_format="pandas"
    )
    dedup = bucketed_aggregate(cand, ["doc_a", "doc_b"], {"n": "count"}).select_columns(["doc_a", "doc_b"])

    from gdal_boots_ray.stages.textstages import attach_pair_columns

    withtext = attach_pair_columns(dedup, docs)

    def verify(batch: pa.Table) -> pa.Table:
        da = batch.column("doc_a").to_numpy().astype(np.int64)
        db = batch.column("doc_b").to_numpy().astype(np.int64)
        ta = batch.column("text_a").to_pylist()
        tb = batch.column("text_b").to_pylist()
        out_a, out_b, out_h = [], [], []
        for i in range(len(da)):
            h = bin((simhash64(ta[i]) ^ simhash64(tb[i])) & ((1 << 64) - 1)).count("1")
            if h <= max_hamming:
                out_a.append(int(da[i]))
                out_b.append(int(db[i]))
                out_h.append(h)
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "hamming": pa.array(out_h, pa.int64()),
            }
        )

    return withtext.map_batches(verify, batch_format="pyarrow")


def q_event_gaps(sf_dir: str):
    """Window navigation functions (LAG + a ROWS-frame moving
    average) as a distributed composition: co-partition on user_id,
    per-group ordered diff + rolling mean — one shuffle total, same
    partitioning contract as sessionize.  First event per user is
    dropped (its gap is NULL in SQL)."""
    import pandas as pd
    import ray.data as rd

    ds = _read(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        gap = g["ts"].diff().dt.total_seconds()
        mavg = g["value"].rolling(3, min_periods=1).mean()
        out = pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy().astype(np.int64),
                "user_id": g["user_id"].to_numpy().astype(np.int64),
                "gap_s": np.round(gap.to_numpy(), 6),
                "mavg3": np.round(mavg.to_numpy(), 6),
            }
        )
        return out[~np.isnan(out["gap_s"].to_numpy())]

    return ds.groupby("user_id").map_groups(gaps, batch_format="pandas")


def q_running_total(sf_dir: str):
    """Cumulative window aggregate (SUM OVER ... ROWS UNBOUNDED
    PRECEDING) — the running-total shape that completes the window
    family next to tumbling/sliding/session/LAG: co-partition on
    user_id (the same single-shuffle contract as sessionize and
    event_gaps), per-group deterministic (ts, event_id) order, then a
    vectorized cumulative sum + running row count."""
    import pandas as pd
    import ray.data as rd

    ds = _read(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])

    def cumsum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy().astype(np.int64),
                "user_id": g["user_id"].to_numpy().astype(np.int64),
                "rn": np.arange(1, len(g) + 1, dtype=np.int64),
                "run_total": np.round(np.cumsum(g["value"].to_numpy()), 6),
            }
        )

    return ds.groupby("user_id").map_groups(cumsum, batch_format="pandas")


def q_events_window(sf_dir: str):
    """Tumbling 5-min windows per event type.  Window count is
    unbounded over time (one group per window per type), so this uses
    the partial-per-batch + bucketed-final combine from
    ``stages.agg`` — a bare ``groupby.aggregate`` sort-reduces per
    tiny group, which is pathological at stream scale."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ev = _read(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])

    def win(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "win": pa.array(us // 300_000_000, pa.int64()),
                # named for the aggregate output (bucketed_aggregate
                # aggregates a column into itself)
                "sum_value": batch.column("value").cast(pa.float64()),
            }
        )

    agg = bucketed_aggregate(
        ev.map_batches(win, batch_format="pyarrow"),
        ["event_type", "win"],
        {"n_events": "count", "sum_value": "sum"},
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "win": batch.column("win").cast(pa.int64()),
                "n_events": batch.column("n_events").cast(pa.int64()),
                "sum_value": pc.round(batch.column("sum_value").cast(pa.float64()), 6),
            }
        )

    return agg.map_batches(cast, batch_format="pyarrow")


def q_events_sliding(sf_dir: str):
    """Sliding windows (size 10 min, hop 5 min): each event lands in
    exactly two windows; per-batch fan-out + bucketed final combine.
    Completes the window family (tumbling / sliding / session)."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ev = _read(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def fanout(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        w0 = (us // 300_000_000) * 300  # seconds, hop-aligned
        vals = batch.column("value").to_numpy()
        win = np.concatenate([w0, w0 - 300])
        return pa.table(
            {
                "win": pa.array(win, pa.int64()),
                # named for the aggregate output (bucketed_aggregate
                # aggregates a column into itself)
                "sum_value": pa.array(np.concatenate([vals, vals]), pa.float64()),
            }
        )

    agg = bucketed_aggregate(ev.map_batches(fanout, batch_format="pyarrow"), ["win"], {"n_events": "count", "sum_value": "sum"})

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "win": batch.column("win").cast(pa.int64()),
                "n_events": batch.column("n_events").cast(pa.int64()),
                "sum_value": pc.round(batch.column("sum_value").cast(pa.float64()), 6),
            }
        )

    return agg.map_batches(cast, batch_format="pyarrow")


def q_salted_cell_counts(sf_dir: str):
    """Skew machinery in the correctness gate: two-phase salted
    aggregation keyed on grid cell must produce exactly the plain
    GROUP BY result (salting is a physical plan detail)."""
    from gdal_boots_ray.stages.geo import make_add_grid_cell
    from gdal_boots_ray.stages.skew import salted_cell_aggregate

    ds = _with_bounds(_tiles_dataset(sf_dir, decode=False))
    ds = ds.map_batches(make_add_grid_cell(5000.0), batch_format="pyarrow")
    out = salted_cell_aggregate(ds, {"n_tiles": "count"}, cell_col="cell", hot_threshold=8)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell": batch.column("cell").cast(pa.int64()),
                "n_tiles": batch.column("n_tiles").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def _custkey_to_nation_name(sf_dir: str) -> np.ndarray:
    """Dense custkey -> nation-name object array (vectorized fancy-
    index attach; no per-row dict lookups in the hot stage).  Small
    side: one entry per customer, broadcast once via ray.put."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    ck = cust.column("c_custkey").to_numpy().astype(np.int64)
    nk = cust.column("c_nationkey").to_numpy().astype(np.int64)
    nid = nat.column("n_nationkey").to_numpy().astype(np.int64)
    names = np.empty(int(nid.max()) + 1, dtype=object)
    names[nid] = np.array(nat.column("n_name").to_pylist(), dtype=object)
    lookup = np.empty(int(ck.max()) + 1, dtype=object)
    lookup[ck] = names[nk]
    return lookup


def q_top_orders_per_nation(sf_dir: str, k: int = 3):
    """Group-wise top-k (the SQL ``ROW_NUMBER() OVER (PARTITION BY
    ...) <= k`` window) without a global sort: broadcast
    customer->nation attach, then ``grouped_top_k`` — per-batch
    partial top-k so the shuffle moves <= k rows per (nation, batch),
    bucketed final merge.  Deterministic under price ties via the
    o_orderkey tie-break."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from gdal_boots_ray.stages.agg import grouped_top_k

    lookup_ref = ray.put(_custkey_to_nation_name(sf_dir))

    orders = _read(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    class AttachNation:
        def __init__(self):
            self.lookup = ray.get(lookup_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ck = batch.column("o_custkey").to_numpy()
            return batch.append_column("n_name", pa.array(self.lookup[ck]))

    attached = orders.map_batches(AttachNation, batch_format="pyarrow", concurrency=(1, 4))
    top = grouped_top_k(
        attached, ["n_name"], "o_totalprice", k, descending=True, tie_cols=["o_orderkey"]
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch.column("n_name"),
                "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "o_custkey": batch.column("o_custkey").cast(pa.int64()),
                "o_totalprice": batch.column("o_totalprice").cast(pa.float64()),
            }
        )

    return top.map_batches(cast, batch_format="pyarrow")


def q_revenue_by_segment(sf_dir: str):
    """Two-large-sides relational equi-join with NO broadcast: orders
    and customer co-shuffle once through the bucketed
    ``hash_join``, then a partial+bucketed aggregate by market
    segment.  The shape that survives both sides at 10^9 rows."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.joins import hash_join

    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    cust = _read(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])

    def key_o(batch: pa.Table) -> pa.Table:
        # the price column is pre-named 'revenue' so the aggregate's
        # output name needs no extra rename pass
        return pa.table(
            {"custkey": batch.column("o_custkey").cast(pa.int64()), "revenue": batch.column("o_totalprice")}
        )

    def key_c(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"custkey": batch.column("c_custkey").cast(pa.int64()), "c_mktsegment": batch.column("c_mktsegment")}
        )

    joined = hash_join(
        orders.map_batches(key_o, batch_format="pyarrow"),
        cust.map_batches(key_c, batch_format="pyarrow"),
        on="custkey",
        left_cols=["revenue"],
        right_cols=["c_mktsegment"],
    )
    agg = bucketed_aggregate(
        joined, ["c_mktsegment"], {"revenue": "sum", "n_orders": "count"}
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch.column("c_mktsegment"),
                "revenue": pc.round(batch.column("revenue").cast(pa.float64()), 2),
                "n_orders": batch.column("n_orders").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_customer_order_counts(sf_dir: str):
    """Distributed LEFT OUTER join: every customer with its order
    count and total spend — zero / null-coalesced for customers with
    no orders (the rows an inner join silently drops).  The orders
    side pre-aggregates per custkey with ``bucketed_aggregate`` so
    the join's right side is one row per customer, then the same
    bucketed co-shuffle as the inner/semi/anti family pads unmatched
    left rows with nulls."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.joins import hash_join

    cust = _read(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def key_c(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": batch.column("c_custkey").cast(pa.int64()),
                "c_mktsegment": batch.column("c_mktsegment"),
            }
        )

    def key_o(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": batch.column("o_custkey").cast(pa.int64()),
                "n_orders": pa.array(np.ones(batch.num_rows, np.int64)),
                "spent": batch.column("o_totalprice").cast(pa.float64()),
            }
        )

    per_cust = bucketed_aggregate(
        orders.map_batches(key_o, batch_format="pyarrow"),
        ["custkey"],
        {"n_orders": "sum", "spent": "sum"},
    )
    out = hash_join(
        cust.map_batches(key_c, batch_format="pyarrow"),
        per_cust,
        on="custkey",
        left_cols=["c_mktsegment"],
        right_cols=["n_orders", "spent"],
        how="left",
    )

    def cast(batch: pa.Table) -> pa.Table:
        n = batch.column("n_orders")
        s = batch.column("spent").cast(pa.float64())
        return pa.table(
            {
                "custkey": batch.column("custkey").cast(pa.int64()),
                "c_mktsegment": batch.column("c_mktsegment").cast(pa.string()),
                "n_orders": pc.fill_null(n.cast(pa.int64()), 0),
                "spent": pc.round(pc.fill_null(s, 0.0), 2),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_customers_with_big_orders(sf_dir: str, min_price: float = 420000.0):
    """Distributed SEMI join (the EXISTS shape): customers having at
    least one order above ``min_price`` — left rows pass at most
    once regardless of match multiplicity."""
    import pyarrow.compute as _pc
    import ray.data as rd

    from gdal_boots_ray.stages.joins import hash_join

    cust = _read(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    orders = _read(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=_pc.field("o_totalprice") > min_price,
    )

    def key_c(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"custkey": batch.column("c_custkey").cast(pa.int64()), "c_mktsegment": batch.column("c_mktsegment")}
        )

    def key_o(batch: pa.Table) -> pa.Table:
        return pa.table({"custkey": batch.column("o_custkey").cast(pa.int64())})

    out = hash_join(
        cust.map_batches(key_c, batch_format="pyarrow"),
        orders.map_batches(key_o, batch_format="pyarrow"),
        on="custkey",
        left_cols=["c_mktsegment"],
        right_cols=[],
        how="semi",
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": batch.column("custkey").cast(pa.int64()),
                "c_mktsegment": batch.column("c_mktsegment").cast(pa.string()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_dup_components(sf_dir: str, max_iters: int = 30, broadcast_threshold: int = 5_000_000):
    """Connected components over the near-duplicate graph — the step a
    production dedup pipeline needs after pair generation to elect one
    canonical row per duplicate CLUSTER (pairs alone under-delete on
    chains a~b~c).  Edges are the phash hamming<=3 pairs
    (q_phash_neardup, itself oracle-exact); labels converge by
    min-label propagation with POINTER JUMPING: each round pushes
    labels across edges (bucketed hash join + bucketed min-combine),
    then doubles (label <- label-of-label, a second join), so rounds
    scale with log(component diameter) instead of diameter — the
    difference between ~7 and ~10^5 rounds on a chain-shaped dup
    cluster.  All exchanges move (node, label) rows only, never
    payloads.  Only edge-incident nodes iterate; singletons bypass
    via an anti join.  Labels are monotone non-increasing, so the
    label-sum scalar is a convergence proof; non-convergence within
    max_iters raises instead of returning wrong components.  Each
    round re-materializes labels at a FIXED partition count —
    without it, union + per-bucket map_groups multiply block counts
    geometrically and the all-to-all per-round cost explodes (3.7 s
    -> 87 s by round 3, measured); with it rounds are flat.  The
    DuckDB twin is a recursive-CTE min-reach.  Labels are
    driver-materialized per round (node-count rows); a petabyte run
    would write them to the manifested parquet checkpoint dir like
    pipelines/flagship.py.

    Two physical plans behind one semantics (the knn
    broadcast_threshold precedent): an edge set at or under
    ``broadcast_threshold`` rows — output-scale, k pairs per dup
    cluster, NOT corpus-scale — collects to the driver and resolves
    with one exact numpy union-find pass (min-id root labels, no
    per-round exchanges); a larger graph runs the distributed
    pointer-jumping loop.  Both return min-reachable-id labels, so
    the oracle is plan-independent (test_dup_components_plans forces
    the loop and compares)."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import _default_n_buckets, bucketed_aggregate
    from gdal_boots_ray.stages.joins import hash_join

    n_parts = max(8, _default_n_buckets() // 8)
    # edge sets are pair-scale (banding caps bound them), so one
    # object-store materialization avoids re-executing the phash
    # lineage for the size probe AND the collect/loop that follows
    edges = q_phash_neardup(sf_dir).materialize()

    if edges.count() <= broadcast_threshold:
        pairs = edges.select_columns(["key_a", "key_b"]).to_pandas()
        a = pairs["key_a"].to_numpy(np.int64)
        b = pairs["key_b"].to_numpy(np.int64)
        nodes_np, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        parent = np.arange(len(nodes_np), dtype=np.int64)

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for ia, ib in zip(inv[: len(a)], inv[len(a) :]):
            ra, rb = find(int(ia)), find(int(ib))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)  # min-index root
        roots = np.array([find(i) for i in range(len(nodes_np))], np.int64)
        # component label = min node id; roots are min-index, and
        # nodes_np is sorted, so the root's node id IS the min id
        labels_np = nodes_np[roots]
        all_keys = (
            _read(f"{sf_dir}/part.parquet", columns=["p_partkey"])
            .to_pandas()["p_partkey"]
            .to_numpy(np.int64)
        )
        singles = np.setdiff1d(all_keys, nodes_np, assume_unique=False)
        return rd.from_arrow(
            pa.table(
                {
                    "key": pa.array(np.concatenate([nodes_np, singles]), pa.int64()),
                    "component": pa.array(np.concatenate([labels_np, singles]), pa.int64()),
                }
            )
        )

    def both_dirs(b: pa.Table) -> pa.Table:
        a = b.column("key_a").to_numpy()
        bb = b.column("key_b").to_numpy()
        return pa.table(
            {
                "k": pa.array(np.concatenate([a, bb]), pa.int64()),
                "dst": pa.array(np.concatenate([bb, a]), pa.int64()),
            }
        )

    e = edges.map_batches(both_dirs, batch_format="pyarrow").repartition(n_parts).materialize()

    def self_label(b: pa.Table) -> pa.Table:
        k = b.column("k").cast(pa.int64())
        return pa.table({"k": k, "label": k})

    def relabel(b: pa.Table) -> pa.Table:
        return pa.table(
            {"k": b.column("k").cast(pa.int64()), "label": b.column("label").cast(pa.int64())}
        )

    # iterate only over nodes that touch an edge
    inc = bucketed_aggregate(e, ["k"], {"deg": "count"}).map_batches(
        lambda b: pa.table({"k": b.column("k").cast(pa.int64())}), batch_format="pyarrow"
    )
    labels = (
        inc.map_batches(self_label, batch_format="pyarrow").repartition(n_parts).materialize()
    )

    prev_sum = None
    for _ in range(max_iters):
        # (a) neighbor min: push labels across edges, keep per-node min
        msgs = hash_join(e, labels, on="k", left_cols=["dst"], right_cols=["label"])
        msgs = msgs.map_batches(
            lambda b: pa.table(
                {"k": b.column("dst").cast(pa.int64()), "label": b.column("label").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        labels = (
            bucketed_aggregate(labels.union(msgs), ["k"], {"label": "min"})
            .map_batches(relabel, batch_format="pyarrow")
            .repartition(n_parts)
            .materialize()
        )
        # (b) pointer jump: label <- label(label); every label value is
        # itself a key in labels, so the inner join covers all rows
        as_src = labels.map_batches(
            lambda b: pa.table(
                {"j": b.column("label").cast(pa.int64()), "k": b.column("k").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        as_map = labels.map_batches(
            lambda b: pa.table(
                {"j": b.column("k").cast(pa.int64()), "jl": b.column("label").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        jumped = hash_join(as_src, as_map, on="j", left_cols=["k"], right_cols=["jl"])
        labels = (
            jumped.map_batches(
                lambda b: pa.table(
                    {"k": b.column("k").cast(pa.int64()), "label": b.column("jl").cast(pa.int64())}
                ),
                batch_format="pyarrow",
            )
            .repartition(n_parts)
            .materialize()
        )
        s = labels.sum("label")
        # sum() is None iff labels is empty (edge set empty): trivially
        # converged — every node takes the singleton path below
        if s is None or (prev_sum is not None and s == prev_sum):
            break
        prev_sum = s
    else:
        raise RuntimeError(f"components did not converge in {max_iters} rounds")

    # singleton nodes (no incident edge) are their own component
    nodes = _read(f"{sf_dir}/part.parquet", columns=["p_partkey"]).map_batches(
        lambda b: pa.table({"k": b.column("p_partkey").cast(pa.int64())}),
        batch_format="pyarrow",
    )
    singles = hash_join(nodes, inc, on="k", left_cols=[], right_cols=[], how="anti")
    out = labels.union(singles.map_batches(self_label, batch_format="pyarrow"))

    def final(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": b.column("k").cast(pa.int64()),
                "component": b.column("label").cast(pa.int64()),
            }
        )

    return out.map_batches(final, batch_format="pyarrow")


def q_semdedup(
    sf_dir: str,
    k: int = 8,
    iters: int = 4,
    tau: float = 0.92,
    target_cluster: int = 4096,
    block: int = 4096,
):
    """SemDeDup (Abbas et al. 2023): semantic dedup by clustering
    embeddings with spherical k-means, then dropping, within each
    cluster, any vector that has a >= tau cosine neighbor with a
    smaller id.  Plan: normalize inside map_batches -> distributed
    Lloyd (stages/kmeans.py: centroids broadcast per iteration,
    only k x dim partials cross the wire) -> final assignment pass ->
    cluster-keyed shuffle -> per-cluster blocked drop rule.

    Scale shape (SemDeDup's own recipe): ``k`` GROWS with the corpus —
    k = max(k, ceil(N / target_cluster)) from parquet-metadata row
    counts, so expected cluster population stays bounded as data
    grows instead of the per-cluster work going quadratic.  Skewed
    clusters that still exceed the target are handled EXACTLY by the
    blocked gram walk inside cluster_dedup: 4096-column panels
    against ascending row panels with early exit once every column
    has found an earlier neighbor, so worker memory is O(B^2 + B*d)
    regardless of cluster size.  At the gate SFs the scaled k equals
    the default, so the oracle fixture is unchanged.

    Oracle is non-vacuous via planted scaled copies (id + 1e9,
    embedding * 2): normalization maps copies to bit-identical
    vectors, so each MUST land in its original's cluster and be
    dropped by it, while the synthetic originals (max pairwise cosine
    ~0.51) all survive — the twin is the original id set with
    n_dups = 1.  n_dups credits are resolved TRANSITIVELY to a
    surviving representative (chain a~b~c where b is dropped still
    credits a), so no drop count is silently lost."""
    import pandas as pd
    import ray
    import ray.data as rd

    from gdal_boots_ray.stages.kmeans import kmeans

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # metadata-only row count; planted copies double the population
    k = max(k, int(np.ceil(2 * ds.count() / target_cluster)))

    def plant_norm(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").cast(pa.int64()).to_numpy()
        mat = (
            b.column("embedding")
            .combine_chunks()
            .flatten()
            .to_numpy(zero_copy_only=False)
            .reshape(len(b), -1)
            .astype(np.float64)
        )
        d = mat.shape[1]
        both = np.concatenate([mat, mat * 2.0])
        both /= np.linalg.norm(both, axis=1, keepdims=True)
        ids2 = np.concatenate([ids, ids + 1_000_000_000])
        return pa.table(
            {
                "vec_id": pa.array(ids2, pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(both.ravel(), pa.float64()), d
                ),
            }
        )

    planted = ds.map_batches(plant_norm, batch_format="pyarrow")
    cents, _ = kmeans(planted, "vec_id", "embedding", k, iters)
    cref = ray.put(cents)

    def assign(batch: pa.Table, _c={}) -> pa.Table:
        c = _c.get("c")
        if c is None:
            c = _c["c"] = ray.get(cref)
        mat = (
            batch.column("embedding")
            .combine_chunks()
            .flatten()
            .to_numpy(zero_copy_only=False)
            .reshape(len(batch), -1)
        )
        d2 = (
            (mat * mat).sum(axis=1)[:, None]
            - 2.0 * mat @ c.T
            + (c * c).sum(axis=1)[None, :]
        )
        out = pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "embedding": batch.column("embedding"),
                "cluster": pa.array(d2.argmin(axis=1).astype(np.int64)),
            }
        )
        return out

    assigned = planted.map_batches(assign, batch_format="pyarrow")

    def cluster_dedup(g: pd.DataFrame) -> pd.DataFrame:
        B = block  # panel width: memory O(B^2 + B*d) even on skewed clusters
        ids = g["vec_id"].to_numpy().astype(np.int64)
        mat = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        order = np.argsort(ids)
        ids, mat = ids[order], mat[order]
        m = len(ids)
        dropped = np.zeros(m, bool)
        rep = np.zeros(m, np.int64)
        for c0 in range(0, m, B):
            c1 = min(c0 + B, m)
            found = np.zeros(c1 - c0, bool)
            first = np.zeros(c1 - c0, np.int64)
            # ascending row panels: the first panel that hits a column
            # holds that column's smallest qualifying j
            for r0 in range(0, c1, B):
                r1 = min(r0 + B, c1)
                sim = mat[r0:r1] @ mat[c0:c1].T
                if r1 > c0:  # diagonal panel: keep j < i only
                    jj = np.arange(r0, r1)[:, None]
                    ii = np.arange(c0, c1)[None, :]
                    sim = np.where(jj < ii, sim, -np.inf)
                hit = sim >= tau
                new = hit.any(axis=0) & ~found
                if new.any():
                    first[new] = r0 + hit[:, new].argmax(axis=0)
                    found |= new
                if found.all():
                    break
            dropped[c0:c1] = found
            rep[c0:c1] = first
        # resolve representatives transitively to SURVIVING rows:
        # rep[i] < i, so pointer-following terminates at a kept row
        idx = np.flatnonzero(dropped)
        tgt = rep[idx]
        while True:
            bad = dropped[tgt]
            if not bad.any():
                break
            tgt[bad] = rep[tgt[bad]]
        n_dups = np.zeros(m, np.int64)
        np.add.at(n_dups, tgt, 1)
        keep = ~dropped
        return pd.DataFrame({"vec_id": ids[keep], "n_dups": n_dups[keep]})

    out = assigned.groupby("cluster").map_groups(cluster_dedup, batch_format="pandas")

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": batch.column("vec_id").cast(pa.int64()),
                "n_dups": batch.column("n_dups").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_embedding_neardup(
    sf_dir: str,
    threshold: float = 0.92,
    n_tables: int = 8,
    n_planes: int = 8,
    hot_cap: int = 4096,
    plant: bool = False,
):
    """ORACLE-CHECKED near-duplicate embedding pairs: banded
    multi-table random-hyperplane LSH (``n_tables`` independent
    tables of ``n_planes`` bits — P[miss] ~ (1-(1-θ/π)^b)^T, ≈4% at
    cosine 0.92) with per-bucket all-pairs capped at ``hot_cap``
    members (larger buckets star-link to preserve components), then
    EXACT cosine verify ≥ threshold.  The DuckDB twin is the
    quadratic cosine join — the driver's synthetic embeddings have
    max pairwise cosine ~0.51, so both sides return the verified
    empty set; any spurious engine pair breaks the hash."""
    import pandas as pd
    import ray
    import ray.data as rd

    rng = np.random.default_rng(31415926)
    planes = rng.normal(size=(n_tables, n_planes, 64))
    planes_ref = ray.put(planes)

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    if plant:
        # non-vacuous variant: union with a scaled copy of every
        # vector (id + 1e9, embedding * 2) — cosine exactly 1.0, so
        # every planted pair MUST survive both LSH (identical sign
        # pattern => identical bucket in every table) and the exact
        # verify; SQL twin plants the same rows via list_transform
        def plant_rows(b: pa.Table) -> pa.Table:
            ids = b.column("vec_id").cast(pa.int64()).to_numpy()
            mat = (
                b.column("embedding")
                .combine_chunks()
                .flatten()
                .to_numpy(zero_copy_only=False)
                .reshape(len(b), -1)
                .astype(np.float64)
            )
            d = mat.shape[1]
            both = np.concatenate([mat, mat * 2.0])
            ids2 = np.concatenate([ids, ids + 1_000_000_000])
            return pa.table(
                {
                    "vec_id": pa.array(ids2, pa.int64()),
                    "embedding": pa.FixedSizeListArray.from_arrays(
                        pa.array(both.ravel(), pa.float64()), d
                    ),
                }
            )

        ds = ds.map_batches(plant_rows, batch_format="pyarrow")

    class Bucket:
        def __init__(self):
            self.planes = ray.get(planes_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = (
                batch.column("embedding")
                .combine_chunks()
                .flatten()
                .to_numpy(zero_copy_only=False)
                .reshape(len(batch), -1)
                .astype(np.float64)
            )
            ids = batch.column("vec_id").to_numpy().astype(np.int64)
            out_id, out_key = [], []
            for t in range(self.planes.shape[0]):
                bits = (mat @ self.planes[t].T) > 0
                key = (bits.astype(np.int64) * (1 << np.arange(bits.shape[1]))).sum(axis=1)
                out_id.append(ids)
                out_key.append(key + (t << 40))
            return pa.table(
                {
                    "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                    "bucket": pa.array(np.concatenate(out_key), pa.int64()),
                }
            )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(g["vec_id"].unique())
        if len(ids) < 2:
            return pd.DataFrame(
                {"vec_a": pd.Series([], dtype=np.int64), "vec_b": pd.Series([], dtype=np.int64)}
            )
        if len(ids) > hot_cap:
            return pd.DataFrame(
                {"vec_a": np.full(len(ids) - 1, ids[0], np.int64), "vec_b": ids[1:].astype(np.int64)}
            )
        a, b = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"vec_a": ids[a].astype(np.int64), "vec_b": ids[b].astype(np.int64)})

    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.textstages import attach_pair_columns

    cand = (
        ds.map_batches(Bucket, batch_format="pyarrow", concurrency=(1, 4))
        .groupby("bucket")
        .map_groups(pairs, batch_format="pandas")
    )
    cand = bucketed_aggregate(cand, ["vec_a", "vec_b"], {"n_tabs": "count"}).select_columns(
        ["vec_a", "vec_b"]
    )
    def to_vec_rows(b: pa.Table) -> pa.Table:
        # tensor-extension -> plain list<float64> so the attach join's
        # typed nulls can concat with it
        return pa.table(
            {
                "doc_id": b.column("vec_id").cast(pa.int64()),
                "v": pa.array(b.column("embedding").to_pylist(), pa.list_(pa.float64())),
            }
        )

    vecs = ds.map_batches(to_vec_rows, batch_format="pyarrow")
    withvec = attach_pair_columns(
        cand, vecs, key_a="vec_a", key_b="vec_b", out_a="vec_va", out_b="vec_vb", val_col="v"
    )

    def verify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        va = batch.column("vec_a").cast(pa.int64()).to_numpy()
        vb = batch.column("vec_b").cast(pa.int64()).to_numpy()
        ea = batch.column("vec_va").to_pylist()
        eb = batch.column("vec_vb").to_pylist()
        out_a, out_b, out_s = [], [], []
        for i in range(len(va)):
            x = np.asarray(ea[i], np.float64)
            y = np.asarray(eb[i], np.float64)
            sim = float(x @ y / max(np.linalg.norm(x) * np.linalg.norm(y), 1e-12))
            if sim >= threshold:
                out_a.append(int(va[i]))
                out_b.append(int(vb[i]))
                out_s.append(round(sim, 4))
        return pa.table(
            {
                "vec_a": pa.array(out_a, pa.int64()),
                "vec_b": pa.array(out_b, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    out = withvec.map_batches(verify, batch_format="pyarrow").to_pandas()
    if out.empty:  # schema-stable empty result for the driver
        out = pd.DataFrame(
            {
                "vec_a": pd.Series([], dtype=np.int64),
                "vec_b": pd.Series([], dtype=np.int64),
                "sim": pd.Series([], dtype=np.float64),
            }
        )
    return out


def q_recode_stats(sf_dir: str):
    """Fidelity gate as a query: decode -> re-encode (png) -> decode
    again -> per-image stats; must equal the direct image_stats oracle
    (lossless round trip, BASELINE.json input_hint)."""
    from gdal_boots_ray.stages.decode import DecodeImages, EncodeImages

    ds = _tiles_dataset(sf_dir, decode=True)
    ds = ds.map_batches(EncodeImages, batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)

    from gdal_boots_ray.stages.decode import batch_pixel_views

    def stats(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        sum_v = np.empty(n, np.int64)
        min_v = np.empty(n, np.int64)
        max_v = np.empty(n, np.int64)
        for i in range(n):
            b0 = views[i] if views[i].ndim == 2 else views[i][0]
            n_px[i], sum_v[i] = b0.size, int(b0.sum(dtype=np.int64))
            min_v[i], max_v[i] = int(b0.min()), int(b0.max())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "sum_v": pa.array(sum_v),
                "min_v": pa.array(min_v),
                "max_v": pa.array(max_v),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


def _recode_stats(sf_dir: str, encode_kwargs: dict, stack3: bool = False):
    """Shared body of every codec fidelity gate: decode each tile,
    re-encode through the pure-python TIFF container with
    ``encode_kwargs``, decode again, and emit band-0 stats that equal
    the closed-form pixel-field oracle iff the codec round trip is
    bit-exact.  ``stack3`` replicates mono tiles to the 3-band layout
    codecs like WEBP require (band-0 stats keep the same twin).
    Embarrassingly parallel actor-pool map_batches; the whole corpus
    streams through it."""
    from gdal_boots_ray.kernels.gtiff import gtiff_decode, gtiff_encode
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def roundtrip_stats(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        sum_v = np.empty(n, np.int64)
        min_v = np.empty(n, np.int64)
        max_v = np.empty(n, np.int64)
        for i in range(n):
            img = views[i] if views[i].ndim == 3 else views[i][None]
            if stack3 and img.shape[0] < 3:
                img = np.repeat(img[:1], 3, axis=0)
            blob = gtiff_encode(np.ascontiguousarray(img[:3] if stack3 else img),
                                **encode_kwargs)
            rt, _, _ = gtiff_decode(blob)
            b0 = rt if rt.ndim == 2 else rt[0]
            n_px[i], sum_v[i] = b0.size, int(b0.sum(dtype=np.int64))
            min_v[i], max_v[i] = int(b0.min()), int(b0.max())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "sum_v": pa.array(sum_v),
                "min_v": pa.array(min_v),
                "max_v": pa.array(max_v),
            }
        )

    return ds.map_batches(roundtrip_stats, batch_format="pyarrow", num_cpus=1)


def q_recode_stats_tiff_lzw(sf_dir: str):
    """GeoTIFF LZW fidelity gate: LZW + the horizontal-differencing
    predictor (kernels/gtiff.py — reference ``GTiff.Compress.lzw``,
    reference options.py:66-80, the single most common real-world
    GeoTIFF compression) through the shared ``_recode_stats`` body."""
    return _recode_stats(sf_dir, {"compress": "lzw", "predictor": 2})


def q_recode_stats_zstd(sf_dir: str):
    """GeoTIFF ZSTD fidelity gate: the FROM-SCRATCH RFC 8878
    Zstandard compressor (kernels/zstd.py: hash-table LZ, Huffman
    literals, FSE-coded sequences; Compression=50000, GDAL's
    registered tag — reference ``GTiff.Compress.zstd``, previously an
    external-codec seam) + the predictor, through the shared
    ``_recode_stats`` body."""
    return _recode_stats(sf_dir, {"compress": "zstd", "predictor": 2})


def q_recode_stats_lerc(sf_dir: str):
    """GeoTIFF LERC_ZSTD fidelity gate: the FROM-SCRATCH LERC
    microblock codec (kernels/lerc.py, Compression=34887 +
    LercParameters, lossless for integer data) wrapped in the RFC
    8878 zstd pass — the reference's ``GTiff.Compress.lerc_zstd``
    member, previously an external-codec seam — through the shared
    ``_recode_stats`` body (gates the bit-stuffing AND the zstd
    round trip together)."""
    return _recode_stats(sf_dir, {"compress": "lerc_zstd"})


def q_recode_stats_webp(sf_dir: str):
    """GeoTIFF WEBP fidelity gate: the FROM-SCRATCH VP8L lossless
    codec (kernels/webp.py: RIFF/VP8L container, canonical prefix
    codes, LZ77 runs + color cache; Compression=50001 — reference
    ``GTiff.Compress.webp``, previously an external-codec seam)
    through the shared ``_recode_stats`` body with the 3-band stack
    WEBP-in-TIFF requires."""
    return _recode_stats(sf_dir, {"compress": "webp"}, stack3=True)



_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
_PII_PHONE = r"\+1-555-\d{4}"


def q_pii_scrub(sf_dir: str, doc_cap: int = 1500):
    """PII detection + redaction — the pre-training scrub every
    at-scale text pipeline runs before tokenization.  Each document
    is augmented with a deterministic key-derived PII suffix (the
    corpus itself is synthetic clean text, so the suffix guarantees
    nonzero recall for the gate), then scanned with compiled
    email / IPv4 / phone regexes and redacted in a fixed order
    (email -> ipv4 -> phone, each span replaced by ``[PII]``).

    Output: (doc_id, n_email, n_ipv4, n_phone, redacted_len).  The
    DuckDB twin runs the SAME regex source strings through RE2
    (regexp_extract_all + chained regexp_replace 'g'), so the hash
    gates cross-engine regex semantic parity, the non-overlap match
    rule, and the replacement order.  Regexes compile once at import
    (actor-state rule); pure map_batches, nothing shuffles."""
    import re

    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )
    re_email = re.compile(_PII_EMAIL)
    re_ip = re.compile(_PII_IPV4)
    re_phone = re.compile(_PII_PHONE)

    def scrub(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        n = len(ids)
        n_email = np.empty(n, np.int64)
        n_ip = np.empty(n, np.int64)
        n_phone = np.empty(n, np.int64)
        red_len = np.empty(n, np.int64)
        for i, t in enumerate(texts):
            k = int(ids[i])
            full = (
                f"{t} contact u{k}@ex{k % 7}.org ip 10.{k % 256}.0.{(k * 3) % 256}"
                f" phone +1-555-{k % 10000:04d}"
            )
            n_email[i] = len(re_email.findall(full))
            n_ip[i] = len(re_ip.findall(full))
            n_phone[i] = len(re_phone.findall(full))
            red = re_phone.sub("[PII]", re_ip.sub("[PII]", re_email.sub("[PII]", full)))
            red_len[i] = len(red)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_email": pa.array(n_email),
                "n_ipv4": pa.array(n_ip),
                "n_phone": pa.array(n_phone),
                "redacted_len": pa.array(red_len),
            }
        )

    return docs.map_batches(scrub, batch_format="pyarrow")


def q_bpe_pairs(sf_dir: str, doc_cap: int = 1500, top_k: int = 50):
    """BPE tokenizer training's inner loop at corpus scale: count
    every adjacent byte pair across the corpus and return the top-k
    merge candidates — the statistic each BPE merge round recomputes
    over 100 TB of text.

    Scale shape: the per-batch partial is a 65,536-slot ``bincount``
    (vectorized shift-or over the utf-8 bytes, no Python loop over
    pairs), so each task emits at most 64k bounded count rows no
    matter how much text it read; one small ``groupby(pair).sum``
    merges them and a tiny sort+limit picks the winners with a
    deterministic (count desc, pair asc) tie-break.  This is the
    word-count exchange pattern — nothing ships raw text.

    The DuckDB twin replays per-character ord() pairs, which equals
    the byte pairs because the fixture corpus is ASCII by
    construction (the docstring contract; non-ASCII corpora would
    need a BLOB-level twin)."""
    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        counts = np.zeros(65536, np.int64)
        for t in batch.column("text").to_pylist():
            b = np.frombuffer(t.encode("utf-8"), np.uint8)
            if len(b) >= 2:
                pairs = (b[:-1].astype(np.int32) << 8) | b[1:]
                counts += np.bincount(pairs, minlength=65536)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "pair": pa.array(nz.astype(np.int64)),
                "cnt": pa.array(counts[nz]),
            }
        )

    merged = (
        docs.map_batches(pair_partial, batch_format="pyarrow")
        .groupby("pair")
        .sum("cnt")
    )

    def finish(batch: pa.Table) -> pa.Table:
        pair = batch.column("pair").to_numpy()
        cnt = batch.column("sum(cnt)").to_numpy()
        order = np.lexsort((pair, -cnt))[:top_k]
        p = pair[order]
        return pa.table(
            {
                "pair": pa.array(p.astype(np.int64)),
                "b1": pa.array((p >> 8).astype(np.int64)),
                "b2": pa.array((p & 0xFF).astype(np.int64)),
                "cnt": pa.array(cnt[order].astype(np.int64)),
            }
        )

    # the merged table is <= 64k bounded rows: one small final batch
    return merged.repartition(1).map_batches(finish, batch_format="pyarrow")


def q_tile_augment(sf_dir: str):
    """Deterministic image augmentation (the rot90 / fliplr layout
    ops a vision training pipeline applies at ingest) under the
    oracle gate: decode each tile, apply REAL ``np.rot90`` and
    ``np.fliplr`` to band 0, and emit position-weighted checksums
    (sum of v * (col + 2*row) over the AUGMENTED layout) that are
    orientation-sensitive — a transposed, flipped or off-by-one
    roll breaks the hash where a plain pixel sum would not.  The
    DuckDB twin replays the coordinate mapping in closed form:
    rot90 (ccw) puts source pixel (x, y) at (row=w-1-x, col=y);
    fliplr puts it at (row=y, col=w-1-x).  Embarrassingly parallel
    map_batches over decoded pixels."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def augment(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        rot_sum = np.empty(n, np.int64)
        flip_sum = np.empty(n, np.int64)
        for i in range(n):
            b0 = views[i] if views[i].ndim == 2 else views[i][0]
            rot = np.rot90(b0).astype(np.int64)  # (w, h), ccw
            rh, rw = rot.shape
            wgt = np.arange(rw)[None, :] + 2 * np.arange(rh)[:, None]
            rot_sum[i] = int((rot * wgt).sum())
            flp = np.fliplr(b0).astype(np.int64)
            fh, fw = flp.shape
            wgt = np.arange(fw)[None, :] + 2 * np.arange(fh)[:, None]
            flip_sum[i] = int((flp * wgt).sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "rot_sum": pa.array(rot_sum),
                "flip_sum": pa.array(flip_sum),
            }
        )

    return ds.map_batches(augment, batch_format="pyarrow", num_cpus=1)


def q_window_stats_cog(sf_dir: str):
    """Cloud-optimized-GeoTIFF windowed-read gate: re-encode each
    image through the TIFF 6.0 *tiled* layout (kernels/gtiff.py —
    TileWidth/TileLength/TileOffsets/TileByteCounts, the reference's
    ``GTiff(tiled=True, blockxsize, blockysize)`` creation options,
    reference options.py:80-82), then decode ONLY the centre-quarter
    window via ``gtiff_decode_window`` — the O(touched tiles) access
    pattern a 100 TB scan relies on to read sub-windows without
    paying whole-raster decode.  Window stats equal the closed-form
    pixel field restricted to [w//4, w//4+w//2) x [h//4, h//4+h//2)
    iff tile chunking, edge-tile padding and window intersection are
    all pixel-exact.  Embarrassingly parallel map_batches; nothing
    crosses a shuffle."""
    from gdal_boots_ray.kernels.gtiff import gtiff_decode_window, gtiff_encode
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def window_stats(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        sum_v = np.empty(n, np.int64)
        min_v = np.empty(n, np.int64)
        max_v = np.empty(n, np.int64)
        for i in range(n):
            img = views[i] if views[i].ndim == 3 else views[i][None]
            blob = gtiff_encode(
                np.ascontiguousarray(img), compress="deflate",
                tiled=True, blockxsize=16, blockysize=16,
            )
            _, h, w = img.shape
            win, _, _ = gtiff_decode_window(blob, w // 4, h // 4, w // 2, h // 2)
            b0 = win if win.ndim == 2 else win[0]
            n_px[i], sum_v[i] = b0.size, int(b0.sum(dtype=np.int64))
            min_v[i], max_v[i] = int(b0.min()), int(b0.max())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "sum_v": pa.array(sum_v),
                "min_v": pa.array(min_v),
                "max_v": pa.array(max_v),
            }
        )

    return ds.map_batches(window_stats, batch_format="pyarrow", num_cpus=1)


def q_cog_pyramid(sf_dir: str, levels=(2, 4)):
    """In-file overview pyramid gate (the gdaladdo / BuildOverviews
    output structure): encode each image as a tiled GeoTIFF whose IFD
    chain carries AVERAGE-resampled reduced-resolution pages
    (kernels/gtiff.py ``overviews=`` + ``gtiff_decode_overview``),
    then decode every overview PAGE back out of the container and
    report per (image, level) dims + BIGINT sum of pooled values.
    Matches the closed-form pooling twin iff the multi-IFD chain,
    per-page chunk layout and floor-average pooling are all exact —
    unlike ``tile_overviews`` this round-trips the bytes, so it gates
    the container format, not just the pooling math.  Embarrassingly
    parallel; nothing crosses a shuffle."""
    from gdal_boots_ray.kernels.gtiff import gtiff_decode_overview, gtiff_encode
    from gdal_boots_ray.stages.decode import batch_pixel_views

    lvs = tuple(int(lv) for lv in levels)
    ds = _tiles_dataset(sf_dir, decode=True)

    def pyramid_stats(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        out_id, out_lv, out_w, out_h, out_sum = [], [], [], [], []
        for i in range(len(ids)):
            img = views[i] if views[i].ndim == 3 else views[i][None]
            blob = gtiff_encode(
                np.ascontiguousarray(img), compress="deflate",
                tiled=True, blockxsize=16, blockysize=16, overviews=lvs,
            )
            for oi, lv in enumerate(lvs):
                ov, _, _ = gtiff_decode_overview(blob, oi)
                b0 = ov if ov.ndim == 2 else ov[0]
                out_id.append(ids[i])
                out_lv.append(lv)
                out_h.append(b0.shape[0])
                out_w.append(b0.shape[1])
                out_sum.append(int(b0.sum(dtype=np.int64)))
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "level": pa.array(out_lv, pa.int64()),
                "ovr_w": pa.array(out_w, pa.int64()),
                "ovr_h": pa.array(out_h, pa.int64()),
                "sum_pooled": pa.array(out_sum, pa.int64()),
            }
        )

    return ds.map_batches(pyramid_stats, batch_format="pyarrow", num_cpus=1)


def q_grid_interp(sf_dir: str, cell_m: int = 500, radius_m: int = 2000):
    """gdal_grid analog: interpolate the scattered sample points onto
    a regular raster grid — the two exactly-replayable gdal_grid
    algorithms in one pass: NEAREST (value of the closest point, ties
    broken by the smallest point id) and AVERAGE-WITHIN-RADIUS
    (count + integer value sum of points within 2 km).  All distances
    are exact integer squared meters (point/cell coordinates are
    integer-valued doubles by construction), so the twin is
    arithmetic-exact with no float-order risk.

    Scale shape: the POINT side is the bounded one (gdal_grid
    semantics — a survey's sample set), shipped once via ``ray.put``
    and bucketed ONCE PER ACTOR into radius_m-sized grid cells (a CSR
    index over int64 bucket keys, built in ``__init__``).  Each output
    cell then scans only its 3x3 neighbor buckets for
    AVERAGE-within-radius (radius == bucket size, so Chebyshev-1
    coverage is exact) and ring-expands for NEAREST with the integer
    lower bound d2 >= ((m-1)*B + 1)^2 for a point in Chebyshev ring m
    (spatial_knn's termination precedent, stages/knn.py:129) — the
    panel is O(cells x local density) instead of O(cells x points),
    so the plan survives 100x on BOTH sides."""
    import pyarrow.parquet as pq

    import ray
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import point_params

    n_part = pq.read_metadata(f"{sf_dir}/part.parquet").num_rows
    rows = (n_part + 39) // 40
    nx = 40000 // cell_m  # fixed 40 km x extent
    ny = (rows * 1000) // cell_m
    y_base = 5700000 - rows * 1000
    r2 = radius_m * radius_m
    B = radius_m  # bucket edge == radius => 3x3 neighborhood is exact
    IMAX = np.iinfo(np.int64).max

    # bounded small side: sample points with integer coords + values
    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    p = point_params(cust.column("c_custkey").to_numpy(), n_part)
    # the DuckDB twin packs (d2, pid) into one BIGINT with a 2^18 pid
    # slot — fail loudly here (not via a silent hash mismatch) if a
    # future SF outgrows the twin's packing bound; the ENGINE side has
    # no such limit
    if len(p["custkey"]) and int(p["custkey"].max()) >= 262144:
        raise ValueError("grid_interp oracle packing bound exceeded: pid >= 2^18")
    pts_ref = ray.put(
        (
            p["x"].astype(np.int64),
            p["y"].astype(np.int64),
            p["custkey"].astype(np.int64),
            (p["custkey"] % 97).astype(np.int64),
        )
    )

    class GridInterp:
        """Actor stage: CSR bucket index built once per actor."""

        def __init__(self):
            px, py, pid, pv = ray.get(pts_ref)
            bx, by = px // B, py // B
            key = bx * (1 << 32) + by
            order = np.argsort(key, kind="stable")
            self.px, self.py = px[order], py[order]
            self.pid, self.pv = pid[order], pv[order]
            skey = key[order]
            self.ukeys, self.starts = np.unique(skey, return_index=True)
            self.ends = np.append(self.starts[1:], len(skey))
            # empty point set: no ring can ever find anything — pin the
            # bbox to an empty range so max_m is 0 and the ring loop is
            # skipped (outputs stay IMAX / 0, the brute-force semantics)
            if len(px):
                self.bx_min, self.bx_max = int(bx.min()), int(bx.max())
                self.by_min, self.by_max = int(by.min()), int(by.max())
            else:
                self.bx_min = self.bx_max = self.by_min = self.by_max = None

        def _gather(self, coords) -> np.ndarray:
            """Point indices in the listed (bx, by) buckets."""
            qk = np.array([a * (1 << 32) + b for a, b in coords], np.int64)
            pos = np.searchsorted(self.ukeys, qk)
            out = [
                np.arange(self.starts[j], self.ends[j])
                for j, k in zip(pos, qk)
                if j < len(self.ukeys) and self.ukeys[j] == k
            ]
            return np.concatenate(out) if out else np.empty(0, np.int64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch.column("id").to_numpy()
            cx = 600000 + (ids % nx) * cell_m + cell_m // 2
            cy = y_base + (ids // nx) * cell_m + cell_m // 2
            b = len(ids)
            best_d2 = np.full(b, IMAX)
            best_pid = np.full(b, IMAX)
            n_r = np.zeros(b, np.int64)
            sum_r = np.zeros(b, np.int64)
            gkey = (cx // B) * (1 << 32) + (cy // B)
            for k in np.unique(gkey):
                sel = np.nonzero(gkey == k)[0]
                i, j = int(cx[sel[0]] // B), int(cy[sel[0]] // B)
                scx, scy = cx[sel][:, None], cy[sel][:, None]
                gb2 = np.full(len(sel), IMAX)
                gpid = np.full(len(sel), IMAX)
                cand = self._gather(
                    [(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
                )
                if len(cand):
                    dx = scx - self.px[cand][None, :]
                    dy = scy - self.py[cand][None, :]
                    d2 = dx * dx + dy * dy
                    near = d2 <= r2
                    n_r[sel] += near.sum(axis=1)
                    sum_r[sel] += (near * self.pv[cand][None, :]).sum(axis=1)
                    gb2 = d2.min(axis=1)
                    gpid = np.where(
                        d2 == gb2[:, None], self.pid[cand][None, :], IMAX
                    ).min(axis=1)
                # NEAREST ring expansion: a point in Chebyshev bucket
                # ring m is at d2 >= ((m-1)*B + 1)^2 from any cell center
                # strictly inside the home bucket (centers are never on a
                # bucket boundary: cx % B in {250,...}), so once every
                # cell's best <= ((m-1)*B)^2 no farther ring can beat OR
                # tie it and min-pid tie-breaks stay exact.
                max_m = (
                    0
                    if self.bx_min is None
                    else max(
                        abs(i - self.bx_min), abs(i - self.bx_max),
                        abs(j - self.by_min), abs(j - self.by_max),
                    )
                )
                m = 2
                while m <= max_m and int(gb2.max()) > ((m - 1) * B) ** 2:
                    ring = (
                        [(i + di, j - m) for di in range(-m, m + 1)]
                        + [(i + di, j + m) for di in range(-m, m + 1)]
                        + [(i - m, j + dj) for dj in range(-m + 1, m)]
                        + [(i + m, j + dj) for dj in range(-m + 1, m)]
                    )
                    cand = self._gather(ring)
                    if len(cand):
                        dx = scx - self.px[cand][None, :]
                        dy = scy - self.py[cand][None, :]
                        d2 = dx * dx + dy * dy
                        rb2 = d2.min(axis=1)
                        rpid = np.where(
                            d2 == rb2[:, None], self.pid[cand][None, :], IMAX
                        ).min(axis=1)
                        better = rb2 < gb2
                        tie = rb2 == gb2
                        gpid = np.where(
                            better, rpid, np.where(tie, np.minimum(gpid, rpid), gpid)
                        )
                        gb2 = np.minimum(gb2, rb2)
                    m += 1
                best_d2[sel] = gb2
                best_pid[sel] = gpid
            return pa.table(
                {
                    "cx": pa.array(cx, pa.int64()),
                    "cy": pa.array(cy, pa.int64()),
                    "near_pid": pa.array(best_pid),
                    "near_d2": pa.array(best_d2),
                    "n_r": pa.array(n_r),
                    "sum_r": pa.array(sum_r),
                }
            )

    n_cells = nx * ny
    grid = rd.range(n_cells, override_num_blocks=max(8, n_cells // 2048))
    return grid.map_batches(
        GridInterp,
        batch_format="pyarrow",
        batch_size=1024,
        concurrency=(1, max(1, min(8, n_cells // 4096))),
    )


def q_tile_overviews(sf_dir: str, levels=(2, 4)):
    """Overview pyramid (the gdaladdo / BuildOverviews family the
    reference's GDAL backend provides): per image, AVERAGE-resampled
    overview levels 2x and 4x, each computed from the full-resolution
    band with integer floor-average pooling (sum of the lv x lv block
    // lv^2 — the engine's AVERAGE convention; GDAL's own integer
    AVERAGE rounds to nearest, differing by 1 LSB on .5 boundaries).
    Embarrassingly parallel decode->pool inside map_batches; the twin
    replays pooling as a GROUP BY x//lv, y//lv over the closed-form
    pixel field.  Per (image, level): overview dims + BIGINT sum of
    pooled values (NOT derivable from the full-res sum — floor
    division makes it a real resampling check)."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def ovr(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        out_id, out_lv, out_w, out_h, out_sum = [], [], [], [], []
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            h, w = b0.shape
            for lv in levels:
                h2, w2 = h // lv, w // lv
                blk = b0[: h2 * lv, : w2 * lv].reshape(h2, lv, w2, lv).sum(axis=(1, 3))
                pooled = blk // (lv * lv)
                out_id.append(ids[i])
                out_lv.append(lv)
                out_w.append(w2)
                out_h.append(h2)
                out_sum.append(int(pooled.sum()))
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "level": pa.array(out_lv, pa.int64()),
                "ovr_w": pa.array(out_w, pa.int64()),
                "ovr_h": pa.array(out_h, pa.int64()),
                "sum_pooled": pa.array(out_sum, pa.int64()),
            }
        )

    return ds.map_batches(ovr, batch_format="pyarrow")


def q_tile_patches(sf_dir: str, patch: int = 16):
    """ViT-style patch extraction — the image-tokenization step of a
    multimodal training pipeline: each image splits into
    non-overlapping ``patch`` x ``patch`` tiles (ragged bottom/right
    cropped, the standard vision-transformer contract); one OUTPUT ROW
    PER PATCH with its grid id and integer pixel sum, so the oracle
    hash checks the full patch layout, not just a count.  flat_map
    explode inside map_batches (rows fan out ~(w/16)*(h/16) per
    image); the twin replays the grid as GROUP BY x//16, y//16."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def patches(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        out_id: list = []
        out_pid: list = []
        out_sum: list = []
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            h, w = b0.shape
            gh, gw = h // patch, w // patch
            if not gh or not gw:
                continue
            blk = b0[: gh * patch, : gw * patch].reshape(gh, patch, gw, patch).sum(axis=(1, 3))
            pid = (np.arange(gh)[:, None] * gw + np.arange(gw)[None, :]).ravel()
            out_id.extend([ids[i]] * (gh * gw))
            out_pid.append(pid)
            out_sum.append(blk.ravel())
        if not out_pid:
            return pa.table(
                {
                    "image_id": pa.array([], pa.string()),
                    "patch_id": pa.array([], pa.int64()),
                    "p_sum": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "patch_id": pa.array(np.concatenate(out_pid).astype(np.int64), pa.int64()),
                "p_sum": pa.array(np.concatenate(out_sum).astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(patches, batch_format="pyarrow")


def q_quality_pred(sf_dir: str, n_buckets_w: int = 4096):
    """Hashed-bag-of-words linear classifier inference — the
    fasttext-shaped quality-scoring stage of a training-data pipeline
    as BATCHED MODEL INFERENCE: a deterministic weight vector
    (w[j] = (j * 2654435761) % 2001 - 1000 milli-units) is built once
    on the driver and broadcast via ``ray.put`` (one object-store
    copy per node, the model-weights pattern); each batch tokenizes,
    hashes tokens into ``n_buckets_w`` feature buckets (md5, the SQL-
    replayable hash), and accumulates the integer score via one
    ``np.add.at``-free bincount matmul.  Integer milli-unit scores
    keep the twin order-independent; ``keep`` is the classifier
    decision.  Docs with zero tokens produce no row (matches the SQL
    word-unnest inner shape)."""
    import hashlib as _hashlib

    import ray

    from gdal_boots_ray.kernels.text import _WORD_RE

    w = ((np.arange(n_buckets_w, dtype=np.int64) * 2654435761) % 2001 - 1000).astype(np.int64)
    w_ref = ray.put(w)

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def score(batch: pa.Table, _state={}) -> pa.Table:
        wt = _state.get("w")
        if wt is None:
            wt = _state["w"] = ray.get(w_ref)
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        out_id, out_sc = [], []
        for i, t in enumerate(texts):
            toks = _WORD_RE.findall(t.lower())
            if not toks:
                continue
            b = np.fromiter(
                (
                    int(_hashlib.md5(tok.encode()).hexdigest()[:16], 16) % n_buckets_w
                    for tok in toks
                ),
                np.int64,
                len(toks),
            )
            out_id.append(ids[i])
            out_sc.append(int(wt[b].sum()))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "score_milli": pa.array(out_sc, pa.int64()),
                "keep": pa.array([s > 0 for s in out_sc], pa.bool_()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


def q_dsir_weights(sf_dir: str, n_buckets: int = 64, target_lang: str = "en"):
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): score every document
    by log p_target(x)/p_raw(x) under hashed bag-of-words unigram
    models — the published recipe for selecting web data that looks
    like a target domain (here: the ``lang = 'en'`` slice).  Scale
    shape: ONE tokenize pass emits (doc_id, bucket, cnt) rows (md5
    bucket hash, the SQL-replayable recipe); the two bucket
    distributions are a 64-row bucketed aggregate; the per-bucket
    log-ratios are quantized to BIGINT micro-units (floor(lr*1e6+.5),
    the same IEEE double on both engines) so the per-doc score is an
    order-independent INTEGER sum — one doc_id exchange, no float
    drift.  Docs with zero tokens produce no row (SQL inner shape)."""
    import hashlib as _hashlib

    import pandas as pd

    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def featurize(batch: pd.DataFrame) -> pd.DataFrame:
        out_id, out_b, out_c, out_t = [], [], [], []
        cache: dict = {}
        for did, text, lang in zip(batch["doc_id"], batch["text"], batch["lang"]):
            toks = _WORD_RE.findall(text.lower())
            if not toks:
                continue
            bs = np.empty(len(toks), np.int64)
            for j, w in enumerate(toks):
                h = cache.get(w)
                if h is None:
                    h = cache[w] = int(_hashlib.md5(w.encode()).hexdigest()[:16], 16) % n_buckets
                bs[j] = h
            cnt = np.bincount(bs, minlength=n_buckets)
            nz = np.flatnonzero(cnt)
            out_id.extend([int(did)] * len(nz))
            out_b.extend(nz.tolist())
            out_c.extend(cnt[nz].tolist())
            out_t.extend([lang == target_lang] * len(nz))
        return pd.DataFrame(
            {
                "doc_id": np.array(out_id, np.int64),
                "b": np.array(out_b, np.int64),
                "cnt": np.array(out_c, np.int64),
                "t": np.array(out_c, np.int64) * np.array(out_t, np.int64),
            }
        )

    feats = docs.map_batches(featurize, batch_format="pandas").materialize()

    # 64-row bucket table: target (t) and raw (cnt) token counts
    bt = bucketed_aggregate(feats, ["b"], {"t": "sum", "cnt": "sum"}).to_pandas()
    T = float(bt["t"].sum())
    R = float(bt["cnt"].sum())
    lrq = np.zeros(n_buckets, np.int64)
    lr = (
        np.log((bt["t"].to_numpy(np.float64) + 1.0) / (T + float(n_buckets)))
        - np.log((bt["cnt"].to_numpy(np.float64) + 1.0) / (R + float(n_buckets)))
    )
    lrq[bt["b"].to_numpy(np.int64)] = np.floor(lr * 1e6 + 0.5).astype(np.int64)

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "dsir_q": batch["cnt"].to_numpy(np.int64) * lrq[batch["b"].to_numpy(np.int64)],
            }
        )

    return bucketed_aggregate(
        feats.map_batches(contrib, batch_format="pandas"), ["doc_id"], {"dsir_q": "sum"}
    )


def q_ccnet_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing (Wenzek et al. 2020): score
    every document with the corpus unigram LM (the ``doc_logprob``
    plan — one tokenize pass, word-count-row exchanges), then split
    EACH LANGUAGE into head / middle / tail terciles by score —
    higher mean log-prob == lower perplexity == head, the slice CCNet
    keeps.  The tercile thresholds come from the distributed
    exact-quantile walk (``grouped_quantiles``, percentile_disc
    semantics over the round-6 scores) — thresholds are a
    langs x 2 broadcast, never a global sort of the corpus.  Docs
    with zero tokens drop (SQL inner shape)."""
    import pandas as pd

    from gdal_boots_ray.stages.agg import bucketed_aggregate, grouped_quantiles
    from gdal_boots_ray.stages.joins import hash_join

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    counts = docs.map_batches(_doc_word_counts, batch_format="pandas").materialize()
    tf = bucketed_aggregate(counts, ["word"], {"cnt": "sum"}).map_batches(
        lambda ba: ba.rename(columns={"cnt": "tot"}), batch_format="pandas"
    )
    total_tokens = float(tf.sum("tot"))
    joined = hash_join(counts, tf, on="word", left_cols=["doc_id", "cnt"], right_cols=["tot"])

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        lp = np.log(batch["tot"].to_numpy(dtype=np.float64) / total_tokens)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "s": batch["cnt"].to_numpy(dtype=np.float64) * lp,
                "doclen": batch["cnt"].astype(np.int64),
            }
        )

    agg = bucketed_aggregate(
        joined.map_batches(contrib, batch_format="pandas"),
        ["doc_id"],
        {"s": "sum", "doclen": "sum"},
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy().astype(np.float64)
        n = batch.column("doclen").to_numpy().astype(np.float64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "avg_logprob": pa.array(np.round(s / n, 6)),
            }
        )

    scored = agg.map_batches(finish, batch_format="pyarrow")
    langs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    scored = hash_join(
        scored, langs, on="doc_id", left_cols=["avg_logprob"], right_cols=["lang"]
    )
    th = grouped_quantiles(scored, "lang", "avg_logprob", [1.0 / 3.0, 2.0 / 3.0]).to_pandas()
    t1 = dict(zip(th[th["q"] < 0.5]["lang"], th[th["q"] < 0.5]["avg_logprob"]))
    t2 = dict(zip(th[th["q"] > 0.5]["lang"], th[th["q"] > 0.5]["avg_logprob"]))

    def label(batch: pd.DataFrame) -> pd.DataFrame:
        q = batch["avg_logprob"].to_numpy(np.float64)
        l1 = batch["lang"].map(t1).to_numpy(np.float64)
        l2 = batch["lang"].map(t2).to_numpy(np.float64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "lang": batch["lang"],
                "avg_logprob": q,
                "bucket": np.where(q > l2, "head", np.where(q > l1, "middle", "tail")),
            }
        )

    return scored.map_batches(label, batch_format="pandas")


def q_recode_stats_jp2(sf_dir: str, n_tiles: int = 24):
    """Lossless JPEG 2000 fidelity gate: decode -> re-encode through
    the from-scratch JP2 codec (kernels/jp2: 5/3 DWT + EBCOT + MQ)
    -> decode -> per-image stats; equals the closed-form pixel-field
    oracle iff the wavelet round trip is bit-exact.  Restricted to
    ``n_tiles`` tiles because EBCOT bit-plane coding is a sequential
    per-block algorithm (~0.1 s/tile in pure Python) — the Ray-side
    plumbing (actor-pool encode, zero-copy views) is the same as the
    full-corpus recode_stats path."""
    import ray.data as rd

    from gdal_boots_ray.kernels.jp2.codestream import decode_jp2, encode_jp2
    from gdal_boots_ray.sources.fixtures import synth_images_batch
    from gdal_boots_ray.stages.decode import DecodeImages, batch_pixel_views

    import pyarrow.compute as _pc

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"], filter=_pc.field("p_partkey") < n_tiles
    )

    def synth(batch: pa.Table) -> pa.Table:
        return synth_images_batch(batch.column("p_partkey").to_numpy())

    ds = ds.map_batches(synth, batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)

    def jp2_roundtrip_stats(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        sum_v = np.empty(n, np.int64)
        min_v = np.empty(n, np.int64)
        max_v = np.empty(n, np.int64)
        for i in range(n):
            img = views[i] if views[i].ndim == 3 else views[i][None]
            rt = decode_jp2(encode_jp2(np.ascontiguousarray(img)))
            b0 = rt[0]
            n_px[i], sum_v[i] = b0.size, int(b0.sum(dtype=np.int64))
            min_v[i], max_v[i] = int(b0.min()), int(b0.max())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "sum_v": pa.array(sum_v),
                "min_v": pa.array(min_v),
                "max_v": pa.array(max_v),
            }
        )

    return ds.map_batches(jp2_roundtrip_stats, batch_format="pyarrow", batch_size=8, num_cpus=1)


def q_recode_stats_jp2_lossy(sf_dir: str, n_tiles: int = 24, quality: float = 50, min_db: float = 40.0):
    """Lossy JPEG 2000 rate control under the PSNR gate: decode ->
    JP2 encode at quality=50 (quantized-subband path, the reference's
    JP2OpenJPEG(quality=50) readme example, options.py:124-130) ->
    decode -> per-image PSNR vs the original must clear the 40 dB
    input_hint bound AND the lossy stream must be strictly smaller
    than the lossless one (rate control actually engaged).  The
    oracle emits one all-true row per image."""
    import ray.data as rd

    from gdal_boots_ray.kernels.jp2.codestream import decode_jp2, encode_jp2
    from gdal_boots_ray.kernels.png import psnr
    from gdal_boots_ray.sources.fixtures import synth_images_batch
    from gdal_boots_ray.stages.decode import DecodeImages, batch_pixel_views

    import pyarrow.compute as _pc

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"], filter=_pc.field("p_partkey") < n_tiles
    )

    def synth(batch: pa.Table) -> pa.Table:
        return synth_images_batch(batch.column("p_partkey").to_numpy())

    ds = ds.map_batches(synth, batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)

    def lossy_gate(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        ok_psnr, ok_rate = [], []
        for i in range(len(ids)):
            img = views[i] if views[i].ndim == 3 else views[i][None]
            img = np.ascontiguousarray(img)
            lossy = encode_jp2(img, quality=quality)
            back = decode_jp2(lossy)
            db = psnr(img.reshape(back.shape), back)
            ok_psnr.append(bool(db >= min_db))
            ok_rate.append(len(lossy) < len(encode_jp2(img)))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "psnr_ok": pa.array(ok_psnr, pa.bool_()),
                "rate_ok": pa.array(ok_rate, pa.bool_()),
            }
        )

    return ds.map_batches(lossy_gate, batch_format="pyarrow", batch_size=8, num_cpus=1)


def q_recode_stats_jpeg(sf_dir: str, n_tiles: int = 200, quality: int = 95, min_db: float = 40.0):
    """Baseline JPEG (ITU-T T.81, kernels/jpeg.py) through the full
    GeoTIFF container: decode -> GTiff(compress=jpeg) encode
    (Compression=7 single-strip JFIF, the reference's
    GTiff.Compress.jpeg enum value, reference options.py:66-80) ->
    gtiff_decode -> per-image PSNR vs the original must clear the
    40 dB input_hint bound AND the quality-95 stream must be
    strictly smaller than the quality-100 stream (the quantizer
    actually engaged).  Geo metadata (gt/epsg) must survive the
    round trip byte-exactly.  The oracle emits one all-true row per
    image.  Unlike JP2's sequential EBCOT, the JPEG entropy coder is
    ~1 ms/tile, so the gate covers ``n_tiles=200`` tiles."""
    import ray.data as rd

    from gdal_boots_ray.kernels.gtiff import gtiff_decode, gtiff_encode
    from gdal_boots_ray.kernels.png import psnr
    from gdal_boots_ray.sources.fixtures import synth_images_batch
    from gdal_boots_ray.stages.decode import DecodeImages, batch_pixel_views

    import pyarrow.compute as _pc

    ds = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey"], filter=_pc.field("p_partkey") < n_tiles
    )

    def synth(batch: pa.Table) -> pa.Table:
        return synth_images_batch(batch.column("p_partkey").to_numpy())

    ds = ds.map_batches(synth, batch_format="pyarrow", batch_size=64)
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), num_cpus=1)

    def jpeg_gate(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        ok_psnr, ok_rate, ok_geo = [], [], []
        gt = [10.0, 0.0, 600000.0, 0.0, -10.0, 5700000.0]
        for i in range(len(ids)):
            img = np.ascontiguousarray(views[i] if views[i].ndim == 3 else views[i][None])
            lossy = gtiff_encode(img, gt=gt, epsg=32635, compress="jpeg", jpeg_quality=quality)
            back, gt2, epsg2 = gtiff_decode(lossy)
            back = back if back.ndim == 3 else back[None]
            db = psnr(img, back)
            ok_psnr.append(bool(db >= min_db))
            ok_rate.append(
                len(lossy)
                < len(gtiff_encode(img, gt=gt, epsg=32635, compress="jpeg", jpeg_quality=100))
            )
            ok_geo.append(bool(np.array_equal(gt2, np.array(gt)) and epsg2 == 32635))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "psnr_ok": pa.array(ok_psnr, pa.bool_()),
                "rate_ok": pa.array(ok_rate, pa.bool_()),
                "geo_ok": pa.array(ok_geo, pa.bool_()),
            }
        )

    return ds.map_batches(jpeg_gate, batch_format="pyarrow", batch_size=16, num_cpus=1)


def q_doc_fingerprints(sf_dir: str, doc_cap: int = 1500, keep: int = 4):
    """ORACLE-CHECKED document fingerprinting: the winnowing
    construction (smallest ``keep`` distinct n-gram hashes) with
    md5-based hashes so the DuckDB twin replays it verbatim; the
    production Rabin-Karp variant (kernels/text.rolling_fingerprints)
    is kernel-tested.  One output row per kept fingerprint."""
    import ray.data as rd

    from gdal_boots_ray.kernels.text import md5_fingerprints

    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )

    def fps(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        out_id, out_fp = [], []
        for i, t in enumerate(texts):
            for h in md5_fingerprints(t, keep=keep):
                out_id.append(int(ids[i]))
                out_fp.append(h)
        return pa.table(
            {"doc_id": pa.array(out_id, pa.int64()), "fp": pa.array(out_fp, pa.int64())}
        )

    return docs.map_batches(fps, batch_format="pyarrow")


def q_fingerprint_dups(sf_dir: str, doc_cap: int = 1500, keep: int = 4):
    """Substring-level near-duplicate detection (the MOSS idiom):
    docs sharing >= 2 of their kept winnowing fingerprints are
    flagged as overlap candidates — a dedup family orthogonal to
    MinHash (set Jaccard) and SimHash (token frequency): it fires on
    shared raw character runs.  Reuses the LSH pair tail
    (``band_pairs_from_rows``: count-scaled bucket shuffle,
    vectorized per-fingerprint pair generation, bucketed pair dedup)
    with fingerprints as the band keys; the DuckDB twin replays the
    md5 winnowing construction and the quadratic self-join."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.kernels.text import md5_fingerprints
    from gdal_boots_ray.stages.textstages import band_pairs_from_rows

    n_docs = min(pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows, doc_cap)
    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )

    def fps(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        out_id, out_fp = [], []
        for i, t in enumerate(texts):
            for h in md5_fingerprints(t, keep=keep):
                out_id.append(int(ids[i]))
                out_fp.append(h)
        return pa.table(
            {"doc_id": pa.array(out_id, pa.int64()), "band_key": pa.array(out_fp, pa.int64())}
        )

    pairs = band_pairs_from_rows(
        docs.map_batches(fps, batch_format="pyarrow"), int(n_docs), keep, hot_cap=1 << 40
    )

    def finish(batch: pa.Table) -> pa.Table:
        ns = batch.column("n_bands").cast(pa.int64())
        keep_m = pc.greater_equal(ns, 2)
        return pa.table(
            {
                "doc_a": batch.column("doc_a").cast(pa.int64()).filter(keep_m),
                "doc_b": batch.column("doc_b").cast(pa.int64()).filter(keep_m),
                "n_shared": ns.filter(keep_m),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


def q_psnr_fidelity(sf_dir: str, quantize_bits: int = 5, min_db: float = 40.0):
    """The BASELINE.json input_hint per-row invariant as a checked
    query: decode -> 5-bit lossy quantize -> PNG re-encode -> decode
    -> per-image PSNR vs the original must clear 40 dB, and the
    caption column must ride through the whole chain unchanged.  The
    oracle emits one all-true row per image, so any fidelity or
    caption regression breaks the hash."""
    from gdal_boots_ray.kernels.png import decode_image, encode_image, psnr
    from gdal_boots_ray.stages.decode import batch_pixel_views, lossy_quantize

    ds = _tiles_dataset(sf_dir, decode=True)

    def fidelity(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        captions = batch.column("caption").to_pylist()
        ok_psnr, ok_caption = [], []
        for i, iid in enumerate(ids):
            img = views[i]
            q = lossy_quantize(img, quantize_bits)
            back = decode_image(encode_image(q, "png"), "png")
            db = psnr(img.reshape(back.shape), back)
            ok_psnr.append(bool(db >= min_db))
            ok_caption.append(captions[i] == f"tile {iid}")
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "psnr_ok": pa.array(ok_psnr, pa.bool_()),
                "caption_ok": pa.array(ok_caption, pa.bool_()),
            }
        )

    return ds.map_batches(fidelity, batch_format="pyarrow")


def q_vector_reproject(sf_dir: str):
    """to_epsg over the nation polygons: 3857 diamonds -> 4326; the
    oracle applies the closed-form inverse web-mercator to the diamond
    parameters (vertex order preserved; first vertex = west corner)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import nation_polygons
    from gdal_boots_ray.sources.vectors import features_table, make_to_epsg

    nk = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    polys = nation_polygons(nk)
    coll = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "id": int(p["poly_id"]), "geometry": p["geometry"], "properties": {}}
            for p in polys
        ],
    }
    ds = rd.from_arrow(features_table(coll, epsg=3857))
    out = ds.map_batches(make_to_epsg(4326), batch_format="pyarrow")

    import json as _json

    def project(batch: pa.Table) -> pa.Table:
        geoms = [_json.loads(g) for g in batch.column("geom").to_pylist()]
        west = np.array([g["coordinates"][0][0] for g in geoms])
        north = np.array([g["coordinates"][0][1] for g in geoms])
        return pa.table(
            {
                "poly_id": batch.column("fid").cast(pa.int64()),
                "west_lon": pa.array(np.round(west[:, 0], 9)),
                "west_lat": pa.array(np.round(west[:, 1], 9)),
                "north_lon": pa.array(np.round(north[:, 0], 9)),
                "north_lat": pa.array(np.round(north[:, 1], 9)),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


def q_asof_join(sf_dir: str):
    """AS-OF join over the events stream: every 'error' event matched
    to the latest prior 'click' of the same user — the temporal join
    the brief's custom-operator list names; the DuckDB oracle uses the
    native ASOF JOIN operator (an independent implementation)."""
    import ray.data as rd

    from gdal_boots_ray.stages.joins import asof_join

    ev = _read(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type", "value"])

    def split(batch: pa.Table, etype: str) -> pa.Table:
        m = pc.equal(batch.column("event_type"), etype)
        return batch.filter(m)

    errors = ev.map_batches(lambda b: split(b, "error"), batch_format="pyarrow")
    clicks = ev.map_batches(lambda b: split(b, "click"), batch_format="pyarrow")
    out = asof_join(
        errors,
        clicks,
        by_col="user_id",
        ts_col="ts",
        left_cols=["event_id"],
        right_cols=["value"],
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "event_id": batch.column("event_id").cast(pa.int64()),
                "click_value": pc.round(batch.column("value").cast(pa.float64()), 6),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_range_join(sf_dir: str):
    """RANGE join: every order joined to the nation-derived price
    bands containing its o_totalprice (lo <= p < hi) — both sides
    stream through the 1-D cell co-shuffle; quadratic BETWEEN oracle."""
    import ray.data as rd

    from gdal_boots_ray.stages.joins import interval_join

    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    bands = _read(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])

    def to_bands(batch: pa.Table) -> pa.Table:
        n = batch.column("n_nationkey").to_numpy().astype(np.int64)
        lo = n * 37000.0
        hi = lo + 29000.0 + (n % 5) * 13000.0
        return pa.table(
            {
                "iv_id": pa.array(n, pa.int64()),
                "lo": pa.array(lo, pa.float64()),
                "hi": pa.array(hi, pa.float64()),
            }
        )

    out = interval_join(
        orders,
        bands.map_batches(to_bands, batch_format="pyarrow"),
        val_col="o_totalprice",
        point_key_col="o_orderkey",
        iv_key_col="iv_id",
        lo_col="lo",
        hi_col="hi",
        cell_width=25000.0,
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "iv_id": batch.column("iv_id").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows per user (gap > 30 min starts a new session) —
    the streaming-shaped operator; ordering within a group is explicit
    (sort by ts inside map_groups, never block order)."""
    import pandas as pd
    import ray.data as rd

    ev = _read(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    gap_us = gap_minutes * 60 * 1_000_000

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("ts")
        us = g["ts"].astype("int64").to_numpy()
        new = np.ones(len(us), dtype=np.int64)
        new[1:] = (np.diff(us) > gap_us).astype(np.int64)
        sid = np.cumsum(new)
        d = pd.DataFrame({"sid": sid, "value": g["value"].to_numpy()})
        agg = d.groupby("sid").agg(n_events=("value", "size"), sum_value=("value", "sum")).reset_index()
        agg["user_id"] = g["user_id"].iloc[0]
        agg["sum_value"] = agg["sum_value"].round(6)
        return agg[["user_id", "sid", "n_events", "sum_value"]].astype(
            {"user_id": "int64", "sid": "int64", "n_events": "int64"}
        )

    return ev.groupby("user_id").map_groups(sessions, batch_format="pandas")


def q_tile_warp_4326(sf_dir: str):
    """True REPROJECTION warp under the oracle gate: every tile is
    warped 3857 -> 4326 (nearest, explicit w x h output) and the
    DuckDB twin replays the ENTIRE warp — corner-transformed output
    bounds, target pixel centers, closed-form WebMercator forward
    mapping target -> source, inverse affine, floor gather over the
    synthesized field — so W1's reprojection path (grid derivation +
    non-aligned sampling, kernels/warp.py) is hash-checked
    pixel-exactly, not just at bounds level (reference warp
    out_epsg path, gdal.py:653-737)."""
    from gdal_boots_ray.kernels.warp import WarpSource, warp
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def reproject(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        out_w = np.empty(n, np.int64)
        out_h = np.empty(n, np.int64)
        px_sum = np.empty(n, np.int64)
        for i in range(n):
            img = views[i]
            src = WarpSource(img if img.ndim == 3 else img[None], gts[i], 3857)
            w_in, h_in = src.img.shape[2], src.img.shape[1]
            out, _ = warp([src], out_crs=4326, width=w_in, height=h_in, resampling="near")
            out_h[i], out_w[i] = out.shape[1], out.shape[2]
            px_sum[i] = int(out[0].astype(np.int64).sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "out_w": pa.array(out_w),
                "out_h": pa.array(out_h),
                "px_sum": pa.array(px_sum),
            }
        )

    return ds.map_batches(reproject, batch_format="pyarrow")


def q_tile_warp_bilinear(sf_dir: str):
    """Bilinear REPROJECTION warp under the oracle gate (companion of
    tile_warp_4326's nearest path).

    Determinism contract (the r03 driver flake was DuckDB's parallel
    float SUM reordering a knife-edge 4-decimal rounding):

    * coordinates are computed with the twin's EXACT expression shape,
      and the mercator y-chain goes through scalar glibc ``math.tan`` /
      ``math.log`` / ``math.atan`` / ``math.exp`` — empirically
      bit-identical to DuckDB's tan/ln/atan/exp on this fixture's full
      domain, where numpy's SIMD kernels diverge by ~1 ulp;
    * ``floor(fx + 1e-9)`` snaps the exact-identity x-mapping (fx lands
      within ~1e-15 of an integer) the same way on both sides;
    * each pixel's bilinear value is quantized to integer 1e-4 units
      (``floor(val * 10000 + 0.5)``) BEFORE the aggregate, so the
      per-tile sum is an order-independent BIGINT sum on both sides.

    The real warp kernel (kernels/warp.py bilinear gather) stays in the
    loop: its per-tile float sum is asserted against the replay within
    a loose tolerance, so the oracle gate still verifies the kernel."""
    import math

    from gdal_boots_ray.kernels.warp import WarpSource, warp
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def reproject(batch: pa.Table) -> pa.Table:
        # scalar glibc ufuncs (frompyfunc objects don't pickle, so
        # they're built per batch — negligible cost)
        _tan = np.frompyfunc(math.tan, 1, 1)
        _log = np.frompyfunc(math.log, 1, 1)
        views = batch_pixel_views(batch)
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        out_w = np.empty(n, np.int64)
        out_h = np.empty(n, np.int64)
        px_sum = np.empty(n, np.int64)
        for i in range(n):
            img = views[i]
            band = (img if img.ndim == 2 else img[0]).astype(np.float64)
            h_in, w_in = band.shape
            x0, y0 = float(gts[i][2]), float(gts[i][5])
            # twin-shaped coordinate replay (bit-identical to DuckDB)
            lon_min = math.degrees(x0 / 6378137.0)
            lon_max = math.degrees((x0 + w_in * 10.0) / 6378137.0)
            lat_min = math.degrees(2 * math.atan(math.exp((y0 - h_in * 10.0) / 6378137.0)) - math.pi / 2)
            lat_max = math.degrees(2 * math.atan(math.exp(y0 / 6378137.0)) - math.pi / 2)
            gi = np.arange(w_in, dtype=np.float64)
            gj = np.arange(h_in, dtype=np.float64)
            fx = (
                6378137.0 * np.radians(lon_min + (gi + 0.5) * (lon_max - lon_min) / w_in) - x0
            ) / 10.0 - 0.5
            lat = lat_max - (gj + 0.5) * (lat_max - lat_min) / h_in
            fy = (
                y0 - 6378137.0 * _log(_tan(np.pi / 4 + np.radians(lat) / 2)).astype(np.float64)
            ) / 10.0 - 0.5
            xf = np.floor(fx + 1e-9)
            yf = np.floor(fy + 1e-9)
            wx = fx - xf
            wy = fy - yf
            xa = np.clip(xf, 0, w_in - 1).astype(np.int64)
            xb = np.clip(xf + 1, 0, w_in - 1).astype(np.int64)
            ya = np.clip(yf, 0, h_in - 1).astype(np.int64)
            yb = np.clip(yf + 1, 0, h_in - 1).astype(np.int64)
            WX, WY = wx[None, :], wy[:, None]
            val = (
                band[ya[:, None], xa[None, :]] * (1 - WX) * (1 - WY)
                + band[ya[:, None], xb[None, :]] * WX * (1 - WY)
                + band[yb[:, None], xa[None, :]] * (1 - WX) * WY
                + band[yb[:, None], xb[None, :]] * WX * WY
            )
            q = np.floor(val * 10000.0 + 0.5).astype(np.int64)
            out_h[i], out_w[i] = h_in, w_in
            px_sum[i] = int(q.sum())
            # keep the real kernel verified by the same gate (loose
            # tolerance: replay and kernel differ only by ~ulp libm)
            src = WarpSource(img if img.ndim == 3 else img[None], gts[i], 3857)
            out, _ = warp(
                [src], out_crs=4326, width=w_in, height=h_in, resampling="bilinear", dtype=np.float64
            )
            # PER-PIXEL check against the replay (not a whole-tile sum
            # bound, which could hide compensating kernel regressions):
            # kernel and replay differ only by ~ulp libm in the
            # coordinate chain, so every pixel must agree to ~1e-6.
            pix_err = float(np.abs(out[0] - val).max())
            if pix_err > 1e-6:
                raise AssertionError(
                    f"warp kernel bilinear diverged from twin replay on "
                    f"{ids[i]}: max per-pixel |delta| = {pix_err}"
                )
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "out_w": pa.array(out_w),
                "out_h": pa.array(out_h),
                "px_sum": pa.array(px_sum),
            }
        )

    return ds.map_batches(reproject, batch_format="pyarrow")


def q_tile_fast_warp(sf_dir: str):
    """fast_warp window crop (W2/W3, reference gdal.py:739-806) under
    the oracle gate: every tile is cropped to a deterministic interior
    bbox (insets keyed off p_partkey) and the DuckDB twin replays the
    EXACT snap semantics — floor lower / ceil upper corner in absolute
    pixel-resolution units, y flip — plus the windowed pixel sum over
    the synthesized field, so the snap math is hash-checked per tile
    (previously pytest-golden-only, 8x9/2x2 reference shapes)."""
    from gdal_boots_ray.kernels.window import fast_warp_as_array
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def crop(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        out_w = np.empty(n, np.int64)
        out_h = np.empty(n, np.int64)
        px_sum = np.empty(n, np.int64)
        sx_min = np.empty(n, np.float64)
        sy_max = np.empty(n, np.float64)
        for i in range(n):
            img = views[i]
            img3 = img if img.ndim == 3 else img[None]
            h, w = img3.shape[1:]
            k = int(ids[i][4:])
            x0, y0 = gts[i][2], gts[i][5]
            bbox = (
                x0 + 3.0 + k % 7,
                y0 - h * 10.0 + 4.0 + k % 3,
                x0 + w * 10.0 - (2.0 + k % 5),
                y0 - (1.5 + k % 4),
            )
            out, gi = fast_warp_as_array(img3, gts[i], 3857, bbox)
            out_h[i], out_w[i] = out.shape[1], out.shape[2]
            px_sum[i] = int(out[0].astype(np.int64).sum())
            sx_min[i] = gi.transform.c
            sy_max[i] = gi.transform.f
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "out_w": pa.array(out_w),
                "out_h": pa.array(out_h),
                "px_sum": pa.array(px_sum),
                "sx_min": pa.array(sx_min),
                "sy_max": pa.array(sy_max),
            }
        )

    return ds.map_batches(crop, batch_format="pyarrow")


def q_tile_resize(sf_dir: str):
    """Area-average 2x downscale of every tile (the reference's
    Resampling.average path, gdal.py:187); oracle: block means of the
    closed-form field sum to sum_v/4 for even tile sizes."""
    from gdal_boots_ray.kernels.warp import WarpSource, warp
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def resize(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        out_w = np.empty(n, np.int64)
        out_h = np.empty(n, np.int64)
        mean_sum = np.empty(n, np.float64)
        for i in range(n):
            img = views[i]
            src = WarpSource(img if img.ndim == 3 else img[None], gts[i], 3857)
            out, gi = warp([src], resolution=(20.0, 20.0), resampling="average", dtype=np.float64)
            out_h[i], out_w[i] = out.shape[1], out.shape[2]
            mean_sum[i] = round(float(out[0].sum()), 6)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "out_w": pa.array(out_w),
                "out_h": pa.array(out_h),
                "mean_sum": pa.array(mean_sum),
            }
        )

    return ds.map_batches(resize, batch_format="pyarrow")


def _q_tile_resize_kernel(sf_dir: str, resampling: str):
    """2x downscale of every tile with a windowed resampling kernel;
    emits (image_id, out_w, out_h, out_sum).  The SQL twin replays the
    separable gather with the ENGINE's own tap weights embedded as
    literals (t=0.5 for an aligned 2x downscale), so kernel math is
    hash-checked end to end."""
    from gdal_boots_ray.kernels.warp import WarpSource, warp
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def resize(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        out_w = np.empty(n, np.int64)
        out_h = np.empty(n, np.int64)
        out_sum = np.empty(n, np.float64)
        for i in range(n):
            img = views[i]
            src = WarpSource(img if img.ndim == 3 else img[None], gts[i], 3857)
            out, _ = warp([src], resolution=(20.0, 20.0), resampling=resampling, dtype=np.float64)
            out_h[i], out_w[i] = out.shape[1], out.shape[2]
            out_sum[i] = round(float(out[0].sum()), 4)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "out_w": pa.array(out_w),
                "out_h": pa.array(out_h),
                "out_sum": pa.array(out_sum),
            }
        )

    return ds.map_batches(resize, batch_format="pyarrow")


def q_tile_resize_lanczos(sf_dir: str):
    return _q_tile_resize_kernel(sf_dir, "lanczos")


def q_tile_resize_cubicspline(sf_dir: str):
    return _q_tile_resize_kernel(sf_dir, "cubicspline")


def _resize_kernel_sql(resampling: str) -> str:
    """DuckDB twin of the 2x windowed-kernel downscale: one flat sum of
    (wx * wy * clamped-field-value) contributions with the engine's tap
    weights at t=0.5 embedded as repr'd doubles."""
    from gdal_boots_ray.kernels.warp import bspline_weights, lanczos3_weights

    t = np.array([0.5])
    if resampling == "cubicspline":
        w = bspline_weights(t)[:, 0]
        start = -1
    else:
        w = lanczos3_weights(t)[:, 0]
        start = -2
    case = " ".join(
        f"WHEN {start + i} THEN CAST({float(w[i])!r} AS DOUBLE)" for i in range(len(w))
    )
    kmin, kmax = start, start + len(w) - 1
    return f"""
        WITH {TILE_SQL_CTE},
        contrib AS (
            SELECT t.image_id, t.w, t.h,
                (CASE kx.i {case} END) * (CASE ky.i {case} END) *
                ((least(greatest(2 * gox.ox + kx.i, 0), t.w - 1) * 31
                  + least(greatest(2 * goy.oy + ky.i, 0), t.h - 1) * 17 + t.k) % 256) AS c
            FROM tiles t,
                 LATERAL (SELECT unnest(generate_series(0, CAST(t.w / 2 - 1 AS INT))) AS ox) gox,
                 LATERAL (SELECT unnest(generate_series(0, CAST(t.h / 2 - 1 AS INT))) AS oy) goy,
                 (SELECT unnest(generate_series({kmin}, {kmax})) AS i) kx,
                 (SELECT unnest(generate_series({kmin}, {kmax})) AS i) ky
        )
        SELECT image_id, CAST(min(w) / 2 AS BIGINT) AS out_w, CAST(min(h) / 2 AS BIGINT) AS out_h,
               round(sum(c), 4) AS out_sum
        FROM contrib GROUP BY image_id
    """


def q_polygonize(sf_dir: str, n_tiles: int = 24):
    """ORACLE-CHECKED ring detail of polygonize (connected components
    + boundary ring tracing, reference to_vector/gdal.Polygonize):
    per image, region count, total ring CORNER count and total ring
    perimeter — all computed from the traced rings (exterior + holes,
    collinear points collapsed).  The DuckDB twin derives the same
    quantities from the mask by independent combinatorics: corners
    from 2x2 lattice-vertex patterns (1 or 3 masked -> 1 corner,
    diagonal pair -> 2), perimeter as 4*cells - shared sides, regions
    via recursive-CTE min-label propagation — no ring tracing in SQL,
    so the identities check the tracer, not a re-implementation."""
    from gdal_boots_ray.kernels.polygonize import polygonize
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def first_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keep = np.array([int(i.split("-")[1]) < n_tiles for i in ids])
        return batch.filter(pa.array(keep))

    def vectorize(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        out_id, out_n, out_c, out_p = [], [], [], []
        for i, iid in enumerate(ids):
            b0 = views[i] if views[i].ndim == 2 else views[i][0]
            feats = polygonize((b0 >= 128).astype(np.uint8))  # pixel-space rings
            pos = [f for f in feats if f["value"] == 1]
            ncorn = 0
            nperim = 0
            for f in pos:
                for ring in f["geometry"]["coordinates"]:
                    arr = np.asarray(ring, np.float64)
                    ncorn += len(arr) - 1  # closed ring, start duplicated
                    nperim += int(np.abs(np.diff(arr, axis=0)).sum())  # axis-aligned
            out_id.append(iid)
            out_n.append(len(pos))
            out_c.append(ncorn)
            out_p.append(nperim)
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "n_regions": pa.array(out_n, pa.int64()),
                "n_corners": pa.array(out_c, pa.int64()),
                "n_perimeter": pa.array(out_p, pa.int64()),
            }
        )

    return ds.map_batches(first_keys, batch_format="pyarrow").map_batches(
        vectorize, batch_format="pyarrow"
    )


def q_text_normalize(sf_dir: str):
    """Corpus text normalization (lowercase, digit-run masking,
    whitespace collapse) — the first stage of every LLM corpus prep.
    Pure pandas vectorized ``.str`` kernels over compiled regexes; an
    embarrassingly-parallel streaming map, no shuffle, no
    materialization."""
    import pandas as pd
    import ray.data as rd

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["text"].str.lower()
        s = s.str.replace(r"[0-9]+", "<num>", regex=True)
        s = s.str.replace(r"\s+", " ", regex=True).str.strip()
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].astype("int64"), "norm_text": s}
        )

    return docs.map_batches(norm, batch_format="pandas")


def q_doc_pack(sf_dir: str, budget: int = 256, range_size: int = 512):
    """Token-budget document packing (GPT-style pretraining chunking):
    concatenate docs in doc_id order and assign each doc the chunk
    ``floor(exclusive_prefix_tokens / budget)``.

    The prefix sum is the textbook two-pass distributed scan:
    (1) per-doc token counts carry a contiguous range key
    ``doc_id // range_size`` (free — no sort needed on an ordered id);
    (2) per-range partial sums via ``bucketed_aggregate`` (one tiny
    row per range), driver exclusive-scans the ~N/range_size offsets
    and broadcasts them once with ``ray.put``; (3) a bounded-size
    ``groupby(range)`` shuffle of the narrow (doc_id, n_tokens) rows
    cumsums locally and adds the range offset.  Text never shuffles;
    group size is capped at ``range_size`` docs so the per-group work
    stays vectorized and bounded at any corpus size."""
    import pandas as pd
    import ray
    import ray.data as rd

    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tok(batch: pd.DataFrame) -> pd.DataFrame:
        n = [len(_WORD_RE.findall(t.lower())) for t in batch["text"]]
        d = batch["doc_id"].astype("int64")
        return pd.DataFrame(
            {"doc_id": d, "n_tokens": pd.Series(n, dtype="int64", index=batch.index), "rng": d // range_size}
        )

    toks = docs.map_batches(tok, batch_format="pandas")

    partials = (
        bucketed_aggregate(toks, ["rng"], {"n_tokens": "sum"})
        .to_pandas()
        .sort_values("rng")
    )
    offsets = dict(
        zip(
            partials["rng"].astype("int64"),
            partials["n_tokens"].astype("int64").cumsum().shift(fill_value=0),
        )
    )
    off_ref = ray.put(offsets)

    def pack(group: pd.DataFrame, _cache={}) -> pd.DataFrame:
        offs = _cache.get("o")
        if offs is None:
            offs = _cache["o"] = ray.get(off_ref)
        g = group.sort_values("doc_id")
        base = int(offs[int(g["rng"].iloc[0])])
        excl = base + g["n_tokens"].cumsum().shift(fill_value=0).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "n_tokens": g["n_tokens"].astype("int64"),
                "chunk_id": (excl // budget).astype("int64"),
            }
        )

    return toks.groupby("rng").map_groups(pack, batch_format="pandas")


def q_decontaminate(sf_dir: str, n: int = 4, mod: int = 13, rem: int = 7):
    """Benchmark decontamination (the eval-overlap filter every LLM
    training pipeline runs): flag training docs sharing any word
    ``n``-gram with a held-out benchmark set (here the deterministic
    slice ``doc_id % mod == rem``).

    Scale shape: the benchmark side must be O(1) relative to the
    corpus — that is the operator's CONTRACT (a real decontamination
    run broadcasts a fixed eval suite, not a corpus slice; the
    ``doc_id % mod`` slice here only stands in for one).  Its distinct
    shingle set is reduced once (vectorized mask + per-batch set
    union, no per-row driver filter) and broadcast with ``ray.put``
    (one object-store copy per node, read by every task);
    ``max_bench_shingles`` enforces the contract and raises rather
    than silently building an unbounded driver-side set.  The
    unbounded training side streams through a stateless
    ``map_batches`` that intersects per-doc shingle sets against the
    broadcast set — no join shuffle, the corpus text never moves."""
    import pandas as pd
    import ray
    import ray.data as rd

    from gdal_boots_ray.kernels.text import _WORD_RE

    max_bench_shingles = 2_000_000
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def doc_shingles(text: str):
        ws = _WORD_RE.findall(text.lower())
        return {" ".join(ws[j : j + n]) for j in range(len(ws) - n + 1)}

    def bench_shingles(ba: pd.DataFrame) -> pd.DataFrame:
        sel = ba["text"][ba["doc_id"] % mod == rem]
        sh = set().union(*(doc_shingles(t) for t in sel)) if len(sel) else set()
        return pd.DataFrame({"s": sorted(sh)})

    bench_sh = set()
    for b in docs.map_batches(bench_shingles, batch_format="pandas").iter_batches(
        batch_format="pandas"
    ):
        bench_sh.update(b["s"])
        if len(bench_sh) > max_bench_shingles:
            raise ValueError(
                "benchmark shingle set exceeds the broadcast contract "
                f"({len(bench_sh)} > {max_bench_shingles}); decontamination "
                "expects an O(1)-sized eval suite"
            )
    bench_ref = ray.put(frozenset(bench_sh))

    def hits(batch: pd.DataFrame, _cache={}) -> pd.DataFrame:
        # frozenset deserialization is NOT zero-copy — fetch once per
        # worker, not once per batch
        bench = _cache.get("b")
        if bench is None:
            bench = _cache["b"] = ray.get(bench_ref)
        keep = batch[batch["doc_id"] % mod != rem]
        nh = [len(doc_shingles(t) & bench) for t in keep["text"]]
        out = pd.DataFrame(
            {"doc_id": keep["doc_id"].astype("int64"), "n_hits": pd.Series(nh, dtype="int64", index=keep.index)}
        )
        return out[out["n_hits"] > 0]

    return docs.map_batches(hits, batch_format="pandas")


# ---------------------------------------------------------------------------
# Oracle SQL
# ---------------------------------------------------------------------------

# simhash replay shared by the 'simhash' and 'simhash_neardup' twins
def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (Rae et al. 2021 §A1.1
    rules the big text pipelines filter on): per document, the
    duplicate-line fraction and the fraction of word bigrams taken by
    the single most frequent bigram.  Embarrassingly parallel — one
    pass inside map_batches, no exchange at all; at 100 TB this stage
    runs at read bandwidth.  The reference has no text surface; this
    is an engine-original operator of the training-data family."""
    from collections import Counter

    import ray.data as rd

    from gdal_boots_ray.kernels.text import _WORD_RE

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def rep(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = len(texts)
        n_lines = np.empty(n, np.int64)
        dup_line = np.empty(n, np.float64)
        top_bg = np.zeros(n, np.float64)
        for i, t in enumerate(texts):
            lines = t.split("\n")
            n_lines[i] = len(lines)
            dup_line[i] = round(1.0 - len(set(lines)) / len(lines), 6)
            ws = _WORD_RE.findall(t.lower())
            if len(ws) >= 2:
                cnt = Counter(zip(ws[:-1], ws[1:]))
                top_bg[i] = round(max(cnt.values()) / (len(ws) - 1), 6)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_lines": pa.array(n_lines),
                "dup_line_frac": pa.array(dup_line),
                "top_bigram_frac": pa.array(top_bg),
            }
        )

    return docs.map_batches(rep, batch_format="pyarrow")


def q_inverted_index(sf_dir: str, min_df: int = 5):
    """Build a verifiable inverted index (term -> ordered posting
    list) — the search-engine primitive over the corpus.  Plan:
    per-batch (word, doc_id, tf) partials (one row per distinct word
    per doc per batch), bucketed combine keyed on word so each
    reducer assembles complete posting lists for its vocabulary
    shard, emitting df, cf and an md5 digest of the ordered list
    (the digest is what a 10^12-row index job would checkpoint per
    shard).  Only word-count partials cross the wire — never text —
    and fan-out scales with the cluster via ``stages.agg.exchange``."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import exchange

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def postings_partial(batch: pd.DataFrame) -> pd.DataFrame:
        word_lists = [_WORD_RE.findall(t.lower()) for t in batch["text"]]
        lens = np.array([len(w) for w in word_lists], np.int64)
        ids = np.repeat(batch["doc_id"].to_numpy().astype(np.int64), lens)
        words = (
            np.concatenate([np.asarray(w, dtype=object) for w in word_lists if w])
            if lens.sum()
            else np.array([], dtype=object)
        )
        df = pd.DataFrame({"word": words, "doc_id": ids})
        return df.groupby(["word", "doc_id"], sort=False).size().rename("tf").reset_index()

    def build_shard(g: pd.DataFrame) -> pd.DataFrame:
        # re-sum tf across batch partials, then assemble ordered lists
        p = g.groupby(["word", "doc_id"], sort=False)["tf"].sum().reset_index()
        p = p.sort_values(["word", "doc_id"], kind="mergesort")
        rows = []
        for word, grp in p.groupby("word", sort=False):
            if len(grp) < min_df:
                continue
            ids = grp["doc_id"].to_numpy()
            digest = hashlib.md5(",".join(str(int(i)) for i in ids).encode()).hexdigest()
            rows.append((word, len(ids), int(grp["tf"].sum()), digest))
        return pd.DataFrame(rows, columns=["word", "df", "cf", "postings_md5"])

    out = exchange(
        docs.map_batches(postings_partial, batch_format="pandas"),
        ["word"],
        build_shard,
        batch_format="pandas",
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "word": batch.column("word"),
                "df": batch.column("df").cast(pa.int64()),
                "cf": batch.column("cf").cast(pa.int64()),
                "postings_md5": batch.column("postings_md5"),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_tile_hillshade(sf_dir: str):
    """Hillshade (the gdaldem hillshade analog; beyond the
    reference's wrapped surface): Horn 3x3 gradients over interior
    pixels, lambertian shading against the standard 315-deg azimuth /
    45-deg altitude light, shade = 255 * max(0, n.l / |n|) with
    n = (-gx, gy, 1).  At az=315/alt=45 the dot product reduces to
    0.5*(gx+gy) + sqrt(2)/2, which the DuckDB twin replays in the
    identical expression shape (closed-form taps, no self-join), so
    the shadow count is comparison-exact and the mean agrees to the
    rounded 6 decimals."""
    import math

    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)
    alt = math.sqrt(2.0) / 2  # sin(45 deg), also cos(45 deg)

    def hillshade(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_interior = np.empty(n, np.int64)
        n_shadow = np.empty(n, np.int64)
        mean_shade = np.empty(n, np.float64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            tl, t, tr = b0[:-2, :-2], b0[:-2, 1:-1], b0[:-2, 2:]
            l, r = b0[1:-1, :-2], b0[1:-1, 2:]
            bl, b, br = b0[2:, :-2], b0[2:, 1:-1], b0[2:, 2:]
            gx = ((tr + 2 * r + br) - (tl + 2 * l + bl)) / 80.0
            gy = ((bl + 2 * b + br) - (tl + 2 * t + tr)) / 80.0
            num = 0.5 * (gx + gy) + alt
            shade = 255.0 * np.maximum(num / np.sqrt(1.0 + gx * gx + gy * gy), 0.0)
            n_interior[i] = shade.size
            n_shadow[i] = int((num <= 0).sum())
            mean_shade[i] = round(float(shade.mean()), 6)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_interior": pa.array(n_interior),
                "n_shadow": pa.array(n_shadow),
                "mean_shade": pa.array(mean_shade),
            }
        )

    return ds.map_batches(hillshade, batch_format="pyarrow")


def q_tile_aspect(sf_dir: str):
    """Aspect (the gdaldem aspect analog): facing direction of the
    downslope vector from Horn gradients, classified into N/E/S/W
    quadrants on the INTEGER gradient numerators (no trig, no float),
    so every count is arithmetic-exact against the twin.  Downslope
    in (east, north) = (-Gx, Gy) with Gy computed on y-down taps;
    ties |E| == |N| resolve to the N/S branch, Gx = Gy = 0 is flat —
    the same deterministic convention in both engines."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def aspect(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        cols = {k: np.empty(n, np.int64) for k in ("n_flat", "n_north", "n_east", "n_south", "n_west")}
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            tl, t, tr = b0[:-2, :-2], b0[:-2, 1:-1], b0[:-2, 2:]
            l, r = b0[1:-1, :-2], b0[1:-1, 2:]
            bl, b, br = b0[2:, :-2], b0[2:, 1:-1], b0[2:, 2:]
            gxn = (tr + 2 * r + br) - (tl + 2 * l + bl)
            gyn = (bl + 2 * b + br) - (tl + 2 * t + tr)
            e, nn = -gxn, gyn
            flat = (gxn == 0) & (gyn == 0)
            ew = (np.abs(e) > np.abs(nn)) & ~flat
            ns = ~ew & ~flat
            cols["n_flat"][i] = int(flat.sum())
            cols["n_east"][i] = int((ew & (e > 0)).sum())
            cols["n_west"][i] = int((ew & (e < 0)).sum())
            cols["n_north"][i] = int((ns & (nn > 0)).sum())
            cols["n_south"][i] = int((ns & (nn < 0)).sum())
        out = {"image_id": pa.array(ids, pa.string())}
        out.update({k: pa.array(v) for k, v in cols.items()})
        return pa.table(out)

    return ds.map_batches(aspect, batch_format="pyarrow")


def q_tile_rescale(sf_dir: str):
    """Linear contrast stretch (the gdal_translate -scale analog):
    each tile's [min, max] maps to [0, 255] with integer floor
    semantics, out = (v - mn) * 255 // (mx - mn) — every output is
    arithmetic-exact against the twin's window-min/max replay.
    Degenerate flat tiles (mx == mn) map to 0, stated identically on
    both sides."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def rescale(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        out_sum = np.empty(n, np.int64)
        out_min = np.empty(n, np.int64)
        out_max = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            mn, mx = int(b0.min()), int(b0.max())
            if mx == mn:
                out = np.zeros_like(b0)
            else:
                out = (b0 - mn) * 255 // (mx - mn)
            n_px[i] = out.size
            out_sum[i] = int(out.sum())
            out_min[i] = int(out.min())
            out_max[i] = int(out.max())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "out_sum": pa.array(out_sum),
                "out_min": pa.array(out_min),
                "out_max": pa.array(out_max),
            }
        )

    return ds.map_batches(rescale, batch_format="pyarrow")


def q_tile_ruggedness(sf_dir: str):
    """The remaining gdaldem derivatives — TRI, TPI and roughness —
    in one pass, all reduced over INTEGER numerators so every output
    is arithmetic-exact against the twin (no trig, no division):
    TRI* = sum over the 8 neighbors of |center - neighbor| (Riley TRI
    is the per-pixel mean of this), TPI* = 8*center - sum(neighbors)
    (TPI is this / 8), roughness = max(3x3) - min(3x3).  Per tile:
    interior count, total TRI numerator, total signed TPI numerator,
    and the roughness sum."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def rugged(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_interior = np.empty(n, np.int64)
        sum_tri = np.empty(n, np.int64)
        sum_tpi = np.empty(n, np.int64)
        sum_rough = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            c = b0[1:-1, 1:-1]
            shifts = [
                b0[:-2, :-2], b0[:-2, 1:-1], b0[:-2, 2:],
                b0[1:-1, :-2], b0[1:-1, 2:],
                b0[2:, :-2], b0[2:, 1:-1], b0[2:, 2:],
            ]
            tri = np.zeros_like(c)
            nsum = np.zeros_like(c)
            mx = c.copy()
            mn = c.copy()
            for s in shifts:
                tri += np.abs(c - s)
                nsum += s
                np.maximum(mx, s, out=mx)
                np.minimum(mn, s, out=mn)
            n_interior[i] = c.size
            sum_tri[i] = int(tri.sum())
            sum_tpi[i] = int((8 * c - nsum).sum())
            sum_rough[i] = int((mx - mn).sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_interior": pa.array(n_interior),
                "sum_tri": pa.array(sum_tri),
                "sum_tpi": pa.array(sum_tpi),
                "sum_rough": pa.array(sum_rough),
            }
        )

    return ds.map_batches(rugged, batch_format="pyarrow")


def q_tile_proximity(sf_dir: str, n_tiles: int = 8, level: int = 192):
    """Proximity raster (the gdal_proximity analog): per pixel, the
    exact squared Euclidean distance to the nearest bright pixel
    (v >= level), via the two-pass dimensional-decomposition EDT
    (kernels/distance.py) — all int64, so sums/maxima are bit-exact
    against the twin's brute-force min-over-targets.  The tile
    filter is pushed BELOW the decode (pre_decode_filter), so the
    99% of tiles outside the slice never pay decode cost — the
    predicate-pushdown shape a 100-TB run needs."""
    from gdal_boots_ray.kernels.distance import edt_squared
    from gdal_boots_ray.stages.decode import batch_pixel_views

    def first_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keep = np.array([int(i.split("-")[1]) < n_tiles for i in ids])
        return batch.filter(pa.array(keep))

    ds = _tiles_dataset(sf_dir, decode=True, pre_decode_filter=first_keys)

    def proximity(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        rows = {"image_id": [], "n_px": [], "n_target": [], "sum_d2": [], "max_d2": []}
        for i, img in enumerate(views):
            b0 = img if img.ndim == 2 else img[0]
            target = b0 >= level
            nt = int(target.sum())
            if nt == 0:
                continue  # twin's inner join drops target-free tiles
            d2 = edt_squared(target)
            rows["image_id"].append(ids[i])
            rows["n_px"].append(d2.size)
            rows["n_target"].append(nt)
            rows["sum_d2"].append(int(d2.sum()))
            rows["max_d2"].append(int(d2.max()))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "n_px": pa.array(rows["n_px"], pa.int64()),
                "n_target": pa.array(rows["n_target"], pa.int64()),
                "sum_d2": pa.array(rows["sum_d2"], pa.int64()),
                "max_d2": pa.array(rows["max_d2"], pa.int64()),
            }
        )

    return ds.map_batches(proximity, batch_format="pyarrow")


def q_tile_sieve(sf_dir: str, n_tiles: int = 24, min_size: int = 10):
    """Sieve filter census (the gdal_sieve analog): 4-connected
    components of the >=128 mask whose size is below ``min_size``
    would be absorbed by the filter; report per tile the component
    count, the small-component count and the pixels they cover.
    Reuses the scanline union-find labeler; the twin extends the
    polygonize recursive-CTE min-label propagation with per-label
    size aggregation — an independent algorithm end to end."""
    from gdal_boots_ray.kernels.polygonize import label_components
    from gdal_boots_ray.stages.decode import batch_pixel_views

    def first_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keep = np.array([int(i.split("-")[1]) < n_tiles for i in ids])
        return batch.filter(pa.array(keep))

    ds = _tiles_dataset(sf_dir, decode=True, pre_decode_filter=first_keys)

    def sieve(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        rows = {"image_id": [], "n_regions": [], "n_small": [], "n_flipped": []}
        for i, img in enumerate(views):
            b0 = img if img.ndim == 2 else img[0]
            mask = (b0 >= 128).astype(np.uint8)
            labels, _ = label_components(mask)
            sizes = np.bincount(labels.ravel())
            pos = np.unique(labels[mask == 1])
            if len(pos) == 0:
                continue
            psz = sizes[pos]
            small = psz < min_size
            rows["image_id"].append(ids[i])
            rows["n_regions"].append(len(pos))
            rows["n_small"].append(int(small.sum()))
            rows["n_flipped"].append(int(psz[small].sum()))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "n_regions": pa.array(rows["n_regions"], pa.int64()),
                "n_small": pa.array(rows["n_small"], pa.int64()),
                "n_flipped": pa.array(rows["n_flipped"], pa.int64()),
            }
        )

    return ds.map_batches(sieve, batch_format="pyarrow")


def q_poly_grid_cover(sf_dir: str, res: float = 1000.0):
    """Polyfill — polygon to covering-cell-set (the H3 polyfill
    shape, over the engine's grid index): candidate cells from the
    envelope (kernels/cells.grid_cells_covering_bounds, the same
    primitive cell_pip_join explodes polygons with), kept when the
    cell CENTER lies inside the polygon (points_in_rings even-odd).
    The twin enumerates a superset range in SQL and applies the
    identical center-containment predicate, so the cell-id sums are
    integer-exact.  Pure map over polygons — each feature's fan-out
    is bounded by its envelope at the chosen resolution."""
    import ray.data as rd

    from gdal_boots_ray.kernels.cells import grid_cell_center, grid_cells_covering_bounds
    from gdal_boots_ray.kernels.geometry import points_in_rings, polygon_rings
    from gdal_boots_ray.sources.fixtures import nation_polygons

    ds = _read(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])

    def cover(batch: pa.Table) -> pa.Table:
        keys = batch.column("n_nationkey").to_numpy()
        polys = nation_polygons(keys)
        pid, n_cells, sum_ids = [], [], []
        for p in polys:
            rings = polygon_rings(p["geometry"])
            ring = rings[0]
            env = (ring[:, 0].min(), ring[:, 1].min(), ring[:, 0].max(), ring[:, 1].max())
            cand = grid_cells_covering_bounds(env, res)
            cx, cy = grid_cell_center(cand, res)
            inside = points_in_rings(cx, cy, rings)
            pid.append(p["poly_id"])
            n_cells.append(int(inside.sum()))
            sum_ids.append(int(cand[inside].sum()))
        return pa.table(
            {
                "poly_id": pa.array(pid, pa.int64()),
                "n_cells": pa.array(n_cells, pa.int64()),
                "sum_cell_id": pa.array(sum_ids, pa.int64()),
            }
        )

    return ds.map_batches(cover, batch_format="pyarrow")


def q_poly_metrics(sf_dir: str):
    """Vector geometry accessors — OGR's GetArea / Length / Centroid
    family (the reference reaches them through ogr.Geometry;
    geometry.py wraps but never reimplements): generic shoelace
    area, perimeter and area-weighted centroid per polygon via
    kernels/geometry.ring_metrics, distributed as a pure map over
    the nation features.  The diamond fixtures have closed forms
    (area 2*rx*ry, perimeter 4*sqrt(rx^2+ry^2), centroid = center)
    the twin states directly."""
    import ray.data as rd

    from gdal_boots_ray.kernels.geometry import polygon_rings, ring_metrics
    from gdal_boots_ray.sources.fixtures import nation_polygons

    ds = _read(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])

    def metrics(batch: pa.Table) -> pa.Table:
        keys = batch.column("n_nationkey").to_numpy()
        polys = nation_polygons(keys)
        pid = np.empty(len(polys), np.int64)
        area = np.empty(len(polys), np.float64)
        perim = np.empty(len(polys), np.float64)
        cx = np.empty(len(polys), np.float64)
        cy = np.empty(len(polys), np.float64)
        for i, p in enumerate(polys):
            ring = polygon_rings(p["geometry"])[0]
            a, per, x, y = ring_metrics(ring)
            pid[i] = p["poly_id"]
            area[i] = round(a, 6)
            perim[i] = round(per, 6)
            cx[i] = round(x, 6)
            cy[i] = round(y, 6)
        return pa.table(
            {
                "poly_id": pa.array(pid),
                "area": pa.array(area),
                "perimeter": pa.array(perim),
                "cx": pa.array(cx),
                "cy": pa.array(cy),
            }
        )

    return ds.map_batches(metrics, batch_format="pyarrow")


def q_poly_geodesic(sf_dir: str):
    """Geodesic polygon metrics — OGR's ``Geometry.Area()`` /
    ``Length()`` on a geographic SRS (the reference reaches them via
    ogr with a 4326 layer; planar ``poly_metrics`` is the projected
    twin of this).  Each diamond is inverse-mercatored to lon/lat and
    measured on the authalic sphere: area by the Chamberlain-Duquette
    (JPL) edge sum (the short-edge discretization of the spherical
    Green's-theorem integral — exact in the densified limit, and at
    the ~3 km feature scale here within 1e-6 of truth), perimeter by
    the haversine — a pure map over the nation features, no shuffle.
    The DuckDB
    twin unrolls the four diamond vertices and replays BOTH formulas
    closed-form with the same association order, so values match at
    round-6 (km^2 / km)."""
    from gdal_boots_ray.kernels.crs import transform_points
    from gdal_boots_ray.kernels.geometry import polygon_rings
    from gdal_boots_ray.sources.fixtures import nation_polygons

    R = 6371000.0
    ds = _read(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])

    def metrics(batch: pa.Table) -> pa.Table:
        keys = batch.column("n_nationkey").to_numpy()
        polys = nation_polygons(keys)
        pid = np.empty(len(polys), np.int64)
        verts = np.empty((len(polys), 4, 2), np.float64)
        for i, p in enumerate(polys):
            pid[i] = p["poly_id"]
            ring = np.asarray(polygon_rings(p["geometry"])[0], np.float64)
            verts[i] = ring[:4]  # closed ring: drop the repeated vertex
        lon, lat = transform_points(
            3857, 4326, verts[..., 0].ravel(), verts[..., 1].ravel()
        )
        lam = np.radians(lon).reshape(-1, 4)
        phi = np.radians(lat).reshape(-1, 4)
        nxt = [1, 2, 3, 0]
        ts = np.zeros(len(polys), np.float64)
        per = np.zeros(len(polys), np.float64)
        # explicit edge-by-edge accumulation: the twin sums the four
        # terms in this exact left-to-right order
        for a in range(4):
            b = nxt[a]
            ts = ts + (lam[:, b] - lam[:, a]) * (
                2.0 + np.sin(phi[:, a]) + np.sin(phi[:, b])
            )
            sp = np.sin((phi[:, b] - phi[:, a]) / 2.0)
            sl = np.sin((lam[:, b] - lam[:, a]) / 2.0)
            h = sp * sp + np.cos(phi[:, a]) * np.cos(phi[:, b]) * sl * sl
            per = per + 2.0 * R * np.arcsin(np.sqrt(h))
        return pa.table(
            {
                "poly_id": pa.array(pid),
                "area_km2": pa.array(np.round(np.abs(ts) * R * R / 2.0 / 1e6, 6)),
                "perim_km": pa.array(np.round(per / 1e3, 6)),
            }
        )

    return ds.map_batches(metrics, batch_format="pyarrow")


def q_poly_buffer(sf_dir: str, steps_per_corner: int = 8):
    """Polygon buffering — ogr ``Geometry.Buffer`` (convex case):
    every nation diamond grows by a per-polygon distance ``500 +
    (poly_id % 4) * 250`` m with an 8-step circular fan at each
    vertex (``kernels/geometry.buffer_convex_ring``), then the
    buffered ring is measured with the SAME shoelace accessor the
    planar metrics use.  A pure map over features.  The DuckDB twin
    states the exact polygon identity of the construction — ``A +
    P*d + (d^2/2) * sum_i m*sin(theta_i/m)`` with the diamond corner
    turns ``theta = 2*atan(ry/rx)`` / ``2*atan(rx/ry)`` — so the
    generated geometry, not just the formula, is what's gated
    (round-3 m^2 against ~3e-6 shoelace cancellation)."""
    from gdal_boots_ray.kernels.geometry import (
        buffer_convex_ring,
        polygon_rings,
        ring_metrics,
    )
    from gdal_boots_ray.sources.fixtures import nation_polygons

    ds = _read(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])

    def metrics(batch: pa.Table) -> pa.Table:
        keys = batch.column("n_nationkey").to_numpy()
        polys = nation_polygons(keys)
        n = len(polys)
        pid = np.empty(n, np.int64)
        n_pts = np.empty(n, np.int64)
        area = np.empty(n, np.float64)
        perim = np.empty(n, np.float64)
        for i, p in enumerate(polys):
            pid[i] = p["poly_id"]
            d = 500.0 + (pid[i] % 4) * 250.0
            ring = np.asarray(polygon_rings(p["geometry"])[0], np.float64)
            buf = buffer_convex_ring(ring, d, steps_per_corner)
            a, per, _, _ = ring_metrics(buf)
            n_pts[i] = len(buf) - 1
            area[i] = round(a, 3)
            perim[i] = round(per, 6)
        return pa.table(
            {
                "poly_id": pa.array(pid),
                "n_pts": pa.array(n_pts),
                "buf_area": pa.array(area),
                "buf_perim": pa.array(perim),
            }
        )

    return ds.map_batches(metrics, batch_format="pyarrow")


def q_tile_fillnodata(sf_dir: str, n_tiles: int = 8, nodata_below: int = 32):
    """Fill nodata from the nearest valid pixel (the gdal_fillnodata
    analog, nearest-neighbor mode): pixels below ``nodata_below`` take
    the value of the nearest pixel at-or-above it, nearest by squared
    Euclidean distance with ties broken to the smallest linear source
    index — the deterministic total order the packed-key
    nearest-feature transform (kernels/distance.py) and the twin's
    ``min(d2 * 2^20 + idx)`` both realize, so fill sums AND chosen
    source indices are bit-exact."""
    from gdal_boots_ray.kernels.distance import nearest_feature
    from gdal_boots_ray.stages.decode import batch_pixel_views

    def first_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keep = np.array([int(i.split("-")[1]) < n_tiles for i in ids])
        return batch.filter(pa.array(keep))

    ds = _tiles_dataset(sf_dir, decode=True, pre_decode_filter=first_keys)

    def fill(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        rows = {"image_id": [], "n_filled": [], "sum_fill": [], "sum_src": []}
        for i, img in enumerate(views):
            b0 = img if img.ndim == 2 else img[0]
            valid = b0 >= nodata_below
            if not valid.any() or valid.all():
                continue
            _, src = nearest_feature(valid)
            hole = ~valid
            fills = b0.ravel()[src[hole]].astype(np.int64)
            rows["image_id"].append(ids[i])
            rows["n_filled"].append(int(hole.sum()))
            rows["sum_fill"].append(int(fills.sum()))
            rows["sum_src"].append(int(src[hole].sum()))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "n_filled": pa.array(rows["n_filled"], pa.int64()),
                "sum_fill": pa.array(rows["sum_fill"], pa.int64()),
                "sum_src": pa.array(rows["sum_src"], pa.int64()),
            }
        )

    return ds.map_batches(fill, batch_format="pyarrow")


def q_zorder_partitions(sf_dir: str, block_shift: int = 6):
    """Z-order clustering key over the tile grid — the
    locality-preserving partitioning a columnar image table (the
    north star's Lance layout) sorts on: tiles map to a Morton key
    from their grid position (derived from each tile's geotransform,
    not its id), and ``morton >> block_shift`` is the fragment
    assignment.  The per-fragment (count, min, max) ranges this
    reports are exactly the scan-pruning metadata a bbox query would
    consult; contiguous, non-overlapping ranges are what make the
    layout prunable.  Twin replays the bit interleave with SQL
    shift/mask arithmetic."""
    from ray.data.aggregate import Count, Max, Min

    from gdal_boots_ray.kernels.cells import morton_interleave2
    from gdal_boots_ray.sources.fixtures import TILE_STEP, TILE_X0, TILE_Y0

    ds = _tiles_dataset(sf_dir, decode=False)
    step = TILE_STEP

    def add_key(batch: pa.Table) -> pa.Table:
        gt = np.asarray(batch.column("gt").to_pylist(), np.float64)
        col = np.rint((gt[:, 2] - TILE_X0) / step).astype(np.int64)
        row = np.rint((TILE_Y0 - gt[:, 5]) / step).astype(np.int64)
        morton = morton_interleave2(col, row)
        return pa.table(
            {
                "partition": pa.array(morton >> block_shift),
                "morton": pa.array(morton),
            }
        )

    out = ds.map_batches(add_key, batch_format="pyarrow").groupby("partition").aggregate(
        Count(alias_name="n_tiles"),
        Min("morton", alias_name="min_morton"),
        Max("morton", alias_name="max_morton"),
    )
    return out


def q_band_math(sf_dir: str):
    """Raster band algebra (the gdal_calc analog; reference reaches
    band math through numpy on RasterDataset slices, gdal.py
    __getitem__/__setitem__): 2-band tiles through the real
    encode/decode chain, per-pixel normalized difference
    (b1 - b0) / (b1 + b0) — the NDVI shape — reduced per tile to a
    mean plus integer-exact sign counts.  The 2-band fixture offsets
    band 1 by +7 mod 256, so the difference is +7 except where the
    base field wraps (-249): the sign counts pin the wrap handling
    exactly."""
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import synth_images_batch
    from gdal_boots_ray.stages.decode import DecodeImages, batch_pixel_views

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey"])
    ds = ds.map_batches(
        lambda b: synth_images_batch(b.column("p_partkey").to_numpy(), bands=2),
        batch_format="pyarrow",
        batch_size=256,
    )
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), batch_size=128)

    def ndiff(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        n_pos = np.empty(n, np.int64)
        n_neg = np.empty(n, np.int64)
        mean_nd = np.empty(n, np.float64)
        for i, img in enumerate(views):
            assert img.ndim == 3 and img.shape[0] == 2, f"expected 2 bands, got {img.shape}"
            b0 = img[0].astype(np.int64)
            b1 = img[1].astype(np.int64)
            nd = (b1 - b0) / (b1 + b0)
            n_px[i] = nd.size
            n_pos[i] = int((b1 > b0).sum())
            n_neg[i] = int((b1 < b0).sum())
            mean_nd[i] = round(float(nd.mean()), 6)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "n_pos": pa.array(n_pos),
                "n_neg": pa.array(n_neg),
                "mean_nd": pa.array(mean_nd),
            }
        )

    return ds.map_batches(ndiff, batch_format="pyarrow")


def q_pansharpen(sf_dir: str):
    """gdal_pansharpen analog (Brovey fusion): a 3-band multispectral
    image at (w, h) fused with a panchromatic band at 2x resolution
    (2w, 2h).  MS upsamples by nearest (pixel replication), the pan
    ratio is applied per band with INTEGER floor math —
    ``out_b = (pan * ms_b * 3) // (ms0 + ms1 + ms2)`` — so the twin
    replays the whole fusion from the two closed-form fields
    (ms band b: (x*31 + y*17 + k + b*7) %% 256; pan:
    (X*29 + Y*13 + k) %% 256; the pseudo-pan sum is never 0 because
    the three band offsets 0/7/14 cannot all vanish mod 256).  MS
    rows go through the real decode chain; the pan band is the
    deterministic hi-res fixture synthesized in-task.  Per (image,
    band): BIGINT sum of fused values + pixel count.  Pure map stage,
    no exchange."""
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import synth_images_batch
    from gdal_boots_ray.stages.decode import DecodeImages, batch_pixel_views

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey"])
    ds = ds.map_batches(
        lambda b: synth_images_batch(b.column("p_partkey").to_numpy(), bands=3),
        batch_format="pyarrow",
        batch_size=256,
    )
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), batch_size=128)

    def fuse(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        sums = np.empty((n, 3), np.int64)
        n_px = np.empty(n, np.int64)
        for i, img in enumerate(views):
            assert img.ndim == 3 and img.shape[0] == 3, f"expected 3 bands, got {img.shape}"
            k = int(ids[i].split("-")[1])
            h, w = img.shape[1:]
            X = np.arange(2 * w, dtype=np.int64)[None, :]
            Y = np.arange(2 * h, dtype=np.int64)[:, None]
            pan = (X * 29 + Y * 13 + k) % 256
            ms_up = img.astype(np.int64)[:, Y // 2, X // 2]  # nearest upsample
            pseudo = ms_up.sum(axis=0)
            for b in range(3):
                sums[i, b] = int(((pan * ms_up[b] * 3) // pseudo).sum())
            n_px[i] = pan.size
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "sum_b0": pa.array(sums[:, 0]),
                "sum_b1": pa.array(sums[:, 1]),
                "sum_b2": pa.array(sums[:, 2]),
                "n_px": pa.array(n_px),
            }
        )

    return ds.map_batches(fuse, batch_format="pyarrow")


def q_composite_median(sf_dir: str):
    """Temporal median composite (the cloud-free Landsat/Sentinel
    compositing step — THE classic remote-sensing reduction at
    archive scale): three co-registered acquisitions of each tile
    (t-th field ``(x*31 + y*17 + k + t*37) % 256``; t=0 goes through
    the real decode chain, t=1/2 are the deterministic co-registered
    fixtures synthesized in-task), reduced per pixel to the exact
    integer median (median of 3 = a+b+c - min - max).  Per image:
    BIGINT sum of the composite + pixel count.  Pure map stage — at
    archive scale acquisitions co-locate by tile key, so the
    composite is a per-group reduction with no pixel shuffle."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def composite(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        sum_med = np.empty(n, np.int64)
        for i, img in enumerate(views):
            a = (img if img.ndim == 2 else img[0]).astype(np.int64)
            b = (a + 37) % 256
            c = (a + 74) % 256
            med = a + b + c - np.maximum(np.maximum(a, b), c) - np.minimum(np.minimum(a, b), c)
            n_px[i] = med.size
            sum_med[i] = int(med.sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "sum_med": pa.array(sum_med),
            }
        )

    return ds.map_batches(composite, batch_format="pyarrow")


def q_tile_temporal_interp(sf_dir: str, n_tiles: int = 16, n_epochs: int = 5):
    """Per-pixel temporal gap-fill across a co-registered acquisition
    stack — the cloud-masked time-series interpolation (Landsat/MODIS
    gap filling) that complements ``composite_median``'s reduction:
    epoch t of each tile is the deterministic fixture ``(a + 37t) %
    256`` (t=0 through the real decode chain), a slot is cloud-masked
    when ``(7a + 13t) % 10 < 3`` (at most 3 of 5 slots per pixel),
    and each masked slot is filled by LINEAR interpolation between
    its nearest valid neighbors in time (constant extrapolation at
    the ends), in integer milli-units so the twin's replay is exact.
    Pure map stage: acquisitions co-locate by tile key at archive
    scale, so no pixel ever crosses the wire — per image only
    (n_interp, sum_interp, n_px) leave the task."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    def first_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keep = np.array([int(i.split("-")[1]) < n_tiles for i in ids])
        return batch.filter(pa.array(keep))

    ds = _tiles_dataset(sf_dir, decode=True, pre_decode_filter=first_keys)

    def interp(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        n_interp = np.empty(n, np.int64)
        sum_interp = np.empty(n, np.int64)
        t = np.arange(n_epochs, dtype=np.int64)[:, None, None]
        for i, img in enumerate(views):
            a = (img if img.ndim == 2 else img[0]).astype(np.int64)[None]
            v = (a + 37 * t) % 256
            valid = (7 * a + 13 * t) % 10 >= 3
            # nearest valid epoch before/after each slot (ffill/bfill)
            tp = np.maximum.accumulate(np.where(valid, t, -1), axis=0)
            tn = np.minimum.accumulate(
                np.where(valid, t, n_epochs + 1)[::-1], axis=0
            )[::-1]
            vp = np.take_along_axis(v, np.clip(tp, 0, None), axis=0)
            vn = np.take_along_axis(v, np.clip(tn, None, n_epochs - 1), axis=0)
            lin = np.floor(
                vp * 1000.0 + (vn - vp) * 1000.0 * (t - tp) / np.where(tn > tp, tn - tp, 1)
                + 0.5
            ).astype(np.int64)
            fill = np.where(tp < 0, vn * 1000, np.where(tn > n_epochs - 1, vp * 1000, lin))
            hole = ~valid
            n_px[i] = a[0].size
            n_interp[i] = int(hole.sum())
            sum_interp[i] = int(fill[hole].sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "n_interp": pa.array(n_interp),
                "sum_interp": pa.array(sum_interp),
            }
        )

    return ds.map_batches(interp, batch_format="pyarrow")


def q_tile_morphology(sf_dir: str):
    """Binary morphology (the mask clean-up pass cloud/water masks
    get): threshold band 0 at 128 (the twin's fixed constant), then
    3x3 EROSION (all nine
    in the window set) and DILATION (any of nine set) over interior
    pixels — pure boolean stencils, integer-exact.  Per image: mask /
    eroded / dilated population counts; the twin replays the nine
    closed-form neighbor conditions directly.  Nine-shift vectorized,
    no exchange."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def morph(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_mask = np.empty(n, np.int64)
        n_eroded = np.empty(n, np.int64)
        n_dilated = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = img if img.ndim == 2 else img[0]
            m = b0 >= 128
            win = np.lib.stride_tricks.sliding_window_view(m, (3, 3))
            er = win.all(axis=(2, 3))
            di = win.any(axis=(2, 3))
            n_mask[i] = int(m[1:-1, 1:-1].sum())
            n_eroded[i] = int(er.sum())
            n_dilated[i] = int(di.sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_mask": pa.array(n_mask),
                "n_eroded": pa.array(n_eroded),
                "n_dilated": pa.array(n_dilated),
            }
        )

    return ds.map_batches(morph, batch_format="pyarrow")


def q_flow_d8(sf_dir: str):
    """D8 flow direction (the GRASS r.watershed / ArcGIS FlowDirection
    primitive): every interior pixel drains to the steepest-drop
    neighbor, cardinal drops weighted 1 and diagonal drops 1/sqrt(2)
    — compared EXACTLY as integers via 2*d^2 (cardinal) vs d^2
    (diagonal), order-preserving for positive drops, no float slope.
    Codes 1..8 in [E, SE, S, SW, W, NW, N, NE] priority order (ties
    to the lowest code); 0 = pit/flat (no positive drop).  Per image:
    count of pixels per code — the twin replays every neighbor value
    from the closed-form field and the same comparison ladder.
    Embarrassingly parallel nine-shift stencil, no exchange."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)
    # (dx, dy, diagonal?) in priority order E, SE, S, SW, W, NW, N, NE
    dirs = [(1, 0, False), (1, 1, True), (0, 1, False), (-1, 1, True),
            (-1, 0, False), (-1, -1, True), (0, -1, False), (1, -1, True)]

    def d8(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        out_id, out_code, out_cnt = [], [], []
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            c = b0[1:-1, 1:-1]
            scores = np.empty((8,) + c.shape, np.int64)
            for di, (dx, dy, diag) in enumerate(dirs):
                nb = b0[1 + dy : b0.shape[0] - 1 + dy, 1 + dx : b0.shape[1] - 1 + dx]
                d = c - nb
                s = (d * d) if diag else (2 * d * d)
                scores[di] = np.where(d > 0, s, -1)
            m = scores.max(axis=0)
            code = np.where(m < 0, 0, np.argmax(scores == m[None], axis=0) + 1)
            cnt = np.bincount(code.ravel(), minlength=9)
            nz = np.flatnonzero(cnt)
            out_id.extend([ids[i]] * len(nz))
            out_code.extend(nz.tolist())
            out_cnt.extend(cnt[nz].tolist())
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "d8": pa.array(out_code, pa.int64()),
                "cnt": pa.array(out_cnt, pa.int64()),
            }
        )

    return ds.map_batches(d8, batch_format="pyarrow")


def q_tile_tpi(sf_dir: str):
    """Riley-exact terrain ruggedness + ridge census.  Complements
    ``tile_ruggedness`` (which reduces the L1 proxy sum|dz| — gdaldem
    ``-alg`` Wilson): here TRI is Riley's ORIGINAL definition, the
    sum of SQUARED neighbor differences (the integer core of
    sqrt(sum dz^2), gdaldem's default TRI since 3.3), plus the
    landform classification census TPI is actually used for: the
    per-tile count of ridge pixels (TPI > 0, i.e. 8*c > sum of
    neighbors).  Per image: interior count, ridge count, signed TPI
    sum, squared-TRI sum, roughness sum — all integer-exact, so the
    DuckDB twin replays the eight closed-form neighbor taps of the
    synthesized field directly.  Nine-shift vectorized stencil, pure
    map, no exchange (gdaldem analog beyond the reference surface)."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)

    def tpi(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_interior = np.empty(n, np.int64)
        n_ridge = np.empty(n, np.int64)
        tpi_sum = np.empty(n, np.int64)
        tri_sum = np.empty(n, np.int64)
        rough_sum = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = (img if img.ndim == 2 else img[0]).astype(np.int64)
            win = np.lib.stride_tricks.sliding_window_view(b0, (3, 3))
            c = b0[1:-1, 1:-1]
            s8 = win.sum(axis=(2, 3)) - c
            t = 8 * c - s8
            d = win - c[..., None, None]  # center tap contributes 0
            n_interior[i] = c.size
            n_ridge[i] = int((t > 0).sum())
            tpi_sum[i] = int(t.sum())
            tri_sum[i] = int((d * d).sum())
            rough_sum[i] = int((win.max(axis=(2, 3)) - win.min(axis=(2, 3))).sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_interior": pa.array(n_interior),
                "n_ridge": pa.array(n_ridge),
                "tpi_sum": pa.array(tpi_sum),
                "tri_sum": pa.array(tri_sum),
                "rough_sum": pa.array(rough_sum),
            }
        )

    return ds.map_batches(tpi, batch_format="pyarrow")


def q_hist_match(sf_dir: str):
    """Histogram matching (radiometric normalization — the
    cross-sensor balancing step mosaics need): band 0 of each 2-band
    tile is remapped to band 1's distribution through the exact
    integer CDF rule ``mapped(v) = min u with cdfB(u) >= cdfA(v)``
    (numpy: searchsorted(cdfB, cdfA, 'left'); same tile so the pixel
    counts cancel).  The +7-mod-256 band offset makes the wrap region
    a genuinely non-identity mapping.  Twin replays the rule with a
    plateau-deduplicated ASOF join over the per-image CDFs.  Per
    image: n_px + BIGINT sum of matched values.  Pure map stage."""
    import ray.data as rd

    from gdal_boots_ray.sources.fixtures import synth_images_batch
    from gdal_boots_ray.stages.decode import DecodeImages, batch_pixel_views

    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey"])
    ds = ds.map_batches(
        lambda b: synth_images_batch(b.column("p_partkey").to_numpy(), bands=2),
        batch_format="pyarrow",
        batch_size=256,
    )
    ds = ds.map_batches(DecodeImages, batch_format="pyarrow", concurrency=(1, 4), batch_size=128)

    def match(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        n_px = np.empty(n, np.int64)
        sum_m = np.empty(n, np.int64)
        for i, img in enumerate(views):
            assert img.ndim == 3 and img.shape[0] == 2
            ha = np.bincount(img[0].ravel(), minlength=256).astype(np.int64)
            hb = np.bincount(img[1].ravel(), minlength=256).astype(np.int64)
            cdfa = np.cumsum(ha)
            cdfb = np.cumsum(hb)
            mapped = np.searchsorted(cdfb, cdfa, side="left")
            n_px[i] = img[0].size
            sum_m[i] = int((ha * mapped).sum())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(n_px),
                "sum_matched": pa.array(sum_m),
            }
        )

    return ds.map_batches(match, batch_format="pyarrow")


def q_zonal_majority(sf_dir: str):
    """Zonal MAJORITY (the modal statistic of ArcGIS zonal stats /
    QGIS majority): per polygon zone, the most frequent band-0 value
    among covered pixel centers, ties broken by the smallest value.
    Plan: the same broadcast PIP join + pixel-center mask as
    zonal_stats, but each (tile, poly) pair emits its NONZERO
    histogram bins as (poly_id, v, cnt) rows — a 256-row-bounded
    partial, so the exchange carries histograms, never pixels — then
    one bucketed (poly_id, v) sum and a per-poly argmax over <= 256
    rows.  Integer-exact twin."""
    import pyarrow.parquet as pq

    from gdal_boots_ray.sources.fixtures import nation_polygons
    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin, put_polygons
    from gdal_boots_ray.stages.zonal import select_zone_pixels

    import ray

    nk = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    polys = nation_polygons(nk)
    poly_ref = put_polygons(polys)

    ds = _with_bounds(_tiles_dataset(sf_dir, decode=True))
    joined = ds.map_batches(
        BroadcastPIPJoin,
        batch_format="pyarrow",
        fn_constructor_kwargs={"polygons_ref": poly_ref},
        concurrency=(1, 4),
        num_cpus=1,
    )

    def hist_rows(batch: pa.Table, _cache={}) -> pa.Table:
        from gdal_boots_ray.stages.decode import batch_pixel_views

        pmap = _cache.get("p")
        if pmap is None:
            pmap = _cache["p"] = dict(ray.get(poly_ref))
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        hs = batch.column("h").to_numpy()
        ws = batch.column("w").to_numpy()
        views = batch_pixel_views(batch)
        pids = batch.column("poly_id").to_numpy()
        out_pid, out_v, out_cnt = [], [], []
        for i in range(batch.num_rows):
            rings = pmap.get(int(pids[i]))
            if rings is None:
                continue
            img = views[i]
            band0 = img if img.ndim == 2 else img[0]
            sel = select_zone_pixels(rings, band0, (int(hs[i]), int(ws[i])), gts[i])
            if not sel.size:
                continue
            cnt = np.bincount(sel.astype(np.int64), minlength=0)
            nz = np.flatnonzero(cnt)
            out_pid.append(np.full(len(nz), int(pids[i]), np.int64))
            out_v.append(nz.astype(np.int64))
            out_cnt.append(cnt[nz].astype(np.int64))
        if not out_pid:
            return pa.table(
                {
                    "poly_id": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "poly_id": pa.array(np.concatenate(out_pid)),
                "v": pa.array(np.concatenate(out_v)),
                "cnt": pa.array(np.concatenate(out_cnt)),
            }
        )

    parts = joined.map_batches(hist_rows, batch_format="pyarrow", num_cpus=1)
    hist = bucketed_aggregate(parts, ["poly_id", "v"], {"cnt": "sum"})

    def majority(g: pa.Table) -> pa.Table:
        pid = g.column("poly_id").to_numpy()
        v = g.column("v").to_numpy()
        cnt = g.column("cnt").to_numpy()
        out_pid, out_v, out_cnt = [], [], []
        for p in np.unique(pid):
            m = pid == p
            mx = cnt[m].max()
            out_pid.append(int(p))
            out_v.append(int(v[m][cnt[m] == mx].min()))
            out_cnt.append(int(mx))
        return pa.table(
            {
                "poly_id": pa.array(out_pid, pa.int64()),
                "majority_v": pa.array(out_v, pa.int64()),
                "majority_cnt": pa.array(out_cnt, pa.int64()),
            }
        )

    return hist.groupby("poly_id").map_groups(majority, batch_format="pyarrow")


def q_zonal_median(sf_dir: str):
    """Zonal QUARTILES (ArcGIS zonal stats MEDIAN / PCT): per polygon
    zone, exact p25 / median / p75 of the covered pixel-center values
    plus the pixel count.  Identical plan to ``zonal_majority`` —
    the exchange carries 256-bounded (poly_id, v, cnt) histogram
    partials, never pixels — with a weighted cumulative walk as the
    per-poly finish (percentile_disc semantics: smallest value whose
    cumulative count reaches q*n, the rule the DuckDB twin computes
    natively).  Integer-exact."""
    import pyarrow.parquet as pq

    from gdal_boots_ray.sources.fixtures import nation_polygons
    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin, put_polygons
    from gdal_boots_ray.stages.zonal import select_zone_pixels

    import ray

    nk = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    polys = nation_polygons(nk)
    poly_ref = put_polygons(polys)

    ds = _with_bounds(_tiles_dataset(sf_dir, decode=True))
    joined = ds.map_batches(
        BroadcastPIPJoin,
        batch_format="pyarrow",
        fn_constructor_kwargs={"polygons_ref": poly_ref},
        concurrency=(1, 4),
        num_cpus=1,
    )

    def hist_rows(batch: pa.Table, _cache={}) -> pa.Table:
        from gdal_boots_ray.stages.decode import batch_pixel_views

        pmap = _cache.get("p")
        if pmap is None:
            pmap = _cache["p"] = dict(ray.get(poly_ref))
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        hs = batch.column("h").to_numpy()
        ws = batch.column("w").to_numpy()
        views = batch_pixel_views(batch)
        pids = batch.column("poly_id").to_numpy()
        out_pid, out_v, out_cnt = [], [], []
        for i in range(batch.num_rows):
            rings = pmap.get(int(pids[i]))
            if rings is None:
                continue
            img = views[i]
            band0 = img if img.ndim == 2 else img[0]
            sel = select_zone_pixels(rings, band0, (int(hs[i]), int(ws[i])), gts[i])
            if not sel.size:
                continue
            cnt = np.bincount(sel.astype(np.int64), minlength=0)
            nz = np.flatnonzero(cnt)
            out_pid.append(np.full(len(nz), int(pids[i]), np.int64))
            out_v.append(nz.astype(np.int64))
            out_cnt.append(cnt[nz].astype(np.int64))
        if not out_pid:
            return pa.table(
                {
                    "poly_id": pa.array([], pa.int64()),
                    "v": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "poly_id": pa.array(np.concatenate(out_pid)),
                "v": pa.array(np.concatenate(out_v)),
                "cnt": pa.array(np.concatenate(out_cnt)),
            }
        )

    parts = joined.map_batches(hist_rows, batch_format="pyarrow", num_cpus=1)
    hist = bucketed_aggregate(parts, ["poly_id", "v"], {"cnt": "sum"})

    def quartiles(g: pa.Table) -> pa.Table:
        pid = g.column("poly_id").to_numpy()
        v = g.column("v").to_numpy()
        cnt = g.column("cnt").to_numpy()
        out = {"poly_id": [], "p25": [], "median": [], "p75": [], "n_px": []}
        for p in np.unique(pid):
            m = pid == p
            order = np.argsort(v[m])
            vv = v[m][order]
            cum = np.cumsum(cnt[m][order])
            n = int(cum[-1])
            qs = []
            for q in (0.25, 0.5, 0.75):
                idx = int(np.searchsorted(cum, q * n, side="left"))
                qs.append(int(vv[min(idx, len(vv) - 1)]))
            out["poly_id"].append(int(p))
            out["p25"].append(qs[0])
            out["median"].append(qs[1])
            out["p75"].append(qs[2])
            out["n_px"].append(n)
        return pa.table({k: pa.array(vals, pa.int64()) for k, vals in out.items()})

    return hist.groupby("poly_id").map_groups(quartiles, batch_format="pyarrow")


def q_event_funnel(sf_dir: str):
    """Ordered funnel analysis (the product-analytics sequence match:
    signup -> click -> purchase, each step STRICTLY after the
    previous one): per user, the funnel depth reached (0-3) and the
    microsecond timestamp of each completed step (-1 sentinel keeps
    the row integer-typed instead of NULL).  Step k's timestamp is
    the MINIMUM qualifying time given step k-1 — the standard
    earliest-completion funnel semantics.  Plan: one user-key
    exchange, per-user groups are tiny; integers end to end."""
    import pandas as pd

    ds = _read(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        t = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        et = g["event_type"].to_numpy()

        def step(kind, after):
            m = (et == kind) & (t > after)
            return int(t[m].min()) if m.any() else -1

        t1 = step("signup", np.iinfo(np.int64).min)
        t2 = step("click", t1) if t1 >= 0 else -1
        t3 = step("purchase", t2) if t2 >= 0 else -1
        depth = 3 if t3 >= 0 else 2 if t2 >= 0 else 1 if t1 >= 0 else 0
        return pd.DataFrame(
            {
                "user_id": [int(g["user_id"].iloc[0])],
                "depth": [depth],
                "t1_us": [t1],
                "t2_us": [t2],
                "t3_us": [t3],
            }
        )

    return ds.groupby("user_id").map_groups(funnel, batch_format="pandas")


def q_cohort_retention(sf_dir: str):
    """Weekly cohort retention — the product-analytics matrix
    (cohort_week x weeks-since-first-event -> distinct active users)
    behind every retention curve.  Plan: ONE user-key exchange
    (per-user groups are tiny) emits at most one (cohort_week,
    week_k) row per user-week — distinctness is by construction, so
    the final count is a bucketed SUM of 1s over a matrix-sized row
    set, never a count-distinct shuffle.  All integer (microsecond
    epochs, floor-divided into days then weeks), so the twin matches
    exactly."""
    import pandas as pd

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ds = _read(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def weeks(g: pd.DataFrame) -> pd.DataFrame:
        d = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // 86_400_000_000
        d0 = int(d.min())
        wk = np.unique((d - d0) // 7)
        return pd.DataFrame(
            {
                "cohort_week": np.full(len(wk), d0 // 7, np.int64),
                "week_k": wk.astype(np.int64),
                "n_users": np.ones(len(wk), np.int64),
            }
        )

    per_user = ds.groupby("user_id").map_groups(weeks, batch_format="pandas")
    out = bucketed_aggregate(per_user, ["cohort_week", "week_k"], {"n_users": "sum"})

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort_week": batch.column("cohort_week").cast(pa.int64()),
                "week_k": batch.column("week_k").cast(pa.int64()),
                "n_users": batch.column("n_users").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def q_point_poly_distance(sf_dir: str):
    """Nearest-feature distance (the ST_Distance / gdal_proximity-
    to-vector primitive): for every sample point, the euclidean
    distance to the nearest polygon (0 when inside), the nearest
    poly_id (ties: smallest d2 then smallest id) and round-6 metres.
    Plan: the 25-diamond table broadcasts (closure constant), each
    point batch evaluates point-to-segment distance over a (batch x
    poly x 4-segment) numpy panel — a pure map, no exchange; at 100
    TB the poly side stays a broadcast and points stream.  The twin
    replays the IDENTICAL IEEE expression tree (clamped projection
    onto each diamond edge, same parenthesization), so round-6
    distances hash-match."""
    import pyarrow.parquet as pq

    from gdal_boots_ray.sources.fixtures import nation_polygon_params

    nk = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    params = np.array([nation_polygon_params(int(n)) for n in nk], np.float64)  # (P, 4)
    pids_poly = np.asarray(nk, np.int64)
    # diamond edges as (sax, say) -> (sbx, sby) radius multipliers
    segs = np.array(
        [[-1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, -1, -1, 0]], np.float64
    )
    cx, cy, rx, ry = params[:, 0], params[:, 1], params[:, 2], params[:, 3]
    ax = cx[:, None] + segs[None, :, 0] * rx[:, None]  # (P, 4)
    ay = cy[:, None] + segs[None, :, 1] * ry[:, None]
    bx = cx[:, None] + segs[None, :, 2] * rx[:, None]
    by = cy[:, None] + segs[None, :, 3] * ry[:, None]
    ex, ey = bx - ax, by - ay
    ll = ex * ex + ey * ey

    pts = _points_dataset(sf_dir, id_col="pid")

    def nearest(batch: pa.Table) -> pa.Table:
        pid = batch.column("pid").to_numpy()
        px = batch.column("x").to_numpy()[:, None, None]  # (N, 1, 1)
        py = batch.column("y").to_numpy()[:, None, None]
        t = ((px - ax) * ex + (py - ay) * ey) / ll
        t = np.clip(t, 0.0, 1.0)
        dx = px - (ax + t * ex)
        dy = py - (ay + t * ey)
        d2 = (dx * dx + dy * dy).min(axis=2)  # (N, P)
        inside = (
            np.abs(px[:, :, 0] - cx) / rx + np.abs(py[:, :, 0] - cy) / ry
        ) < 1.0
        d2 = np.where(inside, 0.0, d2)
        # lexicographic (d2, poly_id) argmin, deterministic on ties
        best = np.lexsort((np.broadcast_to(pids_poly, d2.shape), d2), axis=1)[:, 0]
        rows = np.arange(len(pid))
        return pa.table(
            {
                "pid": pa.array(pid.astype(np.int64)),
                "nearest_poly": pa.array(pids_poly[best]),
                "dist_m": pa.array(np.round(np.sqrt(d2[rows, best]), 6)),
            }
        )

    return pts.map_batches(nearest, batch_format="pyarrow")


_RELIEF_BREAKS = (0, 64, 128, 192, 255)
_RELIEF_COLORS = ((0, 0, 128), (0, 128, 64), (32, 192, 0), (192, 128, 0), (255, 255, 255))


def _relief_sql(channel: int) -> str:
    """CASE ladder replaying the color-relief ramp for one channel.
    Uses floor(a / b) (float divide of small exact ints, then floor)
    because DuckDB's integer ``//`` truncates toward zero while numpy
    ``//`` floors — they differ on the ramp's negative slopes."""
    arms = []
    for s in range(len(_RELIEF_BREAKS) - 1):
        v0, v1 = _RELIEF_BREAKS[s], _RELIEF_BREAKS[s + 1]
        c0, c1 = _RELIEF_COLORS[s][channel], _RELIEF_COLORS[s + 1][channel]
        expr = f"{c0} + CAST(floor(({c1} - {c0}) * (v - {v0}) / {v1 - v0}.0) AS BIGINT)"
        arms.append(f"WHEN v < {v1} THEN {expr}" if s < len(_RELIEF_BREAKS) - 2 else f"ELSE {expr}")
    return "CASE " + " ".join(arms) + " END"


def q_color_relief(sf_dir: str):
    """gdaldem color-relief — the last gdaldem mode (slope/aspect/
    hillshade/TRI/TPI/roughness already covered): band-0 values map
    through a 5-breakpoint color ramp with linearly interpolated RGB,
    all in INTEGER floor math (c0 + (c1-c0)*(v-v0) // (v1-v0)) so the
    twin replays the ramp as a CASE ladder over the closed-form pixel
    field.  Per image: BIGINT channel sums + pixel count.  Pure map
    stage."""
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _tiles_dataset(sf_dir, decode=True)
    breaks = np.array(_RELIEF_BREAKS, np.int64)
    colors = np.array(_RELIEF_COLORS, np.int64)

    def relief(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        ids = batch.column("image_id").to_pylist()
        n = len(ids)
        sums = np.empty((n, 3), np.int64)
        n_px = np.empty(n, np.int64)
        for i in range(n):
            v = (views[i] if views[i].ndim == 2 else views[i][0]).astype(np.int64).ravel()
            seg = np.clip(np.searchsorted(breaks, v, side="right") - 1, 0, len(breaks) - 2)
            v0 = breaks[seg]
            v1 = breaks[seg + 1]
            for c in range(3):
                c0 = colors[seg, c]
                c1 = colors[seg + 1, c]
                ch = c0 + ((c1 - c0) * (v - v0)) // (v1 - v0)
                sums[i, c] = int(ch.sum())
            n_px[i] = v.size
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "sum_r": pa.array(sums[:, 0]),
                "sum_g": pa.array(sums[:, 1]),
                "sum_b": pa.array(sums[:, 2]),
                "n_px": pa.array(n_px),
            }
        )

    return ds.map_batches(relief, batch_format="pyarrow")


def q_tile_zxy(sf_dir: str, zoom: int = 12):
    """Web-mercator slippy-map tile key (the gdal2tiles / XYZ scheme,
    the sixth indexing family next to grid/S2/H3/geohash/Morton/
    Hilbert): tile-center 3857 coords to (z, x, y) at zoom 12 by the
    standard normalization against the web-mercator extent pi*a,
    packed as z<<40 | x<<20 | y.  The twin replays the same floor
    normalization; inputs are exact-integer 3857 coords so the float
    division is shape-identical on both sides."""
    ds = _with_bounds(_tiles_dataset(sf_dir, decode=False))
    half = np.pi * 6378137.0
    nz = 1 << zoom

    def zxy(batch: pa.Table) -> pa.Table:
        cx = batch.column("cx").to_numpy()
        cy = batch.column("cy").to_numpy()
        tx = np.floor((cx + half) / (2 * half) * nz).astype(np.int64)
        ty = np.floor((half - cy) / (2 * half) * nz).astype(np.int64)
        key = (np.int64(zoom) << 40) + (tx << 20) + ty
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "zxy": pa.array(key, pa.int64()),
            }
        )

    return ds.map_batches(zxy, batch_format="pyarrow")


def q_events_ntile(sf_dir: str, n_tiles_q: int = 4):
    """NTILE window function: per user, events ranked by
    (value, event_id) — the unique tie-break makes the bucket
    assignment deterministic — and dealt into 4 quartile buckets with
    SQL's NTILE sizing (first n % 4 buckets get the extra row);
    reduced to per-user per-quartile counts and value sums.  Runs as
    a bucketed per-user pass (users hash into a bounded number of
    groups, each group vectorized), never one Ray group per user."""
    import pandas as pd
    import ray.data as rd

    from gdal_boots_ray.stages.agg import exchange

    ev = _read(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"])

    def ntile_counts(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["user_id", "value", "event_id"], kind="mergesort")
        uid = d["user_id"].to_numpy()
        # position within each user's ordered run
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        runlen = np.diff(np.r_[starts, len(uid)])
        sizes = np.repeat(runlen, runlen)
        pos = np.arange(len(uid)) - np.repeat(starts, runlen)
        # SQL NTILE: first (n % k) buckets have ceil(n/k) rows
        k = n_tiles_q
        big = sizes % k
        per = sizes // k
        cut = big * (per + 1)
        tile = np.where(pos < cut, pos // np.maximum(per + 1, 1), big + (pos - cut) // np.maximum(per, 1)) + 1
        out = pd.DataFrame({"user_id": uid, "quartile": tile.astype(np.int64), "value": d["value"].to_numpy()})
        agg = out.groupby(["user_id", "quartile"], sort=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        ).reset_index()
        agg["sum_value"] = agg["sum_value"].round(6)
        return agg

    return exchange(ev, ["user_id"], ntile_counts, batch_format="pandas")


def q_tile_geohash(sf_dir: str, precision: int = 6):
    """Geohash cell index per tile — the third index family next to
    grid/S2/H3 (the classic string-keyed one): tile-center 3857
    coordinates to lon/lat by the spherical-Mercator closed form
    (the tile_bounds_4326 precedent), then the standard alternate-axis
    range halving to a base-32 string.  The twin replays the 30-bit
    walk as a recursive CTE with the identical midpoint comparisons
    and decodes the same text."""
    from gdal_boots_ray.kernels.cells import geohash_encode

    ds = _with_bounds(_tiles_dataset(sf_dir, decode=False))
    R = 6378137.0

    def gh(batch: pa.Table) -> pa.Table:
        import math

        # scalar glibc atan/exp (the tile_warp_bilinear precedent —
        # numpy's SIMD kernels can differ from DuckDB by ~1 ulp), then
        # snap to an integer nanodegree grid with the same
        # floor(x*1e9 + 0.5) on both sides: the walk's midpoint
        # comparisons then run on bit-identical doubles by
        # construction (np.round is half-even, DuckDB round half-away)
        _atan = np.frompyfunc(math.atan, 1, 1)
        _exp = np.frompyfunc(math.exp, 1, 1)
        cx = batch.column("cx").to_numpy()
        cy = batch.column("cy").to_numpy()
        lon = np.floor(np.degrees(cx / R) * 1e9 + 0.5) / 1e9
        lat_raw = np.degrees(2 * _atan(_exp(cy / R)).astype(np.float64) - np.pi / 2)
        lat = np.floor(lat_raw * 1e9 + 0.5) / 1e9
        s, v = geohash_encode(lon, lat, precision)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "geohash": pa.array(s.tolist(), pa.string()),
                "ghval": pa.array(v),
            }
        )

    return ds.map_batches(gh, batch_format="pyarrow")


def q_hilbert_partitions(sf_dir: str, block_shift: int = 6, bits: int = 16):
    """Hilbert-curve clustering key — the stronger-locality
    alternative to the Morton layout (zorder_partitions): consecutive
    Hilbert indices are always grid-adjacent, so a fragment of
    consecutive keys is one connected region (Morton's quadrant jumps
    can split a fragment across the map).  Same fragment-range report
    as the z-order query; the twin replays the rotate-and-reflect
    walk as a recursive CTE (the s2 cell oracle precedent).

    bits=16 (grid 65536^2) rather than the old 10: tile rows at
    sf>=0.2 exceed 1024 and would raise.  For in-range coords the
    extra leading iterations are zero-contribution swaps in pairs, so
    keys at small SF are unchanged (Hilbert even-bit extension)."""
    from ray.data.aggregate import Count, Max, Min

    from gdal_boots_ray.kernels.cells import hilbert_xy2d
    from gdal_boots_ray.sources.fixtures import TILE_STEP, TILE_X0, TILE_Y0

    ds = _tiles_dataset(sf_dir, decode=False)

    def add_key(batch: pa.Table) -> pa.Table:
        gt = np.asarray(batch.column("gt").to_pylist(), np.float64)
        col = np.rint((gt[:, 2] - TILE_X0) / TILE_STEP).astype(np.int64)
        row = np.rint((TILE_Y0 - gt[:, 5]) / TILE_STEP).astype(np.int64)
        key = hilbert_xy2d(col, row, bits)
        return pa.table(
            {
                "partition": pa.array(key >> block_shift),
                "hkey": pa.array(key),
            }
        )

    return ds.map_batches(add_key, batch_format="pyarrow").groupby("partition").aggregate(
        Count(alias_name="n_tiles"),
        Min("hkey", alias_name="min_hkey"),
        Max("hkey", alias_name="max_hkey"),
    )


_SIMHASH_SQL_CTE = r"""
        words AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        ),
        wh AS (
            SELECT doc_id, CAST('0x' || substring(md5(w), 1, 16) AS UBIGINT) AS h FROM words
        ),
        bits AS (
            SELECT doc_id, b.b AS bit,
                   sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
            FROM wh, (SELECT unnest(generate_series(0, 63)) AS b) b
            GROUP BY doc_id, b.b
        ),
        sh AS (
            SELECT doc_id,
                   sum(CASE WHEN acc > 0 THEN CAST(1 AS HUGEINT) << bit ELSE CAST(0 AS HUGEINT) END) AS us
            FROM bits GROUP BY doc_id
        ),
        sims AS (
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   CAST(CASE WHEN coalesce(us, 0) >= CAST(1 AS HUGEINT) << 63
                             THEN coalesce(us, 0) - (CAST(1 AS HUGEINT) << 64)
                             ELSE coalesce(us, 0) END AS BIGINT) AS simhash
            FROM documents d LEFT JOIN sh USING (doc_id)
        )
"""

def _md5_minhash_sql_cte() -> str:
    """DuckDB replay of MD5MinHashStage: same shingles, same md5-based
    hash, same mod-(2^31-1) permutations (constants embedded from the
    shared deterministic generator), same band-key mix."""
    from gdal_boots_ray.stages.textstages import _MD5MH_M, _MD5MH_MIX, md5_minhash_params

    a, b = md5_minhash_params(64)
    vals = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})" for i in range(64))
    return rf"""
        norm AS (
            SELECT doc_id, regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS t
            FROM documents WHERE doc_id < 1500
        ),
        shg AS (
            SELECT DISTINCT doc_id, substring(t, i.i, 5) AS s
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 4, 0))) AS i) i
        ),
        hs AS (
            SELECT doc_id,
                   CAST(CAST('0x' || substring(md5(s), 1, 16) AS UBIGINT) % {_MD5MH_M} AS BIGINT) AS h
            FROM shg
        ),
        perms(i, a, b) AS (VALUES {vals}),
        sigs AS (
            SELECT doc_id, p.i AS i, min((p.a * h + p.b) % {_MD5MH_M}) AS sig
            FROM hs, perms p GROUP BY doc_id, p.i
        ),
        bkeys AS (
            SELECT s0.doc_id,
                   ((s0.sig * {_MD5MH_MIX} + s1.sig) % 2147483648) + (s0.i // 2) * 4294967296 AS band_key
            FROM sigs s0 JOIN sigs s1 ON s1.doc_id = s0.doc_id AND s1.i = s0.i + 1
            WHERE s0.i % 2 = 0
        )
    """


# shared twin for every codec fidelity gate (lzw/zstd/lerc/webp):
# the closed-form pixel field, independent of which codec re-encodes it
_RECODE_STATS_SQL = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """

def _fld_tap(dx: int, dy: int) -> str:
    """Closed-form synthesized-field tap at offset (dx, dy) from
    (x, y) in image k — the same formula the TILE twins replay."""
    return f"(((x + ({dx})) * 31 + (y + ({dy})) * 17 + k) % 256)"


_N8 = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]
_TPI_S8 = " + ".join(_fld_tap(dx, dy) for dx, dy in _N8)
_TPI_TRI = " + ".join(
    f"({_fld_tap(0, 0)} - {_fld_tap(dx, dy)}) * ({_fld_tap(0, 0)} - {_fld_tap(dx, dy)})"
    for dx, dy in _N8
)
_TPI_ALL9 = ", ".join([_fld_tap(0, 0)] + [_fld_tap(dx, dy) for dx, dy in _N8])

ORACLE_SQL: Dict[str, str] = {
    "tile_tpi": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.h - 2 AS INT))) AS y) gy
        ),
        s AS (
            SELECT image_id,
                   8 * {_fld_tap(0, 0)} - ({_TPI_S8}) AS tpi,
                   {_TPI_TRI} AS tri,
                   greatest({_TPI_ALL9}) - least({_TPI_ALL9}) AS rough
            FROM px
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_interior,
               CAST(sum(CASE WHEN tpi > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_ridge,
               CAST(sum(tpi) AS BIGINT) AS tpi_sum,
               CAST(sum(tri) AS BIGINT) AS tri_sum,
               CAST(sum(rough) AS BIGINT) AS rough_sum
        FROM s GROUP BY image_id
    """,
    "tile_bounds": f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id, x0 AS minx, y0 - h * 10.0 AS miny, x0 + w * 10.0 AS maxx, y0 AS maxy
        FROM tiles
    """,
    "tile_bounds_4326": f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id,
            round(degrees(x0 / 6378137.0), 9) AS lon_min,
            round(degrees(2 * atan(exp((y0 - h * 10.0) / 6378137.0)) - pi() / 2), 9) AS lat_min,
            round(degrees((x0 + w * 10.0) / 6378137.0), 9) AS lon_max,
            round(degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2), 9) AS lat_max
        FROM tiles
    """,
    "tile_bounds_3395": f"""
        WITH {TILE_SQL_CTE},
        ll AS (
            SELECT image_id,
                degrees(x0 / 6378137.0) AS lon_min,
                degrees(2 * atan(exp((y0 - h * 10.0) / 6378137.0)) - pi() / 2) AS lat_min,
                degrees((x0 + w * 10.0) / 6378137.0) AS lon_max,
                degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2) AS lat_max
            FROM tiles
        )
        SELECT image_id,
            round(6378137.0 * radians(lon_min), 6) AS mx_min,
            round(6378137.0 * (ln(tan(pi() / 4 + radians(lat_min) / 2))
                + 0.0818191908426215 / 2 * ln((1 - 0.0818191908426215 * sin(radians(lat_min)))
                                            / (1 + 0.0818191908426215 * sin(radians(lat_min))))), 6) AS my_min,
            round(6378137.0 * radians(lon_max), 6) AS mx_max,
            round(6378137.0 * (ln(tan(pi() / 4 + radians(lat_max) / 2))
                + 0.0818191908426215 / 2 * ln((1 - 0.0818191908426215 * sin(radians(lat_max)))
                                            / (1 + 0.0818191908426215 * sin(radians(lat_max))))), 6) AS my_max
        FROM ll
    """,
    "tile_grid_cells": f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id,
            (CAST(floor((x0 + w * 10.0 / 2) / 1000.0) AS BIGINT) + 524288) * 1048576
            + (CAST(floor((y0 - h * 10.0 / 2) / 1000.0) AS BIGINT) + 524288) AS cell
        FROM tiles
    """,
    "tile_s2_cells": f"""
        WITH RECURSIVE {TILE_SQL_CTE},
        ll AS (
            SELECT image_id,
                degrees((x0 + w * 10.0 / 2) / 6378137.0) AS lon,
                degrees(2 * atan(exp((y0 - h * 10.0 / 2) / 6378137.0)) - pi() / 2) AS lat
            FROM tiles
        ),
        xyz AS (SELECT image_id, cos(radians(lat))*cos(radians(lon)) AS x,
                       cos(radians(lat))*sin(radians(lon)) AS y, sin(radians(lat)) AS z FROM ll),
        fuv AS (
            SELECT image_id,
                CASE WHEN abs(x) >= abs(y) AND abs(x) >= abs(z) THEN (CASE WHEN x < 0 THEN 3 ELSE 0 END)
                     WHEN abs(y) >= abs(z) THEN (CASE WHEN y < 0 THEN 4 ELSE 1 END)
                     ELSE (CASE WHEN z < 0 THEN 5 ELSE 2 END) END AS face, x, y, z
            FROM xyz),
        uv AS (
            SELECT image_id, face,
                CASE face WHEN 0 THEN y/x WHEN 1 THEN -x/y WHEN 2 THEN -x/z
                          WHEN 3 THEN z/x WHEN 4 THEN z/y ELSE -y/z END AS u,
                CASE face WHEN 0 THEN z/x WHEN 1 THEN z/y WHEN 2 THEN -y/z
                          WHEN 3 THEN y/x WHEN 4 THEN -x/y ELSE -x/z END AS v
            FROM fuv),
        ij AS (
            SELECT image_id, face,
                CAST(least(greatest(floor((CASE WHEN u >= 0 THEN 0.5*sqrt(1+3*u)
                     ELSE 1-0.5*sqrt(1-3*u) END) * 1073741824.0), 0), 1073741823) AS BIGINT) AS i,
                CAST(least(greatest(floor((CASE WHEN v >= 0 THEN 0.5*sqrt(1+3*v)
                     ELSE 1-0.5*sqrt(1-3*v) END) * 1073741824.0), 0), 1073741823) AS BIGINT) AS j
            FROM uv),
        walk AS (
            SELECT image_id, face, i, j, 29 AS k, face % 2 AS orient, CAST(0 AS BIGINT) AS pos FROM ij
            UNION ALL
            SELECT image_id, face, i, j, k - 1,
                xor(orient, CASE p WHEN 0 THEN 1 WHEN 1 THEN 0 WHEN 2 THEN 0 ELSE 3 END) AS orient,
                pos * 4 + p AS pos
            FROM (
                SELECT *,
                    CASE orient
                      WHEN 0 THEN (CASE ij2 WHEN 0 THEN 0 WHEN 1 THEN 1 WHEN 2 THEN 3 ELSE 2 END)
                      WHEN 1 THEN (CASE ij2 WHEN 0 THEN 0 WHEN 1 THEN 3 WHEN 2 THEN 1 ELSE 2 END)
                      WHEN 2 THEN (CASE ij2 WHEN 0 THEN 2 WHEN 1 THEN 3 WHEN 2 THEN 1 ELSE 0 END)
                      ELSE        (CASE ij2 WHEN 0 THEN 2 WHEN 1 THEN 1 WHEN 2 THEN 3 ELSE 0 END)
                    END AS p
                FROM (SELECT *, ((i >> k) & 1) * 2 + ((j >> k) & 1) AS ij2 FROM walk WHERE k >= 21)
            ))
        SELECT image_id,
            ((CASE WHEN face >= 4 THEN CAST(face - 8 AS BIGINT) ELSE CAST(face AS BIGINT) END)
             * 2305843009213693952) + (pos * 8796093022208) + 4398046511104 AS s2_cell
        FROM walk WHERE k = 20
    """,
    "tile_h3_cells": _h3x_sql(),
    "tile_pip_join": f"""
        WITH {TILE_SQL_CTE}, {POLY_SQL_CTE}
        SELECT poly_id, image_id
        FROM tiles, polys
        WHERE abs(x0 + w * 10.0 / 2 - pcx) / rx + abs(y0 - h * 10.0 / 2 - pcy) / ry < 1.0
    """,
    "donut_pip_join": f"""
        WITH {TILE_SQL_CTE}, {POLY_SQL_CTE}
        SELECT poly_id, CAST(count(*) AS BIGINT) AS n_tiles
        FROM tiles, polys
        WHERE abs(x0 + w * 10.0 / 2 - pcx) / rx + abs(y0 - h * 10.0 / 2 - pcy) / ry < 1.0
          AND NOT (abs(x0 + w * 10.0 / 2 - pcx) / (rx * 0.5)
                   + abs(y0 - h * 10.0 / 2 - pcy) / (ry * 0.5) < 1.0)
        GROUP BY poly_id
    """,
    "points_pip_join": f"""
        WITH {POINT_SQL_CTE}, {POLY_SQL_CTE}
        SELECT pid, poly_id
        FROM pt_coords, polys
        WHERE abs(px - pcx) / rx + abs(py - pcy) / ry < 1.0
    """,
    "parts_pip_join": f"""
        WITH {POINT_SQL_CTE},
        ppolys AS (
            SELECT CAST(p_partkey AS BIGINT) AS poly_id,
                600000.0 + (p_partkey % 40) * 1000.0 + 500.0 AS pcx,
                5700000.0 - (p_partkey // 40) * 1000.0 - 500.0 AS pcy,
                417.0 + (p_partkey % 5) * 211.0 AS rx,
                389.0 + (p_partkey % 7) * 157.0 AS ry
            FROM part
        )
        SELECT pid, poly_id
        FROM pt_coords, ppolys
        WHERE abs(px - pcx) / rx + abs(py - pcy) / ry < 1.0
    """,
    "point_values": """
        SELECT CAST(c_custkey AS BIGINT) AS pid,
            CAST(((c_custkey % 23) * 31 + (c_custkey % 19) * 17
                  + (c_custkey % (SELECT count(*) FROM part))) % 256 AS BIGINT) AS value
        FROM customer
    """,
    "grid_interp": f"""
        WITH {POINT_SQL_CTE},
        dims AS (
            SELECT CAST(ceil(count(*) / 40.0) AS BIGINT) AS rows FROM part
        ),
        cells AS (
            SELECT CAST(600000 + gx.i * 500 + 250 AS BIGINT) AS cx,
                   CAST(5700000 - dims.rows * 1000 + gy.j * 500 + 250 AS BIGINT) AS cy
            FROM dims,
                 LATERAL (SELECT unnest(generate_series(0, 79)) AS i) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(dims.rows * 2 - 1 AS INT))) AS j) gy
        ),
        pairs AS (
            SELECT cells.cx, cells.cy, pid,
                   CAST((px - cells.cx) * (px - cells.cx)
                      + (py - cells.cy) * (py - cells.cy) AS BIGINT) AS d2,
                   CAST(pid % 97 AS BIGINT) AS v
            FROM cells, pt_coords
        )
        -- lexicographic (d2, pid) min packed into one BIGINT: one hash
        -- aggregate pass instead of a window sort over the cell x point
        -- cross product (pid < 2^18 and d2 * 2^18 < 2^63 hold for every
        -- gate/bench SF up to sf1)
        SELECT cx, cy,
               CAST(min(d2 * 262144 + pid) % 262144 AS BIGINT) AS near_pid,
               CAST(min(d2 * 262144 + pid) // 262144 AS BIGINT) AS near_d2,
               CAST(count(*) FILTER (WHERE d2 <= 4000000) AS BIGINT) AS n_r,
               CAST(coalesce(sum(v) FILTER (WHERE d2 <= 4000000), 0) AS BIGINT) AS sum_r
        FROM pairs GROUP BY cx, cy
    """,
    "zonal_stats": f"""
        WITH {TILE_SQL_CTE}, {POLY_SQL_CTE},
        pairs AS (
            SELECT t.*, p.poly_id, p.pcx, p.pcy, p.rx, p.ry
            FROM tiles t, polys p
            WHERE abs(t.x0 + t.w * 10.0 / 2 - p.pcx) / p.rx
                + abs(t.y0 - t.h * 10.0 / 2 - p.pcy) / p.ry < 1.0
        ),
        px AS (
            SELECT pairs.poly_id,
                   (gx.x * 31 + gy.y * 17 + pairs.k) % 256 AS v
            FROM pairs,
                 LATERAL (SELECT unnest(generate_series(0, CAST(pairs.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(pairs.h - 1 AS INT))) AS y) gy
            WHERE abs(pairs.x0 + (gx.x + 0.5) * 10.0 - pairs.pcx) / pairs.rx
                + abs(pairs.y0 - (gy.y + 0.5) * 10.0 - pairs.pcy) / pairs.ry < 1.0
        )
        SELECT poly_id, CAST(count(*) AS BIGINT) AS n_px, round(CAST(sum(v) AS DOUBLE), 0) AS sum_v
        FROM px GROUP BY poly_id
    """,
    "image_stats": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """,
    "image_stats_u16": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 60000 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """,
    "mosaic_groups": f"""
        WITH {TILE_SQL_CTE}
        SELECT CAST(k // 40 AS BIGINT) AS mosaic_key,
               CAST((max(x0 + w * 10.0) - min(x0)) / 10.0 AS BIGINT) AS out_w,
               CAST((max(y0) - min(y0 - h * 10.0)) / 10.0 AS BIGINT) AS out_h,
               CAST(count(*) AS BIGINT) AS n_inputs
        FROM tiles GROUP BY 1
    """,
    "recode_stats": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """,
    "recode_stats_tiff_lzw": _RECODE_STATS_SQL,
    "pii_scrub": """
        WITH d AS (
            SELECT doc_id,
                   text || ' contact u' || CAST(doc_id AS VARCHAR) || '@ex'
                        || CAST(doc_id % 7 AS VARCHAR) || '.org ip 10.'
                        || CAST(doc_id % 256 AS VARCHAR) || '.0.'
                        || CAST((doc_id * 3) % 256 AS VARCHAR)
                        || ' phone +1-555-'
                        || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') AS ftext
            FROM documents WHERE doc_id < 1500
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(len(regexp_extract_all(ftext, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_email,
               CAST(len(regexp_extract_all(ftext, '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) AS BIGINT) AS n_ipv4,
               CAST(len(regexp_extract_all(ftext, '\\+1-555-\\d{4}')) AS BIGINT) AS n_phone,
               CAST(length(regexp_replace(regexp_replace(regexp_replace(ftext,
                    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '[PII]', 'g'),
                    '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', '[PII]', 'g'),
                    '\\+1-555-\\d{4}', '[PII]', 'g')) AS BIGINT) AS redacted_len
        FROM d
    """,
    "bpe_pairs": """
        WITH d AS (SELECT text FROM documents WHERE doc_id < 1500),
        ch AS (
            SELECT ord(substr(d.text, i.i, 1)) AS b1,
                   ord(substr(d.text, i.i + 1, 1)) AS b2
            FROM d, LATERAL (
                SELECT unnest(generate_series(1, length(d.text) - 1)) AS i
            ) i
        )
        SELECT CAST(b1 * 256 + b2 AS BIGINT) AS pair,
               CAST(b1 AS BIGINT) AS b1, CAST(b2 AS BIGINT) AS b2,
               CAST(count(*) AS BIGINT) AS cnt
        FROM ch GROUP BY 1, 2, 3
        ORDER BY cnt DESC, pair ASC LIMIT 50
    """,
    "tile_augment": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id,
               CAST(sum(v * (y + 2 * (w - 1 - x))) AS BIGINT) AS rot_sum,
               CAST(sum(v * ((w - 1 - x) + 2 * y)) AS BIGINT) AS flip_sum
        FROM px GROUP BY image_id
    """,
    "recode_stats_webp": _RECODE_STATS_SQL,
    "recode_stats_lerc": _RECODE_STATS_SQL,
    "recode_stats_zstd": _RECODE_STATS_SQL,
    "cohort_retention": """
        WITH f AS (
            SELECT user_id,
                   CAST(epoch_us(min(ts)) AS BIGINT) // 86400000000 AS d0
            FROM events GROUP BY user_id
        ),
        a AS (
            SELECT DISTINCT e.user_id, f.d0 // 7 AS cohort_week,
                   (CAST(epoch_us(e.ts) AS BIGINT) // 86400000000 - f.d0) // 7 AS week_k
            FROM events e JOIN f USING (user_id)
        )
        SELECT CAST(cohort_week AS BIGINT) AS cohort_week,
               CAST(week_k AS BIGINT) AS week_k,
               CAST(count(*) AS BIGINT) AS n_users
        FROM a GROUP BY cohort_week, week_k
    """,
    "event_funnel": """
        WITH e AS (SELECT user_id, event_type, epoch_us(ts) AS t FROM events),
        s1 AS (SELECT user_id, min(t) AS t1 FROM e WHERE event_type = 'signup' GROUP BY user_id),
        s2 AS (
            SELECT e.user_id, min(t) AS t2 FROM e JOIN s1 USING (user_id)
            WHERE event_type = 'click' AND t > s1.t1 GROUP BY e.user_id
        ),
        s3 AS (
            SELECT e.user_id, min(t) AS t3 FROM e JOIN s2 USING (user_id)
            WHERE event_type = 'purchase' AND t > s2.t2 GROUP BY e.user_id
        ),
        u AS (SELECT DISTINCT user_id FROM e)
        SELECT CAST(u.user_id AS BIGINT) AS user_id,
               CAST(CASE WHEN t3 IS NOT NULL THEN 3 WHEN t2 IS NOT NULL THEN 2
                         WHEN t1 IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS depth,
               CAST(coalesce(t1, -1) AS BIGINT) AS t1_us,
               CAST(coalesce(t2, -1) AS BIGINT) AS t2_us,
               CAST(coalesce(t3, -1) AS BIGINT) AS t3_us
        FROM u LEFT JOIN s1 USING (user_id) LEFT JOIN s2 USING (user_id)
               LEFT JOIN s3 USING (user_id)
    """,
    "point_poly_distance": f"""
        WITH {POLY_SQL_CTE}, {POINT_SQL_CTE},
        segs AS (
            SELECT * FROM (VALUES (-1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0),
                                  (1.0, 0.0, 0.0, -1.0), (0.0, -1.0, -1.0, 0.0))
                   AS s(sax, say, sbx, sby)
        ),
        e AS (
            SELECT poly_id, pcx, pcy, rx, ry,
                   pcx + sax * rx AS ax, pcy + say * ry AS ay,
                   (pcx + sbx * rx) - (pcx + sax * rx) AS ex,
                   (pcy + sby * ry) - (pcy + say * ry) AS ey
            FROM polys, segs
        ),
        pd AS (
            SELECT p.pid, e.poly_id,
                   CASE WHEN abs(p.px - e.pcx) / e.rx + abs(p.py - e.pcy) / e.ry < 1.0
                        THEN 0.0
                        ELSE min(
                            (p.px - (e.ax + (CASE WHEN ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) < 0.0 THEN 0.0
                                                  WHEN ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) > 1.0 THEN 1.0
                                                  ELSE ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) END) * e.ex))
                          * (p.px - (e.ax + (CASE WHEN ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) < 0.0 THEN 0.0
                                                  WHEN ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) > 1.0 THEN 1.0
                                                  ELSE ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) END) * e.ex))
                          + (p.py - (e.ay + (CASE WHEN ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) < 0.0 THEN 0.0
                                                  WHEN ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) > 1.0 THEN 1.0
                                                  ELSE ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) END) * e.ey))
                          * (p.py - (e.ay + (CASE WHEN ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) < 0.0 THEN 0.0
                                                  WHEN ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) > 1.0 THEN 1.0
                                                  ELSE ((p.px - e.ax) * e.ex + (p.py - e.ay) * e.ey) / (e.ex * e.ex + e.ey * e.ey) END) * e.ey)))
                        END AS d2
            FROM pt_coords p, e
            GROUP BY p.pid, e.poly_id, e.pcx, e.pcy, e.rx, e.ry, p.px, p.py
        ),
        best AS (
            SELECT pid, poly_id, d2,
                   row_number() OVER (PARTITION BY pid ORDER BY d2, poly_id) AS rn
            FROM (SELECT pid, poly_id, min(d2) AS d2 FROM pd GROUP BY pid, poly_id)
        )
        SELECT CAST(pid AS BIGINT) AS pid,
               CAST(poly_id AS BIGINT) AS nearest_poly,
               round(sqrt(d2), 6) AS dist_m
        FROM best WHERE rn = 1
    """,
    "zonal_median": f"""
        WITH {TILE_SQL_CTE}, {POLY_SQL_CTE},
        pairs AS (
            SELECT t.*, p.poly_id, p.pcx, p.pcy, p.rx, p.ry
            FROM tiles t, polys p
            WHERE abs(t.x0 + t.w * 10.0 / 2 - p.pcx) / p.rx
                + abs(t.y0 - t.h * 10.0 / 2 - p.pcy) / p.ry < 1.0
        ),
        px AS (
            SELECT pairs.poly_id,
                   (gx.x * 31 + gy.y * 17 + pairs.k) % 256 AS v
            FROM pairs,
                 LATERAL (SELECT unnest(generate_series(0, CAST(pairs.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(pairs.h - 1 AS INT))) AS y) gy
            WHERE abs(pairs.x0 + (gx.x + 0.5) * 10.0 - pairs.pcx) / pairs.rx
                + abs(pairs.y0 - (gy.y + 0.5) * 10.0 - pairs.pcy) / pairs.ry < 1.0
        )
        SELECT poly_id,
               CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY v) AS BIGINT) AS p25,
               CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY v) AS BIGINT) AS median,
               CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY v) AS BIGINT) AS p75,
               CAST(count(*) AS BIGINT) AS n_px
        FROM px GROUP BY poly_id
    """,
    "tile_bounds_54030": f"""
        WITH {TILE_SQL_CTE},
        rob(i, xt, yt, xd2, yd2) AS (
            VALUES (0, 1.0, 0.0, 0.0, 0.0),\n                   (1, 0.9986, 0.062, -8.813833427955961e-05, -2.535965511654069e-09),\n                   (2, 0.9954, 0.124, -7.944666288182056e-05, 1.0143862046616277e-08),\n                   (3, 0.99, 0.186, -0.00012207501419312665, -3.803948267481104e-08),\n                   (4, 0.9822, 0.248, -8.253280345689287e-06, 1.420140686526279e-07),\n                   (5, 0.973, 0.31, -0.00018091186442410583, -5.300167919357005e-07),\n                   (6, 0.96, 0.372, -0.00018009926195789347, 1.9780530990901743e-06),\n                   (7, 0.9427, 0.434, -0.00013069108774431328, -7.382195604424996e-06),\n                   (8, 0.9216, 0.4958, -0.00020913638706485964, -2.0449270681384906e-05),\n                   (9, 0.8962, 0.5571, -6.476336399624129e-05, -3.082072167003548e-05),\n                   (10, 0.8679, 0.6176, -0.00022781015695017842, -4.8267842638478684e-05),\n                   (11, 0.835, 0.6769, -0.00012799600820305684, -6.41079077760714e-05),\n                   (12, 0.7986, 0.7346, -0.00010020581023758172, -7.930052625719342e-05),\n                   (13, 0.7597, 0.7903, -7.118075084660354e-05, -9.868998719518193e-05),\n                   (14, 0.7186, 0.8435, -0.00014307118637602598, -0.0001259395249620661),\n                   (15, 0.6732, 0.8936, -0.00038853450364928553, -0.00014155191295657824),\n                   (16, 0.6213, 0.9394, 0.00013720920097315336, -0.0003398528232115873),\n                   (17, 0.5722, 0.9761, 0.0005116976997567048, -0.0006830367941970985),\n                   (18, 0.5322, 1.0, 0.0, 0.0)
        ),
        ll AS (
            SELECT image_id,
                degrees(x0 / 6378137.0) AS lon_min,
                degrees(2 * atan(exp((y0 - h * 10.0) / 6378137.0)) - pi() / 2) AS lat_min,
                degrees((x0 + w * 10.0) / 6378137.0) AS lon_max,
                degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2) AS lat_max
            FROM tiles
        ),
        c AS (
            SELECT image_id, lon_min, lon_max, lat_min, lat_max,
                   least(CAST(floor(abs(lat_min) / 5.0) AS INT), 17) AS i1,
                   least(CAST(floor(abs(lat_max) / 5.0) AS INT), 17) AS i2
            FROM ll
        ),
        s AS (
            SELECT image_id, lon_min, lon_max, lat_min, lat_max, i1, i2,
                   (abs(lat_min) - i1 * 5.0) / 5.0 AS u1,
                   (abs(lat_max) - i2 * 5.0) / 5.0 AS u2
            FROM c
        ),
        v1 AS (
            SELECT s.*, (1.0 - u1) AS a, u1 AS b,
                   t0.xt AS x0t, t1.xt AS x1t, t0.xd2 AS xd0, t1.xd2 AS xd1,
                   t0.yt AS y0t, t1.yt AS y1t, t0.yd2 AS yd0, t1.yd2 AS yd1
            FROM s JOIN rob t0 ON t0.i = s.i1 JOIN rob t1 ON t1.i = s.i1 + 1
        ),
        e1 AS (
            SELECT image_id, lon_min, lon_max, lat_min, lat_max, i2, u2,
                   a * x0t + b * x1t + ((a * a * a - a) * xd0 + (b * b * b - b) * xd1) * 25.0 / 6.0 AS X1,
                   a * y0t + b * y1t + ((a * a * a - a) * yd0 + (b * b * b - b) * yd1) * 25.0 / 6.0 AS Y1
            FROM v1
        ),
        v2 AS (
            SELECT e1.*, (1.0 - u2) AS a, u2 AS b,
                   t0.xt AS x0t, t1.xt AS x1t, t0.xd2 AS xd0, t1.xd2 AS xd1,
                   t0.yt AS y0t, t1.yt AS y1t, t0.yd2 AS yd0, t1.yd2 AS yd1
            FROM e1 JOIN rob t0 ON t0.i = e1.i2 JOIN rob t1 ON t1.i = e1.i2 + 1
        ),
        e2 AS (
            SELECT image_id, lon_min, lon_max, lat_min, lat_max, X1, Y1,
                   a * x0t + b * x1t + ((a * a * a - a) * xd0 + (b * b * b - b) * xd1) * 25.0 / 6.0 AS X2,
                   a * y0t + b * y1t + ((a * a * a - a) * yd0 + (b * b * b - b) * yd1) * 25.0 / 6.0 AS Y2
            FROM v2
        )
        SELECT image_id,
            round(0.8487 * 6378137.0 * X1 * radians(lon_min), 6) AS rx_min,
            round(1.3523 * 6378137.0 * Y1 * (CASE WHEN lat_min > 0 THEN 1.0 WHEN lat_min < 0 THEN -1.0 ELSE 0.0 END), 6) AS ry_min,
            round(0.8487 * 6378137.0 * X2 * radians(lon_max), 6) AS rx_max,
            round(1.3523 * 6378137.0 * Y2 * (CASE WHEN lat_max > 0 THEN 1.0 WHEN lat_max < 0 THEN -1.0 ELSE 0.0 END), 6) AS ry_max
        FROM e2
    """,
    "tile_dist_aeqd": f"""
        WITH {TILE_SQL_CTE},
        ll AS (
            SELECT image_id,
                   degrees((x0 + w * 10.0 / 2.0) / 6378137.0) AS lon,
                   degrees(2 * atan(exp((y0 - h * 10.0 / 2.0) / 6378137.0)) - pi() / 2) AS lat
            FROM tiles
        ),
        g AS (
            SELECT image_id, radians(lat) AS phi,
                   radians(lon) - radians(27.0) AS dlam
            FROM ll
        ),
        k AS (
            SELECT image_id, phi, dlam,
                   acos(sin(radians(53.0)) * sin(phi)
                        + cos(radians(53.0)) * cos(phi) * cos(dlam)) AS c
            FROM g
        ),
        xy AS (
            SELECT image_id,
                   6371000.0 * (c / sin(c)) * cos(phi) * sin(dlam) AS ax,
                   6371000.0 * (c / sin(c)) * (cos(radians(53.0)) * sin(phi)
                       - sin(radians(53.0)) * cos(phi) * cos(dlam)) AS ay
            FROM k
        )
        SELECT image_id, round(ax, 6) AS ax, round(ay, 6) AS ay,
               round(sqrt(ax * ax + ay * ay), 6) AS dist_m
        FROM xy
    """,
    "global_equalize": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        ),
        vc AS (SELECT v, count(*) AS c FROM px GROUP BY v),
        cdf AS (SELECT v, sum(c) OVER (ORDER BY v) AS cum FROM vc),
        st AS (SELECT min(cum) AS cdf_min, max(cum) AS n_tot FROM cdf),
        lut AS (
            SELECT v, (cum - cdf_min) * 255
                   // (CASE WHEN n_tot - cdf_min < 1 THEN 1 ELSE n_tot - cdf_min END) AS ev
            FROM cdf, st
        )
        SELECT px.image_id,
               CAST(sum(lut.ev) AS BIGINT) AS eq_sum,
               CAST(min(lut.ev) AS BIGINT) AS eq_min,
               CAST(max(lut.ev) AS BIGINT) AS eq_max
        FROM px JOIN lut USING (v)
        GROUP BY px.image_id
    """,
    "ccnet_buckets": """
        WITH words AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        ),
        c AS (
            SELECT doc_id, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY doc_id, w
        ),
        tf AS (SELECT w, CAST(sum(cnt) AS BIGINT) AS tot FROM c GROUP BY w),
        t AS (SELECT CAST(sum(cnt) AS DOUBLE) AS total FROM c),
        s AS (
            SELECT c.doc_id, c.cnt * ln(CAST(tf.tot AS DOUBLE) / t.total) AS contrib, c.cnt
            FROM c JOIN tf ON c.w = tf.w, t
        ),
        sc0 AS (
            SELECT doc_id, round(sum(contrib) / sum(cnt), 6) AS avg_logprob
            FROM s GROUP BY doc_id
        ),
        sc AS (
            SELECT d.doc_id, d.lang, sc0.avg_logprob
            FROM documents d JOIN sc0 USING (doc_id)
        ),
        th AS (
            SELECT lang,
                   percentile_disc(0.3333333333333333) WITHIN GROUP (ORDER BY avg_logprob) AS t1,
                   percentile_disc(0.6666666666666666) WITHIN GROUP (ORDER BY avg_logprob) AS t2
            FROM sc GROUP BY lang
        )
        SELECT CAST(sc.doc_id AS BIGINT) AS doc_id, sc.lang, sc.avg_logprob,
               CASE WHEN sc.avg_logprob > th.t2 THEN 'head'
                    WHEN sc.avg_logprob > th.t1 THEN 'middle'
                    ELSE 'tail' END AS bucket
        FROM sc JOIN th USING (lang)
    """,
    "dsir_weights": """
        WITH f AS (
            SELECT doc_id, lang,
                   CAST('0x' || substring(md5(w), 1, 16) AS UBIGINT) % 64 AS b
            FROM (
                SELECT doc_id, lang,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
                FROM documents
            )
        ),
        bt AS (
            SELECT b, count(*) FILTER (WHERE lang = 'en') AS t, count(*) AS r
            FROM f GROUP BY b
        ),
        tot AS (SELECT sum(t) AS tt, sum(r) AS rr FROM bt),
        lr AS (
            SELECT b, CAST(floor((ln((t + 1.0) / (tt + 64.0))
                                  - ln((r + 1.0) / (rr + 64.0))) * 1e6 + 0.5) AS BIGINT) AS lrq
            FROM bt, tot
        ),
        dc AS (SELECT doc_id, b, count(*) AS cnt FROM f GROUP BY doc_id, b)
        SELECT CAST(dc.doc_id AS BIGINT) AS doc_id,
               CAST(sum(dc.cnt * lr.lrq) AS BIGINT) AS dsir_q
        FROM dc JOIN lr USING (b)
        GROUP BY dc.doc_id
    """,
    "tile_viewshed": f"""
        WITH {TILE_SQL_CTE},
        ctr AS (
            SELECT image_id, k, w, h,
                   CAST(w // 2 AS BIGINT) AS cx, CAST(h // 2 AS BIGINT) AS cy,
                   ((w // 2) * 31 + (h // 2) * 17 + k) % 256 + 10 AS obs
            FROM tiles
        ),
        dirs AS (
            SELECT * FROM (VALUES (1, 0), (-1, 0), (0, 1), (0, -1),
                                  (1, 1), (1, -1), (-1, 1), (-1, -1)) AS d(dx, dy)
        ),
        ray AS (
            SELECT ctr.image_id, dirs.dx, dirs.dy, s.i,
                   ((ctr.cx + s.i * dirs.dx) * 31
                    + (ctr.cy + s.i * dirs.dy) * 17 + ctr.k) % 256 AS v,
                   ctr.obs AS obs
            FROM ctr, dirs,
                 LATERAL (SELECT unnest(generate_series(1, CAST(ctr.w + ctr.h AS INT))) AS i) s
            WHERE ctr.cx + s.i * dirs.dx BETWEEN 0 AND ctr.w - 1
              AND ctr.cy + s.i * dirs.dy BETWEEN 0 AND ctr.h - 1
        ),
        ang AS (
            SELECT image_id, dx, dy, i,
                   (v - obs) / CAST(i AS DOUBLE) AS t,
                   max((v - obs) / CAST(i AS DOUBLE)) OVER (
                       PARTITION BY image_id, dx, dy ORDER BY i
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prior
            FROM ray
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_ray_px,
               CAST(sum(CASE WHEN prior IS NULL OR t > prior THEN 1 ELSE 0 END) AS BIGINT) AS n_visible
        FROM ang GROUP BY image_id
    """,
    "tile_bounds_54009": f"""
        WITH {TILE_SQL_CTE},
        ll AS (
            SELECT image_id,
                degrees(x0 / 6378137.0) AS lon_min,
                degrees(2 * atan(exp((y0 - h * 10.0) / 6378137.0)) - pi() / 2) AS lat_min,
                degrees((x0 + w * 10.0) / 6378137.0) AS lon_max,
                degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2) AS lat_max
            FROM tiles
        ),
        m0 AS (
            SELECT image_id, lon_min, lon_max,
                   pi() * sin(radians(lat_min)) AS rhs1,
                   pi() * sin(radians(lat_max)) AS rhs2,
                   radians(lat_min) AS t1, radians(lat_max) AS t2
            FROM ll
        ),
        m1 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m0
        ),
        m2 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m1
        ),
        m3 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m2
        ),
        m4 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m3
        ),
        m5 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m4
        ),
        m6 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m5
        ),
        m7 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m6
        ),
        m8 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m7
        ),
        m9 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m8
        ),
        m10 AS (
            SELECT image_id, lon_min, lon_max, rhs1, rhs2,
                   t1 - (2*t1 + sin(2*t1) - rhs1) / (2 + 2*cos(2*t1)) AS t1,
                   t2 - (2*t2 + sin(2*t2) - rhs2) / (2 + 2*cos(2*t2)) AS t2
            FROM m9
        )
        SELECT image_id,
            round((2 * sqrt(2) / pi()) * 6378137.0 * radians(lon_min) * cos(t1), 6) AS mx_min,
            round(sqrt(2) * 6378137.0 * sin(t1), 6) AS my_min,
            round((2 * sqrt(2) / pi()) * 6378137.0 * radians(lon_max) * cos(t2), 6) AS mx_max,
            round(sqrt(2) * 6378137.0 * sin(t2), 6) AS my_max
        FROM m10
    """,
    "tile_bounds_6933": f"""
        WITH {TILE_SQL_CTE},
        ll AS (
            SELECT image_id,
                degrees(x0 / 6378137.0) AS lon_min,
                degrees(2 * atan(exp((y0 - h * 10.0) / 6378137.0)) - pi() / 2) AS lat_min,
                degrees((x0 + w * 10.0) / 6378137.0) AS lon_max,
                degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2) AS lat_max
            FROM tiles
        ),
        q AS (
            SELECT image_id, lon_min, lon_max,
                   sin(radians(lat_min)) AS s1, sin(radians(lat_max)) AS s2
            FROM ll
        )
        SELECT image_id,
            round((6378137.0 * 8.667510025721987e-1) * radians(lon_min), 6) AS ex_min,
            round((6378137.0 * ((1 - 6.6943799901413165e-3) * (s1 / (1 - 6.6943799901413165e-3 * s1 * s1)
                - (1 / (2 * 8.181919084262149e-2))
                  * ln((1 - 8.181919084262149e-2 * s1) / (1 + 8.181919084262149e-2 * s1)))))
                / (2 * 8.667510025721987e-1), 6) AS ey_min,
            round((6378137.0 * 8.667510025721987e-1) * radians(lon_max), 6) AS ex_max,
            round((6378137.0 * ((1 - 6.6943799901413165e-3) * (s2 / (1 - 6.6943799901413165e-3 * s2 * s2)
                - (1 / (2 * 8.181919084262149e-2))
                  * ln((1 - 8.181919084262149e-2 * s2) / (1 + 8.181919084262149e-2 * s2)))))
                / (2 * 8.667510025721987e-1), 6) AS ey_max
        FROM q
    """,
    "cog_pyramid": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, tiles.h, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        ),
        lv AS (SELECT unnest([2, 4]) AS lv),
        pooled AS (
            SELECT image_id, lv, x // lv AS bx, y // lv AS by,
                   CAST(sum(v) AS BIGINT) // (lv * lv) AS pv
            FROM px, lv
            WHERE x < (w // lv) * lv AND y < (h // lv) * lv
            GROUP BY 1, 2, 3, 4
        )
        SELECT image_id, CAST(lv AS BIGINT) AS level,
               CAST(max(bx) + 1 AS BIGINT) AS ovr_w,
               CAST(max(by) + 1 AS BIGINT) AS ovr_h,
               CAST(sum(pv) AS BIGINT) AS sum_pooled
        FROM pooled GROUP BY 1, 2
    """,
    "window_stats_cog": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(
                     CAST(tiles.w // 4 AS INT),
                     CAST(tiles.w // 4 + tiles.w // 2 - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(
                     CAST(tiles.h // 4 AS INT),
                     CAST(tiles.h // 4 + tiles.h // 2 - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """,
    "composite_median": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS a,
                   ((gx.x * 31 + gy.y * 17 + tiles.k) % 256 + 37) % 256 AS b,
                   ((gx.x * 31 + gy.y * 17 + tiles.k) % 256 + 74) % 256 AS c
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px,
               CAST(sum(a + b + c - greatest(a, b, c) - least(a, b, c)) AS BIGINT) AS sum_med
        FROM px GROUP BY image_id
    """,
    "tile_morphology": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   CASE WHEN (gx.x * 31 + gy.y * 17 + tiles.k) % 256 >= 128 THEN 1 ELSE 0 END AS m,
                   CASE WHEN ((gx.x-1) * 31 + (gy.y-1) * 17 + tiles.k) % 256 >= 128 THEN 1 ELSE 0 END AS m1,
                   CASE WHEN (gx.x * 31 + (gy.y-1) * 17 + tiles.k) % 256 >= 128 THEN 1 ELSE 0 END AS m2,
                   CASE WHEN ((gx.x+1) * 31 + (gy.y-1) * 17 + tiles.k) % 256 >= 128 THEN 1 ELSE 0 END AS m3,
                   CASE WHEN ((gx.x-1) * 31 + gy.y * 17 + tiles.k) % 256 >= 128 THEN 1 ELSE 0 END AS m4,
                   CASE WHEN ((gx.x+1) * 31 + gy.y * 17 + tiles.k) % 256 >= 128 THEN 1 ELSE 0 END AS m5,
                   CASE WHEN ((gx.x-1) * 31 + (gy.y+1) * 17 + tiles.k) % 256 >= 128 THEN 1 ELSE 0 END AS m6,
                   CASE WHEN (gx.x * 31 + (gy.y+1) * 17 + tiles.k) % 256 >= 128 THEN 1 ELSE 0 END AS m7,
                   CASE WHEN ((gx.x+1) * 31 + (gy.y+1) * 17 + tiles.k) % 256 >= 128 THEN 1 ELSE 0 END AS m8
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.h - 2 AS INT))) AS y) gy
        )
        SELECT image_id,
               CAST(sum(m) AS BIGINT) AS n_mask,
               CAST(sum(CASE WHEN m + m1 + m2 + m3 + m4 + m5 + m6 + m7 + m8 = 9 THEN 1 ELSE 0 END) AS BIGINT) AS n_eroded,
               CAST(sum(CASE WHEN m + m1 + m2 + m3 + m4 + m5 + m6 + m7 + m8 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_dilated
        FROM px GROUP BY image_id
    """,
    "flow_d8": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS c,
                   ((gx.x + 1) * 31 + gy.y * 17 + tiles.k) % 256 AS ve,
                   ((gx.x + 1) * 31 + (gy.y + 1) * 17 + tiles.k) % 256 AS vse,
                   (gx.x * 31 + (gy.y + 1) * 17 + tiles.k) % 256 AS vs,
                   ((gx.x - 1) * 31 + (gy.y + 1) * 17 + tiles.k) % 256 AS vsw,
                   ((gx.x - 1) * 31 + gy.y * 17 + tiles.k) % 256 AS vw,
                   ((gx.x - 1) * 31 + (gy.y - 1) * 17 + tiles.k) % 256 AS vnw,
                   (gx.x * 31 + (gy.y - 1) * 17 + tiles.k) % 256 AS vn,
                   ((gx.x + 1) * 31 + (gy.y - 1) * 17 + tiles.k) % 256 AS vne
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.h - 2 AS INT))) AS y) gy
        ),
        sc AS (
            SELECT image_id,
                   CASE WHEN c > ve  THEN 2*(c-ve)*(c-ve)   ELSE -1 END AS s1,
                   CASE WHEN c > vse THEN (c-vse)*(c-vse)   ELSE -1 END AS s2,
                   CASE WHEN c > vs  THEN 2*(c-vs)*(c-vs)   ELSE -1 END AS s3,
                   CASE WHEN c > vsw THEN (c-vsw)*(c-vsw)   ELSE -1 END AS s4,
                   CASE WHEN c > vw  THEN 2*(c-vw)*(c-vw)   ELSE -1 END AS s5,
                   CASE WHEN c > vnw THEN (c-vnw)*(c-vnw)   ELSE -1 END AS s6,
                   CASE WHEN c > vn  THEN 2*(c-vn)*(c-vn)   ELSE -1 END AS s7,
                   CASE WHEN c > vne THEN (c-vne)*(c-vne)   ELSE -1 END AS s8
            FROM px
        ),
        coded AS (
            SELECT image_id,
                   CASE WHEN greatest(s1,s2,s3,s4,s5,s6,s7,s8) < 0 THEN 0
                        WHEN s1 = greatest(s1,s2,s3,s4,s5,s6,s7,s8) THEN 1
                        WHEN s2 = greatest(s1,s2,s3,s4,s5,s6,s7,s8) THEN 2
                        WHEN s3 = greatest(s1,s2,s3,s4,s5,s6,s7,s8) THEN 3
                        WHEN s4 = greatest(s1,s2,s3,s4,s5,s6,s7,s8) THEN 4
                        WHEN s5 = greatest(s1,s2,s3,s4,s5,s6,s7,s8) THEN 5
                        WHEN s6 = greatest(s1,s2,s3,s4,s5,s6,s7,s8) THEN 6
                        WHEN s7 = greatest(s1,s2,s3,s4,s5,s6,s7,s8) THEN 7
                        ELSE 8 END AS d8
            FROM sc
        )
        SELECT image_id, CAST(d8 AS BIGINT) AS d8, CAST(count(*) AS BIGINT) AS cnt
        FROM coded GROUP BY image_id, d8
    """,
    "hist_match": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v0,
                   (gx.x * 31 + gy.y * 17 + tiles.k + 7) % 256 AS v1
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        ),
        ha AS (SELECT image_id, v0 AS v, count(*) AS c FROM px GROUP BY 1, 2),
        hb AS (SELECT image_id, v1 AS v, count(*) AS c FROM px GROUP BY 1, 2),
        cdfa AS (
            SELECT image_id, v, c,
                   -sum(c) OVER (PARTITION BY image_id ORDER BY v) AS ncdf
            FROM ha
        ),
        cdfb AS (
            SELECT image_id, v AS u,
                   -sum(c) OVER (PARTITION BY image_id ORDER BY v) AS ncdf
            FROM hb
        ),
        mapped AS (
            SELECT a.image_id, a.c, b.u
            FROM cdfa a ASOF JOIN cdfb b
              ON a.image_id = b.image_id AND a.ncdf >= b.ncdf
        )
        SELECT image_id, CAST(sum(c) AS BIGINT) AS n_px,
               CAST(sum(c * u) AS BIGINT) AS sum_matched
        FROM mapped GROUP BY image_id
    """,
    "zonal_majority": f"""
        WITH {TILE_SQL_CTE}, {POLY_SQL_CTE},
        pairs AS (
            SELECT t.*, p.poly_id, p.pcx, p.pcy, p.rx, p.ry
            FROM tiles t, polys p
            WHERE abs(t.x0 + t.w * 10.0 / 2 - p.pcx) / p.rx
                + abs(t.y0 - t.h * 10.0 / 2 - p.pcy) / p.ry < 1.0
        ),
        px AS (
            SELECT pairs.poly_id,
                   (gx.x * 31 + gy.y * 17 + pairs.k) % 256 AS v
            FROM pairs,
                 LATERAL (SELECT unnest(generate_series(0, CAST(pairs.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(pairs.h - 1 AS INT))) AS y) gy
            WHERE abs(pairs.x0 + (gx.x + 0.5) * 10.0 - pairs.pcx) / pairs.rx
                + abs(pairs.y0 - (gy.y + 0.5) * 10.0 - pairs.pcy) / pairs.ry < 1.0
        ),
        hist AS (SELECT poly_id, v, count(*) AS cnt FROM px GROUP BY 1, 2)
        SELECT poly_id,
               CAST(min(v) FILTER (WHERE cnt = mx) AS BIGINT) AS majority_v,
               CAST(mx AS BIGINT) AS majority_cnt
        FROM (SELECT *, max(cnt) OVER (PARTITION BY poly_id) AS mx FROM hist)
        GROUP BY poly_id, mx
    """,
    "tile_zxy": f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id,
            (CAST(12 AS BIGINT) << 40)
            + (CAST(floor(((x0 + w * 10.0 / 2) + pi() * 6378137.0)
                          / (2 * (pi() * 6378137.0)) * 4096) AS BIGINT) << 20)
            + CAST(floor((pi() * 6378137.0 - (y0 - h * 10.0 / 2))
                         / (2 * (pi() * 6378137.0)) * 4096) AS BIGINT) AS zxy
        FROM tiles
    """,
    "color_relief": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id,
               CAST(sum({_relief_sql(0)}) AS BIGINT) AS sum_r,
               CAST(sum({_relief_sql(1)}) AS BIGINT) AS sum_g,
               CAST(sum({_relief_sql(2)}) AS BIGINT) AS sum_b,
               CAST(count(*) AS BIGINT) AS n_px
        FROM px GROUP BY image_id
    """,
    "pansharpen": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 29 + gy.y * 13 + tiles.k) % 256 AS pan,
                   ((gx.x // 2) * 31 + (gy.y // 2) * 17 + tiles.k) % 256 AS ms0,
                   ((gx.x // 2) * 31 + (gy.y // 2) * 17 + tiles.k + 7) % 256 AS ms1,
                   ((gx.x // 2) * 31 + (gy.y // 2) * 17 + tiles.k + 14) % 256 AS ms2
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(2 * tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(2 * tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id,
               CAST(sum((pan * ms0 * 3) // (ms0 + ms1 + ms2)) AS BIGINT) AS sum_b0,
               CAST(sum((pan * ms1 * 3) // (ms0 + ms1 + ms2)) AS BIGINT) AS sum_b1,
               CAST(sum((pan * ms2 * 3) // (ms0 + ms1 + ms2)) AS BIGINT) AS sum_b2,
               CAST(count(*) AS BIGINT) AS n_px
        FROM px GROUP BY image_id
    """,
    "tile_overviews": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, tiles.h, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        ),
        lv AS (SELECT unnest([2, 4]) AS lv),
        pooled AS (
            SELECT image_id, lv, x // lv AS bx, y // lv AS by,
                   CAST(sum(v) AS BIGINT) // (lv * lv) AS pv
            FROM px, lv
            WHERE x < (w // lv) * lv AND y < (h // lv) * lv
            GROUP BY 1, 2, 3, 4
        )
        SELECT image_id, CAST(lv AS BIGINT) AS level,
               CAST(max(bx) + 1 AS BIGINT) AS ovr_w,
               CAST(max(by) + 1 AS BIGINT) AS ovr_h,
               CAST(sum(pv) AS BIGINT) AS sum_pooled
        FROM pooled GROUP BY 1, 2
    """,
    "tile_patches": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, tiles.h, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id,
               CAST((y // 16) * (w // 16) + (x // 16) AS BIGINT) AS patch_id,
               CAST(sum(v) AS BIGINT) AS p_sum
        FROM px
        WHERE x < (w // 16) * 16 AND y < (h // 16) * 16
        GROUP BY 1, 2
    """,
    "quality_pred": """
        WITH words AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        ),
        tok AS (
            SELECT doc_id,
                   CAST('0x' || substring(md5(w), 1, 16) AS UBIGINT) % 4096 AS b
            FROM words
        ),
        sc AS (
            SELECT doc_id,
                   CAST(sum(CAST((b * 2654435761) % 2001 AS BIGINT) - 1000) AS BIGINT) AS score_milli
            FROM tok GROUP BY 1
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id, score_milli,
               score_milli > 0 AS keep
        FROM sc
    """,
    "recode_stats_jp2": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
            WHERE tiles.k < 24
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px, CAST(sum(v) AS BIGINT) AS sum_v,
               CAST(min(v) AS BIGINT) AS min_v, CAST(max(v) AS BIGINT) AS max_v
        FROM px GROUP BY image_id
    """,
    "psnr_fidelity": f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id, CAST(true AS BOOLEAN) AS psnr_ok, CAST(true AS BOOLEAN) AS caption_ok
        FROM tiles
    """,
    "recode_stats_jp2_lossy": f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id, CAST(true AS BOOLEAN) AS psnr_ok, CAST(true AS BOOLEAN) AS rate_ok
        FROM tiles WHERE k < 24
    """,
    "recode_stats_jpeg": f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id, CAST(true AS BOOLEAN) AS psnr_ok, CAST(true AS BOOLEAN) AS rate_ok,
               CAST(true AS BOOLEAN) AS geo_ok
        FROM tiles WHERE k < 200
    """,
    "doc_fingerprints": r"""
        WITH norm AS (
            SELECT doc_id, regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS t
            FROM documents WHERE doc_id < 1500
        ),
        kg AS (
            SELECT DISTINCT doc_id,
                   CAST(CAST('0x' || substring(md5(substring(t, i.i, 8)), 1, 16) AS UBIGINT)
                        % 2147483647 AS BIGINT) AS h
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 7, 0))) AS i) i
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id, h AS fp
        FROM (SELECT doc_id, h, row_number() OVER (PARTITION BY doc_id ORDER BY h) AS rn FROM kg)
        WHERE rn <= 4
    """,
    "fingerprint_dups": r"""
        WITH norm AS (
            SELECT doc_id, regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS t
            FROM documents WHERE doc_id < 1500
        ),
        kg AS (
            SELECT DISTINCT doc_id,
                   CAST(CAST('0x' || substring(md5(substring(t, i.i, 8)), 1, 16) AS UBIGINT)
                        % 2147483647 AS BIGINT) AS h
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 7, 0))) AS i) i
        ),
        kept AS (
            SELECT doc_id, h
            FROM (SELECT doc_id, h, row_number() OVER (PARTITION BY doc_id ORDER BY h) AS rn FROM kg)
            WHERE rn <= 4
        )
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(count(*) AS BIGINT) AS n_shared
        FROM kept a JOIN kept b ON a.h = b.h AND a.doc_id < b.doc_id
        GROUP BY doc_a, doc_b
        HAVING count(*) >= 2
    """,
    "vector_reproject": f"""
        WITH {POLY_SQL_CTE}
        SELECT poly_id,
            round(degrees((pcx - rx) / 6378137.0), 9) AS west_lon,
            round(degrees(2 * atan(exp(pcy / 6378137.0)) - pi() / 2), 9) AS west_lat,
            round(degrees(pcx / 6378137.0), 9) AS north_lon,
            round(degrees(2 * atan(exp((pcy + ry) / 6378137.0)) - pi() / 2), 9) AS north_lat
        FROM polys
    """,
    "range_join": """
        WITH bands AS (
            SELECT CAST(n_nationkey AS BIGINT) AS iv_id,
                   n_nationkey * 37000.0 AS lo,
                   n_nationkey * 37000.0 + 29000.0 + (n_nationkey % 5) * 13000.0 AS hi
            FROM nation
        )
        SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey, iv_id
        FROM orders, bands
        WHERE o_totalprice >= lo AND o_totalprice < hi
    """,
    "asof_join": """
        SELECT CAST(e.user_id AS BIGINT) AS user_id,
               CAST(e.event_id AS BIGINT) AS event_id,
               round(CAST(c.value AS DOUBLE), 6) AS click_value
        FROM (SELECT * FROM events WHERE event_type = 'error') e
        ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
          ON e.user_id = c.user_id AND e.ts >= c.ts
    """,
    "sessionize": """
        WITH ev AS (
            SELECT user_id, ts, value,
                CASE WHEN lag(ts) OVER w IS NULL
                     OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
                     THEN 1 ELSE 0 END AS new_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        ),
        s AS (
            SELECT user_id, value,
                   sum(new_s) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
            FROM ev
        )
        SELECT CAST(user_id AS BIGINT) AS user_id, CAST(sid AS BIGINT) AS sid,
               CAST(count(*) AS BIGINT) AS n_events,
               round(CAST(sum(value) AS DOUBLE), 6) AS sum_value
        FROM s GROUP BY 1, 2
    """,
    "tile_warp_4326": f"""
        WITH {TILE_SQL_CTE},
        g AS (
            SELECT k, image_id, w, h, x0, y0,
                degrees(x0 / 6378137.0) AS lon_min,
                degrees((x0 + w * 10.0) / 6378137.0) AS lon_max,
                degrees(2 * atan(exp((y0 - h * 10.0) / 6378137.0)) - pi() / 2) AS lat_min,
                degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2) AS lat_max
            FROM tiles
        ),
        px AS (
            SELECT g.image_id, g.w, g.h, g.k,
                CAST(floor((6378137.0 * radians(g.lon_min + (gx.i + 0.5) * (g.lon_max - g.lon_min) / g.w)
                            - g.x0) / 10.0) AS BIGINT) AS ix,
                CAST(floor((g.y0 - 6378137.0 * ln(tan(pi() / 4
                            + radians(g.lat_max - (gy.j + 0.5) * (g.lat_max - g.lat_min) / g.h) / 2)))
                           / 10.0) AS BIGINT) AS iy
            FROM g,
                 LATERAL (SELECT unnest(generate_series(0, CAST(g.w - 1 AS INT))) AS i) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(g.h - 1 AS INT))) AS j) gy
        )
        SELECT image_id, CAST(w AS BIGINT) AS out_w, CAST(h AS BIGINT) AS out_h,
               CAST(sum(CASE WHEN ix BETWEEN 0 AND w - 1 AND iy BETWEEN 0 AND h - 1
                        THEN (ix * 31 + iy * 17 + k) % 256 ELSE 0 END) AS BIGINT) AS px_sum
        FROM px GROUP BY image_id, w, h
    """,
    "tile_fast_warp": f"""
        WITH {TILE_SQL_CTE},
        win AS (
            SELECT k, image_id, w, h,
                -- snap: floor lower / ceil upper corners in absolute
                -- pixel units (res 10); origins are multiples of 10
                CAST(floor((x0 + 3.0 + k % 7) / 10.0) - x0 / 10.0 AS BIGINT) AS col_lo,
                CAST(ceil((x0 + w * 10.0 - (2.0 + k % 5)) / 10.0) - x0 / 10.0 AS BIGINT) AS col_hi,
                CAST(y0 / 10.0 - ceil((y0 - (1.5 + k % 4)) / 10.0) AS BIGINT) AS row_lo,
                CAST(y0 / 10.0 - floor((y0 - h * 10.0 + 4.0 + k % 3) / 10.0) AS BIGINT) AS row_hi,
                floor((x0 + 3.0 + k % 7) / 10.0) * 10.0 AS sx_min,
                ceil((y0 - (1.5 + k % 4)) / 10.0) * 10.0 AS sy_max
            FROM tiles
        ),
        px AS (
            SELECT win.image_id, win.col_hi - win.col_lo AS out_w,
                   win.row_hi - win.row_lo AS out_h, win.sx_min, win.sy_max,
                   (gx.x * 31 + gy.y * 17 + win.k) % 256 AS v
            FROM win,
                 LATERAL (SELECT unnest(generate_series(CAST(win.col_lo AS INT),
                                                        CAST(win.col_hi - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(CAST(win.row_lo AS INT),
                                                        CAST(win.row_hi - 1 AS INT))) AS y) gy
        )
        SELECT image_id, out_w, out_h, CAST(sum(v) AS BIGINT) AS px_sum, sx_min, sy_max
        FROM px GROUP BY image_id, out_w, out_h, sx_min, sy_max
    """,
    "tile_warp_bilinear": f"""
        WITH {TILE_SQL_CTE},
        g AS (
            SELECT k, image_id, w, h, x0, y0,
                degrees(x0 / 6378137.0) AS lon_min,
                degrees((x0 + w * 10.0) / 6378137.0) AS lon_max,
                degrees(2 * atan(exp((y0 - h * 10.0) / 6378137.0)) - pi() / 2) AS lat_min,
                degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2) AS lat_max
            FROM tiles
        ),
        pxy AS (
            SELECT g.image_id, g.w, g.h, g.k,
                (6378137.0 * radians(g.lon_min + (gx.i + 0.5) * (g.lon_max - g.lon_min) / g.w)
                 - g.x0) / 10.0 - 0.5 AS fx,
                (g.y0 - 6378137.0 * ln(tan(pi() / 4
                 + radians(g.lat_max - (gy.j + 0.5) * (g.lat_max - g.lat_min) / g.h) / 2)))
                / 10.0 - 0.5 AS fy
            FROM g,
                 LATERAL (SELECT unnest(generate_series(0, CAST(g.w - 1 AS INT))) AS i) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(g.h - 1 AS INT))) AS j) gy
        ),
        corners AS (
            -- floor(f + 1e-9) snap + integer 1e-4 quantization before
            -- the SUM keep the aggregate order-independent (BIGINT);
            -- mirrors q_tile_warp_bilinear's twin-shaped replay
            SELECT image_id, w, h, k,
                fx - floor(fx + 1e-9) AS wx, fy - floor(fy + 1e-9) AS wy,
                CAST(least(greatest(floor(fx + 1e-9), 0), w - 1) AS BIGINT) AS xa,
                CAST(least(greatest(floor(fx + 1e-9) + 1, 0), w - 1) AS BIGINT) AS xb,
                CAST(least(greatest(floor(fy + 1e-9), 0), h - 1) AS BIGINT) AS ya,
                CAST(least(greatest(floor(fy + 1e-9) + 1, 0), h - 1) AS BIGINT) AS yb
            FROM pxy
        ),
        v AS (
            SELECT image_id, w, h,
                CAST(floor((
                    ((xa * 31 + ya * 17 + k) % 256) * (1 - wx) * (1 - wy)
                  + ((xb * 31 + ya * 17 + k) % 256) * wx * (1 - wy)
                  + ((xa * 31 + yb * 17 + k) % 256) * (1 - wx) * wy
                  + ((xb * 31 + yb * 17 + k) % 256) * wx * wy
                ) * 10000.0 + 0.5) AS BIGINT) AS val
            FROM corners
        )
        SELECT image_id, CAST(w AS BIGINT) AS out_w, CAST(h AS BIGINT) AS out_h,
               CAST(sum(val) AS BIGINT) AS px_sum
        FROM v GROUP BY image_id, w, h
    """,
    "tile_resize": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, tiles.h,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(w / 2 AS BIGINT) AS out_w, CAST(h / 2 AS BIGINT) AS out_h,
               round(CAST(sum(v) AS DOUBLE) / 4.0, 6) AS mean_sum
        FROM px GROUP BY image_id, w, h
    """,
    "tile_resize_lanczos": _resize_kernel_sql("lanczos"),
    "tile_resize_cubicspline": _resize_kernel_sql("cubicspline"),
    "union_bounds": f"""
        WITH {TILE_SQL_CTE}
        SELECT CAST(k // 40 AS BIGINT) AS mosaic_key,
               min(x0) AS minx, min(y0 - h * 10.0) AS miny,
               max(x0 + w * 10.0) AS maxx, max(y0) AS maxy
        FROM tiles GROUP BY 1
    """,
    "tile_focal_sum": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, tiles.h,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v,
                   GREATEST(0, LEAST(tiles.w - 2, gx.x + 1) - GREATEST(1, gx.x - 1) + 1) AS wx,
                   GREATEST(0, LEAST(tiles.h - 2, gy.y + 1) - GREATEST(1, gy.y - 1) + 1) AS wy
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST((w - 2) * (h - 2) AS BIGINT) AS n_interior,
               CAST(sum(v * wx * wy) AS BIGINT) AS box_total
        FROM px GROUP BY image_id, w, h
    """,
    "tile_spatial_autocorr": f"""
        WITH {TILE_SQL_CTE},
        p AS (
            SELECT tiles.image_id,
                   ((gx.x * 31 + gy.y * 17 + tiles.k) % 256) AS a,
                   (((gx.x + 1) * 31 + gy.y * 17 + tiles.k) % 256) AS b
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_pairs,
               CAST(count(*) * sum(a * b) - sum(a) * sum(b) AS DOUBLE)
                   / sqrt(CAST(count(*) * sum(a * a) - sum(a) * sum(a) AS DOUBLE)
                        * CAST(count(*) * sum(b * b) - sum(b) * sum(b) AS DOUBLE))
                   AS lag1_corr
        FROM p GROUP BY image_id
    """,
    "tile_glcm": f"""
        WITH {TILE_SQL_CTE},
        pairs AS (
            SELECT tiles.image_id,
                   ((gx.x * 31 + gy.y * 17 + tiles.k) % 256) // 16 AS v1,
                   (((gx.x + 1) * 31 + gy.y * 17 + tiles.k) % 256) // 16 AS v2
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        ),
        joint AS (
            SELECT image_id, v1, v2, count(*) AS c FROM pairs GROUP BY 1, 2, 3
        ),
        en AS (
            SELECT image_id, sum(c * c) AS energy_sum FROM joint GROUP BY image_id
        ),
        st AS (
            SELECT image_id, count(*) AS n_pairs,
                   sum((v1 - v2) * (v1 - v2)) AS contrast_sum,
                   sum(1000000 // (1 + (v1 - v2) * (v1 - v2))) AS homog_sum
            FROM pairs GROUP BY image_id
        )
        SELECT st.image_id, CAST(n_pairs AS BIGINT) AS n_pairs,
               CAST(contrast_sum AS BIGINT) AS contrast_sum,
               CAST(homog_sum AS BIGINT) AS homog_sum,
               CAST(energy_sum AS BIGINT) AS energy_sum
        FROM st JOIN en ON en.image_id = st.image_id
    """,
    "tile_pyramid": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        ),
        lv AS (
            SELECT image_id, f.f AS level, x // f.f AS bx, y // f.f AS by,
                   sum(v) // (f.f * f.f) AS lp
            FROM px, (SELECT unnest([2, 4]) AS f) f
            GROUP BY 1, 2, 3, 4
        )
        SELECT image_id, CAST(level AS BIGINT) AS level,
               CAST(count(*) AS BIGINT) AS lvl_px,
               CAST(sum(lp) AS BIGINT) AS lvl_sum,
               round(CAST(sum(lp) AS DOUBLE) / count(*), 6) AS lvl_mean
        FROM lv GROUP BY 1, 2
    """,
    "tile_equalize": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w * tiles.h AS total,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        ),
        vc AS (
            SELECT image_id, total, v, count(*) AS c FROM px GROUP BY 1, 2, 3
        ),
        cd AS (
            SELECT image_id, total, v, c,
                   sum(c) OVER (PARTITION BY image_id ORDER BY v) AS cdf,
                   first_value(c) OVER (PARTITION BY image_id ORDER BY v) AS cdf_min
            FROM vc
        ),
        lut AS (
            SELECT image_id, c,
                   CASE WHEN total = cdf_min THEN 0
                        ELSE (cdf - cdf_min) * 255 // (total - cdf_min) END AS ev
            FROM cd
        )
        SELECT image_id, CAST(sum(ev * c) AS BIGINT) AS eq_sum,
               CAST(max(ev) AS BIGINT) AS eq_max
        FROM lut GROUP BY image_id
    """,
    "tile_contours": f"""
        WITH {TILE_SQL_CTE},
        cells AS (
            SELECT tiles.image_id,
                   CASE WHEN (gx.x * 31 + gy.y * 17 + tiles.k) % 256 >= 127.5 THEN 1 ELSE 0 END
                 + CASE WHEN ((gx.x + 1) * 31 + gy.y * 17 + tiles.k) % 256 >= 127.5 THEN 2 ELSE 0 END
                 + CASE WHEN (gx.x * 31 + (gy.y + 1) * 17 + tiles.k) % 256 >= 127.5 THEN 4 ELSE 0 END
                 + CASE WHEN ((gx.x + 1) * 31 + (gy.y + 1) * 17 + tiles.k) % 256 >= 127.5 THEN 8 ELSE 0 END
                   AS cs
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 2 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_cells,
               CAST(sum(CASE WHEN cs IN (0, 15) THEN 0
                             WHEN cs IN (6, 9) THEN 2 ELSE 1 END) AS BIGINT) AS n_segments
        FROM cells GROUP BY image_id
    """,
    "tile_slope": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.h - 2 AS INT))) AS y) gy
        ),
        g AS (
            SELECT image_id,
                   ((((x+1)*31 + (y-1)*17 + k) % 256) + 2 * (((x+1)*31 + y*17 + k) % 256)
                    + (((x+1)*31 + (y+1)*17 + k) % 256)
                    - (((x-1)*31 + (y-1)*17 + k) % 256) - 2 * (((x-1)*31 + y*17 + k) % 256)
                    - (((x-1)*31 + (y+1)*17 + k) % 256)) / 80.0 AS gx,
                   ((((x-1)*31 + (y+1)*17 + k) % 256) + 2 * ((x*31 + (y+1)*17 + k) % 256)
                    + (((x+1)*31 + (y+1)*17 + k) % 256)
                    - (((x-1)*31 + (y-1)*17 + k) % 256) - 2 * ((x*31 + (y-1)*17 + k) % 256)
                    - (((x+1)*31 + (y-1)*17 + k) % 256)) / 80.0 AS gy
            FROM px
        ),
        s AS (
            SELECT image_id, degrees(atan(sqrt(gx * gx + gy * gy))) AS deg FROM g
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_interior,
               CAST(sum(CASE WHEN deg > 45.0 THEN 1 ELSE 0 END) AS BIGINT) AS n_steep,
               round(avg(deg), 6) AS mean_slope
        FROM s GROUP BY image_id
    """,
    "tile_hillshade": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.h - 2 AS INT))) AS y) gy
        ),
        g AS (
            SELECT image_id,
                   ((((x+1)*31 + (y-1)*17 + k) % 256) + 2 * (((x+1)*31 + y*17 + k) % 256)
                    + (((x+1)*31 + (y+1)*17 + k) % 256)
                    - (((x-1)*31 + (y-1)*17 + k) % 256) - 2 * (((x-1)*31 + y*17 + k) % 256)
                    - (((x-1)*31 + (y+1)*17 + k) % 256)) / 80.0 AS gx,
                   ((((x-1)*31 + (y+1)*17 + k) % 256) + 2 * ((x*31 + (y+1)*17 + k) % 256)
                    + (((x+1)*31 + (y+1)*17 + k) % 256)
                    - (((x-1)*31 + (y-1)*17 + k) % 256) - 2 * ((x*31 + (y-1)*17 + k) % 256)
                    - (((x+1)*31 + (y-1)*17 + k) % 256)) / 80.0 AS gy
            FROM px
        ),
        s AS (
            SELECT image_id, 0.5 * (gx + gy) + sqrt(2.0) / 2 AS num,
                   255.0 * greatest((0.5 * (gx + gy) + sqrt(2.0) / 2) / sqrt(1.0 + gx * gx + gy * gy), 0.0) AS shade
            FROM g
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_interior,
               CAST(sum(CASE WHEN num <= 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_shadow,
               round(avg(shade), 6) AS mean_shade
        FROM s GROUP BY image_id
    """,
    "tile_aspect": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.h - 2 AS INT))) AS y) gy
        ),
        g AS (
            SELECT image_id,
                   -((((x+1)*31 + (y-1)*17 + k) % 256) + 2 * (((x+1)*31 + y*17 + k) % 256)
                    + (((x+1)*31 + (y+1)*17 + k) % 256)
                    - (((x-1)*31 + (y-1)*17 + k) % 256) - 2 * (((x-1)*31 + y*17 + k) % 256)
                    - (((x-1)*31 + (y+1)*17 + k) % 256)) AS e,
                   ((((x-1)*31 + (y+1)*17 + k) % 256) + 2 * ((x*31 + (y+1)*17 + k) % 256)
                    + (((x+1)*31 + (y+1)*17 + k) % 256)
                    - (((x-1)*31 + (y-1)*17 + k) % 256) - 2 * ((x*31 + (y-1)*17 + k) % 256)
                    - (((x+1)*31 + (y-1)*17 + k) % 256)) AS n
            FROM px
        )
        SELECT image_id,
               CAST(sum(CASE WHEN e = 0 AND n = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_flat,
               CAST(sum(CASE WHEN NOT (e = 0 AND n = 0) AND NOT abs(e) > abs(n) AND n > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_north,
               CAST(sum(CASE WHEN abs(e) > abs(n) AND e > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_east,
               CAST(sum(CASE WHEN NOT (e = 0 AND n = 0) AND NOT abs(e) > abs(n) AND n < 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_south,
               CAST(sum(CASE WHEN abs(e) > abs(n) AND e < 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_west
        FROM g GROUP BY image_id
    """,
    "tile_rescale": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        ),
        mm AS (SELECT image_id, min(v) AS mn, max(v) AS mx FROM px GROUP BY image_id),
        o AS (
            SELECT px.image_id,
                   CASE WHEN mx = mn THEN 0
                        ELSE (v - mn) * 255 // (mx - mn) END AS ov
            FROM px JOIN mm ON mm.image_id = px.image_id
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px,
               CAST(sum(ov) AS BIGINT) AS out_sum,
               CAST(min(ov) AS BIGINT) AS out_min,
               CAST(max(ov) AS BIGINT) AS out_max
        FROM o GROUP BY image_id
    """,
    "tile_ruggedness": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.w - 2 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(1, CAST(tiles.h - 2 AS INT))) AS y) gy
        ),
        nb AS (
            SELECT image_id, x, y,
                   (x * 31 + y * 17 + k) % 256 AS c,
                   ((x + dx.d) * 31 + (y + dy.d) * 17 + k) % 256 AS v
            FROM px,
                 (SELECT unnest([-1, 0, 1]) AS d) dx,
                 (SELECT unnest([-1, 0, 1]) AS d) dy
            WHERE NOT (dx.d = 0 AND dy.d = 0)
        ),
        per_px AS (
            SELECT image_id, x, y,
                   sum(abs(c - v)) AS tri,
                   8 * max(c) - sum(v) AS tpi,
                   greatest(max(v), max(c)) - least(min(v), min(c)) AS rough
            FROM nb GROUP BY image_id, x, y
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_interior,
               CAST(sum(tri) AS BIGINT) AS sum_tri,
               CAST(sum(tpi) AS BIGINT) AS sum_tpi,
               CAST(sum(rough) AS BIGINT) AS sum_rough
        FROM per_px GROUP BY image_id
    """,
    "tile_proximity": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
            WHERE tiles.k < 8
        ),
        tg AS (SELECT image_id, x AS tx, y AS ty FROM px WHERE v >= 192),
        d AS (
            SELECT p.image_id, p.x, p.y,
                   min((p.x - t.tx) * (p.x - t.tx) + (p.y - t.ty) * (p.y - t.ty)) AS d2
            FROM px p JOIN tg t ON t.image_id = p.image_id
            GROUP BY 1, 2, 3
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px,
               CAST(sum(CASE WHEN d2 = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_target,
               CAST(sum(d2) AS BIGINT) AS sum_d2,
               CAST(max(d2) AS BIGINT) AS max_d2
        FROM d GROUP BY image_id
    """,
    "tile_sieve": """
        WITH RECURSIVE px AS (
            SELECT p_partkey AS k, gx.x AS x, gy.y AS y,
                   CASE WHEN (gx.x * 31 + gy.y * 17 + p_partkey) % 256 >= 128 THEN 1 ELSE 0 END AS cls
            FROM part,
                 LATERAL (SELECT unnest(generate_series(0, CAST(32 + (part.p_partkey % 3) * 16 - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(32 + (part.p_partkey % 5) * 8 - 1 AS INT))) AS y) gy
            WHERE p_partkey < 24
        ),
        pos AS (SELECT k, x, y, (y * 100 + x) AS node FROM px WHERE cls = 1),
        edges AS (
            SELECT a.k, a.node AS na, b.node AS nb
            FROM pos a JOIN pos b
              ON a.k = b.k AND ((abs(a.x - b.x) = 1 AND a.y = b.y) OR (abs(a.y - b.y) = 1 AND a.x = b.x))
        ),
        lab AS (
            SELECT k, node, node AS label FROM pos
            UNION
            SELECT e.k, e.na AS node, l.label
            FROM edges e JOIN lab l ON e.k = l.k AND e.nb = l.node
            WHERE l.label < e.na
        ),
        comp AS (SELECT k, node, min(label) AS minlab FROM lab GROUP BY k, node),
        sizes AS (SELECT k, minlab, count(*) AS sz FROM comp GROUP BY k, minlab)
        SELECT printf('img-%08d', k) AS image_id,
               CAST(count(*) AS BIGINT) AS n_regions,
               CAST(sum(CASE WHEN sz < 10 THEN 1 ELSE 0 END) AS BIGINT) AS n_small,
               CAST(sum(CASE WHEN sz < 10 THEN sz ELSE 0 END) AS BIGINT) AS n_flipped
        FROM sizes GROUP BY k
    """,
    "poly_grid_cover": f"""
        WITH {POLY_SQL_CTE},
        cand AS (
            SELECT poly_id, pcx, pcy, rx, ry, gx.cx AS cx, gy.cy AS cy
            FROM polys,
                 LATERAL (SELECT unnest(generate_series(CAST(floor((pcx - rx) / 1000.0) AS INT),
                                                        CAST(floor((pcx + rx) / 1000.0) AS INT))) AS cx) gx,
                 LATERAL (SELECT unnest(generate_series(CAST(floor((pcy - ry) / 1000.0) AS INT),
                                                        CAST(floor((pcy + ry) / 1000.0) AS INT))) AS cy) gy
        ),
        hit AS (
            SELECT poly_id,
                   (CAST(cx AS BIGINT) + 524288) * 1048576 + (CAST(cy AS BIGINT) + 524288) AS cell_id
            FROM cand
            WHERE abs(cx * 1000.0 + 500.0 - pcx) / rx + abs(cy * 1000.0 + 500.0 - pcy) / ry < 1.0
        )
        SELECT poly_id, CAST(count(*) AS BIGINT) AS n_cells,
               CAST(sum(cell_id) AS BIGINT) AS sum_cell_id
        FROM hit GROUP BY poly_id
    """,
    "poly_geodesic": f"""
        WITH {POLY_SQL_CTE},
        v AS (
            SELECT poly_id,
                   pcx - rx AS x0, pcy AS y0,
                   pcx AS x1, pcy + ry AS y1,
                   pcx + rx AS x2, pcy AS y2,
                   pcx AS x3, pcy - ry AS y3
            FROM polys
        ),
        ll AS (
            SELECT poly_id,
                   radians(degrees(x0 / 6378137.0)) AS lam0,
                   radians(degrees(x1 / 6378137.0)) AS lam1,
                   radians(degrees(x2 / 6378137.0)) AS lam2,
                   radians(degrees(x3 / 6378137.0)) AS lam3,
                   radians(degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2)) AS phi0,
                   radians(degrees(2 * atan(exp(y1 / 6378137.0)) - pi() / 2)) AS phi1,
                   radians(degrees(2 * atan(exp(y2 / 6378137.0)) - pi() / 2)) AS phi2,
                   radians(degrees(2 * atan(exp(y3 / 6378137.0)) - pi() / 2)) AS phi3
            FROM v
        ),
        terms AS (
            SELECT poly_id,
                   (lam1 - lam0) * (2.0 + sin(phi0) + sin(phi1))
                   + (lam2 - lam1) * (2.0 + sin(phi1) + sin(phi2))
                   + (lam3 - lam2) * (2.0 + sin(phi2) + sin(phi3))
                   + (lam0 - lam3) * (2.0 + sin(phi3) + sin(phi0)) AS ts,
                   2.0 * 6371000.0 * asin(sqrt(sin((phi1 - phi0) / 2.0) * sin((phi1 - phi0) / 2.0)
                       + cos(phi0) * cos(phi1) * sin((lam1 - lam0) / 2.0) * sin((lam1 - lam0) / 2.0)))
                   + 2.0 * 6371000.0 * asin(sqrt(sin((phi2 - phi1) / 2.0) * sin((phi2 - phi1) / 2.0)
                       + cos(phi1) * cos(phi2) * sin((lam2 - lam1) / 2.0) * sin((lam2 - lam1) / 2.0)))
                   + 2.0 * 6371000.0 * asin(sqrt(sin((phi3 - phi2) / 2.0) * sin((phi3 - phi2) / 2.0)
                       + cos(phi2) * cos(phi3) * sin((lam3 - lam2) / 2.0) * sin((lam3 - lam2) / 2.0)))
                   + 2.0 * 6371000.0 * asin(sqrt(sin((phi0 - phi3) / 2.0) * sin((phi0 - phi3) / 2.0)
                       + cos(phi3) * cos(phi0) * sin((lam0 - lam3) / 2.0) * sin((lam0 - lam3) / 2.0))) AS per
            FROM ll
        )
        SELECT CAST(poly_id AS BIGINT) AS poly_id,
               round(abs(ts) * 6371000.0 * 6371000.0 / 2.0 / 1000000.0, 6) AS area_km2,
               round(per / 1000.0, 6) AS perim_km
        FROM terms
    """,
    "poly_buffer": f"""
        WITH {POLY_SQL_CTE}
        SELECT CAST(poly_id AS BIGINT) AS poly_id,
               CAST(36 AS BIGINT) AS n_pts,
               round(2.0 * rx * ry + 4.0 * sqrt(rx * rx + ry * ry) * d
                     + d * d / 2.0 * (2 * 8 * sin(2 * atan(ry / rx) / 8)
                                      + 2 * 8 * sin(2 * atan(rx / ry) / 8)), 3) AS buf_area,
               round(4.0 * sqrt(rx * rx + ry * ry)
                     + 32.0 * d * sin(2 * atan(ry / rx) / 16)
                     + 32.0 * d * sin(2 * atan(rx / ry) / 16), 6) AS buf_perim
        FROM (SELECT poly_id, rx, ry, 500.0 + (poly_id % 4) * 250.0 AS d FROM polys)
    """,
    "poly_metrics": f"""
        WITH {POLY_SQL_CTE}
        SELECT CAST(poly_id AS BIGINT) AS poly_id,
               round(2.0 * rx * ry, 6) AS area,
               round(4.0 * sqrt(rx * rx + ry * ry), 6) AS perimeter,
               round(pcx, 6) AS cx,
               round(pcy, 6) AS cy
        FROM polys
    """,
    "tile_temporal_interp": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, e.t AS t,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS a
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy,
                 (SELECT unnest(generate_series(0, 4)) AS t) e
            WHERE tiles.k < 16
        ),
        s AS (
            SELECT image_id, x, y, t, a,
                   ((7 * a + 13 * t) % 10) >= 3 AS valid
            FROM px
        ),
        w AS (
            SELECT image_id, x, y, t, a, valid,
                   max(CASE WHEN valid THEN t END) OVER
                       (PARTITION BY image_id, x, y ORDER BY t
                        ROWS UNBOUNDED PRECEDING) AS tp,
                   min(CASE WHEN valid THEN t END) OVER
                       (PARTITION BY image_id, x, y ORDER BY t
                        ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS tn
            FROM s
        ),
        f AS (
            SELECT image_id, t, valid,
                   CASE WHEN tp IS NULL THEN ((a + 37 * tn) % 256) * 1000
                        WHEN tn IS NULL THEN ((a + 37 * tp) % 256) * 1000
                        ELSE CAST(floor(((a + 37 * tp) % 256) * 1000.0
                             + (((a + 37 * tn) % 256) - ((a + 37 * tp) % 256)) * 1000.0
                               * (t - tp) / (tn - tp) + 0.5) AS BIGINT)
                   END AS fill
            FROM w
        )
        SELECT image_id,
               CAST(count(*) FILTER (WHERE t = 0) AS BIGINT) AS n_px,
               CAST(count(*) FILTER (WHERE NOT valid) AS BIGINT) AS n_interp,
               CAST(coalesce(sum(fill) FILTER (WHERE NOT valid), 0) AS BIGINT) AS sum_interp
        FROM f
        GROUP BY image_id
    """,
    "tile_fillnodata": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.k AS k, tiles.w AS w, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
            WHERE tiles.k < 8
        ),
        nd AS (SELECT image_id, k, w, x, y FROM px WHERE v < 32),
        vd AS (SELECT image_id, x AS tx, y AS ty FROM px WHERE v >= 32),
        best AS (
            SELECT n.image_id, n.k, n.w, n.x, n.y,
                   min(((n.x - t.tx) * (n.x - t.tx) + (n.y - t.ty) * (n.y - t.ty)) * 1048576
                       + (t.ty * n.w + t.tx)) AS key
            FROM nd n JOIN vd t ON t.image_id = n.image_id
            GROUP BY 1, 2, 3, 4, 5
        ),
        fills AS (
            SELECT image_id, key % 1048576 AS src_idx,
                   (((key % 1048576) % w) * 31 + ((key % 1048576) // w) * 17 + k) % 256 AS fv
            FROM best
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_filled,
               CAST(sum(fv) AS BIGINT) AS sum_fill,
               CAST(sum(src_idx) AS BIGINT) AS sum_src
        FROM fills GROUP BY image_id
    """,
    "tile_geohash": f"""
        WITH RECURSIVE {TILE_SQL_CTE},
        c AS (
            SELECT image_id,
                   floor(degrees(((x0 + (x0 + w * 10.0)) / 2) / 6378137.0) * 1e9 + 0.5) / 1e9 AS lon,
                   floor(degrees(2 * atan(exp((((y0 - h * 10.0) + y0) / 2) / 6378137.0)) - pi() / 2) * 1e9 + 0.5) / 1e9 AS lat
            FROM tiles
        ),
        walk AS (
            SELECT image_id, lon, lat, 0 AS i, CAST(0 AS BIGINT) AS val,
                   CAST(-180.0 AS DOUBLE) AS lo_lon, CAST(180.0 AS DOUBLE) AS hi_lon,
                   CAST(-90.0 AS DOUBLE) AS lo_lat, CAST(90.0 AS DOUBLE) AS hi_lat
            FROM c
            UNION ALL
            SELECT image_id, lon, lat, i + 1,
                   val * 2 + CASE WHEN (CASE WHEN i % 2 = 0
                                             THEN lon >= (lo_lon + hi_lon) / 2
                                             ELSE lat >= (lo_lat + hi_lat) / 2 END)
                             THEN 1 ELSE 0 END,
                   CASE WHEN i % 2 = 0 AND lon >= (lo_lon + hi_lon) / 2
                        THEN (lo_lon + hi_lon) / 2 ELSE lo_lon END,
                   CASE WHEN i % 2 = 0 AND NOT lon >= (lo_lon + hi_lon) / 2
                        THEN (lo_lon + hi_lon) / 2 ELSE hi_lon END,
                   CASE WHEN i % 2 = 1 AND lat >= (lo_lat + hi_lat) / 2
                        THEN (lo_lat + hi_lat) / 2 ELSE lo_lat END,
                   CASE WHEN i % 2 = 1 AND NOT lat >= (lo_lat + hi_lat) / 2
                        THEN (lo_lat + hi_lat) / 2 ELSE hi_lat END
            FROM walk WHERE i < 30
        )
        SELECT image_id,
               substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((val >> 25) & 31 AS INT) + 1, 1)
            || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((val >> 20) & 31 AS INT) + 1, 1)
            || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((val >> 15) & 31 AS INT) + 1, 1)
            || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((val >> 10) & 31 AS INT) + 1, 1)
            || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST((val >> 5) & 31 AS INT) + 1, 1)
            || substr('0123456789bcdefghjkmnpqrstuvwxyz', CAST(val & 31 AS INT) + 1, 1)
               AS geohash,
               CAST(val AS BIGINT) AS ghval
        FROM walk WHERE i = 30
    """,
    "hilbert_partitions": """
        WITH RECURSIVE tiles AS (
            SELECT p_partkey AS k FROM part
        ),
        walk AS (
            SELECT k, CAST(k % 40 AS BIGINT) AS x, CAST(k // 40 AS BIGINT) AS y,
                   CAST(0 AS BIGINT) AS d, CAST(32768 AS BIGINT) AS s
            FROM tiles
            UNION ALL
            SELECT k,
                   CASE WHEN (y & s) = 0
                        THEN (CASE WHEN (x & s) > 0 THEN s - 1 - y ELSE y END)
                        ELSE x END AS x,
                   CASE WHEN (y & s) = 0
                        THEN (CASE WHEN (x & s) > 0 THEN s - 1 - x ELSE x END)
                        ELSE y END AS y,
                   d + s * s * xor(3 * (CASE WHEN (x & s) > 0 THEN 1 ELSE 0 END),
                                   CASE WHEN (y & s) > 0 THEN 1 ELSE 0 END) AS d,
                   s // 2 AS s
            FROM walk WHERE s > 0
        )
        SELECT CAST(d >> 6 AS BIGINT) AS partition,
               CAST(count(*) AS BIGINT) AS n_tiles,
               CAST(min(d) AS BIGINT) AS min_hkey,
               CAST(max(d) AS BIGINT) AS max_hkey
        FROM walk WHERE s = 0 GROUP BY 1
    """,
    "zorder_partitions": f"""
        WITH {TILE_SQL_CTE},
        cxy AS (SELECT k % 40 AS cx, k // 40 AS cy FROM tiles),
        m AS (SELECT {MORTON_SQL_EXPR} AS morton FROM cxy)
        SELECT CAST(morton >> 6 AS BIGINT) AS partition,
               CAST(count(*) AS BIGINT) AS n_tiles,
               CAST(min(morton) AS BIGINT) AS min_morton,
               CAST(max(morton) AS BIGINT) AS max_morton
        FROM m GROUP BY 1
    """,
    "band_math": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS b0,
                   (gx.x * 31 + gy.y * 17 + tiles.k + 7) % 256 AS b1
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px,
               CAST(sum(CASE WHEN b1 > b0 THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
               CAST(sum(CASE WHEN b1 < b0 THEN 1 ELSE 0 END) AS BIGINT) AS n_neg,
               round(avg((b1 - b0) / (b1 + b0)), 6) AS mean_nd
        FROM px GROUP BY image_id
    """,
    "events_ntile": """
        WITH t AS (
            SELECT user_id, value,
                   ntile(4) OVER (PARTITION BY user_id ORDER BY value, event_id) AS quartile
            FROM events
        )
        SELECT CAST(user_id AS BIGINT) AS user_id,
               CAST(quartile AS BIGINT) AS quartile,
               CAST(count(*) AS BIGINT) AS n_events,
               round(sum(value), 6) AS sum_value
        FROM t GROUP BY 1, 2
    """,
    "pixel_histogram": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
            WHERE tiles.k < 64
        )
        SELECT CAST(v AS BIGINT) AS value, CAST(count(*) AS BIGINT) AS n_px
        FROM px GROUP BY 1
    """,
    "image_features": f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM tiles,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.w - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(tiles.h - 1 AS INT))) AS y) gy
        )
        SELECT image_id, round(CAST(sum(v) AS DOUBLE) / count(*), 6) AS mean_v
        FROM px GROUP BY image_id
    """,
    "polygonize": """
        WITH RECURSIVE px AS (
            SELECT p_partkey AS k, gx.x AS x, gy.y AS y,
                   CASE WHEN (gx.x * 31 + gy.y * 17 + p_partkey) % 256 >= 128 THEN 1 ELSE 0 END AS cls
            FROM part,
                 LATERAL (SELECT unnest(generate_series(0, CAST(32 + (part.p_partkey % 3) * 16 - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(32 + (part.p_partkey % 5) * 8 - 1 AS INT))) AS y) gy
            WHERE p_partkey < 24
        ),
        pos AS (SELECT k, x, y, (y * 100 + x) AS node FROM px WHERE cls = 1),
        edges AS (
            SELECT a.k, a.node AS na, b.node AS nb
            FROM pos a JOIN pos b
              ON a.k = b.k AND ((abs(a.x - b.x) = 1 AND a.y = b.y) OR (abs(a.y - b.y) = 1 AND a.x = b.x))
        ),
        lab AS (
            SELECT k, node, node AS label FROM pos
            UNION
            SELECT e.k, e.na AS node, l.label
            FROM edges e JOIN lab l ON e.k = l.k AND e.nb = l.node
            WHERE l.label < e.na
        ),
        regions AS (
            SELECT k, CAST(count(DISTINCT minlab) AS BIGINT) AS n_regions
            FROM (SELECT k, node, min(label) AS minlab FROM lab GROUP BY k, node)
            GROUP BY k
        ),
        -- lattice-vertex 2x2 patterns: NW=1, NE=2, SW=4, SE=8
        quads AS (
            SELECT k, x + 1 AS vx, y + 1 AS vy, 1 AS b FROM pos
            UNION ALL SELECT k, x, y + 1, 2 FROM pos
            UNION ALL SELECT k, x + 1, y, 4 FROM pos
            UNION ALL SELECT k, x, y, 8 FROM pos
        ),
        vpat AS (SELECT k, vx, vy, sum(b) AS pat, count(*) AS cnt FROM quads GROUP BY k, vx, vy),
        corners AS (
            SELECT k, CAST(sum(CASE WHEN cnt IN (1, 3) THEN 1
                                    WHEN pat IN (9, 6) THEN 2
                                    ELSE 0 END) AS BIGINT) AS n_corners
            FROM vpat GROUP BY k
        ),
        cellcnt AS (SELECT k, count(*) AS nc FROM pos GROUP BY k),
        adjcnt AS (SELECT k, count(*) AS na FROM edges GROUP BY k)
        SELECT printf('img-%08d', r.k) AS image_id, r.n_regions, c.n_corners,
               CAST(4 * cc.nc - coalesce(a.na, 0) AS BIGINT) AS n_perimeter
        FROM regions r
        JOIN corners c ON c.k = r.k
        JOIN cellcnt cc ON cc.k = r.k
        LEFT JOIN adjcnt a ON a.k = r.k
    """,
    "polygonize_regions": """
        WITH RECURSIVE px AS (
            SELECT p_partkey AS k, gx.x AS x, gy.y AS y,
                   CASE WHEN (gx.x * 31 + gy.y * 17 + p_partkey) % 256 >= 128 THEN 1 ELSE 0 END AS cls
            FROM part,
                 LATERAL (SELECT unnest(generate_series(0, CAST(32 + (part.p_partkey % 3) * 16 - 1 AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series(0, CAST(32 + (part.p_partkey % 5) * 8 - 1 AS INT))) AS y) gy
            WHERE p_partkey < 24
        ),
        pos AS (SELECT k, x, y, (y * 100 + x) AS node FROM px WHERE cls = 1),
        edges AS (
            SELECT a.k, a.node AS na, b.node AS nb
            FROM pos a JOIN pos b
              ON a.k = b.k AND ((abs(a.x - b.x) = 1 AND a.y = b.y) OR (abs(a.y - b.y) = 1 AND a.x = b.x))
        ),
        lab AS (
            SELECT k, node, node AS label FROM pos
            UNION
            SELECT e.k, e.na AS node, l.label
            FROM edges e JOIN lab l ON e.k = l.k AND e.nb = l.node
            WHERE l.label < e.na
        )
        SELECT printf('img-%08d', k) AS image_id, CAST(count(DISTINCT minlab) AS BIGINT) AS n_regions
        FROM (SELECT k, node, min(label) AS minlab FROM lab GROUP BY k, node)
        GROUP BY k
    """,

    "lang_id_pred": """
        WITH words AS (
            SELECT DISTINCT doc_id, w FROM (
                SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w FROM documents
            )
        ),
        hits AS (
            SELECT doc_id,
                sum(CASE WHEN w IN ('a', 'and', 'as', 'at', 'by', 'for', 'in', 'is', 'it', 'of', 'on', 'the', 'to', 'with') THEN 1 ELSE 0 END) / 14.0 AS s_en,
                sum(CASE WHEN w IN ('auf', 'das', 'der', 'die', 'ein', 'eine', 'ist', 'mit', 'und', 'von', 'zu') THEN 1 ELSE 0 END) / 11.0 AS s_de,
                sum(CASE WHEN w IN ('avec', 'dans', 'est', 'et', 'la', 'le', 'les', 'pour', 'sur', 'un', 'une') THEN 1 ELSE 0 END) / 11.0 AS s_fr,
                sum(CASE WHEN w IN ('con', 'el', 'en', 'es', 'la', 'las', 'los', 'para', 'por', 'un', 'una', 'y') THEN 1 ELSE 0 END) / 12.0 AS s_es
            FROM words GROUP BY doc_id
        ),
        scores AS (
            SELECT d.doc_id, coalesce(s_en,0) AS s_en, coalesce(s_de,0) AS s_de,
                   coalesce(s_fr,0) AS s_fr, coalesce(s_es,0) AS s_es
            FROM documents d LEFT JOIN hits USING (doc_id)
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
            CASE WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
                 WHEN s_en = greatest(s_en, s_de, s_fr, s_es) THEN 'en'
                 WHEN s_de = greatest(s_en, s_de, s_fr, s_es) THEN 'de'
                 WHEN s_fr = greatest(s_en, s_de, s_fr, s_es) THEN 'fr'
                 ELSE 'es' END AS lang_pred
        FROM scores
    """,
    "multimodal_neardup": """
        WITH t AS (
            SELECT CAST(p_partkey AS BIGINT) AS k,
                   CAST((p_partkey * 1000003 + 12345) % 1048576 AS BIGINT) AS ph,
                   printf('tile img-%08d', p_partkey) AS cap
            FROM part
        ),
        words AS (
            SELECT k, unnest(regexp_extract_all(lower(cap), '[a-z0-9'']+')) AS w FROM t
        ),
        wh AS (
            SELECT k, CAST('0x' || substring(md5(w), 1, 16) AS UBIGINT) AS h FROM words
        ),
        bits AS (
            SELECT k, b.b AS bit,
                   sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
            FROM wh, (SELECT unnest(generate_series(0, 63)) AS b) b
            GROUP BY k, b.b
        ),
        sh AS (
            SELECT k,
                   sum(CASE WHEN acc > 0 THEN CAST(1 AS HUGEINT) << bit ELSE CAST(0 AS HUGEINT) END) AS us
            FROM bits GROUP BY k
        ),
        s AS (SELECT t.k, t.ph, CAST(sh.us AS UBIGINT) AS ush FROM t JOIN sh USING (k))
        SELECT a.k AS key_a, b.k AS key_b,
               CAST(bit_count(xor(a.ph, b.ph)) AS BIGINT) AS ph_ham,
               CAST(bit_count(xor(a.ush, b.ush)) AS BIGINT) AS sh_ham
        FROM s a, s b
        WHERE a.k < b.k
          AND bit_count(xor(a.ph, b.ph)) <= 3
          AND bit_count(xor(a.ush, b.ush)) <= 12
    """,
    "domain_mix": """
        WITH words AS (
            SELECT DISTINCT doc_id, w FROM (
                SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w FROM documents
            )
        ),
        hits AS (
            SELECT doc_id,
                sum(CASE WHEN w IN ('a', 'and', 'as', 'at', 'by', 'for', 'in', 'is', 'it', 'of', 'on', 'the', 'to', 'with') THEN 1 ELSE 0 END) / 14.0 AS s_en,
                sum(CASE WHEN w IN ('auf', 'das', 'der', 'die', 'ein', 'eine', 'ist', 'mit', 'und', 'von', 'zu') THEN 1 ELSE 0 END) / 11.0 AS s_de,
                sum(CASE WHEN w IN ('avec', 'dans', 'est', 'et', 'la', 'le', 'les', 'pour', 'sur', 'un', 'une') THEN 1 ELSE 0 END) / 11.0 AS s_fr,
                sum(CASE WHEN w IN ('con', 'el', 'en', 'es', 'la', 'las', 'los', 'para', 'por', 'un', 'una', 'y') THEN 1 ELSE 0 END) / 12.0 AS s_es
            FROM words GROUP BY doc_id
        ),
        scores AS (
            SELECT d.doc_id, coalesce(s_en,0) AS s_en, coalesce(s_de,0) AS s_de,
                   coalesce(s_fr,0) AS s_fr, coalesce(s_es,0) AS s_es
            FROM documents d LEFT JOIN hits USING (doc_id)
        ),
        langs AS (
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                CASE WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
                     WHEN s_en = greatest(s_en, s_de, s_fr, s_es) THEN 'en'
                     WHEN s_de = greatest(s_en, s_de, s_fr, s_es) THEN 'de'
                     WHEN s_fr = greatest(s_en, s_de, s_fr, s_es) THEN 'fr'
                     ELSE 'es' END AS lang_pred
            FROM scores
        ),
        known AS (SELECT * FROM langs WHERE lang_pred != 'und'),
        cnts AS (SELECT lang_pred, count(*) AS n FROM known GROUP BY 1),
        mn AS (SELECT min(n) AS m FROM cnts),
        th AS (SELECT lang_pred, CAST((m * 1000000) // n AS BIGINT) AS t FROM cnts, mn)
        SELECT k.doc_id, k.lang_pred
        FROM known k JOIN th USING (lang_pred)
        WHERE CAST(CAST('0x' || substring(md5(CAST(k.doc_id AS VARCHAR)), 1, 8) AS UBIGINT) % 1000000 AS BIGINT) < t
    """,
    "simhash": rf"""
        WITH {_SIMHASH_SQL_CTE}
        SELECT doc_id, simhash FROM sims
    """,
    "simhash_neardup": rf"""
        WITH {_SIMHASH_SQL_CTE}
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
        FROM sims a, sims b
        WHERE a.doc_id < b.doc_id AND bit_count(xor(a.simhash, b.simhash)) <= 3
    """,
    "lang_id": r"""
        WITH f AS (
            SELECT doc_id,
                length(text) AS n_chars,
                CASE WHEN trim(text) = '' THEN 0 ELSE len(string_split_regex(trim(text), '\s+')) END AS n_words,
                length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS alpha,
                length(regexp_replace(text, '[^0-9]', '', 'g')) AS digit,
                length(text) - length(regexp_replace(text, '\s', '', 'g')) AS space,
                len(regexp_extract_all(text, '[a-zA-Z]+|[0-9]+|[^\sa-zA-Z0-9]')) AS n_tokens_bpe
            FROM documents
        ),
        toks AS (
            SELECT doc_id,
                sum(CASE WHEN trim(lower(w), '.,!?;:') IN ('the','and','of','a','to','in','is','it','for','on','with','as','at','by') THEN 1 ELSE 0 END) AS stop
            FROM (SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS w FROM documents WHERE trim(text) != '')
            GROUP BY doc_id
        ),
        q AS (
            SELECT f.doc_id, n_tokens_bpe,
                round((CASE WHEN n_words < 5 THEN 0.2 ELSE 1.0 END)
                    * least(1.0, (CASE WHEN n_chars = 0 THEN 0.0 ELSE CAST(alpha AS DOUBLE)/n_chars END) * 1.5)
                    * (1.0 - least(0.5, CASE WHEN n_chars = 0 THEN 0.0 ELSE CAST(n_chars - alpha - digit - space AS DOUBLE)/n_chars END))
                    * (0.5 + least(0.5, (CASE WHEN n_words = 0 THEN 0.0 ELSE CAST(coalesce(stop,0) AS DOUBLE)/n_words END) * 2)), 6) AS quality
            FROM f LEFT JOIN toks ON f.doc_id = toks.doc_id
        ),
        lw AS (
            SELECT DISTINCT doc_id, w FROM (
                SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w FROM documents
            )
        ),
        lh AS (
            SELECT doc_id,
                sum(CASE WHEN w IN ('a', 'and', 'as', 'at', 'by', 'for', 'in', 'is', 'it', 'of', 'on', 'the', 'to', 'with') THEN 1 ELSE 0 END) / 14.0 AS s_en,
                sum(CASE WHEN w IN ('auf', 'das', 'der', 'die', 'ein', 'eine', 'ist', 'mit', 'und', 'von', 'zu') THEN 1 ELSE 0 END) / 11.0 AS s_de,
                sum(CASE WHEN w IN ('avec', 'dans', 'est', 'et', 'la', 'le', 'les', 'pour', 'sur', 'un', 'une') THEN 1 ELSE 0 END) / 11.0 AS s_fr,
                sum(CASE WHEN w IN ('con', 'el', 'en', 'es', 'la', 'las', 'los', 'para', 'por', 'un', 'una', 'y') THEN 1 ELSE 0 END) / 12.0 AS s_es
            FROM lw GROUP BY doc_id
        ),
        ls AS (
            SELECT d.doc_id, coalesce(s_en,0) AS s_en, coalesce(s_de,0) AS s_de,
                   coalesce(s_fr,0) AS s_fr, coalesce(s_es,0) AS s_es
            FROM documents d LEFT JOIN lh USING (doc_id)
        )
        SELECT CAST(d.doc_id AS BIGINT) AS doc_id, d.lang,
            CASE WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
                 WHEN s_en = greatest(s_en, s_de, s_fr, s_es) THEN 'en'
                 WHEN s_de = greatest(s_en, s_de, s_fr, s_es) THEN 'de'
                 WHEN s_fr = greatest(s_en, s_de, s_fr, s_es) THEN 'fr'
                 ELSE 'es' END AS lang_pred,
            q.quality, q.n_tokens_bpe
        FROM documents d JOIN ls ON d.doc_id = ls.doc_id JOIN q ON d.doc_id = q.doc_id
    """,
    "knn_ivf": """
        SELECT CAST(vec_id AS BIGINT) AS q_id, CAST(true AS BOOLEAN) AS recall_ok
        FROM embeddings WHERE vec_id < 8
    """,
    "knn_lsh": """
        SELECT CAST(vec_id AS BIGINT) AS q_id, CAST(true AS BOOLEAN) AS recall_ok
        FROM embeddings WHERE vec_id < 8
    """,
    "knn_pq": """
        SELECT CAST(vec_id AS BIGINT) AS q_id, CAST(true AS BOOLEAN) AS recall_ok
        FROM embeddings WHERE vec_id < 8
    """,
    "knn_ivfpq": """
        SELECT CAST(vec_id AS BIGINT) AS q_id, CAST(true AS BOOLEAN) AS recall_ok
        FROM embeddings WHERE vec_id < 8
    """,
    "embedding_neardup": """
        SELECT CAST(a.vec_id AS BIGINT) AS vec_a, CAST(b.vec_id AS BIGINT) AS vec_b,
               round(CAST(list_cosine_similarity(a.embedding, b.embedding) AS DOUBLE), 4) AS sim
        FROM embeddings a, embeddings b
        WHERE a.vec_id < b.vec_id
          AND list_cosine_similarity(a.embedding, b.embedding) >= 0.92
    """,
    "embedding_neardup_planted": """
        WITH allv AS (
            SELECT CAST(vec_id AS BIGINT) AS vec_id, embedding::DOUBLE[] AS embedding
            FROM embeddings
            UNION ALL
            SELECT CAST(vec_id + 1000000000 AS BIGINT),
                   list_transform(embedding::DOUBLE[], x -> x * 2.0)
            FROM embeddings
        )
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               round(CAST(list_cosine_similarity(a.embedding, b.embedding) AS DOUBLE), 4) AS sim
        FROM allv a, allv b
        WHERE a.vec_id < b.vec_id
          AND list_cosine_similarity(a.embedding, b.embedding) >= 0.92
    """,
    "minhash_pairs": rf"""
        WITH {_md5_minhash_sql_cte()}
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(count(*) AS BIGINT) AS n_bands
        FROM bkeys a JOIN bkeys b ON a.band_key = b.band_key AND a.doc_id < b.doc_id
        WHERE a.doc_id < 1500 AND b.doc_id < 1500
        GROUP BY 1, 2
    """,
    "minhash_neardup": """
        WITH norm AS (
            SELECT doc_id, regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS t
            FROM documents
        ),
        sh AS (
            SELECT doc_id,
                   list(DISTINCT substring(t, i.i, 5)) AS s,
                   count(DISTINCT substring(t, i.i, 5)) AS n
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 4, 0))) AS i) i
            GROUP BY doc_id
        ),
        pairs AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) AS inter,
                   CAST(a.n + b.n - len(list_intersect(a.s, b.s)) AS DOUBLE) AS uni
            FROM sh a, sh b
            WHERE a.doc_id < b.doc_id
        )
        SELECT doc_a, doc_b, round(inter / uni, 6) AS jac
        FROM pairs WHERE inter / uni >= 0.5
    """,
    "jaccard_neardup": """
        WITH norm AS (
            SELECT doc_id, regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS t
            FROM documents
        ),
        sh AS (
            SELECT doc_id,
                   list(DISTINCT substring(t, i.i, 5)) AS s,
                   count(DISTINCT substring(t, i.i, 5)) AS n
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 4, 0))) AS i) i
            GROUP BY doc_id
        ),
        pairs AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) AS inter,
                   CAST(a.n + b.n - len(list_intersect(a.s, b.s)) AS DOUBLE) AS uni
            FROM sh a, sh b
            WHERE a.doc_id < b.doc_id
        )
        SELECT doc_a, doc_b, round(inter / uni, 6) AS jac
        FROM pairs WHERE inter / uni >= 0.6
    """,
    "spatial_knn": f"""
        WITH {POINT_SQL_CTE}
        SELECT q.pid AS qid,
               CAST(row_number() OVER w AS BIGINT) AS rank,
               d.pid AS nid,
               round(sqrt((q.px - d.px) * (q.px - d.px) + (q.py - d.py) * (q.py - d.py)), 6) AS dist
        FROM pt_coords q, pt_coords d
        WHERE q.pid < 32 AND d.pid != q.pid
        WINDOW w AS (
            PARTITION BY q.pid
            ORDER BY (q.px - d.px) * (q.px - d.px) + (q.py - d.py) * (q.py - d.py), d.pid
        )
        QUALIFY row_number() OVER w <= 5
    """,
    "phash_neardup": """
        WITH t AS (
            SELECT CAST(p_partkey AS BIGINT) AS k,
                   CAST((p_partkey * 1000003 + 12345) % 1048576 AS BIGINT) AS ph
            FROM part
        )
        SELECT a.k AS key_a, b.k AS key_b,
               CAST(bit_count(xor(a.ph, b.ph)) AS BIGINT) AS hamming
        FROM t a, t b
        WHERE a.k < b.k AND bit_count(xor(a.ph, b.ph)) <= 3
    """,
    "knn": """
        WITH q AS (SELECT vec_id AS q_id, embedding AS qe FROM embeddings WHERE vec_id < 8)
        SELECT CAST(q_id AS BIGINT) AS q_id, CAST(vec_id AS BIGINT) AS vec_id,
               round(CAST(list_cosine_similarity(e.embedding, q.qe) AS DOUBLE), 4) AS sim
        FROM embeddings e, q
        QUALIFY row_number() OVER (
            PARTITION BY q_id
            ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, vec_id
        ) <= 5
    """,
    "dedup_exact": """
        SELECT md5(text) AS h, CAST(min(doc_id) AS BIGINT) AS keep_id, CAST(count(*) AS BIGINT) AS n_dups
        FROM documents GROUP BY 1
    """,
    "cms_sketch": """
        WITH toks AS (
            SELECT unnest(string_split_regex(trim(text), '\\s+')) AS w
            FROM documents WHERE trim(text) <> ''
        ),
        cells AS (
            SELECT j.j AS row_id,
                   CAST(CAST('0x' || substring(md5(w), j.j * 8 + 1, 8) AS UBIGINT) % 1024 AS BIGINT) AS bucket
            FROM toks, LATERAL (SELECT unnest([0, 1, 2, 3]) AS j) j
        )
        SELECT CAST(row_id AS BIGINT) AS row_id, bucket, CAST(count(*) AS BIGINT) AS cnt
        FROM cells GROUP BY 1, 2
    """,
    "doc_chunks": """
        WITH toks AS (
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   string_split_regex(trim(text), '\\s+') AS tl,
                   len(string_split_regex(trim(text), '\\s+')) AS n
            FROM documents
            WHERE trim(text) <> ''
        )
        SELECT doc_id,
               CAST(g.c AS BIGINT) AS chunk_id,
               CAST(least(g.c * 48 + 64, n) - g.c * 48 AS BIGINT) AS n_tok,
               CAST(list_sum(list_transform(
                   tl[g.c * 48 + 1 : least(g.c * 48 + 64, n)],
                   x -> length(x))) AS BIGINT) AS sum_len
        FROM toks,
             LATERAL (SELECT unnest(generate_series(
                 0, CAST(ceil(n / 48.0) AS INT) - 1)) AS c) g
    """,
    "line_dedup": """
        WITH toks AS (
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   string_split_regex(trim(text), '\\s+') AS tl,
                   len(string_split_regex(trim(text), '\\s+')) AS n
            FROM documents
            WHERE trim(text) <> ''
        ),
        chunks AS (
            SELECT doc_id, CAST(g.c AS BIGINT) AS ci,
                   array_to_string(tl[g.c * 8 + 1 : least(g.c * 8 + 8, n)], ' ') AS chunk
            FROM toks,
                 LATERAL (SELECT unnest(generate_series(
                     0, CAST(ceil(n / 8.0) AS INT) - 1)) AS c) g
        ),
        ranked AS (
            SELECT doc_id, ci, length(chunk) AS clen,
                   doc_id * 1048576 + ci AS packed,
                   min(doc_id * 1048576 + ci) OVER (PARTITION BY chunk) AS first_packed
            FROM chunks
        )
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_chunks,
               CAST(count(*) FILTER (WHERE packed = first_packed) AS BIGINT) AS n_kept,
               CAST(coalesce(sum(clen) FILTER (WHERE packed = first_packed), 0) AS BIGINT) AS kept_chars
        FROM ranked GROUP BY doc_id
    """,
    "text_tokens": """
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
            CAST(CASE WHEN trim(text) = '' THEN 0
                 ELSE len(string_split_regex(trim(text), '\\s+')) END AS BIGINT) AS n_tokens_ws,
            CAST(length(text) AS BIGINT) AS n_chars_txt
        FROM documents
    """,
    "text_quality": """
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
            CASE WHEN length(text) = 0 THEN 0.0
                 ELSE round(CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS DOUBLE)
                            / length(text), 6) END AS alpha_ratio,
            CASE WHEN length(text) = 0 THEN 0.0
                 ELSE round(CAST(length(regexp_replace(text, '[^0-9]', '', 'g')) AS DOUBLE)
                            / length(text), 6) END AS digit_ratio
        FROM documents
    """,
    "events_window": """
        SELECT event_type, CAST(epoch_us(ts) // 300000000 AS BIGINT) AS win,
               CAST(count(*) AS BIGINT) AS n_events,
               round(CAST(sum(value) AS DOUBLE), 6) AS sum_value
        FROM events GROUP BY 1, 2
    """,
    "events_sliding": """
        WITH fan AS (
            SELECT (epoch_us(ts) // 300000000) * 300 - 300 * off.k AS win, value
            FROM events, (SELECT unnest(generate_series(0, 1)) AS k) off
        )
        SELECT CAST(win AS BIGINT) AS win, CAST(count(*) AS BIGINT) AS n_events,
               round(CAST(sum(value) AS DOUBLE), 6) AS sum_value
        FROM fan GROUP BY 1
    """,
    "salted_cell_counts": f"""
        WITH {TILE_SQL_CTE}
        SELECT (CAST(floor((x0 + w * 10.0 / 2) / 5000.0) AS BIGINT) + 524288) * 1048576
               + (CAST(floor((y0 - h * 10.0 / 2) / 5000.0) AS BIGINT) + 524288) AS cell,
               CAST(count(*) AS BIGINT) AS n_tiles
        FROM tiles GROUP BY 1
    """,
    "token_quantiles_by_lang": """
        WITH t AS (
            SELECT lang,
                   CAST(CASE WHEN trim(text) = '' THEN 0
                        ELSE len(string_split_regex(trim(text), '\\s+')) END AS BIGINT) AS nt
            FROM documents
        )
        SELECT lang, CAST(0.25 AS DOUBLE) AS q,
               CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY nt) AS BIGINT) AS n_tokens_ws
        FROM t GROUP BY lang
        UNION ALL
        SELECT lang, CAST(0.5 AS DOUBLE),
               CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t GROUP BY lang
        UNION ALL
        SELECT lang, CAST(0.9 AS DOUBLE),
               CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t GROUP BY lang
    """,
    "embedding_centroids": """
        SELECT CAST(vec_id % 8 AS BIGINT) AS grp, CAST(i.i AS BIGINT) AS dim,
               round(CAST(avg(embedding[i.i + 1]) AS DOUBLE), 6) AS c
        FROM embeddings, (SELECT unnest(generate_series(0, 63)) AS i) i
        GROUP BY grp, i.i
    """,
    "embedding_cov": """
        SELECT CAST(a.i AS BIGINT) AS dim_a, CAST(b.i AS BIGINT) AS dim_b,
               SUM(CAST(floor(CAST(embedding[a.i + 1] AS DOUBLE)
                              * CAST(embedding[b.i + 1] AS DOUBLE)
                              * 1000000.0 + 0.5) AS BIGINT)) AS sxy
        FROM embeddings,
             (SELECT unnest(generate_series(0, 63)) AS i) a,
             (SELECT unnest(generate_series(0, 63)) AS i) b
        WHERE a.i <= b.i
        GROUP BY dim_a, dim_b
    """,
    "corpus_clean": """
        WITH words AS (
            SELECT DISTINCT doc_id, w FROM (
                SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w FROM documents
            )
        ),
        hits AS (
            SELECT doc_id,
                sum(CASE WHEN w IN ('a', 'and', 'as', 'at', 'by', 'for', 'in', 'is', 'it', 'of', 'on', 'the', 'to', 'with') THEN 1 ELSE 0 END) / 14.0 AS s_en,
                sum(CASE WHEN w IN ('auf', 'das', 'der', 'die', 'ein', 'eine', 'ist', 'mit', 'und', 'von', 'zu') THEN 1 ELSE 0 END) / 11.0 AS s_de,
                sum(CASE WHEN w IN ('avec', 'dans', 'est', 'et', 'la', 'le', 'les', 'pour', 'sur', 'un', 'une') THEN 1 ELSE 0 END) / 11.0 AS s_fr,
                sum(CASE WHEN w IN ('con', 'el', 'en', 'es', 'la', 'las', 'los', 'para', 'por', 'un', 'una', 'y') THEN 1 ELSE 0 END) / 12.0 AS s_es
            FROM words GROUP BY doc_id
        ),
        scores AS (
            SELECT d.doc_id, coalesce(s_en,0) AS s_en, coalesce(s_de,0) AS s_de,
                   coalesce(s_fr,0) AS s_fr, coalesce(s_es,0) AS s_es
            FROM documents d LEFT JOIN hits USING (doc_id)
        ),
        lp AS (
            SELECT doc_id,
                CASE WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
                     WHEN s_en = greatest(s_en, s_de, s_fr, s_es) THEN 'en'
                     WHEN s_de = greatest(s_en, s_de, s_fr, s_es) THEN 'de'
                     WHEN s_fr = greatest(s_en, s_de, s_fr, s_es) THEN 'fr'
                     ELSE 'es' END AS lang_pred
            FROM scores
        ),
        f AS (
            SELECT d.doc_id, d.text, lp.lang_pred,
                   CAST(CASE WHEN trim(d.text) = '' THEN 0
                        ELSE len(string_split_regex(trim(d.text), '\\s+')) END AS BIGINT) AS n_tokens_ws
            FROM documents d JOIN lp USING (doc_id)
            WHERE lp.lang_pred != 'und'
              AND (CASE WHEN trim(d.text) = '' THEN 0
                   ELSE len(string_split_regex(trim(d.text), '\\s+')) END) >= 5
        ),
        u AS (
            SELECT * FROM f QUALIFY doc_id = min(doc_id) OVER (PARTITION BY md5(text))
        ),
        norm AS (SELECT doc_id, regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS t FROM u),
        shg AS (
            SELECT doc_id,
                   list(DISTINCT substring(t, i.i, 5)) AS s,
                   count(DISTINCT substring(t, i.i, 5)) AS n
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 4, 0))) AS i) i
            GROUP BY doc_id
        ),
        drops AS (
            SELECT b.doc_id AS doc_b
            FROM shg a, shg b
            WHERE a.doc_id < b.doc_id
              AND CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
                  / (a.n + b.n - len(list_intersect(a.s, b.s))) >= 0.5
        )
        SELECT CAST(u.doc_id AS BIGINT) AS doc_id, u.lang_pred, u.n_tokens_ws
        FROM u WHERE NOT EXISTS (SELECT 1 FROM drops p WHERE p.doc_b = u.doc_id)
    """,
    "customers_with_big_orders": """
        SELECT CAST(c.c_custkey AS BIGINT) AS custkey, c.c_mktsegment
        FROM customer c
        WHERE EXISTS (
            SELECT 1 FROM orders o
            WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 420000.0
        )
    """,
    "customer_order_counts": """
        WITH per_cust AS (
            SELECT o_custkey AS custkey, CAST(count(*) AS BIGINT) AS n_orders,
                   sum(o_totalprice) AS spent
            FROM orders GROUP BY o_custkey
        )
        SELECT CAST(c.c_custkey AS BIGINT) AS custkey, c.c_mktsegment,
               COALESCE(p.n_orders, 0) AS n_orders,
               round(COALESCE(p.spent, 0.0), 2) AS spent
        FROM customer c LEFT JOIN per_cust p ON c.c_custkey = p.custkey
    """,
    "running_total": """
        SELECT CAST(event_id AS BIGINT) AS event_id,
               CAST(user_id AS BIGINT) AS user_id,
               CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn,
               round(SUM(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING), 6) AS run_total
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """,
    "event_gaps": """
        WITH w AS (
            SELECT CAST(event_id AS BIGINT) AS event_id,
                   CAST(user_id AS BIGINT) AS user_id,
                   round(CAST(date_diff('microsecond',
                         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts)
                         AS DOUBLE) / 1000000, 6) AS gap_s,
                   round(avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS mavg3
            FROM events
        )
        SELECT * FROM w WHERE gap_s IS NOT NULL
    """,
    "capped_sample": """
        WITH r AS (
            SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
                   ROW_NUMBER() OVER (
                       PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR))
                   ) AS rn
            FROM documents
        )
        SELECT doc_id, lang FROM r WHERE rn <= 50
    """,
    "price_quantiles": """
        SELECT CAST(0.25 AS DOUBLE) AS q,
               round(CAST(percentile_cont(0.25) WITHIN GROUP (ORDER BY o_totalprice) AS DOUBLE), 4) AS o_totalprice
        FROM orders
        UNION ALL
        SELECT CAST(0.5 AS DOUBLE),
               round(CAST(percentile_cont(0.5) WITHIN GROUP (ORDER BY o_totalprice) AS DOUBLE), 4) FROM orders
        UNION ALL
        SELECT CAST(0.75 AS DOUBLE),
               round(CAST(percentile_cont(0.75) WITHIN GROUP (ORDER BY o_totalprice) AS DOUBLE), 4) FROM orders
        UNION ALL
        SELECT CAST(0.95 AS DOUBLE),
               round(CAST(percentile_cont(0.95) WITHIN GROUP (ORDER BY o_totalprice) AS DOUBLE), 4) FROM orders
    """,
    "kmeans": """
        SELECT CAST(c.c AS BIGINT) AS cluster,
               CAST((SELECT count(*) FROM embeddings) AS BIGINT) AS n_assigned,
               CAST(true AS BOOLEAN) AS ok
        FROM (SELECT unnest(generate_series(0, 7)) AS c) c
    """,
    "approx_distinct": """
        SELECT 'o_custkey' AS metric,
               CAST(count(DISTINCT o_custkey) AS BIGINT) AS exact_distinct,
               CAST(true AS BOOLEAN) AS ok
        FROM orders
        UNION ALL
        SELECT 'word',
               CAST(count(DISTINCT w) AS BIGINT),
               CAST(true AS BOOLEAN)
        FROM (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w FROM documents)
    """,
    "bigram_pmi": """
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9'']+') AS ws
            FROM documents
        ),
        big AS (
            SELECT ws[i.i] AS w1, ws[i.i + 1] AS w2, CAST(count(*) AS BIGINT) AS cnt
            FROM toks,
                 LATERAL (SELECT unnest(generate_series(1, greatest(len(ws) - 1, 0))) AS i) i
            GROUP BY 1, 2
        ),
        uni AS (
            SELECT unnest(ws) AS word FROM toks
        ),
        uc AS (SELECT word, CAST(count(*) AS BIGINT) AS cnt FROM uni GROUP BY word),
        tb AS (SELECT CAST(sum(cnt) AS DOUBLE) AS t FROM big),
        tu AS (SELECT CAST(count(*) AS DOUBLE) AS t FROM uni),
        top AS (
            SELECT w1, w2, cnt,
                   ROW_NUMBER() OVER (ORDER BY cnt DESC, w1 ASC, w2 ASC) AS rn
            FROM big
        )
        SELECT top.w1, top.w2, top.cnt,
               round(ln((top.cnt / tb.t) / ((a.cnt / tu.t) * (b.cnt / tu.t))), 6) AS pmi
        FROM top
        JOIN uc a ON a.word = top.w1
        JOIN uc b ON b.word = top.w2, tb, tu
        WHERE top.rn <= 20
    """,
    "doc_repetition": """
        WITH lines AS (
            SELECT doc_id, string_split(text, chr(10)) AS ls FROM documents
        ),
        lstat AS (
            SELECT doc_id, CAST(len(ls) AS BIGINT) AS n_lines,
                   round(1.0 - CAST(len(list_distinct(ls)) AS DOUBLE) / len(ls), 6) AS dup_line_frac
            FROM lines
        ),
        toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9'']+') AS ws
            FROM documents
        ),
        big AS (
            SELECT doc_id, ws[i.i] || ' ' || ws[i.i + 1] AS bg
            FROM toks,
                 LATERAL (SELECT unnest(generate_series(1, greatest(len(ws) - 1, 0))) AS i) i
        ),
        bc AS (SELECT doc_id, bg, count(*) AS c FROM big GROUP BY 1, 2),
        bt AS (
            SELECT doc_id, round(CAST(max(c) AS DOUBLE) / sum(c), 6) AS top_bigram_frac
            FROM bc GROUP BY doc_id
        )
        SELECT l.doc_id, l.n_lines, l.dup_line_frac,
               coalesce(bt.top_bigram_frac, 0.0) AS top_bigram_frac
        FROM lstat l LEFT JOIN bt ON l.doc_id = bt.doc_id
    """,
    "dup_components": """
        WITH RECURSIVE t AS (
            SELECT CAST(p_partkey AS BIGINT) AS k,
                   CAST((p_partkey * 1000003 + 12345) % 1048576 AS BIGINT) AS ph
            FROM part
        ),
        pr AS (
            SELECT a.k AS key_a, b.k AS key_b
            FROM t a, t b
            WHERE a.k < b.k AND bit_count(xor(a.ph, b.ph)) <= 3
        ),
        e AS (
            SELECT key_a AS src, key_b AS dst FROM pr
            UNION ALL
            SELECT key_b, key_a FROM pr
        ),
        reach(n, m) AS (
            SELECT k, k FROM t
            UNION
            SELECT e.dst, r.m FROM reach r JOIN e ON e.src = r.n
        )
        SELECT n AS key, CAST(min(m) AS BIGINT) AS component
        FROM reach GROUP BY n
    """,
    "semdedup": """
        SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(1 AS BIGINT) AS n_dups
        FROM embeddings
    """,
    "inverted_index": """
        WITH words AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        ),
        p AS (SELECT w, doc_id, count(*) AS tf FROM words GROUP BY 1, 2)
        SELECT w AS word, CAST(count(*) AS BIGINT) AS df, CAST(sum(tf) AS BIGINT) AS cf,
               md5(string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)) AS postings_md5
        FROM p GROUP BY 1 HAVING count(*) >= 5
    """,
    "text_normalize": """
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               trim(regexp_replace(regexp_replace(lower(text), '[0-9]+', '<num>', 'g'),
                                   '\\s+', ' ', 'g')) AS norm_text
        FROM documents
    """,
    "decontaminate": """
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9'']+') AS ws
            FROM documents
        ),
        sh AS (
            SELECT DISTINCT doc_id, array_to_string(ws[i.i:i.i + 3], ' ') AS s
            FROM toks,
                 LATERAL (SELECT unnest(generate_series(1, greatest(len(ws) - 3, 0))) AS i) i
        ),
        bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % 13 = 7)
        SELECT CAST(sh.doc_id AS BIGINT) AS doc_id,
               CAST(count(*) AS BIGINT) AS n_hits
        FROM sh JOIN bench USING (s)
        WHERE sh.doc_id % 13 <> 7
        GROUP BY sh.doc_id
    """,
    "doc_pack": """
        WITH t AS (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS BIGINT) AS n_tokens
            FROM documents
        ),
        p AS (
            SELECT doc_id, n_tokens,
                   COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off
            FROM t
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id, n_tokens,
               CAST(off // 256 AS BIGINT) AS chunk_id
        FROM p
    """,
    "doc_keywords": """
        WITH words AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        ),
        c AS (
            SELECT doc_id, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY doc_id, w
        ),
        dl AS (SELECT doc_id, sum(cnt) AS doclen FROM c GROUP BY doc_id),
        dfx AS (SELECT w, CAST(count(*) AS BIGINT) AS df FROM c GROUP BY w),
        r AS (
            SELECT c.doc_id, c.w, c.cnt, dfx.df, dl.doclen,
                   ROW_NUMBER() OVER (PARTITION BY c.doc_id
                                      ORDER BY c.cnt DESC, dfx.df ASC, c.w ASC) AS rn
            FROM c JOIN dfx ON c.w = dfx.w JOIN dl ON c.doc_id = dl.doc_id
        )
        SELECT doc_id, w AS word, cnt, df,
               round(CAST(cnt AS DOUBLE) / doclen
                     * ln(CAST((SELECT count(*) FROM documents) AS DOUBLE) / df), 6) AS tfidf
        FROM r WHERE rn = 1
    """,
    "bm25_scores": """
        WITH words AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        ),
        c AS (
            SELECT doc_id, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY doc_id, w
        ),
        dl AS (SELECT doc_id, sum(cnt) AS doclen FROM c GROUP BY doc_id),
        scalars AS (
            SELECT CAST((SELECT count(*) FROM documents) AS DOUBLE) AS n,
                   CAST((SELECT sum(cnt) FROM c) AS DOUBLE)
                       / CAST((SELECT count(*) FROM documents) AS DOUBLE) AS avgdl
        ),
        q AS (
            SELECT w, CAST(count(*) AS BIGINT) AS df FROM c
            WHERE w IN ('spark', 'window', 'merge') GROUP BY w
        ),
        s AS (
            SELECT c.doc_id,
                   ln((scalars.n - q.df + 0.5) / (q.df + 0.5) + 1.0)
                     * (c.cnt * (1.2 + 1.0))
                     / (c.cnt + 1.2 * (1.0 - 0.75 + 0.75 * dl.doclen / scalars.avgdl)) AS contrib
            FROM c JOIN q ON c.w = q.w JOIN dl ON c.doc_id = dl.doc_id, scalars
        )
        SELECT doc_id, CAST(count(*) AS BIGINT) AS n_terms,
               round(sum(contrib), 6) AS score
        FROM s GROUP BY doc_id
    """,
    "doc_logprob": """
        WITH words AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        ),
        c AS (
            SELECT doc_id, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY doc_id, w
        ),
        tf AS (SELECT w, CAST(sum(cnt) AS BIGINT) AS tot FROM c GROUP BY w),
        t AS (SELECT CAST(sum(cnt) AS DOUBLE) AS total FROM c),
        s AS (
            SELECT c.doc_id, c.cnt * ln(CAST(tf.tot AS DOUBLE) / t.total) AS contrib, c.cnt
            FROM c JOIN tf ON c.w = tf.w, t
        )
        SELECT doc_id, CAST(sum(cnt) AS BIGINT) AS doclen,
               round(sum(contrib) / sum(cnt), 6) AS avg_logprob
        FROM s GROUP BY doc_id
    """,
    "top_terms": """
        WITH words AS (
            SELECT lang, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        ),
        c AS (
            SELECT lang, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY lang, w
        ),
        r AS (
            SELECT lang, w, cnt,
                   ROW_NUMBER() OVER (PARTITION BY lang ORDER BY cnt DESC, w) AS rn
            FROM c
        )
        SELECT lang, w AS word, cnt FROM r WHERE rn <= 10
    """,
    "stratified_sample": """
        SELECT CAST(doc_id AS BIGINT) AS doc_id, lang
        FROM documents
        WHERE CAST('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS UBIGINT) % 10000
              < CASE lang WHEN 'en' THEN 2000 WHEN 'de' THEN 5000 ELSE 10000 END
    """,
    "token_quantiles": """
        WITH t AS (
            SELECT CAST(CASE WHEN trim(text) = '' THEN 0
                 ELSE len(string_split_regex(trim(text), '\\s+')) END AS BIGINT) AS nt
            FROM documents
        )
        SELECT CAST(0.25 AS DOUBLE) AS q, CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY nt) AS BIGINT) AS n_tokens_ws FROM t
        UNION ALL
        SELECT CAST(0.5 AS DOUBLE), CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t
        UNION ALL
        SELECT CAST(0.75 AS DOUBLE), CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t
        UNION ALL
        SELECT CAST(0.9 AS DOUBLE), CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t
        UNION ALL
        SELECT CAST(0.99 AS DOUBLE), CAST(percentile_disc(0.99) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t
    """,
    "revenue_by_segment": """
        SELECT c.c_mktsegment,
               round(CAST(sum(o.o_totalprice) AS DOUBLE), 2) AS revenue,
               CAST(count(*) AS BIGINT) AS n_orders
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY c.c_mktsegment
    """,
    "top_orders_per_nation": """
        WITH j AS (
            SELECT n.n_name, o.o_orderkey, o.o_custkey, o.o_totalprice,
                   ROW_NUMBER() OVER (
                       PARTITION BY n.n_name
                       ORDER BY o.o_totalprice DESC, o.o_orderkey
                   ) AS rn
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
        )
        SELECT n_name, CAST(o_orderkey AS BIGINT) AS o_orderkey,
               CAST(o_custkey AS BIGINT) AS o_custkey,
               CAST(o_totalprice AS DOUBLE) AS o_totalprice
        FROM j WHERE rn <= 3
    """,
}

# Order matters: the driver's correctness gate checks only the first 50
# entries, so moving or deleting an entry changes which queries it covers.
QUERIES = {
    "bigram_pmi": q_bigram_pmi,
    "cms_sketch": q_cms_sketch,
    "composite_median": q_composite_median,
    "doc_chunks": q_doc_chunks,
    "doc_fingerprints": q_doc_fingerprints,
    "embedding_neardup_planted": lambda sf_dir: q_embedding_neardup(sf_dir, plant=True),
    "flow_d8": q_flow_d8,
    "hist_match": q_hist_match,
    "inverted_index": q_inverted_index,
    "text_normalize": q_text_normalize,
    "tile_bounds_6933": q_tile_bounds_6933,
    "tile_morphology": q_tile_morphology,
    "zonal_majority": q_zonal_majority,
    "line_dedup": q_line_dedup,
    "recode_stats_zstd": q_recode_stats_zstd,
    "recode_stats_lerc": q_recode_stats_lerc,
    "recode_stats_webp": q_recode_stats_webp,
    "pii_scrub": q_pii_scrub,
    "tile_augment": q_tile_augment,
    "bpe_pairs": q_bpe_pairs,
    "tile_tpi": q_tile_tpi,
    "tile_bounds_54009": q_tile_bounds_54009,
    "tile_viewshed": q_tile_viewshed,
    "dsir_weights": q_dsir_weights,
    "ccnet_buckets": q_ccnet_buckets,
    "tile_dist_aeqd": q_tile_dist_aeqd,
    "global_equalize": q_global_equalize,
    "zonal_median": q_zonal_median,
    "point_poly_distance": q_point_poly_distance,
    "event_funnel": q_event_funnel,
    "tile_bounds_54030": q_tile_bounds_54030,
    "embedding_cov": q_embedding_cov,
    "poly_geodesic": q_poly_geodesic,
    "tile_temporal_interp": q_tile_temporal_interp,
    "poly_buffer": q_poly_buffer,
    "grid_interp": q_grid_interp,
    "point_values": q_point_values,
    "dedup_exact": q_dedup_exact,
    "revenue_by_segment": q_revenue_by_segment,
    "knn": q_knn,
    "hilbert_partitions": q_hilbert_partitions,
    "token_quantiles": q_token_quantiles,
    "simhash_neardup": q_simhash_neardup,
    "top_orders_per_nation": q_top_orders_per_nation,
    "token_quantiles_by_lang": q_token_quantiles_by_lang,
    "approx_distinct": q_approx_distinct,
    "minhash_neardup": q_minhash_neardup,
    "cohort_retention": q_cohort_retention,
    "tile_glcm": q_tile_glcm,
    "tile_spatial_autocorr": q_tile_spatial_autocorr,
    "recode_stats_jpeg": q_recode_stats_jpeg,
    "tile_warp_bilinear": q_tile_warp_bilinear,
    "multimodal_neardup": q_multimodal_neardup,
    "recode_stats_tiff_lzw": q_recode_stats_tiff_lzw,
    "price_quantiles": q_price_quantiles,
    "jaccard_neardup": q_jaccard_neardup,
    "corpus_clean": q_corpus_clean,
    "minhash_pairs": q_minhash_pairs,
    "top_terms": q_top_terms,
    "doc_keywords": q_doc_keywords,
    "capped_sample": q_capped_sample,
    "doc_pack": q_doc_pack,
    "decontaminate": q_decontaminate,
    "window_stats_cog": q_window_stats_cog,
    "cog_pyramid": q_cog_pyramid,
    "semdedup": q_semdedup,
    "dup_components": q_dup_components,
    "embedding_neardup": q_embedding_neardup,
    "kmeans": q_kmeans,
    "knn_lsh": q_knn_lsh,
    "knn_pq": q_knn_pq,
    "knn_ivfpq": q_knn_ivfpq,
    "recode_stats_jp2": q_recode_stats_jp2,
    "recode_stats_jp2_lossy": q_recode_stats_jp2_lossy,
    "pansharpen": q_pansharpen,
    "bm25_scores": q_bm25_scores,
    "doc_logprob": q_doc_logprob,
    "doc_repetition": q_doc_repetition,
    "fingerprint_dups": q_fingerprint_dups,
    "embedding_centroids": q_embedding_centroids,
    "event_gaps": q_event_gaps,
    "customer_order_counts": q_customer_order_counts,
    "running_total": q_running_total,
    "customers_with_big_orders": q_customers_with_big_orders,
    "tile_geohash": q_tile_geohash,
    "color_relief": q_color_relief,
    "tile_zxy": q_tile_zxy,
    "tile_overviews": q_tile_overviews,
    "tile_patches": q_tile_patches,
    "quality_pred": q_quality_pred,
    "domain_mix": q_domain_mix,
    "tile_h3_cells": q_tile_h3_cells,
    "tile_bounds": q_tile_bounds,
    "tile_bounds_4326": q_tile_bounds_4326,
    "tile_bounds_3395": q_tile_bounds_3395,
    "tile_grid_cells": q_tile_grid_cells,
    "tile_s2_cells": q_tile_s2_cells,
    "tile_pip_join": q_tile_pip_join,
    "donut_pip_join": q_donut_pip_join,
    "points_pip_join": q_points_pip_join,
    "parts_pip_join": q_parts_pip_join,
    "zonal_stats": q_zonal_stats,
    "image_stats": q_image_stats,
    "image_stats_u16": q_image_stats_u16,
    "recode_stats": q_recode_stats,
    "psnr_fidelity": q_psnr_fidelity,
    "vector_reproject": q_vector_reproject,
    "sessionize": q_sessionize,
    "asof_join": q_asof_join,
    "range_join": q_range_join,
    "tile_resize": q_tile_resize,
    "tile_warp_4326": q_tile_warp_4326,
    "tile_fast_warp": q_tile_fast_warp,
    "tile_resize_lanczos": q_tile_resize_lanczos,
    "tile_resize_cubicspline": q_tile_resize_cubicspline,
    "polygonize": q_polygonize,
    "polygonize_regions": q_polygonize_regions,
    "mosaic_groups": q_mosaic_groups,
    "union_bounds": q_union_bounds,
    "pixel_histogram": q_pixel_histogram,
    "tile_focal_sum": q_tile_focal_sum,
    "tile_pyramid": q_tile_pyramid,
    "tile_slope": q_tile_slope,
    "tile_hillshade": q_tile_hillshade,
    "tile_aspect": q_tile_aspect,
    "tile_ruggedness": q_tile_ruggedness,
    "tile_rescale": q_tile_rescale,
    "tile_proximity": q_tile_proximity,
    "tile_sieve": q_tile_sieve,
    "tile_fillnodata": q_tile_fillnodata,
    "zorder_partitions": q_zorder_partitions,
    "band_math": q_band_math,
    "events_ntile": q_events_ntile,
    "poly_metrics": q_poly_metrics,
    "poly_grid_cover": q_poly_grid_cover,
    "tile_contours": q_tile_contours,
    "tile_equalize": q_tile_equalize,
    "image_features": q_image_features,
    "spatial_knn": q_spatial_knn,
    "knn_ivf": q_knn_ivf,
    "phash_neardup": q_phash_neardup,
    "text_tokens": q_text_tokens,
    "text_quality": q_text_quality,
    "lang_id": q_lang_id,
    "lang_id_pred": q_lang_id_pred,
    "simhash": q_simhash,
    "events_window": q_events_window,
    "events_sliding": q_events_sliding,
    "salted_cell_counts": q_salted_cell_counts,
    "stratified_sample": q_stratified_sample,
}
