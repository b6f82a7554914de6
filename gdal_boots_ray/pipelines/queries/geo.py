"""Geo queries: tile bounds in other CRSs, grid/S2/H3/geohash cells,
point-in-polygon joins, polygon metrics, point sampling and tile warps."""

from __future__ import annotations

import math
from typing import Dict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from gdal_boots_ray.stages.agg import exchange, key_runs

from ._common import (
    POLY_SQL_CTE,
    TILE_SQL_CTE,
    _nation_polygons,
    _pip_join,
    _points_dataset,
    _read,
    _tiles_dataset,
    _with_bounds,
)


ORACLE_SQL: Dict[str, str] = {}


# bit-interleave replay of kernels/cells.morton_interleave2 (16 bits
# per axis), over integer columns named cx / cy
MORTON_SQL_EXPR = " + ".join(
    f"(((cx >> {b}) & 1) << {2 * b}) + (((cy >> {b}) & 1) << {2 * b + 1})" for b in range(16)
)


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


# 3857 -> 4326 of the tile corners: the inverse web-mercator closed form
_LONLAT_SQL = """
                degrees(x0 / 6378137.0) AS lon_min,
                degrees(2 * atan(exp((y0 - h * 10.0) / 6378137.0)) - pi() / 2) AS lat_min,
                degrees((x0 + w * 10.0) / 6378137.0) AS lon_max,
                degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2) AS lat_max"""


def q_tile_bounds(sf_dir: str):
    ds = _with_bounds(_tiles_dataset(sf_dir))
    return ds.select_columns(["image_id", "minx", "miny", "maxx", "maxy"])


ORACLE_SQL["tile_bounds"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id, x0 AS minx, y0 - h * 10.0 AS miny, x0 + w * 10.0 AS maxx, y0 AS maxy
        FROM tiles
    """


def _reprojected_bounds(sf_dir: str, epsg: int, names, decimals: int):
    """Tile bounds reprojected 3857 -> 4326 -> ``epsg``, rounded to
    ``decimals``, as columns ``names`` = (x_min, y_min, x_max, y_max)."""
    from gdal_boots_ray.kernels.crs import transform_points

    def reproject(batch: pa.Table) -> pa.Table:
        cols = {"image_id": batch.column("image_id")}
        for corner, (xn, yn) in (("min", names[:2]), ("max", names[2:])):
            xy = (batch.column(f"{corner}{axis}").to_numpy() for axis in "xy")
            lon, lat = transform_points(3857, 4326, *xy)
            x, y = transform_points(4326, epsg, lon, lat)
            cols[xn], cols[yn] = pa.array(np.round(x, decimals)), pa.array(np.round(y, decimals))
        return pa.table(cols)

    return _with_bounds(_tiles_dataset(sf_dir)).map_batches(reproject, batch_format="pyarrow")


def q_tile_bounds_4326(sf_dir: str):
    return _reprojected_bounds(sf_dir, 4326, ("lon_min", "lat_min", "lon_max", "lat_max"), 9)


ORACLE_SQL["tile_bounds_4326"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id,
            round(degrees(x0 / 6378137.0), 9) AS lon_min,
            round(degrees(2 * atan(exp((y0 - h * 10.0) / 6378137.0)) - pi() / 2), 9) AS lat_min,
            round(degrees((x0 + w * 10.0) / 6378137.0), 9) AS lon_max,
            round(degrees(2 * atan(exp(y0 / 6378137.0)) - pi() / 2), 9) AS lat_max
        FROM tiles
    """


def q_tile_bounds_3395(sf_dir: str):
    """Tile bounds reprojected 3857 -> 4326 -> 3395 (ellipsoidal World
    Mercator).  The DuckDB twin replays the closed form (y = a*[ln
    tan(pi/4+phi/2) + e/2*ln((1-e sin)/(1+e sin))], Snyder 7-7), so
    the new Mercator registry entry is oracle-checked end to end; x is
    invariant under the chain (both Mercators share lon0=0, k0=1)."""
    return _reprojected_bounds(sf_dir, 3395, ("mx_min", "my_min", "mx_max", "my_max"), 6)


ORACLE_SQL["tile_bounds_3395"] = f"""
        WITH {TILE_SQL_CTE},
        ll AS (SELECT image_id, {_LONLAT_SQL} FROM tiles)
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
    """


def q_tile_bounds_6933(sf_dir: str):
    """Tile bounds reprojected 3857 -> 4326 -> 6933 (EASE-Grid 2.0
    Global, ellipsoidal cylindrical equal-area — the NSIDC/earth-
    science grid).  The DuckDB twin replays Snyder 10-1/10-2
    (x = a k0 λ, y = a q(φ)/(2 k0)) with the kernel's exact float
    constants, so the new CEA registry entry (kernels/crs.py
    _CeaConsts) is oracle-checked end to end."""
    return _reprojected_bounds(sf_dir, 6933, ("ex_min", "ey_min", "ex_max", "ey_max"), 6)


ORACLE_SQL["tile_bounds_6933"] = f"""
        WITH {TILE_SQL_CTE},
        ll AS (SELECT image_id, {_LONLAT_SQL} FROM tiles),
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
    """


def q_tile_bounds_54009(sf_dir: str):
    """Tile bounds reprojected 3857 -> 4326 -> 54009 (World
    Mollweide, the equal-area world grid of choice for global area
    statistics).  The DuckDB twin replays Snyder 31-1..31-5 with the
    SAME Newton iteration t <- t - (2t + sin 2t - pi sin phi) /
    (2 + 2 cos 2t), unrolled 10 steps in chained CTEs — both sides
    converge to machine precision at mid-latitudes, so the round-6
    outputs are identical and the new moll kernel (kernels/crs.py
    _MollConsts) is oracle-checked end to end."""
    return _reprojected_bounds(sf_dir, 54009, ("mx_min", "my_min", "mx_max", "my_max"), 6)


ORACLE_SQL["tile_bounds_54009"] = f"""
        WITH {TILE_SQL_CTE},
        ll AS (SELECT image_id, {_LONLAT_SQL} FROM tiles),
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
    """


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


ORACLE_SQL["tile_dist_aeqd"] = f"""
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
    """


def q_tile_bounds_54030(sf_dir: str):
    """Tile bounds reprojected 3857 -> 4326 -> 54030 (World Robinson,
    the compromise world-map grid).  The DuckDB twin inlines
    Robinson's published 1974 table AND the natural-cubic-spline
    second derivatives (solved once at import in kernels/crs.py) as
    exact float literals, then evaluates the SAME IEEE cubic —
    gating the robin kernel including its between-node interpolation
    (the tile latitudes sit off-node at ~45.3 deg)."""
    return _reprojected_bounds(sf_dir, 54030, ("rx_min", "ry_min", "rx_max", "ry_max"), 6)


ORACLE_SQL["tile_bounds_54030"] = f"""
        WITH {TILE_SQL_CTE},
        rob(i, xt, yt, xd2, yd2) AS (
            VALUES (0, 1.0, 0.0, 0.0, 0.0),\n                   (1, 0.9986, 0.062, -8.813833427955961e-05, -2.535965511654069e-09),\n                   (2, 0.9954, 0.124, -7.944666288182056e-05, 1.0143862046616277e-08),\n                   (3, 0.99, 0.186, -0.00012207501419312665, -3.803948267481104e-08),\n                   (4, 0.9822, 0.248, -8.253280345689287e-06, 1.420140686526279e-07),\n                   (5, 0.973, 0.31, -0.00018091186442410583, -5.300167919357005e-07),\n                   (6, 0.96, 0.372, -0.00018009926195789347, 1.9780530990901743e-06),\n                   (7, 0.9427, 0.434, -0.00013069108774431328, -7.382195604424996e-06),\n                   (8, 0.9216, 0.4958, -0.00020913638706485964, -2.0449270681384906e-05),\n                   (9, 0.8962, 0.5571, -6.476336399624129e-05, -3.082072167003548e-05),\n                   (10, 0.8679, 0.6176, -0.00022781015695017842, -4.8267842638478684e-05),\n                   (11, 0.835, 0.6769, -0.00012799600820305684, -6.41079077760714e-05),\n                   (12, 0.7986, 0.7346, -0.00010020581023758172, -7.930052625719342e-05),\n                   (13, 0.7597, 0.7903, -7.118075084660354e-05, -9.868998719518193e-05),\n                   (14, 0.7186, 0.8435, -0.00014307118637602598, -0.0001259395249620661),\n                   (15, 0.6732, 0.8936, -0.00038853450364928553, -0.00014155191295657824),\n                   (16, 0.6213, 0.9394, 0.00013720920097315336, -0.0003398528232115873),\n                   (17, 0.5722, 0.9761, 0.0005116976997567048, -0.0006830367941970985),\n                   (18, 0.5322, 1.0, 0.0, 0.0)
        ),
        ll AS (SELECT image_id, {_LONLAT_SQL} FROM tiles),
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
    """


def q_tile_grid_cells(sf_dir: str):
    from gdal_boots_ray.stages.geo import make_add_grid_cell

    ds = _with_bounds(_tiles_dataset(sf_dir))
    ds = ds.map_batches(make_add_grid_cell(1000.0), batch_format="pyarrow")
    return ds.select_columns(["image_id", "cell"])


ORACLE_SQL["tile_grid_cells"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id,
            (CAST(floor((x0 + w * 10.0 / 2) / 1000.0) AS BIGINT) + 524288) * 1048576
            + (CAST(floor((y0 - h * 10.0 / 2) / 1000.0) AS BIGINT) + 524288) AS cell
        FROM tiles
    """


def q_tile_s2_cells(sf_dir: str):
    """S2 cell ids of tile centers — oracle-checked: the DuckDB twin
    reimplements the full S2 pipeline (sphere -> cube face -> quadratic
    st -> leaf ij -> recursive-CTE Hilbert walk) independently."""
    from gdal_boots_ray.stages.geo import make_add_lonlat, make_add_s2_cell

    ds = _with_bounds(_tiles_dataset(sf_dir))
    ds = ds.map_batches(make_add_lonlat(), batch_format="pyarrow")
    ds = ds.map_batches(make_add_s2_cell(9), batch_format="pyarrow")
    return ds.select_columns(["image_id", "s2_cell"])


ORACLE_SQL["tile_s2_cells"] = f"""
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
    """


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


ORACLE_SQL["tile_h3_cells"] = _h3x_sql()


def q_tile_pip_join(sf_dir: str):
    from gdal_boots_ray.stages.joins import put_polygons

    poly_ref = put_polygons(_nation_polygons(sf_dir))
    joined = _pip_join(sf_dir, poly_ref, keep_cols=["image_id", "cx", "cy"])
    return joined.select_columns(["poly_id", "image_id"])


ORACLE_SQL["tile_pip_join"] = f"""
        WITH {TILE_SQL_CTE}, {POLY_SQL_CTE}
        SELECT poly_id, image_id
        FROM tiles, polys
        WHERE abs(x0 + w * 10.0 / 2 - pcx) / rx + abs(y0 - h * 10.0 / 2 - pcy) / ry < 1.0
    """


def q_donut_pip_join(sf_dir: str):
    """Hole-aware PIP join: each nation diamond gets a half-scale
    interior hole (a second ring), and a tile matches only when its
    center falls in the annulus — the even-odd parity of the
    ray-cast (kernels/geometry.points_in_rings: holes flip parity
    naturally) is what the twin's outer-AND-NOT-inner closed form
    checks.  Same broadcast STRtree join stage as tile_pip_join, so
    multi-ring geometries ride the production path."""
    import ray
    from ray.data.aggregate import Count

    from gdal_boots_ray.kernels.geometry import polygon_rings
    from gdal_boots_ray.sources.fixtures import nation_polygon_params

    donuts = []
    for p in _nation_polygons(sf_dir):
        cx, cy, rx, ry = nation_polygon_params(int(p["poly_id"]))
        outer = polygon_rings(p["geometry"])[0]
        hx, hy = rx * 0.5, ry * 0.5
        hole = np.array(
            [[cx - hx, cy], [cx, cy + hy], [cx + hx, cy], [cx, cy - hy], [cx - hx, cy]]
        )
        donuts.append((int(p["poly_id"]), [outer, hole]))
    joined = _pip_join(sf_dir, ray.put(donuts), keep_cols=["image_id", "cx", "cy"])
    return joined.groupby("poly_id").aggregate(Count(alias_name="n_tiles"))


ORACLE_SQL["donut_pip_join"] = f"""
        WITH {TILE_SQL_CTE}, {POLY_SQL_CTE}
        SELECT poly_id, CAST(count(*) AS BIGINT) AS n_tiles
        FROM tiles, polys
        WHERE abs(x0 + w * 10.0 / 2 - pcx) / rx + abs(y0 - h * 10.0 / 2 - pcy) / ry < 1.0
          AND NOT (abs(x0 + w * 10.0 / 2 - pcx) / (rx * 0.5)
                   + abs(y0 - h * 10.0 / 2 - pcy) / (ry * 0.5) < 1.0)
        GROUP BY poly_id
    """


def q_points_pip_join(sf_dir: str):
    """Shuffle-path PIP join (polygon Dataset exploded to covering
    cells, co-shuffled with the points on cell)."""
    from gdal_boots_ray.stages.joins import cell_pip_join

    out = cell_pip_join(_points_dataset(sf_dir), _nation_polygons(sf_dir), cell_res=4000.0)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pid": batch.column("pid").cast(pa.int64()),
                "poly_id": batch.column("poly_id").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["points_pip_join"] = f"""
        WITH {POINT_SQL_CTE}, {POLY_SQL_CTE}
        SELECT pid, poly_id
        FROM pt_coords, polys
        WHERE abs(px - pcx) / rx + abs(py - pcy) / ry < 1.0
    """


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


ORACLE_SQL["parts_pip_join"] = f"""
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
    """


def q_point_values(sf_dir: str):
    """Distributed values_by_points via a tile-key SHUFFLE join: the
    point side streams from the customer table (NO driver-side read —
    points are the unbounded side at scale), tiles stream decoded;
    both co-shuffle once on the tile key and every group gathers its
    points' pixel values with the inverse-affine kernel.  SQL twin is
    the closed-form pixel field."""
    import pyarrow.parquet as pq

    from gdal_boots_ray.kernels.sampling import sample_points
    from gdal_boots_ray.sources.fixtures import point_params
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
        # (never pandas object cells); points sort once per partition and
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


ORACLE_SQL["point_values"] = """
        SELECT CAST(c_custkey AS BIGINT) AS pid,
            CAST(((c_custkey % 23) * 31 + (c_custkey % 19) * 17
                  + (c_custkey % (SELECT count(*) FROM part))) % 256 AS BIGINT) AS value
        FROM customer
    """


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


ORACLE_SQL["mosaic_groups"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT CAST(k // 40 AS BIGINT) AS mosaic_key,
               CAST((max(x0 + w * 10.0) - min(x0)) / 10.0 AS BIGINT) AS out_w,
               CAST((max(y0) - min(y0 - h * 10.0)) / 10.0 AS BIGINT) AS out_h,
               CAST(count(*) AS BIGINT) AS n_inputs
        FROM tiles GROUP BY 1
    """


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


ORACLE_SQL["union_bounds"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT CAST(k // 40 AS BIGINT) AS mosaic_key,
               min(x0) AS minx, min(y0 - h * 10.0) AS miny,
               max(x0 + w * 10.0) AS maxx, max(y0) AS maxy
        FROM tiles GROUP BY 1
    """


def _drop_self(g: pd.DataFrame, k: int) -> pd.DataFrame:
    """Per qid of a bucket: drop the self-match, keep the k nearest by
    (d2, nid), re-rank from 1."""
    g = g[g["nid"] != g["qid"]].sort_values(["qid", "d2", "nid"], kind="mergesort")
    starts, lens = key_runs(g["qid"].to_numpy())
    rank = np.arange(len(g)) - np.repeat(starts, lens) + 1
    out = g.assign(rank=rank.astype(np.int64))[rank <= k]
    return out[["qid", "rank", "nid", "dist"]]


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

    return exchange(out, ["qid"], lambda g: _drop_self(g, k), batch_format="pandas")


ORACLE_SQL["spatial_knn"] = f"""
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
    """


def q_salted_cell_counts(sf_dir: str):
    """Tiles per grid cell, the skewed cell-keyed aggregate: the
    per-batch partial of :func:`bucketed_aggregate` cuts a hot cell to
    one row per block before the one exchange, so it needs no salt and
    must produce exactly the plain GROUP BY result."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.geo import make_add_grid_cell

    ds = _with_bounds(_tiles_dataset(sf_dir, decode=False))
    ds = ds.map_batches(make_add_grid_cell(5000.0), batch_format="pyarrow")
    out = bucketed_aggregate(ds, ["cell"], {"n_tiles": "count"})

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell": batch.column("cell").cast(pa.int64()),
                "n_tiles": batch.column("n_tiles").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["salted_cell_counts"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT (CAST(floor((x0 + w * 10.0 / 2) / 5000.0) AS BIGINT) + 524288) * 1048576
               + (CAST(floor((y0 - h * 10.0 / 2) / 5000.0) AS BIGINT) + 524288) AS cell,
               CAST(count(*) AS BIGINT) AS n_tiles
        FROM tiles GROUP BY 1
    """


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


ORACLE_SQL["grid_interp"] = f"""
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
    """


def q_vector_reproject(sf_dir: str):
    """to_epsg over the nation polygons: 3857 diamonds -> 4326; the
    oracle applies the closed-form inverse web-mercator to the diamond
    parameters (vertex order preserved; first vertex = west corner)."""
    import ray.data as rd

    from gdal_boots_ray.sources.vectors import features_table, make_to_epsg

    polys = _nation_polygons(sf_dir)
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


ORACLE_SQL["vector_reproject"] = f"""
        WITH {POLY_SQL_CTE}
        SELECT poly_id,
            round(degrees((pcx - rx) / 6378137.0), 9) AS west_lon,
            round(degrees(2 * atan(exp(pcy / 6378137.0)) - pi() / 2), 9) AS west_lat,
            round(degrees(pcx / 6378137.0), 9) AS north_lon,
            round(degrees(2 * atan(exp((pcy + ry) / 6378137.0)) - pi() / 2), 9) AS north_lat
        FROM polys
    """


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


ORACLE_SQL["tile_warp_4326"] = f"""
        WITH {TILE_SQL_CTE},
        g AS (SELECT k, image_id, w, h, x0, y0, {_LONLAT_SQL} FROM tiles),
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
    """


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


ORACLE_SQL["tile_warp_bilinear"] = f"""
        WITH {TILE_SQL_CTE},
        g AS (SELECT k, image_id, w, h, x0, y0, {_LONLAT_SQL} FROM tiles),
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
    """


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


ORACLE_SQL["tile_fast_warp"] = f"""
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
    """


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


ORACLE_SQL["poly_grid_cover"] = f"""
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
    """


def q_poly_metrics(sf_dir: str):
    """Vector geometry accessors — OGR's GetArea / Length / Centroid
    family (the reference reaches them through ogr.Geometry;
    geometry.py wraps but never reimplements): generic shoelace
    area, perimeter and area-weighted centroid per polygon via
    kernels/geometry.ring_metrics, distributed as a pure map over
    the nation features.  The diamond fixtures have closed forms
    (area 2*rx*ry, perimeter 4*sqrt(rx^2+ry^2), centroid = center)
    the twin states directly."""
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


ORACLE_SQL["poly_metrics"] = f"""
        WITH {POLY_SQL_CTE}
        SELECT CAST(poly_id AS BIGINT) AS poly_id,
               round(2.0 * rx * ry, 6) AS area,
               round(4.0 * sqrt(rx * rx + ry * ry), 6) AS perimeter,
               round(pcx, 6) AS cx,
               round(pcy, 6) AS cy
        FROM polys
    """


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


ORACLE_SQL["poly_geodesic"] = f"""
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
    """


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


ORACLE_SQL["poly_buffer"] = f"""
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
    """


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


ORACLE_SQL["zorder_partitions"] = f"""
        WITH {TILE_SQL_CTE},
        cxy AS (SELECT k % 40 AS cx, k // 40 AS cy FROM tiles),
        m AS (SELECT {MORTON_SQL_EXPR} AS morton FROM cxy)
        SELECT CAST(morton >> 6 AS BIGINT) AS partition,
               CAST(count(*) AS BIGINT) AS n_tiles,
               CAST(min(morton) AS BIGINT) AS min_morton,
               CAST(max(morton) AS BIGINT) AS max_morton
        FROM m GROUP BY 1
    """


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


ORACLE_SQL["point_poly_distance"] = f"""
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
    """


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


ORACLE_SQL["tile_zxy"] = f"""
        WITH {TILE_SQL_CTE}
        SELECT image_id,
            (CAST(12 AS BIGINT) << 40)
            + (CAST(floor(((x0 + w * 10.0 / 2) + pi() * 6378137.0)
                          / (2 * (pi() * 6378137.0)) * 4096) AS BIGINT) << 20)
            + CAST(floor((pi() * 6378137.0 - (y0 - h * 10.0 / 2))
                         / (2 * (pi() * 6378137.0)) * 4096) AS BIGINT) AS zxy
        FROM tiles
    """


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


ORACLE_SQL["tile_geohash"] = f"""
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
    """


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


ORACLE_SQL["hilbert_partitions"] = """
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
    """
