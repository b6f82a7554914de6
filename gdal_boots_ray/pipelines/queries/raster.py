"""Raster queries over decoded tile pixels: zonal statistics, terrain
and focal operators, histograms, resampling and polygonize.  Their twins
replay the closed-form pixel field."""

from __future__ import annotations

import math
from typing import Dict

import numpy as np
import pyarrow as pa

from ._common import (
    POLY_SQL_CTE,
    TILE_SQL_CTE,
    _first_tiles,
    _nation_polygons,
    _pixel_grid,
    _round_half_away,
    _tiles_dataset,
)


ORACLE_SQL: Dict[str, str] = {}


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


ORACLE_SQL["tile_viewshed"] = f"""
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
    """


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


ORACLE_SQL["global_equalize"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
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
    """


def flagship_zonal(sf_dir: str):
    """The flagship on the sf tables: the tiles synthesized from
    ``part`` through ``fused_partials`` (bounds + grid/S2 cells,
    broadcast PIP join vs the nation polygons, band-0 decode of the
    matched tiles, zonal partials) and the per-polygon aggregate, as a
    pandas DataFrame ordered by poly_id.  ``entry()`` returns it and
    ``zonal_stats`` projects it, so the oracle checks the flagship."""
    from gdal_boots_ray.pipelines.flagship import combine_zonal_partials, fused_partials
    from gdal_boots_ray.stages.joins import put_polygons

    poly_ref = put_polygons(_nation_polygons(sf_dir))
    ds = _tiles_dataset(sf_dir, decode=False)
    return combine_zonal_partials(
        fused_partials(ds, poly_ref, cell_res=1000.0, s2_level=9, with_s2=True, batch_size=256)
    )


def q_zonal_stats(sf_dir: str):
    import ray.data as rd

    agg = flagship_zonal(sf_dir)[["poly_id", "n_px", "sum_v"]]
    return rd.from_pandas(agg.assign(sum_v=agg["sum_v"].round(0)))


# (poly_id, v) for every pixel center inside a polygon whose tile
# center is inside it too: the zone pixels of every zonal twin
_ZONE_PX_SQL = f"""{TILE_SQL_CTE}, {POLY_SQL_CTE},
        pairs AS (
            SELECT t.*, p.poly_id, p.pcx, p.pcy, p.rx, p.ry
            FROM tiles t, polys p
            WHERE abs(t.x0 + t.w * 10.0 / 2 - p.pcx) / p.rx
                + abs(t.y0 - t.h * 10.0 / 2 - p.pcy) / p.ry < 1.0
        ),
        px AS (
            SELECT pairs.poly_id,
                   (gx.x * 31 + gy.y * 17 + pairs.k) % 256 AS v
            FROM {_pixel_grid("pairs")}
            WHERE abs(pairs.x0 + (gx.x + 0.5) * 10.0 - pairs.pcx) / pairs.rx
                + abs(pairs.y0 - (gy.y + 0.5) * 10.0 - pairs.pcy) / pairs.ry < 1.0
        )"""


ORACLE_SQL["zonal_stats"] = f"""
        WITH {_ZONE_PX_SQL}
        SELECT poly_id, CAST(count(*) AS BIGINT) AS n_px, round(CAST(sum(v) AS DOUBLE), 0) AS sum_v
        FROM px GROUP BY poly_id
    """


def _zonal_histograms(sf_dir: str, finish):
    """One row per polygon zone from the histogram of its covered
    band-0 pixel-center values.  Plan: the flagship's ``TilePlan`` (its
    broadcast PIP join and zone spans) once per block, then band-0
    decode per 256 rows; each (tile, poly) pair emits its NONZERO
    histogram bins as (poly_id, v, cnt) rows (``zonal_histograms``) —
    a 256-row-bounded partial, so the exchange carries histograms,
    never pixels — then one ``exchange`` on poly_id whose bucket body
    sums each polygon's bins and calls ``finish(v, cnt)`` with its
    distinct values ascending and their counts.  ``finish`` returns
    the polygon's int64 output columns as a dict."""
    from gdal_boots_ray.pipelines.flagship import TilePlan
    from gdal_boots_ray.stages.agg import exchange
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin, put_polygons
    from gdal_boots_ray.stages.zonal import zonal_histograms

    poly_ref = put_polygons(_nation_polygons(sf_dir))

    def hist_rows(block: pa.Table, _cache={}) -> pa.Table:
        join = _cache.get("j")
        if join is None:
            join = _cache["j"] = BroadcastPIPJoin(poly_ref)
        plan = TilePlan(block, join.pairs, join.edges)
        return pa.concat_tables([zonal_histograms(plan.pids, *plan.pixels(lo, step)) for lo, step in plan.steps(256)])

    def per_bucket(g: pa.Table) -> pa.Table:
        pid = g.column("poly_id").to_numpy()
        v = g.column("v").to_numpy()
        order = np.lexsort((v, pid))
        pid, v, cnt = pid[order], v[order], g.column("cnt").to_numpy()[order]
        # one bin per distinct (poly_id, v), then one finish per polygon
        starts = np.flatnonzero(np.r_[True, (pid[1:] != pid[:-1]) | (v[1:] != v[:-1])])
        pid, v, cnt = pid[starts], v[starts], np.add.reduceat(cnt, starts)
        bounds = np.r_[np.flatnonzero(np.r_[True, pid[1:] != pid[:-1]]), len(pid)]
        rows = [{"poly_id": int(pid[s]), **finish(v[s:e], cnt[s:e])} for s, e in zip(bounds[:-1], bounds[1:])]
        return pa.table({c: pa.array([r[c] for r in rows], pa.int64()) for c in rows[0]})

    parts = _tiles_dataset(sf_dir, decode=False).map_batches(hist_rows, batch_format="pyarrow", batch_size=None)
    return exchange(parts, ["poly_id"], per_bucket)


def q_zonal_majority(sf_dir: str):
    """Zonal MAJORITY (the modal statistic of ArcGIS zonal stats /
    QGIS majority): per polygon zone, the most frequent band-0 value
    among covered pixel centers, ties broken by the smallest value.
    Integer-exact twin."""

    def majority(v: np.ndarray, cnt: np.ndarray) -> dict:
        i = int(np.argmax(cnt))  # first max: the smallest value of the tie
        return {"majority_v": int(v[i]), "majority_cnt": int(cnt[i])}

    return _zonal_histograms(sf_dir, majority)


ORACLE_SQL["zonal_majority"] = f"""
        WITH {_ZONE_PX_SQL},
        hist AS (SELECT poly_id, v, count(*) AS cnt FROM px GROUP BY 1, 2)
        SELECT poly_id,
               CAST(min(v) FILTER (WHERE cnt = mx) AS BIGINT) AS majority_v,
               CAST(mx AS BIGINT) AS majority_cnt
        FROM (SELECT *, max(cnt) OVER (PARTITION BY poly_id) AS mx FROM hist)
        GROUP BY poly_id, mx
    """


def q_zonal_median(sf_dir: str):
    """Zonal QUARTILES (ArcGIS zonal stats MEDIAN / PCT): per polygon
    zone, exact p25 / median / p75 of the covered pixel-center values
    plus the pixel count, with ``percentile_disc`` semantics (the rule
    the DuckDB twin computes natively).  Integer-exact."""
    from gdal_boots_ray.stages.agg import percentile_disc

    def quartiles(v: np.ndarray, cnt: np.ndarray) -> dict:
        p25, median, p75 = percentile_disc(v, cnt, (0.25, 0.5, 0.75))
        return {"p25": int(p25), "median": int(median), "p75": int(p75), "n_px": int(cnt.sum())}

    return _zonal_histograms(sf_dir, quartiles)


ORACLE_SQL["zonal_median"] = f"""
        WITH {_ZONE_PX_SQL}
        SELECT poly_id,
               CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY v) AS BIGINT) AS p25,
               CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY v) AS BIGINT) AS median,
               CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY v) AS BIGINT) AS p75,
               CAST(count(*) AS BIGINT) AS n_px
        FROM px GROUP BY poly_id
    """


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


ORACLE_SQL["tile_focal_sum"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, tiles.h,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v,
                   GREATEST(0, LEAST(tiles.w - 2, gx.x + 1) - GREATEST(1, gx.x - 1) + 1) AS wx,
                   GREATEST(0, LEAST(tiles.h - 2, gy.y + 1) - GREATEST(1, gy.y - 1) + 1) AS wy
            FROM {_pixel_grid()}
        )
        SELECT image_id, CAST((w - 2) * (h - 2) AS BIGINT) AS n_interior,
               CAST(sum(v * wx * wy) AS BIGINT) AS box_total
        FROM px GROUP BY image_id, w, h
    """


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


ORACLE_SQL["tile_glcm"] = f"""
        WITH {TILE_SQL_CTE},
        pairs AS (
            SELECT tiles.image_id,
                   ((gx.x * 31 + gy.y * 17 + tiles.k) % 256) // 16 AS v1,
                   (((gx.x + 1) * 31 + gy.y * 17 + tiles.k) % 256) // 16 AS v2
            FROM {_pixel_grid(hi=2, hi_y=1)}
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
    """


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


ORACLE_SQL["tile_spatial_autocorr"] = f"""
        WITH {TILE_SQL_CTE},
        p AS (
            SELECT tiles.image_id,
                   ((gx.x * 31 + gy.y * 17 + tiles.k) % 256) AS a,
                   (((gx.x + 1) * 31 + gy.y * 17 + tiles.k) % 256) AS b
            FROM {_pixel_grid(hi=2, hi_y=1)}
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_pairs,
               CAST(count(*) * sum(a * b) - sum(a) * sum(b) AS DOUBLE)
                   / sqrt(CAST(count(*) * sum(a * a) - sum(a) * sum(a) AS DOUBLE)
                        * CAST(count(*) * sum(b * b) - sum(b) * sum(b) AS DOUBLE))
                   AS lag1_corr
        FROM p GROUP BY image_id
    """


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


ORACLE_SQL["tile_pyramid"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
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
    """


# Sobel gradients of the closed-form field at every px (x, y, k), over
# the 80 m kernel span of a 10 m pixel
_SOBEL_SQL = """g AS (
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
        )"""


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


ORACLE_SQL["tile_slope"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM {_pixel_grid(lo=1, hi=2)}
        ),
        {_SOBEL_SQL},
        s AS (
            SELECT image_id, degrees(atan(sqrt(gx * gx + gy * gy))) AS deg FROM g
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_interior,
               CAST(sum(CASE WHEN deg > 45.0 THEN 1 ELSE 0 END) AS BIGINT) AS n_steep,
               round(avg(deg), 6) AS mean_slope
        FROM s GROUP BY image_id
    """


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


ORACLE_SQL["tile_contours"] = f"""
        WITH {TILE_SQL_CTE},
        cells AS (
            SELECT tiles.image_id,
                   CASE WHEN (gx.x * 31 + gy.y * 17 + tiles.k) % 256 >= 127.5 THEN 1 ELSE 0 END
                 + CASE WHEN ((gx.x + 1) * 31 + gy.y * 17 + tiles.k) % 256 >= 127.5 THEN 2 ELSE 0 END
                 + CASE WHEN (gx.x * 31 + (gy.y + 1) * 17 + tiles.k) % 256 >= 127.5 THEN 4 ELSE 0 END
                 + CASE WHEN ((gx.x + 1) * 31 + (gy.y + 1) * 17 + tiles.k) % 256 >= 127.5 THEN 8 ELSE 0 END
                   AS cs
            FROM {_pixel_grid(hi=2)}
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_cells,
               CAST(sum(CASE WHEN cs IN (0, 15) THEN 0
                             WHEN cs IN (6, 9) THEN 2 ELSE 1 END) AS BIGINT) AS n_segments
        FROM cells GROUP BY image_id
    """


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


ORACLE_SQL["tile_equalize"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w * tiles.h AS total,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
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
    """


def q_pixel_histogram(sf_dir: str, n_tiles: int = 64):
    """Pixel-value histogram over the first ``n_tiles`` tiles
    (reference's np.unique(return_counts) assertions,
    tests/test_raster.py:267-281): per-batch partial counts ->
    small final combine."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _first_tiles(sf_dir, n_tiles)

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
    out = bucketed_aggregate(part, ["value"], {"n_px": "sum"})

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "value": batch.column("value").cast(pa.int64()),
                "n_px": batch.column("n_px").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["pixel_histogram"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
            WHERE tiles.k < 64
        )
        SELECT CAST(v AS BIGINT) AS value, CAST(count(*) AS BIGINT) AS n_px
        FROM px GROUP BY 1
    """


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


ORACLE_SQL["image_features"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
        )
        SELECT image_id, round(CAST(sum(v) AS DOUBLE) / count(*), 6) AS mean_v
        FROM px GROUP BY image_id
    """


# 4-connected labeling of the >= 128 pixels of the first 24 tiles as a
# recursive-CTE min-label propagation: lab holds every label a
# foreground node (y * 100 + x) can reach; its min is the component
_LABEL_SQL = """px AS (
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
        )"""


def q_polygonize_regions(sf_dir: str, n_tiles: int = 24):
    """Connected-component counts of the >=128 threshold masks — the
    oracle reimplements 4-connected labeling as a recursive-CTE
    min-label propagation in SQL (an independent algorithm entirely)."""
    from gdal_boots_ray.kernels.polygonize import label_components
    from gdal_boots_ray.stages.decode import batch_pixel_views

    ds = _first_tiles(sf_dir, n_tiles)

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

    return ds.map_batches(regions, batch_format="pyarrow")


ORACLE_SQL["polygonize_regions"] = f"""
        WITH RECURSIVE {_LABEL_SQL}
        SELECT printf('img-%08d', k) AS image_id, CAST(count(DISTINCT minlab) AS BIGINT) AS n_regions
        FROM (SELECT k, node, min(label) AS minlab FROM lab GROUP BY k, node)
        GROUP BY k
    """


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


ORACLE_SQL["tile_augment"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
        )
        SELECT image_id,
               CAST(sum(v * (y + 2 * (w - 1 - x))) AS BIGINT) AS rot_sum,
               CAST(sum(v * ((w - 1 - x) + 2 * y)) AS BIGINT) AS flip_sum
        FROM px GROUP BY image_id
    """


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


ORACLE_SQL["tile_patches"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, tiles.h, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
        )
        SELECT image_id,
               CAST((y // 16) * (w // 16) + (x // 16) AS BIGINT) AS patch_id,
               CAST(sum(v) AS BIGINT) AS p_sum
        FROM px
        WHERE x < (w // 16) * 16 AND y < (h // 16) * 16
        GROUP BY 1, 2
    """


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


ORACLE_SQL["tile_resize"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.w, tiles.h,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
        )
        SELECT image_id, CAST(w / 2 AS BIGINT) AS out_w, CAST(h / 2 AS BIGINT) AS out_h,
               round(CAST(sum(v) AS DOUBLE) / 4.0, 6) AS mean_sum
        FROM px GROUP BY image_id, w, h
    """


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


ORACLE_SQL["tile_resize_lanczos"] = _resize_kernel_sql("lanczos")


ORACLE_SQL["tile_resize_cubicspline"] = _resize_kernel_sql("cubicspline")


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

    ds = _first_tiles(sf_dir, n_tiles)

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

    return ds.map_batches(
        vectorize, batch_format="pyarrow"
    )


ORACLE_SQL["polygonize"] = f"""
        WITH RECURSIVE {_LABEL_SQL},
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
    """


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


ORACLE_SQL["tile_hillshade"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM {_pixel_grid(lo=1, hi=2)}
        ),
        {_SOBEL_SQL},
        s AS (
            SELECT image_id, 0.5 * (gx + gy) + sqrt(2.0) / 2 AS num,
                   255.0 * greatest((0.5 * (gx + gy) + sqrt(2.0) / 2) / sqrt(1.0 + gx * gx + gy * gy), 0.0) AS shade
            FROM g
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_interior,
               CAST(sum(CASE WHEN num <= 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_shadow,
               round(avg(shade), 6) AS mean_shade
        FROM s GROUP BY image_id
    """


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


ORACLE_SQL["tile_aspect"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM {_pixel_grid(lo=1, hi=2)}
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
    """


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


ORACLE_SQL["tile_rescale"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
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
    """


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


ORACLE_SQL["tile_ruggedness"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM {_pixel_grid(lo=1, hi=2)}
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
    """


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

    ds = _first_tiles(sf_dir, n_tiles)

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


ORACLE_SQL["tile_proximity"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
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
    """


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

    ds = _first_tiles(sf_dir, n_tiles)

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


ORACLE_SQL["tile_sieve"] = f"""
        WITH RECURSIVE {_LABEL_SQL},
        comp AS (SELECT k, node, min(label) AS minlab FROM lab GROUP BY k, node),
        sizes AS (SELECT k, minlab, count(*) AS sz FROM comp GROUP BY k, minlab)
        SELECT printf('img-%08d', k) AS image_id,
               CAST(count(*) AS BIGINT) AS n_regions,
               CAST(sum(CASE WHEN sz < 10 THEN 1 ELSE 0 END) AS BIGINT) AS n_small,
               CAST(sum(CASE WHEN sz < 10 THEN sz ELSE 0 END) AS BIGINT) AS n_flipped
        FROM sizes GROUP BY k
    """


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

    ds = _first_tiles(sf_dir, n_tiles)

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


ORACLE_SQL["tile_fillnodata"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, tiles.k AS k, tiles.w AS w, gx.x AS x, gy.y AS y,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
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
    """


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


ORACLE_SQL["band_math"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS b0,
                   (gx.x * 31 + gy.y * 17 + tiles.k + 7) % 256 AS b1
            FROM {_pixel_grid()}
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px,
               CAST(sum(CASE WHEN b1 > b0 THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
               CAST(sum(CASE WHEN b1 < b0 THEN 1 ELSE 0 END) AS BIGINT) AS n_neg,
               round(avg((b1 - b0) / (b1 + b0)), 6) AS mean_nd
        FROM px GROUP BY image_id
    """


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


ORACLE_SQL["pansharpen"] = f"""
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
    """


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


ORACLE_SQL["composite_median"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS a,
                   ((gx.x * 31 + gy.y * 17 + tiles.k) % 256 + 37) % 256 AS b,
                   ((gx.x * 31 + gy.y * 17 + tiles.k) % 256 + 74) % 256 AS c
            FROM {_pixel_grid()}
        )
        SELECT image_id, CAST(count(*) AS BIGINT) AS n_px,
               CAST(sum(a + b + c - greatest(a, b, c) - least(a, b, c)) AS BIGINT) AS sum_med
        FROM px GROUP BY image_id
    """


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

    ds = _first_tiles(sf_dir, n_tiles)

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


ORACLE_SQL["tile_temporal_interp"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, e.t AS t,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS a
            FROM {_pixel_grid()},
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
    """


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


ORACLE_SQL["tile_morphology"] = f"""
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
            FROM {_pixel_grid(lo=1, hi=2)}
        )
        SELECT image_id,
               CAST(sum(m) AS BIGINT) AS n_mask,
               CAST(sum(CASE WHEN m + m1 + m2 + m3 + m4 + m5 + m6 + m7 + m8 = 9 THEN 1 ELSE 0 END) AS BIGINT) AS n_eroded,
               CAST(sum(CASE WHEN m + m1 + m2 + m3 + m4 + m5 + m6 + m7 + m8 > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_dilated
        FROM px GROUP BY image_id
    """


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


ORACLE_SQL["flow_d8"] = f"""
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
            FROM {_pixel_grid(lo=1, hi=2)}
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
    """


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


ORACLE_SQL["hist_match"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id,
                   (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v0,
                   (gx.x * 31 + gy.y * 17 + tiles.k + 7) % 256 AS v1
            FROM {_pixel_grid()}
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
    """


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


ORACLE_SQL["color_relief"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, (gx.x * 31 + gy.y * 17 + tiles.k) % 256 AS v
            FROM {_pixel_grid()}
        )
        SELECT image_id,
               CAST(sum({_relief_sql(0)}) AS BIGINT) AS sum_r,
               CAST(sum({_relief_sql(1)}) AS BIGINT) AS sum_g,
               CAST(sum({_relief_sql(2)}) AS BIGINT) AS sum_b,
               CAST(count(*) AS BIGINT) AS n_px
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


ORACLE_SQL["tile_tpi"] = f"""
        WITH {TILE_SQL_CTE},
        px AS (
            SELECT tiles.image_id, gx.x AS x, gy.y AS y, tiles.k AS k
            FROM {_pixel_grid(lo=1, hi=2)}
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
    """
