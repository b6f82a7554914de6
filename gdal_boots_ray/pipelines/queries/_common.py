"""Shared inputs of the query suite: the sf-table readers, the
synthesized tile and point datasets, and the SQL fragments that replay
them in the DuckDB twins."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


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


def _pixel_grid(rel: str = "tiles", lo: int = 0, hi: int = 1, hi_y: int | None = None) -> str:
    """FROM-clause item: each row of ``rel`` (with w / h columns)
    crossed with its pixel grid ``gx.x`` in [lo, w - hi] and ``gy.y``
    in [lo, h - hi_y] (``hi_y`` defaults to ``hi``)."""
    hi_y = hi if hi_y is None else hi_y
    return f"""{rel},
                 LATERAL (SELECT unnest(generate_series({lo}, CAST({rel}.w - {hi} AS INT))) AS x) gx,
                 LATERAL (SELECT unnest(generate_series({lo}, CAST({rel}.h - {hi_y} AS INT))) AS y) gy"""


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


def _tiles_dataset(sf_dir: str, decode: bool = True, pre_decode_filter=None):
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


def _first_tiles(sf_dir: str, n_tiles: int):
    """Decoded tiles of the part keys below ``n_tiles``.  The key
    filter runs below the decode, so the other tiles never pay it."""

    def first_keys(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        keep = np.array([int(i.split("-")[1]) < n_tiles for i in ids])
        return batch.filter(pa.array(keep))

    return _tiles_dataset(sf_dir, decode=True, pre_decode_filter=first_keys)


def _with_bounds(ds):
    from gdal_boots_ray.stages.geo import add_bounds

    return ds.map_batches(add_bounds, batch_format="pyarrow")


def _nation_polygons(sf_dir: str) -> list:
    """The nation diamond polygons (sources/fixtures.py), built on the
    driver from the ``nation`` keys."""
    import pyarrow.parquet as pq

    from gdal_boots_ray.sources.fixtures import nation_polygons

    nk = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"]).column(0).to_numpy()
    return nation_polygons(nk)


def _pip_join(sf_dir: str, poly_ref, keep_cols=None):
    """The tiles with their bounds, broadcast-PIP-joined to the
    polygons at ``poly_ref``: one row per (tile, polygon) pair whose
    polygon holds the tile center."""
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin

    return _with_bounds(_tiles_dataset(sf_dir, decode=False)).map_batches(
        BroadcastPIPJoin,
        batch_format="pyarrow",
        fn_constructor_kwargs={"polygons_ref": poly_ref, "keep_cols": keep_cols},
        concurrency=(1, 4),
        num_cpus=1,
    )


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


def _round_half_away(x: float, d: int) -> float:
    """DuckDB-compatible rounding (half away from zero) — Python's
    round() is half-to-even and disagrees exactly at ties like
    105/128 = 0.8203125."""
    import math

    scale = 10.0**d
    return math.copysign(math.floor(abs(x) * scale + 0.5) / scale, x)
