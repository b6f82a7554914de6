"""Deterministic synthetic geo fixtures.

Two families:

1. **Oracle-mirrored tiles/points/polygons** derived by closed-form
   arithmetic from the driver's TPC-H-ish tables (``part`` ->
   tiles, ``customer`` -> sample points, ``nation`` -> diamond
   polygons).  Every formula here has a line-for-line ANSI-SQL twin in
   ``__ray_entry__.oracle_sql`` so DuckDB can replay the pipeline on
   the same parquet inputs.  Pixel values are the closed form
   ``(x*31 + y*17 + key) % 256`` so even decoded-pixel sampling is
   SQL-checkable.

2. **The north-star images table** (BASELINE.json ``input_hint``
   schema: image_id, bytes, w, h, fmt, caption, phash) generated at a
   configurable row count / tile size for the flagship pipeline and
   bench — seeded patterns like the reference fixtures
   (tests/test_raster.py:81-83 constant patches), UTM georeferencing
   like its Sentinel-2 transforms (gdal.py-style gt), plus a skew knob
   that piles a fraction of tiles into one hot cell.

All generation is seeded; no wall clock, no unseeded randomness.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from gdal_boots_ray.kernels.png import encode_image

# --- oracle-mirrored tile grid constants (keep in sync with oracle_sql) ---
TILE_COLS = 40
TILE_X0 = 600000.0
TILE_Y0 = 5700000.0
TILE_STEP = 1000.0
TILE_RES = 10.0
TILE_EPSG = 3857


def tile_params(keys: np.ndarray) -> Dict[str, np.ndarray]:
    """Closed-form tile geometry from integer keys (p_partkey).

    SQL twin (see oracle_sql):
        col = k % 40, rowq = k // 40
        w = 32 + (k % 3) * 16, h = 32 + (k % 5) * 8
        x0 = 600000 + col * 1000, y0 = 5700000 - rowq * 1000
    """
    k = np.asarray(keys, dtype=np.int64)
    col = k % TILE_COLS
    rowq = k // TILE_COLS
    w = (32 + (k % 3) * 16).astype(np.int32)
    h = (32 + (k % 5) * 8).astype(np.int32)
    x0 = TILE_X0 + col * TILE_STEP
    y0 = TILE_Y0 - rowq * TILE_STEP
    gt = np.zeros((len(k), 6), dtype=np.float64)
    gt[:, 0] = TILE_RES
    gt[:, 2] = x0
    gt[:, 4] = -TILE_RES
    gt[:, 5] = y0
    return {
        "key": k,
        "w": w,
        "h": h,
        "x0": x0,
        "y0": y0,
        "gt": gt,
        "minx": x0,
        "miny": y0 - h * TILE_RES,
        "maxx": x0 + w * TILE_RES,
        "maxy": y0,
        "cx": x0 + w * TILE_RES / 2.0,
        "cy": y0 - h * TILE_RES / 2.0,
    }


def tile_pixels(key: int, w: int, h: int, bands: int = 1) -> np.ndarray:
    """Deterministic pixel field ``(x*31 + y*17 + key + band*7) % 256``."""
    x = np.arange(w, dtype=np.int64)[None, :]
    y = np.arange(h, dtype=np.int64)[:, None]
    base = x * 31 + y * 17 + int(key)
    if bands == 1:
        return (base % 256).astype(np.uint8)
    out = np.empty((bands, h, w), dtype=np.uint8)
    for b in range(bands):
        out[b] = (base + b * 7) % 256
    return out


def tile_fmt(keys: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(keys) % 2 == 0, "png", "raw")


def tile_phash(keys: np.ndarray) -> np.ndarray:
    k = np.asarray(keys, dtype=np.int64)
    return (k * 1000003 + 12345) % 1048576


def synth_images_batch(keys: np.ndarray, bands: int = 1) -> pa.Table:
    """Input-hint-schema Arrow batch for a key array: encodes the
    deterministic pixels to png/raw bytes (the real decode stage then
    has real work to do downstream)."""
    p = tile_params(keys)
    fmts = tile_fmt(keys)
    blobs: List[bytes] = []
    for key, w, h, fmt in zip(p["key"], p["w"], p["h"], fmts):
        img = tile_pixels(int(key), int(w), int(h), bands)
        blobs.append(encode_image(img, str(fmt)))
    ids = [f"img-{int(k):08d}" for k in p["key"]]
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(p["w"], pa.int32()),
            "h": pa.array(p["h"], pa.int32()),
            "fmt": pa.array(fmts.tolist(), pa.string()),
            "caption": pa.array([f"tile {i}" for i in ids], pa.string()),
            "phash": pa.array(tile_phash(p["key"]), pa.int64()),
            "epsg": pa.array(np.full(len(keys), TILE_EPSG, np.int32), pa.int32()),
            "gt": pa.array(p["gt"].tolist(), pa.list_(pa.float64(), 6)),
        }
    )


def tile_pixels_u16(key: int, w: int, h: int) -> np.ndarray:
    """uint16 pixel field ``(x*31 + y*17 + key) % 60000`` — the
    multi-dtype decode-path fixture (SQL twin in oracle_sql
    'image_stats_u16')."""
    x = np.arange(w, dtype=np.int64)[None, :]
    y = np.arange(h, dtype=np.int64)[:, None]
    return ((x * 31 + y * 17 + int(key)) % 60000).astype(np.uint16)


def synth_images_u16_batch(keys: np.ndarray) -> pa.Table:
    """input_hint-schema batch with uint16 payloads: even keys 16-bit
    PNG, odd keys RAW1 dtype-coded streams (reference dtype map
    gdal.py:58-71)."""
    p = tile_params(keys)
    fmts = tile_fmt(keys)
    blobs: List[bytes] = []
    for key, w, h, fmt in zip(p["key"], p["w"], p["h"], fmts):
        img = tile_pixels_u16(int(key), int(w), int(h))
        blobs.append(encode_image(img, str(fmt)))
    ids = [f"img-{int(k):08d}" for k in p["key"]]
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(p["w"], pa.int32()),
            "h": pa.array(p["h"], pa.int32()),
            "fmt": pa.array(fmts.tolist(), pa.string()),
            "caption": pa.array([f"tile {i}" for i in ids], pa.string()),
            "phash": pa.array(tile_phash(p["key"]), pa.int64()),
            "epsg": pa.array(np.full(len(keys), TILE_EPSG, np.int32), pa.int32()),
            "gt": pa.array(p["gt"].tolist(), pa.list_(pa.float64(), 6)),
        }
    )


def point_params(custkeys: np.ndarray, n_tiles: int) -> Dict[str, np.ndarray]:
    """Sample points derived from customer keys; each point lands inside
    tile ``c % n_tiles`` at fractional pixel ((c%23)+0.5, (c%19)+0.5)."""
    c = np.asarray(custkeys, dtype=np.int64)
    k = c % n_tiles
    t = tile_params(k)
    ox = (c % 23) + 0.5
    oy = (c % 19) + 0.5
    x = t["x0"] + ox * TILE_RES
    y = t["y0"] - oy * TILE_RES
    value = ((c % 23) * 31 + (c % 19) * 17 + k) % 256
    return {"custkey": c, "tile_key": k, "x": x, "y": y, "expect_value": value}


def nation_polygons(nationkeys: np.ndarray) -> List[dict]:
    """Diamond polygons over the tile grid, one per nation key.

    SQL twin predicate for tile-center containment:
        abs(cx - pcx)/rx + abs(cy - pcy)/ry < 1
    Radii are odd-ish so exact boundary ties cannot occur.
    """
    polys = []
    for n in np.asarray(nationkeys, dtype=np.int64):
        cx, cy, rx, ry = nation_polygon_params(int(n))
        polys.append(
            {
                "poly_id": int(n),
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [
                        [[cx - rx, cy], [cx, cy + ry], [cx + rx, cy], [cx, cy - ry], [cx - rx, cy]]
                    ],
                },
            }
        )
    return polys


def bench_polygons(n_images: int, tile_px: int, n_polys: int = 25) -> List[dict]:
    """Diamond polygons tiling the WHOLE bench image grid (64-column
    layout of generate_images_parquet) so every tile matches — the
    zonal-extraction benchmark shape (a 2% match rate would make the
    flagship a metadata no-op)."""
    cols = 64
    rows = (n_images + cols - 1) // cols
    step = tile_px * TILE_RES
    width = cols * step
    height = rows * step
    side = int(np.ceil(np.sqrt(n_polys)))
    pw = width / side
    ph = height / side
    polys = []
    for i in range(n_polys):
        gx, gy = i % side, i // side
        cx = TILE_X0 + (gx + 0.5) * pw
        cy = TILE_Y0 - (gy + 0.5) * ph
        rx, ry = pw * 0.75, ph * 0.75  # overlapping diamonds cover corners
        polys.append(
            {
                "poly_id": i,
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [
                        [[cx - rx, cy], [cx, cy + ry], [cx + rx, cy], [cx, cy - ry], [cx - rx, cy]]
                    ],
                },
            }
        )
    return polys


def part_polygon_params(partkeys: np.ndarray):
    """Per-PART-KEY diamond polygons — thousands of small polygons over
    the tile grid so the polygon side is itself a large Dataset (the
    two-large-sides shuffle PIP join input).  Radii reach into
    neighboring 1 km grid cells, exercising multi-cell coverage.

    SQL twin (see oracle_sql 'parts_pip_join'):
        pcx = 600000 + (k % 40) * 1000 + 500,  rx = 417 + (k % 5) * 211
        pcy = 5700000 - (k // 40) * 1000 - 500, ry = 389 + (k % 7) * 157
    """
    k = np.asarray(partkeys, dtype=np.int64)
    pcx = TILE_X0 + (k % TILE_COLS) * TILE_STEP + 500.0
    pcy = TILE_Y0 - (k // TILE_COLS) * TILE_STEP - 500.0
    rx = 417.0 + (k % 5) * 211.0
    ry = 389.0 + (k % 7) * 157.0
    return pcx, pcy, rx, ry


def part_polygons_batch(partkeys: np.ndarray) -> pa.Table:
    """(poly_id, geom) Arrow batch of the per-part diamonds — the
    distributed polygon-side input of cell_pip_join."""
    import json

    pcx, pcy, rx, ry = part_polygon_params(partkeys)
    k = np.asarray(partkeys, dtype=np.int64)
    geoms = [
        json.dumps(
            {
                "type": "Polygon",
                "coordinates": [
                    [
                        [cx - dx, cy],
                        [cx, cy + dy],
                        [cx + dx, cy],
                        [cx, cy - dy],
                        [cx - dx, cy],
                    ]
                ],
            }
        )
        for cx, cy, dx, dy in zip(pcx, pcy, rx, ry)
    ]
    return pa.table({"poly_id": pa.array(k, pa.int64()), "geom": pa.array(geoms, pa.string())})


def nation_polygon_params(n: int):
    cx = TILE_X0 + (n % 8) * 5000.0 + 2500.0
    cy = TILE_Y0 - (n % 5) * 8000.0 - 4000.0
    rx = 2609.0 + (n % 3) * 401.0
    ry = 3607.0 + (n % 2) * 503.0
    return cx, cy, rx, ry


# ---------------------------------------------------------------------------
# North-star images table (standalone flagship / bench input)
# ---------------------------------------------------------------------------


def generate_images_parquet(
    path: str,
    n_images: int = 256,
    tile_px: int = 64,
    bands: int = 3,
    skew_frac: float = 0.1,
    seed: int = 31415926,
    rows_per_file: int = 256,
) -> str:
    """Write the input_hint-schema images table to ``path`` (dir of
    parquet files).  Deterministic; returns path.  ``skew_frac`` of the
    tiles share one hot grid cell (same x0/y0 block) to exercise the
    cell-keyed shuffles with a hot key."""
    os.makedirs(path, exist_ok=True)
    done = os.path.join(path, "_DONE")
    if os.path.exists(done):
        return path
    starts = list(range(0, n_images, rows_per_file))
    args = [(path, s, min(s + rows_per_file, n_images), tile_px, bands, skew_frac, seed) for s in starts]
    try:
        import ray

        if ray.is_initialized():
            fn = ray.remote(_write_images_file)
            ray.get([fn.remote(*a) for a in args])
        else:
            raise ImportError
    except ImportError:
        for a in args:
            _write_images_file(*a)
    with open(done, "w") as fd:
        fd.write(f"n_images={n_images} tile_px={tile_px} bands={bands}\n")
    return path


def _write_images_file(path, start, stop, tile_px, bands, skew_frac, seed):
    """One parquet file of the images table; per-file seeded rng so
    files are independent (parallel generation stays deterministic)."""
    rng = np.random.default_rng(seed + start)
    cols = 64
    keys = np.arange(start, stop, dtype=np.int64)
    col = keys % cols
    rowq = keys // cols
    hot = (keys % max(2, int(1 / max(skew_frac, 1e-9)))) == 0 if skew_frac > 0 else np.zeros(len(keys), bool)
    x0 = np.where(hot, TILE_X0, TILE_X0 + col * tile_px * TILE_RES)
    y0 = np.where(hot, TILE_Y0, TILE_Y0 - rowq * tile_px * TILE_RES)
    blobs, phashes = [], []
    for i, k in enumerate(keys):
        img = rng.integers(0, 255, (bands, tile_px, tile_px)).astype(np.uint8)
        img[:, 4 : tile_px // 4, 4 : tile_px // 4] = 192  # constant patch a la reference
        fmt = "png" if k % 2 == 0 else "raw"
        blobs.append(encode_image(img, fmt))
        phashes.append(int(img.astype(np.int64).sum() % (1 << 40)))
    gt = np.zeros((len(keys), 6))
    gt[:, 0] = TILE_RES
    gt[:, 2] = x0
    gt[:, 4] = -TILE_RES
    gt[:, 5] = y0
    ids = [f"img-{int(k):08d}" for k in keys]
    table = pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(np.full(len(keys), tile_px, np.int32)),
            "h": pa.array(np.full(len(keys), tile_px, np.int32)),
            "fmt": pa.array(["png" if k % 2 == 0 else "raw" for k in keys], pa.string()),
            "caption": pa.array([f"tile {i} at ({x},{y})" for i, x, y in zip(ids, x0, y0)], pa.string()),
            "phash": pa.array(phashes, pa.int64()),
            "epsg": pa.array(np.full(len(keys), TILE_EPSG, np.int32)),
            "gt": pa.array(gt.tolist(), pa.list_(pa.float64(), 6)),
        }
    )
    tmp = os.path.join(path, f".part-{start:08d}.parquet.tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(path, f"part-{start:08d}.parquet"))
