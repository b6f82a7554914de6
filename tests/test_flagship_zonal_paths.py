"""The one zonal selection (``stages.zonal.zone_spans``) and both of
its reducers must match an independent per-row reference on every
batch: the fused flagship worker's ``zonal_partials`` (band-0 decode
from the bytes column) and its per-polygon fold, and
``zonal_histograms``, the reducer of the zonal MAJORITY / QUARTILES
queries.  The reference joins with ``BroadcastPIPJoin``, decodes every
band of each matched tile, selects its zone pixels with the one-tile
cover test and ``_rings_mask``, one pair at a time, and folds the
pairs per polygon with a pyarrow ``group_by``.  In-process, no Ray."""

import glob
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

COLS = ["image_id", "bytes", "w", "h", "fmt", "gt", "epsg"]


@pytest.fixture(scope="module")
def image_batches(tmp_path_factory):
    from gdal_boots_ray.sources.fixtures import generate_images_parquet

    path = str(tmp_path_factory.mktemp("imgs") / "tbl")
    # png and raw rows alternate; skewed rows stack on one tile so
    # some pairs sit on polygon corners
    generate_images_parquet(path, n_images=384, tile_px=24, bands=3, skew_frac=0.1, rows_per_file=128)
    t = pq.read_table(sorted(glob.glob(f"{path}/part-*.parquet")), columns=COLS)
    return [t.slice(s, 32) for s in range(0, t.num_rows, 32)]


def reference_partials(batch, packed):
    """Per-batch partial aggregate, one matched pair at a time, the
    number of interior (fully covered) and boundary pairs, and the
    per-polygon histogram counts {(poly_id, v): cnt} of the selection."""
    from gdal_boots_ray.kernels.png import decode_image
    from gdal_boots_ray.stages.geo import add_bounds
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin
    from gdal_boots_ray.stages.zonal import _rings_cover_tile, _rings_mask

    polys = dict(packed)
    rows = {k: [] for k in ("poly_id", "image_id", "n_px", "sum_v", "min_v", "max_v")}
    hist = Counter()
    n_interior = n_boundary = 0
    for r in BroadcastPIPJoin(packed)(add_bounds(batch)).to_pylist():
        rings = polys[r["poly_id"]]
        img = decode_image(r["bytes"], r["fmt"])
        band = img if img.ndim == 2 else img[0]
        shape = (r["h"], r["w"])
        if _rings_cover_tile(rings, shape, r["gt"]):
            n_interior += 1
            sel = band.reshape(-1)
        else:
            n_boundary += 1
            sel = band[_rings_mask(rings, shape, r["gt"])]
        for v, c in enumerate(np.bincount(sel.astype(np.int64))):
            if c:
                hist[(r["poly_id"], v)] += int(c)
        if sel.size:
            rows["poly_id"].append(r["poly_id"])
            rows["image_id"].append(r["image_id"])
            rows["n_px"].append(sel.size)
            rows["sum_v"].append(float(sel.sum(dtype=np.float64)))
            rows["min_v"].append(float(sel.min()))
            rows["max_v"].append(float(sel.max()))
    types = {"poly_id": pa.int64(), "image_id": pa.string(), "n_px": pa.int64()}
    stats = pa.table({k: pa.array(v, types.get(k, pa.float64())) for k, v in rows.items()})
    g = stats.group_by("poly_id").aggregate(
        [("image_id", "count"), ("n_px", "sum"), ("sum_v", "sum"), ("min_v", "min"), ("max_v", "max")]
    )
    folded = pa.table(
        {
            "poly_id": g.column("poly_id"),
            "n_tiles": g.column("image_id_count").cast(pa.int64()),
            "n_px": g.column("n_px_sum"),
            "sum_v": g.column("sum_v_sum"),
            "min_v": g.column("min_v_min"),
            "max_v": g.column("max_v_max"),
        }
    )
    return folded.sort_by("poly_id"), n_interior, n_boundary, hist


@pytest.mark.parametrize("n_polys", [4, 25])
def test_kernel_callers_match_per_row_reference(image_batches, n_polys):
    from gdal_boots_ray.kernels.geometry import polygon_rings
    from gdal_boots_ray.pipelines.flagship import FusedTileWorker, TilePlan
    from gdal_boots_ray.sources.fixtures import bench_polygons
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin
    from gdal_boots_ray.stages.zonal import zonal_histograms

    polys = bench_polygons(384, 24, n_polys=n_polys)
    packed = [(int(p["poly_id"]), polygon_rings(p["geometry"])) for p in polys]
    fused = FusedTileWorker(packed, 5000.0, 9, True, batch_size=32)
    join = BroadcastPIPJoin(packed)
    n_tiles = n_px = n_interior = n_boundary = 0
    for batch in image_batches:
        want, interior, boundary, want_hist = reference_partials(batch, packed)
        got = fused(batch)
        assert got.sort_by("poly_id").equals(want)
        plan = TilePlan(batch, join.pairs, join.edges)
        h = zonal_histograms(plan.pids, *plan.pixels(0, batch))
        assert [h.column(c).type for c in ("poly_id", "v", "cnt")] == [pa.int64()] * 3
        got_hist = Counter()
        for pid, v, cnt in zip(*(h.column(c).to_pylist() for c in ("poly_id", "v", "cnt"))):
            assert cnt > 0
            got_hist[(pid, v)] += cnt
        assert got_hist == want_hist
        n_tiles += sum(got.column("n_tiles").to_pylist())
        n_px += sum(got.column("n_px").to_pylist())
        n_interior += interior
        n_boundary += boundary
    # most tiles matched, and both interior (whole tile) and boundary
    # (masked) pairs occurred
    assert n_tiles > sum(b.num_rows for b in image_batches) // 2
    assert 0 < n_px < n_tiles * 24 * 24
    assert n_interior > 0 and n_boundary > 0
