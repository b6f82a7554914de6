"""The flagship's two zonal implementations must agree: the default
batch-at-a-time path (band-0 decode from the bytes column, one cover
test per polygon per batch) and ``decode_all=True`` (decode every band,
then ``ZonalStats`` / ``select_zone_pixels`` per row) return identical
partial aggregates on every batch.  In-process, no Ray."""

import glob

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


@pytest.mark.parametrize("n_polys", [4, 25])
def test_batched_and_decode_all_partials_identical(image_batches, n_polys):
    from gdal_boots_ray.kernels.geometry import polygon_rings
    from gdal_boots_ray.pipelines.flagship import FusedTileWorker
    from gdal_boots_ray.sources.fixtures import bench_polygons

    polys = bench_polygons(384, 24, n_polys=n_polys)
    packed = [(int(p["poly_id"]), polygon_rings(p["geometry"])) for p in polys]
    batched = FusedTileWorker(packed, 5000.0, 9, True)
    decode_all = FusedTileWorker(packed, 5000.0, 9, True, decode_all=True)
    n_tiles = n_px = 0
    for batch in image_batches:
        got = batched(batch)
        want = decode_all(batch)
        assert got.equals(want)
        n_tiles += sum(got.column("n_tiles").to_pylist())
        n_px += sum(got.column("n_px").to_pylist())
    # most tiles matched, and both interior (whole tile) and boundary
    # (masked) pairs occurred
    assert n_tiles > sum(b.num_rows for b in image_batches) // 2
    assert 0 < n_px < n_tiles * 24 * 24
