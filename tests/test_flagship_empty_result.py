"""A flagship run whose polygons match no tile returns an empty result
with the same column dtypes as any other run (int64 ``poly_id`` /
``n_tiles`` / ``n_px``, float64 ``sum_v`` / ``min_v`` / ``max_v``), from
both ``run_flagship`` + ``combine_zonal_partials`` and
``run_flagship_resumable``."""

import pytest

DTYPES = {
    "poly_id": "int64",
    "n_tiles": "int64",
    "n_px": "int64",
    "sum_v": "float64",
    "min_v": "float64",
    "max_v": "float64",
}


@pytest.fixture(scope="module")
def images_dir(tmp_path_factory):
    from gdal_boots_ray.sources.fixtures import generate_images_parquet

    d = str(tmp_path_factory.mktemp("imgs"))
    generate_images_parquet(d, n_images=64, tile_px=16, bands=1, skew_frac=0.0, rows_per_file=32)
    return d


def _far_polygons():
    """The benchmark diamonds, moved far off the tile grid."""
    from gdal_boots_ray.sources.fixtures import bench_polygons

    polys = bench_polygons(64, 16, n_polys=4)
    for p in polys:
        p["geometry"]["coordinates"] = [[[x - 1e7, y - 1e7] for x, y in ring] for ring in p["geometry"]["coordinates"]]
    return polys


def _assert_typed_empty(df):
    assert len(df) == 0
    assert {c: str(t) for c, t in df.dtypes.items()} == DTYPES


def test_combine_of_no_partials_is_typed():
    import pandas as pd

    from gdal_boots_ray.pipelines.flagship import _combine_frame

    _assert_typed_empty(_combine_frame(pd.DataFrame()))


def test_run_flagship_without_matches(ray_session, images_dir):
    from gdal_boots_ray.pipelines.flagship import combine_zonal_partials, run_flagship

    ds = run_flagship(images_dir, polygons=_far_polygons(), batch_size=16, num_cpus_hint=2)
    _assert_typed_empty(combine_zonal_partials(ds))


def test_run_flagship_resumable_without_matches(ray_session, images_dir, tmp_path):
    from gdal_boots_ray.pipelines.flagship import run_flagship_resumable

    final, _ = run_flagship_resumable(images_dir, str(tmp_path / "ckpt"), polygons=_far_polygons(), batch_size=16)
    _assert_typed_empty(final)
