"""Lineage of the resumable flagship: every input file, including a
zero-row file and a file whose tiles match no polygon, gets exactly one
checkpoint partition whose manifest describes its data, and the
resumable final equals the streaming ``run_flagship`` result."""

import glob
import os
import shutil

import pandas as pd
import pyarrow.parquet as pq
import pytest

N_IMAGES = 256
TILE_PX = 32
EMPTY = "part-99999"


def _polys():
    from gdal_boots_ray.sources.fixtures import bench_polygons

    # diamonds over the top two of the four grid rows: the files of the
    # bottom two rows match no polygon
    return bench_polygons(N_IMAGES // 2, TILE_PX, n_polys=4)


@pytest.fixture(scope="module")
def image_dirs(tmp_path_factory):
    """(table, the same table plus a zero-row file)."""
    from gdal_boots_ray.sources.fixtures import generate_images_parquet

    root = tmp_path_factory.mktemp("imgs")
    base = generate_images_parquet(
        str(root / "base"), n_images=N_IMAGES, tile_px=TILE_PX, bands=1, skew_frac=0.0, rows_per_file=32
    )
    with_empty = str(root / "with_empty")
    shutil.copytree(base, with_empty)
    first = sorted(glob.glob(os.path.join(base, "part-*.parquet")))[0]
    pq.write_table(pq.read_table(first).slice(0, 0), os.path.join(with_empty, f"{EMPTY}.parquet"))
    return base, with_empty


@pytest.fixture(scope="module")
def resumed(ray_session, image_dirs, tmp_path_factory):
    from gdal_boots_ray.pipelines.flagship import run_flagship_resumable

    out_dir = str(tmp_path_factory.mktemp("ckpt"))
    final, summary = run_flagship_resumable(image_dirs[1], out_dir, polygons=_polys(), batch_size=16)
    return out_dir, final, summary


def _streaming(images):
    from gdal_boots_ray.pipelines.flagship import combine_zonal_partials, run_flagship

    return combine_zonal_partials(run_flagship(images, polygons=_polys(), batch_size=16, num_cpus_hint=4))


def test_empty_file_and_one_result_for_both_entry_points(image_dirs, resumed):
    base, with_empty = image_dirs
    want = _streaming(base)
    assert len(want) > 0
    # a zero-row file changes nothing, and the resumable final is the
    # streaming combine of the same input
    got = _streaming(with_empty)
    pd.testing.assert_frame_equal(got, want)
    pd.testing.assert_frame_equal(resumed[1], got)


def test_one_partition_per_file_with_matching_manifest(image_dirs, resumed):
    from gdal_boots_ray.state.manifest import completed_partitions, table_digest

    out_dir, _, summary = resumed
    files = sorted(glob.glob(os.path.join(image_dirs[1], "part-*.parquet")))
    stems = [os.path.splitext(os.path.basename(f))[0] for f in files]
    parts = completed_partitions(out_dir)
    assert sorted(parts) == sorted(stems)
    assert summary["partitions"] == len(files)
    assert parts[EMPTY]["rows"] == 0
    no_match = 0
    for f, stem in zip(files, stems):
        data = pq.read_table(os.path.join(out_dir, f"part={stem}", "data.parquet"))
        assert parts[stem]["rows"] == data.num_rows
        assert parts[stem]["digest"] == table_digest(data)
        assert set(data.column("shard").to_pylist()) <= {stem}
        if data.num_rows == 0 and pq.read_metadata(f).num_rows > 0:
            no_match += 1
    # the files of the bottom grid rows: tiles present, no polygon hit
    assert no_match > 0
