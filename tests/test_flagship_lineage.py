"""Lineage of the resumable flagship: every input file, including a
zero-row file and a file whose tiles match no polygon, gets exactly one
checkpoint partition whose manifest describes its data and its grid-cell
range, and the resumable final equals the streaming ``run_flagship``
result.  A resume into the directory with other polygons or another
``cell_res`` is refused rather than answered from the old partitions."""

import glob
import os
import re
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


def test_manifests_record_each_files_cell_range(image_dirs, resumed):
    import numpy as np

    from gdal_boots_ray.kernels.cells import grid_cell_id
    from gdal_boots_ray.state.manifest import completed_partitions
    from gdal_boots_ray.stages.geo import add_bounds

    parts = completed_partitions(resumed[0])
    assert parts[EMPTY]["cell_range"] is None
    for f in sorted(glob.glob(os.path.join(image_dirs[1], "part-*.parquet"))):
        t = add_bounds(pq.read_table(f))
        if t.num_rows == 0:
            continue
        cells = grid_cell_id(t.column("cx").to_numpy(), t.column("cy").to_numpy(), 5000.0)
        stem = os.path.splitext(os.path.basename(f))[0]
        # every file's tiles, matched or not
        assert parts[stem]["cell_range"] == [int(np.min(cells)), int(np.max(cells))]


@pytest.mark.parametrize("change", ["polygons", "cell_res"])
def test_resume_of_another_run_is_refused(image_dirs, resumed, change):
    from gdal_boots_ray.pipelines.flagship import run_flagship_resumable
    from gdal_boots_ray.sources.fixtures import bench_polygons
    from gdal_boots_ray.state.manifest import completed_partitions

    out_dir = resumed[0]
    before = completed_partitions(out_dir)
    kwargs = {"polygons": _polys(), "batch_size": 16}
    if change == "polygons":
        kwargs["polygons"] = bench_polygons(N_IMAGES // 2, TILE_PX, n_polys=9)
    else:
        kwargs["cell_res"] = 1000.0
    with pytest.raises(ValueError, match="not of this run") as err:
        run_flagship_resumable(image_dirs[1], out_dir, **kwargs)
    assert len(set(re.findall(r"\b[0-9a-f]{32}\b", str(err.value)))) == 2  # both digests
    assert completed_partitions(out_dir) == before
    # the same run still resumes, as a no-op with the same answer
    again, _ = run_flagship_resumable(image_dirs[1], out_dir, polygons=_polys(), batch_size=16)
    pd.testing.assert_frame_equal(again, resumed[1])


def test_claim_run_keeps_one_fingerprint_per_dir(tmp_path):
    import pyarrow as pa

    from gdal_boots_ray.state.manifest import claim_run, write_partition

    out_dir = str(tmp_path / "out")
    claim_run(out_dir, "a" * 32)
    claim_run(out_dir, "a" * 32)
    with pytest.raises(ValueError, match="b{32}"):
        claim_run(out_dir, "b" * 32)
    # partitions written before any fingerprint cannot be vouched for
    legacy = str(tmp_path / "legacy")
    write_partition(legacy, "part-0", pa.table({"x": [1]}))
    with pytest.raises(ValueError, match="no fingerprint"):
        claim_run(legacy, "a" * 32)
