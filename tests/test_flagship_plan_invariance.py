"""The flagship's answer does not depend on how its work is cut: the
final frame is ``DataFrame.equals`` across pixel-step sizes (one row,
7 rows, 32 rows, a whole file), files-per-task hints, resume chunks and
the three entry points (``run_flagship``, ``run_flagship_resumable``,
``fused_partials``).  ``batch_size`` keeps its memory meaning: the
worker never hands ``band0_reader`` more than ``batch_size`` rows."""

import glob
import os

import pyarrow.parquet as pq
import pytest

N_IMAGES = 160
TILE_PX = 32
ROWS_PER_FILE = 40  # 4 files; steps of 7 and 32 rows leave a short last step


def _polys():
    from gdal_boots_ray.sources.fixtures import bench_polygons

    return bench_polygons(N_IMAGES, TILE_PX, n_polys=9)


@pytest.fixture(scope="module")
def images(tmp_path_factory):
    from gdal_boots_ray.sources.fixtures import generate_images_parquet

    path = str(tmp_path_factory.mktemp("imgs") / "tbl")
    return generate_images_parquet(
        path, n_images=N_IMAGES, tile_px=TILE_PX, bands=3, skew_frac=0.1, rows_per_file=ROWS_PER_FILE
    )


def test_final_frame_is_the_same_however_the_work_is_cut(ray_session, images, tmp_path):
    import ray.data as rd

    from gdal_boots_ray.pipelines.flagship import (
        combine_zonal_partials,
        fused_partials,
        run_flagship,
        run_flagship_resumable,
    )
    from gdal_boots_ray.stages.joins import put_polygons

    polys = _polys()
    frames = {}
    for bs in (1, 7, 32, ROWS_PER_FILE):
        frames[f"batch_size={bs}"] = combine_zonal_partials(
            run_flagship(images, polygons=polys, batch_size=bs, num_cpus_hint=2)
        )
    for hint in (1, 2, 4):
        frames[f"num_cpus_hint={hint}"] = combine_zonal_partials(
            run_flagship(images, polygons=polys, batch_size=7, num_cpus_hint=hint)
        )
    for chunk in (None, 1):
        out = str(tmp_path / f"ckpt-{chunk}")
        frames[f"chunk_files={chunk}"] = run_flagship_resumable(
            images, out, polygons=polys, batch_size=7, chunk_files=chunk
        )[0]
    ds = rd.read_parquet(images)
    frames["fused_partials"] = combine_zonal_partials(fused_partials(ds, put_polygons(polys), 5000.0, 9, True, 7))

    want = frames.pop("batch_size=1")
    assert len(want) > 1 and (want["n_tiles"] > 0).all()
    for name, got in frames.items():
        assert got.equals(want), name


def test_band0_reader_never_holds_more_than_batch_size_rows(images, monkeypatch):
    from gdal_boots_ray.kernels.geometry import polygon_rings
    from gdal_boots_ray.pipelines import flagship

    seen = []
    band0_reader = flagship.band0_reader

    def counted(batch, rows):
        seen.append((batch.num_rows, len(set(rows.tolist()))))
        return band0_reader(batch, rows)

    monkeypatch.setattr(flagship, "band0_reader", counted)
    packed = [(int(p["poly_id"]), polygon_rings(p["geometry"])) for p in _polys()]
    table = pq.read_table(sorted(glob.glob(os.path.join(images, "part-*.parquet")))[0], columns=flagship.IMAGE_COLS)
    for bs in (1, 7, 32, 1000):
        seen.clear()
        flagship.FusedTileWorker(packed, 5000.0, 9, True, batch_size=bs)(table)
        # one step per batch_size rows, each over at most batch_size rows
        assert [n for n, _ in seen] == [min(bs, table.num_rows - lo) for lo in range(0, table.num_rows, bs)]
        assert all(decoded <= n for n, decoded in seen)
        assert sum(decoded for _, decoded in seen) > 0
