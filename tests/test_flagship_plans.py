"""The flagship's two Dataset builders — ``run_flagship``'s
read-in-task plan and ``fused_partials`` mapped over a Dataset read —
must produce the same per-polygon aggregate: the plan choice is a
scheduling detail, never a semantics change.  The read-in-task plan is
one wave: ``min(files, num_cpus_hint)`` tasks over contiguous runs of
files, whatever the hint, with the same result."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def small_images(tmp_path_factory):
    from gdal_boots_ray.sources.fixtures import generate_images_parquet

    path = str(tmp_path_factory.mktemp("imgs") / "tbl")
    generate_images_parquet(path, n_images=512, tile_px=48, bands=3)
    return path


def test_read_in_task_and_dataset_map_plans_agree(ray_session, small_images):
    import ray.data as rd

    from gdal_boots_ray.pipelines.flagship import combine_zonal_partials, fused_partials, run_flagship
    from gdal_boots_ray.sources.fixtures import bench_polygons
    from gdal_boots_ray.stages.joins import put_polygons

    polys = bench_polygons(512, 48)

    def combined(ds):
        return combine_zonal_partials(ds).sort_values("poly_id").reset_index(drop=True)

    task_plan = combined(run_flagship(small_images, polygons=polys, cell_res=5000.0, batch_size=32, num_cpus_hint=4))
    map_plan = combined(fused_partials(rd.read_parquet(small_images), put_polygons(polys), 5000.0, 9, True, 32))
    assert len(task_plan) > 0
    pd.testing.assert_frame_equal(task_plan, map_plan)
    # integer-valued partial sums: bit-identical across batch splits
    assert (task_plan["sum_v"] == np.floor(task_plan["sum_v"])).all()



@pytest.mark.parametrize(
    "n_files, hint, sizes",
    [
        (0, 4, []),
        (1, 4, [1]),
        (3, 4, [1, 1, 1]),
        (4, 4, [1, 1, 1, 1]),
        (10, 4, [2, 3, 2, 3]),
        (4, 1, [4]),
        (5, 0, [5]),
    ],
)
def test_file_groups_are_one_wave_in_file_order(n_files, hint, sizes):
    from gdal_boots_ray.pipelines.flagship import _file_groups

    files = [f"part-{i:08d}.parquet" for i in range(n_files)]
    groups = _file_groups(files, hint)
    assert [len(g) for g in groups] == sizes
    assert len(groups) <= max(1, hint)
    assert all(groups)
    # every file exactly once, contiguous runs in file order
    assert [f for g in groups for f in g] == files


@pytest.fixture(scope="module")
def four_files(tmp_path_factory):
    from gdal_boots_ray.sources.fixtures import generate_images_parquet

    path = str(tmp_path_factory.mktemp("imgs") / "tbl")
    generate_images_parquet(path, n_images=128, tile_px=32, bands=1, rows_per_file=32)
    return path


def test_one_task_per_cpu_hint_up_to_one_per_file(ray_session, four_files):
    from perfbench.run import ray_stats

    from gdal_boots_ray.pipelines.flagship import combine_zonal_partials, run_flagship
    from gdal_boots_ray.sources.fixtures import bench_polygons

    polys = bench_polygons(128, 32, n_polys=9)
    frames = []
    for hint in (1, 2, 4, 8):
        ds = run_flagship(four_files, polygons=polys, batch_size=16, num_cpus_hint=hint)
        frames.append(combine_zonal_partials(ds))
        assert ray_stats([ds])["tasks"] == min(4, hint)
    assert len(frames[0]) > 0
    assert all(f.equals(frames[0]) for f in frames[1:])
