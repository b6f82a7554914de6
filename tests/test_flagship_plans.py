"""The flagship's two Dataset builders — ``run_flagship``'s
read-in-task plan and ``fused_partials`` mapped over a Dataset read —
must produce the same per-polygon aggregate: the plan choice is a
scheduling detail, never a semantics change."""

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

