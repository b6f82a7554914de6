"""``entry()`` — the flagship on sf0.001 — returns the per-polygon
aggregate with exactly its six columns, and its (poly_id, n_px, sum_v)
equal those of the DuckDB-oracle-checked ``zonal_stats`` query."""

import os

import pandas as pd
import pytest

import __ray_entry__


@pytest.mark.skipif(not os.path.isdir(__ray_entry__._SF0001), reason="sf0.001 test data missing")
def test_entry_matches_zonal_stats(ray_session):
    from gdal_boots_ray.pipelines.queries.raster import q_zonal_stats

    ds = __ray_entry__.entry()
    assert ds.columns() == ["poly_id", "n_tiles", "n_px", "sum_v", "min_v", "max_v"]
    got = ds.to_pandas().sort_values("poly_id").reset_index(drop=True)
    want = q_zonal_stats(__ray_entry__._SF0001).to_pandas().sort_values("poly_id").reset_index(drop=True)
    assert len(got) > 0
    pd.testing.assert_frame_equal(got[["poly_id", "n_px", "sum_v"]], want[["poly_id", "n_px", "sum_v"]])
