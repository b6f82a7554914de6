"""The flagship's final combine (``_combine_frame``) folds partials with
the same NumPy fold as the per-batch aggregate; it must equal a pandas
named-aggregation groupby, ordered by poly_id: exactly on the
integer-valued partials the flagship makes, and to float64 rounding on
fractional sums."""

import numpy as np
import pandas as pd
import pytest

from gdal_boots_ray.pipelines.flagship import RESULT_DTYPES, _combine_frame


def _reference(allp):
    return (
        allp.groupby("poly_id")
        .agg(
            n_tiles=("n_tiles", "sum"),
            n_px=("n_px", "sum"),
            sum_v=("sum_v", "sum"),
            min_v=("min_v", "min"),
            max_v=("max_v", "max"),
        )
        .reset_index()
        .sort_values("poly_id")
        .reset_index(drop=True)
    )


def _partials(rng, n, n_polys):
    lo = rng.integers(0, 200, n).astype(np.float64)
    return pd.DataFrame(
        {
            "poly_id": rng.integers(0, n_polys, n).astype(np.int64) * 7 - 20,
            "n_tiles": rng.integers(1, 5, n).astype(np.int64),
            "n_px": rng.integers(1, 4096, n).astype(np.int64),
            "sum_v": rng.integers(0, 10**6, n).astype(np.float64),
            "min_v": lo,
            "max_v": lo + rng.integers(0, 56, n),
        }
    )


@pytest.mark.parametrize("seed", range(5))
def test_matches_pandas_groupby_with_repeated_ids(seed):
    allp = _partials(np.random.default_rng(seed), 200, 25)
    got = _combine_frame(allp)
    assert got["poly_id"].is_unique and got["poly_id"].is_monotonic_increasing
    assert got.equals(_reference(allp))
    assert {c: str(t) for c, t in got.dtypes.items()} == RESULT_DTYPES


def test_single_row():
    allp = _partials(np.random.default_rng(7), 1, 1)
    got = _combine_frame(allp)
    assert len(got) == 1 and got.equals(_reference(allp))


def test_extra_columns_are_ignored():
    # resumed partitions carry their shard name
    allp = _partials(np.random.default_rng(8), 30, 4)
    got = _combine_frame(allp.assign(shard="part-0"))
    assert got.equals(_reference(allp))


def test_empty_frame_is_typed():
    for allp in (pd.DataFrame(), _partials(np.random.default_rng(9), 0, 1)):
        got = _combine_frame(allp)
        assert len(got) == 0 and list(got.columns) == list(RESULT_DTYPES)
        assert {c: str(t) for c, t in got.dtypes.items()} == RESULT_DTYPES


def test_fractional_sums_within_float64_rounding():
    # the NumPy fold adds in another order than pandas' compensated sum
    rng = np.random.default_rng(10)
    allp = _partials(rng, 500, 6).assign(sum_v=lambda f: f["sum_v"] + rng.random(len(f)))
    pd.testing.assert_frame_equal(_combine_frame(allp), _reference(allp), check_exact=False, rtol=1e-12)
