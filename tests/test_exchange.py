"""``stages.agg.exchange``: every key's rows reach exactly one ``fn``
call, no row is lost or duplicated, and ``fn`` never sees the bucket
column — for integer (negative too), string and composite keys, one
or two inputs, one or four partitions, and an empty input.  ``fn``
runs once per partition, at most P times, where P is the cluster's
CPUs (the test session has 4, which takes the bucket boundaries; a
driver that sees one CPU takes the one-partition gather), and never
on an empty partition, and one grid row of cells spreads over the
partitions.  The key ``b`` holds integers past 2**53 and a
null in every other block: a key's bucket must not depend on whether
its block holds a null."""

import uuid

import numpy as np
import pyarrow as pa
import pytest

COLS = ["k", "s", "b", "v"]


def _table(lo: int, hi: int) -> pa.Table:
    v = np.arange(lo, hi, dtype=np.int64)
    return pa.table(
        {
            "k": pa.array(v % 23 - 11, pa.int64()),  # negative and positive
            "s": pa.array([f"w{x % 17}" for x in v], pa.string()),
            # odd offsets from 2**53: not exact in float64, yet distinct
            # after rounding to it, so the pandas checks below still
            # tell the keys apart
            "b": pa.array([None if x % 50 == 0 else 2**53 + 1 + 4 * (x % 13) for x in v], pa.int64()),
            "v": pa.array(v, pa.int64()),
        }
    )


def _tag_call_fn():
    """``fn`` for the exchange: one row per input row, stamped with a
    per-call id and the columns this call saw.  Built in a closure so
    Ray ships it by value (workers cannot import this test module)."""
    cols = list(COLS)

    def tag_call(g):
        if not isinstance(g, pa.Table):
            g = pa.Table.from_pandas(g, preserve_index=False)
        n = g.num_rows
        return pa.table(
            {
                **{c: g.column(c) for c in cols},
                "call": pa.array([uuid.uuid4().hex] * n, pa.string()),
                "seen": pa.array([",".join(g.column_names)] * n, pa.string()),
            }
        )

    return tag_call


def _datasets(n_inputs: int, n_rows: int = 300):
    import ray.data as rd

    edges = np.linspace(0, n_rows, n_inputs + 1).astype(int)
    # several blocks per input, so a bucket gathers rows from many blocks
    return [
        rd.from_arrow([_table(a + i, a + i + 25) for i in range(0, b - a, 25)])
        for a, b in zip(edges[:-1], edges[1:])
    ]


@pytest.mark.parametrize("keys", [["k"], ["s"], ["k", "s"], ["b"]])
@pytest.mark.parametrize("n_inputs", [1, 2])
@pytest.mark.parametrize("p", [1, 4])
def test_each_key_reaches_one_call(ray_session, monkeypatch, keys, n_inputs, p):
    from gdal_boots_ray.stages import agg

    if p == 1:
        monkeypatch.setattr(agg, "_cluster_cpus", lambda: 1)
    assert agg._cluster_cpus() == p
    inputs = _datasets(n_inputs)
    out = agg.exchange(inputs if n_inputs > 1 else inputs[0], keys, _tag_call_fn()).to_pandas()

    assert set(out["seen"]) == {",".join(COLS)}
    assert (out.groupby(keys, dropna=False)["call"].nunique() == 1).all()
    assert out["call"].nunique() <= p
    want = _table(0, 300).to_pandas()
    got = out[COLS].sort_values("v").reset_index(drop=True)
    assert got.equals(want)  # same multiset: v is unique per row


@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas"])
def test_batch_formats_drop_the_bucket_column(ray_session, batch_format):
    from gdal_boots_ray.stages.agg import exchange

    out = exchange(_datasets(2), ["k", "s"], _tag_call_fn(), batch_format=batch_format).to_pandas()
    assert set(out["seen"]) == {",".join(COLS)}
    assert sorted(out["v"]) == list(range(300))


def test_empty_input(ray_session):
    import ray.data as rd

    from gdal_boots_ray.stages.agg import exchange

    out = exchange(rd.from_arrow(_table(0, 0)), ["k"], _tag_call_fn()).to_pandas()
    assert len(out) == 0


def test_empty_partitions_are_not_called(ray_session):
    """Four integer keys picked from the key hash itself, two in
    partition 0 and two in partition 3 of the session's 4, leave the
    middle two partitions without rows.  ``fn`` answers a call on zero
    rows with one null-``v`` row, which must never appear."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import _cluster_cpus, _key_buckets_arrow, exchange

    assert _cluster_cpus() == 4
    cand = np.arange(64, dtype=np.int64)
    part = _key_buckets_arrow(pa.table({"k": cand}), ["k"], 4)
    keys = np.concatenate([cand[part == 0][:2], cand[part == 3][:2]])
    assert len(keys) == 4

    def fn(g: pa.Table) -> pa.Table:
        if not g.num_rows:
            return pa.table({"k": pa.array([None], pa.int64()), "v": pa.array([None], pa.int64())})
        return g.select(["k", "v"])

    v = np.arange(400, dtype=np.int64)
    blocks = [
        pa.table({"k": pa.array(keys[v[i : i + 50] % 4]), "v": pa.array(v[i : i + 50])})
        for i in range(0, 400, 50)
    ]
    out = exchange(rd.from_arrow(blocks), ["k"], fn).to_pandas()
    assert out["v"].notna().all()
    assert sorted(out["v"]) == list(range(400))


def test_one_grid_row_spreads_over_the_partitions():
    """The cells along one grid row differ only in ``grid_cell_id``'s
    high bits (``cx * 2**20 + cy``); the key hash must still spread
    them, as it spreads the cells down one column."""
    from gdal_boots_ray.kernels.cells import grid_cell_id
    from gdal_boots_ray.stages.agg import _key_buckets_arrow

    steps = np.arange(1000) * 1000.0 + 1.0
    row = grid_cell_id(steps, np.full(1000, 2500.0), 1000.0)
    col = grid_cell_id(np.full(1000, 2500.0), steps, 1000.0)
    for cells in (row, col):
        assert len(np.unique(cells)) == 1000
        n = np.bincount(_key_buckets_arrow(pa.table({"cell": cells}), ["cell"], 4), minlength=4)
        assert n.max() / n.mean() <= 1.5, n
