"""Round-5 analytics wave: basket_pairs / price_outliers /
customer_gini / order_percentile / rfm_segments / pagerank_parts.

Each query is pinned against an independent local recomputation (pandas
/ numpy / DuckDB) at sf0.001 — the same twins the driver's oracle gate
runs, but asserted inside pytest so a plan regression fails fast."""

import os

import numpy as np
import pandas as pd
import pytest

SF_DIR = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


def _run(name):
    from gdal_boots_ray.pipelines.queries import QUERIES

    out = QUERIES[name](SF_DIR)
    return out.to_pandas() if hasattr(out, "to_pandas") else out


def test_basket_pairs_matches_pandas(ray_session):
    got = _run("basket_pairs").sort_values(["part_a", "part_b"]).reset_index(drop=True)
    li = pd.read_parquet(f"{SF_DIR}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    items = li.drop_duplicates()
    n = items["l_orderkey"].nunique()
    cnt = items.groupby("l_partkey").size()
    m = items.merge(items, on="l_orderkey")
    m = m[m["l_partkey_x"] < m["l_partkey_y"]]
    pairs = m.groupby(["l_partkey_x", "l_partkey_y"]).size().reset_index(name="pair_count")
    pairs = pairs[pairs["pair_count"] >= 2].reset_index(drop=True)
    want = pairs.rename(columns={"l_partkey_x": "part_a", "l_partkey_y": "part_b"})
    want["lift"] = (want["pair_count"] * n).astype(np.float64) / (
        cnt.loc[want["part_a"]].to_numpy() * cnt.loc[want["part_b"]].to_numpy()
    ).astype(np.float64)
    want = want.sort_values(["part_a", "part_b"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert (got["pair_count"].to_numpy() == want["pair_count"].to_numpy()).all()
    assert (got["lift"].to_numpy() == want["lift"].to_numpy()).all()  # bit-exact


def test_price_outliers_integer_rule(ray_session):
    got = _run("price_outliers")
    li = pd.read_parquet(
        f"{SF_DIR}/lineitem.parquet",
        columns=["l_partkey", "l_orderkey", "l_linenumber", "l_extendedprice"],
    )
    c = np.round(li["l_extendedprice"].to_numpy() * 100.0).astype(np.int64)
    li = li.assign(cents=c)
    flagged = []
    for pk, g in li.groupby("l_partkey"):
        cc = g["cents"].to_numpy()
        n, s, q = len(cc), int(cc.sum()), int((cc * cc).sum())
        mask = (n * cc - s) ** 2 > 4 * (n * q - s * s)
        flagged.append(g[mask])
    want = pd.concat(flagged)
    key = ["l_partkey", "l_orderkey", "l_linenumber"]
    assert sorted(map(tuple, got[key].to_numpy())) == sorted(map(tuple, want[key].to_numpy()))


def test_customer_gini_closed_form(ray_session):
    got = _run("customer_gini")
    od = pd.read_parquet(f"{SF_DIR}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    cents = np.round(od["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
    per = pd.Series(cents).groupby(od["o_custkey"].to_numpy()).sum().to_numpy()
    x = np.sort(per)
    n = len(x)
    s = int(x.sum())
    s1 = int((np.arange(1, n + 1, dtype=np.int64) * x).sum())
    want = float(2 * s1 - (n + 1) * s) / float(n * s)
    assert int(got["n_customers"].iloc[0]) == n
    assert int(got["total_cents"].iloc[0]) == s
    assert float(got["gini"].iloc[0]) == want  # bit-exact
    assert 0.0 < want < 1.0


def test_order_percentile_min_rank(ray_session):
    got = _run("order_percentile").sort_values("o_orderkey").reset_index(drop=True)
    od = pd.read_parquet(f"{SF_DIR}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    cents = np.round(od["o_totalprice"].to_numpy() * 100.0).astype(np.int64)
    order = np.sort(cents)
    below = np.searchsorted(order, cents, side="left")  # min-rank - 1
    want = below.astype(np.float64) / np.float64(len(cents) - 1)
    od = od.assign(pct=want).sort_values("o_orderkey").reset_index(drop=True)
    assert len(got) == len(od)
    assert (got["pct_rank"].to_numpy() == od["pct"].to_numpy()).all()  # bit-exact


def _twin(name, sf_dir, table):
    import duckdb

    from gdal_boots_ray.pipelines.queries import ORACLE_SQL

    con = duckdb.connect()
    con.execute(f"CREATE VIEW {table} AS SELECT * FROM read_parquet('{sf_dir}/{table}.parquet')")
    return con.execute(ORACLE_SQL[name]).fetchdf()


def test_price_outliers_exact_past_int64(ray_session, tmp_path):
    """At 10^10 cents, c^2 and n*Q wrap int64: the exact path must flag
    only the 3x10^10 row, as the twin does in HUGEINT."""
    from gdal_boots_ray.pipelines.queries import QUERIES

    pd.DataFrame(
        {
            "l_partkey": np.full(10, 7, np.int64),
            "l_orderkey": np.arange(1, 11, dtype=np.int64),
            "l_linenumber": np.ones(10, np.int64),
            "l_extendedprice": [1e8] * 9 + [3e8],
        }
    ).to_parquet(tmp_path / "lineitem.parquet")
    got = QUERIES["price_outliers"](str(tmp_path)).to_pandas()
    want = _twin("price_outliers", tmp_path, "lineitem")
    cols = ["l_partkey", "l_orderkey", "l_linenumber", "price_cents"]

    def rows(df):
        return sorted(map(tuple, df[cols].astype(np.int64).to_numpy().tolist()))

    assert rows(got) == rows(want) == [(7, 10, 1, 3 * 10**10)]


def test_order_percentile_one_row(ray_session, tmp_path):
    """percent_rank of a one-row table is 0.0 (DuckDB), not 0/0."""
    from gdal_boots_ray.pipelines.queries import QUERIES

    pd.DataFrame({"o_orderkey": [42], "o_totalprice": [123.45]}).to_parquet(
        tmp_path / "orders.parquet"
    )
    got = QUERIES["order_percentile"](str(tmp_path)).to_pandas()
    want = _twin("order_percentile", tmp_path, "orders")
    assert want["pct_rank"].tolist() == [0.0]
    assert got["o_orderkey"].tolist() == want["o_orderkey"].tolist() == [42]
    assert got["price_cents"].tolist() == want["price_cents"].tolist() == [12345]
    assert got["pct_rank"].tolist() == [0.0]


def test_rfm_codes_in_range_and_quartiles(ray_session):
    got = _run("rfm_segments")
    code = got["rfm_code"].to_numpy()
    r, f, m = code // 100, (code // 10) % 10, code % 10
    for s in (r, f, m):
        assert s.min() >= 1 and s.max() <= 4
    # quartile scores must be monotone in the underlying measure
    srt = got.sort_values("m_cents")
    assert (np.diff((srt["rfm_code"] % 10).to_numpy()) >= 0).all()


def test_pagerank_mass_and_symmetry(ray_session):
    got = _run("pagerank_parts")
    li = pd.read_parquet(f"{SF_DIR}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
    e0 = li.drop_duplicates()
    n_nodes = e0["l_partkey"].nunique() + e0["l_suppkey"].nunique()
    assert len(got) == n_nodes
    # every rank >= the base term, and total mass stays near n * 1e6
    # (floor-division only ever loses mass, never creates it)
    assert int(got["pagerank"].min()) >= 150_000
    total = int(got["pagerank"].sum())
    assert total <= n_nodes * 1_000_000
    assert total > n_nodes * 500_000
