"""Bucket bodies of the keyed shuffles, checked without Ray: each body
that ``exchange`` calls once per partition must give, on one partition
that holds many keys, exactly what the former one-key-per-call body
gives when applied key by key.  The reference bodies below are those
per-key bodies.  Tables mix single-row keys, ties on ``ts`` and NaN
values; every body also takes an empty bucket."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gdal_boots_ray.pipelines.queries import events, geo, text
from gdal_boots_ray.stages import agg, joins, knn, textstages


@pytest.fixture
def no_rounding(monkeypatch):
    """Compare the values before the bodies round them to 6 places."""
    monkeypatch.setattr(np, "round", lambda a, decimals=0: a)
    monkeypatch.setattr(pd.Series, "round", lambda self, decimals=0: self)


def _per_key(df: pd.DataFrame, key: str, body) -> pd.DataFrame:
    parts = [body(g) for _, g in df.groupby(key, sort=False)]
    return pd.concat(parts, ignore_index=True) if parts else None


def _same(got: pd.DataFrame, want: pd.DataFrame, by):
    got = got.sort_values(by, kind="mergesort").reset_index(drop=True)
    want = want[list(got.columns)].sort_values(by, kind="mergesort").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def _users(rng, n_users=40, max_events=12) -> np.ndarray:
    sizes = rng.integers(1, max_events + 1, n_users)
    sizes[:5] = 1  # single-event users
    return np.repeat(rng.permutation(n_users) * 7 + 3, sizes)


def _events(seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    user = rng.permutation(_users(rng))
    n = len(user)
    value = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
    value[rng.random(n) < 0.1] = np.nan
    # minutes on a coarse grid: many ties on ts within a user
    minutes = rng.integers(0, 40, n) * 15 + rng.integers(0, 3, n) * 40 * 24 * 60
    return pd.DataFrame(
        {
            "event_id": rng.permutation(n).astype(np.int64),
            "user_id": user.astype(np.int64),
            "ts": pd.to_datetime("2024-01-01") + pd.to_timedelta(minutes, unit="min"),
            "value": value,
            "event_type": rng.choice(["signup", "click", "purchase", "view"], n),
        }
    )


# --- events ----------------------------------------------------------


def _old_gaps(g):
    g = g.sort_values(["ts", "event_id"], kind="mergesort")
    gap = g["ts"].diff().dt.total_seconds()
    mavg = g["value"].rolling(3, min_periods=1).mean()
    out = pd.DataFrame(
        {
            "event_id": g["event_id"].to_numpy().astype(np.int64),
            "user_id": g["user_id"].to_numpy().astype(np.int64),
            "gap_s": np.round(gap.to_numpy(), 6),
            "mavg3": np.round(mavg.to_numpy(), 6),
        }
    )
    return out[~np.isnan(out["gap_s"].to_numpy())]


def _old_cumsum(g):
    g = g.sort_values(["ts", "event_id"], kind="mergesort")
    return pd.DataFrame(
        {
            "event_id": g["event_id"].to_numpy().astype(np.int64),
            "user_id": g["user_id"].to_numpy().astype(np.int64),
            "rn": np.arange(1, len(g) + 1, dtype=np.int64),
            "run_total": np.round(np.cumsum(g["value"].to_numpy()), 6),
        }
    )


def _old_sessions(g, gap_us=30 * 60 * 1_000_000):
    g = g.sort_values("ts")
    us = g["ts"].astype("int64").to_numpy()
    new = np.ones(len(us), dtype=np.int64)
    new[1:] = (np.diff(us) > gap_us).astype(np.int64)
    sid = np.cumsum(new)
    d = pd.DataFrame({"sid": sid, "value": g["value"].to_numpy()})
    agg_ = d.groupby("sid").agg(n_events=("value", "size"), sum_value=("value", "sum")).reset_index()
    agg_["user_id"] = g["user_id"].iloc[0]
    agg_["sum_value"] = agg_["sum_value"].round(6)
    return agg_[["user_id", "sid", "n_events", "sum_value"]].astype(
        {"user_id": "int64", "sid": "int64", "n_events": "int64"}
    )


def _old_funnel(g):
    t = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    et = g["event_type"].to_numpy()

    def step(kind, after):
        m = (et == kind) & (t > after)
        return int(t[m].min()) if m.any() else -1

    t1 = step("signup", np.iinfo(np.int64).min)
    t2 = step("click", t1) if t1 >= 0 else -1
    t3 = step("purchase", t2) if t2 >= 0 else -1
    depth = 3 if t3 >= 0 else 2 if t2 >= 0 else 1 if t1 >= 0 else 0
    return pd.DataFrame(
        {"user_id": [int(g["user_id"].iloc[0])], "depth": [depth], "t1_us": [t1], "t2_us": [t2], "t3_us": [t3]}
    )


def _old_weeks(g):
    d = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // 86_400_000_000
    d0 = int(d.min())
    wk = np.unique((d - d0) // 7)
    return pd.DataFrame(
        {
            "cohort_week": np.full(len(wk), d0 // 7, np.int64),
            "week_k": wk.astype(np.int64),
            "n_users": np.ones(len(wk), np.int64),
        }
    )


EVENT_BODIES = {
    "event_gaps": (events._event_gaps, _old_gaps, ["event_id"]),
    "running_total": (events._running_total, _old_cumsum, ["event_id"]),
    "sessionize": (lambda g: events._sessions(g, 30 * 60 * 1_000_000), _old_sessions, ["user_id", "sid"]),
    "event_funnel": (events._funnel, _old_funnel, ["user_id"]),
    "cohort_retention": (events._cohort_weeks, _old_weeks, ["cohort_week", "week_k", "n_users"]),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(EVENT_BODIES))
def test_event_bodies_match_per_user(no_rounding, name, seed):
    new, old, by = EVENT_BODIES[name]
    ev = _events(seed)
    got = new(ev)
    _same(got, _per_key(ev, "user_id", old), by)
    assert len(new(ev.iloc[:0])) == 0


def test_run_cumsum_is_per_run_cumsum_bit_for_bit():
    rng = np.random.default_rng(7)
    lens = np.r_[1, 1, 2, 3, 4, 5, 17, 64, 65, rng.integers(1, 300, 40)]
    v = rng.normal(size=int(lens.sum())) * 10.0 ** rng.integers(-8, 9, int(lens.sum()))
    v[::37] = np.nan
    starts = np.r_[0, np.cumsum(lens)[:-1]]
    want = np.concatenate([np.cumsum(v[s : s + n]) for s, n in zip(starts, lens)])
    got = events._run_cumsum(v, starts, lens)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --- asof join -------------------------------------------------------


def _old_asof(g, by_col="k", left_cols=("a",), right_cols=("b",)):
    kind = g.column("kind").to_numpy()
    lidx = np.flatnonzero(kind == 0)
    ridx = np.flatnonzero(kind == 1)
    ts = g.column("ts").to_numpy(zero_copy_only=False)
    lo = lidx[np.argsort(ts[lidx], kind="mergesort")]
    ro = ridx[np.argsort(ts[ridx], kind="mergesort")]
    if not len(lo) or not len(ro):
        cols = {by_col: g.column("k").take(pa.array([], pa.int64()))}
        for c in left_cols:
            cols[c] = g.column(f"l_{c}").take(pa.array([], pa.int64()))
        for c in right_cols:
            cols[c] = g.column(f"r_{c}").take(pa.array([], pa.int64()))
        return pa.table(cols)
    idx = np.searchsorted(ts[ro], ts[lo], side="right") - 1
    keep = idx >= 0
    lt_tbl = g.take(pa.array(lo[keep], pa.int64()))
    rt_tbl = g.take(pa.array(ro[idx[keep]], pa.int64()))
    cols = {by_col: lt_tbl.column("k")}
    for c in left_cols:
        cols[c] = lt_tbl.column(f"l_{c}")
    for c in right_cols:
        cols[c] = rt_tbl.column(f"r_{c}")
    return pa.table(cols)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_asof_merge_matches_per_key(seed):
    rng = np.random.default_rng(seed)
    k = _users(rng).astype(object)
    k[:6] = [2**53, 2**53, 2**53 + 1, 2**53 + 1, None, None]  # one float64 value; null keys
    k = k[rng.permutation(len(k))]
    n = len(k)
    kind = (rng.random(n) < 0.5).astype(np.int8)
    ts = rng.integers(0, 12, n).astype(np.float64)  # ties, left and right
    ts[rng.random(n) < 0.05] = np.nan
    # (left, right) per special key: 2^53 matches at ts 4; 2^53+1's
    # right row comes after its left row, so as floats it would take 2^53's
    for key, rts in [(2**53, 4.0), (2**53 + 1, 6.0), (None, 4.0)]:
        at = np.flatnonzero(np.equal(k, key))
        kind[at], ts[at] = [0, 1], [5.0, rts]
    g = pa.table(
        {
            "k": pa.array(k, pa.int64()),
            "kind": pa.array(kind),
            "ts": pa.array(ts),
            "l_a": pa.array(np.where(kind == 0, np.arange(n), -1), pa.int64()),
            "r_b": pa.array(np.where(kind == 1, np.arange(n), -1), pa.int64()),
        }
    )
    got = joins.asof_merge(g, "k", ["a"], ["b"]).to_pandas()
    # an inner as-of join never matches a null key
    keys = pc.unique(g.column("k").drop_null()).to_pylist()
    want = pd.concat(
        [_old_asof(g.filter(pc.equal(g.column("k"), u))).to_pandas() for u in keys], ignore_index=True
    )
    _same(got, want, ["a"])
    assert joins.asof_merge(g.slice(0, 0), "k", ["a"], ["b"]).num_rows == 0


# --- knn cell probe and drop_self ------------------------------------


def _old_local_topk(g, k):
    isq = g.column("is_q").to_numpy()
    ids_all = g.column("id").to_numpy()
    xs = g.column("x").to_numpy()
    ys = g.column("y").to_numpy()
    qm = isq == 1
    dm = ~qm
    nd = int(dm.sum())
    hids = ids_all[qm & (g.column("home").to_numpy() == 1)]
    out_q = [hids.astype(np.int64)]
    out_n = [np.full(len(hids), -1, np.int64)]
    out_d = [np.full(len(hids), np.inf)]
    if nd and qm.any():
        dx, dy, dids = xs[dm], ys[dm], ids_all[dm]
        qx, qy, qids = xs[qm], ys[qm], ids_all[qm]
        kk = min(k, nd)
        step = max(1, 2_000_000 // nd)
        for s in range(0, len(qx), step):
            d2 = (qx[s : s + step, None] - dx[None, :]) ** 2 + (qy[s : s + step, None] - dy[None, :]) ** 2
            if nd > kk:
                part = np.argpartition(d2, kk - 1, axis=1)[:, :kk]
            else:
                part = np.broadcast_to(np.arange(nd), (d2.shape[0], nd))
            rows = np.repeat(np.arange(d2.shape[0]), part.shape[1])
            out_q.append(np.repeat(qids[s : s + step], part.shape[1]).astype(np.int64))
            out_n.append(dids[part.ravel()].astype(np.int64))
            out_d.append(d2[rows, part.ravel()])
    return pd.DataFrame({"qid": np.concatenate(out_q), "nid": np.concatenate(out_n), "d2": np.concatenate(out_d)})


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("k", [1, 3, 6])
def test_cell_topk_matches_per_cell(k, grid):
    rng = np.random.default_rng(k)
    n_data, n_q = 300, 40
    dcell = rng.integers(0, 25, n_data)
    dcell[:3] = [100, 101, 102]  # cells with one data row
    qcells = [rng.choice(np.r_[np.arange(30), 100, 200], size=4, replace=False) for _ in range(n_q)]
    qcell = np.concatenate(qcells)  # cell 200 has queries only; 25..29 none
    home = np.tile([1, 0, 0, 0], n_q).astype(np.int8)
    qid = np.repeat(np.arange(n_q) + 10_000, 4)
    g = pa.table(
        {
            "cell": pa.array(np.r_[dcell, qcell], pa.int64()),
            "is_q": pa.array(np.r_[np.zeros(n_data), np.ones(len(qcell))].astype(np.int8)),
            "home": pa.array(np.r_[np.zeros(n_data, np.int8), home]),
            "id": pa.array(np.r_[np.arange(n_data), qid], pa.int64()),
            # grid: small integer coordinates, so ties at the k-th distance
            "x": pa.array(rng.integers(0, 3, n_data + len(qcell)) if grid else rng.random(n_data + len(qcell))),
            "y": pa.array(rng.integers(0, 3, n_data + len(qcell)) if grid else rng.random(n_data + len(qcell))),
        }
    )
    g = g.take(pa.array(rng.permutation(g.num_rows)))
    got = knn.cell_topk(g, k).to_pandas()
    cells = g.column("cell").to_numpy()
    want = pd.concat(
        [_old_local_topk(g.filter(pa.array(cells == c)), k) for c in np.unique(cells)], ignore_index=True
    )
    if not grid:
        _same(got, want, ["qid", "nid", "d2"])
    else:  # the per-cell body broke ties arbitrarily: same distances, lower nids
        _same(got.drop(columns="nid"), want.drop(columns="nid"), ["qid", "d2"])
        t = g.to_pandas()
        q, d = t[t["is_q"] == 1], t[t["is_q"] == 0].rename(columns={"id": "nid"})
        m = q.merge(d, on="cell", suffixes=("", "_d"))
        m["d2"] = (m["x"] - m["x_d"]) ** 2 + (m["y"] - m["y_d"]) ** 2
        top = m.sort_values(["id", "cell", "d2", "nid"]).groupby(["id", "cell"]).head(k)
        home = q[q["home"] == 1]
        ref = pd.concat(
            [top.rename(columns={"id": "qid"}), pd.DataFrame({"qid": home["id"], "nid": -1, "d2": np.inf})]
        )
        _same(got, ref[["qid", "nid", "d2"]], ["qid", "nid", "d2"])
    assert knn.cell_topk(g.slice(0, 0), k).num_rows == 0


def _old_drop_self(g, k):
    g = g[g["nid"] != g["qid"].iloc[0]].sort_values(["d2", "nid"]).head(k).copy()
    g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
    return g[["qid", "rank", "nid", "dist"]]


def test_drop_self_matches_per_qid():
    rng = np.random.default_rng(3)
    qid = rng.permutation(_users(rng, max_events=8))
    n = len(qid)
    nid = np.where(rng.random(n) < 0.2, qid, rng.integers(0, 500, n))
    d2 = np.where(nid == qid, 0.0, rng.integers(1, 6, n).astype(np.float64))  # ties
    b = pd.DataFrame({"qid": qid, "rank": 0, "nid": nid, "dist": np.sqrt(d2), "d2": d2})
    for k in (1, 3):
        got = geo._drop_self(b, k)
        _same(got, _per_key(b, "qid", lambda g: _old_drop_self(g, k)), ["qid", "rank"])
        assert len(geo._drop_self(b.iloc[:0], k)) == 0


# --- quantile walk and doc_pack ----------------------------------------


def _old_walk(g, group_col, col, qs):
    g = g.sort_values(col)
    vals = agg.percentile_disc(g[col].to_numpy(), g["cnt"].to_numpy(), qs)
    return pd.DataFrame({group_col: g[group_col].iloc[0], "q": [float(q) for q in qs], col: vals})


@pytest.mark.parametrize("seed", [0, 1])
def test_quantile_walk_matches_per_group(seed):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(30):
        n = 1 if i < 4 else int(rng.integers(2, 30))
        vals = rng.choice(np.r_[np.arange(200.0), np.nan], size=n, replace=False)
        rows.append(pd.DataFrame({"lang": f"l{i}", "v": vals, "cnt": rng.integers(1, 9, n)}))
    b = pd.concat(rows, ignore_index=True).sample(frac=1.0, random_state=seed)
    qs = [0.0, 0.25, 1.0 / 3.0, 0.5, 0.9, 1.0]
    got = agg._quantile_walk(b, "lang", "v", qs)
    _same(got, _per_key(b, "lang", lambda g: _old_walk(g, "lang", "v", qs)), ["lang", "q"])
    assert len(agg._quantile_walk(b.iloc[:0], "lang", "v", qs)) == 0


def _old_pack(group, offs, budget):
    g = group.sort_values("doc_id")
    base = int(offs[int(g["rng"].iloc[0])])
    excl = base + g["n_tokens"].cumsum().shift(fill_value=0).astype("int64")
    return pd.DataFrame(
        {
            "doc_id": g["doc_id"].astype("int64"),
            "n_tokens": g["n_tokens"].astype("int64"),
            "chunk_id": (excl // budget).astype("int64"),
        }
    )


def test_pack_matches_per_range():
    rng = np.random.default_rng(5)
    doc_id = rng.permutation(np.r_[np.arange(0, 700), 1030, 2048])  # one-doc ranges
    b = pd.DataFrame({"doc_id": doc_id, "n_tokens": rng.integers(0, 90, len(doc_id)), "rng": doc_id // 64})
    rngs = np.unique(b["rng"])
    offs = rng.integers(0, 10_000, len(rngs)).cumsum()
    got = text._pack(b, rngs, offs, 256)
    want = _per_key(b, "rng", lambda g: _old_pack(g, dict(zip(rngs, offs)), 256))
    _same(got, want, ["doc_id"])
    assert len(text._pack(b.iloc[:0], rngs, offs, 256)) == 0


# --- LSH pair generator --------------------------------------------------


def _old_run_loop(g, key, hot_cap=None, keep_pair=None):
    """The per-run loop the five pair generators shared."""
    bk = g.column(key).to_numpy()
    did = g.column("doc_id").to_numpy()
    sz = g.column("sz").to_numpy().astype(np.float64)
    order = np.lexsort((did, bk))
    bk, did, sz = bk[order], did[order], sz[order]
    keep = np.r_[True, (bk[1:] != bk[:-1]) | (did[1:] != did[:-1])]
    bk, did, sz = bk[keep], did[keep], sz[keep]
    starts = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]])
    ends = np.r_[starts[1:], len(bk)]
    out = []
    for s, e in zip(starts, ends):
        ids = did[s:e]
        if len(ids) < 2:
            continue
        if hot_cap is not None and len(ids) > hot_cap:
            out += [(ids[0], x) for x in ids[1:]]
            continue
        a, b = np.triu_indices(len(ids), k=1)
        m = keep_pair(ids[a], ids[b], sz[s:e][a], sz[s:e][b]) if keep_pair else np.ones(len(a), bool)
        out += list(zip(ids[a][m], ids[b][m]))
    return pd.DataFrame(out, columns=["doc_a", "doc_b"], dtype=np.int64)


def _hamming_le(a, b, cap=2):
    x = np.bitwise_xor(a * 1000003 % 64, b * 1000003 % 64)
    return np.array([bin(int(v)).count("1") for v in x], np.int64) <= cap


@pytest.mark.parametrize("hot_cap", [None, 5])
@pytest.mark.parametrize("filtered", ["none", "size", "hamming"])
def test_run_pairs_matches_run_loop(hot_cap, filtered):
    rng = np.random.default_rng(11)
    n = 600
    g = pa.table(
        {
            "band_key": pa.array(rng.integers(0, 60, n) * 7919, pa.int64()),
            "doc_id": pa.array(rng.integers(0, 120, n), pa.int64()),  # repeated (key, id) rows
            "sz": pa.array(rng.integers(1, 50, n), pa.int64()),
        }
    )
    # sz must be a function of doc_id, as it is upstream
    g = g.set_column(2, "sz", pa.array(g.column("doc_id").to_numpy() % 47 + 3, pa.int64()))
    keep_pair, pair_filter = None, None
    if filtered == "size":
        keep_pair = lambda ia, ib, sa, sb: np.minimum(sa, sb) >= 0.6 * np.maximum(sa, sb) - 1e-9  # noqa: E731

        def pair_filter(t, a, b):
            sz = t.column("sz").to_numpy().astype(np.float64)
            return np.minimum(sz[a], sz[b]) >= 0.6 * np.maximum(sz[a], sz[b]) - 1e-9

    elif filtered == "hamming":
        keep_pair = lambda ia, ib, sa, sb: _hamming_le(ia, ib)  # noqa: E731

        def pair_filter(t, a, b):
            ids = t.column("doc_id").to_numpy()
            return _hamming_le(ids[a], ids[b])

    got = textstages.run_pairs(g, "band_key", "doc_id", ("doc_a", "doc_b"), hot_cap, pair_filter).to_pandas()
    want = _old_run_loop(g, "band_key", hot_cap, keep_pair)
    assert len(want)
    _same(got, want, ["doc_a", "doc_b"])
    empty = textstages.run_pairs(g.slice(0, 0), "band_key", "doc_id", ("doc_a", "doc_b"), hot_cap, pair_filter)
    assert empty.num_rows == 0 and empty.column_names == ["doc_a", "doc_b"]


# --- cell PIP join ---------------------------------------------------


def _old_explode(batch: pa.Table, cell_res: float) -> pa.Table:
    """The former polygon side: one parse and one
    ``grid_cells_covering_bounds`` call per polygon."""
    import json

    from gdal_boots_ray.kernels.cells import grid_cells_covering_bounds
    from gdal_boots_ray.kernels.geometry import polygon_rings

    pids = batch.column("poly_id").to_numpy()
    geoms = batch.column("geom").to_pylist()
    out_cell, out_idx = [], []
    for i, gj in enumerate(geoms):
        rings = polygon_rings(json.loads(gj))
        if not rings:
            continue
        xy = np.concatenate(rings)
        env = (xy[:, 0].min(), xy[:, 1].min(), xy[:, 0].max(), xy[:, 1].max())
        cc = grid_cells_covering_bounds(env, cell_res)
        out_cell.extend(cc.tolist())
        out_idx.extend([i] * len(cc))
    n = len(out_cell)
    return pa.table(
        {
            "cell": pa.array(out_cell, pa.int64()),
            "kind": pa.array(np.ones(n, np.int8)),
            "id": pa.array(pids[out_idx] if n else [], pa.int64()),
            "x": pa.array(np.full(n, np.nan), pa.float64()),
            "y": pa.array(np.full(n, np.nan), pa.float64()),
            "geom": pa.array([geoms[i] for i in out_idx], pa.string()),
        }
    )


def _old_bucket_pip(g: pa.Table, key_col: str) -> pa.Table:
    """The former partition body: one ring parse and one
    ``points_in_rings`` call per distinct (poly_id, geom), over the
    points of that polygon's cells."""
    import json

    from gdal_boots_ray.kernels.geometry import points_in_rings, polygon_rings
    from gdal_boots_ray.kernels.ranges import concat_ranges

    kind = g.column("kind").to_numpy()
    cell = g.column("cell").to_numpy()
    pt = np.flatnonzero(kind == 0)
    pt = pt[np.argsort(cell[pt], kind="stable")]
    poly = np.flatnonzero(kind == 1)
    lo = np.searchsorted(cell[pt], cell[poly], side="left")
    cnt = np.searchsorted(cell[pt], cell[poly], side="right") - lo
    keep = cnt > 0
    poly, lo, cnt = poly[keep], lo[keep], cnt[keep]
    ids = g.column("id").to_numpy()
    geoms = g.column("geom").take(pa.array(poly, pa.int64())).to_pylist()
    codes = {}
    code = np.array([codes.setdefault(k, len(codes)) for k in zip(ids[poly].tolist(), geoms)], np.int64)
    order = np.argsort(code, kind="stable")
    code, lo, cnt = code[order], lo[order], cnt[order]
    cand = pt[np.repeat(lo, cnt) + concat_ranges(cnt)]
    bounds = np.searchsorted(np.repeat(code, cnt), np.arange(len(codes) + 1))
    x = g.column("x").to_numpy()
    y = g.column("y").to_numpy()
    out_keys, out_polys = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for j, (poly_id, gj) in enumerate(codes):
        c = cand[bounds[j] : bounds[j + 1]]
        hits = ids[c[points_in_rings(x[c], y[c], polygon_rings(json.loads(gj)))]]
        out_keys.append(hits)
        out_polys.append(np.full(len(hits), poly_id, np.int64))
    return pa.table(
        {
            key_col: pa.array(np.concatenate(out_keys), pa.int64()),
            "poly_id": pa.array(np.concatenate(out_polys), pa.int64()),
        }
    )


def _sq(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def _pip_sides(seed: int, res: float = 1000.0):
    """(points, polygons) tables: points with a hot cell and a quarter
    of their coordinates on cell boundaries; polygons with a duplicated
    row, two polygons sharing one id, polygons over cells without
    points, edges on cell boundaries, a hole, a MultiPolygon with a far
    part, an unclosed ring and an empty geometry."""
    import json

    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.uniform(-3000.0, 5000.0, 400), rng.uniform(1000.0, 2000.0, 200)])  # hot cell
    y = np.concatenate([rng.uniform(-3000.0, 5000.0, 400), rng.uniform(1000.0, 2000.0, 200)])
    for v in (x, y):
        snap = rng.random(len(v)) < 0.25
        v[snap] = np.round(v[snap] / res) * res
    points = pa.table({"pid": pa.array(np.arange(len(x), dtype=np.int64)), "x": pa.array(x), "y": pa.array(y)})
    geoms = []
    for _ in range(30):
        cx, cy = rng.uniform(-2500.0, 4500.0, 2)
        r = rng.uniform(100.0, 1500.0)
        geoms.append({"type": "Polygon", "coordinates": [[[cx - r, cy], [cx, cy - r], [cx + r, cy], [cx, cy + r], [cx - r, cy]]]})
    dup = {"type": "Polygon", "coordinates": [_sq(1100.0, 1100.0, 1900.0, 1900.0)]}
    extra = [
        (100, dup),
        (100, dup),
        (101, {"type": "Polygon", "coordinates": [_sq(1000.0, 1000.0, 1500.0, 1500.0)]}),
        (101, {"type": "Polygon", "coordinates": [_sq(1500.0, 1500.0, 2000.0, 2000.0)]}),
        (102, {"type": "Polygon", "coordinates": [_sq(0.0, 0.0, 2000.0, 1000.0)]}),
        (103, {"type": "Polygon", "coordinates": [_sq(-2500.0, -2500.0, 500.0, 500.0), _sq(-1500.0, -1500.0, 0.0, 0.0)]}),
        (104, {"type": "MultiPolygon", "coordinates": [[_sq(0.0, 3000.0, 10.0, 3010.0)], [_sq(4000.0, -2000.0, 4900.0, -1100.0)]]}),
        (105, {"type": "Polygon", "coordinates": [[[2100.0, 2100.0], [2900.0, 2100.0], [2900.0, 2900.0]]]}),  # unclosed
        (106, {"type": "Polygon", "coordinates": []}),
        (107, {"type": "Polygon", "coordinates": [_sq(20000.0, 20000.0, 23000.0, 23000.0)]}),  # no points
    ]
    pairs = list(enumerate(geoms)) + extra
    polygons = pa.table(
        {
            "poly_id": pa.array([p for p, _ in pairs], pa.int64()),
            "geom": pa.array([json.dumps(gj) for _, gj in pairs], pa.string()),
        }
    )
    return points, polygons


def _pip_steps(res: float):
    """(tag_points, explode, body) as ``cell_pip_join`` hands them to
    ``map_batches`` and ``exchange``."""

    class Stand:
        def map_batches(self, fn, **_kwargs):
            return fn

    exchange = joins.exchange
    joins.exchange = lambda inputs, keys, fn, **_kwargs: (*inputs, fn)
    try:
        return joins.cell_pip_join(Stand(), Stand(), res)
    finally:
        joins.exchange = exchange


@pytest.mark.parametrize("seed", [0, 1])
def test_explode_polys_matches_per_polygon_explode(seed):
    _, polygons = _pip_sides(seed)
    for res in (1000.0, 700.0):
        got, want = joins.explode_polys(polygons, res), _old_explode(polygons, res)
        assert got.schema == want.schema
        for c in ("cell", "kind", "id", "geom"):
            assert got.column(c).equals(want.column(c)), c
        assert np.isnan(got.column("x").to_numpy()).all() and np.isnan(got.column("y").to_numpy()).all()
    assert joins.explode_polys(polygons.slice(0, 0), 1000.0).num_rows == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_parts", [1, 4])
def test_cell_pip_partition_matches_per_polygon_body(seed, n_parts):
    points, polygons = _pip_sides(seed)
    tag, explode, body = _pip_steps(1000.0)
    rows = pa.concat_tables([tag(points), explode(polygons)])
    # the rows in shuffled order, split as the exchange splits them
    rows = rows.take(pa.array(np.random.default_rng(seed).permutation(rows.num_rows)))
    part = agg._key_buckets_arrow(rows, ["cell"], n_parts)
    total = 0
    for p in range(n_parts):
        g = rows.filter(pa.array(part == p))
        got = body(g).to_pandas()
        assert got.columns.tolist() == ["pid", "poly_id"]
        want = _old_bucket_pip(g, "pid").to_pandas()
        _same(got, want, ["pid", "poly_id"])
        total += len(got)
    assert total > 100
    got = joins.cell_pip_partition(rows, "pid").to_pandas()
    # a duplicated row pairs once per copy; shared ids keep their own rings
    dup = got[got["poly_id"] == 100]
    assert len(dup) and (dup["pid"].value_counts() == 2).all()
    assert (got["poly_id"] == 101).sum() > 0 and (got["poly_id"] == 107).sum() == 0
    empty = body(rows.slice(0, 0))
    assert empty.num_rows == 0 and empty.column_names == ["pid", "poly_id"]
    polys_only = body(rows.filter(pc.equal(rows.column("kind"), 1)))
    assert polys_only.num_rows == 0 and polys_only.column_names == ["pid", "poly_id"]
