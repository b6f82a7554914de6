"""Spatial joins: point-in-polygon, kNN.

Join strategies (SURVEY §2.6):

- **Broadcast PIP** (`BroadcastPIPJoin`): the polygon side is small
  (country/AOI sets) — ``ray.put`` the parsed rings once; each actor
  ``ray.get``s them in ``__init__``, and each batch of points / tile
  centers takes its STRtree candidates through one call of the batched
  even-odd kernel ``stages.zonal.points_in_polygons``.  No shuffle.
- **Shuffle PIP** (`cell_pip_join`): both sides large — polygons
  explode to their covering grid cells, points carry their home cell,
  and both co-shuffle once through ``stages.agg.exchange`` keyed on the
  cell.  Each bucket runs one PIP call per polygon over that polygon's
  points in the bucket; a pair meets only in the point's home cell, so
  there is no dedup.  ``interval_join`` is the same plan in 1-D.
- **kNN** (`knn_brute_force` + per-cell variant in similarity.py).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from gdal_boots_ray.kernels.geometry import points_in_rings, polygon_rings
from gdal_boots_ray.stages.agg import concat_ranges, exchange


def pack_polygons(polygons: Sequence[dict]) -> list:
    """(poly_id, rings) of every polygon dict, in list order: the
    parsed form the broadcast join and the zonal pass take."""
    return [(int(p["poly_id"]), polygon_rings(p["geometry"])) for p in polygons]


def put_polygons(polygons: Sequence[dict]):
    """Parse + pack polygon rings once on the driver; broadcast via
    ray.put (read by every actor, shipped once per node — not per
    batch)."""
    return ray.put(pack_polygons(polygons))


class Matches(NamedTuple):
    """The (row, polygon list position) index pairs of a broadcast PIP
    join, by row, then position.  ``num_rows`` is the pair count, as
    for the joined table these pairs take."""

    row: np.ndarray
    pos: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.row)


class BroadcastPIPJoin:
    """map_batches actor: emits one output row per (input row, matching
    polygon), by row, then list position.  ``__init__`` builds the
    polygons' edge table ``edges`` (which the zonal pass reuses) and an
    STRtree over their boxes once per actor (the stateful-setup
    contract); a batch's tree candidates go through one
    ``points_in_polygons`` call (``pairs``, which callers holding plain
    x/y arrays use directly).  Inputs need x/y columns."""

    def __init__(self, polygons_ref, x_col: str = "cx", y_col: str = "cy", keep_cols: Optional[List[str]] = None):
        # not at module level: stages.zonal's imports would slow every shuffle worker
        from gdal_boots_ray.kernels.strtree import STRtree
        from gdal_boots_ray.stages.zonal import PolygonEdges, points_in_polygons

        self.x_col = x_col
        self.y_col = y_col
        self.keep_cols = keep_cols
        self.edges = PolygonEdges(ray.get(polygons_ref) if isinstance(polygons_ref, ray.ObjectRef) else polygons_ref)
        self.tree = STRtree(self.edges.bbox)
        self.points_in_polygons = points_in_polygons

    def pairs(self, x: np.ndarray, y: np.ndarray) -> Matches:
        """The (point, polygon position) pairs with point ``(x[i], y[i])``
        inside the polygon, by point, then position."""
        pt, j = self.tree.query_points(x, y)
        hit = self.points_in_polygons(self.edges, x[pt], y[pt], j)
        pt, j = pt[hit], j[hit]
        order = np.lexsort((j, pt))
        return Matches(pt[order], j[order])

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = self.pairs(batch.column(self.x_col).to_numpy(), batch.column(self.y_col).to_numpy())
        if self.keep_cols:
            batch = batch.select(self.keep_cols)
        taken = batch.take(pa.array(m.row, pa.int64()))
        return taken.append_column("poly_id", pa.array(self.edges.ids[m.pos], pa.int64()))


def cell_pip_join(
    points_ds,
    polygons,
    cell_res: float,
    x_col: str = "x",
    y_col: str = "y",
    key_col: str = "pid",
):
    """Shuffle PIP join where BOTH sides stream as Datasets — the
    cluster-scale form of the reference's crop/contains joins
    (gdal.py:819-888) with no driver-side materialization of either
    side.

    ``polygons`` is a Dataset with columns (poly_id, geom[GeoJSON
    string]) — a driver-side list of GeoJSON feature dicts is also
    accepted and converted for the small/legacy callers.

    Physical plan: each polygon row explodes to the covering grid
    cells of its envelope (a Dataset map, so the polygon side scales
    out too); each point carries its single home cell; both co-shuffle
    once through ``stages.agg.exchange`` keyed on ``cell``, whose body
    runs once per partition (one per cluster CPU).  Each
    partition sorts its points by cell, slices every (polygon, cell)
    row's candidates out of that order, and parses each distinct
    (poly_id, geom) once for one vectorized ray-casting call over all
    of its candidates in the partition.  A matching (point, polygon) pair
    meets in EXACTLY the point's home cell — the polygon's covering
    cells include every cell it touches — so matches are globally
    unique and no dedup shuffle is needed.

    Partitioning assumption: a polygon spans few grid cells at the
    chosen ``cell_res`` (envelope explosion is exact; res only
    affects fan-out).  A hot cell lands in one bucket and so in one
    partition; splitting hot buckets is ``exchange``'s job, not the
    caller's.
    """
    import json

    import ray.data as rd

    from gdal_boots_ray.kernels.cells import grid_cell_id, grid_cells_covering_bounds

    if not hasattr(polygons, "map_batches"):  # legacy list-of-dicts callers
        polygons = rd.from_arrow(
            pa.table(
                {
                    "poly_id": pa.array([int(p["poly_id"]) for p in polygons], pa.int64()),
                    "geom": pa.array([json.dumps(p["geometry"]) for p in polygons], pa.string()),
                }
            )
        )

    def explode_polys(batch: pa.Table) -> pa.Table:
        pids = batch.column("poly_id").to_numpy()
        geoms = batch.column("geom").to_pylist()
        out_cell: List[int] = []
        out_idx: List[int] = []
        for i, gj in enumerate(geoms):
            rings = polygon_rings(json.loads(gj))
            if not rings:
                continue
            # the envelope of every ring: MultiPolygon parts may lie
            # outside the first part's box
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

    def tag_points(batch: pa.Table) -> pa.Table:
        x = batch.column(x_col).to_numpy()
        y = batch.column(y_col).to_numpy()
        n = len(x)
        return pa.table(
            {
                "cell": pa.array(grid_cell_id(x, y, cell_res), pa.int64()),
                "kind": pa.array(np.zeros(n, np.int8)),
                "id": batch.column(key_col).cast(pa.int64()),
                "x": pa.array(x, pa.float64()),
                "y": pa.array(y, pa.float64()),
                "geom": pa.array([None] * n, pa.string()),
            }
        )

    def bucket_pip(g: pa.Table) -> pa.Table:
        kind = g.column("kind").to_numpy()
        cell = g.column("cell").to_numpy()
        pt = np.flatnonzero(kind == 0)
        pt = pt[np.argsort(cell[pt], kind="stable")]
        poly = np.flatnonzero(kind == 1)
        # each (polygon, cell) row's candidates: its cell's slice of
        # the cell-sorted points
        lo = np.searchsorted(cell[pt], cell[poly], side="left")
        cnt = np.searchsorted(cell[pt], cell[poly], side="right") - lo
        keep = cnt > 0
        poly, lo, cnt = poly[keep], lo[keep], cnt[keep]
        # one ring parse and one PIP call per distinct (poly_id, geom);
        # every row stays, so a duplicated polygon row pairs twice
        ids = g.column("id").to_numpy()
        geoms = g.column("geom").take(pa.array(poly, pa.int64())).to_pylist()
        codes: Dict[tuple, int] = {}
        code = np.array([codes.setdefault(k, len(codes)) for k in zip(ids[poly].tolist(), geoms)], np.int64)
        order = np.argsort(code, kind="stable")
        code, lo, cnt = code[order], lo[order], cnt[order]
        cand = pt[np.repeat(lo, cnt) + concat_ranges(cnt)]
        bounds = np.searchsorted(np.repeat(code, cnt), np.arange(len(codes) + 1))
        x = g.column("x").to_numpy()
        y = g.column("y").to_numpy()
        out_keys: List[np.ndarray] = [np.empty(0, np.int64)]
        out_polys: List[np.ndarray] = [np.empty(0, np.int64)]
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

    return exchange(
        [
            points_ds.map_batches(tag_points, batch_format="pyarrow"),
            polygons.map_batches(explode_polys, batch_format="pyarrow"),
        ],
        ["cell"],
        bucket_pip,
    )


def asof_join(
    left_ds,
    right_ds,
    by_col: str,
    ts_col: str,
    left_cols: Sequence[str],
    right_cols: Sequence[str],
):
    """Distributed AS-OF join: for every left row, the right row with
    the greatest ``ts_col`` <= the left row's, within the same
    ``by_col`` group (the temporal join Ray Data lacks natively;
    composition: tag -> :func:`exchange` on ``by_col`` ->
    :func:`asof_merge` per partition).  Left rows with no prior right row
    are dropped (inner as-of), and so are rows with a null ``by_col``.

    ``left_cols`` / ``right_cols`` name the carried payload columns
    (disjoint).  Output schema: by_col, *left_cols, *right_cols.

    Partitioning assumption: one ``by_col`` group fits a worker (same
    contract as any sessionization); splitting hot buckets is
    ``exchange``'s job, not the caller's.
    """

    def _types(ds, cols):
        try:
            sch = ds.schema().base_schema
            return {c: sch.field(c).type for c in cols}
        except Exception:
            return {}

    lt = _types(left_ds, [ts_col, *left_cols])
    rt = _types(right_ds, [ts_col, *right_cols])

    def tag(batch: pa.Table, kind: int) -> pa.Table:
        n = batch.num_rows
        out = {
            "k": batch.column(by_col).cast(pa.int64()),
            "kind": pa.array(np.full(n, kind, np.int8)),
            "ts": batch.column(ts_col),
        }
        for c in left_cols:
            out[f"l_{c}"] = batch.column(c) if kind == 0 else pa.nulls(n, lt.get(c))
        for c in right_cols:
            out[f"r_{c}"] = batch.column(c) if kind == 1 else pa.nulls(n, rt.get(c))
        return pa.table(out)

    sides = [
        left_ds.map_batches(lambda b: tag(b, 0), batch_format="pyarrow"),
        right_ds.map_batches(lambda b: tag(b, 1), batch_format="pyarrow"),
    ]
    return exchange(sides, ["k"], lambda g: asof_merge(g, by_col, left_cols, right_cols))


def asof_merge(g: pa.Table, by_col: str, left_cols: Sequence[str], right_cols: Sequence[str]) -> pa.Table:
    """:func:`asof_join`'s bucket body: one lexsort by (k, ts, right
    before left), then each left row takes the last right row at or
    before it (a running max of right-row positions) if that row has
    the same k.  Among right rows tied on ts the last in bucket order
    wins.  A row with a null k matches nothing (``exchange`` sends
    every null key to one bucket); dropping those rows keeps k int64,
    so keys past 2^53 never collide as floats."""
    if g.column("k").null_count:
        g = g.filter(pc.is_valid(g.column("k")))
    kind = g.column("kind").to_numpy()
    k = g.column("k").to_numpy()
    order = np.lexsort((-kind, g.column("ts").to_numpy(zero_copy_only=False), k))
    ks, is_r = k[order], kind[order] == 1
    last_r = np.maximum.accumulate(np.where(is_r, np.arange(len(order)), -1))
    hit = ~is_r & (last_r >= 0)
    hit[hit] &= ks[last_r[hit]] == ks[hit]
    lt_tbl = g.take(pa.array(order[hit], pa.int64()))
    rt_tbl = g.take(pa.array(order[last_r[hit]], pa.int64()))
    cols = {by_col: lt_tbl.column("k")}
    for c in left_cols:
        cols[c] = lt_tbl.column(f"l_{c}")
    for c in right_cols:
        cols[c] = rt_tbl.column(f"r_{c}")
    return pa.table(cols)


def interval_join(
    points_ds,
    intervals_ds,
    val_col: str,
    point_key_col: str,
    iv_key_col: str,
    lo_col: str,
    hi_col: str,
    cell_width: float,
):
    """Distributed RANGE join: each point row joins every interval row
    with ``lo <= val < hi`` — the 1-D analog of the cell PIP join.
    Both sides stream: intervals explode to covering value-grid cells
    inside map_batches, points carry their single home cell, and both
    co-shuffle once through ``stages.agg.exchange`` keyed on the cell.
    Each bucket sorts its points by (cell, value) and finds every
    interval row's [lo, hi) slice of its cell with one sort of points
    and bounds, with no loop over cells or intervals.  A match meets
    exactly in the point's home cell, so no dedup pass.

    An interval with a NaN ``lo`` or ``hi`` matches nothing, as
    ``lo <= val < hi`` is then false for every value.

    ``cell_width`` trades interval fan-out (hi-lo)/width against group
    sizes — same contract as cell_res in cell_pip_join."""

    def tag_points(batch: pa.Table) -> pa.Table:
        v = batch.column(val_col).to_numpy().astype(np.float64)
        n = len(v)
        return pa.table(
            {
                "cell": pa.array(np.floor(v / cell_width).astype(np.int64), pa.int64()),
                "kind": pa.array(np.zeros(n, np.int8)),
                "id": batch.column(point_key_col).cast(pa.int64()),
                "v": pa.array(v, pa.float64()),
                "lo": pa.array(np.full(n, np.nan), pa.float64()),
                "hi": pa.array(np.full(n, np.nan), pa.float64()),
            }
        )

    def explode_intervals(batch: pa.Table) -> pa.Table:
        lo = batch.column(lo_col).to_numpy().astype(np.float64)
        hi = batch.column(hi_col).to_numpy().astype(np.float64)
        ids = batch.column(iv_key_col).to_numpy().astype(np.int64)
        keep = ~(np.isnan(lo) | np.isnan(hi))
        lo, hi, ids = lo[keep], hi[keep], ids[keep]
        # vectorized cell fan-out: concatenated aranges via the
        # repeat-offset trick (no Python loop over intervals)
        c0 = np.floor(lo / cell_width).astype(np.int64)
        c1 = np.floor(np.nextafter(hi, -np.inf) / cell_width).astype(np.int64)
        cnt = np.maximum(c1, c0) - c0 + 1
        cells = np.repeat(c0, cnt) + concat_ranges(cnt)
        idx = np.repeat(np.arange(len(lo), dtype=np.int64), cnt)
        n = len(cells)
        return pa.table(
            {
                "cell": pa.array(cells, pa.int64()),
                "kind": pa.array(np.ones(n, np.int8)),
                "id": pa.array(ids[idx] if n else [], pa.int64()),
                "v": pa.array(np.full(n, np.nan), pa.float64()),
                "lo": pa.array(lo[idx] if n else [], pa.float64()),
                "hi": pa.array(hi[idx] if n else [], pa.float64()),
            }
        )

    def bucket_join(g: pa.Table) -> pa.Table:
        kind = g.column("kind").to_numpy()
        cell = g.column("cell").to_numpy()
        pm = np.flatnonzero(kind == 0)
        iv = np.flatnonzero(kind == 1)
        ids = g.column("id").to_numpy()
        v = g.column("v").to_numpy()
        pts = pm[np.lexsort((v[pm], cell[pm]))]
        # interval i joins pts[start:end], where start / end count the
        # points sorting before its lo / hi in one (cell, value) lexsort
        # of points and bounds; a bound sorts ahead of an equal point
        # (searchsorted side="left") and NaN sorts last
        ev_cell = np.concatenate([cell[pm], cell[iv], cell[iv]])
        ev_val = np.concatenate([v[pm], g.column("lo").to_numpy()[iv], g.column("hi").to_numpy()[iv]])
        is_pt = np.concatenate([np.ones(len(pm), np.int64), np.zeros(2 * len(iv), np.int64)])
        order = np.lexsort((is_pt, ev_val, ev_cell))
        before = np.empty(len(order), np.int64)
        before[order] = np.cumsum(is_pt[order]) - is_pt[order]
        start = before[len(pm) : len(pm) + len(iv)]
        end = before[len(pm) + len(iv) :]
        cnt = np.maximum(end - start, 0)
        idx = np.repeat(start, cnt) + concat_ranges(cnt)
        return pa.table(
            {
                point_key_col: pa.array(ids[pts[idx]], pa.int64()),
                iv_key_col: pa.array(np.repeat(ids[iv], cnt), pa.int64()),
            }
        )

    return exchange(
        [
            points_ds.map_batches(tag_points, batch_format="pyarrow"),
            intervals_ds.map_batches(explode_intervals, batch_format="pyarrow"),
        ],
        ["cell"],
        bucket_join,
    )


def hash_join(
    left_ds,
    right_ds,
    on: str,
    left_cols: Sequence[str],
    right_cols: Sequence[str],
    how: str = "inner",
):
    """Generic two-large-sides equi-join: bucketed shuffle hash join.

    ``how``: 'inner' (default), 'semi' (left rows with a match, left
    columns only), 'anti' (left rows with NO match) — the EXISTS /
    NOT EXISTS shapes — or 'left' (every left row, right columns
    null-padded on no match); all run the same single co-shuffle.

    Neither side is broadcast or driver-materialized: both stream
    through ``stages.agg.exchange`` (key-hash buckets whose fan-out
    scales with the cluster), co-shuffle ONCE on the
    bucket, and each partition merges vectorized (Arrow take + numpy
    searchsorted, no pandas frame in the exchange).  This is
    the partitioned hash join a SQL engine plans for orders ⋈
    customer — the exchange moves each row exactly once.

    Inner join on ``on`` (present in both sides, integer or string).
    Output schema: on, *left_cols, *right_cols (disjoint names).
    Skew: one hot key still lands in one bucket; splitting hot buckets
    is ``exchange``'s job, not the caller's.
    """

    def _types(ds, cols):
        try:
            sch = ds.schema().base_schema
            return {c: sch.field(c).type for c in cols}
        except Exception:
            return {}

    lt = _types(left_ds, left_cols)
    rt = _types(right_ds, right_cols)

    def tag(batch: pa.Table, kind: int) -> pa.Table:
        n = batch.num_rows
        k = batch.column(on)
        # normalize numeric keys: empty upstream blocks can promote
        # int64 to float64 (pandas empty-frame artifacts) and the
        # groupby sort refuses to concat mismatched key types
        if pa.types.is_floating(k.type) or pa.types.is_integer(k.type):
            k = k.cast(pa.int64())
        out = {"k": k, "kind": pa.array(np.full(n, kind, np.int8))}
        for c in left_cols:
            out[f"l_{c}"] = batch.column(c) if kind == 0 else pa.nulls(n, lt.get(c))
        for c in right_cols:
            out[f"r_{c}"] = batch.column(c) if kind == 1 else pa.nulls(n, rt.get(c))
        return pa.table(out)

    sides = [
        left_ds.map_batches(lambda b: tag(b, 0), batch_format="pyarrow"),
        right_ds.map_batches(lambda b: tag(b, 1), batch_format="pyarrow"),
    ]

    def _keys_np(tbl: pa.Table) -> np.ndarray:
        k = tbl.column("k")
        if pa.types.is_string(k.type) or pa.types.is_large_string(k.type):
            return k.to_numpy(zero_copy_only=False)
        return k.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)

    def merge(g: pa.Table) -> pa.Table:
        # pure-Arrow bucket merge: keys match via one sort +
        # searchsorted (numpy), payload moves via Table.take — column
        # types survive untouched (list/string/int), no pandas frame
        # and no per-value type fix-up anywhere in the exchange
        kind = g.column("kind").to_numpy()
        lidx = np.flatnonzero(kind == 0)
        ridx = np.flatnonzero(kind == 1)
        keys = _keys_np(g)
        lk = keys[lidx]
        rk = keys[ridx]
        rorder = np.argsort(rk, kind="mergesort")
        rks = rk[rorder]
        start = np.searchsorted(rks, lk, side="left")
        end = np.searchsorted(rks, lk, side="right")
        cnt = end - start

        def emit(tbl: pa.Table, rows: np.ndarray, with_right: bool = False,
                 right_rows: Optional[np.ndarray] = None) -> pa.Table:
            t = tbl.take(pa.array(rows, pa.int64()))
            cols = {on: t.column("k")}
            for c in left_cols:
                cols[c] = t.column(f"l_{c}")
            if with_right:
                if right_rows is None:
                    for c in right_cols:
                        cols[c] = t.column(f"r_{c}")
                else:
                    rt_tbl = tbl.take(pa.array(right_rows, pa.int64()))
                    for c in right_cols:
                        cols[c] = rt_tbl.column(f"r_{c}")
            return pa.table(cols)

        if how == "semi":
            return emit(g, lidx[cnt > 0])
        if how == "anti":
            return emit(g, lidx[cnt == 0])
        # matched (left row i repeated cnt[i] times) x (right rows)
        l_rows = np.repeat(lidx, cnt)
        r_rows = ridx[rorder[np.repeat(start, cnt) + concat_ranges(cnt)]]
        inner = emit(g, l_rows, with_right=True, right_rows=r_rows)
        if how == "inner":
            return inner
        if how == "left":
            miss = lidx[cnt == 0]
            if not len(miss):
                return inner
            lt_tbl = g.take(pa.array(miss, pa.int64()))
            cols = {on: lt_tbl.column("k")}
            for c in left_cols:
                cols[c] = lt_tbl.column(f"l_{c}")
            for c in right_cols:
                cols[c] = pa.nulls(len(miss), inner.schema.field(c).type)
            # promote: unmatched-side nulls may carry the null type
            # when upstream schema introspection had no field type
            return pa.concat_tables([inner, pa.table(cols)], promote_options="default")
        raise ValueError(f"unknown join how={how!r}")

    return exchange(sides, ["k"], merge)


def knn_brute_force(embeddings_ds, queries: np.ndarray, k: int, query_ids: Optional[np.ndarray] = None):
    """Brute-force cosine top-k: the query matrix is broadcast once
    (``ray.put``); each batch computes a (batch x queries) matmul and
    emits its local top-k candidates; a final small groupby reduces to
    the global top-k.  Returns Dataset (q_id, vec_id, sim) with
    ``sim`` rounded to 6 decimals, ordered by (q_id, -sim, vec_id).
    """
    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    qids = np.arange(q.shape[0], dtype=np.int64) if query_ids is None else np.asarray(query_ids, np.int64)
    q_ref = ray.put((qn, qids))

    class BatchTopK:
        def __init__(self):
            self.qn, self.qids = ray.get(q_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            vecs = batch.column("embedding").combine_chunks()
            mat = vecs.flatten().to_numpy(zero_copy_only=False).reshape(len(batch), -1).astype(np.float64)
            ids = batch.column("vec_id").to_numpy()
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            sims = (mat / norms) @ self.qn.T  # (rows, n_q)
            kk = min(k, sims.shape[0])
            out_q, out_v, out_s = [], [], []
            for j in range(sims.shape[1]):
                col = sims[:, j]
                top = np.argpartition(-col, kk - 1)[:kk]
                out_q.append(np.full(kk, self.qids[j], np.int64))
                out_v.append(ids[top].astype(np.int64))
                out_s.append(col[top])
            return pa.table(
                {
                    "q_id": pa.array(np.concatenate(out_q), pa.int64()),
                    "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
                    "sim": pa.array(np.concatenate(out_s), pa.float64()),
                }
            )

    cand = embeddings_ds.map_batches(BatchTopK, batch_format="pyarrow", concurrency=(1, 8))
    # candidates are tiny by construction (k per query per block): the
    # global top-k reduces on the driver, like ds.sum() would — a
    # Dataset groupby here costs seconds of fixed sort overhead
    allc = cand.to_pandas()
    out = (
        allc.sort_values(["q_id", "sim", "vec_id"], ascending=[True, False, True])
        .groupby("q_id", sort=True)
        .head(k)
        .reset_index(drop=True)
    )
    out["sim"] = out["sim"].round(6)
    return out
