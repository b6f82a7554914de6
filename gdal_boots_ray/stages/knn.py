"""kNN operators.

- ``spatial_knn``: k nearest data points for each query point via the
  grid-cell index with neighbor-ring expansion (north_rule: "kNN
  (per-cell local index with neighbor-ring expansion)").  The data
  side is hash-partitioned by cell; each query probes ring 0, then
  widens until k hits are guaranteed correct (ring r complete when the
  k-th best distance <= r * cell_res, since any point outside the
  probed rings is farther than that).
- ``knn_ivf``: IVF-style approximate embedding search — coarse
  centroids from a deterministic k-means on a sample, inverted lists
  per centroid, queries probe the ``nprobe`` nearest lists.  The
  scale path next to joins.knn_brute_force (the exact baseline).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import ray

from gdal_boots_ray.kernels.cells import grid_cell_disc, grid_cell_id, grid_cell_neighbors
from gdal_boots_ray.kernels.ranges import PAIR_CHUNK
from gdal_boots_ray.stages.agg import exchange, key_runs


class _CellIndex:
    """Per-worker spatial hash: cell -> (ids, xy) arrays."""

    def __init__(self, ids: np.ndarray, xy: np.ndarray, res: float):
        self.res = res
        cells = grid_cell_id(xy[:, 0], xy[:, 1], res)
        order = np.argsort(cells, kind="stable")
        self.cells_sorted = cells[order]
        self.ids = ids[order]
        self.xy = xy[order]
        self.uniq, self.starts = np.unique(self.cells_sorted, return_index=True)
        self.ends = np.append(self.starts[1:], len(cells))

    def cell_slice(self, cell: int):
        i = np.searchsorted(self.uniq, cell)
        if i < len(self.uniq) and self.uniq[i] == cell:
            return self.ids[self.starts[i] : self.ends[i]], self.xy[self.starts[i] : self.ends[i]]
        return None

    def query(self, qx: float, qy: float, k: int, max_ring: int = 64):
        qcell = int(grid_cell_id(np.array([qx]), np.array([qy]), self.res)[0])
        cand_ids = []
        cand_d2 = []
        seen_rings = 0
        for ring in range(max_ring + 1):
            cells = grid_cell_neighbors(qcell, ring)
            if ring > 0:  # only the new outer shell
                inner = set(grid_cell_neighbors(qcell, ring - 1).tolist())
                cells = np.array([c for c in cells if c not in inner], dtype=np.int64)
            for c in cells:
                hit = self.cell_slice(int(c))
                if hit is None:
                    continue
                ids, xy = hit
                d2 = (xy[:, 0] - qx) ** 2 + (xy[:, 1] - qy) ** 2
                cand_ids.append(ids)
                cand_d2.append(d2)
            seen_rings = ring
            if cand_ids:
                all_d2 = np.concatenate(cand_d2)
                if len(all_d2) >= k:
                    kth = np.partition(all_d2, k - 1)[k - 1]
                    # ring r guarantees every unseen point is at least
                    # r*res away from the query
                    if np.sqrt(kth) <= ring * self.res:
                        break
        all_ids = np.concatenate(cand_ids) if cand_ids else np.empty(0, np.int64)
        all_d2 = np.concatenate(cand_d2) if cand_d2 else np.empty(0)
        if len(all_d2) < k or np.sqrt(np.partition(all_d2, k - 1)[k - 1]) > seen_rings * self.res:
            # ring budget exhausted without the guarantee (isolated
            # query far from all data): the local index holds every
            # point, so finish with an exact full scan
            all_ids = self.ids
            all_d2 = (self.xy[:, 0] - qx) ** 2 + (self.xy[:, 1] - qy) ** 2
        if len(all_ids) == 0:
            return all_ids, all_d2
        order = np.lexsort((all_ids, all_d2))[:k]
        return all_ids[order], np.sqrt(all_d2[order])


def spatial_knn(queries_ds, data_ids: np.ndarray, data_xy: np.ndarray, k: int, cell_res: float):
    """For each query row (qid, x, y): the k nearest data points.

    The data side is broadcast once (``ray.put``) and indexed per actor
    in ``__init__`` — the per-cell STRtree-equivalent of SURVEY §2.6.
    Returns Dataset (qid, rank, nid, dist) with dist rounded to 6.
    """
    data_ref = ray.put((np.asarray(data_ids, np.int64), np.asarray(data_xy, np.float64)))

    class KnnActor:
        def __init__(self):
            ids, xy = ray.get(data_ref)
            self.index = _CellIndex(ids, xy, cell_res)

        def __call__(self, batch: pa.Table) -> pa.Table:
            qids = batch.column("qid").to_numpy()
            xs = batch.column("x").to_numpy()
            ys = batch.column("y").to_numpy()
            out = {"qid": [], "rank": [], "nid": [], "dist": []}
            for i in range(len(qids)):
                nid, dist = self.index.query(float(xs[i]), float(ys[i]), k)
                out["qid"].extend([int(qids[i])] * len(nid))
                out["rank"].extend(range(1, len(nid) + 1))
                out["nid"].extend(nid.tolist())
                out["dist"].extend(np.round(dist, 6).tolist())
            return pa.table(
                {
                    "qid": pa.array(out["qid"], pa.int64()),
                    "rank": pa.array(out["rank"], pa.int64()),
                    "nid": pa.array(out["nid"], pa.int64()),
                    "dist": pa.array(out["dist"], pa.float64()),
                }
            )

    return queries_ds.map_batches(KnnActor, batch_format="pyarrow", concurrency=(1, 8), num_cpus=1)


# ---------------------------------------------------------------------------
# Partitioned spatial kNN (the 100-TB path)
# ---------------------------------------------------------------------------


def cell_topk(g: pa.Table, k: int) -> pa.Table:
    """The cell probe's bucket body: for every query row (one per
    (qid, probed cell)), its k nearest data rows of that cell, as
    (qid, nid, d2) rows; ties at the k-th distance go to the lower nid.
    One sort by (cell, id); query rows whose cells hold about the same
    number of data rows (one power-of-two width) are padded into one
    query x data matrix (about 2M entries at a time) and partitioned
    at the k-th distance together.  Home-cell query copies also emit a
    sentinel (nid -1, d2 inf) so every query reaches the per-qid merge
    even when its whole neighborhood is empty."""
    cell = g.column("cell").to_numpy()
    isq = g.column("is_q").to_numpy() == 1
    ids = g.column("id").to_numpy().astype(np.int64)
    xs = g.column("x").to_numpy()
    ys = g.column("y").to_numpy()
    hids = ids[isq & (g.column("home").to_numpy() == 1)]
    out_q, out_n, out_d = [hids], [np.full(len(hids), -1, np.int64)], [np.full(len(hids), np.inf)]
    order = np.lexsort((ids, cell))
    drows, qrows = order[~isq[order]], order[isq[order]]
    dcell = cell[drows]
    first = np.searchsorted(dcell, cell[qrows], side="left")
    cnt = np.searchsorted(dcell, cell[qrows], side="right") - first
    width = 1 << np.ceil(np.log2(np.maximum(cnt, 1))).astype(np.int64)
    for w in np.unique(width[cnt > 0]):
        rows = np.flatnonzero((width == w) & (cnt > 0))
        step = max(1, PAIR_CHUNK // w)
        for s in range(0, len(rows), step):
            r = rows[s : s + step]
            inside = np.arange(w) < cnt[r, None]
            qi, di = qrows[r], drows[np.where(inside, first[r, None] + np.arange(w), 0)]
            d2 = (xs[qi, None] - xs[di]) ** 2 + (ys[qi, None] - ys[di]) ** 2
            keep = inside
            if w > k:
                rank = np.where(inside, np.fmin(d2, np.inf), np.inf)  # NaN ranks last
                kth = np.partition(rank, k - 1, axis=1)[:, k - 1 : k]
                tie = inside & (rank == kth)
                keep = inside & (rank < kth)
                keep |= tie & (np.cumsum(tie, axis=1) <= k - keep.sum(axis=1, keepdims=True))
            qq, cc = np.nonzero(keep)
            out_q.append(ids[qi[qq]])
            out_n.append(ids[di[qq, cc]])
            out_d.append(d2[qq, cc])
    return pa.table(
        {
            "qid": pa.array(np.concatenate(out_q), pa.int64()),
            "nid": pa.array(np.concatenate(out_n), pa.int64()),
            "d2": pa.array(np.concatenate(out_d), pa.float64()),
        }
    )


def spatial_knn_dataset(
    queries_ds,
    data_ds,
    k: int,
    cell_res: float,
    broadcast_threshold: int = 500_000,
    init_ring: int = 2,
    max_ring: int = 64,
):
    """k nearest data rows for every query row — both sides Datasets.

    Schemas: queries (qid, x, y); data (nid, x, y).  Returns a Dataset
    (qid, rank, nid, dist, d2) ordered within each qid.

    Two physical plans behind one API:

    - **data side small** (<= ``broadcast_threshold`` rows): materialize
      + ``ray.put`` once, per-actor ``_CellIndex`` (the round-1 plan) —
      right when the index fits one worker heap, wrong beyond it.
    - **data side large**: cell-partitioned shuffle join.  Each query
      explodes to every grid cell within ``ring`` Chebyshev rings of
      its home cell; both sides co-shuffle through
      ``stages.agg.exchange`` keyed on ``cell``; each partition computes
      every cell's exact local top-k per query (:func:`cell_topk`); a
      per-qid merge keeps the global k and checks
      the ring-termination bound — kth distance <= ring*cell_res
      guarantees no unprobed point can beat it, because every unprobed
      cell is > ring cells from the home cell.  Unresolved queries
      (the sparse-region tail) retry with a doubled ring; only they
      re-shuffle.

    Scale notes: grid cells PARTITION the data side, so per-cell
    candidates are globally unique (no dedup shuffle).  Each iteration
    materializes only the per-query top-k (output-sized, k rows per
    query) — never the data side.  A hot cell lands in one bucket like
    any other key; splitting hot buckets is ``exchange``'s job, not the
    caller's.
    """
    n_data = data_ds.count()
    if n_data <= broadcast_threshold:
        rows = data_ds.select_columns(["nid", "x", "y"]).take_all()
        ids = np.array([r["nid"] for r in rows], np.int64)
        xy = np.array([[r["x"], r["y"]] for r in rows], np.float64)
        return spatial_knn(queries_ds, ids, xy, k, cell_res)

    def tag_data(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy()
        y = batch.column("y").to_numpy()
        return pa.table(
            {
                "cell": pa.array(grid_cell_id(x, y, cell_res), pa.int64()),
                "is_q": pa.array(np.zeros(len(x), np.int8)),
                "home": pa.array(np.zeros(len(x), np.int8)),
                "id": batch.column("nid").cast(pa.int64()),
                "x": pa.array(x, pa.float64()),
                "y": pa.array(y, pa.float64()),
            }
        )

    tagged_data = data_ds.map_batches(tag_data, batch_format="pyarrow")

    def make_explode(ring: int):
        offs = np.arange(-ring, ring + 1, dtype=np.int64)
        gx, gy = np.meshgrid(offs, offs)
        home_row = ((gx.ravel() == 0) & (gy.ravel() == 0)).astype(np.int8)

        def fn(batch: pa.Table) -> pa.Table:
            x = batch.column("x").to_numpy()
            y = batch.column("y").to_numpy()
            qids = batch.column("qid").to_numpy()
            cells = grid_cell_disc(x, y, cell_res, ring)
            m = cells.shape[1]
            return pa.table(
                {
                    "cell": pa.array(cells.ravel(), pa.int64()),
                    "is_q": pa.array(np.ones(len(x) * m, np.int8)),
                    # the home-cell copy carries a marker so a query in
                    # an all-empty neighborhood still reaches the merge
                    # (and retries) instead of silently vanishing
                    "home": pa.array(np.tile(home_row, len(x))),
                    "id": pa.array(np.repeat(qids, m), pa.int64()),
                    "x": pa.array(np.repeat(x, m), pa.float64()),
                    "y": pa.array(np.repeat(y, m), pa.float64()),
                }
            )

        return fn

    def make_merge(ring: int, accept_all: bool):
        """Vectorized per-BUCKET merge: every qid hashed into this
        bucket is ranked/terminated in one numpy pass over the Arrow
        group (lexsort + run boundaries) — never one Ray group per
        query, which at 10^7 queries is the per-tiny-group trap the
        agg layer documents."""

        def merge(g: pa.Table) -> pa.Table:
            qid = g.column("qid").to_numpy()
            nid = g.column("nid").to_numpy()
            d2 = g.column("d2").to_numpy()
            uq = np.unique(qid)
            fin = np.isfinite(d2)
            qf, nf, df_ = qid[fin], nid[fin], d2[fin]
            n_cand = np.zeros(len(uq), np.int64)
            np.add.at(n_cand, np.searchsorted(uq, qf), 1)
            # top-k per qid: one lexsort, positions within runs
            order = np.lexsort((nf, df_, qf))
            qs, ns, ds_ = qf[order], nf[order], df_[order]
            starts, runlen = key_runs(qs)
            pos = np.arange(len(qs)) - np.repeat(starts, runlen)
            keep = pos < k
            top_q, top_n, top_d = qs[keep], ns[keep], ds_[keep]
            rank = pos[keep] + 1
            # kth distance = max kept d2 per qid; inf when no candidates
            mx = np.full(len(uq), -np.inf)
            if len(top_q):
                np.maximum.at(mx, np.searchsorted(uq, top_q), top_d)
            kth = np.sqrt(np.where(np.isneginf(mx), np.inf, mx))
            done = accept_all | (n_cand >= n_data) | ((n_cand >= k) & (kth <= ring * cell_res))
            resolved = done[np.searchsorted(uq, top_q)] if len(top_q) else np.empty(0, bool)
            # sentinel rows keep candidate-less unresolved qids alive
            # through the filter/split into the retry set
            empty_unresolved = uq[(n_cand == 0) & ~done]
            ne = len(empty_unresolved)
            return pa.table(
                {
                    "qid": pa.array(np.concatenate([top_q, empty_unresolved]).astype(np.int64), pa.int64()),
                    "rank": pa.array(np.concatenate([rank, np.zeros(ne, np.int64)]).astype(np.int64), pa.int64()),
                    "nid": pa.array(np.concatenate([top_n, np.full(ne, -1, np.int64)]).astype(np.int64), pa.int64()),
                    "dist": pa.array(np.concatenate([np.round(np.sqrt(top_d), 6), np.full(ne, np.nan)]), pa.float64()),
                    "d2": pa.array(np.concatenate([top_d, np.full(ne, np.nan)]), pa.float64()),
                    "resolved": pa.array(np.concatenate([resolved, np.zeros(ne, bool)]), pa.bool_()),
                }
            )

        return merge

    def merge_by_bucket(cand, ring: int, accept_all: bool):
        """Merge through ``stages.agg.exchange`` keyed on qid (same
        shape as stages.agg.grouped_top_k) so merge fan-out scales with
        the cluster, not the query count."""
        return exchange(cand, ["qid"], make_merge(ring, accept_all))

    def probe(remaining_ds, ring: int):
        exploded = remaining_ds.map_batches(make_explode(ring), batch_format="pyarrow")
        cand = exchange([tagged_data, exploded], ["cell"], lambda g: cell_topk(g, k))
        return merge_by_bucket(cand, ring, False)

    def fallback(remaining_ds):
        """Full-scan tail: queries still unresolved at the ring cap
        (isolated points far from all data) are, by construction, a
        tiny set — broadcast them and stream ONE more pass over the
        data side with per-block local top-k, then a per-qid merge.
        Data is never materialized; the query set is."""
        rows = remaining_ds.take_all()
        qids = np.array([r["qid"] for r in rows], np.int64)
        qx = np.array([r["x"] for r in rows], np.float64)
        qy = np.array([r["y"] for r in rows], np.float64)
        ref = ray.put((qids, qx, qy))

        class BlockTopK:
            def __init__(self):
                self.qids, self.qx, self.qy = ray.get(ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                x = batch.column("x").to_numpy()
                y = batch.column("y").to_numpy()
                nid = batch.column("nid").to_numpy()
                out_q, out_n, out_d = [], [], []
                for j in range(len(self.qids)):
                    d2 = (x - self.qx[j]) ** 2 + (y - self.qy[j]) ** 2
                    kk = min(k, len(d2))
                    if not kk:
                        continue
                    top = np.argpartition(d2, kk - 1)[:kk] if len(d2) > kk else np.arange(len(d2))
                    out_q.append(np.full(len(top), self.qids[j], np.int64))
                    out_n.append(nid[top].astype(np.int64))
                    out_d.append(d2[top])
                if not out_q:
                    return pa.table(
                        {
                            "qid": pa.array([], pa.int64()),
                            "nid": pa.array([], pa.int64()),
                            "d2": pa.array([], pa.float64()),
                        }
                    )
                return pa.table(
                    {
                        "qid": pa.array(np.concatenate(out_q)),
                        "nid": pa.array(np.concatenate(out_n)),
                        "d2": pa.array(np.concatenate(out_d)),
                    }
                )

        cand = data_ds.map_batches(BlockTopK, batch_format="pyarrow", concurrency=(1, 8))
        return merge_by_bucket(cand, 0, True)

    def split_resolved(batch: pa.Table) -> pa.Table:
        return batch.filter(batch.column("resolved")).select(["qid", "rank", "nid", "dist", "d2"])

    def split_bad_qids(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return batch.filter(_pc.invert(batch.column("resolved"))).select(["qid"])

    out_parts = []
    remaining = queries_ds
    ring = init_ring
    while True:
        # output-sized materialization (k rows/query) so the
        # resolved/unresolved split doesn't recompute the shuffle
        merged = probe(remaining, ring).materialize()
        out_parts.append(merged.map_batches(split_resolved, batch_format="pyarrow"))
        bad = merged.map_batches(split_bad_qids, batch_format="pyarrow").take_all()
        bad_qids = {r["qid"] for r in bad}
        if not bad_qids:
            break

        def keep_bad(batch: pa.Table, bq=np.fromiter(bad_qids, np.int64, len(bad_qids))) -> pa.Table:
            qids = batch.column("qid").to_numpy()
            return batch.filter(pa.array(np.isin(qids, bq)))

        remaining = remaining.map_batches(keep_bad, batch_format="pyarrow")
        if ring >= max_ring:
            out_parts.append(
                fallback(remaining).map_batches(split_resolved, batch_format="pyarrow")
            )
            break
        ring = min(ring * 2, max_ring)

    out = out_parts[0]
    for part in out_parts[1:]:
        out = out.union(part)
    return out


# ---------------------------------------------------------------------------
# IVF embedding search
# ---------------------------------------------------------------------------


def _kmeans(sample: np.ndarray, n_centroids: int, iters: int = 8, seed: int = 31415926) -> np.ndarray:
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(sample), size=min(n_centroids, len(sample)), replace=False)
    cent = sample[idx].copy()
    for _ in range(iters):
        d = ((sample[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = sample[m].mean(axis=0)
    return cent


def knn_ivf(embeddings_ds, queries: np.ndarray, k: int, n_centroids: int = 16, nprobe: int = 4,
            query_ids: Optional[np.ndarray] = None, sample_size: int = 2048,
            distributed_train_threshold: int = 100_000):
    """Approximate cosine top-k: train a coarse quantizer, build
    per-batch inverted lists, and search only the ``nprobe`` nearest
    lists per query.

    Quantizer training is size-dispatched: corpora up to
    ``distributed_train_threshold`` rows fit a driver-side sample
    (deterministic ``limit(sample_size)``); beyond it the coarse
    centroids come from stages/kmeans.kmeans — fully distributed
    Lloyd over the NORMALIZED vectors (the table is read per
    iteration, vectors never shuffle, only kB-sized per-cluster
    partials move) with the same md5-rank deterministic seeding.

    Partitioning assumption: centroid assignment is sharded per batch
    (no global shuffle); the final merge reduces per-batch candidates,
    so recall depends on nprobe/n_centroids, not on partitioning.
    """
    n_corpus = embeddings_ds.count()
    if n_corpus > distributed_train_threshold:
        from gdal_boots_ray.stages.kmeans import kmeans as dist_kmeans

        def normalize(batch: pa.Table) -> pa.Table:
            mat = (
                batch.column("embedding").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(len(batch), -1).astype(np.float64)
            )
            mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
            d = mat.shape[1]
            return pa.table(
                {
                    "vec_id": batch.column("vec_id").cast(pa.int64()),
                    "embedding": pa.FixedSizeListArray.from_arrays(
                        pa.array(mat.ravel(), pa.float64()), d
                    ),
                }
            )

        normed = embeddings_ds.map_batches(normalize, batch_format="pyarrow")
        centroids, _ = dist_kmeans(normed, "vec_id", "embedding", n_centroids)
    else:
        sample = embeddings_ds.limit(sample_size).to_pandas()
        smat = np.asarray(sample["embedding"].tolist(), dtype=np.float64)
        smat /= np.maximum(np.linalg.norm(smat, axis=1, keepdims=True), 1e-12)
        centroids = _kmeans(smat, n_centroids)
    centroids /= np.maximum(np.linalg.norm(centroids, axis=1, keepdims=True), 1e-12)

    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    qids = np.arange(q.shape[0], dtype=np.int64) if query_ids is None else np.asarray(query_ids, np.int64)
    # lists each query probes
    probe = np.argsort(-(qn @ centroids.T), axis=1)[:, :nprobe]
    ref = ray.put((centroids, qn, qids, probe))

    class IvfSearch:
        def __init__(self):
            self.centroids, self.qn, self.qids, self.probe = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = (
                batch.column("embedding").combine_chunks().flatten().to_numpy(zero_copy_only=False)
                .reshape(len(batch), -1).astype(np.float64)
            )
            ids = batch.column("vec_id").to_numpy()
            norms = np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
            matn = mat / norms
            assign = (matn @ self.centroids.T).argmax(axis=1)
            out_q, out_v, out_s = [], [], []
            for j in range(len(self.qids)):
                m = np.isin(assign, self.probe[j])
                if not m.any():
                    continue
                sims = matn[m] @ self.qn[j]
                kk = min(k, len(sims))
                top = np.argpartition(-sims, kk - 1)[:kk]
                out_q.extend([self.qids[j]] * kk)
                out_v.extend(ids[m][top].tolist())
                out_s.extend(sims[top].tolist())
            return pa.table(
                {
                    "q_id": pa.array(out_q, pa.int64()),
                    "vec_id": pa.array(out_v, pa.int64()),
                    "sim": pa.array(out_s, pa.float64()),
                }
            )

    cand = embeddings_ds.map_batches(IvfSearch, batch_format="pyarrow", concurrency=(1, 8), num_cpus=1)
    allc = cand.to_pandas()  # tiny by construction: k per query per block
    out = (
        allc.sort_values(["q_id", "sim", "vec_id"], ascending=[True, False, True])
        .groupby("q_id", sort=True)
        .head(k)
        .reset_index(drop=True)
    )
    out["sim"] = out["sim"].round(6)
    return out


def knn_lsh(
    embeddings_ds,
    queries: np.ndarray,
    k: int,
    n_tables: int = 4,
    n_bits: int = 6,
    query_ids: Optional[np.ndarray] = None,
    seed: int = 31415926,
    multiprobe: bool = True,
):
    """Hyperplane-LSH approximate cosine top-k — the third ANN plan
    next to ``joins.knn_brute_force`` (exact) and ``knn_ivf``
    (quantizer lists): ``n_tables`` independent sign-bit signatures
    (seeded hyperplanes, no training pass at all), queries probe their
    own signature plus all 1-bit flips (multi-probe), candidates get
    exact cosine scoring per batch.

    Partitioning assumption: like IVF, signatures are computed per
    batch with the (tables x bits x dim) plane tensor broadcast once
    via ``ray.put`` — vectors never shuffle; only per-batch top-k
    candidate rows (k x queries x blocks) leave the tasks, so recall
    depends on tables/bits, never on block boundaries.
    """
    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    dim = q.shape[1]
    qids = np.arange(q.shape[0], dtype=np.int64) if query_ids is None else np.asarray(query_ids, np.int64)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, n_bits, dim))
    weights = (1 << np.arange(n_bits, dtype=np.int64))

    def signatures(mat: np.ndarray) -> np.ndarray:
        # (rows, n_tables) integer signatures
        bits = np.einsum("rd,tbd->rtb", mat, planes) > 0
        return bits.astype(np.int64) @ weights

    qsig = signatures(qn)  # (n_q, n_tables)
    if multiprobe:
        flips = qsig[:, :, None] ^ weights[None, None, :]  # 1-bit neighbors
        probes = np.concatenate([qsig[:, :, None], flips], axis=2)  # (n_q, T, 1+B)
    else:
        probes = qsig[:, :, None]
    ref = ray.put((planes, qn, qids, probes))

    class LshSearch:
        def __init__(self):
            self.planes, self.qn, self.qids, self.probes = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = (
                batch.column("embedding").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(len(batch), -1).astype(np.float64)
            )
            ids = batch.column("vec_id").to_numpy()
            norms = np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
            matn = mat / norms
            bits = np.einsum("rd,tbd->rtb", matn, self.planes) > 0
            sig = bits.astype(np.int64) @ weights  # (rows, T)
            out_q, out_v, out_s = [], [], []
            for j in range(len(self.qids)):
                m = np.zeros(len(ids), dtype=bool)
                for t in range(sig.shape[1]):
                    m |= np.isin(sig[:, t], self.probes[j, t])
                if not m.any():
                    continue
                sims = matn[m] @ self.qn[j]
                kk = min(k, len(sims))
                top = np.argpartition(-sims, kk - 1)[:kk]
                out_q.extend([self.qids[j]] * kk)
                out_v.extend(ids[m][top].tolist())
                out_s.extend(sims[top].tolist())
            return pa.table(
                {
                    "q_id": pa.array(out_q, pa.int64()),
                    "vec_id": pa.array(out_v, pa.int64()),
                    "sim": pa.array(out_s, pa.float64()),
                }
            )

    cand = embeddings_ds.map_batches(LshSearch, batch_format="pyarrow", concurrency=(1, 8), num_cpus=1)
    allc = cand.to_pandas()  # tiny by construction: k per query per block
    out = (
        allc.sort_values(["q_id", "sim", "vec_id"], ascending=[True, False, True])
        .groupby("q_id", sort=True)
        .head(k)
        .reset_index(drop=True)
    )
    out["sim"] = out["sim"].round(6)
    return out


def knn_pq(
    embeddings_ds,
    queries: np.ndarray,
    k: int,
    m_subspaces: int = 8,
    n_codes: int = 16,
    query_ids: Optional[np.ndarray] = None,
    sample_size: int = 2048,
    refine: int = 4,
):
    """Product-quantization ADC search (Jégou et al., "Product
    quantization for nearest neighbor search", TPAMI 2011) — the
    memory-scale ANN plan: vectors compress to ``m_subspaces`` byte
    codes (64x smaller than float64 at the defaults), queries scan
    codes with per-subspace lookup tables (asymmetric distance), and
    the ``refine`` x k best candidates per batch are re-ranked with
    exact cosine.

    Scale shape: codebooks train once on a deterministic driver
    sample (the IVF precedent — swap in stages/kmeans for huge
    corpora) and broadcast via ``ray.put``; encoding + table scan are
    einsum/argmin over the batch, vectors never shuffle, and only
    refine*k candidate rows per query per block leave the tasks.
    """
    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    dim = q.shape[1]
    assert dim % m_subspaces == 0, "dim must split evenly into subspaces"
    sub = dim // m_subspaces
    qids = np.arange(q.shape[0], dtype=np.int64) if query_ids is None else np.asarray(query_ids, np.int64)

    sample = embeddings_ds.limit(sample_size).to_pandas()
    smat = np.asarray(sample["embedding"].tolist(), dtype=np.float64)
    smat /= np.maximum(np.linalg.norm(smat, axis=1, keepdims=True), 1e-12)
    codebooks = np.stack(
        [_kmeans(smat[:, m * sub : (m + 1) * sub], n_codes) for m in range(m_subspaces)]
    )  # (M, K, sub)

    # per-query ADC tables: squared L2 from each query subvector to
    # each codeword — on normalized vectors L2 ranks like cosine
    tables = np.empty((len(qids), m_subspaces, n_codes))
    for m in range(m_subspaces):
        d = qn[:, None, m * sub : (m + 1) * sub] - codebooks[m][None]  # (nq, K, sub)
        tables[:, m, :] = (d * d).sum(axis=2)
    ref = ray.put((codebooks, tables, qn, qids))

    class PqSearch:
        def __init__(self):
            self.codebooks, self.tables, self.qn, self.qids = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = (
                batch.column("embedding").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(len(batch), -1).astype(np.float64)
            )
            ids = batch.column("vec_id").to_numpy()
            matn = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
            rows = matn.shape[0]
            codes = np.empty((rows, m_subspaces), np.int64)
            for m in range(m_subspaces):
                d = matn[:, None, m * sub : (m + 1) * sub] - self.codebooks[m][None]
                codes[:, m] = (d * d).sum(axis=2).argmin(axis=1)
            out_q, out_v, out_s = [], [], []
            kk = min(refine * k, rows)
            for j in range(len(self.qids)):
                approx = self.tables[j][np.arange(m_subspaces)[None, :], codes].sum(axis=1)
                cand = np.argpartition(approx, kk - 1)[:kk]
                sims = matn[cand] @ self.qn[j]  # exact re-rank
                kk2 = min(k, len(sims))
                top = np.argpartition(-sims, kk2 - 1)[:kk2]
                out_q.extend([self.qids[j]] * kk2)
                out_v.extend(ids[cand][top].tolist())
                out_s.extend(sims[top].tolist())
            return pa.table(
                {
                    "q_id": pa.array(out_q, pa.int64()),
                    "vec_id": pa.array(out_v, pa.int64()),
                    "sim": pa.array(out_s, pa.float64()),
                }
            )

    cand = embeddings_ds.map_batches(PqSearch, batch_format="pyarrow", concurrency=(1, 8), num_cpus=1)
    allc = cand.to_pandas()  # tiny by construction: k per query per block
    out = (
        allc.sort_values(["q_id", "sim", "vec_id"], ascending=[True, False, True])
        .groupby("q_id", sort=True)
        .head(k)
        .reset_index(drop=True)
    )
    out["sim"] = out["sim"].round(6)
    return out


def knn_ivfpq(
    embeddings_ds,
    queries: np.ndarray,
    k: int,
    n_centroids: int = 16,
    nprobe: int = 4,
    m_subspaces: int = 8,
    n_codes: int = 16,
    query_ids: Optional[np.ndarray] = None,
    sample_size: int = 2048,
    refine: int = 4,
):
    """IVF-PQ: the production-index composition of the two ANN
    planes — a coarse quantizer prunes each batch to the ``nprobe``
    nearest inverted lists per query (IVF), the survivors are scanned
    with per-subspace ADC lookup tables (PQ), and the refine*k best
    candidates re-rank with exact cosine.  This is the FAISS
    IVFx,PQy layout (Jégou et al. 2011 §IV) on Ray Data: both
    codebooks train once on a deterministic driver sample and
    broadcast via ``ray.put``; vectors never shuffle; only
    output-sized candidate rows leave each task.

    Scale shape: IVF pruning makes the ADC scan touch ~nprobe/
    n_centroids of each batch, so cost per batch drops with the
    centroid count while recall is governed by nprobe — the same
    contract as knn_ivf, with PQ's 64x memory compression on top.
    """
    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
    dim = q.shape[1]
    assert dim % m_subspaces == 0, "dim must split evenly into subspaces"
    sub = dim // m_subspaces
    qids = np.arange(q.shape[0], dtype=np.int64) if query_ids is None else np.asarray(query_ids, np.int64)

    sample = embeddings_ds.limit(sample_size).to_pandas()
    smat = np.asarray(sample["embedding"].tolist(), dtype=np.float64)
    smat /= np.maximum(np.linalg.norm(smat, axis=1, keepdims=True), 1e-12)
    centroids = _kmeans(smat, n_centroids)
    centroids /= np.maximum(np.linalg.norm(centroids, axis=1, keepdims=True), 1e-12)
    # PQ codebooks on the RESIDUAL-free subvectors (flat PQ — the
    # residual variant needs per-list codebooks, overkill at 16 lists)
    codebooks = np.stack(
        [_kmeans(smat[:, m * sub : (m + 1) * sub], n_codes) for m in range(m_subspaces)]
    )
    probe = np.argsort(-(qn @ centroids.T), axis=1)[:, :nprobe]
    tables = np.empty((len(qids), m_subspaces, n_codes))
    for m in range(m_subspaces):
        d = qn[:, None, m * sub : (m + 1) * sub] - codebooks[m][None]
        tables[:, m, :] = (d * d).sum(axis=2)
    ref = ray.put((centroids, codebooks, tables, qn, qids, probe))

    class IvfPqSearch:
        def __init__(self):
            (self.centroids, self.codebooks, self.tables, self.qn,
             self.qids, self.probe) = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = (
                batch.column("embedding").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(len(batch), -1).astype(np.float64)
            )
            ids = batch.column("vec_id").to_numpy()
            matn = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
            assign = (matn @ self.centroids.T).argmax(axis=1)
            codes = np.empty((matn.shape[0], m_subspaces), np.int64)
            for m in range(m_subspaces):
                d = matn[:, None, m * sub : (m + 1) * sub] - self.codebooks[m][None]
                codes[:, m] = (d * d).sum(axis=2).argmin(axis=1)
            out_q, out_v, out_s = [], [], []
            for j in range(len(self.qids)):
                sel = np.flatnonzero(np.isin(assign, self.probe[j]))
                if not len(sel):
                    continue
                approx = self.tables[j][np.arange(m_subspaces)[None, :], codes[sel]].sum(axis=1)
                kk = min(refine * k, len(sel))
                cand = sel[np.argpartition(approx, kk - 1)[:kk]]
                sims = matn[cand] @ self.qn[j]  # exact re-rank
                kk2 = min(k, len(sims))
                top = np.argpartition(-sims, kk2 - 1)[:kk2]
                out_q.extend([self.qids[j]] * kk2)
                out_v.extend(ids[cand][top].tolist())
                out_s.extend(sims[top].tolist())
            return pa.table(
                {
                    "q_id": pa.array(out_q, pa.int64()),
                    "vec_id": pa.array(out_v, pa.int64()),
                    "sim": pa.array(out_s, pa.float64()),
                }
            )

    cand = embeddings_ds.map_batches(IvfPqSearch, batch_format="pyarrow", concurrency=(1, 8), num_cpus=1)
    allc = cand.to_pandas()  # tiny by construction: k per query per block
    out = (
        allc.sort_values(["q_id", "sim", "vec_id"], ascending=[True, False, True])
        .groupby("q_id", sort=True)
        .head(k)
        .reset_index(drop=True)
    )
    out["sim"] = out["sim"].round(6)
    return out
