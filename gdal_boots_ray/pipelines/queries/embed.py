"""Embedding queries: exact and approximate kNN, k-means, covariance and
the embedding / perceptual-hash near-duplicate pipelines."""

from __future__ import annotations

from typing import Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._common import _read


ORACLE_SQL: Dict[str, str] = {}


def _query_embeddings(sf_dir: str, n_queries: int = 8):
    """The first ``n_queries`` embeddings as a query matrix with their
    ids, and the embeddings Dataset they are searched in."""
    import pyarrow.parquet as pq

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    qt = qt.filter(pc.less(qt.column("vec_id"), n_queries))
    qmat = np.asarray(qt.column("embedding").to_pylist(), dtype=np.float64)
    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return qmat, qt.column("vec_id").to_numpy(), ds


def _recall_check(sf_dir: str, search, k: int, recall_bound: float):
    """Approximate embedding search judged by a CHECKED invariant:
    per-query recall against the exact brute-force top-k must clear
    ``recall_bound``.  ``search(ds, qmat, k, query_ids)`` returns the
    approximate (q_id, vec_id) top-k.  The twin emits (q_id,
    recall_ok=true) rows, so any recall regression breaks the hash
    (the exact baseline knn is itself oracle-checked separately)."""
    import pandas as pd

    from gdal_boots_ray.stages.joins import knn_brute_force

    qmat, qids, ds = _query_embeddings(sf_dir)
    approx = search(ds, qmat, k, qids)
    exact = knn_brute_force(ds, qmat, k=k, query_ids=qids)

    a_sets = approx.groupby("q_id")["vec_id"].apply(set)
    e_sets = exact.groupby("q_id")["vec_id"].apply(set)
    rows = []
    for q in sorted(e_sets.index):
        inter = len(a_sets.get(q, set()) & e_sets[q])
        rows.append((int(q), bool(inter / max(len(e_sets[q]), 1) >= recall_bound)))
    return pd.DataFrame(rows, columns=["q_id", "recall_ok"])


# the twin of every recall-checked search: all 8 queries clear the bound
_RECALL_OK_SQL = """
        SELECT CAST(vec_id AS BIGINT) AS q_id, CAST(true AS BOOLEAN) AS recall_ok
        FROM embeddings WHERE vec_id < 8
    """


def q_knn_ivf(sf_dir: str, k: int = 5, recall_bound: float = 0.4):
    """IVF approximate embedding search under ``_recall_check``."""
    from gdal_boots_ray.stages.knn import knn_ivf

    # nprobe=6 of 16 lists: deterministic min per-query recall 0.4
    # across sf0.001/0.01/0.1 (measured) — the invariant's floor
    def search(ds, qmat, k, qids):
        return knn_ivf(ds, qmat, k=k, nprobe=6, query_ids=qids)

    return _recall_check(sf_dir, search, k, recall_bound)


ORACLE_SQL["knn_ivf"] = _RECALL_OK_SQL


def q_knn_lsh(sf_dir: str, k: int = 5, recall_bound: float = 0.4):
    """Hyperplane-LSH approximate embedding search under
    ``_recall_check``.  This is the training-free ANN plan (seeded
    sign-bit tables + 1-bit multi-probe, stages/knn.knn_lsh) — no
    quantizer fit, so it scales to corpora where even a sampled
    k-means pass is unwanted."""
    from gdal_boots_ray.stages.knn import knn_lsh

    def search(ds, qmat, k, qids):
        return knn_lsh(ds, qmat, k=k, n_tables=4, n_bits=6, query_ids=qids)

    return _recall_check(sf_dir, search, k, recall_bound)


ORACLE_SQL["knn_lsh"] = _RECALL_OK_SQL


def q_knn_pq(sf_dir: str, k: int = 5, recall_bound: float = 0.4):
    """Product-quantization ADC search under ``_recall_check``: 8
    subspaces x 16 codes compress the 64-d embeddings 64x, and the
    table scan + exact re-rank must still clear the bound."""
    from gdal_boots_ray.stages.knn import knn_pq

    def search(ds, qmat, k, qids):
        return knn_pq(ds, qmat, k=k, query_ids=qids)

    return _recall_check(sf_dir, search, k, recall_bound)


ORACLE_SQL["knn_pq"] = _RECALL_OK_SQL


def q_knn_ivfpq(sf_dir: str, k: int = 5, recall_bound: float = 0.4):
    """IVF-PQ combined index (FAISS IVFx,PQy layout): coarse-quantizer
    pruning to nprobe lists, ADC table scan over the survivors, exact
    re-rank — under ``_recall_check``, so the oracle is non-vacuous: a
    broken prune or scan fails it."""
    from gdal_boots_ray.stages.knn import knn_ivfpq

    # nprobe=6/16 lists: every fixture query clears the bound with
    # the coarse prune still dropping ~5/8 of each batch
    def search(ds, qmat, k, qids):
        return knn_ivfpq(ds, qmat, k=k, query_ids=qids, nprobe=6, refine=6)

    return _recall_check(sf_dir, search, k, recall_bound)


ORACLE_SQL["knn_ivfpq"] = _RECALL_OK_SQL


def q_phash_neardup(sf_dir: str, max_hamming: int = 3):
    """Near-duplicate images by phash hamming distance <= 3 over the
    20-bit phash: LSH banding (4 bands x 5 bits — pigeonhole-exact for
    hamming<=3: 3 errors cannot dirty all 4 bands) + verify.  The oracle is the quadratic
    bit_count(xor()) join, so this checks EXACTNESS of the banding.

    Scale note: exact banding's candidate volume is governed by the
    HASH WIDTH — 5-bit bands give 32 buckets, so bucket population is
    N/32 and the per-bucket all-pairs grows quadratically with the
    corpus.  The fixture's phash is 20-bit by construction; a
    production 64-bit phash yields 16-bit bands (65,536 buckets per
    band), which keeps expected bucket population ~N/65k while
    staying pigeonhole-exact.  Capping buckets here would break the
    exact-recall contract the oracle checks, so none is applied."""
    from gdal_boots_ray.stages.textstages import band_pairs

    ds = _read(f"{sf_dir}/part.parquet", columns=["p_partkey"])

    def phash_rows(batch: pa.Table) -> pa.Table:
        from gdal_boots_ray.sources.fixtures import tile_phash

        k = batch.column("p_partkey").to_numpy()
        ph = tile_phash(k)
        return pa.table({"key": pa.array(k, pa.int64()), "phash": pa.array(ph, pa.int64())})

    rows = ds.map_batches(phash_rows, batch_format="pyarrow")

    def band_rows(batch: pa.Table) -> pa.Table:
        keys = batch.column("key").to_numpy()
        ph = batch.column("phash").to_numpy()
        out_k, out_b = [], []
        for b in range(4):
            band_val = (ph >> (b * 5)) & 0x1F
            out_k.extend(keys.tolist())
            out_b.extend((band_val + (b << 40)).tolist())
        return pa.table({"key": pa.array(out_k, pa.int64()), "bucket": pa.array(out_b, pa.int64())})

    from gdal_boots_ray.sources.fixtures import tile_phash as _ph

    def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        x = np.bitwise_xor(_ph(a), _ph(b)).astype(np.uint64)
        cnt = np.zeros(len(x), np.int64)
        while np.any(x):
            cnt += (x & 1).astype(np.int64)
            x >>= np.uint64(1)
        return cnt

    # verify INSIDE the pair generator: the 20-bit fixture phash gives
    # only 32 buckets per band, so raw band candidates are O((N/32)^2)
    # per band value (~25M rows at sf0.1) — filtering to exact
    # hamming<=max BEFORE emitting means only true pairs (~20x fewer)
    # ever leave the exchange task or cross the dedup exchange.  Recall
    # is untouched: the filter is the same closed-form check the
    # oracle applies.
    def close(t: pa.Table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        keys = t.column("key").to_numpy()
        return _hamming(keys[a], keys[b]) <= max_hamming

    pairs = band_pairs(
        rows.map_batches(band_rows, batch_format="pyarrow"),
        key="bucket",
        id_col="key",
        out=("key_a", "key_b"),
        pair_filter=close,
    )

    def with_hamming(batch: pa.Table) -> pa.Table:
        ka = batch.column("key_a").to_numpy()
        kb = batch.column("key_b").to_numpy()
        return pa.table(
            {
                "key_a": pa.array(ka, pa.int64()),
                "key_b": pa.array(kb, pa.int64()),
                "hamming": pa.array(_hamming(ka, kb), pa.int64()),
            }
        )

    return pairs.map_batches(with_hamming, batch_format="pyarrow")


ORACLE_SQL["phash_neardup"] = """
        WITH t AS (
            SELECT CAST(p_partkey AS BIGINT) AS k,
                   CAST((p_partkey * 1000003 + 12345) % 1048576 AS BIGINT) AS ph
            FROM part
        )
        SELECT a.k AS key_a, b.k AS key_b,
               CAST(bit_count(xor(a.ph, b.ph)) AS BIGINT) AS hamming
        FROM t a, t b
        WHERE a.k < b.k AND bit_count(xor(a.ph, b.ph)) <= 3
    """


def q_knn(sf_dir: str, k: int = 5, n_queries: int = 8):
    from gdal_boots_ray.stages.joins import knn_brute_force

    qmat, qids, ds = _query_embeddings(sf_dir, n_queries)
    out = knn_brute_force(ds, qmat, k=k, query_ids=qids)  # pandas (driver-side final top-k)
    out = out.astype({"q_id": "int64", "vec_id": "int64", "sim": "float64"})
    out["sim"] = out["sim"].round(4)
    return out


ORACLE_SQL["knn"] = """
        WITH q AS (SELECT vec_id AS q_id, embedding AS qe FROM embeddings WHERE vec_id < 8)
        SELECT CAST(q_id AS BIGINT) AS q_id, CAST(vec_id AS BIGINT) AS vec_id,
               round(CAST(list_cosine_similarity(e.embedding, q.qe) AS DOUBLE), 4) AS sim
        FROM embeddings e, q
        QUALIFY row_number() OVER (
            PARTITION BY q_id
            ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, vec_id
        ) <= 5
    """


def q_embedding_centroids(sf_dir: str, n_groups: int = 8):
    """Per-group embedding centroids (the E-step / class-prototype
    aggregate of a vector pipeline): per-batch partial sums by group
    and dimension, bucketed merge, centroid = sum/count.  The
    exchange moves (groups x dims) partial rows per batch — never a
    vector table."""
    import pandas as pd

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        emb = batch.column("embedding").combine_chunks()
        dim = len(emb[0])
        vecs = emb.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim)
        grp = ids % n_groups
        rows = {"grp": [], "dim": [], "s": [], "n": []}
        for g in np.unique(grp):
            m = grp == g
            rows["grp"].extend([int(g)] * dim)
            rows["dim"].extend(range(dim))
            rows["s"].extend(vecs[m].sum(axis=0).tolist())
            rows["n"].extend([int(m.sum())] * dim)
        return pd.DataFrame(
            {
                "grp": np.array(rows["grp"], np.int64),
                "dim": np.array(rows["dim"], np.int64),
                "s": np.array(rows["s"], np.float64),
                "n": np.array(rows["n"], np.int64),
            }
        )

    merged = bucketed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), ["grp", "dim"], {"s": "sum", "n": "sum"}
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy()
        n = batch.column("n").to_numpy()
        return pa.table(
            {
                "grp": batch.column("grp").cast(pa.int64()),
                "dim": batch.column("dim").cast(pa.int64()),
                "c": pa.array(np.round(s / n, 6), pa.float64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


ORACLE_SQL["embedding_centroids"] = """
        SELECT CAST(vec_id % 8 AS BIGINT) AS grp, CAST(i.i AS BIGINT) AS dim,
               round(CAST(avg(embedding[i.i + 1]) AS DOUBLE), 6) AS c
        FROM embeddings, (SELECT unnest(generate_series(0, 63)) AS i) i
        GROUP BY grp, i.i
    """


def q_embedding_cov(sf_dir: str):
    """Corpus-wide second-moment (Gram) matrix of the embedding table —
    the one-pass statistic behind PCA whitening, decorrelation and
    OPQ rotation fitting in a vector pipeline.  Scale shape: each
    batch quantizes the per-row products X[:,a]*X[:,b] (float32
    promoted to float64, exactly as SQL promotes FLOAT to DOUBLE) to
    integer micro-units and sums them locally, so the corpus total is
    an order-independent INTEGER sum; one D*(D+1)/2-long int64 blob
    (~16.6 kB for D=64) leaves each task and there is NO shuffle at
    all — the driver folds the bounded per-block partials and unpacks
    the upper triangle to (dim_a, dim_b, sxy) rows.  At 100 TB the
    reduce input is (#blocks) 16 kB rows; the vector table itself
    never moves."""
    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding").combine_chunks()
        if not len(emb):
            return pa.table({"dim": pa.array([], pa.int64()), "part": pa.array([], pa.binary())})
        dim = len(emb[0])
        x = emb.flatten().to_numpy(zero_copy_only=False).reshape(-1, dim).astype(np.float64)
        ia, ib = np.triu_indices(dim)
        # per-row quantized product, THEN integer sum: order-free
        q = np.floor(x[:, ia] * x[:, ib] * 1e6 + 0.5).astype(np.int64).sum(axis=0)
        return pa.table(
            {
                "dim": pa.array([dim], pa.int64()),
                "part": pa.array([q.tobytes()], pa.binary()),
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    dim = int(rows[0]["dim"]) if rows else 0
    total = np.zeros(dim * (dim + 1) // 2, np.int64)
    for r in rows:
        total += np.frombuffer(r["part"], np.int64)
    ia, ib = np.triu_indices(dim)
    return pa.table(
        {
            "dim_a": pa.array(ia.astype(np.int64)),
            "dim_b": pa.array(ib.astype(np.int64)),
            "sxy": pa.array(total),
        }
    )


ORACLE_SQL["embedding_cov"] = """
        SELECT CAST(a.i AS BIGINT) AS dim_a, CAST(b.i AS BIGINT) AS dim_b,
               SUM(CAST(floor(CAST(embedding[a.i + 1] AS DOUBLE)
                              * CAST(embedding[b.i + 1] AS DOUBLE)
                              * 1000000.0 + 0.5) AS BIGINT)) AS sxy
        FROM embeddings,
             (SELECT unnest(generate_series(0, 63)) AS i) a,
             (SELECT unnest(generate_series(0, 63)) AS i) b
        WHERE a.i <= b.i
        GROUP BY dim_a, dim_b
    """


def q_kmeans(sf_dir: str, k: int = 8, iters: int = 6):
    """Distributed Lloyd k-means over the embeddings table
    (stages/kmeans.py): per-iteration broadcast centroids + per-batch
    partial sums; vectors never shuffle.  Deterministic md5-ranked
    seeding.  Oracle is invariant-style (like knn_ivf): ``ok``
    asserts monotone non-increasing inertia, ``n_assigned`` (the sum
    of member counts) is hash-checked against DuckDB's row count —
    proving no vector is lost or duplicated by the iteration."""
    import pandas as pd

    from gdal_boots_ray.stages.kmeans import assign_clusters, kmeans

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    cents, inertias = kmeans(ds, "vec_id", "embedding", k=k, iters=iters)
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(inertias, inertias[1:]))
    assigned = assign_clusters(ds, "embedding", cents)
    counts = (
        assigned.groupby("cluster").count().to_pandas().rename(columns={"count()": "n"})
    )
    n_assigned = int(counts["n"].sum())
    return pd.DataFrame(
        {
            "cluster": np.arange(k, dtype=np.int64),
            "n_assigned": np.full(k, n_assigned, dtype=np.int64),
            "ok": [bool(monotone)] * k,
        }
    )


ORACLE_SQL["kmeans"] = """
        SELECT CAST(c.c AS BIGINT) AS cluster,
               CAST((SELECT count(*) FROM embeddings) AS BIGINT) AS n_assigned,
               CAST(true AS BOOLEAN) AS ok
        FROM (SELECT unnest(generate_series(0, 7)) AS c) c
    """


def q_multimodal_neardup(sf_dir: str, max_ph_ham: int = 3, max_sh_ham: int = 12):
    """JOINT image+caption near-duplicate pairs over the north-star
    image+caption table: a pair survives only if the IMAGES are
    phash-near (banded LSH + exact hamming <= ``max_ph_ham``, the
    oracle-exact q_phash_neardup) AND the CAPTIONS are simhash-near
    (hamming <= ``max_sh_ham``) — the multimodal dedup rule (a meme
    re-uploaded with a new caption, or one caption on two images, is
    NOT a joint duplicate).  Plan: image pairs from the banded phash
    path; caption simhashes attach to BOTH ends through ONE doc
    shuffle (attach_pair_columns); the final filter recomputes both
    hammings vectorized.  The twin replays phash closed-form + the
    caption simhash CTE quadratically, so banding + attach + filter
    are all hash-checked."""
    from gdal_boots_ray.kernels.text import simhash64
    from gdal_boots_ray.stages.textstages import attach_pair_columns

    pairs = q_phash_neardup(sf_dir, max_hamming=max_ph_ham).select_columns(["key_a", "key_b"])

    caps = _read(f"{sf_dir}/part.parquet", columns=["p_partkey"])

    def cap_sh(batch: pa.Table) -> pa.Table:
        ks = batch.column("p_partkey").to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ks, pa.int64()),
                "sh": pa.array([simhash64(f"tile img-{int(k):08d}") for k in ks], pa.int64()),
            }
        )

    withsh = attach_pair_columns(
        pairs,
        caps.map_batches(cap_sh, batch_format="pyarrow"),
        key_a="key_a",
        key_b="key_b",
        out_a="sh_a",
        out_b="sh_b",
        val_col="sh",
    )

    def popcount64(v: np.ndarray) -> np.ndarray:
        return np.unpackbits(v.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1).astype(np.int64)

    def joint(batch: pa.Table) -> pa.Table:
        ka = batch.column("key_a").to_numpy()
        kb = batch.column("key_b").to_numpy()
        pha = (ka * 1000003 + 12345) % 1048576
        phb = (kb * 1000003 + 12345) % 1048576
        ph_ham = popcount64((pha ^ phb).astype(np.uint64))
        sha = batch.column("sh_a").to_numpy().astype(np.int64)
        shb = batch.column("sh_b").to_numpy().astype(np.int64)
        sh_ham = popcount64((sha ^ shb).astype(np.uint64))
        keep = sh_ham <= max_sh_ham
        return pa.table(
            {
                "key_a": pa.array(ka[keep], pa.int64()),
                "key_b": pa.array(kb[keep], pa.int64()),
                "ph_ham": pa.array(ph_ham[keep], pa.int64()),
                "sh_ham": pa.array(sh_ham[keep], pa.int64()),
            }
        )

    return withsh.map_batches(joint, batch_format="pyarrow")


ORACLE_SQL["multimodal_neardup"] = """
        WITH t AS (
            SELECT CAST(p_partkey AS BIGINT) AS k,
                   CAST((p_partkey * 1000003 + 12345) % 1048576 AS BIGINT) AS ph,
                   printf('tile img-%08d', p_partkey) AS cap
            FROM part
        ),
        words AS (
            SELECT k, unnest(regexp_extract_all(lower(cap), '[a-z0-9'']+')) AS w FROM t
        ),
        wh AS (
            SELECT k, CAST('0x' || substring(md5(w), 1, 16) AS UBIGINT) AS h FROM words
        ),
        bits AS (
            SELECT k, b.b AS bit,
                   sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
            FROM wh, (SELECT unnest(generate_series(0, 63)) AS b) b
            GROUP BY k, b.b
        ),
        sh AS (
            SELECT k,
                   sum(CASE WHEN acc > 0 THEN CAST(1 AS HUGEINT) << bit ELSE CAST(0 AS HUGEINT) END) AS us
            FROM bits GROUP BY k
        ),
        s AS (SELECT t.k, t.ph, CAST(sh.us AS UBIGINT) AS ush FROM t JOIN sh USING (k))
        SELECT a.k AS key_a, b.k AS key_b,
               CAST(bit_count(xor(a.ph, b.ph)) AS BIGINT) AS ph_ham,
               CAST(bit_count(xor(a.ush, b.ush)) AS BIGINT) AS sh_ham
        FROM s a, s b
        WHERE a.k < b.k
          AND bit_count(xor(a.ph, b.ph)) <= 3
          AND bit_count(xor(a.ush, b.ush)) <= 12
    """


def q_dup_components(sf_dir: str, max_iters: int = 30, broadcast_threshold: int = 5_000_000):
    """Connected components over the near-duplicate graph — the step a
    production dedup pipeline needs after pair generation to elect one
    canonical row per duplicate CLUSTER (pairs alone under-delete on
    chains a~b~c).  Edges are the phash hamming<=3 pairs
    (q_phash_neardup, itself oracle-exact); labels converge by
    min-label propagation with POINTER JUMPING: each round pushes
    labels across edges (bucketed hash join + bucketed min-combine),
    then doubles (label <- label-of-label, a second join), so rounds
    scale with log(component diameter) instead of diameter — the
    difference between ~7 and ~10^5 rounds on a chain-shaped dup
    cluster.  All exchanges move (node, label) rows only, never
    payloads.  Only edge-incident nodes iterate; singletons bypass
    via an anti join.  Labels are monotone non-increasing, so the
    label-sum scalar is a convergence proof; non-convergence within
    max_iters raises instead of returning wrong components.  Each
    round re-materializes labels at a FIXED partition count —
    without it, union + per-bucket map_groups multiply block counts
    geometrically and the all-to-all per-round cost explodes (3.7 s
    -> 87 s by round 3, measured); with it rounds are flat.  The
    DuckDB twin is a recursive-CTE min-reach.  Labels are
    driver-materialized per round (node-count rows); a petabyte run
    would write them to the manifested parquet checkpoint dir like
    pipelines/flagship.py.

    Two physical plans behind one semantics (the knn
    broadcast_threshold precedent): an edge set at or under
    ``broadcast_threshold`` rows — output-scale, k pairs per dup
    cluster, NOT corpus-scale — collects to the driver and resolves
    with one exact numpy union-find pass (min-id root labels, no
    per-round exchanges); a larger graph runs the distributed
    pointer-jumping loop.  Both return min-reachable-id labels, so
    the oracle is plan-independent (test_dup_components_plans forces
    the loop and compares)."""
    import ray.data as rd

    from gdal_boots_ray.stages.agg import _cluster_cpus, bucketed_aggregate
    from gdal_boots_ray.stages.joins import hash_join

    n_parts = max(8, _cluster_cpus() // 4)
    # edge sets are pair-scale (banding caps bound them), so one
    # object-store materialization avoids re-executing the phash
    # lineage for the size probe AND the collect/loop that follows
    edges = q_phash_neardup(sf_dir).materialize()

    if edges.count() <= broadcast_threshold:
        pairs = edges.select_columns(["key_a", "key_b"]).to_pandas()
        a = pairs["key_a"].to_numpy(np.int64)
        b = pairs["key_b"].to_numpy(np.int64)
        nodes_np, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        parent = np.arange(len(nodes_np), dtype=np.int64)

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for ia, ib in zip(inv[: len(a)], inv[len(a) :]):
            ra, rb = find(int(ia)), find(int(ib))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)  # min-index root
        roots = np.array([find(i) for i in range(len(nodes_np))], np.int64)
        # component label = min node id; roots are min-index, and
        # nodes_np is sorted, so the root's node id IS the min id
        labels_np = nodes_np[roots]
        all_keys = (
            _read(f"{sf_dir}/part.parquet", columns=["p_partkey"])
            .to_pandas()["p_partkey"]
            .to_numpy(np.int64)
        )
        singles = np.setdiff1d(all_keys, nodes_np, assume_unique=False)
        return rd.from_arrow(
            pa.table(
                {
                    "key": pa.array(np.concatenate([nodes_np, singles]), pa.int64()),
                    "component": pa.array(np.concatenate([labels_np, singles]), pa.int64()),
                }
            )
        )

    def both_dirs(b: pa.Table) -> pa.Table:
        a = b.column("key_a").to_numpy()
        bb = b.column("key_b").to_numpy()
        return pa.table(
            {
                "k": pa.array(np.concatenate([a, bb]), pa.int64()),
                "dst": pa.array(np.concatenate([bb, a]), pa.int64()),
            }
        )

    e = edges.map_batches(both_dirs, batch_format="pyarrow").repartition(n_parts).materialize()

    def self_label(b: pa.Table) -> pa.Table:
        k = b.column("k").cast(pa.int64())
        return pa.table({"k": k, "label": k})

    def relabel(b: pa.Table) -> pa.Table:
        return pa.table(
            {"k": b.column("k").cast(pa.int64()), "label": b.column("label").cast(pa.int64())}
        )

    # iterate only over nodes that touch an edge
    inc = bucketed_aggregate(e, ["k"], {"deg": "count"}).map_batches(
        lambda b: pa.table({"k": b.column("k").cast(pa.int64())}), batch_format="pyarrow"
    )
    labels = (
        inc.map_batches(self_label, batch_format="pyarrow").repartition(n_parts).materialize()
    )

    prev_sum = None
    for _ in range(max_iters):
        # (a) neighbor min: push labels across edges, keep per-node min
        msgs = hash_join(e, labels, on="k", left_cols=["dst"], right_cols=["label"])
        msgs = msgs.map_batches(
            lambda b: pa.table(
                {"k": b.column("dst").cast(pa.int64()), "label": b.column("label").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        labels = (
            bucketed_aggregate(labels.union(msgs), ["k"], {"label": "min"})
            .map_batches(relabel, batch_format="pyarrow")
            .repartition(n_parts)
            .materialize()
        )
        # (b) pointer jump: label <- label(label); every label value is
        # itself a key in labels, so the inner join covers all rows
        as_src = labels.map_batches(
            lambda b: pa.table(
                {"j": b.column("label").cast(pa.int64()), "k": b.column("k").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        as_map = labels.map_batches(
            lambda b: pa.table(
                {"j": b.column("k").cast(pa.int64()), "jl": b.column("label").cast(pa.int64())}
            ),
            batch_format="pyarrow",
        )
        jumped = hash_join(as_src, as_map, on="j", left_cols=["k"], right_cols=["jl"])
        labels = (
            jumped.map_batches(
                lambda b: pa.table(
                    {"k": b.column("k").cast(pa.int64()), "label": b.column("jl").cast(pa.int64())}
                ),
                batch_format="pyarrow",
            )
            .repartition(n_parts)
            .materialize()
        )
        s = labels.sum("label")
        # sum() is None iff labels is empty (edge set empty): trivially
        # converged — every node takes the singleton path below
        if s is None or (prev_sum is not None and s == prev_sum):
            break
        prev_sum = s
    else:
        raise RuntimeError(f"components did not converge in {max_iters} rounds")

    # singleton nodes (no incident edge) are their own component
    nodes = _read(f"{sf_dir}/part.parquet", columns=["p_partkey"]).map_batches(
        lambda b: pa.table({"k": b.column("p_partkey").cast(pa.int64())}),
        batch_format="pyarrow",
    )
    singles = hash_join(nodes, inc, on="k", left_cols=[], right_cols=[], how="anti")
    out = labels.union(singles.map_batches(self_label, batch_format="pyarrow"))

    def final(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": b.column("k").cast(pa.int64()),
                "component": b.column("label").cast(pa.int64()),
            }
        )

    return out.map_batches(final, batch_format="pyarrow")


ORACLE_SQL["dup_components"] = """
        WITH RECURSIVE t AS (
            SELECT CAST(p_partkey AS BIGINT) AS k,
                   CAST((p_partkey * 1000003 + 12345) % 1048576 AS BIGINT) AS ph
            FROM part
        ),
        pr AS (
            SELECT a.k AS key_a, b.k AS key_b
            FROM t a, t b
            WHERE a.k < b.k AND bit_count(xor(a.ph, b.ph)) <= 3
        ),
        e AS (
            SELECT key_a AS src, key_b AS dst FROM pr
            UNION ALL
            SELECT key_b, key_a FROM pr
        ),
        reach(n, m) AS (
            SELECT k, k FROM t
            UNION
            SELECT e.dst, r.m FROM reach r JOIN e ON e.src = r.n
        )
        SELECT n AS key, CAST(min(m) AS BIGINT) AS component
        FROM reach GROUP BY n
    """


def q_semdedup(
    sf_dir: str,
    k: int = 8,
    iters: int = 4,
    tau: float = 0.92,
    target_cluster: int = 4096,
    block: int = 4096,
):
    """SemDeDup (Abbas et al. 2023): semantic dedup by clustering
    embeddings with spherical k-means, then dropping, within each
    cluster, any vector that has a >= tau cosine neighbor with a
    smaller id.  Plan: normalize inside map_batches -> distributed
    Lloyd (stages/kmeans.py: centroids broadcast per iteration,
    only k x dim partials cross the wire) -> final assignment pass ->
    cluster-keyed shuffle -> per-cluster blocked drop rule.

    Scale shape (SemDeDup's own recipe): ``k`` GROWS with the corpus —
    k = max(k, ceil(N / target_cluster)) from parquet-metadata row
    counts, so expected cluster population stays bounded as data
    grows instead of the per-cluster work going quadratic.  Skewed
    clusters that still exceed the target are handled EXACTLY by the
    blocked gram walk inside cluster_dedup: 4096-column panels
    against ascending row panels with early exit once every column
    has found an earlier neighbor, so worker memory is O(B^2 + B*d)
    regardless of cluster size.  At the gate SFs the scaled k equals
    the default, so the oracle fixture is unchanged.

    Oracle is non-vacuous via planted scaled copies (id + 1e9,
    embedding * 2): normalization maps copies to bit-identical
    vectors, so each MUST land in its original's cluster and be
    dropped by it, while the synthetic originals (max pairwise cosine
    ~0.51) all survive — the twin is the original id set with
    n_dups = 1.  n_dups credits are resolved TRANSITIVELY to a
    surviving representative (chain a~b~c where b is dropped still
    credits a), so no drop count is silently lost."""
    import pandas as pd
    import ray

    from gdal_boots_ray.stages.kmeans import kmeans

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # metadata-only row count; planted copies double the population
    k = max(k, int(np.ceil(2 * ds.count() / target_cluster)))

    def plant_norm(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").cast(pa.int64()).to_numpy()
        mat = (
            b.column("embedding")
            .combine_chunks()
            .flatten()
            .to_numpy(zero_copy_only=False)
            .reshape(len(b), -1)
            .astype(np.float64)
        )
        d = mat.shape[1]
        both = np.concatenate([mat, mat * 2.0])
        both /= np.linalg.norm(both, axis=1, keepdims=True)
        ids2 = np.concatenate([ids, ids + 1_000_000_000])
        return pa.table(
            {
                "vec_id": pa.array(ids2, pa.int64()),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(both.ravel(), pa.float64()), d
                ),
            }
        )

    planted = ds.map_batches(plant_norm, batch_format="pyarrow")
    cents, _ = kmeans(planted, "vec_id", "embedding", k, iters)
    cref = ray.put(cents)

    def assign(batch: pa.Table, _c={}) -> pa.Table:
        c = _c.get("c")
        if c is None:
            c = _c["c"] = ray.get(cref)
        mat = (
            batch.column("embedding")
            .combine_chunks()
            .flatten()
            .to_numpy(zero_copy_only=False)
            .reshape(len(batch), -1)
        )
        d2 = (
            (mat * mat).sum(axis=1)[:, None]
            - 2.0 * mat @ c.T
            + (c * c).sum(axis=1)[None, :]
        )
        out = pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "embedding": batch.column("embedding"),
                "cluster": pa.array(d2.argmin(axis=1).astype(np.int64)),
            }
        )
        return out

    assigned = planted.map_batches(assign, batch_format="pyarrow")

    def cluster_dedup(g: pd.DataFrame) -> pd.DataFrame:
        B = block  # panel width: memory O(B^2 + B*d) even on skewed clusters
        ids = g["vec_id"].to_numpy().astype(np.int64)
        mat = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        order = np.argsort(ids)
        ids, mat = ids[order], mat[order]
        m = len(ids)
        dropped = np.zeros(m, bool)
        rep = np.zeros(m, np.int64)
        for c0 in range(0, m, B):
            c1 = min(c0 + B, m)
            found = np.zeros(c1 - c0, bool)
            first = np.zeros(c1 - c0, np.int64)
            # ascending row panels: the first panel that hits a column
            # holds that column's smallest qualifying j
            for r0 in range(0, c1, B):
                r1 = min(r0 + B, c1)
                sim = mat[r0:r1] @ mat[c0:c1].T
                if r1 > c0:  # diagonal panel: keep j < i only
                    jj = np.arange(r0, r1)[:, None]
                    ii = np.arange(c0, c1)[None, :]
                    sim = np.where(jj < ii, sim, -np.inf)
                hit = sim >= tau
                new = hit.any(axis=0) & ~found
                if new.any():
                    first[new] = r0 + hit[:, new].argmax(axis=0)
                    found |= new
                if found.all():
                    break
            dropped[c0:c1] = found
            rep[c0:c1] = first
        # resolve representatives transitively to SURVIVING rows:
        # rep[i] < i, so pointer-following terminates at a kept row
        idx = np.flatnonzero(dropped)
        tgt = rep[idx]
        while True:
            bad = dropped[tgt]
            if not bad.any():
                break
            tgt[bad] = rep[tgt[bad]]
        n_dups = np.zeros(m, np.int64)
        np.add.at(n_dups, tgt, 1)
        keep = ~dropped
        return pd.DataFrame({"vec_id": ids[keep], "n_dups": n_dups[keep]})

    out = assigned.groupby("cluster").map_groups(cluster_dedup, batch_format="pandas")

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vec_id": batch.column("vec_id").cast(pa.int64()),
                "n_dups": batch.column("n_dups").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["semdedup"] = """
        SELECT CAST(vec_id AS BIGINT) AS vec_id, CAST(1 AS BIGINT) AS n_dups
        FROM embeddings
    """


def q_embedding_neardup(
    sf_dir: str,
    threshold: float = 0.92,
    n_tables: int = 8,
    n_planes: int = 8,
    hot_cap: int = 4096,
    plant: bool = False,
):
    """ORACLE-CHECKED near-duplicate embedding pairs: banded
    multi-table random-hyperplane LSH (``n_tables`` independent
    tables of ``n_planes`` bits — P[miss] ~ (1-(1-θ/π)^b)^T, ≈4% at
    cosine 0.92) with per-bucket all-pairs capped at ``hot_cap``
    members (larger buckets star-link to preserve components), then
    EXACT cosine verify ≥ threshold.  The DuckDB twin is the
    quadratic cosine join — the driver's synthetic embeddings have
    max pairwise cosine ~0.51, so both sides return the verified
    empty set; any spurious engine pair breaks the hash."""
    import pandas as pd
    import ray

    rng = np.random.default_rng(31415926)
    planes = rng.normal(size=(n_tables, n_planes, 64))
    planes_ref = ray.put(planes)

    ds = _read(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    if plant:
        # non-vacuous variant: union with a scaled copy of every
        # vector (id + 1e9, embedding * 2) — cosine exactly 1.0, so
        # every planted pair MUST survive both LSH (identical sign
        # pattern => identical bucket in every table) and the exact
        # verify; SQL twin plants the same rows via list_transform
        def plant_rows(b: pa.Table) -> pa.Table:
            ids = b.column("vec_id").cast(pa.int64()).to_numpy()
            mat = (
                b.column("embedding")
                .combine_chunks()
                .flatten()
                .to_numpy(zero_copy_only=False)
                .reshape(len(b), -1)
                .astype(np.float64)
            )
            d = mat.shape[1]
            both = np.concatenate([mat, mat * 2.0])
            ids2 = np.concatenate([ids, ids + 1_000_000_000])
            return pa.table(
                {
                    "vec_id": pa.array(ids2, pa.int64()),
                    "embedding": pa.FixedSizeListArray.from_arrays(
                        pa.array(both.ravel(), pa.float64()), d
                    ),
                }
            )

        ds = ds.map_batches(plant_rows, batch_format="pyarrow")

    class Bucket:
        def __init__(self):
            self.planes = ray.get(planes_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = (
                batch.column("embedding")
                .combine_chunks()
                .flatten()
                .to_numpy(zero_copy_only=False)
                .reshape(len(batch), -1)
                .astype(np.float64)
            )
            ids = batch.column("vec_id").to_numpy().astype(np.int64)
            out_id, out_key = [], []
            for t in range(self.planes.shape[0]):
                bits = (mat @ self.planes[t].T) > 0
                key = (bits.astype(np.int64) * (1 << np.arange(bits.shape[1]))).sum(axis=1)
                out_id.append(ids)
                out_key.append(key + (t << 40))
            return pa.table(
                {
                    "vec_id": pa.array(np.concatenate(out_id), pa.int64()),
                    "bucket": pa.array(np.concatenate(out_key), pa.int64()),
                }
            )

    from gdal_boots_ray.stages.textstages import attach_pair_columns, band_pairs

    cand = band_pairs(
        ds.map_batches(Bucket, batch_format="pyarrow", concurrency=(1, 4)),
        key="bucket",
        id_col="vec_id",
        out=("vec_a", "vec_b"),
        hot_cap=hot_cap,
    ).select_columns(["vec_a", "vec_b"])

    def to_vec_rows(b: pa.Table) -> pa.Table:
        # tensor-extension -> plain list<float64> so the attach join's
        # typed nulls can concat with it
        return pa.table(
            {
                "doc_id": b.column("vec_id").cast(pa.int64()),
                "v": pa.array(b.column("embedding").to_pylist(), pa.list_(pa.float64())),
            }
        )

    vecs = ds.map_batches(to_vec_rows, batch_format="pyarrow")
    withvec = attach_pair_columns(
        cand, vecs, key_a="vec_a", key_b="vec_b", out_a="vec_va", out_b="vec_vb", val_col="v"
    )

    def verify(batch: pa.Table) -> pa.Table:
        va = batch.column("vec_a").cast(pa.int64()).to_numpy()
        vb = batch.column("vec_b").cast(pa.int64()).to_numpy()
        ea = batch.column("vec_va").to_pylist()
        eb = batch.column("vec_vb").to_pylist()
        out_a, out_b, out_s = [], [], []
        for i in range(len(va)):
            x = np.asarray(ea[i], np.float64)
            y = np.asarray(eb[i], np.float64)
            sim = float(x @ y / max(np.linalg.norm(x) * np.linalg.norm(y), 1e-12))
            if sim >= threshold:
                out_a.append(int(va[i]))
                out_b.append(int(vb[i]))
                out_s.append(round(sim, 4))
        return pa.table(
            {
                "vec_a": pa.array(out_a, pa.int64()),
                "vec_b": pa.array(out_b, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    out = withvec.map_batches(verify, batch_format="pyarrow").to_pandas()
    if out.empty:  # schema-stable empty result for the driver
        out = pd.DataFrame(
            {
                "vec_a": pd.Series([], dtype=np.int64),
                "vec_b": pd.Series([], dtype=np.int64),
                "sim": pd.Series([], dtype=np.float64),
            }
        )
    return out


ORACLE_SQL["embedding_neardup"] = """
        SELECT CAST(a.vec_id AS BIGINT) AS vec_a, CAST(b.vec_id AS BIGINT) AS vec_b,
               round(CAST(list_cosine_similarity(a.embedding, b.embedding) AS DOUBLE), 4) AS sim
        FROM embeddings a, embeddings b
        WHERE a.vec_id < b.vec_id
          AND list_cosine_similarity(a.embedding, b.embedding) >= 0.92
    """


ORACLE_SQL["embedding_neardup_planted"] = """
        WITH allv AS (
            SELECT CAST(vec_id AS BIGINT) AS vec_id, embedding::DOUBLE[] AS embedding
            FROM embeddings
            UNION ALL
            SELECT CAST(vec_id + 1000000000 AS BIGINT),
                   list_transform(embedding::DOUBLE[], x -> x * 2.0)
            FROM embeddings
        )
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
               round(CAST(list_cosine_similarity(a.embedding, b.embedding) AS DOUBLE), 4) AS sim
        FROM allv a, allv b
        WHERE a.vec_id < b.vec_id
          AND list_cosine_similarity(a.embedding, b.embedding) >= 0.92
    """
