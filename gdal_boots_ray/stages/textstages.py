"""Text / dedup / similarity Ray stages over the ``documents`` and
``embeddings`` tables — the training-data-pipeline operator family
(exact dedup, MinHash-LSH, SimHash, prefix-filter Jaccard, the shared
LSH pair generator and pair payload attach).

All stages are actor classes (regex/state compiled once per actor)
returning Arrow tables.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa

from gdal_boots_ray.kernels.text import MinHasher, simhash64


class HashDocuments:
    """Append md5 content hash (matches DuckDB md5(text))."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        hashes = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
        return batch.append_column("h", pa.array(hashes, pa.string()))


class MinHashStage:
    """doc -> LSH band rows (doc_id, band_key).  Groupby(band_key)
    downstream yields near-dup candidate buckets."""

    def __init__(self, num_perm: int = 64, bands: int = 16, ngram: int = 5):
        self.mh = MinHasher(num_perm=num_perm, ngram=ngram)
        self.bands = bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_numpy()
        out_ids: List[int] = []
        out_keys: List[int] = []
        for i, t in enumerate(texts):
            sig = self.mh.signature(t)
            for key in self.mh.band_keys(sig, self.bands):
                out_ids.append(int(ids[i]))
                out_keys.append(key)
        return pa.table({"doc_id": pa.array(out_ids, pa.int64()), "band_key": pa.array(out_keys, pa.int64())})


_MD5MH_M = 2147483647  # 2^31 - 1: products stay < 2^62 (BIGINT-safe in SQL)
_MD5MH_MIX = 2654435761  # Knuth multiplicative constant for the band key


def md5_minhash_params(num_perm: int = 64, seed: int = 31415926):
    """Deterministic permutation params shared by the engine stage and
    the DuckDB oracle (embedded as a VALUES list)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MD5MH_M, size=num_perm, dtype=np.int64)
    b = rng.integers(0, _MD5MH_M, size=num_perm, dtype=np.int64)
    return a, b


class MD5MinHashStage:
    """Oracle-replayable MinHash bands: shingle hash = high 8 bytes of
    md5 (the simhash precedent — DuckDB replays it verbatim as
    CAST('0x' || substring(md5(s),1,16) AS UBIGINT)), permutations are
    (a*h + b) mod 2^31-1 so both numpy and SQL stay in exact 64-bit
    integer arithmetic.  Slower than MinHashStage's rolling hash —
    use that for production pipelines; this one exists so the LSH
    band construction itself is hash-checked against SQL."""

    def __init__(self, num_perm: int = 64, bands: int = 32, ngram: int = 5, seed: int = 31415926):
        a, b = md5_minhash_params(num_perm, seed)
        self.a = a.astype(np.uint64)
        self.b = b.astype(np.uint64)
        self.bands = bands
        self.rows = num_perm // bands
        assert self.rows == 2, "band key mix is defined for 2 rows per band"
        self.ngram = ngram
        # per-ACTOR shingle->hash cache: natural-language 5-grams
        # repeat massively across documents, so md5 cost amortizes to
        # near zero after warmup (bounded; stage is in an actor pool)
        self._cache: dict = {}

    def _shingle_hashes(self, text: str) -> np.ndarray:
        import hashlib as _hashlib

        t = " ".join(text.lower().split())
        n = self.ngram
        shingles = {t[i : i + n] for i in range(len(t) - n + 1)}
        hs = np.empty(len(shingles), np.uint64)
        cache = self._cache
        bounded = len(cache) < 4_000_000
        for j, s in enumerate(shingles):
            v = cache.get(s)
            if v is None:
                v = int(_hashlib.md5(s.encode()).hexdigest()[:16], 16) % _MD5MH_M
                if bounded:
                    cache[s] = v
            hs[j] = v
        return hs

    def band_keys(self, text: str) -> np.ndarray:
        hs = self._shingle_hashes(text)
        if not len(hs):
            return np.empty(0, np.int64)
        sigs = (self.a[:, None] * hs[None, :] + self.b[:, None]) % np.uint64(_MD5MH_M)
        sig = sigs.min(axis=1)
        key = (sig[0::2] * np.uint64(_MD5MH_MIX) + sig[1::2]) % np.uint64(1 << 31)
        return (key + (np.arange(self.bands, dtype=np.uint64) << np.uint64(32))).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_numpy()
        # batch-vectorized signatures: one (perms x total-shingles)
        # modmul + segmented min (reduceat) instead of per-doc matmuls
        per_doc = [self._shingle_hashes(t) for t in texts]
        keep = [i for i, h in enumerate(per_doc) if len(h)]
        if not keep:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "band_key": pa.array([], pa.int64())}
            )
        hs = np.concatenate([per_doc[i] for i in keep])
        counts = np.array([len(per_doc[i]) for i in keep], np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        vals = (self.a[:, None] * hs[None, :] + self.b[:, None]) % np.uint64(_MD5MH_M)
        sig = np.minimum.reduceat(vals, starts, axis=1)  # (perms, ndocs)
        key = (sig[0::2] * np.uint64(_MD5MH_MIX) + sig[1::2]) % np.uint64(1 << 31)
        key = key + (np.arange(self.bands, dtype=np.uint64) << np.uint64(32))[:, None]
        doc_ids = np.repeat(ids[keep].astype(np.int64), self.bands)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "band_key": pa.array(key.T.ravel().astype(np.int64), pa.int64()),
            }
        )


class PrefixShingleStage:
    """doc -> prefix-filter rows ``(sh, doc_id, sz)`` for the EXACT
    n-gram Jaccard self-join (prefix filtering / AllPairs, Bayardo,
    Ma & Srikant, "Scaling Up All Pairs Similarity Search", WWW'07).

    Shingles are hashed to full 64-bit md5 prefixes and sorted — the
    hash value is the global token order.  For threshold ``t`` a doc
    with ``n`` distinct shingles emits only its first
    ``n - ceil(t*n) + 1`` sorted hashes: any pair with Jaccard >= t
    MUST share a token inside both prefixes, so blocking on prefix
    tokens has recall exactly 1 (unlike MinHash-LSH's probabilistic
    recall).  64-bit hashing makes a cross-shingle collision (~1e-11
    per corpus) the only approximation, and a collision can only ADD
    a candidate — the exact verify downstream removes it."""

    def __init__(self, threshold: float = 0.6, ngram: int = 5):
        self.t = float(threshold)
        self.ngram = ngram
        # per-actor shingle->hash cache, same rationale as MD5MinHashStage
        self._cache: dict = {}

    def _sorted_hashes(self, text: str) -> np.ndarray:
        t = " ".join(text.lower().split())
        n = self.ngram
        shingles = {t[i : i + n] for i in range(len(t) - n + 1)}
        hs = np.empty(len(shingles), np.uint64)
        cache = self._cache
        bounded = len(cache) < 4_000_000
        for j, s in enumerate(shingles):
            v = cache.get(s)
            if v is None:
                v = int(hashlib.md5(s.encode()).hexdigest()[:16], 16)
                if bounded:
                    cache[s] = v
            hs[j] = v
        hs.sort()
        return hs

    def __call__(self, batch: pa.Table) -> pa.Table:
        import math

        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        out_sh: List[np.ndarray] = []
        out_id: List[np.ndarray] = []
        out_sz: List[np.ndarray] = []
        for i, text in enumerate(texts):
            hs = self._sorted_hashes(text)
            n = len(hs)
            if n == 0:
                continue
            plen = n - math.ceil(self.t * n) + 1
            out_sh.append(hs[:plen])
            out_id.append(np.full(plen, ids[i], np.int64))
            out_sz.append(np.full(plen, n, np.int64))
        if not out_sh:
            return pa.table(
                {
                    "sh": pa.array([], pa.uint64()),
                    "doc_id": pa.array([], pa.int64()),
                    "sz": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "sh": pa.array(np.concatenate(out_sh), pa.uint64()),
                "doc_id": pa.array(np.concatenate(out_id), pa.int64()),
                "sz": pa.array(np.concatenate(out_sz), pa.int64()),
            }
        )


def prefix_jaccard_candidate_pairs(
    docs_ds,
    threshold: float = 0.6,
    ngram: int = 5,
    hot_cap: Optional[int] = None,
):
    """EXACT-recall near-dup candidate pairs (doc_a < doc_b, n_bands =
    shared prefix tokens) for n-gram Jaccard >= ``threshold``:
    prefix-token blocking (PrefixShingleStage) -> :func:`band_pairs`
    on the token hash, with the exact length filter (J >= t implies
    min(sz) >= t * max(sz)) as its pair filter.  No all-pairs stage
    anywhere; the shuffle is the LSH path's one-wave exchange.
    ``hot_cap`` defaults to off (recall must stay 1 for the oracle);
    production corpora with boilerplate-heavy prefixes can lower it
    to star-link hot tokens at a documented recall cost."""
    rows = docs_ds.map_batches(
        PrefixShingleStage,
        batch_format="pyarrow",
        fn_constructor_kwargs={"threshold": threshold, "ngram": ngram},
        concurrency=(1, 8),
    )

    def size_bound(t: pa.Table, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sz = t.column("sz").to_numpy().astype(np.float64)
        return np.minimum(sz[a], sz[b]) >= threshold * np.maximum(sz[a], sz[b]) - 1e-9

    return band_pairs(rows, key="sh", hot_cap=hot_cap, pair_filter=size_bound)


class SimHashStage:
    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return batch.append_column("simhash", pa.array([simhash64(t) for t in texts], pa.int64()))


def exact_dedup(docs_ds):
    """Exact dedup: hash -> bucketed min/count per hash -> keep min
    doc_id.  Column names match the SQL oracle: h, keep_id, n_dups.

    Uses the partial-per-batch + bucketed-final combine: a bare
    ``groupby(h)`` sort-reduces one group per DISTINCT TEXT — at 10^9
    documents that is ~10^9 tiny groups, the per-group overhead trap
    the agg layer exists to avoid."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    hashed = docs_ds.map_batches(HashDocuments, batch_format="pyarrow", concurrency=(1, 4))

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "h": batch.column("h"),
                "keep_id": batch.column("doc_id").cast(pa.int64()),
            }
        )

    return bucketed_aggregate(
        hashed.map_batches(rename, batch_format="pyarrow"),
        ["h"],
        {"keep_id": "min", "n_dups": "count"},
    )


def minhash_candidate_pairs(
    docs_ds,
    num_perm: int = 64,
    bands: int = 16,
    hot_cap: int = 4096,
):
    """Near-dup candidate pairs via LSH buckets: rows (doc_a, doc_b)
    with doc_a < doc_b appearing in >= 1 shared band bucket.

    Band buckets larger than ``hot_cap`` docs (boilerplate text
    colliding into one signature) degrade from all-pairs (B^2/2
    fan-out) to star-linking against the minimum doc id — the
    connected component survives for clustering while the emitted
    pair count is capped at B-1 per hot bucket.
    """
    band_rows = docs_ds.map_batches(
        MinHashStage,
        batch_format="pyarrow",
        fn_constructor_kwargs={"num_perm": num_perm, "bands": bands},
        concurrency=(1, 8),
    )
    return band_pairs(band_rows, hot_cap=hot_cap)


def band_pairs(
    rows,
    key: str = "band_key",
    id_col: str = "doc_id",
    out: Sequence[str] = ("doc_a", "doc_b"),
    hot_cap: Optional[int] = None,
    pair_filter=None,
):
    """(id, key) rows -> deduped pairs ``out`` (a < b) of ids sharing a
    key, with ``n_bands`` = the number of keys they share: the tail of
    every blocking family (MinHash, md5-MinHash, hyperplane, SimHash
    and phash bands, prefix tokens, fingerprints).  One
    :func:`exchange` on ``key`` runs :func:`run_pairs` per partition; a
    bucketed count then dedups pairs that share several keys.  A
    partition holds about 1/P of the rows (P = the cluster's CPUs), so
    a call's sort and output grow with the corpus; the candidate pairs
    are generated about 2M at a time whatever the partition size."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate, exchange

    cand = exchange(rows, [key], lambda g: run_pairs(g, key, id_col, out, hot_cap, pair_filter))
    return bucketed_aggregate(cand, list(out), {"n_bands": "count"})


def run_pairs(g: pa.Table, key: str, id_col: str, out: Sequence[str], hot_cap=None, pair_filter=None) -> pa.Table:
    """:func:`band_pairs`' bucket body.  One sort by (key, id) drops
    repeated (key, id) rows and lays out every run of one key; every
    id pair of every run is emitted (about 2M pairs at a time).  A run
    longer than ``hot_cap`` ids (boilerplate colliding into one key)
    is star-linked to its min id instead: B-1 pairs rather than B^2/2,
    and the connected component survives.  ``pair_filter(t, a, b)``
    gets the bucket's sorted rows ``t`` and the row positions of each
    candidate pair and returns the pairs to keep; star links bypass
    it."""
    from gdal_boots_ray.stages.agg import concat_ranges, key_runs, pair_chunks

    kv = g.column(key).to_numpy()
    did = g.column(id_col).to_numpy().astype(np.int64)
    order = np.lexsort((did, kv))
    kv, did = kv[order], did[order]
    first = np.ones(len(kv), bool)
    first[1:] = (kv[1:] != kv[:-1]) | (did[1:] != did[:-1])
    kv, did, order = kv[first], did[first], order[first]
    t = g.take(pa.array(order, pa.int64())) if pair_filter is not None else None
    starts, lens = key_runs(kv)
    # partners of a row: every later row of its run; in a hot run only
    # the first row has partners (the rest of the run)
    is_hot = lens > hot_cap if hot_cap is not None else np.zeros(len(lens), bool)
    hot = np.repeat(is_hot, lens)
    cnt = np.repeat(starts + lens, lens) - np.arange(len(kv)) - 1
    cnt[hot] = 0
    cnt[starts[is_hot]] = lens[is_hot] - 1
    out_a, out_b = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for lo, hi in pair_chunks(cnt):
        c = cnt[lo:hi]
        a = np.repeat(np.arange(lo, hi), c)
        b = a + 1 + concat_ranges(c)
        if pair_filter is not None:
            m = hot[a] | pair_filter(t, a, b)
            a, b = a[m], b[m]
        out_a.append(did[a])
        out_b.append(did[b])
    return pa.table(
        {
            out[0]: pa.array(np.concatenate(out_a), pa.int64()),
            out[1]: pa.array(np.concatenate(out_b), pa.int64()),
        }
    )


def attach_pair_columns(
    pairs_ds,
    docs_ds,
    key_a: str = "doc_a",
    key_b: str = "doc_b",
    out_a: str = "text_a",
    out_b: str = "text_b",
    val_col: str = "text",
):
    """Fused BOTH-ENDS payload attach for (key_a, key_b) pair rows: the
    document table crosses the wire ONCE, not once per end, and the
    first end's payload is never re-shipped through a second join.

    Exchange 1 keys on the doc id: every pair explodes to two probes
    (k=end, a, b, side) unioned with the tagged docs (k=doc_id,
    payload); each partition binary-searches its local docs once and
    emits (a, b, side, payload).  Exchange 2 keys on the pair and
    zips side 0/1 into (out_a, out_b).  Inner semantics: a pair
    missing either end is dropped, and a pair duplicated k times
    upstream is emitted k times (both exactly as the chained joins
    would; doc ids must be unique in ``docs_ds``)."""
    from gdal_boots_ray.stages.agg import exchange

    try:
        vt = docs_ds.schema().base_schema.field(val_col).type
    except Exception:
        vt = pa.string()

    def probes(batch: pa.Table) -> pa.Table:
        a = batch.column(key_a).cast(pa.int64())
        b = batch.column(key_b).cast(pa.int64())
        n = batch.num_rows
        a_np = a.to_numpy()
        b_np = b.to_numpy()
        return pa.table(
            {
                "k": pa.array(np.concatenate([a_np, b_np]), pa.int64()),
                "a": pa.array(np.concatenate([a_np, a_np]), pa.int64()),
                "b": pa.array(np.concatenate([b_np, b_np]), pa.int64()),
                "side": pa.array(
                    np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)])
                ),
                "val": pa.nulls(2 * n, vt),
            }
        )

    def doc_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "k": batch.column("doc_id").cast(pa.int64()),
                "a": pa.nulls(n, pa.int64()),
                "b": pa.nulls(n, pa.int64()),
                "side": pa.array(np.full(n, -1, np.int8)),
                "val": batch.column(val_col),
            }
        )

    sides = [
        pairs_ds.map_batches(probes, batch_format="pyarrow"),
        docs_ds.map_batches(doc_rows, batch_format="pyarrow"),
    ]

    def fetch(g: pa.Table) -> pa.Table:
        side = g.column("side").to_numpy()
        k = g.column("k").to_numpy()
        didx = np.flatnonzero(side < 0)
        pidx = np.flatnonzero(side >= 0)
        empty = pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "side": pa.array([], pa.int8()),
                "val": pa.nulls(0, vt),
            }
        )
        if not len(didx) or not len(pidx):
            return empty
        order = np.argsort(k[didx], kind="mergesort")
        dks = k[didx][order]
        pos = np.searchsorted(dks, k[pidx])
        ok = (pos < len(dks)) & (dks[np.minimum(pos, len(dks) - 1)] == k[pidx])
        rows = pidx[ok]
        drows = didx[order[pos[ok]]]
        t = g.take(pa.array(rows, pa.int64()))
        return pa.table(
            {
                "a": t.column("a"),
                "b": t.column("b"),
                "side": t.column("side"),
                "val": g.column("val").take(pa.array(drows, pa.int64())),
            }
        )

    fetched = exchange(sides, ["k"], fetch)

    def zip_pair(g: pa.Table) -> pa.Table:
        a = g.column("a").to_numpy()
        b = g.column("b").to_numpy()
        side = g.column("side").to_numpy()
        n = len(a)
        if not n:
            return pa.table(
                {
                    key_a: pa.array([], pa.int64()),
                    key_b: pa.array([], pa.int64()),
                    out_a: pa.nulls(0, vt),
                    out_b: pa.nulls(0, vt),
                }
            )
        order = np.lexsort((side, b, a))
        As, Bs, Ss = a[order], b[order], side[order]
        starts = np.flatnonzero(np.r_[True, (As[1:] != As[:-1]) | (Bs[1:] != Bs[:-1])])
        runlen = np.diff(np.r_[starts, n])
        # Inner-join multiplicity: a (key_a, key_b) pair duplicated k
        # times upstream contributes k side-0 and k side-1 rows when
        # both docs resolve; the chained-join semantics this replaces
        # emit the pair k times (doc ids are unique in docs_ds), so
        # repeat each both-sides run min(c0, c1) = k times, zipping
        # the run's first side-0 row with its first side-1 row (all
        # copies carry identical payloads).
        c0 = np.add.reduceat((Ss == 0).astype(np.int64), starts)
        c1 = runlen - c0
        good = (c0 > 0) & (c1 > 0)
        rep = np.minimum(c0[good], c1[good])
        s0 = np.repeat(starts[good], rep)
        s1 = np.repeat(starts[good] + c0[good], rep)
        val = g.column("val")
        return pa.table(
            {
                key_a: pa.array(As[s0], pa.int64()),
                key_b: pa.array(Bs[s0], pa.int64()),
                out_a: val.take(pa.array(order[s0], pa.int64())),
                out_b: val.take(pa.array(order[s1], pa.int64())),
            }
        )

    return exchange(fetched, ["a", "b"], zip_pair)
