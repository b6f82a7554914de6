"""Text / dedup / similarity Ray stages over the ``documents`` and
``embeddings`` tables — the training-data-pipeline operator family
(exact dedup, MinHash-LSH, SimHash, language-ID, quality, token
counts, fingerprints).

All stages are actor classes (regex/state compiled once per actor)
returning Arrow tables.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

import numpy as np
import pyarrow as pa

from gdal_boots_ray.kernels.text import (
    MinHasher,
    lang_id,
    quality_features,
    quality_score,
    rolling_fingerprints,
    simhash64,
    token_count_bpe,
    token_count_ws,
)


class HashDocuments:
    """Append md5 content hash (matches DuckDB md5(text))."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        hashes = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
        return batch.append_column("h", pa.array(hashes, pa.string()))


class TextFeatures:
    """Language id + quality + token counts per document."""

    def __init__(self):
        # state (regexes, stopword sets) is compiled at import inside
        # kernels.text; instantiate per actor anyway for symmetry
        pass

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        langs, scores, qs, nws, nbpe = [], [], [], [], []
        for t in texts:
            lg, sc = lang_id(t)
            langs.append(lg)
            scores.append(sc)
            qs.append(quality_score(t))
            nws.append(token_count_ws(t))
            nbpe.append(token_count_bpe(t))
        batch = batch.append_column("lang_pred", pa.array(langs, pa.string()))
        batch = batch.append_column("lang_score", pa.array(scores, pa.float64()))
        batch = batch.append_column("quality", pa.array(qs, pa.float64()))
        batch = batch.append_column("n_tokens_ws", pa.array(nws, pa.int64()))
        batch = batch.append_column("n_tokens_bpe", pa.array(nbpe, pa.int64()))
        return batch


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
    n_docs: Optional[int] = None,
    rows_per_bucket: int = 512,
    hot_cap: int = 1 << 40,
):
    """EXACT-recall near-dup candidate pairs for n-gram Jaccard >=
    ``threshold``: prefix-token blocking (PrefixShingleStage) ->
    bucketed shuffle on the token hash -> vectorized per-token pair
    generation with the exact length filter (J >= t implies
    min(sz) >= t * max(sz)) -> bucketed pair dedup.  No all-pairs
    stage anywhere; the shuffle fan-out is count-scaled like the LSH
    path.  ``hot_cap`` defaults to off (recall must stay 1 for the
    oracle); production corpora with boilerplate-heavy prefixes can
    lower it to star-link hot tokens at a documented recall cost."""
    import pandas as pd

    if n_docs is None:
        n_docs = docs_ds.count()

    rows = docs_ds.map_batches(
        PrefixShingleStage,
        batch_format="pyarrow",
        fn_constructor_kwargs={"threshold": threshold, "ngram": ngram},
        concurrency=(1, 8),
    )
    # avg prefix ~ (1-t) * shingles-per-doc; 64 is a conservative
    # stand-in so the bucket count scales with corpus size
    n_buckets = max(32, (int(n_docs) * 64) // max(rows_per_bucket, 1))

    def pairs(g: pa.Table) -> pa.Table:
        # lexsort-run replacement for the per-shingle pandas groupby
        sh = g.column("sh").to_numpy()
        did = g.column("doc_id").to_numpy()
        szs = g.column("sz").to_numpy().astype(np.float64)
        order = np.lexsort((did, sh))
        sh, did, szs = sh[order], did[order], szs[order]
        keep_row = np.r_[True, (sh[1:] != sh[:-1]) | (did[1:] != did[:-1])]
        sh, did, szs = sh[keep_row], did[keep_row], szs[keep_row]
        starts = np.flatnonzero(np.r_[True, sh[1:] != sh[:-1]])
        ends = np.r_[starts[1:], len(sh)]
        out_a: list = []
        out_b: list = []
        t = threshold
        for s, e in zip(starts, ends):
            ids = did[s:e]
            if len(ids) < 2:
                continue
            sz = szs[s:e]
            if len(ids) > hot_cap:
                out_a.append(np.full(len(ids) - 1, ids[0], np.int64))
                out_b.append(ids[1:])
                continue
            a, b = np.triu_indices(len(ids), k=1)
            keep = np.minimum(sz[a], sz[b]) >= t * np.maximum(sz[a], sz[b]) - 1e-9
            out_a.append(ids[a[keep]])
            out_b.append(ids[b[keep]])
        if not out_a:
            return pa.table(
                {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(out_a).astype(np.int64), pa.int64()),
                "doc_b": pa.array(np.concatenate(out_b).astype(np.int64), pa.int64()),
            }
        )

    from gdal_boots_ray.stages.agg import bucketed_aggregate, exchange

    cand = exchange(rows, ["sh"], pairs, n_buckets)
    out = bucketed_aggregate(cand, ["doc_a", "doc_b"], {"n_tokens_shared": "count"})
    return out.select_columns(["doc_a", "doc_b", "n_tokens_shared"])


class SimHashStage:
    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return batch.append_column("simhash", pa.array([simhash64(t) for t in texts], pa.int64()))


class FingerprintStage:
    def __init__(self, window: int = 16, keep: int = 4):
        self.window = window
        self.keep = keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        fps = [rolling_fingerprints(t, self.window, self.keep) for t in texts]
        return batch.append_column("fingerprints", pa.array(fps, pa.list_(pa.uint64())))


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
    n_docs: Optional[int] = None,
    rows_per_bucket: int = 512,
    hot_cap: int = 4096,
):
    """Near-dup candidate pairs via LSH buckets: rows (doc_a, doc_b)
    with doc_a < doc_b appearing in >= 1 shared band bucket.

    Scale controls:

    - the shuffle fan-out is sized from the input cardinality
      (``n_buckets = max(32, n_docs*bands / rows_per_bucket)``) —
      pass ``n_docs`` (parquet metadata is free) or it is counted.
      Bucket count grows with the data instead of a fixed 32.
    - band buckets larger than ``hot_cap`` docs (boilerplate text
      colliding into one signature) degrade from all-pairs (B^2/2
      fan-out) to star-linking against the minimum doc id — the
      connected component survives for clustering while the emitted
      pair count is capped at B-1 per hot bucket.
    """
    if n_docs is None:
        n_docs = docs_ds.count()

    band_rows = docs_ds.map_batches(
        MinHashStage,
        batch_format="pyarrow",
        fn_constructor_kwargs={"num_perm": num_perm, "bands": bands},
        concurrency=(1, 8),
    )
    return band_pairs_from_rows(
        band_rows, int(n_docs), bands, rows_per_bucket=rows_per_bucket, hot_cap=hot_cap
    )


def band_pairs_from_rows(
    band_rows,
    n_docs: int,
    bands: int,
    rows_per_bucket: int = 512,
    hot_cap: int = 4096,
):
    """(doc_id, band_key) rows -> deduped candidate pairs (doc_a <
    doc_b, n_bands).  Shared tail of every LSH family (minhash, md5
    minhash, hyperplane): count-scaled bucket shuffle, vectorized
    per-bucket pair generation, hot-bucket star-linking, bucketed
    pair dedup."""
    import pandas as pd

    n_buckets = max(32, (int(n_docs) * bands) // max(rows_per_bucket, 1))

    # coarse-bucket band keys so the shuffle runs over a bounded group
    # count; pair generation inside each bucket iterates its actual
    # band buckets vectorized (a per-band-key map_groups pays Ray's
    # per-group overhead once per distinct signature)
    def pairs(g: pa.Table) -> pa.Table:
        # one lexsort replaces the per-band-key pandas groupby: band
        # runs are contiguous slices, doc ids deduped + ascending
        # within each run by construction of the sort
        bk = g.column("band_key").to_numpy()
        did = g.column("doc_id").to_numpy()
        order = np.lexsort((did, bk))
        bk, did = bk[order], did[order]
        keep = np.r_[True, (bk[1:] != bk[:-1]) | (did[1:] != did[:-1])]
        bk, did = bk[keep], did[keep]
        starts = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]])
        ends = np.r_[starts[1:], len(bk)]
        out_a: list = []
        out_b: list = []
        for s, e in zip(starts, ends):
            ids = did[s:e]
            if len(ids) < 2:
                continue
            if len(ids) > hot_cap:
                out_a.append(np.full(len(ids) - 1, ids[0], np.int64))
                out_b.append(ids[1:])
                continue
            a, b = np.triu_indices(len(ids), k=1)
            out_a.append(ids[a])
            out_b.append(ids[b])
        if not out_a:
            return pa.table(
                {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(out_a).astype(np.int64), pa.int64()),
                "doc_b": pa.array(np.concatenate(out_b).astype(np.int64), pa.int64()),
            }
        )

    from gdal_boots_ray.stages.agg import bucketed_aggregate, exchange

    cand = exchange(band_rows, ["band_key"], pairs, n_buckets)
    # dedup pairs colliding in multiple bands: partial->bucketed final
    # count (a bare multi-key groupby.aggregate sort-reduces per tiny
    # group and is ~10x slower here)
    out = bucketed_aggregate(cand, ["doc_a", "doc_b"], {"n_bands": "count"})
    return out.select_columns(["doc_a", "doc_b", "n_bands"])


def attach_pair_columns(
    pairs_ds,
    docs_ds,
    key_a: str = "doc_a",
    key_b: str = "doc_b",
    out_a: str = "text_a",
    out_b: str = "text_b",
    val_col: str = "text",
    n_buckets: Optional[int] = None,
):
    """Fused BOTH-ENDS payload attach for (key_a, key_b) pair rows —
    replaces the two sequential ``attach_doc_column`` joins, so the
    document table crosses the wire ONCE instead of twice and the
    first end's payload is never re-shipped through the second join.

    Exchange 1 keys on the doc id: every pair explodes to two probes
    (k=end, a, b, side) unioned with the tagged docs (k=doc_id,
    payload); each bucket binary-searches its local docs once and
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

    fetched = exchange(sides, ["k"], fetch, n_buckets)

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

    return exchange(fetched, ["a", "b"], zip_pair, n_buckets)


def attach_doc_column(
    pairs_ds, docs_ds, key_col: str, out_col: str, val_col: str = "text", pair_cols=None
):
    """Shuffle join: attach ``docs_ds[val_col]`` to each pair row whose
    ``key_col`` equals the doc_id — both sides stream (no broadcast of
    the document table).  Built on the generic bucketed
    ``stages.joins.hash_join``, so the shuffle fan-out is a bounded
    bucket count (scales with the cluster) instead of one group per
    doc id — the per-tiny-group overhead trap at 10^9 documents.
    Pair rows with no matching doc are dropped (inner)."""
    from gdal_boots_ray.stages.joins import hash_join

    if pair_cols is None:
        schema = pairs_ds.schema()
        if schema is None:
            raise ValueError(
                "pairs dataset schema unknown (fully empty upstream) — pass "
                "pair_cols=[...] explicitly"
            )
        pair_cols = [c for c in schema.names if c != key_col]
    else:
        pair_cols = [c for c in pair_cols if c != key_col]

    def docs_proj(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: batch.column("doc_id").cast(pa.int64()),
                out_col: batch.column(val_col),
            }
        )

    right = docs_ds.map_batches(docs_proj, batch_format="pyarrow")
    return hash_join(pairs_ds, right, on=key_col, left_cols=pair_cols, right_cols=[out_col])
