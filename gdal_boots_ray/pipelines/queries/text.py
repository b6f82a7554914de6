"""Text queries over ``documents``: tokens, quantiles, keyword scores,
language id, quality signals and near-duplicate detection."""

from __future__ import annotations

import re
from typing import Dict, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from gdal_boots_ray.stages.agg import exchange, key_runs

from ._common import _read, _round_half_away


ORACLE_SQL: Dict[str, str] = {}


# every document split into its lower-case words (kernels/text._WORD_RE)
_WORDS_CTE = """words AS (
            SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        )"""


def q_dedup_exact(sf_dir: str):
    from gdal_boots_ray.stages.textstages import exact_dedup

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = exact_dedup(docs)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "h": batch.column("h"),
                "keep_id": batch.column("keep_id").cast(pa.int64()),
                "n_dups": batch.column("n_dups").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["dedup_exact"] = """
        SELECT md5(text) AS h, CAST(min(doc_id) AS BIGINT) AS keep_id, CAST(count(*) AS BIGINT) AS n_dups
        FROM documents GROUP BY 1
    """


def q_text_tokens(sf_dir: str):
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_tokens_ws": pa.array([len(t.split()) for t in texts], pa.int64()),
                "n_chars_txt": pa.array([len(t) for t in texts], pa.int64()),
            }
        )

    return docs.map_batches(toks, batch_format="pyarrow")


ORACLE_SQL["text_tokens"] = """
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
            CAST(CASE WHEN trim(text) = '' THEN 0
                 ELSE len(string_split_regex(trim(text), '\\s+')) END AS BIGINT) AS n_tokens_ws,
            CAST(length(text) AS BIGINT) AS n_chars_txt
        FROM documents
    """


def q_cms_sketch(sf_dir: str, depth: int = 4, width: int = 1024):
    """Count-Min sketch of the corpus token stream (the mergeable
    heavy-hitter structure): 4 rows x 1024 buckets, token buckets from
    md5 hex slices (the md5-twin recipe minhash_pairs established).
    The OUTPUT IS THE SKETCH TABLE itself — entrywise sums are
    commutative, so the result is deterministic under any merge order
    and any partitioning, which is exactly the property that makes
    CMS the scale-path frequency structure.  Per-batch partials are
    depth x width bounded (16 KB of int64 per task), combined by one
    bucketed sum; token md5s are cached per batch (word-soup corpora
    repeat heavily)."""
    import hashlib

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        texts = batch.column("text").to_pylist()
        wc = Counter()
        for t in texts:
            wc.update(t.split())
        counts = np.zeros(depth * width, np.int64)
        for w, k in wc.items():  # one md5 per DISTINCT word
            hx = hashlib.md5(w.encode()).hexdigest()
            for j in range(depth):
                counts[j * width + int(hx[j * 8 : (j + 1) * 8], 16) % width] += k
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "row_id": pa.array(nz // width, pa.int64()),
                "bucket": pa.array(nz % width, pa.int64()),
                "cnt": pa.array(counts[nz], pa.int64()),
            }
        )

    parts = docs.map_batches(partial, batch_format="pyarrow")
    return bucketed_aggregate(parts, ["row_id", "bucket"], {"cnt": "sum"})


ORACLE_SQL["cms_sketch"] = """
        WITH toks AS (
            SELECT unnest(string_split_regex(trim(text), '\\s+')) AS w
            FROM documents WHERE trim(text) <> ''
        ),
        cells AS (
            SELECT j.j AS row_id,
                   CAST(CAST('0x' || substring(md5(w), j.j * 8 + 1, 8) AS UBIGINT) % 1024 AS BIGINT) AS bucket
            FROM toks, LATERAL (SELECT unnest([0, 1, 2, 3]) AS j) j
        )
        SELECT CAST(row_id AS BIGINT) AS row_id, bucket, CAST(count(*) AS BIGINT) AS cnt
        FROM cells GROUP BY 1, 2
    """


def q_doc_chunks(sf_dir: str, window: int = 64, stride: int = 48):
    """RAG-style document chunking: every doc splits into overlapping
    token windows (64 tokens, stride 48 — the retrieval-index prep
    step), one output row per chunk with its token count and the sum
    of its token LENGTHS (an integer signature that pins the exact
    window boundaries).  Chunk starts at 0, stride, 2*stride, ...
    while < n_tokens, so the count is ceil(n/stride) and tails may be
    short — the rule the twin replays with list slicing.  Pure
    flat-map; chunks inherit the doc's partition, no shuffle."""
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def chunks(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        out_id, out_c, out_n, out_len = [], [], [], []
        for i, t in enumerate(texts):
            toks = t.split()
            n = len(toks)
            if n == 0:
                continue
            lens = np.fromiter((len(x) for x in toks), np.int64, n)
            cum = np.concatenate([[0], np.cumsum(lens)])
            c = 0
            for s in range(0, n, stride):
                e = min(s + window, n)
                out_id.append(int(ids[i]))
                out_c.append(c)
                out_n.append(e - s)
                out_len.append(int(cum[e] - cum[s]))
                c += 1
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "chunk_id": pa.array(out_c, pa.int64()),
                "n_tok": pa.array(out_n, pa.int64()),
                "sum_len": pa.array(out_len, pa.int64()),
            }
        )

    return docs.map_batches(chunks, batch_format="pyarrow")


ORACLE_SQL["doc_chunks"] = """
        WITH toks AS (
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   string_split_regex(trim(text), '\\s+') AS tl,
                   len(string_split_regex(trim(text), '\\s+')) AS n
            FROM documents
            WHERE trim(text) <> ''
        )
        SELECT doc_id,
               CAST(g.c AS BIGINT) AS chunk_id,
               CAST(least(g.c * 48 + 64, n) - g.c * 48 AS BIGINT) AS n_tok,
               CAST(list_sum(list_transform(
                   tl[g.c * 48 + 1 : least(g.c * 48 + 64, n)],
                   x -> length(x))) AS BIGINT) AS sum_len
        FROM toks,
             LATERAL (SELECT unnest(generate_series(
                 0, CAST(ceil(n / 48.0) AS INT) - 1)) AS c) g
    """


def q_line_dedup(sf_dir: str, chunk_tokens: int = 8):
    """Corpus-level EXACT chunk ("line") deduplication — the
    C4/RefinedWeb repeated-span removal step: every doc splits into
    consecutive 8-token chunks, and each distinct chunk string is kept
    only at its FIRST occurrence corpus-wide (first = smallest
    (doc_id, chunk_idx), the deterministic scan order).  Output per
    doc: total chunks, chunks kept, and the character mass kept — the
    integer signature of which spans survived.

    Scale shape: chunks flat-map out of the docs carrying only their
    own text span; ONE bucketed shuffle keyed on the chunk string
    co-locates duplicates (bounded fan-out via ``stages.agg.exchange``,
    never a per-chunk groupby); each partition resolves keep-first with
    np.unique + a packed (doc_id, idx) min, emits per-doc count
    partials, and a second bounded shuffle sums them per doc.  No
    stage ever holds more than its partition; duplicate-heavy (skewed)
    chunks cost one group pass, not a cross join."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        out_chunk, out_doc, out_ci, out_len = [], [], [], []
        for i, t in enumerate(texts):
            # EXACT DuckDB mirror: trim() strips SPACES only and RE2's
            # \s is the ASCII class [\t\n\f\r ] — Python's str.strip()
            # / \s are Unicode-wide and would shift chunk boundaries on
            # non-space leading whitespace
            t = t.strip(" ")
            toks = re.split(r"[\t\n\f\r ]+", t) if t else []
            if not toks:
                continue
            n_chunks_doc = (len(toks) + chunk_tokens - 1) // chunk_tokens
            if n_chunks_doc >= (1 << 20) or int(ids[i]) >= (1 << 43):
                raise ValueError(
                    "line_dedup packing bound exceeded: chunk index needs "
                    "< 2^20 and doc_id < 2^43 for the (doc_id, ci) min"
                )
            for c in range(0, n_chunks_doc):
                s = " ".join(toks[c * chunk_tokens : (c + 1) * chunk_tokens])
                out_chunk.append(s)
                out_doc.append(int(ids[i]))
                out_ci.append(c)
                out_len.append(len(s))
        return pa.table(
            {
                "chunk": pa.array(out_chunk, pa.string()),
                "doc_id": pa.array(out_doc, pa.int64()),
                "ci": pa.array(out_ci, pa.int64()),
                "clen": pa.array(out_len, pa.int64()),
            }
        )

    def keep_first(g: pa.Table) -> pa.Table:
        chunk = np.asarray(g.column("chunk").to_pylist(), dtype=object)
        doc = g.column("doc_id").to_numpy()
        ci = g.column("ci").to_numpy()
        clen = g.column("clen").to_numpy()
        _, inv = np.unique(chunk, return_inverse=True)
        packed = doc * (1 << 20) + ci
        first = np.full(inv.max() + 1, np.iinfo(np.int64).max)
        np.minimum.at(first, inv, packed)
        kept = packed == first[inv]
        udoc, dinv = np.unique(doc, return_inverse=True)
        n_chunks = np.bincount(dinv)
        n_kept = np.bincount(dinv, weights=kept).astype(np.int64)
        kept_chars = np.bincount(dinv, weights=np.where(kept, clen, 0)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(udoc, pa.int64()),
                "n_chunks": pa.array(n_chunks.astype(np.int64)),
                "n_kept": pa.array(n_kept),
                "kept_chars": pa.array(kept_chars),
            }
        )

    partials = exchange(docs.map_batches(explode, batch_format="pyarrow"), ["chunk"], keep_first)
    return bucketed_aggregate(
        partials,
        ["doc_id"],
        {"n_chunks": "sum", "n_kept": "sum", "kept_chars": "sum"},
    )


ORACLE_SQL["line_dedup"] = """
        WITH toks AS (
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   string_split_regex(trim(text), '\\s+') AS tl,
                   len(string_split_regex(trim(text), '\\s+')) AS n
            FROM documents
            WHERE trim(text) <> ''
        ),
        chunks AS (
            SELECT doc_id, CAST(g.c AS BIGINT) AS ci,
                   array_to_string(tl[g.c * 8 + 1 : least(g.c * 8 + 8, n)], ' ') AS chunk
            FROM toks,
                 LATERAL (SELECT unnest(generate_series(
                     0, CAST(ceil(n / 8.0) AS INT) - 1)) AS c) g
        ),
        ranked AS (
            SELECT doc_id, ci, length(chunk) AS clen,
                   doc_id * 1048576 + ci AS packed,
                   min(doc_id * 1048576 + ci) OVER (PARTITION BY chunk) AS first_packed
            FROM chunks
        )
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_chunks,
               CAST(count(*) FILTER (WHERE packed = first_packed) AS BIGINT) AS n_kept,
               CAST(coalesce(sum(clen) FILTER (WHERE packed = first_packed), 0) AS BIGINT) AS kept_chars
        FROM ranked GROUP BY doc_id
    """


def q_token_quantiles(sf_dir: str):
    """Exact distributed quantiles of per-doc whitespace token counts
    via the histogram plan (`exact_quantiles`): per-batch value-count
    partials -> bucketed count merge -> driver cumulative walk over
    distinct VALUES (bounded by the token-count domain, not rows).
    Oracle: DuckDB percentile_disc over the same SQL-replayed count."""

    from gdal_boots_ray.stages.agg import exact_quantiles

    docs = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def toks(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table({"n_tokens_ws": pa.array([len(t.split()) for t in texts], pa.int64())})

    out = exact_quantiles(
        docs.map_batches(toks, batch_format="pyarrow"),
        "n_tokens_ws",
        [0.25, 0.5, 0.75, 0.9, 0.99],
    )
    out["n_tokens_ws"] = out["n_tokens_ws"].astype("int64")
    return out


ORACLE_SQL["token_quantiles"] = """
        WITH t AS (
            SELECT CAST(CASE WHEN trim(text) = '' THEN 0
                 ELSE len(string_split_regex(trim(text), '\\s+')) END AS BIGINT) AS nt
            FROM documents
        )
        SELECT CAST(0.25 AS DOUBLE) AS q, CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY nt) AS BIGINT) AS n_tokens_ws FROM t
        UNION ALL
        SELECT CAST(0.5 AS DOUBLE), CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t
        UNION ALL
        SELECT CAST(0.75 AS DOUBLE), CAST(percentile_disc(0.75) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t
        UNION ALL
        SELECT CAST(0.9 AS DOUBLE), CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t
        UNION ALL
        SELECT CAST(0.99 AS DOUBLE), CAST(percentile_disc(0.99) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t
    """


def q_stratified_sample(sf_dir: str):
    """Deterministic per-language stratified sample of the documents
    table (downsample 'en' to 20%, 'de' to 50%, everything else
    kept): md5-hash membership so the sample is identical across
    retries/resumes/cluster sizes, replayed exactly by the DuckDB
    md5 twin."""

    from gdal_boots_ray.stages.sample import stratified_sample

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    out = stratified_sample(
        docs, "doc_id", "lang", {"en": 0.2, "de": 0.5}, default_rate=1.0
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch.column("doc_id").cast(pa.int64()), "lang": batch.column("lang")}
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["stratified_sample"] = """
        SELECT CAST(doc_id AS BIGINT) AS doc_id, lang
        FROM documents
        WHERE CAST('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 8) AS UBIGINT) % 10000
              < CASE lang WHEN 'en' THEN 2000 WHEN 'de' THEN 5000 ELSE 10000 END
    """


def q_top_terms(sf_dir: str, k: int = 10):
    """Corpus vocabulary analysis: top-k most frequent words per
    language.  Composition of three scale-safe pieces — tokenize
    inside map_batches (one (lang, word, n) partial row per distinct
    word per batch), bucketed count merge, then ``grouped_top_k`` —
    so the exchanges move word-count partials, never text."""
    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import bucketed_aggregate, grouped_top_k

    docs = _read(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def word_partials(batch: pd.DataFrame) -> pd.DataFrame:
        word_lists = [_WORD_RE.findall(t.lower()) for t in batch["text"]]
        lens = np.array([len(w) for w in word_lists])
        langs = np.repeat(batch["lang"].to_numpy(), lens)
        words = np.concatenate([np.asarray(w, dtype=object) for w in word_lists if w]) if lens.sum() else np.array([], dtype=object)
        df = pd.DataFrame({"lang": langs, "word": words})
        out = df.groupby(["lang", "word"], sort=False).size().rename("cnt").reset_index()
        return out

    counts = bucketed_aggregate(
        docs.map_batches(word_partials, batch_format="pandas"), ["lang", "word"], {"cnt": "sum"}
    )
    top = grouped_top_k(counts, ["lang"], "cnt", k, descending=True, tie_cols=["word"])

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "word": batch.column("word"),
                "cnt": batch.column("cnt").cast(pa.int64()),
            }
        )

    return top.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["top_terms"] = """
        WITH words AS (
            SELECT lang, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
            FROM documents
        ),
        c AS (
            SELECT lang, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY lang, w
        ),
        r AS (
            SELECT lang, w, cnt,
                   ROW_NUMBER() OVER (PARTITION BY lang ORDER BY cnt DESC, w) AS rn
            FROM c
        )
        SELECT lang, w AS word, cnt FROM r WHERE rn <= 10
    """


def q_token_quantiles_by_lang(sf_dir: str):
    """Per-language token-count quantiles — the distributed form of
    ``exact_quantiles`` where even the cumulative walk runs inside a
    groupby (driver only sees langs x quantiles result rows)."""

    from gdal_boots_ray.stages.agg import grouped_quantiles

    docs = _read(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def toks(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "lang": batch.column("lang"),
                "n_tokens_ws": pa.array([len(t.split()) for t in texts], pa.int64()),
            }
        )

    out = grouped_quantiles(
        docs.map_batches(toks, batch_format="pyarrow"), "lang", "n_tokens_ws", [0.25, 0.5, 0.9]
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "q": batch.column("q").cast(pa.float64()),
                "n_tokens_ws": batch.column("n_tokens_ws").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["token_quantiles_by_lang"] = """
        WITH t AS (
            SELECT lang,
                   CAST(CASE WHEN trim(text) = '' THEN 0
                        ELSE len(string_split_regex(trim(text), '\\s+')) END AS BIGINT) AS nt
            FROM documents
        )
        SELECT lang, CAST(0.25 AS DOUBLE) AS q,
               CAST(percentile_disc(0.25) WITHIN GROUP (ORDER BY nt) AS BIGINT) AS n_tokens_ws
        FROM t GROUP BY lang
        UNION ALL
        SELECT lang, CAST(0.5 AS DOUBLE),
               CAST(percentile_disc(0.5) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t GROUP BY lang
        UNION ALL
        SELECT lang, CAST(0.9 AS DOUBLE),
               CAST(percentile_disc(0.9) WITHIN GROUP (ORDER BY nt) AS BIGINT) FROM t GROUP BY lang
    """


def q_bigram_pmi(sf_dir: str, k: int = 20):
    """Collocation extraction: the top-k corpus bigrams with their
    pointwise mutual information (the classic new-term/phrase miner).
    Scale shape: bigram and unigram counts are separate tokenize
    passes into ``bucketed_aggregate`` (count rows shuffle, text
    doesn't), totals come from the aggregated tables, selection is a
    single-group ``grouped_top_k`` (integer-deterministic: cnt DESC,
    words ASC), and only the <= 2k winner words' unigram counts are
    looked up — the full vocabulary table never materializes."""
    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import bucketed_aggregate, grouped_top_k

    docs = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def bigram_partials(batch: pd.DataFrame) -> pd.DataFrame:
        w1l, w2l = [], []
        for t in batch["text"]:
            ws = _WORD_RE.findall(t.lower())
            if len(ws) > 1:
                w1l.extend(ws[:-1])
                w2l.extend(ws[1:])
        df = pd.DataFrame({"w1": w1l, "w2": w2l})
        return df.groupby(["w1", "w2"], sort=False).size().rename("cnt").reset_index()

    def unigram_partials(batch: pd.DataFrame) -> pd.DataFrame:
        ws = [w for t in batch["text"] for w in _WORD_RE.findall(t.lower())]
        df = pd.DataFrame({"word": ws})
        return df.groupby(["word"], sort=False).size().rename("cnt").reset_index()

    big = bucketed_aggregate(
        docs.map_batches(bigram_partials, batch_format="pandas"), ["w1", "w2"], {"cnt": "sum"}
    )
    uni = bucketed_aggregate(
        docs.map_batches(unigram_partials, batch_format="pandas"), ["word"], {"cnt": "sum"}
    )
    tb = float(big.sum("cnt"))
    tu = float(uni.sum("cnt"))

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["g"] = 0
        return batch

    top = grouped_top_k(
        big.map_batches(tag, batch_format="pandas"), ["g"], "cnt", k, descending=True, tie_cols=["w1", "w2"]
    ).to_pandas()

    words = sorted(set(top["w1"]) | set(top["w2"]))
    lookup = uni.map_batches(
        lambda ba: ba[ba["word"].isin(words)], batch_format="pandas"
    ).to_pandas()
    cmap = dict(zip(lookup["word"], lookup["cnt"].astype(float)))

    cab = top["cnt"].to_numpy(dtype=np.float64)
    ca = top["w1"].map(cmap).to_numpy(dtype=np.float64)
    cb = top["w2"].map(cmap).to_numpy(dtype=np.float64)
    pmi = np.log((cab / tb) / ((ca / tu) * (cb / tu)))
    return pd.DataFrame(
        {
            "w1": top["w1"],
            "w2": top["w2"],
            "cnt": top["cnt"].astype(np.int64),
            "pmi": np.round(pmi, 6),
        }
    )


ORACLE_SQL["bigram_pmi"] = """
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9'']+') AS ws
            FROM documents
        ),
        big AS (
            SELECT ws[i.i] AS w1, ws[i.i + 1] AS w2, CAST(count(*) AS BIGINT) AS cnt
            FROM toks,
                 LATERAL (SELECT unnest(generate_series(1, greatest(len(ws) - 1, 0))) AS i) i
            GROUP BY 1, 2
        ),
        uni AS (
            SELECT unnest(ws) AS word FROM toks
        ),
        uc AS (SELECT word, CAST(count(*) AS BIGINT) AS cnt FROM uni GROUP BY word),
        tb AS (SELECT CAST(sum(cnt) AS DOUBLE) AS t FROM big),
        tu AS (SELECT CAST(count(*) AS DOUBLE) AS t FROM uni),
        top AS (
            SELECT w1, w2, cnt,
                   ROW_NUMBER() OVER (ORDER BY cnt DESC, w1 ASC, w2 ASC) AS rn
            FROM big
        )
        SELECT top.w1, top.w2, top.cnt,
               round(ln((top.cnt / tb.t) / ((a.cnt / tu.t) * (b.cnt / tu.t))), 6) AS pmi
        FROM top
        JOIN uc a ON a.word = top.w1
        JOIN uc b ON b.word = top.w2, tb, tu
        WHERE top.rn <= 20
    """


def _doc_word_counts(batch):
    """Per-(doc, word) counts + doc length, computed in ONE pass inside
    the batch (a document is one row, so tf/doclen are exact without a
    combine; the (doc_id, word) rows are globally unique)."""
    from gdal_boots_ray.kernels.text import _WORD_RE

    wl = [_WORD_RE.findall(t.lower()) for t in batch["text"]]
    lens = np.array([len(w) for w in wl])
    ids = np.repeat(batch["doc_id"].to_numpy(), lens)
    words = (
        np.concatenate([np.asarray(w, dtype=object) for w in wl if w])
        if lens.sum()
        else np.array([], dtype=object)
    )
    df = pd.DataFrame({"doc_id": ids, "word": words})
    out = df.groupby(["doc_id", "word"], sort=False).size().rename("cnt").reset_index()
    out["doclen"] = out.groupby("doc_id", sort=False)["cnt"].transform("sum")
    return out


def q_doc_keywords(sf_dir: str):
    """Per-document TF-IDF keyword extraction — the classic corpus
    summarization step of a training-data pipeline.  Scale shape: one
    tokenize pass emits (doc_id, word, cnt, doclen) partials, document
    frequencies come from a ``bucketed_aggregate`` over those unique
    rows, the df side streams back via the bucketed ``hash_join`` (no
    broadcast of the vocabulary), and the winner per doc is a
    ``grouped_top_k`` — every exchange moves word-count rows, never
    text.  Selection is integer-deterministic (cnt DESC, df ASC, word
    ASC) so the float tf-idf is an output value, not a comparator."""
    import pyarrow.parquet as pq

    from gdal_boots_ray.stages.agg import bucketed_aggregate, grouped_top_k
    from gdal_boots_ray.stages.joins import hash_join

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # row count from parquet footers — no extra read pass
    n_docs = float(pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows)

    # the partials feed TWO consumers (df aggregate + join left side);
    # materializing them stops the lineage re-executing the tokenize
    # pass per branch.  Word-count rows are ~10x smaller than the
    # text they summarize, so pinning them (with object-store spill)
    # is the right trade at any scale.
    counts = docs.map_batches(_doc_word_counts, batch_format="pandas").materialize()
    dfreq = bucketed_aggregate(counts, ["word"], {"df": "count"})
    joined = hash_join(
        counts, dfreq, on="word", left_cols=["doc_id", "cnt", "doclen"], right_cols=["df"]
    )
    top = grouped_top_k(joined, ["doc_id"], "cnt", 1, descending=True, tie_cols=["df", "word"])

    def finish(batch: pa.Table) -> pa.Table:
        cnt = batch.column("cnt").to_numpy().astype(np.float64)
        doclen = batch.column("doclen").to_numpy().astype(np.float64)
        dfv = batch.column("df").to_numpy().astype(np.float64)
        tfidf = cnt / doclen * np.log(n_docs / dfv)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "word": batch.column("word").cast(pa.string()),
                "cnt": batch.column("cnt").cast(pa.int64()),
                "df": batch.column("df").cast(pa.int64()),
                "tfidf": pa.array(np.round(tfidf, 6), pa.float64()),
            }
        )

    return top.map_batches(finish, batch_format="pyarrow")


ORACLE_SQL["doc_keywords"] = f"""
        WITH {_WORDS_CTE},
        c AS (
            SELECT doc_id, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY doc_id, w
        ),
        dl AS (SELECT doc_id, sum(cnt) AS doclen FROM c GROUP BY doc_id),
        dfx AS (SELECT w, CAST(count(*) AS BIGINT) AS df FROM c GROUP BY w),
        r AS (
            SELECT c.doc_id, c.w, c.cnt, dfx.df, dl.doclen,
                   ROW_NUMBER() OVER (PARTITION BY c.doc_id
                                      ORDER BY c.cnt DESC, dfx.df ASC, c.w ASC) AS rn
            FROM c JOIN dfx ON c.w = dfx.w JOIN dl ON c.doc_id = dl.doc_id
        )
        SELECT doc_id, w AS word, cnt, df,
               round(CAST(cnt AS DOUBLE) / doclen
                     * ln(CAST((SELECT count(*) FROM documents) AS DOUBLE) / df), 6) AS tfidf
        FROM r WHERE rn = 1
    """


_BM25_TERMS = ("spark", "window", "merge")


def q_bm25_scores(sf_dir: str, k1: float = 1.2, b: float = 0.75):
    """BM25 retrieval scoring of the corpus against a fixed query
    (Robertson/Sparck-Jones idf, the Okapi tf saturation) — the
    ranking primitive behind quality-targeted corpus selection.
    Scale shape: the tokenize pass keeps only query-term rows (tf +
    doclen per doc), corpus scalars (N, avgdl) are exact integer
    aggregates, per-term df is an output-sized aggregate broadcast in
    a closure, and the per-doc score is a ``bucketed_aggregate`` sum —
    the only shuffle moves (doc x matched-term) rows.  Row membership
    is integer-deterministic; the float score is output-only."""
    import pyarrow.parquet as pq

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n_docs = float(pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows)

    # three consumers (corpus token total, df aggregate, score pass)
    # share one tokenize — pin the word-count partials once
    counts = docs.map_batches(_doc_word_counts, batch_format="pandas").materialize()
    total_tokens = counts.map_batches(
        lambda ba: pd.DataFrame({"t": [int(ba["cnt"].sum())]}), batch_format="pandas"
    ).sum("t")
    avgdl = float(total_tokens) / n_docs

    qrows = counts.map_batches(
        lambda ba: ba[ba["word"].isin(_BM25_TERMS)], batch_format="pandas"
    )
    df_rows = bucketed_aggregate(qrows, ["word"], {"df": "count"}).to_pandas()
    df_map = dict(zip(df_rows["word"], df_rows["df"].astype(float)))

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        dfv = batch["word"].map(df_map).to_numpy(dtype=np.float64)
        cnt = batch["cnt"].to_numpy(dtype=np.float64)
        doclen = batch["doclen"].to_numpy(dtype=np.float64)
        idf = np.log((n_docs - dfv + 0.5) / (dfv + 0.5) + 1.0)
        score = idf * (cnt * (k1 + 1.0)) / (cnt + k1 * (1.0 - b + b * doclen / avgdl))
        return pd.DataFrame({"doc_id": batch["doc_id"], "score": score, "n_terms": 1})

    agg = bucketed_aggregate(
        qrows.map_batches(contrib, batch_format="pandas"),
        ["doc_id"],
        {"score": "sum", "n_terms": "sum"},
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_terms": batch.column("n_terms").cast(pa.int64()),
                "score": pc.round(batch.column("score").cast(pa.float64()), 6),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


ORACLE_SQL["bm25_scores"] = f"""
        WITH {_WORDS_CTE},
        c AS (
            SELECT doc_id, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY doc_id, w
        ),
        dl AS (SELECT doc_id, sum(cnt) AS doclen FROM c GROUP BY doc_id),
        scalars AS (
            SELECT CAST((SELECT count(*) FROM documents) AS DOUBLE) AS n,
                   CAST((SELECT sum(cnt) FROM c) AS DOUBLE)
                       / CAST((SELECT count(*) FROM documents) AS DOUBLE) AS avgdl
        ),
        q AS (
            SELECT w, CAST(count(*) AS BIGINT) AS df FROM c
            WHERE w IN ('spark', 'window', 'merge') GROUP BY w
        ),
        s AS (
            SELECT c.doc_id,
                   ln((scalars.n - q.df + 0.5) / (q.df + 0.5) + 1.0)
                     * (c.cnt * (1.2 + 1.0))
                     / (c.cnt + 1.2 * (1.0 - 0.75 + 0.75 * dl.doclen / scalars.avgdl)) AS contrib
            FROM c JOIN q ON c.w = q.w JOIN dl ON c.doc_id = dl.doc_id, scalars
        )
        SELECT doc_id, CAST(count(*) AS BIGINT) AS n_terms,
               round(sum(contrib), 6) AS score
        FROM s GROUP BY doc_id
    """


def q_doc_logprob(sf_dir: str):
    """Unigram language-model cross-entropy scoring (the CCNet-style
    LM quality filter): each document is scored by the mean token
    log-probability under the corpus's own unigram distribution.
    Scale shape: corpus term frequencies via ``bucketed_aggregate``
    over the unique (doc, word) count rows, streamed back with the
    bucketed ``hash_join``, per-doc reduction is another bucketed sum
    — text never re-shuffles, and the model "training" (the unigram
    table) and "inference" (scoring) are the same two exchanges."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.joins import hash_join

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # two consumers (unigram table + join left side) share the
    # tokenize pass — pin the word-count partials once
    counts = docs.map_batches(_doc_word_counts, batch_format="pandas").materialize()
    tf = bucketed_aggregate(counts, ["word"], {"cnt": "sum"}).map_batches(
        lambda ba: ba.rename(columns={"cnt": "tot"}), batch_format="pandas"
    )
    # total tokens from the (vocabulary-sized) unigram table — avoids
    # a second tokenize pass over the corpus
    total_tokens = float(tf.sum("tot"))

    joined = hash_join(counts, tf, on="word", left_cols=["doc_id", "cnt", "doclen"], right_cols=["tot"])

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        lp = np.log(batch["tot"].to_numpy(dtype=np.float64) / total_tokens)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "s": batch["cnt"].to_numpy(dtype=np.float64) * lp,
                "doclen": batch["cnt"].astype(np.int64),
            }
        )

    agg = bucketed_aggregate(
        joined.map_batches(contrib, batch_format="pandas"),
        ["doc_id"],
        {"s": "sum", "doclen": "sum"},
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy().astype(np.float64)
        dl = batch.column("doclen").to_numpy().astype(np.float64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "doclen": batch.column("doclen").cast(pa.int64()),
                "avg_logprob": pa.array(np.round(s / dl, 6), pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


ORACLE_SQL["doc_logprob"] = f"""
        WITH {_WORDS_CTE},
        c AS (
            SELECT doc_id, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY doc_id, w
        ),
        tf AS (SELECT w, CAST(sum(cnt) AS BIGINT) AS tot FROM c GROUP BY w),
        t AS (SELECT CAST(sum(cnt) AS DOUBLE) AS total FROM c),
        s AS (
            SELECT c.doc_id, c.cnt * ln(CAST(tf.tot AS DOUBLE) / t.total) AS contrib, c.cnt
            FROM c JOIN tf ON c.w = tf.w, t
        )
        SELECT doc_id, CAST(sum(cnt) AS BIGINT) AS doclen,
               round(sum(contrib) / sum(cnt), 6) AS avg_logprob
        FROM s GROUP BY doc_id
    """


def q_capped_sample(sf_dir: str, cap: int = 50):
    """Per-group capped downsampling (at most ``cap`` docs per
    language, chosen by md5 rank): deterministic across
    retries/resumes/cluster sizes AND order-free — the "cap per
    domain" step of a corpus pipeline, as grouped_top_k over the
    hash rank (partial top-k per batch, bucketed merge)."""
    import hashlib as _hashlib

    from gdal_boots_ray.stages.agg import grouped_top_k

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def rank(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        r = [_hashlib.md5(str(i).encode()).hexdigest() for i in ids]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang": batch.column("lang"),
                "r": pa.array(r, pa.string()),
            }
        )

    top = grouped_top_k(
        docs.map_batches(rank, batch_format="pyarrow"), ["lang"], "r", cap, descending=False
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch.column("doc_id").cast(pa.int64()), "lang": batch.column("lang")}
        )

    return top.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["capped_sample"] = """
        WITH r AS (
            SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
                   ROW_NUMBER() OVER (
                       PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR))
                   ) AS rn
            FROM documents
        )
        SELECT doc_id, lang FROM r WHERE rn <= 50
    """


_ALPHA_RE = re.compile(r"[^a-zA-Z]")


_DIGIT_RE = re.compile(r"[^0-9]")


def q_text_quality(sf_dir: str):
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def feats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ar, dr = [], []
        for t in texts:
            n = len(t)
            ar.append(_round_half_away(len(_ALPHA_RE.sub("", t)) / n, 6) if n else 0.0)
            dr.append(_round_half_away(len(_DIGIT_RE.sub("", t)) / n, 6) if n else 0.0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "alpha_ratio": pa.array(ar, pa.float64()),
                "digit_ratio": pa.array(dr, pa.float64()),
            }
        )

    return docs.map_batches(feats, batch_format="pyarrow")


ORACLE_SQL["text_quality"] = """
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
            CASE WHEN length(text) = 0 THEN 0.0
                 ELSE round(CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS DOUBLE)
                            / length(text), 6) END AS alpha_ratio,
            CASE WHEN length(text) = 0 THEN 0.0
                 ELSE round(CAST(length(regexp_replace(text, '[^0-9]', '', 'g')) AS DOUBLE)
                            / length(text), 6) END AS digit_ratio
        FROM documents
    """


# kernels/text.lang_id replayed: per document the stop-word hit rate of
# each language; lang_pred is the argmax (first language wins a tie),
# 'und' when no stop word hits
_LANG_PRED_CTE = """
        lang_words AS (
            SELECT DISTINCT doc_id, w FROM (
                SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w FROM documents
            )
        ),
        lang_hits AS (
            SELECT doc_id,
                sum(CASE WHEN w IN ('a', 'and', 'as', 'at', 'by', 'for', 'in', 'is', 'it', 'of', 'on', 'the', 'to', 'with') THEN 1 ELSE 0 END) / 14.0 AS s_en,
                sum(CASE WHEN w IN ('auf', 'das', 'der', 'die', 'ein', 'eine', 'ist', 'mit', 'und', 'von', 'zu') THEN 1 ELSE 0 END) / 11.0 AS s_de,
                sum(CASE WHEN w IN ('avec', 'dans', 'est', 'et', 'la', 'le', 'les', 'pour', 'sur', 'un', 'une') THEN 1 ELSE 0 END) / 11.0 AS s_fr,
                sum(CASE WHEN w IN ('con', 'el', 'en', 'es', 'la', 'las', 'los', 'para', 'por', 'un', 'una', 'y') THEN 1 ELSE 0 END) / 12.0 AS s_es
            FROM lang_words GROUP BY doc_id
        ),
        lang_scores AS (
            SELECT d.doc_id, coalesce(s_en,0) AS s_en, coalesce(s_de,0) AS s_de,
                   coalesce(s_fr,0) AS s_fr, coalesce(s_es,0) AS s_es
            FROM documents d LEFT JOIN lang_hits USING (doc_id)
        ),
        lang_preds AS (
            SELECT doc_id,
                CASE WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
                     WHEN s_en = greatest(s_en, s_de, s_fr, s_es) THEN 'en'
                     WHEN s_de = greatest(s_en, s_de, s_fr, s_es) THEN 'de'
                     WHEN s_fr = greatest(s_en, s_de, s_fr, s_es) THEN 'fr'
                     ELSE 'es' END AS lang_pred
            FROM lang_scores
        )"""


def q_lang_id(sf_dir: str):
    """Full text-features row per doc (label + prediction + quality
    score + BPE token count) — oracle-checked: the DuckDB twin
    replays the stopword-argmax, the quality-score formula (same
    factor order, so products are bit-identical) and the BPE regex."""

    from gdal_boots_ray.kernels.text import lang_id, quality_score, token_count_bpe

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def feats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang": batch.column("lang"),
                "lang_pred": pa.array([lang_id(t)[0] for t in texts], pa.string()),
                "quality": pa.array(
                    [_round_half_away(quality_score(t), 6) for t in texts], pa.float64()
                ),
                "n_tokens_bpe": pa.array([token_count_bpe(t) for t in texts], pa.int64()),
            }
        )

    return docs.map_batches(feats, batch_format="pyarrow")


ORACLE_SQL["lang_id"] = rf"""
        WITH f AS (
            SELECT doc_id,
                length(text) AS n_chars,
                CASE WHEN trim(text) = '' THEN 0 ELSE len(string_split_regex(trim(text), '\s+')) END AS n_words,
                length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS alpha,
                length(regexp_replace(text, '[^0-9]', '', 'g')) AS digit,
                length(text) - length(regexp_replace(text, '\s', '', 'g')) AS space,
                len(regexp_extract_all(text, '[a-zA-Z]+|[0-9]+|[^\sa-zA-Z0-9]')) AS n_tokens_bpe
            FROM documents
        ),
        toks AS (
            SELECT doc_id,
                sum(CASE WHEN trim(lower(w), '.,!?;:') IN ('the','and','of','a','to','in','is','it','for','on','with','as','at','by') THEN 1 ELSE 0 END) AS stop
            FROM (SELECT doc_id, unnest(string_split_regex(trim(text), '\s+')) AS w FROM documents WHERE trim(text) != '')
            GROUP BY doc_id
        ),
        q AS (
            SELECT f.doc_id, n_tokens_bpe,
                round((CASE WHEN n_words < 5 THEN 0.2 ELSE 1.0 END)
                    * least(1.0, (CASE WHEN n_chars = 0 THEN 0.0 ELSE CAST(alpha AS DOUBLE)/n_chars END) * 1.5)
                    * (1.0 - least(0.5, CASE WHEN n_chars = 0 THEN 0.0 ELSE CAST(n_chars - alpha - digit - space AS DOUBLE)/n_chars END))
                    * (0.5 + least(0.5, (CASE WHEN n_words = 0 THEN 0.0 ELSE CAST(coalesce(stop,0) AS DOUBLE)/n_words END) * 2)), 6) AS quality
            FROM f LEFT JOIN toks ON f.doc_id = toks.doc_id
        ),
        {_LANG_PRED_CTE}
        SELECT CAST(d.doc_id AS BIGINT) AS doc_id, d.lang, lp.lang_pred, q.quality, q.n_tokens_bpe
        FROM documents d JOIN lang_preds lp ON d.doc_id = lp.doc_id JOIN q ON d.doc_id = q.doc_id
    """


def q_lang_id_pred(sf_dir: str):
    """Language-ID predictions only — oracle-checked (the stopword
    hit-rate argmax is SQL-expressible; first-lang-wins tie rule
    emulated with the ordered CASE chain)."""

    from gdal_boots_ray.kernels.text import lang_id

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pred(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang_pred": pa.array([lang_id(t)[0] for t in texts], pa.string()),
            }
        )

    return docs.map_batches(pred, batch_format="pyarrow")


ORACLE_SQL["lang_id_pred"] = f"""
        WITH {_LANG_PRED_CTE}
        SELECT CAST(doc_id AS BIGINT) AS doc_id, lang_pred FROM lang_preds
    """


def q_domain_mix(sf_dir: str):
    """Deterministic domain-balancing sampler — the data-MIXING stage
    of a training pipeline (downsample over-represented languages to
    the smallest language's count, in expectation): pass 1 predicts
    the language per doc (the oracle-checked stopword argmax) and
    reduces PER-LANGUAGE counts (a handful of rows — the only
    driver-side materialization); pass 2 keeps a doc iff
    ``md5(doc_id) ppm < floor(min_count * 1e6 / count_lang)`` — a
    deterministic integer-ppm hash gate, so the sample is
    reproducible row-for-row, resumable, and SQL-replayable (no RNG).
    ``und`` docs are dropped (unknown domain).  At 100 TB this is two
    streaming passes with one tiny aggregate between them; the
    broadcast is a <=5-entry dict."""
    import hashlib as _hashlib

    from gdal_boots_ray.kernels.text import lang_id
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pred(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang_pred": pa.array([lang_id(t)[0] for t in texts], pa.string()),
            }
        )

    langs = docs.map_batches(pred, batch_format="pyarrow")
    counts = bucketed_aggregate(langs, ["lang_pred"], {"n": "count"}).to_pandas()
    counts = counts[counts["lang_pred"] != "und"]
    min_cnt = int(counts["n"].min())
    thresh = {
        r.lang_pred: (min_cnt * 1_000_000) // int(r.n) for r in counts.itertuples(index=False)
    }

    def sample(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        lp = batch.column("lang_pred").to_pylist()
        keep = np.zeros(len(ids), bool)
        for i, (d, l) in enumerate(zip(ids, lp)):
            t = thresh.get(l)
            if t is None:
                continue
            ppm = int(_hashlib.md5(str(int(d)).encode()).hexdigest()[:8], 16) % 1_000_000
            keep[i] = ppm < t
        return batch.filter(pa.array(keep))

    return langs.map_batches(sample, batch_format="pyarrow")


ORACLE_SQL["domain_mix"] = f"""
        WITH {_LANG_PRED_CTE},
        known AS (SELECT CAST(doc_id AS BIGINT) AS doc_id, lang_pred FROM lang_preds WHERE lang_pred != 'und'),
        cnts AS (SELECT lang_pred, count(*) AS n FROM known GROUP BY 1),
        mn AS (SELECT min(n) AS m FROM cnts),
        th AS (SELECT lang_pred, CAST((m * 1000000) // n AS BIGINT) AS t FROM cnts, mn)
        SELECT k.doc_id, k.lang_pred
        FROM known k JOIN th USING (lang_pred)
        WHERE CAST(CAST('0x' || substring(md5(CAST(k.doc_id AS VARCHAR)), 1, 8) AS UBIGINT) % 1000000 AS BIGINT) < t
    """


def q_minhash_pairs(sf_dir: str, doc_cap: int = 1500):
    """ORACLE-CHECKED MinHash-LSH band construction: md5-based shingle
    hash + mod-(2^31-1) permutations (exact 64-bit integer arithmetic
    on both sides), 32 bands x 2 rows, pairs = docs sharing >= 1 band
    bucket with the shared-band count.  The DuckDB twin replays the
    ENTIRE construction — shingling, md5 hash, permutations, band
    keys, pair join — so the LSH machinery itself is hash-checked
    (the production rolling-hash MinHash is exercised by
    minhash_neardup whose oracle is the exact quadratic Jaccard).
    hot_cap is unset so star-linking (a physical-plan skew control,
    not SQL-expressible) can't perturb the set; doc_id <
    ``doc_cap`` bounds the quadratic twin (and this construction
    check) at larger SFs — the full-corpus production path is
    minhash_neardup / corpus_clean."""
    from gdal_boots_ray.stages.textstages import MD5MinHashStage, band_pairs

    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )
    band_rows = docs.map_batches(
        MD5MinHashStage,
        batch_format="pyarrow",
        fn_constructor_kwargs={"num_perm": 64, "bands": 32},
        concurrency=(1, 8),
    )
    out = band_pairs(band_rows)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_a": batch.column("doc_a").cast(pa.int64()),
                "doc_b": batch.column("doc_b").cast(pa.int64()),
                "n_bands": batch.column("n_bands").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


def _shingle_set(text: str, n: int = 5):
    """Whitespace-normalized lowercase character n-grams — EXACTLY the
    normalization MinHasher hashes, and SQL-expressible (substring over
    regexp_replace(lower(trim(text)), '\\s+', ' ', 'g'))."""
    t = " ".join(text.lower().split())
    return {t[i : i + n] for i in range(len(t) - n + 1)}


def _jaccard_pairs_sql(threshold: float) -> str:
    """Twin of the shingle near-duplicate queries: every doc pair whose
    exact 5-char-shingle Jaccard reaches ``threshold``."""
    return f"""
        WITH norm AS (
            SELECT doc_id, regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS t
            FROM documents
        ),
        sh AS (
            SELECT doc_id,
                   list(DISTINCT substring(t, i.i, 5)) AS s,
                   count(DISTINCT substring(t, i.i, 5)) AS n
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 4, 0))) AS i) i
            GROUP BY doc_id
        ),
        pairs AS (
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(len(list_intersect(a.s, b.s)) AS DOUBLE) AS inter,
                   CAST(a.n + b.n - len(list_intersect(a.s, b.s)) AS DOUBLE) AS uni
            FROM sh a, sh b
            WHERE a.doc_id < b.doc_id
        )
        SELECT doc_a, doc_b, round(inter / uni, 6) AS jac
        FROM pairs WHERE inter / uni >= {threshold}
    """


def q_minhash_neardup(sf_dir: str, threshold: float = 0.5):
    """VERIFIED near-duplicate pairs: MinHash-LSH candidates (32 bands
    x 2 rows over 64 perms — P[miss] < 1e-6 at jaccard 0.5) followed
    by an EXACT 5-gram Jaccard >= 0.5 verify; the oracle is the
    quadratic DuckDB twin, so this hash-checks the whole LSH+verify
    construction end to end.  Candidate generation is one exchange
    (one reduce wave); texts are attached to candidate
    pairs with two streaming shuffle joins (no document broadcast)."""
    from gdal_boots_ray.stages.textstages import attach_pair_columns, minhash_candidate_pairs

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    cand = minhash_candidate_pairs(docs, num_perm=64, bands=32).select_columns(
        ["doc_a", "doc_b"]
    )
    withtext = attach_pair_columns(cand, docs)
    return _exact_jaccard_verify(withtext, threshold)


ORACLE_SQL["minhash_neardup"] = _jaccard_pairs_sql(0.5)


def _exact_jaccard_verify(withtext_ds, threshold: float):
    """Shared verify tail of every near-dup candidate generator:
    exact 5-gram Jaccard >= threshold over attached pair texts ->
    (doc_a, doc_b, jac) rows.  A per-batch {doc_id: shingle_set}
    cache shingles each doc ONCE however many candidate pairs it
    appears in (verify cost is output-sized; hub docs in m pairs
    previously paid m re-shingles)."""

    def verify(batch: pa.Table) -> pa.Table:
        da = batch.column("doc_a").to_numpy().astype(np.int64)
        db = batch.column("doc_b").to_numpy().astype(np.int64)
        ta = batch.column("text_a").to_pylist()
        tb = batch.column("text_b").to_pylist()
        cache: dict = {}

        def _sh(doc_id: int, text: str):
            s = cache.get(doc_id)
            if s is None:
                s = cache[doc_id] = _shingle_set(text)
            return s

        out_a, out_b, out_j = [], [], []
        for i in range(len(da)):
            sa = _sh(int(da[i]), ta[i])
            sb = _sh(int(db[i]), tb[i])
            union = len(sa | sb)
            jac = len(sa & sb) / union if union else 0.0
            if jac >= threshold:
                out_a.append(int(da[i]))
                out_b.append(int(db[i]))
                out_j.append(_round_half_away(jac, 6))
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jac": pa.array(out_j, pa.float64()),
            }
        )

    return withtext_ds.map_batches(verify, batch_format="pyarrow")


def q_jaccard_neardup(sf_dir: str, threshold: float = 0.6):
    """EXACT n-gram Jaccard near-duplicate pairs (jac >= 0.6) via
    prefix filtering (AllPairs, Bayardo et al. WWW'07): each doc
    emits only its first ``n - ceil(t*n) + 1`` hash-sorted 5-gram
    shingles; any pair at Jaccard >= t provably shares a prefix
    token, so the blocking has recall EXACTLY 1 — this is the
    deterministic sibling of minhash_neardup (P[miss] < 1e-6).
    Candidates shuffle through one exchange with the exact
    length filter (min(sz) >= t*max(sz)); texts attach via streaming
    shuffle joins; the exact Jaccard verify makes precision 1.  The
    oracle is the quadratic DuckDB shingle-Jaccard twin at the same
    threshold, so recall=1 of the prefix blocking is hash-checked
    end to end."""
    from gdal_boots_ray.stages.textstages import (
        attach_pair_columns,
        prefix_jaccard_candidate_pairs,
    )

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    cand = prefix_jaccard_candidate_pairs(docs, threshold=threshold).select_columns(
        ["doc_a", "doc_b"]
    )
    withtext = attach_pair_columns(cand, docs)
    return _exact_jaccard_verify(withtext, threshold)


ORACLE_SQL["jaccard_neardup"] = _jaccard_pairs_sql(0.6)


def q_corpus_clean(
    sf_dir: str,
    min_tokens: int = 5,
    jac_threshold: float = 0.5,
    checkpoint_dir: Optional[str] = None,
):
    """END-TO-END training-corpus cleaning pipeline, one streaming
    composition of the verified pieces: language-ID + token-count
    filter (stateless map) -> exact dedup (md5 co-shuffle, min doc_id
    survives) -> MinHash-LSH near-dup detection with exact-Jaccard
    verify (one-wave bucket shuffle) -> ANTI join dropping every
    verified near-duplicate's doc_b.  The DuckDB twin replays the
    entire chain (stopword argmax, QUALIFY dedup, quadratic shingle
    Jaccard, NOT EXISTS), so the whole pipeline is hash-checked —
    the corpus a 100 TB text job would actually ship."""
    import hashlib as _hashlib

    from gdal_boots_ray.kernels.text import lang_id
    from gdal_boots_ray.stages.joins import hash_join
    from gdal_boots_ray.stages.textstages import attach_pair_columns, minhash_candidate_pairs

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def feat_filter(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        langs = [lang_id(t)[0] for t in texts]
        ntok = np.array([len(t.split()) for t in texts], dtype=np.int64)
        keep = np.array([l != "und" for l in langs]) & (ntok >= min_tokens)
        hs = [_hashlib.md5(t.encode()).hexdigest() for t in texts]
        out = pa.table(
            {
                "doc_id": pa.array(ids),
                "text": batch.column("text"),
                "lang_pred": pa.array(langs, pa.string()),
                "n_tokens_ws": pa.array(ntok),
                "h": pa.array(hs, pa.string()),
            }
        )
        return out.filter(pa.array(keep))

    filtered = docs.map_batches(feat_filter, batch_format="pyarrow")

    # exact dedup, bucketed: hash buckets bound the shuffle fan-out
    # and the min-per-h reduce is vectorized per BUCKET (thousands of
    # h groups each), never per tiny h group (the per-group pandas
    # overhead trap at 10^9 distinct texts)
    def keep_min_per_hash(g: pa.Table) -> pa.Table:
        # rows in doc_id order, then the first occurrence of each hash
        # is the min-doc_id survivor (np.unique returns first indices)
        did = g.column("doc_id").to_numpy()
        order = np.argsort(did, kind="mergesort")
        h = g.column("h").to_numpy(zero_copy_only=False)[order]
        _, first = np.unique(h, return_index=True)
        rows = order[np.sort(first)]
        return g.take(pa.array(rows, pa.int64()))

    unique = exchange(filtered, ["h"], keep_min_per_hash)

    # checkpoint the cleaned-survivor set once: three downstream
    # consumers (LSH, two text attaches, anti join) would otherwise
    # re-execute the whole filter+dedup lineage per consumption —
    # at corpus scale that is 4 extra reads of the input.  Parquet
    # checkpoint = bounded by disk, resumable, partition-parallel.
    #
    # The checkpoint path must be CLUSTER-SHARED (every node reads
    # it back): callers pass an explicit dir under the job's output
    # root, or set GDAL_BOOTS_RAY_CKPT to the shared scratch root.
    # Publication is atomic (write to .tmp, rename), so a finished
    # checkpoint is the resume unit: a rerun with the same params
    # skips the whole filter+dedup lineage and streams from parquet.
    import atexit
    import os
    import shutil

    if checkpoint_dir is None:
        root = os.environ.get("GDAL_BOOTS_RAY_CKPT", "/tmp/gdal_boots_ray_ckpt")
        sf_tag = os.path.basename(os.path.normpath(sf_dir))
        checkpoint_dir = os.path.join(root, f"corpus_unique_{sf_tag}_mt{min_tokens}")
        # default-owned cache: drop it at interpreter exit so repeated
        # gate runs don't leak one parquet dir per invocation
        atexit.register(shutil.rmtree, checkpoint_dir, True)
    if not os.path.isdir(checkpoint_dir):
        tmp = checkpoint_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        unique.write_parquet(tmp)
        os.makedirs(os.path.dirname(checkpoint_dir), exist_ok=True)
        os.rename(tmp, checkpoint_dir)  # atomic publish = completion marker
    unique = _read(checkpoint_dir)

    cand = minhash_candidate_pairs(unique, num_perm=64, bands=32).select_columns(["doc_a", "doc_b"])
    withtext = attach_pair_columns(cand, unique)

    def verify_drop(batch: pa.Table) -> pa.Table:
        db = batch.column("doc_b").to_numpy().astype(np.int64)
        ta = batch.column("text_a").to_pylist()
        tb = batch.column("text_b").to_pylist()
        out = []
        for i in range(len(db)):
            sa = _shingle_set(ta[i])
            sb = _shingle_set(tb[i])
            union = len(sa | sb)
            if union and len(sa & sb) / union >= jac_threshold:
                out.append(int(db[i]))
        return pa.table({"doc_id": pa.array(out, pa.int64())})

    drops = withtext.map_batches(verify_drop, batch_format="pyarrow")

    clean = hash_join(
        unique,
        drops,
        on="doc_id",
        left_cols=["lang_pred", "n_tokens_ws"],
        right_cols=[],
        how="anti",
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "lang_pred": batch.column("lang_pred").cast(pa.string()),
                "n_tokens_ws": batch.column("n_tokens_ws").cast(pa.int64()),
            }
        )

    return clean.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["corpus_clean"] = f"""
        WITH {_LANG_PRED_CTE},
        f AS (
            SELECT d.doc_id, d.text, lp.lang_pred,
                   CAST(CASE WHEN trim(d.text) = '' THEN 0
                        ELSE len(string_split_regex(trim(d.text), '\\s+')) END AS BIGINT) AS n_tokens_ws
            FROM documents d JOIN lang_preds lp USING (doc_id)
            WHERE lp.lang_pred != 'und'
              AND (CASE WHEN trim(d.text) = '' THEN 0
                   ELSE len(string_split_regex(trim(d.text), '\\s+')) END) >= 5
        ),
        u AS (
            SELECT * FROM f QUALIFY doc_id = min(doc_id) OVER (PARTITION BY md5(text))
        ),
        norm AS (SELECT doc_id, regexp_replace(lower(trim(text)), '\\s+', ' ', 'g') AS t FROM u),
        shg AS (
            SELECT doc_id,
                   list(DISTINCT substring(t, i.i, 5)) AS s,
                   count(DISTINCT substring(t, i.i, 5)) AS n
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 4, 0))) AS i) i
            GROUP BY doc_id
        ),
        drops AS (
            SELECT b.doc_id AS doc_b
            FROM shg a, shg b
            WHERE a.doc_id < b.doc_id
              AND CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
                  / (a.n + b.n - len(list_intersect(a.s, b.s))) >= 0.5
        )
        SELECT CAST(u.doc_id AS BIGINT) AS doc_id, u.lang_pred, u.n_tokens_ws
        FROM u WHERE NOT EXISTS (SELECT 1 FROM drops p WHERE p.doc_b = u.doc_id)
    """


def q_simhash(sf_dir: str):
    """Rows-only: 64-bit SimHash per document."""

    from gdal_boots_ray.stages.textstages import SimHashStage

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(SimHashStage, batch_format="pyarrow", concurrency=(1, 4))
    return out.select_columns(["doc_id", "simhash"])


def q_simhash_neardup(sf_dir: str, max_hamming: int = 3):
    """Near-duplicate documents by SimHash hamming distance <= 3 over
    the 64-bit fingerprint: LSH banding (4 bands x 16 bits —
    pigeonhole-EXACT for hamming<=3, as in phash_neardup) + verify.
    The oracle is the quadratic bit_count(xor) join over the same
    SQL-replayed simhash, so banding exactness is hash-checked."""
    from gdal_boots_ray.kernels.text import simhash64
    from gdal_boots_ray.stages.textstages import attach_pair_columns, band_pairs

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sim_rows(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        sh = np.array([simhash64(t) for t in texts], dtype=np.int64)
        return pa.table({"doc_id": pa.array(ids), "sh": pa.array(sh, pa.int64())})

    rows = docs.map_batches(sim_rows, batch_format="pyarrow")

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        sh = batch.column("sh").to_numpy().astype(np.uint64)
        out_i, out_b = [], []
        for b in range(4):
            band_val = (sh >> np.uint64(b * 16)) & np.uint64(0xFFFF)
            out_i.extend(ids.tolist())
            out_b.extend((band_val.astype(np.int64) + (b << 40)).tolist())
        return pa.table({"doc_id": pa.array(out_i, pa.int64()), "bucket": pa.array(out_b, pa.int64())})

    cand = band_pairs(rows.map_batches(band_rows, batch_format="pyarrow"), key="bucket")
    withtext = attach_pair_columns(cand.select_columns(["doc_a", "doc_b"]), docs)

    def verify(batch: pa.Table) -> pa.Table:
        da = batch.column("doc_a").to_numpy().astype(np.int64)
        db = batch.column("doc_b").to_numpy().astype(np.int64)
        ta = batch.column("text_a").to_pylist()
        tb = batch.column("text_b").to_pylist()
        out_a, out_b, out_h = [], [], []
        for i in range(len(da)):
            h = bin((simhash64(ta[i]) ^ simhash64(tb[i])) & ((1 << 64) - 1)).count("1")
            if h <= max_hamming:
                out_a.append(int(da[i]))
                out_b.append(int(db[i]))
                out_h.append(h)
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "hamming": pa.array(out_h, pa.int64()),
            }
        )

    return withtext.map_batches(verify, batch_format="pyarrow")


_PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"


_PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


_PII_PHONE = r"\+1-555-\d{4}"


def q_pii_scrub(sf_dir: str, doc_cap: int = 1500):
    """PII detection + redaction — the pre-training scrub every
    at-scale text pipeline runs before tokenization.  Each document
    is augmented with a deterministic key-derived PII suffix (the
    corpus itself is synthetic clean text, so the suffix guarantees
    nonzero recall for the gate), then scanned with compiled
    email / IPv4 / phone regexes and redacted in a fixed order
    (email -> ipv4 -> phone, each span replaced by ``[PII]``).

    Output: (doc_id, n_email, n_ipv4, n_phone, redacted_len).  The
    DuckDB twin runs the SAME regex source strings through RE2
    (regexp_extract_all + chained regexp_replace 'g'), so the hash
    gates cross-engine regex semantic parity, the non-overlap match
    rule, and the replacement order.  Regexes compile once at import
    (actor-state rule); pure map_batches, nothing shuffles."""
    import re

    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )
    re_email = re.compile(_PII_EMAIL)
    re_ip = re.compile(_PII_IPV4)
    re_phone = re.compile(_PII_PHONE)

    def scrub(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        n = len(ids)
        n_email = np.empty(n, np.int64)
        n_ip = np.empty(n, np.int64)
        n_phone = np.empty(n, np.int64)
        red_len = np.empty(n, np.int64)
        for i, t in enumerate(texts):
            k = int(ids[i])
            full = (
                f"{t} contact u{k}@ex{k % 7}.org ip 10.{k % 256}.0.{(k * 3) % 256}"
                f" phone +1-555-{k % 10000:04d}"
            )
            n_email[i] = len(re_email.findall(full))
            n_ip[i] = len(re_ip.findall(full))
            n_phone[i] = len(re_phone.findall(full))
            red = re_phone.sub("[PII]", re_ip.sub("[PII]", re_email.sub("[PII]", full)))
            red_len[i] = len(red)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_email": pa.array(n_email),
                "n_ipv4": pa.array(n_ip),
                "n_phone": pa.array(n_phone),
                "redacted_len": pa.array(red_len),
            }
        )

    return docs.map_batches(scrub, batch_format="pyarrow")


ORACLE_SQL["pii_scrub"] = """
        WITH d AS (
            SELECT doc_id,
                   text || ' contact u' || CAST(doc_id AS VARCHAR) || '@ex'
                        || CAST(doc_id % 7 AS VARCHAR) || '.org ip 10.'
                        || CAST(doc_id % 256 AS VARCHAR) || '.0.'
                        || CAST((doc_id * 3) % 256 AS VARCHAR)
                        || ' phone +1-555-'
                        || lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') AS ftext
            FROM documents WHERE doc_id < 1500
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               CAST(len(regexp_extract_all(ftext, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_email,
               CAST(len(regexp_extract_all(ftext, '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) AS BIGINT) AS n_ipv4,
               CAST(len(regexp_extract_all(ftext, '\\+1-555-\\d{4}')) AS BIGINT) AS n_phone,
               CAST(length(regexp_replace(regexp_replace(regexp_replace(ftext,
                    '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '[PII]', 'g'),
                    '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', '[PII]', 'g'),
                    '\\+1-555-\\d{4}', '[PII]', 'g')) AS BIGINT) AS redacted_len
        FROM d
    """


def q_bpe_pairs(sf_dir: str, doc_cap: int = 1500, top_k: int = 50):
    """BPE tokenizer training's inner loop at corpus scale: count
    every adjacent byte pair across the corpus and return the top-k
    merge candidates — the statistic each BPE merge round recomputes
    over 100 TB of text.

    Scale shape: the per-batch partial is a 65,536-slot ``bincount``
    (vectorized shift-or over the utf-8 bytes, no Python loop over
    pairs), so each task emits at most 64k bounded count rows no
    matter how much text it read; one small ``groupby(pair).sum``
    merges them and a tiny sort+limit picks the winners with a
    deterministic (count desc, pair asc) tie-break.  This is the
    word-count exchange pattern — nothing ships raw text.

    The DuckDB twin replays per-character ord() pairs, which equals
    the byte pairs because the fixture corpus is ASCII by
    construction (the docstring contract; non-ASCII corpora would
    need a BLOB-level twin)."""
    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        counts = np.zeros(65536, np.int64)
        for t in batch.column("text").to_pylist():
            b = np.frombuffer(t.encode("utf-8"), np.uint8)
            if len(b) >= 2:
                pairs = (b[:-1].astype(np.int32) << 8) | b[1:]
                counts += np.bincount(pairs, minlength=65536)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "pair": pa.array(nz.astype(np.int64)),
                "cnt": pa.array(counts[nz]),
            }
        )

    merged = (
        docs.map_batches(pair_partial, batch_format="pyarrow")
        .groupby("pair")
        .sum("cnt")
    )

    def finish(batch: pa.Table) -> pa.Table:
        pair = batch.column("pair").to_numpy()
        cnt = batch.column("sum(cnt)").to_numpy()
        order = np.lexsort((pair, -cnt))[:top_k]
        p = pair[order]
        return pa.table(
            {
                "pair": pa.array(p.astype(np.int64)),
                "b1": pa.array((p >> 8).astype(np.int64)),
                "b2": pa.array((p & 0xFF).astype(np.int64)),
                "cnt": pa.array(cnt[order].astype(np.int64)),
            }
        )

    # the merged table is <= 64k bounded rows: one small final batch
    return merged.repartition(1).map_batches(finish, batch_format="pyarrow")


ORACLE_SQL["bpe_pairs"] = """
        WITH d AS (SELECT text FROM documents WHERE doc_id < 1500),
        ch AS (
            SELECT ord(substr(d.text, i.i, 1)) AS b1,
                   ord(substr(d.text, i.i + 1, 1)) AS b2
            FROM d, LATERAL (
                SELECT unnest(generate_series(1, length(d.text) - 1)) AS i
            ) i
        )
        SELECT CAST(b1 * 256 + b2 AS BIGINT) AS pair,
               CAST(b1 AS BIGINT) AS b1, CAST(b2 AS BIGINT) AS b2,
               CAST(count(*) AS BIGINT) AS cnt
        FROM ch GROUP BY 1, 2, 3
        ORDER BY cnt DESC, pair ASC LIMIT 50
    """


def q_quality_pred(sf_dir: str, n_buckets_w: int = 4096):
    """Hashed-bag-of-words linear classifier inference — the
    fasttext-shaped quality-scoring stage of a training-data pipeline
    as BATCHED MODEL INFERENCE: a deterministic weight vector
    (w[j] = (j * 2654435761) % 2001 - 1000 milli-units) is built once
    on the driver and broadcast via ``ray.put`` (one object-store
    copy per node, the model-weights pattern); each batch tokenizes,
    hashes tokens into ``n_buckets_w`` feature buckets (md5, the SQL-
    replayable hash), and accumulates the integer score via one
    ``np.add.at``-free bincount matmul.  Integer milli-unit scores
    keep the twin order-independent; ``keep`` is the classifier
    decision.  Docs with zero tokens produce no row (matches the SQL
    word-unnest inner shape)."""
    import hashlib as _hashlib

    import ray

    from gdal_boots_ray.kernels.text import _WORD_RE

    w = ((np.arange(n_buckets_w, dtype=np.int64) * 2654435761) % 2001 - 1000).astype(np.int64)
    w_ref = ray.put(w)

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def score(batch: pa.Table, _state={}) -> pa.Table:
        wt = _state.get("w")
        if wt is None:
            wt = _state["w"] = ray.get(w_ref)
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        out_id, out_sc = [], []
        for i, t in enumerate(texts):
            toks = _WORD_RE.findall(t.lower())
            if not toks:
                continue
            b = np.fromiter(
                (
                    int(_hashlib.md5(tok.encode()).hexdigest()[:16], 16) % n_buckets_w
                    for tok in toks
                ),
                np.int64,
                len(toks),
            )
            out_id.append(ids[i])
            out_sc.append(int(wt[b].sum()))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "score_milli": pa.array(out_sc, pa.int64()),
                "keep": pa.array([s > 0 for s in out_sc], pa.bool_()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow")


ORACLE_SQL["quality_pred"] = f"""
        WITH {_WORDS_CTE},
        tok AS (
            SELECT doc_id,
                   CAST('0x' || substring(md5(w), 1, 16) AS UBIGINT) % 4096 AS b
            FROM words
        ),
        sc AS (
            SELECT doc_id,
                   CAST(sum(CAST((b * 2654435761) % 2001 AS BIGINT) - 1000) AS BIGINT) AS score_milli
            FROM tok GROUP BY 1
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id, score_milli,
               score_milli > 0 AS keep
        FROM sc
    """


def q_dsir_weights(sf_dir: str, n_buckets: int = 64, target_lang: str = "en"):
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): score every document
    by log p_target(x)/p_raw(x) under hashed bag-of-words unigram
    models — the published recipe for selecting web data that looks
    like a target domain (here: the ``lang = 'en'`` slice).  Scale
    shape: ONE tokenize pass emits (doc_id, bucket, cnt) rows (md5
    bucket hash, the SQL-replayable recipe); the two bucket
    distributions are a 64-row bucketed aggregate; the per-bucket
    log-ratios are quantized to BIGINT micro-units (floor(lr*1e6+.5),
    the same IEEE double on both engines) so the per-doc score is an
    order-independent INTEGER sum — one doc_id exchange, no float
    drift.  Docs with zero tokens produce no row (SQL inner shape)."""
    import hashlib as _hashlib

    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def featurize(batch: pd.DataFrame) -> pd.DataFrame:
        out_id, out_b, out_c, out_t = [], [], [], []
        cache: dict = {}
        for did, text, lang in zip(batch["doc_id"], batch["text"], batch["lang"]):
            toks = _WORD_RE.findall(text.lower())
            if not toks:
                continue
            bs = np.empty(len(toks), np.int64)
            for j, w in enumerate(toks):
                h = cache.get(w)
                if h is None:
                    h = cache[w] = int(_hashlib.md5(w.encode()).hexdigest()[:16], 16) % n_buckets
                bs[j] = h
            cnt = np.bincount(bs, minlength=n_buckets)
            nz = np.flatnonzero(cnt)
            out_id.extend([int(did)] * len(nz))
            out_b.extend(nz.tolist())
            out_c.extend(cnt[nz].tolist())
            out_t.extend([lang == target_lang] * len(nz))
        return pd.DataFrame(
            {
                "doc_id": np.array(out_id, np.int64),
                "b": np.array(out_b, np.int64),
                "cnt": np.array(out_c, np.int64),
                "t": np.array(out_c, np.int64) * np.array(out_t, np.int64),
            }
        )

    feats = docs.map_batches(featurize, batch_format="pandas").materialize()

    # 64-row bucket table: target (t) and raw (cnt) token counts
    bt = bucketed_aggregate(feats, ["b"], {"t": "sum", "cnt": "sum"}).to_pandas()
    T = float(bt["t"].sum())
    R = float(bt["cnt"].sum())
    lrq = np.zeros(n_buckets, np.int64)
    lr = (
        np.log((bt["t"].to_numpy(np.float64) + 1.0) / (T + float(n_buckets)))
        - np.log((bt["cnt"].to_numpy(np.float64) + 1.0) / (R + float(n_buckets)))
    )
    lrq[bt["b"].to_numpy(np.int64)] = np.floor(lr * 1e6 + 0.5).astype(np.int64)

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "dsir_q": batch["cnt"].to_numpy(np.int64) * lrq[batch["b"].to_numpy(np.int64)],
            }
        )

    return bucketed_aggregate(
        feats.map_batches(contrib, batch_format="pandas"), ["doc_id"], {"dsir_q": "sum"}
    )


ORACLE_SQL["dsir_weights"] = """
        WITH f AS (
            SELECT doc_id, lang,
                   CAST('0x' || substring(md5(w), 1, 16) AS UBIGINT) % 64 AS b
            FROM (
                SELECT doc_id, lang,
                       unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w
                FROM documents
            )
        ),
        bt AS (
            SELECT b, count(*) FILTER (WHERE lang = 'en') AS t, count(*) AS r
            FROM f GROUP BY b
        ),
        tot AS (SELECT sum(t) AS tt, sum(r) AS rr FROM bt),
        lr AS (
            SELECT b, CAST(floor((ln((t + 1.0) / (tt + 64.0))
                                  - ln((r + 1.0) / (rr + 64.0))) * 1e6 + 0.5) AS BIGINT) AS lrq
            FROM bt, tot
        ),
        dc AS (SELECT doc_id, b, count(*) AS cnt FROM f GROUP BY doc_id, b)
        SELECT CAST(dc.doc_id AS BIGINT) AS doc_id,
               CAST(sum(dc.cnt * lr.lrq) AS BIGINT) AS dsir_q
        FROM dc JOIN lr USING (b)
        GROUP BY dc.doc_id
    """


def q_ccnet_buckets(sf_dir: str):
    """CCNet-style perplexity bucketing (Wenzek et al. 2020): score
    every document with the corpus unigram LM (the ``doc_logprob``
    plan — one tokenize pass, word-count-row exchanges), then split
    EACH LANGUAGE into head / middle / tail terciles by score —
    higher mean log-prob == lower perplexity == head, the slice CCNet
    keeps.  The tercile thresholds come from the distributed
    exact-quantile walk (``grouped_quantiles``, percentile_disc
    semantics over the round-6 scores) — thresholds are a
    langs x 2 broadcast, never a global sort of the corpus.  Docs
    with zero tokens drop (SQL inner shape)."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate, grouped_quantiles
    from gdal_boots_ray.stages.joins import hash_join

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    counts = docs.map_batches(_doc_word_counts, batch_format="pandas").materialize()
    tf = bucketed_aggregate(counts, ["word"], {"cnt": "sum"}).map_batches(
        lambda ba: ba.rename(columns={"cnt": "tot"}), batch_format="pandas"
    )
    total_tokens = float(tf.sum("tot"))
    joined = hash_join(counts, tf, on="word", left_cols=["doc_id", "cnt"], right_cols=["tot"])

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        lp = np.log(batch["tot"].to_numpy(dtype=np.float64) / total_tokens)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "s": batch["cnt"].to_numpy(dtype=np.float64) * lp,
                "doclen": batch["cnt"].astype(np.int64),
            }
        )

    agg = bucketed_aggregate(
        joined.map_batches(contrib, batch_format="pandas"),
        ["doc_id"],
        {"s": "sum", "doclen": "sum"},
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy().astype(np.float64)
        n = batch.column("doclen").to_numpy().astype(np.float64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "avg_logprob": pa.array(np.round(s / n, 6)),
            }
        )

    scored = agg.map_batches(finish, batch_format="pyarrow")
    langs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    scored = hash_join(
        scored, langs, on="doc_id", left_cols=["avg_logprob"], right_cols=["lang"]
    )
    th = grouped_quantiles(scored, "lang", "avg_logprob", [1.0 / 3.0, 2.0 / 3.0]).to_pandas()
    t1 = dict(zip(th[th["q"] < 0.5]["lang"], th[th["q"] < 0.5]["avg_logprob"]))
    t2 = dict(zip(th[th["q"] > 0.5]["lang"], th[th["q"] > 0.5]["avg_logprob"]))

    def label(batch: pd.DataFrame) -> pd.DataFrame:
        q = batch["avg_logprob"].to_numpy(np.float64)
        l1 = batch["lang"].map(t1).to_numpy(np.float64)
        l2 = batch["lang"].map(t2).to_numpy(np.float64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "lang": batch["lang"],
                "avg_logprob": q,
                "bucket": np.where(q > l2, "head", np.where(q > l1, "middle", "tail")),
            }
        )

    return scored.map_batches(label, batch_format="pandas")


ORACLE_SQL["ccnet_buckets"] = f"""
        WITH {_WORDS_CTE},
        c AS (
            SELECT doc_id, w, CAST(count(*) AS BIGINT) AS cnt FROM words GROUP BY doc_id, w
        ),
        tf AS (SELECT w, CAST(sum(cnt) AS BIGINT) AS tot FROM c GROUP BY w),
        t AS (SELECT CAST(sum(cnt) AS DOUBLE) AS total FROM c),
        s AS (
            SELECT c.doc_id, c.cnt * ln(CAST(tf.tot AS DOUBLE) / t.total) AS contrib, c.cnt
            FROM c JOIN tf ON c.w = tf.w, t
        ),
        sc0 AS (
            SELECT doc_id, round(sum(contrib) / sum(cnt), 6) AS avg_logprob
            FROM s GROUP BY doc_id
        ),
        sc AS (
            SELECT d.doc_id, d.lang, sc0.avg_logprob
            FROM documents d JOIN sc0 USING (doc_id)
        ),
        th AS (
            SELECT lang,
                   percentile_disc(0.3333333333333333) WITHIN GROUP (ORDER BY avg_logprob) AS t1,
                   percentile_disc(0.6666666666666666) WITHIN GROUP (ORDER BY avg_logprob) AS t2
            FROM sc GROUP BY lang
        )
        SELECT CAST(sc.doc_id AS BIGINT) AS doc_id, sc.lang, sc.avg_logprob,
               CASE WHEN sc.avg_logprob > th.t2 THEN 'head'
                    WHEN sc.avg_logprob > th.t1 THEN 'middle'
                    ELSE 'tail' END AS bucket
        FROM sc JOIN th USING (lang)
    """


def q_doc_fingerprints(sf_dir: str, doc_cap: int = 1500, keep: int = 4):
    """ORACLE-CHECKED document fingerprinting: the winnowing
    construction (smallest ``keep`` distinct n-gram hashes) with
    md5-based hashes so the DuckDB twin replays it verbatim; the
    production Rabin-Karp variant (kernels/text.rolling_fingerprints)
    is kernel-tested.  One output row per kept fingerprint."""

    from gdal_boots_ray.kernels.text import md5_fingerprints

    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )

    def fps(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        out_id, out_fp = [], []
        for i, t in enumerate(texts):
            for h in md5_fingerprints(t, keep=keep):
                out_id.append(int(ids[i]))
                out_fp.append(h)
        return pa.table(
            {"doc_id": pa.array(out_id, pa.int64()), "fp": pa.array(out_fp, pa.int64())}
        )

    return docs.map_batches(fps, batch_format="pyarrow")


ORACLE_SQL["doc_fingerprints"] = r"""
        WITH norm AS (
            SELECT doc_id, regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS t
            FROM documents WHERE doc_id < 1500
        ),
        kg AS (
            SELECT DISTINCT doc_id,
                   CAST(CAST('0x' || substring(md5(substring(t, i.i, 8)), 1, 16) AS UBIGINT)
                        % 2147483647 AS BIGINT) AS h
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 7, 0))) AS i) i
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id, h AS fp
        FROM (SELECT doc_id, h, row_number() OVER (PARTITION BY doc_id ORDER BY h) AS rn FROM kg)
        WHERE rn <= 4
    """


def q_fingerprint_dups(sf_dir: str, doc_cap: int = 1500, keep: int = 4):
    """Substring-level near-duplicate detection (the MOSS idiom):
    docs sharing >= 2 of their kept winnowing fingerprints are
    flagged as overlap candidates — a dedup family orthogonal to
    MinHash (set Jaccard) and SimHash (token frequency): it fires on
    shared raw character runs.  Reuses the LSH pair tail
    (``band_pairs``: one-wave bucket shuffle,
    vectorized per-fingerprint pair generation, bucketed pair dedup)
    with fingerprints as the band keys; the DuckDB twin replays the
    md5 winnowing construction and the quadratic self-join."""
    from gdal_boots_ray.kernels.text import md5_fingerprints
    from gdal_boots_ray.stages.textstages import band_pairs

    docs = _read(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filter=pc.field("doc_id") < doc_cap,
    )

    def fps(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        out_id, out_fp = [], []
        for i, t in enumerate(texts):
            for h in md5_fingerprints(t, keep=keep):
                out_id.append(int(ids[i]))
                out_fp.append(h)
        return pa.table(
            {"doc_id": pa.array(out_id, pa.int64()), "band_key": pa.array(out_fp, pa.int64())}
        )

    pairs = band_pairs(docs.map_batches(fps, batch_format="pyarrow"))

    def finish(batch: pa.Table) -> pa.Table:
        ns = batch.column("n_bands").cast(pa.int64())
        keep_m = pc.greater_equal(ns, 2)
        return pa.table(
            {
                "doc_a": batch.column("doc_a").cast(pa.int64()).filter(keep_m),
                "doc_b": batch.column("doc_b").cast(pa.int64()).filter(keep_m),
                "n_shared": ns.filter(keep_m),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


ORACLE_SQL["fingerprint_dups"] = r"""
        WITH norm AS (
            SELECT doc_id, regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS t
            FROM documents WHERE doc_id < 1500
        ),
        kg AS (
            SELECT DISTINCT doc_id,
                   CAST(CAST('0x' || substring(md5(substring(t, i.i, 8)), 1, 16) AS UBIGINT)
                        % 2147483647 AS BIGINT) AS h
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 7, 0))) AS i) i
        ),
        kept AS (
            SELECT doc_id, h
            FROM (SELECT doc_id, h, row_number() OVER (PARTITION BY doc_id ORDER BY h) AS rn FROM kg)
            WHERE rn <= 4
        )
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(count(*) AS BIGINT) AS n_shared
        FROM kept a JOIN kept b ON a.h = b.h AND a.doc_id < b.doc_id
        GROUP BY doc_a, doc_b
        HAVING count(*) >= 2
    """


def q_text_normalize(sf_dir: str):
    """Corpus text normalization (lowercase, digit-run masking,
    whitespace collapse) — the first stage of every LLM corpus prep.
    Pure pandas vectorized ``.str`` kernels over compiled regexes; an
    embarrassingly-parallel streaming map, no shuffle, no
    materialization."""
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["text"].str.lower()
        s = s.str.replace(r"[0-9]+", "<num>", regex=True)
        s = s.str.replace(r"\s+", " ", regex=True).str.strip()
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].astype("int64"), "norm_text": s}
        )

    return docs.map_batches(norm, batch_format="pandas")


ORACLE_SQL["text_normalize"] = """
        SELECT CAST(doc_id AS BIGINT) AS doc_id,
               trim(regexp_replace(regexp_replace(lower(text), '[0-9]+', '<num>', 'g'),
                                   '\\s+', ' ', 'g')) AS norm_text
        FROM documents
    """


def _pack(g: pd.DataFrame, rngs: np.ndarray, offs: np.ndarray, budget: int) -> pd.DataFrame:
    """doc_pack's bucket body: each doc's chunk is (its range's token
    offset + the tokens before it in its range, in doc_id order) //
    ``budget``; one sort by (rng, doc_id) serves every range."""
    g = g.sort_values(["rng", "doc_id"], kind="mergesort")
    rng = g["rng"].to_numpy()
    n = g["n_tokens"].to_numpy().astype(np.int64)
    starts, lens = key_runs(rng)
    excl = np.cumsum(n) - n
    excl -= np.repeat(excl[starts], lens)
    base = offs[np.searchsorted(rngs, rng)]
    return pd.DataFrame(
        {
            "doc_id": g["doc_id"].to_numpy().astype(np.int64),
            "n_tokens": n,
            "chunk_id": (base + excl) // budget,
        }
    )


def q_doc_pack(sf_dir: str, budget: int = 256, range_size: int = 512):
    """Token-budget document packing (GPT-style pretraining chunking):
    concatenate docs in doc_id order and assign each doc the chunk
    ``floor(exclusive_prefix_tokens / budget)``.

    The prefix sum is the textbook two-pass distributed scan:
    (1) per-doc token counts carry a contiguous range key
    ``doc_id // range_size`` (free — no sort needed on an ordered id);
    (2) per-range partial sums via ``bucketed_aggregate`` (one tiny
    row per range), driver exclusive-scans the ~N/range_size offsets
    and broadcasts them once with ``ray.put``; (3) one ``exchange`` on
    the range of the narrow (doc_id, n_tokens) rows cumsums each range
    locally and adds its offset (:func:`_pack`).  Text never
    shuffles."""
    import ray

    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tok(batch: pd.DataFrame) -> pd.DataFrame:
        n = [len(_WORD_RE.findall(t.lower())) for t in batch["text"]]
        d = batch["doc_id"].astype("int64")
        return pd.DataFrame(
            {"doc_id": d, "n_tokens": pd.Series(n, dtype="int64", index=batch.index), "rng": d // range_size}
        )

    toks = docs.map_batches(tok, batch_format="pandas")

    partials = (
        bucketed_aggregate(toks, ["rng"], {"n_tokens": "sum"})
        .to_pandas()
        .sort_values("rng")
    )
    n_tok = partials["n_tokens"].to_numpy().astype(np.int64)
    off_ref = ray.put((partials["rng"].to_numpy().astype(np.int64), np.cumsum(n_tok) - n_tok))
    return exchange(toks, ["rng"], lambda g: _pack(g, *ray.get(off_ref), budget), batch_format="pandas")


ORACLE_SQL["doc_pack"] = """
        WITH t AS (
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS BIGINT) AS n_tokens
            FROM documents
        ),
        p AS (
            SELECT doc_id, n_tokens,
                   COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off
            FROM t
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id, n_tokens,
               CAST(off // 256 AS BIGINT) AS chunk_id
        FROM p
    """


def q_decontaminate(sf_dir: str, n: int = 4, mod: int = 13, rem: int = 7):
    """Benchmark decontamination (the eval-overlap filter every LLM
    training pipeline runs): flag training docs sharing any word
    ``n``-gram with a held-out benchmark set (here the deterministic
    slice ``doc_id % mod == rem``).

    Scale shape: the benchmark side must be O(1) relative to the
    corpus — that is the operator's CONTRACT (a real decontamination
    run broadcasts a fixed eval suite, not a corpus slice; the
    ``doc_id % mod`` slice here only stands in for one).  Its distinct
    shingle set is reduced once (vectorized mask + per-batch set
    union, no per-row driver filter) and broadcast with ``ray.put``
    (one object-store copy per node, read by every task);
    ``max_bench_shingles`` enforces the contract and raises rather
    than silently building an unbounded driver-side set.  The
    unbounded training side streams through a stateless
    ``map_batches`` that intersects per-doc shingle sets against the
    broadcast set — no join shuffle, the corpus text never moves."""
    import ray

    from gdal_boots_ray.kernels.text import _WORD_RE

    max_bench_shingles = 2_000_000
    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def doc_shingles(text: str):
        ws = _WORD_RE.findall(text.lower())
        return {" ".join(ws[j : j + n]) for j in range(len(ws) - n + 1)}

    def bench_shingles(ba: pd.DataFrame) -> pd.DataFrame:
        sel = ba["text"][ba["doc_id"] % mod == rem]
        sh = set().union(*(doc_shingles(t) for t in sel)) if len(sel) else set()
        return pd.DataFrame({"s": sorted(sh)})

    bench_sh = set()
    for b in docs.map_batches(bench_shingles, batch_format="pandas").iter_batches(
        batch_format="pandas"
    ):
        bench_sh.update(b["s"])
        if len(bench_sh) > max_bench_shingles:
            raise ValueError(
                "benchmark shingle set exceeds the broadcast contract "
                f"({len(bench_sh)} > {max_bench_shingles}); decontamination "
                "expects an O(1)-sized eval suite"
            )
    bench_ref = ray.put(frozenset(bench_sh))

    def hits(batch: pd.DataFrame, _cache={}) -> pd.DataFrame:
        # frozenset deserialization is NOT zero-copy — fetch once per
        # worker, not once per batch
        bench = _cache.get("b")
        if bench is None:
            bench = _cache["b"] = ray.get(bench_ref)
        keep = batch[batch["doc_id"] % mod != rem]
        nh = [len(doc_shingles(t) & bench) for t in keep["text"]]
        out = pd.DataFrame(
            {"doc_id": keep["doc_id"].astype("int64"), "n_hits": pd.Series(nh, dtype="int64", index=keep.index)}
        )
        return out[out["n_hits"] > 0]

    return docs.map_batches(hits, batch_format="pandas")


ORACLE_SQL["decontaminate"] = """
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9'']+') AS ws
            FROM documents
        ),
        sh AS (
            SELECT DISTINCT doc_id, array_to_string(ws[i.i:i.i + 3], ' ') AS s
            FROM toks,
                 LATERAL (SELECT unnest(generate_series(1, greatest(len(ws) - 3, 0))) AS i) i
        ),
        bench AS (SELECT DISTINCT s FROM sh WHERE doc_id % 13 = 7)
        SELECT CAST(sh.doc_id AS BIGINT) AS doc_id,
               CAST(count(*) AS BIGINT) AS n_hits
        FROM sh JOIN bench USING (s)
        WHERE sh.doc_id % 13 <> 7
        GROUP BY sh.doc_id
    """


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (Rae et al. 2021 §A1.1
    rules the big text pipelines filter on): per document, the
    duplicate-line fraction and the fraction of word bigrams taken by
    the single most frequent bigram.  Embarrassingly parallel — one
    pass inside map_batches, no exchange at all; at 100 TB this stage
    runs at read bandwidth.  The reference has no text surface; this
    is an engine-original operator of the training-data family."""
    from collections import Counter

    from gdal_boots_ray.kernels.text import _WORD_RE

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def rep(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = len(texts)
        n_lines = np.empty(n, np.int64)
        dup_line = np.empty(n, np.float64)
        top_bg = np.zeros(n, np.float64)
        for i, t in enumerate(texts):
            lines = t.split("\n")
            n_lines[i] = len(lines)
            dup_line[i] = round(1.0 - len(set(lines)) / len(lines), 6)
            ws = _WORD_RE.findall(t.lower())
            if len(ws) >= 2:
                cnt = Counter(zip(ws[:-1], ws[1:]))
                top_bg[i] = round(max(cnt.values()) / (len(ws) - 1), 6)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_lines": pa.array(n_lines),
                "dup_line_frac": pa.array(dup_line),
                "top_bigram_frac": pa.array(top_bg),
            }
        )

    return docs.map_batches(rep, batch_format="pyarrow")


ORACLE_SQL["doc_repetition"] = """
        WITH lines AS (
            SELECT doc_id, string_split(text, chr(10)) AS ls FROM documents
        ),
        lstat AS (
            SELECT doc_id, CAST(len(ls) AS BIGINT) AS n_lines,
                   round(1.0 - CAST(len(list_distinct(ls)) AS DOUBLE) / len(ls), 6) AS dup_line_frac
            FROM lines
        ),
        toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9'']+') AS ws
            FROM documents
        ),
        big AS (
            SELECT doc_id, ws[i.i] || ' ' || ws[i.i + 1] AS bg
            FROM toks,
                 LATERAL (SELECT unnest(generate_series(1, greatest(len(ws) - 1, 0))) AS i) i
        ),
        bc AS (SELECT doc_id, bg, count(*) AS c FROM big GROUP BY 1, 2),
        bt AS (
            SELECT doc_id, round(CAST(max(c) AS DOUBLE) / sum(c), 6) AS top_bigram_frac
            FROM bc GROUP BY doc_id
        )
        SELECT l.doc_id, l.n_lines, l.dup_line_frac,
               coalesce(bt.top_bigram_frac, 0.0) AS top_bigram_frac
        FROM lstat l LEFT JOIN bt ON l.doc_id = bt.doc_id
    """


def q_inverted_index(sf_dir: str, min_df: int = 5):
    """Build a verifiable inverted index (term -> ordered posting
    list) — the search-engine primitive over the corpus.  Plan:
    per-batch (word, doc_id, tf) partials (one row per distinct word
    per doc per batch), bucketed combine keyed on word so each
    reducer assembles complete posting lists for its vocabulary
    shard, emitting df, cf and an md5 digest of the ordered list
    (the digest is what a 10^12-row index job would checkpoint per
    shard).  Only word-count partials cross the wire — never text —
    and fan-out scales with the cluster via ``stages.agg.exchange``."""
    import hashlib

    from gdal_boots_ray.kernels.text import _WORD_RE

    docs = _read(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def postings_partial(batch: pd.DataFrame) -> pd.DataFrame:
        word_lists = [_WORD_RE.findall(t.lower()) for t in batch["text"]]
        lens = np.array([len(w) for w in word_lists], np.int64)
        ids = np.repeat(batch["doc_id"].to_numpy().astype(np.int64), lens)
        words = (
            np.concatenate([np.asarray(w, dtype=object) for w in word_lists if w])
            if lens.sum()
            else np.array([], dtype=object)
        )
        df = pd.DataFrame({"word": words, "doc_id": ids})
        return df.groupby(["word", "doc_id"], sort=False).size().rename("tf").reset_index()

    def build_shard(g: pd.DataFrame) -> pd.DataFrame:
        # re-sum tf across batch partials, then assemble ordered lists
        p = g.groupby(["word", "doc_id"], sort=False)["tf"].sum().reset_index()
        p = p.sort_values(["word", "doc_id"], kind="mergesort")
        rows = []
        for word, grp in p.groupby("word", sort=False):
            if len(grp) < min_df:
                continue
            ids = grp["doc_id"].to_numpy()
            digest = hashlib.md5(",".join(str(int(i)) for i in ids).encode()).hexdigest()
            rows.append((word, len(ids), int(grp["tf"].sum()), digest))
        return pd.DataFrame(rows, columns=["word", "df", "cf", "postings_md5"])

    out = exchange(
        docs.map_batches(postings_partial, batch_format="pandas"),
        ["word"],
        build_shard,
        batch_format="pandas",
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "word": batch.column("word"),
                "df": batch.column("df").cast(pa.int64()),
                "cf": batch.column("cf").cast(pa.int64()),
                "postings_md5": batch.column("postings_md5"),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["inverted_index"] = f"""
        WITH {_WORDS_CTE},
        p AS (SELECT w, doc_id, count(*) AS tf FROM words GROUP BY 1, 2)
        SELECT w AS word, CAST(count(*) AS BIGINT) AS df, CAST(sum(tf) AS BIGINT) AS cf,
               md5(string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)) AS postings_md5
        FROM p GROUP BY 1 HAVING count(*) >= 5
    """


# simhash replay shared by the 'simhash' and 'simhash_neardup' twins
_SIMHASH_SQL_CTE = rf"""
        {_WORDS_CTE},
        wh AS (
            SELECT doc_id, CAST('0x' || substring(md5(w), 1, 16) AS UBIGINT) AS h FROM words
        ),
        bits AS (
            SELECT doc_id, b.b AS bit,
                   sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS acc
            FROM wh, (SELECT unnest(generate_series(0, 63)) AS b) b
            GROUP BY doc_id, b.b
        ),
        sh AS (
            SELECT doc_id,
                   sum(CASE WHEN acc > 0 THEN CAST(1 AS HUGEINT) << bit ELSE CAST(0 AS HUGEINT) END) AS us
            FROM bits GROUP BY doc_id
        ),
        sims AS (
            SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
                   CAST(CASE WHEN coalesce(us, 0) >= CAST(1 AS HUGEINT) << 63
                             THEN coalesce(us, 0) - (CAST(1 AS HUGEINT) << 64)
                             ELSE coalesce(us, 0) END AS BIGINT) AS simhash
            FROM documents d LEFT JOIN sh USING (doc_id)
        )
"""


ORACLE_SQL["simhash"] = rf"""
        WITH {_SIMHASH_SQL_CTE}
        SELECT doc_id, simhash FROM sims
    """


ORACLE_SQL["simhash_neardup"] = rf"""
        WITH {_SIMHASH_SQL_CTE}
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
        FROM sims a, sims b
        WHERE a.doc_id < b.doc_id AND bit_count(xor(a.simhash, b.simhash)) <= 3
    """


def _md5_minhash_sql_cte() -> str:
    """DuckDB replay of MD5MinHashStage: same shingles, same md5-based
    hash, same mod-(2^31-1) permutations (constants embedded from the
    shared deterministic generator), same band-key mix."""
    from gdal_boots_ray.stages.textstages import _MD5MH_M, _MD5MH_MIX, md5_minhash_params

    a, b = md5_minhash_params(64)
    vals = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})" for i in range(64))
    return rf"""
        norm AS (
            SELECT doc_id, regexp_replace(lower(trim(text)), '\s+', ' ', 'g') AS t
            FROM documents WHERE doc_id < 1500
        ),
        shg AS (
            SELECT DISTINCT doc_id, substring(t, i.i, 5) AS s
            FROM norm,
                 LATERAL (SELECT unnest(generate_series(1, greatest(length(t) - 4, 0))) AS i) i
        ),
        hs AS (
            SELECT doc_id,
                   CAST(CAST('0x' || substring(md5(s), 1, 16) AS UBIGINT) % {_MD5MH_M} AS BIGINT) AS h
            FROM shg
        ),
        perms(i, a, b) AS (VALUES {vals}),
        sigs AS (
            SELECT doc_id, p.i AS i, min((p.a * h + p.b) % {_MD5MH_M}) AS sig
            FROM hs, perms p GROUP BY doc_id, p.i
        ),
        bkeys AS (
            SELECT s0.doc_id,
                   ((s0.sig * {_MD5MH_MIX} + s1.sig) % 2147483648) + (s0.i // 2) * 4294967296 AS band_key
            FROM sigs s0 JOIN sigs s1 ON s1.doc_id = s0.doc_id AND s1.i = s0.i + 1
            WHERE s0.i % 2 = 0
        )
    """


ORACLE_SQL["minhash_pairs"] = rf"""
        WITH {_md5_minhash_sql_cte()}
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(count(*) AS BIGINT) AS n_bands
        FROM bkeys a JOIN bkeys b ON a.band_key = b.band_key AND a.doc_id < b.doc_id
        WHERE a.doc_id < 1500 AND b.doc_id < 1500
        GROUP BY 1, 2
    """
