"""Aggregation combinators that avoid per-group Python overhead.

Ray's ``groupby(keys).aggregate`` sort-reduces per group — fine for
dozens of groups, pathological for millions of tiny groups (30s for a
126k-group count in local testing).  The scale-correct shape is:

1. **partial**: aggregate inside each batch (vectorized pandas/numpy),
   emitting one row per (key, batch) — a hot key shrinks to one row
   per batch before any shuffle;
2. **final**: hash keys into one partition per cluster CPU, shuffle
   once on the small partials, combine each partition vectorized.

:func:`exchange` is the one keyed shuffle: it owns the key hash
(:func:`_key_buckets_arrow`), the partition count (the cluster's CPUs)
and the bucket column, and every reducer in the package that can
segment its partition by key runs through it (aggregate, top-k,
quantile walk, hash / as-of / cell joins, the knn cell probe, the HLL
register merge, the zonal histograms, LSH pair generation, the
per-user and per-range query bodies).  Its body runs once per
partition — one reduce wave — never once per key.  Only a body that
makes exactly one output per key stays on plain
``groupby(key).map_groups``: the mosaic groups (one raster per key),
``manifest.write_partitioned`` (one partition file per key) and
``q_semdedup``'s cluster dedup (one keep decision per cluster).
"""

from __future__ import annotations

import os
from typing import Dict, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa


def _cluster_cpus() -> int:
    """CPUs of the Ray cluster; before ``ray.init``, the CPUs this
    process may run on (its affinity mask, not the host's count)."""
    try:
        import ray

        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    except Exception:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


def _key_buckets_arrow(batch: pa.Table, keys: Sequence[str], n_parts: int) -> np.ndarray:
    """Deterministic hash of the key columns into ``[0, n_parts)``, read
    straight off the Arrow table (no DataFrame wrapper in the exchange
    hot path).  Integer keys hash from their integer values even when
    the batch holds a null (a null would otherwise turn the column into
    float64 and move keys >= 2**53), and every row with a null key goes
    to bucket 0, so a key's bucket never depends on its batch."""
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    nulls = None
    for k in keys:
        col = batch.column(k)
        if col.null_count:
            m = col.is_null().to_numpy(zero_copy_only=False)
            nulls = m if nulls is None else nulls | m
            if pa.types.is_integer(col.type):
                col = col.fill_null(0)
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            arr = col.to_numpy(zero_copy_only=False).astype(str)
            vals = pd.util.hash_array(arr).astype(np.uint64)
        else:
            vals = col.to_numpy(zero_copy_only=False).astype(np.uint64, copy=False)
        h = h * np.uint64(1000003) + vals
    b = (h % np.uint64(n_parts)).astype(np.int64)
    if nulls is not None:
        b[nulls] = 0
    return b


def key_runs(keys: np.ndarray):
    """Start and length of every run of equal values in a sorted key
    array."""
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if len(keys) else np.empty(0, np.int64)
    return starts, np.diff(np.r_[starts, len(keys)])


def concat_ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for every c in counts, vectorized:
    [2,0,3] -> [0,1, 0,1,2]."""
    counts = np.asarray(counts, np.int64)
    total = int(counts.sum())
    if not total:
        return np.empty(0, np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


PAIR_CHUNK = 2_000_000


def pair_chunks(counts: np.ndarray):
    """(lo, hi) slices of ``counts`` that each sum to about ``PAIR_CHUNK``
    (a single count above it is a slice of its own), so a pair
    expansion of ``counts[lo:hi]`` stays bounded in memory."""
    cum = np.cumsum(counts)
    total = int(cum[-1]) if len(cum) else 0
    cuts = np.searchsorted(cum, np.arange(PAIR_CHUNK, total, PAIR_CHUNK), side="right")
    return zip(np.r_[0, cuts], np.r_[cuts, len(counts)])


_BUCKET = "_bucket"


def exchange(inputs, keys: Sequence[str], fn, batch_format: str = "pyarrow"):
    """The keyed shuffle: hash ``keys`` into ``P`` partitions, one per
    cluster CPU (:func:`_cluster_cpus`, read once on the driver),
    co-shuffle once and call ``fn`` once per partition — one reduce
    wave.  The bucket id is the partition id: at ``P > 1`` explicit
    sort boundaries ``1..P-1`` split the buckets with no sampling
    round, and at ``P == 1`` a plain ``repartition(1)`` gathers every
    row.

    The hash is not uniform on every key: a single integer key hashes
    to itself, so its partition is ``key mod P``, and keys that share a
    residue share a partition.  A partition holds about 1/P of the
    exchanged rows, and a hot key lands whole in one partition.

    ``inputs`` is one Dataset or a list of Datasets with identical
    schemas (unioned after each gets its bucket column, so that map
    fuses with the caller's own per-batch map).  ``fn`` receives every
    row of its partition — all rows of any one key arrive in the same
    call, many keys share a call — as a ``batch_format`` batch without
    the bucket column, and is never called on an empty partition.
    Lazy: no schema probe, no materialization.
    """
    keys = list(keys)
    p = _cluster_cpus()

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(_BUCKET, pa.array(_key_buckets_arrow(batch, keys, p), pa.int64()))

    def call(part):
        # Ray's batcher drops zero-row blocks today; the guard keeps the
        # "never called on an empty partition" contract if it stops
        if len(part) == 0:
            return
        if batch_format == "pandas":
            yield fn(part.drop(columns=[_BUCKET]))
        else:
            yield fn(part.drop_columns([_BUCKET]))

    if not isinstance(inputs, (list, tuple)):
        inputs = [inputs]
    tagged = [ds.map_batches(tag, batch_format="pyarrow") for ds in inputs]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    if p > 1:
        parts = both.sort(_BUCKET, boundaries=list(range(1, p)))
    else:
        parts = both.repartition(1)
    return parts.map_batches(call, batch_size=None, batch_format=batch_format)


def bucketed_aggregate(
    ds,
    keys: Sequence[str],
    agg: Dict[str, str],
):
    """Partial-per-batch then bucketed-final aggregation.

    agg: {column: 'sum'|'count'|'min'|'max'} — 'count' counts rows and
    needs no source column (use any name).  Returns Dataset with key
    columns + aggregated columns (named as the dict keys).

    The per-batch partial is the skew answer (FP-Hadoop's intermediate
    reduce): a hot key reaches :func:`exchange` as at most one row per
    block, and the final combine runs once per partition.
    """
    keys = list(keys)
    spec_items = list(agg.items())

    def _arrow_agg(batch: pa.Table, items) -> pa.Table:
        """One pyarrow hash-aggregate pass; output columns are the key
        columns followed by the agg dict's names.  Zero-copy in/out —
        the exchange never sees a pandas frame."""
        plan = []
        for name, how in items:
            plan.append((keys[0] if how == "count" else name, how))
        res = batch.group_by(keys, use_threads=False).aggregate(plan)
        # pyarrow names results "<col>_<func>" and puts keys last
        cols = {k: res.column(k) for k in keys}
        for (name, _), (src, how) in zip(items, plan):
            cols[name] = res.column(f"{src}_{how}")
        return pa.table(cols)

    second = {"count": "sum"}  # counts combine by summing
    final_items = [(name, second.get(how, how)) for name, how in spec_items]

    def partial(batch: pa.Table) -> pa.Table:
        return _arrow_agg(batch, spec_items)

    def final(g: pa.Table) -> pa.Table:
        return _arrow_agg(g, final_items)

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), keys, final)


def grouped_top_k(
    ds,
    keys: Sequence[str],
    order_col: str,
    k: int,
    descending: bool = True,
    tie_cols: Sequence[str] = (),
):
    """Per-group top-k without a global sort.

    Two-phase plan (the windowed ``ROW_NUMBER() <= k`` a SQL engine
    would sort-shuffle for): each batch keeps at most ``k`` rows per
    group it sees (vectorized stable sort + ``groupby.head``), so the
    only exchange moves <= k x (groups present in that batch) rows —
    never raw data — into a bucketed final that re-applies the same
    top-k per group.  ``tie_cols`` (ascending) make the result
    deterministic under ties; the final runs through :func:`exchange`,
    so its fan-out scales with the cluster.  Semantics follow the
    reference's ordered-read idiom (gdal.py feature iteration is
    deterministic) lifted to a distributed setting.
    """
    keys = list(keys)
    by = [order_col] + list(tie_cols)
    ascending = [not descending] + [True] * len(tie_cols)

    def _codes(arr: np.ndarray) -> np.ndarray:
        # rank codes for string/object columns keep lexsort numeric;
        # order-preserving, so descending works by negation too
        if arr.dtype == object or arr.dtype.kind in "US":
            _, inv = np.unique(arr, return_inverse=True)
            return inv
        return arr

    def _topk(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if not n:
            return t
        key_arrs = [_codes(t.column(c).to_numpy(zero_copy_only=False)) for c in keys]
        order_arrs = []
        for c, asc in zip(by, ascending):
            v = _codes(t.column(c).to_numpy(zero_copy_only=False))
            if not asc:
                # descending via order reversal: unsigned dtypes must
                # not be negated (wraparound makes 0 sort largest) —
                # max-v reverses order overflow-free; NaN (float) stays
                # NaN under negation, so NaN rows sort LAST in either
                # direction (lexsort's NaN-last convention).
                v = (v.max() - v) if v.dtype.kind == "u" else -v
            order_arrs.append(v)
        # lexsort: LAST key is primary -> keys outermost, then by[]
        order = np.lexsort(list(reversed(order_arrs)) + list(reversed(key_arrs)))
        change = np.zeros(n, bool)
        change[0] = True
        for a in key_arrs:
            s = a[order]
            change[1:] |= s[1:] != s[:-1]
        starts = np.flatnonzero(change)
        runlen = np.diff(np.r_[starts, n])
        pos = np.arange(n) - np.repeat(starts, runlen)
        return t.take(pa.array(order[pos < k], pa.int64()))

    return exchange(ds.map_batches(_topk, batch_format="pyarrow"), keys, _topk)


def approx_count_distinct(ds, col: str) -> float:
    """Distributed HyperLogLog count-distinct: per-batch 4 KB register
    partials (vectorized, kernels/sketch.py) -> elementwise-max merge
    per partition -> driver final estimate.  NO key shuffle at any
    scale: the exchange moves one 4 KB row per batch, the driver sees
    one row per partition.  ~1.6% standard error at p=12."""
    from gdal_boots_ray.kernels import sketch

    def partial(batch: pa.Table) -> pa.Table:
        reg = sketch.hll_partial(
            sketch.hash64(batch.column(col).to_numpy(zero_copy_only=False))
        )
        # the register content is the key: deterministic, and it spreads
        # the merge over partitions without needing a batch index
        return pa.table(
            {
                "key": pa.array([int(reg.view(np.uint32).sum())], pa.int64()),
                "reg": pa.array([reg.tobytes()], pa.binary()),
            }
        )

    def merge(g: pa.Table) -> pa.Table:
        # elementwise max is associative, so a partition may hold many keys
        stack = np.stack([np.frombuffer(r, dtype=np.uint8) for r in g.column("reg").to_pylist()])
        return pa.table({"reg": pa.array([sketch.hll_merge(stack).tobytes()], pa.binary())})

    rows = exchange(ds.map_batches(partial, batch_format="pyarrow"), ["key"], merge).to_pandas()
    final = sketch.hll_merge(np.stack([np.frombuffer(r, dtype=np.uint8) for r in rows["reg"]]))
    return sketch.hll_estimate(final)


def continuous_quantiles(ds, col: str, qs: Sequence[float], n_hist: int = 8192):
    """EXACT interpolated quantiles (SQL ``percentile_cont``) for an
    unbounded float column — three cheap passes, no global sort:

    1. min / max / count (per-batch partials, driver combine of one
       row per batch);
    2. fixed-range histogram (``n_hist`` buckets) — locates the
       bucket holding each needed order statistic;
    3. one filtered pass collecting ONLY the values inside the needed
       buckets (~n/n_hist rows per bucket) — the exact order stats
       resolve locally, then lower + (upper-lower)*frac interpolation.

    Every pass streams the single column; the driver never holds more
    than the histogram + candidate buckets.
    """
    qs = list(qs)

    def mmc(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        if not len(v):
            return pa.table(
                {
                    "lo": pa.array([], pa.float64()),
                    "hi": pa.array([], pa.float64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "lo": pa.array([float(v.min())], pa.float64()),
                "hi": pa.array([float(v.max())], pa.float64()),
                "n": pa.array([len(v)], pa.int64()),
            }
        )

    stats = ds.map_batches(mmc, batch_format="pyarrow").to_pandas()
    lo, hi, n = float(stats["lo"].min()), float(stats["hi"].max()), int(stats["n"].sum())
    if n == 0:
        return pd.DataFrame({"q": [], col: []})
    if hi == lo:
        return pd.DataFrame({"q": [float(q) for q in qs], col: [lo] * len(qs)})
    width = (hi - lo) / n_hist

    def hist(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        idx = np.clip(((v - lo) / width).astype(np.int64), 0, n_hist - 1)
        cnt = np.bincount(idx, minlength=n_hist)
        return pa.table({"reg": pa.array([cnt.astype(np.int64).tobytes()], pa.binary())})

    rows = ds.map_batches(hist, batch_format="pyarrow").to_pandas()
    counts = np.zeros(n_hist, dtype=np.int64)
    for r in rows["reg"]:
        counts += np.frombuffer(r, dtype=np.int64)
    cum = np.cumsum(counts)

    # ranks needed (0-indexed order statistics)
    ranks = sorted({int(np.floor(q * (n - 1))) for q in qs} | {int(np.ceil(q * (n - 1))) for q in qs})
    need_buckets = sorted({int(np.searchsorted(cum, r + 1, side="left")) for r in ranks})

    lows = np.array([lo + b * width for b in need_buckets])
    highs = np.array([hi if b == n_hist - 1 else lo + (b + 1) * width for b in need_buckets])

    def collect(batch: pa.Table) -> pa.Table:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        m = np.zeros(len(v), dtype=bool)
        for blo, bhi, b in zip(lows, highs, need_buckets):
            if b == n_hist - 1:
                m |= (v >= blo) & (v <= bhi)
            else:
                m |= (v >= blo) & (v < bhi)
        return pa.table({col: pa.array(v[m])})

    cand = np.sort(ds.map_batches(collect, batch_format="pyarrow").to_pandas()[col].to_numpy())
    base = int(cum[need_buckets[0] - 1]) if need_buckets[0] > 0 else 0

    def order_stat(r: int) -> float:
        b = int(np.searchsorted(cum, r + 1, side="left"))
        before = int(cum[b - 1]) if b > 0 else 0
        # candidates are the union of needed buckets, globally sorted;
        # offset of this bucket inside cand:
        off = 0
        for bb in need_buckets:
            if bb == b:
                break
            off += int(counts[bb])
        return float(cand[off + (r - before)])

    out_q, out_v = [], []
    for q in qs:
        pos = q * (n - 1)
        lo_r, hi_r = int(np.floor(pos)), int(np.ceil(pos))
        a = order_stat(lo_r)
        b = order_stat(hi_r)
        out_q.append(float(q))
        out_v.append(a + (b - a) * (pos - lo_r))
    return pd.DataFrame({"q": out_q, col: out_v})


def percentile_disc(vals: np.ndarray, cnts: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """SQL ``percentile_disc`` over a histogram: for each q, the first
    of the ascending ``vals`` whose cumulative count reaches q*n (the
    same IEEE double product DuckDB computes, so ties agree
    bit-for-bit).  ``cnts`` are the counts of ``vals``; empty if n = 0."""
    cum = np.cumsum(cnts)
    n = int(cum[-1]) if len(cum) else 0
    if n == 0:
        return vals[:0]
    idx = [int(np.searchsorted(cum, q * n, side="left")) for q in qs]
    return vals[np.minimum(idx, len(vals) - 1)]


def _quantile_walk(g: pd.DataFrame, group_col: str, col: str, qs: Sequence[float]) -> pd.DataFrame:
    """:func:`percentile_disc` for every group of a partition of
    (group, value, cnt) rows at once: one sort by (group, value), then
    per q one comparison of each group's cumulative count against that
    group's q*n (the same int-vs-double test as the one-group walk) and
    a segmented first hit, or the group's last value if none."""
    g = g.sort_values([group_col, col])
    grp = g[group_col].to_numpy()
    cnt = g["cnt"].to_numpy()
    starts, lens = key_runs(grp)
    last = np.repeat(starts + lens - 1, lens)
    cum = np.cumsum(cnt)
    cum -= np.repeat(cum[starts] - cnt[starts], lens)  # integers: restarting is exact
    n = cum[last]
    pos = np.arange(len(grp))
    hit = [np.minimum.reduceat(np.where(cum >= q * n, pos, last), starts) for q in qs]
    return pd.DataFrame(
        {
            group_col: np.repeat(grp[starts], len(qs)),
            "q": np.tile(np.array([float(q) for q in qs], np.float64), len(starts)),
            col: g[col].to_numpy()[np.array(hit, np.int64).T.ravel()],
        }
    )


def grouped_quantiles(ds, group_col: str, col: str, qs: Sequence[float]):
    """Per-group exact quantiles, same histogram plan as
    ``exact_quantiles``: (group, value, count) partials -> bucketed
    merge keyed on (group, value) -> per-group cumulative walk.  The
    final walk runs distributed (one :func:`exchange` on the group over
    count rows, :func:`_quantile_walk` per partition), so the driver never
    sees more than the result."""
    qs = list(qs)

    def partial(batch: pa.Table) -> pa.Table:
        # drop_null keeps SQL aggregate semantics (NULL rows ignored);
        # Arrow group_by would otherwise emit a null-key group the old
        # pandas groupby silently dropped
        res = (
            batch.select([group_col, col])
            .drop_null()
            .group_by([group_col, col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                group_col: res.column(group_col),
                col: res.column(col),
                "cnt": res.column("count_all").cast(pa.int64()),
            }
        )

    counts = bucketed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), [group_col, col], {"cnt": "sum"}
    )
    return exchange(
        counts, [group_col], lambda g: _quantile_walk(g, group_col, col, qs), batch_format="pandas"
    )


def exact_quantiles(ds, col: str, qs: Sequence[float]):
    """EXACT distributed quantiles for a bounded-domain column
    (integer measures: token counts, lengths, pixel values).

    Histogram plan — never a global sort: each batch emits
    (value, count) partials (``np.unique``), a bucketed merge sums
    counts per distinct value, and the driver walks the cumulative
    distribution (rows = distinct VALUES, bounded by the domain — a
    token-count column has ~10^4 distinct values at any row scale, so
    the driver combine is O(domain), not O(rows)).

    Returns a pandas DataFrame (q, value) using SQL
    ``percentile_disc`` semantics: the smallest value whose cumulative
    count fraction is >= q.
    """
    qs = list(qs)

    def partial(batch: pa.Table) -> pa.Table:
        # NULL rows are ignored, as by SQL aggregates
        vals, cnts = np.unique(
            batch.column(col).drop_null().to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table({col: pa.array(vals), "cnt": pa.array(cnts.astype(np.int64))})

    counts = bucketed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), [col], {"cnt": "sum"}
    ).to_pandas()
    counts = counts.sort_values(col)
    vals = percentile_disc(counts[col].to_numpy(), counts["cnt"].to_numpy(), qs)
    return pd.DataFrame({"q": [float(q) for q in qs] if len(vals) else [], col: vals})
