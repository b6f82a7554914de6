"""Event-stream queries (windows, sessions, funnels, as-of and range
joins) and the order-table checks: the four relational queries (one per
exchange primitive), price quantiles and approximate distinct counts."""

from __future__ import annotations

from typing import Dict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from gdal_boots_ray.stages.agg import exchange, key_runs

from ._common import _read


ORACLE_SQL: Dict[str, str] = {}


def q_price_quantiles(sf_dir: str):
    """Interpolated percentile_cont over an unbounded float column —
    the three-pass histogram-refine plan (min/max pass, fixed-range
    histogram, filtered candidate-bucket collect); no global sort."""

    from gdal_boots_ray.stages.agg import continuous_quantiles

    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    out = continuous_quantiles(orders, "o_totalprice", [0.25, 0.5, 0.75, 0.95])
    out["o_totalprice"] = np.round(out["o_totalprice"], 4)
    return out


ORACLE_SQL["price_quantiles"] = """
        SELECT CAST(0.25 AS DOUBLE) AS q,
               round(CAST(percentile_cont(0.25) WITHIN GROUP (ORDER BY o_totalprice) AS DOUBLE), 4) AS o_totalprice
        FROM orders
        UNION ALL
        SELECT CAST(0.5 AS DOUBLE),
               round(CAST(percentile_cont(0.5) WITHIN GROUP (ORDER BY o_totalprice) AS DOUBLE), 4) FROM orders
        UNION ALL
        SELECT CAST(0.75 AS DOUBLE),
               round(CAST(percentile_cont(0.75) WITHIN GROUP (ORDER BY o_totalprice) AS DOUBLE), 4) FROM orders
        UNION ALL
        SELECT CAST(0.95 AS DOUBLE),
               round(CAST(percentile_cont(0.95) WITHIN GROUP (ORDER BY o_totalprice) AS DOUBLE), 4) FROM orders
    """


def q_approx_distinct(sf_dir: str):
    """HyperLogLog count-distinct vs the exact distributed count, for
    an int key (orders.o_custkey) and a string domain (distinct words
    in documents).  ``exact_distinct`` is hash-checked against
    DuckDB's count(DISTINCT ..); ``ok`` asserts the HLL estimate
    within 5% (~3 sigma at p=12) — the sketch's contract, since the
    estimate itself is implementation-defined."""
    from gdal_boots_ray.kernels.text import _WORD_RE
    from gdal_boots_ray.stages.agg import approx_count_distinct, bucketed_aggregate

    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    est_cust = approx_count_distinct(orders, "o_custkey")
    exact_cust = bucketed_aggregate(orders, ["o_custkey"], {"n": "count"}).count()

    docs = _read(f"{sf_dir}/documents.parquet", columns=["text"])

    def words(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for t in batch["text"]:
            out.extend(set(_WORD_RE.findall(t.lower())))
        return pd.DataFrame({"word": pd.Series(out, dtype=str)})

    word_ds = docs.map_batches(words, batch_format="pandas")
    est_words = approx_count_distinct(word_ds, "word")
    exact_words = bucketed_aggregate(word_ds, ["word"], {"n": "count"}).count()

    return pd.DataFrame(
        {
            "metric": ["o_custkey", "word"],
            "exact_distinct": np.array([exact_cust, exact_words], dtype=np.int64),
            "ok": [
                abs(est_cust / max(exact_cust, 1) - 1.0) < 0.05,
                abs(est_words / max(exact_words, 1) - 1.0) < 0.05,
            ],
        }
    )


ORACLE_SQL["approx_distinct"] = """
        SELECT 'o_custkey' AS metric,
               CAST(count(DISTINCT o_custkey) AS BIGINT) AS exact_distinct,
               CAST(true AS BOOLEAN) AS ok
        FROM orders
        UNION ALL
        SELECT 'word',
               CAST(count(DISTINCT w) AS BIGINT),
               CAST(true AS BOOLEAN)
        FROM (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9'']+')) AS w FROM documents)
    """


def _event_gaps(g: pd.DataFrame) -> pd.DataFrame:
    """event_gaps' bucket body: per user in (ts, event_id) order, the
    gap to the previous event and the mean of the last 3 values (the
    grouped diff and rolling mean compute each user exactly as a
    one-user frame would)."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort").reset_index(drop=True)
    by_user = g.groupby("user_id", sort=False)
    gap = by_user["ts"].diff().dt.total_seconds()
    mavg = by_user["value"].rolling(3, min_periods=1).mean()
    out = pd.DataFrame(
        {
            "event_id": g["event_id"].to_numpy().astype(np.int64),
            "user_id": g["user_id"].to_numpy().astype(np.int64),
            "gap_s": np.round(gap.to_numpy(), 6),
            "mavg3": np.round(mavg.to_numpy(), 6),
        }
    )
    return out[~np.isnan(out["gap_s"].to_numpy())]


def q_event_gaps(sf_dir: str):
    """Window navigation functions (LAG + a ROWS-frame moving
    average) as a distributed composition: co-partition on user_id,
    per-group ordered diff + rolling mean — one shuffle total, same
    partitioning contract as sessionize.  First event per user is
    dropped (its gap is NULL in SQL)."""
    ds = _read(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])
    return exchange(ds, ["user_id"], _event_gaps, batch_format="pandas")


ORACLE_SQL["event_gaps"] = """
        WITH w AS (
            SELECT CAST(event_id AS BIGINT) AS event_id,
                   CAST(user_id AS BIGINT) AS user_id,
                   round(CAST(date_diff('microsecond',
                         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts)
                         AS DOUBLE) / 1000000, 6) AS gap_s,
                   round(avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS mavg3
            FROM events
        )
        SELECT * FROM w WHERE gap_s IS NOT NULL
    """


def _run_cumsum(v: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``np.cumsum`` restarted at every run, bit for bit: runs of one
    power-of-two width class are padded into the rows of one matrix
    and accumulated along the row (the same left-to-right additions a
    per-run ``np.cumsum`` makes), one pass per width class."""
    out = np.empty(len(v), np.float64)
    width = 1 << np.ceil(np.log2(np.maximum(lens, 1))).astype(np.int64)
    for w in np.unique(width):
        sel = width == w
        idx = starts[sel, None] + np.arange(w)
        inside = np.arange(w) < lens[sel, None]
        acc = np.add.accumulate(np.where(inside, v[np.where(inside, idx, 0)], 0.0), axis=1)
        out[idx[inside]] = acc[inside]
    return out


def _running_total(g: pd.DataFrame) -> pd.DataFrame:
    """running_total's bucket body: one sort by (user_id, ts,
    event_id), then every user's row number and running sum."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    starts, lens = key_runs(g["user_id"].to_numpy())
    return pd.DataFrame(
        {
            "event_id": g["event_id"].to_numpy().astype(np.int64),
            "user_id": g["user_id"].to_numpy().astype(np.int64),
            "rn": np.arange(len(g), dtype=np.int64) - np.repeat(starts, lens) + 1,
            "run_total": np.round(_run_cumsum(g["value"].to_numpy(), starts, lens), 6),
        }
    )


def q_running_total(sf_dir: str):
    """Cumulative window aggregate (SUM OVER ... ROWS UNBOUNDED
    PRECEDING) — the running-total shape that completes the window
    family next to tumbling/sliding/session/LAG: co-partition on
    user_id (the same single-shuffle contract as sessionize and
    event_gaps), per-group deterministic (ts, event_id) order, then a
    vectorized cumulative sum + running row count."""
    ds = _read(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"])
    return exchange(ds, ["user_id"], _running_total, batch_format="pandas")


ORACLE_SQL["running_total"] = """
        SELECT CAST(event_id AS BIGINT) AS event_id,
               CAST(user_id AS BIGINT) AS user_id,
               CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn,
               round(SUM(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING), 6) AS run_total
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
    """


def q_events_window(sf_dir: str):
    """Tumbling 5-min windows per event type.  Window count is
    unbounded over time (one group per window per type), so this uses
    the partial-per-batch + bucketed-final combine from
    ``stages.agg`` — a bare ``groupby.aggregate`` sort-reduces per
    tiny group, which is pathological at stream scale."""

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ev = _read(f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"])

    def win(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "win": pa.array(us // 300_000_000, pa.int64()),
                # named for the aggregate output (bucketed_aggregate
                # aggregates a column into itself)
                "sum_value": batch.column("value").cast(pa.float64()),
            }
        )

    agg = bucketed_aggregate(
        ev.map_batches(win, batch_format="pyarrow"),
        ["event_type", "win"],
        {"n_events": "count", "sum_value": "sum"},
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "win": batch.column("win").cast(pa.int64()),
                "n_events": batch.column("n_events").cast(pa.int64()),
                "sum_value": pc.round(batch.column("sum_value").cast(pa.float64()), 6),
            }
        )

    return agg.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["events_window"] = """
        SELECT event_type, CAST(epoch_us(ts) // 300000000 AS BIGINT) AS win,
               CAST(count(*) AS BIGINT) AS n_events,
               round(CAST(sum(value) AS DOUBLE), 6) AS sum_value
        FROM events GROUP BY 1, 2
    """


def q_events_sliding(sf_dir: str):
    """Sliding windows (size 10 min, hop 5 min): each event lands in
    exactly two windows; per-batch fan-out + bucketed final combine.
    Completes the window family (tumbling / sliding / session)."""

    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ev = _read(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def fanout(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy()
        w0 = (us // 300_000_000) * 300  # seconds, hop-aligned
        vals = batch.column("value").to_numpy()
        win = np.concatenate([w0, w0 - 300])
        return pa.table(
            {
                "win": pa.array(win, pa.int64()),
                # named for the aggregate output (bucketed_aggregate
                # aggregates a column into itself)
                "sum_value": pa.array(np.concatenate([vals, vals]), pa.float64()),
            }
        )

    agg = bucketed_aggregate(ev.map_batches(fanout, batch_format="pyarrow"), ["win"], {"n_events": "count", "sum_value": "sum"})

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "win": batch.column("win").cast(pa.int64()),
                "n_events": batch.column("n_events").cast(pa.int64()),
                "sum_value": pc.round(batch.column("sum_value").cast(pa.float64()), 6),
            }
        )

    return agg.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["events_sliding"] = """
        WITH fan AS (
            SELECT (epoch_us(ts) // 300000000) * 300 - 300 * off.k AS win, value
            FROM events, (SELECT unnest(generate_series(0, 1)) AS k) off
        )
        SELECT CAST(win AS BIGINT) AS win, CAST(count(*) AS BIGINT) AS n_events,
               round(CAST(sum(value) AS DOUBLE), 6) AS sum_value
        FROM fan GROUP BY 1
    """


def _custkey_to_nation_name(sf_dir: str) -> np.ndarray:
    """Dense custkey -> nation-name object array (vectorized fancy-
    index attach; no per-row dict lookups in the hot stage).  Small
    side: one entry per customer, broadcast once via ray.put."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    ck = cust.column("c_custkey").to_numpy().astype(np.int64)
    nk = cust.column("c_nationkey").to_numpy().astype(np.int64)
    nid = nat.column("n_nationkey").to_numpy().astype(np.int64)
    names = np.empty(int(nid.max()) + 1, dtype=object)
    names[nid] = np.array(nat.column("n_name").to_pylist(), dtype=object)
    lookup = np.empty(int(ck.max()) + 1, dtype=object)
    lookup[ck] = names[nk]
    return lookup


def q_top_orders_per_nation(sf_dir: str, k: int = 3):
    """Group-wise top-k (the SQL ``ROW_NUMBER() OVER (PARTITION BY
    ...) <= k`` window) without a global sort: broadcast
    customer->nation attach, then ``grouped_top_k`` — per-batch
    partial top-k so the shuffle moves <= k rows per (nation, batch),
    bucketed final merge.  Deterministic under price ties via the
    o_orderkey tie-break."""
    import ray

    from gdal_boots_ray.stages.agg import grouped_top_k

    lookup_ref = ray.put(_custkey_to_nation_name(sf_dir))

    orders = _read(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    class AttachNation:
        def __init__(self):
            self.lookup = ray.get(lookup_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ck = batch.column("o_custkey").to_numpy()
            return batch.append_column("n_name", pa.array(self.lookup[ck]))

    attached = orders.map_batches(AttachNation, batch_format="pyarrow", concurrency=(1, 4))
    top = grouped_top_k(
        attached, ["n_name"], "o_totalprice", k, descending=True, tie_cols=["o_orderkey"]
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": batch.column("n_name"),
                "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "o_custkey": batch.column("o_custkey").cast(pa.int64()),
                "o_totalprice": batch.column("o_totalprice").cast(pa.float64()),
            }
        )

    return top.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["top_orders_per_nation"] = """
        WITH j AS (
            SELECT n.n_name, o.o_orderkey, o.o_custkey, o.o_totalprice,
                   ROW_NUMBER() OVER (
                       PARTITION BY n.n_name
                       ORDER BY o.o_totalprice DESC, o.o_orderkey
                   ) AS rn
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
        )
        SELECT n_name, CAST(o_orderkey AS BIGINT) AS o_orderkey,
               CAST(o_custkey AS BIGINT) AS o_custkey,
               CAST(o_totalprice AS DOUBLE) AS o_totalprice
        FROM j WHERE rn <= 3
    """


def q_revenue_by_segment(sf_dir: str):
    """Two-large-sides relational equi-join with NO broadcast: orders
    and customer co-shuffle once through the bucketed
    ``hash_join``, then a partial+bucketed aggregate by market
    segment.  The shape that survives both sides at 10^9 rows."""

    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.joins import hash_join

    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    cust = _read(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])

    def key_o(batch: pa.Table) -> pa.Table:
        # the price column is pre-named 'revenue' so the aggregate's
        # output name needs no extra rename pass
        return pa.table(
            {"custkey": batch.column("o_custkey").cast(pa.int64()), "revenue": batch.column("o_totalprice")}
        )

    def key_c(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"custkey": batch.column("c_custkey").cast(pa.int64()), "c_mktsegment": batch.column("c_mktsegment")}
        )

    joined = hash_join(
        orders.map_batches(key_o, batch_format="pyarrow"),
        cust.map_batches(key_c, batch_format="pyarrow"),
        on="custkey",
        left_cols=["revenue"],
        right_cols=["c_mktsegment"],
    )
    agg = bucketed_aggregate(
        joined, ["c_mktsegment"], {"revenue": "sum", "n_orders": "count"}
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_mktsegment": batch.column("c_mktsegment"),
                "revenue": pc.round(batch.column("revenue").cast(pa.float64()), 2),
                "n_orders": batch.column("n_orders").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


ORACLE_SQL["revenue_by_segment"] = """
        SELECT c.c_mktsegment,
               round(CAST(sum(o.o_totalprice) AS DOUBLE), 2) AS revenue,
               CAST(count(*) AS BIGINT) AS n_orders
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY c.c_mktsegment
    """


def q_customer_order_counts(sf_dir: str):
    """Distributed LEFT OUTER join: every customer with its order
    count and total spend — zero / null-coalesced for customers with
    no orders (the rows an inner join silently drops).  The orders
    side pre-aggregates per custkey with ``bucketed_aggregate`` so
    the join's right side is one row per customer, then the same
    bucketed co-shuffle as the inner/semi/anti family pads unmatched
    left rows with nulls."""

    from gdal_boots_ray.stages.agg import bucketed_aggregate
    from gdal_boots_ray.stages.joins import hash_join

    cust = _read(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def key_c(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": batch.column("c_custkey").cast(pa.int64()),
                "c_mktsegment": batch.column("c_mktsegment"),
            }
        )

    def key_o(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": batch.column("o_custkey").cast(pa.int64()),
                "n_orders": pa.array(np.ones(batch.num_rows, np.int64)),
                "spent": batch.column("o_totalprice").cast(pa.float64()),
            }
        )

    per_cust = bucketed_aggregate(
        orders.map_batches(key_o, batch_format="pyarrow"),
        ["custkey"],
        {"n_orders": "sum", "spent": "sum"},
    )
    out = hash_join(
        cust.map_batches(key_c, batch_format="pyarrow"),
        per_cust,
        on="custkey",
        left_cols=["c_mktsegment"],
        right_cols=["n_orders", "spent"],
        how="left",
    )

    def cast(batch: pa.Table) -> pa.Table:
        n = batch.column("n_orders")
        s = batch.column("spent").cast(pa.float64())
        return pa.table(
            {
                "custkey": batch.column("custkey").cast(pa.int64()),
                "c_mktsegment": batch.column("c_mktsegment").cast(pa.string()),
                "n_orders": pc.fill_null(n.cast(pa.int64()), 0),
                "spent": pc.round(pc.fill_null(s, 0.0), 2),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["customer_order_counts"] = """
        WITH per_cust AS (
            SELECT o_custkey AS custkey, CAST(count(*) AS BIGINT) AS n_orders,
                   sum(o_totalprice) AS spent
            FROM orders GROUP BY o_custkey
        )
        SELECT CAST(c.c_custkey AS BIGINT) AS custkey, c.c_mktsegment,
               COALESCE(p.n_orders, 0) AS n_orders,
               round(COALESCE(p.spent, 0.0), 2) AS spent
        FROM customer c LEFT JOIN per_cust p ON c.c_custkey = p.custkey
    """


def q_customers_with_big_orders(sf_dir: str, min_price: float = 420000.0):
    """Distributed SEMI join (the EXISTS shape): customers having at
    least one order above ``min_price`` — left rows pass at most
    once regardless of match multiplicity."""
    import pyarrow.compute as _pc

    from gdal_boots_ray.stages.joins import hash_join

    cust = _read(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    orders = _read(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=_pc.field("o_totalprice") > min_price,
    )

    def key_c(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"custkey": batch.column("c_custkey").cast(pa.int64()), "c_mktsegment": batch.column("c_mktsegment")}
        )

    def key_o(batch: pa.Table) -> pa.Table:
        return pa.table({"custkey": batch.column("o_custkey").cast(pa.int64())})

    out = hash_join(
        cust.map_batches(key_c, batch_format="pyarrow"),
        orders.map_batches(key_o, batch_format="pyarrow"),
        on="custkey",
        left_cols=["c_mktsegment"],
        right_cols=[],
        how="semi",
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": batch.column("custkey").cast(pa.int64()),
                "c_mktsegment": batch.column("c_mktsegment").cast(pa.string()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["customers_with_big_orders"] = """
        SELECT CAST(c.c_custkey AS BIGINT) AS custkey, c.c_mktsegment
        FROM customer c
        WHERE EXISTS (
            SELECT 1 FROM orders o
            WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 420000.0
        )
    """


def q_asof_join(sf_dir: str):
    """AS-OF join over the events stream: every 'error' event matched
    to the latest prior 'click' of the same user — the temporal join
    the brief's custom-operator list names; the DuckDB oracle uses the
    native ASOF JOIN operator (an independent implementation)."""

    from gdal_boots_ray.stages.joins import asof_join

    ev = _read(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type", "value"])

    def split(batch: pa.Table, etype: str) -> pa.Table:
        m = pc.equal(batch.column("event_type"), etype)
        return batch.filter(m)

    errors = ev.map_batches(lambda b: split(b, "error"), batch_format="pyarrow")
    clicks = ev.map_batches(lambda b: split(b, "click"), batch_format="pyarrow")
    out = asof_join(
        errors,
        clicks,
        by_col="user_id",
        ts_col="ts",
        left_cols=["event_id"],
        right_cols=["value"],
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "event_id": batch.column("event_id").cast(pa.int64()),
                "click_value": pc.round(batch.column("value").cast(pa.float64()), 6),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["asof_join"] = """
        SELECT CAST(e.user_id AS BIGINT) AS user_id,
               CAST(e.event_id AS BIGINT) AS event_id,
               round(CAST(c.value AS DOUBLE), 6) AS click_value
        FROM (SELECT * FROM events WHERE event_type = 'error') e
        ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
          ON e.user_id = c.user_id AND e.ts >= c.ts
    """


def q_range_join(sf_dir: str):
    """RANGE join: every order joined to the nation-derived price
    bands containing its o_totalprice (lo <= p < hi) — both sides
    stream through the 1-D cell co-shuffle; quadratic BETWEEN oracle."""

    from gdal_boots_ray.stages.joins import interval_join

    orders = _read(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    bands = _read(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])

    def to_bands(batch: pa.Table) -> pa.Table:
        n = batch.column("n_nationkey").to_numpy().astype(np.int64)
        lo = n * 37000.0
        hi = lo + 29000.0 + (n % 5) * 13000.0
        return pa.table(
            {
                "iv_id": pa.array(n, pa.int64()),
                "lo": pa.array(lo, pa.float64()),
                "hi": pa.array(hi, pa.float64()),
            }
        )

    out = interval_join(
        orders,
        bands.map_batches(to_bands, batch_format="pyarrow"),
        val_col="o_totalprice",
        point_key_col="o_orderkey",
        iv_key_col="iv_id",
        lo_col="lo",
        hi_col="hi",
        cell_width=25000.0,
    )

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "iv_id": batch.column("iv_id").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["range_join"] = """
        WITH bands AS (
            SELECT CAST(n_nationkey AS BIGINT) AS iv_id,
                   n_nationkey * 37000.0 AS lo,
                   n_nationkey * 37000.0 + 29000.0 + (n_nationkey % 5) * 13000.0 AS hi
            FROM nation
        )
        SELECT CAST(o_orderkey AS BIGINT) AS o_orderkey, iv_id
        FROM orders, bands
        WHERE o_totalprice >= lo AND o_totalprice < hi
    """


def _sessions(g: pd.DataFrame, gap_us: int) -> pd.DataFrame:
    """sessionize's bucket body: one sort by (user_id, ts); a user's
    first event or a gap > ``gap_us`` opens a session; sessions are
    numbered from 1 per user and summed per (user, session)."""
    g = g.sort_values(["user_id", "ts"], kind="mergesort")
    starts, lens = key_runs(g["user_id"].to_numpy())
    us = g["ts"].astype("int64").to_numpy()
    new = np.ones(len(us), dtype=np.int64)
    new[1:] = (np.diff(us) > gap_us).astype(np.int64)
    new[starts] = 1
    sid = np.cumsum(new)
    sid -= np.repeat(sid[starts] - 1, lens)  # integers: restarting is exact
    d = pd.DataFrame({"user_id": g["user_id"].to_numpy(), "sid": sid, "value": g["value"].to_numpy()})
    agg = d.groupby(["user_id", "sid"]).agg(n_events=("value", "size"), sum_value=("value", "sum")).reset_index()
    agg["sum_value"] = agg["sum_value"].round(6)
    return agg[["user_id", "sid", "n_events", "sum_value"]].astype(
        {"user_id": "int64", "sid": "int64", "n_events": "int64"}
    )


def q_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows per user (gap > 30 min starts a new session) —
    the streaming-shaped operator; ordering within a group is explicit
    (sort by ts inside each partition, never block order)."""
    ev = _read(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    return exchange(ev, ["user_id"], lambda g: _sessions(g, gap_minutes * 60 * 1_000_000), batch_format="pandas")


ORACLE_SQL["sessionize"] = """
        WITH ev AS (
            SELECT user_id, ts, value,
                CASE WHEN lag(ts) OVER w IS NULL
                     OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800000000
                     THEN 1 ELSE 0 END AS new_s
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts)
        ),
        s AS (
            SELECT user_id, value,
                   sum(new_s) OVER (PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING) AS sid
            FROM ev
        )
        SELECT CAST(user_id AS BIGINT) AS user_id, CAST(sid AS BIGINT) AS sid,
               CAST(count(*) AS BIGINT) AS n_events,
               round(CAST(sum(value) AS DOUBLE), 6) AS sum_value
        FROM s GROUP BY 1, 2
    """


def _funnel(g: pd.DataFrame) -> pd.DataFrame:
    """event_funnel's bucket body: one sort by user_id, then per step
    a segmented min over the user's qualifying events (-1: none)."""
    g = g.sort_values("user_id", kind="mergesort")
    starts, lens = key_runs(g["user_id"].to_numpy())
    t = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    et = g["event_type"].to_numpy()
    big = np.iinfo(np.int64).max

    def step(kind, after):
        m = (et == kind) & (t > np.repeat(after, lens))
        first = np.minimum.reduceat(np.where(m, t, big), starts)
        return np.where(first == big, -1, first)

    t1 = step("signup", np.full(len(starts), np.iinfo(np.int64).min))
    t2 = np.where(t1 >= 0, step("click", t1), -1)
    t3 = np.where(t2 >= 0, step("purchase", t2), -1)
    return pd.DataFrame(
        {
            "user_id": g["user_id"].to_numpy()[starts].astype(np.int64),
            "depth": (t1 >= 0).astype(np.int64) + (t2 >= 0) + (t3 >= 0),
            "t1_us": t1,
            "t2_us": t2,
            "t3_us": t3,
        }
    )


def q_event_funnel(sf_dir: str):
    """Ordered funnel analysis (the product-analytics sequence match:
    signup -> click -> purchase, each step STRICTLY after the
    previous one): per user, the funnel depth reached (0-3) and the
    microsecond timestamp of each completed step (-1 sentinel keeps
    the row integer-typed instead of NULL).  Step k's timestamp is
    the MINIMUM qualifying time given step k-1 — the standard
    earliest-completion funnel semantics.  Plan: one user-key
    exchange, per-user groups are tiny; integers end to end."""
    ds = _read(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])
    return exchange(ds, ["user_id"], _funnel, batch_format="pandas")


ORACLE_SQL["event_funnel"] = """
        WITH e AS (SELECT user_id, event_type, epoch_us(ts) AS t FROM events),
        s1 AS (SELECT user_id, min(t) AS t1 FROM e WHERE event_type = 'signup' GROUP BY user_id),
        s2 AS (
            SELECT e.user_id, min(t) AS t2 FROM e JOIN s1 USING (user_id)
            WHERE event_type = 'click' AND t > s1.t1 GROUP BY e.user_id
        ),
        s3 AS (
            SELECT e.user_id, min(t) AS t3 FROM e JOIN s2 USING (user_id)
            WHERE event_type = 'purchase' AND t > s2.t2 GROUP BY e.user_id
        ),
        u AS (SELECT DISTINCT user_id FROM e)
        SELECT CAST(u.user_id AS BIGINT) AS user_id,
               CAST(CASE WHEN t3 IS NOT NULL THEN 3 WHEN t2 IS NOT NULL THEN 2
                         WHEN t1 IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) AS depth,
               CAST(coalesce(t1, -1) AS BIGINT) AS t1_us,
               CAST(coalesce(t2, -1) AS BIGINT) AS t2_us,
               CAST(coalesce(t3, -1) AS BIGINT) AS t3_us
        FROM u LEFT JOIN s1 USING (user_id) LEFT JOIN s2 USING (user_id)
               LEFT JOIN s3 USING (user_id)
    """


def _cohort_weeks(g: pd.DataFrame) -> pd.DataFrame:
    """cohort_retention's bucket body: one (cohort_week, week_k, 1) row
    per active week of each user, weeks counted from the user's first
    day."""
    g = g.sort_values("user_id", kind="mergesort")
    starts, lens = key_runs(g["user_id"].to_numpy())
    d = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // 86_400_000_000
    d0 = np.repeat(np.minimum.reduceat(d, starts), lens)
    user = np.repeat(np.arange(len(starts)), lens)
    wk = (d - d0) // 7
    first = np.unique(np.stack([user, wk], axis=1), axis=0, return_index=True)[1]
    return pd.DataFrame(
        {
            "cohort_week": (d0[first] // 7).astype(np.int64),
            "week_k": wk[first].astype(np.int64),
            "n_users": np.ones(len(first), np.int64),
        }
    )


def q_cohort_retention(sf_dir: str):
    """Weekly cohort retention — the product-analytics matrix
    (cohort_week x weeks-since-first-event -> distinct active users)
    behind every retention curve.  Plan: ONE user-key exchange
    (per-user groups are tiny) emits at most one (cohort_week,
    week_k) row per user-week — distinctness is by construction, so
    the final count is a bucketed SUM of 1s over a matrix-sized row
    set, never a count-distinct shuffle.  All integer (microsecond
    epochs, floor-divided into days then weeks), so the twin matches
    exactly."""
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    ds = _read(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    per_user = exchange(ds, ["user_id"], _cohort_weeks, batch_format="pandas")
    out = bucketed_aggregate(per_user, ["cohort_week", "week_k"], {"n_users": "sum"})

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cohort_week": batch.column("cohort_week").cast(pa.int64()),
                "week_k": batch.column("week_k").cast(pa.int64()),
                "n_users": batch.column("n_users").cast(pa.int64()),
            }
        )

    return out.map_batches(cast, batch_format="pyarrow")


ORACLE_SQL["cohort_retention"] = """
        WITH f AS (
            SELECT user_id,
                   CAST(epoch_us(min(ts)) AS BIGINT) // 86400000000 AS d0
            FROM events GROUP BY user_id
        ),
        a AS (
            SELECT DISTINCT e.user_id, f.d0 // 7 AS cohort_week,
                   (CAST(epoch_us(e.ts) AS BIGINT) // 86400000000 - f.d0) // 7 AS week_k
            FROM events e JOIN f USING (user_id)
        )
        SELECT CAST(cohort_week AS BIGINT) AS cohort_week,
               CAST(week_k AS BIGINT) AS week_k,
               CAST(count(*) AS BIGINT) AS n_users
        FROM a GROUP BY cohort_week, week_k
    """


def q_events_ntile(sf_dir: str, n_tiles_q: int = 4):
    """NTILE window function: per user, events ranked by
    (value, event_id) — the unique tie-break makes the bucket
    assignment deterministic — and dealt into 4 quartile buckets with
    SQL's NTILE sizing (first n % 4 buckets get the extra row);
    reduced to per-user per-quartile counts and value sums.  Runs as
    a bucketed per-user pass (users hash into a bounded number of
    groups, each group vectorized), never one Ray group per user."""
    ev = _read(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"])

    def ntile_counts(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["user_id", "value", "event_id"], kind="mergesort")
        uid = d["user_id"].to_numpy()
        # position within each user's ordered run
        starts, runlen = key_runs(uid)
        sizes = np.repeat(runlen, runlen)
        pos = np.arange(len(uid)) - np.repeat(starts, runlen)
        # SQL NTILE: first (n % k) buckets have ceil(n/k) rows
        k = n_tiles_q
        big = sizes % k
        per = sizes // k
        cut = big * (per + 1)
        tile = np.where(pos < cut, pos // np.maximum(per + 1, 1), big + (pos - cut) // np.maximum(per, 1)) + 1
        out = pd.DataFrame({"user_id": uid, "quartile": tile.astype(np.int64), "value": d["value"].to_numpy()})
        agg = out.groupby(["user_id", "quartile"], sort=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        ).reset_index()
        agg["sum_value"] = agg["sum_value"].round(6)
        return agg

    return exchange(ev, ["user_id"], ntile_counts, batch_format="pandas")


ORACLE_SQL["events_ntile"] = """
        WITH t AS (
            SELECT user_id, value,
                   ntile(4) OVER (PARTITION BY user_id ORDER BY value, event_id) AS quartile
            FROM events
        )
        SELECT CAST(user_id AS BIGINT) AS user_id,
               CAST(quartile AS BIGINT) AS quartile,
               CAST(count(*) AS BIGINT) AS n_events,
               round(sum(value), 6) AS sum_value
        FROM t GROUP BY 1, 2
    """
