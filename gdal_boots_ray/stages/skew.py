"""Skew-aware shuffles: salted cell keys (north_rule: "Skewed cells
(dense urban tiles) are handled by salted repartitioning and
groupby-aggregate shuffles keyed on cell id").

Pattern (SURVEY §4 skew row):
1. pre-pass: approximate per-cell row counts from per-batch partials
   (cheap — one tiny row per (batch, cell));
2. cells above ``hot_threshold`` get a salt fan-out
   ``cell -> (cell, phash % S)`` sized to the overload factor;
3. phase 1 groups by (cell, salt) — hot cells split into S balanced
   sub-groups; phase 2 merges the per-salt partials per cell (tiny).

Associative aggregations only (sum/count/min/max).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def cell_histogram(ds, cell_col: str = "cell") -> Dict[int, int]:
    """Approximate per-cell counts via per-batch partials (streamed to
    the driver; one row per (batch, cell))."""

    def partial(batch: pa.Table) -> pa.Table:
        cells, counts = np.unique(batch.column(cell_col).to_numpy(), return_counts=True)
        return pa.table({"cell": pa.array(cells, pa.int64()), "n": pa.array(counts, pa.int64())})

    out = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return out.groupby("cell")["n"].sum().to_dict()


def plan_salts(hist: Dict[int, int], hot_threshold: int, max_salt: int = 64) -> Dict[int, int]:
    """cell -> salt fan-out S (only for hot cells)."""
    return {
        int(c): int(min(max_salt, int(np.ceil(n / hot_threshold))))
        for c, n in hist.items()
        if n > hot_threshold
    }


def make_add_salted_cell(salts: Dict[int, int], cell_col: str = "cell", salt_source: str = "phash"):
    """Append ``cell_salted`` — hot cells fan out by a deterministic
    salt from ``salt_source`` (phash by default so replays salt
    identically); cold cells keep salt 0.  Encoded as
    cell * 64 + salt (max_salt <= 64)."""
    salts_ref = ray.put(salts)

    def fn(batch: pa.Table, _cache={}) -> pa.Table:
        s = _cache.get("s")
        if s is None:
            s = _cache["s"] = ray.get(salts_ref)
        cells = batch.column(cell_col).to_numpy()
        src = batch.column(salt_source).to_numpy()
        salt = np.zeros(len(cells), dtype=np.int64)
        for c, n in s.items():
            m = cells == c
            if m.any():
                salt[m] = src[m] % n
        return batch.append_column("cell_salted", pa.array(cells * 64 + salt, pa.int64()))

    return fn


def salted_cell_aggregate(ds, agg: Dict[str, str], cell_col: str = "cell", hot_threshold: int = 10_000,
                          salt_source: str = "phash"):
    """Two-phase skew-aware aggregate keyed on cell id.

    Phase 1 groups on the salted key (hot cells split), phase 2 merges
    salt shards per cell.  Returns Dataset keyed by ``cell``.
    """
    from gdal_boots_ray.stages.agg import bucketed_aggregate

    hist = cell_histogram(ds, cell_col)
    salts = plan_salts(hist, hot_threshold)
    salted = ds.map_batches(make_add_salted_cell(salts, cell_col, salt_source), batch_format="pyarrow")
    phase1 = bucketed_aggregate(salted, ["cell_salted"], agg)

    def unsalt(batch: pa.Table) -> pa.Table:
        cells = batch.column("cell_salted").to_numpy() // 64
        return batch.drop_columns(["cell_salted"]).append_column(
            cell_col, pa.array(cells, pa.int64())
        )

    second = {k: ("sum" if how in ("sum", "count") else how) for k, how in agg.items()}
    phase2 = bucketed_aggregate(
        phase1.map_batches(unsalt, batch_format="pyarrow"), [cell_col], second
    )
    return phase2
