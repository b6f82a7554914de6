"""Per-stage throughput metrics -> run report (north_rule: "per-stage
throughput metrics emitted").

``run_with_report`` consumes a Dataset (to_pandas for small results or
a sink callback), reads Ray Data's structured stats summary into
per-operator metrics (wall seconds, rows, rows/s, UDF time), and
writes a JSON run report next to the output (or a given path)."""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Optional


def _operator_stats(summary) -> list:
    """Every operator of a stats summary, its ``parents`` included, so
    the inputs of a union or groupby still show up."""
    ops = list(summary.operators_stats)
    for parent in summary.parents:
        ops.extend(_operator_stats(parent))
    return ops


def stage_stats(ds) -> list:
    """Executed Dataset -> [{operator, wall_s, rows, rows_per_s, udf_s}]."""
    stages = []
    for op in _operator_stats(ds._get_stats_summary()):
        wall = op.time_total_s
        rows = op.output_num_rows["sum"] if op.output_num_rows else None
        stages.append(
            {
                "operator": op.operator_name[:100],
                "wall_s": wall,
                "rows": rows,
                "rows_per_s": round(rows / wall, 2) if rows and wall > 0 else None,
                "udf_s": round(op.udf_time["sum"], 3) if op.udf_time else None,
            }
        )
    return stages


def run_with_report(ds, report_path: str, consume: Optional[Callable] = None, extra: Optional[dict] = None):
    """Execute the dataset, write the per-stage report, return the
    consumed result (default: to_pandas)."""
    t0 = time.perf_counter()
    result = consume(ds) if consume is not None else ds.to_pandas()
    wall = time.perf_counter() - t0
    report = {
        "wall_s": round(wall, 3),
        "stages": stage_stats(ds),
        "extra": extra or {},
    }
    os.makedirs(os.path.dirname(report_path) or ".", exist_ok=True)
    tmp = report_path + ".tmp"
    with open(tmp, "w") as fd:
        json.dump(report, fd, indent=1)
    os.replace(tmp, report_path)
    return result
