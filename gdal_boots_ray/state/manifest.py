"""Resumable partitioned output with per-partition lineage manifests.

The north-star rule requires: "checkpoints per-partition lineage
(cell ranges, row counts, digest hashes) to resumable manifests so a
killed job replays only incomplete partitions".

Layout:
    out_dir/
      part=<key>/data.parquet        # written via temp file + atomic rename
      part=<key>/MANIFEST.json       # {key, rows, digest, cell_range, schema}
      _FINGERPRINT                   # what the partitions depend on besides their input
      _MANIFEST.json                 # run-level summary (after finalize)

``resume_plan`` anti-joins the partition keys against completed
manifests so a rerun only processes missing partitions; ``claim_run``
refuses a rerun whose fingerprint differs, so those partitions are
never another run's.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

import pyarrow as pa
import pyarrow.parquet as pq


def _partition_dir(out_dir: str, key) -> str:
    return os.path.join(out_dir, f"part={key}")


def completed_partitions(out_dir: str) -> Dict[str, dict]:
    """Partition key -> manifest for every finished partition."""
    done = {}
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        mpath = os.path.join(out_dir, name, "MANIFEST.json")
        if name.startswith("part=") and os.path.exists(mpath):
            with open(mpath) as fd:
                m = json.load(fd)
            done[name[len("part=") :]] = m
    return done


def read_partition(out_dir: str, key) -> Optional[pa.Table]:
    """The data of partition ``key`` once its manifest is written, else
    None."""
    pdir = _partition_dir(out_dir, key)
    if not os.path.exists(os.path.join(pdir, "MANIFEST.json")):
        return None
    return pq.read_table(os.path.join(pdir, "data.parquet"))


def claim_run(out_dir: str, fingerprint: str) -> None:
    """Record ``fingerprint`` — a digest of everything besides its input
    that a partition depends on — as ``out_dir``'s, or raise
    ``ValueError`` naming both if ``out_dir`` already holds another: a
    resume must not reuse partitions that answer another question.
    Partitions without a recorded fingerprint cannot be checked, so
    they are refused too."""
    path = os.path.join(out_dir, "_FINGERPRINT")
    if os.path.exists(path):
        with open(path) as fd:
            have = fd.read().strip()
        if have != fingerprint:
            raise ValueError(f"{out_dir} holds the partitions of run {have}, not of this run {fingerprint}")
        return
    if completed_partitions(out_dir):
        raise ValueError(f"{out_dir} holds partitions of a run with no fingerprint, not of this run {fingerprint}")
    os.makedirs(out_dir, exist_ok=True)
    with open(path + ".tmp", "w") as fd:
        fd.write(fingerprint)
    os.replace(path + ".tmp", path)


def resume_plan(out_dir: str, all_keys: Sequence) -> List:
    """Keys still to process (anti-join vs completed manifests)."""
    done = set(completed_partitions(out_dir))
    return [k for k in all_keys if str(k) not in done]


def table_digest(table: pa.Table) -> str:
    """Order-insensitive content digest: per-row hash xor over a
    canonical column order."""
    cols = sorted(table.column_names)
    h = 0
    # hash row tuples; cheap enough at partition granularity
    for batch in table.select(cols).to_batches():
        d = batch.to_pydict()
        n = batch.num_rows
        for i in range(n):
            row = tuple(str(d[c][i]) for c in cols)
            h ^= int.from_bytes(hashlib.blake2b("\x1f".join(row).encode(), digest_size=8).digest(), "little")
    return f"{h:016x}"


def write_partition(out_dir: str, key, table: pa.Table, cell_range: Optional[tuple] = None) -> dict:
    """Atomically write one partition + manifest; idempotent (skips if
    the manifest already exists — deterministic file names make retries
    safe, SURVEY §4)."""
    pdir = _partition_dir(out_dir, key)
    mpath = os.path.join(pdir, "MANIFEST.json")
    if os.path.exists(mpath):
        with open(mpath) as fd:
            return json.load(fd)
    os.makedirs(pdir, exist_ok=True)
    tmp = os.path.join(pdir, ".data.parquet.tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, os.path.join(pdir, "data.parquet"))
    manifest = {
        "key": str(key),
        "rows": table.num_rows,
        "digest": table_digest(table),
        "cell_range": list(cell_range) if cell_range else None,
        "columns": table.column_names,
    }
    tmpm = mpath + ".tmp"
    with open(tmpm, "w") as fd:
        json.dump(manifest, fd)
    os.replace(tmpm, mpath)
    return manifest


def finalize_run(out_dir: str, metrics: Optional[dict] = None) -> dict:
    parts = completed_partitions(out_dir)
    summary = {
        "partitions": len(parts),
        "rows": sum(m["rows"] for m in parts.values()),
        "metrics": metrics or {},
    }
    with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as fd:
        json.dump(summary, fd, indent=1)
    return summary


def write_partitioned(ds, out_dir: str, key_col: str, cell_col: Optional[str] = None):
    """Write a Dataset partitioned by ``key_col`` with manifests, via
    map_groups so each partition is written by the worker holding it
    (no driver materialization).  ``cell_col`` records the partition's
    cell-id range in its manifest (per-partition lineage)."""
    import pandas as pd

    def write_group(g: pd.DataFrame) -> pd.DataFrame:
        key = g[key_col].iloc[0]
        rng = None
        if cell_col is not None and cell_col in g.columns:
            rng = (int(g[cell_col].min()), int(g[cell_col].max()))
        m = write_partition(out_dir, key, pa.Table.from_pandas(g, preserve_index=False), cell_range=rng)
        return pd.DataFrame({"key": [str(key)], "rows": [m["rows"]], "digest": [m["digest"]]})

    return ds.groupby(key_col).map_groups(write_group, batch_format="pandas")
