"""Local stand-in for the driver's correctness gate: run every
queries() entry AND its oracle_sql() twin over the same sf dir,
compare row count, column names, and an order-insensitive value hash.
Every OK / FAIL / ROWS line ends with the engine result's value hash,
so two runs (e.g. before and after a change) can be diffed line by line.

Usage: python scripts/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if hasattr(obj, "to_pandas"):
        return obj.to_pandas()
    raise TypeError(type(obj))


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    # a list, not a set: duplicate rows must contribute their
    # multiplicity so fan-out bugs in joins can't hash equal
    rows = []
    for tup in df.itertuples(index=False, name=None):
        canon = []
        for v in tup:
            if isinstance(v, float):
                canon.append(f"{v:.9g}")
            elif isinstance(v, (np.floating,)):
                canon.append(f"{float(v):.9g}")
            elif isinstance(v, (np.integer,)):
                canon.append(str(int(v)))
            else:
                canon.append(str(v))
        rows.append("\x1f".join(canon))
    h = hashlib.blake2b(digest_size=12)
    for r in sorted(rows):
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, ".")
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            failures.append(name)
            print(f"FAIL  {name}: ray error: {type(e).__name__}: {e}")
            continue
        dt = time.time() - t0
        mine_hash = value_hash(mine)
        sql = oracles.get(name)
        if sql is None:
            print(
                f"ROWS  {name}: {len(mine)} rows, cols={sorted(mine.columns)} ({dt:.1f}s) [no oracle]"
                f" value_hash={mine_hash}"
            )
            continue
        try:
            ref = con.execute(sql).fetchdf()
        except Exception as e:
            failures.append(name)
            print(f"FAIL  {name}: sql error: {e} value_hash={mine_hash}")
            continue
        ok_rows = len(mine) == len(ref)
        ok_cols = sorted(mine.columns) == sorted(ref.columns)
        ok_hash = ok_cols and mine_hash == value_hash(ref)
        status = "OK  " if (ok_rows and ok_cols and ok_hash) else "FAIL"
        if status == "FAIL":
            failures.append(name)
        print(
            f"{status}  {name}: rows {len(mine)}/{len(ref)} cols_ok={ok_cols} hash_ok={ok_hash} ({dt:.1f}s)"
            f" value_hash={mine_hash}"
        )
        if status == "FAIL" and ok_cols:
            m = mine.sort_values(sorted(mine.columns)).head(5)
            r = ref.sort_values(sorted(ref.columns)).head(5)
            print("  mine:\n", m.to_string(), "\n  ref:\n", r.to_string())

    ray.shutdown()
    if failures:
        print("FAILURES:", failures)
        sys.exit(1)
    print("all queries consistent")


if __name__ == "__main__":
    main()
