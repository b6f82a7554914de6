"""``ray job submit`` entrypoint for the end-to-end corpus cleaning
pipeline (filter -> exact dedup -> MinHash-LSH near-dup with exact
Jaccard verify -> anti join), the text twin of ``jobs.flagship``.

    ray job submit --working-dir . -- \
        python -m gdal_boots_ray.jobs.corpus_clean \
        --docs /data/corpus --out /shared/clean_corpus

- ``--docs`` is a directory containing ``documents.parquet``
  (columns ``doc_id``, ``text``) — the input_hint caption/text shape.
- the cleaned-survivor checkpoint lives under ``--out/checkpoint``
  (atomic tmp+rename publish, the resume unit: a rerun with the same
  params skips the whole filter+dedup lineage), and the final clean
  corpus streams to ``--out/clean`` as partitioned parquet.
- attaches to the cluster the job server provides (RAY_ADDRESS inside
  ``ray job submit`` containers; local session for smoke runs).
- exits non-zero on failure so the job runner reports it.
"""

from __future__ import annotations

import argparse
import json
import os
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="corpus cleaning job")
    ap.add_argument("--docs", required=True, help="dir containing documents.parquet")
    ap.add_argument("--out", required=True, help="CLUSTER-SHARED output root")
    ap.add_argument("--min-tokens", type=int, default=5)
    ap.add_argument("--jac-threshold", type=float, default=0.5)
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), include_dashboard=False)

    from gdal_boots_ray.pipelines.queries.text import q_corpus_clean

    t0 = time.perf_counter()
    clean = q_corpus_clean(
        args.docs,
        min_tokens=args.min_tokens,
        jac_threshold=args.jac_threshold,
        checkpoint_dir=os.path.join(args.out, "checkpoint"),
    )
    out_dir = os.path.join(args.out, "clean")
    clean.write_parquet(out_dir)
    import ray.data as rd

    n = rd.read_parquet(out_dir).count()
    print(
        json.dumps(
            {
                "job": "corpus_clean",
                "rows": int(n),
                "out": out_dir,
                "wall_s": round(time.perf_counter() - t0, 3),
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
