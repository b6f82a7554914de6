"""``ray job submit`` entrypoint for the flagship spatial-join +
tiling pipeline (north_rule operational form).

    ray job submit --working-dir . -- \
        python -m gdal_boots_ray.jobs.flagship \
        --images /data/images --out /shared/zonal_out --resume

- attaches to the cluster the job server provides (RAY_ADDRESS is set
  inside ``ray job submit`` containers; falls back to a local session
  for smoke runs)
- ``--resume`` routes through ``run_flagship_resumable``: the task
  that processes an input file writes that file's checkpoint partition
  with an atomic manifest under ``--out``, so a killed job replays only
  the files whose tasks had not finished
- without ``--resume`` the streaming plan runs end-to-end and writes
  the per-polygon aggregate as parquet under ``--out``
- exits non-zero on failure so the job runner reports it
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="flagship spatial-join + tiling job")
    ap.add_argument("--images", required=True, help="images table (parquet dir / lance)")
    ap.add_argument("--out", required=True, help="CLUSTER-SHARED output root")
    ap.add_argument("--cell-res", type=float, default=5000.0)
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument(
        "--resume",
        action="store_true",
        help="checkpointed run: each input file's task writes its own partition under --out",
    )
    ap.add_argument(
        "--chunk-files", type=int, default=4, help="with --resume: input files per Ray Data execution"
    )
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # inside `ray job submit` RAY_ADDRESS points at the cluster;
        # standalone smoke runs get a local session
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"), include_dashboard=False)

    from gdal_boots_ray.pipelines.flagship import (
        combine_zonal_partials,
        run_flagship,
        run_flagship_resumable,
    )

    t0 = time.perf_counter()
    if args.resume:
        result, summary = run_flagship_resumable(
            args.images,
            args.out,
            cell_res=args.cell_res,
            batch_size=args.batch_size,
            chunk_files=args.chunk_files,
        )
    else:
        stats = run_flagship(
            args.images, cell_res=args.cell_res, batch_size=args.batch_size
        )
        result = combine_zonal_partials(stats)
        os.makedirs(args.out, exist_ok=True)
        result.to_parquet(os.path.join(args.out, "zonal_agg.parquet"), index=False)
        summary = {"mode": "streaming", "out": args.out}
    wall = time.perf_counter() - t0
    out = {
        "job": "flagship",
        "rows": int(len(result)),
        "n_tiles": int(result["n_tiles"].sum()) if len(result) else 0,
        "wall_s": round(wall, 3),
    }
    # summary extras must not shadow the result fields above
    out.update(
        {k: v for k, v in summary.items() if k not in out and isinstance(v, (int, float, str, bool))}
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
