"""Per-layer time of the fused flagship worker, in process, without Ray.

Usage:
    python scripts/layer_probe.py [--workload flagship_large_tiles] [--seed 901] [--passes 5] [--batch-size 32]

It takes a perfbench workload's seeded inputs through
``perfbench.workloads.prepare`` (generated on first use into the cache a
benchmark run uses, ``.perfbench/inputs``), slices every input file into
batches of ``--batch-size`` rows (perfbench's 32 by default) and runs
one ``FusedTileWorker`` over all of them ``--passes`` times.  Two runs
at different batch sizes split each layer into a fixed cost per worker
call and a cost per row.  Each layer is timed by wrapping the callable
the worker looks up at call time, so the probe runs unchanged on any
checkout that keeps those names:

- bounds: ``flagship.add_bounds``
- grid cell: the worker's ``cell_fn``
- lon/lat + S2: its ``lonlat_fn`` and ``s2_fn``
- join: its ``join``
- decode: ``png.decode_image`` (a raw tile is one slice copy, not decoded)
- zonal: ``_decode_zonal_rowwise`` less the decode time inside it
- fold: ``flagship._partial_zonal_agg``
- worker: the whole ``FusedTileWorker.__call__``

It prints each layer's median over the passes in µs per input row, then
the matched pairs, how many of them the polygon covers whole (interior,
counted with the one-tile ``_rings_cover_tile``) or not (boundary), the
``decode_image`` calls of one pass, and one sha256 digest of every
batch's join output and per-batch partials: two checkouts that print the
same digest produced the same tables (at the same batch size).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

LAYERS = ["bounds", "grid cell", "lon/lat + S2", "join", "decode", "zonal", "fold", "worker"]


def timed(acc: dict, calls: dict, name: str, fn):
    def run(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[name] += time.perf_counter_ns() - t0
            calls[name] += 1

    return run


def batches(images_dir: str, batch_size: int) -> list:
    import pyarrow.parquet as pq

    from gdal_boots_ray.pipelines.flagship import IMAGE_COLS, _input_files

    out = []
    for path in _input_files(images_dir):
        t = pq.read_table(path, columns=IMAGE_COLS)
        out.extend(t.slice(s, batch_size) for s in range(0, t.num_rows, batch_size))
    return out


def pair_classes(batch_list, packed) -> tuple:
    """(pairs, interior, boundary) of every batch's matched pairs, from
    the one-tile cover test, outside the timed passes."""
    import numpy as np

    from gdal_boots_ray.stages.geo import add_bounds
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin
    from gdal_boots_ray.stages.zonal import _rings_cover_tile

    join, rings = BroadcastPIPJoin(packed), dict(packed)
    pairs = interior = 0
    for batch in batch_list:
        m = join(add_bounds(batch))
        gts = np.array(m.column("gt").to_pylist(), np.float64).reshape(-1, 6)
        pids, hs, ws = (m.column(c).to_pylist() for c in ("poly_id", "h", "w"))
        for pid, h, w, gt in zip(pids, hs, ws, gts):
            pairs += 1
            interior += _rings_cover_tile(rings[pid], (h, w), gt)
    return pairs, interior, pairs - interior


def digest(worker, batch_list) -> str:
    """sha256 over the schema and values of every batch's join output
    and per-batch partials, in batch order, outside the timed passes."""
    import hashlib

    h = hashlib.sha256()

    def update(table):
        h.update(table.schema.to_string(show_schema_metadata=False).encode())
        h.update(repr(table.to_pydict()).encode())
        return table

    join = worker.join
    worker.join = lambda batch: update(join(batch))
    for batch in batch_list:
        update(worker(batch))
    return h.hexdigest()


def probe(workload: str, seed: int, passes: int, batch_size: int) -> dict:
    from perfbench.workloads import CELL_RES, S2_LEVEL, WITH_S2, WORKLOADS, prepare

    from gdal_boots_ray.kernels import png
    from gdal_boots_ray.kernels.geometry import polygon_rings
    from gdal_boots_ray.pipelines import flagship

    w = WORKLOADS[workload]
    if w.kind == "shuffle":
        raise SystemExit(f"{workload} does not run the flagship worker")
    inputs = prepare(w, seed, os.path.join(ROOT, ".perfbench", "inputs"))
    packed = [(int(p["poly_id"]), polygon_rings(p["geometry"])) for p in inputs.polygons]
    batch_list = batches(inputs.images, batch_size)
    rows = sum(b.num_rows for b in batch_list)

    acc, calls = defaultdict(int), defaultdict(int)
    flagship.add_bounds = timed(acc, calls, "bounds", flagship.add_bounds)
    flagship._partial_zonal_agg = timed(acc, calls, "fold", flagship._partial_zonal_agg)
    png.decode_image = timed(acc, calls, "decode", png.decode_image)
    worker = flagship.FusedTileWorker(packed, CELL_RES, S2_LEVEL, WITH_S2)
    worker.cell_fn = timed(acc, calls, "grid cell", worker.cell_fn)
    worker.lonlat_fn = timed(acc, calls, "lon/lat + S2", worker.lonlat_fn)
    worker.s2_fn = timed(acc, calls, "lon/lat + S2", worker.s2_fn)
    worker.join = timed(acc, calls, "join", worker.join)
    worker._decode_zonal_rowwise = timed(acc, calls, "rowwise", worker._decode_zonal_rowwise)

    per_pass = defaultdict(list)
    decodes = 0
    for _ in range(passes):
        acc.clear()
        calls.clear()
        t0 = time.perf_counter_ns()
        for batch in batch_list:
            worker(batch)
        acc["worker"] = time.perf_counter_ns() - t0
        acc["zonal"] = acc["rowwise"] - acc["decode"]
        decodes = calls["decode"]
        for name in LAYERS:
            per_pass[name].append(acc[name] / 1e3 / rows)
    pairs, interior, boundary = pair_classes(batch_list, packed)
    return {
        "digest": digest(flagship.FusedTileWorker(packed, CELL_RES, S2_LEVEL, WITH_S2), batch_list),
        "rows": rows,
        "us_per_row": {name: statistics.median(v) for name, v in per_pass.items()},
        "pairs": pairs,
        "interior": interior,
        "boundary": boundary,
        "decodes": decodes,
    }


def main(argv=None) -> int:
    from perfbench.workloads import BATCH_SIZE

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="flagship_large_tiles")
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--batch-size", type=int, default=BATCH_SIZE)
    args = parser.parse_args(argv)
    if args.batch_size < 1:
        parser.error("--batch-size must be at least 1")
    out = probe(args.workload, args.seed, args.passes, args.batch_size)
    cpus = len(os.sched_getaffinity(0))
    print(
        f"{args.workload}, seed {args.seed}: {out['rows']} rows in batches of {args.batch_size}, "
        f"median of {args.passes} passes, {cpus} CPUs in affinity"
    )
    print("| layer | µs per row |")
    print("|---|---|")
    for name in LAYERS:
        print(f"| {name} | {out['us_per_row'][name]:.1f} |")
    print(
        f"pairs {out['pairs']}, interior {out['interior']}, boundary {out['boundary']}, "
        f"decode_image calls {out['decodes']} per pass"
    )
    print(f"join output + partials sha256 {out['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
