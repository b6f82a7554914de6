"""Per-layer time of the fused flagship worker, in process, without Ray.

Usage:
    python scripts/layer_probe.py [--workload flagship_large_tiles] [--seed 901] [--passes 5] [--batch-size 32]

It takes a perfbench workload's seeded inputs through
``perfbench.workloads.prepare`` (generated on first use into the cache a
benchmark run uses, ``.perfbench/inputs``), reads every input file whole
and runs one ``FusedTileWorker(..., batch_size)`` over each file
``--passes`` times, as a flagship task does.  The worker plans each file
once and decodes band 0 per ``--batch-size`` rows, so the layers fall in
three groups, each timed by wrapping the callable the worker looks up at
call time:

- plan, once per file: ``flagship.TilePlan`` as a whole, and inside it
  the join (the worker's ``join``) and the zone spans
  (``flagship.zone_spans``); bounds are the plan less those two.  Grid
  cell (``cell_fn``) and lon/lat + S2 (``lonlat_fn``, ``s2_fn``) run
  beside it.
- pixel step, once per ``--batch-size`` rows:
  ``FusedTileWorker._decode_zonal_rowwise``, and inside it band-0
  decode (``png.decode_image``; a raw tile is one slice copy, not
  decoded) and the span reduce (the step less decode).
- fold, once per file: ``flagship._partial_zonal_agg``.

It prints each layer's median over the passes in µs per input row with
its calls per pass, then the matched pairs, how many of them the polygon
covers whole (interior, counted with the one-tile ``_rings_cover_tile``)
or not (boundary), and one sha256 digest of the input's final combined
frame (``_combine_frame`` of every file's partials).  Runs at two batch
sizes split the pixel step into a fixed cost per step and a cost per
row.  A checkout whose worker takes no ``batch_size`` (it planned every
batch anew) is run over ``--batch-size`` slices instead, and prints the
layers it does not have as n/a; equal digests show that two checkouts
computed the same answer.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

# (group, layer) in print order; "bounds" and "reduce" are derived
LAYERS = [
    ("plan, per file", "plan"),
    ("plan, per file", "bounds"),
    ("plan, per file", "join"),
    ("plan, per file", "spans"),
    ("plan, per file", "grid cell"),
    ("plan, per file", "lon/lat + S2"),
    ("pixels, per step", "step"),
    ("pixels, per step", "decode"),
    ("pixels, per step", "reduce"),
    ("fold, per file", "fold"),
    ("", "worker"),
]


def timed(acc: dict, calls: dict, name: str, fn):
    def run(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[name] += time.perf_counter_ns() - t0
            calls[name] += 1

    return run


def wrap(owner, attr: str, acc: dict, calls: dict, name: str) -> bool:
    """Time ``owner.attr`` as layer ``name``; False if it has none."""
    if not hasattr(owner, attr):
        return False
    setattr(owner, attr, timed(acc, calls, name, getattr(owner, attr)))
    return True


def tables(images_dir: str) -> list:
    import pyarrow.parquet as pq

    from gdal_boots_ray.pipelines.flagship import IMAGE_COLS, _input_files

    return [pq.read_table(path, columns=IMAGE_COLS) for path in _input_files(images_dir)]


def file_runner(packed, batch_size: int):
    """(worker, run) where ``run(table)`` is the partials of one file:
    one call over the whole file, or, for a worker without
    ``batch_size``, one call per ``batch_size`` slice."""
    from perfbench.workloads import CELL_RES, S2_LEVEL, WITH_S2

    import pyarrow as pa

    from gdal_boots_ray.pipelines.flagship import FusedTileWorker

    if "batch_size" in inspect.signature(FusedTileWorker.__init__).parameters:
        worker = FusedTileWorker(packed, CELL_RES, S2_LEVEL, WITH_S2, batch_size=batch_size)
        return worker, lambda t: worker(t)
    worker = FusedTileWorker(packed, CELL_RES, S2_LEVEL, WITH_S2)

    def run(t):
        return pa.concat_tables([worker(t.slice(s, batch_size)) for s in range(0, t.num_rows, batch_size)])

    return worker, run


def pair_classes(file_list, packed) -> tuple:
    """(pairs, interior, boundary) of every file's matched pairs, from
    the one-tile cover test, outside the timed passes."""
    import numpy as np

    from gdal_boots_ray.stages.geo import add_bounds
    from gdal_boots_ray.stages.joins import BroadcastPIPJoin
    from gdal_boots_ray.stages.zonal import _rings_cover_tile

    join, rings = BroadcastPIPJoin(packed), dict(packed)
    pairs = interior = 0
    for t in file_list:
        m = join(add_bounds(t))
        gts = np.array(m.column("gt").to_pylist(), np.float64).reshape(-1, 6)
        pids, hs, ws = (m.column(c).to_pylist() for c in ("poly_id", "h", "w"))
        for pid, h, w, gt in zip(pids, hs, ws, gts):
            pairs += 1
            interior += _rings_cover_tile(rings[pid], (h, w), gt)
    return pairs, interior, pairs - interior


def digest(run, file_list) -> str:
    """sha256 of the final combined frame of every file's partials,
    outside the timed passes."""
    import pyarrow as pa

    from gdal_boots_ray.pipelines.flagship import _combine_frame

    frame = _combine_frame(pa.concat_tables([run(t) for t in file_list]).to_pandas())
    return hashlib.sha256(frame.to_csv(index=False).encode()).hexdigest()


def probe(workload: str, seed: int, passes: int, batch_size: int) -> dict:
    from perfbench.workloads import WORKLOADS, prepare

    from gdal_boots_ray.kernels import png
    from gdal_boots_ray.kernels.geometry import polygon_rings
    from gdal_boots_ray.pipelines import flagship

    w = WORKLOADS[workload]
    if w.kind == "shuffle":
        raise SystemExit(f"{workload} does not run the flagship worker")
    inputs = prepare(w, seed, os.path.join(ROOT, ".perfbench", "inputs"))
    packed = [(int(p["poly_id"]), polygon_rings(p["geometry"])) for p in inputs.polygons]
    file_list = tables(inputs.images)
    rows = sum(t.num_rows for t in file_list)
    sha = digest(file_runner(packed, batch_size)[1], file_list)

    acc, calls = defaultdict(int), defaultdict(int)
    have = {"bounds", "reduce", "worker"}
    for owner, attr, name in [
        (flagship, "TilePlan", "plan"),
        (flagship, "zone_spans", "spans"),
        (flagship, "_partial_zonal_agg", "fold"),
        (png, "decode_image", "decode"),
    ]:
        if wrap(owner, attr, acc, calls, name):
            have.add(name)
    worker, run = file_runner(packed, batch_size)
    for attr, name in [
        ("join", "join"),
        ("cell_fn", "grid cell"),
        ("lonlat_fn", "lon/lat + S2"),
        ("s2_fn", "lon/lat + S2"),
        ("_decode_zonal_rowwise", "step"),
    ]:
        if wrap(worker, attr, acc, calls, name):
            have.add(name)
    if "plan" not in have or "spans" not in have:
        have.discard("bounds")
    if "step" not in have:
        have.discard("reduce")

    per_pass = defaultdict(list)
    counts = {}
    for _ in range(passes):
        acc.clear()
        calls.clear()
        t0 = time.perf_counter_ns()
        for t in file_list:
            run(t)
        acc["worker"] = time.perf_counter_ns() - t0
        calls["worker"] = len(file_list)
        acc["bounds"] = acc["plan"] - acc["join"] - acc["spans"]
        calls["bounds"] = calls["plan"]
        acc["reduce"] = acc["step"] - acc["decode"]
        calls["reduce"] = calls["step"]
        counts = dict(calls)
        for _group, name in LAYERS:
            per_pass[name].append(acc[name] / 1e3 / rows)
    pairs, interior, boundary = pair_classes(file_list, packed)
    return {
        "digest": sha,
        "rows": rows,
        "files": len(file_list),
        "us_per_row": {n: statistics.median(v) if n in have else None for n, v in per_pass.items()},
        "calls": {n: counts.get(n, 0) if n in have else None for _g, n in LAYERS},
        "pairs": pairs,
        "interior": interior,
        "boundary": boundary,
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
        f"{args.workload}, seed {args.seed}: {out['rows']} rows in {out['files']} files, "
        f"pixel steps of {args.batch_size} rows, median of {args.passes} passes, {cpus} CPUs in affinity"
    )
    print("| group | layer | µs per row | calls per pass |")
    print("|---|---|---|---|")
    for group, name in LAYERS:
        us, n = out["us_per_row"][name], out["calls"][name]
        print(f"| {group} | {name} | {'n/a' if us is None else f'{us:.1f}'} | {'n/a' if n is None else n} |")
    print(
        f"pairs {out['pairs']}, interior {out['interior']}, boundary {out['boundary']}, "
        f"decode_image calls {out['calls']['decode']} per pass"
    )
    print(f"final frame sha256 {out['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
