"""Files-per-task sweep of the flagship's read-in-task plan, in one Ray session.

Usage:
    python scripts/plan_sweep.py [--workload flagship_large_tiles] [--seed 901] [--hints 1,2,4] [--rounds 5] [--jobs 3]

Each named variant ``hint-<h>`` is perfbench's flagship job —
``run_flagship(..., num_cpus_hint=h)`` plus ``combine_zonal_partials``,
with perfbench's program parameters — on the workload's seeded inputs
(``perfbench.workloads.prepare``, cached under ``.perfbench/inputs``).
``_read_in_task`` runs ``min(files, h)`` tasks, so on a 4-file table the
hints 1, 2 and 4 run 1, 2 and 4 tasks of 4, 2 and 1 files each; the hint
is the only thing that changes.

The session is perfbench's (``ray_init`` with ``nproc`` CPUs, then
``pin_process_tree`` after one warm-up job per variant).  Every round
runs each variant's ``--jobs`` jobs back to back, the variants in a
rotated order, and times each job with a ``Calibration`` before and
after it.  A variant's round value is perfbench's ``norm_rows_per_s``
of its jobs: the median of their rows/s scaled to a host that runs the
calibration in ``CAL_REF_S``.  The script prints each variant's median
and quartiles over the rounds (``ab_bench``'s ``quartiles``), the Ray
Data task count of its last job, and nproc.  Every output is checked
against the workload's reference (``perfbench.workloads.check``); the
exit status is 1 if any job's output is wrong.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (ROOT, HERE):  # the program and perfbench; ab_bench
    if path not in sys.path:
        sys.path.insert(0, path)


def parse_hints(spec: str) -> List[int]:
    """``"1,2,4"`` -> [1, 2, 4]; every hint must be positive."""
    hints = [int(h) for h in spec.split(",")]
    if any(h < 1 for h in hints):
        raise ValueError(f"CPU hints must be positive: {spec!r}")
    return hints


def variant_name(hint: int) -> str:
    return f"hint-{hint}"


def round_order(names: Sequence[str], r: int) -> List[str]:
    """``names`` rotated by ``r``, so each variant runs first in turn."""
    k = r % len(names)
    return list(names[k:]) + list(names[:k])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="flagship_large_tiles")
    ap.add_argument("--seed", type=int, default=901)
    ap.add_argument("--hints", default="1,2,4", help="num_cpus_hint of each variant")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--jobs", type=int, default=3, help="timed jobs per variant and round")
    args = ap.parse_args(argv)

    from ab_bench import quartiles
    from perfbench import run as perfbench
    from perfbench.workloads import BATCH_SIZE, CELL_RES, S2_LEVEL, WITH_S2, WORKLOADS, check, prepare

    w = WORKLOADS[args.workload]
    if w.kind != "flagship":
        ap.error(f"{w.name} is not a run_flagship workload")
    variants: Dict[str, int] = {variant_name(h): h for h in parse_hints(args.hints)}
    perfbench.configure_env()
    inputs = prepare(w, args.seed, str(perfbench.STATE / "inputs"))

    from gdal_boots_ray.pipelines.flagship import _input_files, combine_zonal_partials, run_flagship

    def job(hint):
        ds = run_flagship(
            inputs.images,
            polygons=inputs.polygons,
            cell_res=CELL_RES,
            s2_level=S2_LEVEL,
            with_s2=WITH_S2,
            batch_size=BATCH_SIZE,
            num_cpus_hint=hint,
        )
        return ds, combine_zonal_partials(ds)

    rates: Dict[str, List[float]] = {name: [] for name in variants}
    tasks: Dict[str, int] = {}
    wrong = 0
    perfbench.ray_init()
    try:
        for hint in variants.values():
            job(hint)
        perfbench.pin_process_tree()
        for hint in variants.values():  # settle, pinned
            job(hint)
        calibrate = perfbench.Calibration()
        cal = calibrate()
        for r in range(args.rounds):
            for name in round_order(list(variants), r):
                timed = []
                for _ in range(args.jobs):
                    start = time.monotonic_ns()
                    ds, out = job(variants[name])
                    end = time.monotonic_ns()
                    cal_after = calibrate()
                    timed.append({"start": start, "end": end, "cal": (cal + cal_after) / 2})
                    cal = cal_after
                    if not check(w, out, inputs.reference):
                        wrong += 1
                        print(f"{name}: WRONG output in round {r}", file=sys.stderr)
                rates[name].append(perfbench.norm_rows_per_s(w, timed))
                tasks[name] = perfbench.ray_stats([ds])["tasks"]
    finally:
        perfbench.stop_ray()

    n_files = len(_input_files(inputs.images))
    print(
        f"plan sweep: {w.name} seed {args.seed}, {w.rows} rows in {n_files} files, "
        f"nproc {perfbench.nproc()}, {args.rounds} rounds x {args.jobs} jobs per variant"
    )
    print("variant  tasks  norm_rows_per_s median  [q1, q3]")
    for name in variants:
        q1, med, q3 = quartiles(rates[name])
        print(f"{name:<8} {tasks[name]:>5}  {med:>22.0f}  [{q1:.0f}, {q3:.0f}]")
    total = len(variants) * args.rounds * args.jobs
    print(f"all {total} jobs correct: {wrong == 0}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
