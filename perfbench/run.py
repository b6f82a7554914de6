"""Flagship benchmark: one workload, one seed, one measured window.

    python3 -m perfbench.run --workload flagship_large_tiles --seed 1 --seconds 6 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a
separate traced run of the same workload and reports the per-layer
metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give every metric with its unit and a JSON ``info`` record (versions,
nproc, input sizes, job count).  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # also runnable as a script
    sys.path.insert(0, str(ROOT))
STATE = ROOT / ".perfbench"
# set-up is repeated and its median reported, so one slow ray.init
# does not decide the run
SETUPS = 2
# untimed jobs after set-up, while Ray's background processes finish
# starting: the first jobs of a session run up to 3x slower
SETTLE_S = 1.0
# nominal calibration time: norm_rows_per_s is rows/s on a host that
# runs the calibration mix in this long
CAL_REF_S = 0.05
OBJECT_STORE_BYTES = 256 * 1024 * 1024
# Ray puts unix sockets under its temp dir; AF_UNIX paths end at 107 bytes
MAX_RAY_TEMP_LEN = 44

END_TO_END = {
    "setup_s": "s",
    "norm_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "read.us_per_row": "us/row",
    "read.bytes_per_row": "B/row",
    "geo.bounds.us_per_row": "us/row",
    "geo.grid_cell.us_per_row": "us/row",
    "geo.lonlat.us_per_row": "us/row",
    "geo.s2.us_per_row": "us/row",
    "joins.pip.us_per_row": "us/row",
    "joins.pip.pairs_per_row": "pairs/row",
    "decode.us_per_pair": "us/pair",
    "decode.calls": "count",
    "decode.mb_out": "MB",
    "zonal.cover.us_per_pair": "us/pair",
    "zonal.mask.us_per_pair": "us/pair",
    "zonal.mask.calls": "count",
    "zonal.interior_frac": "fraction",
    "zonal.reduce.us_per_pair": "us/pair",
    "flagship.tasks": "count",
    "flagship.worker_init.count": "count",
    "flagship.worker_init.s": "s",
    "flagship.batch.p50_ms": "ms",
    "flagship.batch.p99_ms": "ms",
    "flagship.partial_agg.us_per_row": "us/row",
    "flagship.partials.rows": "count",
    "flagship.combine.s": "s",
    "manifest.write.s": "s",
    "manifest.partitions": "count",
    "manifest.bytes_written": "B",
    "shuffle.parse.us_per_poly": "us/poly",
    "shuffle.cover_cells.us_per_poly": "us/poly",
    "shuffle.pip.us_per_point": "us/point",
    "shuffle.pairs": "count",
    "ray_data.overhead_s": "s",
    "ray_data.exchange.rows_max_over_mean": "ratio",
    "trace.wall_s": "s",
    "trace.accounted_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.traced_norm_rows_per_s": "rows/s",
    "trace.untraced_norm_rows_per_s": "rows/s",
}

# span name -> layer whose self time it is (self_s.<layer> metrics)
SELF_LAYERS = {
    "read": "read",
    "geo.bounds": "geo.bounds",
    "geo.grid_cell": "geo.grid_cell",
    "geo.lonlat": "geo.lonlat",
    "geo.s2": "geo.s2",
    "joins.pip": "joins.pip",
    "decode": "decode",
    "zonal.cover": "zonal.cover",
    "zonal.mask": "zonal.mask",
    "zonal.rowwise": "zonal.reduce",
    "flagship.partial_agg": "flagship.partial_agg",
    "flagship.batch": "flagship.batch",
    "flagship.worker_init": "flagship.worker_init",
    "flagship.combine": "flagship.combine",
    "manifest.write": "manifest.write",
    "shuffle.parse": "shuffle.parse",
    "shuffle.cover_cells": "shuffle.cover_cells",
    "shuffle.pip": "shuffle.pip",
    "task": "task_other",
}
PER_LAYER.update({f"self_s.{layer}": "s" for layer in SELF_LAYERS.values()})


def nproc() -> int:
    """CPUs as GNU ``nproc`` counts them: the affinity mask, capped by
    OMP_NUM_THREADS / OMP_THREAD_LIMIT when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            n = min(n, int(value))
    return n


# ---------------------------------------------------------------------------
# Ray sessions
# ---------------------------------------------------------------------------


def ray_init(trace_layers: Optional[str] = None, trace_dir: Optional[str] = None) -> None:
    import ray
    from ray.data import DataContext

    from perfbench import spans

    runtime_env = None
    if trace_layers:
        os.environ[spans.TRACE_DIR_ENV] = trace_dir
        os.environ[spans.TRACE_LAYERS_ENV] = trace_layers
        runtime_env = {"worker_process_setup_hook": "perfbench.spans.worker_setup"}
    temp_dir = str(STATE / "ray")
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        runtime_env=runtime_env,
        _temp_dir=temp_dir if len(temp_dir) <= MAX_RAY_TEMP_LEN else None,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def stop_ray(timeout_s: float = 30.0) -> None:
    """``ray.shutdown()``, then wait until every process the session
    started has ended: Ray workers outlive the raylet by a few seconds,
    and would otherwise run into the next set-up or past the run.  Those
    still alive after ``timeout_s`` are killed, and waited for 5 s more."""
    import ray

    started = {pid: _start_time(st) for pid, st in _process_tree().items() if pid != os.getpid()}
    ray.shutdown()
    for grace_s in (timeout_s, 5.0):
        deadline = time.monotonic() + grace_s
        while True:
            alive = [pid for pid, start in started.items() if _running(pid, start)]
            if not alive:
                return
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _start_time(stat: bytes) -> bytes:
    return stat.rsplit(b")", 1)[1].split()[19]


def _running(pid: int, start: bytes) -> bool:
    """True while ``pid`` is the same process and has not exited (a
    zombie has exited)."""
    try:
        stat = _proc_read(pid, "stat")
    except OSError:
        return False
    fields = stat.rsplit(b")", 1)[1].split()
    return fields[19] == start and fields[0] != b"Z"


def setup_session(w, inputs, work_dir: str, trace_layers=None, trace_dir=None):
    """ray.init, the polygon broadcast and one untimed warm-up job.
    Returns (session, seconds)."""
    from perfbench.workloads import Session

    t0 = time.perf_counter()
    ray_init(trace_layers, trace_dir)
    session = Session(w, inputs, nproc(), work_dir)
    session.run_job()
    seconds = time.perf_counter() - t0
    session.clean()
    return session, seconds


def measure(session, seconds: float, recorder=None, reference=None) -> List[dict]:
    """Run jobs back to back for ``seconds`` (at least one), after
    ``SETTLE_S`` of untimed ones, with a calibration between jobs.  A job
    fails if it raises or its output differs from the reference."""
    own_cpus = os.sched_getaffinity(0)
    pin_process_tree()
    try:
        return _measure(session, seconds, recorder, reference)
    finally:
        os.sched_setaffinity(0, own_cpus)


def _measure(session, seconds, recorder, reference) -> List[dict]:
    from perfbench.workloads import check

    w = session.w
    reference = session.inputs.reference if reference is None else reference
    settle_until = time.perf_counter() + SETTLE_S
    while True:
        session.run_job()
        session.clean()
        if time.perf_counter() >= settle_until:
            break
    calibrate = Calibration()
    cal = calibrate()
    jobs: List[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        job = {"ok": False, "stats": None, "out_rows": 0}
        job["start"] = time.monotonic_ns()
        try:
            if recorder is None:
                out = session.run_job()
            else:
                with recorder.span("job"):
                    out = session.run_job(recorder)
            job["end"] = time.monotonic_ns()
            job["ok"] = check(w, out, reference)
            job["out_rows"] = len(out)
            if recorder is not None:
                job["stats"] = ray_stats(session.datasets)
        except Exception:  # a failed job is counted, and the run goes on
            job["end"] = time.monotonic_ns()
            traceback.print_exc(file=sys.stderr)
        session.clean()
        cal_after = calibrate()
        job["cal"] = (cal + cal_after) / 2
        cal = cal_after
        jobs.append(job)
        # stop when the next job would end further past the deadline
        # than this one falls short of it
        typical = statistics.median((j["end"] - j["start"]) / 1e9 for j in jobs)
        if time.perf_counter() + typical / 2 >= deadline:
            return jobs


class Calibration:
    """A fixed mix of zlib inflate, NumPy arithmetic and a Python loop,
    the kinds of work a job does; its wall time tracks how fast the host
    runs this process right now."""

    def __init__(self):
        import zlib

        import numpy as np

        rng = np.random.default_rng(0)
        self.blob = zlib.compress(rng.integers(0, 16, 1 << 20, dtype=np.uint8).tobytes(), 6)
        self.array = rng.random(1 << 18)

    def __call__(self) -> float:
        import zlib

        t0 = time.perf_counter()
        for _ in range(4):
            zlib.decompress(self.blob)
        for _ in range(20):
            float((self.array * 1.5 + 2.0).sum())
        x = 0
        for i in range(100_000):
            x += i & 7
        return time.perf_counter() - t0


def pin_process_tree() -> None:
    """Pin this process and every process it started (Ray's daemons and
    workers) to the first ``nproc`` CPUs, so the calibration runs where
    the job runs.  Done after set-up: pinned from the start, Ray's
    daemons slow set-up by half."""
    cpus = sorted(os.sched_getaffinity(0))[: nproc()]
    for pid in _process_tree():
        try:
            os.sched_setaffinity(pid, cpus)
        except OSError:  # the process has exited
            continue


def rows_per_s(w, jobs: List[dict]) -> float:
    return statistics.median(w.rows / ((j["end"] - j["start"]) / 1e9) for j in jobs)


def norm_rows_per_s(w, jobs: List[dict]) -> float:
    """Median over jobs of rows/s scaled to a host on which the
    calibration takes ``CAL_REF_S``: each job's rate times the
    calibration time measured around it, over ``CAL_REF_S``."""
    return statistics.median(w.rows / ((j["end"] - j["start"]) / 1e9) * j["cal"] / CAL_REF_S for j in jobs)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def _proc_read(pid: int, name: str) -> bytes:
    with open(f"/proc/{pid}/{name}", "rb") as fd:
        return fd.read()


def _process_tree() -> Dict[int, bytes]:
    """/proc/<pid>/stat of this process and of every process below it."""
    stats: Dict[int, bytes] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stats[int(entry)] = _proc_read(int(entry), "stat")
            except OSError:
                continue
    parent = {pid: int(st.rsplit(b")", 1)[1].split()[1]) for pid, st in stats.items()}
    me = os.getpid()
    tree = {}
    for pid in stats:
        p, seen = pid, set()
        while p in parent and p != me and p not in seen:
            seen.add(p)
            p = parent[p]
        if p == me:
            tree[pid] = stats[pid]
    return tree


def _is_ray_worker(pid: int) -> bool:
    try:
        cmd = _proc_read(pid, "cmdline")
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and the Ray worker processes it
    started (descendants whose command line is a Ray worker's)."""
    total_kb = 0
    for pid in _process_tree():
        if pid != os.getpid() and not _is_ray_worker(pid):
            continue
        try:
            for line in _proc_read(pid, "status").splitlines():
                if line.startswith(b"VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Ray Data structured stats
# ---------------------------------------------------------------------------


def _all_operator_stats(summary) -> list:
    ops = list(summary.operators_stats)
    for parent in summary.parents:
        ops.extend(_all_operator_stats(parent))
    return ops


def ray_stats(datasets) -> dict:
    """Task count of the fused flagship operator and the rows-per-block
    skew of the exchange, from ``Dataset._get_stats_summary()``."""
    tasks = 0
    skew = 0.0
    for ds in datasets:
        for op in _all_operator_stats(ds._get_stats_summary()):
            if "fused" in op.operator_name and op.task_rows:
                tasks += int(op.task_rows["count"])
            if op.is_sub_operator and op.operator_name.endswith("Reduce") and op.output_num_rows:
                rows = op.output_num_rows
                if rows["mean"]:
                    skew = max(skew, rows["max"] / rows["mean"])
    return {"tasks": tasks, "exchange_skew": skew}


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def job_layer_metrics(w, spans: List[dict], job: dict) -> Dict[str, float]:
    from perfbench.spans import self_times_ns, union_ns

    wall = job["end"] - job["start"]
    rows = w.rows
    executes = [s for s in spans if s["name"] == "ray_data.execute"]
    if w.kind == "resume" and executes:
        # after its last chunk, run_flagship_resumable only combines the
        # partitions on the driver
        last = max(s["end"] for s in executes)
        spans = spans + [
            {"name": "flagship.combine", "id": "combine", "parent": None, "start": last, "end": job["end"], "attrs": {}}
        ]
    # a worker task runs while the driver waits in ray_data.execute:
    # make it that span's child, so the execute span's self time is the
    # executor's own driver-side time
    for s in spans:
        if s["parent"] is None and s["name"] == "task":
            for e in executes:
                if e["start"] <= s["start"] <= e["end"]:
                    s["parent"] = e["id"]
                    break
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    selfs = self_times_ns(spans)
    ids = {s["id"] for s in spans}

    def dur(name):
        return sum(s["end"] - s["start"] for s in by[name])

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in by[name])

    def per(value, base):
        return value / base if base else 0.0

    pairs = attr("joins.pip", "rows")
    covered = union_ns((s["start"], s["end"]) for s in spans if s["parent"] not in ids)
    overhead = wall - covered + sum(selfs[s["id"]] for s in executes)
    m = {
        "read.us_per_row": dur("read") / 1e3 / rows,
        "read.bytes_per_row": attr("read", "bytes") / rows,
        "geo.bounds.us_per_row": dur("geo.bounds") / 1e3 / rows,
        "geo.grid_cell.us_per_row": dur("geo.grid_cell") / 1e3 / rows,
        "geo.lonlat.us_per_row": dur("geo.lonlat") / 1e3 / rows,
        "geo.s2.us_per_row": dur("geo.s2") / 1e3 / rows,
        "joins.pip.us_per_row": dur("joins.pip") / 1e3 / rows,
        "joins.pip.pairs_per_row": pairs / rows,
        "decode.us_per_pair": per(dur("decode") / 1e3, pairs),
        "decode.calls": len(by["decode"]),
        "decode.mb_out": attr("decode", "bytes") / 1e6,
        "zonal.cover.us_per_pair": per(dur("zonal.cover") / 1e3, pairs),
        "zonal.mask.us_per_pair": per(dur("zonal.mask") / 1e3, pairs),
        "zonal.mask.calls": len(by["zonal.mask"]),
        "zonal.interior_frac": per(attr("zonal.cover", "interior"), len(by["zonal.cover"])),
        "zonal.reduce.us_per_pair": per(sum(selfs[s["id"]] for s in by["zonal.rowwise"]) / 1e3, pairs),
        "flagship.tasks": job["stats"]["tasks"] if w.kind != "shuffle" else 0,
        "flagship.worker_init.count": len(by["flagship.worker_init"]),
        "flagship.worker_init.s": dur("flagship.worker_init") / 1e9,
        "flagship.partial_agg.us_per_row": dur("flagship.partial_agg") / 1e3 / rows,
        "flagship.partials.rows": attr("flagship.partial_agg", "rows"),
        "flagship.combine.s": sum(selfs[s["id"]] for s in by["flagship.combine"]) / 1e9,
        "manifest.write.s": dur("manifest.write") / 1e9,
        "manifest.partitions": len(by["manifest.write"]),
        "manifest.bytes_written": attr("manifest.write", "bytes"),
        "shuffle.parse.us_per_poly": per(dur("shuffle.parse") / 1e3, w.n_polys if w.kind == "shuffle" else 0),
        "shuffle.cover_cells.us_per_poly": per(dur("shuffle.cover_cells") / 1e3, w.n_polys if w.kind == "shuffle" else 0),
        "shuffle.pip.us_per_point": dur("shuffle.pip") / 1e3 / rows,
        "shuffle.pairs": job["out_rows"] if w.kind == "shuffle" else 0,
        "ray_data.overhead_s": overhead / 1e9,
        "ray_data.exchange.rows_max_over_mean": job["stats"]["exchange_skew"],
        "trace.wall_s": wall / 1e9,
        "trace.accounted_frac": (sum(selfs.values()) + wall - covered) / wall,
    }
    for name, layer in SELF_LAYERS.items():
        m[f"self_s.{layer}"] = sum(selfs[s["id"]] for s in by[name]) / 1e9
    return m


def layer_metrics(w, jobs: List[dict], driver_spans: List[dict], worker_spans: List[dict]) -> Dict[str, float]:
    """Median over the traced jobs of each per-layer metric."""
    from perfbench.spans import assign_to_jobs

    windows = [(i, j["start"], j["end"]) for i, j in enumerate(jobs)]
    driver_layers = [s for s in driver_spans if s["name"] != "job"]
    by_job = assign_to_jobs(worker_spans + driver_layers, windows)
    per_job = [job_layer_metrics(w, by_job[i], j) for i, j in enumerate(jobs)]
    out = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    batches = sorted(
        s["end"] - s["start"] for i in by_job for s in by_job[i] if s["name"] == "flagship.batch"
    )
    out["flagship.batch.p50_ms"] = _quantile(batches, 0.50) / 1e6
    out["flagship.batch.p99_ms"] = _quantile(batches, 0.99) / 1e6
    return out


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def describe(w, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "inputs": {
            "rows": w.rows,
            "n_images": w.n_images,
            "tile_px": w.tile_px,
            "rows_per_file": w.rows_per_file,
            "n_polys": w.n_polys,
            "n_points": w.n_points,
        },
    }


def git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree (read from .git
    directly; the benchmark also runs from plain source trees)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "gdal_boots_ray").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run(w, seed: int, seconds: float, trace: bool, reference: Optional[dict] = None, setups: int = SETUPS) -> dict:
    """Measure one workload.  Returns {"info", "result"}; ``reference``
    replaces the computed one (the self-test tampers with it)."""
    from perfbench.workloads import prepare

    t0 = time.perf_counter()
    import ray  # import time is part of set-up

    import gdal_boots_ray.pipelines.flagship  # noqa: F401
    import gdal_boots_ray.stages.joins  # noqa: F401

    import_s = time.perf_counter() - t0
    run_dir = STATE / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work_dir = str(run_dir / "work")
    os.makedirs(work_dir)
    inputs = prepare(w, seed, str(STATE / "inputs"))
    info = describe(w, seed, seconds, trace)
    try:
        if trace:
            metrics, jobs = _run_traced(w, inputs, seconds, work_dir, str(run_dir / "trace"), reference)
            info["setup_s_samples"] = []
        else:
            metrics, jobs, samples = _run_untraced(w, inputs, seconds, work_dir, import_s, reference, setups)
            info["setup_s_samples"] = samples
    finally:
        if ray.is_initialized():
            stop_ray()
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(not j["ok"] for j in jobs)
    info["jobs"] = len(jobs)
    info["job_s"] = [(j["end"] - j["start"]) / 1e9 for j in jobs]
    info["failed_frac"] = failed / len(jobs)
    info["job_cal_s"] = [j["cal"] for j in jobs]
    info["rows_per_s"] = rows_per_s(w, jobs)
    units = END_TO_END if not trace else PER_LAYER
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return {"info": info, "result": result}


def _run_untraced(w, inputs, seconds, work_dir, import_s, reference, setups):
    samples = []
    session = None
    for _ in range(setups):
        if session is not None:
            stop_ray()
        session, s = setup_session(w, inputs, work_dir)
        samples.append(import_s + s)
    jobs = measure(session, seconds, reference=reference)
    # scaled like norm_rows_per_s: set-up time on a host that runs the
    # calibration in CAL_REF_S, with the calibration of this run's jobs
    cal = statistics.median(j["cal"] for j in jobs)
    metrics = {
        "setup_s": statistics.median(samples) * CAL_REF_S / cal,
        "norm_rows_per_s": norm_rows_per_s(w, jobs),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, jobs, samples


def _run_traced(w, inputs, seconds, work_dir, trace_dir, reference):
    """Half the window untraced, half traced, each in its own session:
    the gap between the two rows/s is the tracing overhead."""
    from perfbench.spans import Recorder, read_worker_spans

    session, _ = setup_session(w, inputs, work_dir)
    plain = measure(session, seconds / 2, reference=reference)
    stop_ray()

    os.makedirs(trace_dir)
    layers = "shuffle" if w.kind == "shuffle" else "flagship"
    session, _ = setup_session(w, inputs, work_dir, layers, trace_dir)
    # the warm-up job's spans are not part of any measured job
    for name in os.listdir(trace_dir):
        os.remove(os.path.join(trace_dir, name))
    recorder = Recorder()
    jobs = measure(session, seconds / 2, recorder, reference)
    ok_jobs = [j for j in jobs if j["ok"]]
    metrics = {name: 0.0 for name in PER_LAYER}
    if ok_jobs:
        metrics.update(layer_metrics(w, ok_jobs, recorder.spans, read_worker_spans(trace_dir)))
    traced, untraced = norm_rows_per_s(w, jobs), norm_rows_per_s(w, plain)
    metrics["trace.traced_norm_rows_per_s"] = traced
    metrics["trace.untraced_norm_rows_per_s"] = untraced
    metrics["trace.overhead_frac"] = 1.0 - traced / untraced
    return metrics, plain + jobs


def configure_env() -> None:
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # Ray workers import the program and perfbench.spans from the checkout
    if str(ROOT) not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT), os.environ.get("PYTHONPATH")]))


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "gdal_boots_ray").is_dir():
        print(f"perfbench: the program (gdal_boots_ray/) is not in {ROOT}", file=sys.stderr)
        return 2
    configure_env()
    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    res, info = out["result"], out["info"]
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if info["setup_s_samples"]:
        print(f"setup_s_wall = {statistics.median(info['setup_s_samples']):.6g} s (wall clock, not calibrated)")
    print(f"rows_per_s = {info['rows_per_s']:.6g} rows/s (wall clock, not calibrated)")
    print(f"failed_frac = {info['failed_frac']:.6g} fraction ({res['failed']} of {res['attempted']} jobs)")
    print("info " + json.dumps(info))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
