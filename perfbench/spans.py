"""In-memory spans around the calls the benchmarked code makes into each layer.

Nothing here edits the program.  The wrappers replace module attributes
and class methods that the fused flagship path and ``cell_pip_join``
look up at call time, so they are installed inside every Ray worker by
``worker_setup`` (Ray's ``worker_process_setup_hook``) and stay out of
untraced runs entirely.

A span is ``(name, start_ns, end_ns, span_id, parent_id, pid, attrs)``.
Times come from ``time.monotonic_ns``, which is one clock for every
process on the host, so the driver can place worker spans inside its own
job spans.  The root span of a worker is the Ray Data task
(``_map_task``); when it closes, the process appends its spans to
``spans-<pid>.jsonl`` in the trace directory.  The job id of a worker
span is assigned on the driver from the job's time window, because jobs
run one after another.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
TRACE_LAYERS_ENV = "PERFBENCH_TRACE_LAYERS"


class Recorder:
    """Collects spans of one process.  ``path`` set: the spans are
    appended to it whenever a root span closes (worker side)."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.spans: List[dict] = []
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            self._next += 1
            sid = f"{os.getpid()}-{self._next}"
        rec = {
            "name": name,
            "id": sid,
            "parent": stack[-1]["id"] if stack else None,
            "pid": os.getpid(),
            "attrs": attrs,
            "start": time.monotonic_ns(),
        }
        stack.append(rec)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.monotonic_ns()
            stack.pop()
            with self._lock:
                self.spans.append(rec)
            if not stack and self.path is not None:
                self.flush()

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            with open(self.path, "a") as fd:
                fd.write("".join(json.dumps(s) + "\n" for s in spans))


def wrap(rec: Recorder, owner, attr: str, name: str, measure: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` (a module, class or instance attribute) by a
    spanned call; ``measure(args, result)`` returns attrs (counts, bytes)
    recorded on the span."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def spanned(*args, **kwargs):
        with rec.span(name) as attrs:
            out = orig(*args, **kwargs)
            if measure is not None:
                attrs.update(measure(args, out))
        return out

    setattr(owner, attr, spanned)


def _install_task_span(rec: Recorder) -> None:
    """Root span per Ray Data task: ``_map_task`` is looked up by name
    when a worker loads the remote function, so patching the module
    attribute here reaches every map, read and map_groups task."""
    from ray.data._internal.execution.operators import map_operator

    orig = map_operator._map_task

    def _map_task(map_transformer, data_context, ctx, *blocks, **kwargs):
        with rec.span("task", op=ctx.op_name):
            yield from orig(map_transformer, data_context, ctx, *blocks, **kwargs)

    map_operator._map_task = _map_task


def _install_flagship(rec: Recorder) -> None:
    import pyarrow.parquet as pq

    from gdal_boots_ray.kernels import png
    from gdal_boots_ray.pipelines import flagship
    from gdal_boots_ray.stages import zonal
    from gdal_boots_ray.state import manifest

    def rows_in(args, out):
        return {"rows": args[-1].num_rows}

    def rows_out(args, out):
        return {"rows": out.num_rows}

    wrap(rec, pq, "read_table", "read", lambda a, t: {"rows": t.num_rows, "bytes": t.nbytes})
    wrap(rec, flagship, "add_bounds", "geo.bounds")
    wrap(rec, flagship, "_partial_zonal_agg", "flagship.partial_agg", rows_out)
    wrap(rec, flagship.FusedTileWorker, "__call__", "flagship.batch", rows_in)
    wrap(rec, flagship.FusedTileWorker, "_decode_zonal_rowwise", "zonal.rowwise", rows_in)
    wrap(rec, png, "decode_image", "decode", lambda a, img: {"bytes": img.nbytes})
    wrap(rec, zonal, "_rings_cover_tile", "zonal.cover", lambda a, inside: {"interior": int(bool(inside))})
    wrap(rec, zonal, "_rings_mask", "zonal.mask")

    def partition_bytes(args, out):
        out_dir, key = args[0], args[1]
        path = os.path.join(out_dir, f"part={key}", "data.parquet")
        return {"rows": int(out["rows"]), "bytes": os.path.getsize(path)}

    wrap(rec, manifest, "write_partition", "manifest.write", partition_bytes)

    orig_init = flagship.FusedTileWorker.__init__

    @functools.wraps(orig_init)
    def traced_init(self, *args, **kwargs):
        with rec.span("flagship.worker_init"):
            orig_init(self, *args, **kwargs)
        # the geo steps and the join are instance attributes built here
        wrap(rec, self, "cell_fn", "geo.grid_cell")
        wrap(rec, self, "lonlat_fn", "geo.lonlat")
        wrap(rec, self, "s2_fn", "geo.s2")
        wrap(rec, self, "join", "joins.pip", rows_out)

    flagship.FusedTileWorker.__init__ = traced_init


def _install_shuffle(rec: Recorder) -> None:
    """``cell_pip_join``'s closures are pickled on the driver; their
    references to these kernels resolve by module attribute when a
    worker unpickles them, so the patched attributes are what runs."""
    from gdal_boots_ray.kernels import cells, geometry, strtree

    def n_points(args, out):
        return {"points": len(args[0])}

    wrap(rec, geometry, "polygon_rings", "shuffle.parse")
    wrap(rec, cells, "grid_cells_covering_bounds", "shuffle.cover_cells", lambda a, c: {"cells": len(c)})
    wrap(rec, geometry, "points_in_rings", "shuffle.pip", n_points)
    wrap(rec, strtree.STRtree, "query_points", "shuffle.pip", lambda a, out: {"points": len(a[1])})


_INSTALLERS = {"flagship": _install_flagship, "shuffle": _install_shuffle}


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: install the layer wrappers
    named by ``PERFBENCH_TRACE_LAYERS`` and a task root span."""
    out_dir = os.environ[TRACE_DIR_ENV]
    rec = Recorder(os.path.join(out_dir, f"spans-{os.getpid()}.jsonl"))
    _install_task_span(rec)
    _INSTALLERS[os.environ[TRACE_LAYERS_ENV]](rec)


def read_worker_spans(trace_dir: str) -> List[dict]:
    spans: List[dict] = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as fd:
                spans.extend(json.loads(line) for line in fd if line.strip())
    return spans


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def union_ns(intervals: Iterable[tuple]) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times_ns(spans: List[dict]) -> Dict[str, int]:
    """Self time per span id: its duration minus the part its direct
    children cover."""
    children: Dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - union_ns(k for k in kids if k[0] < k[1])
    return out


def assign_to_jobs(spans: List[dict], windows: List[tuple]) -> Dict[int, List[dict]]:
    """Group spans by the job whose [start, end] window holds their start."""
    by_job: Dict[int, List[dict]] = {j: [] for j, _, _ in windows}
    for s in spans:
        for j, start, end in windows:
            if start <= s["start"] <= end:
                by_job[j].append(s)
                break
    return by_job
