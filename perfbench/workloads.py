"""Workload definitions: seeded inputs, independent references, one job each.

Every workload drives a public entry point through Ray Data with the
shared program parameters below.  Inputs are generated into a cache
directory whose name encodes every generation parameter, and the
reference result is computed once per input, outside the timed jobs,
without the program's fast paths (see README.md).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# the checkout root: it holds perfbench/ and the program
ROOT = Path(__file__).resolve().parent.parent

BATCH_SIZE = 32
CELL_RES = 5000.0
S2_LEVEL = 9
WITH_S2 = True
BANDS = 3
SKEW_FRAC = 0.1
SHUFFLE_CELL_RES = 1000.0
# the hot 1-km cell of shuffle_pip_skewed: grid column 1, row 1 of the parts grid
HOT_CELL = (1, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "flagship" | "resume" | "shuffle"
    why: str
    n_polys: int
    # (n_images, tile_px) of the grid bench_polygons lays the diamonds out on
    poly_layout: tuple = (0, 0)
    n_images: int = 0
    tile_px: int = 0
    rows_per_file: int = 0
    n_points: int = 0

    @property
    def rows(self) -> int:
        """Input rows of one job: image rows, or points for the shuffle."""
        return self.n_points if self.kind == "shuffle" else self.n_images


# flagship_many_polygons is runnable by name but not in BENCHMARK.json:
# four workloads do not fit the benchmark's time budget, and every layer
# it loads is also measured on flagship_large_tiles
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "flagship_large_tiles",
            "flagship",
            "north-star zonal extraction: 128 px tiles under 25 large diamonds; decode, cover test and read dominate",
            n_polys=25,
            poly_layout=(4096, 128),
            n_images=512,
            tile_px=128,
            rows_per_file=128,
        ),
        Workload(
            "flagship_many_polygons",
            "flagship",
            "32 px tiles under tile-sized diamonds: every pair is a boundary pair, so join, mask and per-task setup dominate",
            n_polys=4096,
            poly_layout=(8192, 32),
            n_images=1024,
            tile_px=32,
            rows_per_file=512,
        ),
        Workload(
            "flagship_resume",
            "resume",
            "flagship_large_tiles input through run_flagship_resumable: adds the groupby(shard) exchange and manifest writes",
            n_polys=25,
            poly_layout=(4096, 128),
            n_images=512,
            tile_px=128,
            rows_per_file=128,
        ),
        Workload(
            "shuffle_pip_skewed",
            "shuffle",
            "cell_pip_join with 10% of points in one hot 1-km cell: the only cell-keyed exchange with a hot key, no decode",
            n_polys=800,
            n_points=1000,
        ),
    )
}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    images: Optional[str] = None  # images table directory (flagship kinds)
    polygons: Optional[list] = None  # GeoJSON feature dicts (flagship kinds)
    points: Optional[str] = None  # points parquet (shuffle)
    polygons_file: Optional[str] = None  # (poly_id, geom) parquet (shuffle)
    reference: Optional[dict] = None


def images_dir(cache: str, w: Workload, seed: int) -> str:
    """Cache path naming every generation parameter, so a run never
    reuses a table made with other parameters."""
    return os.path.join(
        cache,
        f"images-seed{seed}-rows{w.n_images}-px{w.tile_px}-bands{BANDS}-skew{SKEW_FRAC}-rpf{w.rows_per_file}",
    )


def points_dir(cache: str, w: Workload, seed: int) -> str:
    return os.path.join(cache, f"points-seed{seed}-rows{w.n_points}-skew{SKEW_FRAC}-polys{w.n_polys}")


def reference_path(w: Workload, seed: int, cache: str) -> str:
    if w.kind == "shuffle":
        return os.path.join(points_dir(cache, w, seed), "reference.json")
    return os.path.join(
        images_dir(cache, w, seed), f"reference-polys{w.n_polys}-layout{w.poly_layout[0]}x{w.poly_layout[1]}.json"
    )


def prepare(w: Workload, seed: int, cache: str) -> Inputs:
    """The inputs of ``w`` for ``seed`` and their reference result,
    generated and computed on first use, then reused from ``cache``."""
    ref_path = reference_path(w, seed, cache)
    if not os.path.exists(ref_path):
        # a child process does it, so the driver's peak RSS is the same
        # whether the cache was warm or not (a plain subprocess: a
        # multiprocessing child leaves a resource tracker running)
        subprocess.run(
            [sys.executable, "-m", "perfbench.workloads", json.dumps(dataclasses.asdict(w)), str(seed), cache],
            cwd=ROOT,
            check=True,
        )
    with open(ref_path) as fd:
        reference = json.load(fd)
    if w.kind == "shuffle":
        path = points_dir(cache, w, seed)
        return Inputs(
            points=os.path.join(path, "points.parquet"),
            polygons_file=os.path.join(path, "polygons.parquet"),
            reference=reference,
        )
    from gdal_boots_ray.sources.fixtures import bench_polygons

    polygons = bench_polygons(*w.poly_layout, n_polys=w.n_polys)
    return Inputs(images=images_dir(cache, w, seed), polygons=polygons, reference=reference)


def build_inputs(w: Workload, seed: int, cache: str) -> None:
    """Write the inputs of ``w`` for ``seed`` and then their reference."""
    if w.kind == "shuffle":
        path = points_dir(cache, w, seed)
        points_file = os.path.join(path, "points.parquet")
        _write_points(w, seed, path, points_file)
        reference = shuffle_reference(points_file, w.n_polys)
    else:
        from gdal_boots_ray.sources.fixtures import bench_polygons, generate_images_parquet

        path = generate_images_parquet(
            images_dir(cache, w, seed),
            n_images=w.n_images,
            tile_px=w.tile_px,
            bands=BANDS,
            skew_frac=SKEW_FRAC,
            seed=seed,
            rows_per_file=w.rows_per_file,
        )
        reference = flagship_reference(path, bench_polygons(*w.poly_layout, n_polys=w.n_polys))
    ref_path = reference_path(w, seed, cache)
    with open(ref_path + ".tmp", "w") as fd:
        json.dump(reference, fd)
    os.replace(ref_path + ".tmp", ref_path)


def _write_points(w: Workload, seed: int, path: str, points_file: str) -> None:
    from gdal_boots_ray.sources.fixtures import TILE_COLS, TILE_STEP, TILE_X0, TILE_Y0, part_polygons_batch

    os.makedirs(path, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_rows = -(-w.n_polys // TILE_COLS)
    x = TILE_X0 + rng.random(w.n_points) * TILE_COLS * TILE_STEP
    y = TILE_Y0 - rng.random(w.n_points) * n_rows * TILE_STEP
    hot = rng.random(w.n_points) < SKEW_FRAC
    n_hot = int(hot.sum())
    x[hot] = TILE_X0 + (HOT_CELL[0] + rng.random(n_hot)) * TILE_STEP
    y[hot] = TILE_Y0 - (HOT_CELL[1] + rng.random(n_hot)) * TILE_STEP
    pq.write_table(pa.table({"pid": np.arange(w.n_points, dtype=np.int64), "x": x, "y": y}), points_file)
    pq.write_table(part_polygons_batch(np.arange(w.n_polys)), os.path.join(path, "polygons.parquet"))


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def in_diamond(x, y, cx, cy, rx, ry):
    """|x-cx|/rx + |y-cy|/ry < 1, multiplied out so the benchmark's
    whole-number coordinates compare exactly.  A point on the boundary
    is inside on the left half (x < cx), as even-odd ray casting to +x
    with the half-open edge rule decides it."""
    dx = x - cx
    t = np.abs(dx) * ry + np.abs(y - cy) * rx
    return (t < rx * ry) | ((t == rx * ry) & (dx < 0))


def _diamond_params(polygons: List[dict]) -> np.ndarray:
    """(poly_id, cx, cy, rx, ry) of diamond polygons, read off their
    vertices [cx-rx, cy], [cx, cy+ry], ..."""
    rows = []
    for p in polygons:
        ring = p["geometry"]["coordinates"][0]
        cx, cy = ring[1][0], ring[0][1]
        rows.append((p["poly_id"], cx, cy, cx - ring[0][0], ring[1][1] - cy))
    return np.array(rows, dtype=np.float64)


def flagship_reference(images: str, polygons: List[dict]) -> dict:
    """Per-polygon aggregate from first principles, with no cover test
    and no scanline mask: tile-polygon pairs from ``in_diamond`` on tile
    centres, pixel stats from the exact diamond predicate over every
    band-0 pixel centre of every pair.

    The layouts put some pixel centres exactly on a diamond edge, where
    the engine's scanline mask and ray casting legitimately differ, so
    each statistic is given as the interval between counting those
    pixels out (``strict``) and in (``closed``).  A pair counts as a
    tile when at least one pixel centre is inside, as in the engine.
    Rows: [poly_id, n_tiles, n_px, sum_v, min_v, max_v], each statistic
    a [low, high] pair."""
    from gdal_boots_ray.kernels.png import decode_image

    files = sorted(f for f in os.listdir(images) if f.startswith("part-") and f.endswith(".parquet"))
    t = pa.concat_tables([pq.read_table(os.path.join(images, f), columns=["bytes", "w", "h", "fmt", "gt"]) for f in files])
    gt = np.array(t.column("gt").to_pylist(), dtype=np.float64)
    w = t.column("w").to_numpy().astype(np.float64)
    h = t.column("h").to_numpy().astype(np.float64)
    cx = gt[:, 2] + gt[:, 0] * w / 2
    cy = gt[:, 5] + gt[:, 4] * h / 2
    blobs = t.column("bytes").to_pylist()
    fmts = t.column("fmt").to_pylist()
    band0: Dict[int, np.ndarray] = {}

    out = []
    for pid, pcx, pcy, rx, ry in _diamond_params(polygons):
        acc = {"strict": [0, 0, 0.0, np.inf, -np.inf], "closed": [0, 0, 0.0, np.inf, -np.inf]}
        for i in np.flatnonzero(in_diamond(cx, cy, pcx, pcy, rx, ry)):
            if i not in band0:
                img = decode_image(blobs[i], fmts[i])
                band0[i] = img if img.ndim == 2 else img[0]
            b = band0[i]
            px = gt[i, 2] + gt[i, 0] * (np.arange(b.shape[1]) + 0.5)
            py = gt[i, 5] + gt[i, 4] * (np.arange(b.shape[0]) + 0.5)
            tt = np.abs(py - pcy)[:, None] * rx + np.abs(px - pcx)[None, :] * ry
            for kind, inside in (("strict", tt < rx * ry), ("closed", tt <= rx * ry)):
                sel = b[inside]
                if sel.size:
                    a = acc[kind]
                    a[0] += 1
                    a[1] += int(sel.size)
                    a[2] += float(sel.sum(dtype=np.float64))
                    a[3] = min(a[3], float(sel.min()))
                    a[4] = max(a[4], float(sel.max()))
        lo, hi = acc["strict"], acc["closed"]
        if hi[0]:
            # min over more pixels is lower; max over more pixels is higher
            out.append([int(pid), [lo[0], hi[0]], [lo[1], hi[1]], [lo[2], hi[2]], [hi[3], lo[3]], [lo[4], hi[4]]])
    return {"rows": sorted(out)}


def shuffle_reference(points_file: str, n_polys: int) -> dict:
    """Every (point, polygon) pair from the closed-form diamond
    predicate ``in_diamond``, in NumPy over the parts grid
    neighbourhood of each point (radii stay below 1.5 grid steps)."""
    from gdal_boots_ray.sources.fixtures import TILE_COLS, TILE_STEP, TILE_X0, TILE_Y0, part_polygon_params

    t = pq.read_table(points_file)
    pid = t.column("pid").to_numpy()
    x = t.column("x").to_numpy()
    y = t.column("y").to_numpy()
    col = np.floor((x - TILE_X0) / TILE_STEP).astype(np.int64)
    row = np.floor((TILE_Y0 - y) / TILE_STEP).astype(np.int64)
    pairs = []
    for dc in range(-2, 3):
        for dr in range(-2, 3):
            c, r = col + dc, row + dr
            k = r * TILE_COLS + c
            ok = (c >= 0) & (c < TILE_COLS) & (r >= 0) & (k < n_polys)
            pcx, pcy, rx, ry = part_polygon_params(np.where(ok, k, 0))
            inside = ok & in_diamond(x, y, pcx, pcy, rx, ry)
            pairs.extend(zip(pid[inside].tolist(), k[inside].tolist()))
    return {"pairs": sorted(pairs)}


# ---------------------------------------------------------------------------
# one job per workload, and its check
# ---------------------------------------------------------------------------


class Session:
    """Per-Ray-session state of a workload: the polygon broadcast and,
    for the shuffle, the input Datasets."""

    def __init__(self, w: Workload, inputs: Inputs, nproc: int, work_dir: str):
        self.w = w
        self.inputs = inputs
        self.nproc = nproc
        self.work_dir = work_dir
        self.datasets: list = []  # Datasets of the last job, for Ray stats
        self._jobs = 0
        if w.kind == "shuffle":
            import ray.data as rd

            self.points_ds = rd.read_parquet(inputs.points)
            self.polygons_ds = rd.read_parquet(inputs.polygons_file)
        else:
            from gdal_boots_ray.stages.joins import put_polygons

            # the set-up broadcast; the entry points take the polygon
            # list and broadcast it again in every job
            self.polygons_ref = put_polygons(inputs.polygons)

    def run_job(self, rec=None):
        """One job; returns its output.  With a span recorder ``rec``
        (traced runs) the driver side records when Ray Data executes
        (``ray_data.execute``) and the final combine."""
        self.datasets = []
        if self.w.kind == "flagship":
            from gdal_boots_ray.pipelines.flagship import combine_zonal_partials, run_flagship

            ds = run_flagship(
                self.inputs.images,
                polygons=self.inputs.polygons,
                cell_res=CELL_RES,
                s2_level=S2_LEVEL,
                with_s2=WITH_S2,
                batch_size=BATCH_SIZE,
                num_cpus_hint=self.nproc,
            )
            self._track(ds, rec)
            if rec is None:
                return combine_zonal_partials(ds)
            with rec.span("flagship.combine"):
                return combine_zonal_partials(ds)
        if self.w.kind == "resume":
            from gdal_boots_ray.pipelines.flagship import run_flagship_resumable
            from gdal_boots_ray.state import manifest

            self._jobs += 1
            out_dir = os.path.join(self.work_dir, f"checkpoint-{self._jobs}")
            # run_flagship_resumable consumes its per-chunk Datasets
            # itself: keep a handle on each so their stats can be read
            write_partitioned = manifest.write_partitioned

            def tracked(*args, **kwargs):
                return self._track(write_partitioned(*args, **kwargs), rec)

            manifest.write_partitioned = tracked
            try:
                final, _summary = run_flagship_resumable(
                    self.inputs.images,
                    out_dir,
                    polygons=self.inputs.polygons,
                    cell_res=CELL_RES,
                    s2_level=S2_LEVEL,
                    with_s2=WITH_S2,
                    batch_size=BATCH_SIZE,
                )
            finally:
                manifest.write_partitioned = write_partitioned
            return final
        from gdal_boots_ray.stages.joins import cell_pip_join

        ds = cell_pip_join(self.points_ds, self.polygons_ds, SHUFFLE_CELL_RES, x_col="x", y_col="y", key_col="pid")
        self._track(ds, rec)
        return ds.to_pandas()

    def _track(self, ds, rec):
        """Keep ``ds`` for its Ray stats; when traced, span its execution."""
        self.datasets.append(ds)
        if rec is not None:
            to_pandas = ds.to_pandas

            def spanned(*args, **kwargs):
                with rec.span("ray_data.execute"):
                    return to_pandas(*args, **kwargs)

            ds.to_pandas = spanned
        return ds

    def clean(self) -> None:
        """Drop the job's checkpoint directory (outside the timed job)."""
        if self.w.kind == "resume":
            shutil.rmtree(os.path.join(self.work_dir, f"checkpoint-{self._jobs}"), ignore_errors=True)


def check(w: Workload, output, reference: dict) -> bool:
    """True iff the job output matches the reference: the exact pair
    set for the shuffle; each flagship statistic inside its interval."""
    if w.kind == "shuffle":
        got = sorted(zip(output["pid"].astype(np.int64).tolist(), output["poly_id"].astype(np.int64).tolist()))
        return got == [tuple(p) for p in reference["pairs"]]
    cols = ["poly_id", "n_tiles", "n_px", "sum_v", "min_v", "max_v"]
    got = {int(r[0]): r[1:] for r in output[cols].itertuples(index=False)}
    ref = {row[0]: row[1:] for row in reference["rows"]}
    for pid in set(got) | set(ref):
        if pid not in ref:
            return False
        if pid not in got:
            if ref[pid][0][0] > 0:  # a tile surely inside was missed
                return False
            continue
        if not all(lo <= value <= hi for value, (lo, hi) in zip(got[pid], ref[pid])):
            return False
    return True


if __name__ == "__main__":
    # python3 -m perfbench.workloads '<Workload as JSON>' <seed> <cache dir>
    build_inputs(Workload(**json.loads(sys.argv[1])), int(sys.argv[2]), sys.argv[3])
