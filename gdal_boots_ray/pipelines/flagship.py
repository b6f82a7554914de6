"""The flagship spatial-join + tiling pipeline.

North-star shape (BASELINE.json): read the Lance-shaped images table →
actor-pool decode to pixel buffers → vectorized bounds + cell ids
(grid + S2) → broadcast PIP join against the polygon side → per-(poly,
tile) zonal partials → per-polygon final aggregate.  Pixels never
cross a shuffle and the plan has no exchange: the kB-sized partials
are combined on the driver (``combine_zonal_partials``).  The
resumable run uses the same read-in-task plan; each file's task also
writes that file's partials as its checkpoint partition.

Streaming end-to-end: no take_all/materialize on the big side; the
result is a small per-polygon aggregate table.
"""

from __future__ import annotations

import glob
import os
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from gdal_boots_ray.sources.fixtures import nation_polygons
from gdal_boots_ray.stages.decode import DecodeImages
from gdal_boots_ray.stages.geo import add_bounds, make_add_grid_cell, make_add_lonlat, make_add_s2_cell
from gdal_boots_ray.stages.joins import BroadcastPIPJoin, put_polygons
from gdal_boots_ray.stages.zonal import ZonalStats
from gdal_boots_ray.state import manifest


class FusedTileWorker:
    """The whole per-tile chain — decode -> bounds -> cell ids ->
    broadcast PIP -> zonal partials — in ONE actor, so decoded pixels
    never enter the object store and a single pool absorbs every CPU.

    The per-stage classes in stages/ remain the composable API; this
    fusion is the physical plan for the flagship (Ray fuses stateless
    maps automatically but not actor pools of different sizes)."""

    def __init__(
        self,
        polygons_ref,
        cell_res: float,
        s2_level: int,
        with_s2: bool,
        decode_all: bool = False,
    ):
        self.decode = DecodeImages()
        payload_cols = ["pixels", "bands"] if decode_all else ["bytes", "fmt"]
        self.join = BroadcastPIPJoin(
            polygons_ref,
            keep_cols=["image_id", *payload_cols, "w", "h", "gt", "cx", "cy"],
        )
        self.zonal = ZonalStats(polygons_ref)
        self.cell_fn = make_add_grid_cell(cell_res)
        self.with_s2 = with_s2
        self.lonlat_fn = make_add_lonlat()
        self.s2_fn = make_add_s2_cell(s2_level)
        self.decode_all = decode_all

    def __call__(self, batch):
        # bounds/cells/PIP run on georeferencing metadata only; decode
        # is pushed BELOW the join so only matched tiles pay it (the
        # reference's crop_by_geometry also decodes only what it
        # crops).  decode_all=True restores decode-everything for
        # pipelines whose downstream consumes every tile's pixels.
        if self.decode_all:
            batch = self.decode(batch)
        batch = add_bounds(batch)
        batch = self.cell_fn(batch)
        if self.with_s2:
            batch = self.s2_fn(self.lonlat_fn(batch))
        matched = self.join(batch)
        if self.decode_all:
            stats = self.zonal(matched)
        else:
            stats = self._decode_zonal_rowwise(matched)
        # partial aggregate per batch: the task then returns (and
        # checkpoints) one row per (batch, polygon) instead of one per
        # (tile, polygon), and the final combine is trivial
        return _partial_zonal_agg(stats)

    def _decode_zonal_rowwise(self, matched):
        """Decode + zonal partials of band 0 for a batch of matched
        (tile, polygon) pairs, batch-at-a-time where it pays:

        - the cover test runs once per polygon over all of its pairs
          in the batch (``_rings_cover_tiles``), not once per pair;
        - the per-pair loop then decodes only band 0 (PNG: from the
          inflated scanlines; raw uint8: a zero-copy slice) straight
          from the bytes column, with no intermediate Arrow pixels
          column, and reduces either the whole band (interior tile)
          or the ``_rings_mask`` selection (boundary tile).

        Same pixel selection as ``select_zone_pixels``, so the
        partials equal the ``decode_all`` path's ``ZonalStats``.  A
        pair whose bytes do not decode raises ``ValueError`` naming
        its ``image_id``."""
        from gdal_boots_ray.kernels.png import _RAW_HEADER_LEN, decode_image, raw_header
        from gdal_boots_ray.stages.decode import binary_column_views
        from gdal_boots_ray.stages.zonal import _rings_cover_tiles, _rings_mask

        n = matched.num_rows
        gts = matched.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        hs = matched.column("h").to_numpy()
        ws = matched.column("w").to_numpy()
        fmts = matched.column("fmt").to_pylist()
        blobs = binary_column_views(matched.column("bytes"))
        pids = matched.column("poly_id").to_numpy()
        ids = matched.column("image_id").to_pylist()
        polys = self.zonal.polygons
        # interior/boundary class of every pair, one cover call per polygon
        uniq, inv = np.unique(pids, return_inverse=True)
        covered = np.zeros(n, bool)
        for j, pid in enumerate(uniq):
            rings = polys.get(int(pid))
            if rings is not None:
                idx = np.flatnonzero(inv == j)
                covered[idx] = _rings_cover_tiles(rings, hs[idx], ws[idx], gts[idx])
        n_px = np.zeros(n, np.int64)
        sum_v = np.zeros(n, np.float64)
        min_v = np.full(n, np.inf)
        max_v = np.full(n, -np.inf)
        for i in range(n):
            rings = polys.get(int(pids[i]))
            if rings is None:
                continue
            shape = (int(hs[i]), int(ws[i]))
            try:
                if fmts[i] == "raw":
                    try:
                        nb, _h, _w, nbytes = raw_header(blobs[i])
                        band0 = blobs[i][_RAW_HEADER_LEN : _RAW_HEADER_LEN + nbytes].reshape(nb, *shape)[0]
                    except ValueError:
                        band0 = decode_image(bytes(blobs[i]), "raw", band=0)
                else:
                    band0 = decode_image(bytes(blobs[i]), fmts[i], band=0)
            except ValueError as e:
                raise ValueError(f"image_id {ids[i]!r}: {e}") from e
            if covered[i]:
                sel = band0.reshape(-1)  # interior tile: no mask/gather
            else:
                sel = band0[_rings_mask(rings, shape, gts[i])]
            n_px[i] = sel.size
            if sel.size:
                sum_v[i] = float(sel.sum(dtype=np.float64))
                min_v[i] = float(sel.min())
                max_v[i] = float(sel.max())
        keep = n_px > 0
        return pa.table(
            {
                "poly_id": pa.array(pids[keep].astype(np.int64)),
                "image_id": pa.array([v for v, k in zip(ids, keep) if k], pa.string()),
                "n_px": pa.array(n_px[keep]),
                "sum_v": pa.array(sum_v[keep]),
                "min_v": pa.array(min_v[keep]),
                "max_v": pa.array(max_v[keep]),
            }
        )


def _partial_zonal_agg(stats):
    g = stats.group_by("poly_id").aggregate(
        [("image_id", "count"), ("n_px", "sum"), ("sum_v", "sum"), ("min_v", "min"), ("max_v", "max")]
    )
    return pa.table(
        {
            "poly_id": g.column("poly_id").cast(pa.int64()),
            "n_tiles": g.column("image_id_count").cast(pa.int64()),
            "n_px": g.column("n_px_sum").cast(pa.int64()),
            "sum_v": g.column("sum_v_sum").cast(pa.float64()),
            "min_v": g.column("min_v_min").cast(pa.float64()),
            "max_v": g.column("max_v_max").cast(pa.float64()),
        }
    )


def run_flagship(
    images_path: str,
    polygons: Optional[Sequence[dict]] = None,
    cell_res: float = 5000.0,
    s2_level: int = 9,
    decode_concurrency=None,
    batch_size: int = 64,
    with_s2: bool = True,
    num_cpus_hint: Optional[int] = None,
    decode_all: bool = False,
    input_reps: int = 1,
    use_actors: bool = False,
):
    """Returns the per-polygon zonal aggregate Dataset.

    Stage pools are sized from ``num_cpus_hint`` (default: the cluster
    CPU count) so no stage becomes the fixed-size bottleneck as the
    cluster grows: ~50% decode, ~20% join, ~30% zonal.
    """
    if num_cpus_hint is None:
        num_cpus_hint = int(ray.cluster_resources().get("CPU", 8))
    if decode_concurrency is None:
        decode_concurrency = (2, max(2, num_cpus_hint - 2))

    if polygons is None:
        polygons = nation_polygons(np.arange(25))
    poly_ref = put_polygons(polygons)

    from gdal_boots_ray.sources.imagetable import is_lance_dataset, read_image_table

    if use_actors or is_lance_dataset(images_path):
        # Dataset-read plan (actor pools can't read in-task; Lance
        # fragments go through ray.data.read_lance).  input_reps > 1
        # re-lists the same files N times in ONE read op — clean
        # streaming fan-out (a Dataset.union chain of reads measured
        # pathologically slow under the streaming executor here).
        if input_reps > 1:
            ds = rd.read_parquet(_input_files(images_path) * input_reps)
        else:
            ds = read_image_table(images_path)
    if use_actors:
        stats = ds.map_batches(
            FusedTileWorker,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=decode_concurrency,
            num_cpus=1,
            fn_constructor_kwargs={
                "polygons_ref": poly_ref,
                "cell_res": cell_res,
                "s2_level": s2_level,
                "with_s2": with_s2,
                "decode_all": decode_all,
            },
        )
    elif is_lance_dataset(images_path):
        # Lance path: stateless tasks over the Dataset read (the
        # read-in-task plan below is parquet-specific)
        def fused(batch, _cache={}):
            worker = _cache.get("w")
            if worker is None:
                worker = _cache["w"] = FusedTileWorker(
                    poly_ref, cell_res, s2_level, with_s2, decode_all=decode_all
                )
            return worker(batch)

        stats = ds.map_batches(fused, batch_format="pyarrow", batch_size=batch_size)
    else:
        files = _input_files(images_path) * max(1, input_reps)
        stats = _read_in_task(files, poly_ref, cell_res, s2_level, with_s2, decode_all, batch_size, num_cpus_hint)
    return stats


IMAGE_COLS = ["image_id", "bytes", "w", "h", "fmt", "gt", "epsg"]


def _input_files(images_path: str) -> list:
    """The table's ``part-*.parquet`` files, or the path itself."""
    return sorted(glob.glob(os.path.join(images_path, "part-*.parquet"))) or [images_path]


def _file_partials(worker, path: str, batch_size: int, out_dir: Optional[str] = None) -> pa.Table:
    """Zonal partials of one input file: read it, run ``worker`` over
    ``batch_size`` slices and, given ``out_dir``, checkpoint them as the
    file's own partition ``part=<file stem>`` (with a constant ``shard``
    column).  A zero-row file yields one empty table, checkpointed like
    any other.  Errors of the tile chain are re-raised naming the file."""
    t = pq.read_table(path, columns=IMAGE_COLS)
    try:
        part = pa.concat_tables([worker(t.slice(s, batch_size)) for s in range(0, max(1, t.num_rows), batch_size)])
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    if out_dir is not None:
        stem = os.path.splitext(os.path.basename(path))[0]
        shard = pa.array([stem] * part.num_rows, pa.string())
        manifest.write_partition(out_dir, stem, part.add_column(0, "shard", shard))
    return part


def _read_in_task(files, poly_ref, cell_res, s2_level, with_s2, decode_all, batch_size, num_cpus_hint, out_dir=None):
    """Dataset of the zonal partials of ``files`` (``_file_partials``
    of each), one task per group of files.

    Ray's executor keeps ReadParquet and downstream maps as SEPARATE
    operators (no read->map fusion in 2.49), so a read_parquet plan
    ships every encoded payload through the object store twice (write +
    fetch) just to decode it in the next operator.  Instead the work
    list is a tiny Dataset of file paths and ONE task reads its files
    AND runs the whole tile chain — only the kB-sized zonal partials
    ever leave the task, and with ``out_dir`` the task checkpoints each
    file itself, so resume needs no exchange.  On a multi-node cluster
    this is also the locality-optimal plan: the read and the compute
    are the same task by construction.  Worker state amortizes: Ray
    reuses worker processes across tasks and the closure cache keeps
    one FusedTileWorker each."""

    def fused_file(batch, _cache={}):
        worker = _cache.get("w")
        if worker is None:
            worker = _cache["w"] = FusedTileWorker(poly_ref, cell_res, s2_level, with_s2, decode_all=decode_all)
        return pa.concat_tables(
            [_file_partials(worker, p, batch_size, out_dir) for p in batch.column("path").to_pylist()]
        )

    # task granularity: ~4 fragments per CPU wave, floor 64 tasks,
    # so scheduling overhead amortizes while the tail stays short
    per_task = max(1, len(files) // max(64, 4 * num_cpus_hint))
    n_blocks = (len(files) + per_task - 1) // per_task
    # the executor's default operator reservation withholds ~35%
    # of CPUs from a single-operator plan; this plan IS the job.
    # Datasets snapshot DataContext at creation, so flipping the
    # flag around construction scopes it to THIS dataset only.
    from ray.data import DataContext

    ctx = DataContext.get_current()
    saved = ctx.op_resource_reservation_enabled
    ctx.op_resource_reservation_enabled = False
    try:
        paths = rd.from_items([{"path": p} for p in files], override_num_blocks=n_blocks)
        return paths.map_batches(fused_file, batch_format="pyarrow", batch_size=per_task)
    finally:
        ctx.op_resource_reservation_enabled = saved


def run_flagship_resumable(
    images_path: str,
    out_dir: str,
    polygons: Optional[Sequence[dict]] = None,
    cell_res: float = 5000.0,
    s2_level: int = 9,
    with_s2: bool = True,
    batch_size: int = 64,
    chunk_files: int = 4,
):
    """The flagship pipeline with per-INPUT-FILE checkpoint
    partitions (north_rule: "resumable from checkpoint with
    per-partition lineage + metrics").

    Each input parquet file is one resume unit.  This is
    ``run_flagship``'s read-in-task plan with a checkpoint dir: the
    task that processes a file writes that file's per-poly zonal
    partials to ``out_dir/part=<stem>/`` with an atomic manifest, as
    soon as the file is done, so a kill loses only the files whose
    tasks were still running.  A rerun anti-joins the file stems
    against completed manifests and runs ONLY the missing files, in
    Datasets of ``chunk_files`` files each.  The final combine folds
    all partition partials into the per-polygon aggregate; partial sums
    are integer-valued in float64, so the combined output is
    bit-identical no matter how the work was split before a kill.

    Returns (final pandas DataFrame, run summary dict).
    """
    import pandas as pd

    files = _input_files(images_path)
    stems = [os.path.splitext(os.path.basename(f))[0] for f in files]
    todo = set(manifest.resume_plan(out_dir, stems))
    todo_files = [f for f, s in zip(files, stems) if s in todo]

    if polygons is None:
        polygons = nation_polygons(np.arange(25))
    poly_ref = put_polygons(polygons)
    num_cpus_hint = int(ray.cluster_resources().get("CPU", 8))

    for i in range(0, len(todo_files), chunk_files):
        chunk = todo_files[i : i + chunk_files]
        # the tasks checkpoint their files; the partials are read back
        # from the partitions below
        ds = _read_in_task(chunk, poly_ref, cell_res, s2_level, with_s2, False, batch_size, num_cpus_hint, out_dir)
        ds.materialize()

    # final combine over ALL partitions (tiny: rows ~ files x polys)
    parts = manifest.completed_partitions(out_dir)
    frames = [pq.read_table(os.path.join(out_dir, f"part={k}", "data.parquet")).to_pandas() for k in sorted(parts)]
    final = _combine_frame(pd.concat(frames, ignore_index=True) if frames else pd.DataFrame())
    summary = manifest.finalize_run(out_dir, metrics={"shards": len(parts)})
    return final, summary


def combine_zonal_partials(stats_ds) -> "object":
    """Final combine of the per-batch zonal partials.

    The partial rows number ~n_batches x n_polys (tiny by
    construction), so the global merge streams them to the driver with
    ``iter_batches`` and reduces in one vectorized pandas groupby —
    the same shape Ray uses internally for ds.sum()/count().  (A
    Dataset-level groupby here costs ~6s of fixed sort-shuffle
    overhead across hundreds of partial blocks for 25 output rows.)
    Returns a pandas DataFrame ordered by poly_id.
    """
    return _combine_frame(stats_ds.to_pandas())


def _combine_frame(allp):
    """Per-polygon aggregate of a pandas frame of zonal partials, ordered
    by poly_id; a frame with no rows gives the result columns only."""
    import pandas as pd

    if allp.empty:
        return pd.DataFrame(columns=["poly_id", "n_tiles", "n_px", "sum_v", "min_v", "max_v"])
    return (
        allp.groupby("poly_id")
        .agg(
            n_tiles=("n_tiles", "sum"),
            n_px=("n_px", "sum"),
            sum_v=("sum_v", "sum"),
            min_v=("min_v", "min"),
            max_v=("max_v", "max"),
        )
        .reset_index()
        .sort_values("poly_id")
        .reset_index(drop=True)
    )
