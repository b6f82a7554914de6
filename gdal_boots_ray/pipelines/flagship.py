"""The flagship spatial-join + tiling pipeline.

North-star shape (BASELINE.json): read the parquet images table →
vectorized bounds + cell ids (grid + S2) → broadcast PIP join against
the polygon side → band-0 decode of each matched tile, once → one
vectorized zonal pass over every (poly, tile) pair → one partial per
polygon, all in one ``FusedTileWorker`` call per input file (or Dataset
block).  The call splits its work by what it reads:

- the plan (``TilePlan``) runs once per file on NumPy arrays of the
  metadata: bounds, cells, the join's (row, polygon) index pairs and
  every pair's zone spans, as offsets into its tile;
- the pixel step runs per ``batch_size`` rows: band-0 decode of that
  slice's matched tiles into one buffer and the span reduce over it,
  so ``batch_size`` bounds the decoded pixels held at once;
- the fold (``_fold_by_poly``) runs once per file and builds the only
  Arrow table the worker makes.

Pixels never cross a shuffle and the plan has no exchange: the
kB-sized partials are combined on the driver (``combine_zonal_partials``).

Two Dataset builders run the worker: ``_read_in_task`` for parquet
tables and the resumable run, and ``fused_partials`` over an existing
Dataset (``entry()``'s synthesized tiles).  ``_read_in_task`` runs one
wave: at most one task per CPU, each over a contiguous run of files,
each building one worker; in the resumable run the task writes each
file's partials as that file's checkpoint partition as soon as the file
is done.

Streaming end-to-end: no take_all/materialize on the big side; the
result is a small per-polygon aggregate table.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
from typing import NamedTuple, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from gdal_boots_ray.kernels.affine import bounds
from gdal_boots_ray.kernels.cells import grid_cell_id, s2_cell_id
from gdal_boots_ray.sources.fixtures import nation_polygons
from gdal_boots_ray.stages.decode import binary_column_views
from gdal_boots_ray.stages.geo import add_bounds  # noqa: F401  (perfbench/spans.py wraps flagship.add_bounds)
from gdal_boots_ray.stages.geo import gt_matrix, to_lonlat
from gdal_boots_ray.stages.joins import BroadcastPIPJoin, pack_polygons, put_polygons
from gdal_boots_ray.stages.zonal import zonal_partials, zone_spans
from gdal_boots_ray.state import manifest


class TileBytes(NamedTuple):
    """The columns of a table of tiles that ``band0_reader`` reads,
    converted once: ``h`` and ``w`` as int64 arrays, ``fmt`` as a list,
    one zero-copy view per row of ``bytes``, and ``image_id`` for error
    messages.  ``slice`` shares them, so a table converted once serves
    every pixel step."""

    hs: np.ndarray
    ws: np.ndarray
    fmts: list
    blobs: list
    image_ids: pa.ChunkedArray

    @classmethod
    def of(cls, table: pa.Table, hs=None, ws=None) -> "TileBytes":
        return cls(
            table.column("h").to_numpy().astype(np.int64) if hs is None else hs,
            table.column("w").to_numpy().astype(np.int64) if ws is None else ws,
            table.column("fmt").to_pylist(),
            binary_column_views(table.column("bytes")),
            table.column("image_id"),
        )

    @property
    def num_rows(self) -> int:
        return len(self.hs)

    def slice(self, lo: int, n: int) -> "TileBytes":
        """Rows ``lo .. lo + n`` (fewer at the end)."""
        hi = lo + n
        return TileBytes(
            self.hs[lo:hi], self.ws[lo:hi], self.fmts[lo:hi], self.blobs[lo:hi], self.image_ids.slice(lo, n)
        )


class TilePlan:
    """The metadata half of the zonal chain over one table of tiles (an
    input file or a Dataset block), computed once on NumPy arrays: the
    tile centers, the broadcast PIP join's ``Matches`` (``row``, by
    row), each pair's ``pids`` and the ``zone_spans`` of every pair as
    ``(pair, start, end)`` offsets into its tile's band.  None of it
    reads a pixel; the ``TileBytes`` the pixel steps read (``tiles``)
    are converted here too.  ``pixels`` then decodes band 0 of one
    slice of rows and shifts that slice's spans onto it, so only the
    pixel step is bounded by a batch size."""

    def __init__(self, table: pa.Table, join, edges):
        gts = gt_matrix(table)
        hs = table.column("h").to_numpy().astype(np.int64)
        ws = table.column("w").to_numpy().astype(np.int64)
        b = bounds(gts, ws, hs)
        self.cx, self.cy = (b[:, 0] + b[:, 2]) / 2, (b[:, 1] + b[:, 3]) / 2
        m = join(self.cx, self.cy)
        self.row, self.pids = m.row, edges.ids[m.pos]
        self.pair, self.start, self.end = zone_spans(edges, self.pids, hs[m.row], ws[m.row], gts[m.row])
        self.tiles = TileBytes.of(table, hs, ws)

    def steps(self, batch_size: int):
        """``(lo, rows lo .. lo + batch_size of the table as TileBytes)``
        for every pixel step; a zero-row table has one empty step."""
        for lo in range(0, max(1, self.tiles.num_rows), batch_size):
            yield lo, self.tiles.slice(lo, batch_size)

    def pixels(self, lo: int, batch):
        """``(pair, start, end, buf)``: the spans of the pairs of rows
        ``lo .. lo + batch.num_rows`` (``batch``, a table or its
        ``TileBytes``), shifted onto ``buf``, the band 0 of those rows'
        matched tiles (``band0_reader``)."""
        p_lo, p_hi = np.searchsorted(self.row, (lo, lo + batch.num_rows))
        s_lo, s_hi = np.searchsorted(self.pair, (p_lo, p_hi))
        buf, base = band0_reader(batch, self.row[p_lo:p_hi] - lo)
        pair = self.pair[s_lo:s_hi]
        off = base[pair - p_lo]
        return pair, self.start[s_lo:s_hi] + off, self.end[s_lo:s_hi] + off, buf


class FusedTileWorker:
    """The whole per-tile chain — bounds -> cell ids -> broadcast PIP
    -> zone spans, once per table (``TilePlan``), then band-0 decode +
    span reduce per ``batch_size`` rows, then one per-polygon fold — in
    one call, so decoded pixels never leave the process.  Each task of
    either Dataset builder builds one.  ``cell_range`` is the (min,
    max) grid cell of the last table, None if it had no rows."""

    def __init__(self, polygons_ref, cell_res: float, s2_level: int, with_s2: bool, batch_size: int = 64):
        pip = BroadcastPIPJoin(polygons_ref)
        # the zonal pass reuses the join's edge table
        self.join = pip.pairs
        self.edges = pip.edges
        self.cell_fn = functools.partial(grid_cell_id, res=cell_res)
        self.with_s2 = with_s2
        self.lonlat_fn = to_lonlat
        self.s2_fn = functools.partial(s2_cell_id, level=s2_level)
        self.batch_size = batch_size
        self.cell_range = None

    def __call__(self, batch):
        # bounds/cells/PIP/spans run on georeferencing metadata only;
        # decode is pushed BELOW the join so only matched tiles pay it
        # (the reference's crop_by_geometry also decodes only what it crops)
        plan = TilePlan(batch, self.join, self.edges)
        cells = self.cell_fn(plan.cx, plan.cy)
        self.cell_range = (int(cells.min()), int(cells.max())) if len(cells) else None
        if self.with_s2:
            # the S2 ids of the tile centers; nothing downstream reads them yet
            self.s2_fn(*self.lonlat_fn(batch.column("epsg").to_numpy(), plan.cx, plan.cy))
        # one partial aggregate per table: the task returns (and
        # checkpoints) one row per (file, polygon), and the final
        # combine is trivial
        stats = [self._decode_zonal_rowwise(plan, lo, step) for lo, step in plan.steps(self.batch_size)]
        return _partial_zonal_agg(stats)

    def _decode_zonal_rowwise(self, plan: TilePlan, lo: int, batch):
        """``zonal_partials`` of the matched (tile, polygon) pairs of the
        rows ``lo .. lo + batch.num_rows`` of ``plan``: band 0 of each
        matched tile is decoded once from ``batch``'s bytes column
        (``band0_reader``), however many polygons it matched, and its
        pairs' spans are reduced over it.  A tile whose bytes do not
        decode raises ``ValueError`` naming its ``image_id``."""
        return zonal_partials(plan.pids, *plan.pixels(lo, batch))


def band0_reader(batch, rows):
    """``(buf, base)``: band 0 of every distinct row of ``batch`` (a
    table of tiles or its ``TileBytes``) named in ``rows``, written once
    each straight from its ``bytes`` column into one flat buffer with
    one trailing zero element; ``buf[base[i]: base[i] + h*w]`` is row
    ``rows[i]``'s (h, w) band.  The buffer's dtype holds every row's,
    read from the PNG IHDR or RAW1 header (any other format is decoded
    first); PNG decodes into it, raw is one slice copy.  A row that does
    not decode to an (h, w) band raises ``ValueError`` naming its
    ``image_id``."""
    # looked up per call: perfbench and layer_probe time png.decode_image by patching it
    from gdal_boots_ray.kernels.png import _RAW_HEADER_LEN, decode_image, png_dtype, raw_header_full

    tiles = batch if isinstance(batch, TileBytes) else TileBytes.of(batch)
    hs, ws, fmts, blobs = tiles.hs, tiles.ws, tiles.fmts, tiles.blobs
    seen = np.zeros(tiles.num_rows, bool)
    seen[rows] = True
    uniq = np.flatnonzero(seen)
    sizes = np.zeros(tiles.num_rows, np.int64)
    sizes[uniq] = hs[uniq] * ws[uniq]
    starts = np.cumsum(sizes) - sizes
    decoded = {}

    def dtype(i):
        if fmts[i] == "png":
            return png_dtype(blobs[i])
        if fmts[i] == "raw":
            return raw_header_full(blobs[i])[0]
        decoded[i] = decode_image(blobs[i], fmts[i], band=0)
        return decoded[i].dtype

    def fill(i, dest):
        if fmts[i] == "png":
            decode_image(blobs[i], "png", band=0, out=dest)
            return
        if fmts[i] == "raw":
            dt, _nb, h, w, _n = raw_header_full(blobs[i])
            band = np.frombuffer(blobs[i], dt.newbyteorder("<"), count=h * w, offset=_RAW_HEADER_LEN).reshape(h, w)
        else:
            band = decoded.pop(i)
        if band.shape != dest.shape:
            raise ValueError(f"band 0 is {band.shape}, the row says {dest.shape}")
        dest[...] = band

    def named(i, e):
        return ValueError(f"image_id {tiles.image_ids[int(i)].as_py()!r}: {e}")

    dts = []
    for i in uniq:
        try:
            dts.append(dtype(i))
        except ValueError as e:
            raise named(i, e) from e
    buf = np.empty(int(sizes.sum()) + 1, np.result_type(*dts) if dts else np.uint8)
    buf[-1] = 0
    for i in uniq:
        try:
            fill(i, buf[starts[i] : starts[i] + sizes[i]].reshape(hs[i], ws[i]))
        except ValueError as e:
            raise named(i, e) from e
    return buf, starts[rows]


def _partial_zonal_agg(stats):
    """One row per polygon of the per-pair partials ``stats`` (a list of
    ``zonal_partials``): its pairs (n_tiles), pixels, pixel sum, min and
    max, by poly_id."""
    cols = {c: np.concatenate([s[c] for s in stats]) for c in ("poly_id", "n_px", "sum_v", "min_v", "max_v")}
    return pa.table(_fold_by_poly(n_tiles=None, **cols))


def _fold_by_poly(poly_id, n_tiles, n_px, sum_v, min_v, max_v) -> dict:
    """``RESULT_DTYPES`` columns with one row per distinct ``poly_id``,
    ascending: the sums of ``n_px`` and ``sum_v``, the min of ``min_v``
    and the max of ``max_v``, and the number of rows (``n_tiles`` None:
    per-pair partials) or the sum of ``n_tiles`` (partials of partials).
    Both the per-table aggregate and the final combine are this fold."""
    uniq, inv = np.unique(poly_id, return_inverse=True)
    k = len(uniq)
    lo = np.full(k, np.inf)
    hi = np.full(k, -np.inf)
    np.minimum.at(lo, inv, min_v)
    np.maximum.at(hi, inv, max_v)
    tiles = np.bincount(inv, minlength=k) if n_tiles is None else np.bincount(inv, n_tiles, k)
    return {
        "poly_id": uniq.astype(np.int64),
        "n_tiles": tiles.astype(np.int64),
        "n_px": np.bincount(inv, n_px, k).astype(np.int64),
        "sum_v": np.bincount(inv, sum_v, k).astype(np.float64),
        "min_v": lo,
        "max_v": hi,
    }


def run_flagship(
    images_path: str,
    polygons: Optional[Sequence[dict]] = None,
    cell_res: float = 5000.0,
    s2_level: int = 9,
    batch_size: int = 64,
    with_s2: bool = True,
    num_cpus_hint: Optional[int] = None,
    input_reps: int = 1,
):
    """Returns the Dataset of zonal partials (one row per input file and
    polygon; fold it with ``combine_zonal_partials``).

    A parquet table runs the read-in-task plan, its files listed
    ``input_reps`` times; ``num_cpus_hint`` (default: the cluster CPU
    count) sizes its tasks.  ``batch_size`` bounds the rows whose band 0
    is decoded at once.
    """
    if polygons is None:
        polygons = nation_polygons(np.arange(25))
    poly_ref = put_polygons(polygons)
    if num_cpus_hint is None:
        num_cpus_hint = int(ray.cluster_resources().get("CPU", 8))
    files = _input_files(images_path) * max(1, input_reps)
    return _read_in_task(files, poly_ref, cell_res, s2_level, with_s2, batch_size, num_cpus_hint)


IMAGE_COLS = ["image_id", "bytes", "w", "h", "fmt", "gt", "epsg"]


def _input_files(images_path: str) -> list:
    """The table's ``part-*.parquet`` files, or the path itself."""
    return sorted(glob.glob(os.path.join(images_path, "part-*.parquet"))) or [images_path]


def fused_partials(ds, polygons_ref, cell_res, s2_level, with_s2, batch_size):
    """Dataset of the zonal partials of the image Dataset ``ds`` (the
    tiles ``entry()`` synthesizes): each task runs one cached
    ``FusedTileWorker`` over each of its blocks, decoding ``batch_size``
    rows at a time.  ``run_flagship`` reads a parquet table through
    ``_read_in_task`` instead, which keeps the payload out of the object
    store."""

    def fused(block, _cache={}):
        worker = _cache.get("w")
        if worker is None:
            worker = _cache["w"] = FusedTileWorker(polygons_ref, cell_res, s2_level, with_s2, batch_size)
        return worker(block)

    return ds.map_batches(fused, batch_format="pyarrow", batch_size=None)


def _file_partials(worker, path: str, out_dir: Optional[str] = None) -> pa.Table:
    """Zonal partials of one input file: read it, run ``worker`` over it
    and, given ``out_dir``, checkpoint them as the file's own partition
    ``part=<file stem>`` (with a constant ``shard`` column and the
    file's grid-cell range in its manifest).  A file whose partition is
    already written (a retried task) is not read: its checkpointed
    partials are returned.  A zero-row file yields one empty table,
    checkpointed like any other.  Errors of the tile chain are re-raised
    naming the file."""
    stem = os.path.splitext(os.path.basename(path))[0]
    done = None if out_dir is None else manifest.read_partition(out_dir, stem)
    if done is not None:
        return done.drop_columns(["shard"])
    t = pq.read_table(path, columns=IMAGE_COLS)
    try:
        part = worker(t)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    if out_dir is not None:
        shard = pa.array([stem] * part.num_rows, pa.string())
        manifest.write_partition(out_dir, stem, part.add_column(0, "shard", shard), cell_range=worker.cell_range)
    return part


def _file_groups(files: list, num_cpus_hint: int) -> list:
    """``files`` cut into ``min(len(files), num_cpus_hint)`` contiguous
    runs in file order, whose sizes differ by at most one: one wave of
    tasks."""
    n = min(len(files), max(1, num_cpus_hint))
    return [files[len(files) * i // n : len(files) * (i + 1) // n] for i in range(n)]


def _read_in_task(files, poly_ref, cell_res, s2_level, with_s2, batch_size, num_cpus_hint, out_dir=None):
    """Dataset of the zonal partials of ``files`` (``_file_partials``
    of each), one task per group of ``_file_groups``.

    Ray's executor keeps ReadParquet and downstream maps as SEPARATE
    operators (no read->map fusion in 2.49), so a read_parquet plan
    ships every encoded payload through the object store twice (write +
    fetch) just to decode it in the next operator.  Instead the work
    list is a tiny Dataset of file groups and ONE task reads its files
    AND runs the whole tile chain — only the kB-sized zonal partials
    ever leave the task, and with ``out_dir`` the task checkpoints each
    file as soon as it is done, so resume needs no exchange.  On a
    multi-node cluster this is also the locality-optimal plan: the read
    and the compute are the same task by construction.

    The plan is one wave: ``min(len(files), num_cpus_hint)`` tasks.
    Nothing streams from the partials (the combine waits for every
    task), so a second wave would only buy tail balance.  Each extra
    task costs ~25-40 ms of Ray Data fixed cost (an empty 4-item
    ``from_items -> map_batches -> to_pandas`` job pinned to 1 CPU,
    medians of 10 in 3 rounds: 159-188 ms as 4 tasks, 70-90 ms as 1)
    plus one ``FusedTileWorker`` build, since every task deserializes
    its own copy of the function."""

    def fused_file(batch):
        worker = FusedTileWorker(poly_ref, cell_res, s2_level, with_s2, batch_size)
        paths = [p for group in batch.column("paths").to_pylist() for p in group]
        return pa.concat_tables([_file_partials(worker, p, out_dir) for p in paths])

    groups = _file_groups(files, num_cpus_hint)
    # the executor's default operator reservation withholds ~35%
    # of CPUs from a single-operator plan; this plan IS the job.
    # Datasets snapshot DataContext at creation, so flipping the
    # flag around construction scopes it to THIS dataset only.
    from ray.data import DataContext

    ctx = DataContext.get_current()
    saved = ctx.op_resource_reservation_enabled
    ctx.op_resource_reservation_enabled = False
    try:
        # one group per block, and one block per task
        paths = rd.from_items([{"paths": g} for g in groups], override_num_blocks=max(1, len(groups)))
        return paths.map_batches(fused_file, batch_format="pyarrow", batch_size=None)
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
    chunk_files: Optional[int] = None,
):
    """The flagship pipeline with per-INPUT-FILE checkpoint
    partitions (north_rule: "resumable from checkpoint with
    per-partition lineage + metrics").

    Each input parquet file is one resume unit.  This is
    ``run_flagship``'s read-in-task plan with a checkpoint dir: the
    task that processes a file writes that file's per-poly zonal
    partials to ``out_dir/part=<stem>/`` with an atomic manifest, as
    soon as the file is done, so a kill loses only the files in
    progress.  A rerun anti-joins the file stems against completed
    manifests and runs ONLY the missing files: all of them in one
    Dataset, or (given ``chunk_files``) in Datasets of ``chunk_files``
    files each, one after another.  The final combine folds
    all partition partials into the per-polygon aggregate; partial sums
    are integer-valued in float64, so the combined output is
    bit-identical no matter how the work was split before a kill.

    ``out_dir`` records the run's fingerprint (``_run_fingerprint``) on
    first use; a rerun into it with other polygons or another
    ``cell_res`` raises ``ValueError`` instead of reusing partitions
    that answer another question.

    Returns (final pandas DataFrame, run summary dict).
    """
    import pandas as pd

    if polygons is None:
        polygons = nation_polygons(np.arange(25))
    packed = pack_polygons(polygons)
    manifest.claim_run(out_dir, _run_fingerprint(packed, cell_res))

    files = _input_files(images_path)
    stems = [os.path.splitext(os.path.basename(f))[0] for f in files]
    todo = set(manifest.resume_plan(out_dir, stems))
    todo_files = [f for f, s in zip(files, stems) if s in todo]
    poly_ref = ray.put(packed)
    num_cpus_hint = int(ray.cluster_resources().get("CPU", 8))

    step = chunk_files or len(todo_files) or 1
    for i in range(0, len(todo_files), step):
        chunk = todo_files[i : i + step]
        # the tasks checkpoint their files; the partials are read back
        # from the partitions below
        ds = _read_in_task(chunk, poly_ref, cell_res, s2_level, with_s2, batch_size, num_cpus_hint, out_dir)
        ds.materialize()

    # final combine over ALL partitions (tiny: rows ~ files x polys)
    parts = manifest.completed_partitions(out_dir)
    frames = [manifest.read_partition(out_dir, k).to_pandas() for k in sorted(parts)]
    final = _combine_frame(pd.concat(frames, ignore_index=True) if frames else pd.DataFrame())
    summary = manifest.finalize_run(out_dir, metrics={"shards": len(parts)})
    return final, summary


def _run_fingerprint(packed, cell_res: float) -> str:
    """blake2b digest of what a checkpointed partition depends on beside
    its input file: the packed polygons (ids and ring coordinates, in
    list order), ``cell_res`` and ``RESULT_DTYPES``."""
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps({"cell_res": float(cell_res), "dtypes": RESULT_DTYPES}, sort_keys=True).encode())
    for pid, rings in packed:
        h.update(np.array([pid, len(rings)], np.int64).tobytes())
        for ring in rings:
            ring = np.ascontiguousarray(ring, np.float64)
            h.update(np.int64(ring.size).tobytes() + ring.tobytes())
    return h.hexdigest()


def combine_zonal_partials(stats_ds) -> "object":
    """Final combine of the per-file (or per-block) zonal partials.

    The partial rows number ~n_files x n_polys (tiny by
    construction), so the global merge collects them on the driver and
    folds them with the per-table aggregate's NumPy fold
    (``_fold_by_poly``).  (A Dataset-level groupby here costs ~6s of
    fixed sort-shuffle overhead across hundreds of partial blocks for
    25 output rows.)  Returns a pandas DataFrame ordered by poly_id.
    """
    return _combine_frame(stats_ds.to_pandas())


RESULT_DTYPES = {
    "poly_id": "int64",
    "n_tiles": "int64",
    "n_px": "int64",
    "sum_v": "float64",
    "min_v": "float64",
    "max_v": "float64",
}


def _combine_frame(allp):
    """Per-polygon aggregate of a pandas frame of zonal partials, ordered
    by poly_id; a frame with no rows gives the typed result columns
    only."""
    import pandas as pd

    if allp.empty:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in RESULT_DTYPES.items()})
    return pd.DataFrame(_fold_by_poly(**{c: allp[c].to_numpy() for c in RESULT_DTYPES}))
