"""Resumable raster->vector tile extraction.

The production shape of reference ``crop_by_geometry`` at scale
(north_rule: "checkpoints per-partition lineage ... so a killed job
replays only incomplete partitions"):

    images parquet -> PIP join (broadcast) -> decode matched -> crop
    to polygon (warp + mask) -> encode png -> write one parquet
    partition PER POLYGON with an atomic manifest (rows, digest).

A rerun consults the manifests first and processes only polygons whose
partition is missing (anti-join resume, state/manifest.py); finished
partitions are skipped without reading their tiles again (the PIP join
filters on the resume plan before decode).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from gdal_boots_ray.sources.fixtures import nation_polygons
from gdal_boots_ray.stages.decode import DecodeImages, EncodeImages
from gdal_boots_ray.stages.geo import add_bounds
from gdal_boots_ray.stages.joins import BroadcastPIPJoin, put_polygons
from gdal_boots_ray.stages.zonal import CropTiles
from gdal_boots_ray.state.manifest import completed_partitions, finalize_run, resume_plan, write_partitioned


def extract_tiles(
    images_path: str,
    polygons: Sequence[dict],
    out_dir: str,
    encode_fmt: str = "png",
    batch_size: int = 64,
):
    """Run (or resume) the extraction; returns the run summary dict."""
    todo = set(resume_plan(out_dir, [p["poly_id"] for p in polygons]))
    active = [p for p in polygons if p["poly_id"] in todo]
    if not active:
        return finalize_run(out_dir)
    poly_ref = put_polygons(active)
    active_ref = ray.put(active)

    # one fused stateless stage (bounds -> PIP -> decode -> crop ->
    # encode): fuses with the read, and — unlike a chain of actor
    # pools — reserves no CPUs, so small sessions can't deadlock on
    # pool minimums starving the read stage.
    def fused(batch: pa.Table, _cache={}) -> pa.Table:
        st = _cache.get("st")
        if st is None:
            polys_local = ray.get(active_ref)
            st = _cache["st"] = (
                BroadcastPIPJoin(
                    poly_ref,
                    keep_cols=["image_id", "bytes", "fmt", "w", "h", "gt", "epsg", "cx", "cy"],
                ),
                DecodeImages(),
                CropTiles(polys_local),
                EncodeImages(fmt=encode_fmt),
            )
        join, decode, crop, encode = st
        matched = join(add_bounds(batch))
        # the chain is schema-stable on empty batches (typed empties)
        return encode(crop(decode(matched)))

    ds = rd.read_parquet(images_path)
    ds = ds.map_batches(fused, batch_format="pyarrow", batch_size=batch_size)
    write_partitioned(ds, out_dir, "poly_id").to_pandas()  # consume (small receipt rows)
    return finalize_run(out_dir)
