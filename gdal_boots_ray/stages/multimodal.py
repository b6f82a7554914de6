"""Image column stages: per-image features and the thumbnailing
resize, both over decoded pixel columns."""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa

from gdal_boots_ray.stages.decode import batch_pixel_views, large_binary_from_arrays


class ImageFeatures:
    """Per-image feature extraction over decoded pixels: per-band
    mean/std, 64-bit difference hash (dhash over an 8x9 average-pooled
    grid), and brightness histogram buckets.  Actor-pool stage."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        n = len(views)
        mean_v = np.empty(n)
        std_v = np.empty(n)
        dhash = np.empty(n, np.int64)
        for i, img in enumerate(views):
            b0 = img if img.ndim == 2 else img[0]
            mean_v[i] = float(b0.mean())
            std_v[i] = float(b0.std())
            dhash[i] = _dhash64(b0)
        batch = batch.append_column("mean_v", pa.array(mean_v))
        batch = batch.append_column("std_v", pa.array(std_v))
        batch = batch.append_column("dhash", pa.array(dhash, pa.int64()))
        return batch


def _dhash64(band: np.ndarray) -> int:
    """Difference hash: average-pool to 8x9, compare horizontal
    neighbors -> 64 bits (public perceptual-hash construction)."""
    h, w = band.shape
    ys = (np.linspace(0, h, 9)).astype(int)
    xs = (np.linspace(0, w, 10)).astype(int)
    pooled = np.empty((8, 9))
    for r in range(8):
        for c in range(9):
            pooled[r, c] = band[ys[r] : max(ys[r + 1], ys[r] + 1), xs[c] : max(xs[c + 1], xs[c] + 1)].mean()
    bits = (pooled[:, 1:] > pooled[:, :-1]).astype(np.uint64).ravel()
    val = int((bits << np.arange(64, dtype=np.uint64)).sum())
    return val - (1 << 64) if val >= (1 << 63) else val


def make_resize_images(out_px: int, resampling: str = "average"):
    """Resize every image to (out_px, out_px) with the warp kernel
    (nearest/bilinear/area family) — the thumbnailing stage."""
    from gdal_boots_ray.kernels.warp import WarpSource, warp

    def fn(batch: pa.Table) -> pa.Table:
        views = batch_pixel_views(batch)
        gts = batch.column("gt").combine_chunks().flatten().to_numpy(zero_copy_only=False).reshape(-1, 6)
        out_imgs: List[np.ndarray] = []
        bands_out = np.empty(len(views), np.int32)
        for i, img in enumerate(views):
            src = WarpSource(img if img.ndim == 3 else img[None], gts[i], 3857)
            h, w = img.shape[-2:]
            res_x = gts[i][0] * w / out_px
            res_y = -gts[i][4] * h / out_px
            out, gi = warp([src], resolution=(res_x, res_y), resampling=resampling)
            out_imgs.append(out.astype(np.uint8, copy=False))
            bands_out[i] = out.shape[0]
        out_tbl = batch.drop_columns([c for c in ("pixels", "bands", "w", "h") if c in batch.column_names])
        out_tbl = out_tbl.append_column("pixels", large_binary_from_arrays(out_imgs))
        out_tbl = out_tbl.append_column("bands", pa.array(bands_out, pa.int32()))
        n = len(views)
        out_tbl = out_tbl.append_column("w", pa.array(np.full(n, out_px, np.int32)))
        out_tbl = out_tbl.append_column("h", pa.array(np.full(n, out_px, np.int32)))
        return out_tbl

    return fn
