"""Decode / encode actor-pool stages.

The engine's equivalent of the reference bytes<->raster paths
(``RasterDataset.from_bytes`` / ``to_bytes``, gdal.py:546-607):
an image row's ``bytes`` column decodes into a ``pixels`` column
(raw C-order buffer) + ``bands`` so every downstream kernel can take a
zero-copy ``np.frombuffer`` view straight off the Arrow buffer.

Stateful pieces (codec dispatch, scratch) live in ``__init__`` — these
classes are passed to ``map_batches(Cls, concurrency=N)`` so setup
runs once per actor, per the actor-pool pattern.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa

from gdal_boots_ray.kernels.png import decode_image, encode_image


def pixels_view(buf, bands: int, h: int, w: int, dtype=np.uint8) -> np.ndarray:
    """Zero-copy view of a pixels buffer as (h, w) / (bands, h, w)."""
    arr = np.frombuffer(buf, dtype=dtype, count=bands * h * w)
    if bands == 1:
        return arr.reshape(h, w)
    return arr.reshape(bands, h, w)


def binary_column_views(col) -> list:
    """Zero-copy per-row memory views of a (large_)binary column —
    avoids the bytes copy of ``.as_py()`` per row in hot stages."""
    if isinstance(col, pa.ChunkedArray):
        # one chunk (a slice of a read, say) needs no concatenating copy
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    bufs = col.buffers()
    if pa.types.is_large_binary(col.type):
        off_dtype = np.int64
    elif pa.types.is_binary(col.type):
        off_dtype = np.int32
    else:  # fall back to copies for anything exotic
        return [col[i].as_py() for i in range(len(col))]
    offsets = np.frombuffer(bufs[1], dtype=off_dtype, count=len(col) + 1 + col.offset)[
        col.offset : col.offset + len(col) + 1
    ]
    values = np.frombuffer(bufs[2], dtype=np.uint8)
    return [values[offsets[i] : offsets[i + 1]] for i in range(len(col))]


def batch_pixel_views(batch: pa.Table) -> list:
    """Per-row (h,w)/(bands,h,w) zero-copy views of a decoded batch.
    Honors the per-row ``px_dtype`` column when present (multi-dtype
    pixel path, reference dtype map gdal.py:58-71); uint8 otherwise."""
    ws = batch.column("w").to_numpy()
    hs = batch.column("h").to_numpy()
    bands = batch.column("bands").to_numpy()
    if "px_dtype" in batch.column_names:
        dts = [np.dtype(s) for s in batch.column("px_dtype").to_pylist()]
    else:
        dts = [np.dtype(np.uint8)] * len(ws)
    raw = binary_column_views(batch.column("pixels"))
    return [
        pixels_view(raw[i], int(bands[i]), int(hs[i]), int(ws[i]), dtype=dts[i])
        for i in range(len(raw))
    ]


def large_binary_from_arrays(chunks: List[np.ndarray]) -> pa.LargeBinaryArray:
    """Build a large_binary column with a single copy into the value
    buffer (no per-row ``tobytes`` intermediates)."""
    sizes = np.fromiter((c.nbytes for c in chunks), np.int64, len(chunks))
    offsets = np.zeros(len(chunks) + 1, np.int64)
    np.cumsum(sizes, out=offsets[1:])
    values = np.empty(int(offsets[-1]), np.uint8)
    for c, o, s in zip(chunks, offsets[:-1], sizes):
        if c.dtype == np.uint8:
            # single copy, handles non-contiguous (e.g. transposed) sources
            values[o : o + s].reshape(c.shape)[...] = c
        else:
            values[o : o + s] = np.frombuffer(np.ascontiguousarray(c), np.uint8)
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(chunks), [None, pa.py_buffer(offsets), pa.py_buffer(values)]
    )


class DecodeImages:
    """bytes+fmt -> pixels(+bands) columns.  Use with
    ``ds.map_batches(DecodeImages, batch_format="pyarrow",
    concurrency=N, batch_size=B)``.

    Memory discipline (the decode path is bandwidth-bound at scale):
    'raw' rows are sliced zero-copy out of the input buffer; PNG rows
    decode through the vectorized uint8 unfilter; the output column is
    assembled with one copy via ``large_binary_from_arrays``.

    drop_bytes=True (default) sheds the encoded payload as soon as the
    pixels exist so blocks stay within target_max_block_size.
    """

    def __init__(self, drop_bytes: bool = True, validate: bool = False):
        self.drop_bytes = drop_bytes
        self.validate = validate

    def __call__(self, batch: pa.Table) -> pa.Table:
        from gdal_boots_ray.kernels.png import _RAW_HEADER_LEN, raw_header_full

        fmts = batch.column("fmt").to_pylist()
        blobs = binary_column_views(batch.column("bytes"))
        pixels: List[np.ndarray] = []
        dtypes: List[str] = []
        bands = np.empty(len(fmts), dtype=np.int32)
        ok = np.ones(len(fmts), dtype=bool)
        for i, fmt in enumerate(fmts):
            raw = blobs[i]
            try:
                if fmt == "raw":
                    # zero-copy slice for every dtype (payload is
                    # little-endian C-order, matching the view dtype)
                    dt, nb, _h, _w, nbytes = raw_header_full(raw)
                    img = raw[_RAW_HEADER_LEN : _RAW_HEADER_LEN + nbytes]
                    bands[i] = nb
                    dtypes.append(dt.name)
                else:
                    img = decode_image(raw, fmt)
                    bands[i] = 1 if img.ndim == 2 else img.shape[0]
                    dtypes.append(img.dtype.name)
            except Exception:
                if self.validate:
                    ok[i] = False
                    pixels.append(np.empty(0, np.uint8))
                    bands[i] = 0
                    dtypes.append("uint8")
                    continue
                raise
            pixels.append(img)
        out = batch
        if self.drop_bytes:
            out = out.drop_columns(["bytes"])
        for col in ("pixels", "bands", "px_dtype", "is_valid"):
            if col in out.column_names:
                out = out.drop_columns([col])
        out = out.append_column("pixels", large_binary_from_arrays(pixels))
        out = out.append_column("bands", pa.array(bands, pa.int32()))
        out = out.append_column("px_dtype", pa.array(dtypes, pa.string()))
        if self.validate:
            out = out.append_column("is_valid", pa.array(ok, pa.bool_()))
        return out


class DecodeWindows:
    """bytes+fmt+window(wx,wy,ww,wh) -> pixels of ONLY the window.

    The pipeline face of cloud-optimized windowed access: TIFF rows go
    through :func:`gtiff_decode_window` (O(touched tiles) on tiled
    files — the 100 TB crop path never decodes the full raster); every
    other format decodes then crops, same output either way.  ``w``/
    ``h`` columns are rewritten to the window dims and a ``gt`` column,
    when present, is translated to the window origin, so every
    downstream kernel (bounds, zonal, warp) sees a self-consistent
    smaller raster.  Window columns are validated against the source
    dims (ValueError on out-of-bounds, like the kernel)."""

    def __init__(self, drop_bytes: bool = True):
        self.drop_bytes = drop_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        from gdal_boots_ray.kernels.gtiff import gtiff_decode_window

        fmts = batch.column("fmt").to_pylist()
        blobs = binary_column_views(batch.column("bytes"))
        wx = batch.column("wx").to_numpy()
        wy = batch.column("wy").to_numpy()
        ww = batch.column("ww").to_numpy()
        wh = batch.column("wh").to_numpy()
        gts = batch.column("gt").to_pylist() if "gt" in batch.column_names else None
        pixels: List[np.ndarray] = []
        dtypes: List[str] = []
        bands = np.empty(len(fmts), dtype=np.int32)
        for i, fmt in enumerate(fmts):
            x0, y0, cw, ch = int(wx[i]), int(wy[i]), int(ww[i]), int(wh[i])
            if fmt in ("tif", "tiff", "gtiff"):
                img, win_gt, _ = gtiff_decode_window(bytes(blobs[i]), x0, y0, cw, ch)
            else:
                full = decode_image(blobs[i], fmt)
                fh, fw = full.shape[-2:]
                if not (0 <= x0 and 0 <= y0 and x0 + cw <= fw and y0 + ch <= fh and cw > 0 and ch > 0):
                    raise ValueError(f"window ({x0},{y0},{cw},{ch}) outside image {fw}x{fh}")
                img = full[..., y0 : y0 + ch, x0 : x0 + cw]
                win_gt = None
            if gts is not None and gts[i] is not None:
                if win_gt is None:  # translate the source gt ourselves
                    from gdal_boots_ray.kernels.gtiff import translate_gt

                    win_gt = translate_gt(gts[i], x0, y0)
                gts[i] = [float(v) for v in win_gt]
            bands[i] = 1 if img.ndim == 2 else img.shape[0]
            dtypes.append(img.dtype.name)
            pixels.append(np.ascontiguousarray(img))
        out = batch
        drop = ["wx", "wy", "ww", "wh"] + (["bytes"] if self.drop_bytes else [])
        drop += [c for c in ("pixels", "bands", "px_dtype") if c in out.column_names]
        out = out.drop_columns([c for c in drop if c in out.column_names])
        for name, arr in (("w", ww.astype(np.int32)), ("h", wh.astype(np.int32))):
            col = pa.array(arr, pa.int32())
            if name in out.column_names:
                out = out.set_column(out.column_names.index(name), name, col)
            else:
                out = out.append_column(name, col)
        if gts is not None:
            out = out.set_column(
                out.column_names.index("gt"), "gt", pa.array(gts, pa.list_(pa.float64(), 6))
            )
        out = out.append_column("pixels", large_binary_from_arrays(pixels))
        out = out.append_column("bands", pa.array(bands, pa.int32()))
        out = out.append_column("px_dtype", pa.array(dtypes, pa.string()))
        return out


def lossy_quantize(img: np.ndarray, bits: int) -> np.ndarray:
    """Uniform mid-rise quantization to ``bits`` bits (kept in uint8) —
    the engine's lossy mode; 5 bits keeps PSNR >= 40 dB (the
    BASELINE.json input_hint lossy fidelity gate)."""
    if bits >= 8:
        return img
    step = 1 << (8 - bits)
    q = (img.astype(np.int32) // step) * step + step // 2
    return np.clip(q, 0, 255).astype(np.uint8)


class EncodeImages:
    """pixels -> bytes column (png or raw), the encode/sink stage
    (reference ``to_bytes`` + driver options, options.py:43-56).
    ``quantize_bits`` < 8 enables the lossy mode (PSNR-gated)."""

    def __init__(self, fmt: str = "png", zlevel: int = 6, drop_pixels: bool = True,
                 quantize_bits: int = 8):
        self.fmt = fmt
        self.zlevel = zlevel
        self.drop_pixels = drop_pixels
        self.quantize_bits = quantize_bits

    def __call__(self, batch: pa.Table) -> pa.Table:
        ws = batch.column("w").to_numpy()
        views = batch_pixel_views(batch)  # zero-copy, dtype-aware
        blobs = []
        for i in range(len(ws)):
            img = views[i]
            if self.quantize_bits < 8 and img.dtype == np.uint8:
                img = lossy_quantize(img, self.quantize_bits)
            kw = {"zlevel": self.zlevel} if self.fmt == "png" else {}
            blobs.append(encode_image(img, self.fmt, **kw))
        out = batch
        if self.drop_pixels:
            out = out.drop_columns(["pixels"])
        if "bytes" in out.column_names:
            out = out.drop_columns(["bytes"])
        out = out.append_column("bytes", pa.array(blobs, pa.binary()))
        fmt_col = pa.array([self.fmt] * len(ws), pa.string())
        if "fmt" in out.column_names:
            out = out.set_column(out.column_names.index("fmt"), "fmt", fmt_col)
        else:
            out = out.append_column("fmt", fmt_col)
        return out


def make_set_band_descriptions(values):
    """Stage: attach a ``band_desc`` list<string> column (validated
    against each row's band count — M12, reference gdal.py:278-283)."""
    from gdal_boots_ray.kernels.raster_ops import band_descriptions_set

    def fn(batch: pa.Table) -> pa.Table:
        bands = batch.column("bands").to_numpy()
        col = [band_descriptions_set(int(b), values) for b in bands]
        if "band_desc" in batch.column_names:
            batch = batch.drop_columns(["band_desc"])
        return batch.append_column("band_desc", pa.array(col, pa.list_(pa.string())))

    return fn


def make_set_nodata(values):
    """Stage: attach a per-band ``nodata`` list<float64> column
    (reference per-band nodata get/set, gdal.py:265-276; a scalar
    applies to every band, None entries mean 'no nodata')."""

    def fn(batch: pa.Table) -> pa.Table:
        bands = batch.column("bands").to_numpy()
        col = []
        for b in bands:
            if values is None or isinstance(values, (int, float)):
                col.append([None if values is None else float(values)] * int(b))
            else:
                vals = list(values)
                if len(vals) != int(b):
                    raise ValueError(f"expected {int(b)} nodata values, got {len(vals)}")
                col.append([None if v is None else float(v) for v in vals])
        if "nodata" in batch.column_names:
            batch = batch.drop_columns(["nodata"])
        return batch.append_column("nodata", pa.array(col, pa.list_(pa.float64())))

    return fn


def batch_nodata(batch: pa.Table) -> list:
    """Per-row nodata lists (None where the column is absent) — the
    get side of M11 for kernels that take WarpSource(nodata=...)."""
    if "nodata" not in batch.column_names:
        return [None] * batch.num_rows
    return batch.column("nodata").to_pylist()
