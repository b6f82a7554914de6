"""Pure-NumPy + zlib PNG codec.

Replaces GDAL's PNG driver for the engine's decode/encode stages
(reference ``RasterDataset.from_bytes`` / ``to_bytes``,
gdal.py:546-607).  Implements the PNG spec (RFC 2083 / W3C):

- decode: 8-bit and 16-bit greyscale (colour type 0), RGB (2),
  greyscale+alpha (4), RGBA (6); all five scanline filters; any zlib
  compression level; rejects palette/interlace (not produced by us).
- encode: 8-bit/16-bit, 1-4 bands, filter heuristics 'none' or 'sub',
  configurable zlib level (the ``PNG(zlevel=...)`` creation option of
  the reference, options.py:43-56).

Arrays use the engine raster layout ``(bands, h, w)`` (2D for 1 band),
matching reference ``RasterDataset.shape`` semantics (gdal.py:241-251).
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

import numpy as np

_MAGIC = b"\x89PNG\r\n\x1a\n"

_COLOR_TO_BANDS = {0: 1, 2: 3, 4: 2, 6: 4}
_BANDS_TO_COLOR = {1: 0, 2: 4, 3: 2, 4: 6}


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)


def png_encode(img: np.ndarray, zlevel: int = 6, filter_type: str = "sub") -> bytes:
    """Encode (bands,h,w) or (h,w) uint8/uint16 array to PNG bytes."""
    if img.ndim == 2:
        img = img[None, :, :]
    bands, h, w = img.shape
    if bands not in _BANDS_TO_COLOR:
        raise ValueError(f"PNG supports 1-4 bands, got {bands}")
    if img.dtype == np.uint8:
        depth = 8
    elif img.dtype == np.uint16:
        depth = 16
    else:
        raise ValueError(f"PNG supports uint8/uint16, got {img.dtype}")

    # interleave to (h, w, bands) row-major scanlines
    inter = np.ascontiguousarray(np.transpose(img, (1, 2, 0)))
    if depth == 16:
        inter = inter.astype(">u2")
    raw = inter.reshape(h, -1).view(np.uint8)
    raw = raw.reshape(h, -1)

    bpp = bands * (depth // 8)
    if filter_type == "none":
        filtered = np.concatenate([np.zeros((h, 1), np.uint8), raw], axis=1)
    elif filter_type == "sub":
        prev = np.zeros_like(raw)
        prev[:, bpp:] = raw[:, :-bpp]
        sub = (raw.astype(np.int16) - prev.astype(np.int16)).astype(np.uint8)
        filtered = np.concatenate([np.ones((h, 1), np.uint8), sub], axis=1)
    else:
        raise ValueError(f"unsupported filter heuristic {filter_type!r}")

    ihdr = struct.pack(">IIBBBBB", w, h, depth, _BANDS_TO_COLOR[bands], 0, 0, 0)
    idat = zlib.compress(filtered.tobytes(), zlevel)
    return _MAGIC + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _unfilter(filtered: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo PNG scanline filters. filtered: (h, 1+stride) uint8."""
    ftypes = filtered[:, 0]
    # Fast path: only None/Sub filters (what our encoder emits) have no
    # inter-row dependency -> fully vectorized, uint8 end-to-end
    # (uint8 cumsum wraps mod 256, which is exactly PNG semantics).
    if ftypes.max(initial=0) <= 1:
        data8 = np.ascontiguousarray(filtered[:, 1:])
        if not data8.flags.writeable:  # h==1: the slice aliases the read-only zlib buffer
            data8 = data8.copy()
        sub_rows = ftypes == 1
        if np.any(sub_rows):
            r = data8[sub_rows].reshape(int(sub_rows.sum()), -1, bpp)
            np.cumsum(r, axis=1, out=r, dtype=np.uint8)
            data8[sub_rows] = r.reshape(int(sub_rows.sum()), -1)
        return data8
    data = filtered[:, 1:].astype(np.int32)
    out = np.zeros((h, stride), dtype=np.int32)
    for y in range(h):
        ft = ftypes[y]
        row = data[y]
        prior = out[y - 1] if y > 0 else np.zeros(stride, dtype=np.int32)
        if ft == 0:
            out[y] = row
        elif ft == 1:  # Sub — cumulative along the row in bpp strides
            r = row.reshape(-1, bpp).copy()
            np.cumsum(r, axis=0, out=r)
            out[y] = (r & 0xFF).reshape(-1)
        elif ft == 2:  # Up
            out[y] = (row + prior) & 0xFF
        elif ft == 3:  # Average
            cur = np.zeros(stride, dtype=np.int32)
            for i in range(stride):
                left = cur[i - bpp] if i >= bpp else 0
                cur[i] = (row[i] + ((left + prior[i]) >> 1)) & 0xFF
            out[y] = cur
        elif ft == 4:  # Paeth
            cur = np.zeros(stride, dtype=np.int32)
            for i in range(stride):
                a = cur[i - bpp] if i >= bpp else 0
                b = prior[i]
                c = prior[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                cur[i] = (row[i] + pred) & 0xFF
            out[y] = cur
        else:
            raise ValueError(f"bad PNG filter type {ft}")
    return out.astype(np.uint8)


def _read_chunks(data):
    """(w, h, depth, color, zlib payload) of a PNG stream (bytes or any
    buffer, a memoryview or a uint8 array), or ValueError naming what is
    missing, short or malformed.  A single IDAT's payload is a view into
    ``data``, not a copy."""
    data = memoryview(data)
    if data[:8] != _MAGIC:
        raise ValueError("not a PNG stream")
    pos = 8
    ihdr = None
    idat = []
    n = len(data)
    while True:
        if pos + 8 > n:
            raise ValueError(f"truncated PNG: stream ends at byte {n} before the IEND chunk")
        (length,) = struct.unpack_from(">I", data, pos)
        tag = bytes(data[pos + 4 : pos + 8])
        if pos + 12 + length > n:
            raise ValueError(f"truncated PNG: {tag!r} chunk at byte {pos} needs {12 + length} bytes, {n - pos} left")
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise ValueError(f"corrupt PNG: IHDR is {length} bytes, expected 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
            w, h, depth, color, _comp, _filt, interlace = ihdr
            if interlace:
                raise ValueError("interlaced PNG not supported")
            if color not in _COLOR_TO_BANDS:
                raise ValueError(f"unsupported PNG colour type {color}")
            if depth not in (8, 16):
                raise ValueError(f"unsupported PNG bit depth {depth}")
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if ihdr is None:
        raise ValueError("corrupt PNG: no IHDR chunk")
    if not idat:
        raise ValueError("corrupt PNG: no IDAT chunk")
    return ihdr[0], ihdr[1], ihdr[2], ihdr[3], idat[0] if len(idat) == 1 else b"".join(idat)


def png_dtype(data) -> np.dtype:
    """The pixel dtype (uint8 or uint16) of a PNG stream, from its IHDR
    chunk; raises ValueError like ``png_decode`` on a bad stream."""
    return np.dtype(np.uint16 if _read_chunks(data)[2] == 16 else np.uint8)


def png_decode(data, band=None, out=None) -> np.ndarray:
    """Decode a PNG stream (bytes or any buffer, a memoryview or a uint8
    array) to (bands,h,w) (or (h,w) for 1 band) array.

    ``band=b`` returns only band ``b`` as a contiguous (h, w) array.
    For 8-bit streams whose scanlines use only the None/Sub filters
    (all that ``png_encode`` writes) it reads just that band's bytes
    out of the inflated scanlines, undoing Sub as a uint8 cumulative
    sum along each row — no full-width unfilter and no all-band
    transpose.  Any other stream is fully decoded and sliced.

    ``out``, an array of the result's shape (an (h, w) view into a
    bigger buffer, say), receives the pixels and is returned; on that
    fast path the cumulative sum writes straight into it.  Its dtype
    must hold the stream's (casting is ``"safe"``).

    A truncated or corrupt stream raises ValueError naming the cause
    (missing/short chunk, bad zlib data, wrong inflated size), and so
    does an ``out`` of the wrong shape."""
    w, h, depth, color, payload = _read_chunks(data)
    bands = _COLOR_TO_BANDS[color]
    if band is not None and not 0 <= band < bands:
        raise ValueError(f"band {band} out of range for a {bands}-band PNG")
    shape = (h, w) if band is not None or bands == 1 else (bands, h, w)
    if out is not None and out.shape != shape:
        raise ValueError(f"out is {out.shape}, the PNG decodes to {shape}")
    bpp = bands * (depth // 8)
    stride = w * bpp
    try:
        raw = zlib.decompress(payload)
    except zlib.error as e:
        raise ValueError(f"corrupt PNG: bad IDAT zlib stream ({e})") from e
    if len(raw) != h * (1 + stride):
        raise ValueError(f"corrupt PNG: IDAT inflates to {len(raw)} bytes, {w}x{h}x{bpp} needs {h * (1 + stride)}")
    filtered = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + stride)
    ftypes = filtered[:, 0]
    if band is not None and depth == 8 and ftypes.max(initial=0) <= 1:
        plane = filtered[:, 1 + band :: bands]  # (h, w) view; Sub's left neighbour is the previous column
        dest = out if out is not None and out.dtype == np.uint8 else np.empty((h, w), np.uint8)
        sub_rows = ftypes == 1
        if sub_rows.all():
            np.add.accumulate(plane, axis=1, dtype=np.uint8, out=dest)
        else:
            dest[...] = plane
            if sub_rows.any():
                dest[sub_rows] = np.add.accumulate(plane[sub_rows], axis=1, dtype=np.uint8)
        img = dest
    else:
        flat = _unfilter(filtered, h, stride, bpp)
        if depth == 16:
            img = flat.reshape(h, w, bands, 2)
            img = (img[..., 0].astype(np.uint16) << 8) | img[..., 1]
        else:
            img = flat.reshape(h, w, bands)
        img = img[:, :, band] if band is not None else np.transpose(img, (2, 0, 1)).reshape(shape)
    if out is None:
        return np.ascontiguousarray(img)
    if img is not out:
        np.copyto(out, img, casting="safe")
    return out


# ---------------------------------------------------------------------------
# 'raw' format: C-order little-endian dump + 12-byte header
# ---------------------------------------------------------------------------

_RAW_MAGIC = b"RAW1"
_DTYPE_CODE = {
    np.dtype("uint8"): 1,
    np.dtype("uint16"): 2,
    np.dtype("uint32"): 3,
    np.dtype("int16"): 4,
    np.dtype("int32"): 5,
    np.dtype("float32"): 6,
    np.dtype("float64"): 7,
    np.dtype("int8"): 8,
    np.dtype("int64"): 9,
}
_CODE_DTYPE = {v: k for k, v in _DTYPE_CODE.items()}


def raw_encode(img: np.ndarray) -> bytes:
    """Header (magic, dtype code, bands, h, w) + C-order LE pixel dump."""
    if img.ndim == 2:
        img = img[None]
    bands, h, w = img.shape
    code = _DTYPE_CODE[np.dtype(img.dtype)]
    hdr = _RAW_MAGIC + struct.pack("<BHII", code, bands, h, w)
    le = img.astype(img.dtype.newbyteorder("<"), copy=False)
    return hdr + np.ascontiguousarray(le).tobytes()


_RAW_HEADER_LEN = 4 + struct.calcsize("<BHII")


def raw_header_full(data) -> Tuple[np.dtype, int, int, int, int]:
    """(dtype, bands, h, w, payload_nbytes) of any RAW1 stream — lets
    callers slice the pixel payload zero-copy (reference dtype map
    gdal.py:58-71).  A short header or an unknown dtype code raises
    ValueError."""
    if bytes(data[:4]) != _RAW_MAGIC:
        raise ValueError("not a RAW1 stream")
    if len(data) < _RAW_HEADER_LEN:
        raise ValueError(f"truncated RAW1: {len(data)} bytes, the header needs {_RAW_HEADER_LEN}")
    code, bands, h, w = struct.unpack_from("<BHII", data, 4)
    if code not in _CODE_DTYPE:
        raise ValueError(f"corrupt RAW1: unknown dtype code {code}")
    dt = _CODE_DTYPE[code]
    return dt, bands, h, w, bands * h * w * dt.itemsize


def raw_decode(data) -> np.ndarray:
    dt, bands, h, w, _nbytes = raw_header_full(data)
    img = np.frombuffer(data, dtype=dt.newbyteorder("<"), offset=_RAW_HEADER_LEN, count=bands * h * w)
    img = img.reshape(bands, h, w).astype(dt, copy=False)
    if bands == 1:
        return img[0]
    return img


def decode_image(data, fmt: str, band=None, out=None) -> np.ndarray:
    """Decode ``data`` (bytes or any buffer: a memoryview or a uint8
    array) of format ``fmt`` to (bands,h,w) (or (h,w) for 1 band);
    ``band=b`` returns only band ``b`` as (h, w), which PNG decodes
    without touching the other bands.  PNG and raw read the buffer in
    place; the other formats get it as ``bytes``.  ``out``, an array of
    the result's shape, receives the pixels and is returned (see
    ``png_decode``); a wrong shape raises ValueError."""
    if fmt == "png":
        return png_decode(data, band=band, out=out)
    img = _decode_full(memoryview(data) if fmt == "raw" else bytes(data), fmt)
    if band is not None:
        nb = 1 if img.ndim == 2 else img.shape[0]
        if not 0 <= band < nb:
            raise ValueError(f"band {band} out of range for a {nb}-band {fmt} image")
        img = img if img.ndim == 2 else img[band]
    if out is None:
        return img
    if out.shape != img.shape:
        raise ValueError(f"out is {out.shape}, the {fmt} image decodes to {img.shape}")
    np.copyto(out, img, casting="safe")
    return out


def _decode_full(data, fmt: str) -> np.ndarray:
    if fmt == "raw":
        return raw_decode(data)
    if fmt in ("tif", "tiff", "gtiff"):
        from gdal_boots_ray.kernels.gtiff import gtiff_decode

        return gtiff_decode(data)[0]
    if fmt in ("jp2", "j2k"):
        from gdal_boots_ray.kernels.jp2.codestream import decode_jp2

        return decode_jp2(data)
    if fmt in ("jpeg", "jpg"):
        from gdal_boots_ray.kernels.jpeg import jpeg_decode

        img = jpeg_decode(data)
        return img if img.shape[0] > 1 else img[0]
    if fmt == "webp":
        from gdal_boots_ray.kernels.webp import webp_decode

        return webp_decode(data)[:3]  # RGB planes (alpha dropped)
    raise ValueError(f"unsupported image format {fmt!r}")


def encode_image(img: np.ndarray, fmt: str, **kw) -> bytes:
    if fmt == "png":
        return png_encode(img, **kw)
    if fmt == "raw":
        return raw_encode(img)
    if fmt in ("tif", "tiff", "gtiff"):
        from gdal_boots_ray.kernels.gtiff import gtiff_encode

        return gtiff_encode(img, **kw)
    if fmt in ("jp2", "j2k"):
        from gdal_boots_ray.kernels.jp2.codestream import encode_jp2

        return encode_jp2(img, **kw)
    if fmt in ("jpeg", "jpg"):
        from gdal_boots_ray.kernels.jpeg import jpeg_encode

        return jpeg_encode(img, **kw)
    if fmt == "webp":
        from gdal_boots_ray.kernels.webp import webp_encode

        return webp_encode(img, **kw)
    raise ValueError(f"unsupported image format {fmt!r}")


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (inf when identical) — the lossy
    fidelity gate of BASELINE.json input_hint (PSNR >= 40 dB)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))
