"""In-memory raster ops: slice writes, band ops, metadata codec.

Reproduces the reference's numpy-facade semantics:

- ``write_window`` — ``RasterDataset.__setitem__`` selector parsing
  (reference gdal.py:392-472): int/slice band selector or tuple/list
  of band indices, (bands, y, x) / (y, x) selectors, scalar broadcast
  fill, 2D value auto-expanded to one band, and the
  "could not broadcast input array" error when band counts mismatch
  (asserted by tests/test_raster.py:503-520).
- ``add_band`` / ``as_type`` (gdal.py:474-479, 285-292).
- ``meta_encode`` / ``meta_decode`` — the metadata dict codec with the
  ``json:`` value prefix (gdal.py:41-52, 230-239) and the
  immutable-on-read view (``imdict``, gdal.py:91-109).

Provenance: the ``imdict`` shim and the ``__setitem__`` selector-parsing
control flow intentionally mirror the MIT-licensed reference
(habibutsu/gdal-boots, gdal.py:91-109 and 392-472) line for line —
those selector semantics ARE the specification this module reproduces
(SURVEY.md §2.2's exact selector matrix).  Everything else here is
original NumPy code.
"""

from __future__ import annotations

import json
from numbers import Number
from typing import Dict, Optional, Tuple, Union

import numpy as np


class imdict(dict):
    """Immutable dict view (reference gdal.py:91-109)."""

    def _immutable(self, *a, **k):
        raise TypeError("object is immutable")

    __setitem__ = _immutable
    __delitem__ = _immutable
    clear = _immutable
    update = _immutable
    setdefault = _immutable
    pop = _immutable
    popitem = _immutable

    def __hash__(self):
        return id(self)


def write_window(img: np.ndarray, selector, value) -> np.ndarray:
    """Apply ``ds[selector] = value`` reference semantics to a
    (bands, h, w) or (h, w) array IN PLACE; returns img."""
    shape = img.shape
    view3 = img if img.ndim == 3 else img[None]
    n_bands, H, W = view3.shape

    x_selector = None
    y_selector = None
    if isinstance(selector, tuple):
        if len(selector) == 2:
            if len(shape) == 3:
                bands_selector, y_selector = selector
            else:
                bands_selector = 0
                y_selector, x_selector = selector
        elif len(selector) == 3:
            if len(shape) == 2:
                raise IndexError("too many indices for array")
            bands_selector, y_selector, x_selector = selector
        else:
            raise IndexError("unsupported selector arity")
    else:
        bands_selector = selector

    if isinstance(bands_selector, int):
        bands_range = [bands_selector]
    elif isinstance(bands_selector, slice):
        bands_range = list(range(bands_selector.start or 0, bands_selector.stop or n_bands))
    elif isinstance(bands_selector, (tuple, list)):
        bands_range = list(bands_selector)
    else:
        raise NotImplementedError(f"not support indexing as {bands_selector}")

    def _axis(sel, size):
        if sel is None:
            return 0, size
        if isinstance(sel, int):
            return sel, sel + 1
        if isinstance(sel, slice):
            start = sel.start or 0
            stop = sel.stop or size
            return start, stop
        raise NotImplementedError(f"not support indexing as {sel}")

    xstart, xstop = _axis(x_selector, W)
    ystart, ystop = _axis(y_selector, H)
    xsize, ysize = xstop - xstart, ystop - ystart

    if isinstance(value, Number):
        block = np.full((len(bands_range), ysize, xsize), value, dtype=img.dtype)
    else:
        block = np.asarray(value)
        if block.ndim == 2:
            block = block[None]

    if len(bands_range) != block.shape[0]:
        raise ValueError("could not broadcast input array")

    for i, b in enumerate(bands_range):
        view3[b, ystart:ystop, xstart:xstop] = block[i]
    return img


def add_band(img: np.ndarray, value: Optional[np.ndarray] = None) -> np.ndarray:
    """Append one band (reference gdal.py:474-479). Returns new array."""
    view3 = img if img.ndim == 3 else img[None]
    new = np.zeros((view3.shape[0] + 1, view3.shape[1], view3.shape[2]), dtype=img.dtype)
    new[:-1] = view3
    if value is not None:
        new[-1] = value
    return new


def as_type(img: np.ndarray, dtype) -> np.ndarray:
    """dtype cast (meta/band descriptions ride in table columns)."""
    return img.astype(dtype)


def meta_encode(meta: Dict) -> str:
    """dict -> storage string with per-value ``json:`` prefix semantics
    (reference gdal.py:236-239: every value json-serialized with a
    ``json:`` marker so non-string types round-trip)."""
    return json.dumps({k: f"json:{json.dumps(v)}" for k, v in (meta or {}).items()})


def meta_decode(s: Optional[str]) -> imdict:
    """storage string -> immutable dict, stripping ``json:`` prefixes
    (reference gdal.py:232-233)."""
    if not s:
        return imdict()
    raw = json.loads(s)
    return imdict({k: json.loads(v[5:]) if isinstance(v, str) and v.startswith("json:") else v for k, v in raw.items()})


# ---------------------------------------------------------------------------
# Band descriptions (M12 — reference gdal.py:278-283)
# ---------------------------------------------------------------------------


def band_descriptions_get(descs, n_bands: int):
    """Normalized per-band description list (missing -> '' like GDAL's
    empty descriptions)."""
    out = list(descs or [])
    if len(out) > n_bands:
        raise ValueError(f"{len(out)} descriptions for {n_bands} bands")
    out.extend("" for _ in range(n_bands - len(out)))
    return out


def band_descriptions_set(n_bands: int, values) -> list:
    """Reference ``descriptions = [...]`` semantics: the assigned list
    must match the band count exactly (gdal.py:281-283)."""
    values = list(values)
    if len(values) != n_bands:
        raise ValueError(f"expected {n_bands} descriptions, got {len(values)}")
    return [str(v) for v in values]
