"""Hypothesis property tests for the round-5 codec wave: random
payloads/shapes through Zstandard, LERC and VP8L must
round-trip bit-exactly (and zstd must stay interoperable with the
reference libzstd in both directions on every generated case).

Example counts are deliberately modest (the codecs are pure Python);
the generators bias toward the edge geometry that breaks codecs —
empty inputs, single elements, block-boundary lengths, extreme
values, degenerate (constant) content.
"""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from gdal_boots_ray.kernels.lerc import lerc_decode, lerc_encode
from gdal_boots_ray.kernels.webp import webp_decode, webp_encode
from gdal_boots_ray.kernels.zstd import zstd_compress, zstd_decompress

_REF_ZSTD = pa.Codec("zstd")


@st.composite
def _byte_payloads(draw):
    kind = draw(st.integers(0, 4))
    n = draw(st.sampled_from([0, 1, 2, 3, 7, 8, 255, 256, 257, 4095, 4096,
                              4097, 20000, 131071, 131072, 131073, 180000])
             | st.integers(0, 30000))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if kind == 0:
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    if kind == 1:
        return bytes([draw(st.integers(0, 255))]) * n
    if kind == 2:
        pat = bytes(rng.integers(0, 256, max(1, n % 17 + 1), dtype=np.uint8))
        return (pat * (n // len(pat) + 1))[:n]
    if kind == 3:
        return np.cumsum(rng.integers(-2, 3, max(n, 1))).astype(np.uint8).tobytes()[:n]
    return bytes(rng.choice(4, n).astype(np.uint8) + 97)


@settings(max_examples=40, deadline=None)
@given(_byte_payloads())
def test_zstd_roundtrip_and_interop(data):
    blob = zstd_compress(data)
    assert zstd_decompress(blob) == data
    assert bytes(_REF_ZSTD.decompress(blob, len(data))) == data
    theirs = bytes(_REF_ZSTD.compress(data))
    assert zstd_decompress(theirs) == data


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    bands=st.integers(1, 3),
    dt=st.sampled_from(["uint8", "int16", "uint16", "int32", "float32"]),
    seed=st.integers(0, 2**31 - 1),
)
def test_lerc_lossless_roundtrip(h, w, bands, dt, seed):
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dt)
    if dtype.kind == "f":
        x = rng.normal(0, 100, (bands, h, w)).astype(dtype)
    else:
        info = np.iinfo(dtype)
        x = rng.integers(max(info.min, -10**6), min(info.max, 10**6),
                         (bands, h, w)).astype(dtype)
    back = lerc_decode(lerc_encode(x))
    assert back.dtype == x.dtype
    assert np.array_equal(back, x)


@settings(max_examples=20, deadline=None)
@given(
    err=st.sampled_from([0.01, 0.25, 2.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_lerc_lossy_error_bound(err, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 50, (1, 33, 29)).astype(np.float32)
    back = lerc_decode(lerc_encode(x, max_z_error=err))
    assert np.abs(back.astype(np.float64) - x.astype(np.float64)).max() <= err


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(1, 40),
    w=st.integers(1, 40),
    ch=st.sampled_from([3, 4]),
    palette=st.integers(0, 2),
    cache_bits=st.sampled_from([0, 4, 8]),
    seed=st.integers(0, 2**31 - 1),
)
def test_webp_roundtrip(h, w, ch, palette, cache_bits, seed):
    rng = np.random.default_rng(seed)
    if palette == 0:
        img = rng.integers(0, 256, (ch, h, w), dtype=np.uint8)
    elif palette == 1:
        pal = rng.integers(0, 256, (5, ch), dtype=np.uint8)
        img = np.transpose(pal[rng.integers(0, 5, (h, w))], (2, 0, 1)).copy()
    else:
        img = np.full((ch, h, w), rng.integers(0, 256), np.uint8)
    blob = webp_encode(img, cache_bits=cache_bits)
    back = webp_decode(blob)
    assert np.array_equal(back[:ch], img)
