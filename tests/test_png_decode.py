"""PNG decode: single-band decode (``band=``) equals the matching plane
of a full decode on every path, the Up/Average/Paeth fallback decodes
an independently filtered stream, and truncated or corrupt streams
raise ValueError with the cause."""

import struct
import zlib

import numpy as np
import pytest

from gdal_boots_ray.kernels.png import _BANDS_TO_COLOR, _MAGIC, _chunk, decode_image, png_decode, png_encode


def _plane(full, b):
    return full if full.ndim == 2 else full[b]


@pytest.mark.parametrize("bands", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
@pytest.mark.parametrize("filter_type", ["none", "sub"])
@pytest.mark.parametrize("hw", [(1, 1), (1, 9), (7, 1), (23, 17)])
def test_band_decode_matches_full_decode(bands, dtype, filter_type, hw):
    rng = np.random.default_rng(bands * 100 + hw[0] * 10 + hw[1])
    img = rng.integers(0, np.iinfo(dtype).max, (bands, *hw), endpoint=True).astype(dtype)
    e = png_encode(img, filter_type=filter_type)
    full = png_decode(e)
    assert np.array_equal(full, img if bands > 1 else img[0])
    for b in range(bands):
        got = png_decode(e, band=b)
        assert got.dtype == dtype and got.shape == hw and got.flags.c_contiguous
        assert np.array_equal(got, _plane(full, b))
        assert np.array_equal(decode_image(e, "png", band=b), got)


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    return a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)


def _filter_row(ft, cur, prior, bpp):
    """Forward PNG filter of one scanline (ints), the encoder side."""
    out = []
    for i, x in enumerate(cur):
        a = cur[i - bpp] if i >= bpp else 0
        b = prior[i]
        c = prior[i - bpp] if i >= bpp else 0
        pred = [0, a, b, (a + b) // 2, _paeth(a, b, c)][ft]
        out.append((x - pred) & 0xFF)
    return [ft] + out


def _hand_built(img, ftypes):
    """PNG stream of (bands, h, w) uint8 ``img`` with scanline filter
    ``ftypes[y]`` on row y — not something png_encode can write."""
    bands, h, w = img.shape
    rows = np.transpose(img, (1, 2, 0)).reshape(h, -1).astype(int).tolist()
    prior = [0] * (w * bands)
    data = []
    for y in range(h):
        data += _filter_row(ftypes[y], rows[y], prior, bands)
        prior = rows[y]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, _BANDS_TO_COLOR[bands], 0, 0, 0)
    return _MAGIC + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", zlib.compress(bytes(data))) + _chunk(b"IEND", b"")


@pytest.mark.parametrize("bands", [1, 3, 4])
@pytest.mark.parametrize("ftypes", ["up_avg_paeth", "none_sub_mixed"])
def test_hand_built_filters(bands, ftypes):
    rng = np.random.default_rng(bands)
    img = rng.integers(0, 256, (bands, 9, 6)).astype(np.uint8)
    pattern = [2, 3, 4, 0, 1] if ftypes == "up_avg_paeth" else [1, 0, 0, 1, 1]
    e = _hand_built(img, [pattern[y % 5] for y in range(9)])
    full = png_decode(e)
    assert np.array_equal(full, img if bands > 1 else img[0])
    for b in range(bands):
        assert np.array_equal(png_decode(e, band=b), img[b])


def test_band_out_of_range():
    e = png_encode(np.zeros((3, 4, 4), np.uint8))
    for b in (-1, 3):
        with pytest.raises(ValueError, match="band"):
            png_decode(e, band=b)
    with pytest.raises(ValueError, match="band"):
        decode_image(b"RAW1" + struct.pack("<BHII", 1, 1, 2, 2) + bytes(4), "raw", band=1)


def test_truncated_stream_raises_value_error():
    img = np.random.default_rng(0).integers(0, 256, (3, 16, 16)).astype(np.uint8)
    e = png_encode(img)
    for cut in [0, 7, 8, 20, 33, 40, len(e) // 2, len(e) - 12, len(e) - 1]:
        for band in (None, 0):
            with pytest.raises(ValueError, match="PNG"):
                png_decode(e[:cut], band=band)


def _with_idat(e, payload):
    """Stream ``e`` with its IDAT payload replaced (valid chunk CRC)."""
    return e[:33] + _chunk(b"IDAT", payload) + _chunk(b"IEND", b"")


@pytest.mark.parametrize("band", [None, 0])
def test_corrupt_stream_raises_value_error(band):
    img = np.random.default_rng(1).integers(0, 256, (3, 16, 16)).astype(np.uint8)
    e = png_encode(img)
    idat = e[41:-16]
    inflated = zlib.decompress(idat)
    cases = {
        "zlib stream": _with_idat(e, idat[:-9] + bytes(9)),
        "inflates to": _with_idat(e, zlib.compress(inflated[:-5])),
        "IHDR is 12 bytes": e[:8] + _chunk(b"IHDR", e[16:28]) + e[33:],
        "no IHDR": e[:8] + e[33:],
        "no IDAT": e[:33] + _chunk(b"IEND", b""),
        "filter type 7": _with_idat(e, zlib.compress(b"\x07" + inflated[1:])),
    }
    for cause, data in cases.items():
        with pytest.raises(ValueError, match=cause):
            png_decode(data, band=band)
